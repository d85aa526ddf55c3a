"""ECG prefiltering and beat-agreement quality gating.

Bandpass (default 0.67-100 Hz, upper edge clamped below Nyquist) and a
power-line notch, both applied forward-backward for zero net phase.
Quality is gated per segment with bSQI, the agreement ratio between two
independent beat detectors. The energy detections that bSQI is computed
from are the window's R peaks: ``compute_bsqi`` returns them with the
report, so nothing downstream runs a detector again.
"""

from dataclasses import dataclass

import numpy as np
import scipy

from .beats import detect_r_peaks_energy, detect_r_peaks_matched, matched_mask
from .errors import ConfigError, SignalTooShortError


@dataclass
class FilterSpec:
    band_low: float = 0.67
    band_high: float = 100.0
    notch_freq: float = 60.0
    notch_q: float = 30.0
    notch_enabled: bool = True

    def effective_band_high(self, fs: float) -> float:
        # a passband edge at Nyquist is unrealizable; clamp to 0.45*fs
        return min(self.band_high, 0.45 * fs)


@dataclass
class QualityReport:
    segment_bsqi: list  # of (start_sample, end_sample, bsqi)
    pass_mask: list
    r_peaks: np.ndarray  # the energy detections the gate used

    def all_pass(self) -> bool:
        return bool(self.pass_mask) and all(self.pass_mask)


def bandpass_zero_phase(x, fs: float, spec: FilterSpec | None = None) -> np.ndarray:
    """Forward-backward second-order bandpass; output length = input length."""
    spec = spec or FilterSpec()
    x = np.asarray(x, dtype=np.float64)
    lo = spec.band_low
    hi = spec.effective_band_high(fs)
    if lo <= 0 or lo >= hi:
        raise ConfigError(f"infeasible passband [{lo}, {hi}] Hz at fs={fs}")
    if fs <= 2 * lo:
        raise ConfigError(f"fs={fs} too low for band_low={lo}")
    b, a = scipy.signal.butter(1, [lo, hi], btype="bandpass", fs=fs)
    order = max(len(a), len(b)) - 1
    if len(x) <= 6 * order:
        raise SignalTooShortError(
            f"signal of {len(x)} samples too short for bandpass (need > {6 * order})"
        )
    # reflect-pad roughly 3x the slowest pole's settle time
    padlen = min(len(x) - 1, int(round(3.0 * fs / lo)))
    return scipy.signal.filtfilt(b, a, x, padtype="even", padlen=padlen)


def check_notch(spec: FilterSpec) -> None:
    """Raise ConfigError unless the notch's frequency and quality are positive."""
    for key, value in (("notch_freq", spec.notch_freq), ("notch_q", spec.notch_q)):
        if not value > 0:
            raise ConfigError(f"filter.{key} must be positive, not {value}")


def notch_zero_phase(x, fs: float, spec: FilterSpec | None = None) -> np.ndarray:
    """Forward-backward notch at spec.notch_freq with quality spec.notch_q."""
    spec = spec or FilterSpec()
    x = np.asarray(x, dtype=np.float64)
    if spec.notch_freq >= fs / 2:
        raise ConfigError(
            f"notch at {spec.notch_freq} Hz infeasible for fs={fs} (Nyquist {fs / 2})"
        )
    check_notch(spec)
    b, a = scipy.signal.iirnotch(spec.notch_freq, spec.notch_q, fs=fs)
    if len(x) <= 12:
        raise SignalTooShortError(f"signal of {len(x)} samples too short for notch")
    padlen = min(len(x) - 1, int(round(3.0 * fs * spec.notch_q / spec.notch_freq)))
    return scipy.signal.filtfilt(b, a, x, padtype="even", padlen=padlen)


def prefilter(x, fs: float, spec: FilterSpec | None = None) -> np.ndarray:
    """Bandpass followed by the notch (when enabled and feasible)."""
    spec = spec or FilterSpec()
    y = bandpass_zero_phase(x, fs, spec)
    if spec.notch_enabled and spec.notch_freq < fs / 2:
        y = notch_zero_phase(y, fs, spec)
    return y


def _bsqi(m: int, na: int, nb: int) -> float:
    denom = na + nb - m
    return m / denom if denom > 0 else 0.0


def compute_bsqi(
    x,
    fs: float,
    segment_s: float = 10.0,
    match_tol_ms: float = 150.0,
    threshold: float = 0.8,
) -> QualityReport:
    """Per-segment bSQI between the energy and matched-filter detectors.

    Detectors run on the whole signal; detections are then attributed to
    segments, so segment boundaries do not create detector edge effects.
    A segment with no detections at all scores 0. The energy detections
    are returned as ``r_peaks``.
    """
    if segment_s < 5:
        raise ConfigError("bSQI segment length must be at least 5 s")
    x = np.asarray(x, dtype=np.float64)
    det_a = detect_r_peaks_energy(x, fs)
    det_b = detect_r_peaks_matched(x, fs, det_a)
    # pair up detections globally (greedy, nearest-in-time)
    matched_a = matched_mask(det_a, det_b, match_tol_ms / 1000.0 * fs)

    # segment edges; a tail shorter than half a segment joins the one before
    seg_n = int(round(segment_s * fs))
    edges = list(range(0, len(x), seg_n)) + [len(x)]
    if len(edges) > 2 and edges[-1] - edges[-2] < seg_n / 2:
        del edges[-2]
    # detections are sorted, so a segment's count is a difference of ranks
    na, nb, m = (np.diff(np.searchsorted(d, edges)).tolist()
                 for d in (det_a, det_b, det_a[matched_a]))
    segments = [(s, e, _bsqi(*c)) for s, e, *c in zip(edges, edges[1:], m, na, nb)]
    mask = [b >= threshold for _, _, b in segments]
    return QualityReport(segment_bsqi=segments, pass_mask=mask, r_peaks=det_a)

