"""ECG prefiltering and beat-agreement quality gating.

Bandpass (default 0.67-100 Hz, upper edge clamped below Nyquist) and a
power-line notch, both applied forward-backward for zero net phase.
Quality is gated per segment with bSQI, the agreement ratio between two
independent beat detectors. The energy detections that bSQI is computed
from are the window's R peaks: ``compute_bsqi`` returns them with the
report, so nothing downstream runs a detector again.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sig

from .beats import _matched_mask, detect_r_peaks_energy, detect_r_peaks_matched, match_detections
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

    @classmethod
    def from_dict(cls, d: dict) -> "FilterSpec":
        return cls(**d)


@dataclass
class QualityReport:
    segment_bsqi: list  # of (start_sample, end_sample, bsqi)
    threshold: float = 0.8
    pass_mask: list = field(default_factory=list)
    r_peaks: np.ndarray | None = None  # the energy detections the gate used

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
    b, a = sig.butter(1, [lo, hi], btype="bandpass", fs=fs)
    order = max(len(a), len(b)) - 1
    if len(x) <= 6 * order:
        raise SignalTooShortError(
            f"signal of {len(x)} samples too short for bandpass (need > {6 * order})"
        )
    # reflect-pad roughly 3x the slowest pole's settle time
    padlen = min(len(x) - 1, int(round(3.0 * fs / lo)))
    return sig.filtfilt(b, a, x, padtype="even", padlen=padlen)


def notch_zero_phase(x, fs: float, spec: FilterSpec | None = None) -> np.ndarray:
    """Forward-backward notch at spec.notch_freq with quality spec.notch_q."""
    spec = spec or FilterSpec()
    x = np.asarray(x, dtype=np.float64)
    if spec.notch_freq >= fs / 2:
        raise ConfigError(
            f"notch at {spec.notch_freq} Hz infeasible for fs={fs} (Nyquist {fs / 2})"
        )
    b, a = sig.iirnotch(spec.notch_freq, spec.notch_q, fs=fs)
    if len(x) <= 12:
        raise SignalTooShortError(f"signal of {len(x)} samples too short for notch")
    padlen = min(len(x) - 1, int(round(3.0 * fs * spec.notch_q / spec.notch_freq)))
    return sig.filtfilt(b, a, x, padtype="even", padlen=padlen)


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


def bsqi_from_detections(det_a, det_b, fs: float, match_tol_ms: float = 150.0) -> float:
    """Agreement ratio m / (n_a + n_b - m) with m matches within the tolerance."""
    return _bsqi(match_detections(det_a, det_b, fs, match_tol_ms), len(det_a), len(det_b))


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
    det_b = detect_r_peaks_matched(x, fs, det_a).indices
    # pair up detections globally (greedy, nearest-in-time)
    matched_a = _matched_mask(det_a, det_b, match_tol_ms / 1000.0 * fs)

    seg_n = int(round(segment_s * fs))
    n = len(x)
    bounds = list(range(0, n, seg_n))
    segments, mask = [], []
    for start in bounds:
        end = min(start + seg_n, n)
        if end - start < seg_n / 2 and segments:
            # fold a short tail into the previous segment
            s0, _, _ = segments.pop()
            mask.pop()
            start = s0
        na = int(np.sum((det_a >= start) & (det_a < end)))
        nb = int(np.sum((det_b >= start) & (det_b < end)))
        m = int(np.sum(matched_a & (det_a >= start) & (det_a < end)))
        bsqi = _bsqi(m, na, nb)
        segments.append((start, end, bsqi))
        mask.append(bsqi >= threshold)
    return QualityReport(
        segment_bsqi=segments, threshold=threshold, pass_mask=mask, r_peaks=det_a
    )

