"""ECG prefiltering and beat-agreement quality gating.

Bandpass (default 0.67-100 Hz, upper edge clamped below Nyquist) and a
power-line notch, both applied forward-backward for zero net phase.
The filter designs are scipy.signal's (``butter(1, ...)`` and
``iirnotch``) computed in numpy, bit for bit, and the recursion runs
in blocks of ``_BLOCK`` samples: one matrix product per pass and a
short loop that carries the filter state from block to block. So the
filters need numpy alone, and no fwave module loads scipy.
Quality is gated per segment with bSQI, the agreement ratio between two
independent beat detectors. The energy detections that bSQI is computed
from are the window's R peaks: ``compute_bsqi`` returns them with the
report, so nothing downstream runs a detector again.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

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


def _poly(roots):
    """Monic polynomial of ``roots``, real when they pair up in conjugates
    (scipy.signal's ``poly``: one ``np.convolve`` per root)."""
    c = np.ones(1, dtype=roots.dtype)
    for r in roots:
        c = np.convolve(c, np.stack((np.ones_like(r), -r)))
    if np.iscomplexobj(c) and np.all(np.sort(roots.imag) == np.sort(np.conj(roots).imag)):
        c = c.real.copy()
    return c


def butter1(wn, fs):
    """First-order Butterworth ``(b, a)``: a lowpass at ``wn`` Hz, or a
    bandpass when ``wn`` is ``(low, high)``. Equals ``scipy.signal.butter(1,
    wn, btype, fs=fs)`` bit for bit by taking its steps: the analog
    prototype, ``lp2lp_zpk`` or ``lp2bp_zpk`` at prewarped edges,
    ``bilinear_zpk`` at fs = 2 and the product of the roots."""
    edges = np.asarray(wn, dtype=np.float64)
    wn = edges / (float(fs) / 2)
    if not np.all((wn > 0) & (wn < 1)):
        raise ConfigError(f"filter edges {edges} Hz must lie in (0, {fs / 2}) at fs={fs}")
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)
    p = -np.exp(1j * np.pi * np.zeros(1) / 2)  # buttap(1): one pole at -1
    if wn.ndim == 0:
        wo = float(warped)
        z, p, k = np.zeros(0), wo * p, wo
    else:
        bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
        p = p * bw / 2
        z = np.zeros(1, dtype=np.complex128)
        p, k = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2))), bw
    # bilinear transform; the zero at infinity goes to Nyquist
    z_z = np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(len(p) - len(z))))
    k = k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    return k * _poly(z_z), _poly((4.0 + p) / (4.0 - p))


def iirnotch(f0, q, fs):
    """Second-order notch ``(b, a)`` at ``f0`` Hz with quality ``q``:
    ``scipy.signal.iirnotch``'s closed form, bit for bit."""
    w0 = 2 * float(f0) / float(fs)
    bw = w0 / float(q) * math.pi
    w0 = w0 * math.pi
    gain = 1.0 / (1.0 + math.tan(bw / 2.0))
    b = gain * np.array([1.0, -2.0 * math.cos(w0), 1.0])
    return b, np.array([1.0, -2.0 * gain * math.cos(w0), 2.0 * gain - 1.0])


def lfilter(b, a, x, zi=None):
    """``scipy.signal.lfilter(b, a, x, zi=zi)``'s output, to rounding.

    The recursion ``sum_k a[k] y[n-k] = sum_k b[k] x[n-k]`` (plus the
    initial state ``zi`` on the first samples) runs in blocks of
    ``_BLOCK`` samples: see ``_solve``.
    """
    b, a = np.asarray(b, dtype=np.float64) / a[0], np.asarray(a, dtype=np.float64) / a[0]
    return _solve(b, a, x, zi)


_BLOCK = 256  # samples per block of the filter recursion
_TINY = 2.0**-960  # forced terms below this run sample by sample


@functools.lru_cache(maxsize=16)
def _block_operators(a):
    """The recursion ``1 / A`` over one block, for a normalised ``a``
    (a tuple, ``a[0] == 1``, ``p = len(a) - 1 < _BLOCK``): its impulse
    response; the block's lower-triangular impulse-response matrix,
    transposed; the ``(_BLOCK, p)`` response of the block to the p
    outputs before it, newest first; and the ``(p, p)`` rows of that
    response that give the block's own last p outputs, newest first.

    All are built in ``np.longdouble``; the impulse response and the last
    one stay in it. Near a double pole, the state that enters a block
    cancels terms about ``1 / (1 - |pole|)`` times its response, and
    extended precision (80 bits on x86) keeps that below float64
    rounding."""
    p = len(a) - 1
    a = np.array(a, dtype=np.longdouble)
    h = [np.longdouble(1.0)]
    for i in range(1, _BLOCK):
        h.append(-sum(a[k] * h[i - k] for k in range(1, min(i, p) + 1)))
    h = np.array(h)
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    impulse = np.where(lag >= 0, h[np.maximum(lag, 0)], 0)
    # the outputs before the block enter its first p samples as a forcing
    forcing = np.zeros((p, p), dtype=np.longdouble)
    for i in range(p):
        forcing[i, :p - i] = -a[i + 1:]
    state = impulse[:, :p] @ forcing
    return h, impulse.T.astype(np.float64), state.astype(np.float64), state[::-1][:p].copy()


def _solve(b, a, x, zi):
    """``lfilter`` of normalised ``b`` and ``a`` over ``x``. The forced
    term ``convolve(x, b)``, zero-padded to whole blocks, goes through
    every block's impulse response in one matrix product. The initial
    state ``zi`` adds its response to the first block, and a loop over
    blocks carries the p outputs before each block forward; one more
    product adds their response."""
    n = len(x)
    h, impulse_t, state, carry = _block_operators(tuple(a.tolist()))
    blocks = np.zeros((-(-n // _BLOCK), _BLOCK))
    v = blocks.reshape(-1)
    v[:n] = np.convolve(x, b)[:n]
    size = np.abs(v).max()
    if zi is not None:
        size = max(size, np.abs(zi).max(initial=0.0))
    if 0 < size < _TINY:
        return _sample_by_sample(b, a, x, zi)
    y = blocks @ impulse_t
    # the state enters in extended precision: see ``_block_operators``
    first = y[0].astype(np.longdouble)
    if zi is not None and len(zi):
        first += np.convolve(np.asarray(zi, dtype=np.longdouble), h)[:_BLOCK]
    if len(carry):
        ends = y[:, ::-1][:, :len(carry)].astype(np.longdouble)
        ends[0] = first[::-1][:len(carry)]
        before = np.zeros(ends.shape, dtype=np.longdouble)
        for j in range(1, len(y)):
            before[j] = ends[j - 1] + carry @ before[j - 1]
        y += before.astype(np.float64) @ state.T
    y[0] = first
    return y.reshape(-1)[:n]


def _sample_by_sample(b, a, x, zi):
    """``lfilter`` of normalised ``b`` and ``a`` one sample at a time, in
    ``scipy.signal.lfilter``'s order (direct form II transposed), which it
    equals bit for bit. For forced terms below ``_TINY``: there the blocked
    products underflow into subnormals, and their rounding is no longer
    small next to the output."""
    p = max(len(a), len(b)) - 1
    b = b.tolist() + [0.0] * (p + 1 - len(b))
    a = a.tolist() + [0.0] * (p + 1 - len(a))
    z = [0.0] * p if zi is None else np.asarray(zi, dtype=np.float64).tolist()
    y = []
    for xn in np.asarray(x, dtype=np.float64).tolist():
        yn = (z[0] if p else 0.0) + b[0] * xn
        for k in range(p - 1):
            z[k] = z[k + 1] + xn * b[k + 1] - yn * a[k + 1]
        if p:
            z[p - 1] = xn * b[p] - yn * a[p]
        y.append(yn)
    return np.array(y)


def filtfilt(b, a, x, padlen):
    """``scipy.signal.filtfilt(b, a, x, padtype="even", padlen=padlen)``,
    to rounding: the same even extension, steady-state initial state and
    forward-backward order, through ``lfilter``'s blocked recursion.
    Needs ``padlen < len(x)``."""
    ext = np.concatenate((x[padlen:0:-1], x, x[-2:-(padlen + 2):-1]))
    # lfilter_zi: the state in which a unit step is at steady state
    b, a = np.asarray(b, dtype=np.float64) / a[0], np.asarray(a, dtype=np.float64) / a[0]
    companion = np.eye(len(a) - 1, k=-1)
    companion[0] = -a[1:]
    zi = np.linalg.solve(np.eye(len(a) - 1) - companion.T, b[1:] - a[1:] * b[0])
    y = _solve(b, a, ext, zi * ext[0])
    y = _solve(b, a, y[::-1], zi * y[-1])[::-1]
    return y[padlen:len(y) - padlen]


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
    b, a = butter1([lo, hi], fs)
    order = max(len(a), len(b)) - 1
    if len(x) <= 6 * order:
        raise SignalTooShortError(
            f"signal of {len(x)} samples too short for bandpass (need > {6 * order})"
        )
    # reflect-pad roughly 3x the slowest pole's settle time
    padlen = min(len(x) - 1, int(round(3.0 * fs / lo)))
    return filtfilt(b, a, x, padlen)


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
    b, a = iirnotch(spec.notch_freq, spec.notch_q, fs)
    if len(x) <= 12:
        raise SignalTooShortError(f"signal of {len(x)} samples too short for notch")
    padlen = min(len(x) - 1, int(round(3.0 * fs * spec.notch_q / spec.notch_freq)))
    return filtfilt(b, a, x, padlen)


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

