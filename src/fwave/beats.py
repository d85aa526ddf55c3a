"""R-peak detection.

Two detectors of different principles are provided so that their
agreement (bSQI) reflects signal quality rather than detector identity:
an energy detector (derivative - square - moving integration with an
adaptive threshold, after Pan & Tompkins) and a matched-filter detector
correlating against a QRS kernel averaged from the energy detections.
The matched detector takes those detections as an argument, so a window
runs the energy detector once (see ``preprocess.compute_bsqi``). Where
beats are cut around these peaks is declared in ``extract``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SignalTooShortError

REFRACTORY_S = 0.2  # 300 bpm ceiling
INTEG_WINDOW_S = 0.150
KERNEL_HALF_S = 0.060
SEARCHBACK_S = 1.2  # gap without a beat that triggers half-threshold searchback
MIN_SIGNAL_S = 5.0  # the shortest signal the energy detector takes


def _odd(w: int) -> int:
    return max(1, w | 1)


def moving_average(x, w):
    """Centered mean over an odd ``w`` samples; the window shrinks at the
    edges, so sample ``i`` of ``n`` averages ``min(i, h) + min(n - 1 - i,
    h) + 1`` samples, ``h = w // 2``."""
    n, h = len(x), w // 2
    sums = np.convolve(x, np.ones(w, dtype=np.float64))[h : h + n]
    i = np.arange(n)
    return sums / (np.minimum(i, h) + np.minimum(n - 1 - i, h) + 1)


def adaptive_scan(feat, min_dist, init_len, searchback):
    """Adaptive-threshold scan for local maxima of a detection feature.

    Running signal/noise peak estimates in the style of classic QRS
    detectors; everything is relative to the feature amplitude so the
    scan is invariant to positive rescaling of the input signal. The
    signal-peak estimate is seeded from the strongest value in the
    initialization window so that small bumps before the first strong
    peak never fire the detector.

    If no peak is accepted for ``searchback`` samples, the strongest
    sub-threshold local maximum since the last accepted peak is taken
    at half threshold; this recovers low-amplitude beats without
    lowering the threshold for the whole record.

    The scan is event-driven (the peak-wise form of Pan & Tompkins, 1985)
    and returns what a walk over every sample returns: it visits the local
    maxima, the sample before each and the last sample ``n - 2``, since
    between two maxima only searchback acts and its condition only grows.
    """
    n = feat.shape[0]
    lim = min(init_len, n)
    spk = float(feat[:lim].max()) if lim else 0.0
    if spk <= 0.0:
        # flat or empty feature: nothing can ever cross a positive threshold
        return np.empty(0, dtype=np.int64)
    # cumsum adds in sample order, as a running sum would; np.sum does not
    npk = 0.5 * float(np.cumsum(feat[:lim])[-1]) / lim
    thr = npk + 0.25 * (spk - npk)
    mid = feat[1:-1]
    peaks = np.flatnonzero((mid >= feat[:-2]) & (mid > feat[2:])) + 1
    at = np.c_[peaks - 1, peaks].ravel().tolist() + [n - 2]
    vals = [None] * len(at)  # None: only the searchback check
    vals[1::2] = feat[peaks].tolist()
    out = []
    last = 0
    best_v = 0.0
    best_i = -1
    for i, v in zip(at, vals):
        if v is not None:
            if v > thr:
                # peaks inside the refractory window belong to the same
                # beat: neither signal nor noise, so they leave the
                # running estimates untouched
                if not out or i - last >= min_dist:
                    spk = 0.125 * v + 0.875 * spk
                    out.append(i)
                    last = i
                    best_v = 0.0
                    best_i = -1
            else:
                npk = 0.125 * v + 0.875 * npk
                if v > best_v and i - last >= min_dist:
                    best_v = v
                    best_i = i
            thr = npk + 0.25 * (spk - npk)
        if i - last > searchback and best_i > 0 and best_v > 0.5 * thr:
            spk = 0.25 * best_v + 0.75 * spk
            out.append(best_i)
            last = best_i
            best_v = 0.0
            best_i = -1
            thr = npk + 0.25 * (spk - npk)
    return np.array(out, dtype=np.int64)


def _scan(feat, fs: float) -> np.ndarray:
    """Candidate peaks of ``feat``: 200 ms refractory, 2 s initialization."""
    return adaptive_scan(feat, int(round(REFRACTORY_S * fs)), int(round(2.0 * fs)),
                         int(round(SEARCHBACK_S * fs)))


def _refine(score, raw, half: int, min_dist: int) -> np.ndarray:
    """Snap each candidate to the largest ``score`` within ``half`` samples,
    then keep the stronger of any two refined peaks closer than ``min_dist``."""
    raw = np.asarray(raw, dtype=np.int64)
    # one row per candidate, padded with -inf where the span leaves the signal
    pad = np.full(half, -np.inf)
    spans = sliding_window_view(np.concatenate((pad, score, pad)), 2 * half + 1)[raw]
    refined = np.unique(raw - half + np.argmax(spans, axis=1))
    if len(refined) < 2:
        return refined
    at, strength = refined.tolist(), score[refined].tolist()
    keep = [0]
    for i in range(1, len(at)):
        if at[i] - at[keep[-1]] >= min_dist:
            keep.append(i)
        elif strength[i] > strength[keep[-1]]:
            keep[-1] = i
    return refined[keep]


def detect_r_peaks_energy(x, fs: float) -> np.ndarray:
    """Energy-based detector with adaptive threshold, 200 ms refractory."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < MIN_SIGNAL_S * fs:
        raise SignalTooShortError(
            f"need at least {MIN_SIGNAL_S:g} s of signal, got {len(x) / fs:.1f} s"
        )
    d = np.diff(x, prepend=x[0])
    feat = moving_average(d * d, _odd(int(round(INTEG_WINDOW_S * fs))))
    return _refine(x * x, _scan(feat, fs), int(round(0.100 * fs)), int(round(REFRACTORY_S * fs)))


def detect_r_peaks_matched(x, fs: float, first) -> np.ndarray:
    """Correlation against a QRS kernel averaged from first-pass detections.

    ``first`` holds the energy detector's R peaks on ``x``. They are
    returned as they are when fewer than three of them are available to
    estimate a kernel.
    """
    x = np.asarray(x, dtype=np.float64)
    first = np.asarray(first, dtype=np.int64)
    half = int(round(KERNEL_HALF_S * fs))
    usable = first[(first >= half) & (first < len(x) - half)]
    if len(usable) < 3:
        return first
    kernel = np.mean([x[p - half : p + half + 1] for p in usable], axis=0)
    kernel = kernel - kernel.mean()
    norm = np.linalg.norm(kernel)
    if norm == 0:
        return first
    corr = np.correlate(x, kernel / norm, mode="same")
    feat = np.clip(corr, 0.0, None) ** 2
    # refine on the correlation itself so this detector stays independent
    return _refine(corr, _scan(feat, fs), half, int(round(REFRACTORY_S * fs)))


def matched_mask(det_a, det_b, tol: float) -> np.ndarray:
    """Boolean mask over det_a marking detections matched in det_b within
    ``tol`` samples (greedy, one-to-one, in time order)."""
    det_b = np.asarray(det_b).tolist()
    mask = np.zeros(len(det_a), dtype=bool)
    j = 0
    for i, p in enumerate(np.asarray(det_a).tolist()):
        while j < len(det_b) and det_b[j] < p - tol:
            j += 1
        if j < len(det_b) and abs(det_b[j] - p) <= tol:
            mask[i] = True
            j += 1
    return mask
