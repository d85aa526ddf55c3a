"""R-peak detection and per-beat fiducial windows.

Two detectors of different principles are provided so that their
agreement (bSQI) reflects signal quality rather than detector identity:
an energy detector (derivative - square - moving integration with an
adaptive threshold, after Pan & Tompkins) and a matched-filter detector
correlating against a QRS kernel averaged from the energy detections.
The matched detector takes those detections as an argument, so a window
runs the energy detector once (see ``preprocess.compute_bsqi``).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

REFRACTORY_S = 0.2  # 300 bpm ceiling
INTEG_WINDOW_S = 0.150
KERNEL_HALF_S = 0.060
SEARCHBACK_S = 1.2  # gap without a beat that triggers half-threshold searchback


@dataclass
class BeatMap:
    fs: float
    r_peaks: np.ndarray  # sorted sample indices
    rr_intervals: np.ndarray  # seconds, len = len(r_peaks) - 1
    fiducials: np.ndarray  # (n_beats, 4): p_on, qrs_on, qrs_off, t_off

    def to_json_dict(self) -> dict:
        return {
            "fs": self.fs,
            "r_peaks": self.r_peaks.tolist(),
            "rr_intervals": self.rr_intervals.tolist(),
            "fiducials": self.fiducials.tolist(),
        }


class MatchedResult(NamedTuple):
    indices: np.ndarray
    degraded: bool


def _odd(w: int) -> int:
    return max(1, w | 1)


def moving_average(x, w):
    """Centered mean over ``w`` samples; the window shrinks at the edges."""
    kernel = np.ones(w, dtype=np.float64)
    sums = np.convolve(x, kernel, mode="same")
    counts = np.convolve(np.ones(len(x)), kernel, mode="same")
    return sums / counts


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
    """
    n = feat.shape[0]
    out = np.empty(n, dtype=np.int64)
    m = 0
    lim = min(init_len, n)
    fmax = 0.0
    fsum = 0.0
    for j in range(lim):
        v = feat[j]
        fsum += v
        if v > fmax:
            fmax = v
    if fmax <= 0.0:
        # flat or empty feature: nothing can ever cross a positive threshold
        return out[:m]
    spk = fmax
    npk = 0.5 * fsum / lim
    thr = npk + 0.25 * (spk - npk)
    last = 0
    best_v = 0.0
    best_i = -1
    for i in range(1, n - 1):
        if feat[i] >= feat[i - 1] and feat[i] > feat[i + 1]:
            v = feat[i]
            if v > thr:
                # peaks inside the refractory window belong to the same
                # beat: neither signal nor noise, so they leave the
                # running estimates untouched
                if m == 0 or i - last >= min_dist:
                    spk = 0.125 * v + 0.875 * spk
                    out[m] = i
                    m += 1
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
            out[m] = best_i
            m += 1
            last = best_i
            best_v = 0.0
            best_i = -1
            thr = npk + 0.25 * (spk - npk)
    return out[:m]


def _scan(feat, fs: float) -> np.ndarray:
    """Candidate peaks of ``feat``: 200 ms refractory, 2 s initialization."""
    return adaptive_scan(feat, int(round(REFRACTORY_S * fs)), int(round(2.0 * fs)),
                         int(round(SEARCHBACK_S * fs)))


def _refine(score, raw, half: int, min_dist: int) -> np.ndarray:
    """Snap each candidate to the largest ``score`` within ``half`` samples,
    then keep the stronger of any two refined peaks closer than ``min_dist``."""
    refined = []
    for p in raw:
        lo = max(0, p - half)
        hi = min(len(score), p + half + 1)
        refined.append(lo + int(np.argmax(score[lo:hi])))
    refined = np.array(sorted(set(refined)), dtype=np.int64)
    if len(refined) < 2:
        return refined
    keep = [0]
    for i in range(1, len(refined)):
        if refined[i] - refined[keep[-1]] >= min_dist:
            keep.append(i)
        elif score[refined[i]] > score[refined[keep[-1]]]:
            keep[-1] = i
    return refined[keep]


def detect_r_peaks_energy(x, fs: float) -> np.ndarray:
    """Energy-based detector with adaptive threshold, 200 ms refractory."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 5 * fs:
        raise ValueError(f"need at least 5 s of signal, got {len(x) / fs:.1f} s")
    d = np.diff(x, prepend=x[0])
    feat = moving_average(d * d, _odd(int(round(INTEG_WINDOW_S * fs))))
    return _refine(x * x, _scan(feat, fs), int(round(0.100 * fs)), int(round(REFRACTORY_S * fs)))


def detect_r_peaks_matched(x, fs: float, first) -> MatchedResult:
    """Correlation against a QRS kernel averaged from first-pass detections.

    ``first`` holds the energy detector's R peaks on ``x``. They are
    returned as they are (degraded=True) when fewer than three of them
    are available to estimate a kernel.
    """
    x = np.asarray(x, dtype=np.float64)
    first = np.asarray(first, dtype=np.int64)
    half = int(round(KERNEL_HALF_S * fs))
    usable = first[(first >= half) & (first < len(x) - half)]
    if len(usable) < 3:
        return MatchedResult(first, True)
    kernel = np.mean([x[p - half : p + half + 1] for p in usable], axis=0)
    kernel = kernel - kernel.mean()
    norm = np.linalg.norm(kernel)
    if norm == 0:
        return MatchedResult(first, True)
    corr = np.correlate(x, kernel / norm, mode="same")
    feat = np.clip(corr, 0.0, None) ** 2
    # refine on the correlation itself so this detector stays independent
    refined = _refine(corr, _scan(feat, fs), half, int(round(REFRACTORY_S * fs)))
    return MatchedResult(refined, False)


def _matched_mask(det_a, det_b, tol: float) -> np.ndarray:
    """Boolean mask over det_a marking detections matched in det_b within
    ``tol`` samples (greedy, one-to-one, in time order)."""
    mask = np.zeros(len(det_a), dtype=bool)
    j = 0
    for i, p in enumerate(det_a):
        while j < len(det_b) and det_b[j] < p - tol:
            j += 1
        if j < len(det_b) and abs(det_b[j] - p) <= tol:
            mask[i] = True
            j += 1
    return mask


def match_detections(det_a, det_b, fs: float, tol_ms: float = 150.0) -> int:
    """Number of detections in det_a matched within tol_ms in det_b (greedy)."""
    return int(_matched_mask(det_a, det_b, tol_ms / 1000.0 * fs).sum())


def segment_fiducials(x, fs: float, r_peaks) -> BeatMap:
    """Fixed-offset fiducials per beat, clipped to bounds and neighbors.

    p_on = R - 300 ms, qrs_on = R - 50 ms, qrs_off = R + 100 ms,
    t_off = R + min(450 ms, 0.7 * RR_next). The last beat uses the median
    RR for the t_off rule.
    """
    x = np.asarray(x, dtype=np.float64)
    r_peaks = np.asarray(r_peaks, dtype=np.int64)
    if len(r_peaks) < 2:
        raise ValueError("need at least 2 R-peaks for fiducials")
    n = len(x)
    rr = np.diff(r_peaks) / fs
    med_rr = float(np.median(rr))
    p_off = int(round(0.300 * fs))
    qon_off = int(round(0.050 * fs))
    qoff_off = int(round(0.100 * fs))
    fid = np.zeros((len(r_peaks), 4), dtype=np.int64)
    for i, r in enumerate(r_peaks):
        rr_next = rr[i] if i < len(rr) else med_rr
        t_len = int(round(min(0.450, 0.7 * rr_next) * fs))
        p_on = max(0, r - p_off)
        qrs_on = max(p_on, r - qon_off)
        qrs_off = min(n - 1, r + qoff_off)
        t_off = min(n - 1, r + t_len)
        if i + 1 < len(r_peaks):
            # never extend into the next QRS (0.7*RR < RR - 50 ms for any
            # RR above the refractory period, so this rarely binds)
            t_off = min(t_off, r_peaks[i + 1] - qon_off)
        t_off = max(t_off, qrs_off)
        fid[i] = (p_on, qrs_on, qrs_off, t_off)
    return BeatMap(fs=fs, r_peaks=r_peaks, rr_intervals=rr, fiducials=fid)
