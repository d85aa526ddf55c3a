"""Template-subtraction f-wave extractors.

All four methods cancel ventricular activity beat by beat and return
the residual, which carries the atrial f-wave plus whatever the
cancellation left behind:

  * TS_B   - subtract the averaged QRST template as-is.
  * TS_CE  - one least-squares gain per beat before subtraction.
  * TS_SU  - independent least-squares gains for the P, QRS and T
             sub-windows, blended with a short crossfade.
  * TS_PCA - per-beat reconstruction from the leading singular
             directions of the beat matrix; the residual keeps what the
             low-rank ventricular subspace cannot represent.

One ``BeatMatrix`` per window (``beat_matrix``) holds what the four
share: the beats whose full template span fits inside the signal, their
R-aligned (beats x span) stack, its mean template and each beat's span,
clipped at the following beat's span start so spans never overlap.
Every extractor takes that matrix and runs the same subtraction loop
over those spans; beats too close to the edges for a full span, and
samples outside every span, pass through unchanged.
"""

from dataclasses import dataclass, field

import numpy as np

from .beats import BeatMap
from .errors import ExtractionError

METHODS = ("TS_B", "TS_CE", "TS_SU", "TS_PCA")

SPAN_PRE_S = 0.300  # template span start, before R
SPAN_POST_S = 0.450  # template span end, after R
GAIN_CLAMP = (0.0, 3.0)
CROSSFADE_S = 0.020
DEFAULT_MIN_BEATS = 8


@dataclass
class BeatMatrix:
    x: np.ndarray  # the window, float64
    beats: BeatMap
    kept: np.ndarray  # positions in beats.r_peaks of the full-span beats
    stack: np.ndarray  # (kept beats x span) R-aligned beat windows
    template: np.ndarray  # stack mean: one R-aligned cardiac cycle
    starts: np.ndarray  # per kept beat: span start, R - pre
    ends: np.ndarray  # per kept beat: span end, clipped at the next beat's start


@dataclass
class FWaveSignal:
    residual: np.ndarray
    method: str
    beats_used: int
    per_beat_gains: np.ndarray = field(default_factory=lambda: np.empty((0,)))
    spans: list = field(default_factory=list)  # (start, end) actually processed
    flags: list = field(default_factory=list)


def beat_matrix(x, beats: BeatMap, min_beats: int = DEFAULT_MIN_BEATS) -> BeatMatrix:
    """Stack the R-aligned windows of every full-span beat and average them.

    Beats whose window would exceed the signal bounds are left out and
    do not count toward min_beats. A non-finite stack entry (or an
    overflowing mean) makes the template non-finite and raises.
    """
    x = np.asarray(x, dtype=np.float64)
    pre, post = int(round(SPAN_PRE_S * beats.fs)), int(round(SPAN_POST_S * beats.fs))
    r = np.asarray(beats.r_peaks, dtype=np.int64)
    kept = np.flatnonzero((r - pre >= 0) & (r + post + 1 <= len(x)))
    if len(kept) < min_beats:
        raise ExtractionError(f"only {len(kept)} usable beats, need at least {min_beats}")
    starts = r[kept] - pre
    stack = x[starts[:, None] + np.arange(pre + post + 1)]
    template = stack.mean(axis=0)
    if not np.all(np.isfinite(template)):
        raise ExtractionError("template contains non-finite values")
    # half-open spans R-pre .. R+post inclusive, cut where the next beat's span starts
    ends = starts + pre + post + 1
    inner = kept + 1 < len(r)
    ends[inner] = np.minimum(ends[inner], r[kept[inner] + 1] - pre)
    return BeatMatrix(x, beats, kept, stack, template, starts, ends)


def _subtract(bm: BeatMatrix, method, gain=None, rows=None, flags=None):
    """Shared subtraction loop over the kept beats' clipped spans.

    Each span loses ``g * model``: the model is the template, or the
    beat's own row of ``rows``; g is 1, or whatever
    ``gain(xb, tb, start, index, flags, log)`` returns for the beat at
    ``beats.r_peaks[index]``. gain appends what it wants recorded per
    beat to ``log`` and any warning to ``flags``.
    """
    flags = [] if flags is None else flags
    residual = bm.x.copy()
    spans, log = [], []
    for j, (i, a, b) in enumerate(zip(bm.kept.tolist(), bm.starts.tolist(), bm.ends.tolist())):
        xb = bm.x[a:b]
        tb = (bm.template if rows is None else rows[j])[: b - a]
        g = 1.0 if gain is None else gain(xb, tb, a, i, flags, log)
        residual[a:b] = xb - g * tb
        spans.append((a, b))
    return FWaveSignal(
        residual=residual,
        method=method,
        beats_used=len(spans),
        per_beat_gains=np.array(log) if log else np.empty((0,)),
        spans=spans,
        flags=flags,
    )


def ts_basic(bm: BeatMatrix) -> FWaveSignal:
    """Subtract the R-aligned average template at every beat (gain 1)."""
    return _subtract(bm, "TS_B")


def _ls_gain(xb, tb):
    denom = float(np.dot(tb, tb))
    if denom == 0.0:
        return None
    g = float(np.dot(xb, tb)) / denom
    return min(max(g, GAIN_CLAMP[0]), GAIN_CLAMP[1])


def ts_scaled(bm: BeatMatrix) -> FWaveSignal:
    """One least-squares gain per beat: a = <x, t> / <t, t>, clamped."""
    if float(np.dot(bm.template, bm.template)) == 0.0:
        raise ExtractionError("flat template: cannot fit a gain")

    def gain(xb, tb, a, i, flags, log):
        g = _ls_gain(xb, tb)
        if g is None:
            flags.append(f"flat template slice at beat {bm.beats.r_peaks[i]}")
            g = 0.0
        log.append(g)
        return g

    return _subtract(bm, "TS_CE", gain)


def ts_segment_scaled(bm: BeatMatrix) -> FWaveSignal:
    """Independent P / QRS / T least-squares gains with a 20 ms crossfade.

    The T-segment gain extends from qrs_off through the end of the span;
    a degenerate (flat) template sub-window gets gain 0 and a flag.
    """
    fade = int(round(CROSSFADE_S * bm.beats.fs))

    def gain(xb, tb, a, i, flags, log):
        b = a + len(xb)
        r = bm.beats.r_peaks[i]
        p_on, qrs_on, qrs_off, _ = bm.beats.fiducials[i]
        # segment boundaries inside [a, b)
        b1 = int(np.clip(qrs_on, a, b))
        b2 = int(np.clip(qrs_off, a, b))
        g = np.empty(b - a, dtype=np.float64)
        segs = ((a, b1, "P"), (b1, b2, "QRS"), (b2, b, "T"))
        seg_gain = []
        for s0, s1, name in segs:
            if s1 <= s0:
                seg_gain.append(0.0)
                continue
            gi = _ls_gain(xb[s0 - a : s1 - a], tb[s0 - a : s1 - a])
            if gi is None:
                flags.append(f"degenerate {name} segment at beat {r}")
                gi = 0.0
            seg_gain.append(gi)
        g[: b1 - a] = seg_gain[0]
        g[b1 - a : b2 - a] = seg_gain[1]
        g[b2 - a :] = seg_gain[2]
        for boundary, left, right in ((b1, seg_gain[0], seg_gain[1]), (b2, seg_gain[1], seg_gain[2])):
            lo = max(a, boundary - fade // 2)
            hi = min(b, boundary + fade - fade // 2)
            if hi > lo:
                ramp = np.linspace(0.0, 1.0, hi - lo)
                g[lo - a : hi - a] = left + (right - left) * ramp
        log.append(tuple(seg_gain))
        return g

    return _subtract(bm, "TS_SU", gain)


def ts_pca(bm: BeatMatrix, var_target: float = 0.95, max_rank: int = 3) -> FWaveSignal:
    """Reconstruct each beat from the leading singular directions.

    The smallest rank whose cumulative squared-singular-value fraction
    of the beat stack reaches var_target (capped at max_rank) defines
    the ventricular subspace.
    """
    try:
        u, s, vt = np.linalg.svd(bm.stack, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ExtractionError(f"SVD of the beat matrix failed: {exc}") from None
    energy = s * s
    total = float(energy.sum())
    if total == 0.0:
        k = 1
    else:
        frac = np.cumsum(energy) / total
        k = int(np.searchsorted(frac, var_target - 1e-12) + 1)
    k = min(k, max_rank, len(s))
    recon = (u[:, :k] * s[:k]) @ vt[:k]
    return _subtract(bm, "TS_PCA", rows=recon, flags=[f"rank={k}"])


_EXTRACTORS = {
    "TS_B": ts_basic,
    "TS_CE": ts_scaled,
    "TS_SU": ts_segment_scaled,
    "TS_PCA": ts_pca,
}


def extract(method: str, bm: BeatMatrix) -> FWaveSignal:
    """Dispatch to one of the four extractors by method tag."""
    if method not in _EXTRACTORS:
        raise ExtractionError(f"unknown extraction method {method!r}")
    return _EXTRACTORS[method](bm)
