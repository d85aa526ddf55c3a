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

One ``BeatMatrix`` per window (``beat_matrix``, from the window's R
peaks) holds what the four share: the beats whose full template span
fits inside the signal, their R-aligned (beats x span) stack, its mean
template and each beat's span, clipped at the following beat's span
start so spans never overlap; ``segment_fiducials`` lists each kept
beat's cuts, which TS_SU fits its gains between and ``--dump-beats`` writes.
Every extractor builds from that matrix its model of each beat, a
(beats x span) matrix: the template, the template times a gain per beat
or per sample, or a low-rank reconstruction. One gather/scatter then
subtracts each model row from its beat's span; beats too close to the
edges for a full span, and samples outside every span, pass through
unchanged.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ExtractionError

METHODS = ("TS_B", "TS_CE", "TS_SU", "TS_PCA")

# beat layout around R: the template span and the QRS complex
SPAN_PRE_S = 0.300
SPAN_POST_S = 0.450
QRS_ON_S = 0.050
QRS_OFF_S = 0.100
GAIN_CLAMP = (0.0, 3.0)
CROSSFADE_S = 0.020
DEFAULT_MIN_BEATS = 8


@dataclass
class BeatMatrix:
    x: np.ndarray  # the window, float64
    fs: float
    r_peaks: np.ndarray  # R peaks of the kept (full-span) beats
    stack: np.ndarray  # (kept beats x span) R-aligned beat windows
    template: np.ndarray  # stack mean: one R-aligned cardiac cycle
    starts: np.ndarray  # per kept beat: span start, R - pre
    ends: np.ndarray  # per kept beat: span end, clipped at the next beat's start
    row: np.ndarray  # per sample of the concatenated spans: its kept beat
    col: np.ndarray  # per sample of the concatenated spans: its offset in the span


@dataclass
class FWaveSignal:
    residual: np.ndarray
    method: str
    beats_used: int
    per_beat_gains: np.ndarray = field(default_factory=lambda: np.empty((0,)))
    spans: list = field(default_factory=list)  # (start, end) actually processed
    flags: list = field(default_factory=list)


def beat_matrix(x, fs: float, r_peaks, min_beats: int = DEFAULT_MIN_BEATS) -> BeatMatrix:
    """Stack the R-aligned windows of every full-span beat and average them.

    ``r_peaks`` are sorted sample indices. Beats whose window would exceed
    the signal bounds are left out and do not count toward min_beats. A
    non-finite stack entry (or an overflowing mean) makes the template
    non-finite and raises.
    """
    x = np.asarray(x, dtype=np.float64)
    pre, post = int(round(SPAN_PRE_S * fs)), int(round(SPAN_POST_S * fs))
    r = np.asarray(r_peaks, dtype=np.int64)
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
    lengths = ends - starts
    row = np.repeat(np.arange(len(kept)), lengths)
    col = np.arange(len(row)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return BeatMatrix(x, fs, r[kept], stack, template, starts, ends, row, col)


def segment_fiducials(bm: BeatMatrix) -> np.ndarray:
    """Each kept beat's cuts (kept beats x 4): span start, QRS onset, QRS
    offset and span end, the bounds of its half-open P, QRS and T
    sub-spans. The QRS is R - QRS_ON_S to R + QRS_OFF_S, clipped to the span."""
    qrs_on = np.clip(bm.r_peaks - int(round(QRS_ON_S * bm.fs)), bm.starts, bm.ends)
    qrs_off = np.clip(bm.r_peaks + int(round(QRS_OFF_S * bm.fs)), bm.starts, bm.ends)
    return np.stack([bm.starts, qrs_on, qrs_off, bm.ends], axis=1)


def _subtract(bm: BeatMatrix, method, model, gains=None, flags=()):
    """Subtract from each kept beat's clipped span its row of ``model``
    (kept beats x span), in one gather/scatter over all spans."""
    residual = bm.x.copy()
    pos = bm.starts[bm.row] + bm.col
    residual[pos] = bm.x[pos] - model[bm.row, bm.col]
    return FWaveSignal(
        residual=residual,
        method=method,
        beats_used=len(bm.r_peaks),
        per_beat_gains=np.empty((0,)) if gains is None else gains,
        spans=list(zip(bm.starts.tolist(), bm.ends.tolist())),
        flags=list(flags),
    )


def ts_basic(bm: BeatMatrix) -> FWaveSignal:
    """Subtract the R-aligned average template at every beat (gain 1)."""
    return _subtract(bm, "TS_B", np.broadcast_to(bm.template, bm.stack.shape))


def _ls_gains(bm: BeatMatrix, cuts):
    """Clamped least-squares gains a = <x, t> / <t, t> of every kept beat's
    sub-spans [cuts[j, k], cuts[j, k + 1]), where cuts[j, 0] is the span
    start. A flat (zero-energy, or empty) template sub-span gets gain 0;
    returns the (beats x sub-spans) gains and a mask of the flat ones.
    """
    t = bm.template
    gains, flat = [], []
    for bounds in cuts.tolist():
        a = bounds[0]
        for s0, s1 in zip(bounds, bounds[1:]):
            tb = t[s0 - a : s1 - a]
            denom = float(np.dot(tb, tb))
            flat.append(denom == 0.0)
            g = 0.0 if flat[-1] else float(np.dot(bm.x[s0:s1], tb)) / denom
            gains.append(min(max(g, GAIN_CLAMP[0]), GAIN_CLAMP[1]))
    shape = (len(cuts), cuts.shape[1] - 1)
    return np.array(gains).reshape(shape), np.array(flat, dtype=bool).reshape(shape)


def ts_scaled(bm: BeatMatrix) -> FWaveSignal:
    """One least-squares gain per beat: a = <x, t> / <t, t>, clamped."""
    if float(np.dot(bm.template, bm.template)) == 0.0:
        raise ExtractionError("flat template: cannot fit a gain")
    g, flat = _ls_gains(bm, np.stack([bm.starts, bm.ends], axis=1))
    flags = [f"flat template slice at beat {r}" for r in bm.r_peaks[flat[:, 0]].tolist()]
    return _subtract(bm, "TS_CE", g * bm.template, g[:, 0], flags)


def ts_segment_scaled(bm: BeatMatrix) -> FWaveSignal:
    """Independent P / QRS / T least-squares gains with a 20 ms crossfade.

    The sub-windows are cut at ``segment_fiducials``; the T-segment gain
    extends from the QRS offset through the end of the span. A degenerate
    (flat) template sub-window gets gain 0 and a flag.
    """
    cuts = segment_fiducials(bm)
    a, b1, b2, b = cuts.T
    fade = int(round(CROSSFADE_S * bm.fs))
    g, flat = _ls_gains(bm, cuts)
    r = bm.r_peaks.tolist()
    # an empty segment gets gain 0 without a flag
    flags = [f"degenerate {('P', 'QRS', 'T')[k]} segment at beat {r[j]}"
             for j, k in zip(*np.nonzero(flat & (np.diff(cuts, axis=1) > 0)))]
    # per-sample gains: P before b1, QRS from b1, T from b2, where T wins if b2 < b1
    col = np.arange(bm.stack.shape[1])
    c1, c2 = (b1 - a)[:, None], (b2 - a)[:, None]
    gain = np.where(col >= c2, g[:, 2:], np.where(col < c1, g[:, :1], g[:, 1:2]))
    # crossfades of up to `fade` samples, clipped to the span; one ramp per length
    ramps = np.zeros((fade + 1, fade))
    for n in range(1, fade + 1):
        ramps[n, :n] = np.linspace(0.0, 1.0, n)
    step = np.arange(fade)
    for boundary, left, right in ((b1, g[:, 0], g[:, 1]), (b2, g[:, 1], g[:, 2])):
        lo = np.maximum(a, boundary - fade // 2)
        hi = np.minimum(b, boundary + fade - fade // 2)
        width = np.maximum(hi - lo, 0)
        j, i = np.nonzero(step < width[:, None])
        gain[j, lo[j] - a[j] + i] = left[j] + (right[j] - left[j]) * ramps[width[j], i]
    return _subtract(bm, "TS_SU", gain * bm.template, g, flags)


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
    return _subtract(bm, "TS_PCA", recon, flags=[f"rank={k}"])


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
