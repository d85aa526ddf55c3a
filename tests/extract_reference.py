"""The extractors as they stood before the shared ``BeatMatrix``: each
one stacked its own beats, built its own template and clipped its own
spans. Kept verbatim as the oracle for the property in test_extract.py;
only the imports and the ``REFERENCE`` table at the end are new.

They read a ``BeatMap``, the fiducial table the package built before
``extract.segment_fiducials`` listed the cuts of the kept beats; that
builder, ``segment_fiducials`` below, is kept verbatim with them.
"""

from dataclasses import dataclass

import numpy as np

from fwave.errors import ExtractionError
from fwave.extract import (
    CROSSFADE_S,
    DEFAULT_MIN_BEATS,
    GAIN_CLAMP,
    QRS_OFF_S,
    QRS_ON_S,
    SPAN_POST_S,
    SPAN_PRE_S,
    FWaveSignal,
)


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


def segment_fiducials(x, fs: float, r_peaks) -> BeatMap:
    """Fixed-offset fiducials per beat, clipped to bounds and neighbors.

    p_on = R - SPAN_PRE_S, qrs_on = R - QRS_ON_S, qrs_off = R + QRS_OFF_S,
    t_off = R + min(SPAN_POST_S, 0.7 * RR_next). The last beat uses the
    median RR for the t_off rule.
    """
    x = np.asarray(x, dtype=np.float64)
    r_peaks = np.asarray(r_peaks, dtype=np.int64)
    if len(r_peaks) < 2:
        raise ExtractionError("need at least 2 R-peaks for fiducials")
    n = len(x)
    rr = np.diff(r_peaks) / fs
    med_rr = float(np.median(rr))
    p_off = int(round(SPAN_PRE_S * fs))
    qon_off = int(round(QRS_ON_S * fs))
    qoff_off = int(round(QRS_OFF_S * fs))
    fid = np.zeros((len(r_peaks), 4), dtype=np.int64)
    for i, r in enumerate(r_peaks):
        rr_next = rr[i] if i < len(rr) else med_rr
        t_len = int(round(min(SPAN_POST_S, 0.7 * rr_next) * fs))
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


@dataclass
class TemplateModel:
    template: np.ndarray  # one R-aligned cardiac cycle
    n_beats: int
    alignment_offset: int  # samples from template start to R


def _span_samples(fs: float):
    return int(round(SPAN_PRE_S * fs)), int(round(SPAN_POST_S * fs))


def _full_span_beats(n: int, r_peaks, pre: int, post: int) -> np.ndarray:
    r = np.asarray(r_peaks)
    return r[(r - pre >= 0) & (r + post + 1 <= n)]


def _clipped_spans(n: int, r_peaks, pre: int, post: int):
    """Per-beat (start, end) spans, clipped so consecutive spans never overlap.

    Beats whose full template span falls outside the signal get an empty
    span (skipped downstream), mirroring the template-build rule; edge
    beats would otherwise mix boundary transients into the residual.
    """
    spans = []
    r = np.asarray(r_peaks)
    for i, rp in enumerate(r):
        if rp - pre < 0 or rp + post + 1 > n:
            spans.append((int(rp), int(rp)))
            continue
        a = rp - pre
        b = rp + post + 1  # half-open span covering R-pre .. R+post inclusive
        if i + 1 < len(r):
            b = min(b, r[i + 1] - pre)
        spans.append((int(a), int(b)))
    return spans


def build_template(x, beats: BeatMap, min_beats: int = DEFAULT_MIN_BEATS) -> TemplateModel:
    """Element-wise mean of R-aligned beat windows over the template span.

    Beats whose window would exceed the signal bounds are skipped and do
    not count toward min_beats.
    """
    x = np.asarray(x, dtype=np.float64)
    pre, post = _span_samples(beats.fs)
    usable = _full_span_beats(len(x), beats.r_peaks, pre, post)
    if len(usable) < min_beats:
        raise ExtractionError(
            f"only {len(usable)} usable beats, need at least {min_beats}"
        )
    stack = np.stack([x[r - pre : r + post + 1] for r in usable])
    template = stack.mean(axis=0)
    if not np.all(np.isfinite(template)):
        raise ExtractionError("template contains non-finite values")
    return TemplateModel(template=template, n_beats=len(usable), alignment_offset=pre)


def _subtract(x, beats, gain_fn, method, min_beats):
    """Shared subtraction loop.

    gain_fn maps (beat slice, template slice, absolute span, r_peak,
    flags, gain_log) to a per-sample gain profile or scalar, appending
    whatever it wants recorded per beat to gain_log.
    """
    x = np.asarray(x, dtype=np.float64)
    model = build_template(x, beats, min_beats)
    pre, post = _span_samples(beats.fs)
    t = model.template
    residual = x.copy()
    spans, gain_log, flags = [], [], []
    used = 0
    for (a, b), r in zip(_clipped_spans(len(x), beats.r_peaks, pre, post), beats.r_peaks):
        if b <= a:
            continue
        ts = t[a - (r - pre) : b - (r - pre)]
        g = gain_fn(x[a:b], ts, (a, b), r, flags, gain_log)
        residual[a:b] = x[a:b] - g * ts
        spans.append((a, b))
        used += 1
    return FWaveSignal(
        residual=residual,
        method=method,
        beats_used=used,
        per_beat_gains=np.array(gain_log) if gain_log else np.empty((0,)),
        spans=spans,
        flags=flags,
    )


def ts_basic(x, beats: BeatMap, min_beats: int = DEFAULT_MIN_BEATS) -> FWaveSignal:
    """Subtract the R-aligned average template at every beat (gain 1)."""
    return _subtract(
        x, beats, lambda xb, tb, span, r, flags, log: 1.0, "TS_B", min_beats
    )


def _ls_gain(xb, tb):
    denom = float(np.dot(tb, tb))
    if denom == 0.0:
        return None
    g = float(np.dot(xb, tb)) / denom
    return min(max(g, GAIN_CLAMP[0]), GAIN_CLAMP[1])


def ts_scaled(x, beats: BeatMap, min_beats: int = DEFAULT_MIN_BEATS) -> FWaveSignal:
    """One least-squares gain per beat: a = <x, t> / <t, t>, clamped."""
    model = build_template(np.asarray(x, dtype=np.float64), beats, min_beats)
    if float(np.dot(model.template, model.template)) == 0.0:
        raise ExtractionError("flat template: cannot fit a gain")

    def gain(xb, tb, span, r, flags, log):
        g = _ls_gain(xb, tb)
        if g is None:
            flags.append(f"flat template slice at beat {r}")
            g = 0.0
        log.append(g)
        return g

    return _subtract(x, beats, gain, "TS_CE", min_beats)


def ts_segment_scaled(x, beats: BeatMap, min_beats: int = DEFAULT_MIN_BEATS) -> FWaveSignal:
    """Independent P / QRS / T least-squares gains with a 20 ms crossfade.

    The T-segment gain extends from qrs_off through the end of the span;
    a degenerate (flat) template sub-window gets gain 0 and a flag.
    """
    fs = beats.fs
    fade = int(round(CROSSFADE_S * fs))
    fid = {int(r): f for r, f in zip(beats.r_peaks, beats.fiducials)}

    def gain(xb, tb, span, r, flags, log):
        a, b = span
        p_on, qrs_on, qrs_off, _ = fid[int(r)]
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

    return _subtract(x, beats, gain, "TS_SU", min_beats)


def ts_pca(
    x,
    beats: BeatMap,
    var_target: float = 0.95,
    max_rank: int = 3,
    min_beats: int = DEFAULT_MIN_BEATS,
) -> FWaveSignal:
    """Reconstruct each beat from the leading singular directions.

    Full-span beat windows are stacked into a (beats x span) matrix; the
    smallest rank whose cumulative squared-singular-value fraction
    reaches var_target (capped at max_rank) defines the ventricular
    subspace. Beats too close to the edges for a full span pass through
    unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    pre, post = _span_samples(beats.fs)
    usable = _full_span_beats(len(x), beats.r_peaks, pre, post)
    if len(usable) < min_beats:
        raise ExtractionError(
            f"only {len(usable)} usable beats, need at least {min_beats}"
        )
    mat = np.stack([x[r - pre : r + post + 1] for r in usable])
    if not np.all(np.isfinite(mat)):
        raise ExtractionError("beat matrix contains non-finite values")
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    energy = s * s
    total = float(energy.sum())
    if total == 0.0:
        k = 1
    else:
        frac = np.cumsum(energy) / total
        k = int(np.searchsorted(frac, var_target - 1e-12) + 1)
    k = min(k, max_rank, len(s))
    recon = (u[:, :k] * s[:k]) @ vt[:k]

    residual = x.copy()
    spans = []
    clipped = {int(r): span for span, r in
               zip(_clipped_spans(len(x), beats.r_peaks, pre, post), beats.r_peaks)}
    for row, r in zip(recon, usable):
        a, b = clipped[int(r)]
        if b <= a:
            continue
        lo = a - (r - pre)
        residual[a:b] = x[a:b] - row[lo : lo + (b - a)]
        spans.append((a, b))
    return FWaveSignal(
        residual=residual,
        method="TS_PCA",
        beats_used=len(usable),
        per_beat_gains=np.empty((0,)),
        spans=spans,
        flags=[f"rank={k}"],
    )


REFERENCE = {
    "TS_B": ts_basic,
    "TS_CE": ts_scaled,
    "TS_SU": ts_segment_scaled,
    "TS_PCA": ts_pca,
}
