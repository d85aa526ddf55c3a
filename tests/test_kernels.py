"""The detector's sample-level kernels in ``fwave.beats``.

``_moving_average_loop`` is the running-sum moving average written out
sample by sample, and ``_moving_average_convolved`` counts each
window's members with a second convolution; they are the oracles for
``beats.moving_average``. ``_adaptive_scan_loop`` is the adaptive
threshold scan written out sample by sample; it is the oracle for the
event-driven ``beats.adaptive_scan``. ``_refine_loop`` and
``_matched_mask_loop`` are the per-candidate and per-detection loops
that ``beats._refine`` and ``beats.matched_mask`` replaced; they are
their oracles.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwave import beats
from fwave.beats import detect_r_peaks_energy
from fwave.preprocess import compute_bsqi, prefilter
from fwave.synth import SynthConfig, generate


def _moving_average_loop(x, w):
    n = x.shape[0]
    out = np.empty(n, dtype=np.float64)
    half = w // 2
    acc = 0.0
    # prime the window centered on sample 0
    hi = min(half + 1, n)
    for j in range(hi):
        acc += x[j]
    cnt = hi
    for i in range(n):
        out[i] = acc / cnt
        new = i + half + 1
        if new < n:
            acc += x[new]
            cnt += 1
        old = i - half
        if old >= 0:
            acc -= x[old]
            cnt -= 1
    return out


def _moving_average_convolved(x, w):
    kernel = np.ones(w, dtype=np.float64)
    sums = np.convolve(x, kernel, mode="same")
    counts = np.convolve(np.ones(len(x)), kernel, mode="same")
    return sums / counts


def _adaptive_scan_loop(feat, min_dist, init_len, searchback):
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


def _refine_loop(score, raw, half, min_dist):
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


def _matched_mask_loop(det_a, det_b, tol):
    mask = np.zeros(len(det_a), dtype=bool)
    j = 0
    for i, p in enumerate(det_a):
        while j < len(det_b) and det_b[j] < p - tol:
            j += 1
        if j < len(det_b) and abs(det_b[j] - p) <= tol:
            mask[i] = True
            j += 1
    return mask


def test_moving_average_paths_agree():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5000)
    for w in (1, 3, 31, 301):
        a = _moving_average_loop(x, w)
        b = beats.moving_average(x, w)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(half=st.integers(0, 60), extra=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
def test_moving_average_equals_convolved_counts(half, extra, seed):
    rng = np.random.default_rng(seed)
    w = 2 * half + 1
    x = rng.standard_normal(w + extra) * 10.0 ** int(rng.integers(-4, 5))
    assert np.array_equal(beats.moving_average(x, w), _moving_average_convolved(x, w))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_moving_average_shorter_than_window(n):
    x = np.arange(1.0, n + 1.0)
    np.testing.assert_allclose(beats.moving_average(x, 5), _moving_average_loop(x, 5))


def test_moving_average_constant_preserved():
    x = np.full(1000, 2.5)
    np.testing.assert_allclose(beats.moving_average(x, 31), 2.5)


def test_adaptive_scan_flat_input_empty():
    assert len(beats.adaptive_scan(np.zeros(1000), 40, 400, 240)) == 0


def _feature(kind, n, seed, init_len):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))
    if kind == "flat":
        return np.full(n, float(rng.choice([0.0, 1.5, -2.0])))
    if kind == "quantised":  # plateaus and exact ties between peaks
        return rng.integers(0, int(rng.integers(2, 6)), n).astype(np.float64)
    if kind == "spiky":  # isolated spikes on a zero floor: long gaps, a peakless tail
        feat = np.zeros(n)
        hits = rng.random(n) < rng.uniform(0.002, 0.05)
        feat[hits] = rng.exponential(1.0, int(hits.sum()))
        feat[max(0, n - int(rng.integers(0, 300))):] = 0.0
        return feat
    if kind == "searchback":  # strong beats far apart, weaker beats between them
        feat = np.abs(rng.standard_normal(n)) * 0.01
        period = int(rng.integers(5, 60))
        every = int(rng.integers(2, 6))
        for k, p in enumerate(range(int(rng.integers(0, period)), n, period)):
            feat[p] += 1.0 if k % every == 0 else rng.uniform(0.05, 0.6)
        return beats.moving_average(feat, int(rng.choice([1, 3, 5]))) if n else feat
    # "tie": a decreasing initialization window, then one local maximum
    # exactly at the initial threshold (noise, not signal, when the window
    # is summed in sample order), then beats on the window's scale
    lim = min(init_len, n)
    feat = np.concatenate([np.sort(rng.uniform(0.01, 1.0, lim))[::-1],
                           _feature("searchback", n - lim, seed, 0)])
    if 0 < lim < n - 1:
        npk = 0.5 * float(np.cumsum(feat[:lim])[-1]) / lim
        feat[lim] = npk + 0.25 * (feat[0] - npk)
        feat[lim + 1] = 0.0
    return feat


@settings(max_examples=1000, deadline=None)
@given(
    kind=st.sampled_from(["random", "flat", "quantised", "spiky", "searchback", "tie"]),
    n=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
    min_dist=st.integers(1, 40),
    init_len=st.integers(0, 400),
    searchback=st.integers(0, 120),
)
def test_adaptive_scan_equals_sample_loop(kind, n, seed, min_dist, init_len, searchback):
    feat = _feature(kind, n, seed, init_len)
    got = beats.adaptive_scan(feat, min_dist, init_len, searchback)
    assert got.dtype == np.int64
    assert np.array_equal(got, _adaptive_scan_loop(feat, min_dist, init_len, searchback))


@settings(max_examples=1000, deadline=None)
@given(
    feat=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]), max_size=40),
    min_dist=st.integers(1, 4),
    init_len=st.integers(0, 6),
    searchback=st.integers(0, 6),
)
def test_adaptive_scan_equals_sample_loop_short(feat, min_dist, init_len, searchback):
    feat = np.array(feat, dtype=np.float64)
    assert np.array_equal(beats.adaptive_scan(feat, min_dist, init_len, searchback),
                          _adaptive_scan_loop(feat, min_dist, init_len, searchback))


def _both(feat, *args):
    """The scan's peaks, checked against the sample loop."""
    feat = np.array(feat, dtype=np.float64)
    got = beats.adaptive_scan(feat, *args)
    assert np.array_equal(got, _adaptive_scan_loop(feat, *args))
    return got.tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_adaptive_scan_tiny_inputs(n):
    for feat in (np.zeros(n), np.arange(1.0, n + 1.0), np.array([1.0, 3.0, 2.0][:n])):
        assert _both(feat, 1, 2, 1) == ([1] if n == 3 and feat[1] == 3.0 else [])


def test_adaptive_scan_zero_init_window_finds_nothing():
    # the initialization window seeds the signal estimate; at zero no
    # threshold can be crossed, whatever peaks follow
    feat = np.zeros(60)
    feat[20:60:10] = 5.0
    assert _both(feat, 2, 10, 5) == []
    assert _both(feat, 2, 21, 5) == [20, 30, 40, 50]


# A strong beat at 2 (accepted), a weak one at 6 (noise, the searchback
# candidate), then a decreasing ramp that holds no local maximum.
_WEAK = [0.0, 0.5, 10.0, 0.5, 0.2, 0.4, 2.0, 1.0] + [0.9 - 0.001 * k for k in range(200)]
# The same with a peak at 40 that only the lowered threshold accepts.
_WEAK_40 = _WEAK[:40] + [3.0] + _WEAK[41:60]


@pytest.mark.parametrize("searchback", [10, 36])
def test_adaptive_scan_searchback_inside_a_gap(searchback):
    # due at 2 + searchback + 1, which lies in the gap between the peaks
    # at 6 and 40 (36: at its last sample, 39)
    assert _both(_WEAK_40, 2, 5, searchback) == [2, 6, 40]


def test_adaptive_scan_searchback_at_a_peak():
    # due at 6, the weak beat itself
    assert _both(_WEAK[:60], 2, 5, 3) == [2, 6]
    # due at 40: that peak is first taken as noise, becomes the strongest
    # sub-threshold peak, and is then recovered in place of 6
    assert _both(_WEAK_40, 2, 5, 37) == [2, 40]


@pytest.mark.parametrize("searchback, fires", [(40, True), (41, False)])
def test_adaptive_scan_searchback_in_the_tail(searchback, fires):
    # n = 45: the last sample checked is n - 2 = 43; searchback 40 falls
    # due exactly there, searchback 41 one sample past it
    assert _both(_WEAK[:45], 2, 5, searchback) == ([2, 6] if fires else [2])


@pytest.mark.parametrize("seed", [3, 11])
def test_detectors_scan_as_the_sample_loop(monkeypatch, seed):
    """Both detectors' features of an AF and a sinus record."""
    fast = beats.adaptive_scan
    scans = []

    def checked(feat, *args):
        got = fast(feat, *args)
        assert np.array_equal(got, _adaptive_scan_loop(feat, *args))
        scans.append(len(got))
        return got

    monkeypatch.setattr(beats, "adaptive_scan", checked)
    for rhythm, f0 in (("AF", 6.5), ("sinus", None)):
        truth = generate(SynthConfig(rhythm=rhythm, fwave_f0=f0, rng_seed=seed,
                                     artifact_rms_mv=0.05))
        compute_bsqi(prefilter(truth.ecg, truth.fs), truth.fs)
    assert len(scans) == 4 and min(scans) > 30


def test_detector_identical_across_paths(monkeypatch):
    truth = generate(SynthConfig(rhythm="AF", fwave_f0=6.5, rng_seed=42))
    x = prefilter(truth.ecg, truth.fs)
    det_numpy = detect_r_peaks_energy(x, truth.fs)
    monkeypatch.setattr(beats, "moving_average", _moving_average_loop)
    det_loop = detect_r_peaks_energy(x, truth.fs)
    assert len(det_numpy) > 0
    assert np.array_equal(det_loop, det_numpy)


@st.composite
def _refine_case(draw):
    """A score (signed, of any scale, or full of ties), a half-width and
    candidates anywhere, repeated, unsorted, or within ``half`` of an edge."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "negative", "ties"]))
    if kind == "random":
        score = rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))
    elif kind == "negative":  # the matched detector refines on a correlation
        score = -1.0 - np.abs(rng.standard_normal(n))
    else:
        score = rng.integers(-1, 2, size=n).astype(np.float64)
    half = draw(st.integers(0, 30))
    edge = st.one_of(st.integers(0, min(half, n - 1)), st.integers(max(0, n - 1 - half), n - 1))
    raw = draw(st.lists(st.one_of(st.integers(0, n - 1), edge), max_size=40))
    return score, np.array(raw, dtype=np.int64), half


@settings(max_examples=1000, deadline=None)
@given(case=_refine_case(), min_dist=st.integers(1, 40))
def test_refine_equals_candidate_loop(case, min_dist):
    score, raw, half = case
    got = beats._refine(score, raw, half, min_dist)
    assert got.dtype == np.int64
    assert np.array_equal(got, _refine_loop(score, raw, half, min_dist))


@settings(max_examples=1000, deadline=None)
@given(det_a=st.lists(st.integers(0, 200), max_size=30),
       det_b=st.lists(st.integers(0, 200), max_size=30),
       tol=st.one_of(st.just(0.0), st.integers(0, 20), st.floats(0.0, 50.0)))
@example([], [], 0.0)
@example([5, 5, 9], [5, 9, 9], 0.0)
@example([], [1, 2], 3.0)
@example([1, 2], [], 3.0)
def test_matched_mask_equals_detection_loop(det_a, det_b, tol):
    det_a = np.array(sorted(det_a), dtype=np.int64)
    det_b = np.array(sorted(det_b), dtype=np.int64)
    got = beats.matched_mask(det_a, det_b, tol)
    assert got.dtype == bool
    assert np.array_equal(got, _matched_mask_loop(det_a, det_b, tol))
