import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fwave.preprocess
from fwave import synth
from fwave.errors import ConfigError, SignalTooShortError
from fwave.preprocess import (
    _BLOCK,
    FilterSpec,
    bandpass_zero_phase,
    butter1,
    compute_bsqi,
    filtfilt,
    iirnotch,
    lfilter,
    notch_zero_phase,
    prefilter,
)

FS = 200.0


def _tone(freq, fs=FS, duration=30.0, amp=1.0):
    t = np.arange(int(duration * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def _band_power(x, fs, lo, hi):
    f = np.fft.rfftfreq(len(x), 1 / fs)
    p = np.abs(np.fft.rfft(x)) ** 2
    return float(np.sum(p[(f >= lo) & (f <= hi)]))


class TestBandpass:
    def test_dc_removed(self):
        y = bandpass_zero_phase(np.ones(6000), FS)
        assert np.max(np.abs(y)) < 1e-3

    def test_inband_tone_amplitude_and_phase(self):
        x = _tone(10.0)
        y = bandpass_zero_phase(x, FS)
        mid = slice(1000, -1000)
        amp = np.max(np.abs(y[mid]))
        assert 0.9 <= amp <= 1.0
        # zero phase: cross-correlation peak at lag 0
        lags = range(-5, 6)
        xc = [np.dot(x[1000:-1000], y[1000 + k : len(y) - 1000 + k]) for k in lags]
        assert list(lags)[int(np.argmax(xc))] == 0

    def test_drift_rejected_tone_kept(self):
        drift = _tone(0.2, duration=60.0)
        tone = _tone(10.0, duration=60.0)
        y = bandpass_zero_phase(drift + tone, FS)
        drift_ratio = _band_power(y, FS, 0.0, 0.4) / _band_power(drift, FS, 0.0, 0.4)
        tone_ratio = _band_power(y, FS, 9.5, 10.5) / _band_power(tone, FS, 9.5, 10.5)
        assert 10 * np.log10(drift_ratio) <= -20.0
        assert abs(10 * np.log10(tone_ratio)) <= 1.0

    def test_output_length_preserved(self):
        x = np.random.default_rng(0).standard_normal(5000)
        assert len(bandpass_zero_phase(x, FS)) == 5000

    def test_upper_edge_clamped_below_nyquist(self):
        spec = FilterSpec()
        assert spec.effective_band_high(200.0) == pytest.approx(90.0)
        assert spec.effective_band_high(500.0) == pytest.approx(100.0)

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShortError):
            bandpass_zero_phase(np.ones(5), FS)

    def test_infeasible_band_raises(self):
        with pytest.raises(ConfigError):
            bandpass_zero_phase(np.ones(1000), 1.0)

    def test_restability(self):
        # filtering an already-filtered signal barely changes in-band RMS
        rng = np.random.default_rng(1)
        x = rng.standard_normal(12000)
        y1 = bandpass_zero_phase(x, FS)
        y2 = bandpass_zero_phase(y1, FS)
        p1 = _band_power(y1, FS, 2.0, 80.0)
        p2 = _band_power(y2, FS, 2.0, 80.0)
        assert abs(np.sqrt(p2 / p1) - 1.0) < 0.05


class TestNotch:
    def test_60hz_attenuated(self):
        x = _tone(60.0)
        y = notch_zero_phase(x, FS)
        assert np.sqrt(np.mean(y[1000:-1000] ** 2)) < 0.032 * np.sqrt(np.mean(x**2))

    def test_6hz_preserved(self):
        x = _tone(6.0)
        y = notch_zero_phase(x, FS)
        ratio = np.max(np.abs(y[1000:-1000])) / np.max(np.abs(x))
        assert abs(20 * np.log10(ratio)) <= 1.0

    def test_zero_in_zero_out(self):
        y = notch_zero_phase(np.zeros(4000), FS)
        assert np.allclose(y, 0.0)

    def test_infeasible_notch_raises(self):
        with pytest.raises(ConfigError):
            notch_zero_phase(np.ones(4000), 100.0, FilterSpec(notch_freq=60.0))

    def test_prefilter_skips_infeasible_notch(self):
        # at fs=100 a 60 Hz notch is above Nyquist; prefilter must not fail
        x = _tone(10.0, fs=100.0, duration=40.0)
        y = prefilter(x, 100.0)
        assert len(y) == len(x)

    @pytest.mark.parametrize("key, value", [("notch_freq", 0.0), ("notch_freq", -60.0),
                                            ("notch_q", 0.0), ("notch_q", -1.0)])
    def test_unbuildable_notch_raises_unless_disabled(self, key, value):
        x = _tone(10.0, duration=40.0)
        with pytest.raises(ConfigError, match=f"filter.{key}"):
            prefilter(x, FS, FilterSpec(**{key: value}))
        y = prefilter(x, FS, FilterSpec(**{key: value, "notch_enabled": False}))
        assert np.array_equal(y, prefilter(x, FS, FilterSpec(notch_enabled=False)))


def _same(ours, theirs):
    return ours.dtype == theirs.dtype and ours.shape == theirs.shape \
        and ours.tobytes() == theirs.tobytes()


# a frequency strictly inside (0, fs/2), as a fraction of Nyquist
_INSIDE = st.floats(1e-4, 0.9999)
_FS = st.one_of(st.sampled_from([100.0, 128.0, 200.0, 250.0, 360.0, 500.0]),
                st.floats(1.0, 5000.0))


class TestFilterDesignsEqualScipy:
    """The numpy designs are scipy.signal's bit for bit."""

    @given(_FS, _INSIDE, _INSIDE)
    @example(200.0, 0.67 / 100, 0.9)  # the default band at 200 Hz
    @example(500.0, 0.67 / 250, 0.4)  # ... at 500 Hz
    @settings(max_examples=500, deadline=None)
    def test_bandpass(self, fs, u, v):
        lo, hi = sorted((u * fs / 2, v * fs / 2))
        if not lo < hi:
            return
        b, a = butter1([lo, hi], fs)
        ref_b, ref_a = scipy.signal.butter(1, [lo, hi], btype="bandpass", fs=fs)
        assert _same(b, ref_b) and _same(a, ref_a)

    @given(_FS, _INSIDE)
    @example(200.0, 0.01)  # the synth artifact's 1 Hz lowpass
    @settings(max_examples=500, deadline=None)
    def test_lowpass(self, fs, u):
        b, a = butter1(u * fs / 2, fs)
        ref_b, ref_a = scipy.signal.butter(1, u * fs / 2, btype="low", fs=fs)
        assert _same(b, ref_b) and _same(a, ref_a)

    @given(_FS, _INSIDE, st.floats(0.01, 1000.0))
    @example(200.0, 0.6, 30.0)  # the default 60 Hz notch
    @settings(max_examples=500, deadline=None)
    def test_notch(self, fs, u, q):
        b, a = iirnotch(u * fs / 2, q, fs)
        ref_b, ref_a = scipy.signal.iirnotch(u * fs / 2, q, fs=fs)
        assert _same(b, ref_b) and _same(a, ref_a)

    @pytest.mark.parametrize("wn", [0.0, 100.0, 120.0, [0.0, 50.0], [10.0, 100.0],
                                    float("nan"), [float("nan"), 50.0]])
    def test_edge_outside_nyquist_is_a_config_error(self, wn):
        with pytest.raises(ConfigError, match="must lie in"):
            butter1(wn, 200.0)

    def test_synth_too_slow_for_the_artifact_lowpass(self):
        cfg = synth.SynthConfig(fs=2.0, duration_s=20.0, rhythm="sinus", artifact_rms_mv=0.2)
        with pytest.raises(ConfigError, match="must lie in"):
            synth.generate(cfg)


@st.composite
def _stable_filter(draw):
    """(b, a) of order 1 or 2 with poles inside radius 0.995, a[0] != 0."""
    if draw(st.booleans()):
        poles = [draw(st.floats(-0.995, 0.995))]
    elif draw(st.booleans()):
        poles = [draw(st.floats(-0.995, 0.995)), draw(st.floats(-0.995, 0.995))]
    else:
        r, theta = draw(st.floats(0.0, 0.995)), draw(st.floats(0.0, np.pi))
        poles = [r * np.exp(1j * theta), r * np.exp(-1j * theta)]
    scale = draw(st.sampled_from([1.0, 0.5, 3.0, -2.0]))
    a = scale * np.real(np.poly(poles))
    b = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=len(a), max_size=len(a))))
    return b, a


def _block_operators_gather(a):
    """The oracle: ``preprocess._block_operators`` built as it was, with a
    gather into the full lower-triangular impulse matrix and a lag matrix."""
    p = len(a) - 1
    a = np.array(a, dtype=np.longdouble)
    h = [np.longdouble(1.0)]
    for i in range(1, _BLOCK):
        h.append(-sum(a[k] * h[i - k] for k in range(1, min(i, p) + 1)))
    h = np.array(h)
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    impulse = np.where(lag >= 0, h[np.maximum(lag, 0)], 0)
    forcing = np.zeros((p, p), dtype=np.longdouble)
    for i in range(p):
        forcing[i, :p - i] = -a[i + 1:]
    state = impulse[:, :p] @ forcing
    return h, impulse.T.astype(np.float64), state.astype(np.float64), state[::-1][:p].copy()


class TestBlockOperators:
    """The block operators are the gathered construction's, value for
    value (signed zeros included), with its dtypes, shapes and strides,
    so the block product sees the same memory layout."""

    @staticmethod
    def _identical(ours, theirs):
        # longdouble bytes hold padding, so compare values and sign bits
        return (ours.dtype == theirs.dtype and ours.shape == theirs.shape
                and ours.strides == theirs.strides and np.array_equal(ours, theirs)
                and np.array_equal(np.signbit(ours), np.signbit(theirs)))

    @given(_stable_filter())
    @example(butter1([0.67, 90.0], 200.0))
    @example(iirnotch(60.0, 30.0, 200.0))
    @example(butter1(1.0, 200.0))
    @settings(max_examples=100, deadline=None)
    def test_same_as_the_gather(self, ba):
        _, a = ba
        a = tuple((np.asarray(a, dtype=np.float64) / a[0]).tolist())
        ours = fwave.preprocess._block_operators.__wrapped__(a)
        theirs = _block_operators_gather(a)
        assert len(ours) == len(theirs)
        assert all(self._identical(o, t) for o, t in zip(ours, theirs))
        assert ours[1].flags.f_contiguous


class TestRecursionMatchesScipy:
    """lfilter and filtfilt agree with scipy.signal's to 1e-12 relative."""

    @staticmethod
    def _close(ours, theirs):
        assert ours.shape == theirs.shape
        assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.max(np.abs(theirs))

    @given(_stable_filter(), st.integers(1, 3000), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_lfilter(self, ba, n, with_zi, seed):
        b, a = ba
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        if with_zi:
            zi = rng.standard_normal(len(a) - 1)
            self._close(lfilter(b, a, x, zi), scipy.signal.lfilter(b, a, x, zi=zi)[0])
        else:
            self._close(lfilter(b, a, x), scipy.signal.lfilter(b, a, x))

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("ba", [([0.3, -0.1], [1.0, -0.9]),
                                    ([0.5, 0.2, -0.4], [2.0, -3.2, 1.7])], ids=["order1", "order2"])
    @pytest.mark.parametrize("with_zi", [False, True])
    def test_lfilter_at_block_edges(self, n, ba, with_zi):
        b, a = ba
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        zi = rng.standard_normal(len(a) - 1) if with_zi else None
        ref = scipy.signal.lfilter(b, a, x, zi=zi)
        self._close(lfilter(b, a, x, zi), ref[0] if with_zi else ref)

    @pytest.mark.parametrize("design", ["bandpass", "notch", "lowpass"])
    @pytest.mark.parametrize("with_zi", [False, True])
    def test_lfilter_of_the_real_designs_on_a_long_record(self, design, with_zi):
        b, a = {"bandpass": butter1([0.67, 90.0], 200.0), "notch": iirnotch(60.0, 30.0, 200.0),
                "lowpass": butter1(1.0, 200.0)}[design]
        rng = np.random.default_rng(181)
        x = rng.standard_normal(181_000)
        zi = rng.standard_normal(len(a) - 1) if with_zi else None
        ref = scipy.signal.lfilter(b, a, x, zi=zi)
        self._close(lfilter(b, a, x, zi), ref[0] if with_zi else ref)

    def test_operators_are_kept_per_denominator(self):
        # the block operators are cached by ``a``: switching filters and
        # back gives each its own output, every time
        x = np.random.default_rng(5).standard_normal(3 * _BLOCK + 7)
        first, second = butter1([0.67, 90.0], 200.0), iirnotch(60.0, 30.0, 200.0)
        outputs = [lfilter(*ba, x) for ba in (first, second, first, second)]
        for (b, a), y in zip((first, second, first, second), outputs):
            self._close(y, scipy.signal.lfilter(b, a, x))
        assert np.array_equal(outputs[0], outputs[2]) and np.array_equal(outputs[1], outputs[3])
        assert not np.allclose(outputs[0], outputs[1])

    @given(_stable_filter(), st.integers(2, 3000), st.sampled_from(["one", "max", "between"]),
           st.integers(0, 2**32 - 1))
    # outputs near the smallest subnormal: only scipy's own order matches
    @example((np.array([0.0, 0.0, 4.84321851e-163]), np.array([1.0, -0.75, 0.0])), 3, "one", 1)
    # a double pole at 0.992 and a large steady state: the blocks' carry cancels
    @example((np.array([0.0, 0.0, 1.0]), np.real(np.poly([0.9921875, 0.9921875]))), 109, "max", 1)
    @settings(max_examples=300, deadline=None)
    def test_filtfilt(self, ba, n, pad, seed):
        b, a = ba
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        padlen = {"one": 1, "max": n - 1, "between": int(rng.integers(1, n))}[pad]
        ref = scipy.signal.filtfilt(b, a, x, padtype="even", padlen=padlen)
        self._close(filtfilt(b, a, x, padlen), ref)


class TestErrorPaths:
    """The errors of the zero-phase filters, type and text, in order."""

    @pytest.mark.parametrize("fn, n, fs, spec, error, text", [
        (bandpass_zero_phase, 1000, FS, FilterSpec(band_low=0.0), ConfigError,
         "infeasible passband [0.0, 90.0] Hz at fs=200.0"),
        (bandpass_zero_phase, 1000, FS, FilterSpec(band_low=95.0), ConfigError,
         "infeasible passband [95.0, 90.0] Hz at fs=200.0"),
        (bandpass_zero_phase, 1000, 1.0, FilterSpec(), ConfigError,
         "infeasible passband [0.67, 0.45] Hz at fs=1.0"),
        (bandpass_zero_phase, 3, FS, FilterSpec(band_low=0.0), ConfigError,
         "infeasible passband [0.0, 90.0] Hz at fs=200.0"),
        (bandpass_zero_phase, 12, FS, FilterSpec(), SignalTooShortError,
         "signal of 12 samples too short for bandpass (need > 12)"),
        (notch_zero_phase, 4000, 100.0, FilterSpec(), ConfigError,
         "notch at 60.0 Hz infeasible for fs=100.0 (Nyquist 50.0)"),
        (notch_zero_phase, 4000, FS, FilterSpec(notch_freq=-60.0), ConfigError,
         "filter.notch_freq must be positive, not -60.0"),
        (notch_zero_phase, 4000, FS, FilterSpec(notch_q=0.0), ConfigError,
         "filter.notch_q must be positive, not 0.0"),
        (notch_zero_phase, 5, FS, FilterSpec(notch_q=0.0), ConfigError,
         "filter.notch_q must be positive, not 0.0"),
        (notch_zero_phase, 12, FS, FilterSpec(), SignalTooShortError,
         "signal of 12 samples too short for notch"),
    ])
    def test_error_and_text(self, fn, n, fs, spec, error, text):
        with pytest.raises(error) as info:
            fn(np.ones(n), fs, spec)
        assert type(info.value) is error and str(info.value) == text

    def test_shortest_signals_that_filter(self):
        assert len(bandpass_zero_phase(np.ones(13), FS)) == 13
        assert len(notch_zero_phase(np.ones(13), FS)) == 13


def _one_segment_bsqi(det_a, det_b, n=60000):
    """The bSQI ``compute_bsqi`` gives an n-sample signal, taken as one
    segment, on which the energy detector finds ``det_a`` and the
    matched detector ``det_b``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fwave.preprocess, "detect_r_peaks_energy", lambda x, fs: det_a)
        mp.setattr(fwave.preprocess, "detect_r_peaks_matched", lambda x, fs, first: det_b)
        [(_, _, bsqi)] = compute_bsqi(np.zeros(n), FS, segment_s=n / FS).segment_bsqi
    return bsqi


class TestBsqiFormula:
    def test_perfect_agreement(self):
        det = np.arange(12) * 200 + 500
        assert _one_segment_bsqi(det, det) == pytest.approx(1.0)

    def test_one_missed_beat(self):
        a = np.arange(10) * 200 + 500
        b = a[:-1]
        assert _one_segment_bsqi(a, b) == pytest.approx(9 / (10 + 9 - 9))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = np.sort(rng.choice(60000, 40, replace=False))
        b = np.sort(rng.choice(60000, 35, replace=False))
        assert _one_segment_bsqi(a, b) == pytest.approx(_one_segment_bsqi(b, a))

    def test_empty_detections_score_zero(self):
        assert _one_segment_bsqi(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == 0.0


class TestComputeBsqi:
    def test_clean_record_all_pass(self, sinus_clean_filtered, sinus_clean):
        report = compute_bsqi(sinus_clean_filtered, sinus_clean.fs)
        assert report.all_pass()
        assert all(0.0 <= b <= 1.0 for _, _, b in report.segment_bsqi)
        assert len(report.pass_mask) == len(report.segment_bsqi)
        # 60 s / 10 s segments
        assert len(report.segment_bsqi) == 6
        assert report.segment_bsqi[0][0] == 0
        assert report.segment_bsqi[-1][1] == len(sinus_clean_filtered)

    def test_pass_mask_matches_threshold(self, sinus_clean_filtered, sinus_clean):
        report = compute_bsqi(sinus_clean_filtered, sinus_clean.fs, threshold=0.8)
        for (_, _, b), ok in zip(report.segment_bsqi, report.pass_mask):
            assert ok == (b >= 0.8)

    def test_noise_segment_fails(self, sinus_clean, sinus_clean_filtered):
        fs = sinus_clean.fs
        x = sinus_clean_filtered.copy()
        rng = np.random.default_rng(99)
        seg = slice(int(20 * fs), int(30 * fs))
        x[seg] = rng.normal(0.0, 3.0, size=seg.stop - seg.start)
        report = compute_bsqi(x, fs)
        assert not report.all_pass()
        assert min(b for _, _, b in report.segment_bsqi) < 0.8

    def test_segment_too_short_raises(self, sinus_clean_filtered, sinus_clean):
        with pytest.raises(ConfigError):
            compute_bsqi(sinus_clean_filtered, sinus_clean.fs, segment_s=2)


def _segment_loop(det_a, det_b, matched_a, n, seg_n, threshold):
    """The per-segment counting loop ``compute_bsqi`` ran before it counted
    by rank: the oracle for the property below."""
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
        denom = na + nb - m
        bsqi = m / denom if denom > 0 else 0.0
        segments.append((start, end, bsqi))
        mask.append(bsqi >= threshold)
    return segments, mask


@st.composite
def _detections(draw):
    """A segment length, a signal length with every kind of tail (none,
    exactly half a segment, shorter or longer than half, or a signal
    shorter than one segment), and sorted detections, possibly none."""
    seg_n = draw(st.integers(5, 24))
    tail = draw(st.one_of(st.just(seg_n // 2), st.integers(0, seg_n - 1)))
    n = draw(st.integers(0, 4)) * seg_n + tail
    sorted_set = st.sets(st.integers(0, max(n - 1, 0)), max_size=n).map(sorted)
    det_a = np.array(draw(sorted_set), dtype=np.int64)
    det_b = np.array(draw(sorted_set), dtype=np.int64)
    matched_a = np.array(draw(st.lists(st.booleans(), min_size=len(det_a),
                                       max_size=len(det_a))), dtype=bool)
    threshold = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0]))
    return det_a, det_b, matched_a, n, seg_n, threshold


class TestBsqiCounts:
    """Per-segment counts by rank give what the loop over segments gave."""

    @given(_detections())
    @example((np.array([1, 7, 12]), np.array([1, 12]), np.array([True, False, True]),
              25, 10, 0.8))  # a tail of exactly half a segment stays a segment
    @example((np.array([], dtype=np.int64), np.array([], dtype=np.int64),
              np.array([], dtype=bool), 7, 10, 0.8))  # shorter than one segment
    @settings(max_examples=300, deadline=None)
    def test_same_segments_as_the_loop(self, case):
        det_a, det_b, matched_a, n, seg_n, threshold = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fwave.preprocess, "detect_r_peaks_energy", lambda x, fs: det_a)
            mp.setattr(fwave.preprocess, "detect_r_peaks_matched", lambda x, fs, first: det_b)
            mp.setattr(fwave.preprocess, "matched_mask", lambda a, b, tol: matched_a)
            report = compute_bsqi(np.zeros(n), 1.0, segment_s=float(seg_n),
                                  threshold=threshold)
        segments, mask = _segment_loop(det_a, det_b, matched_a, n, seg_n, threshold)
        assert report.segment_bsqi == segments
        assert report.pass_mask == mask
        assert report.r_peaks is det_a
