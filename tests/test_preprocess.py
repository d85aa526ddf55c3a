import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fwave.preprocess
from fwave.errors import ConfigError, SignalTooShortError
from fwave.preprocess import (
    FilterSpec,
    bandpass_zero_phase,
    compute_bsqi,
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
