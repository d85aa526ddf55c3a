import numpy as np
import pytest

import fwave.beats
import fwave.pipeline
import fwave.preprocess
from fwave.beats import (
    detect_r_peaks_energy,
    detect_r_peaks_matched,
    match_detections,
    segment_fiducials,
)
from fwave.pipeline import PipelineConfig, _process_window
from fwave.preprocess import compute_bsqi, prefilter

from conftest import gauss_train

FS = 200.0


class TestEnergyDetector:
    def test_regular_60bpm_count_and_accuracy(self, sinus_clean, sinus_clean_filtered):
        det = detect_r_peaks_energy(sinus_clean_filtered, sinus_clean.fs)
        truth = sinus_clean.r_peaks_true
        assert abs(len(det) - len(truth)) <= 1
        tol = int(0.020 * sinus_clean.fs)
        for p in det:
            assert np.min(np.abs(truth - p)) <= tol

    def test_zero_signal_empty(self):
        assert len(detect_r_peaks_energy(np.zeros(4000), FS)) == 0

    def test_adaptive_threshold_survives_one_big_beat(
        self, sinus_clean, sinus_clean_filtered
    ):
        x = sinus_clean_filtered.copy()
        r = sinus_clean.r_peaks_true[20]
        lo, hi = r - 30, r + 30
        x[lo:hi] *= 2.0
        det = detect_r_peaks_energy(x, sinus_clean.fs)
        base = detect_r_peaks_energy(sinus_clean_filtered, sinus_clean.fs)
        assert len(det) == len(base)

    def test_amplitude_scale_invariance(self, sinus_clean, sinus_clean_filtered):
        a = detect_r_peaks_energy(sinus_clean_filtered, sinus_clean.fs)
        b = detect_r_peaks_energy(3.7 * sinus_clean_filtered, sinus_clean.fs)
        assert np.array_equal(a, b)

    def test_translation_equivariance(self, sinus_clean, sinus_clean_filtered):
        fs = sinus_clean.fs
        k = 400
        a = detect_r_peaks_energy(sinus_clean_filtered, fs)
        b = detect_r_peaks_energy(sinus_clean_filtered[k:], fs)
        # interior detections shift by exactly k
        interior = a[(a >= k + int(2 * fs)) & (a < len(sinus_clean_filtered) - int(2 * fs))]
        shifted = set((b + k).tolist())
        assert all(p in shifted for p in interior)

    def test_refractory_spacing(self, af_record, af_record_filtered):
        det = detect_r_peaks_energy(af_record_filtered, af_record.fs)
        assert np.all(np.diff(det) >= int(0.2 * af_record.fs))

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            detect_r_peaks_energy(np.zeros(100), FS)


class TestMatchedDetector:
    def test_agrees_with_energy_on_clean_signal(self, sinus_clean, sinus_clean_filtered):
        fs = sinus_clean.fs
        a = detect_r_peaks_energy(sinus_clean_filtered, fs)
        res = detect_r_peaks_matched(sinus_clean_filtered, fs, a)
        assert not res.degraded
        m = match_detections(a, res.indices, fs, tol_ms=150)
        assert m / max(len(a), len(res.indices)) >= 0.95

    def test_white_noise_disagreement(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(int(60 * FS))
        a = detect_r_peaks_energy(x, FS)
        b = detect_r_peaks_matched(x, FS, a).indices
        m = match_detections(a, b, FS, tol_ms=150)
        denom = len(a) + len(b) - m
        bsqi = m / denom if denom else 0.0
        assert bsqi < 0.8

    def test_few_beats_falls_back_degraded(self):
        # two bumps in 10 s: not enough first-pass beats for a kernel
        x = gauss_train(FS, int(10 * FS), [600, 1400])
        first = detect_r_peaks_energy(x, FS)
        res = detect_r_peaks_matched(x, FS, first)
        assert res.degraded
        assert np.array_equal(res.indices, first)


class TestDetectOnce:
    def test_one_energy_call_per_window(self, af_record_filtered, af_record, monkeypatch,
                                        tmp_path):
        calls = []

        def counted(x, fs):
            calls.append(1)
            return detect_r_peaks_energy(x, fs)

        for module in (fwave.pipeline, fwave.preprocess, fwave.beats):
            monkeypatch.setattr(module, "detect_r_peaks_energy", counted)
        (tmp_path / "residuals").mkdir()
        out = _process_window(
            ("w0", af_record_filtered, af_record.fs, "AF", PipelineConfig(out_dir=str(tmp_path)))
        )
        assert "excluded" not in out, out
        assert (tmp_path / "residuals" / "w0__TS_B.fwk").is_file()
        assert len(calls) == 1

    def test_bsqi_returns_the_energy_detections(self, af_record_filtered, af_record):
        x, fs = af_record_filtered, af_record.fs
        assert np.array_equal(compute_bsqi(x, fs).r_peaks, detect_r_peaks_energy(x, fs))


class TestMatchDetections:
    def test_exact_match(self):
        a = np.array([100, 300, 500])
        assert match_detections(a, a, FS) == 3

    def test_tolerance_boundary(self):
        tol_samples = int(0.150 * FS)  # 30 samples
        a = np.array([1000])
        assert match_detections(a, np.array([1000 + tol_samples]), FS) == 1
        assert match_detections(a, np.array([1000 + tol_samples + 1]), FS) == 0

    def test_greedy_one_to_one(self):
        a = np.array([1000, 1010])
        b = np.array([1005])
        assert match_detections(a, b, FS) == 1


class TestFiducials:
    def test_fixed_offsets_at_fs200(self):
        bm = segment_fiducials(np.zeros(3000), 200.0, [1000, 1200, 1400])
        p_on, qrs_on, qrs_off, t_off = bm.fiducials[0]
        assert (p_on, qrs_on, qrs_off, t_off) == (940, 990, 1020, 1090)

    def test_short_rr_binds_t_off(self):
        # RR_next = 0.5 s -> t_off = R + 0.35 s (the 0.7*RR rule binds)
        bm = segment_fiducials(np.zeros(3000), 200.0, [1000, 1100, 1200])
        assert bm.fiducials[0][3] == 1000 + int(0.7 * 0.5 * 200)

    def test_first_beat_clipped_to_zero(self):
        bm = segment_fiducials(np.zeros(3000), 200.0, [10, 210, 410])
        assert bm.fiducials[0][0] == 0

    def test_last_beat_uses_median_rr(self):
        bm = segment_fiducials(np.zeros(3000), 200.0, [400, 600, 800])
        # median RR = 1.0 s, so the 450 ms cap binds for the last beat
        assert bm.fiducials[-1][3] == 800 + int(min(0.45, 0.7 * 1.0) * 200)

    def test_never_reaches_next_qrs_onset(self, af_record, af_record_filtered):
        fs = af_record.fs
        det = detect_r_peaks_energy(af_record_filtered, fs)
        bm = segment_fiducials(af_record_filtered, fs, det)
        for i in range(len(det) - 1):
            assert bm.fiducials[i][3] <= bm.fiducials[i + 1][1]

    def test_windows_inside_signal(self, sinus_clean, sinus_clean_filtered):
        det = detect_r_peaks_energy(sinus_clean_filtered, sinus_clean.fs)
        bm = segment_fiducials(sinus_clean_filtered, sinus_clean.fs, det)
        assert np.all(bm.fiducials >= 0)
        assert np.all(bm.fiducials < len(sinus_clean_filtered))

    def test_rr_intervals(self):
        bm = segment_fiducials(np.zeros(3000), 200.0, [400, 600, 900])
        np.testing.assert_allclose(bm.rr_intervals, [1.0, 1.5])

    def test_needs_two_peaks(self):
        with pytest.raises(ValueError):
            segment_fiducials(np.zeros(3000), 200.0, [500])

    def test_json_roundtrip_shape(self):
        bm = segment_fiducials(np.zeros(3000), 200.0, [400, 600, 900])
        d = bm.to_json_dict()
        assert d["fs"] == 200.0
        assert len(d["fiducials"]) == 3 and len(d["fiducials"][0]) == 4
