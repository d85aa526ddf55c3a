import numpy as np
import pytest

import fwave.beats
import fwave.pipeline
import fwave.preprocess
from fwave.beats import (
    detect_r_peaks_energy,
    detect_r_peaks_matched,
    matched_mask,
)
from fwave.errors import SignalTooShortError
from fwave.pipeline import PipelineConfig, _process_window
from fwave.preprocess import compute_bsqi, prefilter

from conftest import gauss_train

FS = 200.0
TOL = 0.150 * FS  # the bSQI match tolerance, 150 ms, in samples


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
        with pytest.raises(SignalTooShortError):
            detect_r_peaks_energy(np.zeros(100), FS)


class TestMatchedDetector:
    def test_agrees_with_energy_on_clean_signal(self, sinus_clean, sinus_clean_filtered):
        fs = sinus_clean.fs
        a = detect_r_peaks_energy(sinus_clean_filtered, fs)
        b = detect_r_peaks_matched(sinus_clean_filtered, fs, a)
        assert b is not a  # the kernel ran: no fallback to the energy peaks
        m = matched_mask(a, b, 0.150 * fs).sum()
        assert m / max(len(a), len(b)) >= 0.95

    def test_white_noise_disagreement(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(int(60 * FS))
        a = detect_r_peaks_energy(x, FS)
        b = detect_r_peaks_matched(x, FS, a)
        m = matched_mask(a, b, TOL).sum()
        denom = len(a) + len(b) - m
        bsqi = m / denom if denom else 0.0
        assert bsqi < 0.8

    def test_few_beats_falls_back_degraded(self):
        # two bumps in 10 s: not enough first-pass beats for a kernel
        x = gauss_train(FS, int(10 * FS), [600, 1400])
        first = detect_r_peaks_energy(x, FS)
        assert np.array_equal(detect_r_peaks_matched(x, FS, first), first)


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
        assert matched_mask(a, a, TOL).tolist() == [True, True, True]

    def test_tolerance_boundary(self):
        tol_samples = int(TOL)  # 30 samples
        a = np.array([1000])
        assert matched_mask(a, np.array([1000 + tol_samples]), TOL).tolist() == [True]
        assert matched_mask(a, np.array([1000 + tol_samples + 1]), TOL).tolist() == [False]

    def test_greedy_one_to_one(self):
        a = np.array([1000, 1010])
        b = np.array([1005])
        assert matched_mask(a, b, TOL).tolist() == [True, False]
