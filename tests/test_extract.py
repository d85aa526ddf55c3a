import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fwave.pipeline
from fwave.beats import detect_r_peaks_energy, segment_fiducials
from fwave.errors import ExtractionError
from fwave.extract import (
    METHODS,
    beat_matrix,
    extract,
    ts_basic,
    ts_pca,
    ts_scaled,
    ts_segment_scaled,
)
from fwave.pipeline import PipelineConfig, _process_window
from fwave.spectral import estimate_daf, welch_psd
from fwave.synth import SynthConfig, generate

from conftest import gauss_train
from extract_reference import REFERENCE

FS = 200.0
QRST = ((-0.1, -0.04, 0.012), (1.0, 0.0, 0.016), (-0.5, 0.055, 0.02), (0.4, 0.22, 0.07))


def _beatmap(x, fs, r_peaks):
    return segment_fiducials(x, fs, np.asarray(r_peaks, dtype=np.int64))


def _train(n_beats=20, rr=250, scales=None, bumps=QRST, n_extra=400):
    """Bump-train signal with exactly known beats, plus its r_peaks."""
    r = np.arange(n_beats) * rr + 200
    n = int(r[-1] + n_extra)
    x = gauss_train(FS, n, r, scales=scales, bumps=bumps)
    return x, r


def _span_rms(sig, spans):
    num = sum(float(np.sum(sig[a:b] ** 2)) for a, b in spans)
    cnt = sum(b - a for a, b in spans)
    return np.sqrt(num / cnt)


class TestBuildTemplate:
    def test_identical_beats_template_equals_beat(self):
        x, r = _train()
        bm = _beatmap(x, FS, r)
        model = beat_matrix(x, bm)
        pre = int(0.3 * FS)
        post = int(0.45 * FS)
        beat = x[r[5] - pre : r[5] + post + 1]
        np.testing.assert_allclose(model.template, beat, atol=1e-12)
        assert np.array_equal(model.starts, r - pre)

    def test_noise_averages_down(self):
        # 64 beats with sigma=0.1 noise: template error ~ 0.1/sqrt(64)
        rng = np.random.default_rng(0)
        errs = []
        for trial in range(10):
            x, r = _train(n_beats=66, rr=200)
            clean_bm = _beatmap(x, FS, r)
            clean = beat_matrix(x, clean_bm).template
            noisy = x + rng.normal(0, 0.1, size=len(x))
            model = beat_matrix(noisy, _beatmap(noisy, FS, r))
            errs.append(np.sqrt(np.mean((model.template - clean) ** 2)))
        assert np.mean(errs) < 2.0 * 0.1 / np.sqrt(64)

    def test_edge_beats_not_counted(self):
        x, r = _train(n_beats=10)
        r_with_edge = np.concatenate(([5], r))  # no room for the pre-span
        model = beat_matrix(x, _beatmap(x, FS, r_with_edge))
        assert len(model.kept) == 10

    def test_too_few_beats_raises(self):
        x, r = _train(n_beats=5)
        with pytest.raises(ExtractionError, match="beats"):
            beat_matrix(x, _beatmap(x, FS, r), min_beats=8)


class TestTsBasic:
    def test_periodic_beats_cancel_below_1pct(self):
        x, r = _train(n_beats=30)
        res = ts_basic(beat_matrix(x, _beatmap(x, FS, r)))
        assert _span_rms(res.residual, res.spans) < 0.01 * _span_rms(x, res.spans)
        assert res.method == "TS_B"
        assert res.beats_used == len(res.spans)

    def test_recovers_asynchronous_6hz_wave(self):
        x, r = _train(n_beats=40, rr=170)
        t = np.arange(len(x)) / FS
        wave = 0.1 * np.sin(2 * np.pi * 6.0 * t)
        res = ts_basic(beat_matrix(x + wave, _beatmap(x + wave, FS, r)))
        ps = welch_psd(res.residual, FS, seg_s=10)
        assert estimate_daf(ps).daf_hz == pytest.approx(6.0, abs=0.1)
        corr = np.corrcoef(res.residual, wave)[0, 1]
        assert corr >= 0.8

    def test_qrs_amplitude_reduced_10x(self, af_record, af_record_filtered):
        fs = af_record.fs
        det = detect_r_peaks_energy(af_record_filtered, fs)
        res = ts_basic(beat_matrix(af_record_filtered, _beatmap(af_record_filtered, fs, det)))
        # the residual legitimately keeps the f-wave, so measure the
        # ventricular leftover: residual minus the known atrial signal
        cancel_err = res.residual - af_record.clean_fwave
        w = int(0.05 * fs)
        ratios = []
        for r in det[2:-2]:
            before = np.max(np.abs(af_record_filtered[r - w : r + w]))
            after = np.max(np.abs(cancel_err[r - w : r + w]))
            ratios.append(after / before)
        assert np.median(ratios) <= 0.1

    def test_outside_spans_untouched(self):
        x, r = _train(n_beats=12, rr=250)
        res = ts_basic(beat_matrix(x, _beatmap(x, FS, r)))
        mask = np.ones(len(x), dtype=bool)
        for a, b in res.spans:
            mask[a:b] = False
        assert np.array_equal(res.residual[mask], x[mask])

    def test_length_preserved(self):
        x, r = _train()
        res = ts_basic(beat_matrix(x, _beatmap(x, FS, r)))
        assert len(res.residual) == len(x)


class TestTsScaled:
    def test_alternating_amplitudes_fit(self):
        scales = np.array([1.0, 1.2] * 10)
        x, r = _train(n_beats=20, scales=scales)
        res = ts_scaled(beat_matrix(x, _beatmap(x, FS, r)))
        gains = res.per_beat_gains
        # gains alternate with the beat amplitudes (ratio 1.2) and the fit
        # cancels nearly everything
        lo = np.median(gains[::2])
        hi = np.median(gains[1::2])
        assert hi / lo == pytest.approx(1.2, rel=0.02)
        assert _span_rms(res.residual, res.spans) < 0.01 * _span_rms(x, res.spans)
        assert res.method == "TS_CE"

    def test_dominates_basic_per_span(self, af_record, af_record_filtered):
        fs = af_record.fs
        det = detect_r_peaks_energy(af_record_filtered, fs)
        bm = _beatmap(af_record_filtered, fs, det)
        basic = ts_basic(beat_matrix(af_record_filtered, bm))
        scaled = ts_scaled(beat_matrix(af_record_filtered, bm))
        assert basic.spans == scaled.spans
        for a, b in basic.spans:
            eb = float(np.sum(basic.residual[a:b] ** 2))
            ec = float(np.sum(scaled.residual[a:b] ** 2))
            assert ec <= eb * (1 + 1e-9) + 1e-12

    def test_gain_clamped_to_three(self):
        scales = np.array([1.0] * 19 + [50.0])
        x, r = _train(n_beats=20, scales=scales)
        res = ts_scaled(beat_matrix(x, _beatmap(x, FS, r)))
        assert np.max(res.per_beat_gains) <= 3.0
        assert np.min(res.per_beat_gains) >= 0.0

    def test_flat_template_raises(self):
        x = np.zeros(4000)
        r = np.arange(10) * 300 + 300
        with pytest.raises(ExtractionError, match="flat"):
            ts_scaled(beat_matrix(x, _beatmap(x, FS, r)))


class TestTsSegmentScaled:
    def test_identical_beats_match_basic(self):
        # all three segment gains are exactly 1, so crossfades blend 1 with 1
        x, r = _train(n_beats=25)
        bm = _beatmap(x, FS, r)
        su = ts_segment_scaled(beat_matrix(x, bm))
        basic = ts_basic(beat_matrix(x, bm))
        np.testing.assert_allclose(su.residual, basic.residual, atol=1e-12)
        assert su.method == "TS_SU"

    def test_t_wave_rescaling_tracked(self):
        # T-wave alternates 1.0 / 1.6 of nominal while QRS stays fixed
        qrs = ((1.0, 0.0, 0.016),)
        twave = ((0.4, 0.22, 0.07),)
        r = np.arange(20) * 180 + 200
        n = int(r[-1] + 400)
        x = gauss_train(FS, n, r, bumps=qrs)
        t_scales = np.array([1.0, 1.6] * 10)
        x = x + gauss_train(FS, n, r, scales=t_scales, bumps=twave)
        res = ts_segment_scaled(beat_matrix(x, _beatmap(x, FS, r)))
        t_gains = np.array([g[2] for g in res.per_beat_gains])
        qrs_gains = np.array([g[1] for g in res.per_beat_gains])
        assert np.median(t_gains[1::2]) / np.median(t_gains[::2]) == pytest.approx(
            1.6, rel=0.05
        )
        assert np.allclose(qrs_gains, 1.0, atol=0.05)
        assert _span_rms(res.residual, res.spans) < 0.02 * _span_rms(x, res.spans)

    def test_flat_p_segment_flagged(self):
        # narrow QRS bump truncated to exact zero outside its core: the P
        # sub-window of the template is exactly flat
        r = np.arange(12) * 200 + 200
        n = int(r[-1] + 400)
        x = np.zeros(n)
        for rp in r:
            x[rp - 5 : rp + 6] += np.hamming(11)
        res = ts_segment_scaled(beat_matrix(x, _beatmap(x, FS, r)))
        assert any("P segment" in f for f in res.flags)
        assert all(g[0] == 0.0 for g in res.per_beat_gains)


class TestTsPca:
    def test_identical_beats_rank1_cancels(self):
        x, r = _train(n_beats=20)
        res = ts_pca(beat_matrix(x, _beatmap(x, FS, r)))
        assert "rank=1" in res.flags
        assert _span_rms(res.residual, res.spans) < 1e-6 * _span_rms(x, res.spans)
        assert res.method == "TS_PCA"

    def test_rank_cap_binds_on_noisy_beats(self):
        rng = np.random.default_rng(2)
        x, r = _train(n_beats=20)
        x = x + rng.normal(0, 0.05, size=len(x))
        res = ts_pca(beat_matrix(x, _beatmap(x, FS, r)), var_target=1.0, max_rank=3)
        assert "rank=3" in res.flags

    def test_drift_plus_wave_recovers_fundamental(self):
        scales = 1.0 + 0.2 * np.linspace(-1, 1, 40)
        x, r = _train(n_beats=40, rr=170, scales=scales)
        t = np.arange(len(x)) / FS
        wave = 0.1 * np.sin(2 * np.pi * 7.0 * t) + 0.05 * np.sin(2 * np.pi * 14.0 * t)
        res = ts_pca(beat_matrix(x + wave, _beatmap(x + wave, FS, r)))
        ps = welch_psd(res.residual, FS, seg_s=10)
        assert estimate_daf(ps).daf_hz == pytest.approx(7.0, abs=0.2)

    def test_full_basis_drives_residual_to_zero(self):
        rng = np.random.default_rng(3)
        x, r = _train(n_beats=12)
        x = x + rng.normal(0, 0.02, size=len(x))
        res = ts_pca(beat_matrix(x, _beatmap(x, FS, r)), var_target=1.0, max_rank=12)
        assert _span_rms(res.residual, res.spans) < 1e-9

    def test_too_few_beats_raises(self):
        x, r = _train(n_beats=5)
        with pytest.raises(ExtractionError):
            ts_pca(beat_matrix(x, _beatmap(x, FS, r)))


class TestSharedProperties:
    @pytest.mark.parametrize("method", METHODS)
    def test_amplitude_equivariance(self, method, af_record, af_record_filtered):
        fs = af_record.fs
        det = detect_r_peaks_energy(af_record_filtered, fs)
        bm = _beatmap(af_record_filtered, fs, det)
        r1 = extract(method, beat_matrix(af_record_filtered, bm)).residual
        r2 = extract(method, beat_matrix(2.5 * af_record_filtered, bm)).residual
        np.testing.assert_allclose(r2, 2.5 * r1, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_length_and_tag(self, method, af_record, af_record_filtered):
        fs = af_record.fs
        det = detect_r_peaks_energy(af_record_filtered, fs)
        res = extract(method, beat_matrix(af_record_filtered, _beatmap(af_record_filtered, fs, det)))
        assert len(res.residual) == len(af_record_filtered)
        assert res.method == method
        assert np.all(np.isfinite(res.residual))

    @pytest.mark.parametrize("method", ("TS_B", "TS_CE", "TS_SU"))
    def test_fwave_correlation(self, method, af_record, af_record_filtered):
        fs = af_record.fs
        det = detect_r_peaks_energy(af_record_filtered, fs)
        res = extract(method, beat_matrix(af_record_filtered, _beatmap(af_record_filtered, fs, det)))
        corr = np.corrcoef(res.residual, af_record.clean_fwave)[0, 1]
        assert corr >= 0.8

    def test_pca_fwave_correlation_in_drift_regime(self):
        # the rank-capped subspace needs genuine ventricular variance to
        # model, so PCA is checked where beat amplitudes drift
        scales = 1.0 + 0.2 * np.linspace(-1, 1, 40)
        x, r = _train(n_beats=40, rr=170, scales=scales)
        t = np.arange(len(x)) / FS
        # keep the wave under the 5% variance budget the 0.95 target leaves
        # to non-ventricular content, or a quadrature gets absorbed
        wave = 0.05 * np.sin(2 * np.pi * 7.0 * t)
        res = ts_pca(beat_matrix(x + wave, _beatmap(x + wave, FS, r)))
        assert np.corrcoef(res.residual, wave)[0, 1] >= 0.8

    def test_unknown_method(self, af_record, af_record_filtered):
        fs = af_record.fs
        det = detect_r_peaks_energy(af_record_filtered, fs)
        with pytest.raises(ExtractionError, match="unknown"):
            extract("TS_X", beat_matrix(af_record_filtered, _beatmap(af_record_filtered, fs, det)))


PRE, POST = int(round(0.3 * FS)), int(round(0.45 * FS))


@st.composite
def _windows(draw):
    """A signal, an R-peak layout and a min_beats around its usable count.

    Peaks are sorted and unique; gaps run from 1 sample (neighbours much
    closer than the span) to past the span, and the first and last
    peaks may sit inside ``pre``/``post`` of the signal edges.
    """
    gaps = draw(st.lists(st.integers(1, PRE + POST + 60), min_size=1, max_size=14))
    r = draw(st.integers(0, PRE + 20)) + np.concatenate(([0], np.cumsum(gaps)))
    n = int(r[-1]) + 1 + draw(st.integers(0, POST + 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "beats", "sparse", "flat"]))
    if kind == "noise":
        x = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.normal(size=n)
    elif kind == "beats":
        x = gauss_train(FS, n, r) + 0.05 * rng.normal(size=n)
    elif kind == "sparse":
        # exact zeros away from R: flat template slices and flat segments
        x = np.zeros(n)
        for rp in r:
            lo, hi = max(rp - 5, 0), min(rp + 6, n)
            x[lo:hi] += np.hamming(11)[lo - (rp - 5) : hi - (rp - 5)]
    else:
        x = np.zeros(n)
    usable = int(np.sum((r - PRE >= 0) & (r + POST + 1 <= n)))
    min_beats = max(1, usable + draw(st.integers(-1, 1)))
    return x, r, min_beats


def _outcome(fn):
    try:
        return fn()
    except ExtractionError as exc:
        return str(exc)


class TestMatchesReference:
    """Every extractor on the shared beat matrix gives exactly what the
    per-extractor stacking gave before it (``extract_reference``)."""

    @given(_windows())
    @settings(max_examples=300, deadline=None)
    def test_same_outputs_and_errors(self, case):
        x, r, min_beats = case
        beats = _beatmap(x, FS, r)
        for method in METHODS:
            want = _outcome(lambda: REFERENCE[method](x, beats, min_beats=min_beats))
            got = _outcome(lambda: extract(method, beat_matrix(x, beats, min_beats)))
            if isinstance(want, str) or isinstance(got, str):
                assert got == want, method
                continue
            assert np.array_equal(got.residual, want.residual), method
            assert got.spans == want.spans, method
            assert np.array_equal(got.per_beat_gains, want.per_beat_gains), method
            assert got.flags == want.flags, method
            assert got.beats_used == want.beats_used, method


class TestOneBeatMatrixPerWindow:
    def test_one_call_per_analysed_window(self, af_record_filtered, af_record, monkeypatch,
                                          tmp_path):
        calls = []

        def counted(x, beats, min_beats):
            calls.append(1)
            return beat_matrix(x, beats, min_beats)

        monkeypatch.setattr(fwave.pipeline, "beat_matrix", counted)
        (tmp_path / "residuals").mkdir()
        out = _process_window(
            ("w0", af_record_filtered, af_record.fs, "AF", PipelineConfig(out_dir=str(tmp_path)))
        )
        assert out == {"window_id": "w0", "label": "AF", "fs": af_record.fs}
        assert sorted(os.listdir(tmp_path / "residuals")) == sorted(
            f"w0__{m}.fwk" for m in METHODS
        )
        assert len(calls) == 1
