import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwave.errors import ConfigError
from fwave.synth import (
    _P_BUMP,
    _QRST_BUMPS,
    R_AMPLITUDE_MV,
    SynthConfig,
    SynthTruth,
    _place_bumps,
    generate,
    generate_corpus,
)


def _place_bumps_loop(t_grid, beat_times, bumps, beat_scales=None):
    """The oracle: ``synth._place_bumps`` as a loop over bumps and beats."""
    y = np.zeros_like(t_grid)
    if beat_scales is None:
        beat_scales = np.ones(len(beat_times))
    for amp, center, width in bumps:
        for bt, scale in zip(beat_times, beat_scales):
            c = bt + center
            lo = np.searchsorted(t_grid, c - 6 * width)
            hi = np.searchsorted(t_grid, c + 6 * width)
            if hi > lo:
                seg = t_grid[lo:hi] - c
                y[lo:hi] += scale * amp * np.exp(-0.5 * (seg / width) ** 2)
    return y


def _af_cfg(**kw):
    base = dict(rhythm="AF", fwave_f0=6.0, rng_seed=0)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerate:
    def test_fwave_spectrum_peaks_at_f0(self):
        truth = generate(_af_cfg())
        f = np.fft.rfftfreq(len(truth.clean_fwave), 1 / truth.fs)
        p = np.abs(np.fft.rfft(truth.clean_fwave)) ** 2
        assert f[np.argmax(p)] == pytest.approx(6.0, abs=0.02)

    def test_sinus_has_no_fwave(self):
        truth = generate(SynthConfig(rhythm="sinus", rng_seed=0))
        assert np.all(truth.clean_fwave == 0.0)
        assert truth.daf_true is None

    def test_same_seed_bit_identical(self):
        a = generate(_af_cfg())
        b = generate(_af_cfg())
        assert np.array_equal(a.ecg, b.ecg)
        assert np.array_equal(a.clean_fwave, b.clean_fwave)
        assert np.array_equal(a.r_peaks_true, b.r_peaks_true)

    def test_different_seeds_differ(self):
        a = generate(_af_cfg(rng_seed=1))
        b = generate(_af_cfg(rng_seed=2))
        assert not np.array_equal(a.ecg, b.ecg)

    def test_additivity_exact(self):
        truth = generate(_af_cfg(artifact_rms_mv=0.2))
        total = truth.ventricular + truth.clean_fwave + truth.noise + truth.artifact
        assert np.array_equal(truth.ecg, total)

    def test_r_peaks_sit_on_ventricular_maxima(self):
        truth = generate(SynthConfig(rhythm="sinus", rr_jitter=0.0,
                                     beat_amp_cv=0.0, noise_rms_mv=0.0, rng_seed=0))
        for r in truth.r_peaks_true:
            lo = max(0, r - 20)
            hi = min(len(truth.ventricular), r + 21)
            assert abs(lo + np.argmax(truth.ventricular[lo:hi]) - r) <= 1

    def test_heart_rate_honored(self):
        truth = generate(SynthConfig(rhythm="sinus", mean_hr_bpm=60.0,
                                     rr_jitter=0.0, rng_seed=0))
        rr = np.diff(truth.r_peaks_true) / truth.fs
        assert np.mean(rr) == pytest.approx(1.0, abs=0.01)

    def test_inband_power_concentrated_at_harmonics(self):
        truth = generate(_af_cfg(fwave_f0=4.5, noise_rms_mv=0.0))
        f = np.fft.rfftfreq(len(truth.clean_fwave), 1 / truth.fs)
        p = np.abs(np.fft.rfft(truth.clean_fwave)) ** 2
        band = (f >= 4.0) & (f <= 12.0)
        near = np.zeros_like(f, dtype=bool)
        for k in (1, 2):  # 4.5 and 9.0 Hz lie in band
            near |= np.abs(f - 4.5 * k) <= 0.3
        assert np.sum(p[band & near]) >= 0.9 * np.sum(p[band])

    def test_amplitude_modulation_depth(self):
        truth = generate(_af_cfg(noise_rms_mv=0.0))
        # envelope breathes +/-20%: peak amplitude varies but stays bounded
        env = np.abs(truth.clean_fwave)
        assert np.max(env) <= 1.25 * sum(0.1 / k for k in (1, 2, 3))

    def test_duration_and_fs(self):
        truth = generate(_af_cfg(duration_s=30.0, fs=250.0))
        assert len(truth.ecg) == 7500
        assert truth.fs == 250.0


class TestPlaceBumps:
    @settings(max_examples=300, deadline=None)
    @given(
        fs=st.sampled_from([128.0, 200.0, 250.0, 500.0]),
        duration_s=st.floats(0.5, 6.0),
        # the first beat may sit a second before the record, the last past
        # its end; RRs from 0.1 s let the 0.9 s T waves of adjacent beats overlap
        first=st.floats(-1.5, 1.0),
        rrs=st.lists(st.floats(0.1, 1.5), max_size=12),
        with_p=st.booleans(),
        scaled=st.booleans(),
        snap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_as_the_beat_loop(self, fs, duration_s, first, rrs, with_p, scaled,
                                         snap, seed):
        t_grid = np.arange(int(round(duration_s * fs))) / fs
        beat_times = first + np.cumsum([0.0, *rrs])
        if snap:  # as generate() places them
            beat_times = np.round(beat_times * fs) / fs
        bumps = [*_QRST_BUMPS, _P_BUMP] if with_p else list(_QRST_BUMPS)
        scales = (np.exp(0.3 * np.random.default_rng(seed).standard_normal(len(beat_times)))
                  if scaled else None)
        got = _place_bumps(t_grid, beat_times, bumps, scales)
        assert got.tobytes() == _place_bumps_loop(t_grid, beat_times, bumps, scales).tobytes()

    def test_no_beats_gives_zeros(self):
        t_grid = np.arange(400) / 200.0
        assert np.array_equal(_place_bumps(t_grid, np.empty(0), _QRST_BUMPS), np.zeros(400))


class TestConfigValidation:
    def test_af_requires_f0(self):
        with pytest.raises(ConfigError, match="fwave_f0"):
            generate(SynthConfig(rhythm="AF", rng_seed=0))

    def test_sinus_rejects_f0(self):
        with pytest.raises(ConfigError):
            generate(SynthConfig(rhythm="sinus", fwave_f0=6.0))

    def test_f0_band_enforced(self):
        with pytest.raises(ConfigError, match=r"\[4, 12\]"):
            generate(_af_cfg(fwave_f0=15.0))

    def test_unknown_rhythm(self):
        with pytest.raises(ConfigError, match="rhythm"):
            generate(SynthConfig(rhythm="flutter"))

    def test_minimum_duration(self):
        with pytest.raises(ConfigError):
            generate(_af_cfg(duration_s=5.0))

    def test_jitter_defaults(self):
        assert _af_cfg().resolved_jitter() == 0.25
        assert SynthConfig(rhythm="sinus").resolved_jitter() == 0.03
        assert _af_cfg(rr_jitter=0.1).resolved_jitter() == 0.1


class TestCorpus:
    def test_counts_and_labels(self):
        corpus = generate_corpus(3, 2, rng_seed=0)
        assert len(corpus) == 5
        labels = [lab for _, lab in corpus]
        assert labels == ["AF"] * 3 + ["non-AF"] * 2
        for truth, lab in corpus:
            assert isinstance(truth, SynthTruth)
            assert (truth.daf_true is not None) == (lab == "AF")

    def test_f0_range_respected(self):
        corpus = generate_corpus(10, 0, f0_range=(6.0, 8.0), rng_seed=1)
        for truth, _ in corpus:
            assert 6.0 <= truth.daf_true <= 8.0

    def test_deterministic_and_records_independent(self):
        a = generate_corpus(2, 2, rng_seed=7)
        b = generate_corpus(2, 2, rng_seed=7)
        for (ta, _), (tb, _) in zip(a, b):
            assert np.array_equal(ta.ecg, tb.ecg)
        assert not np.array_equal(a[0][0].ecg, a[1][0].ecg)

    def test_default_amplitudes_track_r_amplitude(self):
        corpus = generate_corpus(1, 0, rng_seed=0)
        truth = corpus[0][0]
        # f-wave amplitude defaults to 10% of the R amplitude
        assert np.max(np.abs(truth.clean_fwave)) <= 1.3 * 0.1 * R_AMPLITUDE_MV * (1 + 0.5 + 1 / 3)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ConfigError):
            generate_corpus(0, 0)
