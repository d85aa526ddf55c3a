import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwave.errors import ConfigError, SignalTooShortError, VotingError
from fwave.evaluate import FeatureTable
from fwave.pipeline import PipelineConfig, stage_eval
from fwave.spectral import PowerSpectrum, _window_and_freqs, estimate_daf, vote_daf, welch_psd

FS = 200.0


def _tone(freq, amp=1.0, duration=60.0, fs=FS, phase=0.0):
    t = np.arange(int(duration * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t + phase)


class TestWelch:
    def test_unit_6hz_tone_peak(self):
        ps = welch_psd(_tone(6.0), FS)
        assert ps.resolution <= 0.05
        peak = ps.freqs[np.argmax(ps.power)]
        assert peak == pytest.approx(6.0, abs=ps.resolution)

    def test_unit_tone_integrated_power(self):
        # integrated power of a unit-amplitude sinusoid is ~0.5
        ps = welch_psd(_tone(6.0), FS)
        total = float(np.trapezoid(ps.power, ps.freqs))
        assert total == pytest.approx(0.5, rel=0.05)

    def test_two_tone_power_ratio(self):
        x = _tone(5.0, amp=1.0) + _tone(9.0, amp=0.5, phase=1.0)
        ps = welch_psd(x, FS)
        p5 = ps.power[np.argmin(np.abs(ps.freqs - 5.0))]
        p9 = ps.power[np.argmin(np.abs(ps.freqs - 9.0))]
        assert p5 / p9 == pytest.approx(4.0, rel=0.2)

    def test_white_noise_flat_in_band(self):
        rng = np.random.default_rng(0)
        acc = None
        for _ in range(100):
            ps = welch_psd(rng.standard_normal(int(60 * FS)), FS)
            acc = ps.power if acc is None else acc + ps.power
        band = (ps.freqs >= 4.0) & (ps.freqs <= 12.0)
        assert np.max(acc[band]) < 5.0 * np.median(acc[band])

    def test_properties(self):
        ps = welch_psd(_tone(7.5), FS)
        assert np.all(ps.power >= 0)
        assert np.all(np.diff(ps.freqs) > 0)
        np.testing.assert_allclose(np.diff(ps.freqs), ps.resolution)
        assert ps.freqs[0] == 0.0 and ps.freqs[-1] == pytest.approx(FS / 2)

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShortError):
            welch_psd(np.zeros(100), FS, seg_s=10)

    def test_nfft_shorter_than_a_segment_raises(self):
        # an FFT of fewer points than a segment would drop the segment's tail
        with pytest.raises(ConfigError, match="nfft=1999"):
            welch_psd(_tone(6.0), FS, seg_s=10, nfft=1999)

    def test_doubling_nfft_moves_peak_at_most_one_bin(self):
        x = _tone(6.37)
        ps1 = welch_psd(x, FS)
        nfft1 = 2 * (len(ps1.freqs) - 1)
        ps2 = welch_psd(x, FS, nfft=2 * nfft1)
        d1 = estimate_daf(ps1)
        d2 = estimate_daf(ps2)
        assert abs(d1 - d2) <= ps1.resolution + 1e-12


class TestWelchEqualsScipy:
    """``welch_psd`` takes every segment's FFT in one call;
    ``scipy.signal.welch`` loops over the segments. The bits agree."""

    @settings(max_examples=150, deadline=None)
    @given(
        fs=st.sampled_from([128.0, 200.0, 250.0, 360.0, 500.0]),
        nperseg=st.integers(3, 1500),  # from 3 samples on, overlap 0.75 leaves a hop
        extra=st.integers(0, 6000),
        overlap=st.floats(0.0, 0.75),
        nfft_extra=st.none() | st.integers(0, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(fs=200.0, nperseg=2000, extra=0, overlap=0.5, nfft_extra=None, seed=0)  # one segment
    @example(fs=250.0, nperseg=625, extra=3001, overlap=0.0, nfft_extra=None, seed=1)  # odd nperseg
    @example(fs=360.0, nperseg=900, extra=2500, overlap=0.75, nfft_extra=101, seed=2)  # odd nfft
    @example(fs=128.0, nperseg=640, extra=1111, overlap=0.3, nfft_extra=384, seed=3)  # even nfft
    def test_bit_identical_to_scipy_welch(self, fs, nperseg, extra, overlap, nfft_extra, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.standard_normal(nperseg + extra)) * 10.0 ** int(rng.integers(-3, 3))
        noverlap = int(round(overlap * nperseg))
        nfft = None if nfft_extra is None else nperseg + nfft_extra
        ps = welch_psd(x, fs, seg_s=nperseg / fs, overlap=overlap, nfft=nfft)
        freqs, power = scipy.signal.welch(
            x, fs=fs, window="hamming", nperseg=nperseg, noverlap=noverlap,
            nfft=nfft or 1 << int(np.ceil(np.log2(4 * nperseg))),
            detrend=False, scaling="density",
        )
        assert np.array_equal(ps.freqs, freqs)
        assert np.array_equal(ps.power, power)
        assert ps.resolution == freqs[1] - freqs[0]


class TestWelchWindowEqualsScipy:
    """The numpy window and grid are ``ShortTimeFFT``'s bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        nperseg=st.integers(1, 5000),
        hop=st.floats(0.0, 1.0),
        fs=st.sampled_from([128.0, 200.0, 250.0, 360.0, 500.0])
        | st.floats(1.0, 5000.0) | st.integers(1, 5000),
        nfft_extra=st.integers(0, 6000),
    )
    @example(nperseg=2000, hop=0.5, fs=200.0, nfft_extra=6192)  # the default grid at 200 Hz
    @example(nperseg=1, hop=1.0, fs=200.0, nfft_extra=3)  # a one-sample window is all ones
    def test_window_and_grid(self, nperseg, hop, fs, nfft_extra):
        nfft = nperseg + nfft_extra
        win, freqs = _window_and_freqs(nperseg, fs, nfft)
        stft = scipy.signal.ShortTimeFFT(
            scipy.signal.get_window("hamming", nperseg), max(1, int(hop * nperseg)), fs,
            fft_mode="onesided", mfft=nfft, scale_to="psd",
        )
        for ours, theirs in ((win, stft.win), (freqs, stft.f)):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


class TestEstimateDaf:
    def test_out_of_band_energy_ignored(self):
        x = _tone(3.0, amp=2.0) + _tone(7.0, amp=0.1)
        assert estimate_daf(welch_psd(x, FS)) == pytest.approx(7.0, abs=0.05)

    def test_band_bounds_inclusive(self):
        freqs = np.arange(0, 101) * 0.2
        power = np.zeros(101)
        power[np.argmin(np.abs(freqs - 12.0))] = 1.0
        ps = PowerSpectrum(freqs=freqs, power=power, resolution=0.2)
        assert estimate_daf(ps) == pytest.approx(12.0)

    def test_tie_breaks_toward_lower_frequency(self):
        freqs = np.arange(0, 101) * 0.2
        power = np.zeros(101)
        power[30] = 1.0  # 6.0 Hz
        power[40] = 1.0  # 8.0 Hz
        ps = PowerSpectrum(freqs=freqs, power=power, resolution=0.2)
        assert estimate_daf(ps) == pytest.approx(6.0)

    def test_scaling_invariance(self):
        ps = welch_psd(_tone(8.2), FS)
        scaled = PowerSpectrum(freqs=ps.freqs, power=37.0 * ps.power,
                               resolution=ps.resolution)
        assert estimate_daf(ps) == estimate_daf(scaled)

    def test_band_not_covered_raises(self):
        ps = PowerSpectrum(freqs=np.array([0.0, 1.0]), power=np.array([1.0, 1.0]),
                           resolution=1.0)
        with pytest.raises(ConfigError, match="welch_seg_s"):
            estimate_daf(ps)


class TestVoteDaf:
    def test_median_of_three(self):
        assert vote_daf({"TS_B": 6.1, "TS_CE": 5.81, "TS_SU": 5.96}) == pytest.approx(5.96)

    def test_even_count_mean_of_middles(self):
        out = vote_daf({"TS_B": 5.0, "TS_CE": 7.0}, methods=("TS_B", "TS_CE"))
        assert out == pytest.approx(6.0)

    def test_constant_inputs(self):
        assert vote_daf(dict.fromkeys(("TS_B", "TS_CE", "TS_SU"), 6.25)) == pytest.approx(6.25)

    def test_missing_method_named(self):
        with pytest.raises(VotingError, match="TS_SU"):
            vote_daf({"TS_B": 6.0, "TS_CE": 6.0})

    def test_duplicate_method_rejected(self, tmp_path):
        # a mapping holds one DAF per method, so the stage that builds it
        # refuses a table built in code with a second row for a window
        table = FeatureTable.empty()
        for i in range(10):
            for m in ("TS_B", "TS_CE", "TS_SU"):
                table.append(f"w{i}", m, 6.0 + i / 10, "AF" if i % 2 else "non-AF")
        table.append("w3", "TS_B", 6.1, "AF")
        with pytest.raises(VotingError, match="window w3: duplicate estimate for method TS_B"):
            stage_eval(PipelineConfig(out_dir=str(tmp_path / "o")), table)

    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([4.0, 6.25, 12.0]),
                 min_size=k, max_size=k),
        min_size=1, max_size=40)))
    @example([[6.0, 7.0], [5.0, 5.0]])
    @example([[4.0, 6.0, 8.0, 12.0]])
    @settings(max_examples=300, deadline=None)
    def test_one_call_equals_the_window_loop(self, windows):
        # the vote as it was: one np.median call per window
        methods = ("TS_B", "TS_CE", "TS_SU", "TS_PCA")[:len(windows[0])]
        loop = [float(np.median([dict(zip(methods, w))[m] for m in methods])) for w in windows]
        votes = vote_daf({m: [w[i] for w in windows] for i, m in enumerate(methods)}, methods)
        assert votes.dtype == np.float64
        assert votes.tobytes() == np.array(loop).tobytes()

    def test_first_window_in_order_named(self, tmp_path):
        # windows are checked in sorted order, not in row order
        lacking = {"w05": 2, "w02": 1}  # methods each of these has
        table = FeatureTable.empty()
        for i in reversed(range(12)):
            wid = f"w{i:02d}"
            for m in ("TS_B", "TS_CE", "TS_SU")[:lacking.get(wid, 3)]:
                table.append(wid, m, 6.0 + i / 10, "AF" if i % 2 else "non-AF")
        with pytest.raises(VotingError) as info:
            stage_eval(PipelineConfig(out_dir=str(tmp_path / "o"),
                                      voting_set=("TS_B", "TS_CE", "TS_SU")), table)
        assert str(info.value) == "window w02: missing DAF estimate for method(s): TS_CE, TS_SU"

    def test_extra_methods_ignored(self):
        out = vote_daf({"TS_B": 6.0, "TS_CE": 6.0, "TS_SU": 6.0, "TS_PCA": 11.0})
        assert out == pytest.approx(6.0)

    @given(st.lists(st.floats(min_value=4.0, max_value=12.0), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_median_bounds_and_permutation(self, vals):
        dafs = list(zip(("TS_B", "TS_CE", "TS_SU"), vals))
        out = vote_daf(dict(dafs))
        assert min(vals) - 1e-12 <= out <= max(vals) + 1e-12
        assert vote_daf(dict(dafs[::-1])) == out
        assert out == sorted(vals)[1]
