"""Welch spectral estimation, dominant-atrial-frequency peak picking and
the median voting scheme across extraction methods."""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SignalTooShortError, VotingError

DAF_BAND = (4.0, 12.0)
DEFAULT_SEG_S = 10.0
DEFAULT_OVERLAP = 0.5


@dataclass
class PowerSpectrum:
    freqs: np.ndarray
    power: np.ndarray  # density, mV^2 / Hz
    resolution: float


def welch_grid(fs, seg_s, overlap, nfft=None, band=None) -> tuple:
    """``(nperseg, noverlap, nfft)`` of the Welch spectrum ``welch_psd``
    takes at ``fs``. Raises ConfigError unless segments overlap by less
    than their length, ``nfft`` (default: the next power of two at or
    above 4 * nperseg) holds a segment and, with a ``band`` (low, high),
    the grid has a bin in it. Plain numpy: a config is checked with it
    before any spectrum is taken."""
    nperseg = int(round(seg_s * fs))
    noverlap = int(round(overlap * nperseg))
    if not 0 <= noverlap < nperseg:
        raise ConfigError(
            f"welch_seg_s={seg_s} with welch_overlap={overlap} at fs={fs} gives "
            f"{nperseg}-sample segments overlapping by {noverlap}"
        )
    if nfft is None:
        nfft = 1 << int(np.ceil(np.log2(4 * nperseg)))
    elif nfft < nperseg:
        raise ConfigError(f"nfft={nfft} is shorter than the {nperseg}-sample Welch segments")
    if band is not None:
        _band_mask(np.fft.rfftfreq(nfft, 1 / fs), fs / nfft, *band)
    return nperseg, noverlap, nfft


@functools.lru_cache(maxsize=16)
def _window_and_freqs(nperseg, fs, nfft):
    """The periodic Hamming window, scaled to a PSD, and the one-sided
    grid: ``scipy.signal.ShortTimeFFT(get_window("hamming", nperseg), hop,
    fs, mfft=nfft, scale_to="psd")``'s ``win`` and ``f`` bit for bit, by
    its steps (one cosine term at a time, and Python's ``sum``)."""
    if nperseg == 1:
        win = np.ones(1)
    else:
        fac = np.linspace(-np.pi, np.pi, nperseg + 1)
        win = np.zeros(nperseg + 1)
        for k, coef in enumerate((0.54, 1.0 - 0.54)):
            win += coef * np.cos(k * fac)
        win = win[:-1]
    win = win * (1 / np.sqrt(sum(win**2) / (1 / fs)))
    return win, np.fft.rfftfreq(nfft, 1 / fs)


def welch_psd(
    x,
    fs: float,
    seg_s: float = DEFAULT_SEG_S,
    overlap: float = DEFAULT_OVERLAP,
    nfft: int | None = None,
) -> PowerSpectrum:
    """Hamming-window Welch density with 50% overlap by default.

    Segments are zero-padded (nfft defaults to the next power of two at
    or above 4 * seg_s * fs) so the grid spacing stays at or below
    0.05 Hz for the default 10 s segments. Density scaling: the
    integrated power of a unit-amplitude sinusoid is ~0.5.

    The result is ``scipy.signal.welch(x, fs, "hamming", nperseg,
    noverlap, nfft, detrend=False, scaling="density")`` bit for bit:
    the same window, grid, products and summation order, but every
    segment goes through one FFT call instead of one call each. It is
    all numpy: ``np.fft.rfft`` gives ``scipy.fft.rfft``'s bits (checked
    with numpy 2.4 and scipy 1.17).
    """
    x = np.asarray(x, dtype=np.float64)
    nperseg, noverlap, nfft = welch_grid(fs, seg_s, overlap, nfft)
    if len(x) < nperseg:
        raise SignalTooShortError(
            f"signal of {len(x) / fs:.1f} s shorter than one {seg_s} s segment"
        )
    win, freqs = _window_and_freqs(nperseg, fs, nfft)
    hop = nperseg - noverlap
    # the (len(x) - noverlap) // hop whole segments scipy takes, as one view
    segs = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::hop]
    spec = np.fft.rfft(segs * win, n=nfft, axis=-1)
    power = spec.real**2 + spec.imag**2
    power[:, 1:-1 if nfft % 2 == 0 else None] *= 2  # one-sided: fold the negative bins
    # mean over segments along a C-order (frequency x segment) array, the
    # layout scipy sums, so the additions run in the same order
    power = np.ascontiguousarray(power.T).mean(axis=-1)
    return PowerSpectrum(freqs=freqs.copy(), power=power, resolution=float(freqs[1] - freqs[0]))


def _band_mask(freqs, resolution, band_low, band_high):
    """Bins of ``freqs`` in the closed band; ConfigError if there are none."""
    eps = 1e-9
    mask = (freqs >= band_low - eps) & (freqs <= band_high + eps)
    if not np.any(mask):
        raise ConfigError(
            f"spectrum of {resolution:g} Hz bins up to {freqs[-1]:g} Hz has no bin "
            f"in the [{band_low}, {band_high}] Hz band; check welch_seg_s"
        )
    return mask


def estimate_daf(
    ps: PowerSpectrum,
    band_low: float = DAF_BAND[0],
    band_high: float = DAF_BAND[1],
) -> float:
    """Frequency (Hz) of the largest power bin within the closed band.

    Ties break toward the lower frequency (argmax takes the first bin).
    """
    mask = _band_mask(ps.freqs, ps.resolution, band_low, band_high)
    return float(ps.freqs[mask][np.argmax(ps.power[mask])])


def vote_daf(dafs, methods=("TS_B", "TS_CE", "TS_SU")):
    """Median of the selected methods' DAFs; ``dafs`` maps method to Hz.

    A value may also be a sequence with one DAF per window, the same
    length for every method: the vote is then an array of one median per
    window, all taken in one ``np.median`` call. Every method in
    ``methods`` must have a DAF; other methods are ignored. An even count
    yields the mean of the two middle values.
    """
    missing = [m for m in methods if m not in dafs]
    if missing:
        raise VotingError(f"missing DAF estimate for method(s): {', '.join(missing)}")
    vote = np.median(np.array([dafs[m] for m in methods], dtype=np.float64), axis=0)
    return float(vote) if vote.ndim == 0 else vote

