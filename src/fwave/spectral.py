"""Welch spectral estimation, dominant-atrial-frequency peak picking and
the median voting scheme across extraction methods."""

from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ConfigError, SignalTooShortError, VotingError

DAF_BAND = (4.0, 12.0)
DEFAULT_SEG_S = 10.0
DEFAULT_OVERLAP = 0.5


@dataclass
class PowerSpectrum:
    freqs: np.ndarray
    power: np.ndarray  # density, mV^2 / Hz
    resolution: float


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
    """
    x = np.asarray(x, dtype=np.float64)
    nperseg = int(round(seg_s * fs))
    noverlap = int(round(overlap * nperseg))
    if not 0 <= noverlap < nperseg:
        raise ConfigError(
            f"welch_seg_s={seg_s} with welch_overlap={overlap} at fs={fs} gives "
            f"{nperseg}-sample segments overlapping by {noverlap}"
        )
    if len(x) < nperseg:
        raise SignalTooShortError(
            f"signal of {len(x) / fs:.1f} s shorter than one {seg_s} s segment"
        )
    if nfft is None:
        nfft = 1 << int(np.ceil(np.log2(4 * nperseg)))
    freqs, power = scipy.signal.welch(
        x,
        fs=fs,
        window="hamming",
        nperseg=nperseg,
        noverlap=noverlap,
        nfft=nfft,
        detrend=False,
        scaling="density",
    )
    return PowerSpectrum(freqs=freqs, power=power, resolution=float(freqs[1] - freqs[0]))


def estimate_daf(
    ps: PowerSpectrum,
    band_low: float = DAF_BAND[0],
    band_high: float = DAF_BAND[1],
) -> float:
    """Frequency (Hz) of the largest power bin within the closed band.

    Ties break toward the lower frequency (argmax takes the first bin).
    """
    eps = 1e-9
    mask = (ps.freqs >= band_low - eps) & (ps.freqs <= band_high + eps)
    if not np.any(mask):
        raise ConfigError(
            f"spectrum of {ps.resolution:g} Hz bins up to {ps.freqs[-1]:g} Hz has no bin "
            f"in the [{band_low}, {band_high}] Hz band; check welch_seg_s"
        )
    return float(ps.freqs[mask][np.argmax(ps.power[mask])])


def vote_daf(dafs, methods=("TS_B", "TS_CE", "TS_SU")) -> float:
    """Median of the selected methods' DAFs; ``dafs`` maps method to Hz.

    Every method in ``methods`` must have a DAF; other methods are
    ignored. An even count yields the mean of the two middle values.
    """
    missing = [m for m in methods if m not in dafs]
    if missing:
        raise VotingError(f"missing DAF estimate for method(s): {', '.join(missing)}")
    return float(np.median([dafs[m] for m in methods]))
