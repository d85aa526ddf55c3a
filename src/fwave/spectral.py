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
    method: str = ""


@dataclass
class DafEstimate:
    daf_hz: float
    peak_power: float
    method: str = ""


def welch_psd(
    x,
    fs: float,
    seg_s: float = DEFAULT_SEG_S,
    overlap: float = DEFAULT_OVERLAP,
    nfft: int | None = None,
    method: str = "",
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
    return PowerSpectrum(
        freqs=freqs, power=power, resolution=float(freqs[1] - freqs[0]), method=method
    )


def estimate_daf(
    ps: PowerSpectrum,
    band_low: float = DAF_BAND[0],
    band_high: float = DAF_BAND[1],
) -> DafEstimate:
    """Frequency of the largest power bin within the closed band.

    Ties break toward the lower frequency (argmax takes the first bin).
    """
    eps = 1e-9
    mask = (ps.freqs >= band_low - eps) & (ps.freqs <= band_high + eps)
    if not np.any(mask):
        raise ConfigError(
            f"spectrum of {ps.resolution:g} Hz bins up to {ps.freqs[-1]:g} Hz has no bin "
            f"in the [{band_low}, {band_high}] Hz band; check welch_seg_s"
        )
    band_f = ps.freqs[mask]
    band_p = ps.power[mask]
    i = int(np.argmax(band_p))
    return DafEstimate(daf_hz=float(band_f[i]), peak_power=float(band_p[i]), method=ps.method)


def vote_daf(estimates, methods=("TS_B", "TS_CE", "TS_SU")) -> DafEstimate:
    """Median of the selected methods' DAF estimates.

    Every method in ``methods`` must have contributed exactly one
    estimate. An even count yields the mean of the two middle values.
    """
    methods = tuple(methods)
    by_method = {}
    for est in estimates:
        if est.method in methods:
            if est.method in by_method:
                raise VotingError(f"duplicate estimate for method {est.method}")
            by_method[est.method] = est
    missing = [m for m in methods if m not in by_method]
    if missing:
        raise VotingError(f"missing DAF estimate for method(s): {', '.join(missing)}")
    values = [by_method[m].daf_hz for m in methods]
    daf = float(np.median(values))
    peak = float(np.median([by_method[m].peak_power for m in methods]))
    return DafEstimate(daf_hz=daf, peak_power=peak, method="vote")
