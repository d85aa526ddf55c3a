"""Synthetic single-lead ECG generator with known ground truth.

Produces AF records (irregular RR, no P-wave, sawtooth-like atrial
f-wave of known fundamental) and sinus records (regular RR, P-wave,
no atrial f-wave). Every component of the mixture is exposed so tests
can measure extractor output against the true f-wave and true R-peak
schedule.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .preprocess import butter1, lfilter
from .spectral import DAF_BAND

# Gaussian bump morphology: (amplitude mV, center offset s from R, width s)
_P_BUMP = (0.15, -0.20, 0.025)
# Tall R with a deep S and prominent T. The R peak must stay clearly
# dominant after the 0.67 Hz highpass (which removes ~0.1 mV of local
# baseline), and the ventricular complex must carry most of the
# beat-window energy so rank-limited subspace methods model it first.
_QRST_BUMPS = (
    (-0.12, -0.040, 0.012),  # Q
    (1.40, 0.000, 0.016),    # R
    (-0.80, 0.055, 0.020),   # S
    (0.55, 0.220, 0.075),    # T
)

R_AMPLITUDE_MV = 1.4


def check_record(fs, duration_s) -> None:
    """Raise ConfigError, naming the synth config key, unless a record
    of this rate and length can be generated."""
    if not fs > 0:
        raise ConfigError(f"synth.fs must be positive, got {fs}")
    if not duration_s >= 10:
        raise ConfigError(f"synth.duration_s must be at least 10 s, got {duration_s}")


def check_corpus(n_af, n_sinus, f0_range, fs, duration_s) -> None:
    """Raise ConfigError, naming the synth config key, unless
    ``generate_corpus`` can build a corpus of these sizes whose f-wave
    fundamentals, drawn from ``f0_range``, lie in the DAF band."""
    lo, hi = DAF_BAND
    f0 = tuple(f0_range) if isinstance(f0_range, (tuple, list, np.ndarray)) else ()
    numeric = [isinstance(f, numbers.Real) and not isinstance(f, bool) for f in f0]
    # the band's bounds also refuse NaN and the infinities
    if not (numeric == [True, True] and lo <= f0[0] <= f0[1] <= hi):
        raise ConfigError("config key synth.f0_range must be two finite numbers "
                          f"[low, high] within [{lo:g}, {hi:g}] Hz")
    for key, n in (("n_af", n_af), ("n_sinus", n_sinus)):
        if n < 0:
            raise ConfigError(f"synth.{key} must be >= 0, got {n}")
    if n_af + n_sinus < 1:
        raise ConfigError("synth.n_af + synth.n_sinus must be >= 1: the corpus needs a record")
    check_record(fs, duration_s)


@dataclass
class SynthConfig:
    fs: float = 200.0
    duration_s: float = 60.0
    rhythm: str = "AF"  # "AF" or "sinus"
    mean_hr_bpm: float = 75.0
    rr_jitter: float | None = None  # default 0.25 for AF, 0.03 for sinus
    fwave_f0: float | None = None  # required for AF, in spectral.DAF_BAND
    fwave_amp_mv: float = 0.1
    fwave_harmonics: int = 3
    noise_rms_mv: float = 0.02
    beat_amp_cv: float = 0.3  # per-beat ventricular amplitude variability
    artifact_rms_mv: float = 0.0  # low-frequency motion/muscle artifact
    rng_seed: int = 0

    def resolved_jitter(self) -> float:
        if self.rr_jitter is not None:
            return self.rr_jitter
        return 0.25 if self.rhythm == "AF" else 0.03

    def __post_init__(self) -> None:
        if self.rhythm not in ("AF", "sinus"):
            raise ConfigError(f"unknown rhythm {self.rhythm!r}")
        check_record(self.fs, self.duration_s)
        if self.rhythm == "AF":
            if self.fwave_f0 is None:
                raise ConfigError("AF rhythm requires fwave_f0")
            lo, hi = DAF_BAND
            if not lo <= self.fwave_f0 <= hi:
                raise ConfigError(f"fwave_f0 must lie in [{lo:g}, {hi:g}] Hz")
        elif self.fwave_f0 is not None:
            raise ConfigError("sinus rhythm must not carry an f-wave")


@dataclass
class SynthTruth:
    ecg: np.ndarray
    clean_fwave: np.ndarray
    r_peaks_true: np.ndarray
    daf_true: float | None
    fs: float
    rhythm: str
    ventricular: np.ndarray = field(repr=False, default=None)
    noise: np.ndarray = field(repr=False, default=None)
    artifact: np.ndarray = field(repr=False, default=None)


def _beat_times(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    mean_rr = 60.0 / cfg.mean_hr_bpm
    jit = cfg.resolved_jitter()
    n_max = int(np.ceil((cfg.duration_s + 2.0) / (mean_rr * (1 - jit)))) + 2
    rr = mean_rr * (1.0 + rng.uniform(-jit, jit, size=n_max))
    times = 0.4 + np.cumsum(np.concatenate(([0.0], rr)))
    # snap beats to the sample grid so every beat is sampled identically;
    # sub-sample placement would add alignment leakage that is a property
    # of digitization, not of the extraction methods under test
    times = np.round(times * cfg.fs) / cfg.fs
    return times[times < cfg.duration_s + 1.0]


def _place_bumps(t_grid, beat_times, bumps, beat_scales=None):
    """Sum of Gaussian bumps, each cut at 6 widths and placed on every beat.

    One pass per bump over all beats. ``np.add.at`` adds in index order,
    which is beat order, so where bumps of adjacent beats overlap they
    add up in the order a loop over beats would add them.
    """
    y = np.zeros_like(t_grid)
    scales = np.ones(len(beat_times)) if beat_scales is None else np.asarray(beat_scales)
    for amp, center, width in bumps:
        c = beat_times + center
        lo = np.searchsorted(t_grid, c - 6 * width)
        counts = np.maximum(np.searchsorted(t_grid, c + 6 * width) - lo, 0)
        beat = np.repeat(np.arange(len(c)), counts)
        # each beat's samples lo, lo + 1, ..., laid end to end in beat order
        idx = np.arange(counts.sum()) + (lo - np.cumsum(counts) + counts)[beat]
        seg = t_grid[idx] - c[beat]
        np.add.at(y, idx, (scales * amp)[beat] * np.exp(-0.5 * (seg / width) ** 2))
    return y


def _fwave(cfg: SynthConfig, t_grid, rng) -> np.ndarray:
    """Sawtooth-like f-wave: harmonics of a fixed fundamental f0.

    Fibrillatory waves are quasi-periodic, not stationary sinusoids: the
    amplitude breathes +/-20% at 0.1 Hz, so the line stays centered on
    f0 but beat windows decorrelate instead of forming an exactly rank-2
    family.
    """
    phases = rng.uniform(0, 2 * np.pi, size=cfg.fwave_harmonics + 1)
    envelope = 1.0 + 0.2 * np.sin(2 * np.pi * 0.1 * t_grid + phases[0])
    phase = 2 * np.pi * cfg.fwave_f0 * t_grid
    wave = np.zeros_like(t_grid)
    for k in range(1, cfg.fwave_harmonics + 1):
        wave += (cfg.fwave_amp_mv / k) * np.sin(k * phase + phases[k])
    return envelope * wave


def _artifact(cfg: SynthConfig, n: int, rng) -> np.ndarray:
    """Low-frequency artifact: white noise through a one-pole 1 Hz lowpass.

    Gives a spectrum flat below ~1 Hz and falling as 1/f^2 above, the
    usual shape of motion/respiration baseline disturbance. The filter
    is ``scipy.signal.butter(1, 1.0, fs=fs)`` (``preprocess.butter1``),
    run by ``preprocess.lfilter``'s blocked recursion, which matches
    ``scipy.signal.lfilter`` to rounding.
    """
    white = rng.standard_normal(n + 2000)
    b, a = butter1(1.0, cfg.fs)
    colored = lfilter(b, a, white)[2000:]
    rms = np.sqrt(np.mean(colored**2))
    if rms == 0:
        return np.zeros(n)
    return colored * (cfg.artifact_rms_mv / rms)


def generate(cfg: SynthConfig) -> SynthTruth:
    """Generate one record; deterministic for a given config/seed."""
    rng = np.random.default_rng(cfg.rng_seed)
    n = int(round(cfg.duration_s * cfg.fs))
    t_grid = np.arange(n) / cfg.fs

    beat_times = _beat_times(cfg, rng)
    bumps = list(_QRST_BUMPS)
    if cfg.rhythm == "sinus":
        bumps.append(_P_BUMP)
    if cfg.beat_amp_cv > 0:
        # beat-to-beat amplitude variability (respiration, filling);
        # lognormal keeps scales positive and bounded away from zero
        z = np.clip(rng.standard_normal(len(beat_times)), -2.0, 2.0)
        beat_scales = np.exp(cfg.beat_amp_cv * z)
    else:
        beat_scales = None
    ventricular = _place_bumps(t_grid, beat_times, bumps, beat_scales)

    if cfg.rhythm == "AF":
        clean_fwave = _fwave(cfg, t_grid, rng)
        daf_true = cfg.fwave_f0
    else:
        clean_fwave = np.zeros(n)
        daf_true = None

    noise = rng.normal(0.0, cfg.noise_rms_mv, size=n) if cfg.noise_rms_mv > 0 else np.zeros(n)
    artifact = _artifact(cfg, n, rng) if cfg.artifact_rms_mv > 0 else np.zeros(n)

    ecg = ventricular + clean_fwave + noise + artifact
    r_idx = np.round(beat_times * cfg.fs).astype(np.int64)
    r_idx = r_idx[(r_idx >= 0) & (r_idx < n)]
    return SynthTruth(
        ecg=ecg,
        clean_fwave=clean_fwave,
        r_peaks_true=r_idx,
        daf_true=daf_true,
        fs=cfg.fs,
        rhythm=cfg.rhythm,
        ventricular=ventricular,
        noise=noise,
        artifact=artifact,
    )


def generate_corpus(
    n_af: int = 100,
    n_sinus: int = 100,
    f0_range: tuple = (4.5, 11.0),
    rng_seed: int = 0,
    fs: float = 200.0,
    duration_s: float = 60.0,
    fwave_amp_mv: float = 0.1 * R_AMPLITUDE_MV,
    noise_rms_mv: float = 0.02 * R_AMPLITUDE_MV,
    artifact_rms_mv: float = 0.2,
):
    """Labeled corpus of 60 s records: AF with f-waves, sinus without.

    Returns an iterator of (SynthTruth, label) with label in {"AF",
    "non-AF"}, AF records first. The arguments are checked and every
    record's settings drawn at the call; each record is generated when
    the iterator reaches it, so a caller that lets each record go holds
    one at a time. Per-record seeds are derived from rng_seed, so the
    corpus is reproducible and records are independent.
    """
    check_corpus(n_af, n_sinus, f0_range, fs, duration_s)
    seq = np.random.SeedSequence(rng_seed)
    children = seq.spawn(n_af + n_sinus)
    master = np.random.default_rng(seq.spawn(1)[0])
    configs = [
        SynthConfig(
            fs=fs,
            duration_s=duration_s,
            rhythm="AF" if af else "sinus",
            # keyword arguments run in order: the heart rate is drawn first
            mean_hr_bpm=master.uniform(70, 95) if af else master.uniform(55, 85),
            fwave_f0=master.uniform(f0_range[0], f0_range[1]) if af else None,
            fwave_amp_mv=fwave_amp_mv,
            noise_rms_mv=noise_rms_mv,
            artifact_rms_mv=artifact_rms_mv,
            rng_seed=children[i].generate_state(1)[0],
        )
        for i, af in enumerate([True] * n_af + [False] * n_sinus)
    ]
    return ((generate(cfg), "AF" if cfg.rhythm == "AF" else "non-AF") for cfg in configs)
