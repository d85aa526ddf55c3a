"""Single-lead f-wave analysis: extraction, DAF estimation, classification."""

from .beats import BeatMap, detect_r_peaks_energy, detect_r_peaks_matched, segment_fiducials
from .dataio import (
    AnalysisWindow,
    EcgRecording,
    RhythmAnnotation,
    extract_af_windows,
    load_annotations,
    load_recording,
    sample_nonaf_windows,
    write_recording,
)
from .errors import (
    ConfigError,
    ExtractionError,
    FormatError,
    FwaveError,
    NoUsableWindowsError,
    SignalTooShortError,
    VotingError,
)
from .evaluate import (
    ClassifierMetrics,
    FeatureTable,
    RandomForestModel,
    auroc_rank,
    evaluate_model,
    rank_methods,
    stratified_split,
    train_rf,
)
from .extract import (
    BeatMatrix,
    FWaveSignal,
    beat_matrix,
    extract,
    ts_basic,
    ts_pca,
    ts_scaled,
    ts_segment_scaled,
)
from .pipeline import PipelineConfig, run_pipeline
from .preprocess import FilterSpec, QualityReport, bandpass_zero_phase, compute_bsqi, notch_zero_phase, prefilter
from .spectral import DafEstimate, PowerSpectrum, estimate_daf, vote_daf, welch_psd
from .synth import SynthConfig, SynthTruth, generate, generate_corpus

__version__ = "0.1.0"
