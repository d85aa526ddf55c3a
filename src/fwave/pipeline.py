"""End-to-end orchestration: synthesize/ingest, preprocess, extract,
estimate DAF, vote, train and evaluate, and emit reports.

The run is organized as four stages that communicate through files in
the output directory, so running the stages one at a time (the CLI
subcommands) produces byte-identical artifacts to a monolithic run:

  synth    -> records/ + records/manifest.json
  extract  -> residuals/, windows.json, exclusions.json [, beats/]
  daf      -> daf.csv, spectra/
  eval     -> features.csv, metrics.json, report.txt

Synth records (by default) and the per-window, per-method residuals in
residuals/{window_id}__{method}.fwk are binary float64 ``.fwk`` files,
so nothing is rounded between stages. A stage whose input is missing
(e.g. ``daf`` before ``extract``) raises ConfigError naming the file and
the stage that writes it; a ``recordings`` entry naming no file raises
ConfigError naming the path and its config key.

Failures are per-window: a bad window lands in the exclusion ledger and
the run continues. A run that yields zero usable windows raises
NoUsableWindowsError (CLI exit code 3).
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dataio, spectral, synth
from .extract import DEFAULT_MIN_BEATS, METHODS, extract as run_extractor
# detect_r_peaks_energy is not called here; perfbench/tracing.py wraps it under this name
from .beats import detect_r_peaks_energy, segment_fiducials  # noqa: F401
from .errors import (
    ConfigError,
    ExtractionError,
    FwaveError,
    NoUsableWindowsError,
)
from .evaluate import (
    FeatureTable,
    evaluate_model,
    rank_methods,
    stratified_split,
    train_rf,
)
from .preprocess import FilterSpec, compute_bsqi, prefilter

# Published reference results from the clinical Holter study this
# pipeline replicates (private dataset; NOT reproducible here).
REFERENCE_RESULTS = {
    "TS_B": {"f1": 0.62, "auroc": 0.59},
    "TS_CE": {"f1": 0.61, "auroc": 0.59},
    "TS_SU": {"f1": 0.61, "auroc": 0.59},
    "TS_PCA": {"f1": 0.56, "auroc": 0.53},
    "vote": {"f1": 0.63, "auroc": 0.60},
}


@dataclass
class PipelineConfig:
    out_dir: str = "fwave_out"
    seed: int = 0
    workers: int = 1
    synth: dict | None = None  # {"n_af", "n_sinus", "f0_range", ...}
    recordings: list = field(default_factory=list)  # [{"recording", "annotation"}]
    filter: FilterSpec = field(default_factory=FilterSpec)
    bsqi_threshold: float = 0.8
    bsqi_segment_s: float = 10.0
    bsqi_match_tol_ms: float = 150.0
    window_s: float = 60.0
    min_event_s: float = 30.0
    min_beats: int = DEFAULT_MIN_BEATS
    extractors: tuple = METHODS
    voting_set: tuple | None = None  # None -> top 3 by ranking
    welch_seg_s: float = 10.0
    welch_overlap: float = 0.5
    rf_n_trees: int = 100
    rf_max_depth: int = 4
    dump_beats: bool = False
    record_format: str = "binary"

    def validate(self) -> None:
        for m in self.extractors:
            if m not in METHODS:
                raise ConfigError(f"unknown extractor {m!r}")
        if self.voting_set is not None:
            bad = [m for m in self.voting_set if m not in self.extractors]
            if bad:
                raise ConfigError(f"voting set not a subset of extractors: {bad}")
        if not 0 < self.window_s:
            raise ConfigError("window_s must be positive")
        if self.bsqi_segment_s < 5:
            raise ConfigError("bsqi_segment_s must be at least 5 s")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.record_format not in ("csv", "binary"):
            raise ConfigError(f"unknown record format {self.record_format!r}")
        if self.synth is None and not self.recordings:
            manifest = os.path.join(self.out_dir, "records", "manifest.json")
            if not os.path.exists(manifest):
                raise ConfigError(
                    "config needs a synth block, recordings, or an existing "
                    "records manifest in out_dir"
                )

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in config {path}: {exc}") from None
        return cls.from_dict({**raw, **{k: v for k, v in overrides.items() if v is not None}})

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        raw = dict(raw)
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "filter" in raw and isinstance(raw["filter"], dict):
            raw["filter"] = FilterSpec.from_dict(raw["filter"])
        for key in ("extractors", "voting_set"):
            if raw.get(key) is not None:
                raw[key] = tuple(raw[key])
        cfg = cls(**raw)
        cfg.validate()
        return cfg


def _path(cfg, *parts) -> str:
    return os.path.join(cfg.out_dir, *parts)


def _require(path, stage) -> None:
    """Raise ConfigError if ``path``, an output of ``stage``, is missing."""
    if not os.path.exists(path):
        raise ConfigError(f"missing {path}: it is written by `fwave {stage}`, run that first")


# --- stage: synth -----------------------------------------------------------

def stage_synth(cfg: PipelineConfig) -> list:
    """Generate the synthetic corpus and write records plus a manifest."""
    if cfg.synth is None:
        return []
    spec = dict(cfg.synth)
    n_af = int(spec.pop("n_af", 100))
    n_sinus = int(spec.pop("n_sinus", 100))
    f0_range = tuple(spec.pop("f0_range", (4.5, 11.0)))
    corpus = synth.generate_corpus(
        n_af, n_sinus, f0_range=f0_range, rng_seed=cfg.seed, **spec
    )
    rec_dir = _path(cfg, "records")
    os.makedirs(rec_dir, exist_ok=True)
    ext = "csv" if cfg.record_format == "csv" else "fwk"
    manifest = []
    for i, (truth, label) in enumerate(corpus):
        rid = f"synth{i:04d}"
        rec = dataio.EcgRecording(
            samples=truth.ecg, fs=truth.fs, lead_name="synthV1", record_id=rid
        )
        rec_path = os.path.join(rec_dir, f"{rid}.{ext}")
        dataio.write_recording(rec, rec_path, fmt=cfg.record_format)
        truth_path = os.path.join(rec_dir, f"{rid}.truth.json")
        with open(truth_path, "w") as fh:
            json.dump(
                {
                    "label": label,
                    "daf_true": truth.daf_true,
                    "r_peaks_true": truth.r_peaks_true.tolist(),
                },
                fh,
            )
        manifest.append(
            {"id": rid, "label": label, "path": f"{rid}.{ext}", "truth": f"{rid}.truth.json"}
        )
    with open(os.path.join(rec_dir, "manifest.json"), "w") as fh:
        json.dump({"records": manifest}, fh, indent=1)
    return manifest


# --- stage: extract ---------------------------------------------------------

def _window_jobs(cfg: PipelineConfig):
    """List (window_id, samples, fs, label, prefiltered) for every
    candidate window, plus a ledger of event-level exclusions."""
    jobs = []
    event_exclusions = []
    manifest_path = _path(cfg, "records", "manifest.json")
    if cfg.synth is not None or os.path.exists(manifest_path):
        _require(manifest_path, "synth")
        with open(manifest_path) as fh:
            manifest = json.load(fh)["records"]
        for entry in manifest:
            rec_path = _path(cfg, "records", entry["path"])
            _require(rec_path, "synth")
            rec = dataio.load_recording(rec_path)
            jobs.append((entry["id"], rec.samples, rec.fs, entry["label"], False))
    for i, item in enumerate(cfg.recordings):
        for key in ("recording", "annotation"):
            path = item.get(key)
            if not isinstance(path, str) or not os.path.isfile(path):
                raise ConfigError(f"missing {path}: named by config key recordings[{i}].{key}")
        rec = dataio.load_recording(item["recording"])
        ann = dataio.load_annotations(item["annotation"])
        filtered = prefilter(rec.samples, rec.fs, cfg.filter)
        result = dataio.extract_af_windows(rec, ann, cfg.min_event_s, cfg.window_s)
        for onset, offset in result.excluded_events:
            event_exclusions.append(
                {
                    "record_id": rec.record_id,
                    "onset": int(onset),
                    "offset": int(offset),
                    "reason": "af_event_shorter_than_window",
                }
            )
        nonaf, shortfall = dataio.sample_nonaf_windows(
            rec, ann, count=len(result.windows), rng_seed=cfg.seed, window_s=cfg.window_s
        )
        if shortfall:
            event_exclusions.append(
                {
                    "record_id": rec.record_id,
                    "reason": "insufficient_nonaf_duration",
                    "missing_windows": shortfall,
                }
            )
        for win in result.windows + nonaf:
            wid = f"{rec.record_id}_w{win.start_sample:09d}"
            jobs.append(
                (wid, filtered[win.start_sample : win.end_sample], rec.fs, win.label, True)
            )
    seen = set()
    for wid, *_ in jobs:
        if wid in seen:
            # residual files are named by window id and would overwrite each other
            raise ConfigError(
                f"window id {wid!r} occurs twice; give every recording a distinct record_id"
            )
        seen.add(wid)
    return jobs, event_exclusions


def _process_window(args):
    """Per-window work unit: quality gate, beats, all extractors.

    The R peaks are the energy detections the bSQI gate computed; the
    detector runs once per window.

    Returns either a result dict or an exclusion dict. Synth records are
    filtered here (whole record = one window); real-recording windows
    arrive prefiltered.
    """
    wid, samples, fs, label, cfg, already_filtered = args
    try:
        x = samples if already_filtered else prefilter(samples, fs, cfg.filter)
        report = compute_bsqi(
            x, fs, segment_s=cfg.bsqi_segment_s,
            match_tol_ms=cfg.bsqi_match_tol_ms, threshold=cfg.bsqi_threshold,
        )
        if not report.all_pass():
            worst = min(b for _, _, b in report.segment_bsqi)
            return {"window_id": wid, "excluded": f"bsqi_below_threshold (min {worst:.3f})"}
        if len(report.r_peaks) < 2:
            return {"window_id": wid, "excluded": "too_few_beats"}
        beats = segment_fiducials(x, fs, report.r_peaks)
        residuals = {}
        for method in cfg.extractors:
            residuals[method] = run_extractor(method, x, beats, min_beats=cfg.min_beats).residual
    except (ExtractionError, FwaveError, ValueError) as exc:
        return {"window_id": wid, "excluded": f"{type(exc).__name__}: {exc}"}
    out = {
        "window_id": wid,
        "label": label,
        "fs": fs,
        "residuals": residuals,
    }
    if cfg.dump_beats:
        out["beats"] = beats.to_json_dict()
    return out


def stage_extract(cfg: PipelineConfig) -> dict:
    """Gate windows, run every extractor, write residuals and the ledger."""
    jobs, event_exclusions = _window_jobs(cfg)
    work = [
        (wid, samples, fs, label, cfg, prefiltered)
        for wid, samples, fs, label, prefiltered in jobs
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_process_window, work, chunksize=4))
    else:
        results = [_process_window(w) for w in work]

    results.sort(key=lambda r: r["window_id"])
    res_dir = _path(cfg, "residuals")
    os.makedirs(res_dir, exist_ok=True)
    windows = []
    window_exclusions = []
    for res in results:
        if "excluded" in res:
            window_exclusions.append({"window_id": res["window_id"], "reason": res["excluded"]})
            continue
        windows.append({"window_id": res["window_id"], "label": res["label"], "fs": res["fs"]})
        for method, residual in res["residuals"].items():
            rec = dataio.EcgRecording(
                samples=residual, fs=res["fs"], lead_name=method, record_id=res["window_id"]
            )
            dataio.write_recording(
                rec, os.path.join(res_dir, f"{res['window_id']}__{method}.fwk"), fmt="binary"
            )
        if cfg.dump_beats and "beats" in res:
            beat_dir = _path(cfg, "beats")
            os.makedirs(beat_dir, exist_ok=True)
            with open(os.path.join(beat_dir, f"{res['window_id']}.json"), "w") as fh:
                json.dump(res["beats"], fh)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(_path(cfg, "windows.json"), "w") as fh:
        json.dump({"windows": windows, "extractors": list(cfg.extractors)}, fh, indent=1)
    ledger = {"events": event_exclusions, "windows": window_exclusions}
    with open(_path(cfg, "exclusions.json"), "w") as fh:
        json.dump(ledger, fh, indent=1)
    return {"windows": windows, "exclusions": ledger}


# --- stage: daf -------------------------------------------------------------

def stage_daf(cfg: PipelineConfig) -> FeatureTable:
    """Welch PSD + band peak for every residual; writes daf.csv and one
    spectrum dump per method for the first AF window (plot-ready data)."""
    meta_path = _path(cfg, "windows.json")
    _require(meta_path, "extract")
    with open(meta_path) as fh:
        meta = json.load(fh)
    windows = meta["windows"]
    methods = meta["extractors"]
    table = FeatureTable.empty()
    spectra_dumped = False
    spec_dir = _path(cfg, "spectra")
    for win in windows:
        wid, label, fs = win["window_id"], win["label"], win["fs"]
        for method in methods:
            res_path = _path(cfg, "residuals", f"{wid}__{method}.fwk")
            _require(res_path, "extract")
            rec = dataio.load_recording(res_path)
            ps = spectral.welch_psd(
                rec.samples, fs, seg_s=cfg.welch_seg_s,
                overlap=cfg.welch_overlap, method=method,
            )
            est = spectral.estimate_daf(ps)
            table.append(wid, method, est.daf_hz, label)
            if label == "AF" and not spectra_dumped:
                os.makedirs(spec_dir, exist_ok=True)
                with open(os.path.join(spec_dir, f"{wid}__{method}.csv"), "w") as fh:
                    fh.write("freq_hz,power\n")
                    for f, p in zip(ps.freqs, ps.power):
                        fh.write(f"{f:.6f},{p:.9g}\n")
        if label == "AF":
            spectra_dumped = True
    table.to_csv(_path(cfg, "daf.csv"))
    return table


# --- stage: eval ------------------------------------------------------------

def _daf_summary(table: FeatureTable, method: str) -> dict:
    vals = [
        d for _, m, d, lab, _ in table.rows() if m == method and lab == "AF"
    ]
    if not vals:
        return {"median": None, "q1": None, "q3": None}
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def stage_eval(cfg: PipelineConfig, table: FeatureTable | None = None) -> dict:
    """Split, train per-method forests, rank, vote, and write reports."""
    if table is None:
        daf_path = _path(cfg, "daf.csv")
        _require(daf_path, "daf")
        table = FeatureTable.from_csv(daf_path)
    if len(table) == 0:
        raise NoUsableWindowsError("no usable windows reached evaluation")
    if any(s not in ("train", "test") for s in table.split):
        table = stratified_split(table, rng_seed=cfg.seed)

    methods = [m for m in cfg.extractors if m in set(table.methods)]
    prevoted = "vote" in set(table.methods)
    if not methods and not prevoted:
        raise ConfigError(
            "feature table contains none of the configured extractor methods"
        )
    metrics = {}
    for method in methods:
        model = train_rf(
            table, method, n_trees=cfg.rf_n_trees,
            max_depth=cfg.rf_max_depth, rng_seed=cfg.seed,
        )
        metrics[method] = evaluate_model(model, table)

    ranking = rank_methods(metrics) if len(metrics) >= 2 else list(metrics)
    voting_set = tuple(cfg.voting_set) if cfg.voting_set else tuple(ranking[:3])

    vote_table = FeatureTable(
        list(table.window_ids), list(table.methods), list(table.daf_hz),
        list(table.labels), list(table.split),
    )
    if prevoted:
        # table already carries vote rows (e.g. a hand-supplied features
        # file): evaluate them as-is instead of re-voting
        voting_set = ()
    else:
        # median-vote DAF per window over the voting set
        per_window = {}
        for wid, m, d, lab, spl in table.rows():
            per_window.setdefault(
                wid, {"label": lab, "split": spl, "daf": {}}
            )["daf"][m] = d
        for wid in sorted(per_window):
            info = per_window[wid]
            missing = [m for m in voting_set if m not in info["daf"]]
            if missing:
                raise ConfigError(
                    f"window {wid} lacks DAF for voting method(s) {missing}"
                )
            vote = float(np.median([info["daf"][m] for m in voting_set]))
            vote_table.append(wid, "vote", vote, info["label"], info["split"])

    vote_model = train_rf(
        vote_table, "vote", n_trees=cfg.rf_n_trees,
        max_depth=cfg.rf_max_depth, rng_seed=cfg.seed,
    )
    metrics["vote"] = evaluate_model(vote_model, vote_table)

    os.makedirs(cfg.out_dir, exist_ok=True)
    vote_table.to_csv(_path(cfg, "features.csv"))

    report = {}
    for name, m in metrics.items():
        report[name] = {
            "f1": round(m.f1, 4),
            "auroc": round(m.auroc, 4),
            "n_train": m.n_train,
            "n_test": m.n_test,
            "seed": cfg.seed,
        }
    report["ranking"] = ranking
    report["voting_set"] = list(voting_set)
    report["daf_summary"] = {
        m: _daf_summary(vote_table, m) for m in methods + ["vote"]
    }
    with open(_path(cfg, "metrics.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _write_text_report(cfg, report, methods)
    return report


def _write_text_report(cfg, report, methods) -> None:
    lines = []
    lines.append("DAF per method on AF windows, median (Q1-Q3) Hz")
    for m in methods + ["vote"]:
        s = report["daf_summary"][m]
        if s["median"] is None:
            lines.append(f"  {m:<8} n/a")
        else:
            lines.append(f"  {m:<8} {s['median']:.2f} ({s['q1']:.2f}-{s['q3']:.2f})")
    lines.append("")
    lines.append("AF/non-AF classification on the test split")
    lines.append(f"  {'Method':<10} {'F1':>6} {'AUROC':>7}")
    for m in methods:
        r = report[m]
        lines.append(f"  {m:<10} {r['f1']:>6.2f} {r['auroc']:>7.2f}")
    r = report["vote"]
    lines.append(f"  {'vote':<10} {r['f1']:>6.2f} {r['auroc']:>7.2f}")
    lines.append(f"  voting set: {', '.join(report['voting_set'])}")
    lines.append("")
    lines.append("Reference values from the original clinical Holter study")
    lines.append("(private dataset -- NOT reproducible with this synthetic corpus):")
    lines.append(f"  {'Method':<10} {'F1':>6} {'AUROC':>7}")
    for m, r in REFERENCE_RESULTS.items():
        lines.append(f"  {m:<10} {r['f1']:>6.2f} {r['auroc']:>7.2f}")
    with open(_path(cfg, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- monolithic run ---------------------------------------------------------

def run_pipeline(cfg: PipelineConfig) -> dict:
    """All four stages against one output directory."""
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    stage_synth(cfg)
    extracted = stage_extract(cfg)
    if not extracted["windows"]:
        raise NoUsableWindowsError(
            f"all {len(extracted['exclusions']['windows'])} windows were excluded"
        )
    stage_daf(cfg)
    return stage_eval(cfg)
