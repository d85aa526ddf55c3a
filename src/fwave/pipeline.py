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
so nothing is rounded between stages; the process that extracts a
window writes them. Each record is filtered whole, and a filter that
cannot be applied raises ConfigError, as does a stage whose input is
missing (e.g. ``daf`` before ``extract``: the message names the file and
the stage that writes it) and a ``recordings`` entry naming no file
(the message names the path and its config key).

Failures are per-window: a bad window lands in the exclusion ledger and
the run continues. A run that yields zero usable windows raises
NoUsableWindowsError (CLI exit code 3).
"""

import json
import numbers
import os
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dataio, spectral, synth
from .extract import DEFAULT_MIN_BEATS, METHODS, beat_matrix, extract as run_extractor
# detect_r_peaks_energy is not called here; perfbench/tracing.py wraps it under this name
from .beats import detect_r_peaks_energy, segment_fiducials  # noqa: F401
from .errors import (
    ConfigError,
    ExtractionError,
    FwaveError,
    NoUsableWindowsError,
    VotingError,
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


# JSON names of the declared field types, for config error messages
_JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean",
               list: "list", tuple: "list", dict: "object", FilterSpec: "object",
               type(None): "null"}


def _type_ok(value, tp) -> bool:
    """isinstance against a declared field type; a bool is not a number,
    and an integer is a float."""
    if isinstance(tp, types.UnionType):
        return any(_type_ok(value, t) for t in tp.__args__)
    if tp in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(tp, tp))


def _check_type(key, value, tp) -> None:
    if not _type_ok(value, tp):
        want = getattr(tp, "__args__", (tp,))
        raise ConfigError(
            f"config key {key} must be {' or '.join(_JSON_TYPES[t] for t in want)}, "
            f"not {_JSON_TYPES.get(type(value), type(value).__name__)}"
        )


def _check_types(obj, prefix="") -> None:
    for name, f in obj.__dataclass_fields__.items():
        _check_type(prefix + name, getattr(obj, name), f.type)


# keys of the synth block: generate_corpus's arguments, less the seed
_SYNTH_TYPES = {"n_af": int, "n_sinus": int, "f0_range": list | tuple, "fs": float,
                "duration_s": float, "fwave_amp_mv": float, "noise_rms_mv": float,
                "artifact_rms_mv": float}


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
        _check_types(self)
        _check_types(self.filter, "filter.")
        for key, value in (self.synth or {}).items():
            if key not in _SYNTH_TYPES:
                raise ConfigError(f"unknown synth config key {key!r}")
            _check_type(f"synth.{key}", value, _SYNTH_TYPES[key])
            if key == "f0_range" and not (
                len(value) == 2 and all(_type_ok(f, float) for f in value) and value[0] <= value[1]
            ):
                raise ConfigError("config key synth.f0_range must be two numbers [low, high]")
        for m in self.extractors:
            if m not in METHODS:
                raise ConfigError(f"unknown extractor {m!r}")
        if self.voting_set is not None:
            bad = [m for m in self.voting_set if m not in self.extractors]
            if bad:
                raise ConfigError(f"voting set not a subset of extractors: {bad}")
        for key in ("extractors", "voting_set"):
            names = getattr(self, key)
            if names is not None and not names:
                raise ConfigError(f"{key} names no method")
            if names is not None and len(set(names)) < len(names):
                raise ConfigError(f"{key} names a method twice: {list(names)}")
        if not 0 < self.window_s:
            raise ConfigError("window_s must be positive")
        if self.bsqi_segment_s < 5:
            raise ConfigError("bsqi_segment_s must be at least 5 s")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.min_beats < 1:
            raise ConfigError("min_beats must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
        if isinstance(raw.get("filter"), dict):
            unknown = set(raw["filter"]) - set(FilterSpec.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown filter config keys: {sorted(unknown)}")
            raw["filter"] = FilterSpec.from_dict(raw["filter"])
        for key in ("extractors", "voting_set"):
            if isinstance(raw.get(key), list):
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
    # validate checked the block's keys and types
    corpus = synth.generate_corpus(**{"n_af": 100, "n_sinus": 100, **cfg.synth}, rng_seed=cfg.seed)
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
    """List (window_id, samples, fs, label) for every candidate window,
    plus a ledger of event-level exclusions. Every record is filtered
    whole, here; a synth or manifest record is a single window."""
    jobs = []
    event_exclusions = []

    def add(rec, windows):  # windows: (window_id, start, end, label)
        x = prefilter(rec.samples, rec.fs, cfg.filter)
        jobs.extend((wid, x[start:end], rec.fs, label) for wid, start, end, label in windows)

    if cfg.synth is not None or not cfg.recordings:
        manifest_path = _path(cfg, "records", "manifest.json")
        _require(manifest_path, "synth")
        with open(manifest_path) as fh:
            manifest = json.load(fh)["records"]
        for entry in manifest:
            rec_path = _path(cfg, "records", entry["path"])
            _require(rec_path, "synth")
            rec = dataio.load_recording(rec_path)
            add(rec, [(entry["id"], 0, len(rec.samples), entry["label"])])
    # one child seed per recording, so equal layouts draw different non-AF slots
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(cfg.recordings))
    for i, (item, seed) in enumerate(zip(cfg.recordings, seeds)):
        for key in ("recording", "annotation"):
            path = item.get(key)
            if not isinstance(path, str) or not os.path.isfile(path):
                raise ConfigError(f"missing {path}: named by config key recordings[{i}].{key}")
        rec = dataio.load_recording(item["recording"])
        ann = dataio.load_annotations(item["annotation"])
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
            rec, ann, count=len(result.windows), rng_seed=seed, window_s=cfg.window_s
        )
        if shortfall:
            event_exclusions.append(
                {
                    "record_id": rec.record_id,
                    "reason": "insufficient_nonaf_duration",
                    "missing_windows": shortfall,
                }
            )
        add(rec, [(f"{rec.record_id}_w{win.start_sample:09d}", win.start_sample,
                   win.end_sample, win.label) for win in result.windows + nonaf])
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
    """One filtered window to its files: quality gate, beats, every
    extractor, then ``residuals/{window_id}__{method}.fwk`` and, under
    ``dump_beats``, ``beats/{window_id}.json``. Nothing is written
    unless every extractor succeeded.

    The R peaks are the energy detections the bSQI gate computed; the
    detector runs once per window, and so does ``beat_matrix``, whose
    stack, template and spans every extractor shares.

    Returns the window's ledger row, ``{"window_id", "label", "fs"}``,
    or ``{"window_id", "excluded"}`` with the reason.
    """
    wid, x, fs, label, cfg = args
    try:
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
        bm = beat_matrix(x, beats, cfg.min_beats)
        residuals = {method: run_extractor(method, bm).residual for method in cfg.extractors}
    except (ExtractionError, FwaveError, ValueError) as exc:
        return {"window_id": wid, "excluded": f"{type(exc).__name__}: {exc}"}
    for method, residual in residuals.items():
        rec = dataio.EcgRecording(samples=residual, fs=fs, lead_name=method, record_id=wid)
        dataio.write_recording(rec, _path(cfg, "residuals", f"{wid}__{method}.fwk"), fmt="binary")
    if cfg.dump_beats:
        with open(_path(cfg, "beats", f"{wid}.json"), "w") as fh:
            json.dump(beats.to_json_dict(), fh)
    return {"window_id": wid, "label": label, "fs": fs}


def stage_extract(cfg: PipelineConfig) -> dict:
    """Gate and extract every candidate window, then write the ledger."""
    jobs, event_exclusions = _window_jobs(cfg)
    os.makedirs(_path(cfg, "residuals"), exist_ok=True)
    if cfg.dump_beats:
        os.makedirs(_path(cfg, "beats"), exist_ok=True)
    work = [(*job, cfg) for job in jobs]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_process_window, work, chunksize=4))
    else:
        rows = [_process_window(w) for w in work]
    rows.sort(key=lambda r: r["window_id"])
    windows = [r for r in rows if "excluded" not in r]
    window_exclusions = [
        {"window_id": r["window_id"], "reason": r["excluded"]} for r in rows if "excluded" in r
    ]
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
            per_window.setdefault(wid, (lab, spl, []))[2].append(
                spectral.DafEstimate(daf_hz=d, peak_power=0.0, method=m)
            )
        for wid in sorted(per_window):
            lab, spl, estimates = per_window[wid]
            try:
                vote = spectral.vote_daf(estimates, voting_set)
            except VotingError as exc:
                raise VotingError(f"window {wid}: {exc}") from None
            vote_table.append(wid, "vote", vote.daf_hz, lab, spl)

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
