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
(the message names the path and its config key). A manifest or
``windows.json`` that is not what its stage writes raises FormatError,
named the same way.

A window whose data fails (ExtractionError, SignalTooShortError) lands
in the exclusion ledger and the run continues; any other error ends the
run. A run that yields zero usable windows raises NoUsableWindowsError
(CLI exit code 3).
"""

import functools
import inspect
import json
import math
import numbers
import os
import types
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import dataio, spectral, synth
from .extract import DEFAULT_MIN_BEATS, METHODS, beat_matrix, segment_fiducials
from .extract import extract as run_extractor
# detect_r_peaks_energy is not called here; perfbench/tracing.py wraps it under this name
from .beats import detect_r_peaks_energy  # noqa: F401
from .errors import (
    ConfigError,
    ExtractionError,
    FormatError,
    NoUsableWindowsError,
    SignalTooShortError,
    VotingError,
)
from .evaluate import (
    LABELS,
    FeatureTable,
    bootstrap_draws,
    evaluate_model,
    rank_methods,
    stratified_split,
    train_rf,
)
from .preprocess import FilterSpec, check_notch, compute_bsqi, prefilter

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
    if isinstance(value, float) and not math.isfinite(value):
        # JSON's NaN and Infinity slip through range checks such as `x < 5`
        raise ConfigError(f"config key {key} must be a finite number, not {value}")


def _check_types(obj, prefix="") -> None:
    for name, f in obj.__dataclass_fields__.items():
        _check_type(prefix + name, getattr(obj, name), f.type)


def _default(fn, name):
    """The default of ``fn``'s parameter ``name``: one value for a setting and its stage."""
    return inspect.signature(fn).parameters[name].default


# the synth block: generate_corpus's keyword arguments, less the seed
_SYNTH_PARAMS = {name: p for name, p in inspect.signature(synth.generate_corpus).parameters.items()
                 if name != "rng_seed"}


@dataclass
class PipelineConfig:
    """The settings of one run. The constructor checks every value and
    raises ConfigError; a ``filter`` dict becomes a FilterSpec and a
    ``synth`` block gets ``generate_corpus``'s defaults."""

    out_dir: str = "fwave_out"
    seed: int = 0
    workers: int = 1
    synth: dict | None = None  # generate_corpus's keyword arguments, less rng_seed
    recordings: list = field(default_factory=list)  # [{"recording", "annotation"}]
    filter: FilterSpec = field(default_factory=FilterSpec)
    bsqi_threshold: float = _default(compute_bsqi, "threshold")
    bsqi_segment_s: float = _default(compute_bsqi, "segment_s")
    bsqi_match_tol_ms: float = _default(compute_bsqi, "match_tol_ms")
    window_s: float = _default(dataio.extract_af_windows, "window_s")
    min_event_s: float = _default(dataio.extract_af_windows, "min_event_s")
    min_beats: int = DEFAULT_MIN_BEATS
    extractors: tuple = METHODS
    voting_set: tuple | None = None  # None -> top 3 by ranking
    welch_seg_s: float = spectral.DEFAULT_SEG_S
    welch_overlap: float = spectral.DEFAULT_OVERLAP
    rf_n_trees: int = 100
    rf_max_depth: int = _default(train_rf, "max_depth")
    dump_beats: bool = False
    record_format: str = "binary"

    def __post_init__(self) -> None:
        if isinstance(self.filter, dict):
            unknown = set(self.filter) - set(FilterSpec.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown filter config keys: {sorted(unknown)}")
            self.filter = FilterSpec(**self.filter)
        for key in ("extractors", "voting_set"):
            if isinstance(getattr(self, key), list):
                setattr(self, key, tuple(getattr(self, key)))
        _check_types(self)
        _check_types(self.filter, "filter.")
        if self.filter.notch_enabled:
            check_notch(self.filter)
        if self.synth is not None:
            block = {name: p.default for name, p in _SYNTH_PARAMS.items()}
            for key, value in self.synth.items():
                if key not in block:
                    raise ConfigError(f"unknown synth config key {key!r}")
                value = tuple(value) if isinstance(value, list) else value  # JSON has no tuples
                _check_type(f"synth.{key}", value, _SYNTH_PARAMS[key].annotation)
                block[key] = value
            f0, (lo, hi) = block["f0_range"], synth.F0_BAND_HZ
            if not (len(f0) == 2 and all(_type_ok(f, float) and math.isfinite(f) for f in f0)
                    and lo <= f0[0] <= f0[1] <= hi):
                raise ConfigError("config key synth.f0_range must be two finite numbers "
                                  f"[low, high] within [{lo:g}, {hi:g}] Hz")
            synth.check_corpus(block["n_af"], block["n_sinus"], block["fs"], block["duration_s"])
            self.synth = block
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
        if not self.window_s >= 5:
            # the R-peak detector needs 5 s of signal
            raise ConfigError("window_s must be at least 5 s")
        if not 0 <= self.bsqi_threshold <= 1:
            raise ConfigError("bsqi_threshold must lie in [0, 1]")
        if self.bsqi_segment_s < 5:
            raise ConfigError("bsqi_segment_s must be at least 5 s")
        if not self.bsqi_match_tol_ms >= 0:
            raise ConfigError("bsqi_match_tol_ms must be >= 0")
        if not 0 < self.welch_seg_s:
            raise ConfigError("welch_seg_s must be positive")
        # one Welch segment must fit in every window the run analyses
        spans = {"window_s": self.window_s} if self.recordings else {}
        if self.synth is not None:
            spans["synth.duration_s"] = self.synth["duration_s"]
        for key, span in spans.items():
            if self.welch_seg_s > span:
                raise ConfigError(f"welch_seg_s={self.welch_seg_s:g} is longer than the "
                                  f"{span:g} s windows set by {key}")
        if not 0 <= self.welch_overlap < 1:
            raise ConfigError("welch_overlap must lie in [0, 1)")
        if self.synth is not None:
            # the synth records' rate is known: refuse a spectrum with no DAF bin now
            spectral.welch_grid(self.synth["fs"], self.welch_seg_s, self.welch_overlap,
                                band=spectral.DAF_BAND)
        for key in ("rf_n_trees", "rf_max_depth", "workers", "min_beats"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.record_format not in ("csv", "binary"):
            raise ConfigError(f"unknown record format {self.record_format!r}")

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict({**raw, **overrides})

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


def _path(cfg, *parts) -> str:
    return os.path.join(cfg.out_dir, *parts)


def _require(path, stage) -> None:
    """Raise ConfigError if ``path``, an output of ``stage``, is missing."""
    if not os.path.exists(path):
        raise ConfigError(f"missing {path}: it is written by `fwave {stage}`, run that first")


def _malformed(path, stage, why) -> FormatError:
    return FormatError(f"malformed {path} ({why}): it is written by `fwave {stage}`, "
                       "run that again")


def _entry_ok(entry, fields) -> bool:
    """``entry`` is an object with ``fields`` (name: type); a number is
    positive and finite."""
    return isinstance(entry, dict) and all(
        _type_ok(entry.get(f), tp) and (tp is not float or 0 < entry[f] < math.inf)
        for f, tp in fields.items()
    )


def _names_no_file(name) -> bool:
    """``name``, an id that file names are made from, holds a path
    separator or NUL."""
    return bool({"/", os.sep, "\0"} & set(name))


def _read_list(path, stage, key, fields) -> dict:
    """Load ``path``, an output of ``stage``: a JSON object whose ``key``
    lists objects that each have ``fields`` (name: type; a number must be
    positive and finite). The first field is an id: unique, and usable in
    a file name. Every ``label`` is one of LABELS. Raise ConfigError if
    the file is missing and FormatError if it holds anything else."""
    _require(path, stage)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _malformed(path, stage, f"{type(exc).__name__}: {exc}") from None
    entries = doc.get(key) if isinstance(doc, dict) else None
    if not (isinstance(entries, list) and all(_entry_ok(e, fields) for e in entries)):
        kinds = {**_JSON_TYPES, float: "positive number"}
        want = ", ".join(f"{f} ({kinds[tp]})" for f, tp in fields.items())
        raise _malformed(path, stage, f"want an object whose {key!r} lists objects with {want}")
    id_key, seen = next(iter(fields)), set()
    for e in entries:
        eid = e[id_key]
        if e["label"] not in LABELS:
            raise _malformed(path, stage, f"{id_key} {eid!r} has label {e['label']!r}, "
                                          f"not {' or '.join(LABELS)}")
        if eid in seen:
            raise _malformed(path, stage, f"{id_key} {eid!r} occurs twice")
        if _names_no_file(eid):
            raise _malformed(path, stage, f"{id_key} {eid!r} cannot name a file")
        seen.add(eid)
    return doc


# --- stage: synth -----------------------------------------------------------

def stage_synth(cfg: PipelineConfig) -> list:
    """Generate the synthetic corpus and write records plus a manifest."""
    if cfg.synth is None:
        return []
    corpus = synth.generate_corpus(**cfg.synth, rng_seed=cfg.seed)
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
        manifest = _read_list(manifest_path, "synth", "records",
                              {"id": str, "label": str, "path": str})
        for entry in manifest["records"]:
            name = entry["path"]
            rec_path = _path(cfg, "records", name)
            if os.path.basename(name) != name or not os.path.isfile(rec_path):
                raise _malformed(manifest_path, "synth", f"path {name!r} names no file in records/")
            rec = dataio.load_recording(rec_path)
            add(rec, [(entry["id"], 0, len(rec.samples), entry["label"])])
    for i, item in enumerate(cfg.recordings):
        for key in ("recording", "annotation"):
            path = item.get(key)
            if not isinstance(path, str) or not os.path.isfile(path):
                raise ConfigError(f"missing {path}: named by config key recordings[{i}].{key}")
        rec = dataio.load_recording(item["recording"])
        if _names_no_file(rec.record_id):
            raise FormatError(f"{item['recording']}: record_id {rec.record_id!r} "
                              "cannot name a file")
        ann = dataio.load_annotations(item["annotation"])
        af, short = dataio.extract_af_windows(rec, ann, cfg.min_event_s, cfg.window_s)
        for onset, offset in short:
            event_exclusions.append(
                {
                    "record_id": rec.record_id,
                    "onset": int(onset),
                    "offset": int(offset),
                    "reason": "af_event_shorter_than_window",
                }
            )
        # seeded by record id: equal layouts draw different non-AF slots,
        # and the draws do not depend on the order of recordings
        seed = np.random.SeedSequence([cfg.seed, zlib.crc32(rec.record_id.encode())])
        nonaf, shortfall = dataio.sample_nonaf_windows(
            rec, ann, count=len(af), rng_seed=seed, window_s=cfg.window_s
        )
        if shortfall:
            event_exclusions.append(
                {
                    "record_id": rec.record_id,
                    "reason": "insufficient_nonaf_duration",
                    "missing_windows": shortfall,
                }
            )
        add(rec, [(f"{rec.record_id}_w{start:09d}", start, end, label)
                  for spans, label in ((af, "AF"), (nonaf, "non-AF")) for start, end in spans])
    seen = set()
    for wid, *_ in jobs:
        if wid in seen:
            # residual files are named by window id and would overwrite each other
            raise ConfigError(
                f"window id {wid!r} occurs twice; give every recording a distinct record_id"
            )
        seen.add(wid)
    event_exclusions.sort(key=lambda e: e["record_id"])
    return jobs, event_exclusions


def _process_window(args):
    """One filtered window to its files: quality gate, beats, every
    extractor, then ``residuals/{window_id}__{method}.fwk`` and, under
    ``dump_beats``, ``beats/{window_id}.json``. Nothing is written
    unless every extractor succeeded.

    The R peaks are the energy detections the bSQI gate computed; the
    detector runs once per window, and so does ``beat_matrix``, whose
    stack, template and spans every extractor shares. The beat dump
    holds the kept beats' R peaks and cuts (``segment_fiducials``).

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
        bm = beat_matrix(x, fs, report.r_peaks, cfg.min_beats)
        residuals = {method: run_extractor(method, bm).residual for method in cfg.extractors}
    except (ExtractionError, SignalTooShortError) as exc:  # what a window's data can cause
        return {"window_id": wid, "excluded": f"{type(exc).__name__}: {exc}"}
    for method, residual in residuals.items():
        rec = dataio.EcgRecording(samples=residual, fs=fs, lead_name=method, record_id=wid)
        dataio.write_recording(rec, _path(cfg, "residuals", f"{wid}__{method}.fwk"), fmt="binary")
    if cfg.dump_beats:
        with open(_path(cfg, "beats", f"{wid}.json"), "w") as fh:
            json.dump({"fs": fs, "r_peaks": bm.r_peaks.tolist(),
                       "fiducials": segment_fiducials(bm).tolist()}, fh)
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
    meta = _read_list(meta_path, "extract", "windows",
                      {"window_id": str, "label": str, "fs": float})
    windows, methods = meta["windows"], meta.get("extractors")
    if not (isinstance(methods, list) and all(m in METHODS for m in methods)
            and len(set(methods)) == len(methods)):
        raise _malformed(meta_path, "extract",
                         f"want 'extractors' to list some of {METHODS}, each once")
    dafs = []
    dump_wid = next((w["window_id"] for w in windows if w["label"] == "AF"), None)
    spec_dir = _path(cfg, "spectra")
    for win in windows:
        wid, fs = win["window_id"], win["fs"]
        for method in methods:
            res_path = _path(cfg, "residuals", f"{wid}__{method}.fwk")
            _require(res_path, "extract")
            rec = dataio.load_recording(res_path)
            ps = spectral.welch_psd(rec.samples, fs, seg_s=cfg.welch_seg_s,
                                    overlap=cfg.welch_overlap)
            dafs.append(spectral.estimate_daf(ps))
            if wid == dump_wid:
                os.makedirs(spec_dir, exist_ok=True)
                with open(os.path.join(spec_dir, f"{wid}__{method}.csv"), "w") as fh:
                    fh.write("freq_hz,power\n")
                    fh.write("%.6f,%.9g\n" * len(ps.freqs)
                             % tuple(np.column_stack((ps.freqs, ps.power)).ravel().tolist()))
    table = FeatureTable([w["window_id"] for w in windows for _ in methods],
                         methods * len(windows), dafs,
                         [w["label"] for w in windows for _ in methods])
    table.to_csv(_path(cfg, "daf.csv"))
    return table


# --- stage: eval ------------------------------------------------------------

def _daf_summary(table: FeatureTable, method: str) -> dict:
    vals = table.daf_hz[(table.methods == method) & (table.labels == "AF")]
    if not len(vals):
        return {"median": None, "q1": None, "q3": None}
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def _vote(table: FeatureTable, voting_set) -> FeatureTable:
    """``table`` plus a ``vote`` row per window, in sorted order: the
    median DAF over ``voting_set``, with the label and split of the
    window's first row."""
    seen = set()
    for key in zip(table.window_ids.tolist(), table.methods.tolist()):
        if key in seen:
            raise VotingError(f"window {key[0]}: duplicate estimate for method {key[1]}")
        seen.add(key)
    wids, first, row_window = np.unique(table.window_ids, return_index=True, return_inverse=True)
    # the (voting set x windows) pivot, and which of its cells a row fills
    dafs = np.zeros((len(voting_set), len(wids)))
    present = np.zeros(dafs.shape, dtype=bool)
    for k, method in enumerate(voting_set):
        rows = table.methods == method
        dafs[k, row_window[rows]] = table.daf_hz[rows]
        present[k, row_window[rows]] = True
    # vote_daf gets the methods of the first window that lacks one (or of
    # the first window), so it names what that window lacks
    j = np.argmin(present.all(axis=0))
    try:
        votes = spectral.vote_daf(
            {m: dafs[k] for k, m in enumerate(voting_set) if present[k, j]}, voting_set
        )
    except VotingError as exc:
        raise VotingError(f"window {wids[j]}: {exc}") from None
    vote = FeatureTable(wids, np.full(len(wids), "vote"), votes, table.labels[first],
                        table.split[first])
    return FeatureTable(*(np.concatenate((getattr(table, f.name), getattr(vote, f.name)))
                          for f in fields(FeatureTable)))


def stage_eval(cfg: PipelineConfig, table: FeatureTable | None = None) -> dict:
    """Split, train per-method forests, rank, vote, and write reports."""
    if table is None:
        daf_path = _path(cfg, "daf.csv")
        _require(daf_path, "daf")
        table = FeatureTable.from_csv(daf_path)
    if len(table) == 0:
        raise NoUsableWindowsError("no usable windows reached evaluation")
    if not any(table.split.tolist()):
        table = stratified_split(table, rng_seed=cfg.seed)
    else:  # the split is given: every row of a window says train, or every row test
        wids, first, row_window = np.unique(table.window_ids, return_index=True,
                                            return_inverse=True)
        split = table.split[first][row_window]
        bad = row_window[(table.split != split) | ((split != "train") & (split != "test"))]
        if len(bad):
            i = bad.min()  # the first such window in sorted order
            raise FormatError(f"window {wids[i]!r} has split "
                              f"{table.split[row_window == i].tolist()}: every row of a window "
                              "must say train, or every row test")

    present = set(table.methods.tolist())
    methods = [m for m in cfg.extractors if m in present]
    prevoted = "vote" in present
    if not methods and not prevoted:
        raise ConfigError(
            "feature table contains none of the configured extractor methods"
        )
    # every forest draws its bootstraps from the seed, the tree count and
    # its train-row count alone: draw once per count, for this call only
    draws = functools.cache(lambda n: bootstrap_draws(n, cfg.rf_n_trees, cfg.seed))

    def forest_metrics(t, method):
        n_train = len(t.select(method=method, split="train")[0])
        return evaluate_model(train_rf(t, method, draws(n_train), max_depth=cfg.rf_max_depth), t)

    metrics = {method: forest_metrics(table, method) for method in methods}
    ranking = rank_methods(metrics) if len(metrics) >= 2 else list(metrics)
    voting_set = tuple(cfg.voting_set) if cfg.voting_set else tuple(ranking[:3])
    if prevoted:
        # table already carries vote rows (e.g. a hand-supplied features
        # file): evaluate them as-is instead of re-voting
        voting_set, vote_table = (), table
    else:
        vote_table = _vote(table, voting_set)
    metrics["vote"] = forest_metrics(vote_table, "vote")

    os.makedirs(cfg.out_dir, exist_ok=True)
    vote_table.to_csv(_path(cfg, "features.csv"))

    report = {name: {**asdict(m), "f1": round(m.f1, 4), "auroc": round(m.auroc, 4),
                     "seed": cfg.seed} for name, m in metrics.items()}
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
    for m in methods + ["vote"]:
        lines.append(f"  {m:<10} {report[m]['f1']:>6.2f} {report[m]['auroc']:>7.2f}")
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
    os.makedirs(cfg.out_dir, exist_ok=True)
    stage_synth(cfg)
    extracted = stage_extract(cfg)
    if not extracted["windows"]:
        raise NoUsableWindowsError(
            f"all {len(extracted['exclusions']['windows'])} windows were excluded"
        )
    stage_daf(cfg)
    return stage_eval(cfg)
