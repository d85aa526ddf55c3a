"""The benchmark's workloads: seeded inputs, the timed entry point, and
the output checks and quality figures of one repetition.

Every workload builds its inputs from the run seed alone, so one seed
always yields the same inputs. The program under test only sees those
inputs (a config with a synth block, recordings on disk, or a feature
table on disk).
"""

import csv
import hashlib
import json
import os

import numpy as np

from fwave import cli, dataio, synth
from fwave.pipeline import PipelineConfig, run_pipeline

FS = 200.0
WINDOW_S = 60.0
WELCH_BIN_HZ = FS / 8192  # DAF grid of the default 10 s Welch segments

# corpus_csv: equal AF and sinus records, one 60 s window each. The
# 100+100 reference corpus is scaled down so that one repetition takes
# about 2 s and a run holds 10 to 20. The stratified split needs 5
# analysed windows per class; 8 leaves room for excluded windows (at 5
# per class one seed in twenty lost an AF window and every repetition
# failed).
CORPUS_PER_CLASS = 8
# criterion 1 of the acceptance suite: |DAF - f0| <= 0.2 Hz on >= 90%
DAF_TOL_HZ = 0.2
DAF_MIN_HIT_RATE = 0.90

# holter_fwk_w2: recordings built from synth segments. Each recording
# follows one fixed layout; only lengths, f0, heart rates and noise
# draws depend on the seed, so every seed yields the same window count.
HOLTER_RECORDINGS = 3
HOLTER_WORKERS = 2
CLEAN = {"noise_rms_mv": 0.028, "artifact_rms_mv": 0.2}
HEAVY = {"noise_rms_mv": 0.5, "artifact_rms_mv": 1.0}  # fails bSQI reliably
# (rhythm, duration range in s, artifact level); 2 of 8 segments heavy
HOLTER_LAYOUT = (
    ("sinus", (130, 170), CLEAN),
    ("AF", (65, 100), CLEAN),
    ("sinus", (130, 170), CLEAN),
    ("AF", (35, 55), HEAVY),  # shorter than a window: event exclusion
    ("sinus", (130, 170), CLEAN),
    ("AF", (65, 100), HEAVY),  # one window, gated out by bSQI
    ("sinus", (130, 170), CLEAN),
    ("AF", (65, 100), CLEAN),
)

# eval_features: a hand-made feature table, four methods, no vote rows
EVAL_WINDOWS = 200
EVAL_METHODS = ("TS_B", "TS_CE", "TS_SU", "TS_PCA")
EVAL_OUTLIER_RATE = {"TS_B": 0.10, "TS_CE": 0.08, "TS_SU": 0.12, "TS_PCA": 0.25}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_bytes(root):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def _vote_rows(out_dir):
    with open(os.path.join(out_dir, "features.csv"), newline="") as fh:
        return {
            r["window_id"]: (float(r["daf_hz"]), r["label"])
            for r in csv.DictReader(fh)
            if r["method"] == "vote"
        }


def _daf_errors(votes, truth):
    """|voted DAF - true f0| for every voted AF window with a known f0."""
    return [abs(daf - truth[wid]) for wid, (daf, lab) in votes.items() if lab == "AF"]


class Workload:
    """One workload: ``prepare`` builds inputs in the parent process,
    ``warm_up`` and ``run`` execute in the measuring process, ``inspect``
    turns one repetition's out_dir into checks and figures."""

    name = ""
    workers = 1
    warm_up_format = "csv"

    def __init__(self, seed, input_dir):
        self.seed = seed
        self.input_dir = input_dir

    def prepare(self):
        return {}

    def warm_up(self, out_dir):
        """First calls on a tiny input: lazy imports and caches fill here."""
        cfg = PipelineConfig(out_dir=out_dir, seed=self.seed,
                             synth={"n_af": 5, "n_sinus": 5, "duration_s": 12.0},
                             record_format=self.warm_up_format)
        run_pipeline(cfg)

    def run(self, out_dir, spec, workers=None):
        raise NotImplementedError

    def inspect(self, out_dir, spec):
        raise NotImplementedError


def _window_ledger(out_dir):
    with open(os.path.join(out_dir, "windows.json")) as fh:
        analysed = [w["window_id"] for w in json.load(fh)["windows"]]
    with open(os.path.join(out_dir, "exclusions.json")) as fh:
        ledger = json.load(fh)
    excluded = [w["window_id"] for w in ledger["windows"]]
    return analysed, excluded, ledger["events"]


def _pipeline_figures(out_dir, analysed, excluded, truth):
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        metrics = json.load(fh)
    errors = _daf_errors(_vote_rows(out_dir), truth)
    candidates = analysed + excluded
    return {
        "candidates": len(candidates),
        "excluded": len(excluded),
        "vote_auroc": metrics["vote"]["auroc"],
        "daf_mae_hz": float(np.median(errors)) if errors else None,
        "daf_hit_rate": float(np.mean([e <= DAF_TOL_HZ for e in errors])) if errors else None,
        "artifact_bytes": _tree_bytes(out_dir),
        "hashes": {f: _sha256(os.path.join(out_dir, f)) for f in ("features.csv", "metrics.json")},
    }


class CorpusCsv(Workload):
    name = "corpus_csv"

    def run(self, out_dir, spec, workers=None):
        run_pipeline(PipelineConfig(
            out_dir=out_dir, seed=self.seed, workers=workers or self.workers,
            synth={"n_af": CORPUS_PER_CLASS, "n_sinus": CORPUS_PER_CLASS},
        ))

    def inspect(self, out_dir, spec):
        with open(os.path.join(out_dir, "records", "manifest.json")) as fh:
            records = json.load(fh)["records"]
        truth = {}
        for entry in records:
            with open(os.path.join(out_dir, "records", entry["truth"])) as fh:
                daf = json.load(fh)["daf_true"]
            if daf is not None:
                truth[entry["id"]] = daf
        analysed, excluded, _ = _window_ledger(out_dir)
        fig = _pipeline_figures(out_dir, analysed, excluded, truth)
        problems = []
        ids = analysed + excluded
        if sorted(ids) != sorted(e["id"] for e in records):
            problems.append("window ids in windows.json + exclusions.json do not "
                            "match the records one-to-one")
        if fig["daf_hit_rate"] is None or fig["daf_hit_rate"] < DAF_MIN_HIT_RATE:
            problems.append(f"voted DAF within {DAF_TOL_HZ} Hz of f0 on "
                            f"{fig['daf_hit_rate']} of AF windows (< {DAF_MIN_HIT_RATE})")
        return fig, problems


def _holter_recording(rng, record_id):
    """Concatenated synth segments plus their rhythm annotation and the
    true f0 of every AF event, keyed by onset sample."""
    parts, events, f0_at = [], [], {}
    onset = 0
    for rhythm, (lo, hi), noise in HOLTER_LAYOUT:
        duration = float(rng.integers(lo, hi + 1))
        f0 = float(rng.uniform(4.5, 11.0)) if rhythm == "AF" else None
        truth = synth.generate(synth.SynthConfig(
            fs=FS, duration_s=duration, rhythm=rhythm,
            mean_hr_bpm=float(rng.uniform(70, 95) if rhythm == "AF" else rng.uniform(55, 85)),
            fwave_f0=f0, fwave_amp_mv=0.1 * synth.R_AMPLITUDE_MV,
            rng_seed=int(rng.integers(2**31)), **noise,
        ))
        n = len(truth.ecg)
        parts.append(truth.ecg)
        events.append((onset, onset + n, "AF" if rhythm == "AF" else "non-AF"))
        if f0 is not None:
            f0_at[onset] = f0
        onset += n
    rec = dataio.EcgRecording(np.concatenate(parts), FS, "synthV1", record_id)
    return rec, dataio.RhythmAnnotation(events), f0_at


class HolterFwk(Workload):
    name = "holter_fwk_w2"
    workers = HOLTER_WORKERS
    warm_up_format = "binary"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        win_n = int(round(WINDOW_S * FS))
        recordings, truth = [], {}
        expected_candidates = expected_short = 0
        for i in range(HOLTER_RECORDINGS):
            rid = f"holter{i:02d}"
            rec, ann, f0_at = _holter_recording(rng, rid)
            rec_path = os.path.join(self.input_dir, f"{rid}.fwk")
            ann_path = os.path.join(self.input_dir, f"{rid}.json")
            dataio.write_recording(rec, rec_path, fmt="binary")
            dataio.write_annotations(ann, ann_path)
            recordings.append({"recording": rec_path, "annotation": ann_path})
            # what the window rules should make of this annotation
            n_af, slots = 0, 0
            for on, off, label in ann.events:
                if label == "AF" and off - on >= win_n:
                    n_af += 1
                    truth[f"{rid}_w{on:09d}"] = f0_at[on]
                elif label == "AF" and off - on >= 30.0 * FS:
                    expected_short += 1
                elif label == "non-AF":
                    slots += (off - on) // win_n
            expected_candidates += n_af + min(n_af, slots)
        return {"recordings": recordings, "truth": truth,
                "expected_candidates": expected_candidates,
                "expected_short_events": expected_short}

    def run(self, out_dir, spec, workers=None):
        run_pipeline(PipelineConfig(
            out_dir=out_dir, seed=self.seed, workers=workers or self.workers,
            recordings=spec["recordings"],
        ))

    def inspect(self, out_dir, spec):
        analysed, excluded, events = _window_ledger(out_dir)
        fig = _pipeline_figures(out_dir, analysed, excluded, spec["truth"])
        problems = []
        ids = analysed + excluded
        if len(ids) != len(set(ids)):
            problems.append("a window id appears twice across windows.json and exclusions.json")
        if len(ids) != spec["expected_candidates"]:
            problems.append(f"{len(ids)} candidate windows, annotations imply "
                            f"{spec['expected_candidates']}")
        short = sum(e.get("reason") == "af_event_shorter_than_window" for e in events)
        if short != spec["expected_short_events"]:
            problems.append(f"{short} short-event exclusions, annotations imply "
                            f"{spec['expected_short_events']}")
        return fig, problems


class EvalFeatures(Workload):
    name = "eval_features"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        path = os.path.join(self.input_dir, "features.csv")
        truth = {}
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["window_id", "method", "daf_hz", "label", "split"])
            for i in range(EVAL_WINDOWS):
                wid = f"win{i:04d}"
                af = i % 2 == 0
                if af:
                    base = truth[wid] = float(rng.uniform(4.5, 11.0))
                else:
                    # sinus residual peaks crowd the low band edge
                    base = float(rng.uniform(4.0, 5.0) if rng.random() < 0.6 else rng.uniform(4.0, 12.0))
                for m in EVAL_METHODS:
                    if rng.random() < EVAL_OUTLIER_RATE[m]:
                        daf = rng.uniform(4.0, 12.0)
                    else:
                        daf = np.clip(base + rng.normal(0.0, 0.05 if af else 0.5), 4.0, 12.0)
                    daf = round(daf / WELCH_BIN_HZ) * WELCH_BIN_HZ
                    w.writerow([wid, m, f"{daf:.6f}", "AF" if af else "non-AF", ""])
        return {"features": path, "truth": truth}

    def warm_up(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "warm_features.csv")
        rng = np.random.default_rng(self.seed)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["window_id", "method", "daf_hz", "label", "split"])
            for i in range(20):
                for m in EVAL_METHODS:
                    w.writerow([f"w{i}", m, f"{rng.uniform(4, 12):.6f}",
                                "AF" if i % 2 else "non-AF", ""])
        self._eval(path, out_dir)

    def _eval(self, features, out_dir):
        code = cli.main(["eval", "--features", features, "--out", out_dir,
                         "--seed", str(self.seed)])
        if code != 0:
            raise RuntimeError(f"fwave eval exited with code {code}")

    def run(self, out_dir, spec, workers=None):
        self._eval(spec["features"], out_dir)

    def inspect(self, out_dir, spec):
        votes = _vote_rows(out_dir)
        with open(os.path.join(out_dir, "metrics.json")) as fh:
            metrics = json.load(fh)
        errors = _daf_errors(votes, spec["truth"])
        fig = {
            "candidates": len(votes),
            "excluded": EVAL_WINDOWS - len(votes),
            "vote_auroc": metrics["vote"]["auroc"],
            "daf_mae_hz": float(np.median(errors)),
            "artifact_bytes": _tree_bytes(out_dir),
            "hashes": {f: _sha256(os.path.join(out_dir, f)) for f in ("features.csv", "metrics.json")},
        }
        problems = []
        if sorted(votes) != [f"win{i:04d}" for i in range(EVAL_WINDOWS)]:
            problems.append("features.csv lacks a vote row for some window")
        if not {*EVAL_METHODS, "vote"} <= set(metrics):
            problems.append("metrics.json lacks a forest")
        return fig, problems


WORKLOADS = {w.name: w for w in (CorpusCsv, HolterFwk, EvalFeatures)}
