"""Spans around the calls into each fwave module, recorded from outside.

``Tracer.install`` replaces module attributes at the names the pipeline
looks up at call time and ``uninstall`` puts the originals back; the
program's source is not touched. A span is (name, start, end, parent,
window id) plus a few attributes (bytes moved, gate outcome, error).
Spans stay in memory; the measuring process writes them out once at the
end. Pool workers are forked from the traced process, inherit the
wrappers, and append their spans to a file of their own after every
window, because a pool worker never runs exit handlers.
"""

import contextlib
import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import fwave.beats
import fwave.dataio
import fwave.pipeline
import fwave.preprocess
import fwave.spectral
import fwave.synth

LAYERS = ("synth", "dataio", "preprocess", "beats", "extract", "spectral", "evaluate", "pipeline")
_STAGES = ("stage_synth", "stage_extract", "stage_daf", "stage_eval")


def _fixed(name):
    return lambda args, kwargs: (name, {})


def _recording_io(verb):
    def label(args, kwargs):
        path = str(args[1] if verb == "write" else args[0])
        fmt = "fwk" if path.endswith(".fwk") else "csv"
        return f"dataio.{fmt}_{verb}", {"path": path}
    return label


def _extractor(args, kwargs):
    return f"extract.{args[0]}", {}


def _window(args, kwargs):
    return "pipeline.process_window", {"wid": args[0][0]}


# (module, attribute, span label); three names reach the energy detector
_TARGETS = (
    *((fwave.pipeline, s, _fixed(f"pipeline.{s}")) for s in _STAGES),
    (fwave.pipeline, "_process_window", _window),
    (fwave.pipeline, "prefilter", _fixed("preprocess.prefilter")),
    (fwave.pipeline, "compute_bsqi", _fixed("preprocess.bsqi")),
    (fwave.pipeline, "detect_r_peaks_energy", _fixed("beats.energy")),
    (fwave.preprocess, "detect_r_peaks_energy", _fixed("beats.energy")),
    (fwave.beats, "detect_r_peaks_energy", _fixed("beats.energy")),
    (fwave.preprocess, "detect_r_peaks_matched", _fixed("beats.matched")),
    (fwave.pipeline, "segment_fiducials", _fixed("beats.fiducials")),
    (fwave.pipeline, "run_extractor", _extractor),
    (fwave.dataio, "load_recording", _recording_io("load")),
    (fwave.dataio, "write_recording", _recording_io("write")),
    (fwave.spectral, "welch_psd", _fixed("spectral.welch")),
    (fwave.spectral, "estimate_daf", _fixed("spectral.daf")),
    (fwave.synth, "generate", _fixed("synth.generate")),
    (fwave.pipeline, "train_rf", _fixed("evaluate.train_rf")),
    (fwave.pipeline, "evaluate_model", _fixed("evaluate.evaluate_model")),
)


class Tracer:
    def __init__(self, span_dir):
        self.span_dir = span_dir
        self.pid = self._main_pid = os.getpid()
        self.rep = 0
        self.spans = []  # [name, start, end, parent index, wid, attrs]
        self._base = 0  # index of spans[0] among all spans of this process
        self._stack = []
        self._saved = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.spans = []
        self._base = 0
        self._stack = []

    # --- recording --------------------------------------------------------

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else None
        wid = attrs.pop("wid", None)
        if wid is None and parent is not None:
            wid = self.spans[parent - self._base][4]
        self.spans.append([name, time.perf_counter(), None, parent, wid, attrs])
        self._stack.append(self._base + len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name, {"rep": self.rep})
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, orig, label):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name, attrs = label(args, kwargs)
            attrs["rep"] = tracer.rep
            span = tracer._open(name, attrs)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if name == "preprocess.bsqi":
                    attrs["passed"] = result.all_pass()
                elif name == "pipeline.process_window":
                    attrs["analysed"] = "excluded" not in result
                return result
            finally:
                tracer._close(span)
                if "path" in attrs:
                    path = attrs.pop("path")
                    attrs["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0
                if tracer.worker and not tracer._stack:
                    tracer.flush()

        return wrapper

    def _timed_pool(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            """Times the main process's wait on the pool as its own span."""

            def map(self, fn, *iterables, **kwargs):
                with tracer.span("pipeline.pool_wait"):
                    return iter(list(super().map(fn, *iterables, **kwargs)))

        return TimedPool

    # --- install / flush --------------------------------------------------

    @property
    def worker(self):
        return self.pid != self._main_pid

    def install(self):
        for module, attr, label in _TARGETS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, label))
        self._saved.append((fwave.pipeline, "ProcessPoolExecutor", fwave.pipeline.ProcessPoolExecutor))
        fwave.pipeline.ProcessPoolExecutor = self._timed_pool()

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def flush(self):
        """Append this process's spans to its own file and forget them."""
        if not self.spans:
            return
        os.makedirs(self.span_dir, exist_ok=True)
        with open(os.path.join(self.span_dir, f"spans-{self.pid}.jsonl"), "a") as fh:
            for i, (name, t0, t1, parent, wid, attrs) in enumerate(self.spans, self._base):
                fh.write(json.dumps({"pid": self.pid, "id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "wid": wid, **attrs}) + "\n")
        self._base += len(self.spans)
        self.spans = []


# --- per-layer metrics ----------------------------------------------------

def load_spans(span_dir):
    spans = []
    for fname in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, fname)) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _with_self_times(spans):
    by_key = {(s["pid"], s["id"]): s for s in spans}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"]
    for s in spans:
        if s["parent"] is not None:
            by_key[(s["pid"], s["parent"])]["self"] -= s["dur"]
    return spans


def _ms(values, q):
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(spans, main_pid, untraced_walls, serial_walls):
    """Every per-layer metric from the spans of all traced repetitions.

    ``untraced_walls`` are wall times of the same workload measured with
    tracing off in the same process; ``serial_walls`` the same at
    workers=1 (empty when the workload already runs at workers=1).
    """
    spans = _with_self_times(spans)
    reps = sorted({s["rep"] for s in spans})

    def calls(name):
        return [s for s in spans if s["name"] == name]

    def per_rep(fn):
        return float(np.median([fn(r) for r in reps])) if reps else 0.0

    out = {}

    def timing(metric, name, key="dur"):
        values = [s[key] for s in calls(name)]
        out[f"{metric}_ms_p50"] = _ms(values, 50)
        out[f"{metric}_ms_p95"] = _ms(values, 95)

    n = max(len(reps), 1)
    timing("synth.generate", "synth.generate")
    out["synth.calls"] = len(calls("synth.generate")) / n

    timing("dataio.csv_write", "dataio.csv_write")
    timing("dataio.csv_load", "dataio.csv_load")
    timing("dataio.fwk_load", "dataio.fwk_load")
    io_write = calls("dataio.csv_write") + calls("dataio.fwk_write")
    io_load = calls("dataio.csv_load") + calls("dataio.fwk_load")
    out["dataio.write_calls"] = len(io_write) / n
    out["dataio.load_calls"] = len(io_load) / n
    out["dataio.bytes_written"] = sum(s["bytes"] for s in io_write) / n
    out["dataio.bytes_read"] = sum(s["bytes"] for s in io_load) / n

    timing("preprocess.prefilter", "preprocess.prefilter")
    timing("preprocess.bsqi_self", "preprocess.bsqi", "self")
    gated = calls("preprocess.bsqi")
    out["preprocess.bsqi_pass_ratio"] = (
        sum(s["passed"] for s in gated if "passed" in s) / len(gated) if gated else 0.0
    )

    timing("beats.energy", "beats.energy")
    analysed = {(s["rep"], s["wid"]) for s in calls("pipeline.process_window") if s.get("analysed")}
    energy_in_analysed = [s for s in calls("beats.energy") if (s["rep"], s["wid"]) in analysed]
    out["beats.energy_calls_per_window"] = (
        len(energy_in_analysed) / len(analysed) if analysed else 0.0
    )
    timing("beats.matched_self", "beats.matched", "self")
    timing("beats.fiducials", "beats.fiducials")

    for method in ("TS_B", "TS_CE", "TS_SU", "TS_PCA"):
        timing(f"extract.{method}", f"extract.{method}")
    out["extract.failures"] = sum(
        1 for s in spans if s["name"].startswith("extract.") and "error" in s
    ) / n

    timing("spectral.welch", "spectral.welch")
    timing("spectral.daf", "spectral.daf")

    timing("evaluate.train_rf", "evaluate.train_rf")
    out["evaluate.train_rf_calls"] = len(calls("evaluate.train_rf")) / n
    timing("evaluate.evaluate_model", "evaluate.evaluate_model")

    # busy time per layer: self time summed over every process
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = per_rep(lambda r, layer=layer: sum(
            s["self"] for s in spans
            if s["rep"] == r and s["name"].split(".")[0] == layer
            and s["name"] != "pipeline.pool_wait"
        ))

    main = [s for s in spans if s["pid"] == main_pid]

    def main_sum(r, pred, key):
        return sum(s[key] for s in main if s["rep"] == r and pred(s["name"]))

    for stage in _STAGES:
        out[f"pipeline.{stage}_s"] = per_rep(
            lambda r, stage=stage: main_sum(r, lambda nm: nm == f"pipeline.{stage}", "dur"))
    out["pipeline.self_s"] = per_rep(lambda r: main_sum(
        r, lambda nm: nm.startswith("pipeline.") and nm != "pipeline.pool_wait", "self"))
    out["pipeline.pool_wait_s"] = per_rep(
        lambda r: main_sum(r, lambda nm: nm == "pipeline.pool_wait", "dur"))
    # walls are best of N, like the end-to-end wall_s
    traced_wall = min(main_sum(r, lambda nm: nm == "pipeline.run", "dur") for r in reps)
    # main-process self times of all layers (pool wait included) tile the
    # root span, so this ratio reads 1 when every span nests properly
    out["pipeline.accounted_frac"] = per_rep(
        lambda r: main_sum(r, lambda nm: True, "self")
        / main_sum(r, lambda nm: nm == "pipeline.run", "dur"))
    out["dataio.wall_frac"] = per_rep(
        lambda r: main_sum(r, lambda nm: nm.startswith("dataio."), "self")
        / main_sum(r, lambda nm: nm == "pipeline.run", "dur"))

    untraced = min(untraced_walls)
    out["pipeline.traced_wall_s"] = traced_wall
    out["pipeline.untraced_wall_s"] = untraced
    out["pipeline.trace_overhead_s"] = traced_wall - untraced
    out["pipeline.parallel_speedup"] = min(serial_walls) / untraced if serial_walls else 1.0
    return out
