"""One measuring process: set up, warm up, then repeat the workload.

Started by run.py with the checkout's ``src`` on PYTHONPATH. The clock
for set-up starts before numpy, scipy and fwave are imported and stops
after a warm-up run on a tiny input. Repetitions then continue until the
next one would end after the deadline run.py gives (``--until``). With
``--trace 1`` the process alternates untraced and traced repetitions
(plus one at workers=1 for workloads that use a pool) and derives the
per-layer metrics from the spans.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback

T0 = time.perf_counter()


def _rep(wl, spec, out_dir, workers=None, span=contextlib.nullcontext):
    """Run the workload once into out_dir, check it, and remove it."""
    rep = {}
    gc.collect()  # garbage of the previous repetition is not this one's cost
    t = time.perf_counter()
    try:
        with span():
            wl.run(out_dir, spec, workers)
        rep["wall_s"] = time.perf_counter() - t
        rep["figures"], rep["problems"] = wl.inspect(out_dir, spec)
    except Exception:  # a failed repetition is counted, not fatal
        rep["problems"] = [traceback.format_exc(limit=3)]
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--until", type=float, required=True,
                    help="time.monotonic() after which no repetition starts")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import workloads  # numpy, scipy and fwave load here, inside set-up

    src = os.path.join(os.path.realpath(args.root), "src", "")
    if not os.path.realpath(workloads.cli.__file__).startswith(src):
        sys.exit(f"fwave was imported from {workloads.cli.__file__}, not from {src}")
    with open(os.path.join(args.work, "spec.json")) as fh:
        spec = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(args.work, "inputs"))
    tag = f"{os.getpid()}"
    wl.warm_up(os.path.join(args.work, f"warm-{tag}"))
    shutil.rmtree(os.path.join(args.work, f"warm-{tag}"), ignore_errors=True)
    setup_s = time.perf_counter() - T0

    result = {"setup_s": setup_s, "reps": []}
    start = time.perf_counter()
    k = 0

    def out_dir():
        nonlocal k
        k += 1
        return os.path.join(args.work, f"out-{tag}-{k}")

    if args.trace:
        import tracing

        tracer = tracing.Tracer(os.path.join(args.work, "spans"))
        untraced, serial = [], []
        while True:
            rep = _rep(wl, spec, out_dir())
            result["reps"].append(rep)
            untraced.append(rep.get("wall_s"))
            tracer.install()
            try:
                result["reps"].append(
                    _rep(wl, spec, out_dir(), span=lambda: tracer.span("pipeline.run")))
            finally:
                tracer.uninstall()
            tracer.rep += 1
            if wl.workers > 1:
                rep = _rep(wl, spec, out_dir(), workers=1)
                result["reps"].append(rep)
                serial.append(rep.get("wall_s"))
            cycle = (time.perf_counter() - start) / tracer.rep
            if time.monotonic() + cycle > args.until:
                break
        tracer.flush()
        if all(w is not None for w in untraced + serial):
            result["layers"] = tracing.layer_metrics(
                tracing.load_spans(tracer.span_dir), os.getpid(), untraced, serial)
    else:
        while True:
            result["reps"].append(_rep(wl, spec, out_dir()))
            walls = sorted(r["wall_s"] for r in result["reps"] if "wall_s" in r)
            typical = walls[len(walls) // 2] if walls else 0.0
            if time.monotonic() + typical > args.until:
                break

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = kib / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
