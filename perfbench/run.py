"""fwave benchmark: run one workload, check its outputs, print metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus_csv --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones. The exit code is 1 when an output check failed and 2
when the checkout holds no fwave source. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MEASURING_PROCESSES = 5  # set-up is measured once in each
RUN_LIMIT_S = 170.0


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _environment():
    import importlib.util
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = "present" if importlib.util.find_spec("numba") else "absent"
    return (f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} numba={numba}")


def _children(args, root, work, n):
    """Start the measuring processes one after another; collect results.

    Process i measures until i+1 n-ths of ``--seconds`` have passed since
    the first one started, so its set-up comes out of its share and the
    whole run lasts about ``--seconds``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    results = []
    for i in range(n):
        until = start + args.seconds * (i + 1) / n
        path = os.path.join(work, f"result-{i}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", root,
               "--workload", args.workload, "--seed", str(args.seed), "--work", work,
               "--until", repr(until), "--trace", str(args.trace), "--result", path]
        # own process group, so a timeout also ends its pool workers
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            results.append({"error": "measuring process timed out"})
            continue
        finally:
            # on a timeout, or when run.py itself is ended, end the whole group
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0 or not os.path.exists(path):
            results.append({"error": f"measuring process exited {proc.returncode}: "
                                     f"{err.strip()[-2000:]}"})
            continue
        with open(path) as fh:
            results.append(json.load(fh))
    return results


def _summarise(results):
    """Count attempted and failed repetitions; compare outputs across them."""
    reps = [r for res in results for r in res.get("reps", [])]
    problems = [res["error"] for res in results if "error" in res]
    attempted = len(reps) + sum("error" in res for res in results)
    failed = sum("error" in res for res in results)
    reference = next((r["figures"]["hashes"] for r in reps if not r["problems"]), None)
    for r in reps:
        if not r["problems"] and r["figures"]["hashes"] != reference:
            r["problems"].append("features.csv or metrics.json differs between "
                                 "repetitions of the same input")
        if r["problems"]:
            failed += 1
            problems.extend(r["problems"])
    return reps, attempted, failed, problems


def _end_to_end(results, reps):
    good = [r for r in reps if not r["problems"]]
    walls = [r["wall_s"] for r in good]
    first = good[0]["figures"]
    return {
        "setup_s": statistics.median(res["setup_s"] for res in results if "setup_s" in res),
        # the median over every repetition of the run: on a shared machine
        # it follows the share of the run that other tenants slowed, which
        # changes less from run to run than the luck of the fastest one
        "wall_s": statistics.median(walls),
        "windows_per_s": statistics.median(r["figures"]["candidates"] / r["wall_s"] for r in good),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results if "peak_rss_mb" in res),
        "artifact_mb": first["artifact_bytes"] / 1e6,
        "excluded_frac": first["excluded"] / first["candidates"],
        "vote_auroc": first["vote_auroc"],
        "daf_mae_hz": first["daf_mae_hz"],
    }, walls


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a SIGTERM unwinds like an exception, so measuring processes are ended
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fwave", "__init__.py")):
        _fail(f"no fwave source under {os.path.join(root, 'src')}; run from a checkout root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(work, "inputs"))
    with open(os.path.join(work, "spec.json"), "w") as fh:
        json.dump(wl.prepare(), fh)

    print(_environment())
    n = 1 if args.trace else MEASURING_PROCESSES
    results = _children(args, root, work, n)
    reps, attempted, failed, problems = _summarise(results)
    for p in problems:
        print(f"CHECK FAILED: {p}")

    metrics = {}
    if args.trace:
        metrics = results[0].get("layers", {})
    elif failed < attempted:
        e2e, walls = _end_to_end(results, reps)
        e2e["failed_frac"] = failed / attempted
        metrics = e2e
        print(f"{args.workload} seed {args.seed}: {len(walls)} repetitions in {n} processes")
        # the highest percentile above the median with ten repetitions beyond it
        ordered, top = sorted(walls), len(walls) - 11
        pct = 100 * (top + 1) // len(walls)
        tail = f"p{pct} {ordered[top]:.4f}, " if pct > 50 else ""
        print(f"  wall_s        {e2e['wall_s']} s  (median of {len(walls)}; "
              f"min {min(walls):.4f}, {tail}max {max(walls):.4f})")
        for name, unit in (("setup_s", "s"), ("windows_per_s", "1/s"), ("peak_rss_mb", "MB"),
                           ("artifact_mb", "MB"), ("excluded_frac", "fraction"),
                           ("vote_auroc", "AUROC"), ("daf_mae_hz", "Hz"),
                           ("failed_frac", "fraction")):
            print(f"  {name:<13} {e2e[name]} {unit}")
        print("  repetitions   " + " ".join(f"{w:.3f}" for w in walls) + " s")
    else:
        print(f"{args.workload} seed {args.seed}: every repetition failed")

    out, missing = {}, []
    for m in wanted:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            missing.append(m["name"])
    if args.trace:
        # holter_fwk_w2 alone yields figures BENCHMARK.json does not list
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name in sorted(metrics):
            unit = units.get(name) or ("ms" if "_ms_" in name else
                                       "s" if name.endswith("_s") else "ratio")
            print(f"  {name:<34} {metrics[name]} {unit}")
    if missing:
        print(f"CHECK FAILED: no value for {', '.join(missing)}")
    correct = failed == 0 and not missing
    shutil.rmtree(os.path.join(work, "inputs"), ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
