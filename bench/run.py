"""Benchmark of the homsr CLI pipelines; bench/README.md describes the workloads and metrics.

Run from the repository root, which must hold the package sources under src/:

    python3 bench/run.py --workload estimate --seed 1234 --seconds 4 --trace 0

The second-last line of standard output is a JSON report: the pipeline's
named timings with their sample counts, failures, the CLI check and the
machine block.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 3  # the in-process import plus fresh interpreters
IMPORT_PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import homsr; print(time.perf_counter() - t)"


def _git_commit(root):
    """The checked-out commit, read from .git without leaving ``root``; None outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _import_seconds(src):
    """Seconds to import homsr: this process's import, then fresh interpreters for the rest."""
    start = time.perf_counter()
    import homsr  # noqa: F401  (timed here; numpy and scipy are first loaded by this import)

    seconds = [time.perf_counter() - start]
    for _ in range(IMPORT_REPEATS - 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src], capture_output=True,
                              text=True, check=True, timeout=120)
        seconds.append(float(done.stdout.strip().splitlines()[-1]))
    return seconds


def _timing(values, unit="s"):
    entry = {"value": statistics.median(values), "unit": unit, "n": len(values), "mean": statistics.fmean(values)}
    if len(values) >= 100:  # a p90 with at least ten samples beyond it
        entry["p90"] = statistics.quantiles(values, n=10)[-1]
    return entry


def end_to_end(workload, run, import_s):
    """(report of the pipeline's named timings, BENCHMARK.json end-to-end metrics).

    ``op_s`` is seconds per operation over the run's steady phase, the inverse
    of its throughput: a mean, not a median.  On a shared host the speed flips
    between two levels ~25 % apart for seconds at a time, and a median of
    operations snaps to one level or the other, which doubled its spread
    between runs.
    """
    from workloads import CLI_TRIALS, REF_PROBE_S, S_GRID, TARGET_REL_ERR

    # Host speed over the whole run; a median of its probes, so that one probe
    # that lands on a short speed flip cannot skew the long set-up calls.
    speed = REF_PROBE_S / statistics.median(run.probes)
    seconds = {name: [v * speed for v in values] for name, values in run.samples.items() if name.endswith("_s")}
    med = {name: statistics.median(values) for name, values in seconds.items()}
    mean = {name: statistics.fmean(values) for name, values in seconds.items()}
    import_s = [v * speed for v in import_s]
    setup_s = statistics.median(import_s)
    report = {"speed": speed, "raw_median_s": {name: statistics.median(v) for name, v in run.samples.items() if name.endswith("_s")},
              "import_s": _timing(import_s)}
    if workload.kind == "estimate":
        setup_s += med["sampler_init_s"] + med["majorant_fill_s"]
        op_s = mean["trial_s"]
        wall_s = setup_s + CLI_TRIALS * op_s + med["crb_s"]
        report.update({name: _timing(seconds[name])
                       for name in ("sampler_init_s", "majorant_fill_s", "sample_s", "fit_s", "crb_s")})
    else:
        # Seconds to reach TARGET_REL_ERR per order under 1/sqrt(work) scaling,
        # which is exact for plain MC and conservative for QMC.
        rel_err = statistics.median(run.samples["fi_rel_err"])
        op_s = mean["fi_point_s"] * max(1.0, (rel_err / TARGET_REL_ERR) ** 2)
        wall_s = setup_s + len(S_GRID) * mean["fi_point_s"]
        report.update({"fi_point_s": _timing(seconds["fi_point_s"]),
                       "fi_rel_err": _timing(run.samples["fi_rel_err"], "ratio"),
                       "fi_point_s_at_1e-3": {"value": op_s, "unit": "s"}})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(setup_s={"value": setup_s, "unit": "s"}, wall_s={"value": wall_s, "unit": "s"},
                  peak_rss_mb={"value": peak_rss_mb, "unit": "MB"})
    metrics = {"setup_s": (setup_s, "s"), "op_s": (op_s, "s"), "wall_s": (wall_s, "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    return report, {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("estimate", "estimate-bright", "fi-curve"))
    parser.add_argument("--seed", type=int, default=1234, help="workload seed (default: the CLI's)")
    parser.add_argument("--seconds", type=float, default=16.0, help="steady-state measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "homsr", "__init__.py")):
        print("bench: no src/homsr here; run from the root of a homsr checkout", file=sys.stderr)
        return 2
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, src)
    import_s = _import_seconds(src)

    import homsr
    import homsr.cli  # noqa: F401  (the CLI check calls homsr.cli.main)
    import numpy
    import scipy
    import tracing
    from workloads import RUNNERS, WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    missing = tracer.install(homsr) if tracer else []
    try:
        run = RUNNERS[workload.kind](homsr, workload, args.seed, args.seconds, tracer, out_dir)
    finally:
        if tracer:
            tracer.uninstall()

    timings, metrics = end_to_end(workload, run, import_s)
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "timings": timings, "attempted": run.attempted, "failures": run.failures, "cli_check": run.cli_check,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "blas_threads": int(threads), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__, "homsr": homsr.__version__,
                    "commit": _git_commit(root)},
    }
    if tracer:
        layers = tracing.layer_metrics(tracer.spans, run.traced_wall_s, tracing.span_overhead_s())
        report["absent"] = sorted(name for name, value in layers.items() if value is None)
        report["missing_call_edges"] = missing
        metrics = {name: {"value": layers[name] or 0, "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        spans_path = os.path.join(out_dir, f"spans-{workload.name}-{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"], "spans": tracer.spans}, fh)
        report["spans"] = os.path.relpath(spans_path, root)

    print(json.dumps(report))
    print(json.dumps({"correct": not run.failures and run.cli_check == "pass",
                      "attempted": run.attempted, "failed": len(run.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
