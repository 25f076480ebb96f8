"""Benchmark of the spinquiver verification workbench.

    python3 bench/run.py --workload {verify-max,grid-survey,commute-rank-flow}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One workload runs per process, with single-threaded BLAS.
The run samples its inputs from the seed, runs the workload's checks over
them for at least ``--seconds`` seconds (whole input points; the first pass
over the inputs always completes), checks every output against its
tolerance, compares its values with what ``spinquiver verify`` and
``spinquiver report`` write for the same inputs, and prints the metrics by
name with their units.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics: set-up time (median of five
  fresh processes), checks per second, point and check latencies, pass ratio,
  accuracy headroom in digits and peak resident memory.
* ``--trace 1`` alternates untraced and traced passes over the same inputs
  and reports per-layer calls, self time and failures from the spans, which
  it also writes to ``bench/out/``, plus the tracing overhead.

``attempted`` counts the checks of the first pass (the verdict set);
``failed`` counts those that failed outside the workload's known-failure
allowance, which make ``correct`` false.  Every failed check, known or not,
is counted by failure class before the last line.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# single-threaded BLAS, set before numpy is imported, for this process only
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROCESSES = 4          # fresh processes timed for set-up, besides this one
WORKLOAD_NAMES = ("verify-max", "grid-survey", "commute-rank-flow")

# one timed pass over the inputs: check results per point, wall seconds, spans
Pass = collections.namedtuple("Pass", "traced points wall spans")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_package():
    """Import spinquiver from this checkout's src, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "spinquiver", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import spinquiver
    if os.path.dirname(os.path.dirname(os.path.abspath(spinquiver.__file__))) != SRC:
        raise SystemExit(f"error: spinquiver imported from {spinquiver.__file__}, not {SRC}")


def set_up(args):
    """Import, derive parameters, sample inputs, run one warm-up check."""
    import_package()
    from harness import Layers
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    layers = Layers()
    if args.trace:
        layers.spans = []
        layers.phase = "setup"
    workload.setup(layers)
    workload.warmup(layers)
    return workload, layers


def setup_probes(args, count):
    """Set-up times of fresh processes, each timed from its own start."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def fingerprint():
    import numpy as np
    import scipy
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the fingerprint is informative only
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_passes(workload, layers, seconds, trace):
    """Timed passes over the inputs.

    Untraced: the first pass completes, then points continue in input order
    until ``seconds`` have passed.  Traced: untraced and traced passes
    alternate, one pair at least, until ``seconds`` have passed.
    """
    from harness import run_point
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        layers.spans = [] if traced else None
        layers.phase = len(passes)
        points, t0 = [], time.perf_counter()
        prev = t0
        for idx in range(len(workload.inputs)):
            if not trace and passes and prev - start >= seconds:
                break
            results, prev = run_point(idx, workload.checks(idx, layers), layers, prev)
            points.append(results)
        if points:
            passes.append(Pass(traced, points, prev - t0, layers.spans))
        if prev - start >= seconds and (traced or not trace):
            break
    layers.spans = None
    return passes


def flat(points):
    return [r for results in points for r in results]


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, layers = set_up(args)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(f"setup_s {own_setup!r}")
        return 0
    setup_spans = layers.spans or []

    import harness as H
    from workloads import TRACED_FUNCTIONS

    setup_times = [own_setup]
    if not args.trace:
        setup_times += setup_probes(args, 1 if args.smoke else SETUP_PROCESSES)

    passes = run_passes(workload, layers, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0].points
    first_flat = flat(first)
    digest = H.digest(first_flat)
    # repeated passes over the same inputs must reach the same verdicts
    repeat_mismatch = sum(H.digest(results) != H.digest(first[idx])
                          for p in passes[1:] for idx, results in enumerate(p.points))

    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        parity = workload.parity(first_flat, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = H.failure_counts(first_flat)
    unexpected = [r for r in first_flat if r.verdict != H.PASS and (
        r.verdict.startswith("unexpected-") or not workload.may_fail(r))]
    correct = not unexpected and not parity and repeat_mismatch == 0
    attempted = len(first_flat)

    environment = fingerprint()
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}",
             f"environment {json.dumps(environment, sort_keys=True)}",
             f"verdict digest {digest} over {attempted} checks on {len(first)} points",
             f"failures by class {json.dumps(failures, sort_keys=True)}",
             f"unexpected failures {len(unexpected)}"
             + "".join(f"\n  {r.name}: {r.verdict} {r.value!r} > {r.tol!r}"
                       for r in unexpected[:20]),
             f"CLI parity {'ok' if not parity else 'MISMATCH'}"
             + "".join(f"\n  {p}" for p in parity[:20]),
             f"repeated-pass verdict mismatches {repeat_mismatch}", *workload.notes]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment, "digest": digest, "failures_by_class": failures,
              "unexpected_failures": [r.name for r in unexpected], "parity": parity,
              "checks": [[r.name, r.value, r.tol, r.verdict] for r in first_flat]}

    if not args.trace:
        all_points = [results for p in passes for results in p.points]
        latencies = [r.latency for results in all_points for r in results]
        wall = sum(p.wall for p in passes)
        point_times = [sum(r.latency for r in results) for results in all_points]
        pct, tail_value, n_lat, beyond = H.tail(latencies, attempted)
        margin, lowest, lowest_check = H.margin_digits(first_flat)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "checks_per_s": (len(latencies) / wall, "1/s"),
            "point_p50_s": (statistics.median(point_times), "s"),
            "check_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "check_tail_ms": (1000.0 * tail_value, "ms"),
            "pass_ratio": (1.0 - sum(failures.values()) / attempted, "1"),
            "margin_digits": (margin, "digits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        lines.append(f"timed {len(all_points)} points, {n_lat} checks in {wall:.3f} s "
                     f"over {len(passes)} pass(es); set-up samples {setup_times}")
        lines.append(f"check_tail_ms is p{pct:g} of {n_lat} check latencies "
                     f"({beyond} beyond it; the percentile is fixed by the {attempted} "
                     f"checks of the verdict set)")
        lines.append(f"margin_digits is p{H.MARGIN_PERCENTILE:g} over passing checks; "
                     f"the smallest is {lowest:.3f} at {lowest_check}")
        report.update(tail_percentile=pct, tail_samples=n_lat, setup_samples=setup_times)
    else:
        traced = [p for p in passes if p.traced]
        untraced = [p for p in passes if not p.traced]
        traced_digest = H.digest(flat(traced[0].points))
        if traced_digest != digest:
            correct = False
        spans = setup_spans + [s for p in traced for s in p.spans]
        setup_wall = max((s[4] for s in setup_spans), default=0.0) - \
            min((s[3] for s in setup_spans), default=0.0)
        traced_wall = sum(p.wall for p in traced) / len(traced)
        metrics = H.layer_metrics(spans, TRACED_FUNCTIONS, setup_wall + traced_wall, len(traced))
        metrics["trace.overhead_ratio"] = (
            sum(p.wall for p in traced) / sum(p.wall for p in untraced), "1")
        lines.append(f"traced digest {traced_digest} "
                     f"({'same as' if traced_digest == digest else 'DIFFERS from'} untraced)")
        lines.append(f"{len(traced)} traced and {len(untraced)} untraced pass(es); "
                     f"traced pass {traced_wall:.3f} s")
        os.makedirs(OUT, exist_ok=True)
        span_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(span_path, "w") as fh:
            keys = ("id", "parent", "name", "start", "end", "point", "phase", "status")
            for s in spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
        lines.append(f"spans written to {os.path.relpath(span_path, ROOT)}")

    lines.append(f"correct {correct}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value!r} {unit}")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": len(unexpected),
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
