"""Check runner, failure classes, spans and metric arithmetic of the benchmark.

A *check* is one residual compared with its tolerance, or one rank compared
with its expected count.  Workloads hand the runner a list of
``(name, thunk)`` pairs per input point; a thunk returns ``(value, tol)`` or
``(value, tol, "rank")`` and does the package calls it needs through a
``Layers`` object, which records one span per call when tracing is on.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from spinquiver.errors import SpinQuiverError

PASS = "pass"
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MARGIN_CAP = 16.0
MARGIN_PERCENTILE = 5.0


class Lazy:
    """A value computed on first use; an error it raised is raised again."""

    def __init__(self, fn):
        self._fn = fn
        self._done = False
        self._value = None
        self._error = None

    def __call__(self):
        if not self._done:
            self._done = True
            try:
                self._value = self._fn()
            except Exception as exc:
                self._error = exc
        if self._error is not None:
            raise self._error
        return self._value


def _finite_trajectory(traj) -> bool:
    return all(np.isfinite(x).all() for p in traj.points for x in p.X + p.Y)


class Layers:
    """Calls into the package's modules; one span per call while tracing.

    A span is ``(id, parent, name, start, end, point, phase, status)``.  The
    parent is the enclosing check span, ``point`` the input-point id and
    ``status`` "ok", "non-finite" or the name of the exception raised.
    """

    def __init__(self):
        self.spans = None
        self.parent = None
        self.point = None
        self.phase = None
        self._next_id = 0

    @property
    def tracing(self) -> bool:
        return self.spans is not None

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def __call__(self, name, fn, *args, **kwargs):
        if self.spans is None:
            return fn(*args, **kwargs)
        sid = self.new_id()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.spans.append((sid, self.parent, name, start, time.perf_counter(),
                               self.point, self.phase, type(exc).__name__))
            raise
        end = time.perf_counter()
        status = "ok"
        if name == "flows.ode_oracle" and not _finite_trajectory(result):
            status = "non-finite"
        self.spans.append((sid, self.parent, name, start, end, self.point, self.phase, status))
        return result


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float
    verdict: str          # PASS or the failure class
    latency: float        # seconds since the previous check completed


def evaluate(thunk):
    """Run one check; return (value, tol, verdict)."""
    try:
        out = thunk()
    except SpinQuiverError as exc:
        return math.nan, math.nan, type(exc).__name__
    except np.linalg.LinAlgError:
        return math.nan, math.nan, "LinAlgError"
    except Exception as exc:   # a crash, not a verdict: reported as unexpected
        traceback.print_exc(file=sys.stderr)
        return math.nan, math.nan, f"unexpected-{type(exc).__name__}"
    value, tol = float(out[0]), float(out[1])
    if not math.isfinite(value):
        return value, tol, "non-finite"
    if value > tol:
        return value, tol, "rank-mismatch" if out[2:] == ("rank",) else "over-tolerance"
    return value, tol, PASS


def run_point(point_id, checks, layers: Layers, prev: float):
    """Run a point's checks in order; latency runs from completion to completion."""
    results = []
    point_span = layers.new_id() if layers.tracing else None
    point_start = prev
    layers.point = point_id
    for name, thunk in checks:
        check_span = None
        if layers.tracing:
            check_span = layers.new_id()
            layers.parent = check_span
        value, tol, verdict = evaluate(thunk)
        now = time.perf_counter()
        if layers.tracing:
            layers.spans.append((check_span, point_span, "check:" + name, prev, now,
                                 point_id, layers.phase, verdict))
        results.append(CheckResult(name, value, tol, verdict, now - prev))
        prev = now
    if layers.tracing:
        layers.spans.append((point_span, None, "point", point_start, prev,
                             point_id, layers.phase, "ok"))
        layers.parent = None
    return results, prev


def digest(results) -> str:
    """Digest of the (check name, pass/fail) sequence."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.name}\t{'pass' if r.verdict == PASS else 'fail'}\n".encode())
    return h.hexdigest()[:16]


def tail(latencies, base: int):
    """Highest ladder percentile with at least ten of ``base`` samples beyond it.

    ``base`` is the size of the fixed verdict set, so the percentile is the
    same on every run of a workload however many repeats the run adds.
    Returns (percentile, value, samples, beyond); nearest-rank percentiles.
    """
    for p in TAIL_LADDER:
        if base - math.ceil(base * p / 100.0) >= TAIL_MIN_BEYOND:
            break
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, math.ceil(n * p / 100.0))
    return p, ordered[rank - 1], n, n - rank


def margin_digits(results):
    """Accuracy headroom: the 5th percentile of log10(tol/value) over passing checks.

    Each check's headroom is capped at 16, which a value of 0 gets.  Also
    returns the smallest headroom and the check that has it.  The smallest
    alone swings by digits from seed to seed; the percentile is steady.
    """
    digits = []
    for r in results:
        if r.verdict != PASS:
            continue
        if r.value <= 0.0:
            digits.append((MARGIN_CAP, r.name))
        elif r.tol <= 0.0:
            digits.append((-MARGIN_CAP, r.name))
        else:
            digits.append((min(MARGIN_CAP, math.log10(r.tol / r.value)), r.name))
    if not digits:
        return math.nan, math.nan, None
    digits.sort()
    low = digits[max(0, math.ceil(len(digits) * MARGIN_PERCENTILE / 100.0) - 1)][0]
    return low, digits[0][0], digits[0][1]


def failure_counts(results) -> dict:
    counts = {}
    for r in results:
        if r.verdict != PASS:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
    return dict(sorted(counts.items()))


def layer_metrics(spans, functions, wall_s: float, passes: int) -> dict:
    """Per-layer calls, self time and failures from the recorded spans.

    Set-up spans count once; pass spans are averaged over the traced passes.
    ``functions`` lists the "<module>.<function>" spans to report; the module
    rollups cover every span of the module.  Layer call spans have no child
    spans, so their self time is their duration.
    """
    fields = ("calls", "self_s", "fail", "ok", "finite")
    sums = {}   # (name, in set-up) -> per-field totals
    for _sid, _parent, name, start, end, _point, phase, status in spans:
        if name == "point" or name.startswith("check:"):
            continue
        acc = sums.setdefault((name, phase == "setup"), dict.fromkeys(fields, 0))
        acc["calls"] += 1
        acc["self_s"] += end - start
        acc["fail"] += status not in ("ok", "non-finite")
        acc["ok"] += status in ("ok", "non-finite")
        acc["finite"] += status == "ok"
    per_fn = {}
    for (name, in_setup), acc in sums.items():
        out = per_fn.setdefault(name, dict.fromkeys(fields, 0.0))
        for f in fields:
            out[f] += acc[f] if in_setup else acc[f] / passes
    metrics = {}
    modules = sorted({fn.split(".")[0] for fn in functions})
    for fn in functions:
        acc = per_fn.get(fn, {"calls": 0.0, "self_s": 0.0, "fail": 0.0})
        metrics[f"{fn}.calls"] = (acc["calls"], "count")
        metrics[f"{fn}.self_s"] = (acc["self_s"], "s")
        metrics[f"{fn}.fail"] = (acc["fail"], "count")
    for mod in modules:
        self_s = sum(acc["self_s"] for name, acc in per_fn.items()
                     if name.split(".")[0] == mod)
        metrics[f"{mod}.self_s"] = (self_s, "s")
        metrics[f"{mod}.share"] = (self_s / wall_s if wall_s > 0 else 0.0, "1")
    rank = per_fn.get("families.independence_rank")
    metrics["families.independence_rank.decided_ratio"] = (
        rank["ok"] / rank["calls"] if rank else 0.0, "1")
    oracle = per_fn.get("flows.ode_oracle")
    metrics["flows.ode_oracle.finite_ratio"] = (
        oracle["finite"] / oracle["calls"] if oracle else 0.0, "1")
    return metrics
