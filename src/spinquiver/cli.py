"""Command-line interface: generation, verification, and reporting.

Commands: gen, verify, commute, flow, rank, reduce, dual, report.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parse errors.  All randomness flows from one counter-based generator seeded
on the command line, so identical configurations reproduce byte-identical
outputs (up to the report timestamp).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys

import numpy as np

from . import io as sqio
from .engine import PointEngine
from .errors import SpinQuiverError, ZeroParameter
from .families import (cycle_blocks, family_gradients, family_value,
                       independence_rank, total_matrices)
from .flows import FlowSpec, closed_form_flow, ode_oracle
from .params import ModelSpec, check_regularity, derive_params
from .points import (moment_residual, random_coordinates, random_point, spin_data)
from .reduction import (dual_moment_residual, dual_point, h_invariant_value,
                        random_h)
from .words import cycle_power_sum, spin_trace_word

DEFAULT_TOLS = {
    "moment": 1e-10,
    "theta": 1e-9,
    "property": 1e-9,
    "spin": 1e-10,
    "bracket": 1e-8,
    "identity": 1e-9,
    "drift": 1e-7,
    "spectral": 1e-7,
    "duality": 1e-8,
}


class Report:
    """Accumulates named residual checks with their tolerances."""

    def __init__(self):
        self.records = []

    def add(self, name: str, ref: str, value: float, tol: float) -> bool:
        ok = bool(value <= tol)
        self.records.append({"name": name, "paper_ref": ref,
                             "value": float(value), "tol": float(tol), "pass": ok})
        return ok

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.records)

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "summary": {
                "total": len(self.records),
                "passed": sum(r["pass"] for r in self.records),
                "failed": sum(not r["pass"] for r in self.records),
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            },
        }

    def emit(self, out_path: str | None) -> None:
        payload = self.to_dict()
        if out_path:
            sqio.write_json(out_path, payload)
        else:
            json.dump(payload, sys.stdout, indent=1, sort_keys=True)
            sys.stdout.write("\n")
        for r in self.records:
            status = "pass" if r["pass"] else "FAIL"
            print(f"[{status}] {r['name']}: {r['value']:.3e} <= {r['tol']:.1e}  ({r['paper_ref']})",
                  file=sys.stderr)

    def exit_code(self) -> int:
        return 0 if self.all_pass else 1


def _parse_spec(text: str) -> ModelSpec:
    try:
        m, d, n = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("--spec needs m,d,n") from exc
    return ModelSpec(m=m, d=d, n=n)


def _parse_q(text: str):
    out = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) == 1:
            out.append(complex(float(parts[0]), 0.0))
        elif len(parts) == 2:
            out.append(complex(float(parts[0]), float(parts[1])))
        else:
            raise argparse.ArgumentTypeError("--q needs re,im pairs separated by ';'")
    return out


def _tols(args) -> dict:
    tols = dict(DEFAULT_TOLS)
    for item in args.tol or ():
        name, _, value = item.partition("=")
        if not value:
            raise argparse.ArgumentTypeError("--tol needs name=value")
        tols[name] = float(value)
    return tols


def _setup(args):
    spec = args.spec
    if args.q is not None:
        qvals = args.q
        if len(qvals) != spec.m:
            raise SystemExit2(f"need {spec.m} deformation parameters, got {len(qvals)}")
    else:
        rng = np.random.Generator(np.random.Philox(args.seed + 77))
        qvals = np.exp(0.35 * (rng.standard_normal(spec.m)
                               + 1j * rng.standard_normal(spec.m)))
    try:
        params = derive_params(qvals, spec.n)
    except ZeroParameter as exc:
        raise SystemExit2(str(exc))
    reg = check_regularity(params)
    if not reg.ok:
        raise SystemExit2(f"parameters violate regularity: {reg.violations[:3]}")
    if reg.unverifiable_beyond_k_max:
        print("warning: |t| is near 1; regularity unverifiable beyond k_max",
              file=sys.stderr)
    return spec, params


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


# -- commands -------------------------------------------------------------------

def cmd_gen(args) -> int:
    spec, params = _setup(args)
    point = random_point(spec, params, args.seed)
    residual = max(moment_residual(point, params))
    out = args.out or "point.json"
    sqio.write_json(out, sqio.point_to_dict(point, params))
    report = Report()
    report.add("generated-point-moment-residual", "moment-conditions", residual,
               _tols(args)["moment"] * point.norm_scale())
    print(f"wrote {out}", file=sys.stderr)
    report.emit(None)
    return report.exit_code()


def _load_point(path: str):
    try:
        data = sqio.read_json(path)
        return sqio.point_from_dict(data)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read point file {path}: {exc}")


def cmd_verify(args) -> int:
    point, params = _load_point(args.point)
    tols = _tols(args)
    report = Report()
    scale = point.norm_scale()
    spec = point.spec

    residuals = moment_residual(point, params)
    for s, r in enumerate(residuals[:-1]):
        report.add(f"moment-residual-vertex{s}", f"moment-condition-block{s}",
                   r, tols["moment"] * scale)
    report.add("moment-residual-framing", "moment-condition-framing",
               residuals[-1], tols["moment"] * scale)

    n = spec.n
    theta = cycle_blocks("e", total_matrices(point).Theta, spec.m)
    for s in range(1, spec.m):
        report.add(f"theta-block-{s}", "cycle-moment-decomposition",
                   float(np.linalg.norm(theta[s] - params.q[s] * np.eye(n))),
                   tols["theta"] * scale)
    if point.Z is not None:
        sd = spin_data(point, params)
        pred = params.q[0] * (np.eye(n) + params.t * sd.Am @ sd.Cm
                              @ np.linalg.inv(point.Z[spec.m - 1]))
        report.add("theta-block-0", "cycle-moment-spin-block",
                   float(np.linalg.norm(theta[0] - pred)), tols["theta"] * scale)
        # spin-data consistency: framing vectors reconstruct from (Am, Cm)
        west = [sd.Am[:, a].reshape(n, 1) for a in range(spec.d)]
        acc = np.eye(n, dtype=complex)
        worst = max(np.linalg.norm(west[a] - point.W[a]) for a in range(spec.d))
        for a in range(spec.d):
            vrec = params.t * sd.Cm[a].reshape(1, n) @ np.linalg.inv(point.Z[spec.m - 1]) @ acc
            worst = max(worst, float(np.linalg.norm(vrec - point.V[a])))
            acc = acc @ np.linalg.inv(np.eye(n) + point.W[a] @ point.V[a])
        report.add("spin-data-consistency", "spin-matrix-reconstruction",
                   worst, tols["spin"] * scale)

    eng = PointEngine(point, params)
    generators = ([("x", s) for s in range(spec.m)] + [("y", s) for s in range(spec.m)]
                  + [("v", a) for a in range(1, spec.d + 1)]
                  + [("w", a) for a in range(1, spec.d + 1)])
    worst = 0.0
    for s in list(range(spec.m)) + [spec.m]:
        for g in generators:
            worst = max(worst, eng.moment_property_residual(s, g))
    report.add("quasi-hamiltonian-property", "multiplicative-moment-identity",
               worst, tols["property"] * max(1.0, scale ** 3))

    if point.Z is not None:
        worst = 0.0
        k, l = spec.m, spec.m + 1
        xk = cycle_power_sum("x", k, spec.m)
        for alpha in range(1, spec.d + 1):
            for beta in range(1, spec.d + 1):
                lhs = eng.trace_bracket_value(xk, spin_trace_word(alpha, beta, l, spec.m))
                rhs = k * eng.trace_wordsum(spin_trace_word(alpha, beta, k + l, spec.m))
                worst = max(worst, abs(lhs - rhs))
        report.add("spin-trace-bracket-identity", "position-spin-bracket",
                   worst, tols["identity"] * max(1.0, scale ** 4))

    report.emit(args.out)
    return report.exit_code()


def cmd_commute(args) -> int:
    spec, params = _setup(args)
    point = random_point(spec, params, args.seed)
    eng = PointEngine(point, params)
    tols = _tols(args)
    report = Report()
    rng = np.random.Generator(np.random.Philox(args.seed + 1))
    etas = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    family = args.family
    js = list(range(spec.m, spec.n * spec.m + 1, spec.m)) if family != 2 \
        else list(range(1, spec.n + 1))
    members = [(j, eta) for j in js for eta in etas]
    size = len(members)
    mags = np.zeros((size, size))
    grads = [family_gradients(eng, family, j, eta) for j, eta in members]
    scales = [max(1.0, abs(family_value(point, family, j, eta))) for j, eta in members]
    worst = 0.0
    for i in range(size):
        for k in range(i + 1, size):
            val = abs(eng.bracket_gradients(grads[i], grads[k]))
            mags[i, k] = mags[k, i] = val
            worst = max(worst, val / max(scales[i], scales[k]))
    report.add(f"involutivity-family-{family}", f"commuting-family-{family}",
               worst, tols["bracket"])
    if args.out:
        sqio.write_json(args.out, {
            "family": family,
            "members": [[j, sqio.encode_complex(e)] for j, e in members],
            "bracket_magnitudes": [[float(v) for v in row] for row in mags],
        })
    report.emit(None)
    return report.exit_code()


def cmd_bracket(args) -> int:
    """Ad-hoc bracket query: {tr w1, tr w2} for dot-token words at a point."""
    from .words import parse_word
    if args.point:
        point, params = _load_point(args.point)
        spec = point.spec
    else:
        spec, params = _setup(args)
        point = random_point(spec, params, args.seed)
    try:
        w1 = parse_word(args.w1, spec.m)
        w2 = parse_word(args.w2, spec.m)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    eng = PointEngine(point, params)
    value = eng.trace_bracket_value(w1, w2)
    json.dump({"w1": args.w1, "w2": args.w2,
               "value": sqio.encode_complex(value)}, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_rank(args) -> int:
    spec, params = _setup(args)
    if args.coords:
        try:
            coords = sqio.coords_from_dict(sqio.read_json(args.coords))
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            raise SystemExit2(f"cannot read coordinates file {args.coords}: {exc}")
    else:
        coords = random_coordinates(spec, params, args.seed)
    expected = spec.n * spec.d - spec.d * (spec.d - 1) // 2
    observed, svals = independence_rank(coords, args.family, params)
    payload = {"expected": expected, "observed": observed,
               "singular_values": [float(s) for s in svals]}
    if args.out:
        sqio.write_json(args.out, payload)
    else:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    report = Report()
    report.add(f"independence-rank-{args.family}", "independent-function-count",
               abs(observed - expected), 0.5)
    report.emit(None)
    return report.exit_code()


def cmd_flow(args) -> int:
    spec, params = _setup(args)
    point = random_point(spec, params, args.seed)
    k = args.k if args.k is not None else (1 if args.ham == "trT" else spec.m)
    fs = FlowSpec(hamiltonian=args.ham, k=k, time=args.time, eta=args.eta,
                  steps=args.steps)
    tols = _tols(args)
    traj = ode_oracle(point, fs, params)

    fam = {"trZ": 4, "trY": 3, "trT": 2}[args.ham]
    js = [spec.m, 2 * spec.m] if fam != 2 else [1, 2]
    names = [f"family{fam}-j{j}" for j in js]
    rows = []
    for time, p in zip(traj.times, traj.points):
        row = {"time": float(np.real(time))}
        for name, j in zip(names, js):
            row[name] = abs(family_value(p, fam, j, fs.eta))
        row["moment_residual"] = max(moment_residual(p, params))
        rows.append(row)
    out_csv = (args.out or "flow") + ".csv"
    with open(out_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    endpoint_path = (args.out or "flow") + "_endpoint.json"
    sqio.write_json(endpoint_path, sqio.point_to_dict(traj.points[-1], params))
    print(f"wrote {out_csv} and {endpoint_path}", file=sys.stderr)

    report = Report()
    for name, j in zip(names, js):
        series = [family_value(p, fam, j, fs.eta) for p in traj.points]
        drift = max(abs(v - series[0]) for v in series) / max(1.0, abs(series[0]))
        report.add(f"conservation-{name}", "flow-conserves-own-family",
                   drift, tols["drift"])
    drift = max(max(moment_residual(p, params)) for p in traj.points)
    report.add("conservation-moment", "flow-stays-on-shell", drift,
               tols["drift"] * point.norm_scale())
    if fs.eta == 0:
        # self-calibrating check: the doubled-resolution endpoint must sit
        # within the oracle's own measured step sensitivity of the closed form
        closed = closed_form_flow(point, fs)
        fs2 = FlowSpec(hamiltonian=fs.hamiltonian, k=fs.k, time=fs.time,
                       eta=0.0, steps=2 * fs.steps)
        fine = ode_oracle(point, fs2, params).points[-1]
        coarse = traj.points[-1]
        sensitivity = max(np.linalg.norm(a - b) for a, b in zip(coarse.X, fine.X))
        gap = max(np.linalg.norm(a - b) for a, b in zip(fine.X, closed.X))
        report.add("closed-form-agreement", "explicit-flow-solution",
                   gap, max(sensitivity, 1e-9 * point.norm_scale()))
    report.emit(None)
    return report.exit_code()


def cmd_reduce(args) -> int:
    spec, params = _setup(args)
    point = random_point(spec, params, args.seed)
    words = ["S", "X^%d S" % spec.m, "Z^%d S" % spec.m, "X^%d S X^%d S" % (spec.m, spec.m)]
    if args.word:
        words.append(args.word)
    h = random_h(spec.d, args.seed + 5)
    report = Report()
    table = {}
    worst = 0.0
    for word in words:
        val = h_invariant_value(point, word, params)
        val_acted = h_invariant_value(point, word, params, h=h)
        table[word] = sqio.encode_complex(val)
        worst = max(worst, abs(val - val_acted))
    report.add("invariant-words-under-spin-reduction", "reduction-invariance",
               worst, 1e-12 * max(1.0, max(abs(complex(*v)) for v in table.values())))
    if args.out:
        sqio.write_json(args.out, {"invariants": table})
    report.emit(None)
    return report.exit_code()


def cmd_dual(args) -> int:
    spec, params = _setup(args)
    point = random_point(spec, params, args.seed)
    tols = _tols(args)
    dp = dual_point(point, params)
    report = Report()
    report.add("dual-moment-residual", "dual-parameters-on-shell",
               dual_moment_residual(dp), 1e-9 * point.norm_scale() ** 2)
    pr = dp.as_rep_point()
    worst = 0.0
    for j in (spec.m, 2 * spec.m):
        eta = 0.37 - 0.21j
        worst = max(worst, abs(family_value(pr, 4, j, eta) - family_value(point, 1, j, eta)))
    report.add("family-swap-residual", "duality-exchanges-families",
               worst, tols["duality"] * max(1.0, point.norm_scale() ** (2 * spec.m)))
    if args.out:
        payload = {
            "note": dp.note,
            "q": [sqio.encode_complex(v) for v in dp.params.q],
            "X": [sqio.encode_matrix(mat) for mat in dp.X],
            "Z": [sqio.encode_matrix(mat) for mat in dp.Z],
        }
        sqio.write_json(args.out, payload)
    report.emit(None)
    return report.exit_code()


def cmd_report(args) -> int:
    tols = _tols(args)
    report = Report()
    cells = [(m, d, n) for m in (1, 2, 3) for d in (1, 2, 3) for n in (2, 3, 4)]
    rng_seed = args.seed
    for (m, d, n) in cells:
        spec = ModelSpec(m=m, d=d, n=n)
        rng = np.random.Generator(np.random.Philox(rng_seed + m * 100 + d * 10 + n))
        q = np.exp(0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m)))
        params = derive_params(q, n)
        if not check_regularity(params).ok:
            continue
        worst = 0.0
        for i in range(args.points):
            point = random_point(spec, params, rng_seed + i)
            worst = max(worst, max(moment_residual(point, params)) / point.norm_scale())
        report.add(f"moment-suite-m{m}d{d}n{n}", "moment-conditions",
                   worst, tols["moment"])
        point = random_point(spec, params, rng_seed)
        eng = PointEngine(point, params)
        worst = 0.0
        for s in list(range(m)) + [m]:
            for g in [("x", 0), ("y", m - 1), ("v", 1), ("w", d)]:
                worst = max(worst, eng.moment_property_residual(s, g))
        report.add(f"property-suite-m{m}d{d}n{n}", "multiplicative-moment-identity",
                   worst, tols["property"] * max(1.0, point.norm_scale() ** 3))
    report.emit(args.out)
    return report.exit_code()


# -- argument wiring --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinquiver",
        description="Numerical workbench for spin cyclic quiver varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", type=_parse_spec, default=ModelSpec(2, 2, 2),
                       help="model shape m,d,n (default 2,2,2)")
        p.add_argument("--q", type=_parse_q, default=None,
                       help="deformation parameters 're,im;re,im;...'")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--tol", action="append", metavar="name=val")
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("gen", help="write a random on-shell point file")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run the verification suite on a point file")
    common(p)
    p.add_argument("point", help="point JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("commute", help="pairwise bracket magnitudes within a family")
    common(p)
    p.add_argument("--family", type=int, default=4, choices=(1, 2, 3, 4))
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser("rank", help="independent-function count of a reduced family")
    common(p)
    p.add_argument("--family", default="G", choices=("G", "H"))
    p.add_argument("--coords", default=None, help="coordinates JSON file")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("bracket", help="ad-hoc trace bracket of two token words")
    common(p)
    p.add_argument("w1", help="first word, e.g. x0.x1")
    p.add_argument("w2", help="second word, e.g. w1.v1.z1.x1")
    p.add_argument("--point", default=None, help="point JSON file (else generated)")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("flow", help="integrate a flow and report conservation")
    common(p)
    p.add_argument("--ham", default="trT", choices=("trZ", "trY", "trT"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--eta", type=complex, default=0.0)
    p.add_argument("--steps", type=int, default=200)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("reduce", help="evaluate reduction-invariant words")
    common(p)
    p.add_argument("--word", default=None, help="extra word over X, Z, S")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("dual", help="emit the dual point and swap residuals")
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("report", help="run the default verification suites")
    common(p)
    p.add_argument("--points", type=int, default=10, help="points per cell")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        return int(exc.code)
    except SpinQuiverError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
