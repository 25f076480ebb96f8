"""Command-line interface: generation, verification, and reporting.

Commands: gen, verify, commute, rank, bracket, flow, reduce, dual, report.
Each is one entry of COMMANDS, which declares its options; `main` builds or
loads its point, runs its body, and emits its report.  A command's payload
goes to --out (gen and flow have default paths; bracket prints its value);
the report goes to stdout, except for verify and report, which have no
payload and write the report to --out.
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
from typing import Callable, NamedTuple

import numpy as np

from . import io as sqio
from .engine import PointEngine
from .errors import Degenerate, SingularFactor, SpinQuiverError, ZeroParameter
from .families import FAMILY_KIND, family_gradients, family_value, independence_rank
from .flows import HAMILTONIANS, FlowSpec, closed_form_flow, ode_oracle
from .params import ModelSpec, check_regularity, derive_params
from .points import (cycle_period, inverse, moment_residual, random_coordinates, random_point,
                     spin_data, theta_blocks)
from .reduction import (dual_moment_residual, dual_point, h_invariant_value,
                        parse_invariant_word, random_h)
from .words import cycle_power_sum, parse_word, spin_trace_word

DEFAULT_TOLS = {
    "moment": 1e-10,
    "theta": 1e-9,
    "property": 1e-9,
    "spin": 1e-10,
    "bracket": 1e-8,
    "identity": 1e-9,
    "drift": 1e-7,
    "duality": 1e-8,
}


class UsageError(Exception):
    """A command line or input file the command cannot use (exit code 2)."""


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


def _tols(items, names) -> dict:
    """The command's tolerances by name, with the --tol overrides applied."""
    tols = {name: DEFAULT_TOLS[name] for name in names}
    for item in items or ():
        name, _, value = item.partition("=")
        if not value:
            raise UsageError(f"--tol needs name=value, got {item!r}")
        if name not in DEFAULT_TOLS:
            raise UsageError(f"unknown tolerance {name!r}; known: {', '.join(DEFAULT_TOLS)}")
        if name not in tols:
            raise UsageError(f"this command does not read tolerance {name!r}; "
                             f"it reads: {', '.join(tols)}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise UsageError(f"--tol {name}: {value!r} is not a number") from None
    return tols


def _setup(args):
    spec = args.spec
    if args.q is not None:
        qvals = args.q
        if len(qvals) != spec.m:
            raise UsageError(f"need {spec.m} deformation parameters, got {len(qvals)}")
    else:
        rng = np.random.Generator(np.random.Philox(args.seed + 77))
        qvals = np.exp(0.35 * (rng.standard_normal(spec.m)
                               + 1j * rng.standard_normal(spec.m)))
    try:
        params = derive_params(qvals, spec.n)
    except ZeroParameter as exc:
        raise UsageError(str(exc)) from exc
    reg = check_regularity(params)
    if not reg.ok:
        raise UsageError(f"parameters violate regularity: {reg.violations[:3]}")
    if reg.unverifiable_beyond_k_max:
        print("warning: |t| is near 1; regularity unverifiable beyond k_max",
              file=sys.stderr)
    return spec, params


def _load_point(path: str):
    try:
        data = sqio.read_json(path)
        return sqio.point_from_dict(data)
    except (OSError, LookupError, AttributeError, TypeError, ValueError, ZeroParameter) as exc:
        raise UsageError(f"cannot read point file {path}: {exc}") from exc


def _write(args, payload: dict) -> None:
    if args.out:
        sqio.write_json(args.out, payload)


# -- command bodies: each adds its records and writes its payload ----------------

def cmd_gen(args, report, point, params) -> None:
    residual = max(moment_residual(point, params))
    out = args.out or "point.json"
    sqio.write_json(out, sqio.point_to_dict(point, params))
    report.add("generated-point-moment-residual", "moment-conditions", residual,
               args.tol["moment"] * point.norm_scale())
    print(f"wrote {out}", file=sys.stderr)


def cmd_verify(args, report, point, params) -> None:
    tols = args.tol
    scale = point.norm_scale()
    spec = point.spec

    residuals = moment_residual(point, params)
    for s, r in enumerate(residuals[:-1]):
        report.add(f"moment-residual-vertex{s}", f"moment-condition-block{s}",
                   r, tols["moment"] * scale)
    report.add("moment-residual-framing", "moment-condition-framing",
               residuals[-1], tols["moment"] * scale)

    n = spec.n
    theta = theta_blocks(point)
    for s in range(1, spec.m):
        report.add(f"theta-block-{s}", "cycle-moment-decomposition",
                   float(np.linalg.norm(theta[s] - params.q[s] * np.eye(n))),
                   tols["theta"] * scale)
    if point.Z is not None:
        sd = spin_data(point, params)
        Zinv = inverse(point.Z[spec.m - 1], SingularFactor, f"Z_{spec.m - 1} is singular")
        pred = params.q[0] * (np.eye(n) + params.t * sd.Am @ sd.Cm @ Zinv)
        report.add("theta-block-0", "cycle-moment-spin-block",
                   float(np.linalg.norm(theta[0] - pred)), tols["theta"] * scale)
        # spin-data consistency: framing vectors reconstruct from (Am, Cm)
        west = [sd.Am[:, a].reshape(n, 1) for a in range(spec.d)]
        acc = np.eye(n, dtype=complex)
        worst = max(np.linalg.norm(west[a] - point.W[a]) for a in range(spec.d))
        for a in range(spec.d):
            vrec = params.t * sd.Cm[a].reshape(1, n) @ Zinv @ acc
            worst = max(worst, float(np.linalg.norm(vrec - point.V[a])))
            acc = acc @ inverse(np.eye(n) + point.W[a] @ point.V[a], Degenerate,
                                f"Id + W_{a + 1} V_{a + 1} is singular")
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


def cmd_commute(args, report, point, params) -> None:
    spec = point.spec
    eng = PointEngine(point, params)
    rng = np.random.Generator(np.random.Philox(args.seed + 1))
    etas = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    family = args.family
    js = list(range(spec.m, spec.n * spec.m + 1, spec.m)) if family != 2 \
        else list(range(1, spec.n + 1))
    members = [(j, eta) for j in js for eta in etas]
    size = len(members)
    mags = np.zeros((size, size))
    grads = [family_gradients(eng, family, j, eta) for j, eta in members]
    worst = 0.0
    for i in range(size):
        for k in range(i + 1, size):
            val, mass = eng.bracket_gradients(grads[i], grads[k], with_mass=True)
            mags[i, k] = mags[k, i] = abs(val)
            # relative to the bracket's pre-cancellation term mass
            worst = max(worst, abs(val) / max(1.0, mass))
    report.add(f"involutivity-family-{family}", f"commuting-family-{family}",
               worst, args.tol["bracket"])
    _write(args, {
        "family": family,
        "members": [[j, sqio.encode_complex(e)] for j, e in members],
        "bracket_magnitudes": [[float(v) for v in row] for row in mags],
    })


def cmd_bracket(args, report, point, params) -> None:
    """Ad-hoc bracket query: {tr w1, tr w2} for dot-token words at a point."""
    try:
        w1 = parse_word(args.w1, point.spec.m)
        w2 = parse_word(args.w2, point.spec.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    eng = PointEngine(point, params)
    value = eng.trace_bracket_value(w1, w2)
    json.dump({"w1": args.w1, "w2": args.w2,
               "value": sqio.encode_complex(value)}, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _check_rank(args) -> None:
    """Replace the --coords path by the coordinates it holds, whose n and d must be --spec's."""
    if args.coords:
        path, spec = args.coords, args.spec
        try:
            args.coords = sqio.coords_from_dict(sqio.read_json(path))
        except (OSError, LookupError, AttributeError, TypeError, ValueError) as exc:
            raise UsageError(f"cannot read coordinates file {path}: {exc}") from exc
        n, d = args.coords.n, args.coords.d
        if (n, d) != (spec.n, spec.d):
            raise UsageError(f"coordinates file {path} has n = {n}, d = {d}; "
                             f"--spec {spec.m},{spec.d},{spec.n} needs n = {spec.n}, d = {spec.d}")


def cmd_rank(args, report, point, params) -> None:
    spec = args.spec
    coords = args.coords or random_coordinates(spec, params, args.seed)
    expected = spec.n * spec.d - spec.d * (spec.d - 1) // 2
    observed, svals = independence_rank(coords, args.family, params)
    _write(args, {"expected": expected, "observed": observed,
                  "singular_values": [float(s) for s in svals]})
    report.add(f"independence-rank-{args.family}", "independent-function-count",
               abs(observed - expected), 0.5)


def _check_flow(args) -> None:
    """Build the flow's FlowSpec from its options into args.flow; no point is needed."""
    m = args.spec.m
    step = cycle_period(HAMILTONIANS[args.ham].kind, m)
    k = args.k if args.k is not None else step
    try:
        args.flow = FlowSpec(hamiltonian=args.ham, k=k, time=args.time, eta=args.eta,
                             steps=args.steps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if k % step:
        raise UsageError(f"--ham {args.ham} needs --k a multiple of m = {m}, got {k}")


def cmd_flow(args, report, point, params) -> None:
    spec = point.spec
    fs = args.flow
    traj = ode_oracle(point, fs, params)

    kind = HAMILTONIANS[fs.hamiltonian].kind
    fam = next(f for f, f_kind in FAMILY_KIND.items() if f_kind == kind)
    js = [j * cycle_period(kind, spec.m) for j in (1, 2)]
    names = [f"family{fam}-j{j}" for j in js]
    series = {name: [family_value(p, fam, j, fs.eta) for p in traj.points]
              for name, j in zip(names, js)}
    moments = [max(moment_residual(p, params)) for p in traj.points]
    rows = []
    for i, time in enumerate(traj.times):
        row = {"time": float(np.real(time))}
        for name in names:
            row[name] = abs(series[name][i])
        row["moment_residual"] = moments[i]
        rows.append(row)
    out_csv = (args.out or "flow") + ".csv"
    with open(out_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    endpoint_path = (args.out or "flow") + "_endpoint.json"
    sqio.write_json(endpoint_path, sqio.point_to_dict(traj.points[-1], params))
    print(f"wrote {out_csv} and {endpoint_path}", file=sys.stderr)

    for name, values in series.items():
        drift = max(abs(v - values[0]) for v in values) / max(1.0, abs(values[0]))
        report.add(f"conservation-{name}", "flow-conserves-own-family",
                   drift, args.tol["drift"])
    report.add("conservation-moment", "flow-stays-on-shell", max(moments),
               args.tol["drift"] * point.norm_scale())
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


def _check_reduce(args) -> None:
    try:
        parse_invariant_word(args.word or "")
    except ValueError as exc:
        raise UsageError(f"cannot parse --word {args.word!r}: {exc}") from exc


def cmd_reduce(args, report, point, params) -> None:
    m = point.spec.m
    words = ["S", "X^%d S" % m, "Z^%d S" % m, "X^%d S X^%d S" % (m, m)]
    if args.word:
        words.append(args.word)
    h = random_h(point.spec.d, args.seed + 5)
    table = {}
    worst = 0.0
    for word in words:
        val = h_invariant_value(point, word, params)
        val_acted = h_invariant_value(point, word, params, h=h)
        table[word] = sqio.encode_complex(val)
        worst = max(worst, abs(val - val_acted))
    report.add("invariant-words-under-spin-reduction", "reduction-invariance",
               worst, 1e-12 * max(1.0, max(abs(complex(*v)) for v in table.values())))
    _write(args, {"invariants": table})


def cmd_dual(args, report, point, params) -> None:
    dp = dual_point(point, params)
    report.add("dual-moment-residual", "dual-parameters-on-shell",
               dual_moment_residual(dp), 1e-9 * point.norm_scale() ** 2)
    pr = dp.as_rep_point()
    worst = 0.0
    for j in (point.spec.m, 2 * point.spec.m):
        eta = 0.37 - 0.21j
        worst = max(worst, abs(family_value(pr, 4, j, eta) - family_value(point, 1, j, eta)))
    report.add("family-swap-residual", "duality-exchanges-families",
               worst, args.tol["duality"] * max(1.0, point.norm_scale() ** (2 * point.spec.m)))
    _write(args, {
        "note": dp.note,
        "q": [sqio.encode_complex(v) for v in dp.params.q],
        "X": [sqio.encode_matrix(mat) for mat in dp.X],
        "Z": [sqio.encode_matrix(mat) for mat in dp.Z],
    })


def _check_report(args) -> None:
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")


def cmd_report(args, report, point, params) -> None:
    """The default suites; each cell draws its own parameters and points."""
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
                   worst, args.tol["moment"])
        point = random_point(spec, params, rng_seed)
        eng = PointEngine(point, params)
        worst = 0.0
        for s in list(range(m)) + [m]:
            for g in [("x", 0), ("y", m - 1), ("v", 1), ("w", d)]:
                worst = max(worst, eng.moment_property_residual(s, g))
        report.add(f"property-suite-m{m}d{d}n{n}", "multiplicative-moment-identity",
                   worst, args.tol["property"] * max(1.0, point.norm_scale() ** 3))


# -- the command table and the driver ---------------------------------------------

SPEC = ("--spec", dict(type=_parse_spec, default=ModelSpec(2, 2, 2),
                       help="model shape m,d,n (default 2,2,2)"))
Q = ("--q", dict(type=_parse_q, default=None,
                 help="deformation parameters 're,im;re,im;...'"))
SEED = ("--seed", dict(type=int, default=1))
OUT = ("--out", dict(default=None, help="output path"))
DRAW = (SPEC, Q, SEED)


class Command(NamedTuple):
    help: str
    body: Callable
    options: tuple          # (flag, argparse keywords) pairs
    source: str | None      # "point": --point file or drawn; "params": drawn q only
    report: str | None      # where the report goes: "stdout", "--out", or nowhere
    tols: tuple = ()        # the DEFAULT_TOLS names the body reads; --tol takes only these
    check: Callable | None = None   # validates the options before any point is drawn


COMMANDS = {
    "gen": Command("write a random on-shell point file", cmd_gen,
                   DRAW + (OUT,), "point", "stdout", ("moment",)),
    "verify": Command("run the verification suite on a point file", cmd_verify,
                      (OUT, ("point", dict(help="point JSON file"))), "point", "--out",
                      ("moment", "theta", "property", "spin", "identity")),
    "commute": Command("pairwise bracket magnitudes within a family", cmd_commute,
                       DRAW + (OUT, ("--family", dict(type=int, default=4,
                                                      choices=(1, 2, 3, 4)))),
                       "point", "stdout", ("bracket",)),
    "rank": Command("independent-function count of a reduced family", cmd_rank,
                    DRAW + (OUT, ("--family", dict(default="G", choices=("G", "H"))),
                            ("--coords", dict(default=None, help="coordinates JSON file"))),
                    "params", "stdout", (), _check_rank),
    "bracket": Command("ad-hoc trace bracket of two token words", cmd_bracket,
                       DRAW + (("w1", dict(help="first word, e.g. x0.x1")),
                               ("w2", dict(help="second word, e.g. w1.v1.z1.x1")),
                               ("--point", dict(default=None,
                                                help="point JSON file (else generated)"))),
                       "point", None),
    "flow": Command("integrate a flow and report conservation", cmd_flow,
                    DRAW + (OUT,
                            ("--ham", dict(default="trT", choices=tuple(HAMILTONIANS))),
                            ("--k", dict(type=int, default=None)),
                            ("--time", dict(type=float, default=1.0)),
                            ("--eta", dict(type=complex, default=0.0)),
                            ("--steps", dict(type=int, default=200))),
                    "point", "stdout", ("drift",), _check_flow),
    "reduce": Command("evaluate reduction-invariant words", cmd_reduce,
                      DRAW + (OUT, ("--word", dict(default=None, help="extra word over X, Z, S"))),
                      "point", "stdout", (), _check_reduce),
    "dual": Command("emit the dual point and swap residuals", cmd_dual,
                    DRAW + (OUT,), "point", "stdout", ("duality",)),
    "report": Command("run the default verification suites", cmd_report,
                      (SEED, OUT, ("--points", dict(type=int, default=10,
                                                    help="points per cell"))),
                      None, "--out", ("moment", "property"), _check_report),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinquiver",
        description="Numerical workbench for spin cyclic quiver varieties")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.options:
            p.add_argument(flag, **kwargs)
        if command.tols:
            p.add_argument("--tol", action="append", metavar="name=val",
                           help=f"override a tolerance: {', '.join(command.tols)}")
    return parser


def _inputs(command: Command, args):
    """The (point, params) a command works on, read from its point file or drawn."""
    if command.source is None:
        return None, None
    if getattr(args, "point", None):
        return _load_point(args.point)
    spec, params = _setup(args)
    return (random_point(spec, params, args.seed) if command.source == "point" else None), params


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed its usage error (code 2) or --help (0)
        return exc.code
    command = COMMANDS[args.command]
    try:
        if command.tols:
            args.tol = _tols(args.tol, command.tols)
        if command.check:
            command.check(args)
        point, params = _inputs(command, args)
        report = Report()
        command.body(args, report, point, params)
        if command.report:
            report.emit(args.out if command.report == "--out" else None)
        return report.exit_code()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinQuiverError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
