"""The benchmark's three workloads.

Each workload derives its parameters and samples its inputs in ``setup``
(part of the set-up time), then hands the runner one list of checks per
input point.  Package calls go through ``Layers`` under "<module>.<function>"
names.  Tolerances are the benchmark's own copies of the command-line
defaults, so a change to the program's tolerances shows as a parity mismatch.

* verify-max: the ``spinquiver verify`` check set at (m,d,n) = (4,3,6).
* grid-survey: ``spinquiver report`` traffic on the whole advertised grid.
* commute-rank-flow: ``commute``, ``rank`` and ``flow`` on tame-spin points
  at (3,3,6).
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os

import numpy as np

from spinquiver import (cli, engine, errors, families, flows, io, params, points, reduction,
                        words)

from harness import Lazy

TOLS = {
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

# the functions whose per-layer metrics the traced run reports
TRACED_FUNCTIONS = (
    "engine.moment_property_residual", "engine.trace_bracket_value", "engine.trace_wordsum",
    "engine.trace_bracket_grad", "engine.bracket_gradients",
    "families.family_gradients", "families.family_value", "families.total_matrices",
    "families.independence_rank", "families.spectral_coeffs",
    "flows.ode_oracle", "flows.closed_form_flow",
    "points.random_point", "points.random_coordinates", "points.point_from_coordinates",
    "points.moment_residual", "points.spin_data", "points.reduced_quadruple",
    "points.quadruple_from_coordinates",
    "params.derive_params", "params.check_regularity",
    "io.point_to_dict", "io.point_from_dict",
    "reduction.random_h", "reduction.h_invariant_value", "reduction.dual_point",
    "reduction.dual_moment_residual",
    "words.cycle_power_sum", "words.spin_trace_word",
)


def draw_inputs(L, spec, seed: int, count: int, make_point):
    """Inputs drawn as the command line draws them: one ``--seed`` per point.

    Draw ``s`` takes its deformation parameters from the stream ``s + 77``
    and its point from ``make_point(par, s)``.  Irregular parameters and
    points that cannot be built are rejected and redrawn, as ``random_point``
    rejects its own draws; the rejections are returned as notes.
    """
    inputs, rejected = [], []
    s = seed * 1000
    while len(inputs) < count:
        rng = np.random.Generator(np.random.Philox(s + 77))
        q = np.exp(0.35 * (rng.standard_normal(spec.m) + 1j * rng.standard_normal(spec.m)))
        par = L("params.derive_params", params.derive_params, q, spec.n)
        try:
            if not L("params.check_regularity", params.check_regularity, par).ok:
                raise errors.RegularityViolation("parameters violate regularity")
            inputs.append((s, par) + make_point(par, s))
        except (errors.Degenerate, errors.RegularityViolation, errors.SingularFactor) as exc:
            rejected.append(f"  seed {s}: {type(exc).__name__}: {exc}")
            if len(rejected) > 10 * count:
                raise
        s += 1
    return inputs, [f"input draws rejected {len(rejected)}"] + rejected


def moment_identity_checks(L, eng, scale, spec, gens):
    """One check per (vertex, generator) pair of the multiplicative moment identity."""
    def pair(s, g):
        return (L("engine.moment_property_residual", eng().moment_property_residual, s, g),
                TOLS["property"] * max(1.0, scale() ** 3))
    return [(f"property-{s}-{g[0]}{g[1]}", lambda s=s, g=g: pair(s, g))
            for s in list(range(spec.m)) + [spec.m] for g in gens]


def cli_records(argv) -> dict:
    """Records of a command-line report, run in this process."""
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_stdio.StringIO()):
        cli.main(argv)
    return {r["name"]: r for r in json.loads(out.getvalue())["records"]}


class VerifyMax:
    """``spinquiver verify`` on points at the largest desk-scale spec."""

    name = "verify-max"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.spec = params.ModelSpec(m=2, d=2, n=3) if smoke else params.ModelSpec(m=4, d=3, n=6)
        self.count = 1 if smoke else 6

    def setup(self, L):
        self.inputs, self.notes = draw_inputs(
            L, self.spec, self.seed, self.count,
            lambda par, s: (L("points.random_point", points.random_point, self.spec, par, s),))

    def warmup(self, L):
        _s, par, point = self.inputs[0]
        eng = L("engine.PointEngine", engine.PointEngine, point, par)
        L("engine.moment_property_residual", eng.moment_property_residual, 0, ("x", 0))

    def may_fail(self, result) -> bool:
        return False

    def checks(self, idx: int, L):
        _s, par, point = self.inputs[idx]
        spec = self.spec
        m, n, d = spec.m, spec.n, spec.d
        scale = L("points.RepPoint.norm_scale", point.norm_scale)
        res = Lazy(lambda: L("points.moment_residual", points.moment_residual, point, par))
        tm = Lazy(lambda: L("families.total_matrices", families.total_matrices, point))
        sd = Lazy(lambda: L("points.spin_data", points.spin_data, point, par))
        eng = Lazy(lambda: L("engine.PointEngine", engine.PointEngine, point, par))

        out = [(f"moment-residual-vertex{s}", lambda s=s: (res()[s], TOLS["moment"] * scale))
               for s in range(m)]
        out.append(("moment-residual-framing", lambda: (res()[-1], TOLS["moment"] * scale)))

        def theta(s):
            block = tm().Theta[s * n:(s + 1) * n, s * n:(s + 1) * n]
            return float(np.linalg.norm(block - par.q[s] * np.eye(n))), TOLS["theta"] * scale
        out += [(f"theta-block-{s}", lambda s=s: theta(s)) for s in range(1, m)]

        if point.Z is not None:
            def theta0():
                pred = par.q[0] * (np.eye(n) + par.t * sd().Am @ sd().Cm
                                   @ np.linalg.inv(point.Z[m - 1]))
                return float(np.linalg.norm(tm().Theta[0:n, 0:n] - pred)), TOLS["theta"] * scale

            def spin_consistency():
                Am, Cm = sd().Am, sd().Cm
                worst = max(np.linalg.norm(Am[:, a].reshape(n, 1) - point.W[a]) for a in range(d))
                acc = np.eye(n, dtype=complex)
                for a in range(d):
                    vrec = par.t * Cm[a].reshape(1, n) @ np.linalg.inv(point.Z[m - 1]) @ acc
                    worst = max(worst, float(np.linalg.norm(vrec - point.V[a])))
                    acc = acc @ np.linalg.inv(np.eye(n) + point.W[a] @ point.V[a])
                return worst, TOLS["spin"] * scale
            out += [("theta-block-0", theta0), ("spin-data-consistency", spin_consistency)]

        gens = ([("x", s) for s in range(m)] + [("y", s) for s in range(m)]
                + [("v", a) for a in range(1, d + 1)] + [("w", a) for a in range(1, d + 1)])
        out += moment_identity_checks(L, eng, lambda: scale, spec, gens)

        if point.Z is not None:
            k, ell = m, m + 1
            tol = TOLS["identity"] * max(1.0, scale ** 4)
            xk = Lazy(lambda: L("words.cycle_power_sum", words.cycle_power_sum, "x", k, m))
            for alpha in range(1, d + 1):
                for beta in range(1, d + 1):
                    w2 = Lazy(lambda a=alpha, b=beta: L(
                        "words.spin_trace_word", words.spin_trace_word, a, b, ell, m))
                    lhs = Lazy(lambda w2=w2: L("engine.trace_bracket_value",
                                               eng().trace_bracket_value, xk(), w2()))

                    def identity(a=alpha, b=beta, lhs=lhs):
                        w3 = L("words.spin_trace_word", words.spin_trace_word, a, b, k + ell, m)
                        rhs = k * L("engine.trace_wordsum", eng().trace_wordsum, w3)
                        return abs(lhs() - rhs), tol

                    def cross(lhs=lhs, w2=w2):
                        grad = L("engine.trace_bracket_grad", eng().trace_bracket_grad, xk(), w2())
                        return abs(lhs() - grad), tol
                    out.append((f"spin-trace-{alpha}{beta}", identity))
                    out.append((f"spin-trace-{alpha}{beta}-gradient-route", cross))
        return [(f"p{idx}/{name}", thunk) for name, thunk in out]

    def parity(self, first_pass, workdir: str):
        """`spinquiver verify` on point 0 must write the values computed here."""
        path = os.path.join(workdir, "point.json")
        _s, par, point = self.inputs[0]
        io.write_json(path, io.point_to_dict(point, par))
        records = cli_records(["verify", path])
        ours = {}
        for r in first_pass:
            if not r.name.startswith("p0/"):
                continue
            name = r.name[3:]
            if name.startswith("property-"):
                name = "quasi-hamiltonian-property"
            elif name.startswith("spin-trace-"):
                if name.endswith("gradient-route"):
                    continue
                name = "spin-trace-bracket-identity"
            ours[name] = max(ours.get(name, 0.0), r.value)
        return _compare(records, ours)


class GridSurvey:
    """``spinquiver report`` traffic on m <= 4, d <= 3, 2 <= n <= 6."""

    name = "grid-survey"
    notes = ()

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.per_cell = 1 if smoke else 3
        self.cells = [(1, 1, 2), (4, 3, 6)] if smoke else \
            [(m, d, n) for m in (1, 2, 3, 4) for d in (1, 2, 3) for n in (2, 3, 4, 5, 6)]

    @staticmethod
    def report_cell(m, d, n) -> bool:
        return m <= 3 and n <= 4

    def setup(self, L):
        """Per cell, parameters from the report's own stream, then its points.

        A sampler error is kept with its input and raised by the point's
        first check.
        """
        self.params, self.inputs = {}, []
        for (m, d, n) in self.cells:
            rng = np.random.Generator(np.random.Philox(self.seed + m * 100 + d * 10 + n))
            q = np.exp(0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m)))
            par = L("params.derive_params", params.derive_params, q, n)
            if not L("params.check_regularity", params.check_regularity, par).ok:
                continue
            self.params[m, d, n] = par
            for i in range(self.per_cell):
                point = Lazy(lambda spec=params.ModelSpec(m, d, n), par=par, i=i: L(
                    "points.random_point", points.random_point, spec, par, self.seed + i))
                try:
                    point()
                except errors.SpinQuiverError:
                    pass
                self.inputs.append(((m, d, n), i, point))

    def warmup(self, L):
        cell, _i, point = self.inputs[0]
        L("points.moment_residual", points.moment_residual, point(), self.params[cell])

    def may_fail(self, result) -> bool:
        """Known failure: the sampler exhausts its draws on some parameter sets."""
        return result.verdict == "SamplingExhausted"

    def checks(self, idx: int, L):
        (m, d, n), i, point = self.inputs[idx]
        spec, par, seed = params.ModelSpec(m, d, n), self.params[m, d, n], self.seed + i
        scale = Lazy(lambda: L("points.RepPoint.norm_scale", point().norm_scale))

        def moment():
            res = L("points.moment_residual", points.moment_residual, point(), par)
            return max(res) / scale(), TOLS["moment"]

        def quadruple():
            quad = L("points.reduced_quadruple", points.reduced_quadruple, point(), par)
            Ainv = np.linalg.inv(quad.A)
            lhs = par.q[0] * quad.B @ Ainv
            rhs = par.q[0] * par.t * (Ainv @ quad.B + Ainv @ quad.bigA @ quad.bigC)
            return np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)), 1e-9

        def io_roundtrip():
            text = json.dumps(L("io.point_to_dict", io.point_to_dict, point(), par))
            back, back_par = L("io.point_from_dict", io.point_from_dict, json.loads(text))
            p = point()
            gap = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))
                      for a, b in zip(p.X + p.Y + p.V + p.W + (par.q,),
                                      back.X + back.Y + back.V + back.W + (back_par.q,)))
            return gap, 0.0

        def invariance():
            h = L("reduction.random_h", reduction.random_h, d, seed + 5)
            worst, biggest = 0.0, 1.0
            for word in ("S", f"X^{m} S", f"Z^{m} S", f"X^{m} S X^{m} S"):
                val = L("reduction.h_invariant_value", reduction.h_invariant_value,
                        point(), word, par)
                acted = L("reduction.h_invariant_value", reduction.h_invariant_value,
                          point(), word, par, h=h)
                worst, biggest = max(worst, abs(val - acted)), max(biggest, abs(val))
            return worst, 1e-12 * biggest

        dual = Lazy(lambda: L("reduction.dual_point", reduction.dual_point, point(), par))

        def dual_moment():
            return (L("reduction.dual_moment_residual", reduction.dual_moment_residual, dual()),
                    1e-9 * scale() ** 2)

        def family_swap():
            pr = L("reduction.DualPoint.as_rep_point", dual().as_rep_point)
            worst, eta = 0.0, 0.37 - 0.21j
            for j in (m, 2 * m):
                dual_value = L("families.family_value", families.family_value, pr, 4, j, eta)
                value = L("families.family_value", families.family_value, point(), 1, j, eta)
                worst = max(worst, abs(dual_value - value))
            return worst, TOLS["duality"] * max(1.0, scale() ** (2 * m))

        out = [("moment", moment), ("quadruple", quadruple), ("io-roundtrip", io_roundtrip),
               ("reduction-invariance", invariance), ("dual-moment-residual", dual_moment),
               ("family-swap", family_swap)]
        if i == 0 and self.report_cell(m, d, n):
            eng = Lazy(lambda: L("engine.PointEngine", engine.PointEngine, point(), par))
            gens = [("x", 0), ("y", m - 1), ("v", 1), ("w", d)]
            out += moment_identity_checks(L, eng, scale, spec, gens)
        return [(f"m{m}d{d}n{n}/p{i}/{name}", thunk) for name, thunk in out]

    def parity(self, first_pass, workdir: str):
        """`spinquiver report` on the report's cells must write the values computed here."""
        cells = {f"m{m}d{d}n{n}" for (m, d, n) in self.cells if self.report_cell(m, d, n)}
        records = {name: r for name, r in cli_records(
            ["report", "--seed", str(self.seed), "--points", str(self.per_cell)]).items()
            if name.split("-suite-")[1] in cells}
        ours = {}
        for r in first_pass:
            cell, _point, check = r.name.split("/")
            if cell not in cells:
                continue
            if check == "moment":
                name = f"moment-suite-{cell}"
            elif check.startswith("property-"):
                name = f"property-suite-{cell}"
            else:
                continue
            ours[name] = max(ours.get(name, 0.0), r.value)
        return _compare(records, ours)


class CommuteRankFlow:
    """``commute``, ``rank`` and ``flow`` on tame-spin points at (3,3,6)."""

    name = "commute-rank-flow"
    spec = params.ModelSpec(m=3, d=3, n=6)
    spin_scale = 0.15

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.count = 1 if smoke else 12
        self.steps = 20 if smoke else 200

    def setup(self, L):
        def tame_point(par, s):
            raw = L("points.random_coordinates", points.random_coordinates, self.spec, par, s)
            coords = L("points.LocalCoordinates.make", points.LocalCoordinates.make,
                       raw.x, raw.a, self.spin_scale * raw.c)
            return coords, L("points.point_from_coordinates", points.point_from_coordinates,
                             coords, par, self.spec)
        self.inputs, self.notes = draw_inputs(L, self.spec, self.seed, self.count, tame_point)

    def warmup(self, L):
        _s, par, _coords, point = self.inputs[0]
        eng = L("engine.PointEngine", engine.PointEngine, point, par)
        g = L("families.family_gradients", families.family_gradients, eng, 4, 3, 0.3 + 0.1j)
        L("engine.bracket_gradients", eng.bracket_gradients, g, g)

    def may_fail(self, result) -> bool:
        """Known failures: rank decisions and flow trajectories (recorded, not fixed)."""
        check = result.name.split("/", 1)[1]
        return check.startswith(("rank-", "flow-"))

    def checks(self, idx: int, L):
        seed, par, coords, point = self.inputs[idx]
        spec = self.spec
        m, n, d = spec.m, spec.n, spec.d
        scale = L("points.RepPoint.norm_scale", point.norm_scale)
        eng = Lazy(lambda: L("engine.PointEngine", engine.PointEngine, point, par))
        out = []

        # commute: pairwise involutivity within each family at two eta values,
        # relative to the bracket's pre-cancellation term mass
        rng = np.random.Generator(np.random.Philox(seed + 1))
        etas = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for fam in (1, 2, 3, 4):
            js = list(range(m, n * m + 1, m)) if fam != 2 else list(range(1, n + 1))
            members = [(j, eta) for j in js for eta in etas]
            grads = [Lazy(lambda j=j, eta=eta, fam=fam: L(
                "families.family_gradients", families.family_gradients, eng(), fam, j, eta))
                for j, eta in members]
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    def pair(a=a, b=b, grads=grads):
                        val, mass = L("engine.bracket_gradients", eng().bracket_gradients,
                                      grads[a](), grads[b](), with_mass=True)
                        return abs(val) / max(1.0, mass), TOLS["bracket"]
                    out.append((f"commute-{fam}-{a}-{b}", pair))

        # rank: G and H independence counts, then the spectral curve
        expected = n * d - d * (d - 1) // 2
        for fam in ("G", "H"):
            def rank(fam=fam):
                observed, _svals = L("families.independence_rank", families.independence_rank,
                                     coords, fam, par)
                return abs(observed - expected), 0.5, "rank"
            out.append((f"rank-{fam}", rank))

        def spectral():
            quad = L("points.quadruple_from_coordinates", points.quadruple_from_coordinates,
                     coords, par)
            sc = L("families.spectral_coeffs", families.spectral_coeffs, quad, par)
            return sc.eta_block_max(d + 1) / sc.scale(), TOLS["spectral"]
        if d < n:
            out.append(("spectral-curve", spectral))

        # flow: one RK4 trajectory per Hamiltonian, conservation, closed form
        for ham in ("trZ", "trY", "trT"):
            k = 1 if ham == "trT" else m
            fs = flows.FlowSpec(hamiltonian=ham, k=k, time=1.0, eta=0.0, steps=self.steps)
            traj = Lazy(lambda fs=fs: L("flows.ode_oracle", flows.ode_oracle, point, fs, par))
            fam = {"trZ": 4, "trY": 3, "trT": 2}[ham]
            for j in ([m, 2 * m] if fam != 2 else [1, 2]):
                def conserve(traj=traj, fam=fam, j=j, fs=fs):
                    series = [L("families.family_value", families.family_value, p, fam, j, fs.eta)
                              for p in traj().points]
                    drift = max(abs(v - series[0]) for v in series) / max(1.0, abs(series[0]))
                    return drift, TOLS["drift"]
                out.append((f"flow-{ham}-conservation-family{fam}-j{j}", conserve))

            def on_shell(traj=traj):
                drift = max(max(L("points.moment_residual", points.moment_residual, p, par))
                            for p in traj().points)
                return drift, TOLS["drift"] * scale

            def closed_form(traj=traj, fs=fs):
                closed = L("flows.closed_form_flow", flows.closed_form_flow, point, fs)
                fs2 = flows.FlowSpec(hamiltonian=fs.hamiltonian, k=fs.k, time=fs.time,
                                     eta=0.0, steps=2 * fs.steps)
                fine = L("flows.ode_oracle", flows.ode_oracle, point, fs2, par).points[-1]
                coarse = traj().points[-1]
                sensitivity = max(np.linalg.norm(a - b) for a, b in zip(coarse.X, fine.X))
                gap = max(np.linalg.norm(a - b) for a, b in zip(fine.X, closed.X))
                return gap, max(sensitivity, 1e-9 * scale)
            out.append((f"flow-{ham}-conservation-moment", on_shell))
            out.append((f"flow-{ham}-closed-form", closed_form))
        return [(f"p{idx}/{name}", thunk) for name, thunk in out]

    def parity(self, first_pass, workdir: str):
        return []


def _compare(records: dict, ours: dict):
    """Mismatches between command-line records and the benchmark's values."""
    problems = []
    for name in sorted(set(records) | set(ours)):
        if name not in records or name not in ours:
            problems.append(f"{name}: only in {'the benchmark' if name in ours else 'the CLI'}")
        elif records[name]["value"] != ours[name]:
            problems.append(f"{name}: CLI {records[name]['value']!r} != {ours[name]!r}")
    return problems


WORKLOADS = {w.name: w for w in (VerifyMax, GridSurvey, CommuteRankFlow)}
