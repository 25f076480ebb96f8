"""Explicit Hamiltonian flows and a fixed-step RK4 oracle.

The three integrable flows admit closed forms on the cycle matrices:

    tr Z^k:        X(t) = X(0) exp(-t Z^k),          Z, V, W constant
    tr Y^k:        X(t) = X(0) exp(-t Y^k) + Y^(-1)(exp(-t Y^k) - 1),   Y const
    tr (1+XY)^k:   X(t) = exp(-t T^k) X(0),          T = 1 + XY constant

all with d/dt normalized as (1/k) {tr U^k, -}.  The exponents have cyclic
degree 0, so each exponential is taken block by block on a
cyclic.CycleMatrix.  The analytic factor in the second flow is evaluated
through an augmented-block exponential, so Y need not be invertible.  The
oracle integrates the same vector fields (at general spectral parameter) with
classical RK4; it exists to cross-check the closed forms and to drive
conservation checks, not as a production integrator.

The oracle's state is one (2, m, n, n) stack, the blocks of X and of Z, Y or
U = 1 + XY, so each RK4 stage combination and the update are one array
operation.  Each vector field is written once, on cycle matrices, and traced
into a plan cached per (hamiltonian, k, m, n, eta == 0): the products it
takes, in their association (CycleMatrix.power's squaring order included),
grouped by dependency level.  A level's products are one take, which gathers
their blocks with precomputed shift indices, and one matmul into the call's
own workspace; inverses, the shift 1 + eta Theta and the sums are one call
each.  The trajectories are bit-identical to evaluating the fields product
by product on CycleMatrix states: each product keeps its operands and
association, a batched matmul multiplies each n x n block as a single one
does, and the elementwise operations act on each entry alone.

Each vector field evaluates its eta-terms (Theta or Theta^(-1), the shift
1 + eta Theta and the eta-weighted part of dX) only when eta != 0.  The
matrix whose inverse defines Theta (ZX, 1 + YX, or X and U) is tested at
every eta all the same, because that is the oracle's domain test: at eta = 0
too, a trajectory that leaves the locus where Theta is defined stops there
with SingularFactor instead of running on.  At eta = 0 the inverse itself is
unused, so the test is an LU factorization alone (_require_invertible), one
over all the blocks a field tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cyclic import CycleMatrix, _shifted, power_by_squaring
from .errors import SingularFactor
from .params import ParameterSet
from .points import RepPoint, _readonly

_COND_LIMIT = 1e8


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential: eigendecomposition when well-conditioned, else Pade."""
    try:
        vals, vecs = np.linalg.eig(A)
        cond = np.linalg.cond(vecs)
        if np.isfinite(cond) and cond < _COND_LIMIT:
            return (vecs * np.exp(vals)) @ np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        pass
    import scipy.linalg         # only this fallback needs scipy, so import it here
    return scipy.linalg.expm(A)


def phi1(A: np.ndarray) -> np.ndarray:
    """The entire function (e^A - 1) A^(-1) = sum A^j / (j+1)!, inversion-free."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n), dtype=complex)
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    return expm(aug)[:n, n:]


@dataclass(frozen=True)
class FlowSpec:
    """Which flow to run: hamiltonian in {trZ, trY, trT}, power k, spectral eta."""

    hamiltonian: str
    k: int
    time: complex
    eta: complex = 0.0
    steps: int = 100

    def __post_init__(self):
        if self.hamiltonian not in ("trZ", "trY", "trT"):
            raise ValueError("hamiltonian must be one of trZ, trY, trT")
        if self.k < 1:
            raise ValueError("power k must be >= 1")


def _point_with_XZ(point: RepPoint, Xb, Zb) -> RepPoint:
    spec = point.spec
    Y = []
    for s in range(spec.m):
        try:
            Y.append(Zb[s] - np.linalg.inv(Xb[s]))
        except np.linalg.LinAlgError as exc:
            raise SingularFactor(
                f"X_{s} singular, so Y_{s} = Z_{s} - X_{s}^(-1) is undefined") from exc
    made = RepPoint.make(spec, Xb, Y, point.V, point.W)
    # keep the conserved matrix bit-identical rather than re-derived
    return RepPoint(spec=spec, X=made.X, Y=made.Y, V=made.V, W=made.W,
                    Z=tuple(_readonly(z) for z in Zb))


def flow_Z(point: RepPoint, k: int, time: complex) -> RepPoint:
    """Closed-form flow of tr Z^k (k a multiple of m); Z, V, W exactly constant.

    Raises SingularFactor when an X block of the endpoint is singular, since
    Y = Z - X^(-1) is then undefined.
    """
    m = point.spec.m
    if k % m:
        raise ValueError("tr Z^k flows need m | k")
    if point.Z is None:
        raise SingularFactor("flow of tr Z^k needs invertible X")
    X, Z = CycleMatrix.of_letters("x", point.X), CycleMatrix.of_letters("z", point.Z)
    Xt = X @ (-time * Z.power(k)).map(expm)
    return _point_with_XZ(point, Xt.letters("x"), list(point.Z))


def flow_Y(point: RepPoint, k: int, time: complex) -> RepPoint:
    """Closed-form flow of tr Y^k (k a multiple of m); Y, V, W exactly constant."""
    spec = point.spec
    if k % spec.m:
        raise ValueError("tr Y^k flows need m | k")
    X, Y = CycleMatrix.of_letters("x", point.X), CycleMatrix.of_letters("y", point.Y)
    A = -time * Y.power(k)
    # Y^(-1)(E - 1) = -time * Y^(k-1) phi1(A), no inversion needed
    Xt = X @ A.map(expm) - time * Y.power(k - 1) @ A.map(phi1)
    return RepPoint.make(spec, Xt.letters("x"), point.Y, point.V, point.W)


def flow_T(point: RepPoint, k: int, time: complex) -> RepPoint:
    """Closed-form flow of tr (1+XY)^k; T, V, W exactly constant."""
    X = CycleMatrix.of_letters("x", point.X)
    T = 1 + X @ CycleMatrix.of_letters("y", point.Y)
    Xt = (-time * T.power(k)).map(expm) @ X
    return _point_with_XT(point, Xt.letters("x"), T.blocks)


def _point_with_XT(point: RepPoint, Xb, Tb) -> RepPoint:
    """The point with blocks X_s and Y_s = X_s^(-1) (T_s - 1), where T = 1 + XY."""
    eye, Y = np.eye(point.spec.n), []
    for s in range(point.spec.m):
        try:
            Y.append(np.linalg.inv(Xb[s]) @ (Tb[s] - eye))
        except np.linalg.LinAlgError as exc:
            raise SingularFactor(
                f"X_{s} singular, so Y_{s} = X_{s}^(-1) (T_{s} - 1) is undefined") from exc
    return RepPoint.make(point.spec, Xb, Y, point.V, point.W)


# -- RK4 oracle ---------------------------------------------------------------
#
# The fields act on cycle matrices: X of degree +1, Z and Y of degree -1,
# U = 1 + XY of degree 0.  Each field is written once, below, as the
# products, inverses and sums it takes.  _plan traces it on _Node
# placeholders, and _Plan.run evaluates what the trace recorded on one
# workspace stack, level by level.

def _require_invertible(blocks: np.ndarray) -> None:
    """Raise LinAlgError exactly where inv(blocks) would: some block has an exact zero pivot.

    slogdet runs the same LU factorization as inv and reports sign 0 for an
    exact zero pivot; a non-finite block gives sign nan, which passes here
    as it does in inv.  Floating-point flags are ignored, as inv ignores them.
    """
    with np.errstate(all="ignore"):
        sign = np.linalg.slogdet(blocks)[0]
    if not sign.all():
        raise np.linalg.LinAlgError("Singular matrix")


def _field_Z(X, Z, k, eta):
    ZX = Z @ X                              # Theta = XZ (ZX)^(-1) needs ZX invertible
    if eta == 0:
        _test_invertible(ZX)
        Ukm1 = Z.power(k - 1)
        dX = -(X @ Ukm1 @ Z)
    else:
        Theta = X @ Z @ ZX.inv()
        U = Z @ (1 + eta * Theta)
        Ukm1 = U.power(k - 1)
        dX = -eta * (Theta @ Ukm1 @ Z @ X) - X @ Ukm1 @ Z
    dZ = -(Z @ Ukm1 @ Z) + Ukm1 @ Z @ Z
    return dX, dZ


def _field_Y(X, Y, k, eta):
    W = 1 + Y @ X                           # Theta = (1 + XY)(1 + YX)^(-1)
    if eta == 0:
        _test_invertible(W)
        Ukm1 = Y.power(k - 1)
        dX = -Ukm1 - X @ Ukm1 @ Y
    else:
        Theta = (1 + X @ Y) @ W.inv()
        U = Y @ (1 + eta * Theta)
        Ukm1 = U.power(k - 1)
        dX = -Ukm1 - X @ Ukm1 @ Y - eta * (Theta @ Ukm1 @ W)
    dY = -(Y @ Ukm1 @ Y) + Ukm1 @ Y @ Y
    return dX, dY


def _field_T(X, U, k, eta):
    # Theta^(-1) = X^(-1) U X U^(-1) needs X and U invertible
    if eta == 0:
        _test_invertible(X, U)
        Ukm1 = U.power(k - 1)
        dX = -(Ukm1 @ U @ X)
    else:
        Theta_inv = X.inv() @ U @ X @ U.inv()
        U_eta = U @ (1 + eta * Theta_inv)
        Ukm1 = U_eta.power(k - 1)
        dX = -(Ukm1 @ U @ X) - eta * (X @ Theta_inv @ Ukm1 @ U)
    dU = -(Ukm1 @ U @ U) + U @ Ukm1 @ U
    return dX, dU


# hamiltonian -> (field, degree of the second state matrix)
_FIELDS = {"trZ": (_field_Z, -1), "trY": (_field_Y, -1), "trT": (_field_T, 0)}


class _Eta:
    """sign * eta, the spectral parameter, while a field is traced at eta != 0."""

    __slots__ = ("sign",)

    def __init__(self, sign: int = 1):
        self.sign = sign

    def __neg__(self) -> "_Eta":
        return _Eta(-self.sign)


class _Node:
    """A cycle matrix while a field is traced: its degree and the step that makes it.

    Every node appends itself to the trace when it is made, so the trace
    lists each value the field computes, after the values it reads; a value
    the outputs do not need is still computed, as an eager evaluation would.
    """

    __slots__ = ("trace", "m", "op", "args", "deg", "sign")

    def __init__(self, trace: list, m: int, op: str, args: tuple, deg: int, sign=None):
        self.trace, self.m, self.op, self.args = trace, m, op, args
        self.deg, self.sign = deg % m, sign
        trace.append(self)

    def _new(self, op, args, deg, sign=None) -> "_Node":
        return _Node(self.trace, self.m, op, args, deg, sign)

    def __matmul__(self, other: "_Node") -> "_Node":
        return self._new("mm", (self, other), self.deg + other.deg)

    def __neg__(self) -> "_Node":
        return self._new("neg", (self,), self.deg)

    def __add__(self, other: "_Node") -> "_Node":
        return self._new("add", (self, other), self.deg)

    def __radd__(self, one) -> "_Node":
        if one != 1:
            return NotImplemented
        return self._new("add1", (self,), self.deg)      # 1 + self, self of degree 0

    def __sub__(self, other: "_Node") -> "_Node":
        return self + -other

    def __rmul__(self, eta) -> "_Node":
        if not isinstance(eta, _Eta):
            return NotImplemented
        return self._new("scale", (self,), self.deg, eta.sign)

    def inv(self) -> "_Node":
        return self._new("inv", (self,), -self.deg)

    def power(self, k: int) -> "_Node":
        out = power_by_squaring(self, k)
        return self._new("one", (), 0) if out is None else out


def _test_invertible(*nodes: _Node) -> None:
    """Record one domain test over all the nodes' blocks (_require_invertible)."""
    nodes[0]._new("test", nodes, 0)


class _Plan:
    """A traced field's steps grouped by dependency level, on one workspace stack.

    The workspace has one (m, n, n) slot per traced value: slot 0 holds X,
    slot 1 the second state matrix.  Within a level, domain tests run first,
    then inverses and elementwise steps, one call each, then the level's
    products: these sit in consecutive slots, so one take gathers their left
    blocks and their right blocks shifted by the left degree (as
    CycleMatrix.__matmul__ shifts them), and one matmul writes them all.
    The plan holds read-only index arrays only; each caller owns a workspace.
    """

    def __init__(self, trace: list, outputs: tuple, m: int, n: int):
        self.m, self.n = m, n
        level, slot = {}, {}
        for node in trace:
            level[node] = 1 + max((level[a] for a in node.args), default=-1)
            if level[node] == 0:            # the state and the identities
                slot[node] = len(slot)
        self.ones = [slot[node] for node in trace if node.op == "one"]
        self.steps, gather = [], 0
        for lev in range(1, max(level.values()) + 1):
            nodes = [node for node in trace if level[node] == lev]
            for node in nodes:
                args = [slot[a] for a in node.args]
                if node.op == "test":
                    self.steps.append(("test", np.array(args)))
                elif node.op != "mm":
                    slot[node] = len(slot)
                    step = (node.op, *args, slot[node])
                    if node.op == "scale":
                        step += (node.sign,)
                    elif node.op == "inv":      # the inverse's block s + deg inverts block s
                        step += (_shifted(m, -node.args[0].deg),)
                    self.steps.append(step)
            products = [node for node in nodes if node.op == "mm"]
            if products:
                lo = len(slot)
                for node in products:
                    slot[node] = len(slot)
                left = [slot[p.args[0]] * m + np.arange(m) for p in products]
                right = [slot[p.args[1]] * m + _shifted(m, p.args[0].deg) for p in products]
                idx = np.concatenate(left + right)
                idx.setflags(write=False)
                self.steps.append(("mm", idx, lo * m, len(slot) * m))
                gather = max(gather, len(idx))
        self.slots, self.gather = len(slot), gather
        self.out = np.array([slot[node] for node in outputs])
        self.out.setflags(write=False)
        self.degrees = tuple(node.deg for node in outputs)
        self.eye = np.eye(n)
        self.eye.setflags(write=False)

    def workspace(self) -> tuple:
        """A fresh (workspace, its (slots m, n, n) view, gather buffer) for run."""
        work = np.empty((self.slots, self.m, self.n, self.n), dtype=complex)
        work[self.ones] = self.eye
        flat = work.reshape(-1, self.n, self.n)
        return work, flat, np.empty((self.gather, self.n, self.n), dtype=complex)

    def run(self, ws: tuple, eta, out: np.ndarray) -> None:
        """Write the field at the state in workspace slots 0 and 1 into out (2, m, n, n).

        take writes into its out without a buffer only in a mode other than
        "raise"; every index here is in range, so "clip" changes nothing else.
        """
        work, flat, gather = ws
        for step in self.steps:
            op = step[0]
            if op == "mm":
                _, idx, lo, hi = step
                both = flat.take(idx, axis=0, out=gather[:len(idx)], mode="clip")
                np.matmul(both[:hi - lo], both[hi - lo:], out=flat[lo:hi])
            elif op == "test":
                _require_invertible(work[step[1]])
            elif op == "inv":
                np.linalg.inv(work[step[1]]).take(step[3], axis=0, out=work[step[2]],
                                                  mode="clip")
            elif op == "neg":
                np.negative(work[step[1]], out=work[step[2]])
            elif op == "add":
                np.add(work[step[1]], work[step[2]], out=work[step[3]])
            elif op == "add1":
                np.add(work[step[1]], self.eye, out=work[step[2]])
            else:       # scale
                np.multiply(eta if step[3] > 0 else -eta, work[step[1]], out=work[step[2]])
        work.take(self.out, axis=0, out=out, mode="clip")


@lru_cache(maxsize=64)
def _plan(hamiltonian: str, k: int, m: int, n: int, eta_is_zero: bool) -> _Plan:
    """The plan of one field, traced at eta = 0 or with eta a placeholder."""
    vf, deg = _FIELDS[hamiltonian]
    trace = []
    X = _Node(trace, m, "state", (), 1)
    M = _Node(trace, m, "state", (), deg)
    return _Plan(trace, vf(X, M, k, 0 if eta_is_zero else _Eta()), m, n)


def _field(hamiltonian: str, X: CycleMatrix, M: CycleMatrix, k: int, eta):
    """(dX, dM) of one field on CycleMatrix states, evaluated through its plan."""
    m, n = X.blocks.shape[:2]
    plan = _plan(hamiltonian, k, m, n, eta == 0)
    ws = plan.workspace()
    ws[0][0], ws[0][1] = X.blocks, M.blocks
    out = np.empty((2, m, n, n), dtype=complex)
    plan.run(ws, eta, out)
    return CycleMatrix(plan.degrees[0], out[0]), CycleMatrix(plan.degrees[1], out[1])


def _vf_Z(X, Z, k, eta):
    return _field("trZ", X, Z, k, eta)


def _vf_Y(X, Y, k, eta):
    return _field("trY", X, Y, k, eta)


def _vf_T(X, U, k, eta):
    return _field("trT", X, U, k, eta)


@dataclass
class Trajectory:
    """Sampled oracle trajectory; points indexed in step order."""

    times: list = field(default_factory=list)
    points: list = field(default_factory=list)

    def append(self, t, point):
        self.times.append(t)
        self.points.append(point)

    @property
    def endpoint(self) -> RepPoint:
        return self.points[-1]


def ode_oracle(point: RepPoint, flow: FlowSpec, params: ParameterSet | None = None,
               samples: int = 10) -> Trajectory:
    """Integrate the flow vector field with classical RK4; V, W stay constant.

    Returns the sampled trajectory; raises SingularFactor with the partial
    trajectory attached (args[1]) if an inverse fails mid-run, in a vector
    field or while a sampled state is rebuilt into a point, or if a vector
    field overflows or produces an invalid value.  The eta-terms
    are evaluated only when flow.eta != 0; the matrix whose inverse defines
    Theta is tested at every eta, so that an eta = 0 run stops where Theta
    stops being defined, as it would if the eta-terms were evaluated and
    multiplied by 0.
    """
    spec = point.spec
    if flow.hamiltonian in ("trZ", "trY") and flow.k % spec.m:
        raise ValueError("trZ/trY flows need m | k")
    X = CycleMatrix.of_letters("x", point.X)
    if flow.hamiltonian == "trZ":
        if point.Z is None:
            raise SingularFactor("oracle for tr Z^k needs invertible X")
        M = CycleMatrix.of_letters("z", point.Z)
        rebuild = lambda X, M: _point_with_XZ(point, X.letters("x"), M.letters("z"))
    elif flow.hamiltonian == "trY":
        M = CycleMatrix.of_letters("y", point.Y)
        rebuild = lambda X, M: RepPoint.make(spec, X.letters("x"), M.letters("y"),
                                             point.V, point.W)
    else:
        M = 1 + X @ CycleMatrix.of_letters("y", point.Y)
        rebuild = lambda X, M: _point_with_XT(point, X.letters("x"), M.blocks)
    plan = _plan(flow.hamiltonian, flow.k, spec.m, spec.n, flow.eta == 0)
    ws = plan.workspace()
    stage = ws[0][:2]                       # the state a field evaluation reads
    state = np.stack([X.blocks, M.blocks])
    slopes = np.empty((4,) + state.shape, dtype=complex)

    h = flow.time / flow.steps
    stride = max(1, flow.steps // samples)
    traj = Trajectory()
    traj.append(0.0, point)
    for step in range(1, flow.steps + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                np.copyto(stage, state)
                plan.run(ws, flow.eta, slopes[0])
                for i, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
                    np.add(state, np.multiply(c, slopes[i - 1], out=stage), out=stage)
                    plan.run(ws, flow.eta, slopes[i])
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            err = SingularFactor(f"oracle singular at step {step}", traj)
            raise err from exc
        np.multiply(2, slopes[1:3], out=slopes[1:3])
        state = state + (h / 6.0) * (slopes[0] + slopes[1] + slopes[2] + slopes[3])
        if step % stride == 0 or step == flow.steps:
            try:
                sample = rebuild(CycleMatrix(X.deg, state[0]), CycleMatrix(M.deg, state[1]))
            except (np.linalg.LinAlgError, SingularFactor) as exc:
                err = SingularFactor(f"oracle state has a singular X block at step {step}", traj)
                raise err from exc
            traj.append(step * h, sample)
    return traj


def closed_form_flow(point: RepPoint, flow: FlowSpec) -> RepPoint:
    """Dispatch the closed-form flow matching the oracle's Hamiltonian at eta = 0."""
    if flow.eta != 0:
        raise ValueError("closed forms exist only at eta = 0")
    if flow.hamiltonian == "trZ":
        return flow_Z(point, flow.k, flow.time)
    if flow.hamiltonian == "trY":
        return flow_Y(point, flow.k, flow.time)
    return flow_T(point, flow.k, flow.time)


def conservation_report(point: RepPoint, flow: FlowSpec, observables: dict,
                        params: ParameterSet | None = None,
                        samples: int = 10) -> dict:
    """Evaluate named observables along the oracle trajectory; report max drift.

    observables maps name -> callable(RepPoint) -> complex/float.  The report
    holds per-name initial value, max absolute drift, and relative drift.
    """
    traj = ode_oracle(point, flow, params, samples=samples)
    report = {}
    for name, fn in observables.items():
        series = [complex(fn(p)) for p in traj.points]
        base = series[0]
        drift = max(abs(v - base) for v in series)
        report[name] = {
            "initial": base,
            "max_drift": drift,
            "rel_drift": drift / max(1.0, abs(base)),
        }
    return report
