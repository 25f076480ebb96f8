"""Explicit Hamiltonian flows and a fixed-step RK4 oracle.

The three integrable flows admit closed forms on the cycle matrices:

    tr Z^k:        X(t) = X(0) exp(-t Z^k),          Z, V, W constant
    tr Y^k:        X(t) = X(0) exp(-t Y^k) + Y^(-1)(exp(-t Y^k) - 1),   Y const
    tr (1+XY)^k:   X(t) = exp(-t T^k) X(0),          T = 1 + XY constant

all with d/dt normalized as (1/k) {tr U^k, -}.  HAMILTONIANS maps each flow
to the cycle kind of its U, its RK4 field and its closed form, and
points.cycle_matrix and point_with_cycle turn a point into X and U and back.
The flow conserves the family (1 + eta Theta^(+-1)) U with U of that kind
(families.FAMILY_KIND).  Z and Y have degree -1, so tr Z^k and tr Y^k vanish
unless m | k (points.cycle_period).  The exponents have cyclic
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
each; a product with U^0 = 1 is not taken.  Each call of the oracle binds
these steps to its workspace once, so a field evaluation only runs the bound
calls.  The trajectories are bit-identical to evaluating the fields product
by product on CycleMatrix states: each product keeps its operands and
association, a batched matmul multiplies each n x n block as a single one
does, the identity gives finite entries back, and the elementwise
operations act on each entry alone.

Each vector field evaluates its eta-terms (Theta or Theta^(-1), the shift
1 + eta Theta and the eta-weighted part of dX) only when eta != 0.  The
matrix whose inverse defines Theta (ZX, 1 + YX, or X and U) is tested at
every eta all the same, because that is the oracle's domain test: at eta = 0
too, a trajectory that leaves the locus where Theta is defined stops there
with SingularFactor instead of running on.  At eta != 0 the field's own
inverse is the test.  At eta = 0 the inverse itself is unused, so the test
is an LU factorization alone (_require_invertible), run once per RK4 step
over the tested blocks of all four stages.  A singular stage then only feeds
products into the later stages, which either overflow or reach the test, so
every step stops where a per-stage test would stop it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .cyclic import CycleMatrix, _shifted, power_by_squaring
from .errors import SingularFactor
from .params import ParameterSet
from .points import CYCLE_DEGREE, RepPoint, cycle_matrix, cycle_period, point_with_cycle

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
    """Which flow to run: a hamiltonian of HAMILTONIANS, power k, spectral eta."""

    hamiltonian: str
    k: int
    time: complex
    eta: complex = 0.0
    steps: int = 100

    def __post_init__(self):
        if self.hamiltonian not in HAMILTONIANS:
            raise ValueError(f"hamiltonian must be one of {', '.join(HAMILTONIANS)}")
        if self.k < 1:
            raise ValueError("power k must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def flow_Z(point: RepPoint, k: int, time: complex) -> RepPoint:
    """Closed-form flow of tr Z^k (k a multiple of m); Z, V, W exactly constant.

    Raises SingularX where Z is undefined, and SingularFactor where an X
    block of the endpoint is singular, so that Y = Z - X^(-1) is undefined.
    """
    if k % cycle_period("z", point.spec.m):
        raise ValueError("tr Z^k flows need m | k")
    X, Z = cycle_matrix(point, "x"), cycle_matrix(point, "z")
    Xt = X @ (-time * Z.power(k)).map(expm)
    return point_with_cycle(point, Xt, Z, "z")


def flow_Y(point: RepPoint, k: int, time: complex) -> RepPoint:
    """Closed-form flow of tr Y^k (k a multiple of m); Y, V, W exactly constant."""
    if k % cycle_period("y", point.spec.m):
        raise ValueError("tr Y^k flows need m | k")
    X, Y = cycle_matrix(point, "x"), cycle_matrix(point, "y")
    A = -time * Y.power(k)
    # Y^(-1)(E - 1) = -time * Y^(k-1) phi1(A), no inversion needed
    Xt = X @ A.map(expm) - time * Y.power(k - 1) @ A.map(phi1)
    return point_with_cycle(point, Xt, Y, "y")


def flow_T(point: RepPoint, k: int, time: complex) -> RepPoint:
    """Closed-form flow of tr (1+XY)^k; T, V, W exactly constant."""
    X, T = cycle_matrix(point, "x"), cycle_matrix(point, "t")
    Xt = (-time * T.power(k)).map(expm) @ X
    return point_with_cycle(point, Xt, T, "t")


# -- RK4 oracle ---------------------------------------------------------------
#
# The fields act on cycle matrices: X of degree +1, Z and Y of degree -1,
# U = 1 + XY of degree 0.  Each field is written once, below, as the
# products, inverses and sums it takes.  _plan traces it on _Node
# placeholders, _Plan.workspace binds what the trace recorded to one
# workspace stack, and _Plan.run evaluates it there, level by level.

def _require_invertible(blocks: np.ndarray) -> None:
    """Raise LinAlgError exactly where inv(blocks) would: some block has an exact zero pivot.

    slogdet runs the same LU factorization as inv and reports sign 0 for an
    exact zero pivot; a non-finite block gives sign nan, which passes here
    as it does in inv.  Floating-point flags are ignored, as inv ignores them.
    The oracle calls it once per RK4 step, on the tested blocks of all four
    stages in one (4, tested, m, n, n) stack.
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


Hamiltonian = namedtuple("Hamiltonian", "kind field closed_form")
HAMILTONIANS = {"trZ": Hamiltonian("z", _field_Z, flow_Z),
                "trY": Hamiltonian("y", _field_Y, flow_Y),
                "trT": Hamiltonian("t", _field_T, flow_T)}


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
        if self.op == "one":        # U^0 = 1, so the product is the other operand
            return other
        if other.op == "one":
            return self
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
    """Record the nodes whose blocks the oracle's per-step domain test checks."""
    nodes[0]._new("test", nodes, 0)


class _Plan:
    """A traced field's steps grouped by dependency level, on one workspace stack.

    The workspace has one (m, n, n) slot per traced value: slot 0 holds X,
    slot 1 the second state matrix.  Within a level, inverses and
    elementwise steps run first, one call each, then the level's products:
    these sit in consecutive slots, so one take gathers their left blocks
    and their right blocks shifted by the left degree (as
    CycleMatrix.__matmul__ shifts them), and one matmul writes them all.
    Domain tests are not run here: the plan records the slots they name in
    tested, and run copies those blocks out for the caller, which tests all
    four RK4 stages' copies in one _require_invertible call per step.
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
        self.steps, tested, gather = [], [], 0
        for lev in range(1, max(level.values()) + 1):
            nodes = [node for node in trace if level[node] == lev]
            for node in nodes:
                args = [slot[a] for a in node.args]
                if node.op == "test":
                    tested += args
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
        self.tested = np.array(tested, dtype=np.intp)
        for idx in (self.out, self.tested):
            idx.setflags(write=False)
        self.degrees = tuple(node.deg for node in outputs)
        self.eye = np.eye(n)
        self.eye.setflags(write=False)

    def workspace(self, eta) -> tuple:
        """A fresh (workspace, the plan's steps bound to it and to eta) for run.

        take writes into its out without a buffer only in a mode other than
        "raise"; every index here is in range, so "clip" changes nothing else.
        """
        n = self.n
        work = np.empty((self.slots, self.m, n, n), dtype=complex)
        work[self.ones] = self.eye
        flat = work.reshape(-1, n, n)
        gather = np.empty((self.gather, n, n), dtype=complex)
        calls = []
        for op, *args in self.steps:
            if op == "mm":
                idx, lo, hi = args
                both = gather[:len(idx)]
                calls += [partial(flat.take, idx, axis=0, out=both, mode="clip"),
                          partial(np.matmul, both[:hi - lo], both[hi - lo:], out=flat[lo:hi])]
            elif op == "inv":
                calls.append(partial(_inverse_into, work[args[0]], args[2], work[args[1]]))
            elif op == "neg":
                calls.append(partial(np.negative, work[args[0]], out=work[args[1]]))
            elif op == "add":
                calls.append(partial(np.add, work[args[0]], work[args[1]], out=work[args[2]]))
            elif op == "add1":
                calls.append(partial(np.add, work[args[0]], self.eye, out=work[args[1]]))
            else:       # scale
                calls.append(partial(np.multiply, eta if args[2] > 0 else -eta,
                                     work[args[0]], out=work[args[1]]))
        return work, calls

    def run(self, ws: tuple, out: np.ndarray, tested: np.ndarray) -> None:
        """Write the field at the state in workspace slots 0 and 1 into out (2, m, n, n),
        and the blocks its domain test names into tested (len(self.tested), m, n, n)."""
        work, calls = ws
        for call in calls:
            call()
        work.take(self.out, axis=0, out=out, mode="clip")
        if self.tested.size:
            work.take(self.tested, axis=0, out=tested, mode="clip")


def _inverse_into(blocks: np.ndarray, shift: np.ndarray, out: np.ndarray) -> None:
    """Write the blocks of a value's inverse into out, as CycleMatrix.inv orders them."""
    np.linalg.inv(blocks).take(shift, axis=0, out=out, mode="clip")


@lru_cache(maxsize=64)
def _plan(hamiltonian: str, k: int, m: int, n: int, eta_is_zero: bool) -> _Plan:
    """The plan of one field, traced at eta = 0 or with eta a placeholder."""
    ham = HAMILTONIANS[hamiltonian]
    trace = []
    X = _Node(trace, m, "state", (), 1)
    M = _Node(trace, m, "state", (), CYCLE_DEGREE[ham.kind])
    return _Plan(trace, ham.field(X, M, k, 0 if eta_is_zero else _Eta()), m, n)


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
    multiplied by 0.  At eta = 0 that test runs once per step, after the
    fourth stage, on the tested blocks of all four stages.
    """
    spec = point.spec
    if samples < 1:
        raise ValueError("samples must be >= 1")
    kind = HAMILTONIANS[flow.hamiltonian].kind
    if flow.k % cycle_period(kind, spec.m):
        raise ValueError(f"{flow.hamiltonian} flows need m | k")
    X, M = cycle_matrix(point, "x"), cycle_matrix(point, kind)
    plan = _plan(flow.hamiltonian, flow.k, spec.m, spec.n, flow.eta == 0)
    ws = plan.workspace(flow.eta)
    stage = ws[0][:2]                       # the state a field evaluation reads
    state = np.stack([X.blocks, M.blocks])
    slopes = np.empty((4,) + state.shape, dtype=complex)
    tested = np.empty((4, len(plan.tested)) + state.shape[1:], dtype=complex)

    h = flow.time / flow.steps
    stride = max(1, flow.steps // samples)
    traj = Trajectory()
    traj.append(0.0, point)
    for step in range(1, flow.steps + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                np.copyto(stage, state)
                plan.run(ws, slopes[0], tested[0])
                for i, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
                    np.add(state, np.multiply(c, slopes[i - 1], out=stage), out=stage)
                    plan.run(ws, slopes[i], tested[i])
                if tested.size:
                    _require_invertible(tested)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            err = SingularFactor(f"oracle singular at step {step}", traj)
            raise err from exc
        np.multiply(2, slopes[1:3], out=slopes[1:3])
        state = state + (h / 6.0) * (slopes[0] + slopes[1] + slopes[2] + slopes[3])
        if step % stride == 0 or step == flow.steps:
            try:
                sample = point_with_cycle(point, CycleMatrix(X.deg, state[0]),
                                          CycleMatrix(M.deg, state[1]), kind)
            except (np.linalg.LinAlgError, SingularFactor) as exc:
                err = SingularFactor(f"oracle state has a singular X block at step {step}", traj)
                raise err from exc
            traj.append(step * h, sample)
    return traj


def closed_form_flow(point: RepPoint, flow: FlowSpec) -> RepPoint:
    """The closed-form flow of the oracle's Hamiltonian, at eta = 0."""
    if flow.eta != 0:
        raise ValueError("closed forms exist only at eta = 0")
    return HAMILTONIANS[flow.hamiltonian].closed_form(point, flow.k, flow.time)


def conservation_report(point: RepPoint, flow: FlowSpec, observables: dict,
                        params: ParameterSet | None = None,
                        samples: int = 10) -> dict:
    """Evaluate named observables along the oracle trajectory; report max drift.

    observables maps name -> callable(RepPoint) -> complex/float.  The report
    holds per-name initial value, max absolute drift, and relative drift.
    Raises ValueError, through ode_oracle, unless samples >= 1.
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
