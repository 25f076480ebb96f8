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

The oracle's state is one (2, m, n, n) stack, the blocks of X and of M, the
conserved matrix Z, Y or U = 1 + XY, so each RK4 stage combination and the
update are one array operation.  Each vector field is written once, on cycle
matrices, and traced into a plan cached per (hamiltonian, k, m, n, eta == 0):
the products it takes, in their association (CycleMatrix.power's squaring
order included), grouped by dependency level.  Tracing takes two exact
shortcuts: a step the field takes twice on the same operands is taken once
(trT's U @ U at k = 1), and a single-use x + (-y) is taken as x - y, which
IEEE arithmetic defines as that sum.  A level's products are one take,
which gathers their blocks with precomputed shift indices, and one matmul;
inverses, the shift 1 + eta Theta and the sums are one call each; a product
with U^0 = 1 is not taken.

Each call of the oracle binds these steps once to its own workspace, which
holds one stack of slots per RK4 stage: a stage reads its state from two
slots and writes dX and dM into two fixed slots, so the four slopes are one
view.  The trajectories are bit-identical to evaluating the fields product
by product on CycleMatrix states: each product keeps its operands and
association, a batched matmul multiplies each n x n block as a single one
does, the identity gives finite entries back, and the elementwise operations
act on each entry alone.  Neither dM nor M's work is folded symbolically
(dU = U@U - U@U is 0 in exact arithmetic) or hoisted out of the step loop:
either would change the trajectories in their last bits.

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

from collections import Counter, namedtuple
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
# placeholders, _Plan orders what the trace recorded into steps, and a
# _Workspace binds those steps to one call's workspace and runs them there.

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

    The trace maps each step (op, operands, sign) to the node it makes, in
    the order the field computes them, after the values they read.  A step
    the trace already holds gives its node back: the same op on the same
    operands gives the same bits, so trT's U @ U at k = 1 is taken once.  A
    value the outputs do not need is still computed, as an eager evaluation
    would.
    """

    __slots__ = ("trace", "m", "op", "args", "deg", "sign")

    def __init__(self, trace: dict, m: int, op: str, args: tuple, deg: int, sign=None):
        self.trace, self.m, self.op, self.args = trace, m, op, args
        self.deg, self.sign = deg % m, sign

    def _new(self, op, args, deg, sign=None) -> "_Node":
        key = (op, args, sign)
        if key not in self.trace:
            self.trace[key] = _Node(self.trace, self.m, op, args, deg, sign)
        return self.trace[key]

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
    """A traced field's steps grouped by dependency level, on one stack of slots.

    Each (m, n, n) slot holds one traced value: slot 0 holds X, slot 1 the
    second state matrix M, and the field's dX and dM are written into slots
    2 and 3.  A single-use negation that is added, x + (-y) or (-y) + x, is
    taken as x - y, which IEEE arithmetic defines as that sum.  Within a
    level, inverses and elementwise steps run first, one call each, then the
    level's products: these sit in consecutive slots, so one take gathers
    their left blocks and their right blocks shifted by the left degree (as
    CycleMatrix.__matmul__ shifts them), and one matmul writes them all.
    Domain tests are not steps: the plan records the slots they name in
    tested, and _Workspace.test checks them once per RK4 step.  The plan
    holds read-only index arrays only; each oracle call owns a workspace.
    """

    def __init__(self, trace: dict, outputs: tuple, m: int, n: int):
        self.m, self.n = m, n
        nodes = list(trace.values())        # X and M first
        uses = Counter(a for node in nodes for a in node.args) + Counter(outputs)
        folded = set()
        for node in nodes:
            for x, y in (node.args, node.args[::-1]) if node.op == "add" else ():
                if y.op == "neg" and uses[y] == 1:
                    node.op, node.args = "sub", (x, y.args[0])
                    folded.add(y)
                    break
        nodes = [node for node in nodes if node not in folded]
        level = {}
        for node in nodes:
            level[node] = 1 + max((level[a] for a in node.args), default=-1)
        if outputs[0] is outputs[1] or any(level[node] == 0 or node.op == "mm"
                                           for node in outputs):
            raise ValueError("a field's dX and dM must be two values that are not products")
        slot = {nodes[0]: 0, nodes[1]: 1, outputs[0]: 2, outputs[1]: 3}
        for node in nodes:
            if level[node] == 0:            # the identities
                slot.setdefault(node, len(slot))
        self.ones = [slot[node] for node in nodes if node.op == "one"]
        self.steps, tested, self.gather = [], [], 0
        for lev in range(1, max(level.values()) + 1):
            at = [node for node in nodes if level[node] == lev]
            for node in at:
                args = [slot[a] for a in node.args]
                if node.op == "test":
                    tested += node.args
                elif node.op != "mm":
                    step = (node.op, *args, slot.setdefault(node, len(slot)))
                    if node.op == "scale":
                        step += (node.sign,)
                    elif node.op == "inv":      # the inverse's block s + deg inverts block s
                        step += (_shifted(m, -node.args[0].deg),)
                    self.steps.append(step)
            products = [node for node in at if node.op == "mm"]
            if products:
                lo = len(slot)
                for node in products:
                    slot[node] = len(slot)
                self.steps.append(self._products(products, slot, lo))
        self.slots = len(slot)
        self.tested = np.array([slot[node] for node in tested], dtype=np.intp)
        self.tested.setflags(write=False)
        self.degrees = tuple(node.deg for node in outputs)
        self.eye = np.eye(n)
        self.eye.setflags(write=False)

    def _products(self, products: list, slot: dict, lo: int) -> tuple:
        """The step taking products, whose slots run from lo: its gather index and flat range."""
        m = self.m
        left = [slot[p.args[0]] * m + np.arange(m) for p in products]
        right = [slot[p.args[1]] * m + _shifted(m, p.args[0].deg) for p in products]
        idx = np.concatenate(left + right)
        idx.setflags(write=False)
        self.gather = max(self.gather, len(idx))
        return ("mm", idx, lo * m, (lo + len(products)) * m)

    def bind(self, work: np.ndarray, gather: np.ndarray, eta) -> list:
        """The steps bound to one stage's slots work (slots, m, n, n), gather buffer and eta.

        Every out is passed by position, which spares each call a keyword
        merge.  take writes into its out without a buffer only in a mode
        other than "raise"; every index here is in range, so "clip" changes
        nothing else.
        """
        flat = work.reshape(-1, self.n, self.n)
        calls = []
        for op, *args in self.steps:
            if op == "mm":
                idx, lo, hi = args
                both = gather[:len(idx)]
                calls += [partial(flat.take, idx, 0, both, "clip"),
                          partial(np.matmul, both[:hi - lo], both[hi - lo:], flat[lo:hi])]
            elif op == "inv":
                calls.append(partial(_inverse_into, work[args[0]], args[2], work[args[1]]))
            elif op == "neg":
                calls.append(partial(np.negative, work[args[0]], work[args[1]]))
            elif op in ("add", "sub"):
                ufunc = np.add if op == "add" else np.subtract
                calls.append(partial(ufunc, work[args[0]], work[args[1]], work[args[2]]))
            elif op == "add1":
                calls.append(partial(np.add, work[args[0]], self.eye, work[args[1]]))
            else:       # scale
                calls.append(partial(np.multiply, eta if args[2] > 0 else -eta,
                                     work[args[0]], work[args[1]]))
        return calls

    def evaluate(self, X: np.ndarray, M: np.ndarray, eta) -> np.ndarray:
        """The field at one state, dX and dM in one (2, m, n, n) stack, after its domain test."""
        ws = _Workspace(self, eta, stages=1)
        ws.work[0, 0], ws.work[0, 1] = X, M
        ws.run(0)
        ws.test()
        return ws.slopes[0]


class _Workspace:
    """One oracle call's workspace: a stack of the plan's slots per RK4 stage.

    Stage i reads its state from its slots 0 and 1 and leaves its slope in
    slots 2 and 3, so the stages' slopes are the view slopes.
    """

    def __init__(self, plan: _Plan, eta, stages: int = 4):
        m, n = plan.m, plan.n
        self.plan = plan
        self.work = np.empty((stages, plan.slots, m, n, n), dtype=complex)
        self.work[:, plan.ones] = plan.eye
        self.states, self.slopes = list(self.work[:, :2]), self.work[:, 2:4]
        gather = np.empty((plan.gather, n, n), dtype=complex)
        self.calls = [plan.bind(work, gather, eta) for work in self.work]

    def run(self, stage: int) -> None:
        """Write the field at the stage's state into its slope."""
        for call in self.calls[stage]:
            call()

    def test(self) -> None:
        """The domain test of one step: the tested blocks of every stage."""
        if self.plan.tested.size:
            _require_invertible(self.work.take(self.plan.tested, 1))


def _inverse_into(blocks: np.ndarray, shift: np.ndarray, out: np.ndarray) -> None:
    """Write the blocks of a value's inverse into out, as CycleMatrix.inv orders them."""
    np.linalg.inv(blocks).take(shift, axis=0, out=out, mode="clip")


@lru_cache(maxsize=64)
def _plan(hamiltonian: str, k: int, m: int, n: int, eta_is_zero: bool) -> _Plan:
    """The plan of one field, traced at eta = 0 or with eta a placeholder."""
    ham = HAMILTONIANS[hamiltonian]
    trace = {}
    X = trace["X"] = _Node(trace, m, "state", (), 1)
    M = trace["M"] = _Node(trace, m, "state", (), CYCLE_DEGREE[ham.kind])
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
    ws = _Workspace(plan, flow.eta)
    stages, slopes = ws.states, list(ws.slopes)
    state = stages[0]                       # the first stage evaluates at the state itself
    state[0], state[1] = X.blocks, M.blocks
    total = np.empty_like(state)

    h = flow.time / flow.steps
    stride = max(1, flow.steps // samples)
    traj = Trajectory()
    traj.append(0.0, point)
    for step in range(1, flow.steps + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                ws.run(0)
                for i, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
                    np.add(state, np.multiply(c, slopes[i - 1], stages[i]), stages[i])
                    ws.run(i)
                ws.test()
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            err = SingularFactor(f"oracle singular at step {step}", traj)
            raise err from exc
        # state + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(2, ws.slopes[1:3], ws.slopes[1:3])
        np.add(slopes[0], slopes[1], total)
        np.add(total, slopes[2], total)
        np.add(total, slopes[3], total)
        np.multiply(h / 6.0, total, total)
        np.add(state, total, state)
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
