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
classical RK4 on CycleMatrix states; it exists to cross-check the closed
forms and to drive conservation checks, not as a production integrator.

Each vector field evaluates its eta-terms (Theta or Theta^(-1), the shift
1 + eta Theta and the eta-weighted part of dX) only when eta != 0.  The
matrix whose inverse defines Theta (ZX, 1 + YX, or X and U) is tested at
every eta all the same, because that is the oracle's domain test: at eta = 0
too, a trajectory that leaves the locus where Theta is defined stops there
with SingularFactor instead of running on.  At eta = 0 the inverse itself is
unused, so the test is an LU factorization alone (_require_invertible).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cyclic import CycleMatrix
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
# The fields act on CycleMatrix states: X of degree +1, Z and Y of degree -1,
# U = 1 + XY of degree 0.

def _require_invertible(M: CycleMatrix) -> None:
    """Raise LinAlgError exactly where M.inv() would: some block has an exact zero pivot.

    slogdet runs the same LU factorization as inv and reports sign 0 for an
    exact zero pivot; a non-finite block gives sign nan, which passes here
    as it does in inv.  Floating-point flags are ignored, as inv ignores them.
    """
    with np.errstate(all="ignore"):
        sign = np.linalg.slogdet(M.blocks)[0]
    if not sign.all():
        raise np.linalg.LinAlgError("Singular matrix")


def _vf_Z(X, Z, k, eta):
    ZX = Z @ X                              # Theta = XZ (ZX)^(-1) needs ZX invertible
    if eta == 0:
        _require_invertible(ZX)
        Ukm1 = Z.power(k - 1)
        dX = -(X @ Ukm1 @ Z)
    else:
        Theta = X @ Z @ ZX.inv()
        U = Z @ (1 + eta * Theta)
        Ukm1 = U.power(k - 1)
        dX = -eta * (Theta @ Ukm1 @ Z @ X) - X @ Ukm1 @ Z
    dZ = -(Z @ Ukm1 @ Z) + Ukm1 @ Z @ Z
    return dX, dZ


def _vf_Y(X, Y, k, eta):
    W = 1 + Y @ X                           # Theta = (1 + XY)(1 + YX)^(-1)
    if eta == 0:
        _require_invertible(W)
        Ukm1 = Y.power(k - 1)
        dX = -Ukm1 - X @ Ukm1 @ Y
    else:
        Theta = (1 + X @ Y) @ W.inv()
        U = Y @ (1 + eta * Theta)
        Ukm1 = U.power(k - 1)
        dX = -Ukm1 - X @ Ukm1 @ Y - eta * (Theta @ Ukm1 @ W)
    dY = -(Y @ Ukm1 @ Y) + Ukm1 @ Y @ Y
    return dX, dY


def _vf_T(X, U, k, eta):
    # Theta^(-1) = X^(-1) U X U^(-1) needs X and U invertible
    if eta == 0:
        _require_invertible(X)
        _require_invertible(U)
        Ukm1 = U.power(k - 1)
        dX = -(Ukm1 @ U @ X)
    else:
        Theta_inv = X.inv() @ U @ X @ U.inv()
        U_eta = U @ (1 + eta * Theta_inv)
        Ukm1 = U_eta.power(k - 1)
        dX = -(Ukm1 @ U @ X) - eta * (X @ Theta_inv @ Ukm1 @ U)
    dU = -(Ukm1 @ U @ U) + U @ Ukm1 @ U
    return dX, dU


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
        state = (X, CycleMatrix.of_letters("z", point.Z))
        rebuild = lambda X, M: _point_with_XZ(point, X.letters("x"), M.letters("z"))
    elif flow.hamiltonian == "trY":
        state = (X, CycleMatrix.of_letters("y", point.Y))
        rebuild = lambda X, M: RepPoint.make(spec, X.letters("x"), M.letters("y"),
                                             point.V, point.W)
    else:
        state = (X, 1 + X @ CycleMatrix.of_letters("y", point.Y))
        rebuild = lambda X, M: _point_with_XT(point, X.letters("x"), M.blocks)
    field = {"trZ": _vf_Z, "trY": _vf_Y, "trT": _vf_T}[flow.hamiltonian]
    vf = lambda X, M: field(X, M, flow.k, flow.eta)

    h = flow.time / flow.steps
    stride = max(1, flow.steps // samples)
    traj = Trajectory()
    traj.append(0.0, point)
    X, M = state
    for step in range(1, flow.steps + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                k1 = vf(X, M)
                k2 = vf(X + 0.5 * h * k1[0], M + 0.5 * h * k1[1])
                k3 = vf(X + 0.5 * h * k2[0], M + 0.5 * h * k2[1])
                k4 = vf(X + h * k3[0], M + h * k3[1])
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            err = SingularFactor(f"oracle singular at step {step}", traj)
            raise err from exc
        X = X + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        M = M + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if step % stride == 0 or step == flow.steps:
            try:
                sample = rebuild(X, M)
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
