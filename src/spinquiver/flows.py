"""Explicit Hamiltonian flows and a fixed-step RK4 oracle.

The three integrable flows admit closed forms on the total matrices:

    tr Z^k:        X(t) = X(0) exp(-t Z^k),          Z, V, W constant
    tr Y^k:        X(t) = X(0) exp(-t Y^k) + Y^(-1)(exp(-t Y^k) - 1),   Y const
    tr (1+XY)^k:   X(t) = exp(-t T^k) X(0),          T = 1 + XY constant

all with d/dt normalized as (1/k) {tr U^k, -}.  The analytic factor in the
second flow is evaluated through an augmented-block exponential, so Y need
not be invertible.  The oracle integrates the same vector fields (at general
spectral parameter) with classical RK4; it exists to cross-check the closed
forms and to drive conservation checks, not as a production integrator.

Each vector field evaluates its eta-terms (Theta or Theta^(-1), the shift
1 + eta Theta and the eta-weighted part of dX) only when eta != 0.  The
inverse that defines Theta (of ZX, of 1 + YX, or of X and U) is taken at
every eta all the same, because it is the oracle's domain test: at eta = 0
too, a trajectory that leaves the locus where Theta is defined stops there
with SingularFactor instead of running on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SingularFactor
from .params import ParameterSet
from .points import RepPoint, _readonly
from .families import cycle_blocks, total_matrices

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
    tm = total_matrices(point)
    if tm.Zt is None:
        raise SingularFactor("flow of tr Z^k needs invertible X")
    Xt = tm.Xt @ expm(-time * np.linalg.matrix_power(tm.Zt, k))
    return _point_with_XZ(point, cycle_blocks("x", Xt, m), list(point.Z))


def flow_Y(point: RepPoint, k: int, time: complex) -> RepPoint:
    """Closed-form flow of tr Y^k (k a multiple of m); Y, V, W exactly constant."""
    spec = point.spec
    m = spec.m
    if k % m:
        raise ValueError("tr Y^k flows need m | k")
    tm = total_matrices(point)
    A = -time * np.linalg.matrix_power(tm.Yt, k)
    E = expm(A)
    # Y^(-1)(E - 1) = -time * Y^(k-1) phi1(A), no inversion needed
    second = -time * np.linalg.matrix_power(tm.Yt, k - 1) @ phi1(A)
    Xt = tm.Xt @ E + second
    return RepPoint.make(spec, cycle_blocks("x", Xt, m), point.Y, point.V, point.W)


def flow_T(point: RepPoint, k: int, time: complex) -> RepPoint:
    """Closed-form flow of tr (1+XY)^k; T, V, W exactly constant."""
    spec = point.spec
    m, n = spec.m, spec.n
    tm = total_matrices(point)
    N = m * n
    T = np.eye(N) + tm.Xt @ tm.Yt
    Xt = expm(-time * np.linalg.matrix_power(T, k)) @ tm.Xt
    Xb = cycle_blocks("x", Xt, m)
    Tb = cycle_blocks("e", T, m)
    eye = np.eye(n)
    Yb = []
    for s in range(m):
        try:
            Yb.append(np.linalg.inv(Xb[s]) @ (Tb[s] - eye))
        except np.linalg.LinAlgError as exc:
            raise SingularFactor(f"X_{s} singular at flow endpoint") from exc
    return RepPoint.make(spec, Xb, Yb, point.V, point.W)


# -- RK4 oracle ---------------------------------------------------------------

def _vf_Z(Xt, Zt, k, eta):
    ZX_inv = np.linalg.inv(Zt @ Xt)         # Theta = XZ (ZX)^(-1) needs ZX invertible
    if eta == 0:
        Ukm1 = np.linalg.matrix_power(Zt, k - 1)
        dX = -(Xt @ Ukm1 @ Zt)
    else:
        Theta = Xt @ Zt @ ZX_inv
        U = Zt @ (np.eye(Xt.shape[0]) + eta * Theta)
        Ukm1 = np.linalg.matrix_power(U, k - 1)
        dX = -eta * (Theta @ Ukm1 @ Zt @ Xt) - Xt @ Ukm1 @ Zt
    dZ = -(Zt @ Ukm1 @ Zt) + Ukm1 @ Zt @ Zt
    return dX, dZ


def _vf_Y(Xt, Yt, k, eta):
    eye = np.eye(Xt.shape[0])
    W = eye + Yt @ Xt
    W_inv = np.linalg.inv(W)                # Theta = (1 + XY)(1 + YX)^(-1)
    if eta == 0:
        Ukm1 = np.linalg.matrix_power(Yt, k - 1)
        dX = -Ukm1 - Xt @ Ukm1 @ Yt
    else:
        Theta = (eye + Xt @ Yt) @ W_inv
        U = Yt @ (eye + eta * Theta)
        Ukm1 = np.linalg.matrix_power(U, k - 1)
        dX = -Ukm1 - Xt @ Ukm1 @ Yt - eta * (Theta @ Ukm1 @ W)
    dY = -(Yt @ Ukm1 @ Yt) + Ukm1 @ Yt @ Yt
    return dX, dY


def _vf_T(Xt, Ut, k, eta):
    Xinv = np.linalg.inv(Xt)                # Theta^(-1) = X^(-1) U X U^(-1)
    Uinv = np.linalg.inv(Ut)
    if eta == 0:
        Ukm1 = np.linalg.matrix_power(Ut, k - 1)
        dX = -(Ukm1 @ Ut @ Xt)
    else:
        Theta_inv = Xinv @ Ut @ Xt @ Uinv
        U_eta = Ut @ (np.eye(Xt.shape[0]) + eta * Theta_inv)
        Ukm1 = np.linalg.matrix_power(U_eta, k - 1)
        dX = -(Ukm1 @ Ut @ Xt) - eta * (Xt @ Theta_inv @ Ukm1 @ Ut)
    dU = -(Ukm1 @ Ut @ Ut) + Ut @ Ukm1 @ Ut
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
    are evaluated only when flow.eta != 0; the inverse that defines Theta is
    taken at every eta, so that an eta = 0 run stops where Theta stops being
    defined, as it would if the eta-terms were evaluated and multiplied by 0.
    """
    spec = point.spec
    m, n = spec.m, spec.n
    if flow.hamiltonian in ("trZ", "trY") and flow.k % m:
        raise ValueError("trZ/trY flows need m | k")
    tm = total_matrices(point)
    if flow.hamiltonian == "trZ":
        if tm.Zt is None:
            raise SingularFactor("oracle for tr Z^k needs invertible X")
        state = (tm.Xt.copy(), tm.Zt.copy())
        vf = lambda X, M: _vf_Z(X, M, flow.k, flow.eta)
        rebuild = lambda X, M: _point_with_XZ(
            point, cycle_blocks("x", X, m), cycle_blocks("z", M, m))
    elif flow.hamiltonian == "trY":
        state = (tm.Xt.copy(), tm.Yt.copy())
        vf = lambda X, M: _vf_Y(X, M, flow.k, flow.eta)
        rebuild = lambda X, M: RepPoint.make(
            spec, cycle_blocks("x", X, m), cycle_blocks("y", M, m), point.V, point.W)
    else:
        U0 = np.eye(m * n, dtype=complex) + tm.Xt @ tm.Yt
        state = (tm.Xt.copy(), U0)

        def rebuild_T(X, U):
            Xb = cycle_blocks("x", X, m)
            eye = np.eye(n)
            Yb = [np.linalg.inv(xb) @ (ub - eye) for xb, ub in zip(Xb, cycle_blocks("e", U, m))]
            return RepPoint.make(spec, Xb, Yb, point.V, point.W)

        vf = lambda X, M: _vf_T(X, M, flow.k, flow.eta)
        rebuild = rebuild_T

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
