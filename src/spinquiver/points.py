"""Concrete representation points of the multiplicative preprojective algebra.

A point is the block data (X_s, Y_s, V_a, W_a): m square matrices each way
around the cycle, and d row/column vectors for the framing arrows at vertex 0.
Points are built either directly from matrices or from the local spin
Ruijsenaars-Schneider coordinates (x, a, c) through the diagonal normal form,
in which case the multiplicative moment conditions hold by construction.

Every matrix inverse that can fail at a point goes through inverse, which
turns numpy's LinAlgError into the caller's typed error; only four
primitives call np.linalg.inv directly, because their LinAlgError is part of
their contract: RepPoint.make (a singular X leaves Z None), CycleMatrix.inv
and flows._inverse_into (their callers catch it) and flows.expm (it falls
back to Pade).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cyclic import CycleMatrix
from .errors import (Degenerate, RegularityViolation, SamplingExhausted,
                     SingularFactor, SingularGauge, SingularX)
from .params import ModelSpec, ParameterSet

_DET_TOL = 1e-12
_QUAD_TOL = 1e-9    # relative residual reduced_quadruple allows in its commutation identity


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def inverse(mat: np.ndarray, error: type, what: str) -> np.ndarray:
    """np.linalg.inv(mat), or error(what) raised from numpy's LinAlgError.

    On an (m, n, n) stack, {s} in what names the first block inv rejects:
    the first with an exact zero pivot, which slogdet reports as sign 0.
    """
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        if np.ndim(mat) == 3:
            with np.errstate(all="ignore"):
                sign = np.linalg.slogdet(mat)[0]
            what = what.format(s=int(np.argmax(sign == 0)))
        raise error(what) from exc


def _det_ok(mat: np.ndarray) -> bool:
    n = mat.shape[0]
    scale = max(1.0, np.linalg.norm(mat)) ** n
    return abs(np.linalg.det(mat)) > _DET_TOL * scale


@dataclass(frozen=True)
class RepPoint:
    """Immutable block data of one quiver representation.

    X[s] is n x n for the arrow s -> s+1, Y[s] for the reversed arrow,
    V[a] is a 1 x n row (framing vertex to 0), W[a] an n x 1 column.
    Z[s] = Y[s] + X[s]^(-1) is cached at construction when X is invertible
    (make keeps a Z it is given), otherwise Z is None.
    """

    spec: ModelSpec
    X: tuple
    Y: tuple
    V: tuple
    W: tuple
    Z: tuple | None = None

    @staticmethod
    def make(spec: ModelSpec, X, Y, V, W, Z=None) -> "RepPoint":
        X = tuple(_readonly(x) for x in X)
        Y = tuple(_readonly(y) for y in Y)
        V = tuple(_readonly(np.atleast_2d(v)) for v in V)
        W = tuple(_readonly(np.asarray(w).reshape(spec.n, 1)) for w in W)
        if len(X) != spec.m or len(Y) != spec.m:
            raise ValueError("need m cycle matrices each way")
        if len(V) != spec.d or len(W) != spec.d:
            raise ValueError("need d framing vectors each way")
        for mat in X + Y:
            if mat.shape != (spec.n, spec.n):
                raise ValueError("cycle blocks must be n x n")
        for v in V:
            if v.shape != (1, spec.n):
                raise ValueError("V blocks must be 1 x n rows")
        if Z is None:
            try:
                Z = np.stack(Y) + np.linalg.inv(np.stack(X))
            except np.linalg.LinAlgError:
                return RepPoint(spec=spec, X=X, Y=Y, V=V, W=W)
        return RepPoint(spec=spec, X=X, Y=Y, V=V, W=W, Z=tuple(_readonly(z) for z in Z))

    def validate(self) -> None:
        """Check the invertibility invariants; raise Degenerate on failure."""
        n = self.spec.n
        eye = np.eye(n)
        for s in range(self.spec.m):
            if not _det_ok(eye + self.X[s] @ self.Y[s]):
                raise Degenerate(f"Id + X_{s} Y_{s} is singular")
            if not _det_ok(eye + self.Y[s] @ self.X[s]):
                raise Degenerate(f"Id + Y_{s} X_{s} is singular")
        for a in range(self.spec.d):
            if not _det_ok(eye + self.W[a] @ self.V[a]):
                raise Degenerate(f"Id + W_{a + 1} V_{a + 1} is singular")
            if abs(1.0 + complex((self.V[a] @ self.W[a])[0, 0])) <= _DET_TOL:
                raise Degenerate(f"1 + V_{a + 1} W_{a + 1} vanishes")

    def require_Z(self) -> tuple:
        if self.Z is None:
            raise SingularX("some X_s is not invertible; Z is undefined")
        return self.Z

    def norm_scale(self) -> float:
        """Magnitude scale of the point, used to normalize residual tolerances."""
        vals = [np.linalg.norm(b) for b in self.X + self.Y + self.V + self.W]
        return max(1.0, max(vals))


# the cyclic degree of each kind of cycle matrix: x, y, z and t = 1 + XY
CYCLE_DEGREE = {"x": 1, "y": -1, "z": -1, "t": 0}


def cycle_period(kind: str, m: int) -> int:
    """The m | k rule: tr U^k of a U of this kind vanishes unless k is a multiple of this."""
    return m if CYCLE_DEGREE[kind] else 1


def cycle_matrix(point: RepPoint, kind: str) -> CycleMatrix:
    """The point's cycle matrix of kind x, y, z or t = 1 + XY."""
    if kind == "x":
        return CycleMatrix.of_letters("x", point.X)
    if kind == "y":
        return CycleMatrix.of_letters("y", point.Y)
    if kind == "z":
        return CycleMatrix.of_letters("z", point.require_Z())
    if kind == "t":
        return 1 + cycle_matrix(point, "x") @ cycle_matrix(point, "y")
    raise ValueError(f"unknown cycle kind {kind!r}")


def point_with_cycle(point: RepPoint, X: CycleMatrix, U: CycleMatrix, kind: str) -> RepPoint:
    """The inverse of cycle_matrix: the point with X, and Y = U, or Y = U - X^(-1)
    keeping Z = U as given, or Y = X^(-1) (U - 1), for U of kind y, z or t."""
    Xb, Z = X.letters("x"), None
    if kind == "y":
        Y = U.letters("y")
    elif kind == "z":
        Z = U.letters("z")
        Y = np.array(Z) - inverse(np.array(Xb), SingularFactor,
                                  "X_{s} singular, so Y_{s} = Z_{s} - X_{s}^(-1) is undefined")
    elif kind == "t":
        Xinv = inverse(np.array(Xb), SingularFactor,
                       "X_{s} singular, so Y_{s} = X_{s}^(-1) (T_{s} - 1) is undefined")
        Y = Xinv @ (U.blocks - np.eye(point.spec.n))
    else:
        raise ValueError(f"cannot rebuild a point from a cycle matrix of kind {kind!r}")
    return RepPoint.make(point.spec, Xb, Y, point.V, point.W, Z=Z)


@dataclass(frozen=True)
class LocalCoordinates:
    """Spin RS coordinates: positions x_i, spins a_i^alpha and c_i^alpha.

    Rows of `a` are normalized to unit sum at construction.  `c` is stored
    with shape (d, n), row alpha holding (c_j^alpha)_j.
    """

    x: np.ndarray
    a: np.ndarray
    c: np.ndarray

    @staticmethod
    def make(x, a, c) -> "LocalCoordinates":
        x = np.asarray(x, dtype=complex).reshape(-1)
        a = np.array(a, dtype=complex)
        c = np.array(c, dtype=complex)
        n = x.size
        if a.shape[0] != n or c.shape[1] != n or a.shape[1] != c.shape[0]:
            raise ValueError("shape mismatch between x, a, c")
        if np.any(x == 0):
            raise RegularityViolation("positions must be nonzero")
        if n > 1:
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, 1.0)
            if np.any(diff == 0):
                raise RegularityViolation("positions must be pairwise distinct")
        sums = a.sum(axis=1)
        if np.any(np.abs(sums) < 1e-10):
            raise Degenerate("a-row sum too close to zero to normalize")
        a = a / sums[:, None]
        return LocalCoordinates(x=_readonly(x), a=_readonly(a), c=_readonly(c))

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def d(self) -> int:
        return self.a.shape[1]

    def f_matrix(self) -> np.ndarray:
        """Collective spins f_ij = sum_alpha a_i^alpha c_j^alpha."""
        return self.a @ self.c


@dataclass(frozen=True)
class SpinData:
    """Spin matrices of a point: Am (n x d), Cm (d x n) and the product S."""

    Am: np.ndarray
    Cm: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class ReducedQuadruple:
    """Data (A, B, bigA, bigC) of the equivalent rank-n spin RS point."""

    A: np.ndarray
    B: np.ndarray
    bigA: np.ndarray
    bigC: np.ndarray


def check_creg(x: np.ndarray, t: complex, margin: float = 0.0) -> bool:
    """Membership of x in the regular locus: x_i != 0, x_i != x_j, x_i != t x_j."""
    n = x.size
    if np.any(np.abs(x) <= margin):
        return False
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if abs(x[i] - x[j]) <= margin or abs(x[i] - t * x[j]) <= margin:
                return False
    return True


def lax_matrix(coords: LocalCoordinates, t: complex) -> np.ndarray:
    """The spin RS Lax matrix B_ij = t f_ij / (x_i / x_j - t)."""
    x = coords.x
    f = coords.f_matrix()
    denom = x[:, None] / x[None, :] - t
    if np.any(np.abs(denom) < 1e-13):
        raise RegularityViolation("x_i = t x_j resonance in the Lax denominator")
    return t * f / denom


def point_from_coordinates(coords: LocalCoordinates, params: ParameterSet,
                           spec: ModelSpec) -> RepPoint:
    """Build the on-shell representation point of the coordinates.

    The construction goes through the diagonal normal form: A = diag(x), the
    Lax matrix B, then X_s = Id for s <= m-2, X_{m-1} = A, Z_s = t_s B,
    Z_{m-1} = t A^(-1) B, and framing vectors recovered from the spin data.
    """
    if coords.n != spec.n or coords.d != spec.d or params.m != spec.m:
        raise ValueError("coordinate/parameter shapes disagree with the model")
    t = params.t
    if not check_creg(coords.x, t):
        raise RegularityViolation("coordinates leave the regular locus")
    n, m, d = spec.n, spec.m, spec.d
    A = np.diag(coords.x)
    B = lax_matrix(coords, t)
    Ainv = np.diag(1.0 / coords.x)

    X = [np.eye(n, dtype=complex) for _ in range(m)]
    X[m - 1] = A
    Z = [params.t_at(s) * B for s in range(m - 1)]
    Z.append(t * Ainv @ B)

    Am = Ainv @ coords.a
    Cm = np.array(coords.c)

    Zm1_inv = inverse(Z[m - 1], SingularFactor, "Z_{m-1} is singular; cannot recover framing")

    W = [Am[:, a].reshape(n, 1) for a in range(d)]
    V = []
    Minv = np.eye(n, dtype=complex)
    for a in range(d):
        v = t * Cm[a].reshape(1, n) @ Zm1_inv @ Minv
        V.append(v)
        omega = np.eye(n) + W[a] @ v
        singular = f"Id + W_{a + 1} V_{a + 1} singular during recovery"
        if not _det_ok(omega):
            raise Degenerate(singular)
        Minv = Minv @ inverse(omega, Degenerate, singular)

    Y = np.array(Z) - inverse(np.array(X), SingularX, "X_{s} is singular")
    point = RepPoint.make(spec, X, Y, V, W)
    point.validate()
    return point


_SCREENS = ("creg screen", "a-row-sum screen")
_BUILD_ERRORS = (Degenerate, RegularityViolation, SingularFactor)


def _admissible_draws(spec: ModelSpec, params: ParameterSet, seed: int, max_tries: int,
                      rejected: dict):
    """Yield (x, a, c) for each of max_tries draws that passes the cheap screens.

    Positions are drawn on the annulus 0.5 <= |x| <= 2 with a 1e-3 margin
    against regular-locus violations; spins are complex standard normal, and
    a draw with an a-row summing to less than 0.1 in modulus is skipped.
    Each skipped draw is counted in rejected, under its screen's name in
    _SCREENS.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n, d = spec.n, spec.d
    for _ in range(max_tries):
        radius = rng.uniform(0.5, 2.0, size=n)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        x = radius * np.exp(1j * angle)
        if not check_creg(x, params.t, margin=1e-3):
            rejected[_SCREENS[0]] += 1
            continue
        a = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / np.sqrt(2)
        if np.any(np.abs(a.sum(axis=1)) < 0.1):
            rejected[_SCREENS[1]] += 1
            continue
        c = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(2)
        yield x, a, c


def random_point(spec: ModelSpec, params: ParameterSet, seed: int,
                 max_tries: int = 1000) -> RepPoint:
    """Sample an on-shell point; deterministic per seed.

    Draws as _admissible_draws describes, with a-rows renormalized to unit
    sum; a draw whose point cannot be built counts against max_tries.  When
    none is left, SamplingExhausted counts the draws each screen and each
    build error class rejected.
    """
    rejected = dict.fromkeys(_SCREENS + tuple(e.__name__ for e in _BUILD_ERRORS), 0)
    last = None
    for x, a, c in _admissible_draws(spec, params, seed, max_tries, rejected):
        try:
            return point_from_coordinates(LocalCoordinates.make(x, a, c), params, spec)
        except _BUILD_ERRORS as exc:
            rejected[type(exc).__name__] += 1
            last = str(exc)
    raise SamplingExhausted(f"no admissible point after {max_tries} draws", rejected, last)


def random_coordinates(spec: ModelSpec, params: ParameterSet, seed: int,
                       max_tries: int = 1000) -> LocalCoordinates:
    """Sample admissible local coordinates with the same scheme as random_point."""
    rejected = dict.fromkeys(_SCREENS, 0)
    for x, a, c in _admissible_draws(spec, params, seed, max_tries, rejected):
        return LocalCoordinates.make(x, a, c)
    raise SamplingExhausted(f"no admissible coordinates after {max_tries} draws", rejected)


def framing_product(point: RepPoint) -> np.ndarray:
    """Product of the factors Id + W_a V_a in reversed order, a = d..1."""
    n = point.spec.n
    out = np.eye(n, dtype=complex)
    for a in range(point.spec.d - 1, -1, -1):
        out = out @ (np.eye(n) + point.W[a] @ point.V[a])
    return out


def theta_blocks(point: RepPoint) -> np.ndarray:
    """The (m, n, n) stack of Theta_s = (Id + X_s Y_s)(Id + Y_(s-1) X_(s-1))^(-1).

    These are the blocks of the cycle moment map Theta = (1 + XY)(1 + YX)^(-1).
    """
    X, Y, eye = np.array(point.X), np.array(point.Y), np.eye(point.spec.n)
    inv_yx = inverse(eye + Y @ X, SingularFactor, "Id + Y_{s} X_{s} is singular")
    return (eye + X @ Y) @ inv_yx[np.arange(-1, point.spec.m - 1)]


def moment_residual(point: RepPoint, params: ParameterSet):
    """Frobenius norms of the m+1 moment-condition residuals.

    Index s < m holds the cycle-vertex residual, the last entry the scalar
    framing-vertex residual.
    """
    spec = point.spec
    theta = theta_blocks(point)
    residuals = []
    for s in range(spec.m):
        if s == 0:
            rhs = params.q[0] * framing_product(point)
        else:
            rhs = params.q[s] * np.eye(spec.n)
        residuals.append(float(np.linalg.norm(theta[s] - rhs)))
    prod = 1.0 + 0.0j
    for a in range(spec.d):
        prod *= 1.0 + complex((point.V[a] @ point.W[a])[0, 0])
    residuals.append(abs(prod - params.q_inf))
    return residuals


def gauge_act(g, point: RepPoint) -> RepPoint:
    """Act by (g_s) in the gauge group: X_s -> g_s X_s g_{s+1}^(-1), etc."""
    spec = point.spec
    m = spec.m
    g = np.array(g, dtype=complex)
    if len(g) != m:
        raise ValueError("need one gauge matrix per cycle vertex")
    ginv = inverse(g, SingularGauge, "gauge matrix g_{s} is singular")
    X = [g[s] @ point.X[s] @ ginv[(s + 1) % m] for s in range(m)]
    Y = [g[(s + 1) % m] @ point.Y[s] @ ginv[s] for s in range(m)]
    V = [point.V[a] @ ginv[0] for a in range(spec.d)]
    W = [g[0] @ point.W[a] for a in range(spec.d)]
    return RepPoint.make(spec, X, Y, V, W)


def spin_data(point: RepPoint, params: ParameterSet) -> SpinData:
    """Spin matrices Am, Cm of the point (requires X_{m-1} invertible)."""
    spec = point.spec
    n, d = spec.n, spec.d
    Z = point.require_Z()
    Am = np.hstack([point.W[a] for a in range(d)])
    Cm = np.zeros((d, n), dtype=complex)
    acc = np.eye(n, dtype=complex)
    for a in range(d):
        Cm[a] = (point.V[a] @ acc @ Z[spec.m - 1]).reshape(n) / params.t
        acc = (np.eye(n) + point.W[a] @ point.V[a]) @ acc
    return SpinData(Am=_readonly(Am), Cm=_readonly(Cm), S=_readonly(Am @ Cm))


def reduced_quadruple(point: RepPoint, params: ParameterSet) -> ReducedQuadruple:
    """Normalize X_0 = ... = X_{m-2} = Id and return the quadruple (A, B, bigA, bigC).

    Closed form of the gauge g_0 = Id, g_{s+1} = X_0...X_s, with A^(-1) its only
    inverse: A = X_0 X_1...X_{m-1} (left to right), B = (Id + X_0 Y_0)/q_0, bigA =
    A [W_1...W_d], bigC_a = V_a (Id + W_{a-1} V_{a-1})...(Id + W_1 V_1) Z'/t, where
    Z' = (Id + Y_{m-1} X_{m-1}) A^(-1).  SingularX if A is singular; Degenerate if
    the commutation identity q_0 B A^(-1) = q_0 t A^(-1)(B + bigA bigC) misses _QUAD_TOL.
    """
    if point.Z is None:
        raise SingularX("point has a singular X_s")
    A = reduce(np.matmul, point.X)
    Ainv = inverse(A, SingularX, "the cycle product A = X_0 ... X_{m-1} is singular")
    eye = np.eye(point.spec.n)
    B = (eye + point.X[0] @ point.Y[0]) / params.q[0]
    bigA = A @ np.hstack(point.W)
    rows, acc = [], eye
    for v, w in zip(point.V, point.W):
        rows.append(v @ acc)
        acc = acc + w @ rows[-1]
    rows = np.vstack(rows)
    bigC = (rows @ Ainv + rows @ point.Y[-1] @ point.X[-1] @ Ainv) / params.t
    lhs = params.q[0] * B @ Ainv
    rhs = params.q[0] * params.t * (Ainv @ B + Ainv @ bigA @ bigC)
    scale = max(1.0, np.linalg.norm(lhs))
    residual = np.linalg.norm(lhs - rhs)
    if residual > _QUAD_TOL * scale:
        raise Degenerate(f"reduced quadruple fails the commutation identity: residual "
                         f"{residual:.3e} > tol {_QUAD_TOL:.1e} x scale {scale:.3e}")
    return ReducedQuadruple(A=_readonly(A), B=_readonly(B),
                            bigA=_readonly(bigA), bigC=_readonly(bigC))


def quadruple_from_coordinates(coords: LocalCoordinates, params: ParameterSet
                               ) -> ReducedQuadruple:
    """The quadruple (diag x, B, a, c) of local coordinates, without gauging."""
    A = np.diag(coords.x)
    B = lax_matrix(coords, params.t)
    return ReducedQuadruple(A=_readonly(A), B=_readonly(B),
                            bigA=_readonly(coords.a), bigC=_readonly(coords.c))
