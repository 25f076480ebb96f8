"""Commuting Hamiltonian families, their reduced closed forms, and rank counts.

The four spectral-parameter families are symmetric functions of

    1: (1 + eta Theta^(-1)) X        2: (1 + eta Theta^(-1)) (1 + XY)
    3: (1 + eta Theta) Y             4: (1 + eta Theta) (Y + X^(-1))

on the cycle matrices, with Theta = (1 + XY)(1 + YX)^(-1) the cycle moment
map.  Each cycle matrix is homogeneous in the cyclic grading and is computed
as a cyclic.CycleMatrix, one n x n block per vertex.  On the X-invertible
locus they reduce to the spin RS families G, H, F in the quadruple
(A, B, bigA, bigC), which is what the independence counts and the
spectral-curve constraints are computed from.  Every member is tr M(eta)^j
of a pencil M0 + eta M1 and is expanded in eta exactly (_pencil_powers);
only the spectral-curve determinant is interpolated.  The family,
power-trace and qu gradients hand their x, y and z letter blocks to
PointEngine.letter_gradients, where the chain rule for z = y + x^(-1) lives,
and come back as immutable engine.Gradient maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .brackets import phi_localized_word, phi_word_terms
from .cyclic import CycleMatrix
from .engine import Gradient, PointEngine
from .errors import IllConditioned, SingularFactor
from .params import ParameterSet
from .points import (LocalCoordinates, RepPoint, ReducedQuadruple, cycle_matrix, cycle_period,
                     inverse, quadruple_from_coordinates, theta_blocks)
from .words import WordSum, letter_tail_head

FAMILIES = (1, 2, 3, 4)
# the rank rule's defaults: singular values above _SV_TOL of the largest count,
# and the ratio across that cut must reach _GAP_FACTOR
_SV_TOL = 1e-7
_GAP_FACTOR = 10.0


@dataclass(frozen=True)
class TotalMatrices:
    """Dense m n x m n view of a point's cycle matrices, assembled from their blocks."""

    Xt: np.ndarray
    Yt: np.ndarray
    Zt: np.ndarray | None
    Theta: np.ndarray


@dataclass(frozen=True)
class EtaPolynomial:
    """Coefficients of a polynomial in the spectral parameter, coeffs[l] ~ eta^l."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, eta: complex) -> complex:
        out = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            out = out * eta + c
        return out


def total_matrices(point: RepPoint) -> TotalMatrices:
    """Dense Xt, Yt, Zt and the block-diagonal Theta, built from the graded blocks."""
    theta = CycleMatrix(0, theta_blocks(point)).dense()
    return TotalMatrices(Xt=cycle_matrix(point, "x").dense(), Yt=cycle_matrix(point, "y").dense(),
                         Zt=None if point.Z is None else cycle_matrix(point, "z").dense(),
                         Theta=theta)


# the cycle kind (points.cycle_matrix) of U in each family matrix (1 + eta T) U
FAMILY_KIND = {1: "x", 2: "t", 3: "y", 4: "z"}


def _family_factors(point: RepPoint, family: int):
    """(Theta, T, U) with family matrix (1 + eta T) U: T = Theta^(-1) for 1, 2, Theta for 3, 4."""
    if family not in FAMILIES:
        raise ValueError(f"family must be 1..4, got {family}")
    U = cycle_matrix(point, FAMILY_KIND[family])     # family 4 needs Z, so invertible X
    theta = CycleMatrix(0, theta_blocks(point))
    return theta, theta.inv() if family < 3 else theta, U


def family_value(point: RepPoint, family: int, j: int, eta: complex) -> complex:
    """tr M(eta)^j of the chosen family; families 1, 3, 4 vanish unless m | j."""
    _, T, U = _family_factors(point, family)
    return ((1 + eta * T) @ U).power(j).trace()


def family_gradients(eng: PointEngine, family: int, j: int, eta: complex) -> Gradient:
    """Matrix gradients of the family value over the base generators x_s, y_s.

    Returned as the engine.Gradient consumed by PointEngine.bracket_gradients.
    """
    Theta, T, U = _family_factors(eng.point, family)
    X, Y = cycle_matrix(eng.point, "x"), cycle_matrix(eng.point, "y")
    damp = 1 + eta * T
    P = j * (damp @ U).power(j - 1)
    S = eta * (U @ P)
    if family in (1, 2):
        S = -(T @ S @ T)    # chain through T = Theta^(-1)

    # chain S = (dF/dTheta)^T through Theta = (1 + XY)(1 + YX)^(-1)
    Winv = (1 + Y @ X).inv()
    qs = {"x": Y @ Winv @ S - Winv @ S @ Theta @ Y, "y": Winv @ S @ X - X @ Winv @ S @ Theta}
    for kind, Q in _u_chain(eng.point, FAMILY_KIND[family], P @ damp).items():
        qs[kind] = qs[kind] + Q if kind in qs else Q
    return eng.letter_gradients(_cycle_pairs(eng, qs))


def _cycle_pairs(eng: PointEngine, qs: dict) -> list:
    """(letter, Q) pairs for PointEngine.letter_gradients from {kind: (dF/d cycle matrix)^T}.

    The letter (kind, s) from tail to head reads Q's block from head to tail;
    a Q of another degree has no block there and contributes nothing.
    """
    pairs = []
    # vertex by vertex, so gradients with equal key sets list them in one order
    # x_0, y_0, x_1, ... and share the contraction plan bracket_gradients caches per key order
    for s in range(eng.m):
        for kind, Q in qs.items():
            tail, head = letter_tail_head((kind, s), eng.m)
            block = Q.block(head, tail)
            if block is not None:
                pairs.append(((kind, s), block))
    return pairs


def family_poly(point: RepPoint, family: int, j: int) -> EtaPolynomial:
    """Expand the family value exactly in the spectral parameter.

    The family matrix is the pencil (1 + eta T) U = U + eta T U (_pencil_powers).
    """
    _, T, U = _family_factors(point, family)
    return _pencil_poly(U, T @ U, j)


def _pencil_powers(M0, M1, j: int) -> list:
    """Coefficient matrices of (M0 + eta M1)^k for k = 1..j; entry k - 1 lists eta^0..eta^k.

    Each power steps from the last as P_l <- P_l M0 + P_(l-1) M1, which reads
    alike on arrays and on cyclic.CycleMatrix.
    """
    if j < 1:
        raise ValueError(f"pencil powers need j >= 1, got {j}")
    powers = [[M0, M1]]
    for _ in range(j - 1):
        P = powers[-1]
        powers.append([P[0] @ M0] + [P[l] @ M0 + P[l - 1] @ M1 for l in range(1, len(P))]
                      + [P[-1] @ M1])
    return powers


def _pencil_poly(M0, M1, j: int) -> EtaPolynomial:
    """tr (M0 + eta M1)^j as a polynomial in eta."""
    return EtaPolynomial(coeffs=tuple(complex(P.trace()) for P in _pencil_powers(M0, M1, j)[-1]))


# -- reduced closed forms ----------------------------------------------------

def _reduced_pencil(kind: str, quad: ReducedQuadruple, params: ParameterSet):
    """G's or H's matrix M(eta) = M0 + eta M1 at a quadruple, as the terms of M0 and of M1.

        G:  M0 = A^(-1) B^m / t      M1 = A^(-1) (B + S) B^(m-1)
        H:  M0 = P(B) A^(-1)         M1 = q_0 (1 + S B^(-1)) P(B) A^(-1)

    with P(B) = (B - 1/t_(m-1)) ... (B - 1/t_0) and S = bigA bigC.  A term
    (c, factors) is c times the product of its factors, each a (variable,
    matrix) pair naming what the matrix varies as: "Ainv", "B" (B - c Id
    too), "Binv" or "S".  _pencil_matrix evaluates the terms and
    _pencil_links differentiates them.
    """
    m = params.m
    Ainv = inverse(quad.A, SingularFactor, "the reduced families need an invertible A")
    B, S = quad.B, quad.bigA @ quad.bigC
    if kind == "G":
        Bm = [("B", B)] * m
        return ([(1.0 / params.t, [("Ainv", Ainv)] + Bm)],
                [(1.0, [("Ainv", Ainv)] + Bm), (1.0, [("Ainv", Ainv), ("S", S)] + Bm[1:])])
    if kind == "H":
        eye = np.eye(len(B))
        right = [("B", B - eye / params.t_at(s)) for s in range(m - 1, -1, -1)]
        right.append(("Ainv", Ainv))
        q0 = params.q[0]
        Binv = inverse(B, SingularFactor, "the reduced families need an invertible B")
        return [(1.0, right)], [(q0, right), (q0, [("S", S), ("Binv", Binv)] + right)]
    raise ValueError(f"unknown reduced family {kind!r}")


def _pencil_matrix(terms: list) -> np.ndarray:
    """The sum of the terms' coefficient-weighted factor products."""
    return sum(c * reduce(np.matmul, [mat for _, mat in factors]) for c, factors in terms)


def _f_pencil(point: RepPoint):
    """(M0, M1) of F: the degree-0 cycle matrices of the blocks X_s Z_s and Z_s X_s."""
    X, Z = np.stack(point.X), np.stack(point.require_Z())
    return CycleMatrix(0, X @ Z), CycleMatrix(0, Z @ X)


def reduced_G(quad: ReducedQuadruple, params: ParameterSet, j: int,
              eta_prime: complex) -> complex:
    """tr [ A^(-1)((t^(-1) + eta') B + eta' S) B^(m-1) ]^j."""
    M0, M1 = map(_pencil_matrix, _reduced_pencil("G", quad, params))
    return complex(np.trace(np.linalg.matrix_power(M0 + eta_prime * M1, j)))


def reduced_H(quad: ReducedQuadruple, params: ParameterSet, j: int,
              eta: complex) -> complex:
    """tr [ ((1 + eta q_0) + eta q_0 S B^(-1)) P(B) A^(-1) ]^j with P the t_s-root polynomial."""
    M0, M1 = map(_pencil_matrix, _reduced_pencil("H", quad, params))
    return complex(np.trace(np.linalg.matrix_power(M0 + eta * M1, j)))


def reduced_F(point: RepPoint, j: int, eta: complex) -> complex:
    """Blockwise sum_s tr (X_s Z_s + eta Z_s X_s)^j."""
    M0, M1 = _f_pencil(point)
    return (M0 + eta * M1).power(j).trace()


def reduced_poly(kind: str, quad_or_point, params: ParameterSet, j: int) -> EtaPolynomial:
    """Exact eta-expansion of a reduced family member: G, H at a quadruple, F at a point."""
    if kind == "F":
        return _pencil_poly(*_f_pencil(quad_or_point), j)
    return _pencil_poly(*map(_pencil_matrix, _reduced_pencil(kind, quad_or_point, params)), j)


def big_K_constant(params: ParameterSet, eta: complex) -> complex:
    """t^2 prod_{s != 0} t_{s-1}(1 + eta q_s), the family-4 block prefactor."""
    out = params.t ** 2
    for s in range(1, params.m):
        out *= params.t_at(s - 1) * (1.0 + eta * params.q[s])
    return out


def big_C_constant(params: ParameterSet, eta: complex) -> complex:
    """t prod_{s != 0} t_{s-1}(1 + eta q_s), the family-3 normalization."""
    out = params.t
    for s in range(1, params.m):
        out *= params.t_at(s - 1) * (1.0 + eta * params.q[s])
    return out


# -- spectral curve -----------------------------------------------------------

@dataclass(frozen=True)
class SpectralCoefficients:
    """Coefficients of det(C + eta T - mu Id) = sum Gamma[i, p] eta^i mu^p."""

    Gamma: np.ndarray

    @property
    def n(self) -> int:
        return self.Gamma.shape[1] - 1

    def eta_block_max(self, i_from: int) -> float:
        """Largest coefficient magnitude among eta-orders >= i_from."""
        return float(np.max(np.abs(self.Gamma[i_from:, :]))) if i_from <= self.n else 0.0

    def scale(self) -> float:
        return float(np.max(np.abs(self.Gamma)))


def spectral_coeffs(quad: ReducedQuadruple, params: ParameterSet) -> SpectralCoefficients:
    """Expand the spectral curve det(C + eta T - mu) in both variables.

    C = A^(-1) B^m and T = S B^(m-1) A^(-1).  Interpolates the mu-monomial
    coefficients over eta at roots of unity; IllConditioned if the solve
    misses its samples by more than 1e-8 of their scale.

    The eta-degree is <= d by construction: S = bigA bigC has rank <= d, so
    T has rank <= d, and by the matrix determinant lemma det(C - mu + eta T)
    is a polynomial of degree <= d in eta.  The coefficients past degree d
    (eta_block_max(d + 1)) therefore measure this interpolation's roundoff,
    not a statement of the paper.
    """
    m = params.m
    Ainv = inverse(quad.A, SingularFactor, "the reduced families need an invertible A")
    S = quad.bigA @ quad.bigC
    C = Ainv @ np.linalg.matrix_power(quad.B, m)
    T = S @ np.linalg.matrix_power(quad.B, m - 1) @ Ainv
    n = C.shape[0]

    nodes = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    # row r: coefficients of mu^p in det(C + eta_r T - mu Id), p = 0..n
    samples = np.zeros((n + 1, n + 1), dtype=complex)
    det_sign = (-1.0) ** n
    for r, eta in enumerate(nodes):
        charpoly = np.poly(C + eta * T)      # mu^n + a_1 mu^(n-1) + ... + a_n
        for p in range(n + 1):
            samples[r, p] = det_sign * charpoly[n - p]
    vander = np.vander(nodes, n + 1, increasing=True)
    Gamma = np.linalg.solve(vander, samples)
    scale = max(1.0, float(np.max(np.abs(samples))))
    if np.max(np.abs(vander @ Gamma - samples)) > 1e-8 * scale:
        raise IllConditioned("spectral-curve interpolation did not converge")
    return SpectralCoefficients(Gamma=Gamma)


# -- functional independence --------------------------------------------------

def index_set(n: int, d: int):
    """The coefficient index set: j = 1..n, l = 0..min(j-1, d)."""
    return tuple((j, l) for j in range(1, n + 1) for l in range(0, min(j - 1, d) + 1))


def _pack_coords(coords: LocalCoordinates) -> np.ndarray:
    n, d = coords.n, coords.d
    parts = [coords.x]
    if d > 1:
        parts.append(coords.a[:, :d - 1].reshape(-1))
    parts.append(coords.c.reshape(-1))
    return np.concatenate(parts)


def _unpack_coords(vec: np.ndarray, n: int, d: int) -> LocalCoordinates:
    x = vec[:n]
    pos = n
    a = np.zeros((n, d), dtype=complex)
    if d > 1:
        a[:, :d - 1] = vec[pos:pos + n * (d - 1)].reshape(n, d - 1)
        pos += n * (d - 1)
    a[:, d - 1] = 1.0 - a[:, :d - 1].sum(axis=1)
    c = vec[pos:pos + d * n].reshape(d, n)
    # bypass normalization: rows already sum to one by construction
    obj = LocalCoordinates(x=x, a=a, c=c)
    return obj


def _coefficient_functions(coords: LocalCoordinates, family: str,
                           params: ParameterSet) -> np.ndarray:
    quad = quadruple_from_coordinates(coords, params)
    out = []
    n, d = coords.n, coords.d
    for j in range(1, n + 1):
        poly = reduced_poly(family, quad, params, j)
        for l in range(0, min(j - 1, d) + 1):
            out.append(poly.coeffs[l])
    return np.array(out)


# analytic gradients of the reduced families on the coordinate chart; these
# avoid the finite-difference noise floor that otherwise masks the smallest
# genuine singular values of the coefficient Jacobian

def _pencil_links(terms: list) -> list:
    """(variable, c, left, right) with d tr(Q M) = sum c tr(left Q right d variable).

    M is the sum of the terms (see _reduced_pencil), so a factor F_i of a term
    c F_1 ... F_k links with left = F_(i+1) ... F_k and right = F_1 ... F_(i-1).
    A "Binv" factor links to B through dB^(-1) = -B^(-1) dB B^(-1).
    """
    links = []
    for c, factors in terms:
        mats = [mat for _, mat in factors]
        eye = np.eye(len(mats[0]))
        for i, (var, mat) in enumerate(factors):
            left = reduce(np.matmul, mats[i + 1:], eye)
            right = reduce(np.matmul, mats[:i], eye)
            if var == "Binv":
                links.append(("B", -c, mat @ left, right @ mat))
            else:
                links.append((var, c, left, right))
    return links


def _grad_packed(coords: LocalCoordinates, params: ParameterSet,
                 AdjB: np.ndarray, AdjS: np.ndarray,
                 AdjAinvDiag: np.ndarray) -> np.ndarray:
    """Pull the adjoints back to the packed free coordinates (x, a-free, c).

    AdjB and AdjS are (..., n, n) and AdjAinvDiag is (..., n); each leading
    index is one function, pulled back to one (..., free coordinates) row.
    """
    t = params.t
    d = coords.d
    x = coords.x
    a, c = coords.a, coords.c
    f = coords.f_matrix()
    denom = x[:, None] - t * x[None, :]
    K = x[None, :] / denom
    tK = t * K

    # dF/df via both B = t f K and S = f
    Adjf = AdjB * tK + AdjS

    # dB[i, j]/dx_k = D2[i, j] (x_i [j = k] - x_j [i = k]); each sum runs along
    # a contiguous last axis, so it adds in the order np.sum adds one vector
    AdjBD2 = AdjB * (t * f / denom ** 2)
    grad_x = np.ascontiguousarray(np.swapaxes(AdjBD2 * x[:, None], -1, -2)).sum(axis=-1)
    grad_x -= np.ascontiguousarray(AdjBD2 * x[None, :]).sum(axis=-1)
    grad_x += AdjAinvDiag * (-1.0 / x ** 2)

    grad_a = Adjf @ c.T          # shape (..., n, d): dF/da[k, alpha]
    grad_c = a.T @ Adjf          # shape (..., d, n): dF/dc[alpha, k]

    lead = grad_x.shape[:-1]
    parts = [grad_x]
    if d > 1:
        # row-sum constraint: a[:, d-1] = 1 - sum of the free columns
        free = grad_a[..., :d - 1] - grad_a[..., d - 1:]
        parts.append(free.reshape(lead + (-1,)))
    parts.append(grad_c.reshape(lead + (-1,)))
    return np.concatenate(parts, axis=-1)


def coefficient_jacobian(coords: LocalCoordinates, family: str,
                         params: ParameterSet):
    """Values and the analytic complex Jacobian of the coefficient family.

    A G or H member is tr M(eta)^j for the pencil M(eta) = M0 + eta M1 of
    _reduced_pencil.  Its eta^l coefficient is tr P_l(j), P_l(k) being the
    coefficient matrices of M(eta)^k, and the coefficient's differential is
    j tr(P_l(j-1) dM0 + P_(l-1)(j-1) dM1), which _grad_packed pulls back to
    the free coordinates.  Both are exact: nothing is sampled in eta.
    """
    n, d = coords.n, coords.d
    pencil = _reduced_pencil(family, quadruple_from_coordinates(coords, params), params)
    powers = [[np.eye(n)]] + _pencil_powers(*map(_pencil_matrix, pencil), n)
    links = [_pencil_links(terms) for terms in pencil]
    pairs = index_set(n, d)
    values = np.array([powers[j][l].trace() for j, l in pairs], dtype=complex)
    adj = {var: np.zeros((len(pairs), n, n), dtype=complex) for var in ("Ainv", "B", "S")}
    for row, (j, l) in enumerate(pairs):
        for side in range(2 if l else 1):    # the dM1 term needs l >= 1
            Q = j * powers[j - 1][l - side]
            for var, c, left, right in links[side]:
                adj[var][row] += c * (left @ Q @ right)
    jac = _grad_packed(coords, params, adj["B"].transpose(0, 2, 1),
                       adj["S"].transpose(0, 2, 1), np.diagonal(adj["Ainv"], axis1=1, axis2=2))
    return values, jac


def independence_rank(coords: LocalCoordinates, family: str, params: ParameterSet,
                      step: float = 1e-6, sv_tol: float = _SV_TOL,
                      gap_factor: float = _GAP_FACTOR, method: str = "analytic"):
    """Numerical rank of the coefficient family on the 2nd free coordinates.

    With method="analytic" (default) the complex Jacobian comes from exact
    adjoint differentiation; method="fd" uses central differences on the real
    and imaginary parts separately.  Either way the functions are holomorphic,
    so the real rank is even and the complex rank is half of it; the returned
    singular values are those of the real Jacobian (each complex value twice).

    Rows are equilibrated before the SVD because coefficient magnitudes span
    many orders.  Raises IllConditioned when the gap at the threshold cut is
    below the required factor or sub-threshold values sit above the noise
    floor of the differentiation scheme.

    Returns (rank, singular_values).
    """
    n, d = coords.n, coords.d
    if method == "analytic":
        _, jac_c = coefficient_jacobian(coords, family, params)
        rank, sv_c = _decide_rank(jac_c, sv_tol, gap_factor, noise_floor=1e-11)
        # the real Jacobian has each complex singular value twice
        return rank, np.sort(np.concatenate([sv_c, sv_c]))[::-1]
    if method != "fd":
        raise ValueError("method must be 'analytic' or 'fd'")
    base = _pack_coords(coords)
    n_complex = base.size

    def evaluate(vec):
        return _coefficient_functions(_unpack_coords(vec, n, d), family, params)

    # jac[f] holds the real and the imaginary row of function f
    jac = np.zeros((len(index_set(n, d)), 2, 2 * n_complex))
    for k in range(n_complex):
        for part, delta in ((0, step), (1, 1j * step)):
            plus = np.array(base)
            minus = np.array(base)
            plus[k] += delta
            minus[k] -= delta
            deriv = (evaluate(plus) - evaluate(minus)) / (2 * step)
            jac[:, 0, 2 * k + part] = deriv.real
            jac[:, 1, 2 * k + part] = deriv.imag
    rank_real, svals = _decide_rank(jac, sv_tol, gap_factor, noise_floor=1e-8)
    if rank_real % 2:
        raise IllConditioned("real Jacobian rank is odd; holomorphy violated")
    return rank_real // 2, svals


def _decide_rank(jac: np.ndarray, sv_tol: float, gap_factor: float,
                 noise_floor: float | None = None):
    """(rank, singular values) of jac, whose leading index runs over functions.

    Each function's rows are scaled to unit norm together and the values above
    sv_tol * s_0 are counted.  Raises IllConditioned when the ratio across the
    cut is below gap_factor or, given a noise_floor, the first value below the
    cut exceeds noise_floor * s_0.
    """
    rows = jac.reshape(len(jac), -1)
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0] = 1.0
    svals = np.linalg.svd((rows / norms[:, None]).reshape(-1, jac.shape[-1]),
                          compute_uv=False)
    rank = int(np.sum(svals > sv_tol * svals[0]))
    if rank < len(svals) and svals[rank] > 0:
        ratio = svals[rank - 1] / svals[rank]
        if ratio < gap_factor:
            raise IllConditioned(f"singular-value gap at the rank cut is {ratio:.3g}x, "
                                 f"below the required {gap_factor:g}x")
        if noise_floor is not None and svals[rank] > noise_floor * svals[0]:
            raise IllConditioned(f"largest sub-threshold singular value is "
                                 f"{svals[rank] / svals[0]:.3g} of the largest, "
                                 f"above the noise floor {noise_floor:g}")
    return rank, svals


# -- degenerate integrability ---------------------------------------------------

def qu_generator(point: RepPoint, alpha: int, beta: int, ell: int, U: str,
                 engine: PointEngine | None = None) -> complex:
    """tr(W_alpha V_beta U^(l m)), the framing vectors meeting the vertex-0 block of U^(l m)."""
    eng = engine or PointEngine(point)
    power = ell * cycle_period(U, eng.m)
    U00 = cycle_matrix(point, U).power(power).block(0, 0)
    W, V = eng.letter_block(("w", alpha)), eng.letter_block(("v", beta))
    return complex(np.trace(W @ V @ U00))


def qu_gradients(point: RepPoint, alpha: int, beta: int, ell: int, U: str,
                 engine: PointEngine | None = None) -> Gradient:
    """Gradient of tr(W_alpha V_beta U^(l m)) over the base generators."""
    eng = engine or PointEngine(point)
    m, n = eng.m, eng.n
    W, V = eng.letter_block(("w", alpha)), eng.letter_block(("v", beta))
    Uc = cycle_matrix(point, U)
    K = ell * cycle_period(U, m)
    UK00 = Uc.power(K).block(0, 0)
    WV = CycleMatrix.of_letters("e", [W @ V] + [np.zeros((n, n))] * (m - 1))
    Q_U = CycleMatrix((K - 1) * Uc.deg, np.zeros_like(Uc.blocks))
    for p in range(K):
        Q_U = Q_U + Uc.power(K - 1 - p) @ WV @ Uc.power(p)
    return eng.letter_gradients(_cycle_pairs(eng, _u_chain(point, U, Q_U))
                                + [(("w", alpha), V @ UK00), (("v", beta), UK00 @ W)])


def power_trace_gradients(point: RepPoint, U: str, K: int,
                          engine: PointEngine | None = None) -> Gradient:
    """Gradient of tr U^K for U in {x, y, z, t=1+xy} cycle matrices."""
    eng = engine or PointEngine(point)
    Q_U = K * cycle_matrix(point, U).power(K - 1)
    return eng.letter_gradients(_cycle_pairs(eng, _u_chain(point, U, Q_U)))


def _u_chain(point: RepPoint, U: str, Q_U: CycleMatrix) -> dict:
    """{letter kind: Q} for Q_U = (dF/dU)^T; only t = 1 + XY is not a letter kind."""
    if U == "t":
        return {"x": cycle_matrix(point, "y") @ Q_U, "y": Q_U @ cycle_matrix(point, "x")}
    return {U: Q_U}


def _flatten_grads(eng: PointEngine, grads: dict) -> np.ndarray:
    keys = [(kind, s) for kind in ("x", "y") for s in range(eng.m)]
    keys += [(kind, a) for kind in ("v", "w") for a in range(1, eng.d + 1)]
    return np.concatenate([grads[g].reshape(-1) if g in grads
                           else np.zeros(eng.letter_block(g).size, dtype=complex)
                           for g in keys])


def cy2_rank(point: RepPoint, U: str, engine: PointEngine | None = None):
    """Rank of the 2n functions tr U^(jm), tr(W_1 V_1 U^(jm)) on matrix entries.

    Uses the exact gradients as Jacobian rows.  Returns
    (rank, singular_values); complains via IllConditioned on a weak gap.
    """
    eng = engine or PointEngine(point)
    n = eng.n
    rows = []
    for j in range(1, n + 1):
        K = j * cycle_period(U, eng.m)
        rows.append(_flatten_grads(eng, power_trace_gradients(point, U, K, engine=eng)))
        rows.append(_flatten_grads(eng, qu_gradients(point, 1, 1, j, U, engine=eng)))
    return _decide_rank(np.array(rows), _SV_TOL, _GAP_FACTOR)


def spect_residual(point: RepPoint, params: ParameterSet, U: str) -> float:
    """Residual of the conjugation identity tying U^m to the framing factors.

    With M = X_0 (U = z) or M = X_0 + Y_0^(-1) (U = y), the vertex-1 block of
    U^m conjugates to t * prod(Id + W_a V_a) times the vertex-0 block:
    M (U^m)_{11} M^(-1) = t Omega (U^m)_{00}.
    """
    from .points import framing_product
    m = point.spec.m
    if U == "z":
        Mmat = point.X[0]
    elif U == "y":
        Mmat = point.X[0] + inverse(point.Y[0], SingularFactor, "Y_0 not invertible")
    else:
        raise ValueError("U must be 'y' or 'z'")
    diag = cycle_matrix(point, U).power(m)
    blk0, blk1 = diag.block(0, 0), diag.block(1 % m, 1 % m)
    lhs = Mmat @ blk1 @ inverse(Mmat, SingularFactor, "conjugating block not invertible")
    rhs = params.t * framing_product(point) @ blk0
    return float(np.linalg.norm(lhs - rhs))


# -- family words (for word-route cross checks) ---------------------------------

def family_word_sum(family: int, K: int, eta: complex, m: int) -> WordSum:
    """The element underlying a family member as an explicit word sum.

    Uses the x-localized moment word, so the letters stay in the {x, z}
    alphabet; family 3 uses the y-alphabet form with unit-plus-word inverses.
    Costs grow like 2^K: meant for small cross checks, not production sizes.
    """
    terms = []
    for start in range(m):
        if family == 4:
            terms.extend(_u_eta_words(K, eta, m, start, "z", inverse_phi=False))
        elif family == 1:
            terms.extend(_u_eta_words(K, eta, m, start, "x", inverse_phi=True))
        elif family == 2:
            terms.extend(_xz_eta_words(K, eta, m, start))
        elif family == 3:
            terms.extend(_y_eta_words(K, eta, m, start))
        else:
            raise ValueError("family must be 1..4")
    return WordSum(tuple(terms))


def _phi_inv_word(m: int, s: int):
    prev = (s - 1) % m
    return (("z", prev), ("x", prev), ("zi", s), ("xi", s))


def _u_eta_words(K, eta, m, start, kind, inverse_phi):
    out = [(1.0, ())]
    v = start
    for _ in range(K):
        if kind == "x":
            letter = ("x", v)
            v = (v + 1) % m
        else:
            letter = (kind, (v - 1) % m)
            v = (v - 1) % m
        phi_w = _phi_inv_word(m, v) if inverse_phi else phi_localized_word(m, v)
        new = []
        for c, w in out:
            w2 = w + (letter,)
            new.append((c, w2))
            new.append((c * eta, w2 + phi_w))
        out = new
    return out


def _xz_eta_words(K, eta, m, start):
    out = [(1.0, ())]
    v = start
    for _ in range(K):
        pair = (("x", v), ("z", v))
        new = []
        for c, w in out:
            w2 = w + pair
            new.append((c, w2))
            new.append((c * eta, w2 + _phi_inv_word(m, v)))
        out = new
    return out


def _y_eta_words(K, eta, m, start):
    # y-alphabet form; the cycle-only moment words come from d = 0
    out = [(1.0, ())]
    v = start
    for _ in range(K):
        letter = ("y", (v - 1) % m)
        v = (v - 1) % m
        new = []
        for c, w in out:
            w2 = w + (letter,)
            new.append((c, w2))
            for cp, wp in phi_word_terms(m, 0, v):
                new.append((c * eta * cp, w2 + wp))
        out = new
    return out
