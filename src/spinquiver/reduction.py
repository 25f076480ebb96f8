"""Spin reduction group, invariant words, gauge normal forms, and duality.

The reduction group consists of invertible d x d matrices with unit row sums
acting on the spin matrices only; its invariants are traces of words in the
letters X, Z, S.  The duality map swaps X- and Z-type data with reindexed,
inverted parameters and reverses the sign of brackets of invariant words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BranchInvalid, SingularH, SingularX
from .params import ModelSpec, ParameterSet, derive_params
from .points import (RepPoint, ReducedQuadruple, SpinData, _readonly, gauge_act, inverse,
                     reduced_quadruple)

_ROWSUM_TOL = 1e-12
_LOCUS_TOL = 1e-10      # relative tolerance of the free-action and normal-form tests


@dataclass(frozen=True)
class HElement:
    """Invertible d x d matrix with every row summing to one."""

    h: np.ndarray

    @staticmethod
    def make(h) -> "HElement":
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("need a square matrix")
        if np.max(np.abs(h.sum(axis=1) - 1.0)) > _ROWSUM_TOL:
            raise ValueError("rows must sum to one")
        if abs(np.linalg.det(h)) <= 1e-12:
            raise SingularH("reduction-group element is singular")
        return HElement(h=_readonly(h))

    @property
    def d(self) -> int:
        return self.h.shape[0]

    def inv(self) -> "HElement":
        return HElement.make(inverse(self.h, SingularH, "reduction-group element is singular"))

    def __matmul__(self, other: "HElement") -> "HElement":
        return HElement.make(self.h @ other.h)


def random_h(d: int, seed: int) -> HElement:
    """Random group element: identity plus a row-sum-zero perturbation."""
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(100):
        noise = 0.5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        noise -= noise.sum(axis=1)[:, None] / d
        h = np.eye(d) + noise
        if abs(np.linalg.det(h)) > 1e-6:
            return HElement.make(h)
    raise SingularH("could not sample an invertible element")


def h_act(h: HElement, data):
    """Right action on spin data: Am -> Am h, Cm -> h^(-1) Cm; X, Z untouched."""
    hinv = inverse(h.h, SingularH, "reduction-group element is singular")
    if isinstance(data, SpinData):
        Am = data.Am @ h.h
        Cm = hinv @ data.Cm
        return SpinData(Am=_readonly(Am), Cm=_readonly(Cm), S=_readonly(Am @ Cm))
    if isinstance(data, ReducedQuadruple):
        return ReducedQuadruple(A=data.A, B=data.B,
                                bigA=_readonly(data.bigA @ h.h),
                                bigC=_readonly(hinv @ data.bigC))
    raise TypeError("h_act expects SpinData or ReducedQuadruple")


def minors_nonzero(Amat: np.ndarray) -> bool:
    """All d x d minors of the n x d matrix are nonzero (proper-action locus)."""
    Amat = np.asarray(Amat)
    n, d = Amat.shape
    if d > n:
        raise ValueError("need d <= n")
    scale = max(1.0, np.linalg.norm(Amat)) ** d
    for rows in combinations(range(n), d):
        if abs(np.linalg.det(Amat[list(rows), :])) <= _LOCUS_TOL * scale:
            return False
    return True


def full_rank_d(Amat: np.ndarray) -> bool:
    """Weaker free-action test: the n x d matrix has rank d."""
    svals = np.linalg.svd(np.asarray(Amat), compute_uv=False)
    return bool(svals[-1] > _LOCUS_TOL * max(1.0, svals[0]))


# -- invariant words -----------------------------------------------------------

def parse_invariant_word(text: str):
    """Parse a word over the letters X, Z, S, e.g. "X^2 S X^2 S" or "XXSZS"."""
    tokens = []
    for chunk in text.replace(".", " ").split():
        if "^" in chunk:
            letter, power = chunk.split("^")
            tokens.extend([letter] * int(power))
        else:
            tokens.extend(list(chunk))
    for tok in tokens:
        if tok not in ("X", "Z", "S"):
            raise ValueError(f"invariant words use letters X, Z, S only, got {tok!r}")
    return tuple(tokens)


def h_invariant_value(point: RepPoint, word, params: ParameterSet,
                      h: HElement | None = None) -> complex:
    """Trace of a word over the reduction-invariant letters X, Z, S.

    Letters evaluate on the normalized quadruple: X as the cycle monodromy A,
    Z as the reduced Lax matrix B, and S as the collective spin product
    bigA bigC (the f-matrix in coordinates).  These are simultaneous-
    conjugation covariant, so the traces are gauge invariant; S is exactly
    invariant under the spin-reduction action.  Pass `h` to evaluate at the
    h-acted spin data.
    """
    if isinstance(word, str):
        word = parse_invariant_word(word)
    quad = reduced_quadruple(point, params)
    if h is not None:
        quad = h_act(h, quad)
    mats = {"X": quad.A, "Z": quad.B, "S": quad.bigA @ quad.bigC}
    out = np.eye(point.spec.n, dtype=complex)
    for tok in word:
        out = out @ mats[tok]
    return complex(np.trace(out))


# -- gauge normal forms ---------------------------------------------------------

def is_diagonal_normal_form(point: RepPoint) -> bool:
    """X_s = Id for s <= m-2 and X_{m-1} diagonal, up to _LOCUS_TOL."""
    m, n = point.spec.m, point.spec.n
    eye = np.eye(n)
    for s in range(m - 1):
        if np.linalg.norm(point.X[s] - eye) > _LOCUS_TOL:
            return False
    off = point.X[m - 1] - np.diag(np.diag(point.X[m - 1]))
    return bool(np.linalg.norm(off) <= _LOCUS_TOL * max(1.0, np.linalg.norm(point.X[m - 1])))


def lambda_gauge(point: RepPoint, params: ParameterSet, branch=None) -> RepPoint:
    """Spread the diagonal normal form evenly around the cycle.

    Takes m-th roots lambda_i of the X_{m-1} eigenvalues (principal branch by
    default, shifted by the per-particle branch integers) and gauges by
    g_s = diag(lambda^(m-s)), after which every X_s equals diag(lambda).
    """
    m, n = point.spec.m, point.spec.n
    if not is_diagonal_normal_form(point):
        raise ValueError("lambda gauge needs the diagonal normal form")
    x = np.diag(point.X[m - 1])
    if branch is None:
        branch = [0] * n
    zeta = np.exp(2j * np.pi / m)
    lam = np.array([np.exp(np.log(x[i]) / m) * zeta ** branch[i] for i in range(n)])
    if np.max(np.abs(lam ** m - x)) > 1e-9 * max(1.0, np.max(np.abs(x))):
        raise BranchInvalid("chosen roots do not reproduce the eigenvalues")
    g = [np.diag(lam ** (m - s)) for s in range(m)]
    return gauge_act(g, point)


def lambda_gauge_z_blocks(lam: np.ndarray, f: np.ndarray,
                          params: ParameterSet) -> list:
    """Closed-form Z_s blocks in the lambda gauge: entries
    t_s t f_ij lambda_i^(m-s-1) lambda_j^s / (lambda_i^m - t lambda_j^m)."""
    m = params.m
    t = params.t
    denom = lam[:, None] ** m - t * lam[None, :] ** m
    out = []
    for s in range(m):
        numer = params.t_at(s) * t * f * np.outer(lam ** (m - s - 1), lam ** s)
        out.append(numer / denom)
    return out


def trZ2_closed_form(lam: np.ndarray, f: np.ndarray, gamma0: complex,
                     gamma1: complex) -> complex:
    """tr Z^2 at m = 2 in the lambda gauge, q_s = exp(-2 gamma_s).

    Partial-fraction form of the general Z-block entries; the total-space
    trace is 2 tr(Z_0 Z_1).
    """
    gamma = gamma0 + gamma1
    eg = np.exp(-gamma)
    den_minus = lam[:, None] - eg * lam[None, :]
    den_plus = lam[:, None] + eg * lam[None, :]
    kernel = (1.0 / den_minus + 1.0 / den_plus) * (1.0 / den_minus.T - 1.0 / den_plus.T)
    return complex(0.5 * np.exp(-5 * gamma - 2 * gamma0) * np.sum(kernel * f * f.T))


def trY2_closed_form(lam: np.ndarray, f: np.ndarray, gamma0: complex,
                     gamma1: complex) -> complex:
    """tr Y^2 at m = 2 in the lambda gauge.

    tr Y^2 = tr Z^2 - 2 sum_i ((q_0 t + t^2)/(1 - t)) f_ii / lam_i^2
           + 2 sum_i 1 / lam_i^2  with t = exp(-2 gamma); the correction
    terms carry the factor 2 of the total-space trace.
    """
    gamma = gamma0 + gamma1
    trZ2 = trZ2_closed_form(lam, f, gamma0, gamma1)
    coef = (np.exp(-2 * gamma - 2 * gamma0) + np.exp(-4 * gamma)) / (1 - np.exp(-2 * gamma))
    mid = np.sum(coef * np.diag(f) / lam ** 2)
    last = np.sum(1.0 / lam ** 2)
    return complex(trZ2 - 2 * mid + 2 * last)


# -- duality ---------------------------------------------------------------------

@dataclass(frozen=True)
class DualPoint:
    """Unframed dual data: X-hat and Z-hat blocks with the dual parameters.

    The framing vectors of the source point do not transport; they are
    dropped, and the note says so.
    """

    X: tuple
    Z: tuple
    params: ParameterSet
    note: str = "framing vectors dropped: duality is defined on unframed data"

    def as_rep_point(self, d: int = 1) -> RepPoint:
        """Embed as a RepPoint with zero framing vectors (bracket evaluation only)."""
        m, n = len(self.X), self.X[0].shape[0]
        Y = np.array(self.Z) - inverse(np.array(self.X), SingularX, "X-hat_{s} is singular")
        V, W = [np.zeros((1, n))] * d, [np.zeros((n, 1))] * d
        return RepPoint.make(ModelSpec(m=m, d=d, n=n), self.X, Y, V, W, Z=self.Z)


def dual_params(params: ParameterSet) -> ParameterSet:
    """q-hat_s = q_{(m-s) mod m}^(-1)."""
    m = params.m
    q = [1.0 / params.q[(m - s) % m] for s in range(m)]
    return derive_params(q, params.n)


def dual_point(point: RepPoint, params: ParameterSet) -> DualPoint:
    """Swap X and Z data with the vertex relabeling s -> m-1-s."""
    m = point.spec.m
    Z = point.require_Z()
    Xhat = tuple(_readonly(Z[(m - 1 - s) % m]) for s in range(m))
    Zhat = tuple(_readonly(point.X[(m - 1 - s) % m]) for s in range(m))
    for s in range(m):
        if abs(np.linalg.det(Xhat[s])) < 1e-13 * max(1.0, np.linalg.norm(Xhat[s])) ** point.spec.n:
            raise SingularX("dual X block is singular (Z_s not invertible)")
    return DualPoint(X=Xhat, Z=Zhat, params=dual_params(params))


def iota_letter(letter, m: int):
    """The duality involution on x/z letters: x_s <-> z_{m-1-s}, e_s -> e_{m-s}."""
    kind, idx = letter[0], letter[1]
    flip = {"x": "z", "z": "x", "xi": "zi", "zi": "xi"}
    if kind in flip:
        return (flip[kind], (m - 1 - idx) % m)
    if kind == "e":
        return ("e", (m - idx) % m if idx != m else m)
    raise ValueError("duality acts on the unframed alphabet only")


def iota_word(word, m: int):
    """Apply the involution letterwise (it is an algebra homomorphism)."""
    return tuple(iota_letter(l, m) for l in word)


def dual_moment_residual(dual: DualPoint) -> float:
    """Residual of the unframed relations X_s Z_s = q_s Z_{s-1} X_{s-1}, s != 0."""
    m = len(dual.X)
    worst = 0.0
    for s in range(1, m):
        lhs = dual.X[s] @ dual.Z[s]
        rhs = dual.params.q[s] * dual.Z[s - 1] @ dual.X[s - 1]
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst
