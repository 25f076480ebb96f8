"""Coordinate Poisson brackets on the spin RS chart and their closed forms.

Coordinates are labelled ("x", i), ("a", i, alpha), ("c", j, alpha) with
0-based particle indices and 1-based spin indices.  The table below covers
the ordered kind pairs (x,x), (a,x), (c,x), (a,a), (c,a), (c,c); the rest
follow by antisymmetry.  The closed forms express the brackets of the
generating functions f_k = tr A^k and g_k = tr(bigA E bigC A^k) directly in
the quadruple.
"""

from __future__ import annotations

import numpy as np

from .brackets import ordering_sign
from .params import ParameterSet
from .points import LocalCoordinates, ReducedQuadruple, lax_matrix

_FD_STEP = 1e-6


def coordinate_ids(n: int, d: int):
    """Every coordinate label of the chart, x first, then a, then c."""
    ids = [("x", i) for i in range(n)]
    ids += [("a", i, al) for i in range(n) for al in range(1, d + 1)]
    ids += [("c", j, al) for j in range(n) for al in range(1, d + 1)]
    return ids


def coord_bracket(coords: LocalCoordinates, params: ParameterSet, u, v) -> complex:
    """The chart bracket {u, v}; antisymmetric by construction."""
    table = {("x", "x"), ("a", "x"), ("c", "x"), ("a", "a"), ("c", "a"), ("c", "c")}
    if (u[0], v[0]) in table:
        return _table_bracket(coords, params, u, v)
    return -_table_bracket(coords, params, v, u)


def _table_bracket(coords, params, u, v) -> complex:
    x = coords.x
    a = coords.a
    c = coords.c
    d = coords.d
    ku, kv = u[0], v[0]
    if kv == "x":
        i = v[1]
        if ku == "x" or ku == "a":
            return 0.0
        j, al = u[1], u[2]
        return -(1.0 if i == j else 0.0) * c[al - 1, j] * x[i]

    if ku == "a" and kv == "a":
        j, g = u[1], u[2]
        i, al = v[1], v[2]
        val = 0.0 + 0.0j
        if i != j:
            ratio = (x[j] + x[i]) / (x[j] - x[i])
            val += 0.5 * ratio * (a[j, g - 1] * a[i, al - 1] + a[i, g - 1] * a[j, al - 1]
                                  - a[j, g - 1] * a[j, al - 1] - a[i, g - 1] * a[i, al - 1])
        val += 0.5 * ordering_sign(al, g) * (a[j, g - 1] * a[i, al - 1]
                                             + a[i, g - 1] * a[j, al - 1])
        for sig in range(1, d + 1):
            val += 0.5 * ordering_sign(g, sig) * a[i, al - 1] * (
                a[j, g - 1] * a[i, sig - 1] + a[i, g - 1] * a[j, sig - 1])
        for kap in range(1, d + 1):
            val -= 0.5 * ordering_sign(al, kap) * a[j, g - 1] * (
                a[j, kap - 1] * a[i, al - 1] + a[i, kap - 1] * a[j, al - 1])
        return complex(val)

    B = lax_matrix(coords, params.t)

    if ku == "c" and kv == "a":
        j, ep = u[1], u[2]
        i, al = v[1], v[2]
        val = (1.0 if ep == al else 0.0) * B[i, j] - a[i, al - 1] * B[i, j]
        if i != j:
            val += 0.5 * (x[j] + x[i]) / (x[j] - x[i]) * c[ep - 1, j] * (
                a[j, al - 1] - a[i, al - 1])
        if al < ep:
            val -= a[i, al - 1] * c[ep - 1, j]
        for lam in range(1, ep):
            val -= a[i, al - 1] * a[i, lam - 1] * (c[lam - 1, j] - c[ep - 1, j])
        if ep == al:
            for lam in range(1, ep):
                val += a[i, lam - 1] * c[lam - 1, j]
        for kap in range(1, d + 1):
            val += 0.5 * ordering_sign(al, kap) * c[ep - 1, j] * (
                a[j, kap - 1] * a[i, al - 1] + a[i, kap - 1] * a[j, al - 1])
        return complex(val)

    if ku == "c" and kv == "c":
        j, ep = u[1], u[2]
        i, be = v[1], v[2]
        val = 0.0 + 0.0j
        if i != j:
            val += 0.5 * (x[j] + x[i]) / (x[j] - x[i]) * (
                c[ep - 1, j] * c[be - 1, i] + c[ep - 1, i] * c[be - 1, j])
        val += c[be - 1, i] * B[i, j] - c[ep - 1, j] * B[j, i]
        val += 0.5 * ordering_sign(ep, be) * (
            c[ep - 1, i] * c[be - 1, j] - c[ep - 1, j] * c[be - 1, i])
        for lam in range(1, ep):
            val += c[be - 1, i] * a[i, lam - 1] * (c[lam - 1, j] - c[ep - 1, j])
        for mu in range(1, be):
            val -= c[ep - 1, j] * a[j, mu - 1] * (c[mu - 1, i] - c[be - 1, i])
        return complex(val)

    raise ValueError(f"no bracket rule for kinds ({ku}, {kv})")


def chain_bracket(coords: LocalCoordinates, params: ParameterSet, fn_f, fn_g) -> complex:
    """{F, G} by the chain rule over the chart with finite-difference gradients."""
    ids = coordinate_ids(coords.n, coords.d)
    grad_f = _fd_gradient(coords, fn_f, ids)
    grad_g = _fd_gradient(coords, fn_g, ids)
    total = 0.0 + 0.0j
    for iu, u in enumerate(ids):
        if grad_f[iu] == 0:
            continue
        for iv, v in enumerate(ids):
            if grad_g[iv] == 0:
                continue
            total += grad_f[iu] * coord_bracket(coords, params, u, v) * grad_g[iv]
    return complex(total)


def _fd_gradient(coords, fn, ids):
    """Central differences with step _FD_STEP in every chart coordinate."""
    out = np.zeros(len(ids), dtype=complex)
    for k, label in enumerate(ids):
        plus = _shift(coords, label, _FD_STEP)
        minus = _shift(coords, label, -_FD_STEP)
        out[k] = (fn(plus) - fn(minus)) / (2 * _FD_STEP)
    return out


def _shift(coords, label, delta) -> LocalCoordinates:
    x = np.array(coords.x)
    a = np.array(coords.a)
    c = np.array(coords.c)
    if label[0] == "x":
        x[label[1]] += delta
    elif label[0] == "a":
        a[label[1], label[2] - 1] += delta
    else:
        c[label[2] - 1, label[1]] += delta
    return LocalCoordinates(x=x, a=a, c=c)


# -- closed forms for the generating functions -----------------------------------

def g_value(quad: ReducedQuadruple, k: int, alpha: int, beta: int) -> complex:
    """tr(bigA E_{alpha beta} bigC A^k)."""
    Ak = np.linalg.matrix_power(quad.A, k)
    return complex(quad.bigC[beta - 1, :] @ Ak @ quad.bigA[:, alpha - 1])


def _aec(quad, alpha, beta) -> np.ndarray:
    return np.outer(quad.bigA[:, alpha - 1], quad.bigC[beta - 1, :])


def closed_form_fg_bracket(quad: ReducedQuadruple, kind: str, k: int, l: int,
                           alpha: int = 1, beta: int = 1, gamma: int = 1,
                           eps: int = 1) -> complex:
    """Closed forms of the generating-function brackets.

    kind "ff": {f_k, f_l} = 0.
    kind "fg": {f_k, g_l^{alpha beta}} = k g_{k+l}^{alpha beta}.
    kind "gg": {g_k^{gamma eps}, g_l^{alpha beta}} as an explicit trace sum.
    """
    if kind == "ff":
        return 0.0
    if kind == "fg":
        return k * g_value(quad, k + l, alpha, beta)
    if kind != "gg":
        raise ValueError("kind must be ff, fg, or gg")

    A = quad.A
    B = quad.B
    Ap = [np.linalg.matrix_power(A, p) for p in range(k + l + 1)]
    o = ordering_sign

    def tr2(M1, p1, M2, p2):
        return complex(np.trace(M1 @ Ap[p1] @ M2 @ Ap[p2]))

    Eab = _aec(quad, alpha, beta)
    Ege = _aec(quad, gamma, eps)
    Eae = _aec(quad, alpha, eps)
    Egb = _aec(quad, gamma, beta)

    total = 0.0 + 0.0j
    for r in range(1, k + 1):
        total += 0.5 * (tr2(Eab, r, Ege, k + l - r) + tr2(Eab, k + l - r, Ege, r))
    for r in range(1, l + 1):
        total -= 0.5 * (tr2(Eab, r, Ege, k + l - r) + tr2(Eab, k + l - r, Ege, r))
    total += 0.5 * o(alpha, gamma) * (tr2(Ege, k, Eab, l) + tr2(Eae, k, Egb, l))
    total += 0.5 * o(eps, beta) * (tr2(Eab, k, Ege, l) - tr2(Eae, k, Egb, l))
    total += 0.5 * (o(eps, alpha) + (1.0 if alpha == eps else 0.0)) * tr2(Eae, k, Egb, l)
    total -= 0.5 * (o(beta, gamma) + (1.0 if beta == gamma else 0.0)) * tr2(Eae, k, Egb, l)
    if alpha == eps:
        bump = B + sum((_aec(quad, lam, lam) for lam in range(1, eps)),
                       np.zeros_like(B))
        total += tr2(bump, k, Egb, l)
    if beta == gamma:
        bump = B + sum((_aec(quad, mu, mu) for mu in range(1, beta)),
                       np.zeros_like(B))
        total -= tr2(bump, l, Eae, k)
    return complex(total)
