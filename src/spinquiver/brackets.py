"""Double quasi-Poisson brackets for the spin cyclic quiver.

The bracket of two generators is finite data: a list of tensor terms
(coeff, left word, right word).  Everything else follows from the axioms:

* derivation in the second argument for the outer bimodule structure,
* derivation in the first argument for the inner bimodule structure,
* the flip rule {{b, a}} = -tau {{a, b}},
* vanishing on idempotents,
* the sandwich rules for formal inverses.

The table below instantiates the standard quiver bracket for the vertex
ordering with x_s < y_s < x_{s-1} < y_{s-1} at cycle vertices and
x_0 < y_0 < x_{m-1} < y_{m-1} < v_1 < w_1 < ... at vertex 0.  Delta
conditions accumulate, so the small-m cases (m = 1, 2) where several index
coincidences fire at once come out right without special-casing.

Two consistent alphabets are supported: {x, y} and {x, z}, each together
with the framing letters and inverses.  Mixing y with z raises UnknownPair.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UnknownPair, WordTooLong
from .words import MAX_WORD_LEN, WordSum

HALF = 0.5


def ordering_sign(alpha: int, beta: int) -> int:
    """+1 if alpha < beta, -1 if alpha > beta, 0 if equal."""
    if alpha < beta:
        return 1
    if alpha > beta:
        return -1
    return 0


def _flip(terms):
    return tuple((-c, r, l) for c, l, r in terms)


@lru_cache(maxsize=None)
def _table_cycle_pair(m: int, k1: str, r: int, k2: str, s: int):
    """Bracket of two cycle letters from one alphabet ({x,y} or {x,z})."""
    terms = []
    rp, rm = (r + 1) % m, (r - 1) % m
    if k1 == "x" and k2 == "x":
        if s == rm:
            terms.append((HALF, (("x", rm), ("x", r)), (("e", r),)))
        if s == rp:
            terms.append((-HALF, (("e", rp),), (("x", r), ("x", rp))))
        return tuple(terms)
    if k1 in ("y", "z") and k2 == k1:
        u = k1
        if s == rm:
            terms.append((HALF, (("e", r),), ((u, r), (u, rm))))
        if s == rp:
            terms.append((-HALF, ((u, rp), (u, r)), (("e", rp),)))
        return tuple(terms)
    if k1 == "x" and k2 == "y":
        if s == r:
            terms.append((1.0, (("e", rp),), (("e", r),)))
            terms.append((HALF, (("y", r), ("x", r)), (("e", r),)))
            terms.append((HALF, (("e", rp),), (("x", r), ("y", r))))
        if s == rm:
            terms.append((-HALF, (("x", r),), (("y", rm),)))
        if s == rp:
            terms.append((HALF, (("y", rp),), (("x", r),)))
        return tuple(terms)
    if k1 == "x" and k2 == "z":
        if s == r:
            terms.append((HALF, (("z", r), ("x", r)), (("e", r),)))
            terms.append((HALF, (("e", rp),), (("x", r), ("z", r))))
        if s == rm:
            terms.append((-HALF, (("x", r),), (("z", rm),)))
        if s == rp:
            terms.append((HALF, (("z", rp),), (("x", r),)))
        return tuple(terms)
    return None


@lru_cache(maxsize=None)
def _table_cycle_framing(m: int, k1: str, r: int, k2: str, a: int):
    """Bracket of a cycle letter with a framing letter (w or v second)."""
    terms = []
    last = m - 1
    if k2 == "w":
        if k1 == "x":
            if r == last:
                terms.append((HALF, (("e", 0),), (("x", last), ("w", a))))
            if r == 0:
                terms.append((-HALF, (("x", 0),), (("w", a),)))
            return tuple(terms)
        if k1 in ("y", "z"):
            if r == 0:
                terms.append((HALF, (("e", 0),), ((k1, 0), ("w", a))))
            if r == last:
                terms.append((-HALF, ((k1, last),), (("w", a),)))
            return tuple(terms)
    if k2 == "v":
        if k1 == "x":
            if r == 0:
                terms.append((HALF, (("v", a), ("x", 0)), (("e", 0),)))
            if r == last:
                terms.append((-HALF, (("v", a),), (("x", last),)))
            return tuple(terms)
        if k1 in ("y", "z"):
            if r == last:
                terms.append((HALF, (("v", a), (k1, last)), (("e", 0),)))
            if r == 0:
                terms.append((-HALF, (("v", a),), ((k1, 0),)))
            return tuple(terms)
    return None


@lru_cache(maxsize=None)
def _table_framing_pair(m: int, k1: str, a: int, k2: str, b: int):
    terms = []
    o = ordering_sign(a, b)
    if k1 == "v" and k2 == "v":
        if o:
            terms.append((-HALF * o, (("v", b),), (("v", a),)))
            terms.append((-HALF * o, (("v", a),), (("v", b),)))
        return tuple(terms)
    if k1 == "w" and k2 == "w":
        if o:
            terms.append((-HALF * o, (("w", b),), (("w", a),)))
            terms.append((-HALF * o, (("w", a),), (("w", b),)))
        return tuple(terms)
    if k1 == "v" and k2 == "w":
        if a == b:
            terms.append((1.0, (("e", 0),), (("e", m),)))
            terms.append((HALF, (("w", a), ("v", a)), (("e", m),)))
            terms.append((HALF, (("e", 0),), (("v", a), ("w", a))))
        if o:
            terms.append((HALF * o, (("e", 0),), (("v", a), ("w", b))))
            terms.append((HALF * o, (("w", b), ("v", a)), (("e", m),)))
        return tuple(terms)
    return None


_BASE_KINDS = ("x", "y", "z", "v", "w")
_INVERSE_OF = {"xi": "x", "yi": "y", "zi": "z"}


def _base_pair_bracket(m: int, g1, g2):
    """Table lookup for non-inverse letters, flipping stored pairs as needed."""
    k1, k2 = g1[0], g2[0]
    if k1 == "e" or k2 == "e":
        return ()
    if {"y", "z"} <= {k1, k2} and k1 != k2:
        raise UnknownPair("cannot mix the y- and z-alphabets in one bracket")
    cyc1, cyc2 = k1 in ("x", "y", "z"), k2 in ("x", "y", "z")
    if cyc1 and cyc2:
        res = _table_cycle_pair(m, k1, g1[1], k2, g2[1])
        if res is not None:
            return res
        res = _table_cycle_pair(m, k2, g2[1], k1, g1[1])
        if res is not None:
            return _flip(res)
        raise UnknownPair(f"no table entry for {g1}, {g2}")
    if cyc1 and not cyc2:
        res = _table_cycle_framing(m, k1, g1[1], k2, g2[1])
        if res is not None:
            return res
        raise UnknownPair(f"no table entry for {g1}, {g2}")
    if cyc2 and not cyc1:
        res = _table_cycle_framing(m, k2, g2[1], k1, g1[1])
        if res is not None:
            return _flip(res)
        raise UnknownPair(f"no table entry for {g1}, {g2}")
    res = _table_framing_pair(m, k1, g1[1], k2, g2[1])
    if res is not None:
        return res
    res = _table_framing_pair(m, k2, g2[1], k1, g1[1])
    if res is not None:
        return _flip(res)
    raise UnknownPair(f"no table entry for {g1}, {g2}")


@lru_cache(maxsize=None)
def generator_bracket(m: int, g1, g2):
    """Double bracket {{g1, g2}} as tensor terms (coeff, left word, right word).

    Handles idempotents (zero), both alphabets, single-letter inverses via
    the sandwich rules, and composite unit-plus-word inverses recursively.
    """
    k1, k2 = g1[0], g2[0]
    if k1 == "e" or k2 == "e":
        return ()
    if k2 == "uinv":
        inner = double_bracket(m, (g1,), g2[2])
        return tuple((-c, (g2,) + l, r + (g2,)) for c, l, r in inner)
    if k1 == "uinv":
        inner = double_bracket(m, g1[2], (g2,))
        return tuple((-c, l + (g1,), (g1,) + r) for c, l, r in inner)
    if k2 in _INVERSE_OF:
        base2 = (_INVERSE_OF[k2], g2[1])
        inner = generator_bracket(m, g1, base2)
        return tuple((-c, (g2,) + l, r + (g2,)) for c, l, r in inner)
    if k1 in _INVERSE_OF:
        base1 = (_INVERSE_OF[k1], g1[1])
        inner = generator_bracket(m, base1, g2)
        return tuple((-c, l + (g1,), (g1,) + r) for c, l, r in inner)
    return _base_pair_bracket(m, g1, g2)


def double_bracket(m: int, w1, w2):
    """Leibniz extension of the generator brackets to words.

    Returns tensor terms (coeff, left word, right word); words are raw
    concatenations (idempotents not yet simplified).
    """
    w1, w2 = tuple(w1), tuple(w2)
    if len(w1) > MAX_WORD_LEN or len(w2) > MAX_WORD_LEN:
        raise WordTooLong("word too long for symbolic expansion")
    out = []
    for i, a in enumerate(w1):
        pre1, suf1 = w1[:i], w1[i + 1:]
        for j, b in enumerate(w2):
            pre2, suf2 = w2[:j], w2[j + 1:]
            for c, left, right in generator_bracket(m, a, b):
                out.append((c, pre2 + left + suf1, pre1 + right + suf2))
    return out


def loday_word_terms(m: int, w1, w2):
    """Terms of the associated bracket {w1, w2} = m o {{w1, w2}} as raw words."""
    return [(c, left + right) for c, left, right in double_bracket(m, w1, w2)]


def trace_bracket_symbolic(m: int, w1, w2) -> WordSum:
    """{tr w1, tr w2} as a canonicalized cyclic word sum.

    Incomposable terms drop, each word is freely reduced as a closed word
    under the trace (x x^(-1) = e, cyclically too), and coefficients cancel
    exactly (they are binary fractions), so identities like
    {tr x^k, tr x^l} = 0 and {tr y, tr x x^(-1)} = 0 produce an empty sum.
    """
    return WordSum(loday_word_terms(m, w1, w2)).canonicalized(m)


# -- moment-map words --------------------------------------------------------

def phi_word_terms(m: int, d: int, s):
    """The moment component at vertex s as a sum of words, coefficients 1.

    Cycle vertices use (e_s + x_s y_s)(e_s + y_{s-1} x_{s-1})^(-1), with the
    framing factors (e_0 + w_a v_a)^(-1) appended at s = 0 in increasing a.
    The framing vertex (s = m, or the string "inf") expands the right product
    of (e_inf + v_a w_a) into its 2^d words.
    """
    if s == "inf":
        s = m
    if s == m:
        words = [()]
        for a in range(1, d + 1):
            words = [w for w in words] + [w + (("v", a), ("w", a)) for w in words]
        out = []
        for w in words:
            out.append((1.0, w if w else (("e", m),)))
        return out
    prev = (s - 1) % m
    tail = (("uinv", s, (("y", prev), ("x", prev))),)
    if s == 0:
        for a in range(1, d + 1):
            tail = tail + (("uinv", 0, (("w", a), ("v", a))),)
    return [(1.0, tail), (1.0, (("x", s), ("y", s)) + tail)]


def phi_localized_word(m: int, s: int):
    """The cycle moment component at s in the x-localized form x_s z_s x_{s-1}^(-1) z_{s-1}^(-1)."""
    prev = (s - 1) % m
    return (("x", s), ("z", s), ("xi", prev), ("zi", prev))


def phi_localized_terms(m: int, d: int, s):
    """Moment component words over the {x, z} alphabet (X-invertible points only).

    Same content as phi_word_terms but with the cycle factors localized, so
    brackets against z-words stay within one alphabet.
    """
    if s == "inf" or s == m:
        return phi_word_terms(m, d, m)
    word = phi_localized_word(m, s)
    if s == 0:
        for a in range(1, d + 1):
            word = word + (("uinv", 0, (("w", a), ("v", a))),)
    return [(1.0, word)]
