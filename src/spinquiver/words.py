"""Symbolic words over the quiver generators.

A letter is a plain tuple so words hash and sort naturally:

    ("x", s)            arrow s -> s+1 on the cycle
    ("y", s)            reversed arrow s+1 -> s
    ("z", s)            the locally invertible combination y_s + x_s^(-1)
    ("xi"|"yi"|"zi", s) formal inverses of the above
    ("v", a)            framing arrow inf -> 0, a = 1..d
    ("w", a)            reversed framing arrow 0 -> inf
    ("e", v)            idempotent at vertex v (v = m denotes the framing vertex)
    ("uinv", v, inner)  inverse of (e_v + inner), inner a closed word at v

Vertices are 0..m-1 for the cycle and m for the framing vertex.  Paths are
written left to right, so a word evaluates to the plain left-to-right product
of the matrices representing its letters.
"""

from __future__ import annotations

MAX_WORD_LEN = 64

_CYCLE_KINDS = {"x", "y", "z", "xi", "yi", "zi"}


def letter_tail_head(letter, m: int):
    """(tail, head) vertices of a letter; framing vertex is m."""
    kind = letter[0]
    if kind == "x":
        s = letter[1]
        return s, (s + 1) % m
    if kind in ("y", "z"):
        s = letter[1]
        return (s + 1) % m, s
    if kind == "xi":
        s = letter[1]
        return (s + 1) % m, s
    if kind in ("yi", "zi"):
        s = letter[1]
        return s, (s + 1) % m
    if kind == "v":
        return m, 0
    if kind == "w":
        return 0, m
    if kind == "e":
        return letter[1], letter[1]
    if kind == "uinv":
        return letter[1], letter[1]
    raise ValueError(f"unknown letter kind {kind!r}")


def word_tail_head(word, m: int):
    """(tail, head) of a composable word, or None if letters do not compose."""
    if not word:
        return None
    tail, head = letter_tail_head(word[0], m)
    for letter in word[1:]:
        t, h = letter_tail_head(letter, m)
        if t != head:
            return None
        head = h
    return tail, head


_INVERSE_KIND = {"x": "xi", "xi": "x", "y": "yi", "yi": "y", "z": "zi", "zi": "z"}


def _cancels(a, b) -> bool:
    """Whether letter b is the inverse of letter a: x_s and xi_s, y_s and yi_s, z_s and zi_s."""
    return _INVERSE_KIND.get(a[0]) == b[0] and a[1] == b[1]


def simplify_word(word, m: int):
    """Drop redundant idempotents and cancel inverse letters; None if the word is zero.

    A zero word arises when consecutive letters do not compose.  Words are
    read under a trace, so a closed word's last letter also cancels against
    its first.  A word that reduces to idempotents only becomes the
    idempotent (e, v) at its tail.
    """
    ends = word_tail_head(word, m)
    if ends is None:
        return None
    kept = []
    for letter in word:
        if letter[0] == "e":
            continue
        if kept and _cancels(kept[-1], letter):
            kept.pop()
        else:
            kept.append(letter)
    while ends[0] == ends[1] and len(kept) > 1 and _cancels(kept[-1], kept[0]):
        kept = kept[1:-1]
    return tuple(kept) if kept else (("e", ends[0]),)


def canonical_rotation(word):
    """Lexicographically minimal rotation of a closed word."""
    n = len(word)
    if n <= 1:
        return tuple(word)
    doubled = tuple(word) + tuple(word)
    return min(doubled[i:i + n] for i in range(n))


class WordSum:
    """A finite linear combination of closed words (trace-function data)."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        for coeff, word in terms:
            word = tuple(word)
            acc[word] = acc.get(word, 0) + coeff
        self.terms = tuple((c, w) for w, c in acc.items() if c != 0)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def canonicalized(self, m: int) -> "WordSum":
        out = {}
        for coeff, word in self.terms:
            w = simplify_word(word, m)
            if w is None:
                continue
            w = canonical_rotation(w)
            out[w] = out.get(w, 0) + coeff
        return WordSum(tuple((c, w) for w, c in out.items() if c != 0))

    def __add__(self, other: "WordSum") -> "WordSum":
        return WordSum(self.terms + other.terms)

    def __repr__(self):
        return f"WordSum({self.terms!r})"


# -- serialization -----------------------------------------------------------

_TOKEN_KINDS = ("xi", "yi", "zi", "x", "y", "z", "v", "w", "e")


def token_to_letter(token: str, m: int):
    token = token.strip()
    for kind in _TOKEN_KINDS:
        if token.startswith(kind):
            idx_str = token[len(kind):]
            if idx_str == "inf" and kind == "e":
                return ("e", m)
            idx = int(idx_str)
            if kind in ("v", "w"):
                if not 1 <= idx:
                    raise ValueError(f"framing index must be >= 1 in {token!r}")
            return (kind, idx)
    raise ValueError(f"cannot parse word token {token!r}")


def parse_word(text: str, m: int):
    """Parse a dot-separated token string like "x0.y1.v1.w2" into a word."""
    return tuple(token_to_letter(tok, m) for tok in text.split(".") if tok)


def u_power_word(kind: str, k: int, m: int, start: int = 0):
    """Power word for a cycle letter kind; x-like kinds step forward, y-like backward."""
    if kind in ("x", "yi", "zi"):
        return tuple((kind, (start + i) % m) for i in range(k))
    if kind in ("y", "z", "xi"):
        return tuple((kind, (start - 1 - i) % m) for i in range(k))
    raise ValueError(f"not a cycle kind: {kind!r}")


def cycle_power_sum(kind: str, k: int, m: int) -> WordSum:
    """The element u^k summed over base vertices; its trace is tr of the total power."""
    return WordSum(tuple((1.0, u_power_word(kind, k, m, start=s)) for s in range(m)))


def cprime_word_terms(beta: int, m: int):
    """The spin element c'_beta expanded into words v_beta (w v choices) z_{m-1}.

    The unit-plus-product factors appear in decreasing framing index from the
    left, matching the defining product.
    """
    factors = [()]
    for lam in range(beta - 1, 0, -1):
        factors = [w + (("w", lam), ("v", lam)) for w in factors] + list(factors)
    return tuple((1.0, (("v", beta),) + w + (("z", m - 1),)) for w in factors)


def spin_trace_word(alpha: int, beta: int, ell: int, m: int) -> WordSum:
    """The closed element a'_alpha c'_beta x^ell (nonzero trace needs ell = 1 mod m)."""
    return WordSum(tuple((c, (("w", alpha),) + w + u_power_word("x", ell, m, start=m - 1))
                         for c, w in cprime_word_terms(beta, m)))
