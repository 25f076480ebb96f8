"""Evaluation of words and brackets at a representation point.

Every letter lives on one (tail, head) block of the point, the vertices that
words.letter_tail_head gives: an n x n block between cycle vertices, a 1 x n
row or n x 1 column between vertex 0 and the framing vertex, an identity
block for an idempotent.  A word evaluates to the product of its letter
blocks on (tail of its first letter, head of its last); it is zero when its
letters do not compose, which words.word_tail_head decides before any product
is formed.  A Gradient is an immutable map from each base letter to a
read-only block of that letter's shape.  PointEngine.letter_gradients takes
(letter, Q) pairs, Q the transposed gradient on that letter's block, returns
a Gradient, and is the one place where the rules for z = y + x^(-1),
inverses and unit-plus-word letters are applied.  The engine forms no matrix
of the total space C^(m n + 1), one n-dimensional block per cycle vertex and
a 1-dimensional framing block; trace_word(()) = m n + 1 is the trace of its
identity.  The tests keep the total-space view as their dense reference.

Bracket values between trace functions are computed two ways:

* the word route: Leibniz expansion of the double bracket over letter pairs.
  By cyclicity each tensor term is tr(L . rest1 . R . rest2), where rest1
  and rest2 are what remain of the two closed words around their bracketed
  letters, so the route sums the rests per letter over every occurrence and
  contracts those letter-level blocks against the letters' own pair table;
* the gradient route: matrix gradients of the two functions with respect to
  the base generators contracted against the generator-pair table, which is
  the induced antisymmetric biderivation on the representation space.

The letter-level rests of a word sum are expanded once per point: the engine
caches them per word sum, keyed by its terms, as read-only blocks, and both
routes read that one expansion (so a check that brackets tr X^m against many
spin words, by both routes, expands tr X^m once).

Both routes read one cached block evaluation of the generator-pair table.
Its terms are multiplied without checking vertices: a term {{a, b}} has its
left word on (tail b, head a) and its right word on (tail a, head b), which
the tests check over the whole table.  The two routes agree (tested).

Both routes contract from a plan cached per pair of key sequences.  By
cyclicity a term coeff tr(D_F[a] L^T D_G[b] R^T) is tr(A_t B_t), with the
F half A_t = coeff R^T D_F[a] and the G half B_t = L^T D_G[b].  The plan
groups the terms by block shape and stacks each group's words, so each
side's halves for every term are one batched matmul per group.  A Gradient
keeps the last half it formed, per (plan, side): a family's all-pairs loop
forms about two halves per member, and each pair costs one product of two
flat halves and the per-term sums.  The term mass is still the sum of the
terms' absolute values.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .brackets import _INVERSE_OF, generator_bracket, phi_word_terms
from .errors import SingularFactor
from .params import ParameterSet
from .points import RepPoint, _readonly, inverse
from .words import WordSum, letter_tail_head, word_tail_head


def _as_wordsum(w) -> WordSum:
    if isinstance(w, WordSum):
        return w
    return WordSum(((1.0, tuple(w)),))


class Gradient(Mapping):
    """An immutable map from letters to read-only gradient blocks.

    D[g][i, j] = dF / d g_ij, a block of letter g's shape.  The constructor
    copies its blocks.

    bracket_gradients keeps on a Gradient the last contraction half it formed
    from the blocks, keyed by (plan, side).  One slot is enough for an
    all-pairs loop over the upper triangle, row by row: a member is the G side
    of every row before its own and the F side from its own row on, so it
    forms each half once, while the memory kept stays at one half per
    gradient.  Plans belong to one engine, so a half is never read against
    another point's pair table.
    """

    __slots__ = ("_blocks", "_memo")

    def __init__(self, blocks=()):
        self._blocks = {g: _readonly(D) for g, D in dict(blocks).items()}
        self._memo = None

    @classmethod
    def _wrap(cls, blocks: dict) -> "Gradient":
        """A Gradient over blocks as given, for blocks that no caller writes to."""
        out = cls.__new__(cls)
        out._blocks = blocks
        out._memo = None
        return out

    def __getitem__(self, g) -> np.ndarray:
        return self._blocks[g]

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def _half(self, plan: "_BracketPlan", side: int) -> np.ndarray:
        memo = self._memo
        if memo is not None and memo[0] is plan and memo[1] == side:
            return memo[2]
        half = plan.half(side, self._blocks)
        self._memo = (plan, side, half)
        return half


class _BracketPlan:
    """The pair terms of two key sequences, stacked so each side's halves are one matmul per group.

    A term coeff * tr(D_F[a] L^T D_G[b] R^T) is tr(A_t B_t) with the F half
    A_t = coeff R^T D_F[a] and the G half B_t = L^T D_G[b].  Terms are grouped
    by the shapes of their (L, R) blocks, which fix those of D_F[a] (R rows by
    L columns) and D_G[b] (L rows by R columns).  Per group and side, `sides`
    holds the distinct keys the group reads, each term's index into them, and
    the terms' words stacked: coeff R^T for F, L for G.  One gather of the key
    blocks and one batched matmul give every term's A_t, or B_t transposed,
    both R columns by L columns; so tr(A_t B_t) is the sum of the product of
    the two flat halves over the term's run.  `starts` are the runs' offsets,
    None when there is no term.
    """

    __slots__ = ("sides", "starts")

    def __init__(self, groups: dict):
        """groups: per (L, R) block shapes, (coeff, a, b, L, R) per term."""
        self.sides: tuple = ([], [])
        starts: list = []
        total = 0
        for ((_, Lc), (_, Rc)), terms in groups.items():
            cs, keysF, keysG, Ls, Rs = zip(*terms)
            wordsF = np.array([R.T for R in Rs]) * np.array(cs)[:, None, None]
            self.sides[0].append(_term_keys(keysF) + (wordsF,))
            self.sides[1].append(_term_keys(keysG) + (np.array(Ls),))
            starts.extend(range(total, total + len(terms) * Rc * Lc, Rc * Lc))
            total += len(terms) * Rc * Lc
        self.starts = np.array(starts) if starts else None

    def half(self, side: int, blocks: dict) -> np.ndarray:
        """Every term's half on one side, from that side's gradient blocks, flat in term order."""
        if side == 0:
            parts = [words @ np.array([blocks[g] for g in keys]).take(index, axis=0)
                     for keys, index, words in self.sides[0]]
        else:
            parts = [np.array([blocks[g].T for g in keys]).take(index, axis=0) @ words
                     for keys, index, words in self.sides[1]]
        return parts[0].ravel() if len(parts) == 1 else np.concatenate([p.ravel() for p in parts])


def _term_keys(keys_t) -> tuple:
    """(keys, index): the distinct keys in first-use order and each term's position among them."""
    keys = tuple(dict.fromkeys(keys_t))
    where = {k: i for i, k in enumerate(keys)}
    return keys, np.array([where[k] for k in keys_t])


class PointEngine:
    """Caches letter blocks and evaluated bracket-table terms for one point."""

    def __init__(self, point: RepPoint, params: ParameterSet | None = None):
        self.point = point
        self.spec = point.spec
        self.params = params
        self.m, self.n, self.d = self.spec.m, self.spec.n, self.spec.d
        self.N = self.spec.total_dim
        self._letter_cache: dict = {}
        self._pair_cache: dict = {}
        self._plan_cache: dict = {}
        self._rests_cache: dict = {}

    def _eye(self, v: int) -> np.ndarray:
        return np.eye(1 if v == self.m else self.n)

    # -- letter / word blocks ---------------------------------------------

    def letter_block(self, letter) -> np.ndarray:
        """The block of a letter on its (tail, head) vertices."""
        cached = self._letter_cache.get(letter)
        if cached is not None:
            return cached
        kind = letter[0]
        p = self.point
        if kind == "x":
            out = p.X[letter[1] % self.m]
        elif kind == "y":
            out = p.Y[letter[1] % self.m]
        elif kind == "z":
            out = p.require_Z()[letter[1] % self.m]
        elif kind in _INVERSE_OF:
            out = inverse(self.letter_block((_INVERSE_OF[kind], letter[1])), SingularFactor,
                          f"letter {letter} has no inverse")
        elif kind == "v":
            out = p.V[letter[1] - 1]
        elif kind == "w":
            out = p.W[letter[1] - 1]
        elif kind == "e":
            out = self._eye(letter[1])
        elif kind == "uinv":
            v = letter[1]
            out = inverse(self._eye(v) + self._word(letter[2])[2], SingularFactor,
                          f"unit-plus-word letter at vertex {v} singular")
        else:
            raise ValueError(f"unknown letter {letter!r}")
        self._letter_cache[letter] = out
        return out

    def _word(self, word):
        """(tail, head, block) of a word, or None when its letters do not compose."""
        th = word_tail_head(word, self.m)
        if th is None:
            return None
        out = self.letter_block(word[0])
        for letter in word[1:]:
            out = out @ self.letter_block(letter)
        return th[0], th[1], out

    def _partials(self, word):
        """((tail, head), prefixes, suffixes) of a composable word, or None.

        pre[i] is the product of the letters before i and suf[i] of the
        letters from i on; the empty products are identities on the tail and
        the head.
        """
        th = word_tail_head(word, self.m)
        if th is None:
            return None
        blocks = [self.letter_block(l) for l in word]
        pre = [self._eye(th[0])]
        for mat in blocks:
            pre.append(pre[-1] @ mat)
        suf = [self._eye(th[1])]
        for mat in reversed(blocks):
            suf.append(mat @ suf[-1])
        suf.reverse()
        return th, pre, suf

    def _rests(self, word):
        """Per letter of a closed word, the block of the other letters.

        Entry i is the product of the letters after i followed by those before
        it, a block from the head of letter i to its tail.  None when the word
        is not closed, since then every trace term vanishes.
        """
        parts = self._partials(word)
        if parts is None or parts[0][0] != parts[0][1]:
            return None
        _, pre, suf = parts
        return [suf[i + 1] @ pre[i] for i in range(len(word))]

    def _pair_terms(self, g1, g2):
        """Terms of {{g1, g2}} as (coeff, left block, right block), cached."""
        key = (g1, g2)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._pair_cache[key] = tuple(
                (c, self._word(left)[2], self._word(right)[2])
                for c, left, right in generator_bracket(self.m, g1, g2))
        return cached

    def trace_word(self, word) -> complex:
        if not word:
            return complex(self.N)
        path = self._word(word)
        if path is None or path[0] != path[1]:
            return 0j
        return complex(np.trace(path[2]))

    def trace_wordsum(self, ws) -> complex:
        return complex(sum(c * self.trace_word(w) for c, w in _as_wordsum(ws)))

    # -- bracket values: word route ---------------------------------------

    def _letter_rests(self, ws) -> tuple:
        """(letter, sum of coeff * rest) pairs over the letters' occurrences in the closed words of ws.

        Cached per word sum, keyed by its terms, with read-only blocks: both
        bracket routes read the same expansion.
        """
        ws = _as_wordsum(ws)
        cached = self._rests_cache.get(ws.terms)
        if cached is not None:
            return cached
        out: dict = {}
        for cw, word in ws:
            for letter, rest in zip(word, self._rests(word) or ()):
                out[letter] = out.get(letter, 0.0) + cw * rest
        for Q in out.values():
            Q.flags.writeable = False
        cached = self._rests_cache[ws.terms] = tuple(out.items())
        return cached

    def trace_bracket_value(self, w1, w2) -> complex:
        """{tr w1, tr w2} for closed words or word sums.

        bracket_gradients contracts the transposed letter-level rests against
        the letters' own pair table, with no chain rule.
        """
        return self.bracket_gradients(
            {l: Q.T for l, Q in self._letter_rests(w1)},
            {l: Q.T for l, Q in self._letter_rests(w2)})

    # -- bracket values: gradient route ------------------------------------

    def _accumulate_letter_grad(self, letter, Q, grads) -> None:
        """Add Q, the transposed gradient of a letter, to its base generators."""
        kind = letter[0]
        if kind == "e":
            return
        if kind in ("x", "y", "v", "w"):
            key = letter
            grads[key] = grads.get(key, 0.0) + Q
            return
        if kind == "z":
            s = letter[1]
            self._accumulate_letter_grad(("y", s), Q, grads)
            xi = self.letter_block(("xi", s))
            self._accumulate_letter_grad(("x", s), -(xi @ Q @ xi), grads)
            return
        if kind in _INVERSE_OF:
            inv = self.letter_block(letter)
            self._accumulate_letter_grad((_INVERSE_OF[kind], letter[1]),
                                         -(inv @ Q @ inv), grads)
            return
        if kind == "uinv":
            u = self.letter_block(letter)
            q_inner = -(u @ Q @ u)
            inner = letter[2]
            _, pre, suf = self._partials(inner)
            for i, l in enumerate(inner):
                self._accumulate_letter_grad(l, suf[i + 1] @ q_inner @ pre[i], grads)
            return
        raise ValueError(f"unknown letter {letter!r}")

    def letter_gradients(self, pairs) -> Gradient:
        """The Gradient over the base generators from (letter, Q = (dF/d letter)^T) pairs.

        Keys follow the order in which the chain rule first reaches them, and
        all-zero blocks are left out.  The result is immutable, so
        bracket_gradients may keep its contraction halves on it.
        """
        accQ: dict = {}
        for letter, Q in pairs:
            self._accumulate_letter_grad(letter, Q, accQ)
        blocks = {g: Q.T for g, Q in accQ.items() if np.any(Q)}
        for D in blocks.values():
            D.flags.writeable = False
        return Gradient._wrap(blocks)

    def grad_trace_wordsum(self, ws) -> Gradient:
        """Gradient blocks D[g][i, j] = d tr(ws) / d g_ij over the base generators.

        The word route's letter-level rests, through the chain rule.
        """
        return self.letter_gradients(self._letter_rests(ws))

    def _bracket_plan(self, keysF: tuple, keysG: tuple) -> "_BracketPlan":
        """The pair terms of two key sequences, grouped by block shape; cached.

        See _BracketPlan.  No gradient value is kept.
        """
        key = (keysF, keysG)
        plan = self._plan_cache.get(key)
        if plan is None:
            groups: dict = {}
            for a in keysF:
                for b in keysG:
                    for c, L, R in self._pair_terms(a, b):
                        groups.setdefault((L.shape, R.shape), []).append((c, a, b, L, R))
            plan = self._plan_cache[key] = _BracketPlan(groups)
        return plan

    def bracket_gradients(self, gradF, gradG, with_mass: bool = False):
        """Contract two gradients against the pair table of their keys.

        {F, G} = sum over key pairs and tensor terms of
        coeff * tr(D_F[a] . L^T . D_G[b] . R^T).  The keys are base
        generators, or any letters for the word route.

        By cyclicity each term is tr(A_t B_t), with the F half
        A_t = coeff R^T D_F[a] and the G half B_t = L^T D_G[b].  The plan,
        built once per pair of key sequences, stacks the terms' words, so a
        side's halves for every term are one batched matmul per block-shape
        group (_BracketPlan.half).  A Gradient memoises the last half it
        formed, per (plan, side): over a family's all-pairs loop each member
        forms its G half and its F half once, and each pair costs one
        elementwise product of the two halves and the per-term sums.  Plain
        dicts are wrapped per call, so nothing is memoised for them.

        With with_mass=True also returns the pre-cancellation term mass
        (sum of absolute term values, taken term by term), the natural scale
        for involutivity residuals.
        """
        F = gradF if isinstance(gradF, Gradient) else Gradient._wrap(gradF)
        G = gradG if isinstance(gradG, Gradient) else Gradient._wrap(gradG)
        plan = self._bracket_plan(tuple(F._blocks), tuple(G._blocks))
        if plan.starts is None:
            terms = np.zeros(0, dtype=complex)
        else:
            terms = np.add.reduceat(F._half(plan, 0) * G._half(plan, 1), plan.starts)
        total = complex(terms.sum())
        if with_mass:
            return total, float(np.abs(terms).sum())
        return total

    def trace_bracket_grad(self, ws1, ws2) -> complex:
        """{tr ws1, tr ws2} via the gradient route."""
        return self.bracket_gradients(self.grad_trace_wordsum(ws1),
                                      self.grad_trace_wordsum(ws2))

    # -- structural checks --------------------------------------------------

    def moment_word_sum(self, s) -> WordSum:
        return WordSum(tuple((c, w) for c, w in phi_word_terms(self.m, self.d, s)))

    def moment_property_residual(self, s, g) -> float:
        """Max-norm gap between {{Phi_s, g}} and its multiplicative-moment form.

        Both sides are 4-index arrays, entry [u, j, i, v] = sum of
        coeff * left[u, j] * right[i, v], compared per (left tail, left head,
        right tail, right head) key; a key one side lacks is zero there.
        """
        if s == "inf":
            s = self.m
        gt, gh = letter_tail_head(g, self.m)
        gap: dict = {}

        def add(key, coeff, left, right):
            term = coeff * np.multiply.outer(left, right)
            gap[key] = gap[key] + term if key in gap else term

        phi_words = self.moment_word_sum(s)
        for cw, word in phi_words:
            # word is closed at s, L runs from tail g to head a, R from tail a to head g
            _, pre, suf = self._partials(word)
            for i, a in enumerate(word):
                for c, L, R in self._pair_terms(a, g):
                    add((gt, s, s, gh), cw * c, L @ suf[i + 1], pre[i] @ R)
        phi = sum(c * self._word(w)[2] for c, w in phi_words)
        G, E = self.letter_block(g), self._eye(s)
        if gh == s:
            add((gt, s, s, s), -0.5, G, phi)
            add((gt, s, s, s), -0.5, G @ phi, E)
        if gt == s:
            add((s, s, s, gh), 0.5, E, phi @ G)
            add((s, s, s, gh), 0.5, phi, G)
        return max((float(np.max(np.abs(arr))) for arr in gap.values()), default=0.0)
