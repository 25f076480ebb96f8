"""Bracket-engine checks: table consistency, Leibniz structure, trace identities."""

from collections.abc import Mapping

import numpy as np
import pytest

from spinquiver import (Gradient, PointEngine, cycle_power_sum, family_gradients,
                        power_trace_gradients, qu_gradients, spin_trace_word)
from spinquiver.brackets import (double_bracket, generator_bracket, ordering_sign,
                                 phi_localized_terms, phi_word_terms,
                                 trace_bracket_symbolic)
from spinquiver.engine import _BracketPlan
from spinquiver.errors import UnknownPair
from spinquiver.words import (WordSum, cprime_word_terms, is_closed, letter_tail_head,
                              u_power_word, word_tail_head, x_power_word)

from conftest import bracket_gradients_loop, make_point, trace_bracket_words_loop


def all_letters(m, d, alphabet="y"):
    out = [("x", s) for s in range(m)] + [(alphabet, s) for s in range(m)]
    out += [("v", a) for a in range(1, d + 1)] + [("w", a) for a in range(1, d + 1)]
    return out


def tensor_of_terms(eng, terms):
    T = np.zeros((eng.N,) * 4, dtype=complex)
    for c, L, R in terms:
        T += c * np.multiply.outer(eng.eval_word(L), eng.eval_word(R))
    return T


@pytest.mark.parametrize("m,d", [(1, 2), (2, 2), (3, 1)])
def test_table_flip_consistency(m, d):
    # {{b, a}} equals the swap-negate of {{a, b}} as data, for every pair
    letters = all_letters(m, d) + all_letters(m, d, alphabet="z")
    for g1 in letters:
        for g2 in letters:
            if {"y", "z"} <= {g1[0], g2[0]}:
                continue
            fwd = generator_bracket(m, g1, g2)
            rev = generator_bracket(m, g2, g1)
            flipped = sorted((-c, r, l) for c, l, r in rev)
            assert sorted(fwd) == flipped


def test_idempotent_brackets_vanish():
    m, d = 2, 2
    for g in all_letters(m, d):
        assert generator_bracket(m, ("e", 0), g) == ()
        assert generator_bracket(m, g, ("e", m)) == ()


def test_mixed_alphabet_rejected():
    with pytest.raises(UnknownPair):
        generator_bracket(2, ("y", 0), ("z", 1))


def test_vv_same_index_empty():
    assert generator_bracket(2, ("v", 1), ("v", 1)) == ()


def test_double_bracket_with_idempotent_word():
    assert trace_bracket_symbolic(2, (("x", 0), ("x", 1)), (("e", 0),)).terms == ()


def test_xx_trace_bracket_symbolically_zero():
    for m in (1, 2, 3):
        for k, l in ((m, m), (m, 2 * m), (2 * m, 2 * m)):
            out = WordSum()
            for s1 in range(m):
                for s2 in range(m):
                    out = out + trace_bracket_symbolic(
                        m, x_power_word(k, m, s1), x_power_word(l, m, s2))
            assert out.canonicalized(m).terms == ()


def test_symbolic_x_spin_bracket_single_term():
    # {tr x^k, tr a' c' x^l} -> k a' c' x^(k+l), per base point of x^k
    m, k, l = 2, 2, 3
    word2 = (("w", 1),) + cprime_word_terms(1, m)[0][1] + u_power_word("x", l, m, start=m - 1)
    total = WordSum()
    for s in range(m):
        total = total + trace_bracket_symbolic(m, x_power_word(k, m, s), word2)
    total = total.canonicalized(m)
    assert len(total) == 1
    coeff, word = total.terms[0]
    assert abs(coeff - k) < 1e-14
    expected = (("w", 1),) + cprime_word_terms(1, m)[0][1] + u_power_word("x", k + l, m, m - 1)
    from spinquiver.words import canonical_rotation, simplify_word
    assert word == canonical_rotation(simplify_word(expected, m))


def alphabet_letters(m, d, u):
    """Every letter of one alphabet: cycle letters, their inverses, framing
    letters, idempotents and the composite inverses of the moment words."""
    out = [(k, s) for k in ("x", u, "xi", u + "i") for s in range(m)]
    out += [(k, a) for k in ("v", "w") for a in range(1, d + 1)]
    out += [("e", v) for v in range(m + 1)]
    moment = phi_word_terms if u == "y" else phi_localized_terms
    out += sorted({l for s in range(m + 1) for _, w in moment(m, d, s)
                   for l in w if l[0] == "uinv"}, key=repr)
    return out


def test_bracket_terms_lie_on_their_blocks():
    # the engine multiplies table terms without checking vertices, so every
    # term of {{a, b}} must have its left word on (tail b, head a) and its
    # right word on (tail a, head b)
    checked = 0
    for m in range(1, 5):
        for d in range(1, 4):
            for u in ("y", "z"):
                letters = alphabet_letters(m, d, u)
                for a in letters:
                    ta, ha = letter_tail_head(a, m)
                    for b in letters:
                        tb, hb = letter_tail_head(b, m)
                        for c, left, right in generator_bracket(m, a, b):
                            assert word_tail_head(left, m) == (tb, ha), (m, a, b, left)
                            assert word_tail_head(right, m) == (ta, hb), (m, a, b, right)
                            checked += 1
    assert checked == 12260


# -- dense reference: the total-space evaluation the block engine replaced ----

def dense_word(eng, word):
    """Product of the letters' total matrices, with N x N identities at the ends."""
    out = np.eye(eng.N, dtype=complex)
    for letter in word:
        out = out @ eng.eval_letter(letter)
    return out


def dense_loday_terms(eng, w1, w2):
    """The total matrices of the terms of the Loday bracket {w1, w2}."""
    terms = []
    for i, a in enumerate(w1):
        mid1 = dense_word(eng, w1[i + 1:]) @ dense_word(eng, w1[:i])
        for j, b in enumerate(w2):
            for c, left, right in generator_bracket(eng.m, a, b):
                terms.append(c * (dense_word(eng, w2[:j]) @ dense_word(eng, left) @ mid1
                                  @ dense_word(eng, right) @ dense_word(eng, w2[j + 1:])))
    return terms


def random_words(rng, m, d, u):
    """Closed, open and incomposable words over one alphabet."""
    letters = alphabet_letters(m, d, u)
    closed, open_, incomposable = [], [], []
    while len(closed) < 4 or len(open_) < 3:
        v = int(rng.integers(m + 1))
        word = ()
        for _ in range(int(rng.integers(1, 6))):
            steps = [l for l in letters if letter_tail_head(l, m)[0] == v]
            word += (steps[rng.integers(len(steps))],)
            v = letter_tail_head(word[-1], m)[1]
        tail, head = word_tail_head(word, m)
        if tail == head and len(closed) < 4:
            closed.append(word)
        elif tail != head and len(open_) < 3:
            open_.append(word)
    while len(incomposable) < 2:
        word = tuple(letters[k] for k in rng.integers(len(letters), size=3))
        if word_tail_head(word, m) is None:
            incomposable.append(word)
    return closed + open_ + incomposable


@pytest.mark.parametrize("m,d,n", [(1, 2, 2), (2, 2, 2), (3, 2, 2)])
def test_block_engine_matches_dense_reference(m, d, n):
    point, spec, params = make_point(m, d, n, seed=13)
    eng = PointEngine(point, params)
    rng = np.random.Generator(np.random.Philox(31 + m))
    rtol = 1e-12
    for u in ("y", "z"):
        words = random_words(rng, m, d, u)
        for w in words:
            ref = dense_word(eng, w)
            assert np.linalg.norm(eng.eval_word(w) - ref) <= rtol * np.linalg.norm(ref)
            assert abs(eng.trace_word(w) - np.trace(ref)) <= rtol * np.linalg.norm(ref)
        for w1 in words:
            for w2 in words:
                terms = dense_loday_terms(eng, w1, w2)
                ref = sum(terms, np.zeros((eng.N, eng.N), dtype=complex))
                mass = sum(np.linalg.norm(t) for t in terms)
                got = eng.loday_matrix(w1, w2)
                assert np.linalg.norm(got - ref) <= rtol * mass
                value = eng.trace_bracket_value(w1, w2)
                ref_value = sum(np.trace(t) for t in terms)
                assert abs(value - ref_value) <= rtol * sum(abs(np.trace(t)) for t in terms)
                if not (is_closed(w1, m) and is_closed(w2, m)):
                    assert value == 0 and ref_value == 0
                if not is_closed(w1, m):
                    assert not np.any(got) and not np.any(ref)


@pytest.mark.parametrize("m,d,n", [(1, 2, 2), (2, 2, 2), (3, 2, 2)])
def test_antisymmetry_on_traces(m, d, n):
    point, spec, params = make_point(m, d, n, seed=5)
    eng = PointEngine(point, params)
    words = [cycle_power_sum("x", m, m), cycle_power_sum("z", m, m),
             spin_trace_word(1, 2, m + 1, m), spin_trace_word(2, 1, m + 1, m)]
    for w1 in words:
        for w2 in words:
            a = eng.trace_bracket_value(w1, w2)
            b = eng.trace_bracket_value(w2, w1)
            assert abs(a + b) < 1e-10 * max(1.0, abs(a))


def test_symbolic_matches_numeric_random_words(rng):
    point, spec, params = make_point(2, 2, 2, seed=3)
    eng = PointEngine(point, params)
    m = spec.m
    pool = [x_power_word(2, m, 0), x_power_word(4, m, 1),
            u_power_word("z", 2, m, 0), u_power_word("z", 4, m, 1),
            (("w", 1), ("v", 2), ("e", 0)),
            (("w", 2), ("v", 2)),
            (("x", 0), ("y", 0)),
            (("x", 0), ("x", 1), ("y", 1), ("y", 0))]
    checked = 0
    for i, w1 in enumerate(pool):
        for w2 in pool[i:]:
            if {"y", "z"} <= {l[0] for l in w1} | {l[0] for l in w2}:
                continue
            sym = trace_bracket_symbolic(m, w1, w2)
            direct = eng.trace_bracket_value(w1, w2)
            via_sym = eng.trace_wordsum(sym) if len(sym) else 0.0
            assert abs(direct - via_sym) < 1e-10 * max(1.0, abs(direct))
            checked += 1
    assert checked >= 20


def test_gradient_route_matches_word_route():
    point, spec, params = make_point(2, 2, 3, seed=9)
    eng = PointEngine(point, params)
    m = spec.m
    pairs = [(cycle_power_sum("x", m, m), spin_trace_word(1, 2, m + 1, m)),
             (cycle_power_sum("z", 2 * m, m), cycle_power_sum("z", m, m)),
             (spin_trace_word(2, 2, m + 1, m), spin_trace_word(1, 1, 2 * m + 1, m))]
    for w1, w2 in pairs:
        a = eng.trace_bracket_value(w1, w2)
        b = eng.trace_bracket_grad(w1, w2)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


# -- word route against the per-term Leibniz loop -------------------------------

def assert_word_route_matches_loop(eng, w1, w2):
    """trace_bracket_value agrees with the per-term loop to 1e-14 of the term mass."""
    val = eng.trace_bracket_value(w1, w2)
    ref_val, ref_mass = trace_bracket_words_loop(eng, w1, w2)
    assert isinstance(val, complex)
    assert abs(val - ref_val) <= 1e-14 * ref_mass
    return val, ref_mass


def special_words(m, d, u):
    """Closed words through the inverse, idempotent and unit-plus-word letters."""
    out = []
    for s in range(m):
        out += [(("x", s), ("xi", s), ("e", s)), ((u + "i", s), (u, s), ("x", s), (u, s))]
    uinv = [l for l in alphabet_letters(m, d, u) if l[0] == "uinv"][:2]
    out += [(l,) for l in uinv] + [(l, l) for l in uinv]
    return out


@pytest.mark.parametrize("m,d,n,seed", [(1, 2, 2, 5), (2, 3, 2, 2), (3, 1, 3, 7), (4, 3, 2, 4)])
def test_word_route_matches_loop_on_words(m, d, n, seed):
    # random_words adds open and incomposable words, whose brackets are exactly 0
    point, spec, params = make_point(m, d, n, seed)
    eng = PointEngine(point, params)
    rng = np.random.Generator(np.random.Philox(seed))
    for u in ("y", "z"):
        words = special_words(m, d, u) + random_words(rng, m, d, u)
        assert {"x", "xi", u, u + "i", "e", "uinv"} <= {l[0] for w in words for l in w}
        for w1 in words:
            for w2 in words:
                val, _ = assert_word_route_matches_loop(eng, w1, w2)
                if not (is_closed(w1, m) and is_closed(w2, m)):
                    assert val == 0


@pytest.mark.parametrize("m,d,n,seed", [(1, 1, 2, 3), (2, 2, 3, 9), (3, 3, 4, 1), (4, 3, 6, 2)])
def test_word_route_matches_loop_on_word_sums(m, d, n, seed):
    # the power sums and spin traces of verify, and a sum of rotations of one
    # word and of its square, so that letters repeat within and across words
    point, spec, params = make_point(m, d, n, seed)
    eng = PointEngine(point, params)
    word = x_power_word(m, m, 0)
    sums = [cycle_power_sum("x", m, m), cycle_power_sum("x", 2 * m, m),
            cycle_power_sum("z", m, m), spin_trace_word(1, d, m + 1, m),
            spin_trace_word(d, 1, 2 * m + 1, m),
            WordSum(((0.5 - 1j, word), (2.0, word + word), (-1.5, word[1:] + word[:1])))]
    masses = [assert_word_route_matches_loop(eng, w1, w2)[1] for w1 in sums for w2 in sums]
    assert max(masses) > 0.0


def test_word_route_shares_plans_by_letter_sequence():
    # x^m with z^m and x^2m with z^2m meet their letters in the same order
    point, spec, params = make_point(3, 2, 3, seed=4)
    eng = PointEngine(point, params)
    m = spec.m
    plans = len(eng._plan_cache)
    for k in (m, 2 * m):
        _, mass = assert_word_route_matches_loop(eng, x_power_word(k, m, 0),
                                                 u_power_word("z", k, m, 0))
        assert mass > 0.0
    assert len(eng._plan_cache) == plans + 1


# -- batched gradient contraction against the per-term loop --------------------

def assert_matches_loop(eng, gF, gG):
    """bracket_gradients agrees with the per-term loop to 1e-15 of the term mass."""
    val, mass = eng.bracket_gradients(gF, gG, with_mass=True)
    ref_val, ref_mass = bracket_gradients_loop(eng, gF, gG)
    assert isinstance(val, complex) and isinstance(mass, float)
    assert eng.bracket_gradients(gF, gG) == val
    assert abs(val - ref_val) <= 1e-15 * ref_mass
    assert abs(mass - ref_mass) <= 1e-15 * ref_mass
    return ref_mass


@pytest.mark.parametrize("m,d,n,seed", [(2, 2, 2, 3), (3, 3, 6, 1)])
def test_bracket_gradients_matches_loop_on_families(m, d, n, seed):
    point, spec, params = make_point(m, d, n, seed)
    eng = PointEngine(point, params)
    grads = [family_gradients(eng, fam, j, eta) for fam in (1, 2, 3, 4)
             for j in ((1, 2) if fam == 2 else (m, 2 * m)) for eta in (0.0, 0.37 - 0.21j)]
    masses = [assert_matches_loop(eng, g1, g2)
              for i, g1 in enumerate(grads) for g2 in grads[i:]]
    assert min(masses) > 0.0


@pytest.mark.parametrize("m,d,n,seed", [(1, 2, 2, 5), (2, 3, 3, 2), (3, 2, 2, 7), (4, 3, 2, 4)])
def test_bracket_gradients_matches_loop_on_mixed_shapes(m, d, n, seed):
    point, spec, params = make_point(m, d, n, seed)
    eng = PointEngine(point, params)
    grads = [eng.grad_trace_wordsum(spin_trace_word(1, d, m + 1, m)),
             eng.grad_trace_wordsum(spin_trace_word(d, 1, 2 * m + 1, m)),
             qu_gradients(point, 1, d, 1, "z", engine=eng),
             qu_gradients(point, d, 1, 0, "y", engine=eng),
             power_trace_gradients(point, "t", 2, engine=eng),
             power_trace_gradients(point, "x", m, engine=eng)]
    # the spin words and qu generators carry 1 x n and n x 1 framing blocks
    assert {D.shape for g in grads for D in g.values()} > {(n, n)}
    for i, g1 in enumerate(grads):
        for g2 in grads[i:]:
            assert_matches_loop(eng, g1, g2)
            assert_matches_loop(eng, g2, g1)


def test_bracket_gradients_empty_side():
    point, spec, params = make_point(2, 2, 2, seed=3)
    eng = PointEngine(point, params)
    g = family_gradients(eng, 4, 2, 0.37 - 0.21j)
    for gF, gG in (({}, g), (g, {}), ({}, {}), (Gradient(), g), (g, Gradient()),
                   (Gradient(), {})):
        val, mass = eng.bracket_gradients(gF, gG, with_mass=True)
        assert (val, mass) == (0j, 0.0)
        assert isinstance(val, complex) and isinstance(mass, float)
        assert eng.bracket_gradients(gF, gG) == 0j


@pytest.mark.parametrize("m,d,n,seed", [(2, 2, 2, 3), (3, 3, 6, 1)])
def test_bracket_gradients_plan_keeps_no_values(m, d, n, seed):
    # a second call on the same key sets reuses the plan and reads the new blocks
    point, spec, params = make_point(m, d, n, seed)
    eng = PointEngine(point, params)
    g1 = family_gradients(eng, 4, m, 0.37 - 0.21j)
    g2 = family_gradients(eng, 3, 2 * m, 0.37 - 0.21j)
    assert_matches_loop(eng, g1, g2)
    plans = len(eng._plan_cache)
    others = [({k: 2 * D for k, D in g1.items()}, g2),
              (g1, {k: 2 * D for k, D in g2.items()}),
              (family_gradients(eng, 1, m, 0.37 - 0.21j), family_gradients(eng, 2, 1, 0.0))]
    for gF, gG in others:
        assert (tuple(gF), tuple(gG)) == (tuple(g1), tuple(g2))
        assert_matches_loop(eng, gF, gG)
    assert len(eng._plan_cache) == plans


@pytest.mark.parametrize("m,d,n,seed", [(2, 2, 2, 3), (3, 2, 2, 7)])
def test_bracket_gradients_key_order(m, d, n, seed, rng):
    point, spec, params = make_point(m, d, n, seed)
    eng = PointEngine(point, params)
    g1 = qu_gradients(point, 1, d, 1, "z", engine=eng)
    g2 = family_gradients(eng, 4, m, 0.37 - 0.21j)
    val, mass = eng.bracket_gradients(g1, g2, with_mass=True)

    def permuted(g, kind):
        keys = list(g)
        return kind({keys[i]: g[keys[i]] for i in rng.permutation(len(keys))})

    for _ in range(3):
        for kind in (dict, Gradient):   # a Gradient is read again from its memo
            p1, p2 = permuted(g1, kind), permuted(g2, kind)
            assert_matches_loop(eng, p1, p2)
            pval, pmass = eng.bracket_gradients(p1, p2, with_mass=True)
            assert abs(pval - val) <= 1e-15 * mass
            assert abs(pmass - mass) <= 1e-15 * mass


# -- Gradient: immutable blocks and memoised contraction halves ---------------

def _members(eng, fam, m):
    """A family's gradients at two spectral parameters, as cmd_commute draws them."""
    js = (1, 2) if fam == 2 else (m, 2 * m)
    return [family_gradients(eng, fam, j, eta) for j in js for eta in (0.37 - 0.21j, -0.4 + 0.6j)]


def test_gradient_is_an_immutable_mapping():
    point, spec, params = make_point(2, 2, 2, seed=3)
    eng = PointEngine(point, params)
    g = family_gradients(eng, 4, 2, 0.37 - 0.21j)
    assert isinstance(g, Gradient) and isinstance(g, Mapping)
    assert list(g) == [("x", 0), ("y", 0), ("x", 1), ("y", 1)]
    assert len(g) == 4 and ("x", 0) in g and ("v", 1) not in g
    for D in g.values():
        with pytest.raises(ValueError):
            D[0, 0] = 1.0
    with pytest.raises(TypeError):
        g[("x", 0)] = np.zeros((2, 2))
    for grad in (eng.grad_trace_wordsum(spin_trace_word(1, 2, 3, 2)),
                 qu_gradients(point, 1, 2, 1, "z", engine=eng),
                 power_trace_gradients(point, "t", 2, engine=eng)):
        assert isinstance(grad, Gradient)
        assert not any(D.flags.writeable for D in grad.values())


def test_gradient_constructor_copies_its_blocks():
    point, spec, params = make_point(2, 2, 2, seed=3)
    eng = PointEngine(point, params)
    g1 = family_gradients(eng, 4, 2, 0.37 - 0.21j)
    g2 = family_gradients(eng, 3, 4, 0.37 - 0.21j)
    blocks = {k: np.array(D) for k, D in g1.items()}
    own = Gradient(blocks)
    val = eng.bracket_gradients(own, g2)
    assert val == eng.bracket_gradients(g1, g2)
    for D in blocks.values():
        D *= 2.0
    assert all(np.array_equal(own[k], g1[k]) and not own[k].flags.writeable for k in g1)
    assert eng.bracket_gradients(own, g2) == val
    assert eng.bracket_gradients(Gradient(blocks), g2) != val


@pytest.mark.parametrize("m,d,n,seed", [(2, 2, 2, 3), (3, 3, 6, 1)])
def test_memoised_halves_match_loop_over_all_pairs(m, d, n, seed):
    # the all-pairs loop of cmd_commute and the benchmark, then the lower
    # triangle, which makes every member change sides between calls
    point, spec, params = make_point(m, d, n, seed)
    eng = PointEngine(point, params)
    for fam in (1, 2, 3, 4):
        grads = _members(eng, fam, m)
        pairs = [(a, b) for a in range(len(grads)) for b in range(a + 1, len(grads))]
        for a, b in pairs + [(b, a) for a, b in pairs]:
            assert_matches_loop(eng, grads[a], grads[b])
            fresh = eng.bracket_gradients(dict(grads[a]), dict(grads[b]), with_mass=True)
            assert eng.bracket_gradients(grads[a], grads[b], with_mass=True) == fresh


def test_all_pairs_loop_forms_two_halves_per_member(monkeypatch):
    point, spec, params = make_point(3, 3, 6, 1)
    eng = PointEngine(point, params)
    grads = [g for fam in (1, 3, 4) for g in _members(eng, fam, 3)]
    formed = []
    half = _BracketPlan.half
    monkeypatch.setattr(_BracketPlan, "half",
                        lambda plan, side, blocks: formed.append(side) or half(plan, side, blocks))
    for a in range(len(grads)):
        for b in range(a + 1, len(grads)):
            eng.bracket_gradients(grads[a], grads[b], with_mass=True)
    assert formed.count(0) == formed.count(1) == len(grads) - 1


@pytest.mark.parametrize("m,d,n,seed", [(2, 2, 2, 3), (3, 3, 6, 1)])
def test_gradient_as_both_sides(m, d, n, seed):
    # the benchmark's warm-up brackets one gradient with itself
    point, spec, params = make_point(m, d, n, seed)
    eng = PointEngine(point, params)
    g = family_gradients(eng, 4, m, 0.3 + 0.1j)
    h = family_gradients(eng, 4, 2 * m, 0.3 + 0.1j)
    for gF, gG in ((g, g), (g, h), (g, g), (h, g), (g, g)):
        assert_matches_loop(eng, gF, gG)


def test_gradient_halves_stay_with_their_engine():
    # one Gradient bracketed at two points: equal key sets, distinct plans
    point, spec, params = make_point(3, 3, 6, 1)
    other, _, _ = make_point(3, 3, 6, 2)
    engines = [PointEngine(point, params), PointEngine(other, params)]
    g = family_gradients(engines[0], 4, 3, 0.37 - 0.21j)
    partners = [family_gradients(e, 4, 6, 0.37 - 0.21j) for e in engines]
    assert tuple(partners[0]) == tuple(partners[1]) == tuple(g)
    values = set()
    for side in (0, 1):
        # g stays on one side while the engine alternates
        for i in (0, 1, 0, 1):
            eng, h = engines[i], partners[i]
            gF, gG = (g, h) if side == 0 else (h, g)
            val = eng.bracket_gradients(gF, gG)
            assert val == eng.bracket_gradients(dict(gF), dict(gG))
            assert_matches_loop(eng, gF, gG)
            values.add(val)
    assert len(values) == 4


def test_leibniz_on_matrices():
    point, spec, params = make_point(2, 2, 2, seed=4)
    eng = PointEngine(point, params)
    m = spec.m
    w = WordSum(tuple((1.0, u_power_word("z", 2 * m, m, s)) for s in range(m)))
    for g1, g2 in ((("x", 0), ("z", 0)), (("x", 0), ("x", 1)), (("w", 1), ("v", 1))):
        lhs = eng.loday_matrix(w, (g1, g2))
        rhs = (eng.bracket_trace_matrix(w, g1) @ eng.eval_letter(g2)
               + eng.eval_letter(g1) @ eng.bracket_trace_matrix(w, g2))
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1.0, np.linalg.norm(lhs))


def test_bracket_trace_matrix_against_flow_lemma():
    # (1/K) {z^K, x} = -x z^K at eta = 0, blockwise
    point, spec, params = make_point(2, 2, 2, seed=4)
    eng = PointEngine(point, params)
    m, n = spec.m, spec.n
    K = 2 * m
    w = WordSum(tuple((1.0, u_power_word("z", K, m, s)) for s in range(m)))
    Zt = sum(eng.eval_letter(("z", s)) for s in range(m))
    Xt = sum(eng.eval_letter(("x", s)) for s in range(m))
    expected_total = -K * (Xt @ np.linalg.matrix_power(Zt, K))
    for s in range(m):
        got = eng.bracket_trace_matrix(w, ("x", s))
        sp = (s + 1) % m
        mask = np.zeros((eng.N, eng.N), dtype=complex)
        mask[eng.block(s), eng.block(sp)] = expected_total[eng.block(s), eng.block(sp)]
        assert np.linalg.norm(got - mask) < 1e-9 * max(1.0, np.linalg.norm(mask))
    # brackets with the framing letters vanish
    for a in (1, 2):
        assert np.linalg.norm(eng.bracket_trace_matrix(w, ("v", a))) < 1e-12
        assert np.linalg.norm(eng.bracket_trace_matrix(w, ("w", a))) < 1e-12
    assert np.linalg.norm(eng.bracket_trace_matrix(w, ("e", 0))) == 0


@pytest.mark.parametrize("m,d,n", [(1, 1, 1), (1, 2, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2)])
def test_moment_property_all_vertices_and_generators(m, d, n):
    point, spec, params = make_point(m, d, n, seed=7)
    eng = PointEngine(point, params)
    scale = max(1.0, point.norm_scale() ** 3)
    worst = 0.0
    for s in list(range(m)) + [m]:
        for g in all_letters(m, d) + [("e", 0)]:
            worst = max(worst, eng.moment_property_residual(s, g))
    assert worst <= 1e-9 * scale


def test_moment_property_scalar_model():
    point, spec, params = make_point(1, 1, 1, seed=2)
    eng = PointEngine(point, params)
    worst = max(eng.moment_property_residual(s, g)
                for s in (0, 1) for g in all_letters(1, 1))
    assert worst <= 1e-12


# -- spin-element identities -------------------------------------------------

def cprime_sum(alpha, m):
    return WordSum(cprime_word_terms(alpha, m))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cyspin1_identities(m):
    point, spec, params = make_point(m, 2, 2, seed=6)
    eng = PointEngine(point, params)
    scale = max(1.0, point.norm_scale() ** 3)
    for alpha in (1, 2):
        cw = cprime_word_terms(alpha, m)
        lhs = np.zeros((eng.N,) * 4, dtype=complex)
        rhs = np.zeros_like(lhs)
        for s in range(m):
            for c, w in cw:
                lhs += c * tensor_of_terms(eng, double_bracket(m, (("x", s),), w))
        for c, w in cw:
            rhs += 0.5 * c * np.multiply.outer(
                eng.eval_word(w + (("x", m - 1),)), eng.eval_letter(("e", m - 1)))
            rhs += 0.5 * c * np.multiply.outer(
                eng.eval_word(w), eng.eval_letter(("x", (m - 2) % m)))
        assert np.abs(lhs - rhs).max() < 1e-9 * scale
        lhs = np.zeros_like(rhs)
        rhs = np.zeros_like(rhs)
        for s in range(m):
            for c, w in cw:
                lhs += c * tensor_of_terms(eng, double_bracket(m, (("z", s),), w))
        for c, w in cw:
            rhs -= 0.5 * c * np.multiply.outer(
                eng.eval_word(w + (("z", (m - 2) % m),)), eng.eval_letter(("e", m - 1)))
            rhs += 0.5 * c * np.multiply.outer(
                eng.eval_word(w), eng.eval_letter(("z", m - 1)))
        assert np.abs(lhs - rhs).max() < 1e-9 * scale


@pytest.mark.parametrize("m", [1, 2])
def test_cyspin2_identity(m):
    point, spec, params = make_point(m, 2, 2, seed=6)
    eng = PointEngine(point, params)
    scale = max(1.0, point.norm_scale() ** 3)
    for alpha in (1, 2):
        for beta in (1, 2):
            lhs = np.zeros((eng.N,) * 4, dtype=complex)
            for c, w in cprime_word_terms(beta, m):
                lhs += c * tensor_of_terms(eng, double_bracket(m, (("w", alpha),), w))
            o = ordering_sign(alpha, beta)
            delta = 1.0 if alpha == beta else 0.0
            Einf = eng.eval_letter(("e", m))
            def ac(a_, b_):
                return sum(c * eng.eval_word((("w", a_),) + w)
                           for c, w in cprime_word_terms(b_, m))
            rhs = 0.5 * (o - delta) * np.multiply.outer(Einf, ac(alpha, beta))
            rhs = rhs - delta * np.multiply.outer(Einf, eng.eval_letter(("z", m - 1)))
            for lam in range(1, beta):
                rhs = rhs - delta * np.multiply.outer(Einf, ac(lam, lam))
            # the c' a' term survives only in the Jordan case m = 1; the word
            # evaluation vanishes automatically for m >= 2
            ca = sum(c * eng.eval_word(w + (("w", alpha),))
                     for c, w in cprime_word_terms(beta, m))
            rhs = rhs - 0.5 * np.multiply.outer(ca, eng.eval_letter(("e", 0)))
            assert np.abs(lhs - rhs).max() < 1e-9 * scale


@pytest.mark.parametrize("m", [1, 2])
def test_cyspin3_identity(m):
    point, spec, params = make_point(m, 3, 2, seed=6)
    eng = PointEngine(point, params)
    scale = max(1.0, point.norm_scale() ** 3)
    for alpha in (1, 2, 3):
        for beta in (1, 2, 3):
            lhs = np.zeros((eng.N,) * 4, dtype=complex)
            for c1, wa in cprime_word_terms(alpha, m):
                for c2, wb in cprime_word_terms(beta, m):
                    lhs += c1 * c2 * tensor_of_terms(eng, double_bracket(m, wa, wb))
            Ca = sum(c * eng.eval_word(w) for c, w in cprime_word_terms(alpha, m))
            Cb = sum(c * eng.eval_word(w) for c, w in cprime_word_terms(beta, m))
            o = ordering_sign(alpha, beta)
            rhs = 0.5 * o * (np.multiply.outer(Cb, Ca) - np.multiply.outer(Ca, Cb))
            assert np.abs(lhs - rhs).max() < 1e-9 * scale


@pytest.mark.parametrize("m", [1, 2, 3])
def test_position_spin_trace_identity(m):
    # {tr x^k, tr a' c' x^l} = k tr(a' c' x^(k+l))
    point, spec, params = make_point(m, 2, 2, seed=11)
    eng = PointEngine(point, params)
    scale = max(1.0, point.norm_scale() ** (2 * m + 4))
    k, l = m, m + 1
    xk = cycle_power_sum("x", k, m)
    for alpha in (1, 2):
        for beta in (1, 2):
            lhs = eng.trace_bracket_value(xk, spin_trace_word(alpha, beta, l, m))
            rhs = k * eng.trace_wordsum(spin_trace_word(alpha, beta, k + l, m))
            assert abs(lhs - rhs) < 1e-9 * scale


def _spin_identity_brackets(eng, m, d):
    """The 9 (d = 3) position-spin identity brackets, then their gradient-route twins."""
    xk = cycle_power_sum("x", m, m)
    spins = [spin_trace_word(a, b, m + 1, m) for a in range(1, d + 1) for b in range(1, d + 1)]
    values = [eng.trace_bracket_value(xk, w2) for w2 in spins]
    values += [eng.trace_bracket_grad(xk, w2) for w2 in spins]
    return xk, spins, values


def test_letter_rests_expand_each_closed_word_once_per_point(monkeypatch):
    point, spec, params = make_point(4, 3, 6, seed=1)
    expanded = []
    rests = PointEngine._rests

    def spy(self, word):
        expanded.append(word)
        return rests(self, word)
    monkeypatch.setattr(PointEngine, "_rests", spy)
    xk, spins, values = _spin_identity_brackets(PointEngine(point, params), 4, 3)
    assert len(values) == 18
    words = [w for ws in [xk] + spins for _, w in ws]
    assert all(is_closed(w, 4) for w in words)
    assert sorted(expanded) == sorted(set(words))


def test_letter_rests_memo_changes_no_value():
    # each bracket on a fresh engine forms the same products in the same order
    point, spec, params = make_point(4, 3, 6, seed=1)
    xk, spins, values = _spin_identity_brackets(PointEngine(point, params), 4, 3)
    fresh = [PointEngine(point, params).trace_bracket_value(xk, w2) for w2 in spins]
    fresh += [PointEngine(point, params).trace_bracket_grad(xk, w2) for w2 in spins]
    assert values == fresh


def test_letter_rests_cache_is_read_only():
    point, spec, params = make_point(2, 2, 3, seed=1)
    eng = PointEngine(point, params)
    ws = spin_trace_word(1, 2, 3, 2)
    rests = eng._letter_rests(ws)
    assert rests and eng._letter_rests(ws) is rests
    assert eng._letter_rests(WordSum(ws.terms)) is rests
    with pytest.raises(ValueError):
        rests[0][1][0, 0] = 1.0
    with pytest.raises(ValueError):
        rests[0][1].T[0, 0] = 1.0


def test_position_spin_bracket_in_matrix_form():
    # the same identity written on the spin matrices, with the scale factor
    # from c' = t * (row of Cm): {tr x^(km), tr a'c'x^(lm+1)}
    #   = k m t tr(Am E_ab Cm X^(km+lm+1))
    from spinquiver import spin_data, total_matrices
    point, spec, params = make_point(2, 2, 2, seed=11)
    eng = PointEngine(point, params)
    m, t = spec.m, params.t
    sd = spin_data(point, params)
    Xt = total_matrices(point).Xt
    k0, l0 = 1, 1
    k, l = k0 * m, l0 * m + 1
    for alpha in (1, 2):
        for beta in (1, 2):
            lhs = eng.trace_bracket_value(cycle_power_sum("x", k, m),
                                          spin_trace_word(alpha, beta, l, m))
            E = np.zeros((spec.d, spec.d))
            E[alpha - 1, beta - 1] = 1.0
            embedded = np.linalg.matrix_power(Xt, k + l)
            block = embedded[(m - 1) * spec.n:m * spec.n, 0:spec.n]
            rhs = k * t * np.trace(sd.Am @ E @ sd.Cm @ block)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_trace_observables_full_alphabet_gauge_invariant(rng):
    from spinquiver import gauge_act
    point, spec, params = make_point(2, 2, 2, seed=8)
    g = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
         for _ in range(spec.m)]
    moved = gauge_act(g, point)
    e0, e1 = PointEngine(point, params), PointEngine(moved, params)
    m = spec.m
    words = [cycle_power_sum("x", m, m), cycle_power_sum("z", 2 * m, m),
             spin_trace_word(1, 2, m + 1, m), spin_trace_word(2, 1, 2 * m + 1, m),
             WordSum((((1.0), (("w", 1), ("v", 1))),)),
             WordSum((((1.0), (("w", 2), ("v", 1)) + u_power_word("z", m, m, 0)),))]
    for w in words:
        v0, v1 = e0.trace_wordsum(w), e1.trace_wordsum(w)
        assert abs(v0 - v1) < 1e-9 * max(1.0, abs(v0))


@pytest.mark.parametrize("u", ["x", "y", "z"])
def test_commuting_subalgebra_u_words(u):
    # {tr(w_a v_b u^k), tr u^l} = 0
    point, spec, params = make_point(2, 2, 2, seed=8)
    eng = PointEngine(point, params)
    m = spec.m
    scale = max(1.0, point.norm_scale() ** (4 * m + 2))
    for k in (m, 2 * m):
        for l in (m, 2 * m):
            w1 = WordSum((((1.0), (("w", 1), ("v", 1)) + u_power_word(u, k, m, 0)),))
            w2 = cycle_power_sum(u, l, m)
            val = eng.trace_bracket_value(w1, w2)
            assert abs(val) < 1e-8 * scale


def test_moment_words_are_casimirs():
    from spinquiver.brackets import phi_localized_terms
    point, spec, params = make_point(2, 2, 2, seed=9)
    eng = PointEngine(point, params)
    m = spec.m
    scale = max(1.0, point.norm_scale() ** 6)
    observables = [cycle_power_sum("x", m, m), spin_trace_word(1, 1, m + 1, m)]
    for s in list(range(m)) + [m]:
        phi = WordSum(tuple(phi_localized_terms(m, spec.d, s)))
        # the localized words evaluate to the same moment component
        ref = eng.eval_wordsum(eng.moment_word_sum(s))
        assert np.linalg.norm(eng.eval_wordsum(phi) - ref) < 1e-10 * scale
        for w2 in observables:
            val = eng.trace_bracket_value(w2, phi)
            assert abs(val) < 1e-8 * scale


def test_jacobiator_trivial_and_random():
    point, spec, params = make_point(2, 2, 2, seed=10)
    eng = PointEngine(point, params)
    m = spec.m
    xw = cycle_power_sum("x", m, m)
    assert abs(eng.jacobiator(xw, xw, xw)) < 1e-12
    words = [x_power_word(2, m, 0), (("x", 0), ("y", 0)),
             (("w", 1), ("v", 1)), (("x", 1), ("y", 1), ("x", 0), ("y", 0))]
    scale = max(1.0, point.norm_scale() ** 8)
    for i in range(len(words)):
        for j in range(i, len(words)):
            for k in range(j, len(words)):
                val = eng.jacobiator(words[i], words[j], words[k])
                assert abs(val) < 1e-7 * scale


def test_spectral_parameter_involutivity_word_route():
    from spinquiver.families import family_word_sum
    point, spec, params = make_point(2, 2, 2, seed=12)
    eng = PointEngine(point, params)
    m = spec.m
    scale = max(1.0, point.norm_scale() ** 10)
    for fam in (3, 4):
        for eta1, eta2 in ((0.3 + 0.1j, -0.2 + 0.4j),):
            w1 = family_word_sum(fam, m, eta1, m)
            w2 = family_word_sum(fam, m, eta2, m)
            val = eng.trace_bracket_value(w1, w2)
            assert abs(val) < 1e-8 * scale
