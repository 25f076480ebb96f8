from fractions import Fraction

import pytest

from spinquiver.brackets import double_bracket
from spinquiver.words import (WordSum, canonical_rotation, cycle_power_sum,
                              parse_word, simplify_word, spin_trace_word,
                              u_power_word)
from spinquiver.errors import WordTooLong


def test_token_round_trip():
    word = parse_word("x0.y1.zi0.v1.w3.e0", m=2)
    assert word == (("x", 0), ("y", 1), ("zi", 0), ("v", 1), ("w", 3), ("e", 0))
    assert ".".join(f"{kind}{idx}" for kind, idx in word) == "x0.y1.zi0.v1.w3.e0"


def test_parse_einf():
    assert parse_word("einf", m=3) == (("e", 3),)


def test_power_words_composable():
    from spinquiver.words import word_tail_head
    m = 3
    assert word_tail_head(u_power_word("x", 6, m), m) == (0, 0)
    assert word_tail_head(u_power_word("z", 3, m, start=1), m) == (1, 1)
    assert word_tail_head(u_power_word("y", 2, m, start=0), m) == (0, 1)


def test_simplify_drops_idempotents():
    m = 2
    word = (("e", 0), ("x", 0), ("e", 1), ("y", 0), ("e", 0))
    assert simplify_word(word, m) == (("x", 0), ("y", 0))
    # incomposable words are zero
    assert simplify_word((("x", 0), ("x", 0)), m) is None
    # pure idempotent word survives as itself
    assert simplify_word((("e", 1), ("e", 1)), m) == (("e", 1),)


def test_simplify_cancels_inverse_letters():
    m = 1
    x, xi, y, yi = ("x", 0), ("xi", 0), ("y", 0), ("yi", 0)
    assert simplify_word((x, y, yi, xi, y), m) == (y,)
    # a closed word also cancels across its ends under a trace, an open word
    # x_0 y_0 y_0^(-1) at m = 2 only inside, and a word that cancels
    # completely is the idempotent at its tail
    assert simplify_word((x, y, xi), m) == (y,)
    assert simplify_word((("x", 0), ("y", 0), ("yi", 0)), 2) == (("x", 0),)
    assert simplify_word((("zi", 1), ("z", 1)), 2) == (("e", 1),)
    # the commutator x y x^(-1) y^(-1) has no adjacent inverse pair, at either end
    assert simplify_word((x, y, xi, yi), m) == (x, y, xi, yi)


def test_trace_bracket_of_a_cancelling_word_is_empty():
    # {tr y, tr x x^(-1)} = {tr y, tr e} = 0; without free reduction the sum
    # kept four words that cancel only under x x^(-1) = e
    from spinquiver.brackets import trace_bracket_symbolic
    assert trace_bracket_symbolic(1, (("y", 0),), (("x", 0), ("xi", 0))).terms == ()
    assert WordSum(((1.0, (("x", 0), ("y", 0), ("xi", 0))),
                    (-1.0, (("y", 0),)))).canonicalized(1).terms == ()


def test_canonical_rotation():
    word = (("y", 0), ("x", 0), ("x", 1))
    assert canonical_rotation(word) == min(
        (("y", 0), ("x", 0), ("x", 1)),
        (("x", 0), ("x", 1), ("y", 0)),
        (("x", 1), ("y", 0), ("x", 0)))


def test_wordsum_keeps_exact_coefficients():
    # the sums start from the integer 0, so Fraction coefficients stay exact
    w = (("x", 0), ("y", 0))
    for ws in (WordSum(((Fraction(1, 3), w), (Fraction(1, 6), w))),
               WordSum(((Fraction(1, 3), w), (Fraction(1, 6), (("e", 0),) + w))).canonicalized(1)):
        assert ws.terms == ((Fraction(1, 2), w),)
        assert isinstance(ws.terms[0][0], Fraction)


def test_wordsum_cancellation():
    w = (("x", 0), ("x", 1))
    ws = WordSum(((0.5, w), (-0.5, w)))
    assert len(ws) == 0


def test_cycle_power_sum_counts():
    ws = cycle_power_sum("x", 2, 3)
    assert len(ws) == 3


def test_spin_trace_word_expansion_size():
    # c'_beta expands into 2^(beta-1) words
    assert len(spin_trace_word(1, 3, 1, 2)) == 4
    assert len(spin_trace_word(2, 1, 3, 2)) == 1


def test_word_cap():
    with pytest.raises(WordTooLong):
        double_bracket(1, [("x", 0)] * 65, [("x", 0)])
