"""Spin-reduction group, invariant words, lambda gauge, and duality."""

import numpy as np
import pytest

from spinquiver import (HElement, ModelSpec, PointEngine, derive_params,
                        dual_point, family_value, gauge_act, h_act, h_invariant_value,
                        lambda_gauge, moment_residual,
                        point_from_coordinates, random_coordinates, random_h,
                        spin_data, trY2_closed_form, trZ2_closed_form)
from spinquiver.errors import SingularH
from spinquiver.points import RepPoint
from spinquiver.reduction import (dual_moment_residual, iota_word, is_diagonal_normal_form,
                                  parse_invariant_word)
from spinquiver.words import WordSum, u_power_word

from conftest import make_point, make_setup


def test_helement_group_closure(rng):
    for seed in range(25):
        h1 = random_h(3, seed)
        h2 = random_h(3, seed + 100)
        prod = HElement.make(h1.h @ h2.h)
        assert np.max(np.abs(prod.h.sum(axis=1) - 1)) < 1e-12
        inv = HElement.make(np.linalg.inv(h1.h))
        assert np.max(np.abs(inv.h.sum(axis=1) - 1)) < 1e-12
        assert np.linalg.norm(HElement.make(h1.h @ inv.h).h - np.eye(3)) < 1e-10


def test_helement_rejects_bad_rows():
    with pytest.raises(ValueError):
        HElement.make(np.array([[0.5, 0.2], [0.0, 1.0]]))
    with pytest.raises(SingularH):
        HElement.make(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_h_act_right_action_and_S_invariance():
    point, spec, params = make_point(2, 3, 3, seed=5)
    sd = spin_data(point, params)
    h1, h2 = random_h(3, 1), random_h(3, 2)
    twice = h_act(h2, h_act(h1, sd))
    combined = h_act(HElement.make(h1.h @ h2.h), sd)
    assert np.linalg.norm(twice.Am - combined.Am) < 1e-12 * max(1, np.linalg.norm(twice.Am))
    assert np.linalg.norm(twice.Cm - combined.Cm) < 1e-11 * max(1, np.linalg.norm(twice.Cm))
    acted = h_act(h1, sd)
    assert np.linalg.norm(acted.S - sd.S) < 1e-12 * max(1, np.linalg.norm(sd.S))


def test_h_act_preserves_row_sums():
    # rows of X Am summing to one survive the action
    spec, params = make_setup(2, 2, 2)
    coords = random_coordinates(spec, params, seed=3)
    point = point_from_coordinates(coords, params, spec)
    sd = spin_data(point, params)
    XA = np.diag(coords.x) @ sd.Am
    assert np.max(np.abs(XA.sum(axis=1) - 1)) < 1e-10
    acted = h_act(random_h(2, 7), sd)
    XA2 = np.diag(coords.x) @ acted.Am
    assert np.max(np.abs(XA2.sum(axis=1) - 1)) < 1e-10


def test_invariant_word_parsing():
    assert parse_invariant_word("X^2 S X^2 S") == ("X", "X", "S", "X", "X", "S")
    assert parse_invariant_word("XZS") == ("X", "Z", "S")
    with pytest.raises(ValueError):
        parse_invariant_word("Q")


def test_invariant_values_under_h_and_gauge(rng):
    point, spec, params = make_point(2, 2, 3, seed=9)
    m = spec.m
    h = random_h(2, 11)
    words = ["S", f"X^{m} S", f"X^{m} S X^{m} S", f"Z^{m} S"]
    scale = max(1.0, point.norm_scale() ** (2 * m + 2))
    for word in words:
        v0 = h_invariant_value(point, word, params)
        v1 = h_invariant_value(point, word, params, h=h)
        assert abs(v0 - v1) < 1e-12 * scale
    # gauge invariance
    g = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(m)]
    moved = gauge_act(g, point)
    for word in words:
        v0 = h_invariant_value(point, word, params)
        v1 = h_invariant_value(moved, word, params)
        assert abs(v0 - v1) < 1e-9 * scale


def test_trace_of_S_word():
    # tr S equals the trace of the collective spin product of the quadruple
    from spinquiver import reduced_quadruple
    point, spec, params = make_point(2, 2, 2, seed=4)
    quad = reduced_quadruple(point, params)
    expected = np.trace(quad.bigA @ quad.bigC)
    assert abs(h_invariant_value(point, "S", params) - expected) < 1e-12


# -- lambda gauge -----------------------------------------------------------------

@pytest.fixture(scope="module")
def gauged_pair():
    m, d, n = 2, 2, 3
    spec = ModelSpec(m, d, n)
    g0, g1 = 0.21 + 0.05j, 0.33 - 0.11j
    params = derive_params([np.exp(-2 * g0), np.exp(-2 * g1)], n=n)
    coords = random_coordinates(spec, params, seed=8)
    point = point_from_coordinates(coords, params, spec)
    return point, coords, params, (g0, g1)


def test_lambda_gauge_m1_is_identity():
    point, spec, params = make_point(1, 2, 2, seed=2)
    spec2, params2 = make_setup(1, 2, 2)
    coords = random_coordinates(spec2, params2, seed=2)
    p = point_from_coordinates(coords, params2, spec2)
    out = lambda_gauge(p, params2)
    assert max(np.linalg.norm(a - b) for a, b in zip(out.X, p.X)) < 1e-12


def lambda_gauge_z_blocks(lam, f, params):
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


def test_lambda_gauge_structure(gauged_pair):
    point, coords, params, gammas = gauged_pair
    assert is_diagonal_normal_form(point)
    out = lambda_gauge(point, params)
    lam = np.diag(out.X[0])
    m = params.m
    for s in range(m):
        assert np.linalg.norm(out.X[s] - np.diag(lam)) < 1e-12
    assert np.max(np.abs(lam ** m - coords.x)) < 1e-10
    Zb = lambda_gauge_z_blocks(lam, coords.f_matrix(), params)
    for s in range(m):
        assert np.linalg.norm(out.Z[s] - Zb[s]) < 1e-9 * max(1, np.linalg.norm(Zb[s]))
    assert max(moment_residual(out, params)) < 1e-10 * out.norm_scale()


def test_lambda_gauge_branches(gauged_pair):
    point, coords, params, gammas = gauged_pair
    out = lambda_gauge(point, params, branch=[1, 0, 1])
    lam = np.diag(out.X[0])
    assert np.max(np.abs(lam ** params.m - coords.x)) < 1e-10


def test_m2_closed_forms(gauged_pair):
    point, coords, params, (g0, g1) = gauged_pair
    out = lambda_gauge(point, params)
    lam = np.diag(out.X[0])
    f = coords.f_matrix()
    trZ2 = 2 * np.trace(out.Z[0] @ out.Z[1])
    trY2 = 2 * np.trace(out.Y[0] @ out.Y[1])
    scale = max(1.0, abs(trZ2))
    assert abs(trZ2_closed_form(lam, f, g0, g1) - trZ2) < 1e-8 * scale
    assert abs(trY2_closed_form(lam, f, g0, g1) - trY2) < 1e-8 * scale


# -- duality ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def dual_setup():
    point, spec, params = make_point(3, 2, 2, seed=4)
    return point, spec, params, dual_point(point, params)


def test_dual_parameters(dual_setup):
    point, spec, params, dp = dual_setup
    m = spec.m
    assert abs(dp.params.q[0] - 1 / params.q[0]) < 1e-14
    for s in range(1, m):
        assert abs(dp.params.q[s] - 1 / params.q[m - s]) < 1e-14
    assert abs(dp.params.q_inf - 1 / params.q_inf) < 1e-12 * abs(1 / params.q_inf)


def test_dual_moment_residual(dual_setup):
    point, spec, params, dp = dual_setup
    assert dual_moment_residual(dp) < 1e-9 * point.norm_scale() ** 2


def test_dual_involution_exact(dual_setup):
    point, spec, params, dp = dual_setup
    again = dual_point(dp.as_rep_point(), dp.params)
    assert max(np.linalg.norm(a - b) for a, b in zip(again.X, point.X)) < 1e-12
    assert abs(again.params.t - params.t) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_as_rep_point_bytes_unchanged(dual_setup, d):
    point, spec, params, dp = dual_setup
    m, n = spec.m, spec.n
    # the construction it replaces: make (which derives a Z), then a copy with the given Z
    Y = [dp.Z[s] - np.linalg.inv(dp.X[s]) for s in range(m)]
    V, W = [np.zeros((1, n)) for _ in range(d)], [np.zeros((n, 1)) for _ in range(d)]
    made = RepPoint.make(ModelSpec(m=m, d=d, n=n), dp.X, Y, V, W)
    pr = dp.as_rep_point(d)
    assert pr.spec == made.spec
    for got, want in [(pr.X, made.X), (pr.Y, made.Y), (pr.V, made.V), (pr.W, made.W),
                      (pr.Z, dp.Z)]:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable and a is not b


def test_family_swap(dual_setup):
    point, spec, params, dp = dual_setup
    pr = dp.as_rep_point()
    scale = max(1.0, point.norm_scale() ** (2 * spec.m))
    for j in (spec.m, 2 * spec.m):
        for eta in (0.37 - 0.21j, 0.05 + 0.6j):
            lhs = family_value(pr, 4, j, eta)
            rhs = family_value(point, 1, j, eta)
            assert abs(lhs - rhs) < 1e-8 * scale


def test_anti_poisson_sign(dual_setup, rng):
    point, spec, params, dp = dual_setup
    m = spec.m
    eng = PointEngine(point, params)
    engd = PointEngine(dp.as_rep_point(), dp.params)
    pool = []
    for k in (m, 2 * m):
        pool.append(WordSum(tuple((1.0, u_power_word("x", k, m, s)) for s in range(m))))
        pool.append(WordSum(tuple((1.0, u_power_word("z", k, m, s)) for s in range(m))))
    pool.append(WordSum(tuple((1.0, u_power_word("z", m, m, s) + u_power_word("x", m, m, s))
                              for s in range(m))))
    checked = 0
    scale = max(1.0, point.norm_scale() ** (4 * m + 2))
    for i, w1 in enumerate(pool):
        for w2 in pool[i:]:
            lhs = engd.trace_bracket_value(w1, w2)
            w1i = WordSum(tuple((c, iota_word(w, m)) for c, w in w1))
            w2i = WordSum(tuple((c, iota_word(w, m)) for c, w in w2))
            rhs = eng.trace_bracket_value(w1i, w2i)
            assert abs(lhs + rhs) < 1e-8 * scale
            checked += 1
    assert checked >= 15


def test_iota_word_involution():
    m = 3
    word = (("x", 0), ("x", 1), ("zi", 2), ("e", 1))
    assert iota_word(iota_word(word, m), m) == word
