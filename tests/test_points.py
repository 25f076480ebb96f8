import numpy as np
import pytest

from spinquiver import (LocalCoordinates, ModelSpec, derive_params, gauge_act,
                        moment_residual, point_from_coordinates, random_coordinates,
                        random_point, reduced_quadruple, spin_data)
from spinquiver.errors import RegularityViolation, SamplingExhausted, SingularX
from spinquiver.points import quadruple_from_coordinates

from conftest import make_point, make_setup


def test_scalar_instance():
    # m = n = d = 1: B = t c / (1 - t) with t = 3
    gamma = 0.7 - 0.2j
    spec = ModelSpec(1, 1, 1)
    params = derive_params([3.0], n=1)
    coords = LocalCoordinates.make([2.0], [[1.0]], [[gamma]])
    point = point_from_coordinates(coords, params, spec)
    B = quadruple_from_coordinates(coords, params).B
    assert abs(B[0, 0] - 3 * gamma / (1 - 3)) < 1e-14
    # spin column is A^(-1) a
    assert abs(point.W[0][0, 0] - 0.5) < 1e-14
    assert max(moment_residual(point, params)) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 4])
def test_construction_on_shell(m, d, n):
    point, spec, params = make_point(m, d, n, seed=11)
    scale = point.norm_scale()
    assert max(moment_residual(point, params)) <= 1e-10 * scale
    point.validate()


def test_construction_soundness_bulk():
    # 200 draws across the (m, n, d) grid, all residual components on shell
    import itertools
    cells = list(itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4, 5)))
    count = 0
    seed = 0
    for (m, d, n) in itertools.cycle(cells):
        seed += 1
        point, spec, params = make_point(m, d, n, seed)
        rel = max(moment_residual(point, params)) / max(1.0, point.norm_scale())
        assert rel <= 1e-10
        count += 1
        if count == 200:
            break


def test_singular_gauge_rejected():
    from spinquiver.errors import SingularGauge
    point, spec, params = make_point(2, 2, 2, seed=1)
    g = [np.zeros((spec.n, spec.n)), np.eye(spec.n)]
    with pytest.raises(SingularGauge):
        gauge_act(g, point)


def test_determinism_bitwise():
    p1, spec, params = make_point(2, 2, 3, seed=7)
    p2, _, _ = make_point(2, 2, 3, seed=7)
    for a, b in zip(p1.X + p1.Y + p1.V + p1.W, p2.X + p2.Y + p2.V + p2.W):
        assert np.array_equal(a, b)


def test_perturbation_shows_in_residual():
    point, spec, params = make_point(2, 2, 2, seed=7)
    X = [np.array(mat) for mat in point.X]
    X[0] = X[0] + 1e-3 * np.eye(spec.n)
    from spinquiver.points import RepPoint
    bumped = RepPoint.make(spec, X, point.Y, point.V, point.W)
    res = moment_residual(bumped, params)
    assert 1e-5 < res[0] < 1e-1


def test_creg_violation_rejected():
    spec, params = make_setup(2, 2, 2)
    with pytest.raises(RegularityViolation):
        coords = LocalCoordinates.make([1.0, 1.0 + 0j], np.ones((2, 2)) / 2,
                                       np.ones((2, 2)))


def test_sampling_exhausted():
    spec, params = make_setup(2, 2, 2)
    with pytest.raises(SamplingExhausted):
        random_point(spec, params, seed=1, max_tries=0)


def test_sampling_exhausted_coordinates():
    spec, params = make_setup(2, 2, 2)
    with pytest.raises(SamplingExhausted):
        random_coordinates(spec, params, seed=1, max_tries=0)


def test_random_point_is_built_from_random_coordinates():
    # with one try, random_point succeeds only if the first draw builds; then
    # both samplers read the same draw
    spec, params = make_setup(2, 2, 3)
    point = random_point(spec, params, seed=4, max_tries=1)
    rebuilt = point_from_coordinates(random_coordinates(spec, params, seed=4),
                                     params, spec)
    for a, b in zip(point.X + point.Y + point.V + point.W + point.Z,
                    rebuilt.X + rebuilt.Y + rebuilt.V + rebuilt.W + rebuilt.Z):
        assert np.array_equal(a, b)


def test_gauge_identity_and_residual_invariance(rng):
    point, spec, params = make_point(2, 2, 3, seed=5)
    same = gauge_act([np.eye(spec.n)] * spec.m, point)
    assert max(np.linalg.norm(a - b) for a, b in zip(same.X, point.X)) == 0
    g = [rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
         for _ in range(spec.m)]
    moved = gauge_act(g, point)
    r0 = moment_residual(point, params)
    r1 = moment_residual(moved, params)
    scale = moved.norm_scale()
    assert max(abs(a - b) for a, b in zip(r0, r1)) <= 1e-9 * scale


def test_gauge_composition(rng):
    point, spec, params = make_point(2, 2, 2, seed=5)
    n, m = spec.n, spec.m
    g = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(m)]
    h = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(m)]
    once = gauge_act(g, gauge_act(h, point))
    combined = gauge_act([g[s] @ h[s] for s in range(m)], point)
    worst = max(np.linalg.norm(a - b) for a, b in zip(once.X + once.Y + once.V + once.W,
                                                      combined.X + combined.Y
                                                      + combined.V + combined.W))
    assert worst < 1e-10 * max(1, once.norm_scale()) ** 3


def test_spin_data_matches_coordinates():
    spec, params = make_setup(2, 2, 3)
    from spinquiver import random_coordinates
    coords = random_coordinates(spec, params, seed=9)
    point = point_from_coordinates(coords, params, spec)
    sd = spin_data(point, params)
    expected_Am = np.diag(1.0 / coords.x) @ coords.a
    assert np.linalg.norm(sd.Am - expected_Am) < 1e-10
    assert np.linalg.norm(sd.Cm - coords.c) < 1e-10


def test_spin_data_single_framing_row():
    point, spec, params = make_point(2, 1, 2, seed=3)
    sd = spin_data(point, params)
    expected = (point.V[0] @ point.Z[spec.m - 1]).reshape(-1) / params.t
    assert np.linalg.norm(sd.Cm[0] - expected) < 1e-12


def test_spin_data_gauge_invariant_when_g0_identity(rng):
    point, spec, params = make_point(2, 2, 2, seed=4)
    g = [np.eye(spec.n)]
    g += [rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
          for _ in range(spec.m - 1)]
    moved = gauge_act(g, point)
    a0 = spin_data(point, params)
    a1 = spin_data(moved, params)
    # W untouched when g_0 = Id; Cm depends on Z_{m-1} which moves under g
    assert np.linalg.norm(a0.Am - a1.Am) == 0


def test_reduced_quadruple_round_trip():
    spec, params = make_setup(3, 2, 3)
    from spinquiver import random_coordinates
    coords = random_coordinates(spec, params, seed=21)
    point = point_from_coordinates(coords, params, spec)
    quad = reduced_quadruple(point, params)
    assert np.linalg.norm(quad.A - np.diag(coords.x)) < 1e-9
    direct = quadruple_from_coordinates(coords, params)
    assert np.linalg.norm(quad.B - direct.B) < 1e-9 * max(1, np.linalg.norm(direct.B))
    assert np.linalg.norm(quad.bigA - coords.a) < 1e-9
    assert np.linalg.norm(quad.bigC - coords.c) < 1e-9


def test_reduced_quadruple_round_trip_after_gauge(rng):
    spec, params = make_setup(2, 2, 2)
    from spinquiver import random_coordinates
    from spinquiver.points import diagonalize_quadruple
    coords = random_coordinates(spec, params, seed=2)
    point = point_from_coordinates(coords, params, spec)
    g = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
    quad = diagonalize_quadruple(reduced_quadruple(gauge_act(g, point), params))
    ref = diagonalize_quadruple(reduced_quadruple(point, params))
    assert np.linalg.norm(quad.A - ref.A) < 1e-8 * max(1, np.linalg.norm(ref.A))
    # B, bigA, bigC recovered up to the residual diagonal torus of A
    assert abs(np.trace(quad.B) - np.trace(ref.B)) < 1e-8 * max(1, abs(np.trace(ref.B)))


def test_reduced_quadruple_idempotent():
    point, spec, params = make_point(2, 2, 2, seed=13)
    quad1 = reduced_quadruple(point, params)
    normalized = point_from_coordinates  # noqa: F841  (name kept for clarity)
    # a point already in normal form reduces to itself
    spec2, params2 = make_setup(2, 2, 2)
    from spinquiver import random_coordinates
    coords = random_coordinates(spec2, params2, seed=13)
    p2 = point_from_coordinates(coords, params2, spec2)
    q1 = reduced_quadruple(p2, params2)
    q2 = reduced_quadruple(p2, params2)
    assert np.array_equal(q1.A, q2.A) and np.array_equal(q1.B, q2.B)


def test_reduced_quadruple_singular_x():
    point, spec, params = make_point(2, 2, 2, seed=1)
    X = [np.array(mat) for mat in point.X]
    X[1] = np.zeros_like(X[1])
    from spinquiver.points import RepPoint
    broken = RepPoint.make(spec, X, point.Y, point.V, point.W)
    with pytest.raises(SingularX):
        reduced_quadruple(broken, params)


def test_trace_observables_gauge_invariant(rng):
    from spinquiver import PointEngine, cycle_power_sum
    point, spec, params = make_point(2, 2, 2, seed=8)
    g = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
    moved = gauge_act(g, point)
    e0, e1 = PointEngine(point, params), PointEngine(moved, params)
    for kind in ("x", "y"):
        for k in (2, 4):
            w = cycle_power_sum(kind, k, spec.m)
            v0, v1 = e0.trace_wordsum(w), e1.trace_wordsum(w)
            assert abs(v0 - v1) < 1e-9 * max(1, abs(v0))
