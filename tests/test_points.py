import ast
from pathlib import Path

import numpy as np
import pytest

from spinquiver import (LocalCoordinates, ModelSpec, derive_params, gauge_act,
                        moment_residual, point_from_coordinates, random_coordinates,
                        random_point, reduced_quadruple, spin_data)
import spinquiver
from spinquiver.errors import (Degenerate, RegularityViolation, SamplingExhausted, SingularFactor,
                               SingularGauge, SingularX)
from spinquiver.points import (CYCLE_DEGREE, RepPoint, cycle_matrix, cycle_period, inverse,
                               point_with_cycle, quadruple_from_coordinates)

from conftest import make_point, make_setup, reduced_quadruple_by_gauge


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


def test_sampling_exhausted_counts_each_rejection():
    # at (2,2,16) every draw is rejected, mostly by the Degenerate recovery test
    spec, params = make_setup(2, 2, 16)
    for tries in (1, 7, 40):
        with pytest.raises(SamplingExhausted) as info:
            random_point(spec, params, seed=1, max_tries=tries)
        rejections = info.value.rejections
        assert list(rejections) == ["creg screen", "a-row-sum screen", "Degenerate",
                                    "RegularityViolation", "SingularFactor"]
        assert sum(rejections.values()) == tries
        assert info.value.last_error in str(info.value)
    assert rejections["Degenerate"] > 0
    assert info.value.last_error.endswith("singular during recovery")


def test_sampling_exhausted_with_no_draws():
    spec, params = make_setup(2, 2, 2)
    with pytest.raises(SamplingExhausted) as info:
        random_coordinates(spec, params, seed=1, max_tries=0)
    assert info.value.rejections == {"creg screen": 0, "a-row-sum screen": 0}
    assert info.value.last_error is None
    assert str(info.value) == ("no admissible coordinates after 0 draws "
                               "(rejected by creg screen: 0, a-row-sum screen: 0)")


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


# -- the closed-form quadruple against the gauge route of conftest -------------

GRID = [(m, d, n) for m in (1, 2, 3, 4) for d in (1, 2, 3) for n in (2, 3, 4, 5, 6)]


def assert_quadruples_close(quad, ref, tol=1e-12):
    for name in ("A", "B", "bigA", "bigC"):
        got, want = getattr(quad, name), getattr(ref, name)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want), name


def with_y0_moved(point, rel, rng):
    """The point with Y_0 moved by rel times its norm in a random direction."""
    n = point.spec.n
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Y = list(point.Y)
    Y[0] = Y[0] + rel * np.linalg.norm(Y[0]) * noise / np.linalg.norm(noise)
    return RepPoint.make(point.spec, point.X, Y, point.V, point.W)


@pytest.mark.parametrize("m,d,n", GRID)
def test_reduced_quadruple_matches_gauge_route(m, d, n, rng):
    point, spec, params = make_point(m, d, n, seed=3)
    quad, ref = reduced_quadruple(point, params), reduced_quadruple_by_gauge(point, params)
    assert_quadruples_close(quad, ref)
    # the cycle product is multiplied left to right, as the gauge route does
    assert np.array_equal(quad.A, ref.A)
    g = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(m)]
    moved = gauge_act(g, point)
    assert_quadruples_close(reduced_quadruple(moved, params),
                            reduced_quadruple_by_gauge(moved, params))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d,n", [(1, 2), (2, 4), (3, 6)])
def test_reduced_quadruple_negative_controls(m, d, n, rng):
    point, spec, params = make_point(m, d, n, seed=5)
    # a 1e-6 move of Y_0 breaks the vertex-0 moment condition on both routes
    broken = with_y0_moved(point, 1e-6, rng)
    with pytest.raises(Degenerate, match=r"commutation identity: residual \S+ > tol "
                                         r"1\.0e-09 x scale \S+"):
        reduced_quadruple(broken, params)
    with pytest.raises(Degenerate):
        reduced_quadruple_by_gauge(broken, params)
    # a 1e-12 move stays inside check_tol on both routes
    nudged = with_y0_moved(point, 1e-12, rng)
    assert_quadruples_close(reduced_quadruple(nudged, params),
                            reduced_quadruple_by_gauge(nudged, params))


def test_reduced_quadruple_singular_cycle_product():
    # every X_s is invertible, but X_0 X_1 underflows to an exactly singular A
    point, spec, params = make_point(2, 2, 3, seed=1)
    tiny = np.diag([1e-200, 1.0, 1.0])
    broken = RepPoint.make(spec, [tiny, tiny], point.Y, point.V, point.W)
    assert broken.Z is not None
    with pytest.raises(SingularX, match="cycle product"):
        reduced_quadruple(broken, params)
    with pytest.raises(SingularX):
        reduced_quadruple_by_gauge(broken, params)


def test_make_inverts_the_stack_blockwise(rng):
    for m, n in [(1, 2), (2, 5), (3, 9), (4, 13)]:
        X = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(m)]
        Y = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(m)]
        V, W = [np.ones((1, n))], [np.ones((n, 1))]
        point = RepPoint.make(ModelSpec(m, 1, n), X, Y, V, W)
        for s in range(m):
            assert np.array_equal(point.Z[s], Y[s] + np.linalg.inv(X[s]))
        X[m - 1] = np.zeros((n, n))
        assert RepPoint.make(ModelSpec(m, 1, n), X, Y, V, W).Z is None


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


def test_inverse_is_numpy_inv_bit_for_bit(rng):
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    assert np.array_equal(inverse(stack[1], SingularX, "unused"), np.linalg.inv(stack[1]))
    assert np.array_equal(inverse(stack, SingularX, "X_{s} is singular"), np.linalg.inv(stack))


def test_inverse_names_the_first_singular_block(rng):
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    stack[2] = stack[3] = 0.0
    with pytest.raises(SingularGauge, match=r"^g_2 is singular$") as info:
        inverse(stack, SingularGauge, "g_{s} is singular")
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    # a single matrix's message is left as given, braces included
    with pytest.raises(SingularX, match=r"^Z_\{m-1\} is singular$") as info:
        inverse(stack[3], SingularX, "Z_{m-1} is singular")
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("mdn_seed", [(1, 1, 2, 5), (2, 2, 3, 4), (3, 2, 4, 1), (4, 3, 6, 2)])
def test_point_with_cycle_inverts_cycle_matrix(mdn_seed):
    point, _spec, _params = make_point(*mdn_seed)
    X = cycle_matrix(point, "x")
    assert X.deg == 1 % point.spec.m
    for kind in ("y", "z", "t"):
        U = cycle_matrix(point, kind)
        assert U.deg == CYCLE_DEGREE[kind] % point.spec.m
        back = point_with_cycle(point, X, U, kind)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(back.X + back.V + back.W, point.X + point.V + point.W))
        if kind == "t":     # Y = X^(-1) (1 + XY - 1) rounds
            assert max(np.max(np.abs(a - b)) for a, b in zip(back.Y, point.Y)) <= 1e-12
        else:               # drawn points give Y back bit for bit, and the given Z is kept
            assert all(a.tobytes() == b.tobytes() for a, b in zip(back.Y, point.Y))
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(back.Z, U.letters("z") if kind == "z" else point.Z))


def test_point_with_cycle_names_the_first_singular_X_block():
    point, _spec, _params = make_point(3, 2, 4, seed=1)
    X = cycle_matrix(point, "x")
    X.blocks[[1, 2]] = 0.0      # the blocks of X_1 and X_2 (letter x_s sits at vertex s)
    for kind, what in (("z", r"Z_1 - X_1\^\(-1\)"), ("t", r"X_1\^\(-1\) \(T_1 - 1\)")):
        with pytest.raises(SingularFactor, match=rf"^X_1 singular, so Y_1 = {what} is undefined$"):
            point_with_cycle(point, X, cycle_matrix(point, kind), kind)
    assert point_with_cycle(point, X, cycle_matrix(point, "y"), "y").Z is None
    with pytest.raises(ValueError, match="kind 'x'"):
        point_with_cycle(point, X, X, "x")


def test_cycle_period_is_the_m_divides_k_rule():
    for m in (1, 2, 3, 4):
        assert [cycle_period(kind, m) for kind in ("x", "y", "z", "t")] == [m, m, m, 1]


def test_cycle_matrix_of_a_singular_X_has_no_z():
    point, spec, _params = make_point(2, 2, 3, seed=4)
    broken = RepPoint.make(spec, [np.zeros((3, 3)), point.X[1]], point.Y, point.V, point.W)
    assert cycle_matrix(broken, "t").deg == 0
    with pytest.raises(SingularX):
        cycle_matrix(broken, "z")
    with pytest.raises(ValueError, match="unknown cycle kind"):
        cycle_matrix(point, "w")


# the primitives whose LinAlgError is part of their contract call np.linalg.inv directly
_RAW_INVERSES = {("points.py", "inverse"), ("points.py", "make"), ("cyclic.py", "inv"),
                 ("flows.py", "_inverse_into"), ("flows.py", "expm")}


def _raw_inverse_sites(node, module, func=None):
    """(module, innermost enclosing function) of each np.linalg.inv under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if (isinstance(node, ast.Attribute) and node.attr == "inv"
            and ast.unparse(node.value) == "np.linalg"):
        yield module, func
    for child in ast.iter_child_nodes(node):
        yield from _raw_inverse_sites(child, module, func)


def test_every_other_inverse_goes_through_inverse():
    found = set()
    for path in Path(spinquiver.__file__).parent.glob("*.py"):
        found.update(_raw_inverse_sites(ast.parse(path.read_text()), path.name))
    assert found == _RAW_INVERSES
