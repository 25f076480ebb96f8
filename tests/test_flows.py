"""Explicit flows vs the RK4 oracle; conservation and equivariance."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinquiver import (FlowSpec, LocalCoordinates, ModelSpec, Trajectory, derive_params,
                        family_value, flow_T, flow_Y, flow_Z, gauge_act, moment_residual,
                        ode_oracle, phi1, point_from_coordinates, random_coordinates,
                        random_point)
import spinquiver
from spinquiver import flows
from spinquiver.cyclic import CycleMatrix
from spinquiver.errors import SingularFactor, SingularX
from spinquiver.families import FAMILY_KIND
from spinquiver.flows import closed_form_flow, conservation_report, expm
from spinquiver.points import RepPoint

from conftest import dense_cycle, ode_oracle_loop, tame_point, vf_T, vf_Y, vf_Z

TAME_Q = {2: [1.1 + 0.1j, 0.8 - 0.2j]}


@pytest.fixture(scope="module")
def tame():
    point, spec, params = tame_point(2, 2, 2, seed=3, q=TAME_Q[2])
    return point, spec, params


def point_dist(p1, p2):
    return max(max(np.linalg.norm(a - b) for a, b in zip(p1.X, p2.X)),
               max(np.linalg.norm(a - b) for a, b in zip(p1.Y, p2.Y)))


def test_expm_agrees_with_scipy(rng):
    import scipy.linalg
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.linalg.norm(expm(A) - scipy.linalg.expm(A)) < 1e-10 * np.linalg.norm(expm(A))


def test_expm_fallback_on_defective_matrix():
    # [[a, 1], [0, a]] has one eigenvector, so the eigenbasis is singular and
    # expm falls back to Pade; the exact result is e^a [[1, 1], [0, 1]]
    a = 0.3 + 0.2j
    A = np.array([[a, 1.0], [0.0, a]])
    vecs = np.linalg.eig(A)[1]
    assert not np.linalg.cond(vecs) < flows._COND_LIMIT
    exact = np.exp(a) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.max(np.abs(expm(A) - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg is imported only by the Pade fallback of expm
    src = str(Path(spinquiver.__file__).resolve().parent.parent)
    code = "import sys, spinquiver, spinquiver.cli; print('scipy.linalg' in sys.modules)"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_phi1_series_and_singular_input():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # nilpotent, singular
    # phi1(A) = I + A/2 for A^2 = 0
    assert np.linalg.norm(phi1(A) - (np.eye(2) + A / 2)) < 1e-12
    B = np.diag([0.3 + 0.1j, -0.2j])
    expected = np.diag([(np.exp(b) - 1) / b for b in np.diag(B)])
    assert np.linalg.norm(phi1(B) - expected) < 1e-12


def test_zero_time_is_identity(tame):
    point, spec, params = tame
    for fl in (flow_Z, flow_Y):
        out = fl(point, spec.m, 0.0)
        assert point_dist(out, point) < 1e-14
    out = flow_T(point, 1, 0.0)
    assert point_dist(out, point) < 1e-14


def test_conserved_data_bit_identical(tame):
    point, spec, params = tame
    m, n = spec.m, spec.n
    pz = flow_Z(point, m, 0.3 + 0.1j)
    assert all(np.array_equal(a, b) for a, b in zip(pz.Z, point.Z))
    assert all(np.array_equal(a, b) for a, b in zip(pz.V + pz.W, point.V + point.W))
    py = flow_Y(point, m, 0.2)
    assert all(np.array_equal(a, b) for a, b in zip(py.Y, point.Y))
    pt = flow_T(point, 1, 0.2 - 0.1j)
    T0 = [np.eye(n) + point.X[s] @ point.Y[s] for s in range(m)]
    T1 = [np.eye(n) + pt.X[s] @ pt.Y[s] for s in range(m)]
    assert max(np.linalg.norm(a - b) for a, b in zip(T0, T1)) < 1e-13


def test_flows_require_divisible_power(tame):
    point, spec, params = tame
    with pytest.raises(ValueError):
        flow_Z(point, spec.m + 1, 0.1)
    with pytest.raises(ValueError):
        flow_Y(point, spec.m + 1, 0.1)


def test_flows_stay_on_shell(tame):
    point, spec, params = tame
    for moved in (flow_Z(point, spec.m, 0.4), flow_Y(point, spec.m, 0.4),
                  flow_T(point, 2, 0.4)):
        assert max(moment_residual(moved, params)) < 1e-10 * moved.norm_scale()


def test_flow_T_semigroup(tame):
    point, spec, params = tame
    t1, t2 = 0.21 + 0.07j, 0.34 - 0.12j
    once = flow_T(flow_T(point, 2, t1), 2, t2)
    both = flow_T(point, 2, t1 + t2)
    assert point_dist(once, both) < 1e-10 * max(1.0, both.norm_scale())


@pytest.mark.parametrize("ham,k", [("trZ", 2), ("trY", 2), ("trT", 1)])
def test_oracle_matches_closed_form_with_order(tame, ham, k):
    point, spec, params = tame
    errs = []
    for steps in (10, 20, 40):
        fs = FlowSpec(hamiltonian=ham, k=k, time=1.0, eta=0.0, steps=steps)
        errs.append(point_dist(ode_oracle(point, fs, params).endpoint,
                               closed_form_flow(point, fs)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.7
    assert errs[-1] < 1e-7


def test_gauge_equivariance(tame, rng):
    point, spec, params = tame
    n, m = spec.n, spec.m
    g = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(m)]
    flowed_then_gauged = gauge_act(g, flow_Z(point, m, 0.3))
    gauged_then_flowed = flow_Z(gauge_act(g, point), m, 0.3)
    assert point_dist(flowed_then_gauged, gauged_then_flowed) \
        < 1e-9 * max(1.0, gauged_then_flowed.norm_scale())


@pytest.mark.parametrize("ham,fam", [("trZ", 4), ("trY", 3), ("trT", 2)])
def test_family_conservation_along_eta_flows(tame, ham, fam):
    point, spec, params = tame
    m = spec.m
    eta = 0.31 - 0.17j
    k = m if ham != "trT" else 1
    steps = 1000 if ham == "trY" else 600   # the Y-flow is the stiffest here
    fs = FlowSpec(hamiltonian=ham, k=k, time=1.0, eta=eta, steps=steps)
    traj = ode_oracle(point, fs, params)
    js = [m, 2 * m] if fam != 2 else [1, 2]
    for j in js:
        for e2 in (eta, 0.11 + 0.23j):
            series = [family_value(p, fam, j, e2) for p in traj.points]
            drift = max(abs(v - series[0]) for v in series) / max(1.0, abs(series[0]))
            assert drift <= 1e-7
    mom = max(max(moment_residual(p, params)) for p in traj.points)
    assert mom <= 1e-8 * point.norm_scale()


def test_conservation_report_structure(tame):
    point, spec, params = tame
    fs = FlowSpec(hamiltonian="trT", k=1, time=0.5, eta=0.0, steps=50)
    report = conservation_report(
        point, fs,
        {"fam2-j1": lambda p: family_value(p, 2, 1, 0.0),
         "trXm": lambda p: family_value(p, 1, spec.m, 0.0),
         "moment": lambda p: max(moment_residual(p, params))},
        params)
    assert report["fam2-j1"]["rel_drift"] <= 1e-8
    assert report["moment"]["max_drift"] <= 1e-9
    # tr X^m is generically not conserved under the T-flow: report only
    assert report["trXm"]["max_drift"] > 1e-6


def test_flow_inputs_are_validated(tame):
    point, spec, params = tame
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            FlowSpec(hamiltonian="trT", k=1, time=1.0, steps=steps)
    fs = FlowSpec(hamiltonian="trT", k=1, time=0.5, steps=4)
    for samples in (0, -2):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            ode_oracle(point, fs, params, samples=samples)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            conservation_report(point, fs, {"trX": lambda p: np.trace(p.X[0])},
                                samples=samples)


def test_oracle_trajectory_sampling(tame):
    point, spec, params = tame
    fs = FlowSpec(hamiltonian="trZ", k=spec.m, time=0.5, eta=0.0, steps=40)
    traj = ode_oracle(point, fs, params, samples=8)
    assert len(traj.points) >= 8
    assert abs(traj.times[-1] - 0.5) < 1e-12


# -- the oracle's vector fields against two references -------------------------
#
# The fields act on CycleMatrix states: X of degree +1, Z and Y of degree -1,
# U = 1 + XY of degree 0.  The graded references evaluate Theta, 1 + eta Theta
# and the eta-weighted term of dX at every eta; the fields in flows skip them
# at eta = 0 and keep every other product in the same association, so results
# agree bit for bit.  The dense references are the same formulas on whole
# m n x m n matrices; products of blocks round differently from whole-matrix
# products, so these agree to 1e-14 of the largest reference block, times the
# condition number of the matrix the field inverts (the eta-terms pass through
# its inverse).

def _graded_vf_Z(X, Z, k, eta):
    Theta = X @ Z @ (Z @ X).inv()
    U = Z @ (1 + eta * Theta)
    Ukm1 = U.power(k - 1)
    dX = -eta * (Theta @ Ukm1 @ Z @ X) - X @ Ukm1 @ Z
    dZ = -(Z @ Ukm1 @ Z) + Ukm1 @ Z @ Z
    return dX, dZ


def _graded_vf_Y(X, Y, k, eta):
    W = 1 + Y @ X
    Theta = (1 + X @ Y) @ W.inv()
    U = Y @ (1 + eta * Theta)
    Ukm1 = U.power(k - 1)
    dX = -Ukm1 - X @ Ukm1 @ Y - eta * (Theta @ Ukm1 @ W)
    dY = -(Y @ Ukm1 @ Y) + Ukm1 @ Y @ Y
    return dX, dY


def _graded_vf_T(X, U, k, eta):
    Theta_inv = X.inv() @ U @ X @ U.inv()
    U_eta = U @ (1 + eta * Theta_inv)
    Ukm1 = U_eta.power(k - 1)
    dX = -(Ukm1 @ U @ X) - eta * (X @ Theta_inv @ Ukm1 @ U)
    dU = -(Ukm1 @ U @ U) + U @ Ukm1 @ U
    return dX, dU


def _ref_theta_from_XZ(Xt, Zt):
    XZ = Xt @ Zt
    ZX = Zt @ Xt
    return XZ @ np.linalg.inv(ZX)


def _ref_vf_Z(Xt, Zt, k, eta):
    Theta = _ref_theta_from_XZ(Xt, Zt)
    eye = np.eye(Xt.shape[0])
    U = Zt @ (eye + eta * Theta)
    Ukm1 = np.linalg.matrix_power(U, k - 1)
    dX = -eta * (Theta @ Ukm1 @ Zt @ Xt) - Xt @ Ukm1 @ Zt
    dZ = -(Zt @ Ukm1 @ Zt) + Ukm1 @ Zt @ Zt
    return dX, dZ


def _ref_vf_Y(Xt, Yt, k, eta):
    eye = np.eye(Xt.shape[0])
    T1 = eye + Xt @ Yt
    W = eye + Yt @ Xt
    Theta = T1 @ np.linalg.inv(W)
    U = Yt @ (eye + eta * Theta)
    Ukm1 = np.linalg.matrix_power(U, k - 1)
    dX = -Ukm1 - Xt @ Ukm1 @ Yt - eta * (Theta @ Ukm1 @ W)
    dY = -(Yt @ Ukm1 @ Yt) + Ukm1 @ Yt @ Yt
    return dX, dY


def _ref_vf_T(Xt, Ut, k, eta):
    eye = np.eye(Xt.shape[0])
    Xinv = np.linalg.inv(Xt)
    W = Xinv @ Ut @ Xt                      # 1 + YX
    Theta_inv = W @ np.linalg.inv(Ut)
    U_eta = Ut @ (eye + eta * Theta_inv)
    Ukm1 = np.linalg.matrix_power(U_eta, k - 1)
    dX = -(Ukm1 @ Ut @ Xt) - eta * (Xt @ Theta_inv @ Ukm1 @ Ut)
    dU = -(Ukm1 @ Ut @ Ut) + Ut @ Ukm1 @ Ut
    return dX, dU


# (field, graded reference, dense reference, degree of the second state,
#  the dense matrices whose inverses the field takes)
FIELDS = [
    (vf_Z, _graded_vf_Z, _ref_vf_Z, -1, lambda X, M: [M @ X]),
    (vf_Y, _graded_vf_Y, _ref_vf_Y, -1, lambda X, M: [np.eye(len(X)) + M @ X]),
    (vf_T, _graded_vf_T, _ref_vf_T, 0, lambda X, M: [X, M]),
]
ETAS = [0.0, 0.3 - 0.2j, 1.5j, -0.7]
SHAPES = {3: (1, 3), 6: (2, 3), 12: (4, 3), 18: (3, 6)}    # N = m n: (m, n)


def _graded(rng, m, n, deg):
    """A well-conditioned CycleMatrix: identity blocks plus complex noise."""
    noise = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return CycleMatrix(deg, np.eye(n) + 0.4 / np.sqrt(n) * noise)


def _powers(field, m):
    """The powers k the oracle runs a field at: trZ and trY flows need m | k."""
    return (1, 2, 3, 4) if field is vf_T else (m, 2 * m)


def _dense(a):
    return dense_cycle(a.deg, a.blocks)


def _assert_matches_dense(got, X, M, k, eta, dense_field, inverted):
    with np.errstate(all="ignore"):
        want = dense_field(_dense(X), _dense(M), k, eta)
        scale = max(np.max(np.abs(w)) for w in want)
        scale *= max(np.linalg.cond(a) for a in inverted(_dense(X), _dense(M)))
    for g, w in zip(got, want):
        assert np.max(np.abs(_dense(g) - w)) <= 1e-14 * scale


@pytest.mark.parametrize("N", sorted(SHAPES))
def test_vector_fields_match_reference_bit_for_bit(rng, N):
    m, n = SHAPES[N]
    for field, graded, _dense_field, deg, _inverted in FIELDS:
        for k in _powers(field, m):
            for eta in ETAS:
                X, M = _graded(rng, m, n, 1), _graded(rng, m, n, deg)
                got, want = field(X, M, k, eta), graded(X, M, k, eta)
                assert all(g.deg == w.deg and np.array_equal(g.blocks, w.blocks)
                           for g, w in zip(got, want)), (field.__name__, k, eta)


@pytest.mark.parametrize("N", sorted(SHAPES))
def test_vector_fields_match_dense_reference(rng, N):
    m, n = SHAPES[N]
    for field, _graded_field, dense_field, deg, inverted in FIELDS:
        for k in _powers(field, m):
            for eta in ETAS:
                X, M = _graded(rng, m, n, 1), _graded(rng, m, n, deg)
                _assert_matches_dense(field(X, M, k, eta), X, M, k, eta, dense_field, inverted)


def test_vector_fields_take_the_domain_inverse_at_every_eta(rng):
    m, n = 2, 4
    X, M, U = _graded(rng, m, n, 1), _graded(rng, m, n, -1), _graded(rng, m, n, 0)
    zero = lambda deg: CycleMatrix(deg, np.zeros((m, n, n), dtype=complex))
    eye = lambda deg: CycleMatrix(deg, np.broadcast_to(np.eye(n), (m, n, n)))
    cases = [(vf_Z, zero(1), M), (vf_Y, eye(1), -eye(-1)),
             (vf_T, zero(1), U), (vf_T, X, zero(0))]
    for field, A, B in cases:
        for eta in ETAS:
            with pytest.raises(np.linalg.LinAlgError):
                field(A, B, 2, eta)


def _raises_linalg_error(fn, blocks) -> bool:
    try:
        fn(blocks)
    except np.linalg.LinAlgError:
        return True
    return False


@pytest.mark.parametrize("errstate", [{}, {"over": "raise", "invalid": "raise"}])
def test_domain_test_decides_as_inv(rng, errstate):
    # _require_invertible raises exactly where inv does, on stacks of
    # low-rank integer blocks (exact zero pivots or not) and on stacks with
    # non-finite entries, both in numpy's default error state and in the
    # oracle's, where inv still raises only LinAlgError
    decided = {}
    for _ in range(2000):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        rank = np.where(rng.random(m) < 0.85, n, rng.integers(0, n, size=m))
        blocks = np.stack([rng.integers(-2, 3, (n, r)) @ rng.integers(-2, 3, (r, n))
                           for r in rank]).astype(complex)
        finite = rng.random() < 0.7
        if not finite:
            idx = tuple(rng.integers(0, size) for size in blocks.shape)
            blocks[idx] = rng.choice([np.inf, -np.inf, np.nan, complex(np.inf, np.nan)])
        with np.errstate(**errstate):
            want = _raises_linalg_error(np.linalg.inv, blocks)
            got = _raises_linalg_error(flows._require_invertible, blocks)
        assert got == want, blocks
        decided[finite, want] = decided.get((finite, want), 0) + 1
    # both decisions were met, on finite and on non-finite stacks
    assert len(decided) == 4 and min(decided.values()) >= 50, decided


def _recipe_point(seed):
    """A (2,2,3) point with q = exp(0.35 (N(2) + i N(2))) drawn from Philox(seed)."""
    gen = np.random.Generator(np.random.Philox(seed))
    q = np.exp(0.35 * (gen.standard_normal(2) + 1j * gen.standard_normal(2)))
    params = derive_params(q, 3)
    return random_point(ModelSpec(2, 2, 3), params, 10), params


def _trajectory(run):
    """(times, point blocks, message) of run(); the message is None unless SingularFactor."""
    try:
        traj, message = run(), None
    except SingularFactor as exc:
        traj, message = exc.args[1], exc.args[0]
    blocks = [p.X + p.Y + p.V + p.W + (p.Z or ()) for p in traj.points]
    return traj.times, blocks, message


def _assert_same_trajectory(got, want):
    """Equal times and messages, and bit-identical point blocks."""
    assert got[2] == want[2]
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for g, w in zip(got[1], want[1]):
        assert len(g) == len(w)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(g, w))


def _counted(field):
    """The field, counting its calls in .calls."""
    def counted(*args):
        counted.calls += 1
        return field(*args)
    counted.calls = 0
    return counted


def _checked(field, dense_field, inverted):
    """The field, asserting that it matches the dense one wherever that one is defined."""
    def checked(X, M, k, eta):
        got = field(X, M, k, eta)
        try:
            _assert_matches_dense(got, X, M, k, eta, dense_field, inverted)
        except np.linalg.LinAlgError:
            pass    # the whole-matrix inverse rejected a state whose blocks it accepted
        return got
    return checked


HAMILTONIANS = dict(zip(("trZ", "trY", "trT"), FIELDS))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", [3, 9])
def test_oracle_matches_reference_fields(seed):
    # the oracle against ode_oracle_loop driven by the graded references, and
    # by the per-field entries onto the oracle's plans checked against the
    # dense references
    point, params = _recipe_point(seed)
    messages = {}
    for ham, (field, graded, dense_field, _deg, inverted) in HAMILTONIANS.items():
        for eta in (0.0, 0.3 - 0.2j):
            fs = FlowSpec(ham, 1 if ham == "trT" else 2, 1.0, eta, 100)
            got = _trajectory(lambda: ode_oracle(point, fs, params))
            for reference in (graded, _checked(field, dense_field, inverted)):
                reference = _counted(reference)
                _assert_same_trajectory(got, _trajectory(
                    lambda: ode_oracle_loop(point, fs, reference)))
                assert reference.calls > 0
            messages[ham, eta] = got[2]
    if seed == 3:   # both eta = 0 flows leave the domain, so the failure path is compared
        assert messages["trZ", 0.0] == "oracle singular at step 11"
        assert messages["trY", 0.0] == "oracle singular at step 11"


# (m, d, n) of the tame points the oracle is compared on, one per cycle length
ORACLE_SPECS = [(1, 2, 3), (2, 2, 3), (3, 3, 6), (4, 2, 3)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mdn", ORACLE_SPECS)
def test_oracle_matches_reference_loop(mdn):
    # every Hamiltonian at the powers the flows take (trT at k = 1 multiplies
    # by the identity U^0), at eta = 0 and eta != 0, sampled every 5 of 41 steps
    point, spec, params = tame_point(*mdn, seed=5)
    m, outcomes = spec.m, set()
    for ham, (_field, graded, *_rest) in HAMILTONIANS.items():
        for k in (1, 2, 3, 4) if ham == "trT" else (m, 2 * m):
            for eta in (0.0, 0.3 - 0.2j):
                fs = FlowSpec(ham, k, 1.0, eta, 41)
                got = _trajectory(lambda: ode_oracle(point, fs, params, samples=7))
                want = _trajectory(lambda: ode_oracle_loop(point, fs, graded, samples=7))
                _assert_same_trajectory(got, want)
                assert len(got[0]) == 10 or got[2] is not None
                outcomes.add(got[2] is None)
    assert True in outcomes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_oracle_rebuild_failure_is_singular_factor():
    # the trZ state's X_1 block turns numerically singular (smallest singular
    # value 8e-18 of 0.58) between samples, and inv rejects it at step 30
    point, params = _recipe_point(191)
    with pytest.raises(SingularFactor) as info:
        ode_oracle(point, FlowSpec("trZ", 2, 1.0, 0.0, 100), params)
    message, partial = info.value.args
    assert message == "oracle state has a singular X block at step 30"
    assert isinstance(partial, Trajectory)
    assert partial.times[-1] == pytest.approx(0.2)
    assert len(partial.points) == 3
    assert isinstance(info.value.__cause__, SingularFactor)
    fs = FlowSpec("trZ", 2, 1.0, 0.0, 100)
    _assert_same_trajectory(_trajectory(lambda: ode_oracle(point, fs, params)),
                            _trajectory(lambda: ode_oracle_loop(point, fs, _graded_vf_Z)))


def test_oracle_stops_at_a_later_singular_stage():
    # trT at k = 1 with Y = 0: U = 1 and the field is dX = -X, dU = 0, so with
    # h = 2 the first stage's X is regular, the second stage's X = X - X is
    # exactly 0, and the third and fourth stages' X are X and -X again; only
    # the second stage leaves the domain, and both oracles stop at step 1
    point, _spec, params = tame_point(2, 2, 3, seed=5)
    zero = [np.zeros_like(y) for y in point.Y]
    point = RepPoint.make(point.spec, point.X, zero, point.V, point.W)
    fs = FlowSpec("trT", 1, 2.0 * 3, 0.0, 3)
    got = _trajectory(lambda: ode_oracle(point, fs, params))
    want = _trajectory(lambda: ode_oracle_loop(point, fs, _graded_vf_T))
    assert got[2] == "oracle singular at step 1"
    _assert_same_trajectory(got, want)
    assert len(got[0]) == 1


@pytest.mark.parametrize("ham, k, per_stage", [("trZ", 2, 1), ("trY", 2, 1), ("trT", 1, 2),
                                               ("trT", 3, 2)])
def test_domain_test_runs_once_per_step(tame, monkeypatch, ham, k, per_stage):
    # at eta = 0, one _require_invertible call per step, on the tested blocks
    # of all four stages; at eta != 0 the field's own inverses test, and none
    point, spec, params = tame
    m, n = spec.m, spec.n
    require, shapes = flows._require_invertible, []

    def recorded(blocks):
        shapes.append(blocks.shape)
        require(blocks)

    monkeypatch.setattr(flows, "_require_invertible", recorded)
    ode_oracle(point, FlowSpec(ham, k, 0.2, 0.0, 7), params)
    assert shapes == [(4, per_stage, m, n, n)] * 7
    assert len(flows._plan(ham, k, m, n, True).tested) == per_stage
    shapes.clear()
    ode_oracle(point, FlowSpec(ham, k, 0.2, 0.3 - 0.2j, 7), params)
    assert shapes == []
    assert len(flows._plan(ham, k, m, n, False).tested) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_oracle_is_reentrant(monkeypatch):
    # a second oracle on the same plan runs whole inside the first one's first
    # domain test, after all four stages of its first step; each call owns its
    # workspace and its buffer of tested blocks, so both match the runs made
    # one at a time
    fs = FlowSpec("trT", 1, 1.0, 0.0, 100)
    (p1, params1), (p2, params2) = _recipe_point(9), _recipe_point(11)
    alone = [_trajectory(lambda: ode_oracle(p, fs, par)) for p, par in ((p1, params1),
                                                                      (p2, params2))]
    require, inner = flows._require_invertible, []

    def interleaved(blocks):
        if not inner:
            inner.append(None)
            inner[0] = _trajectory(lambda: ode_oracle(p2, fs, params2))
        require(blocks)

    monkeypatch.setattr(flows, "_require_invertible", interleaved)
    outer = _trajectory(lambda: ode_oracle(p1, fs, params1))
    _assert_same_trajectory(outer, alone[0])
    _assert_same_trajectory(inner[0], alone[1])
    assert len(alone[0][0]) > 1 and len(alone[1][0]) > 1


def test_flow_Z_singular_endpoint_is_singular_factor():
    # a tame (3,3,6) point, drawn as `bench/workloads.py` draws input 33005,
    # whose closed-form X(1) = X(0) exp(-Z^3) has a block that inv rejects
    spec, s = ModelSpec(3, 3, 6), 33005
    gen = np.random.Generator(np.random.Philox(s + 77))
    q = np.exp(0.35 * (gen.standard_normal(3) + 1j * gen.standard_normal(3)))
    params = derive_params(q, 6)
    raw = random_coordinates(spec, params, s)
    coords = LocalCoordinates.make(raw.x, raw.a, 0.15 * raw.c)
    point = point_from_coordinates(coords, params, spec)
    with pytest.raises(SingularFactor, match=r"X_\d singular, so Y_\d = ") as info:
        flow_Z(point, 3, 1.0)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_each_hamiltonian_has_a_field_a_closed_form_and_a_conserved_family():
    conserved = {name: [f for f, kind in FAMILY_KIND.items() if kind == ham.kind]
                 for name, ham in flows.HAMILTONIANS.items()}
    assert conserved == {"trZ": [4], "trY": [3], "trT": [2]}
    assert [ham.field for ham in flows.HAMILTONIANS.values()] == [
        flows._field_Z, flows._field_Y, flows._field_T]
    assert [ham.closed_form for ham in flows.HAMILTONIANS.values()] == [flow_Z, flow_Y, flow_T]


def test_flows_check_the_m_divides_k_rule(tame):
    point, spec, params = tame
    for name in ("trZ", "trY"):
        with pytest.raises(ValueError, match=f"^{name} flows need m [|] k$"):
            ode_oracle(point, FlowSpec(name, spec.m + 1, 0.1), params)
    ode_oracle(point, FlowSpec("trT", spec.m + 1, 0.1, steps=2), params)


def _mm_levels_and_one_reads(plan):
    """The plan's matmul levels, and whether any step reads a slot that holds U^0 = 1."""
    ones, levels, reads = set(plan.ones), 0, False
    for op, *args in plan.steps:
        if op == "mm":
            levels += 1
            reads |= bool(ones & set((args[0] // plan.m).tolist()))
        else:
            operands = args[:2] if op == "add" else args[:1]
            reads |= bool(ones & set(operands))
    return levels, reads


def test_plans_fold_products_with_the_identity():
    # trT at k = 1 multiplies by U^0 = 1: 3 products in one level at eta = 0,
    # not 6 in two, and no step reads the identity's slot at either eta
    m, n = 3, 6
    assert _mm_levels_and_one_reads(flows._plan("trT", 1, m, n, True)) == (1, False)
    assert not _mm_levels_and_one_reads(flows._plan("trT", 1, m, n, False))[1]
    zero_eta = flows._plan("trT", 1, m, n, True)
    assert sum(len(args[0]) for op, *args in zero_eta.steps if op == "mm") == 2 * 3 * m
    # trY at m = k = 1 still reads U^0 = 1 through -U^0 in dX
    assert _mm_levels_and_one_reads(flows._plan("trY", 1, 1, n, True))[1]


def test_an_undefined_Z_is_the_singular_X_of_require_Z(tame):
    point, spec, params = tame
    X = [np.zeros_like(point.X[0])] + list(point.X[1:])
    broken = RepPoint.make(spec, X, point.Y, point.V, point.W)
    assert broken.Z is None
    with pytest.raises(SingularX, match="Z is undefined"):
        flow_Z(broken, spec.m, 0.1)
    with pytest.raises(SingularX, match="Z is undefined"):
        ode_oracle(broken, FlowSpec("trZ", spec.m, 0.1), params)
    with pytest.raises(SingularX, match="Z is undefined"):
        family_value(broken, 4, spec.m, 0.3)
