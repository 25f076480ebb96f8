"""Explicit flows vs the RK4 oracle; conservation and equivariance."""

import numpy as np
import pytest

from spinquiver import (FlowSpec, LocalCoordinates, ModelSpec, Trajectory, derive_params,
                        family_value, flow_T, flow_Y, flow_Z, gauge_act, moment_residual,
                        ode_oracle, phi1, point_from_coordinates, random_coordinates,
                        random_point)
from spinquiver import flows
from spinquiver.errors import SingularFactor
from spinquiver.flows import closed_form_flow, conservation_report, expm

from conftest import tame_point

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


def test_oracle_trajectory_sampling(tame):
    point, spec, params = tame
    fs = FlowSpec(hamiltonian="trZ", k=spec.m, time=0.5, eta=0.0, steps=40)
    traj = ode_oracle(point, fs, params, samples=8)
    assert len(traj.points) >= 8
    assert abs(traj.times[-1] - 0.5) < 1e-12


# -- the oracle's vector fields against the version that always built Theta ----
#
# The reference fields below evaluate Theta, 1 + eta Theta and the eta-weighted
# term of dX at every eta.  The fields in flows skip them at eta = 0 and keep
# every other product in the same association, so results agree bit for bit.

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


FIELDS = [(flows._vf_Z, _ref_vf_Z), (flows._vf_Y, _ref_vf_Y), (flows._vf_T, _ref_vf_T)]
ETAS = [0.0, 0.3 - 0.2j, 1.5j, -0.7]


def _complex(rng, N):
    return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


@pytest.mark.parametrize("N", [3, 6, 12, 18])
def test_vector_fields_match_reference_bit_for_bit(rng, N):
    for k in range(1, 5):
        for eta in ETAS:
            X, M = _complex(rng, N), _complex(rng, N)
            for field, ref in FIELDS:
                got, want = field(X, M, k, eta), ref(X, M, k, eta)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), \
                    (field.__name__, k, eta)


def test_vector_fields_take_the_domain_inverse_at_every_eta(rng):
    X, M = _complex(rng, 4), _complex(rng, 4)
    singular, eye = np.zeros((4, 4), dtype=complex), np.eye(4, dtype=complex)
    cases = [(flows._vf_Z, singular, M), (flows._vf_Y, eye, -eye),
             (flows._vf_T, singular, M), (flows._vf_T, X, singular)]
    for field, A, B in cases:
        for eta in ETAS:
            with pytest.raises(np.linalg.LinAlgError):
                field(A, B, 2, eta)


def _recipe_point(seed):
    """A (2,2,3) point with q = exp(0.35 (N(2) + i N(2))) drawn from Philox(seed)."""
    gen = np.random.Generator(np.random.Philox(seed))
    q = np.exp(0.35 * (gen.standard_normal(2) + 1j * gen.standard_normal(2)))
    params = derive_params(q, 3)
    return random_point(ModelSpec(2, 2, 3), params, 10), params


def _run_oracle(point, fs, params):
    """(times, point blocks, None) of a full run; (times, blocks, message) on SingularFactor."""
    try:
        traj, message = ode_oracle(point, fs, params), None
    except SingularFactor as exc:
        traj, message = exc.args[1], exc.args[0]
    blocks = [p.X + p.Y + p.V + p.W + (p.Z or ()) for p in traj.points]
    return traj.times, blocks, message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", [3, 9])
def test_oracle_matches_reference_fields(monkeypatch, seed):
    point, params = _recipe_point(seed)
    messages = {}
    for ham in ("trZ", "trY", "trT"):
        for eta in (0.0, 0.3 - 0.2j):
            fs = FlowSpec(ham, 1 if ham == "trT" else 2, 1.0, eta, 100)
            times, blocks, message = _run_oracle(point, fs, params)
            with monkeypatch.context() as patch:
                for name, ref in (("_vf_Z", _ref_vf_Z), ("_vf_Y", _ref_vf_Y),
                                  ("_vf_T", _ref_vf_T)):
                    patch.setattr(flows, name, ref)
                ref_times, ref_blocks, ref_message = _run_oracle(point, fs, params)
            assert message == ref_message
            assert times == ref_times
            assert len(blocks) == len(ref_blocks)
            # equal_nan: at seed 9 the trZ flow at eta != 0 runs to non-finite values
            for got, want in zip(blocks, ref_blocks):
                assert len(got) == len(want)
                assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
            messages[ham, eta] = message
    if seed == 3:   # both eta = 0 flows leave the domain, so the failure path is compared
        assert messages["trZ", 0.0] == "oracle singular at step 12"
        assert messages["trY", 0.0] == "oracle singular at step 12"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_oracle_rebuild_failure_is_singular_factor():
    point, params = _recipe_point(87)
    with pytest.raises(SingularFactor) as info:
        ode_oracle(point, FlowSpec("trZ", 2, 1.0, 0.0, 100), params)
    message, partial = info.value.args
    assert message == "oracle state has a singular X block at step 80"
    assert isinstance(partial, Trajectory)
    assert partial.times[-1] == pytest.approx(0.7)
    assert len(partial.points) == 8
    assert isinstance(info.value.__cause__, SingularFactor)


def test_flow_Z_singular_endpoint_is_singular_factor():
    # a tame (3,3,6) point, drawn as `bench/workloads.py` draws input 22006,
    # whose closed-form X(1) reaches 1e106 and has a block that inv rejects
    spec, s = ModelSpec(3, 3, 6), 22006
    gen = np.random.Generator(np.random.Philox(s + 77))
    q = np.exp(0.35 * (gen.standard_normal(3) + 1j * gen.standard_normal(3)))
    params = derive_params(q, 6)
    raw = random_coordinates(spec, params, s)
    coords = LocalCoordinates.make(raw.x, raw.a, 0.15 * raw.c)
    point = point_from_coordinates(coords, params, spec)
    with pytest.raises(SingularFactor, match=r"X_\d singular, so Y_\d = ") as info:
        flow_Z(point, 3, 1.0)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
