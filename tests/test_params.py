import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinquiver import ModelSpec, check_regularity, derive_params
from spinquiver.errors import ZeroParameter


def test_derive_params_two_real():
    p = derive_params([2, 3], n=1)
    assert p.t_cum[0] == 2
    assert p.t == 6
    assert abs(p.q_inf - 1 / 6) < 1e-15


def test_derive_params_single_entry():
    t = 1.3 - 0.4j
    p = derive_params([t], n=2)
    assert p.t_cum[0] == t
    assert abs(p.q_inf - t ** -2) < 1e-15


def test_derive_params_complex_pair():
    p = derive_params([1 + 1j, 1 - 1j], n=2)
    assert p.t_cum[0] == 1 + 1j
    assert abs(p.t - 2) < 1e-15
    assert abs(p.q_inf - 0.25) < 1e-15


def test_zero_parameter_rejected():
    with pytest.raises(ZeroParameter):
        derive_params([1.0, 0.0], n=1)


def test_virtual_t_minus_one():
    p = derive_params([2, 3], n=1)
    assert p.t_at(-1) == 1
    assert p.t_at(1) == 6


@given(st.integers(min_value=1, max_value=4),
       st.lists(st.complex_numbers(min_magnitude=0.3, max_magnitude=3,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_derive_params_multiplicative(n, q):
    base = derive_params(q, n=n)
    extra = 0.9 + 0.4j
    extended = derive_params(list(q) + [extra], n=n)
    assert abs(extended.t - base.t * extra) < 1e-12 * max(1, abs(base.t))
    assert abs(extended.q_inf - (base.t * extra) ** -n) < 1e-10 * max(1, abs(extended.q_inf))


def test_regularity_generic_true():
    p = derive_params([2, 3], n=2)
    res = check_regularity(p, k_max=10)
    assert res.ok
    assert res.violations == ()


def test_regularity_unit_parameters_false():
    p = derive_params([1, 1], n=2)
    res = check_regularity(p)
    assert not res.ok
    # t = 1 is a root of unity: the s = s' scan reports it
    assert any(s == sp for s, sp, _ in res.violations)


def test_regularity_constructed_violation():
    # t_0 = t^2 forces t_{-1}^(-1) t_0 = t^2
    t = 1.5 + 0.2j
    q0 = t ** 2
    q1 = t / q0
    res = check_regularity(derive_params([q0, q1], n=2))
    assert not res.ok
    assert (-1, 0, 2) in res.violations


def test_regularity_near_unit_modulus_flagged():
    p = derive_params([np.exp(0.4j), np.exp(-0.1j)], n=2)
    res = check_regularity(p)
    assert res.unverifiable_beyond_k_max


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(0, 1, 1)
    with pytest.raises(ValueError):
        ModelSpec(2, 2, -1)
