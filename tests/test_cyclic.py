"""CycleMatrix against whole m n x m n cycle matrices, for m = 1..4 and every degree."""

import numpy as np
import pytest

from spinquiver.cyclic import CycleMatrix
from spinquiver.flows import expm

from conftest import cycle_blocks, cycle_total, dense_cycle, dense_cycle_blocks

N = 3
CASES = [(m, deg) for m in (1, 2, 3, 4) for deg in range(m)]


def _random(rng, m, deg):
    blocks = rng.standard_normal((m, N, N)) + 1j * rng.standard_normal((m, N, N))
    return CycleMatrix(deg, blocks)


def _dense(a):
    return dense_cycle(a.deg, a.blocks)


def _close(a, want):
    """a equals the dense matrix want to roundoff of want's largest entry."""
    return np.max(np.abs(_dense(a) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m,deg", CASES, ids=lambda v: str(v))
def test_products_match_dense(rng, m, deg):
    a = _random(rng, m, deg)
    for other in range(m):
        b = _random(rng, m, other)
        prod = a @ b
        assert prod.deg == (deg + other) % m
        assert _close(prod, _dense(a) @ _dense(b))


@pytest.mark.parametrize("m,deg", CASES, ids=lambda v: str(v))
def test_linear_operations_match_dense(rng, m, deg):
    a, b = _random(rng, m, deg), _random(rng, m, deg)
    eta = 0.3 - 0.7j
    assert np.array_equal(_dense(a + b), _dense(a) + _dense(b))
    assert np.array_equal(_dense(a - b), _dense(a) - _dense(b))
    assert np.array_equal(_dense(-a), -_dense(a))
    assert np.array_equal(_dense(eta * a), eta * _dense(a))
    assert np.array_equal(_dense(np.complex128(eta) * a), eta * _dense(a))
    assert np.array_equal(_dense(a * 2), 2 * _dense(a))
    if deg == 0:
        assert np.array_equal(_dense(1 + a), np.eye(m * N) + _dense(a))
    else:
        with pytest.raises(ValueError):
            1 + a
        with pytest.raises(ValueError):
            a + _random(rng, m, deg - 1)


@pytest.mark.parametrize("m,deg", CASES, ids=lambda v: str(v))
def test_inverse_power_and_trace_match_dense(rng, m, deg):
    a = _random(rng, m, deg)
    inverse = a.inv()
    assert inverse.deg == -deg % m
    want = np.linalg.inv(_dense(a))
    assert np.max(np.abs(_dense(inverse) - want)) <= 1e-10 * np.max(np.abs(want))
    for k in range(0, 2 * m + 2):
        power = a.power(k)
        assert power.deg == deg * k % m
        assert _close(power, np.linalg.matrix_power(_dense(a), k))
        trace = np.trace(np.linalg.matrix_power(_dense(a), k))
        assert abs(power.trace() - trace) <= 1e-13 * max(1.0, np.max(np.abs(_dense(power))))
        if power.deg:
            assert power.trace() == 0
    with pytest.raises(ValueError):
        a.power(-1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_map_is_blockwise_on_degree_zero(rng, m):
    a = _random(rng, m, 0)
    mapped = a.map(expm)
    dense = _dense(a)
    for s, block in enumerate(dense_cycle_blocks(0, dense, m)):
        assert np.array_equal(mapped.blocks[s], expm(block))


@pytest.mark.parametrize("m,deg", CASES, ids=lambda v: str(v))
def test_blocks_read_where_the_dense_matrix_holds_them(rng, m, deg):
    a = _random(rng, m, deg)
    dense = _dense(a)
    for tail in range(m):
        for head in range(m):
            block = a.block(tail, head)
            want = dense[tail * N:(tail + 1) * N, head * N:(head + 1) * N]
            if block is None:
                assert not np.any(want)
            else:
                assert np.array_equal(block, want)


@pytest.mark.parametrize("kind", ["x", "y", "z", "e"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_letters_sit_where_the_dense_total_puts_them(rng, m, kind):
    blocks = list(rng.standard_normal((m, N, N)) + 1j * rng.standard_normal((m, N, N)))
    a = CycleMatrix.of_letters(kind, blocks)
    total = cycle_total(kind, blocks)
    assert np.array_equal(a.dense(), total)
    assert np.array_equal(_dense(a), total)
    assert all(np.array_equal(got, want)
               for got, want in zip(a.letters(kind), cycle_blocks(kind, total, m)))
