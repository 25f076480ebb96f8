import numpy as np
import pytest

from spinquiver import (LocalCoordinates, ModelSpec, derive_params,
                        point_from_coordinates, random_coordinates, random_point)
from spinquiver import flows
from spinquiver.cyclic import CycleMatrix
from spinquiver.engine import _as_wordsum
from spinquiver.errors import SingularFactor
from spinquiver.points import RepPoint
from spinquiver.words import letter_tail_head

# fixed generic deformation parameters per cycle length, regular by construction
Q_SETS = {
    1: [1.7 + 0.3j],
    2: [1.3 + 0.2j, 0.7 - 0.4j],
    3: [1.3 + 0.2j, 0.7 - 0.4j, 0.9 + 0.5j],
    4: [1.2 + 0.2j, 0.8 - 0.3j, 1.1 + 0.4j, 0.9 - 0.1j],
}


def make_setup(m, d, n):
    spec = ModelSpec(m=m, d=d, n=n)
    params = derive_params(Q_SETS[m], n=n)
    return spec, params


def make_point(m, d, n, seed):
    spec, params = make_setup(m, d, n)
    return random_point(spec, params, seed), spec, params


def tame_point(m, d, n, seed, c_scale=0.15, q=None):
    """Point with small spin magnitudes so flow dynamics stay bounded."""
    spec = ModelSpec(m=m, d=d, n=n)
    params = derive_params(q if q is not None else Q_SETS[m], n=n)
    coords = random_coordinates(spec, params, seed)
    coords = LocalCoordinates.make(coords.x, coords.a, c_scale * coords.c)
    return point_from_coordinates(coords, params, spec), spec, params


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240817))


# -- dense reference for cyclic.CycleMatrix: whole m n x m n cycle matrices ------

def dense_cycle(deg, blocks):
    """The m n x m n matrix with blocks[s] from vertex s to vertex s + deg."""
    m, n = len(blocks), blocks[0].shape[0]
    out = np.zeros((m * n, m * n), dtype=complex)
    for s in range(m):
        head = (s + deg) % m
        out[s * n:(s + 1) * n, head * n:(head + 1) * n] = blocks[s]
    return out


def dense_cycle_blocks(deg, total, m):
    """The m blocks from vertex s to vertex s + deg of an m n x m n matrix; inverts dense_cycle."""
    n = total.shape[0] // m
    return [total[s * n:(s + 1) * n, (s + deg) % m * n:((s + deg) % m + 1) * n]
            for s in range(m)]


def cycle_total(kind, blocks):
    """The m n x m n cycle matrix holding block s where the letter (kind, s) sits."""
    m, n = len(blocks), blocks[0].shape[0]
    out = np.zeros((m * n, m * n), dtype=complex)
    for s, mat in enumerate(blocks):
        tail, head = letter_tail_head((kind, s), m)
        out[tail * n:(tail + 1) * n, head * n:(head + 1) * n] = mat
    return out


def cycle_blocks(kind, total, m):
    """The m blocks of a cycle matrix where the letters (kind, s) sit; inverts cycle_total."""
    n = total.shape[0] // m
    out = []
    for s in range(m):
        tail, head = letter_tail_head((kind, s), m)
        out.append(total[tail * n:(tail + 1) * n, head * n:(head + 1) * n])
    return out


# -- reference for PointEngine.bracket_gradients: the per-term loop -------------

def bracket_gradients_loop(eng, gradF, gradG):
    """(value, mass) of the gradient contraction, one term at a time in key order."""
    total, mass = 0j, 0.0
    for a, Da in gradF.items():
        for b, Db in gradG.items():
            for c, L, R in eng._pair_terms(a, b):
                term = c * np.trace(Da @ L.T @ Db @ R.T)
                total += term
                mass += abs(term)
    return complex(total), float(mass)


# -- reference for PointEngine.trace_bracket_value: the per-term word loop ------

def trace_bracket_words_loop(eng, w1, w2):
    """(value, mass) of {tr w1, tr w2}, one Leibniz term at a time.

    For each pair of closed words and each pair of their letters (a at i in
    word 1, b at j in word 2), every table term c L (x) R of {{a, b}} adds
    c tr(prefix2_j . L . rest1_i . R . suffix2_j), rest1_i being word 1 read
    from after i round to before i.
    """
    total, mass = 0j, 0.0
    for c1, a in _as_wordsum(w1):
        rests1 = eng._rests(a)
        for c2, b in _as_wordsum(w2):
            parts2 = eng._partials(b)
            if rests1 is None or parts2 is None or parts2[0][0] != parts2[0][1]:
                continue
            _, pre2, suf2 = parts2
            for ai, rest1 in zip(a, rests1):
                for j, bj in enumerate(b):
                    for c, L, R in eng._pair_terms(ai, bj):
                        term = c1 * c2 * c * np.trace(pre2[j] @ L @ rest1 @ R @ suf2[j + 1])
                        total += term
                        mass += abs(term)
    return complex(total), float(mass)



# -- reference for flows.ode_oracle: the per-stage CycleMatrix RK4 loop ----------

def ode_oracle_loop(point, flow, field, samples=10):
    """The oracle's trajectory, field(X, M, k, eta) -> (dX, dM) evaluated on CycleMatrix states.

    Raises SingularFactor with the partial trajectory attached, with the
    messages of flows.ode_oracle, and at the same steps.
    """
    spec = point.spec
    X = CycleMatrix.of_letters("x", point.X)
    if flow.hamiltonian == "trZ":
        state = (X, CycleMatrix.of_letters("z", point.Z))
        rebuild = lambda X, M: flows._point_with_XZ(point, X.letters("x"), M.letters("z"))
    elif flow.hamiltonian == "trY":
        state = (X, CycleMatrix.of_letters("y", point.Y))
        rebuild = lambda X, M: RepPoint.make(spec, X.letters("x"), M.letters("y"),
                                             point.V, point.W)
    else:
        state = (X, 1 + X @ CycleMatrix.of_letters("y", point.Y))
        rebuild = lambda X, M: flows._point_with_XT(point, X.letters("x"), M.blocks)
    vf = lambda X, M: field(X, M, flow.k, flow.eta)

    h = flow.time / flow.steps
    stride = max(1, flow.steps // samples)
    traj = flows.Trajectory()
    traj.append(0.0, point)
    X, M = state
    for step in range(1, flow.steps + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                k1 = vf(X, M)
                k2 = vf(X + 0.5 * h * k1[0], M + 0.5 * h * k1[1])
                k3 = vf(X + 0.5 * h * k2[0], M + 0.5 * h * k2[1])
                k4 = vf(X + h * k3[0], M + h * k3[1])
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            raise SingularFactor(f"oracle singular at step {step}", traj) from exc
        X = X + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        M = M + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if step % stride == 0 or step == flow.steps:
            try:
                sample = rebuild(X, M)
            except (np.linalg.LinAlgError, SingularFactor) as exc:
                raise SingularFactor(f"oracle state has a singular X block at step {step}",
                                     traj) from exc
            traj.append(step * h, sample)
    return traj
