import numpy as np
import pytest

from spinquiver import (LocalCoordinates, ModelSpec, derive_params,
                        point_from_coordinates, random_coordinates, random_point)
from spinquiver import flows
from spinquiver.families import (_pencil_links, _pencil_matrix, _pencil_powers,
                                 _reduced_pencil, index_set)
from spinquiver.cyclic import CycleMatrix
from spinquiver.engine import _as_wordsum
from spinquiver.errors import Degenerate, SingularFactor, SingularX
from spinquiver.points import (ReducedQuadruple, _readonly, cycle_matrix, gauge_act,
                               point_with_cycle, quadruple_from_coordinates, spin_data)
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


# -- reference for points.reduced_quadruple: gauge the whole point ---------------

def reduced_quadruple_by_gauge(point, params, check_tol=1e-9):
    """The quadruple read off the point gauged by g_0 = Id, g_{s+1} = g_s X_s."""
    spec = point.spec
    m, n = spec.m, spec.n
    if point.Z is None:
        raise SingularX("point has a singular X_s")
    g = [np.eye(n, dtype=complex)]
    for s in range(m - 1):
        g.append(g[s] @ point.X[s])
    normalized = gauge_act(g, point)
    A = normalized.X[m - 1]
    # X_0 Z_0 = t_0 B on-shell; the normalized frame has X_0 = Id when m >= 2,
    # while the Jordan case keeps X_0 = A
    B = normalized.X[0] @ normalized.require_Z()[0] / params.q[0]
    spins = spin_data(normalized, params)
    bigA = A @ spins.Am
    bigC = np.array(spins.Cm)

    Ainv = np.linalg.inv(A)
    lhs = params.q[0] * B @ Ainv
    rhs = params.q[0] * params.t * (Ainv @ B + Ainv @ bigA @ bigC)
    scale = max(1.0, np.linalg.norm(lhs))
    if np.linalg.norm(lhs - rhs) > check_tol * scale:
        raise Degenerate("reduced quadruple fails the commutation identity")
    return ReducedQuadruple(A=_readonly(A), B=_readonly(B),
                            bigA=_readonly(bigA), bigC=_readonly(bigC))


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


# -- the oracle's fields on CycleMatrix states, through flows' traced plans -------

def oracle_field(hamiltonian, X, M, k, eta):
    """(dX, dM) of one field on CycleMatrix states, evaluated through its plan.

    The blocks the plan names for the domain test go through
    flows._require_invertible, as the oracle's per-step test takes them, so
    a field raises LinAlgError wherever an inverse in the graded references
    would.
    """
    m, n = X.blocks.shape[:2]
    plan = flows._plan(hamiltonian, k, m, n, eta == 0)
    ws = plan.workspace(eta)
    ws[0][0], ws[0][1] = X.blocks, M.blocks
    out = np.empty((2, m, n, n), dtype=complex)
    tested = np.empty((len(plan.tested), m, n, n), dtype=complex)
    plan.run(ws, out, tested)
    if tested.size:
        flows._require_invertible(tested)
    return CycleMatrix(plan.degrees[0], out[0]), CycleMatrix(plan.degrees[1], out[1])


def vf_Z(X, Z, k, eta):
    return oracle_field("trZ", X, Z, k, eta)


def vf_Y(X, Y, k, eta):
    return oracle_field("trY", X, Y, k, eta)


def vf_T(X, U, k, eta):
    return oracle_field("trT", X, U, k, eta)


# -- reference for flows.ode_oracle: the per-stage CycleMatrix RK4 loop ----------

def ode_oracle_loop(point, flow, field, samples=10):
    """The oracle's trajectory, field(X, M, k, eta) -> (dX, dM) evaluated on CycleMatrix states.

    Raises SingularFactor with the partial trajectory attached, with the
    messages of flows.ode_oracle, and at the same steps.
    """
    kind = flows.HAMILTONIANS[flow.hamiltonian].kind
    vf = lambda X, M: field(X, M, flow.k, flow.eta)

    h = flow.time / flow.steps
    stride = max(1, flow.steps // samples)
    traj = flows.Trajectory()
    traj.append(0.0, point)
    X, M = cycle_matrix(point, "x"), cycle_matrix(point, kind)
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
                sample = point_with_cycle(point, X, M, kind)
            except (np.linalg.LinAlgError, SingularFactor) as exc:
                raise SingularFactor(f"oracle state has a singular X block at step {step}",
                                     traj) from exc
            traj.append(step * h, sample)
    return traj


# -- reference for families._grad_packed and coefficient_jacobian: one row at a time --

def grad_packed_per_row(coords, params, AdjB, AdjS, AdjAinvDiag):
    """One function's adjoints (n x n, n x n, n) pulled back to the packed free coordinates."""
    t = params.t
    n, d = coords.n, coords.d
    x = coords.x
    a, c = coords.a, coords.c
    f = coords.f_matrix()
    denom = x[:, None] - t * x[None, :]
    K = x[None, :] / denom
    tK = t * K

    # dF/df via both B = t f K and S = f
    Adjf = AdjB * tK + AdjS

    grad_x = np.zeros(n, dtype=complex)
    D2 = t * f / denom ** 2
    grad_x += np.array([np.sum(AdjB[:, k] * D2[:, k] * x) for k in range(n)])
    grad_x -= np.array([np.sum(AdjB[k, :] * D2[k, :] * x) for k in range(n)])
    grad_x += AdjAinvDiag * (-1.0 / x ** 2)

    grad_a = Adjf @ c.T          # shape (n, d): dF/da[k, alpha]
    grad_c = a.T @ Adjf          # shape (d, n): dF/dc[alpha, k]

    parts = [grad_x]
    if d > 1:
        # row-sum constraint: a[:, d-1] = 1 - sum of the free columns
        free = grad_a[:, :d - 1] - grad_a[:, d - 1][:, None]
        parts.append(free.reshape(-1))
    parts.append(grad_c.reshape(-1))
    return np.concatenate(parts)


def coefficient_jacobian_per_row(coords, family, params):
    """(values, Jacobian) of families.coefficient_jacobian, each row's adjoints pulled
    back on their own by grad_packed_per_row."""
    n, d = coords.n, coords.d
    pencil = _reduced_pencil(family, quadruple_from_coordinates(coords, params), params)
    powers = [[np.eye(n)]] + _pencil_powers(*map(_pencil_matrix, pencil), n)
    links = [_pencil_links(terms) for terms in pencil]
    pairs = index_set(n, d)
    values = np.array([powers[j][l].trace() for j, l in pairs], dtype=complex)
    jac = np.zeros((len(pairs), n + n * (d - 1) + n * d), dtype=complex)
    for row, (j, l) in enumerate(pairs):
        adj = {var: np.zeros((n, n), dtype=complex) for var in ("Ainv", "B", "S")}
        for side in range(2 if l else 1):    # the dM1 term needs l >= 1
            Q = j * powers[j - 1][l - side]
            for var, c, left, right in links[side]:
                adj[var] += c * (left @ Q @ right)
        jac[row] = grad_packed_per_row(coords, params, adj["B"].T, adj["S"].T,
                                       np.diag(adj["Ainv"]))
    return values, jac


# -- reference for families.coefficient_jacobian: root-of-unity interpolation -----

def reduced_adjoints_at(kind, coords, params, j, eta):
    """Value and adjoints (AdjB, AdjS, AdjAinvDiag) of one reduced family member at eta.

    Conventions: dF = sum_ij AdjB[i,j] dB[i,j] + sum_ij AdjS[i,j] dS[i,j]
    + sum_i AdjAinvDiag[i] d(1/x_i).
    """
    t = params.t
    m = params.m
    n = coords.n
    x = coords.x
    f = coords.f_matrix()
    denom = x[:, None] - t * x[None, :]
    B = t * f * (x[None, :] / denom)
    S = f
    Ainv = np.diag(1.0 / x)
    eye = np.eye(n)
    if kind == "G":
        core = (1.0 / t + eta) * B + eta * S
        Bm1 = np.linalg.matrix_power(B, m - 1)
        M = Ainv @ core @ Bm1
        P = j * np.linalg.matrix_power(M, j - 1)
        value = complex(np.trace(np.linalg.matrix_power(M, j)))
        QB = (1.0 / t + eta) * (Bm1 @ P @ Ainv)
        for p in range(m - 1):
            QB += (np.linalg.matrix_power(B, m - 2 - p) @ P @ Ainv @ core
                   @ np.linalg.matrix_power(B, p))
        QS = eta * (Bm1 @ P @ Ainv)
        QAi = core @ Bm1 @ P
        return value, QB.T, QS.T, np.diag(QAi.T)
    q0 = params.q[0]
    Binv = np.linalg.inv(B)
    factors = [B - eye / params.t_at(s) for s in range(m)]
    PB = eye.copy()
    for s in range(m - 1, -1, -1):
        PB = PB @ factors[s]
    Lfac = (1.0 + eta * q0) * eye + eta * q0 * (S @ Binv)
    M = Lfac @ PB @ Ainv
    P = j * np.linalg.matrix_power(M, j - 1)
    value = complex(np.trace(np.linalg.matrix_power(M, j)))
    QS = eta * q0 * (Binv @ PB @ Ainv @ P)
    QB = -eta * q0 * (Binv @ PB @ Ainv @ P @ S @ Binv)
    # product rule over the commuting factors (B - t_s^(-1))
    for s in range(m - 1, -1, -1):
        left = eye.copy()
        for sp in range(m - 1, s, -1):
            left = left @ factors[sp]
        right = eye.copy()
        for sp in range(s - 1, -1, -1):
            right = right @ factors[sp]
        QB += right @ Ainv @ P @ Lfac @ left
    QAi = P @ Lfac @ PB
    return value, QB.T, QS.T, np.diag(QAi.T)


def coefficient_jacobian_by_interpolation(coords, family, params):
    """(values, Jacobian) of the G or H coefficients from values and gradients at the
    (j+1)-st roots of unity, solved for the eta-coefficients by Vandermonde systems."""
    n, d = coords.n, coords.d
    n_complex = n + n * (d - 1) + n * d
    pairs = index_set(n, d)
    values = np.zeros(len(pairs), dtype=complex)
    jac = np.zeros((len(pairs), n_complex), dtype=complex)
    row = 0
    for j in range(1, n + 1):
        nodes = np.exp(2j * np.pi * np.arange(j + 1) / (j + 1))
        vander = np.vander(nodes, j + 1, increasing=True)
        vals = np.zeros(j + 1, dtype=complex)
        grads = np.zeros((j + 1, n_complex), dtype=complex)
        for r, eta in enumerate(nodes):
            value, AdjB, AdjS, AdjAi = reduced_adjoints_at(family, coords, params, j, eta)
            vals[r] = value
            grads[r] = grad_packed_per_row(coords, params, AdjB, AdjS, AdjAi)
        coeff_vals = np.linalg.solve(vander, vals)
        coeff_grads = np.linalg.solve(vander, grads)
        for l in range(0, min(j - 1, d) + 1):
            values[row] = coeff_vals[l]
            jac[row] = coeff_grads[l]
            row += 1
    return values, jac
