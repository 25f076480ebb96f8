"""Acceptance suite: the numbered verification criteria at desk scale.

Each test prints one pass/fail line for its criterion.  Tolerances are pinned
here; scales multiply only where the criterion is stated relative to the
magnitude of the data.
"""

import numpy as np

from spinquiver import (FlowSpec, ModelSpec, PointEngine, cy2_rank,
                        cycle_power_sum, derive_params, family_gradients, family_poly,
                        family_value, flow_T, flow_Y, flow_Z, independence_rank,
                        moment_residual, ode_oracle, point_from_coordinates,
                        power_trace_gradients, qu_gradients, random_coordinates,
                        random_point, reduced_G, reduced_H, reduced_quadruple,
                        spect_residual, spectral_coeffs, spin_trace_word,
                        quadruple_from_coordinates, reduced_poly, lambda_gauge,
                        trY2_closed_form, trZ2_closed_form, dual_point)
from spinquiver.brackets import double_bracket, ordering_sign
from spinquiver.errors import IllConditioned
from spinquiver.families import big_C_constant, big_K_constant
from spinquiver.flows import closed_form_flow
from spinquiver.reduction import iota_word
from spinquiver.tadpole import chain_bracket, closed_form_fg_bracket, g_value
from spinquiver.words import WordSum, cprime_word_terms, u_power_word

from conftest import Q_SETS, make_point, make_setup, tame_point


def emit(criterion, description, value, tol):
    ok = value <= tol
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}: "
          f"{value:.3e} <= {tol:.1e}")
    assert ok, f"criterion {criterion}: {value:.3e} > {tol:.1e}"


def test_criterion_01_moment_soundness():
    cells = [(m, d, n) for m in (1, 2, 3) for d in (1, 2, 3) for n in (2, 3, 4)]
    cells += [(4, 2, n) for n in (2, 3, 4)]
    worst = 0.0
    count = 0
    for (m, d, n) in cells:
        spec = ModelSpec(m, d, n)
        params = derive_params(Q_SETS[m], n=n)
        for seed in (1, 2, 3):
            point = random_point(spec, params, seed)
            count += 1
            rel = max(moment_residual(point, params)) / max(1.0, point.norm_scale())
            worst = max(worst, rel)
    assert count == 90
    emit(1, f"moment residuals on {count} constructed points", worst, 1e-10)


def test_criterion_02_quasi_hamiltonian_property():
    worst = 0.0
    cases = [(1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 1, 3), (2, 3, 2),
             (3, 2, 2), (3, 1, 2), (2, 2, 3), (1, 3, 2), (3, 3, 2)]
    for seed, (m, d, n) in enumerate(cases, start=1):
        point, spec, params = make_point(m, d, n, seed)
        eng = PointEngine(point, params)
        gens = ([("x", s) for s in range(m)] + [("y", s) for s in range(m)]
                + [("v", a) for a in range(1, d + 1)]
                + [("w", a) for a in range(1, d + 1)])
        scale = max(1.0, point.norm_scale() ** 3)
        for s in list(range(m)) + [m]:
            for g in gens:
                worst = max(worst, eng.moment_property_residual(s, g) / scale)
    emit(2, "multiplicative moment identity over 10 points", worst, 1e-9)


def _tensor(eng, terms):
    T = np.zeros((eng.N,) * 4, dtype=complex)
    for c, L, R in terms:
        T += c * np.multiply.outer(eng.eval_word(L), eng.eval_word(R))
    return T


def test_criterion_03_spin_bracket_identities():
    worst_tensor = 0.0
    worst_trace = 0.0
    cases = [(1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3),
             (1, 3, 2), (3, 3, 2), (2, 3, 3), (1, 2, 3), (3, 2, 3)]
    for seed, (m, d, n) in enumerate(cases, start=2):
        point, spec, params = make_point(m, d, n, seed)
        eng = PointEngine(point, params)
        scale = max(1.0, point.norm_scale() ** (2 * m + 4))
        for alpha in range(1, d + 1):
            cw = cprime_word_terms(alpha, m)
            lhs = np.zeros((eng.N,) * 4, dtype=complex)
            for s in range(m):
                for c, w in cw:
                    lhs += c * _tensor(eng, double_bracket(m, (("x", s),), w))
            rhs = np.zeros_like(lhs)
            for c, w in cw:
                rhs += 0.5 * c * np.multiply.outer(
                    eng.eval_word(w + (("x", m - 1),)), eng.eval_letter(("e", m - 1)))
                rhs += 0.5 * c * np.multiply.outer(
                    eng.eval_word(w), eng.eval_letter(("x", (m - 2) % m)))
            worst_tensor = max(worst_tensor, np.abs(lhs - rhs).max() / scale)
            for beta in range(1, d + 1):
                lhs = np.zeros_like(rhs)
                for c, w in cprime_word_terms(beta, m):
                    lhs += c * _tensor(eng, double_bracket(m, (("w", alpha),), w))
                o = ordering_sign(alpha, beta)
                delta = 1.0 if alpha == beta else 0.0
                Einf = eng.eval_letter(("e", m))

                def ac(a_, b_):
                    return sum(c * eng.eval_word((("w", a_),) + w)
                               for c, w in cprime_word_terms(b_, m))
                rhs2 = 0.5 * (o - delta) * np.multiply.outer(Einf, ac(alpha, beta))
                rhs2 = rhs2 - delta * np.multiply.outer(Einf, eng.eval_letter(("z", m - 1)))
                for lam in range(1, beta):
                    rhs2 = rhs2 - delta * np.multiply.outer(Einf, ac(lam, lam))
                ca = sum(c * eng.eval_word(w + (("w", alpha),))
                         for c, w in cprime_word_terms(beta, m))
                rhs2 = rhs2 - 0.5 * np.multiply.outer(ca, eng.eval_letter(("e", 0)))
                worst_tensor = max(worst_tensor, np.abs(lhs - rhs2).max() / scale)
                # c'-c' identity
                lhs = np.zeros_like(rhs)
                for c1, wa in cprime_word_terms(alpha, m):
                    for c2, wb in cprime_word_terms(beta, m):
                        lhs += c1 * c2 * _tensor(eng, double_bracket(m, wa, wb))
                Ca = sum(c * eng.eval_word(w) for c, w in cprime_word_terms(alpha, m))
                Cb = sum(c * eng.eval_word(w) for c, w in cprime_word_terms(beta, m))
                rhs3 = 0.5 * o * (np.multiply.outer(Cb, Ca) - np.multiply.outer(Ca, Cb))
                worst_tensor = max(worst_tensor, np.abs(lhs - rhs3).max() / scale)
        # trace identity {tr x^k, tr a'c'x^l} = k tr(a'c'x^(k+l))
        k, l = m, m + 1
        xk = cycle_power_sum("x", k, m)
        for alpha in range(1, d + 1):
            for beta in range(1, d + 1):
                lhs = eng.trace_bracket_value(xk, spin_trace_word(alpha, beta, l, m))
                rhs = k * eng.trace_wordsum(spin_trace_word(alpha, beta, k + l, m))
                worst_trace = max(worst_trace, abs(lhs - rhs) / scale)
    emit(3, "spin double-bracket identities (biderivation entries)", worst_tensor, 1e-9)
    emit(3, "position-spin trace bracket identity", worst_trace, 1e-9)


def test_criterion_04_involutivity():
    rng = np.random.Generator(np.random.Philox(99))
    cells = [(1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)]
    worst = 0.0
    for (m, d, n) in cells:
        spec = ModelSpec(m, d, n)
        params = derive_params(Q_SETS[m], n=n)
        for seed in range(1, 6):
            point = random_point(spec, params, seed)
            eng = PointEngine(point, params)
            etas = tuple(complex(a, b) for a, b in rng.standard_normal((2, 2)))
            for fam in (1, 2, 3, 4):
                js = list(range(m, n * m + 1, m)) if fam != 2 else list(range(1, n + 1))
                members = [(j, e) for j in js for e in etas]
                grads = {me: family_gradients(eng, fam, me[0], me[1]) for me in members}
                for i, m1 in enumerate(members):
                    for m2 in members[i + 1:]:
                        val, mass = eng.bracket_gradients(grads[m1], grads[m2],
                                                          with_mass=True)
                        worst = max(worst, abs(val) / max(1.0, mass))
    emit(4, "pairwise family brackets, relative to term mass", worst, 1e-8)


def test_criterion_04b_mixed_parameter_word_route():
    # spectral-parameter involutivity exercised through the word builders
    from spinquiver.families import family_word_sum
    point, spec, params = make_point(2, 2, 2, seed=12)
    eng = PointEngine(point, params)
    m = spec.m
    scale = max(1.0, point.norm_scale() ** 10)
    worst = 0.0
    for fam in (3, 4):
        w1 = family_word_sum(fam, m, 0.3 + 0.1j, m)
        w2 = family_word_sum(fam, m, -0.2 + 0.4j, m)
        worst = max(worst, abs(eng.trace_bracket_value(w1, w2)) / scale)
    emit(4, "mixed-parameter involutivity via family words", worst, 1e-8)


def test_criterion_05_reduced_closed_forms():
    worst_match = 0.0
    worst_coeff = 0.0
    for (m, d, n, seed) in ((2, 2, 2, 3), (2, 2, 3, 5), (3, 2, 2, 7)):
        point, spec, params = make_point(m, d, n, seed)
        quad = reduced_quadruple(point, params)
        eta = 0.23 - 0.41j
        for j in (1, 2):
            lhs = family_value(point, 4, j * m, eta)
            rhs = m * big_K_constant(params, eta) ** j \
                * reduced_G(quad, params, j, params.q[0] * eta / params.t)
            worst_match = max(worst_match, abs(lhs - rhs) / max(1.0, abs(lhs)))
            lhs = family_value(point, 3, j * m, eta)
            rhs = m * big_C_constant(params, eta) ** j * reduced_H(quad, params, j, eta)
            worst_match = max(worst_match, abs(lhs - rhs) / max(1.0, abs(lhs)))
            gp = reduced_poly("G", quad, params, j)
            scale = max(1.0, max(abs(c) for c in gp.coeffs))
            worst_coeff = max(worst_coeff, abs(gp.coeffs[j] - gp.coeffs[0]) / scale)
        for fam, j in ((2, 2), (3, 2 * m)):
            poly = family_poly(point, fam, j)
            scale = max(1.0, max(abs(c) for c in poly.coeffs))
            worst_coeff = max(worst_coeff, abs(poly.coeffs[0] - poly.coeffs[-1]) / scale)
    emit(5, "family values vs reduced G/H closed forms (relative)", worst_match, 1e-8)
    emit(5, "eta-coefficient redundancies", worst_coeff, 1e-9)


def test_criterion_06_independence_counts():
    pairs = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]
    mismatches = 0
    total = 0
    worst_gamma = 0.0
    for m in (2, 3):
        for (n, d) in pairs:
            spec = ModelSpec(m, d, n)
            params = derive_params(Q_SETS[m], n=n)
            expected = n * d - d * (d - 1) // 2
            used = 0
            seed = 0
            while used < 3 and seed < 40:
                seed += 1
                coords = random_coordinates(spec, params, seed=seed)
                try:
                    rank_G, _ = independence_rank(coords, "G", params)
                    rank_H, _ = independence_rank(coords, "H", params)
                except IllConditioned:
                    continue
                used += 1
                total += 1
                if rank_G != expected or rank_H != expected:
                    mismatches += 1
                if d < n:
                    sc = spectral_coeffs(quadruple_from_coordinates(coords, params), params)
                    worst_gamma = max(worst_gamma, sc.eta_block_max(d + 1) / sc.scale())
            assert used == 3, f"not enough usable draws for m={m} (n,d)=({n},{d})"
    emit(6, f"rank mismatches over {total} rank computations", float(mismatches), 0.0)
    # eta-degree <= d holds by construction (rank T <= d and the matrix
    # determinant lemma), so this line measures interpolation roundoff
    emit(6, "spectral-curve coefficients past eta-degree d, zero by construction "
            "(interpolation roundoff, relative)", worst_gamma, 1e-7)


def test_criterion_07_flows():
    point, spec, params = tame_point(2, 2, 2, seed=3, q=[1.1 + 0.1j, 0.8 - 0.2j])
    m = spec.m

    def dist(p1, p2):
        return max(max(np.linalg.norm(a - b) for a, b in zip(p1.X, p2.X)),
                   max(np.linalg.norm(a - b) for a, b in zip(p1.Y, p2.Y)))

    # exact conservation of the generator data
    exact = 0.0
    pz = flow_Z(point, m, 0.3 + 0.1j)
    exact = max(exact, 0.0 if all(np.array_equal(a, b) for a, b in zip(pz.Z, point.Z))
                else 1.0)
    py = flow_Y(point, m, 0.2)
    exact = max(exact, 0.0 if all(np.array_equal(a, b) for a, b in zip(py.Y, point.Y))
                else 1.0)
    pt = flow_T(point, 1, 0.2)
    T0 = [np.eye(spec.n) + point.X[s] @ point.Y[s] for s in range(m)]
    T1 = [np.eye(spec.n) + pt.X[s] @ pt.Y[s] for s in range(m)]
    exact = max(exact, max(np.linalg.norm(a - b) for a, b in zip(T0, T1)))
    emit(7, "flow generators conserved (exact copies)", exact, 1e-13)

    worst_order = 4.0
    for ham, k in (("trZ", m), ("trY", m), ("trT", 1)):
        errs = []
        for steps in (10, 20, 40):   # h = 1e-1, 5e-2, 2.5e-2
            fs = FlowSpec(hamiltonian=ham, k=k, time=1.0, eta=0.0, steps=steps)
            errs.append(dist(ode_oracle(point, fs, params).endpoint,
                             closed_form_flow(point, fs)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        worst_order = min(worst_order, min(orders))
    emit(7, "observed oracle convergence order (>= 3.7)", 3.7 - worst_order, 0.0)

    worst_drift = 0.0
    eta = 0.31 - 0.17j
    for ham, fam, k, steps in (("trZ", 4, m, 600), ("trY", 3, m, 1000), ("trT", 2, 1, 600)):
        fs = FlowSpec(hamiltonian=ham, k=k, time=1.0, eta=eta, steps=steps)
        traj = ode_oracle(point, fs, params)
        js = [m, 2 * m] if fam != 2 else [1, 2]
        for j in js:
            for e2 in (eta, 0.11 + 0.23j):
                series = [family_value(p, fam, j, e2) for p in traj.points]
                drift = max(abs(v - series[0]) for v in series) / max(1.0, abs(series[0]))
                worst_drift = max(worst_drift, drift)
    emit(7, "same-family drift along unit-time oracle trajectories", worst_drift, 1e-7)


def test_criterion_08_psi_is_poisson():
    spec, params = make_setup(2, 2, 2)
    m, t = spec.m, params.t
    coords = random_coordinates(spec, params, seed=12)
    quad = quadruple_from_coordinates(coords, params)
    point = point_from_coordinates(coords, params, spec)
    eng = PointEngine(point, params)

    def make_g(k, a_, b_):
        def fn(co):
            return g_value(quadruple_from_coordinates(co, params), k, a_, b_)
        return fn

    worst_chain = 0.0
    worst_engine = 0.0
    for (k0, l0, al, be, ga, ep) in ((1, 1, 1, 2, 2, 1), (1, 1, 2, 2, 1, 1),
                                     (1, 2, 1, 1, 2, 2)):
        closed = closed_form_fg_bracket(quad, "gg", k0, l0, alpha=al, beta=be,
                                        gamma=ga, eps=ep)
        chain = chain_bracket(coords, params, make_g(k0, ga, ep), make_g(l0, al, be))
        engine = eng.trace_bracket_value(spin_trace_word(ga, ep, k0 * m + 1, m),
                                         spin_trace_word(al, be, l0 * m + 1, m)) / t ** 2
        scale = max(1.0, abs(closed))
        worst_chain = max(worst_chain, abs(closed - chain) / scale)
        worst_engine = max(worst_engine, abs(closed - engine) / scale)
    closed = closed_form_fg_bracket(quad, "fg", 1, 1, alpha=1, beta=2)
    chain = chain_bracket(coords, params, lambda co: np.sum(co.x), make_g(1, 1, 2))
    engine = eng.trace_bracket_value(cycle_power_sum("x", m, m),
                                     spin_trace_word(1, 2, m + 1, m)) / (m * t)
    scale = max(1.0, abs(closed))
    worst_chain = max(worst_chain, abs(closed - chain) / scale)
    worst_engine = max(worst_engine, abs(closed - engine) / scale)
    emit(8, "closed forms vs chart chain rule (FD-limited)", worst_chain, 1e-6)
    emit(8, "closed forms vs bracket engine", worst_engine, 1e-8)


def test_criterion_09_two_spin_integrability():
    worst = 0.0
    ranks_ok = True
    for (m, n, seed) in ((2, 2, 3), (2, 3, 5)):
        point, spec, params = make_point(m, 2, n, seed)
        eng = PointEngine(point, params)
        for U in ("x", "y", "z", "t"):
            grads = []
            for j in range(1, n + 1):
                K = j * m if U in ("x", "y", "z") else j
                grads.append(power_trace_gradients(point, U, K, engine=eng))
                grads.append(qu_gradients(point, 1, 1, j, U, engine=eng))
            for i, g1 in enumerate(grads):
                for g2 in grads[i + 1:]:
                    val, mass = eng.bracket_gradients(g1, g2, with_mass=True)
                    worst = max(worst, abs(val) / max(1.0, mass))
            rank, _ = cy2_rank(point, U, engine=eng)
            ranks_ok = ranks_ok and (rank == 2 * n)
    emit(9, "pairwise involution of the 2n-function families", worst, 1e-8)
    emit(9, "rank defect of the 2n-function families", 0.0 if ranks_ok else 1.0, 0.0)


def test_criterion_10_duality():
    worst_swap = 0.0
    worst_anti = 0.0
    worst_invol = 0.0
    for (m, seed) in ((2, 4), (3, 4)):
        point, spec, params = make_point(m, 2, 2, seed)
        dp = dual_point(point, params)
        pr = dp.as_rep_point()
        scale = max(1.0, point.norm_scale() ** (2 * m))
        for j in (m, 2 * m):
            for eta in (0.37 - 0.21j, 0.05 + 0.6j):
                worst_swap = max(worst_swap, abs(
                    family_value(pr, 4, j, eta) - family_value(point, 1, j, eta)) / scale)
        eng = PointEngine(point, params)
        engd = PointEngine(pr, dp.params)
        pool = []
        for k in (m, 2 * m):
            pool.append(WordSum(tuple((1.0, u_power_word("x", k, m, s)) for s in range(m))))
            pool.append(WordSum(tuple((1.0, u_power_word("z", k, m, s)) for s in range(m))))
        pool.append(WordSum(tuple((1.0, u_power_word("z", m, m, s) + u_power_word("x", m, m, s))
                                  for s in range(m))))
        wscale = max(1.0, point.norm_scale() ** (4 * m + 2))
        pairs = 0
        for i, w1 in enumerate(pool):
            for w2 in pool[i:]:
                lhs = engd.trace_bracket_value(w1, w2)
                w1i = WordSum(tuple((c, iota_word(w, m)) for c, w in w1))
                w2i = WordSum(tuple((c, iota_word(w, m)) for c, w in w2))
                rhs = eng.trace_bracket_value(w1i, w2i)
                worst_anti = max(worst_anti, abs(lhs + rhs) / wscale)
                pairs += 1
        assert pairs >= 10
        again = dual_point(pr, dp.params)
        worst_invol = max(worst_invol, max(
            np.linalg.norm(a - b) for a, b in zip(again.X, point.X)) / scale)
    emit(10, "family-1/family-4 swap residual", worst_swap, 1e-8)
    emit(10, "anti-Poisson sign on invariant-word pairs", worst_anti, 1e-8)
    emit(10, "duality squared vs identity", worst_invol, 1e-9)


def test_criterion_11_lambda_gauge_closed_forms():
    worst = 0.0
    g0, g1 = 0.21 + 0.05j, 0.33 - 0.11j
    params = derive_params([np.exp(-2 * g0), np.exp(-2 * g1)], n=3)
    spec = ModelSpec(2, 2, 3)
    for seed in range(1, 11):
        coords = random_coordinates(spec, params, seed=seed)
        point = point_from_coordinates(coords, params, spec)
        out = lambda_gauge(point, params)
        lam = np.diag(out.X[0])
        f = coords.f_matrix()
        trZ2 = 2 * np.trace(out.Z[0] @ out.Z[1])
        trY2 = 2 * np.trace(out.Y[0] @ out.Y[1])
        scale = max(1.0, abs(trZ2), abs(trY2))
        worst = max(worst, abs(trZ2_closed_form(lam, f, g0, g1) - trZ2) / scale)
        worst = max(worst, abs(trY2_closed_form(lam, f, g0, g1) - trY2) / scale)
    emit(11, "m=2 closed forms for tr Z^2 and tr Y^2 on 10 points", worst, 1e-8)


def test_criterion_12_degenerate_integrability():
    worst_spect = 0.0
    worst_center = 0.0
    for (m, d, n, seed) in ((2, 2, 2, 3), (2, 2, 3, 5), (3, 2, 2, 7), (2, 3, 2, 9)):
        point, spec, params = make_point(m, d, n, seed)
        eng = PointEngine(point, params)
        scale = max(1.0, point.norm_scale() ** (2 * m + 2))
        for U in ("z", "y"):
            worst_spect = max(worst_spect, spect_residual(point, params, U) / scale)
            for k in (1, 2):
                gk = power_trace_gradients(point, U, k * m, engine=eng)
                for l in (0, 1):
                    for a in range(1, d + 1):
                        for b in range(1, d + 1):
                            gl = qu_gradients(point, a, b, l, U, engine=eng)
                            val, mass = eng.bracket_gradients(gk, gl, with_mass=True)
                            worst_center = max(worst_center, abs(val) / max(1.0, mass))
    emit(12, "spectral conjugation identity residual on-shell", worst_spect, 1e-9)
    emit(12, "centre property of the power traces", worst_center, 1e-8)
