"""End-to-end acceptance checks.

Each test covers one published claim about the package at its stated
tolerance and prints a single PASS line (run with `pytest -s` to see
them; a failed assertion is the FAIL line). The heavier checks reuse
the shipped presets under presets/.
"""

import os
import time

import numpy as np
import pytest
from dataclasses import replace

from difflab.config import parse_config
from difflab.engine import AlgorithmSpec, gdtls_gradient, mtc_gradient
from difflab.harness import (
    _substitute,
    convergence_iteration,
    monte_carlo_msd,
    steady_state_estimate,
    theory_inputs,
    theory_vs_simulation,
)
from difflab.simulate import simulate_runs
from difflab.theory import (
    TheoryInputs,
    steady_state_msd,
    stepsize_upper_bound,
)
from difflab.topology import NetworkGraph, metropolis_weights
from reference import SharedSample, mtc_cost
from theory_reference import (
    gradient_covariance,
    hessian_at_optimum,
    mean_recursion_matrix,
    steady_state_msd_bruteforce,
)

PRESET_DIR = os.path.join(os.path.dirname(__file__), "..", "presets")


def preset(name):
    return parse_config(os.path.join(PRESET_DIR, name))


def report(num, detail):
    print(f"\ncriterion {num}: PASS ({detail})")


def window_db(curve, lo, hi):
    return 10.0 * np.log10(curve.msd_linear[lo:hi].mean())


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    step = 1e-6
    worst = 0.0
    for _ in range(200):
        w = rng.standard_normal(4)
        s = SharedSample(rng.standard_normal(4), float(rng.standard_normal()))
        zeta2 = float(rng.uniform(0.05, 5.0))
        gamma = float(rng.uniform(0.5, 5.0))

        def fd(f):
            g = np.zeros(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = step
                g[i] = (f(w + e) - f(w - e)) / (2 * step)
            return g

        g_mtc = mtc_gradient(w, s.x, s.y, zeta2, gamma)
        ref_mtc = fd(lambda v: mtc_cost(v, s, zeta2, gamma))
        worst = max(worst, np.linalg.norm(g_mtc - ref_mtc)
                    / max(np.linalg.norm(ref_mtc), 1e-12))

        def tls_half(v):
            e = s.y - v @ s.x
            return -0.5 * e * e / (v @ v + gamma)

        g_tls = gdtls_gradient(w, s.x, s.y, gamma)
        ref_tls = fd(tls_half)
        worst = max(worst, np.linalg.norm(g_tls - ref_tls)
                    / max(np.linalg.norm(ref_tls), 1e-12))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 1.0
    report(1, f"max relative error {worst:.2e} over 400 checks, "
              f"{elapsed:.2f} s")


def test_criterion_2_expectations_match_monte_carlo():
    t0 = time.perf_counter()
    h = np.array([0.5, -0.3])
    obs_var, sx2, sy2, z2 = 0.1, 0.04, 0.04, 0.2
    gamma = (obs_var + sy2) / sx2
    u = float(h @ h) + gamma
    full = np.full((2, 2), 0.5)
    ti = TheoryInputs(
        h=h, R=np.broadcast_to(np.eye(2), (2, 2, 2)).copy(),
        A=full, C=np.eye(2), mu=np.full(2, 0.01),
        obs_var=np.full(2, obs_var), sigma_x2=np.full((2, 2), sx2),
        sigma_y2=np.full((2, 2), sy2), sigma_phi2=np.zeros((2, 2)),
        gamma=np.full((2, 2), gamma), zeta2=np.full((2, 2), z2),
    )
    H = hessian_at_optimum(ti, 0, 1)
    Q = gradient_covariance(ti, 0, 1)

    def grad(w, X, Y):
        e = Y - X @ w
        uu = float(w @ w) + gamma
        G = np.exp(-e * e / (2.0 * z2 * uu))
        return (G * uu * e)[:, None] * X / (z2 * uu * uu) \
            + (G * e * e)[:, None] * w / (z2 * uu * uu)

    rng = np.random.default_rng(7)
    n_total = 10_000_000
    batch = 1_000_000
    delta = 1e-3
    h_sum = np.zeros((2, 2))
    q_sum = np.zeros((2, 2))
    for _ in range(n_total // batch):
        x = rng.standard_normal((batch, 2))
        y = x @ h + rng.standard_normal(batch) * np.sqrt(obs_var)
        X = x + rng.standard_normal((batch, 2)) * np.sqrt(sx2)
        Y = y + rng.standard_normal(batch) * np.sqrt(sy2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = delta
            h_sum[:, i] += grad(h + e, X, Y).sum(axis=0) \
                - grad(h - e, X, Y).sum(axis=0)
        gh = grad(h, X, Y)
        q_sum += gh.T @ gh
    mc_H = h_sum / (2 * delta * n_total)
    mc_Q = q_sum / n_total
    tol_H = 0.02 * np.abs(mc_H).max()
    tol_Q = 0.02 * np.abs(mc_Q).max()
    err_H = np.abs(H - mc_H).max()
    err_Q = np.abs(Q - mc_Q).max()
    elapsed = time.perf_counter() - t0
    assert err_H < tol_H
    assert err_Q < tol_Q
    assert elapsed < 60.0
    report(2, f"Hessian err {err_H / np.abs(mc_H).max():.3%}, "
              f"covariance err {err_Q / np.abs(mc_Q).max():.3%} "
              f"over {n_total} draws, {elapsed:.1f} s")


def small_instance(n, L, mu=0.02, sigma_phi2=0.02):
    g = NetworkGraph(n, tuple((i, i + 1) for i in range(n - 1))) \
        if n > 1 else None
    if g is not None:
        C = metropolis_weights(g)
    else:
        C = np.eye(1)
    h = np.linspace(0.4, -0.3, L)
    gamma = (0.1 + 0.04) / 0.04
    return TheoryInputs(
        h=h, R=np.broadcast_to(np.eye(L), (n, L, L)).copy(),
        A=C, C=C, mu=np.full(n, mu), obs_var=np.full(n, 0.1),
        sigma_x2=np.full((n, n), 0.04), sigma_y2=np.full((n, n), 0.04),
        sigma_phi2=np.full((n, n), sigma_phi2),
        gamma=np.full((n, n), gamma), zeta2=np.full((n, n), 0.2),
    )


def test_criterion_3_msd_fixed_point_matches_bruteforce():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(1, 2), (1, 4), (1, 8), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]
    for n, L in cases:
        ti = small_instance(n, L)
        fast = steady_state_msd(ti, tol=1e-16)
        brute = steady_state_msd_bruteforce(ti)
        worst = max(worst, abs(fast.msd_linear - brute.msd_linear)
                    / brute.msd_linear)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 5.0
    report(3, f"max relative error {worst:.2e} over {len(cases)} "
              f"instances, {elapsed:.2f} s")


def gaussian_n10_config(runs, iterations):
    # fig1 scenario restricted to its Gaussian phase, shrunk to 10 nodes,
    # with the fully cooperative total-correntropy variant
    cfg = preset("fig1.cfg")
    base = next(a for a in cfg.algorithms if a.name == "dmtc-ds")
    dmtc = replace(base, name="dmtc", share_weights=True)
    return replace(cfg, n_nodes=10, noise_after=None,
                   noise_switch_iteration=0, algorithms=(dmtc,),
                   monte_carlo_runs=runs, iterations=iterations)


def test_criterion_4_stability_bound_brackets_divergence():
    t0 = time.perf_counter()
    cfg = gaussian_n10_config(100, 2000)
    algo = cfg.algorithms[0]
    problem = cfg.build_problem()
    ti = theory_inputs(problem, algo)
    bounds = stepsize_upper_bound(ti)

    outcomes = {}
    for factor in (0.5, 5.0):
        scaled = replace(algo, step_size=tuple(factor * bounds))
        ti_f = theory_inputs(problem, scaled)
        _, rho = mean_recursion_matrix(ti_f)
        res = simulate_runs(problem, scaled, list(range(100)), 2000)
        outcomes[factor] = (rho, int((res.diverged_at >= 0).sum()))
    rho_lo, div_lo = outcomes[0.5]
    rho_hi, div_hi = outcomes[5.0]
    elapsed = time.perf_counter() - t0
    assert rho_lo < 1.0
    assert div_lo == 0
    assert div_hi >= 95
    assert elapsed < 120.0
    report(4, f"0.5x bound: rho {rho_lo:.4f}, {div_lo}/100 diverged; "
              f"5x bound: rho {rho_hi:.4f}, {div_hi}/100 diverged; "
              f"{elapsed:.0f} s")


def test_criterion_5_asymptotic_unbiasedness():
    t0 = time.perf_counter()
    cfg = gaussian_n10_config(500, 3000)
    problem = cfg.build_problem()
    algo = cfg.algorithms[0]
    finals = []
    for start in range(0, 500, 100):
        res = simulate_runs(problem, algo, list(range(start, start + 100)),
                            3000)
        assert (res.diverged_at == -1).all()
        finals.append(res.final_w)
    err = np.concatenate(finals) - np.asarray(cfg.h)   # (500, 10, 4)
    mean = err.mean(axis=0)
    se = err.std(axis=0, ddof=1) / np.sqrt(err.shape[0])
    z = np.abs(mean) / se
    elapsed = time.perf_counter() - t0
    assert z.max() < 3.0
    assert elapsed < 300.0
    report(5, f"max |mean error| / SE = {z.max():.2f} over "
              f"{z.size} node components, {elapsed:.0f} s")


def test_criterion_6_theory_vs_simulation_gap():
    t0 = time.perf_counter()
    cfg = preset("compare.cfg")
    rep = theory_vs_simulation(cfg, algo_name="dmtc", n_jobs=2)
    elapsed = time.perf_counter() - t0
    assert rep.diverged_runs == 0
    assert abs(rep.gap_db) < 2.0
    assert elapsed < 300.0
    report(6, f"predicted {rep.predicted_db:.2f} dB, simulated "
              f"{rep.simulated_db:.2f} dB, gap {rep.gap_db:+.2f} dB, "
              f"{elapsed:.0f} s")


@pytest.mark.slow
def test_criterion_7_qualitative_orderings():
    t0 = time.perf_counter()
    cfg = preset("fig1.cfg")
    curves = monte_carlo_msd(cfg, n_jobs=2)
    gauss = {n: window_db(c, 1600, 2000) for n, c in curves.items()}
    gmm = {n: window_db(c, 3600, 4000) for n, c in curves.items()}

    # (a) Gaussian regime: every total-correntropy variant beats every
    # LMS-family variant at steady state
    mtc_worst = max(gauss["dmtc-ds"], gauss["ac-dmtc"])
    lms_best = min(gauss["dlms"], gauss["ac-dlms"], gauss["ac-dlms-nds"])
    assert mtc_worst < lms_best

    # (b) impulsive regime: the adaptive-combination total-correntropy
    # variant is the best of all seven
    best = min(gmm, key=gmm.get)
    assert best == "ac-dmtc"

    # (c) kernel sweep: steady-state MSD nondecreasing in zeta^2 from
    # 5 sigma_A^2 up, and the smallest kernel converges more slowly
    sweep_cfg = preset("fig3.cfg")
    values = [0.05, 0.2, 1.0, 5.0, 25.0]
    steady, conv = {}, {}
    for v in values:
        sub = _substitute(sweep_cfg, "zeta2", v)
        curve = monte_carlo_msd(sub, n_jobs=2)["ac-dmtc"]
        steady[v] = window_db(curve, 3600, 4000)
        from difflab.harness import LearningCurve
        gauss_part = LearningCurve("g", curve.msd_linear[:2000],
                                   curve.runs_used, curve.diverged_runs)
        conv[v] = convergence_iteration(gauss_part, margin_db=3.0,
                                        tail_fraction=0.2)
    tail = [steady[v] for v in values[1:]]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    assert conv[0.05] > conv[0.2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    report(7, "(a) margin "
              f"{lms_best - mtc_worst:.2f} dB; (b) ac-dmtc lowest by "
              f"{sorted(gmm.values())[1] - gmm['ac-dmtc']:.2f} dB; "
              f"(c) steady dB {[round(float(steady[v]), 2) for v in values]}, "
              f"convergence {conv[0.05]} vs {conv[0.2]} iterations; "
              f"{elapsed:.0f} s")


def test_criterion_8_reductions():
    t0 = time.perf_counter()
    cfg = preset("fig1.cfg")
    problem = cfg.build_problem()
    dlms = next(a for a in cfg.algorithms if a.name == "dlms")
    iters = 400
    runs = [0, 1, 2]

    # identity weights for adaptation and combination: the diffusion
    # update must reduce exactly to independent per-node LMS filters
    from difflab.simulate import _Drawer, _PhaseParams, _phase_for
    n = problem.n_nodes
    id_problem = replace(problem, weights=np.eye(n))
    res = simulate_runs(id_problem, dlms, runs, iters)

    # reference: each node filtered on its own, coupled to nothing,
    # consuming the same per-run draw stream
    phases = [_PhaseParams.build(s, spec, problem.links,
                                 problem.obs_std() ** 2)
              for s, spec in problem.noise_phases]
    drawer = _Drawer(problem, True, True)
    rngs = [problem.run_rng(r) for r in runs]
    h = np.asarray(cfg.h)
    W = [np.zeros((len(runs), len(h))) for _ in range(n)]
    manual = np.empty((len(runs), iters))
    for i in range(iters):
        d = drawer.draw(rngs, _phase_for(phases, i))
        X = d.x_in
        y = np.einsum("rnl,l->rn", X, h) + d.v_obs
        sq = np.empty((len(runs), n))
        for k in range(n):
            xk = X[:, k, :]
            e = y[:, k] - np.einsum("rl,rl->r", W[k], xk)
            W[k] = W[k] + dlms.step_size * (e[:, None] * xk)
            diff = W[k] - h
            sq[:, k] = np.einsum("rl,rl->r", diff, diff)
        manual[:, i] = sq.sum(axis=1)
    assert (res.sq_net == manual).all()

    # adaptive combination rows stay convex across a full-length run
    ac = next(a for a in cfg.algorithms if a.name == "ac-dmtc")
    beta_res = simulate_runs(problem, ac, [0, 1, 2, 3], cfg.iterations,
                             track_beta=True)
    elapsed = time.perf_counter() - t0
    assert beta_res.beta_sum_err <= 1e-12
    report(8, "independent-filter reduction bit-exact over "
              f"{iters} iterations; max |sum(beta) - 1| = "
              f"{beta_res.beta_sum_err:.1e} over {cfg.iterations} "
              f"iterations; {elapsed:.0f} s")
