import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difflab.config import parse_config
from difflab.errors import (
    InstabilityError,
    InvalidArgumentError,
    NumericalFailureError,
)
from difflab.harness import theory_inputs
from difflab.theory import (
    TheoryInputs,
    _curvature,
    _lifted_norm,
    _mean_matrix,
    _noise_coefficients,
    steady_state_msd,
    stepsize_upper_bound,
)
from difflab.topology import (
    NetworkGraph,
    generate_random_graph,
    metropolis_weights,
)
from theory_reference import (
    block_diag_hessian_by_links,
    combination_noise_tradeoff,
    fixed_point_msd,
    gradient_covariance,
    hessian_at_optimum,
    link_scalars,
    mean_recursion_by_links,
    mean_recursion_matrix,
    noise_drivers_by_links,
    steady_state_msd_bruteforce,
    steady_state_msd_kron,
)

COMPARE_CFG = os.path.join(os.path.dirname(__file__), "..", "presets",
                           "compare.cfg")


def make_inputs(h, A, C, mu, obs_var, sigma_x2=0.0, sigma_phi2=0.0,
                gamma=3.5, zeta2=0.2, input_var=1.0):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return TheoryInputs(
        h=np.asarray(h, dtype=float),
        input_var=np.full(n, input_var),
        A=A,
        C=np.asarray(C, dtype=float),
        mu=np.broadcast_to(np.asarray(mu, dtype=float), (n,)).copy(),
        obs_var=np.broadcast_to(np.asarray(obs_var, dtype=float), (n,)).copy(),
        sigma_x2=sigma_x2,
        sigma_phi2=sigma_phi2,
        gamma=np.full(n, gamma),
        zeta2=zeta2,
    )


def batch_gradient(w, X, Y, zeta2, gamma):
    """Vectorized total-correntropy gradient over a batch of samples."""
    e = Y - X @ w
    u = float(w @ w) + gamma
    G = np.exp(-e * e / (2.0 * zeta2 * u))
    return (G * (u * e))[:, None] * X / (zeta2 * u * u) \
        + (G * e * e)[:, None] * w / (zeta2 * u * u)


def draw_cross_link(rng, h, n_draws, input_var, obs_var, sx2, sy2):
    """Samples as seen across a noisy link at steady state."""
    L = len(h)
    x = rng.standard_normal((n_draws, L)) * np.sqrt(input_var)
    y = x @ h + rng.standard_normal(n_draws) * np.sqrt(obs_var)
    x_t = x + rng.standard_normal((n_draws, L)) * np.sqrt(sx2)
    y_t = y + rng.standard_normal(n_draws) * np.sqrt(sy2)
    return x_t, y_t


def test_hessian_self_link_is_minus_input_covariance():
    ti = make_inputs([0.4, 0.7], np.eye(2), np.eye(2), 0.05, 0.1,
                     input_var=2.0)
    assert np.allclose(hessian_at_optimum(ti, 0, 0), -2.0 * np.eye(2))


def test_gradient_covariance_self_link():
    ti = make_inputs([0.4, 0.7], np.eye(2), np.eye(2), 0.05, 0.1,
                     input_var=2.0)
    assert np.allclose(gradient_covariance(ti, 1, 1), 0.2 * np.eye(2))


def test_out_of_neighborhood_rejected():
    A = np.eye(3)
    ti = make_inputs([1.0], A, A, 0.05, 0.1)
    with pytest.raises(InvalidArgumentError):
        hessian_at_optimum(ti, 0, 2)
    with pytest.raises(InvalidArgumentError):
        gradient_covariance(ti, 0, 2)


def test_cross_hessian_matches_monte_carlo():
    # central differences of the batch-averaged gradient around the true
    # weights, with common random numbers, estimate E[dg/dw]
    h = np.array([0.5, -0.3])
    obs_var, sx2, sy2, z2 = 0.1, 0.04, 0.04, 0.2
    gamma = (obs_var + sy2) / sx2
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    ti = make_inputs(h, A, np.eye(2), 0.01, obs_var, sigma_x2=sx2,
                     gamma=gamma, zeta2=z2)
    H = hessian_at_optimum(ti, 0, 1)

    rng = np.random.default_rng(11)
    X, Y = draw_cross_link(rng, h, 2_000_000, 1.0, obs_var, sx2, sy2)
    delta = 1e-3
    mc = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = delta
        gp = batch_gradient(h + e, X, Y, z2, gamma).mean(axis=0)
        gm = batch_gradient(h - e, X, Y, z2, gamma).mean(axis=0)
        mc[:, i] = (gp - gm) / (2 * delta)
    assert np.linalg.norm(H - mc) < 0.02 * np.linalg.norm(mc)


def test_cross_covariance_matches_monte_carlo():
    h = np.array([0.5, -0.3])
    obs_var, sx2, sy2, z2 = 0.1, 0.04, 0.04, 0.2
    gamma = (obs_var + sy2) / sx2
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    ti = make_inputs(h, A, np.eye(2), 0.01, obs_var, sigma_x2=sx2,
                     gamma=gamma, zeta2=z2)
    Q = gradient_covariance(ti, 0, 1)

    rng = np.random.default_rng(12)
    total = np.zeros((2, 2))
    n_draws = 0
    for _ in range(4):
        X, Y = draw_cross_link(rng, h, 1_000_000, 1.0, obs_var, sx2, sy2)
        g = batch_gradient(h, X, Y, z2, gamma)
        total += g.T @ g
        n_draws += len(g)
    mc = total / n_draws
    assert np.linalg.norm(Q - mc) < 0.02 * np.linalg.norm(mc)


def test_cross_covariance_zero_input_channel():
    ti = make_inputs([1.0, 2.0], np.full((2, 2), 0.5), np.eye(2), 0.01,
                     0.1, sigma_x2=0.0)
    assert np.allclose(gradient_covariance(ti, 0, 1), 0.0)


def test_single_node_lms_recursion():
    # A = C = I reduces to stand-alone LMS: B = I - mu R
    mu, sv2, su2 = 0.05, 0.1, 2.0
    ti = make_inputs([0.4, 0.7], np.eye(1), np.eye(1), mu, sv2,
                     input_var=su2)
    B, rho = mean_recursion_matrix(ti)
    assert np.allclose(B, (1 - mu * su2) * np.eye(2))
    assert rho == pytest.approx(abs(1 - mu * su2), rel=1e-12)
    assert stepsize_upper_bound(ti)[0] == pytest.approx(2.0 / su2, rel=1e-12)


def test_single_node_lms_msd_closed_form():
    # with R = su2 I the fixed point is exactly L mu sv2 / (2 - mu su2)
    mu, sv2, su2, L = 0.02, 0.1, 1.0, 4
    ti = make_inputs([0.4, 0.7, -0.3, 0.5], np.eye(1), np.eye(1), mu, sv2,
                     input_var=su2)
    pred = steady_state_msd(ti)
    expect = L * mu * sv2 / (2.0 - mu * su2)
    assert pred.rho == pytest.approx(abs(1 - mu * su2), rel=1e-12)
    assert pred.msd_linear == pytest.approx(expect, rel=1e-6)
    assert pred.msd_db == pytest.approx(10 * np.log10(expect), rel=1e-6)


def test_stability_bound_brackets_divergence():
    ti = make_inputs([0.4, 0.7], np.eye(1), np.eye(1), 0.05, 0.1,
                     input_var=1.5)
    (bound,) = stepsize_upper_bound(ti)
    for factor, stable in ((0.5, True), (0.99, True), (1.01, False)):
        scaled = make_inputs([0.4, 0.7], np.eye(1), np.eye(1),
                             factor * bound, 0.1, input_var=1.5)
        _, rho = mean_recursion_matrix(scaled)
        assert (rho < 1.0) == stable


def test_stepsize_bounds_match_per_node_eigenvalues():
    # 2 / rho(sum_l alpha_lk H_lk) from the (N, L, L) summed Hessians,
    # bit for bit
    cfg = parse_config(COMPARE_CFG)
    ti = theory_inputs(cfg.build_problem(), cfg.algorithms[0])
    _, hess, *_ = ti.link_factors
    R = ti.input_var[:, None, None] * np.eye(ti.dim)
    S = -np.tensordot(ti.A * hess, R, axes=(0, 0))
    per_node = [2.0 / np.abs(np.linalg.eigvals(S[k])).max()
                for k in range(ti.n_nodes)]
    assert stepsize_upper_bound(ti).tolist() == per_node


def test_zero_summed_hessian_names_its_node():
    ti = make_inputs([0.4, 0.7], np.eye(3), np.eye(3), 0.05, 0.1)
    ti.input_var[1] = 0.0
    with pytest.raises(InvalidArgumentError, match="node 1 is zero"):
        stepsize_upper_bound(ti)


def test_unstable_msd_raises():
    ti = make_inputs([0.4, 0.7], np.eye(1), np.eye(1), 2.0, 0.1,
                     input_var=1.5)
    with pytest.raises(InstabilityError) as exc:
        steady_state_msd(ti)
    assert exc.value.rho == pytest.approx(2.0, rel=1e-12)


def network_inputs(n=4, L=2, mu=0.02, sigma_phi2=0.0, seed=3):
    g = NetworkGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    C = metropolis_weights(g)
    A = C.copy()
    h = np.array([0.4, 0.7, -0.3, 0.5])[:L]
    ti = make_inputs(h, A, C, mu, 0.1, sigma_x2=0.04, sigma_phi2=sigma_phi2,
                     gamma=3.5, zeta2=0.2)
    return ti


def test_fixed_point_matches_bruteforce():
    ti = network_inputs(sigma_phi2=0.04)
    fast = steady_state_msd(ti)
    brute = steady_state_msd_bruteforce(ti)
    assert fast.msd_linear == pytest.approx(brute.msd_linear, rel=1e-9)
    assert fast.rho == pytest.approx(brute.rho, rel=1e-9)


def test_bruteforce_size_guard():
    g = NetworkGraph(5, tuple((i, i + 1) for i in range(4)))
    C = metropolis_weights(g)
    ti = make_inputs([0.4, 0.7], C, C, 0.02, 0.1, sigma_x2=0.04,
                     gamma=3.5)
    with pytest.raises(InvalidArgumentError):
        steady_state_msd_bruteforce(ti)


def test_msd_monotone_in_weight_channel_noise():
    msds = [steady_state_msd(network_inputs(sigma_phi2=s)).msd_linear
            for s in (0.0, 0.01, 0.04, 0.16)]
    assert all(b > a for a, b in zip(msds, msds[1:]))


def test_tradeoff_report_decomposition():
    ti = network_inputs(sigma_phi2=0.04)
    rep = combination_noise_tradeoff(ti)
    assert rep.total == pytest.approx(
        rep.combination_part + rep.gradient_part, rel=1e-12)
    assert rep.per_node.sum() == pytest.approx(rep.total, rel=1e-12)
    assert rep.combination_part > 0

    quiet = combination_noise_tradeoff(network_inputs(sigma_phi2=0.0))
    assert quiet.combination_part == 0.0


@pytest.mark.parametrize("n_nodes", [10, 50])
def test_doubling_matches_fixed_point_on_compare(n_nodes):
    cfg = parse_config(COMPARE_CFG, [("graph.nodes", n_nodes)])
    ti = theory_inputs(cfg.build_problem(), cfg.algorithms[0])
    fast = steady_state_msd(ti)
    reference, steps = fixed_point_msd(ti)
    assert fast.msd_linear == pytest.approx(reference, rel=1e-9)
    assert fast.iterations_used < 16 < steps


def test_doubling_cap_raises():
    with pytest.raises(NumericalFailureError):
        steady_state_msd(network_inputs(sigma_phi2=0.04), cap=1)


def test_doubling_past_float_range_raises():
    # a vanishing step leaves M = A, whose eigensolve can round rho to
    # just below 1; the doubling then overflows and must refuse, not warn
    cfg = parse_config(COMPARE_CFG, [("noise.x.c", 0.0), ("graph.nodes", 12),
                                     ("algorithms.0.step_size", 5e-324)])
    ti = theory_inputs(cfg.build_problem(), cfg.algorithms[0])
    with pytest.raises((InstabilityError, NumericalFailureError)):
        steady_state_msd(ti)


def random_network_inputs(rng, share_data):
    # without data sharing A = I, so the modeled links come from C alone
    n, L = 12, 3
    g = generate_random_graph(n, 4.0, seed=5)
    C = metropolis_weights(g)
    A = C.copy() if share_data else np.eye(n)
    return TheoryInputs(
        h=rng.standard_normal(L),
        input_var=rng.uniform(0.5, 2.0, n),
        A=A,
        C=C,
        mu=rng.uniform(0.01, 0.05, n),
        obs_var=rng.uniform(0.05, 0.2, n),
        sigma_x2=rng.uniform(0.01, 0.1),
        sigma_phi2=rng.uniform(0.01, 0.1),
        gamma=rng.uniform(1.0, 5.0, n),
        zeta2=rng.uniform(0.1, 1.0),
    )


@pytest.mark.parametrize("share_data", [True, False])
def test_vectorized_blocks_match_per_link_sums(share_data):
    # unequal input variances and TLS ratios per node, so that each
    # link's terms must carry those of its source node
    ti = random_network_inputs(np.random.default_rng(8), share_data)
    assert np.unique(ti.input_var).size == ti.n_nodes
    assert np.unique(ti.gamma).size == ti.n_nodes
    eye = np.eye(ti.dim)
    tol = dict(rtol=1e-12, atol=1e-15)
    mask, *factors = ti.link_factors
    for l, k in zip(*np.nonzero(mask)):
        np.testing.assert_allclose([f[l, k] for f in factors],
                                   link_scalars(ti, l, k), **tol)
    np.testing.assert_allclose(np.kron(np.diag(-_curvature(ti)), eye),
                               block_diag_hessian_by_links(ti), **tol)
    np.testing.assert_allclose(np.kron(_mean_matrix(ti), eye),
                               mean_recursion_by_links(ti), **tol)
    X, Y = _noise_coefficients(ti)
    V_ref, R_ref = noise_drivers_by_links(ti)
    np.testing.assert_allclose(
        np.kron(X, eye) + np.kron(Y, np.outer(ti.h, ti.h)), V_ref + R_ref,
        **tol)


def compare_inputs(n_nodes):
    cfg = parse_config(COMPARE_CFG, [("graph.nodes", n_nodes)])
    return theory_inputs(cfg.build_problem(), cfg.algorithms[0])


@pytest.mark.parametrize("case", ["shared", "unshared", 10, 50, 100])
def test_doubling_matches_kron_oracle(case):
    # the (N, N) pair doubling against the same squarings on NL x NL
    if isinstance(case, int):
        ti = compare_inputs(case)
    else:
        ti = random_network_inputs(np.random.default_rng(21),
                                   share_data=case == "shared")
    fast = steady_state_msd(ti)
    lifted = steady_state_msd_kron(ti)
    assert fast.iterations_used == lifted.iterations_used
    assert fast.rho == lifted.rho
    assert fast.msd_linear == pytest.approx(lifted.msd_linear, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.booleans())
def test_lifted_norm_matches_kron(n, L, seed, cancel):
    # cancel makes X + |h|^2 Y small, where L = 1 leaves only that term
    rng = np.random.default_rng(seed)
    scale_x, scale_y = rng.uniform(1e-3, 1e3, 2)
    X = scale_x * rng.standard_normal((n, n))
    Y = scale_y * rng.standard_normal((n, n))
    h = rng.standard_normal(L)
    hh = float(h @ h)
    if cancel:
        Y = -X / hh + 1e-9 * Y
    lifted = np.kron(X, np.eye(L)) + np.kron(Y, np.outer(h, h))
    assert _lifted_norm(X, Y, L, hh) == pytest.approx(
        float(np.linalg.norm(lifted)), rel=1e-12, abs=1e-300)


def test_doubling_builds_no_lifted_matrix():
    # one NL x NL float64 matrix at N=100, L=4 is 400^2 * 8 B = 1.28 MB;
    # the whole solve, link factors included, must peak below that
    ti = compare_inputs(100)
    nl = ti.n_nodes * ti.dim
    tracemalloc.start()
    try:
        steady_state_msd(ti)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nl * nl * 8
