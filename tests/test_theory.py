import os

import numpy as np
import pytest

from difflab.config import parse_config
from difflab.errors import (
    InstabilityError,
    InvalidArgumentError,
    NumericalFailureError,
)
from difflab.harness import theory_inputs
from difflab.theory import (
    TheoryInputs,
    _block_diag,
    _noise_driver_matrices,
    _summed_hessian,
    spectral_radius,
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
    mean_recursion_matrix,
    noise_drivers_by_links,
    steady_state_msd_bruteforce,
)

COMPARE_CFG = os.path.join(os.path.dirname(__file__), "..", "presets",
                           "compare.cfg")


def make_inputs(h, A, C, mu, obs_var, sigma_x2=0.0, sigma_y2=0.0,
                sigma_phi2=0.0, gamma=3.5, zeta2=0.2, input_var=1.0):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    L = len(h)
    full = np.full((n, n), float)
    return TheoryInputs(
        h=np.asarray(h, dtype=float),
        R=np.broadcast_to(input_var * np.eye(L), (n, L, L)).copy(),
        A=A,
        C=np.asarray(C, dtype=float),
        mu=np.broadcast_to(np.asarray(mu, dtype=float), (n,)).copy(),
        obs_var=np.broadcast_to(np.asarray(obs_var, dtype=float), (n,)).copy(),
        sigma_x2=np.full((n, n), sigma_x2),
        sigma_y2=np.full((n, n), sigma_y2),
        sigma_phi2=np.full((n, n), sigma_phi2),
        gamma=np.full((n, n), gamma),
        zeta2=np.full((n, n), zeta2),
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
                     sigma_y2=sy2, gamma=gamma, zeta2=z2)
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
                     sigma_y2=sy2, gamma=gamma, zeta2=z2)
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
    cfg = parse_config(COMPARE_CFG)
    ti = theory_inputs(cfg.build_problem(), cfg.algorithms[0])
    S = _summed_hessian(ti)
    per_node = [2.0 / np.abs(np.linalg.eigvals(S[k])).max()
                for k in range(ti.n_nodes)]
    assert stepsize_upper_bound(ti).tolist() == per_node


def test_zero_summed_hessian_names_its_node():
    ti = make_inputs([0.4, 0.7], np.eye(3), np.eye(3), 0.05, 0.1)
    ti.R[1] = 0.0
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
    ti = make_inputs(h, A, C, mu, 0.1, sigma_x2=0.04, sigma_y2=0.04,
                     sigma_phi2=sigma_phi2, gamma=3.5, zeta2=0.2)
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


def test_spectral_radius_known_values():
    assert spectral_radius(np.diag([0.3, -0.9, 0.5])) == pytest.approx(0.9)
    rng = np.random.default_rng(4)
    m = rng.standard_normal((120, 120))
    m = 0.5 * (m + m.T)  # symmetric so the dominant eigenvalue is real
    assert spectral_radius(m) == pytest.approx(
        float(np.abs(np.linalg.eigvalsh(m)).max()), rel=1e-8)


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


def random_network_inputs(rng, share_data):
    # without data sharing A = I, so the modeled links come from C alone
    n, L = 12, 3
    g = generate_random_graph(n, 4.0, seed=5)
    C = metropolis_weights(g)
    A = C.copy() if share_data else np.eye(n)
    G = rng.standard_normal((n, L, L))
    return TheoryInputs(
        h=rng.standard_normal(L),
        R=G @ G.transpose(0, 2, 1) + np.eye(L),
        A=A,
        C=C,
        mu=rng.uniform(0.01, 0.05, n),
        obs_var=rng.uniform(0.05, 0.2, n),
        sigma_x2=rng.uniform(0.01, 0.1, (n, n)),
        sigma_y2=rng.uniform(0.01, 0.1, (n, n)),
        sigma_phi2=rng.uniform(0.01, 0.1, (n, n)),
        gamma=rng.uniform(1.0, 5.0, (n, n)),
        zeta2=rng.uniform(0.1, 1.0, (n, n)),
    )


@pytest.mark.parametrize("share_data", [True, False])
def test_vectorized_blocks_match_per_link_sums(share_data):
    ti = random_network_inputs(np.random.default_rng(8), share_data)
    np.testing.assert_allclose(_block_diag(_summed_hessian(ti)),
                               block_diag_hessian_by_links(ti),
                               rtol=1e-12, atol=1e-15)
    V, R_script = _noise_driver_matrices(ti)
    V_ref, R_ref = noise_drivers_by_links(ti)
    np.testing.assert_allclose(V, V_ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(R_script, R_ref, rtol=1e-12, atol=1e-15)
