import glob
import os

import numpy as np
import pytest

from difflab.config import parse_config
from difflab.engine import AlgorithmSpec, KernelSchedule
from difflab.errors import InvalidArgumentError
from difflab.harness import _stream_groups
from difflab.noise import GmmSpec, LinkNoiseSpec
from difflab.simulate import (
    NetworkProblem,
    _Drawer,
    _PhaseParams,
    _phase_for,
    simulate_group,
    simulate_runs,
)
from difflab.topology import generate_random_graph, metropolis_weights
from reference import initial_states, node_iteration

H = np.array([0.4, 0.7, -0.3, 0.5])
PRESETS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                        "presets", "*.cfg")))


def make_problem(n=5, seed=11, gmm_after=True):
    graph = generate_random_graph(n, 3, seed=3)
    weights = metropolis_weights(graph)
    gauss = GmmSpec(0.0, 0.04, 0.0)
    phase1 = LinkNoiseSpec(x=gauss, y=gauss, phi=gauss)
    phases = [(0, phase1)]
    if gmm_after:
        mixed = GmmSpec(0.05, 0.04, 10.0)
        phases.append((12, LinkNoiseSpec(x=mixed, y=mixed, phi=mixed)))
    return NetworkProblem(
        graph=graph, h=H, weights=weights,
        noise_phases=tuple(phases), input_variance=1.0, obs_var=0.1,
        seed=seed,
    )


ZETA = KernelSchedule(1e4, 0.2, 8)
KERNEL = KernelSchedule(1e4, 0.9, 8)

VARIANTS = [
    AlgorithmSpec("noncoop", share_data=False, share_weights=False,
                  step_size=0.1),
    AlgorithmSpec("dlms", step_size=0.1),
    AlgorithmSpec("ac-dlms", share_weights=False, adaptive_combination=True,
                  step_size=0.1),
    AlgorithmSpec("ac-dlms-nds", share_data=False,
                  adaptive_combination=True, step_size=0.1),
    AlgorithmSpec("dmcc", estimator="mcc", step_size=0.1, mcc_kernel2=KERNEL),
    AlgorithmSpec("dmtc-ds", estimator="mtc", share_weights=False,
                  step_size=0.045, zeta2=ZETA),
    AlgorithmSpec("ac-dmtc", estimator="mtc", adaptive_combination=True,
                  step_size=0.045, zeta2=ZETA),
    AlgorithmSpec("dgdtls", estimator="gdtls", step_size=0.01),
]


def reference_sq_net(problem, algo, run_index, iterations):
    """Per-iteration network squared error via the per-node reference path."""
    ls = problem.links
    phases = [_PhaseParams.build(s, spec, ls, problem.obs_std() ** 2)
              for s, spec in problem.noise_phases]
    drawer = _Drawer(problem, algo.share_data, algo.shares_phi)
    rngs = [problem.run_rng(run_index)]
    states = initial_states(problem)
    out = np.empty(iterations)
    for i in range(iterations):
        d = drawer.draw(rngs, _phase_for(phases, i))
        states = node_iteration(problem, algo, states, i, d)
        out[i] = sum(float((s.w - problem.h) @ (s.w - problem.h))
                     for s in states)
    return out


@pytest.mark.parametrize("algo", VARIANTS, ids=lambda a: a.name)
def test_vectorized_matches_reference(algo):
    problem = make_problem()
    iterations = 25
    res = simulate_runs(problem, algo, [0], iterations)
    ref = reference_sq_net(problem, algo, 0, iterations)
    assert np.allclose(res.sq_net[0], ref, rtol=1e-12, atol=1e-14)
    assert res.diverged_at[0] == -1


def test_batching_is_bit_exact():
    problem = make_problem()
    algo = VARIANTS[6]  # adaptive-combination total-correntropy variant
    full = simulate_runs(problem, algo, [0, 1, 2, 3], 20)
    first = simulate_runs(problem, algo, [0, 1], 20)
    second = simulate_runs(problem, algo, [2, 3], 20)
    assert (full.sq_net[:2] == first.sq_net).all()
    assert (full.sq_net[2:] == second.sq_net).all()


def test_run_index_defines_the_stream():
    problem = make_problem()
    algo = VARIANTS[1]
    a = simulate_runs(problem, algo, [5], 15).sq_net[0]
    b = simulate_runs(problem, algo, [5], 15).sq_net[0]
    c = simulate_runs(problem, algo, [6], 15).sq_net[0]
    assert (a == b).all()
    assert not (a == c).all()


def test_divergence_freezes_record():
    problem = make_problem(gmm_after=False)
    bad = AlgorithmSpec("bad", step_size=50.0)
    res = simulate_runs(problem, bad, [0, 1], 60)
    assert (res.diverged_at >= 0).all()
    for r in range(2):
        i0 = res.diverged_at[r]
        tail = res.sq_net[r, i0:]
        assert np.isfinite(tail).all()
        # frozen at the last good iterate
        assert (tail == tail[0]).all()


def test_per_node_record_sums_to_network():
    problem = make_problem()
    res = simulate_runs(problem, VARIANTS[1], [0, 1], 10,
                        record_per_node=True)
    assert res.sq_node.shape == (2, 10, problem.n_nodes)
    assert np.allclose(res.sq_node.sum(axis=2), res.sq_net, rtol=1e-12)


def test_beta_rows_tracked_as_convex():
    problem = make_problem()
    res = simulate_runs(problem, VARIANTS[6], [0, 1], 30, track_beta=True)
    assert res.beta_sum_err < 1e-12


def test_problem_validation():
    graph = generate_random_graph(4, 3, seed=0)
    w = metropolis_weights(graph)
    spec = LinkNoiseSpec()
    with pytest.raises(InvalidArgumentError):
        NetworkProblem(graph, H, w, ((5, spec),))
    with pytest.raises(InvalidArgumentError):
        NetworkProblem(graph, H, w, ((0, spec),), input_variance=0.0)
    with pytest.raises(InvalidArgumentError):
        NetworkProblem(graph, H, np.eye(3), ((0, spec),))
    problem = NetworkProblem(graph, H, w, ((0, spec),))
    with pytest.raises(InvalidArgumentError):
        simulate_runs(problem, VARIANTS[0], [0], 0)


def test_per_node_observation_variance():
    graph = generate_random_graph(3, 2, seed=5)
    w = metropolis_weights(graph)
    problem = NetworkProblem(graph, H, w, ((0, LinkNoiseSpec()),),
                             obs_var=(0.1, 0.4, 0.9))
    assert np.allclose(problem.obs_std(), [np.sqrt(0.1), np.sqrt(0.4),
                                           np.sqrt(0.9)])


def test_noiseless_self_contained_convergence():
    # no observation or link noise: LMS drives every node to h exactly
    graph = generate_random_graph(4, 3, seed=2)
    w = metropolis_weights(graph)
    spec = LinkNoiseSpec()
    problem = NetworkProblem(graph, H, w, ((0, spec),), seed=1)
    res = simulate_runs(problem, AlgorithmSpec("lms", step_size=0.1),
                        [0], 600)
    assert res.sq_net[0, -1] < 1e-10
    assert res.diverged_at[0] == -1


def assert_same_result(a, b):
    """Bit-for-bit equality of every SimResult field."""
    assert a.sq_net.tobytes() == b.sq_net.tobytes()
    assert (a.diverged_at == b.diverged_at).all()
    assert (a.sq_node is None) == (b.sq_node is None)
    if a.sq_node is not None:
        assert a.sq_node.tobytes() == b.sq_node.tobytes()
    assert a.beta_sum_err == b.beta_sum_err
    assert a.final_w.tobytes() == b.final_w.tobytes()


@pytest.mark.parametrize("path", PRESETS, ids=os.path.basename)
def test_group_pass_equals_solo_runs(path):
    # the mixture phase from iteration 60, past the kernel switches at 100
    overrides = ()
    if "after:" in open(path, encoding="utf-8").read():
        overrides = (("noise.after.switch_iteration", 60),)
    cfg = parse_config(path, overrides)
    problem = cfg.build_problem()
    for group in _stream_groups(cfg.algorithms):
        for per_node, beta in ((False, False), (True, True)):
            grouped = simulate_group(problem, group, [0, 2, 3], 120,
                                     record_per_node=per_node,
                                     track_beta=beta)
            assert len(grouped) == len(group)
            for algo, res in zip(group, grouped):
                solo = simulate_runs(problem, algo, [0, 2, 3], 120,
                                     record_per_node=per_node,
                                     track_beta=beta)
                assert_same_result(res, solo)


def test_diverged_variant_freezes_nobody_else():
    problem = make_problem()
    bad = AlgorithmSpec("bad", step_size=50.0)
    stable = VARIANTS[1]
    assert (bad.share_data, bad.shares_phi) == (stable.share_data,
                                                stable.shares_phi)
    res_bad, res_stable = simulate_group(problem, (bad, stable), [0, 1], 60,
                                         record_per_node=True)
    assert (res_bad.diverged_at >= 0).all()
    assert (res_stable.diverged_at == -1).all()
    assert_same_result(res_stable, simulate_runs(problem, stable, [0, 1], 60,
                                                 record_per_node=True))
    assert_same_result(res_bad, simulate_runs(problem, bad, [0, 1], 60,
                                              record_per_node=True))


def test_group_refuses_mixed_streams():
    problem = make_problem()
    with pytest.raises(InvalidArgumentError, match="share_data"):
        simulate_group(problem, (VARIANTS[0], VARIANTS[1]), [0], 5)
    with pytest.raises(InvalidArgumentError):
        simulate_group(problem, (), [0], 5)
