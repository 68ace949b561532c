import glob
import os
from dataclasses import replace

import numpy as np
import pytest

from difflab.config import parse_config
from difflab import simulate
from difflab.engine import AlgorithmSpec, KernelSchedule
from difflab.errors import InvalidArgumentError
from difflab.harness import _substitute
from difflab.noise import GmmSpec, LinkNoiseSpec
from difflab.simulate import (
    DIVERGENCE_NORM,
    NetworkProblem,
    _Drawer,
    _PhaseParams,
    _Variant,
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
    phases = [_PhaseParams.build(s, spec, problem)
              for s, spec in problem.noise_phases]
    drawer = _Drawer(problem)
    rngs = [problem.run_rng(run_index)]
    states = initial_states(problem)
    out = np.empty(iterations)
    for i in range(iterations):
        phase = [p for p in phases if p.start <= i][-1]
        d, = drawer.draw(rngs, [phase])
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
    # a batch where only some runs diverge: frozen and live runs side by
    # side, each with the records of its solo run
    shaky = AlgorithmSpec("shaky", step_size=1.3)
    batch = simulate_runs(problem, shaky, [0, 1, 2, 3], 60)
    assert (batch.diverged_at >= 0).any() and (batch.diverged_at == -1).any()
    for r in range(4):
        solo = simulate_runs(problem, shaky, [r], 60)
        assert batch.sq_net[r].tobytes() == solo.sq_net[0].tobytes()
        assert batch.diverged_at[r] == solo.diverged_at[0]


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
    res = simulate_runs(problem, VARIANTS[6], [0, 1], 30)
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
    with pytest.raises(InvalidArgumentError):
        simulate_group(problem, (), [0], 5)


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
    ls = problem.links
    order = np.concatenate((ls.cross_idx, ls.self_idx))
    assert (order.take(ls.perm) == np.arange(ls.n_links)).all()
    for per_node in (False, True):
        grouped = simulate_group(problem, cfg.algorithms, [0, 2, 3], 120,
                                 record_per_node=per_node)
        assert len(grouped) == len(cfg.algorithms)
        for algo, res in zip(cfg.algorithms, grouped):
            solo = simulate_runs(problem, algo, [0, 2, 3], 120,
                                 record_per_node=per_node)
            assert_same_result(res, solo)


def test_every_algorithm_reads_one_draw(monkeypatch):
    # fig1's seven algorithms, mixture phase from iteration 10: each
    # iteration draws once, and every algorithm steps on that one block
    fig1 = os.path.join(os.path.dirname(__file__), "..", "presets", "fig1.cfg")
    cfg = parse_config(fig1, (("noise.after.switch_iteration", 10),))
    problem = cfg.build_problem()
    drawn, seen = [], []
    draw, step = _Drawer.draw, _Variant.step

    def spy_draw(self, rngs, phases):
        blocks = draw(self, rngs, phases)
        assert len(blocks) == 1
        drawn.append(blocks[0])
        return blocks

    def spy_step(self, i, ph, d, *args):
        seen.append((i, d))
        return step(self, i, ph, d, *args)
    monkeypatch.setattr(_Drawer, "draw", spy_draw)
    monkeypatch.setattr(_Variant, "step", spy_step)
    runs, iterations = [0, 1, 4], 20
    full = simulate_group(problem, cfg.algorithms, runs, iterations)
    assert len(drawn) == iterations
    assert len(seen) == iterations * len(cfg.algorithms)
    assert all(d is drawn[i] for i, d in seen)
    for d in drawn:
        assert d.x_in.shape[0] == len(runs)
        assert all(noise is not None for noise in (d.nx, d.ny, d.nphi))
    # the one block is the full layout, so an algorithm that shares
    # nothing gets the same records alone as in the full pass
    names = [a.name for a in cfg.algorithms]
    noncoop = cfg.algorithms[names.index("noncoop-lms")]
    assert (noncoop.share_data, noncoop.shares_phi) == (False, False)
    monkeypatch.undo()
    assert_same_result(full[names.index("noncoop-lms")],
                       simulate_runs(problem, noncoop, runs, iterations))


def test_diverged_variant_freezes_nobody_else():
    problem = make_problem()
    bad = AlgorithmSpec("bad", step_size=50.0)
    stable = VARIANTS[1]
    res_bad, res_stable = simulate_group(problem, (bad, stable), [0, 1], 60,
                                         record_per_node=True)
    assert (res_bad.diverged_at >= 0).all()
    assert (res_stable.diverged_at == -1).all()
    assert_same_result(res_stable, simulate_runs(problem, stable, [0, 1], 60,
                                                 record_per_node=True))
    assert_same_result(res_bad, simulate_runs(problem, bad, [0, 1], 60,
                                              record_per_node=True))


def noise_set(sigma_a2, switch=12, c=0.05):
    """make_problem's noise phases at another base variance."""
    gauss, mixed = GmmSpec(0.0, sigma_a2, 0.0), GmmSpec(c, sigma_a2, 10.0)
    return ((0, LinkNoiseSpec(gauss, gauss, gauss)),
            (switch, LinkNoiseSpec(mixed, mixed, mixed)))


def test_group_keeps_input_order_across_noise_sets():
    # variants on three noise sets, interleaved, so that grouping them by
    # set reorders them: each result is still the one its algorithm gets
    # alone on a problem with its noise phases, returned in input order
    problem = make_problem()
    assert noise_set(0.04) == problem.noise_phases
    algos = [VARIANTS[1], VARIANTS[6], VARIANTS[0], VARIANTS[5], VARIANTS[7]]
    sets = [noise_set(0.01), noise_set(0.0), noise_set(0.01),
            problem.noise_phases, noise_set(0.0)]
    results = simulate_group(problem, algos, [0, 2], 40, noise_phases=sets)
    assert len(results) == len(algos)
    for algo, phases, res in zip(algos, sets, results):
        alone = replace(problem, noise_phases=phases)
        assert_same_result(res, simulate_runs(alone, algo, [0, 2], 40))
    # sigma_a2 = 0 turns tls_ok off for its own set only: ac-dmtc there
    # runs LMS on its cross links, and so does a twin with that estimator
    lms_twin = replace(VARIANTS[6], estimator="lms", zeta2=None)
    zero, = simulate_group(problem, [lms_twin], [0, 2], 40,
                           noise_phases=[noise_set(0.0)])
    assert_same_result(results[1], zero)


@pytest.mark.parametrize("phases", [noise_set(0.04, switch=13),
                                    noise_set(0.04, c=0.02),
                                    noise_set(0.04, c=0.0)],
                         ids=["start", "c", "gaussian"])
def test_group_refuses_phases_that_read_other_draws(phases):
    problem = make_problem()
    with pytest.raises(InvalidArgumentError, match="outlier probabilit"):
        simulate_group(problem, [VARIANTS[1]] * 2, [0], 20,
                       noise_phases=[problem.noise_phases, phases])
    with pytest.raises(InvalidArgumentError, match="outlier probabilit"):
        simulate_group(problem, [VARIANTS[1]], [0], 20,
                       noise_phases=[phases])


def read_ahead_passes(monkeypatch, problem, algos, runs, iterations,
                      noise_phases=None, k=4):
    """The results of the pass with k iterations of normals read ahead
    per fill and of the pass with none, and the fill sizes of the first."""
    n_normals = _Drawer(problem).n_normals
    fills, normals = [], _Drawer._normals

    def spy(self, rngs, mixed):
        out = normals(self, rngs, mixed)
        if self.pos == 1:
            fills[-1].append(self.ahead.shape[1])
        return out
    monkeypatch.setattr(_Drawer, "_normals", spy)
    one = 8 * len(runs) * n_normals
    results = []
    for budget in (k * one + one - 1, one):
        monkeypatch.setattr(simulate, "READ_AHEAD_BYTES", budget)
        fills.append([])
        results.append(simulate_group(problem, algos, runs, iterations,
                                      noise_phases=noise_phases))
    assert fills[1] == [1] * iterations
    return results, fills[0]


def test_read_ahead_is_bit_exact_across_the_mixture_switch(monkeypatch):
    # fig1 with its mixture phase from iteration 6, inside the second
    # block of four: the block stops short of it, and the mixture
    # iterations, which draw uniforms, fill one iteration each
    fig1 = os.path.join(os.path.dirname(__file__), "..", "presets", "fig1.cfg")
    cfg = parse_config(fig1, (("noise.after.switch_iteration", 6),))
    problem = cfg.build_problem()
    (ahead, single), fills = read_ahead_passes(
        monkeypatch, problem, cfg.algorithms, [0, 3, 4], 12)
    assert fills == [4, 2] + [1] * 6
    for a, b in zip(ahead, single):
        assert_same_result(a, b)


def test_read_ahead_is_bit_exact_on_a_sweep(monkeypatch):
    # fig2a's five swept noise sets in one pass, the mixture phase from
    # iteration 6; the last Gaussian block ends at the pass's end when
    # the pass stops first
    fig2a = os.path.join(os.path.dirname(__file__), "..", "presets",
                         "fig2a.cfg")
    cfg = parse_config(fig2a, (("noise.after.switch_iteration", 6),))
    param, values = cfg.sweep
    subs = [_substitute(cfg, param, v) for v in values]
    algos = [a for sub in subs for a in sub.algorithms]
    sets = [sub.noise_phases for sub in subs for _ in sub.algorithms]
    assert len(set(sets)) == 5
    problem = cfg.build_problem()
    for iterations, first in ((9, [4, 2, 1, 1, 1]), (3, [3])):
        (ahead, single), fills = read_ahead_passes(
            monkeypatch, problem, algos, [1, 2], iterations,
            noise_phases=sets)
        assert fills == first
        for a, b in zip(ahead, single):
            assert_same_result(a, b)


def exact_divergence_rule(states, h):
    """diverged_at, the sq_net record and the final state of a pass whose
    variant proposes these states, by the node-norm rule: a run diverges
    at the first proposal with a node norm past DIVERGENCE_NORM or not
    finite, and keeps its last good state from then on."""
    W = np.zeros_like(states[0])
    active = np.ones(W.shape[0], dtype=bool)
    diverged_at = np.full(W.shape[0], -1)
    record = []
    for i, W_new in enumerate(states):
        ok = (np.einsum("rnl,rnl->rn", W_new, W_new).max(axis=1)
              <= DIVERGENCE_NORM**2)
        diverged_at[active & ~ok] = i
        active &= ok
        W = np.where(active[:, None, None], W_new, W)
        diff = W - h
        record.append(np.einsum("rnl,rnl->rn", diff, diff).sum(axis=1))
    return diverged_at, np.stack(record, axis=1), W


@pytest.mark.parametrize("values", [
    [0.0, np.nextafter(DIVERGENCE_NORM, np.inf)],
    [0.0, 999_999.5, -999_999.9],
    [0.0, 2e6, np.inf, np.nan, 999_999.5],
], ids=["rounding", "outside-safe-radius", "past-the-bound"])
def test_divergence_follows_the_node_norm_rule(values):
    # one node of each run proposes a crafted value, the others h. With
    # h = 2^-34, nextafter(1e6) sits exactly at 1e6 from h after
    # rounding, though its own norm is past 1e6: only the slack in the
    # safe radius sends it to the node-norm rule
    graph = generate_random_graph(5, 3, seed=3)
    h = np.array([2.0**-34])
    problem = NetworkProblem(graph, h, metropolis_weights(graph),
                             ((0, LinkNoiseSpec()),))
    R = len(values)
    states = [np.full((R, 5, 1), h[0]) for _ in range(2)]
    states[0][:, 2, 0] = values
    v = _Variant(problem, VARIANTS[1], R, 2, record_per_node=False)
    for i, W_new in enumerate(states):
        v.record(i, W_new.copy())
    diverged_at, sq_net, W = exact_divergence_rule(states, h)
    assert (v.diverged_at == diverged_at).all()
    assert v.sq_net.tobytes() == sq_net.tobytes()
    assert v.W.tobytes() == W.tobytes()


def test_divergence_in_a_pass_follows_the_node_norm_rule(monkeypatch):
    # |h| = 6e5, so every run starts outside the safe radius. dlms
    # converges without diverging; a noncooperative node past the LMS
    # stability bound diverges in some runs, at run-dependent
    # iterations; two neighbours of node 0 with a step of 1e303 go to
    # inf, and node 0 combines them to nan where their signs differ
    problem = replace(make_problem(gmm_after=False),
                      h=H * 6e5 / np.linalg.norm(H))
    nbrs = np.flatnonzero(problem.graph.closed[0])[1:3]
    huge = np.full(5, 0.1)
    huge[nbrs] = 1e303
    algos = [VARIANTS[1],
             AlgorithmSpec("shaky", share_data=False, share_weights=False,
                           step_size=[0.1, 0.1, 0.4, 0.1, 0.1]),
             AlgorithmSpec("overflow", step_size=list(huge))]
    proposed = {a.name: [] for a in algos}
    record = _Variant.record

    def spy(self, i, W_new):
        proposed[self.algo.name].append(W_new.copy())
        return record(self, i, W_new)
    monkeypatch.setattr(_Variant, "record", spy)
    runs = list(range(8))
    results = simulate_group(problem, algos, runs, 40)
    for algo, res in zip(algos, results):
        diverged_at, sq_net, W = exact_divergence_rule(proposed[algo.name],
                                                       problem.h)
        assert (res.diverged_at == diverged_at).all()
        assert res.sq_net.tobytes() == sq_net.tobytes()
        assert res.final_w.tobytes() == W.tobytes()
    stable, shaky, overflow = results
    assert (stable.diverged_at == -1).all()
    assert (shaky.diverged_at > 0).any() and (shaky.diverged_at == -1).any()
    assert (overflow.diverged_at == 0).all()
    first = proposed["overflow"][0][:, 0]
    assert np.isnan(first).any(axis=1).any()
    assert np.isinf(first).any(axis=1).any()
