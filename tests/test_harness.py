import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from difflab import harness
from difflab.config import ExperimentConfig, parse_config
from difflab.engine import AlgorithmSpec, KernelSchedule
from difflab.errors import (
    EmptyEnsembleError,
    InvalidArgumentError,
    UnmodeledCaseError,
)
from difflab.harness import (
    LearningCurve,
    _substitute,
    convergence_iteration,
    monte_carlo_msd,
    steady_state_estimate,
    sweep,
    theory_inputs,
    theory_vs_simulation,
    worker_count,
)
from difflab.noise import GmmSpec, LinkNoiseSpec
from difflab.simulate import NetworkProblem, _Drawer, simulate_runs

H = (0.4, 0.7, -0.3, 0.5)
GAUSS = GmmSpec(0.0, 0.04, 0.0)
MIXED = GmmSpec(0.01, 0.04, 10.0)


def make_config(algorithms=None, runs=6, iterations=40, noise=None,
                noise_after=None, switch=0, observation_variance=0.1, **kw):
    if algorithms is None:
        algorithms = (AlgorithmSpec("dlms", step_size=0.1),)
    if noise is None:
        noise = LinkNoiseSpec(x=GAUSS, y=GAUSS, phi=GAUSS)
    phases = ((0, noise),) + (((switch, noise_after),) if noise_after else ())
    return ExperimentConfig(
        n_nodes=5, h=H, algorithms=tuple(algorithms), noise_phases=phases,
        observation_variance=observation_variance,
        avg_degree=3.0, graph_seed=3, iterations=iterations,
        monte_carlo_runs=runs, seed=99, **kw,
    )


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        make_config(iterations=0)
    with pytest.raises(InvalidArgumentError):
        make_config(runs=0)
    with pytest.raises(InvalidArgumentError):
        make_config(algorithms=())
    with pytest.raises(InvalidArgumentError):
        make_config(algorithms=(AlgorithmSpec("a"), AlgorithmSpec("a")))


def test_curves_independent_of_worker_count():
    # 37 runs: no range size divides them, so every split is uneven; the
    # step size of "wild" makes some of its runs diverge
    wild = AlgorithmSpec("wild", step_size=1.4)
    ac = AlgorithmSpec("ac", adaptive_combination=True, share_weights=False,
                       step_size=0.1)
    cfg = make_config(algorithms=(wild, ac), runs=37, iterations=80)
    problem = cfg.build_problem()
    res = simulate_runs(problem, wild, list(range(37)), 80,
                        record_per_node=True)
    good = np.flatnonzero(res.diverged_at < 0)
    assert 0 < good.size < 37
    ref, ref_node = np.zeros(80), np.zeros((80, cfg.n_nodes))
    for r in good:
        ref += res.sq_net[r]
        ref_node += res.sq_node[r]
    ref /= good.size * cfg.n_nodes
    ref_node /= good.size

    def fields(curve):
        return (curve.msd_linear.tobytes(), curve.runs_used,
                curve.diverged_runs, curve.beta_sum_err)

    cases = [monte_carlo_msd(cfg, n_jobs=j, per_node=p)
             for p in (False, True) for j in (1, 2, 3)]
    for name in ("wild", "ac"):
        assert len({fields(c[name]) for c in cases}) == 1
        assert len({c[name].per_node.tobytes() for c in cases[3:]}) == 1
    assert (cases[0]["wild"].msd_linear == ref).all()
    assert (cases[3]["wild"].per_node == ref_node).all()
    assert cases[0]["wild"].runs_used == good.size
    assert cases[0]["ac"].beta_sum_err > 0.0
    assert worker_count(2) == 2


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs here."""

    def __init__(self, made, max_workers):
        self.max_workers = max_workers
        self.closed = False
        made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_one_pool_per_call_capped_at_task_count(monkeypatch):
    made = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: InProcessPool(made, max_workers))
    # "c" shares no data; a task carries all three algorithms
    algos = (AlgorithmSpec("a", step_size=0.1),
             AlgorithmSpec("c", share_data=False, step_size=0.1),
             AlgorithmSpec("b", step_size=0.05))
    # 40 runs: ceil(40 / 16) = 3 ranges, one task each
    cfg = make_config(algorithms=algos, runs=40, iterations=20)
    pooled = monte_carlo_msd(cfg, n_jobs=64)
    assert [p.max_workers for p in made] == [3]
    assert made[0].closed
    assert list(pooled) == ["a", "c", "b"]
    serial = monte_carlo_msd(cfg, n_jobs=1)
    assert len(made) == 1
    for name in ("a", "b", "c"):
        assert (pooled[name].msd_linear == serial[name].msd_linear).all()
    # one algorithm, one range: no pool at all
    monte_carlo_msd(make_config(runs=6), n_jobs=8)
    assert len(made) == 1


def test_one_stream_per_group_and_run(monkeypatch):
    # fig1's seven algorithms advance in one pass, which opens each
    # run's stream once
    opened = []
    run_rng = NetworkProblem.run_rng

    def counting(self, run_index):
        opened.append(run_index)
        return run_rng(self, run_index)
    monkeypatch.setattr(NetworkProblem, "run_rng", counting)
    fig1 = os.path.join(os.path.dirname(__file__), "..", "presets", "fig1.cfg")
    cfg = parse_config(fig1, (("simulation.runs", 3),
                              ("simulation.iterations", 5)))
    curves = monte_carlo_msd(cfg, n_jobs=1)
    assert list(curves) == [a.name for a in cfg.algorithms]
    assert len(cfg.algorithms) == 7
    assert sorted(opened) == list(range(3))


def test_per_node_tasks_capped_in_records(monkeypatch):
    # 7 algorithms x 9 runs is the most records under the cap of 64, so
    # 64 per-node runs take 8 tasks of 8 runs; without per-node records
    # they are one 64-run task
    ranges = []
    simulate_group = harness.simulate_group

    def recording(problem, algos, run_indices, *args, **kw):
        ranges.append((len(algos), list(run_indices)))
        return simulate_group(problem, algos, run_indices, *args, **kw)
    monkeypatch.setattr(harness, "simulate_group", recording)
    fig1 = os.path.join(os.path.dirname(__file__), "..", "presets", "fig1.cfg")
    cfg = parse_config(fig1, (("simulation.runs", 64),
                              ("simulation.iterations", 3)))
    monte_carlo_msd(cfg, n_jobs=1, per_node=True)
    assert harness.MAX_TASK_RUNS_PER_NODE == 64
    assert [n for n, _ in ranges] == [7] * 8
    assert [r for _, r in ranges] == [list(range(lo, lo + 8))
                                      for lo in range(0, 64, 8)]
    ranges.clear()
    monte_carlo_msd(cfg, n_jobs=1)
    assert ranges == [(7, list(range(64)))]


def test_all_diverged_in_pool_raises_and_shuts_pool_down(monkeypatch):
    made = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            made.append(self)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    algos = (AlgorithmSpec("hopeless", step_size=50.0),
             AlgorithmSpec("dlms", step_size=0.1))
    cfg = make_config(algorithms=algos, runs=20, iterations=60)
    with pytest.raises(EmptyEnsembleError, match="hopeless"):
        monte_carlo_msd(cfg, n_jobs=2)
    assert len(made) == 1
    with pytest.raises(RuntimeError, match="shutdown"):
        made[0].submit(abs, -1)


def test_diverged_runs_are_counted_and_excluded():
    algos = (AlgorithmSpec("wild", step_size=1.4),)
    cfg = make_config(algorithms=algos, runs=30, iterations=80)
    curve = monte_carlo_msd(cfg, n_jobs=1)["wild"]
    assert curve.diverged_runs > 0
    assert curve.runs_used + curve.diverged_runs == 30
    assert np.isfinite(curve.msd_linear).all()


def test_all_diverged_is_an_error():
    algos = (AlgorithmSpec("hopeless", step_size=50.0),)
    cfg = make_config(algorithms=algos, runs=4, iterations=60)
    with pytest.raises(EmptyEnsembleError):
        monte_carlo_msd(cfg, n_jobs=1)


def test_noiseless_convergence():
    cfg = make_config(runs=2, iterations=600, noise=LinkNoiseSpec(),
                      observation_variance=0.0)
    curve = monte_carlo_msd(cfg, n_jobs=1)["dlms"]
    assert curve.msd_linear[-1] < 1e-10


def fake_curve(values):
    return LearningCurve("x", np.asarray(values, dtype=float), 1, 0)


def test_steady_state_estimate_closed_forms():
    assert steady_state_estimate(fake_curve(np.full(100, 0.01))) \
        == pytest.approx(-20.0)
    # harmonic tail: last 10 of 1/(i+1), i = 0..99
    vals = 1.0 / np.arange(1, 101)
    expect = 10 * np.log10(vals[-10:].mean())
    assert steady_state_estimate(fake_curve(vals)) == pytest.approx(expect)
    # tail_fraction=1 averages everything
    assert steady_state_estimate(fake_curve([1.0, 0.01]), 1.0) \
        == pytest.approx(10 * np.log10(0.505))
    assert steady_state_estimate(fake_curve(np.zeros(10))) == -np.inf
    with pytest.raises(InvalidArgumentError):
        steady_state_estimate(fake_curve([1.0]), 0.0)
    with pytest.raises(InvalidArgumentError):
        steady_state_estimate(fake_curve([]))


def test_convergence_iteration():
    # 30 dB start decaying 1 dB per iteration to a -10 dB floor
    db = np.maximum(30.0 - np.arange(200), -10.0)
    curve = fake_curve(10 ** (db / 10))
    # threshold is steady (-10) + margin (3): first iteration at -7 dB
    assert convergence_iteration(curve, margin_db=3.0) == 37
    flat = fake_curve(np.full(50, 0.1))
    assert convergence_iteration(flat) == 0
    rising = fake_curve(np.full(50, 1e-9))
    assert convergence_iteration(rising) == 0


def test_substitute_sigma_sweeps_all_channels():
    noise_after = LinkNoiseSpec(x=MIXED, y=MIXED, phi=MIXED)
    cfg = make_config(noise_after=noise_after, switch=20)
    out = _substitute(cfg, "sigma_a2", 0.16)
    assert [start for start, _ in out.noise_phases] == [0, 20]
    for _, spec in out.noise_phases:
        for name in ("x", "y", "phi"):
            assert getattr(spec, name).sigma_a2 == 0.16
    assert out.noise_phases[1][1].x.sigma_b2 == 10.0  # untouched
    (_, first), (_, after) = _substitute(cfg, "sigma_b2", 20.0).noise_phases
    assert after.phi.sigma_b2 == 20.0
    assert first.x.sigma_a2 == 0.04


def test_substitute_zeta2_coscales_step_size():
    # the total-correntropy gradient scales as 1/zeta2; the sweep holds
    # the effective gradient magnitude fixed by co-scaling the step
    mtc = AlgorithmSpec("mtc", estimator="mtc", step_size=0.045,
                        zeta2=KernelSchedule(1e4, 0.2, 8))
    lms = AlgorithmSpec("dlms", step_size=0.1)
    cfg = make_config(algorithms=(mtc, lms))
    out = _substitute(cfg, "zeta2", 1.0)
    patched = dict((a.name, a) for a in out.algorithms)
    assert patched["mtc"].zeta2.final == 1.0
    assert patched["mtc"].zeta2.initial == 1e4
    assert patched["mtc"].step_size == pytest.approx(0.045 * 5.0)
    assert patched["dlms"].step_size == 0.1  # untouched, no kernel
    with pytest.raises(InvalidArgumentError):
        _substitute(cfg, "mu", 0.1)


def test_sweep_rows_sorted_and_complete():
    cfg = make_config(runs=4, iterations=30)
    rows = sweep(cfg, "sigma_a2", [0.16, 0.01], n_jobs=1)
    assert [v for v, _ in rows] == [0.01, 0.16]
    for _, curves in rows:
        assert set(curves) == {"dlms"}
        assert curves["dlms"].diverged_runs == 0
    # more link noise hurts the data-sharing algorithm
    steady = [steady_state_estimate(c["dlms"]) for _, c in rows]
    assert steady[1] > steady[0]
    with pytest.raises(InvalidArgumentError):
        sweep(cfg, "sigma_a2", [], n_jobs=1)


def test_sweep_equals_one_config_per_value():
    # 0 and a repeated value among the swept ones, on two workers: each
    # value's curves are those of its own config, bit for bit. At 0 the
    # input channel is noiseless for that value only, so mtc falls back
    # to LMS there and equals its LMS twin, and nowhere else
    mtc = AlgorithmSpec("mtc", estimator="mtc", step_size=0.045,
                        zeta2=KernelSchedule(1e4, 0.2, 8))
    twin = replace(mtc, name="twin", estimator="lms", zeta2=None)
    cfg = make_config(algorithms=(mtc, twin), runs=20, iterations=40,
                      noise_after=LinkNoiseSpec(x=MIXED, y=MIXED, phi=MIXED),
                      switch=20)
    rows = sweep(cfg, "sigma_a2", [0.04, 0.0, 0.01, 0.04], n_jobs=2)
    assert [v for v, _ in rows] == [0.0, 0.01, 0.04, 0.04]
    for v, curves in rows:
        alone = monte_carlo_msd(_substitute(cfg, "sigma_a2", v), n_jobs=1)
        assert list(curves) == ["mtc", "twin"]
        for name, curve in curves.items():
            assert curve.msd_linear.tobytes() == \
                alone[name].msd_linear.tobytes()
            assert (curve.runs_used, curve.diverged_runs) == \
                (alone[name].runs_used, alone[name].diverged_runs)
        same = (curves["mtc"].msd_linear.tobytes()
                == curves["twin"].msd_linear.tobytes())
        assert same == (v == 0.0)


@pytest.mark.parametrize("preset, n_sets", [("fig2a.cfg", 5),
                                            ("fig3.cfg", 1)])
def test_sweep_draws_once_per_run_and_iteration(monkeypatch, preset,
                                                n_sets):
    # one pass for the whole sweep: each run's stream is opened once, the
    # problem is built once, and each iteration draws once and scales the
    # draw once per swept noise set (a zeta2 sweep has one)
    opened, built, scaled = [], [], []
    run_rng, draw = NetworkProblem.run_rng, _Drawer.draw
    build_problem = ExperimentConfig.build_problem

    def counting_rng(self, run_index):
        opened.append(run_index)
        return run_rng(self, run_index)

    def counting_draw(self, rngs, phases):
        scaled.append(len(phases))
        return draw(self, rngs, phases)

    def counting_build(self):
        built.append(self)
        return build_problem(self)
    monkeypatch.setattr(NetworkProblem, "run_rng", counting_rng)
    monkeypatch.setattr(_Drawer, "draw", counting_draw)
    monkeypatch.setattr(ExperimentConfig, "build_problem", counting_build)
    path = os.path.join(os.path.dirname(__file__), "..", "presets", preset)
    cfg = parse_config(path, (("simulation.runs", 3),
                              ("simulation.iterations", 5)))
    param, values = cfg.sweep
    rows = sweep(cfg, param, values, n_jobs=1)
    assert [v for v, _ in rows] == sorted(values)
    assert sorted(opened) == [0, 1, 2]
    assert len(built) == 1
    assert scaled == [n_sets] * 5


def test_sweep_simulates_each_distinct_variant_once(monkeypatch):
    # a variant is an algorithm and its noise phases, and the phases do
    # not count for an algorithm that reads no link channel: noncoop-lms
    # in a sigma_a2 sweep, every algorithm without a zeta2 schedule in a
    # zeta2 sweep, every algorithm at a repeated value
    handed = []
    simulate_group = harness.simulate_group

    def counting(problem, algos, *args, **kw):
        handed.append(len(algos))
        return simulate_group(problem, algos, *args, **kw)
    monkeypatch.setattr(harness, "simulate_group", counting)
    presets = os.path.join(os.path.dirname(__file__), "..", "presets")
    small = (("simulation.runs", 2), ("simulation.iterations", 5))
    fig1 = parse_config(os.path.join(presets, "fig1.cfg"), small)
    fig2a = parse_config(os.path.join(presets, "fig2a.cfg"), small)
    fig3 = parse_config(os.path.join(presets, "fig3.cfg"), small)
    for cfg, param, values, simulated in (
            (fig1, "zeta2", [0.05, 0.2, 1.0], 5 + 2 * 3),
            (fig2a, "sigma_a2", fig2a.sweep[1], 1 + 6 * 5),
            (fig3, "zeta2", [0.2, 0.2], 1)):
        handed.clear()
        sweep(cfg, param, values, n_jobs=1)
        assert handed == [simulated]
    # the shared curves are those of one config per value, bit for bit
    noncoop = AlgorithmSpec("noncoop", share_data=False, share_weights=False,
                            step_size=0.1)
    dlms = AlgorithmSpec("dlms", step_size=0.1)
    cfg = make_config(algorithms=(noncoop, dlms), runs=4, iterations=30)
    handed.clear()
    rows = sweep(cfg, "sigma_a2", [0.16, 0.01, 0.16], n_jobs=1)
    assert handed == [1 + 2]
    for v, curves in rows:
        alone = monte_carlo_msd(_substitute(cfg, "sigma_a2", v), n_jobs=1)
        for name, curve in curves.items():
            assert curve.msd_linear.tobytes() == \
                alone[name].msd_linear.tobytes()


def test_only_run_records_per_node(monkeypatch):
    # sweep and compare read no per-node curve, so they hand the pool no
    # per-node task; monte_carlo_msd with per_node does
    made, flags = [], []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: InProcessPool(made, max_workers))
    simulate_group = harness.simulate_group

    def recording(problem, algos, run_indices, iterations, record_per_node,
                  *args):
        flags.append(record_per_node)
        return simulate_group(problem, algos, run_indices, iterations,
                              record_per_node, *args)
    monkeypatch.setattr(harness, "simulate_group", recording)
    dmtc = AlgorithmSpec("dmtc", estimator="mtc", step_size=0.045,
                         zeta2=KernelSchedule(1e4, 0.2, 8))
    cfg = make_config(algorithms=(dmtc,), runs=32, iterations=20)
    sweep(cfg, "sigma_a2", [0.01, 0.04], n_jobs=2)
    theory_vs_simulation(cfg, n_jobs=2)
    assert flags == [False] * 4 and len(made) == 2
    flags.clear()
    assert monte_carlo_msd(cfg, n_jobs=2,
                           per_node=True)["dmtc"].per_node is not None
    assert flags == [True] * 2 and len(made) == 3


def test_sweep_all_diverged_names_first_value_then_algorithm():
    # the zeta2 sweep co-scales each step size, and on a noiseless input
    # channel mtc adapts with LMS, so the kernel is not read; "fast"
    # diverges on every run from 100 up and "slow" from 1000: the error
    # names the first swept value in sorted order, then the first
    # algorithm in config order
    kernel = KernelSchedule(1.0, 1.0, 0)
    cfg = make_config(runs=4, iterations=60, algorithms=(
        AlgorithmSpec("slow", estimator="mtc", step_size=0.01, zeta2=kernel),
        AlgorithmSpec("fast", estimator="mtc", step_size=0.1, zeta2=kernel)),
        noise=LinkNoiseSpec(x=GmmSpec(), y=GAUSS, phi=GAUSS))
    with pytest.raises(EmptyEnsembleError, match="'fast'"):
        sweep(cfg, "zeta2", [1000.0, 1.0, 100.0], n_jobs=1)
    with pytest.raises(EmptyEnsembleError, match="'slow'"):
        sweep(cfg, "zeta2", [2000.0, 1000.0], n_jobs=1)


def test_tasks_in_whole_rounds_of_workers(monkeypatch):
    # fig2a's sweep simulates 31 distinct variants: 896 run-variants a
    # task is 28 runs, so its 50 runs are one task per worker (2 x 25),
    # and 60 runs take 4 tasks, two for each of 2 workers, not 3. fig1's
    # seven algorithms keep 2 x 64 runs, and one algorithm 2 x 32
    made, ranges = [], []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: InProcessPool(made, max_workers))
    simulate_group = harness.simulate_group

    def recording(problem, algos, run_indices, *args, **kw):
        ranges.append(len(run_indices))
        return simulate_group(problem, algos, run_indices, *args, **kw)
    monkeypatch.setattr(harness, "simulate_group", recording)
    presets = os.path.join(os.path.dirname(__file__), "..", "presets")
    for runs, split in ((50, [25, 25]), (60, [15, 15, 15, 15])):
        ranges.clear()
        fig2a = parse_config(os.path.join(presets, "fig2a.cfg"),
                             (("simulation.iterations", 2),
                              ("simulation.runs", runs)))
        sweep(fig2a, *fig2a.sweep, n_jobs=2)
        assert ranges == split
    assert harness.MAX_TASK_RUNS == 896
    for name, runs, split in (("fig1.cfg", 128, [64, 64]),
                              ("compare.cfg", 64, [32, 32])):
        ranges.clear()
        cfg = parse_config(os.path.join(presets, name),
                           (("simulation.iterations", 2),
                            ("simulation.runs", runs)))
        monte_carlo_msd(cfg, n_jobs=2)
        assert ranges == split
    assert [p.max_workers for p in made] == [2] * 4


def test_theory_inputs_shapes_and_gammas():
    mtc = AlgorithmSpec("mtc", estimator="mtc", step_size=0.045,
                        zeta2=KernelSchedule(1e4, 0.2, 8))
    # a louder second phase and a non-unit input variance: the inputs
    # take phase one's variances and the problem's input variance
    loud = GmmSpec(0.0, 0.5, 0.0)
    cfg = make_config(algorithms=(mtc,), input_variance=1.5, switch=20,
                      noise_after=LinkNoiseSpec(x=loud, y=loud, phi=loud))
    problem = cfg.build_problem()
    ti = theory_inputs(problem, mtc)
    n = cfg.n_nodes
    assert ti.A.shape == (n, n)
    assert (ti.A == problem.weights).all() and (ti.C == problem.weights).all()
    assert ti.gamma.shape == (n,)
    assert np.allclose(ti.gamma, (0.1 + 0.04) / 0.04)
    assert ti.sigma_x2 == 0.04
    assert ti.input_var.shape == (n,) and (ti.input_var == 1.5).all()
    assert (ti.zeta2 == 0.2).all()
    nds = AlgorithmSpec("nds", share_data=False, share_weights=False)
    ti2 = theory_inputs(problem, nds)
    assert np.allclose(ti2.A, np.eye(n))
    assert np.allclose(ti2.C, np.eye(n))


def test_theory_vs_simulation_rejections():
    # every case is an otherwise-modeled total-correntropy algorithm, so
    # each refusal is for its own reason
    dmtc = AlgorithmSpec("dmtc", estimator="mtc", step_size=0.045,
                         zeta2=KernelSchedule(1e4, 0.2, 100))
    gauss = LinkNoiseSpec(x=GAUSS, y=GAUSS, phi=GAUSS)
    cases = {
        "mixture_link_noise": make_config(
            algorithms=(dmtc,), noise=replace(gauss, x=MIXED)),
        "adaptive_combination": make_config(algorithms=(
            replace(dmtc, adaptive_combination=True),)),
        "cross_link_estimator": make_config(algorithms=(
            replace(dmtc, estimator="lms", zeta2=None),)),
        "noiseless_input_channel": make_config(
            algorithms=(dmtc,), noise=replace(gauss, x=GmmSpec())),
        "noise_after": make_config(algorithms=(dmtc,), noise_after=gauss,
                                   switch=20),
        "step_size": make_config(algorithms=(replace(dmtc, step_size=5.0),)),
    }
    for reason, cfg in cases.items():
        with pytest.raises(UnmodeledCaseError, match=reason):
            theory_vs_simulation(cfg)
    with pytest.raises(InvalidArgumentError, match="no algorithm named"):
        theory_vs_simulation(make_config(algorithms=(dmtc,)), algo_name="nope")


def test_closed_form_unstable_carries_rho():
    dmtc = AlgorithmSpec("dmtc", estimator="mtc", step_size=5.0,
                         zeta2=KernelSchedule(1e4, 0.2, 100))
    problem = make_config(algorithms=(dmtc,)).build_problem()
    cf = harness.closed_form(problem, dmtc)
    assert cf.prediction is None
    assert cf.rho >= 1.0
    assert (cf.mu_bounds < 5.0).any()
    with pytest.raises(UnmodeledCaseError, match="step_size"):
        harness.closed_form(problem, dmtc, compare=True)
    stable = replace(dmtc, step_size=0.045)
    cf = harness.closed_form(problem, stable)
    assert cf.rho == cf.prediction.rho < 1.0


def test_theory_vs_simulation_small_gaussian():
    # the closed-form analysis models the cross links with the
    # total-correntropy curvature, so it applies to the fixed-C variant
    dmtc = AlgorithmSpec("dmtc", estimator="mtc", step_size=0.045,
                         zeta2=KernelSchedule(1e4, 0.2, 100))
    cfg = make_config(algorithms=(dmtc,), runs=40, iterations=1500)
    report = theory_vs_simulation(cfg, n_jobs=1)
    assert report.algorithm == "dmtc"
    assert report.rho < 1.0
    assert report.diverged_runs == 0
    assert abs(report.gap_db) < 2.0


def test_impulsive_link_noise_degrades_dlms_more_than_steady_gaussian():
    noise_after = LinkNoiseSpec(x=MIXED, y=MIXED, phi=MIXED)
    cfg = make_config(runs=20, iterations=400, noise_after=noise_after,
                      switch=200)
    curve = monte_carlo_msd(cfg, n_jobs=1)["dlms"]
    before = 10 * np.log10(curve.msd_linear[150:200].mean())
    after = 10 * np.log10(curve.msd_linear[350:].mean())
    assert after > before + 3.0
