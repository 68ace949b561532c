import numpy as np
import pytest

from difflab.config import ExperimentConfig
from difflab.engine import AlgorithmSpec, KernelSchedule
from difflab.errors import EmptyEnsembleError, InvalidArgumentError
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

H = (0.4, 0.7, -0.3, 0.5)
GAUSS = GmmSpec(0.0, 0.04, 0.0)
MIXED = GmmSpec(0.01, 0.04, 10.0)


def make_config(algorithms=None, runs=6, iterations=40, noise=None,
                noise_after=None, switch=0, **kw):
    if algorithms is None:
        algorithms = (AlgorithmSpec("dlms", step_size=0.1),)
    if noise is None:
        noise = LinkNoiseSpec(x=GAUSS, y=GAUSS, phi=GAUSS,
                              obs_var=np.array([0.1]))
    return ExperimentConfig(
        n_nodes=5, h=H, algorithms=tuple(algorithms), noise=noise,
        noise_after=noise_after, noise_switch_iteration=switch,
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


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("DIFFLAB_THREADS", "3")
    assert worker_count() == 3
    assert worker_count(8) == 3
    monkeypatch.delenv("DIFFLAB_THREADS")
    assert worker_count(2) == 2


def test_curves_independent_of_worker_count():
    cfg = make_config(runs=40, iterations=20)
    serial = monte_carlo_msd(cfg, n_jobs=1)["dlms"]
    parallel = monte_carlo_msd(cfg, n_jobs=2)["dlms"]
    assert (serial.msd_linear == parallel.msd_linear).all()
    assert serial.runs_used == parallel.runs_used == 40


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
    noise = LinkNoiseSpec(obs_var=np.array([0.0]))
    cfg = make_config(runs=2, iterations=600, noise=noise)
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
    noise_after = LinkNoiseSpec(x=MIXED, y=MIXED, phi=MIXED,
                                obs_var=np.array([0.1]))
    cfg = make_config(noise_after=noise_after, switch=20)
    out = _substitute(cfg, "sigma_a2", 0.16)
    for spec in (out.noise, out.noise_after):
        for name in ("x", "y", "phi"):
            assert getattr(spec, name).sigma_a2 == 0.16
    assert out.noise_after.x.sigma_b2 == 10.0  # untouched
    out_b = _substitute(cfg, "sigma_b2", 20.0)
    assert out_b.noise_after.phi.sigma_b2 == 20.0
    assert out_b.noise.x.sigma_a2 == 0.04


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
    assert [r.value for r in rows] == [0.01, 0.16]
    for r in rows:
        assert set(r.steady_db) == {"dlms"}
        assert r.diverged["dlms"] == 0
    # more link noise hurts the data-sharing algorithm
    assert rows[1].steady_db["dlms"] > rows[0].steady_db["dlms"]
    with pytest.raises(InvalidArgumentError):
        sweep(cfg, "sigma_a2", [], n_jobs=1)


def test_theory_inputs_shapes_and_gammas():
    mtc = AlgorithmSpec("mtc", estimator="mtc", step_size=0.045,
                        zeta2=KernelSchedule(1e4, 0.2, 8))
    cfg = make_config(algorithms=(mtc,))
    ti = theory_inputs(cfg, mtc)
    n = cfg.n_nodes
    assert ti.A.shape == (n, n)
    adj = cfg.build_graph().adjacency_matrix()
    expect_gamma = np.where(adj, (0.1 + 0.04) / 0.04, 0.0)
    assert np.allclose(ti.gamma, expect_gamma)
    assert (ti.zeta2 == 0.2).all()
    nds = AlgorithmSpec("nds", share_data=False, share_weights=False)
    ti2 = theory_inputs(cfg, nds)
    assert np.allclose(ti2.A, np.eye(n))
    assert np.allclose(ti2.C, np.eye(n))


def test_theory_vs_simulation_rejections():
    mixed_noise = LinkNoiseSpec(x=MIXED, y=GAUSS, phi=GAUSS,
                                obs_var=np.array([0.1]))
    cfg = make_config(noise=mixed_noise)
    with pytest.raises(InvalidArgumentError):
        theory_vs_simulation(cfg)

    adaptive = AlgorithmSpec("ac", adaptive_combination=True, step_size=0.1)
    with pytest.raises(InvalidArgumentError):
        theory_vs_simulation(make_config(algorithms=(adaptive,)))

    with pytest.raises(InvalidArgumentError):
        theory_vs_simulation(make_config(), algo_name="nope")

    huge = AlgorithmSpec("huge", estimator="mtc", step_size=5.0,
                         zeta2=KernelSchedule(1e4, 0.2, 8))
    with pytest.raises(InvalidArgumentError):
        theory_vs_simulation(make_config(algorithms=(huge,)))


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
    noise_after = LinkNoiseSpec(x=MIXED, y=MIXED, phi=MIXED,
                                obs_var=np.array([0.1]))
    cfg = make_config(runs=20, iterations=400, noise_after=noise_after,
                      switch=200)
    curve = monte_carlo_msd(cfg, n_jobs=1)["dlms"]
    before = 10 * np.log10(curve.msd_linear[150:200].mean())
    after = 10 * np.log10(curve.msd_linear[350:].mean())
    assert after > before + 3.0
