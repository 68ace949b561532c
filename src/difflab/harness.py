"""Monte Carlo driver: ensembles, learning curves, sweeps, theory comparison.

A scenario is fixed by an ExperimentConfig (defined in `config.py`);
each algorithm is simulated over `monte_carlo_runs` independent
realizations. Every algorithm of a config, or of every value of a
sweep, is a variant of one pass on one draw per run and iteration
(`simulate.simulate_group`); a pool task is one run range carrying every
variant. Diverged realizations are excluded from the averages and
counted, never silently dropped. Each variant's good runs are added to
its ensemble sums one at a time in run-index order, so the curves are
bit-identical however the runs are split into tasks, and whatever the
worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import _SWEEP_PARAMS
from .errors import (EmptyEnsembleError, InstabilityError,
                     InvalidArgumentError, UnmodeledCaseError)
from .noise import gamma_lk
from .simulate import simulate_group
from .theory import (MsdPrediction, TheoryInputs, steady_state_msd,
                     stepsize_upper_bound)

# Runs per pool task. Per-run throughput still grows above MIN_TASK_RUNS,
# so tasks are made no smaller than the workers need: `simulate_group` in
# process at 16, 32 and 64 runs x 1000 iterations (2 vCPU, medians of
# five interleaved passes) ran 74.4k, 88.0k and 89.8k run-iterations/s on
# compare.cfg (N=10), and 112k, 131k and 138k run-variant-iterations/s
# on fig1's seven variants (N=20). The caps bound the records one task
# returns, in runs x variants, since every variant of a task returns its
# own record: (runs, iterations) under MAX_TASK_RUNS, (runs, iterations,
# N) under MAX_TASK_RUNS_PER_NODE.
MIN_TASK_RUNS = 16
MAX_TASK_RUNS = 896
MAX_TASK_RUNS_PER_NODE = 64


@dataclass
class LearningCurve:
    """Network MSD trajectory averaged over the surviving ensemble."""

    name: str
    msd_linear: np.ndarray          # (iterations,)
    runs_used: int
    diverged_runs: int
    per_node: np.ndarray = None     # (iterations, N) if requested
    beta_sum_err: float = 0.0

    @property
    def msd_db(self):
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.msd_linear)


def worker_count(n_jobs=None):
    """n_jobs, which must be at least 1, or the CPU count when None."""
    if n_jobs is None:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise InvalidArgumentError(f"jobs must be at least 1, got {n_jobs}")
    return int(n_jobs)


def _simulated(tasks, workers):
    """simulate_group results of tasks (argument tuples) in task order,
    one at a time; with more than one worker, from one process pool."""
    workers = min(workers, len(tasks))
    if workers < 2:
        yield from map(simulate_group, *zip(*tasks))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(simulate_group, *zip(*tasks))


class _Sums:
    """One algorithm's ensemble sums; add results in run-index order."""

    def __init__(self, iterations, n_nodes, per_node):
        self.sq = np.zeros(iterations)
        self.node = np.zeros((iterations, n_nodes)) if per_node else None
        self.runs = 0
        self.diverged = 0
        self.beta_err = 0.0

    def add(self, res):
        good = np.flatnonzero(res.diverged_at < 0)
        for r in good:
            self.sq += res.sq_net[r]
            if self.node is not None:
                self.node += res.sq_node[r]
        self.runs += res.diverged_at.size
        self.diverged += res.diverged_at.size - good.size
        self.beta_err = max(self.beta_err, res.beta_sum_err)

    def curve(self, name, n_nodes):
        used = self.runs - self.diverged
        if used == 0:
            raise EmptyEnsembleError(f"all {self.runs} runs of {name!r} diverged")
        return LearningCurve(
            name=name,
            msd_linear=self.sq / (used * n_nodes),
            runs_used=used,
            diverged_runs=self.diverged,
            per_node=None if self.node is None else self.node / used,
            beta_sum_err=self.beta_err,
        )


def _ensemble(config, problem, algos, noise_phases=None, n_jobs=None,
              per_node=False):
    """LearningCurves of the `simulate_group` variants (algos[i],
    noise_phases[i]) over config's runs and iterations, in order; with
    per_node, each curve carries its per-node MSD too.

    The runs are split into contiguous run-index ranges of near-equal
    size: one per worker but at most one per MIN_TASK_RUNS runs, and
    more where a range would exceed the task cap, in whole rounds of
    workers so that none idles at the end. A task is every variant over
    one range; the tasks share one process pool.
    """
    runs, iterations = config.monte_carlo_runs, config.iterations
    workers = worker_count(n_jobs)
    cap = max(1, (MAX_TASK_RUNS_PER_NODE if per_node else MAX_TASK_RUNS)
              // len(algos))
    n_ranges = max(math.ceil(runs / cap),
                   min(workers, math.ceil(runs / MIN_TASK_RUNS)))
    if n_ranges > workers:
        n_ranges = min(runs, math.ceil(n_ranges / workers) * workers)
    bounds = [runs * i // n_ranges for i in range(n_ranges + 1)]
    tasks = [(problem, algos, list(range(lo, hi)), iterations, per_node,
              noise_phases)
             for lo, hi in zip(bounds, bounds[1:])]
    n = problem.n_nodes
    sums = [_Sums(iterations, n, per_node) for _ in algos]
    for task_res in _simulated(tasks, workers):
        for total, res in zip(sums, task_res):
            total.add(res)
    return [total.curve(a.name, n) for a, total in zip(algos, sums)]


def monte_carlo_msd(config, n_jobs=None, per_node=False):
    """Learning curves for every configured algorithm, in config order.

    MSD(i) = (1 / (N * runs_used)) * sum_runs sum_k |w_k(i) - h|^2. With
    per_node, the curves carry per-node MSD too.
    """
    return {c.name: c for c in _ensemble(
        config, config.build_problem(), config.algorithms, n_jobs=n_jobs,
        per_node=per_node)}


def steady_state_estimate(curve, tail_fraction=0.1):
    """Mean of the trailing msd_linear samples, in dB."""
    if not 0.0 < tail_fraction <= 1.0:
        raise InvalidArgumentError("tail_fraction must be in (0, 1]")
    n = curve.msd_linear.size
    if n == 0:
        raise InvalidArgumentError("empty learning curve")
    tail = curve.msd_linear[n - math.ceil(tail_fraction * n):]
    mean = float(tail.mean())
    return 10.0 * math.log10(mean) if mean > 0 else -math.inf


def convergence_iteration(curve, margin_db=3.0, tail_fraction=0.1):
    """First iteration where the curve enters steady state + margin (dB)."""
    steady_db = steady_state_estimate(curve, tail_fraction)
    threshold = steady_db + margin_db
    db = curve.msd_db
    below = np.flatnonzero(db <= threshold)
    return int(below[0]) if below.size else curve.msd_linear.size


def _substitute(config, param, value):
    """Return a copy of config with a swept parameter replaced uniformly."""
    if param in ("sigma_a2", "sigma_b2"):
        return replace(config, noise_phases=tuple(
            (start, replace(spec, **{ch: replace(getattr(spec, ch),
                                                 **{param: value})
                                     for ch in ("x", "y", "phi")}))
            for start, spec in config.noise_phases))
    if param == "zeta2":
        # The total-correntropy gradient carries a 1/zeta^2 factor, so a
        # bare kernel sweep would mostly rescale the effective step size.
        # Scaling mu with the swept value keeps the gradient magnitude
        # fixed and isolates the kernel shape, which is what the sweep
        # is meant to probe.
        def patch(a):
            if a.zeta2 is None:
                return a
            scale = value / a.zeta2.final
            mu = np.asarray(a.step_size, dtype=float) * scale
            mu = float(mu) if mu.ndim == 0 else tuple(mu)
            return replace(a, zeta2=replace(a.zeta2, final=value),
                           step_size=mu)
        return replace(config, algorithms=tuple(patch(a)
                                                for a in config.algorithms))
    raise InvalidArgumentError(
        f"unknown sweep parameter {param!r}; use one of {_SWEEP_PARAMS}"
    )


def sweep(config, param, values, n_jobs=None):
    """Learning curves for each swept parameter value, in sorted order:
    a list of (value, {algorithm name: LearningCurve}).

    Each value's algorithms, with its noise phases, are variants of one
    pass, so the problem is built once and each run drawn once. Equal
    variants are simulated once and share one LearningCurve: equal
    algorithms on equal noise phases, or on any phases for an algorithm
    that reads no link channel.
    """
    if not values:
        raise InvalidArgumentError("sweep needs at least one value")
    subs = [_substitute(config, param, v) for v in sorted(values)]
    keys, variants, index = [], [], []
    for sub in subs:
        phases = sub.noise_phases
        for a in sub.algorithms:
            key = (a, phases if a.share_data or a.shares_phi else None)
            if key not in keys:
                keys.append(key)
                variants.append((a, phases))
            index.append(keys.index(key))
    curves = _ensemble(config, config.build_problem(), *zip(*variants),
                       n_jobs=n_jobs)
    picks = iter(index)
    return [(float(v), {a.name: curves[next(picks)]
                        for a in config.algorithms}) for v in sorted(values)]


def theory_inputs(problem, algo):
    """Closed-form analysis inputs for one algorithm on a NetworkProblem.

    The analysis is evaluated at the post-switch kernel value, the
    problem's input variance and its phase-one (Gaussian base) noise
    variances, one per channel on every cross link, so gamma is the
    ratio of each node's outgoing links; A and C are the problem's
    weights (identity when the algorithm shares no data or no weights,
    respectively).
    """
    n = problem.n_nodes
    spec = problem.noise_phases[0][1]
    sx2 = spec.x.sigma_a2
    obs = problem.obs_std() ** 2
    A = problem.weights if algo.share_data else np.eye(n)
    C = problem.weights if algo.share_weights else np.eye(n)
    return TheoryInputs(
        h=problem.h,
        input_var=np.full(n, problem.input_variance),
        A=A,
        C=C,
        mu=algo.step_sizes(n),
        obs_var=obs,
        sigma_x2=sx2,
        sigma_phi2=spec.phi.sigma_a2,
        gamma=(gamma_lk(obs, spec.y.sigma_a2, sx2) if sx2 > 0
               else np.zeros(n)),
        zeta2=algo.zeta2.final if algo.zeta2 is not None else 1.0,
    )


@dataclass(frozen=True)
class ClosedForm:
    """What the closed form gives for one configured algorithm."""

    mu_bounds: np.ndarray             # (N,) largest stable step size per node
    rho: float                        # spectral radius of the mean recursion
    prediction: MsdPrediction = None  # None when rho >= 1


def closed_form(problem, algo, compare=False):
    """Per-node step-size bounds, rho and steady-state MSD of one algorithm
    on a NetworkProblem.

    The one gate for what the closed form models: any other case raises
    UnmodeledCaseError with a one-token reason. compare=True, for a
    comparison with the simulated steady state, also refuses a second
    noise phase and step sizes at or above their bounds, and raises
    InstabilityError where it would return no prediction.
    """
    noise, data = problem.noise_phases[0][1], algo.share_data
    for reason, unmodeled, detail in (
            ("adaptive_combination", algo.adaptive_combination,
             "fixed combination matrices only"),
            ("mixture_link_noise", any(
                g.c > 0.0 and g.sigma_b2 != g.sigma_a2
                for g in (noise.x, noise.y, noise.phi)),
             "pure Gaussian link noise only"),
            ("cross_link_estimator", data and algo.estimator != "mtc",
             "total-correntropy (mtc) cross links only"),
            ("noiseless_input_channel", data and noise.x.sigma_a2 == 0.0,
             "the simulator runs LMS on these cross links"),
            ("noise_after", compare and len(problem.noise_phases) > 1,
             "noise phase one only; the simulation ends in the last phase")):
        if unmodeled:
            raise UnmodeledCaseError(reason, detail)
    ti = theory_inputs(problem, algo)
    bounds = stepsize_upper_bound(ti)
    if compare and (ti.mu >= bounds).any():
        k = int(np.argmax(ti.mu >= bounds))
        raise UnmodeledCaseError("step_size", f"step size {ti.mu[k]:.4g} at "
                                 f"node {k} exceeds the bound {bounds[k]:.4g}")
    try:
        prediction = steady_state_msd(ti)
    except InstabilityError as exc:
        if compare:
            raise
        return ClosedForm(bounds, exc.rho)
    return ClosedForm(bounds, prediction.rho, prediction)


@dataclass
class CompareReport:
    """Theory vs Monte Carlo steady-state comparison."""

    algorithm: str
    predicted_db: float
    simulated_db: float
    gap_db: float
    rho: float
    diverged_runs: int


def theory_vs_simulation(config, algo_name=None, n_jobs=None):
    """Predicted vs simulated steady-state MSD for one algorithm (the
    first, or algo_name) that closed_form(compare=True) models."""
    algo = next((a for a in config.algorithms
                 if algo_name in (None, a.name)), None)
    if algo is None:
        raise InvalidArgumentError(f"no algorithm named {algo_name!r}")
    problem = config.build_problem()
    predicted = closed_form(problem, algo, compare=True).prediction
    curve, = _ensemble(config, problem, (algo,), n_jobs=n_jobs)
    simulated_db = steady_state_estimate(curve)
    gap = (0.0 if predicted.msd_linear == 0.0 and simulated_db == -math.inf
           else predicted.msd_db - simulated_db)
    return CompareReport(
        algorithm=algo.name,
        predicted_db=predicted.msd_db,
        simulated_db=simulated_db,
        gap_db=gap,
        rho=predicted.rho,
        diverged_runs=curve.diverged_runs,
    )
