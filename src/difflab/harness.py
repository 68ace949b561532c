"""Monte Carlo driver: ensembles, learning curves, sweeps, theory comparison.

A scenario is fixed by an ExperimentConfig (defined in `config.py`);
each algorithm is simulated over `monte_carlo_runs` independent
realizations. Algorithms with equal `(share_data, shares_phi)` form a
stream group and are simulated in one pass on one draw per run and
iteration (`simulate.simulate_group`); a pool task is one group over one
run range. Diverged realizations are excluded from the averages and
counted, never silently dropped. Each algorithm's good runs are added to
its ensemble sums one at a time in run-index order, so the curves are
bit-identical however the runs are split into tasks and grouped, and
whatever the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .errors import (EmptyEnsembleError, InstabilityError,
                     InvalidArgumentError, UnmodeledCaseError)
from .noise import gamma_lk
from .simulate import simulate_group
from .theory import (MsdPrediction, TheoryInputs, steady_state_msd,
                     stepsize_upper_bound)

# Runs per pool task. Throughput per run is flat from MIN_TASK_RUNS up;
# the caps bound the (runs, iterations[, N]) records one task returns.
MIN_TASK_RUNS = 16
MAX_TASK_RUNS = 64
MAX_TASK_RUNS_PER_NODE = 16


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
    if n_jobs is not None:
        return max(1, int(n_jobs))
    return max(1, os.cpu_count() or 1)


def _simulate_task(args):
    problem, algos, run_indices, iterations, per_node, track_beta = args
    return simulate_group(problem, algos, run_indices, iterations,
                          record_per_node=per_node, track_beta=track_beta)


def _simulated(tasks, workers):
    """simulate_group results of tasks in task order, one at a time.

    With more than one worker the tasks go to one process pool; closing
    the generator early cancels the tasks that have not started.
    """
    workers = min(workers, len(tasks))
    if workers < 2:
        yield from map(_simulate_task, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_simulate_task, tasks)


def _stream_groups(algorithms):
    """Algorithms grouped by (share_data, shares_phi), in order of first
    appearance; the algorithms of a group draw the same numbers."""
    groups = {}
    for algo in algorithms:
        groups.setdefault((algo.share_data, algo.shares_phi), []).append(algo)
    return [tuple(g) for g in groups.values()]


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


def monte_carlo_msd(config, n_jobs=None, track_beta=False):
    """Learning curves for every configured algorithm, in config order.

    MSD(i) = (1 / (N * runs_used)) * sum_runs sum_k |w_k(i) - h|^2.

    The runs are split into contiguous run-index ranges of near-equal
    size: one per worker but at most one per MIN_TASK_RUNS runs, and
    more where a range would exceed the task cap. A task is one stream
    group (see _stream_groups) over one range, simulated in one pass; the
    tasks of all groups share one process pool.
    """
    problem = config.build_problem()
    runs, iterations = config.monte_carlo_runs, config.iterations
    per_node = config.per_node_msd
    workers = worker_count(n_jobs)
    cap = MAX_TASK_RUNS_PER_NODE if per_node else MAX_TASK_RUNS
    n_ranges = max(math.ceil(runs / cap),
                   min(workers, math.ceil(runs / MIN_TASK_RUNS)))
    bounds = [runs * i // n_ranges for i in range(n_ranges + 1)]
    groups = _stream_groups(config.algorithms)
    tasks = [(problem, group, list(range(lo, hi)), iterations, per_node,
              track_beta)
             for group in groups
             for lo, hi in zip(bounds, bounds[1:])]
    n = problem.n_nodes
    sums = {algo.name: _Sums(iterations, n, per_node)
            for algo in config.algorithms}
    pending = list(config.algorithms)
    done = set()
    curves = {}
    with closing(_simulated(tasks, workers)) as results:
        for group in groups:
            for group_res in islice(results, n_ranges):
                for algo, res in zip(group, group_res):
                    sums[algo.name].add(res)
            done.update(algo.name for algo in group)
            # curves in config order, each once its group is done
            while pending and pending[0].name in done:
                algo = pending.pop(0)
                curves[algo.name] = sums[algo.name].curve(algo.name, n)
    return curves


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
        def patch(spec):
            if spec is None:
                return None
            return replace(
                spec,
                x=replace(spec.x, **{param: value}),
                y=replace(spec.y, **{param: value}),
                phi=replace(spec.phi, **{param: value}),
            )
        return replace(config, noise=patch(config.noise),
                       noise_after=patch(config.noise_after))
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
        f"unknown sweep parameter {param!r}; use sigma_a2, sigma_b2 or zeta2"
    )


@dataclass
class SweepRow:
    value: float
    steady_db: dict       # algo name -> dB
    diverged: dict        # algo name -> diverged run count


def sweep(config, param, values, tail_fraction=0.1, n_jobs=None):
    """Steady-state MSD per algorithm for each swept parameter value."""
    if not values:
        raise InvalidArgumentError("sweep needs at least one value")
    rows = []
    for v in sorted(values):
        curves = monte_carlo_msd(_substitute(config, param, v), n_jobs=n_jobs)
        rows.append(SweepRow(
            value=float(v),
            steady_db={n: steady_state_estimate(c, tail_fraction)
                       for n, c in curves.items()},
            diverged={n: c.diverged_runs for n, c in curves.items()},
        ))
    return rows


def theory_inputs(problem, algo):
    """Closed-form analysis inputs for one algorithm on a NetworkProblem.

    The analysis is evaluated at the post-switch kernel value, the
    problem's input variance and its phase-one (Gaussian base) noise
    variances; A and C are the problem's weights (identity when the
    algorithm shares no data or no weights, respectively).
    """
    n, L = problem.n_nodes, problem.dim
    spec = problem.noise_phases[0][1]
    adj = problem.graph.adjacency_matrix()
    cross = adj.astype(float)
    sx2 = spec.x.sigma_a2 * cross
    sy2 = spec.y.sigma_a2 * cross
    sphi2 = spec.phi.sigma_a2 * cross
    obs = problem.obs_std() ** 2
    gamma = np.zeros((n, n))
    if spec.x.sigma_a2 > 0:
        gamma[adj] = gamma_lk(obs[np.nonzero(adj)[0]], sy2[adj], sx2[adj])
    z2f = algo.zeta2.final if algo.zeta2 is not None else 1.0
    A = problem.weights if algo.share_data else np.eye(n)
    C = problem.weights if algo.share_weights else np.eye(n)
    return TheoryInputs(
        h=problem.h,
        R=np.broadcast_to(problem.input_variance * np.eye(L),
                          (n, L, L)).copy(),
        A=A,
        C=C,
        mu=algo.step_sizes(n),
        obs_var=obs,
        sigma_x2=sx2,
        sigma_y2=sy2,
        sigma_phi2=sphi2,
        gamma=gamma,
        zeta2=np.full((n, n), z2f),
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


def theory_vs_simulation(config, algo_name=None, tail_fraction=0.1,
                         n_jobs=None):
    """Predicted vs simulated steady-state MSD for one algorithm (the
    first, or algo_name) that closed_form(compare=True) models."""
    algo = next((a for a in config.algorithms
                 if algo_name in (None, a.name)), None)
    if algo is None:
        raise InvalidArgumentError(f"no algorithm named {algo_name!r}")
    predicted = closed_form(config.build_problem(), algo,
                            compare=True).prediction
    sub = replace(config, algorithms=(algo,))
    curve = monte_carlo_msd(sub, n_jobs=n_jobs)[algo.name]
    simulated_db = steady_state_estimate(curve, tail_fraction)
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
