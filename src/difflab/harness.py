"""Monte Carlo driver: ensembles, learning curves, sweeps, theory comparison.

A scenario is fixed by an ExperimentConfig (defined in `config.py`);
each algorithm is simulated over `monte_carlo_runs` independent
realizations. Diverged realizations are excluded from the averages and
counted, never silently dropped. Aggregation order is fixed by run
index, so results do not depend on how many workers execute the
ensemble.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyEnsembleError, InvalidArgumentError
from .noise import gamma_lk
from .simulate import simulate_runs
from .theory import (
    TheoryInputs,
    mean_recursion_matrix,
    steady_state_msd,
    stepsize_upper_bound,
)

THREADS_ENV = "DIFFLAB_THREADS"


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
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise InvalidArgumentError(
                f"{THREADS_ENV}={env!r} is not an integer") from exc
    if n_jobs is not None:
        return max(1, int(n_jobs))
    return max(1, os.cpu_count() or 1)


def _simulate_chunk(args):
    problem, algo, run_indices, iterations, per_node, track_beta = args
    return simulate_runs(problem, algo, run_indices, iterations,
                         record_per_node=per_node, track_beta=track_beta)


def _ensemble(problem, algo, runs, iterations, per_node, track_beta, workers):
    chunk = 16 if per_node else 64
    chunks = [list(range(s, min(s + chunk, runs)))
              for s in range(0, runs, chunk)]
    args = [(problem, algo, c, iterations, per_node, track_beta)
            for c in chunks]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_chunk, args))
    else:
        results = [_simulate_chunk(a) for a in args]

    n = problem.n_nodes
    sq_sum = np.zeros(iterations)
    node_sum = np.zeros((iterations, n)) if per_node else None
    used = 0
    diverged = 0
    beta_err = 0.0
    for res in results:
        good = res.diverged_at < 0
        used += int(good.sum())
        diverged += int((~good).sum())
        sq_sum += res.sq_net[good].sum(axis=0)
        if per_node:
            node_sum += res.sq_node[good].sum(axis=0)
        beta_err = max(beta_err, res.beta_sum_err)
    if used == 0:
        raise EmptyEnsembleError(
            f"all {runs} runs of {algo.name!r} diverged"
        )
    return sq_sum, node_sum, used, diverged, beta_err


def monte_carlo_msd(config, n_jobs=None, track_beta=False):
    """Learning curves for every configured algorithm.

    MSD(i) = (1 / (N * runs_used)) * sum_runs sum_k |w_k(i) - h|^2.
    """
    problem = config.build_problem()
    workers = worker_count(n_jobs)
    curves = {}
    for algo in config.algorithms:
        sq_sum, node_sum, used, diverged, beta_err = _ensemble(
            problem, algo, config.monte_carlo_runs, config.iterations,
            config.per_node_msd, track_beta and algo.adaptive_combination,
            workers,
        )
        curves[algo.name] = LearningCurve(
            name=algo.name,
            msd_linear=sq_sum / (used * problem.n_nodes),
            runs_used=used,
            diverged_runs=diverged,
            per_node=None if node_sum is None else node_sum / used,
            beta_sum_err=beta_err,
        )
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


def theory_inputs(config, algo, problem=None):
    """Closed-form analysis inputs matching a configured algorithm.

    The analysis is evaluated at the post-switch kernel value and the
    phase-one (Gaussian base) noise variances; adaptation/combination
    are the problem's fixed matrices (identity when sharing is off).
    """
    if problem is None:
        problem = config.build_problem()
    n, L = problem.n_nodes, problem.dim
    spec = config.noise
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
    A = problem.adaptation.entries if algo.share_data else np.eye(n)
    C = problem.combination.entries if algo.share_weights else np.eye(n)
    return TheoryInputs(
        h=problem.h,
        R=np.broadcast_to(config.input_variance * np.eye(L), (n, L, L)).copy(),
        A=A,
        C=C,
        mu=algo.step_sizes(n),
        obs_var=obs,
        sigma_x2=sx2,
        sigma_y2=sy2,
        sigma_phi2=sphi2,
        gamma=gamma,
        zeta2=np.full((n, n), z2f),
        graph=problem.graph,
    )


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
    """Predicted vs simulated steady-state MSD for a fixed-C Gaussian scenario."""
    phases = [config.noise] + (
        [config.noise_after] if config.noise_after is not None else [])
    for ph in phases:
        for name in ("x", "y", "phi"):
            g = getattr(ph, name)
            if 0.0 < g.c < 1.0 and g.sigma_b2 != g.sigma_a2:
                raise InvalidArgumentError(
                    "theory comparison requires pure Gaussian link noise")
    algos = [a for a in config.algorithms
             if algo_name is None or a.name == algo_name]
    if algo_name is not None and not algos:
        raise InvalidArgumentError(f"no algorithm named {algo_name!r}")
    algo = algos[0]
    if algo.adaptive_combination:
        raise InvalidArgumentError(
            "theory comparison requires a fixed combination matrix")
    problem = config.build_problem()
    ti = theory_inputs(config, algo, problem)
    mu = algo.step_sizes(problem.n_nodes)
    for k in range(problem.n_nodes):
        bound = stepsize_upper_bound(ti, k)
        if mu[k] >= bound:
            raise InvalidArgumentError(
                f"step size {mu[k]:.4g} at node {k} exceeds the bound {bound:.4g}")
    predicted = steady_state_msd(ti)
    _, rho = mean_recursion_matrix(ti)
    sub = replace(config, algorithms=(algo,))
    curve = monte_carlo_msd(sub, n_jobs=n_jobs)[algo.name]
    simulated_db = steady_state_estimate(curve, tail_fraction)
    if predicted.msd_linear == 0.0 and simulated_db == -math.inf:
        gap = 0.0
    else:
        gap = predicted.msd_db - simulated_db
    return CompareReport(
        algorithm=algo.name,
        predicted_db=predicted.msd_db,
        simulated_db=simulated_db,
        gap_db=gap,
        rho=rho,
        diverged_runs=curve.diverged_runs,
    )
