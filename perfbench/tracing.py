"""Traced in-process run: spans around difflab's public calls, a serial
simulation baseline and noise-draw counts.

One pass of a workload runs `difflab.cli.main` twice in this process:
first traced, as a fresh CLI process would run it, then untraced; the
difference of the two wall times is the tracing overhead. Tracing
replaces public functions in the difflab modules with wrappers that
record a span and call the original, and restores them afterwards; no
difflab file changes. `monte_carlo_msd` is wrapped so that it runs one
ensemble per algorithm, which yields one span per algorithm and the
same curves. Workloads that simulate then run `simulate_runs` serially
on the same 64-run chunks the harness hands its pool, and once more on
a single run through a generator proxy that counts the numbers drawn.

Spans stay in memory and are written to one JSON file when the run
ends. A metric the workload cannot produce reads 0 and is listed with
the reason under "missing".
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import math
import statistics
import time
from dataclasses import replace

import difflab.cli
import difflab.config
import difflab.harness
import difflab.simulate
import numpy as np

from workloads import ALGOS, JOBS

# runs per chunk in harness._ensemble without per-node recording
HARNESS_CHUNK = 64


def layer_units():
    """Every per-layer metric name and its unit, in report order."""
    units = {"config.parse_s": "s", "topology.build_problem_s": "s",
             "simulate.busy_s": "s"}
    for a in ALGOS:
        units[f"simulate.run_iter_per_s.{a}"] = "1/s"
    for a in ALGOS:
        units[f"noise.normals_per_run_iter.{a}"] = "count"
    for a in ALGOS:
        units[f"noise.uniforms_per_run_iter.{a}"] = "count"
    for a in ALGOS:
        units[f"harness.ensemble_s.{a}"] = "s"
    units.update({
        "harness.overhead_s": "s",
        "harness.pool_efficiency": "ratio",
        "harness.chunks": "count",
        "harness.workers": "count",
        "harness.theory_inputs_s": "s",
        "theory.stepsize_bounds_s": "s",
        "theory.rho_s": "s",
        "theory.msd_solve_s": "s",
        "theory.msd_iterations": "count",
        "cli.residual_s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Spans kept in memory: name, start, end, parent span and trace id."""

    def __init__(self):
        self.spans = []
        self.trace = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "trace": self.trace, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                iterations = getattr(result, "iterations_used", None)
                if iterations is not None:
                    rec["iterations"] = iterations
                return result
        return traced

    def split_ensembles(self, monte_carlo_msd):
        """monte_carlo_msd that runs and spans one algorithm at a time."""
        @functools.wraps(monte_carlo_msd)
        def per_algorithm(config, *args, **kwargs):
            curves = {}
            for algo in config.algorithms:
                with self.span(f"harness.ensemble.{algo.name}"):
                    curves.update(monte_carlo_msd(
                        replace(config, algorithms=(algo,)), *args, **kwargs))
            return curves
        return per_algorithm

    def of_trace(self, trace):
        return [s for s in self.spans if s["trace"] == trace]


@contextlib.contextmanager
def _patched(targets):
    """Temporarily replace attributes; targets is (owner, name, new)."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, new in targets:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


def _trace_targets(tracer, missing):
    cli, harness = difflab.cli, difflab.harness
    spans = (("parse_config", "config.parse", (cli,)),
             ("theory_inputs", "harness.theory_inputs", (cli, harness)),
             ("stepsize_upper_bound", "theory.stepsize_bounds", (cli, harness)),
             ("mean_recursion_matrix", "theory.rho", (cli, harness)),
             ("steady_state_msd", "theory.msd_solve", (cli, harness)))
    targets = []
    for attr, span, owners in spans:
        for owner in owners:
            if hasattr(owner, attr):
                targets.append((owner, attr, tracer.wrap(getattr(owner, attr), span)))
            else:
                missing[span] = f"{owner.__name__}.{attr} does not exist"
    experiment = getattr(harness, "ExperimentConfig", None) or getattr(
        difflab.config, "ExperimentConfig", None)
    if experiment is not None and hasattr(experiment, "build_problem"):
        targets.append((experiment, "build_problem",
                        tracer.wrap(experiment.build_problem,
                                    "topology.build_problem")))
    else:
        missing["topology.build_problem"] = (
            "ExperimentConfig.build_problem does not exist")
    mc = getattr(harness, "monte_carlo_msd", None)
    if mc is None:
        missing.update({f"harness.ensemble.{a}": "difflab.harness."
                        "monte_carlo_msd does not exist" for a in ALGOS})
    else:
        split = tracer.split_ensembles(mc)
        targets += [(m, "monte_carlo_msd", split) for m in (cli, harness)
                    if hasattr(m, "monte_carlo_msd")]
    return targets


class CountingGenerator:
    """Generator proxy counting the normals and uniforms it hands out."""

    def __init__(self, generator, counts):
        self._generator = generator
        self._counts = counts

    def standard_normal(self, *args, **kwargs):
        out = self._generator.standard_normal(*args, **kwargs)
        self._counts["normals"] += np.size(out)
        return out

    def random(self, *args, **kwargs):
        out = self._generator.random(*args, **kwargs)
        self._counts["uniforms"] += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


def count_draws(problem, algo, iterations):
    """Normals and uniforms one run draws through problem.run_rng, or None."""
    run_rng = getattr(problem, "run_rng", None)
    if run_rng is None:
        return None
    counts = {"normals": 0, "uniforms": 0}
    counting = copy.copy(problem)
    object.__setattr__(counting, "run_rng",
                       lambda r: CountingGenerator(run_rng(r), counts))
    difflab.simulate.simulate_runs(counting, algo, [0], iterations)
    if counts["normals"] == 0 and counts["uniforms"] == 0:
        return None
    return counts


def _run_cli(main, argv):
    """cli.main(argv) with stdout captured; returns (code, stdout, wall)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - t0
    return code, buf.getvalue(), wall


def one_pass(workload, seed, root, out_dir, tracer):
    """One traced and one untraced command plus the serial baseline.

    Returns (values, missing, outcomes): values maps metric -> number,
    missing maps metric -> reason, outcomes maps algo -> failure or None
    for the traced and the untraced output.
    """
    cli = difflab.cli
    missing = {}
    tracer.trace += 1
    trace = tracer.trace
    traced_dir, plain_dir = out_dir / "traced", out_dir / "untraced"
    traced_file = traced_dir / workload.output_file
    plain_file = plain_dir / workload.output_file
    for stale in (traced_file, plain_file):
        stale.unlink(missing_ok=True)

    targets = _trace_targets(tracer, missing)
    with _patched(targets):
        with tracer.span("cli.main"):
            code_t, out_t, wall_t = _run_cli(
                cli.main, workload.argv(seed, traced_dir))
    code_u, out_u, wall_u = _run_cli(cli.main, workload.argv(seed, plain_dir))

    outcomes = []
    for code, out, where in ((code_t, out_t, traced_dir),
                             (code_u, out_u, plain_dir)):
        outcomes.append(workload.verify(where, out, code))
    if (traced_file.is_file() and plain_file.is_file()
            and traced_file.read_bytes() != plain_file.read_bytes()):
        for o in outcomes:
            for a in o:
                o[a] = o[a] or "traced and untraced outputs differ"

    spans = tracer.of_trace(trace)

    def span_total(metric, span, reduce=sum):
        durations = [s["end"] - s["start"] for s in spans if s["name"] == span]
        if not durations:
            missing[metric] = missing.get(
                span, f"{workload.name} makes no {span} call")
            return 0.0
        return reduce(durations)

    root_span = next(s for s in spans if s["name"] == "cli.main")
    children = [s for s in spans if s["parent"] == root_span["id"]]
    values = {
        "config.parse_s": span_total("config.parse_s", "config.parse"),
        # one call per command; the per-algorithm split adds calls
        "topology.build_problem_s": span_total(
            "topology.build_problem_s", "topology.build_problem",
            statistics.median),
        "harness.theory_inputs_s": span_total(
            "harness.theory_inputs_s", "harness.theory_inputs"),
        "theory.stepsize_bounds_s": span_total(
            "theory.stepsize_bounds_s", "theory.stepsize_bounds"),
        "theory.rho_s": span_total("theory.rho_s", "theory.rho"),
        "theory.msd_solve_s": span_total(
            "theory.msd_solve_s", "theory.msd_solve"),
        "cli.residual_s": (root_span["end"] - root_span["start"])
        - sum(s["end"] - s["start"] for s in children),
        "trace.overhead_s": wall_t - wall_u,
    }
    solves = [s for s in spans if s["name"] == "theory.msd_solve"]
    values["theory.msd_iterations"] = sum(
        s.get("iterations", 0) for s in solves)
    if solves and not all("iterations" in s for s in solves):
        missing["theory.msd_iterations"] = (
            "steady_state_msd returns no iterations_used")
    elif not solves:
        missing["theory.msd_iterations"] = missing["theory.msd_solve_s"]

    harness = difflab.harness
    workers = harness.worker_count(JOBS) if hasattr(
        harness, "worker_count") else JOBS
    values["harness.workers"] = workers
    ensemble = {}
    for a in ALGOS:
        metric = f"harness.ensemble_s.{a}"
        values[metric] = span_total(metric, f"harness.ensemble.{a}")
        if metric not in missing:
            ensemble[a] = values[metric]

    serial = {}
    pool_metrics = ("harness.chunks", "harness.pool_efficiency",
                    "harness.overhead_s")
    if workload.iterations:
        serial = _serial_baseline(workload, seed, root, tracer, values,
                                  missing)
        busy = values["simulate.busy_s"] = sum(serial.values())
    else:
        values["simulate.busy_s"] = 0.0
        missing["simulate.busy_s"] = f"{workload.name} simulates nothing"
    if serial and ensemble:
        chunks = math.ceil(workload.runs / HARNESS_CHUNK)
        pooled = sum(ensemble.values())
        values["harness.chunks"] = chunks
        values["harness.pool_efficiency"] = busy / (workers * pooled)
        values["harness.overhead_s"] = pooled - busy / min(workers, chunks)
    else:
        for metric in pool_metrics:
            values[metric] = 0.0
            missing[metric] = f"{workload.name} runs no timed ensemble"
    for a in ALGOS:
        if a not in serial:
            for metric in (f"simulate.run_iter_per_s.{a}",
                           f"noise.normals_per_run_iter.{a}",
                           f"noise.uniforms_per_run_iter.{a}"):
                values[metric] = 0.0
                missing.setdefault(metric, f"{workload.name} does not simulate {a}")
    return values, missing, outcomes


def _serial_baseline(workload, seed, root, tracer, values, missing):
    """Busy seconds per algorithm of simulate_runs on the harness chunks.

    Also fills the per-algorithm throughput and draw-count metrics.
    """
    config = difflab.config.parse_config(
        str(root / workload.config),
        difflab.config.parse_overrides(workload.config_overrides(seed)))
    problem = config.build_problem()
    busy = {}
    for algo in config.algorithms:
        a = algo.name
        with tracer.span(f"simulate.serial.{a}") as rec:
            for start in range(0, config.monte_carlo_runs, HARNESS_CHUNK):
                chunk = list(range(start, min(start + HARNESS_CHUNK,
                                              config.monte_carlo_runs)))
                difflab.simulate.simulate_runs(problem, algo, chunk,
                                               config.iterations)
        busy[a] = rec["end"] - rec["start"]
        values[f"simulate.run_iter_per_s.{a}"] = (
            config.monte_carlo_runs * config.iterations / busy[a])
        counts = count_draws(problem, algo, config.iterations)
        for kind in ("normals", "uniforms"):
            metric = f"noise.{kind}_per_run_iter.{a}"
            if counts is None:
                values[metric] = 0.0
                missing[metric] = ("simulate_runs drew nothing through "
                                   "NetworkProblem.run_rng")
            else:
                values[metric] = counts[kind] / config.iterations
    return busy


def traced_run(workload, seed, seconds, root, out_dir):
    """Traced passes until `seconds` would be exceeded, at least one.

    Returns (metrics, attempted, failed, info) with the median of each
    per-layer metric over the passes.
    """
    tracer = Tracer()
    start = time.perf_counter()
    passes, missing = [], {}
    attempted = failed = 0
    failures = set()
    while True:
        t0 = time.perf_counter()
        values, miss, outcomes = one_pass(workload, seed, root, out_dir,
                                          tracer)
        passes.append(values)
        missing.update(miss)
        for outcome in outcomes:
            attempted += len(outcome)
            bad = [f"{a}: {r}" for a, r in outcome.items() if r]
            failed += len(bad)
            failures.update(bad)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    units = layer_units()
    metrics = {name: {"value": statistics.median(p[name] for p in passes),
                      "unit": unit} for name, unit in units.items()}
    trace_file = out_dir / f"trace-seed{seed}.json"
    trace_file.write_text(json.dumps(tracer.spans))
    info = {"passes": len(passes), "trace_file": str(trace_file.relative_to(root)),
            "missing": {k: missing[k] for k in units if k in missing},
            "failures": sorted(failures)}
    return metrics, attempted, failed, info
