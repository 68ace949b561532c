"""Command-line front end.

Subcommands:
    run       simulate learning curves, write a CSV per config
    sweep     steady-state MSD table over a swept noise/kernel parameter
    theory    closed-form step-size bounds and MSD predictions
    compare   theory vs Monte Carlo steady state for one algorithm
    validate  parse and validate the config, graph and matrices only

All outputs are written atomically: a failed command leaves no partial
files behind. Exit codes: 0 success, 2 config parse error, 3 validation
error, 4 numerical failure, 5 instability.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from .config import parse_config, parse_overrides
from .errors import (
    ConfigError,
    EmptyEnsembleError,
    GenerationFailureError,
    InstabilityError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .harness import (
    monte_carlo_msd,
    steady_state_estimate,
    sweep,
    theory_inputs,
    theory_vs_simulation,
)
from .theory import mean_recursion_matrix, steady_state_msd, stepsize_upper_bound
from .topology import metropolis_weights, validate_combination_matrix

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_INSTABILITY = 5


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value):
    if value == -math.inf:
        return "-inf"
    return f"{value:.6f}"


def _curve_csv(curves, order):
    lines = ["iteration," + ",".join(f"{n}_msd_db" for n in order)]
    length = len(curves[order[0]].msd_linear)
    dbs = {n: curves[n].msd_db for n in order}
    for i in range(length):
        lines.append(
            f"{i}," + ",".join(_fmt(float(dbs[n][i])) for n in order))
    return "\n".join(lines) + "\n"


def _per_node_csv(curve):
    import numpy as np

    n = curve.per_node.shape[1]
    lines = ["iteration," + ",".join(f"node{k}_msd_db" for k in range(n))]
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(curve.per_node)
    for i in range(db.shape[0]):
        lines.append(f"{i}," + ",".join(_fmt(float(v)) for v in db[i]))
    return "\n".join(lines) + "\n"


def _sweep_csv(rows, order):
    lines = ["param_value," + ",".join(f"{n}_steady_db" for n in order)]
    for row in rows:
        lines.append(f"{row.value:g}," + ",".join(
            _fmt(row.steady_db[n]) for n in order))
    return "\n".join(lines) + "\n"


def _gnuplot_script(csv_name, columns, xlabel):
    lines = [
        "set datafile separator ','",
        f"set xlabel '{xlabel}'",
        "set ylabel 'MSD (dB)'",
        "set key outside",
        "plot " + ", \\\n     ".join(
            f"'{csv_name}' using 1:{i + 2} with lines title '{c}'"
            for i, c in enumerate(columns)
        ),
    ]
    return "\n".join(lines) + "\n"


def _cmd_run(config, args):
    curves = monte_carlo_msd(config, n_jobs=args.jobs)
    order = [a.name for a in config.algorithms]
    out = os.path.join(args.out, "learning_curve.csv")
    _write_atomic(out, _curve_csv(curves, order))
    written = [out]
    if config.per_node_msd:
        for name in order:
            p = os.path.join(args.out, f"{name}_per_node.csv")
            _write_atomic(p, _per_node_csv(curves[name]))
            written.append(p)
    if args.gnuplot:
        gp = os.path.join(args.out, "learning_curve.gp")
        _write_atomic(gp, _gnuplot_script(
            "learning_curve.csv", order, "iteration"))
        written.append(gp)
    for name in order:
        c = curves[name]
        print(f"{name}: steady {steady_state_estimate(c):.2f} dB, "
              f"runs {c.runs_used}, diverged {c.diverged_runs}")
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_sweep(config, args):
    file_param, file_values = config.sweep or (None, None)
    param = args.param or file_param
    values = args.values or file_values
    if not param or not values:
        raise InvalidArgumentError(
            "sweep needs --param and --values (or a sweep section in the config)")
    rows = sweep(config, param, values, n_jobs=args.jobs)
    order = [a.name for a in config.algorithms]
    out = os.path.join(args.out, f"sweep_{param}.csv")
    _write_atomic(out, _sweep_csv(rows, order))
    if args.gnuplot:
        gp = os.path.join(args.out, f"sweep_{param}.gp")
        _write_atomic(gp, _gnuplot_script(
            f"sweep_{param}.csv", order, param))
    for row in rows:
        cells = "  ".join(f"{n}={_fmt(row.steady_db[n])}" for n in order)
        print(f"{param}={row.value:g}  {cells}")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_theory(config, args):
    problem = config.build_problem()
    lines = []
    for algo in config.algorithms:
        if algo.adaptive_combination:
            lines.append(f"{algo.name}.skipped=adaptive_combination")
            continue
        ti = theory_inputs(config, algo, problem)
        for k in range(problem.n_nodes):
            bound = stepsize_upper_bound(ti, k)
            lines.append(f"{algo.name}.mu_bound.node{k}={bound:.6g}")
        _, rho = mean_recursion_matrix(ti)
        lines.append(f"{algo.name}.rho={rho:.8g}")
        try:
            pred = steady_state_msd(ti)
            lines.append(f"{algo.name}.msd_db={_fmt(pred.msd_db)}")
        except InstabilityError:
            lines.append(f"{algo.name}.msd_db=unstable")
    text = "\n".join(lines) + "\n"
    out = os.path.join(args.out, "theory_report.txt")
    _write_atomic(out, text)
    print(text, end="")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_compare(config, args):
    report = theory_vs_simulation(config, algo_name=args.algo,
                                  n_jobs=args.jobs)
    lines = [
        f"algorithm={report.algorithm}",
        f"predicted_db={_fmt(report.predicted_db)}",
        f"simulated_db={_fmt(report.simulated_db)}",
        f"gap_db={_fmt(report.gap_db)}",
        f"rho={report.rho:.8g}",
        f"diverged_runs={report.diverged_runs}",
    ]
    text = "\n".join(lines) + "\n"
    out = os.path.join(args.out, "compare_report.txt")
    _write_atomic(out, text)
    print(text, end="")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_validate(config, args):
    graph = config.build_graph()
    weights = metropolis_weights(graph)
    report = validate_combination_matrix(weights, graph)
    if not report.ok:
        raise InvalidArgumentError(
            f"metropolis weights violate {report.constraint} at {report.indices}")
    config.build_problem()
    print(f"ok: {graph.n_nodes} nodes, {len(graph.edges)} edges, "
          f"{len(config.algorithms)} algorithms")
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="difflab",
        description="Diffusion adaptive estimation over noisy-link networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("sweep", _cmd_sweep),
                     ("theory", _cmd_theory), ("compare", _cmd_compare),
                     ("validate", _cmd_validate)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", default=[],
                       dest="overrides", metavar="KEY=VALUE")
        p.add_argument("--per-node-msd", action="store_true")
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--gnuplot", action="store_true")
        if name == "sweep":
            p.add_argument("--param",
                           choices=("sigma_a2", "sigma_b2", "zeta2"))
            p.add_argument("--values", type=lambda s: [
                float(v) for v in s.split(",")])
        if name == "compare":
            p.add_argument("--algo", default=None)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        overrides = parse_overrides(args.overrides)
        if args.runs is not None:
            overrides.append(("simulation.runs", args.runs))
        if args.seed is not None:
            overrides.append(("simulation.seed", args.seed))
        if args.per_node_msd:
            overrides.append(("simulation.per_node_msd", True))
        config = parse_config(args.config, overrides)
        return args.fn(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidArgumentError, GenerationFailureError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (NumericalFailureError, EmptyEnsembleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
