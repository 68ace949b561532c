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

import numpy as np

from .config import parse_config, parse_overrides
from .errors import (
    ConfigError,
    EmptyEnsembleError,
    GenerationFailureError,
    InstabilityError,
    InvalidArgumentError,
    NumericalFailureError,
    UnmodeledCaseError,
)
from .harness import (
    closed_form,
    monte_carlo_msd,
    steady_state_estimate,
    sweep,
    theory_vs_simulation,
)
from .topology import validate_combination_matrix

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


def _db_csv(label, columns, rows):
    """CSV text: a label column, then one dB column per name in columns.

    rows yields (label value, dB values); each dB value is _fmt-formatted.
    """
    lines = [",".join([label, *columns])]
    lines += [f"{key}," + ",".join(_fmt(float(v)) for v in values)
              for key, values in rows]
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
    _write_atomic(out, _db_csv(
        "iteration", [f"{n}_msd_db" for n in order],
        enumerate(zip(*(curves[n].msd_db for n in order)))))
    written = [out]
    if config.per_node_msd:
        for name in order:
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(curves[name].per_node)
            p = os.path.join(args.out, f"{name}_per_node.csv")
            _write_atomic(p, _db_csv(
                "iteration", [f"node{k}_msd_db" for k in range(db.shape[1])],
                enumerate(db)))
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
    order = [a.name for a in config.algorithms]
    rows = [(f"{value:g}", [steady_state_estimate(curves[n]) for n in order])
            for value, curves in sweep(config, param, values, args.jobs)]
    out = os.path.join(args.out, f"sweep_{param}.csv")
    _write_atomic(out, _db_csv(
        "param_value", [f"{n}_steady_db" for n in order], rows))
    if args.gnuplot:
        gp = os.path.join(args.out, f"sweep_{param}.gp")
        _write_atomic(gp, _gnuplot_script(
            f"sweep_{param}.csv", order, param))
    for value, steady in rows:
        cells = "  ".join(f"{n}={_fmt(db)}" for n, db in zip(order, steady))
        print(f"{param}={value}  {cells}")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_theory(config, args):
    problem = config.build_problem()
    lines = []
    for algo in config.algorithms:
        try:
            cf = closed_form(problem, algo)
        except UnmodeledCaseError as exc:
            lines.append(f"{algo.name}.skipped={exc.reason}")
            continue
        lines += [f"{algo.name}.mu_bound.node{k}={bound:.6g}"
                  for k, bound in enumerate(cf.mu_bounds)]
        lines.append(f"{algo.name}.rho={cf.rho:.8g}")
        pred = cf.prediction
        lines.append(f"{algo.name}.msd_db="
                     + ("unstable" if pred is None else _fmt(pred.msd_db)))
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
    problem = config.build_problem()
    graph = problem.graph
    report = validate_combination_matrix(problem.weights, graph)
    if not report.ok:
        raise InvalidArgumentError(
            f"metropolis weights violate {report.constraint} at {report.indices}")
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
