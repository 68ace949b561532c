"""Command-line front end.

Subcommands:
    run       simulate learning curves, write a CSV per config
    sweep     steady-state MSD table over a swept noise/kernel parameter
    theory    closed-form step-size bounds and MSD predictions
    compare   theory vs Monte Carlo steady state for one algorithm
    validate  parse and validate the config, graph and matrices only

Each command returns its report lines and {file name: text}; `main`
creates --out before the command runs, writes the files as one set,
then prints the lines and one `wrote <path>` line per file. So a command
that fails writes no file, and a write that fails leaves --out as it
was. Exit codes: 0 success, 2 config parse error, 3 validation error
(an --out that cannot be created or written too), 4 numerical failure,
5 instability.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import tempfile

import numpy as np

from .config import _SWEEP_PARAMS, parse_config, parse_overrides
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
    worker_count,
)
from .topology import validate_combination_matrix

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_INSTABILITY = 5


@contextlib.contextmanager
def _output(path):
    """An OSError in the block is a validation error on path."""
    try:
        yield
    except OSError as exc:
        raise InvalidArgumentError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_all(files):
    """Write {path: text} as one set: every text to a temp file beside its
    path first, then each temp file renamed into place. A failure before
    the renames leaves every path as it was; no temp file is left."""
    tmps = []
    try:
        for path, text in files.items():
            with _output(path):
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
                tmps.append(tmp)
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
        for path, tmp in zip(files, tmps):
            with _output(path):
                os.replace(tmp, path)
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)


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
    curves = monte_carlo_msd(config, n_jobs=args.jobs,
                             per_node=args.per_node_msd)
    order = [a.name for a in config.algorithms]
    files = {"learning_curve.csv": _db_csv(
        "iteration", [f"{n}_msd_db" for n in order],
        enumerate(zip(*(curves[n].msd_db for n in order))))}
    if args.per_node_msd:
        for name in order:
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(curves[name].per_node)
            files[f"{name}_per_node.csv"] = _db_csv(
                "iteration", [f"node{k}_msd_db" for k in range(db.shape[1])],
                enumerate(db))
    if args.gnuplot:
        files["learning_curve.gp"] = _gnuplot_script(
            "learning_curve.csv", order, "iteration")
    lines = [f"{n}: steady {steady_state_estimate(curves[n]):.2f} dB, "
             f"runs {curves[n].runs_used}, diverged {curves[n].diverged_runs}"
             for n in order]
    return lines, files


def _cmd_sweep(config, args):
    param, values = config.sweep or (None, None)
    param, values = args.param or param, args.values or values
    if not param or not values:
        raise InvalidArgumentError(
            "sweep needs --param and --values (or a sweep section in the config)")
    order = [a.name for a in config.algorithms]
    rows = [(f"{value:g}", [steady_state_estimate(curves[n]) for n in order])
            for value, curves in sweep(config, param, values, args.jobs)]
    files = {f"sweep_{param}.csv": _db_csv(
        "param_value", [f"{n}_steady_db" for n in order], rows)}
    if args.gnuplot:
        files[f"sweep_{param}.gp"] = _gnuplot_script(
            f"sweep_{param}.csv", order, param)
    lines = [f"{param}={value}  " + "  ".join(
        f"{n}={_fmt(db)}" for n, db in zip(order, steady))
        for value, steady in rows]
    return lines, files


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
    return lines, {"theory_report.txt": "\n".join(lines) + "\n"}


def _cmd_compare(config, args):
    r = theory_vs_simulation(config, algo_name=args.algo, n_jobs=args.jobs)
    lines = [f"algorithm={r.algorithm}", f"predicted_db={_fmt(r.predicted_db)}",
             f"simulated_db={_fmt(r.simulated_db)}", f"gap_db={_fmt(r.gap_db)}",
             f"rho={r.rho:.8g}", f"diverged_runs={r.diverged_runs}"]
    return lines, {"compare_report.txt": "\n".join(lines) + "\n"}


def _cmd_validate(config, args):
    problem = config.build_problem()
    graph = problem.graph
    validate_combination_matrix(problem.weights, graph)
    return [f"ok: {graph.n_nodes} nodes, {len(graph.edges)} edges, "
            f"{len(config.algorithms)} algorithms"], {}


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
        p.add_argument("--jobs", type=int, default=None)
        if name == "run":
            p.add_argument("--per-node-msd", action="store_true")
        if name in ("run", "sweep"):
            p.add_argument("--gnuplot", action="store_true")
        if name == "sweep":
            p.add_argument("--param", choices=_SWEEP_PARAMS)
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
        config = parse_config(args.config, overrides)
        with _output(args.out):
            os.makedirs(args.out, exist_ok=True)
        worker_count(args.jobs)  # refuses --jobs below 1 on any command
        lines, files = args.fn(config, args)
        files = {os.path.join(args.out, name): text
                 for name, text in files.items()}
        _write_all(files)
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
    print(*lines, *(f"wrote {path}" for path in files), sep="\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
