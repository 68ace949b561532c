"""The benchmark's workloads: which difflab command each runs, and how its
output is checked.

An operation is one algorithm's result in a command's output. A check
returns, for every algorithm the workload runs, None when that result is
correct or a one-line reason when it is not.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# every command runs with --jobs 2: the benchmark machine has two cores
JOBS = 2

FIG1_ALGOS = ("noncoop-lms", "dlms", "ac-dlms", "ac-dlms-nds", "dmcc",
              "dmtc-ds", "ac-dmtc")
# every algorithm any workload runs; the per-layer metrics name each one
ALGOS = FIG1_ALGOS + ("dmtc",)

# Steady-state MSD (dB, mean of the last 10% of the curve) of each fig1
# variant at 128 runs x 400 iterations: the mean over the 20 master
# seeds 0-15, 1000, 2024, 31337 and 987654321. Over those seeds the
# largest standard deviation was 0.092 dB (dmcc) and the largest
# distance from the mean 0.198 dB, so 0.5 dB passes any seed while a
# change to what is computed shows.
FIG1_STEADY_DB = {
    "noncoop-lms": -15.44,
    "dlms": -7.13,
    "ac-dlms": -15.56,
    "ac-dlms-nds": -16.85,
    "dmcc": -6.72,
    "dmtc-ds": -22.91,
    "ac-dmtc": -23.57,
}
FIG1_STEADY_TOL_DB = 0.5

# acceptance criterion 6: |predicted - simulated| steady MSD
COMPARE_GAP_DB = 2.0

# `difflab theory` on compare.cfg at N=100; the simulation seed does not
# enter the closed form, so one value holds for every benchmark seed
THEORY_N100_MSD_DB = -12.007121
# one unit in the report's sixth decimal, plus float parsing slack
THEORY_MSD_TOL_DB = 1e-6 + 1e-9


def _all_fail(algos, reason):
    return {a: reason for a in algos}


def _key_values(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


_STEADY_LINE = re.compile(
    r"^(?P<name>\S+): steady (?P<db>\S+) dB, runs (?P<runs>\d+), "
    r"diverged (?P<div>\d+)$")


def check_fig1(out_dir, stdout, algos):
    """Each variant's steady dB is near its reference and no run diverged."""
    csv = Path(out_dir) / "learning_curve.csv"
    if not csv.is_file():
        return _all_fail(algos, "learning_curve.csv missing")
    rows = csv.read_text().splitlines()
    if rows[0] != "iteration," + ",".join(f"{a}_msd_db" for a in algos):
        return _all_fail(algos, "learning_curve.csv header differs")
    found = {}
    for line in stdout.splitlines():
        m = _STEADY_LINE.match(line.strip())
        if m:
            found[m["name"]] = (float(m["db"]), int(m["div"]))
    result = {}
    for a in algos:
        if a not in found:
            result[a] = "no steady-state line"
            continue
        db, diverged = found[a]
        if diverged:
            result[a] = f"{diverged} runs diverged"
        elif not abs(db - FIG1_STEADY_DB[a]) <= FIG1_STEADY_TOL_DB:
            result[a] = (f"steady {db} dB is more than {FIG1_STEADY_TOL_DB} dB "
                         f"from {FIG1_STEADY_DB[a]}")
        else:
            result[a] = None
    return result


def check_compare(out_dir, stdout, algos):
    """The theory/simulation gap is within criterion 6's bound."""
    report = Path(out_dir) / "compare_report.txt"
    if not report.is_file():
        return _all_fail(algos, "compare_report.txt missing")
    kv = _key_values(report.read_text())
    try:
        gap = float(kv["gap_db"])
        diverged = int(kv["diverged_runs"])
        rho = float(kv["rho"])
    except (KeyError, ValueError) as exc:
        return _all_fail(algos, f"compare_report.txt unreadable: {exc}")
    if kv.get("algorithm") != algos[0]:
        return _all_fail(algos, f"compared {kv.get('algorithm')!r}")
    if diverged:
        return _all_fail(algos, f"{diverged} runs diverged")
    if not rho < 1.0:
        return _all_fail(algos, f"rho {rho} >= 1")
    if not abs(gap) <= COMPARE_GAP_DB:
        return _all_fail(algos, f"|gap| {abs(gap)} dB > {COMPARE_GAP_DB}")
    return {a: None for a in algos}


def check_theory_n100(out_dir, stdout, algos):
    """The mean recursion is stable and the MSD matches its reference."""
    report = Path(out_dir) / "theory_report.txt"
    if not report.is_file():
        return _all_fail(algos, "theory_report.txt missing")
    kv = _key_values(report.read_text())
    result = {}
    for a in algos:
        try:
            rho = float(kv[f"{a}.rho"])
            msd = float(kv[f"{a}.msd_db"])
        except (KeyError, ValueError) as exc:
            result[a] = f"theory_report.txt unreadable: {exc}"
            continue
        if not rho < 1.0:
            result[a] = f"rho {rho} >= 1"
        elif not (math.isfinite(msd) and abs(msd - THEORY_N100_MSD_DB)
                  <= THEORY_MSD_TOL_DB):
            result[a] = f"msd_db {msd} differs from {THEORY_N100_MSD_DB}"
        else:
            result[a] = None
    return result


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str                 # relative to the repository root
    overrides: tuple            # KEY=VALUE strings passed with --set
    runs: int | None            # --runs, None to keep the config's
    iterations: int             # per run; 0 when nothing is simulated
    algorithms: tuple           # algorithms in the output, in order
    output_file: str            # the artifact the command writes
    check: Callable

    def argv(self, seed, out_dir):
        """The difflab arguments of one command."""
        argv = [self.subcommand, "--config", self.config, "--jobs", str(JOBS),
                "--seed", str(seed), "--out", str(out_dir)]
        if self.runs is not None:
            argv += ["--runs", str(self.runs)]
        for kv in self.overrides:
            argv += ["--set", kv]
        return argv

    def config_overrides(self, seed):
        """The same settings as KEY=VALUE strings, as the CLI applies them."""
        extra = [f"simulation.seed={seed}"]
        if self.runs is not None:
            extra.insert(0, f"simulation.runs={self.runs}")
        return list(self.overrides) + extra

    @property
    def run_iterations(self):
        """Simulated run-iterations per command."""
        return (self.runs or 0) * self.iterations * len(self.algorithms)

    def verify(self, out_dir, stdout, returncode):
        if returncode != 0:
            return _all_fail(self.algorithms, f"exit code {returncode}")
        return self.check(out_dir, stdout, self.algorithms)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fig1-run", subcommand="run", config="presets/fig1.cfg",
            overrides=("simulation.iterations=400",
                       "noise.after.switch_iteration=200"),
            runs=128, iterations=400, algorithms=FIG1_ALGOS,
            output_file="learning_curve.csv", check=check_fig1),
        Workload(
            name="compare-n10", subcommand="compare",
            config="presets/compare.cfg", overrides=(), runs=64,
            iterations=3000, algorithms=("dmtc",),
            output_file="compare_report.txt", check=check_compare),
        Workload(
            name="theory-n100", subcommand="theory",
            config="presets/compare.cfg", overrides=("graph.nodes=100",),
            runs=None, iterations=0, algorithms=("dmtc",),
            output_file="theory_report.txt", check=check_theory_n100),
    )
}
