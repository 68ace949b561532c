"""difflab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (src/difflab and presets/ present);
difflab runs from src/, nothing is installed. Outputs go to
.perfbench_out/ in that tree.

Each workload is a closed loop with one caller: it starts one `difflab`
command as a subprocess with `--jobs 2` and `--seed N`, waits for it to
exit, checks its output, and starts the next, until the next one would
end after S seconds (at least one command). Before each command a
set-up probe (probe_setup.py) is timed: interpreter start, imports,
parse_config and build_problem, in a subprocess that stops there.

Workloads (see workloads.py for the commands and the output checks):
  fig1-run     `run` on fig1 at 128 runs x 400 iterations: all seven
               variants, both noise phases, two 64-run chunks so the
               process pool engages.
  compare-n10  `compare` on compare.cfg at 64 runs: one fixed-combine
               algorithm, Gaussian noise only, N=10 over 3000
               iterations, one chunk so the pool is bypassed.
  theory-n100  `theory` on compare.cfg at N=100: the closed-form solve
               alone, nothing simulated.
Left out: the tier-1 test suite (about 467 s a pass, too long to repeat
for every run), `sweep` (it runs the same simulate/harness code as
fig1-run, once per swept value), and theory above N=100 (at avg_degree
3, N=150 finds no connected graph and exits 3).

End-to-end metrics (--trace 0), medians over the commands of the run:
  wall_s          command wall time, process start to exit
  setup_s         set-up probe wall time
  run_iter_per_s  work per second of non-set-up time,
                  work / (wall_s - setup_s). The work is the simulated
                  run-iterations (runs x iterations x algorithms); on
                  theory-n100, which simulates nothing, it is the number
                  of theory solves, one per command.
  peak_rss_mib    the largest peak resident set among the command and
                  the pool workers it waited for (wait4's ru_maxrss)
An operation is one algorithm's result in a command's output;
`attempted` and `failed` count them, so failed / attempted is the failed
fraction. An operation fails when the command exits nonzero, its output
check fails, or any run of its ensemble diverged.

Per-layer metrics (--trace 1) come from traced in-process passes; see
tracing.py.

The second-to-last line of standard output is a JSON record of the
machine, the code and each command; the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_SETUP_SAMPLES = 10
COMMAND_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "run_iter_per_s": "1/s",
                    "peak_rss_mib": "MiB"}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_timed(argv, log_dir):
    """Run argv to completion; returns (wall_s, maxrss_kib, code, stdout).

    The child leads its own process group, so a command that outlives
    COMMAND_TIMEOUT_S is killed together with its pool workers.
    """
    with open(log_dir / "stdout.txt", "w+") as out, \
            open(log_dir / "stderr.txt", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, usage.ru_maxrss, proc.returncode, out.read()


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def probe_setup(workload, seed, log_dir):
    argv = [sys.executable, str(HERE / "probe_setup.py"), workload.config,
            *workload.config_overrides(seed)]
    wall, _, code, _ = run_timed(argv, log_dir)
    if code != 0:
        err = (log_dir / "stderr.txt").read_text()
        raise RuntimeError(f"set-up probe exited {code}: {err}")
    return wall


def closed_loop(workload, seed, seconds, out_dir):
    """Probe and command pairs until the next would end after `seconds`."""
    cmd = [sys.executable, "-m", "difflab.cli",
           *workload.argv(seed, out_dir)]
    probe_setup(workload, seed, out_dir)   # untimed warm-up
    setups, commands = [], []
    start = time.perf_counter()
    artifact = out_dir / workload.output_file
    while True:
        t0 = time.perf_counter()
        setups.append(probe_setup(workload, seed, out_dir))
        artifact.unlink(missing_ok=True)   # check this command's output only
        wall, rss_kib, code, stdout = run_timed(cmd, out_dir)
        outcome = workload.verify(out_dir, stdout, code)
        commands.append({
            "wall_s": wall, "peak_rss_mib": rss_kib / 1024.0, "exit": code,
            "failures": {a: r for a, r in outcome.items() if r},
            "sha256": sha256_of(artifact) if artifact.is_file() else None,
        })
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(probe_setup(workload, seed, out_dir))

    wall = statistics.median(c["wall_s"] for c in commands)
    setup = statistics.median(setups)
    work = workload.run_iterations or len(workload.algorithms)
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "run_iter_per_s": work / (wall - setup),
        "peak_rss_mib": statistics.median(c["peak_rss_mib"] for c in commands),
    }
    attempted = len(commands) * len(workload.algorithms)
    failed = sum(len(c["failures"]) for c in commands)
    info = {"commands": commands, "setup_samples_s": setups}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, attempted, failed, info)


def blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest():
    """sha256 over the paths and bytes of src/, which names the code
    where no git commit is available."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(seed):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DIFFLAB_THREADS")},
        "loadavg_before": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/difflab/cli.py", "presets"):
        if not (ROOT / needed).exists():
            print(f"perfbench: {needed} not found under {ROOT}; run from a "
                  "difflab source tree", file=sys.stderr)
            return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    record = machine_record(args.seed)

    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        import tracing   # imports difflab, so only after the path is set
        os.chdir(ROOT)   # the commands name their configs relative to it
        metrics, attempted, failed, info = tracing.traced_run(
            workload, args.seed, args.seconds, ROOT, out_dir)
    else:
        metrics, attempted, failed, info = closed_loop(
            workload, args.seed, args.seconds, out_dir)
    record["loadavg_after"] = os.getloadavg()

    print(json.dumps({"workload": workload.name, "trace": args.trace,
                      "machine": record, **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
