"""Set-up probe: what a difflab command does before its first simulated
iteration or theory solve, and nothing after.

It starts the interpreter, imports the CLI with everything the CLI
imports, parses the config with the command's overrides and builds the
network problem, then exits. run.py times it from process start to exit.

    python3 perfbench/probe_setup.py CONFIG [KEY=VALUE ...]
"""

import sys

import difflab.cli  # noqa: F401  (the import cost is part of set-up)
from difflab.config import parse_config, parse_overrides

if __name__ == "__main__":
    parse_config(sys.argv[1], parse_overrides(sys.argv[2:])).build_problem()
