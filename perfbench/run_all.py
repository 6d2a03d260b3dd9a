"""Run every workload once, untraced, and print each one's metrics.

Usage, from the repository root::

    python3 perfbench/run_all.py --seed 1 --seconds 20

Each workload runs as its own ``perfbench/run.py`` process, so one
workload's memory never affects the next.  The exit code is non-zero if any
run failed or any output mismatched its oracle.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent))
    from perfbench.run import WORKLOADS

    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            check=False,
        )
        worst = max(worst, completed.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
