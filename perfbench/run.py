"""One run of one workload of the end-to-end trigger benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_table2 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` measures an untraced half and a traced
half of the window and reports the per-layer metrics (spans are written to
``.bench_out/``).  Either way the outputs are checked against the
workload's oracle.  Progress and a readable report go to stderr and stdout;
the last stdout line is the JSON result.  The exit code is 0 only for a
run whose outputs were all correct.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_table2", "durable_tcp_trickle", "durable_web_burst")
#: A run must end well within the 180 s allowed for it.
TIME_LIMIT_S = 170


def _expected_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def _on_alarm(_signum, _frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end trigger benchmark, one run.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)

    from perfbench.common import emit

    out_dir = ROOT / ".bench_out"
    trace = bool(args.trace)
    try:
        if args.workload == "paper_table2":
            from perfbench import inproc

            result = inproc.run(args.seed, args.seconds, trace, out_dir)
        else:
            from perfbench import wire

            result = wire.run(ROOT, args.workload, args.seed, args.seconds, trace, out_dir)
    except Exception:  # noqa: BLE001 - a failed run prints no result
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)

    expected = _expected_metrics(trace)
    produced = {name: unit for name, (_value, unit) in result["metrics"].items()}
    if produced != expected:
        print(f"error: metrics {produced} != BENCHMARK.json {expected}", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": float(result["metrics"][name][0]), "unit": unit}
        for name, unit in expected.items()
    }
    emit(result["correct"], result["attempted"], result["failed"], metrics, result["report"])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
