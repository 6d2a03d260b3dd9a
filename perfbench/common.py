"""Shared helpers: percentiles, process counters, result assembly."""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time

__all__ = [
    "TAIL",
    "MIN_BEYOND",
    "RSS_STATEMENTS_PER_SECOND",
    "SETUP_REPEATS",
    "percentile",
    "tail_of",
    "process_sample",
    "host_ticks",
    "steal_frac",
    "rss_mb",
    "end_to_end_metrics",
    "write_samples",
    "emit",
    "log",
]

#: Per workload: (tail percentile, groups).  ``*_tail_ms`` is the median
#: over ``groups`` consecutive groups of samples of each group's tail
#: percentile: the highest of 50/75/90/95/99 that leaves at least
#: ``MIN_BEYOND`` samples beyond it in every group at the sample counts a
#: 20-second run produces on a 2-core machine (see README.md).  The median
#: over groups damps a single slow stretch of a run.
TAIL = {
    "paper_table2": (95.0, 8),
    "durable_tcp_trickle": (90.0, 8),
    "durable_web_burst": (75.0, 1),
}
#: Fewest samples a tail percentile must leave beyond it in each group.
MIN_BEYOND = 10
_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Closed loops sample the serving process's peak RSS once this many
#: statements per second of run time have been measured, so ``rss_mb``
#: compares a fixed amount of work (the fired log grows per statement) and
#: a faster commit is not charged for the extra statements it fits in.
RSS_STATEMENTS_PER_SECOND = {
    "paper_table2": 100,
    "durable_web_burst": 12,
}

#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {
    "paper_table2": 3,
    "durable_tcp_trickle": 7,
    "durable_web_burst": 3,
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_of(workload: str, samples: list) -> tuple[float, float, int]:
    """``(tail, percentile, fewest samples beyond it in any group)``.

    ``samples`` are in submission order; groups are consecutive slices.  The
    percentile is the workload's, or, when a run yields too few samples for
    it, the highest lower one that still leaves ``MIN_BEYOND`` beyond it in
    every group; with too few samples even for the median the run fails.
    """
    q, groups = TAIL[workload]
    size = len(samples) // groups
    slices = [samples[index * size:(index + 1) * size] for index in range(groups - 1)]
    slices.append(samples[(groups - 1) * size:])
    for p in (p for p in _PERCENTILES if p <= q):
        values = [percentile(group, p) for group in slices]
        beyond = min(sum(1 for sample in group if sample > value)
                     for group, value in zip(slices, values))
        if beyond >= MIN_BEYOND:
            return statistics.median(values), p, beyond
    raise RuntimeError(
        f"{len(samples)} latency samples in {groups} groups leave fewer than "
        f"{MIN_BEYOND} beyond even the median"
    )


def end_to_end_metrics(
    workload: str,
    *,
    setups: list,
    statements: int,
    ack_s: float,
    acks: list,
    notifies: list,
    activations: int,
    delivery_s: float,
    cpu_s: float,
    rss: float,
) -> tuple[dict, dict]:
    """``(metrics, report)`` of an untraced window; latencies in seconds."""
    ack_tail, ack_percentile, ack_beyond = tail_of(workload, acks)
    notify_tail, notify_percentile, notify_beyond = tail_of(workload, notifies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "stmts_per_s": (statements / ack_s, "1/s"),
        "ack_p50_ms": (statistics.median(acks) * 1e3, "ms"),
        "ack_tail_ms": (ack_tail * 1e3, "ms"),
        "notify_p50_ms": (statistics.median(notifies) * 1e3, "ms"),
        "activations_per_s": (activations / delivery_s, "1/s"),
        "server_cpu_ms_per_stmt": (cpu_s * 1e3 / statements, "ms"),
        "rss_mb": (rss, "MB"),
    }
    # The notify tail is reported but not gated: on the open loop its
    # run-to-run spread exceeds every bound the benchmark may set (README.md).
    report = {
        "notify_tail_ms": notify_tail * 1e3,
        "ack_samples": len(acks), "notify_samples": len(notifies),
        "ack_tail_percentile": ack_percentile, "ack_beyond_tail": ack_beyond,
        "notify_tail_percentile": notify_percentile, "notify_beyond_tail": notify_beyond,
        "activations_per_stmt": activations / statements,
    }
    return metrics, report


def write_samples(out_dir, workload: str, seed: int, **samples: list) -> None:
    """Keep a run's latency samples (seconds, submission order) for re-analysis."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-samples.json"
    path.write_text(json.dumps(samples), encoding="utf-8")


def process_sample() -> dict:
    """CPU seconds and peak RSS of this process."""
    return {"cpu_s": time.process_time(), "rss_mb": rss_mb()}


def host_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` clock ticks of the machine's CPUs so far.

    Read from ``/proc/stat`` (Linux); ``None`` where it is missing.  Steal is
    time a virtual machine's CPUs were ready to run but the hypervisor ran
    something else: the benchmark's processes neither ran nor were idle.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal
    ticks = [int(field) for field in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_frac(spans: list) -> float | None:
    """Steal share of the CPUs' time over ``(before, after)`` tick pairs."""
    if any(before is None or after is None for before, after in spans):
        return None
    total = sum(after[1] - before[1] for before, after in spans)
    return sum(after[0] - before[0] for before, after in spans) / total if total else None


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message: str) -> None:
    """Progress and reports go to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict, report: dict) -> None:
    """Print the human-readable report, then the result as stdout's last line."""
    print("report " + json.dumps(report, sort_keys=True, default=str))
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
