"""Per-layer metrics of a traced window, named ``<module>.<metric>``.

Every ``*_ms_*`` metric is thread-CPU *self* time: the layer's spans minus
the time their child spans cover (see :mod:`perfbench.tracing`), so the
serving process's threads do not charge each other's interpreter-lock waits.
``bench.unattributed_ms_per_stmt`` is the traced wall time per statement
less the sum of every layer's CPU self time: wire and event-loop hops,
lock waits and preemption.  ``PER_LAYER`` is
what a traced run prints as its result on every workload.  ``REPORT_ONLY``
holds the times of layers that only some workloads exercise (``persist``,
``serving``, the wire halves and the serializer are idle on
``paper_table2``, and each front end is idle on the other's workload): a
layer that does no work reads a constant 0 there, so these are printed on
the traced run's ``report`` line instead of in the result.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from perfbench.tracing import SPAN_LAYER

__all__ = ["PER_LAYER", "REPORT_ONLY", "merge", "layer_self_ms", "per_layer_metrics"]

PER_LAYER = [
    ("relational.self_ms_per_stmt", "ms"),
    ("relational.trigger_fires_per_stmt", "count"),
    ("core.affected_pairs_ms_per_stmt", "ms"),
    ("core.affected_pairs_calls_per_stmt", "count"),
    ("core.activate_ms_per_activation", "ms"),
    ("core.fired_log_len", "count"),
    ("matching.candidates_ms_per_stmt", "ms"),
    ("matching.candidate_rows_per_activation", "count"),
    ("matching.fallbacks", "count"),
    ("xqgm.plan_ms_per_stmt", "ms"),
    ("xqgm.rows_calls_per_stmt", "count"),
    ("xqgm.join_calls_per_stmt", "count"),
    ("xqgm.cache_hit_ratio", "frac"),
    ("xmlmodel.serializations_per_activation", "count"),
    ("persist.appends_per_stmt", "count"),
    ("persist.wal_bytes_per_stmt", "B"),
    ("persist.outbox_bytes_per_stmt", "B"),
    ("persist.cursors_bytes_per_stmt", "B"),
    ("persist.log_bytes_per_stmt", "B"),
    ("serving.batch_size_mean", "count"),
    ("serving.worker_busy_frac", "frac"),
    ("serving.errors", "count"),
    ("serving.net.frames_per_activation", "count"),
    ("serving.net.bytes_per_activation", "B"),
    ("serving.net.pauses", "count"),
    ("serving.web.bytes_per_activation", "B"),
    ("serving.web.pauses", "count"),
    ("runtime.gc_ms_per_stmt", "ms"),
    ("runtime.gc_collections_per_stmt", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.unattributed_ms_per_stmt", "ms"),
]

REPORT_ONLY = [
    ("xmlmodel.serialize_ms_per_stmt", "ms"),
    ("persist.wal_append_ms_per_stmt", "ms"),
    ("persist.outbox_append_ms_per_stmt", "ms"),
    ("persist.replay_ms", "ms"),
    ("persist.replay_snapshot_ms", "ms"),
    ("persist.replay_wal_ms", "ms"),
    ("persist.replay_ddl_ms", "ms"),
    ("persist.replay_outbox_ms", "ms"),
    ("serving.queue_wait_ms_p50", "ms"),
    ("serving.net.encode_ms_per_activation", "ms"),
    ("serving.net.decode_ms_per_activation", "ms"),
    ("serving.web.encode_ms_per_activation", "ms"),
    ("serving.web.decode_ms_per_activation", "ms"),
]


def merge(*summaries: dict) -> dict:
    """Combine tracer summaries (server and client process) into one."""
    merged = {"self_s": defaultdict(float), "self_cpu_s": defaultdict(float),
              "root_s": defaultdict(float),
              "calls": Counter(), "counts": Counter(), "queue_waits": []}
    for summary in summaries:
        for key in ("self_s", "self_cpu_s", "root_s"):
            for name, value in summary[key].items():
                merged[key][name] += value
        merged["calls"].update(summary["calls"])
        merged["counts"].update(summary["counts"])
        merged["queue_waits"].extend(summary["queue_waits"])
    return merged


def layer_self_ms(summary: dict, statements: int, clock: str = "self_cpu_s") -> dict[str, float]:
    """Self milliseconds per statement, summed per layer (CPU or wall clock)."""
    per_layer: dict[str, float] = defaultdict(float)
    for name, seconds in summary[clock].items():
        per_layer[SPAN_LAYER[name]] += seconds * 1e3 / statements
    return dict(per_layer)


def per_layer_metrics(
    summary: dict,
    *,
    statements: int,
    activations: int,
    elapsed_s: float,
    workers: int,
    deltas: dict,
    wall_ms_per_stmt: float,
    gen_late_p99_ms: float,
    trace_overhead_frac: float,
) -> tuple[dict, dict]:
    """``(result metrics, report-only metrics)``, each ``name -> (value, unit)``."""
    n = max(1, statements)
    a = max(1, activations)
    self_s = summary["self_cpu_s"]
    calls = summary["calls"]
    counts = summary["counts"]

    def ms(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) * 1e3

    hits, misses = deltas.get("cache_hits", 0), deltas.get("cache_misses", 0)
    wal_b = deltas.get("wal_bytes", 0)
    outbox_b = deltas.get("outbox_bytes", 0)
    cursors_b = deltas.get("cursors_bytes", 0)
    batches = deltas.get("shard_batches", 0)
    covered = sum(layer_self_ms(summary, n).values())
    values = {
        "relational.self_ms_per_stmt": ms("relational.execute", "relational.fire") / n,
        "relational.trigger_fires_per_stmt": counts.get("relational.trigger_fires", 0) / n,
        "core.affected_pairs_ms_per_stmt": ms("core.affected_pairs") / n,
        "core.affected_pairs_calls_per_stmt": calls.get("core.affected_pairs", 0) / n,
        "core.activate_ms_per_activation": ms("core.activate") / a,
        "core.fired_log_len": deltas.get("fired_log_len", 0),
        "matching.candidates_ms_per_stmt": ms("matching.candidates") / n,
        "matching.candidate_rows_per_activation": counts.get("matching.candidate_rows", 0) / a,
        "matching.fallbacks": deltas.get("fallbacks", 0),
        "xqgm.plan_ms_per_stmt": ms("xqgm.plan") / n,
        "xqgm.rows_calls_per_stmt": counts.get("xqgm.rows_calls", 0) / n,
        "xqgm.join_calls_per_stmt": counts.get("xqgm.join_calls", 0) / n,
        "xqgm.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "xmlmodel.serializations_per_activation": calls.get("xmlmodel.serialize", 0) / a,
        "persist.appends_per_stmt": counts.get("persist.appends", 0) / n,
        "persist.wal_bytes_per_stmt": wal_b / n,
        "persist.outbox_bytes_per_stmt": outbox_b / n,
        "persist.cursors_bytes_per_stmt": cursors_b / n,
        "persist.log_bytes_per_stmt": (wal_b + outbox_b + cursors_b) / n,
        "serving.batch_size_mean": deltas.get("shard_statements", 0) / batches if batches else 0.0,
        "serving.worker_busy_frac": (
            summary["root_s"].get("core.execute", 0.0) / (elapsed_s * workers) if workers else 0.0
        ),
        "serving.errors": deltas.get("shard_errors", 0),
        "serving.net.frames_per_activation": deltas.get("net_frames", 0) / a,
        "serving.net.bytes_per_activation": deltas.get("net_bytes", 0) / a,
        "serving.net.pauses": deltas.get("net_pauses", 0),
        "serving.web.bytes_per_activation": deltas.get("web_bytes", 0) / a,
        "serving.web.pauses": deltas.get("web_pauses", 0),
        "runtime.gc_ms_per_stmt": ms("runtime.gc") / n,
        "runtime.gc_collections_per_stmt": counts.get("runtime.gc_collections", 0) / n,
        "bench.gen_late_p99_ms": gen_late_p99_ms,
        "bench.trace_overhead_frac": trace_overhead_frac,
        "bench.unattributed_ms_per_stmt": wall_ms_per_stmt - covered,
    }
    waits = summary["queue_waits"]
    replay = deltas.get("replay_ms", {})
    report = {
        "xmlmodel.serialize_ms_per_stmt": ms("xmlmodel.serialize") / n,
        "persist.wal_append_ms_per_stmt": ms("persist.wal_append", "persist.wal_write") / n,
        "persist.outbox_append_ms_per_stmt": ms("persist.outbox_append") / n,
        "persist.replay_ms": sum(replay.values()),
        "persist.replay_snapshot_ms": replay.get("snapshot", 0.0),
        "persist.replay_wal_ms": replay.get("wal", 0.0),
        "persist.replay_ddl_ms": replay.get("ddl", 0.0),
        "persist.replay_outbox_ms": replay.get("outbox", 0.0),
        "serving.queue_wait_ms_p50": statistics.median(waits) * 1e3 if waits else 0.0,
        "serving.net.encode_ms_per_activation": ms("serving.net.encode") / a,
        "serving.net.decode_ms_per_activation": ms("serving.net.decode") / a,
        "serving.web.encode_ms_per_activation": ms("serving.web.encode") / a,
        "serving.web.decode_ms_per_activation": ms("serving.web.decode") / a,
    }
    units = dict(PER_LAYER + REPORT_ONLY)
    return (
        {name: (values[name], units[name]) for name, _ in PER_LAYER},
        {name: (report[name], units[name]) for name, _ in REPORT_ONLY},
    )
