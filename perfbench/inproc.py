"""``paper_table2``: the paper's measured quantity, in process.

One caller runs a closed loop of the paper's own update workload
(``HierarchyWorkload.update_statements``: every update changes the monitored
target element, so each one fires the 20 satisfied triggers) against an
``ActiveViewService`` with the default configuration (GROUPED_AGG,
compiled plans, matching indexes).  No server, WAL or wire is involved, so
``persist``/``serving`` per-layer metrics read zero here by design.

"Notify" is the time from the call to the last activation listener call of
the statement, the in-process analogue of a decoded activation.
"""

from __future__ import annotations

import gc
import time
from collections import Counter

from repro.core.service import ActiveViewService

from perfbench import inputs
from perfbench.common import (
    RSS_STATEMENTS_PER_SECOND, SETUP_REPEATS, end_to_end_metrics, host_ticks, log, percentile,
    process_sample, rss_mb, steal_frac, write_samples,
)
from perfbench.layers import layer_self_ms, per_layer_metrics
from perfbench.tracing import Tracer, install_engine

WORKLOAD = "paper_table2"
WARMUP = 32
#: Generated statements per second of run time (well above the loop's rate).
STATEMENTS_PER_SECOND = 2_000
#: Layer self times must sum to the traced wall time within this share.
ACCOUNTING_TOLERANCE = 0.05
#: NEW_NODE samples compared against the interpreted engine.
INTERPRETED_SAMPLES = 32


def build_service(workload, *, compiled: bool = True):
    database = workload.build_database()
    service = ActiveViewService(database, use_compiled_plans=compiled)
    service.register_view(workload.build_view())
    service.register_action("collect", inputs.collect)
    service.register_triggers_bulk(workload.trigger_definitions())
    return database, service


def _setup(seed: int):
    started = time.perf_counter()
    workload = inputs.build_workload(WORKLOAD, seed)
    database, service = build_service(workload)
    return workload, database, service, time.perf_counter() - started


class _Loop:
    """The closed loop; keeps per-statement fired-log slices for the oracle."""

    def __init__(self, service, statements) -> None:
        self.service = service
        self.statements = statements
        self.next = 0
        self.slices: list[tuple[int, int]] = []
        self._last_activation = 0.0
        service.add_activation_listener(self._on_activation)

    def _on_activation(self, _fired) -> None:
        self._last_activation = time.perf_counter()

    def run(self, seconds: float, tracer: Tracer | None = None) -> dict:
        service, fired = self.service, self.service.fired
        rss_at = RSS_STATEMENTS_PER_SECOND[WORKLOAD] * seconds
        rss = None
        acks: list[float] = []
        notifies: list[float] = []
        lateness: list[float] = []
        activations = 0
        before = process_sample()
        host_before = host_ticks()
        started = previous = time.perf_counter()
        deadline = started + seconds
        while True:
            submitted = time.perf_counter()
            if submitted >= deadline:
                break
            lateness.append(submitted - previous)
            index = self.next
            if tracer is not None:
                tracer.stmt = index
            mark = len(fired)
            service.execute(self.statements[index])
            done = previous = time.perf_counter()
            self.next += 1
            self.slices.append((mark, len(fired)))
            acks.append(done - submitted)
            if len(acks) == rss_at:
                rss = rss_mb()
            if len(fired) > mark:
                activations += len(fired) - mark
                notifies.append(self._last_activation - submitted)
        elapsed = time.perf_counter() - started
        after = process_sample()
        host_after = host_ticks()
        return {
            "statements": len(acks),
            "elapsed_s": elapsed,
            "acks": acks,
            "notifies": notifies,
            "lateness": lateness,
            "activations": activations,
            "cpu_s": after["cpu_s"] - before["cpu_s"],
            "rss_mb": rss if rss is not None else after["rss_mb"],
            "host_ticks": (host_before, host_after),
        }

    def warm_up(self, count: int) -> None:
        fired = self.service.fired
        for _ in range(count):
            mark = len(fired)
            self.service.execute(self.statements[self.next])
            self.next += 1
            self.slices.append((mark, len(fired)))


def _combine(windows: list[dict]) -> dict:
    """Several windows of the loop as one."""
    combined = {key: [] for key in ("acks", "notifies", "lateness")}
    for key in ("statements", "elapsed_s", "activations", "cpu_s"):
        combined[key] = sum(window[key] for window in windows)
    for window in windows:
        for key in ("acks", "notifies", "lateness"):
            combined[key].extend(window[key])
    combined["rss_mb"] = max(window["rss_mb"] for window in windows)
    return combined


def _engine_counters(service) -> dict:
    return {
        "fallbacks": service.match_stats.fallbacks,
        "cache_hits": service.result_cache.hits,
        "cache_misses": service.result_cache.misses,
    }


def check_outputs(seed: int, database, service, loop: _Loop) -> list[str]:
    """Oracle: fired sets, trigger-free final tables, interpreted NEW_NODEs.

    A fresh copy of the data replays the executed statements with triggers
    suppressed; every ``len/INTERPRETED_SAMPLES``-th statement instead runs
    through an interpreted-engine service (``use_compiled_plans=False``)
    whose activations must equal the run's.  Each update that changed its
    leaf must have fired exactly the 20 satisfied triggers on one node.
    """
    workload = inputs.build_workload(WORKLOAD, seed)
    reference_db, interpreted = build_service(workload, compiled=False)
    satisfied = {f"t{index}" for index in range(workload.parameters.effective_satisfied)}
    leaf = reference_db.table(workload.level_table(workload.depth - 1))
    executed = loop.statements[: loop.next]
    step = max(1, len(executed) // INTERPRETED_SAMPLES)
    fired = service.fired
    problems: list[str] = []
    target_keys: set = set()
    for index, statement in enumerate(executed):
        key = statement.keys[0]
        before = leaf.get(key)
        start, end = loop.slices[index]
        run_fired = fired[start:end]
        if index % step == 0:
            mark = len(interpreted.fired)
            interpreted.execute(statement)
            expected = Counter((f.trigger, f.key, f.new_node) for f in interpreted.fired[mark:])
            got = Counter((f.trigger, f.key, f.new_node) for f in run_fired)
            if expected != got:
                problems.append(f"statement {index}: NEW_NODEs differ from the interpreted engine")
        else:
            reference_db.execute(statement, fire_triggers=False)
        changed = leaf.get(key) != before
        names = sorted(f.trigger for f in run_fired)
        if changed:
            target_keys.update(f.key for f in run_fired)
            if names != sorted(satisfied):
                problems.append(f"statement {index}: fired {len(names)} triggers, expected the 20 satisfied")
        elif names:
            problems.append(f"statement {index}: a no-op update fired {names}")
    if len(target_keys) > 1:
        problems.append(f"activations on {len(target_keys)} nodes, expected only the target")
    if reference_db.snapshot() != database.snapshot():
        problems.append("final tables differ from the trigger-free replay")
    return problems


def profile_check(seed: int, loop: _Loop) -> str | None:
    """The run's activations per statement against a second seed's replay."""
    count = inputs.profile_count(WORKLOAD, len(loop.slices))
    observed = Counter(end - start for start, end in loop.slices[:count])
    workload = inputs.build_workload(WORKLOAD, inputs.second_seed(seed))
    database, service = build_service(workload)
    second: Counter = Counter()
    for statement in workload.update_statements(count, database):
        mark = len(service.fired)
        service.execute(statement)
        second[len(service.fired) - mark] += 1
    return inputs.profile_problem(seed, observed, second)


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS[WORKLOAD]):
        workload, database, service, elapsed = _setup(seed)
        setups.append(elapsed)
        if len(setups) < SETUP_REPEATS[WORKLOAD]:
            del workload, database, service
            gc.collect()
    count = int(STATEMENTS_PER_SECOND * seconds) + WARMUP
    # The paper's update workload: every statement updates a leaf of the target.
    statements = workload.update_statements(count, database)
    loop = _Loop(service, statements)
    loop.warm_up(WARMUP)

    if trace:
        # Untraced-traced-traced-untraced quarters: both kinds sit at the
        # same mean position, so the loop's drift (the fired log grows)
        # does not read as tracing overhead.
        tracer = Tracer()
        untraced, traced, deltas = [], [], Counter()
        for kind in "UTTU":
            if kind == "U":
                untraced.append(loop.run(seconds / 4))
                continue
            install_engine(tracer)
            tracer.install_gc()
            before = _engine_counters(service)
            try:
                traced.append(loop.run(seconds / 4, tracer))
            finally:
                tracer.uninstall()
            deltas.update({k: v - before[k] for k, v in _engine_counters(service).items()})
        untraced, window = _combine(untraced), _combine(traced)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{WORKLOAD}-seed{seed}.spans")
    else:
        window = loop.run(seconds)
    if loop.next >= len(statements):
        raise RuntimeError("statement pool exhausted; raise STATEMENTS_PER_SECOND")

    log(f"{WORKLOAD}: {loop.next} statements executed; checking outputs")
    problems = check_outputs(seed, database, service, loop)
    profile_problem = profile_check(seed, loop)
    if profile_problem:
        problems.append(profile_problem)
    for problem in problems[:20]:
        log("MISMATCH " + problem)

    result = {
        "attempted": loop.next,
        "failed": min(loop.next, len(problems)),
        "correct": not problems,
        "report": {"workload": WORKLOAD, "seed": seed, "setups_s": setups},
    }
    if not trace:
        metrics, report = end_to_end_metrics(
            WORKLOAD, setups=setups, statements=window["statements"],
            ack_s=window["elapsed_s"], acks=window["acks"], notifies=window["notifies"],
            activations=window["activations"], delivery_s=window["elapsed_s"],
            cpu_s=window["cpu_s"], rss=window["rss_mb"],
        )
        write_samples(out_dir, WORKLOAD, seed, acks=window["acks"], notifies=window["notifies"])
        result["metrics"] = metrics
        result["report"].update(report, host_steal_frac=steal_frac([window["host_ticks"]]))
        return result

    summary = tracer.summary()
    n = window["statements"]
    wall_ms = sum(window["acks"]) * 1e3 / n
    # The tooling check: wall-clock self times must tile the traced wall time.
    covered = sum(layer_self_ms(summary, n, "self_s").values())
    if abs(covered - wall_ms) > ACCOUNTING_TOLERANCE * wall_ms:
        result["correct"] = False
        result["failed"] = max(result["failed"], 1)
        log(f"MISMATCH layer self times {covered:.4f} ms/stmt vs traced wall {wall_ms:.4f} ms/stmt")
    deltas = dict(deltas, fired_log_len=len(service.fired))
    untraced_rate = untraced["statements"] / untraced["elapsed_s"]
    metrics, report_only = per_layer_metrics(
        summary,
        statements=n,
        activations=window["activations"],
        elapsed_s=window["elapsed_s"],
        workers=0,
        deltas=deltas,
        wall_ms_per_stmt=wall_ms,
        gen_late_p99_ms=percentile(window["lateness"], 99) * 1e3,
        trace_overhead_frac=untraced_rate / (n / window["elapsed_s"]) - 1.0,
    )
    result["metrics"] = metrics
    result["report"].update(
        traced_wall_ms_per_stmt=wall_ms,
        layer_self_wall_ms_per_stmt=layer_self_ms(summary, n, "self_s"),
        layer_self_cpu_ms_per_stmt=layer_self_ms(summary, n),
        accounting_tolerance=ACCOUNTING_TOLERANCE,
        layers={name: value for name, (value, _unit) in report_only.items()},
    )
    return result
