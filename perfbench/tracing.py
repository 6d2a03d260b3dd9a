"""Span tracing around the layers' public entry points.

Every wrapper is installed from this file by patching the attribute the
caller resolves (a class method, or a module global such as
``repro.persist.records.serialize``); nothing under ``src/`` knows about
tracing.  A span is ``(id, parent id, name, start, end, cpu start, cpu end,
statement id)`` with wall-clock and thread-CPU times:
the parent is the innermost open span on the same thread, and the
statement id is inherited from the parent unless the entry point names one
(``ActiveViewService.execute_batch`` names the leaf keys of its
statements; the in-process loop sets :attr:`Tracer.stmt`).  Spans and
counters stay in memory until :meth:`Tracer.write` at the end of the run.

A span's *self time* is its duration minus the time its child spans cover,
on either clock.  Thread-CPU self time is what the layer itself computed:
the serving process runs shard workers and front-end loops as threads under
one interpreter lock, so a wall-clock span there also counts the time its
thread waited for the lock while another layer ran.
Garbage-collector pauses are spans too (``runtime.gc``, from
``gc.callbacks``), so a collection that interrupts the engine is charged to
the runtime layer instead of to whichever function happened to allocate.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable

__all__ = [
    "Tracer", "SPAN_LAYER", "RECOVERY_SOURCES", "install_engine", "install_server",
    "install_client", "install_recovery",
]

#: Span name -> the layer (``src/repro`` module) it belongs to.
SPAN_LAYER = {
    "relational.execute": "relational",
    "relational.fire": "relational",
    "core.execute": "core",
    "core.affected_pairs": "core",
    "core.activate": "core",
    "matching.candidates": "matching",
    "xqgm.plan": "xqgm",
    "xmlmodel.serialize": "xmlmodel",
    "persist.wal_append": "persist",
    "persist.wal_write": "persist",
    "persist.outbox_append": "persist",
    "persist.cursors_append": "persist",
    "persist.other_append": "persist",
    "serving.net.encode": "serving.net",
    "serving.net.decode": "serving.net",
    "serving.web.encode": "serving.web",
    "serving.web.decode": "serving.web",
    "runtime.gc": "runtime",
}

_perf = time.perf_counter
_cpu = time.thread_time
#: Marks a patched attribute that the owner inherited rather than held.
_INHERITED = object()


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.queue_waits: list[float] = []
        #: Statement id for root spans that do not name their own.
        self.stmt: Any = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self._counts_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._submit_times: dict[int, float] = {}
        self._gc_installed = False

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counter(self) -> Counter:
        """This thread's counter (merged by :meth:`counts`; no lost updates)."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._counts_lock:
                self._thread_counts.append(counts)
        return counts

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._counts_lock:
            for counts in self._thread_counts:
                total.update(counts)
        return total

    def span(
        self,
        name: str | Callable[[tuple], str],
        func: Callable,
        *,
        stmt_of: Callable[[tuple], Any] | None = None,
        after: Callable[[Counter, Any], None] | None = None,
    ) -> Callable:
        """``func`` wrapped to record one span per call."""
        tracer = self
        spans = self.spans
        ids = self._ids

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, stmt = stack[-1]
            else:
                parent, stmt = 0, tracer.stmt
            if stmt_of is not None:
                stmt = stmt_of(args)
            sid = next(ids)
            stack.append((sid, stmt))
            cpu_start = _cpu()
            start = _perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = _perf()
                cpu_end = _cpu()
                stack.pop()
                spans.append(
                    (sid, parent, name if isinstance(name, str) else name(args),
                     start, end, cpu_start, cpu_end, stmt)
                )
            if after is not None:
                after(tracer.counter(), result)
            return result

        return wrapper

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        # The raw entry (a classmethod object, not the bound method), so that
        # uninstall restores exactly what the owner held.
        self._patches.append((owner, attribute, vars(owner).get(attribute, _INHERITED)))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: Any, attribute: str, name, **options) -> None:
        self.patch(owner, attribute, self.span(name, getattr(owner, attribute), **options))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._local.gc_started = (_perf(), _cpu())
            return
        started = getattr(self._local, "gc_started", None)
        if started is None:
            return
        self._local.gc_started = None
        stack = self._stack()
        parent, stmt = stack[-1] if stack else (0, self.stmt)
        self.spans.append(
            (next(self._ids), parent, "runtime.gc", started[0], _perf(), started[1], _cpu(), stmt)
        )
        self.counter()["runtime.gc_collections"] += 1

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._gc_installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first) and detach from gc."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        if self._gc_installed:
            gc.callbacks.remove(self._on_gc)
            self._gc_installed = False

    # ------------------------------------------------------------ reading

    def summary(self) -> dict:
        """Per-span-name self (wall and CPU) and root seconds and calls,
        counters, queue waits."""
        covered: dict[int, float] = defaultdict(float)
        covered_cpu: dict[int, float] = defaultdict(float)
        for sid, parent, _name, start, end, cpu_start, cpu_end, _stmt in self.spans:
            if parent:
                covered[parent] += end - start
                covered_cpu[parent] += cpu_end - cpu_start
        self_s: dict[str, float] = defaultdict(float)
        self_cpu_s: dict[str, float] = defaultdict(float)
        root_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, parent, name, start, end, cpu_start, cpu_end, _stmt in self.spans:
            self_s[name] += (end - start) - covered.get(sid, 0.0)
            self_cpu_s[name] += (cpu_end - cpu_start) - covered_cpu.get(sid, 0.0)
            calls[name] += 1
            if not parent:
                root_s[name] += end - start
        return {
            "self_s": dict(self_s),
            "self_cpu_s": dict(self_cpu_s),
            "root_s": dict(root_s),
            "calls": dict(calls),
            "counts": dict(self.counts()),
            "queue_waits": list(self.queue_waits),
        }

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str))
                handle.write("\n")


# ---------------------------------------------------------------- installers


def _statement_ids(args: tuple) -> tuple:
    """Leaf keys of an ``execute_batch`` call's statements (the run's ids)."""
    ids = []
    for statement in args[1]:
        keys = getattr(statement, "keys", None)
        ids.append(keys[0][0] if keys else None)
    return tuple(ids)


def install_engine(tracer: Tracer) -> None:
    """relational, core, matching, xqgm and xmlmodel entry points."""
    from repro.core.activation import TriggerActivator
    from repro.core.pushdown import CompiledTableTrigger
    from repro.core.service import ActiveViewService
    from repro.matching.engine import GroupMatcher
    from repro.persist import records
    from repro.relational.database import Database
    from repro.relational.triggers import StatementTrigger
    from repro.xqgm.physical import PhysicalOp, PhysicalPlan, PInnerJoin, PTwoWayJoin

    tracer.wrap(Database, "execute", "relational.execute")
    tracer.wrap(Database, "execute_many", "relational.execute")
    tracer.wrap(StatementTrigger, "fire", "relational.fire",
                after=lambda counts, _r: counts.update(("relational.trigger_fires",)))
    tracer.wrap(ActiveViewService, "execute", "core.execute")
    tracer.wrap(ActiveViewService, "execute_batch", "core.execute", stmt_of=_statement_ids)
    tracer.wrap(CompiledTableTrigger, "affected_pairs", "core.affected_pairs")
    tracer.wrap(TriggerActivator, "activate", "core.activate")

    def count_candidates(counts: Counter, result) -> None:
        counts["matching.candidate_rows"] += len(result[0])

    tracer.wrap(GroupMatcher, "candidates", "matching.candidates", after=count_candidates)
    tracer.wrap(PhysicalPlan, "execute", "xqgm.plan")
    tracer.wrap(PhysicalPlan, "execute_mappings", "xqgm.plan")
    original_rows = PhysicalOp.rows
    joins = (PInnerJoin, PTwoWayJoin)

    def rows(self, ctx, memo):
        counts = tracer.counter()
        counts["xqgm.rows_calls"] += 1
        if isinstance(self, joins):
            counts["xqgm.join_calls"] += 1
        return original_rows(self, ctx, memo)

    tracer.patch(PhysicalOp, "rows", rows)
    # The outbox and the frame caches reach serialize through records.py.
    tracer.wrap(records, "serialize", "xmlmodel.serialize")


def _log_span_name(args: tuple) -> str:
    file_name = args[0].path.name
    if file_name == "wal.log":
        return "persist.wal_write"
    if file_name == "outbox.log":
        return "persist.outbox_append"
    if file_name == "cursors.log":
        return "persist.cursors_append"
    return "persist.other_append"


def install_server(tracer: Tracer, front_end: str) -> None:
    """Engine layers plus persist, serving and the server half of the wire."""
    from repro.core.service import ActiveViewService
    from repro.persist.wal import RecordLog, WriteAheadLog
    from repro.serving.server import ActiveViewServer

    install_engine(tracer)

    def count_append(counts: Counter, _result) -> None:
        counts["persist.appends"] += 1

    tracer.wrap(WriteAheadLog, "log_event", "persist.wal_append")
    tracer.wrap(RecordLog, "append", _log_span_name, after=count_append)

    # Queue wait: the submit timestamp against the execute_batch start.
    submit_times = tracer._submit_times
    original_submit = ActiveViewServer.submit

    def submit(self, statement):
        submit_times[id(statement)] = _perf()
        return original_submit(self, statement)

    tracer.patch(ActiveViewServer, "submit", submit)
    traced_batch = ActiveViewService.execute_batch  # already span-wrapped

    def execute_batch(self, statements):
        now = _perf()
        for statement in statements:
            submitted = submit_times.pop(id(statement), None)
            if submitted is not None:
                tracer.queue_waits.append(now - submitted)
        return traced_batch(self, statements)

    tracer.patch(ActiveViewService, "execute_batch", execute_batch)

    if front_end == "net":
        from repro.serving.net.frames import SharedFrameCache

        for method in ("single_frame", "batch_frame", "frame_size"):
            tracer.wrap(SharedFrameCache, method, "serving.net.encode")
    else:
        from repro.serving.web.webframes import JsonFrameCache

        tracer.wrap(JsonFrameCache, "frame", "serving.web.encode")
    tracer.install_gc()


def install_client(tracer: Tracer, front_end: str) -> None:
    """The subscriber-side decode of the wire (plus gc) in the generator."""
    if front_end == "net":
        from repro.serving.net import client

        tracer.wrap(client, "decode_payload", "serving.net.decode")
        tracer.wrap(client, "activation_from_wire", "serving.net.decode")
    else:
        import json as json_module

        from repro.serving.web import client

        tracer.wrap(client.WsClient, "_dispatch", "serving.web.decode")
        proxy = types.SimpleNamespace(
            loads=tracer.span("serving.web.decode", json_module.loads),
            dumps=json_module.dumps,
        )
        tracer.patch(client, "json", proxy)
    tracer.install_gc()


#: Recovery sources, each timed as the self time of ``persist.replay_<source>``.
RECOVERY_SOURCES = ("snapshot", "wal", "ddl", "outbox")


def _replay_span_name(args: tuple) -> str:
    return "persist.replay_" + args[0].path.stem  # wal, outbox, ddl, cursors, meta


def install_recovery(tracer: Tracer) -> None:
    """The recovery sources of a reopening ``DurableServer``.

    A shard's recovery (``recover_database``) counts as WAL replay once its
    snapshot load and restore, spans of their own, are subtracted.  Every
    ``RecordLog.replay`` is read eagerly inside a span named after its file,
    so reading the outbox is charged to the outbox like parsing its records.
    """
    from repro.persist import durable
    from repro.persist.snapshot import Snapshot
    from repro.persist.wal import RecordLog

    tracer.wrap(durable, "recover_database", "persist.replay_wal")
    tracer.wrap(Snapshot, "load", "persist.replay_snapshot")
    tracer.wrap(Snapshot, "restore", "persist.replay_snapshot")
    tracer.wrap(durable._RegistryLog, "replay_into", "persist.replay_ddl")
    tracer.wrap(durable, "activation_from_record", "persist.replay_outbox")
    original_replay = RecordLog.replay

    def replay(log):
        return iter(list(original_replay(log)))

    tracer.patch(RecordLog, "replay", tracer.span(_replay_span_name, replay))
