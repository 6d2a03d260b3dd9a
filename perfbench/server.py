"""The serving stack of the wire workloads, run as a child process.

``python3 -m perfbench.server --workload <name> --seed <n> --dir <path>``
builds the data, opens a :class:`~repro.persist.DurableServer` (2 shards,
GROUPED_AGG, compiled plans, ``sync="flush"``) on ``--dir``, registers the
view and the triggers, and serves it through a default-configured
``NetworkServer`` (``durable_tcp_trickle``) or ``WebGateway``
(``durable_web_burst``).  It then answers one JSON command per stdin line
with one JSON line on stdout:

``mark``
    counters of this process (CPU, peak RSS, log sizes, shard, matching,
    result-cache and wire counters).
``trace`` with ``on``
    install (true) or remove (false) the server-side span wrappers; spans
    accumulate across installs.
``summary``
    the span summary of everything traced so far.
``finish`` with ``recover``, ``probe_index`` and ``trace``
    stop serving and close the store without a snapshot.  With
    ``recover`` the directory is reopened (timed, up to ready-to-serve),
    the recovered tables are compared with the pre-close tables, and the
    subscriber ``bench`` resumes: nothing acked is redelivered and one more
    statement continues every shard's sequence without a gap.
``quit``
    stop and exit.

The generator process never shares an interpreter with this one, so its
GIL never steals the server's time.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time

from repro.persist import DurableServer, Snapshot
from repro.persist.recovery import SNAPSHOT_FILE

from perfbench import inputs
from perfbench.common import process_sample
from perfbench.tracing import RECOVERY_SOURCES, Tracer, install_recovery, install_server

SHARDS = 2
#: The durable named subscription of the generator's subscriber connection.
SUBSCRIBER = "bench"


class Stack:
    """DurableServer + front end for one workload."""

    def __init__(self, workload_name: str, seed: int, directory: pathlib.Path) -> None:
        self.front_end = "net" if workload_name == "durable_tcp_trickle" else "web"
        self.seed = seed
        self.directory = directory
        self.workload = inputs.build_workload(workload_name, seed)
        self.view = self.workload.build_view()
        # The data enters the store as per-shard snapshots (placement by top
        # element, as the server routes); views and triggers are then
        # registered through the server, which logs them in its DDL log.
        sharded = self.workload.build_sharded_database(SHARDS)
        for index, shard in enumerate(sharded.shards):
            (directory / f"shard{index}").mkdir(parents=True)
            Snapshot.capture(shard).write(directory / f"shard{index}" / SNAPSHOT_FILE)
        del sharded
        self.durable = self._open()
        self.durable.ensure_view(self.view)
        self.durable.server.register_triggers_bulk(self.workload.trigger_definitions())
        self.durable.start()
        self.front = self._front_end(self.durable)
        self.tracer: Tracer | None = None

    def _open(self) -> DurableServer:
        return DurableServer(
            self.directory,
            shard_count=SHARDS,
            key_fn=self.workload.routing_key_fn(),
            views=[self.view],
            actions={"collect": inputs.collect},
        )

    def _front_end(self, durable: DurableServer):
        if self.front_end == "net":
            from repro.serving.net import NetworkServer

            return NetworkServer(durable).start()
        from repro.serving.web import WebGateway

        return WebGateway(durable).start()

    # ------------------------------------------------------------ commands

    def mark(self) -> dict:
        durable = self.durable
        server = durable.server
        sample = process_sample()
        wire = dict(self.front.counters)
        report = {
            **sample,
            "wal_bytes": sum(wal.byte_size for wal in durable.wals),
            "outbox_bytes": durable.outbox.byte_size,
            "cursors_bytes": durable.cursors.byte_size,
            "shard_statements": sum(stats.statements for stats in server.stats),
            "shard_batches": sum(stats.batches for stats in server.stats),
            "shard_errors": sum(stats.errors for stats in server.stats),
            "fallbacks": sum(s.match_stats.fallbacks for s in server.services),
            "cache_hits": sum(s.result_cache.hits for s in server.services),
            "cache_misses": sum(s.result_cache.misses for s in server.services),
            "fired_log_len": sum(len(s.fired) for s in server.services),
            "activations_published": server.activations_published,
        }
        if self.front_end == "net":
            # Frames that carry activations: singles plus batch frames.
            frames = (wire["activations_sent"] - wire["batched_activations_sent"]
                      + wire["activation_batches_sent"])
            report.update(net_frames=frames, net_bytes=wire["bytes_sent"],
                          net_pauses=wire["subscriptions_paused"])
        else:
            report.update(web_bytes=wire["ws_bytes_sent"], web_pauses=wire["subscriptions_paused"])
        return report

    def trace(self, on: bool) -> dict:
        if on:
            if self.tracer is None:
                self.tracer = Tracer()
            install_server(self.tracer, self.front_end)
        else:
            self.tracer.uninstall()
        return {"ok": True}

    def stop(self) -> None:
        self.front.stop()
        self.durable.close()

    def finish(self, recover: bool, probe_index: int, trace_path: str | None) -> dict:
        self.front.stop()
        durable = self.durable
        durable.drain()
        tables = durable.sharded.snapshot()
        sequences = durable.server.sequences
        cursor = dict(durable.durability_report()["cursors"].get(SUBSCRIBER, {}))
        durable.close()  # no snapshot: recovery replays this run's own log
        result: dict = {"sequences": sequences, "cursor": {str(k): v for k, v in cursor.items()}}
        if trace_path and self.tracer is not None:
            self.tracer.write(trace_path)
        if not recover:
            return result
        del self.durable, durable
        gc.collect()
        replay = Tracer() if trace_path else None
        if replay is not None:
            install_recovery(replay)
        started = time.perf_counter()
        try:
            recovered = self._open().start()
            recovery_s = time.perf_counter() - started
        finally:
            if replay is not None:
                replay.uninstall()
        problems = []
        if recovered.sharded.snapshot() != tables:
            problems.append("recovered tables differ from the pre-close tables")
        subscriber = recovered.subscribe(SUBSCRIBER, capacity=4096)
        if recovered.redelivered.get(SUBSCRIBER, 0):
            problems.append(
                f"{recovered.redelivered[SUBSCRIBER]} acknowledged activations redelivered"
            )
        statement = inputs.spread_statements(self.workload, self.seed)[probe_index]
        recovered.execute(statement)
        recovered.drain()
        probe = subscriber.drain()
        if not probe:
            problems.append("the resume probe statement produced no activation")
        next_expected = dict(enumerate(sequences))
        for activation in probe:
            if activation.sequence != next_expected[activation.shard] + 1:
                problems.append(
                    f"shard {activation.shard} resumed at sequence {activation.sequence}, "
                    f"expected {next_expected[activation.shard] + 1}"
                )
            next_expected[activation.shard] = activation.sequence
        recovered.close()
        replay_ms = {}
        if replay is not None:
            self_s = replay.summary()["self_s"]
            replay_ms = {source: self_s.get(f"persist.replay_{source}", 0.0) * 1e3
                         for source in RECOVERY_SOURCES}
        result.update(recovery_s=recovery_s, problems=problems, replay_ms=replay_ms)
        return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    replies = sys.stdout
    sys.stdout = sys.stderr  # stray prints must not corrupt the command channel

    def reply(message: dict) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    stack = Stack(args.workload, args.seed, pathlib.Path(args.dir))
    reply({"ready": True, "address": list(stack.front.address)})
    for line in sys.stdin:
        command = json.loads(line)
        kind = command["cmd"]
        if kind == "mark":
            reply(stack.mark())
        elif kind == "trace":
            reply(stack.trace(command["on"]))
        elif kind == "summary":
            reply({"summary": stack.tracer.summary()})
        elif kind == "finish":
            reply(stack.finish(command["recover"], command["probe_index"], command.get("trace_path")))
            return 0
        elif kind == "quit":
            stack.stop()
            reply({"ok": True})
            return 0
        else:
            reply({"error": f"unknown command {kind!r}"})
    stack.stop()  # the generator went away
    return 0


if __name__ == "__main__":
    sys.exit(main())
