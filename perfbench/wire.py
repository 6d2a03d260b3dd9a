"""The wire workloads: a load generator against a serving child process.

``durable_tcp_trickle``
    One producer connection (``NetClient``) runs an *open loop*: statement
    ``i`` is due at ``start + i / TRICKLE_RATE`` and is sent then, whether
    or not earlier ones were acknowledged, because independent producers do
    not slow down when the server does.  Latencies count from the due time.
``durable_web_burst``
    One HTTP producer (``WebClient``) runs a *closed loop* of
    ``submit-batch`` requests of ``BURST_BATCH`` statements.

In both, one durable named subscriber (``NetClient`` / ``WsClient``) acks
every activation; when the server pauses it (slow consumer), it
re-subscribes under the same name and the pause is counted.  The generator
is one process with at most these two connections and no extra threads;
the serving stack (:mod:`perfbench.server`) runs in a child process.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict, deque

from perfbench import inputs
from perfbench.common import (
    RSS_STATEMENTS_PER_SECOND, SETUP_REPEATS, end_to_end_metrics, host_ticks, log, percentile,
    process_sample, steal_frac, write_samples,
)
from perfbench.inproc import build_service
from perfbench.layers import merge, per_layer_metrics
from perfbench.server import SHARDS, SUBSCRIBER
from perfbench.tracing import Tracer, install_client

#: Offered rate of the open loop (statements/s): 37% of the 108/s one
#: connection reaches in a closed loop on a 2-core machine.  At half that
#: capacity the notify latency swung too much from run to run to gate
#: (README.md).
TRICKLE_RATE = 40.0
#: Statements per ``submit-batch`` request.
BURST_BATCH = 8
WARMUP_STATEMENTS = 16
#: Longest wait for a child reply, acknowledgements or deliveries.
REPLY_TIMEOUT = 120.0

_perf = time.perf_counter


class Child:
    """One serving child process and its line-oriented command channel.

    Started with ``subprocess.Popen`` and read through an asyncio pipe
    transport rather than ``asyncio.create_subprocess_exec``, whose child
    watcher would add a thread to the generator.
    """

    def __init__(self, process: subprocess.Popen, replies: asyncio.StreamReader) -> None:
        self.process = process
        self.replies = replies
        self.address: tuple = ()
        self._pipe: asyncio.BaseTransport | None = None

    @classmethod
    async def start(cls, root: pathlib.Path, workload: str, seed: int,
                    directory: pathlib.Path) -> "Child":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server",
             "--workload", workload, "--seed", str(seed), "--dir", str(directory)],
            cwd=str(root), env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        replies = asyncio.StreamReader(limit=1 << 26)
        child = cls(process, replies)
        try:
            child._pipe, _protocol = await asyncio.get_running_loop().connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(replies), process.stdout)
            child.address = tuple((await child._read())["address"])
        except BaseException:
            await child.close()
            raise
        return child

    async def _read(self) -> dict:
        line = await asyncio.wait_for(self.replies.readline(), REPLY_TIMEOUT)
        if not line:
            raise RuntimeError("the serving child exited (see its stderr above)")
        return json.loads(line)

    async def call(self, message: dict) -> dict:
        # One short line into a pipe the child is reading: never blocks long.
        self.process.stdin.write((json.dumps(message) + "\n").encode())
        self.process.stdin.flush()
        reply = await self._read()
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    async def close(self) -> None:
        """Close the command channel (the child then exits) and reap it."""
        process = self.process
        try:
            process.stdin.close()
        except OSError:
            pass
        deadline = _perf() + 20
        while process.poll() is None and _perf() < deadline:
            await asyncio.sleep(0.05)
        if process.poll() is None:
            process.kill()
        process.wait()
        if self._pipe is not None:
            self._pipe.close()


class Clients:
    """The producer and the durable subscriber connections."""

    def __init__(self, front_end: str) -> None:
        self.front_end = front_end
        self.producer = None
        self.consumer = None
        self.received: list = []  # (activation, arrival) first arrivals, in order
        self.duplicates = 0
        self.pauses = 0
        self._seen: set = set()
        self._decoded_at: dict[int, float] = {}
        self._waiter: tuple[int, asyncio.Future] | None = None
        self._task: asyncio.Task | None = None

    @classmethod
    async def connect(cls, front_end: str, address: tuple) -> "Clients":
        clients = cls(front_end)
        host, port = address
        if front_end == "net":
            from repro.serving.net import NetClient

            clients.producer = await NetClient.connect(host, port)
            clients.consumer = await NetClient.connect(host, port)
        else:
            from repro.serving.web import WebClient, WsClient

            clients.producer = await WebClient.connect(host, port)
            clients.consumer = await WsClient.connect(host, port)
        subscription = await clients._subscribe()
        clients._task = asyncio.ensure_future(clients._consume(subscription))
        return clients

    async def _subscribe(self):
        """Subscribe, stamping each activation when the client has decoded it.

        The stamp is taken where the client library hands the decoded
        activation to the subscription (before it waits in the queue for
        this process's consumer task to be scheduled).
        """
        subscription = await self.consumer.subscribe(SUBSCRIBER)
        hand_off = "_on_decoded" if self.front_end == "net" else "_push"
        deliver = getattr(subscription, hand_off)
        decoded_at = self._decoded_at

        def stamped(activation) -> None:
            decoded_at[id(activation)] = _perf()
            deliver(activation)

        setattr(subscription, hand_off, stamped)
        return subscription

    async def _consume(self, subscription) -> None:
        consumer = self.consumer
        while True:
            activation = await subscription.get()
            if activation is None:
                if not subscription.paused:
                    return
                # Slow-consumer pause: resume from the durable cursor.
                self.pauses += 1
                subscription = await self._subscribe()
                continue
            arrival = self._decoded_at.pop(id(activation), None) or _perf()
            position = (activation.shard, activation.sequence)
            if position in self._seen:
                self.duplicates += 1  # at-least-once redelivery after a pause
            else:
                self._seen.add(position)
                self.received.append((activation, arrival))
                waiter = self._waiter
                if waiter is not None and len(self.received) >= waiter[0]:
                    self._waiter = None
                    waiter[1].set_result(None)
            await consumer.ack(activation)

    async def delivered(self, count: int) -> None:
        """Wait until ``count`` distinct activations have arrived."""
        if len(self.received) >= count:
            return
        future = asyncio.get_running_loop().create_future()
        self._waiter = (count, future)
        await asyncio.wait_for(future, REPLY_TIMEOUT)

    async def submit(self, statements: list) -> None:
        """One request: a single statement over TCP, a batch over HTTP."""
        if self.front_end == "net":
            (statement,) = statements
            await self.producer.execute(statement)
        else:
            await self.producer.submit_batch(statements)

    async def close(self) -> None:
        # A round trip on the subscriber connection orders every ack before
        # it, so the persisted cursor is final once it returns.
        await self.consumer.ping()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        await self.consumer.close()
        await self.producer.close()


class LoadGenerator:
    """Runs windows of the workload's loop and keeps what the oracle needs."""

    def __init__(self, workload: str, child: Child, clients: Clients, statements: list) -> None:
        self.workload = workload
        self.child = child
        self.clients = clients
        self.statements = statements
        self.next = 0
        #: (first statement index, count, start time) per request.
        self.requests: list[tuple[int, int, float]] = []
        self.failures = 0
        #: Closed loop: server peak RSS at the fixed statement count.
        self.rss_mark: float | None = None

    def _take(self, count: int) -> tuple[int, list]:
        first = self.next
        if first + count > len(self.statements):
            raise RuntimeError("statement pool exhausted")
        self.next += count
        return first, self.statements[first:first + count]

    async def _request(self, count: int, start: float) -> float | None:
        first, batch = self._take(count)
        self.requests.append((first, count, start))
        try:
            await self.clients.submit(batch)
        except Exception as error:  # noqa: BLE001 - counted as failed, reported
            self.failures += count
            log(f"request for statements {first}..{first + count - 1} failed: {error}")
            return None
        return _perf()

    async def warm_up(self) -> None:
        size = 1 if self.workload == "durable_tcp_trickle" else BURST_BATCH
        for _ in range(max(1, WARMUP_STATEMENTS // size)):
            await self._request(size, _perf())
        await self._settle()

    async def _settle(self) -> dict:
        mark = await self.child.call({"cmd": "mark"})
        await self.clients.delivered(mark["activations_published"])
        return await self.child.call({"cmd": "mark"})

    async def window(self, seconds: float) -> dict:
        """One measured window; returns per-request samples and counter marks."""
        before = await self.child.call({"cmd": "mark"})
        generator_cpu = time.process_time()
        host_before = host_ticks()
        first_request = len(self.requests)
        received_before = len(self.clients.received)
        if self.workload == "durable_tcp_trickle":
            started, acks, lateness = await self._open_loop(seconds)
        else:
            started, acks, lateness = await self._closed_loop(seconds)
        after = await self._settle()
        generator_cpu = time.process_time() - generator_cpu
        if self.rss_mark is not None:
            after = dict(after, rss_mb=self.rss_mark)
        return {
            "started": started,
            "requests": self.requests[first_request:],
            "acks": acks,
            "lateness": lateness,
            "received": (received_before, len(self.clients.received)),
            "before": before,
            "after": after,
            "generator_cpu_s": generator_cpu,
            "host_ticks": (host_before, host_ticks()),
        }

    async def _open_loop(self, seconds: float):
        interval = 1.0 / TRICKLE_RATE
        count = int(round(seconds * TRICKLE_RATE))
        started = _perf()
        lateness: list[float] = []
        tasks = []
        for index in range(count):
            due = started + index * interval
            delay = due - _perf()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(_perf() - due)
            tasks.append(asyncio.ensure_future(self._request(1, due)))
        acks = await asyncio.wait_for(asyncio.gather(*tasks), REPLY_TIMEOUT)
        return started, acks, lateness

    async def _closed_loop(self, seconds: float):
        started = _perf()
        deadline = started + seconds
        acks: list = []
        lateness: list[float] = []
        previous = started
        rss_at = RSS_STATEMENTS_PER_SECOND[self.workload] * seconds
        self.rss_mark = None
        while True:
            now = _perf()
            if now >= deadline:
                break
            lateness.append(now - previous)
            acked = await self._request(BURST_BATCH, now)
            acks.append(acked)
            if self.rss_mark is None and len(acks) * BURST_BATCH >= rss_at:
                self.rss_mark = (await self.child.call({"cmd": "mark"}))["rss_mb"]
            previous = _perf()
        return started, acks, lateness


# ---------------------------------------------------------------- oracle


def replay(workload_name: str, seed: int, statements: list) -> list[list[tuple]]:
    """Sequential in-process replay: per statement, its activations in order."""
    _database, service = build_service(inputs.build_workload(workload_name, seed))
    per_statement = []
    fired = service.fired
    for statement in statements:
        mark = len(fired)
        service.execute(statement)
        per_statement.append(
            [(f.trigger, f.key, f.old_node, f.new_node) for f in fired[mark:]]
        )
    return per_statement


def match(expected: list[list[tuple]], received: list) -> tuple[dict, Counter, list[str], set]:
    """Map each received activation to its statement and compare with the replay.

    Returns ``(last arrival per statement, activations received per
    statement, problems, failed statement indices)``.  The received stream
    must hold exactly the replay's activations (as a multiset), each shard's
    sequence numbers must run 1, 2, 3... in arrival order, and every node
    must see its transitions in the replay's order — the per-node order the
    serving layer promises.
    """
    problems: list[str] = []
    failed: set[int] = set()
    queues: dict[tuple, deque] = defaultdict(deque)
    for index, activations in enumerate(expected):
        for trigger, key, old, new in activations:
            queues[(trigger, key)].append((index, old, new))
    last_arrival: dict[int, float] = {}
    per_statement: Counter = Counter()
    next_sequence: Counter = Counter()
    for activation, arrival in received:
        next_sequence[activation.shard] += 1
        if activation.sequence != next_sequence[activation.shard]:
            problems.append(
                f"shard {activation.shard}: sequence {activation.sequence} arrived, "
                f"expected {next_sequence[activation.shard]}"
            )
            next_sequence[activation.shard] = activation.sequence
        pending = queues.get((activation.trigger, activation.key))
        if not pending:
            problems.append(f"unexpected activation {activation.trigger} on {activation.key}")
            continue
        index, old, new = pending.popleft()
        per_statement[index] += 1
        if activation.old_node != old or activation.new_node != new:
            failed.add(index)
        last_arrival[index] = max(last_arrival.get(index, 0.0), arrival)
    for pending in queues.values():
        for index, _old, _new in pending:
            failed.add(index)
    if failed:
        problems.append(f"{len(failed)} statements' activations differ from the replay")
    return last_arrival, per_statement, problems, failed


def profile_check(workload: str, seed: int, per_statement: Counter, sent: int) -> str | None:
    """Activations received per statement against a second seed's replay."""
    count = inputs.profile_count(workload, sent)
    observed = Counter(per_statement[index] for index in range(count))
    other = inputs.second_seed(seed)
    statements = inputs.spread_statements(inputs.build_workload(workload, other), other)
    second = Counter(len(activations) for activations in replay(workload, other, statements[:count]))
    return inputs.profile_problem(seed, observed, second)


# ---------------------------------------------------------------- metrics

#: Server counters whose change over a window the per-layer metrics use.
_COUNTERS = ("cpu_s", "wal_bytes", "outbox_bytes", "cursors_bytes", "shard_statements",
             "shard_batches", "shard_errors", "fallbacks", "cache_hits", "cache_misses")


def measure(windows: list[dict], last_arrival: dict, front_end: str) -> dict:
    """Samples and counter changes of one or more windows, combined."""
    combined = {"acks": [], "notifies": [], "walls": [], "lateness": [],
                "statements": 0, "ack_s": 0.0, "activations": 0, "delivery_s": 0.0,
                "generator_cpu_s": 0.0}
    wire_keys = ("frames", "bytes", "pauses") if front_end == "net" else ("bytes", "pauses")
    keys = _COUNTERS + tuple(f"{front_end}_{key}" for key in wire_keys)
    deltas = dict.fromkeys(keys, 0)
    for window in windows:
        started = window["started"]
        last_ack = last_delivery = started
        for (first, count, start), acked in zip(window["requests"], window["acks"]):
            if acked is None:
                continue
            combined["statements"] += count
            combined["acks"].append(acked - start)
            last_ack = max(last_ack, acked)
            arrivals = [last_arrival[i] for i in range(first, first + count) if i in last_arrival]
            if arrivals:
                combined["notifies"].append(max(arrivals) - start)
                last_delivery = max(last_delivery, max(arrivals))
            combined["walls"].append(max([acked] + arrivals) - start)
        combined["ack_s"] += last_ack - started
        combined["delivery_s"] += last_delivery - started
        combined["activations"] += window["received"][1] - window["received"][0]
        combined["lateness"].extend(window["lateness"])
        combined["generator_cpu_s"] += window["generator_cpu_s"]
        for key in keys:
            deltas[key] += window["after"][key] - window["before"][key]
    combined["deltas"] = deltas
    combined["host_steal_frac"] = steal_frac([window["host_ticks"] for window in windows])
    combined["rss_mb"] = max(window["after"]["rss_mb"] for window in windows)
    combined["fired_log_len"] = windows[-1]["after"]["fired_log_len"]
    return combined


def end_to_end(workload: str, m: dict, setups: list) -> tuple[dict, dict]:
    d = m["deltas"]
    n = m["statements"]
    metrics, report = end_to_end_metrics(
        workload, setups=setups, statements=n, ack_s=m["ack_s"], acks=m["acks"],
        notifies=m["notifies"], activations=m["activations"], delivery_s=m["delivery_s"],
        cpu_s=d["cpu_s"], rss=m["rss_mb"],
    )
    report.update(
        generator_late_p99_ms=percentile(m["lateness"], 99) * 1e3,
        generator_cpu_ms_per_stmt=m["generator_cpu_s"] * 1e3 / n,
        host_steal_frac=m["host_steal_frac"],
        log_bytes_per_stmt=(d["wal_bytes"] + d["outbox_bytes"] + d["cursors_bytes"]) / n,
    )
    return metrics, report


def layer_metrics(workload: str, untraced: dict, traced: dict, summary: dict,
                  replay_ms: dict) -> tuple[dict, dict]:
    n = traced["statements"]
    if workload == "durable_tcp_trickle":
        # The open loop's offered rate is fixed: compare server CPU instead.
        overhead = (traced["deltas"]["cpu_s"] / n) / (
            untraced["deltas"]["cpu_s"] / untraced["statements"]) - 1
    else:
        overhead = (untraced["statements"] / untraced["ack_s"]) / (n / traced["ack_s"]) - 1
    deltas = dict(traced["deltas"], fired_log_len=traced["fired_log_len"], replay_ms=replay_ms)
    return per_layer_metrics(
        summary,
        statements=n,
        activations=traced["activations"],
        elapsed_s=traced["ack_s"],
        workers=SHARDS,
        deltas=deltas,
        wall_ms_per_stmt=sum(traced["walls"]) * 1e3 / n,
        gen_late_p99_ms=percentile(traced["lateness"], 99) * 1e3,
        trace_overhead_frac=overhead,
    )


# ---------------------------------------------------------------- run


async def _measure_windows(load: LoadGenerator, child: Child, front_end: str, seconds: float,
                           trace: bool) -> tuple[list, list, dict | None, Tracer | None]:
    """Untraced windows, and with ``trace`` traced ones in an ABBA order.

    Untraced-traced-traced-untraced quarters put both kinds at the same mean
    position in the run, so the engine's slow drift (its logs grow) does not
    masquerade as tracing overhead.
    """
    if not trace:
        return [await load.window(seconds)], [], None, None
    tracer = Tracer()
    untraced, traced = [], []
    for kind in "UTTU":
        if kind == "T":
            await child.call({"cmd": "trace", "on": True})
            install_client(tracer, front_end)
            try:
                traced.append(await load.window(seconds / 4))
            finally:
                tracer.uninstall()
                await child.call({"cmd": "trace", "on": False})
        else:
            untraced.append(await load.window(seconds / 4))
    server_summary = (await child.call({"cmd": "summary"}))["summary"]
    return untraced, traced, server_summary, tracer


async def _run(root: pathlib.Path, workload: str, seed: int, seconds: float, trace: bool,
               out_dir: pathlib.Path) -> dict:
    front_end = "net" if workload == "durable_tcp_trickle" else "web"
    run_dir = root / ".bench_run" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setups: list[float] = []
    child = clients = None
    try:
        for attempt in range(SETUP_REPEATS[workload]):
            directory = run_dir / f"store{attempt}"
            directory.mkdir()
            started = _perf()
            child = await Child.start(root, workload, seed, directory)
            clients = await Clients.connect(front_end, child.address)
            setups.append(_perf() - started)
            if attempt < SETUP_REPEATS[workload] - 1:
                await clients.close()
                await child.call({"cmd": "quit"})
                await child.close()
                child = clients = None
                shutil.rmtree(directory)
        statements = inputs.spread_statements(inputs.build_workload(workload, seed), seed)
        load = LoadGenerator(workload, child, clients, statements)
        # The generator keeps every received activation for the oracle; its
        # own collector would pause sends and decodes as that heap grows, so
        # it is off while measuring.  The serving process is untouched.
        gc.collect()
        gc.disable()
        try:
            await load.warm_up()
            untraced, traced, server_summary, tracer = await _measure_windows(
                load, child, front_end, seconds, trace)
        finally:
            gc.enable()
        await clients.close()
        clients = None
        trace_path = None
        if trace:
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_path = str(out_dir / f"{workload}-seed{seed}-server.spans")
            tracer.write(out_dir / f"{workload}-seed{seed}-client.spans")
        finish = await child.call({
            "cmd": "finish",
            "recover": workload == "durable_tcp_trickle",
            "probe_index": load.next,
            "trace_path": trace_path,
        })
        await child.close()
        child = None
        rss_generator = process_sample()["rss_mb"]
    finally:
        if clients is not None:
            for connection in (clients.consumer, clients.producer):
                if connection is not None:
                    try:
                        await connection.close()
                    except Exception:  # noqa: BLE001 - best-effort teardown
                        pass
        if child is not None:
            await child.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    log(f"{workload}: {load.next} statements sent; replaying for the oracle")
    received = load.clients.received
    expected = replay(workload, seed, load.statements[: load.next])
    last_arrival, per_statement, problems, failed = match(expected, received)
    problems.extend(finish.get("problems", []))
    last_sequences = {str(activation.shard): activation.sequence for activation, _ in received}
    if finish["cursor"] != last_sequences:
        problems.append(f"persisted cursor {finish['cursor']} != last received {last_sequences}")
    profile_problem = profile_check(workload, seed, per_statement, load.next)
    if profile_problem:
        problems.append(profile_problem)
    for problem in problems[:20]:
        log("MISMATCH " + problem)

    failed_count = len(failed) + load.failures
    if problems and not failed_count:
        failed_count = 1
    result = {
        "attempted": load.next,
        "failed": min(load.next, failed_count),
        "correct": not problems and not load.failures,
        "report": {
            "workload": workload, "seed": seed, "setups_s": setups,
            "pauses": load.clients.pauses, "duplicates": load.clients.duplicates,
            "generator_rss_mb": rss_generator,
        },
    }
    if "recovery_s" in finish:
        result["report"]["recovery_s"] = finish["recovery_s"]
    untraced_m = measure(untraced, last_arrival, front_end)
    if not trace:
        metrics, report = end_to_end(workload, untraced_m, setups)
        write_samples(out_dir, workload, seed, acks=untraced_m["acks"],
                      notifies=untraced_m["notifies"], lateness=untraced_m["lateness"])
        result["metrics"] = metrics
        result["report"].update(report)
        return result
    summary = merge(server_summary, tracer.summary())
    metrics, report_only = layer_metrics(
        workload, untraced_m, measure(traced, last_arrival, front_end), summary,
        finish.get("replay_ms", {}))
    result["metrics"] = metrics
    result["report"]["layers"] = {name: value for name, (value, _unit) in report_only.items()}
    return result


def run(root: pathlib.Path, workload: str, seed: int, seconds: float, trace: bool,
        out_dir: pathlib.Path) -> dict:
    return asyncio.run(_run(root, workload, seed, seconds, trace, out_dir))
