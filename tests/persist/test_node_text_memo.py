"""The encode-side node-text memo in :mod:`repro.persist.records`.

Every activation record (outbox append, outbox rewrite, TCP frame, WebSocket
frame) takes its OLD/NEW text from one identity-keyed memo.  These tests pin
that the memo never changes a byte, never serves one node's text for
another, stays bounded and is safe under concurrent encoders.
"""

from __future__ import annotations

import json
import sys
import threading

from repro.persist import records
from repro.persist.codec import encode_value
from repro.persist.records import NODE_CACHE_LIMIT, activation_to_record
from repro.relational.triggers import TriggerEvent
from repro.serving.net.frames import SharedFrameCache
from repro.serving.net.protocol import encode_frame
from repro.serving.subscribers import Activation
from repro.serving.web import wsproto
from repro.serving.web.webframes import JsonFrameCache
from repro.xmlmodel import Element
from repro.xmlmodel.serialize import serialize


def product(name: str, *prices: float) -> Element:
    return Element(
        "product",
        {"name": name, "note": 'a<b & "c"'},
        [Element("vendor", {"price": price}, ["Amazon & co"]) for price in prices],
    )


def activation(old, new, sequence: int = 1) -> Activation:
    return Activation(
        shard=0,
        sequence=sequence,
        trigger="W",
        view="catalog",
        path=("product",),
        event=TriggerEvent.UPDATE,
        key=("CRT 15",),
        old_node=old,
        new_node=new,
    )


def direct_record(activation: Activation) -> dict:
    """The record as built without any memo: ``serialize`` on each node."""
    record = {
        "shard": activation.shard,
        "sequence": activation.sequence,
        "trigger": activation.trigger,
        "view": activation.view,
        "path": list(activation.path),
        "event": activation.event.value,
        "key": list(activation.key),
    }
    for field, node in (("old", activation.old_node), ("new", activation.new_node)):
        record[field] = serialize(node) if node is not None else None
    return record


def test_memoized_records_and_frames_are_byte_identical():
    old, new = product("CRT 15", 120.0, 99.5), product("CRT 15", 42.0, 99.5)
    first = activation(old, new, sequence=1)
    second = activation(old, new, sequence=2)  # same node pair: memo hits
    for item in (first, second, first):
        expected = direct_record(item)
        assert activation_to_record(item) == expected
        assert encode_value(activation_to_record(item)) == encode_value(expected)
        tcp_frame, _hit = SharedFrameCache().single_frame(item)
        assert tcp_frame == encode_frame({"type": "activation", "payload": expected})
        body = json.dumps(
            {"type": "activation", "payload": expected}, separators=(",", ":")
        ).encode("utf-8")
        assert JsonFrameCache().frame(item) == wsproto.encode_frame(
            wsproto.OP_TEXT, body
        )
    inserted = activation(None, new, sequence=3)
    assert activation_to_record(inserted) == direct_record(inserted)
    assert activation_to_record(inserted)["old"] is None


def test_memo_renders_a_shared_node_once(monkeypatch):
    rendered = []
    real = records.serialize
    monkeypatch.setattr(
        records, "serialize", lambda node: rendered.append(node) or real(node)
    )
    old, new = product("LCD", 1.0), product("LCD", 2.0)
    for sequence in range(1, 21):
        activation_to_record(activation(old, new, sequence))
    assert rendered == [old, new]


def test_entry_pinning_another_node_is_a_miss(monkeypatch):
    node = product("Plasma", 10.0)
    impostor = product("Impostor", 11.0)
    # Simulate a recycled id(): the slot for ``node`` pins a different object.
    monkeypatch.setitem(records._NODE_TEXT, id(node), (impostor, "<stale/>"))
    record = activation_to_record(activation(None, node))
    assert record["new"] == serialize(node)
    assert records._NODE_TEXT[id(node)][0] is node


def test_memo_stays_within_node_cache_limit():
    nodes = [product(f"p{i}", float(i)) for i in range(NODE_CACHE_LIMIT + 50)]
    for i, node in enumerate(nodes):
        assert activation_to_record(activation(None, node, i + 1))["new"] == (
            serialize(node)
        )
        assert len(records._NODE_TEXT) <= NODE_CACHE_LIMIT
    # FIFO: the oldest entries went first, the newest are resident.
    assert records._NODE_TEXT[id(nodes[-1])][0] is nodes[-1]
    assert id(nodes[0]) not in records._NODE_TEXT


def test_concurrent_encoders_get_correct_text(monkeypatch):
    # A small bound makes every encode trim, so racing threads contend on
    # the check-then-act lookup and the FIFO pop under a tiny switch interval.
    monkeypatch.setattr(records, "NODE_CACHE_LIMIT", 16)
    monkeypatch.setattr(records, "_NODE_TEXT", {})
    shared = [product(f"shared{i}", float(i)) for i in range(8)]
    expected = {id(node): serialize(node) for node in shared}
    errors: list[BaseException] = []
    workers = 6
    start = threading.Barrier(workers)

    def encoder(worker: int) -> None:
        try:
            start.wait()
            for round_ in range(300):
                own = product(f"w{worker}-{round_}", float(round_))
                node = shared[round_ % len(shared)]
                record = activation_to_record(activation(node, own, round_ + 1))
                assert record["old"] == expected[id(node)]
                assert record["new"] == serialize(own)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=encoder, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(records._NODE_TEXT) <= 16
