"""One statement's shared node pair is rendered to XML text exactly once.

A trigger group's satisfied triggers share one (OLD_NODE, NEW_NODE) pair
(Section 5 of the paper).  The outbox record, the TCP frame and the
WebSocket frame all take node text from :mod:`repro.persist.records`, so a
statement firing N triggers on one node must call ``serialize`` twice in
total (OLD and NEW) — not once per activation per encoder (6N).
"""

from __future__ import annotations

import asyncio

from repro.persist import DurableServer, records
from repro.relational.dml import UpdateStatement
from repro.serving.net import NetClient, NetworkServer
from repro.serving.web import WebGateway, WsClient
from repro.xqgm.views import catalog_view

from tests.serving.conftest import build_sharded_paper_database, by_product

FIRED = 5


def test_statement_renders_its_node_pair_once(tmp_path, monkeypatch):
    server = DurableServer(
        tmp_path,
        shard_count=2,
        key_fn=by_product,
        views=[catalog_view()],
        actions={"notify": lambda node: None},
    )
    reference = build_sharded_paper_database(1)
    for table in reference.table_names():
        server.sharded.create_table(reference.schema(table))
    snapshot = reference.snapshot()
    server.sharded.load_rows("product", snapshot["product"])
    server.sharded.load_rows("vendor", snapshot["vendor"])
    server.ensure_view(catalog_view())
    for index in range(FIRED):
        server.ensure_trigger(
            f"CREATE TRIGGER W{index} AFTER UPDATE ON view('catalog')/product "
            "DO notify(NEW_NODE)"
        )
    server.start()
    net = NetworkServer(server).start()
    gateway = WebGateway(server).start()

    rendered = []
    real = records.serialize
    monkeypatch.setattr(
        records, "serialize", lambda node: rendered.append(node) or real(node)
    )

    async def scenario():
        tcp = await NetClient.connect(*net.address)
        tcp_sub = await tcp.subscribe("tcp")
        ws = await WsClient.connect(*gateway.address)
        ws_sub = await ws.subscribe("ws")
        await tcp.execute(
            UpdateStatement("vendor", {"price": 42.0}, keys=[("Amazon", "P1")])
        )
        over_tcp = [await tcp_sub.get(timeout=10) for _ in range(FIRED)]
        over_ws = [await ws_sub.get(timeout=10) for _ in range(FIRED)]
        await tcp.close()
        await ws.close()
        return over_tcp, over_ws

    try:
        over_tcp, over_ws = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    finally:
        gateway.stop()
        net.stop()
        server.stop()
        server.close()

    assert sorted(a.trigger for a in over_tcp) == [f"W{i}" for i in range(FIRED)]
    assert sorted(a.trigger for a in over_ws) == [f"W{i}" for i in range(FIRED)]
    fired = server._pending
    assert len(fired) == FIRED
    assert rendered == [fired[0].old_node, fired[0].new_node]
    assert over_tcp[0].new_node == fired[0].new_node
    assert over_ws[0].new_node == fired[0].new_node
