"""Conversions between engine objects and codec-encodable log records.

Everything the durability layer writes is a plain dict of scalars, lists and
dicts (see :mod:`repro.persist.codec`); this module is the single place that
knows how engine objects map onto those records, so the WAL, the snapshot,
and the outbox all share one vocabulary:

* table schemas ↔ ``{"name", "columns", "primary_key", "foreign_keys",
  "unique"}``;
* net coalesced deltas ↔ ``{"table", "event", "inserted", "deleted"}`` with
  rows as value lists in schema column order;
* XML trigger specs ↔ their declarative fields (name, event, view, path,
  condition text, action call) — the whole translation pipeline re-derives
  SQL triggers, groups, and constants tables from these at recovery;
* activations ↔ scalars plus the OLD/NEW nodes serialized as XML text
  (re-parsed on redelivery).

Node text is computed once per node: every consumer of an activation
record — the outbox append, the snapshot-time outbox rewrite, the TCP frame
cache and the WebSocket frame cache — reaches the OLD/NEW text through
:func:`activation_to_record`, which memoizes it by node identity.  One
trigger group shares one (OLD_NODE, NEW_NODE) pair across all its satisfied
triggers (Section 5 of the paper), so a statement renders each distinct
node once however many activations and subscribers it has.  This relies
on the delivery contract: delivered OLD_NODE/NEW_NODE are read-only
snapshots, and actions and subscribers must not mutate them.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, MutableMapping, Sequence

from repro.core.trigger import TriggerSpec
from repro.relational.dml import CoalescedDelta
from repro.relational.schema import Column, ForeignKey, TableSchema, UniqueConstraint
from repro.relational.types import DataType
from repro.relational.triggers import TriggerEvent
from repro.serving.subscribers import Activation
from repro.xmlmodel.node import XmlNode
from repro.xmlmodel.parse import parse_xml
from repro.xmlmodel.serialize import serialize

__all__ = [
    "schema_to_record",
    "schema_from_record",
    "rows_to_lists",
    "delta_to_record",
    "spec_to_record",
    "spec_from_record",
    "activation_to_record",
    "activation_from_record",
]


# ------------------------------------------------------------------ schemas


def schema_to_record(schema: TableSchema) -> dict:
    """Serialize a table schema (columns, keys, constraints)."""
    return {
        "name": schema.name,
        "columns": [
            [column.name, column.dtype.value, column.nullable]
            for column in schema.columns
        ],
        "primary_key": list(schema.primary_key),
        "foreign_keys": [
            [list(fk.columns), fk.parent_table, list(fk.parent_columns)]
            for fk in schema.foreign_keys
        ],
        "unique": [list(constraint.columns) for constraint in schema.unique_constraints],
    }


def schema_from_record(record: dict) -> TableSchema:
    """Rebuild a table schema from its record."""
    return TableSchema(
        record["name"],
        [
            Column(name, DataType(dtype), nullable)
            for name, dtype, nullable in record["columns"]
        ],
        primary_key=record["primary_key"] or None,
        foreign_keys=[
            ForeignKey(tuple(columns), parent, tuple(parent_columns))
            for columns, parent, parent_columns in record["foreign_keys"]
        ],
        unique=[UniqueConstraint(tuple(columns)) for columns in record["unique"]],
    )


# ------------------------------------------------------------------ deltas


def rows_to_lists(rows: Iterable[Sequence[Any]]) -> list[list[Any]]:
    """Rows as plain value lists (schema column order)."""
    return [list(row) for row in rows]


def delta_to_record(delta: CoalescedDelta) -> dict:
    """Serialize one net (table, event) delta slice."""
    return {
        "table": delta.table,
        "event": delta.event,
        "inserted": rows_to_lists(delta.inserted.rows),
        "deleted": rows_to_lists(delta.deleted.rows),
    }


# ------------------------------------------------------------------ trigger specs


def spec_to_record(spec: TriggerSpec) -> dict:
    """Serialize an XML trigger spec's declarative fields."""
    return {
        "name": spec.name,
        "event": spec.event.value,
        "view": spec.view,
        "path": list(spec.path),
        "condition": spec.condition,
        "action_name": spec.action_name,
        "action_args": list(spec.action_args),
        "source": spec.source,
    }


def spec_from_record(record: dict) -> TriggerSpec:
    """Rebuild a trigger spec; ``create_trigger`` re-derives everything else."""
    return TriggerSpec(
        name=record["name"],
        event=TriggerEvent(record["event"]),
        view=record["view"],
        path=tuple(record["path"]),
        condition=record["condition"],
        action_name=record["action_name"],
        action_args=tuple(record["action_args"]),
        source=record["source"],
    )


# ------------------------------------------------------------------ activations


#: Bound on a node memo: the encode-side text memo below, and a
#: caller-supplied parse cache (see ``activation_from_record``).
NODE_CACHE_LIMIT = 1024

# id(node) -> (node, XML text).  The entry pins its node, so an id() is
# never reused while cached; FIFO-trimmed to NODE_CACHE_LIMIT.
_NODE_TEXT: dict[int, tuple[XmlNode, str]] = {}
_NODE_TEXT_LOCK = threading.Lock()


def _node_text(node: XmlNode | None) -> str | None:
    """``serialize(node)``, rendered at most once per cached node.

    Shard workers (the outbox append) and front-end loop threads (the frame
    caches) encode the same nodes, so the lookup, the render and the trim
    all happen under one lock.  A miss calls ``serialize`` through this
    module's global, so a wrapper installed on it sees every real render.
    """
    if node is None:
        return None
    with _NODE_TEXT_LOCK:
        entry = _NODE_TEXT.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        text = serialize(node)
        if len(_NODE_TEXT) >= NODE_CACHE_LIMIT:
            _NODE_TEXT.pop(next(iter(_NODE_TEXT)))
        _NODE_TEXT[id(node)] = (node, text)
        return text


def activation_to_record(activation: Activation) -> dict:
    """Serialize an activation; OLD/NEW nodes become (memoized) XML text."""
    return {
        "shard": activation.shard,
        "sequence": activation.sequence,
        "trigger": activation.trigger,
        "view": activation.view,
        "path": list(activation.path),
        "event": activation.event.value,
        "key": list(activation.key),
        "old": _node_text(activation.old_node),
        "new": _node_text(activation.new_node),
    }


def _parse_node(source: str, cache: MutableMapping[str, Any] | None):
    """Parse a serialized node, memoized in ``cache`` when one is given.

    A fan-out consumer decodes the *same* serialized node once per
    redelivery (and a many-client process once per client); parsing
    dominates activation decode by orders of magnitude, so sharing the
    parsed node is the decode-side mirror of the server's shared encode
    cache.  Sharing is safe for the same reason in-process subscribers
    share one :class:`Activation`: delivered nodes are read-only snapshots.
    """
    if cache is None:
        return parse_xml(source)
    node = cache.get(source)
    if node is None:
        node = parse_xml(source)
        if len(cache) >= NODE_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[source] = node
    return node


def activation_from_record(
    record: dict, *, node_cache: MutableMapping[str, Any] | None = None
) -> Activation:
    """Rebuild an activation, re-parsing (or cache-sharing) the nodes."""
    return Activation(
        shard=record["shard"],
        sequence=record["sequence"],
        trigger=record["trigger"],
        view=record["view"],
        path=tuple(record["path"]),
        event=TriggerEvent(record["event"]),
        key=tuple(record["key"]),
        old_node=(
            _parse_node(record["old"], node_cache)
            if record["old"] is not None else None
        ),
        new_node=(
            _parse_node(record["new"], node_cache)
            if record["new"] is not None else None
        ),
    )
