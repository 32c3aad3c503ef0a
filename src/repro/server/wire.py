"""JSON wire schemas: request decoding and response encoding.

Every decoder maps malformed input to :class:`~repro.errors.ServerError`
with a message naming the offending field — the HTTP layer turns the
``repro.errors`` hierarchy into status codes (400 for bad requests, 429
for admission refusals, 408 for blown budgets), so a client never sees a
raw ``KeyError`` as a 500.

Relations travel in the persisted ``repro.relation`` format
(:meth:`MatchRelation.to_dict`): sorted, deterministic — two services
serving the same epoch emit byte-identical JSON, which is what lets the
E18 load benchmark assert identity against direct engine calls.

A relation is encoded once: :func:`encode_relation` memoises its sorted
sets and JSON text on the (immutable) relation, and :func:`dumps` splices
that text into every reply that carries it.
"""

from __future__ import annotations

import json
from typing import Any

from repro.engine.estimator import QueryBudget
from repro.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    BudgetExceededError,
    ReproError,
    ServerError,
    ServiceDegradedError,
)
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    Update,
)
from repro.matching.base import MatchRelation
from repro.pattern.parser import parse_pattern
from repro.pattern.pattern import Pattern


def decode_pattern(payload: dict[str, Any], field: str = "pattern") -> Pattern:
    """``{"pattern": "<text form>"}`` → a validated :class:`Pattern`."""
    text = payload.get(field)
    if not isinstance(text, str) or not text.strip():
        raise ServerError(f"request needs a non-empty string field {field!r}")
    pattern = parse_pattern(text, name=field)
    pattern.validate()
    return pattern


def decode_budget(
    payload: dict[str, Any], default: QueryBudget | None = None
) -> QueryBudget | None:
    """``{"budget": {...}}`` → a :class:`QueryBudget`, or the default.

    Keys: ``node_visits`` (int), ``seconds`` (number), ``allow_partial``
    (bool).  An absent or null ``budget`` falls back to the service
    default; an explicit ``{}`` means "unlimited" and returns ``None``.
    """
    raw = payload.get("budget")
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ServerError(f"budget must be an object, got {type(raw).__name__}")
    if not raw:
        return None
    node_visits = raw.get("node_visits")
    seconds = raw.get("seconds")
    allow_partial = raw.get("allow_partial", True)
    if node_visits is not None and not isinstance(node_visits, int):
        raise ServerError("budget.node_visits must be an integer")
    if seconds is not None and (
        isinstance(seconds, bool) or not isinstance(seconds, (int, float))
    ):
        raise ServerError("budget.seconds must be a number")
    if not isinstance(allow_partial, bool):
        raise ServerError("budget.allow_partial must be a boolean")
    budget = QueryBudget(
        node_visits=node_visits,
        seconds=float(seconds) if seconds is not None else None,
        allow_partial=allow_partial,
    )
    try:
        budget.validate()
    except ReproError as exc:
        raise ServerError(f"invalid budget: {exc}") from exc
    return budget


_UPDATE_OPS = ("add-edge", "remove-edge", "add-node", "remove-node", "set-attr")


def decode_updates(payload: dict[str, Any]) -> list[Update]:
    """``{"updates": [{"op": ..., ...}, ...]}`` → update objects.

    Ops: ``add-edge``/``remove-edge`` (``source``, ``target``),
    ``add-node`` (``node``, optional ``attrs`` object), ``remove-node``
    (``node``), ``set-attr`` (``node``, ``attr``, ``value``).

    Node ids must be JSON strings or integers, ``attr`` and the keys of
    ``attrs`` strings.  Anything else would die untyped inside ``apply``
    — after the batch is in the WAL, and again at every replay — so it
    is refused here.
    """
    raw = payload.get("updates")
    if not isinstance(raw, list) or not raw:
        raise ServerError("request needs a non-empty 'updates' array")
    updates: list[Update] = []
    for position, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ServerError(f"updates[{position}] must be an object")
        op = item.get("op")
        if op not in _UPDATE_OPS:
            raise ServerError(
                f"updates[{position}].op must be one of {', '.join(_UPDATE_OPS)} "
                f"(got {op!r})"
            )
        updates.append(_decode_one_update(op, item, position))
    return updates


def _decode_one_update(op: str, item: dict[str, Any], position: int) -> Update:
    def need(field: str) -> Any:
        value = item.get(field)
        if value is None:
            raise ServerError(f"updates[{position}] ({op}) needs field {field!r}")
        return value

    def node(field: str) -> Any:
        value = need(field)
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise ServerError(
                f"updates[{position}].{field} must be a string or an integer "
                f"node id (got {type(value).__name__})"
            )
        return value

    if op == "add-edge":
        return EdgeInsertion(node("source"), node("target"))
    if op == "remove-edge":
        return EdgeDeletion(node("source"), node("target"))
    if op == "add-node":
        attrs = item.get("attrs", {})
        if not isinstance(attrs, dict) or not all(isinstance(k, str) for k in attrs):
            raise ServerError(
                f"updates[{position}].attrs must be an object with string keys"
            )
        return NodeInsertion.with_attrs(node("node"), **attrs)
    if op == "remove-node":
        return NodeDeletion(node("node"))
    attr = need("attr")
    if not isinstance(attr, str):
        raise ServerError(f"updates[{position}].attr must be a string")
    return AttributeUpdate(node("node"), attr, need("value"))


def encode_update(update: Update) -> dict[str, Any]:
    """An update object → its wire form (inverse of :func:`decode_updates`).

    The WAL stores batches in exactly this shape, so a record replayed at
    recovery goes through the same ``decode_updates`` → ``decompose`` →
    ``apply`` path as the original request — one codec, no drift.
    """
    if isinstance(update, EdgeInsertion):
        return {"op": "add-edge", "source": update.source, "target": update.target}
    if isinstance(update, EdgeDeletion):
        return {"op": "remove-edge", "source": update.source, "target": update.target}
    if isinstance(update, NodeInsertion):
        return {"op": "add-node", "node": update.node, "attrs": dict(update.attrs)}
    if isinstance(update, NodeDeletion):
        return {"op": "remove-node", "node": update.node}
    if isinstance(update, AttributeUpdate):
        return {
            "op": "set-attr",
            "node": update.node,
            "attr": update.attr,
            "value": update.value,
        }
    raise ServerError(f"cannot encode update of type {type(update).__name__}")


class EncodedRelation(dict[str, Any]):
    """A relation's wire dict that also carries its ``json.dumps`` text.

    It is a plain dict to every reader (``json.dumps`` of it is ``text``
    until a caller mutates it); only :func:`dumps` reads ``text``.
    """

    __slots__ = ("text",)


def encode_relation(relation: MatchRelation) -> EncodedRelation:
    """The deterministic persisted form (sorted sets, stable keys).

    The first call on a relation sorts it (:meth:`MatchRelation.to_dict`)
    and serialises it once; later calls reuse both.  Each call returns
    its own dict and ``sets`` lists, so a caller that mutates them
    changes no later reply.
    """
    memo = relation._wire
    if memo is None:
        # two threads racing here build equal memos; either store may win
        plain = relation.to_dict()
        memo = relation._wire = (plain, json.dumps(plain))
    plain, text = memo
    encoded = EncodedRelation(plain)
    encoded["sets"] = {u: list(vs) for u, vs in plain["sets"].items()}
    encoded.text = text
    return encoded


def dumps(payload: Any) -> str:
    """``json.dumps(payload)``, byte for byte, with the stored text of each
    :class:`EncodedRelation` in it spliced in instead of re-serialised.

    The bytes are equal as long as no encoded relation in ``payload`` was
    mutated after :func:`encode_relation` returned it.
    """
    spliced = _splice(payload)
    return json.dumps(payload) if spliced is None else spliced


def _splice(value: Any) -> str | None:
    """The JSON text of ``value`` if it holds an encoded relation at any
    depth, else ``None``: the caller then serialises it whole."""
    if isinstance(value, EncodedRelation):
        return value.text
    if isinstance(value, dict):
        entries = [(key, item, _splice(item)) for key, item in value.items()]
        if all(part is None for _key, _item, part in entries):
            return None
        return "{%s}" % ", ".join(
            # json.dumps({key: None}) is "{KEY: null}": the key as json writes it
            json.dumps({key: None})[1:-5] + (json.dumps(item) if part is None else part)
            for key, item, part in entries
        )
    if isinstance(value, (list, tuple)):
        parts = [_splice(item) for item in value]
        if all(part is None for part in parts):
            return None
        return "[%s]" % ", ".join(
            json.dumps(item) if part is None else part for item, part in zip(value, parts)
        )
    return None


def encode_ranked(ranked: list) -> list[dict[str, Any]]:
    """RankedMatch list → JSON rows (node, rank, evidence sizes)."""
    return [
        {
            "node": match.node,
            "rank": match.rank,
            "impact_set_size": match.impact_set_size,
            "attrs": dict(match.attrs),
        }
        for match in ranked
    ]


def error_status(exc: Exception) -> int:
    """HTTP status for one error of the ``repro.errors`` hierarchy."""
    if isinstance(exc, AdmissionTimeoutError):
        return 408  # queued, then timed out — before the broader 429 check
    if isinstance(exc, AdmissionError):
        return 429
    if isinstance(exc, ServiceDegradedError):
        return 503  # write durably logged; epoch rebuild failed
    if isinstance(exc, BudgetExceededError):
        return 408
    if isinstance(exc, ReproError):
        return 400
    return 500


def error_payload(exc: Exception) -> dict[str, str]:
    return {"error": type(exc).__name__, "message": str(exc)}
