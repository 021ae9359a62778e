"""MetaCG-style JSON (de)serialisation of call graphs.

The on-disk layout loosely follows MetaCG's format: a top-level
``_MetaCG`` header and one entry per function carrying callees/callers
and a ``meta`` blob.  Round-tripping preserves nodes, edges, reasons and
metadata exactly.  The reader checks every shape and field type and
fails with a :class:`~repro.errors.CallGraphError` naming the offending
function; unknown ``meta`` keys are ignored.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cg.graph import CallGraph, EdgeReason, NodeMeta
from repro.errors import CallGraphError

FORMAT_VERSION = "2.0-repro"

#: ``meta`` key, ``NodeMeta`` field and JSON type, in on-disk order;
#: integer fields are counts and must be non-negative
_META_FIELDS = (
    ("numStatements", "statements", int),
    ("numFlops", "flops", int),
    ("loopDepth", "loop_depth", int),
    ("isInlineMarked", "inline_marked", bool),
    ("isInSystemHeader", "in_system_header", bool),
    ("isVirtual", "is_virtual", bool),
    ("isMpi", "is_mpi", bool),
    ("isStaticInitializer", "is_static_initializer", bool),
    ("hasBody", "has_body", bool),
    ("sourcePath", "source_path", str),
    ("tu", "tu", str),
)

_EXPECTED = {int: "a non-negative integer", bool: "a boolean", str: "a string"}


def to_dict(graph: CallGraph) -> dict:
    nodes: dict[str, dict] = {}
    for node in graph.nodes():
        nodes[node.name] = {
            "callees": {
                callee: graph.edge_reason(node.name, callee).value  # type: ignore[union-attr]
                for callee in sorted(graph.callees_of(node.name))
            },
            "meta": {
                key: getattr(node.meta, attr) for key, attr, _ in _META_FIELDS
            },
        }
    return {"_MetaCG": {"version": FORMAT_VERSION}, "_CG": nodes}


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise CallGraphError(
            f"{what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _meta(name: str, raw: dict) -> NodeMeta:
    fields = {}
    for key, attr, kind in _META_FIELDS:
        if key not in raw:
            continue
        value = raw[key]
        # bool is an int subclass: a flag is no count, and a count no flag
        if type(value) is not kind or (kind is int and value < 0):
            raise CallGraphError(
                f"function {name!r}: meta field {key!r} must be "
                f"{_EXPECTED[kind]}, got {value!r}"
            )
        fields[attr] = value
    return NodeMeta(**fields)


def from_dict(data: object) -> CallGraph:
    data = _object(data, "MetaCG document")
    if "_MetaCG" not in data:
        raise CallGraphError("missing _MetaCG header")
    _object(data["_MetaCG"], "_MetaCG header")
    cg = _object(data.get("_CG", {}), "_CG")
    callees: dict[str, dict] = {}
    graph = CallGraph()
    for name, entry in cg.items():
        entry = _object(entry, f"function {name!r}")
        meta = _object(entry.get("meta", {}), f"function {name!r}: meta")
        callees[name] = _object(
            entry.get("callees", {}), f"function {name!r}: callees"
        )
        graph.add_node(name, _meta(name, meta))
    for name, targets in callees.items():
        for callee, reason in targets.items():
            try:
                edge_reason = EdgeReason(reason)
            except ValueError:
                raise CallGraphError(
                    f"function {name!r}: unknown edge reason {reason!r} "
                    f"for callee {callee!r}"
                ) from None
            graph.add_edge(name, callee, edge_reason)
    return graph


def save(graph: CallGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(graph), indent=1, sort_keys=True))


def load(path: str | Path) -> CallGraph:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CallGraphError(f"cannot read call graph {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CallGraphError(f"call graph {path} is not valid JSON: {exc}") from exc
    return from_dict(data)
