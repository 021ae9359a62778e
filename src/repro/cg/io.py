"""MetaCG-style JSON (de)serialisation of call graphs.

The on-disk layout loosely follows MetaCG's format: a top-level
``_MetaCG`` header and one entry per function carrying callees/callers
and a ``meta`` blob.  Round-tripping preserves nodes, edges, reasons and
metadata exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cg.graph import CallGraph, EdgeReason, NodeMeta
from repro.errors import CallGraphError

FORMAT_VERSION = "2.0-repro"


def to_dict(graph: CallGraph) -> dict:
    nodes: dict[str, dict] = {}
    for node in graph.nodes():
        meta = node.meta
        nodes[node.name] = {
            "callees": {
                callee: graph.edge_reason(node.name, callee).value  # type: ignore[union-attr]
                for callee in sorted(graph.callees_of(node.name))
            },
            "meta": {
                "numStatements": meta.statements,
                "numFlops": meta.flops,
                "loopDepth": meta.loop_depth,
                "isInlineMarked": meta.inline_marked,
                "isInSystemHeader": meta.in_system_header,
                "isVirtual": meta.is_virtual,
                "isMpi": meta.is_mpi,
                "isStaticInitializer": meta.is_static_initializer,
                "hasBody": meta.has_body,
                "sourcePath": meta.source_path,
                "tu": meta.tu,
            },
        }
    return {"_MetaCG": {"version": FORMAT_VERSION}, "_CG": nodes}


def from_dict(data: dict) -> CallGraph:
    header = data.get("_MetaCG")
    if not header:
        raise CallGraphError("missing _MetaCG header")
    graph = CallGraph()
    cg = data.get("_CG", {})
    for name, entry in cg.items():
        m = entry.get("meta", {})
        graph.add_node(
            name,
            NodeMeta(
                statements=m.get("numStatements", 0),
                flops=m.get("numFlops", 0),
                loop_depth=m.get("loopDepth", 0),
                inline_marked=m.get("isInlineMarked", False),
                in_system_header=m.get("isInSystemHeader", False),
                is_virtual=m.get("isVirtual", False),
                is_mpi=m.get("isMpi", False),
                is_static_initializer=m.get("isStaticInitializer", False),
                has_body=m.get("hasBody", False),
                source_path=m.get("sourcePath", ""),
                tu=m.get("tu", ""),
            ),
        )
    for name, entry in cg.items():
        for callee, reason in entry.get("callees", {}).items():
            graph.add_edge(name, callee, EdgeReason(reason))
    return graph


def save(graph: CallGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(graph), indent=1, sort_keys=True))


def load(path: str | Path) -> CallGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CallGraphError(f"cannot read call graph {path}: {exc}") from exc
    return from_dict(json.loads(text))
