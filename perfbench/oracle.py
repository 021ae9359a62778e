"""Independent re-derivation of selection-service answers.

The service answers from warm snapshots, shared sub-expression caches,
delta-refreshed CSR arrays and batched evaluation.  The oracle uses none
of them: for each sampled answer it replays the recorded edit stream on a
private copy of the graph as it was admitted, up to the answer's
``graph_version``, and evaluates the spec once with a fresh
:class:`~repro.core.capi.Capi` (no memo, no cross-run cache).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Answer:
    """One served query: what was asked, at which version, what came back."""

    graph_key: str
    source: str
    graph_version: int
    selected: frozenset[str]


@dataclass(frozen=True)
class EditRecord:
    """One applied edit and the graph version the service reported after it."""

    graph_key: str
    post_version: int
    mutate: Callable


def check_answers(
    pristine: dict,
    base_versions: dict[str, int],
    edits: list[EditRecord],
    answers: list[Answer],
) -> list[str]:
    """Re-derive every answer; returns one problem line per wrong answer.

    ``pristine[key]`` is a private copy of the graph taken before any edit,
    when the service's graph stood at ``base_versions[key]``; ``edits``
    are in the order the service applied them.  The copies are mutated in
    place by the replay.
    """
    from repro.core.capi import Capi

    by_graph: defaultdict[str, list[EditRecord]] = defaultdict(list)
    for edit in edits:
        by_graph[edit.graph_key].append(edit)
    problems: list[str] = []
    ordered = sorted(answers, key=lambda a: (a.graph_key, a.graph_version))
    cursor: dict[str, tuple[int, int]] = {}
    for answer in ordered:
        key = answer.graph_key
        graph = pristine[key]
        applied, version = cursor.get(key, (0, base_versions[key]))
        stream = by_graph[key]
        while version < answer.graph_version and applied < len(stream):
            stream[applied].mutate(graph)
            version = stream[applied].post_version
            applied += 1
        cursor[key] = (applied, version)
        if version != answer.graph_version:
            problems.append(
                f"{key}: answer at version {answer.graph_version} matches no "
                f"recorded edit (replay reached {version})"
            )
            continue
        expected = Capi(graph=graph).select(answer.source).selection.selected
        if expected != answer.selected:
            problems.append(
                f"{key}@{answer.graph_version}: served {len(answer.selected)} "
                f"functions, uncached selection gives {len(expected)} "
                f"({len(expected ^ answer.selected)} differ)"
            )
    return problems
