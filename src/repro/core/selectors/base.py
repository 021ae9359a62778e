"""Selector protocol and evaluation context.

A selector determines "the set of functions from the given call graph
that match its inclusion conditions" (paper §III-A).  Selectors form a
DAG: combinators take other selectors as inputs, and named instances may
feed several consumers.  Evaluation memoises per-instance results in the
context so shared sub-pipelines are computed once.

Evaluation runs over the call graph's interned integer ids end-to-end —
combinators do integer set-algebra, traversal selectors sweep id
adjacency — and results are converted to function names only at the
:class:`~repro.core.pipeline.SelectionResult` boundary (or through the
string-typed :meth:`EvalContext.evaluate` /:meth:`Selector.evaluate`
name boundary).

Per-context memoisation keys on selector *identity* (one pipeline run
reuses shared sub-pipelines).  On top of that, an opt-in
:class:`CrossRunCache` persists results **across** evaluation contexts:
selectors built from a spec carry a structural ``cache_key`` (the
canonical repr of their defining expression), and the cache is bound to
one call graph *version*.  Repeated ``select_all()`` sweeps over an
unchanged graph (rank sweeps, the Table I/II harnesses) become
near-free.

On a version bump the cache consults the graph's mutation journal
(:meth:`~repro.cg.graph.CallGraph.delta_since`) instead of dropping
wholesale: each stored result carries its **delta supports** — the id
sets whose metadata / structure the result depends on, reported by
:meth:`Selector.delta_supports` — and entries whose supports are
disjoint from the delta's touched ids survive the edit.  Universe
changes (node adds/removals) and journal truncation still drop the
store wholesale, which keeps the soundness argument local to
edge/reason/meta deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cg.graph import CallGraph


#: default LRU cap on structural-key entries within one graph version —
#: high enough that a realistic working set of distinct specs stays warm,
#: low enough that an endless stream of one-off specs cannot grow the
#: store unboundedly between graph mutations
DEFAULT_CACHE_ENTRIES = 4096

#: largest *constructed* support set worth tracking — beyond this, the
#: per-delta disjointness checks cost more than recomputing the selector,
#: so ``supports_of`` degrades to ``None`` (drop on any delta).  Shared
#: references returned by :func:`union_support` bypass the cap: they cost
#: nothing to keep no matter their size.
SUPPORT_CAP = 131072

_EMPTY_SUPPORT: frozenset[int] = frozenset()


def union_support(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    """Union of two support sets, sharing a reference when one is empty.

    Selector supports are dominated by a few huge reachable sets flowing
    unchanged through combinator chains; returning the non-empty operand
    instead of copying keeps paper-scale supports O(1) memory per entry.
    """
    if not a:
        return b
    if not b:
        return a
    return a | b


def combined_supports(
    ctx: "EvalContext", *selectors: "Selector"
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Union the delta supports of several inputs; ``None`` poisons."""
    meta = _EMPTY_SUPPORT
    struct = _EMPTY_SUPPORT
    for selector in selectors:
        supports = ctx.supports_of(selector)
        if supports is None:
            return None
        meta = union_support(meta, supports[0])
        struct = union_support(struct, supports[1])
    return (meta, struct)


class CrossRunCache:
    """Selector results shared across pipeline runs on one graph.

    Soundness: selectors are pure functions of (expression, graph
    structure+metadata), so a result keyed by the structural expression
    key is valid for as long as the graph's :attr:`~repro.cg.graph.
    CallGraph.version` is unchanged.  Binding to a different graph
    object or observing a version bump drops the whole store.

    On a version bump of the *same* graph the journal is consulted: an
    edge/reason/meta delta keeps every entry whose recorded supports are
    disjoint from the delta's touched ids (``retained``/``dropped``
    count the outcome); universe changes and truncated journals drop the
    store wholesale, uncounted.

    Within one graph version the store is additionally LRU-capped at
    ``max_entries`` distinct structural keys: every distinct spec adds
    entries, so an uncapped store grows without bound under a stream of
    one-off queries.  ``hits`` and ``evictions`` count served reuses and
    capacity evictions for diagnostics.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        #: strong reference: keeps the bound graph alive so a recycled
        #: ``id()`` of a freed graph can never alias into this store
        self._graph: CallGraph | None = None
        self._version: int | None = None
        self._store: dict[str, frozenset[int]] = {}
        #: per-key delta supports: ``(meta_ids, struct_ids)`` or ``None``
        #: when unknown (such entries cannot survive any delta)
        self._supports: dict[
            str, tuple[frozenset[int], frozenset[int]] | None
        ] = {}
        #: cross-run hits served (diagnostics / tests)
        self.hits = 0
        #: entries dropped to keep the store within ``max_entries``
        #: (wholesale version drops are *not* counted here)
        self.evictions = 0
        #: entries that survived a delta-based invalidation
        self.retained = 0
        #: entries dropped by a delta-based invalidation (wholesale
        #: version drops are *not* counted here either)
        self.dropped = 0

    def store_for(self, graph: CallGraph) -> dict[str, frozenset[int]]:
        """The live store for ``graph``, invalidated on version change.

        A version bump of the already-bound graph goes through the
        mutation journal: when it can answer and the id universe is
        unchanged, only entries whose supports intersect the delta's
        touched ids are dropped.
        """
        version = graph.version
        if self._graph is graph and self._version == version:
            return self._store
        if self._graph is graph and self._store:
            delta = graph.delta_since(self._version)
            if delta is not None and not delta.universe_changed:
                self._retain(delta)
                self._version = version
                return self._store
        self._graph = graph
        self._version = version
        self._store = {}
        self._supports = {}
        return self._store

    def _retain(self, delta) -> None:
        """Drop exactly the entries the delta can affect."""
        meta_touched = delta.meta_touched
        struct_touched = delta.struct_touched
        keep: dict[str, frozenset[int]] = {}
        keep_supports: dict[
            str, tuple[frozenset[int], frozenset[int]] | None
        ] = {}
        for key, result in self._store.items():
            supports = self._supports.get(key)
            if supports is not None:
                meta_sup, struct_sup = supports
                if meta_sup.isdisjoint(meta_touched) and struct_sup.isdisjoint(
                    struct_touched
                ):
                    keep[key] = result
                    keep_supports[key] = supports
                    self.retained += 1
                    continue
            self.dropped += 1
        self._store = keep
        self._supports = keep_supports

    def get(self, key: str) -> frozenset[int] | None:
        """LRU lookup in the bound store; counts and refreshes hits."""
        hit = self._store.pop(key, None)
        if hit is None:
            return None
        self._store[key] = hit  # re-insert: most recently used
        self.hits += 1
        return hit

    def put(
        self,
        key: str,
        result: frozenset[int],
        supports: tuple[frozenset[int], frozenset[int]] | None = None,
    ) -> None:
        """Insert one result, evicting least-recently-used past the cap.

        ``supports`` records the ``(meta_ids, struct_ids)`` the result
        depends on; ``None`` marks the dependency set unknown, so the
        entry is dropped by the first delta-based invalidation.
        """
        store = self._store
        store.pop(key, None)
        store[key] = result
        self._supports[key] = supports
        while len(store) > self.max_entries:
            evicted = next(iter(store))
            store.pop(evicted)
            self._supports.pop(evicted, None)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._store)


@dataclass
class EvalContext:
    """Evaluation state for one pipeline run over one call graph."""

    graph: CallGraph
    _cache: dict[int, frozenset[int]] = field(default_factory=dict)
    #: per-instance memo of :meth:`supports_of` results
    _supports: dict[
        int, "tuple[frozenset[int], frozenset[int]] | None"
    ] = field(default_factory=dict)
    #: evaluation statistics: selector description -> result size
    trace: list[tuple[str, int]] = field(default_factory=list)
    #: optional cross-run cache (see :class:`CrossRunCache`), already
    #: bound to this context's graph version via :meth:`with_cross_run`
    cross_run: "CrossRunCache | None" = None

    @classmethod
    def with_cross_run(
        cls, graph: CallGraph, cache: "CrossRunCache"
    ) -> "EvalContext":
        ctx = cls(graph)
        cache.store_for(graph)  # bind (drops the store on version change)
        ctx.cross_run = cache
        return ctx

    def evaluate_ids(self, selector: "Selector") -> frozenset[int]:
        """Evaluate to the interned-id set (the fast path)."""
        key = id(selector)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        cross = self.cross_run
        struct_key = getattr(selector, "cache_key", None) if cross is not None else None
        if struct_key is not None:
            hit = cross.get(struct_key)
            if hit is not None:
                self._cache[key] = hit
                self.trace.append((selector.describe(), len(hit)))
                return hit
        result = frozenset(selector.select_ids(self))
        self._cache[key] = result
        if struct_key is not None:
            cross.put(struct_key, result, supports=self.supports_of(selector))
        self.trace.append((selector.describe(), len(result)))
        return result

    def supports_of(
        self, selector: "Selector"
    ) -> "tuple[frozenset[int], frozenset[int]] | None":
        """Delta supports of a selector, memoised per instance.

        ``(meta_ids, struct_ids)``: the result of ``selector`` can only
        change under an edge/reason/meta delta that touches one of these
        ids (universe changes invalidate everything regardless, so
        supports never need to account for new or removed nodes).
        ``None`` means the dependency set is unknown or too large to
        track (:data:`SUPPORT_CAP`) — such results drop on any delta.
        """
        key = id(selector)
        if key in self._supports:
            return self._supports[key]
        # recursion guard: a selector cycle degrades to "unknown"
        self._supports[key] = None
        supports = selector.delta_supports(self)
        if supports is not None:
            meta_sup, struct_sup = supports
            if len(meta_sup) > SUPPORT_CAP or len(struct_sup) > SUPPORT_CAP:
                supports = None
        self._supports[key] = supports
        return supports

    def evaluate(self, selector: "Selector") -> frozenset[str]:
        """Evaluate to function names (the name boundary)."""
        return self.graph.ids_to_names(self.evaluate_ids(selector))


class Selector:
    """One node of the selection pipeline.

    Subclasses implement :meth:`select_ids` over interned integer ids;
    :meth:`evaluate` and :meth:`EvalContext.evaluate` are the
    function-name boundary.
    """

    def select_ids(self, ctx: EvalContext) -> set[int]:
        """Compute the selected id set (uncached)."""
        raise NotImplementedError(f"{type(self).__name__} implements no select_ids")

    def delta_supports(
        self, ctx: EvalContext
    ) -> "tuple[frozenset[int], frozenset[int]] | None":
        """``(meta_ids, struct_ids)`` this selector's result depends on.

        The contract (for deltas that do not change the id universe —
        those invalidate wholesale upstream): any edit sequence touching
        only metadata of ids outside ``meta_ids`` and structure of ids
        outside ``struct_ids`` leaves :meth:`select_ids` unchanged.
        ``None`` (the conservative default) declares the dependency set
        unknown.  Access through :meth:`EvalContext.supports_of`, never
        directly — the memo there doubles as the recursion guard.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__

    # convenience for tests / embedding
    def evaluate(self, graph: CallGraph) -> frozenset[str]:
        return EvalContext(graph).evaluate(self)


class AllSelector(Selector):
    """``%%`` — every function in the call graph."""

    def select_ids(self, ctx: EvalContext) -> set[int]:
        return ctx.graph.node_id_set()

    def delta_supports(self, ctx: EvalContext):
        # the id universe itself; only adds/removes change it, and those
        # invalidate wholesale before supports are even consulted
        return (_EMPTY_SUPPORT, _EMPTY_SUPPORT)

    def describe(self) -> str:
        return "%%"


class NamedRef(Selector):
    """Wrapper giving a selector instance its DSL name (diagnostics)."""

    def __init__(self, name: str, inner: Selector):
        self.name = name
        self.inner = inner

    def select_ids(self, ctx: EvalContext) -> set[int]:
        return ctx.evaluate_ids(self.inner)

    def delta_supports(self, ctx: EvalContext):
        return ctx.supports_of(self.inner)

    def describe(self) -> str:
        return f"%{self.name}"
