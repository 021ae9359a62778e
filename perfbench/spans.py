"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only from the benchmark's own files: :meth:`Tracer.patch`
replaces a public function or method of a layer (on its class, or on the
module where its caller looks it up) with a timing wrapper, and
:meth:`Tracer.restore` puts every original back.  The program under test
is never edited, so an untraced run executes exactly the parent code.

Each span is one tuple ``(id, name, start, end, parent, thread, rid)``:
``parent`` is the id of the span open on the same thread when this one
started (``-1`` at top level) and ``rid`` names the unit of work the span
belongs to (a Table II cell, a rank, a service request).  Spans stay in
memory until :func:`write_spans` writes them out at the end of the run.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: (id, name, start, end, parent id, thread ident, request id)
Span = tuple[int, str, float, float, int, int, int]

_MISSING = object()


class _Local(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.rid = -1


class Tracer:
    """Records spans, counts and samples at the layer boundaries it patches."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: call counts of count-only boundaries (no span recorded)
        self.counts: Counter[str] = Counter()
        #: summed values reported by hooks (bytes mapped, mprotect calls)
        self.totals: defaultdict[str, float] = defaultdict(float)
        #: raw samples reported by hooks (queue waits)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._rids = itertools.count()
        self._local = _Local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, *, new_rid: bool = False) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        This closure runs on every sled fire of a traced pass, so it binds
        everything it touches up front rather than reusing :meth:`span`.
        """
        clock, ids, rids = self.clock, self._ids, self._rids
        local, record = self._local, self.spans.append
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            saved_rid = local.rid
            if new_rid:
                local.rid = next(rids)
            rid = local.rid
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.rid = saved_rid
                record((sid, name, start, end, parent, get_ident(), rid))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def span(self, name: str):
        """Context manager form of :meth:`wrap` for the benchmark's own calls."""
        return _SpanContext(self, name)

    def counting(self, fn: Callable, name: str) -> Callable:
        """``fn`` counting its calls under ``name`` without recording spans."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def with_rid(self, fn: Callable) -> Callable:
        """``fn`` run under a fresh request id, recording no span of its own."""
        local, rids = self._local, self._rids

        def scoped(*args, **kwargs):
            saved = local.rid
            local.rid = next(rids)
            try:
                return fn(*args, **kwargs)
            finally:
                local.rid = saved

        scoped.__wrapped__ = fn  # type: ignore[attr-defined]
        return scoped

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.totals[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`.

        A missing target raises: a renamed boundary must fail the traced
        run loudly rather than silently move its time into ``other_s``.
        """
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(
                f"benchmark probe target {getattr(owner, '__name__', owner)}.{attr} "
                f"does not exist"
            )
        own = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- analysis ------------------------------------------------------------

    def self_by_name(self) -> dict[str, float]:
        """Summed self time per span name."""
        return layer_self_times(self.spans)

    def calls_by_name(self) -> Counter[str]:
        return Counter(span[1] for span in self.spans)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _, _ in self.spans if n == name]


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_sid", "_parent", "_start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        t = self._tracer
        stack = t._local.stack
        self._sid = next(t._ids)
        self._parent = stack[-1] if stack else -1
        stack.append(self._sid)
        self._start = t.clock()
        return self

    def __exit__(self, *exc_info) -> None:
        t = self._tracer
        end = t.clock()
        t._local.stack.pop()
        t.spans.append(
            (self._sid, self._name, self._start, end, self._parent,
             threading.get_ident(), t._local.rid)
        )


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id → duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once (interval union), so the self times of a span tree
    sum to the wall time the tree covers.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: defaultdict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += own[span[0]]
    return dict(totals)


def write_spans(path: Path, phases: Iterable[tuple[str, Tracer]]) -> int:
    """Write every phase's spans as gzipped JSON lines; returns the span count.

    One line per span: ``[phase, id, name, start, end, parent, thread, rid]``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for phase, tracer in phases:
            for span in tracer.spans:
                fh.write(json.dumps([phase, *span]) + "\n")
                written += 1
    return written
