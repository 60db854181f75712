"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into each layer's public functions. The
package modules import functions by name (``from .superop import
spectrum``), so a function is wrapped wherever a ``dqdnoise`` module
holds a reference to it: module globals and the values of module-level
dicts. ``scipy.sparse.linalg.splu`` and ``scipy.linalg.expm`` are wrapped
on their scipy modules, where the package looks them up at call time.

Every thread keeps its own stack of open spans, so a span's parent is
the innermost open span on the same thread. A span opened on a worker
thread with an empty stack takes as parent the innermost open span of
the thread that installed the tracer (the thread waiting in
``run_sweep``); that link is used for attribution only and is not
subtracted from the parent's self time as same-thread nesting would be.
Self time is a span's duration minus the union of its children's
intervals, minus the tracer's own bookkeeping.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

#: layers an splu span is named after, by its nearest ancestor among them
LU_OWNERS = ("steady", "noise")
PACKAGE = "dqdnoise"


class Span:
    __slots__ = ("id", "name", "thread", "parent", "start", "end", "cpu0", "cpu1",
                 "bk", "counters")

    def __init__(self, span_id, name, thread, parent, start, cpu0):
        self.id = span_id
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = start
        self.cpu0 = cpu0
        self.end = start
        self.cpu1 = cpu0
        self.bk = 0.0
        self.counters = None


class Tracer:
    """Collects spans in memory; ``install`` wraps targets, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._stacks: dict[int, list[Span]] = {}
        self._root_thread = threading.get_ident()
        self._patches: list[tuple[object, object, object]] = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        tid = threading.get_ident()
        if stack:
            parent = stack[-1].id
        else:
            # slicing is atomic under the GIL even while the root thread pops
            top = self._stacks.get(self._root_thread, [])[-1:] if tid != self._root_thread else []
            parent = top[0].id if top else None
        span = Span(next(self._ids), name, tid, parent, time.perf_counter(), time.process_time())
        stack.append(span)
        return span

    def wrap(self, fn, name: str, counters=None):
        """Return ``fn`` wrapped in a span; ``counters(args, kwargs, result)``
        returns a dict of counts, computed after the call and excluded from
        every span's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu1 = time.process_time()
                self._stack().pop()
                self.spans.append(span)
            if counters is not None:
                span.counters = counters(args, kwargs, result)
                done = time.perf_counter()
                span.bk = done - span.end
                span.end = done
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, targets):
        """Wrap each ``(owner, attribute, span name, counters)`` target.

        ``owner`` is a module or class. Every reference to the original
        function held by a module of the package is replaced as well.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for owner, attr, name, counters in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, counters)
            self._patch(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def resolve(spans: list[Span]) -> list[dict]:
    """Per-span records with resolved names, self times and ancestry.

    An ``lu`` span is named after its nearest steady or noise ancestor
    (``steady.lu``, ``noise.lu``; ``other.lu`` if it has none).
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def ancestors(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    # spans close (and are appended) after their children, so one pass sums
    # each subtree's bookkeeping, which inclusive times and CPU leave out
    subtree_bk: dict[int, float] = defaultdict(float)
    for s in spans:
        subtree_bk[s.id] += s.bk
        if s.parent is not None:
            subtree_bk[s.parent] += subtree_bk[s.id]

    records = []
    for s in spans:
        name = s.name
        if name == "lu":
            owner = next((a.name.split(".")[0] for a in ancestors(s)
                          if a.name.split(".")[0] in LU_OWNERS), "other")
            name = f"{owner}.lu"
        parent = by_id.get(s.parent)
        cover = _covered(s.start, s.end, [(c.start, c.end) for c in children[s.id]])
        records.append({
            "name": name,
            "incl": s.end - s.start - subtree_bk[s.id],
            "self": s.end - s.start - s.bk - cover,
            "cpu": s.cpu1 - s.cpu0 - (subtree_bk[s.id] - s.bk),
            "counters": s.counters or {},
            "ancestors": [a.name for a in ancestors(s)],
            "same_thread_parent": parent is not None and parent.thread == s.thread,
            "parent": parent.name if parent is not None else None,
        })
    return records
