"""In-memory span recording for the traced benchmark runs.

The benchmark times calls into each layer's public functions and
methods from the outside: :meth:`Tracer.wrap` swaps a class or module
attribute for a timing wrapper and :meth:`Tracer.restore` puts the
original back.  Each thread records into its own :class:`SpanLog`: a
span is a name, a start, an end and the index of its parent, the span
that was open on the same thread when it began (-1 for none).  Spans
stay in memory until the run ends.

The logs are parallel lists of strings, floats and ints rather than
one object per span, so a million spans add no work for the garbage
collector, whose passes would otherwise grow with the trace and
inflate the very timings being recorded.

The sim kernel gets no wrapper per callback: :class:`SimProfiler` is
the event loop's public ``profiler`` hook.  The loop reports each
callback's duration after it returns, so the profiler turns that into
a span and adopts the spans opened during the callback as children.
"""

from __future__ import annotations

import contextlib
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


def untimed(name: str):
    """The no-op stand-in for :meth:`Tracer.span` on untraced runs."""
    return contextlib.nullcontext()


class SpanLog:
    """One thread's spans, in the order they were opened."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: Indices of the spans open right now, innermost last.
        self.stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def clear(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents):
            column.clear()
        self.stack.clear()

    def roots(self) -> List[int]:
        return [i for i, parent in enumerate(self.parents) if parent < 0]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus
        the durations of its direct children (spans on one thread nest
        strictly, so that is the part of it they cover)."""
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0.0] * len(starts)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        totals: Dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            totals[name] += ends[index] - starts[index] - covered[index]
        return dict(totals)

    def write(self, handle, thread: int, origin: float) -> None:
        """Tab-separated rows: thread, index, name, start, end, parent,
        with times in seconds from ``origin``."""
        for index, name in enumerate(self.names):
            handle.write(
                f"{thread}\t{index}\t{name}\t{self.starts[index] - origin:.9f}\t"
                f"{self.ends[index] - origin:.9f}\t{self.parents[index]}\n"
            )


class Tracer:
    """Per-thread span logs plus the patches that feed them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.logs: List[SpanLog] = []
        self._logs_lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------------

    def log(self) -> SpanLog:
        """This thread's span log."""
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = SpanLog()
            with self._logs_lock:
                self.logs.append(log)
        return log

    def open(self, name: str) -> int:
        log = self.log()
        stack = log.stack
        index = log.add(name, perf_counter(), 0.0, stack[-1] if stack else -1)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        log = self._local.log
        log.ends[index] = perf_counter()
        log.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # -- wrap points -----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``after(result)`` runs once the call returns, inside the span,
        for wrappers that also record what the call did.
        """
        original = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                tracer.close(index)

        self.patch(owner, attr, timed)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Swap ``owner.attr`` for ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def write(self, path: str) -> None:
        """Every log as one tab-separated file; times in seconds from
        the earliest span."""
        origin = min((log.starts[0] for log in self.logs if len(log)), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("thread\tindex\tname\tstart\tend\tparent\n")
            for number, log in enumerate(self.logs):
                log.write(handle, number, origin)


class SimProfiler:
    """``EventLoop.profiler`` hook turning callbacks into spans.

    ``categorize`` maps an event label to a span name.  Spans opened
    while a callback ran hang off the span that was open around the
    loop (``sim.run``); once the loop reports the callback they move
    under the callback's span, so that a callback's self time excludes
    the web, booking and mitigation work it triggered.
    """

    def __init__(
        self, tracer: Tracer, categorize: Callable[[str], str]
    ) -> None:
        self.tracer = tracer
        self.categorize = categorize
        self.counts: Dict[str, int] = defaultdict(int)
        self._names: Dict[str, str] = {}
        self._adopt_from = 0

    def record_event(self, label: str, duration: float) -> None:
        end = perf_counter()
        log = self.tracer.log()
        name = self._names.get(label)
        if name is None:
            name = self._names[label] = self.categorize(label)
        parent = log.stack[-1] if log.stack else -1
        callback = len(log)
        parents = log.parents
        for index in range(min(self._adopt_from, callback), callback):
            if parents[index] == parent:
                parents[index] = callback
        log.add(name, end - duration, end, parent)
        self._adopt_from = callback + 1
        self.counts[label] += 1
