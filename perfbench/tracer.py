"""In-memory span tracer for the benchmark's traced run.

The tracer replaces chosen lapspec functions with wrappers while it is
installed, in every lapspec module that holds a reference to them, so calls
made from inside the package are traced as well.  Each call records one span:
name, parent span, start, end and an optional size (vertex count, matrix
order or task size), with timestamps from the clock the caller supplies.  Spans live in flat arrays until the run ends; ``spans_between``
turns a recorded range into per-name call counts, inclusive and self times.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from typing import Callable, Optional

NO_SIZE = -1
ROOT = -1


class Tracer:
    def __init__(self, clock_ns: Callable[[], int]) -> None:
        self.clock_ns = clock_ns
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.size_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.results: dict[int, object] = {}
        self.stack = [ROOT]
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_of)

    def current(self) -> int:
        """Innermost open span, or ROOT."""
        return self.stack[-1]

    def _wrap(self, name: str, fn: Callable, size: Optional[Callable],
              keep_result: bool) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_of, parent_of, size_of = self.name_of, self.parent_of, self.size_of
        start, end, stack, results = self.start, self.end, self.stack, self.results
        clock = self.clock_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent_of.append(stack[-1])
            size_of.append(size(args[0]) if size is not None and args else NO_SIZE)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if keep_result:
                results[i] = result
            return result

        return traced

    def install(self, package: str, functions: list[tuple[str, str, str]],
                methods: list[tuple[str, str, str]]) -> None:
        """Wrap ``functions`` = [(span name, defining module, attribute)] in
        every loaded module of ``package`` that references the original, and
        ``methods`` = [(span name, module, "Class.method")] on their class."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, module, attr in functions:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, original, SIZES.get(name), name in KEEP_RESULT)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for name, module, dotted in methods:
            cls_name, attr = dotted.split(".")
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, None, False))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def spans_between(self, lo: int, hi: int) -> "SpanStats":
        return SpanStats(self, lo, hi)

    def write(self, path, marks: list[int]) -> None:
        """Write every span as one tab-separated line:
        pass, id, parent, name, size, start_ns, end_ns."""
        bounds = marks + [len(self)]
        with open(path, "w", encoding="ascii") as out:
            out.write("pass\tid\tparent\tname\tsize\tstart_ns\tend_ns\n")
            for p in range(len(marks)):
                for i in range(bounds[p], bounds[p + 1]):
                    out.write(f"{p}\t{i}\t{self.parent_of[i]}\t{self.names[self.name_of[i]]}"
                              f"\t{self.size_of[i]}\t{self.start[i]}\t{self.end[i]}\n")


def _graph_order(g) -> int:
    return g.n


def _matrix_order(mat) -> int:
    return len(mat)


# Span names whose first argument is bucketed by size.
SIZES = {
    "canonical.canonical_form": _graph_order,
    "laplacian.charpoly": _matrix_order,
    "enumeration.enumerate_graphs": lambda task: task.n,
}
# Span names whose return value is kept (distinct canonical forms).
KEEP_RESULT = {"canonical.canonical_form"}


class SpanStats:
    """Aggregates over the spans recorded in index range [lo, hi)."""

    def __init__(self, tracer: Tracer, lo: int, hi: int) -> None:
        self.tracer = tracer
        self.lo, self.hi = lo, hi
        names = tracer.names
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.bucket_calls: dict[tuple[str, int], int] = defaultdict(int)
        self.bucket_ns: dict[tuple[str, int], int] = defaultdict(int)
        child_ns = defaultdict(int)
        for i in range(lo, hi):
            dur = tracer.end[i] - tracer.start[i]
            parent = tracer.parent_of[i]
            if parent != ROOT:
                child_ns[parent] += dur
        for i in range(lo, hi):
            name = names[tracer.name_of[i]]
            dur = tracer.end[i] - tracer.start[i]
            self.calls[name] += 1
            self.inclusive_ns[name] += dur
            self.self_ns[name] += dur - child_ns.get(i, 0)
            size = tracer.size_of[i]
            if size != NO_SIZE:
                self.bucket_calls[(name, size)] += 1
                self.bucket_ns[(name, size)] += dur

    def name(self, i: int) -> str:
        return self.tracer.names[self.tracer.name_of[i]]

    def nearest(self, i: int, names: set[str]) -> int:
        """Closest ancestor-or-self span of i whose name is in names."""
        while i != ROOT and self.name(i) not in names:
            i = self.tracer.parent_of[i]
        return i

    def indices(self, name: str):
        return (i for i in range(self.lo, self.hi) if self.name(i) == name)

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def us_per_call(self, name: str, size: Optional[int] = None) -> float:
        if size is None:
            calls, ns = self.calls.get(name, 0), self.inclusive_ns.get(name, 0)
        else:
            calls = self.bucket_calls.get((name, size), 0)
            ns = self.bucket_ns.get((name, size), 0)
        return ns / calls / 1e3 if calls else 0.0
