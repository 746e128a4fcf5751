"""Outside-in layer tracing: wrap a package's public functions and record spans.

A span is one call into a wrapped function: its name, start, end, parent span
and a work count.  Spans are kept in memory while the program runs and are
written once, by ``Tracer.dump``, when the run ends.  ``self_times`` turns a
span list into per-span self time (duration minus the part covered by child
spans) and checks that the spans nest.

Nothing in the traced package changes: wrappers replace module and class
attributes, so calls that look the function up through its module or class
(which is how the package's layers call each other) pass through them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# field order of one span record
NAME, START, END, PARENT, WORK, ERROR = range(6)


class Tracer:
    """Collects spans for one run of the program under test."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        """Return `fn` wrapped to record a span per call.

        `work(result, args, kwargs)`, when given, supplies the span's work
        count (runs sampled, dicts built, bytes written, ...).
        """
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, clock(), 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = 1
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if work is not None:
                record[WORK] = work(result, args, kwargs)
            return result

        return traced

    def install(self, modules: dict, work: dict | None = None) -> int:
        """Wrap every public function and method defined in each module.

        `modules` maps a layer name to its module.  Spans are named
        ``layer.function`` or ``layer.Class.method``; `work` maps such a name
        to its work-count function.  Returns the number of wrapped callables.
        """
        work = work or {}
        wrapped = 0
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    setattr(module, attr, self.wrap(name, obj, work.get(name)))
                    wrapped += 1
                elif inspect.isclass(obj):
                    wrapped += self._install_methods(f"{layer}.{attr}", obj, work)
        return wrapped

    def _install_methods(self, prefix: str, cls, work: dict) -> int:
        wrapped = 0
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                traced = self.wrap(name, member.__func__, work.get(name))
                setattr(cls, attr, type(member)(traced))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member, work.get(name)))
            else:
                continue
            wrapped += 1
        return wrapped

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": self.names, "spans": self.spans}, fh)


def load(path: str) -> tuple[str, list[str], list[list]]:
    with open(path) as fh:
        blob = json.load(fh)
    return blob["run_id"], blob["names"], blob["spans"]


class SpanError(ValueError):
    """The span set does not nest the way one call stack would."""


def self_times(spans: list[list], tol: float = 1e-9) -> list[float]:
    """Per-span self time: duration minus the time its child spans cover.

    Spans must be in start order (the order a tracer appends them).  Raises
    SpanError when a child starts before its parent, ends after it, or
    overlaps an earlier sibling, since then durations no longer add up.
    """
    child_time = [0.0] * len(spans)
    last_child_end = [None] * len(spans)
    for i, span in enumerate(spans):
        if span[END] < span[START] - tol:
            raise SpanError(f"span {i} ends before it starts")
        p = span[PARENT]
        if p < 0:
            continue
        if not 0 <= p < i:
            raise SpanError(f"span {i} names parent {p}, which has not started")
        parent = spans[p]
        if span[START] < parent[START] - tol or span[END] > parent[END] + tol:
            raise SpanError(f"span {i} lies outside its parent {p}")
        if last_child_end[p] is not None and span[START] < last_child_end[p] - tol:
            raise SpanError(f"span {i} overlaps an earlier child of {p}")
        last_child_end[p] = span[END]
        child_time[p] += span[END] - span[START]
    return [span[END] - span[START] - child_time[i] for i, span in enumerate(spans)]


def outermost(names: list[str], spans: list[list]) -> list[bool]:
    """True for each span with no ancestor of the same name, so that summing
    the durations of outermost spans never counts a recursive call twice."""
    flags = []
    for span in spans:
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] != span[NAME]:
            p = spans[p][PARENT]
        flags.append(p < 0)
    return flags


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
