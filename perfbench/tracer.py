"""Span tracing around cancelgraph's cross-module boundaries.

A span is one call of a wrapped function, or one ``next()`` of a wrapped
generator. Spans run in the millions on the sweep, so none is kept: each is
folded on exit into per-(name, parent) totals of count, total seconds and
self seconds. Self time is a span's duration minus the durations of the
spans it directly encloses; the root span takes whatever no wrapped call
covers, so the self times of all spans sum to the root's duration.
"""
from __future__ import annotations

import ast
import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from pathlib import Path


DECIDER = "decide.is_neighborhood_reconstructible"


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # (name, parent name or None) -> [count, total_s, self_s]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.routes = {"involution": 0, "bipartite": 0, "full": 0}
        self.bipartitions = [0, 0]  # [calls, bipartite results]
        # open spans, innermost last: [name, child seconds, route seen]
        self._stack: list[list] = []

    def _close(self, frame: list, duration: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        key = (frame[0], parent[0] if parent is not None else None)
        agg = self.spans.get(key)
        if agg is None:
            self.spans[key] = [1, duration, duration - frame[1]]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = [name, 0.0, None]
        self._stack.append(frame)
        self.calls[name] = self.calls.get(name, 0) + 1
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(frame, self.clock() - t0)

    def wrap(self, name: str, fn):
        """A function that records a span per call of fn (per next() of the
        generator fn returns, for generator functions)."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack = self._stack
        clock = self.clock
        close = self._close
        calls = self.calls
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            frame = [name, 0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, clock() - t0)
            if observe is not None:
                observe(frame, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        stack = self._stack
        clock = self.clock
        close = self._close
        calls = self.calls
        items = self.items
        items.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    frame = [name, 0.0, None]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(frame, clock() - t0)
                    items[name] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def _observer(self, name: str):
        """Return-value hook for the boundaries whose results the metrics
        read: the decider's route and the bipartite share."""
        routes, stack, tally = self.routes, self._stack, self.bipartitions

        def settle(route):
            # the first fast path that answers names the enclosing decider's route
            if stack and stack[-1][0] == DECIDER and stack[-1][2] is None:
                stack[-1][2] = route

        def decider(frame, result):
            routes[frame[2] or "full"] += 1

        def involution(frame, result):
            if result is None:
                settle("involution")

        def bipartition(frame, result):
            tally[0] += 1
            if result.is_bipartite:
                tally[1] += 1
                settle("bipartite")

        return {DECIDER: decider, "iso.involution_witness": involution,
                "product.bipartition": bipartition}.get(name)

    def records(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "count": v[0], "total_s": v[1], "self_s": v[2]}
            for (n, p), v in sorted(self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]


def cross_module_names(package_dir: Path) -> set[tuple[str, str]]:
    """(defining module, name) for every name one module of the package
    imports from another with a relative import, at any depth of the file."""
    found = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    found.add((node.module, alias.name))
    return found


def span_name(module: str, name: str) -> str:
    return f"{module}.{name.lstrip('_')}"


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every cross-module function of cancelgraph, plus
    Graph.__post_init__ and _UniverseIndex.build, in every namespace that
    bound it. Returns the undo list for uninstall()."""
    pkg = importlib.import_module("cancelgraph")
    package_dir = Path(pkg.__file__).parent
    modules = [pkg] + [
        importlib.import_module(f"cancelgraph.{p.stem}")
        for p in sorted(package_dir.glob("*.py")) if p.stem != "__init__"
    ]
    undo = []

    def replace(target, attr, wrapper):
        undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    for module_name, name in sorted(cross_module_names(package_dir)):
        original = getattr(sys.modules.get(f"cancelgraph.{module_name}"), name, None)
        if original is None or inspect.isclass(original) or not callable(original):
            continue
        wrapper = tracer.wrap(span_name(module_name, name), original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replace(module, attr, wrapper)
    graph = sys.modules["cancelgraph.graphs"].Graph
    index = sys.modules["cancelgraph.oracle"]._UniverseIndex
    replace(graph, "__post_init__", tracer.wrap("graphs.Graph", graph.__post_init__))
    replace(index, "build", tracer.wrap("oracle.universe_build", index.build))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)
