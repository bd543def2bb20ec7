"""In-memory span recorder for the traced benchmark run.

`install` replaces every public function of the ``pageval`` modules, in
every module namespace that holds it, with a wrapper that records a span:
(name, start, end, parent span, page id).  Callers look functions up by
name at call time (``editdist.edit_distance`` in ``report``,
``char_distance`` imported into ``assign``), so the wrappers see each call
into a layer.  Spans stay in memory until the run process folds them into
self times after `cli.main` returns; nothing is written while it runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("core", "editdist", "bow", "assign", "reading_order", "report", "simulate", "cli")


class Tracer:
    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, page id, raised]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            page = getattr(args[0], "page_id", None) if args else None
            if page is None and parent >= 0:
                page = spans[parent][4]
            span = [name, time.perf_counter_ns(), 0, parent, page, False]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                stack.pop()
                span[2] = time.perf_counter_ns()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every pageval module."""
        modules = [importlib.import_module("pageval")] + [
            importlib.import_module(f"pageval.{m}") for m in MODULES
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("pageval.")
                ):
                    continue
                if id(obj) not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[id(obj)] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrapped[id(obj)])

    def self_times(self) -> list[int]:
        """Per-span duration minus the time its direct children cover, in ns."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own
