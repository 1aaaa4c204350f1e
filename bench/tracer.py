"""Outside-in call tracer for an imported package.

``Tracer.install`` wraps every public function of every loaded module of
the package, and every public method of the classes those modules define,
without touching their source.  A function bound by name in several
modules (``from .variety import intersection_number``) is one wrapped
object, rebound everywhere it appears: in each module namespace and in
dicts and lists held at module level.  Modules are taken from
``sys.modules``, never through attribute access on the package, because
the package re-exports functions under module names
(``secgenus.classify`` is the function, not the module).

Each call records a span (name, parent span, start, end) in flat arrays.
Self time is a span's duration minus the durations of the spans whose
parent it is.  ``hooks`` map a span name to a function of
(args, kwargs, result) whose values are summed per name.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from types import FunctionType


class Tracer:
    def __init__(self, hooks: dict | None = None) -> None:
        self.hooks = hooks or {}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.extra: dict[str, int] = {}
        self.constructed: dict[str, int] = {}

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self.stack, time.perf_counter
        hook = self.hooks.get(name)
        extra = self.extra
        if hook is not None:
            extra[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                extra[name] += hook(args, kwargs, result)
            return result

        return traced

    def count_instances(self, cls, name: str) -> None:
        """Count constructions of ``cls`` (no span: it is the hottest call)."""
        self.constructed[name] = 0
        init = cls.__init__
        counts = self.constructed

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            counts[name] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted

    def install(self, package: str) -> int:
        """Wrap the package's public callables; return how many were wrapped."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }

        def label(modname: str, qualname: str) -> str:
            return f"{modname.partition('.')[2] or modname}.{qualname}"

        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for modname, mod in sorted(modules.items()):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) not in modules:
                    continue
                if isinstance(value, type):
                    if value.__module__ == modname:
                        self._wrap_methods(value, label(modname, value.__qualname__))
                elif callable(value) and id(value) not in wrapped:
                    name = label(value.__module__, getattr(value, "__qualname__", attr))
                    wrapped[id(value)] = (value, self._wrap(value, name))

        def swap(value):
            entry = wrapped.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else None

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                new = swap(value)
                if new is not None:
                    setattr(mod, attr, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not None:
                            value[key] = new
                elif isinstance(value, list):
                    for pos, item in enumerate(value):
                        new = swap(item)
                        if new is not None:
                            value[pos] = new
        self._check_rebound(modules, wrapped)
        return len(self.names)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, FunctionType):
                setattr(cls, attr, self._wrap(value, f"{prefix}.{attr}"))
            elif isinstance(value, (staticmethod, classmethod)):
                inner = self._wrap(value.__func__, f"{prefix}.{attr}")
                setattr(cls, attr, type(value)(inner))

    @staticmethod
    def _check_rebound(modules: dict, wrapped: dict) -> None:
        originals = {id(orig) for orig, _ in wrapped.values()}
        for modname, mod in modules.items():
            for attr, value in vars(mod).items():
                items = [value]
                if isinstance(value, dict):
                    items += list(value.values())
                elif isinstance(value, list):
                    items += value
                if any(id(item) in originals for item in items):
                    raise RuntimeError(f"tracer left an unwrapped reference at {modname}.{attr}")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
        return stats
