"""Span tracing of specgraph from outside the package.

`Tracer.install()` wraps every public function of the specgraph layer
modules (plus the methods in `METHODS`) and rebinds the wrapper in every
`specgraph.*` namespace that binds the original, so that calls made
through `from .exact import polymat_det` are seen too.  Generator
functions are timed per `next()`.  Spans (name, start, end, parent) are
kept in memory; `uninstall()` restores every binding it changed.  When
no tracer is installed specgraph runs untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import operator
import sys
import time
from typing import Any, Callable

LAYERS = ("graphs", "exact", "secular", "discrete", "mfunction",
          "constructions", "search", "cli")

# (module, class, method) wrapped on the class itself.
METHODS = (("secular", "SecularMatrixSpec", "entry_matrix"),)

# Hot leaves that get no span, so their cost stays with their caller:
# edge_m_block runs once per edge per M-function evaluation.
UNTRACED = frozenset({"mfunction.edge_m_block"})

# Functions that are counted by the name of the calling span, not timed:
# discrete_from_adj builds every candidate graph of an enumeration.
COUNTED = frozenset({"graphs.discrete_from_adj"})


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


# span name -> (reducer, value from (args, kwargs, result)): the largest
# determinant, the sample points of all interpolations, the singular
# M-function evaluations
ATTRIBUTES: dict[str, tuple[Callable, Callable]] = {
    "exact.det_exact": (max, lambda a, k, r: len(_arg(a, k, 0, "m"))),
    "exact.polymat_det": (operator.add, lambda a, k, r: _arg(a, k, 2, "degree_bound") + 2),
    "mfunction.m_function": (operator.add, lambda a, k, r: int(not r.regular)),
}


class Tracer:
    """Records spans of wrapped specgraph calls while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.attrs: dict[str, Any] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self.yields: dict[str, int] = {}
        self._stack: list[int] = [-1]
        self._name_stack: list[int] = [-1]
        self._bindings: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Drop recorded data (the wrappers stay installed)."""
        self.spans.clear()
        self.attrs.clear()
        self.counts.clear()
        self.yields.clear()

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record_attr(self, name: str, args: tuple, kwargs: dict, result: Any) -> None:
        reduce, measure = ATTRIBUTES[name]
        value = measure(args, kwargs, result)
        old = self.attrs.get(name)
        self.attrs[name] = value if old is None else reduce(old, value)

    def _wrap_function(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        spans, stack, name_stack = self.spans, self._stack, self._name_stack
        has_attr = name in ATTRIBUTES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            name_stack.append(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                name_stack.pop()
                spans[idx] = (nid, start, end, parent)
            if has_attr:
                self._record_attr(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        spans, stack, name_stack = self.spans, self._stack, self._name_stack
        yields = self.yields
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                name_stack.append(nid)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    name_stack.pop()
                    spans[idx] = (nid, start, end, parent)
                yields[name] = yields.get(name, 0) + 1
                yield item

        return wrapper

    def _wrap_counter(self, name: str, fn: Callable) -> Callable:
        names, name_stack, counts = self.names, self._name_stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = name_stack[-1]
            key = (name, names[top] if top >= 0 else "")
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original: Any, wrapper: Any) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "specgraph" and not modname.startswith("specgraph."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every public function of the layer modules, in place."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"specgraph.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(value) or hasattr(value, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                if name in COUNTED:
                    wrapper = self._wrap_counter(name, value)
                elif inspect.isgeneratorfunction(value):
                    wrapper = self._wrap_generator(name, value)
                else:
                    wrapper = self._wrap_function(name, value)
                self._rebind(value, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"specgraph.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._bindings.append((cls, method, original))
            setattr(cls, method, self._wrap_function(f"{layer}.{method}", original))
        return self

    def uninstall(self) -> None:
        """Restore every binding changed by install()."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap their siblings.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            nid, start, end, _ = span
            row = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out

    def dump(self, fh) -> None:
        """Write the spans as tab-separated lines: id, name, start, end, parent."""
        for idx, span in enumerate(self.spans):
            if span is not None:
                nid, start, end, parent = span
                fh.write(f"{idx}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
