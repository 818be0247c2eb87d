"""Spans around calls into the package's public functions.

The tracer replaces every function in ``robe3bp.__all__`` (and ``cli.main``)
in each module that binds it, so cross-module calls nest: ``char_coeffs``
calls ``triangular_points`` through the ``stability`` binding, ``cli`` calls
``integrate`` through its own.  Nothing under ``src/`` changes.  Classes in
``__all__`` are left alone (replacing them would break ``isinstance`` and
enum attribute access); constructing one counts as the caller's self time.

A span is (name, start, end, parent, op id).  Spans live in flat arrays while
the run lasts and are written out once, at the end.  A span's self time is
its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array

import numpy as np

import robe3bp
from robe3bp import cli, dynamics, equilibria, model, stability

LAYERS = (model, equilibria, stability, dynamics, cli)
OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]  # span name table; an id is an index
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_ops: list[int] = []  # ops (grid cells or cells) per op span
        self.integrations: list[tuple[int, int]] = []  # (steps, rejections)
        self._stack = [-1]
        self._op_id = -1
        self.wrapped: set[str] = set()
        self._patches = self._plan()

    def _plan(self) -> list[tuple[types.ModuleType, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding to replace."""
        public = set(robe3bp.__all__)
        wrappers, patches = {}, []
        for module in LAYERS:
            for attr in sorted(public | ({"main"} if module is cli else set())):
                fn = getattr(module, attr, None)
                if not isinstance(fn, types.FunctionType):
                    continue
                if fn not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    self.wrapped.add(name)
                    wrappers[fn] = self._wrap(fn, name)
                patches.append((module, attr, fn, wrappers[fn]))
        return patches

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        names, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter
        observe = self.integrations.append if fn is dynamics.integrate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            start.append(clock())
            end.append(0.0)
            names.append(name_id)
            parent.append(stack[-1])
            op.append(self._op_id)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe((result.steps, result.rejections))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def op_span(self, ops: int):
        """Root span of one call the benchmark times; ``ops`` is its op count."""
        i = len(self.start)
        self._op_id = len(self.op_ops)
        self.op_ops.append(ops)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(0)
        self.parent.append(-1)
        self.op.append(self._op_id)
        self._stack.append(i)
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
            self._op_id = -1

    def summary(self) -> dict:
        """Calls and self seconds per span name over all op spans, plus the
        op wall time and op count they add up to."""
        name = np.asarray(self.name)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        inside = np.asarray(self.op) >= 0
        child = parent >= 0
        children = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - children
        calls = np.bincount(name[inside], minlength=len(self.names))
        self_s = np.bincount(name[inside], weights=self_time[inside], minlength=len(self.names))
        return {
            "calls": dict(zip(self.names, calls.tolist())),
            "self_s": dict(zip(self.names, self_s.tolist())),
            "op_wall_s": float(dur[name == 0].sum()),
            "ops": sum(self.op_ops),
            "spans": int(inside.sum()),
        }

    def save(self, path: str) -> None:
        np.savez(path, name=np.asarray(self.name), start=np.asarray(self.start),
                 end=np.asarray(self.end), parent=np.asarray(self.parent),
                 op=np.asarray(self.op), names=np.asarray(self.names))
