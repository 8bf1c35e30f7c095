"""Span tracing of asmlat from the outside, for the benchmark's traced run.

install() replaces every public function and public method of the asmlat
modules with a timing wrapper, in every asmlat namespace that binds it
(so both asmlat.poset.covers_up and asmlat.enumeration.covers_up are
wrapped), and wraps each entry of asmlat.verify.SUITES.  A call that
returns a generator gets one span per resumption.  Spans live in compact
arrays until the run ends; uninstall() puts the original objects back.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from types import GeneratorType

# Special methods that do real work on the polynomial and matrix types.
_DUNDERS = {"__str__", "__add__", "__sub__", "__mul__", "__pow__", "__neg__"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self._request = [-1]
        self.counters: dict[str, int] = {}
        self.wrapped: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def set_request(self, rid: int) -> None:
        self._request[0] = rid

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn, post=None):
        self.wrapped.add(name)
        nid = self._name_id(name)
        resume = f"{name}.next"
        names, parents, requests = self.name_col, self.parent_col, self.request_col
        starts, ends, stack, request = self.start_col, self.end_col, self._stack, self._request
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(request[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            if type(result) is GeneratorType:
                return self._resumptions(resume, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _resumptions(self, name, gen):
        """Re-yield gen's items, with one span around each resumption."""
        nid = self._name_id(name)
        yielded = 0
        try:
            while True:
                sid = len(self.name_col)
                self.name_col.append(nid)
                self.parent_col.append(self._stack[-1])
                self.request_col.append(self._request[0])
                self.start_col.append(time.perf_counter())
                self.end_col.append(0.0)
                self._stack.append(sid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end_col[sid] = time.perf_counter()
                    self._stack.pop()
                yielded += 1
                yield item
        finally:
            self.count(f"{name}.yields", yielded)

    def install(self, package, modules: dict, hooks: dict) -> None:
        """Wrap the public callables of modules ({layer: module}).

        hooks maps a span name to post(args, result), called after the span
        closes, to record counts such as cover edges returned.
        """
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj, hooks)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        suites = getattr(modules.get("verify"), "SUITES", None)
        if isinstance(suites, list):
            self._undo.append((suites, "[:]", list(suites)))
            suites[:] = [(n, cap, self._wrap(f"verify.suite.{n}", fn, self._suite_hook(n)))
                         for n, cap, fn in suites]

    def _suite_hook(self, suite):
        def post(args, result):
            self.count(f"verify.{suite}.checked", result[0])
        return post

    def _wrap_methods(self, layer, cls, hooks) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                self._patch(cls, attr, kind(self._wrap(name, member.__func__, hooks.get(name))))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member, hooks.get(name)))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if attr == "[:]":
                owner[:] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus time
        per (parent name, child name) edge."""
        n = len(self.name_col)
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        child_time = array("d", bytes(8 * n))
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child_time[p] += ends[sid] - starts[sid]
        per_name = {name: [0, 0.0, 0.0] for name in self.names}
        edges: dict[tuple[str, str], float] = {}
        for sid in range(n):
            dur = ends[sid] - starts[sid]
            row = per_name[self.names[names[sid]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time[sid]
            p = parents[sid]
            if p >= 0:
                key = (self.names[names[p]], self.names[names[sid]])
                edges[key] = edges.get(key, 0.0) + dur
        return {"per_name": per_name, "edges": edges, "spans": n}

    def write(self, path, meta: dict) -> None:
        """One JSON header line, then the raw columns in header order."""
        cols = [("name", self.name_col), ("parent", self.parent_col),
                ("request", self.request_col), ("start", self.start_col), ("end", self.end_col)]
        header = dict(meta, names=self.names, count=len(self.name_col),
                      columns=[[c, a.typecode, a.itemsize] for c, a in cols])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in cols:
                a.tofile(fh)
