"""Span tracer that wraps stopsim's layers from outside the package.

``Tracer.install`` replaces each public function of the layer modules with a
timing wrapper, in every ``stopsim`` module namespace that holds it, so a
call is caught whichever module looks the name up (``stopsim.evolution``
and ``stopsim.sensitivity`` both look up ``evaluate_S``, for example).  It
also wraps a few methods on the hot path and ``scipy.sparse.linalg.splu``,
whose result is returned behind a proxy with a timed ``solve``.
``uninstall`` puts every original back.

Each call records one span: name, start, end and the span that was open
when it began.  Spans stay in compact in-memory arrays until the run ends.
A target that does not exist (renamed or removed by a refactor) is listed
in ``missing``; metrics built on it report as missing instead of failing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

import numpy as np

LAYERS = ("cli", "scenario", "control", "sensitivity", "evolution", "spatial",
          "hysteresis")

# Methods on the per-step path: (module, class, method) -> span name.
METHODS = {
    ("hysteresis", "StopCursor", "advance"): "hysteresis.StopCursor.advance",
    ("evolution", "ReactionFunction", "value"): "evolution.ReactionFunction.value",
    ("evolution", "ReactionFunction", "directional"):
        "evolution.ReactionFunction.directional",
}

FACTORIZE = "spatial.splu"
LU_SOLVE = "spatial.lu_solve"


class _LUProxy:
    """SuperLU stand-in whose ``solve`` is traced; other attributes pass through."""

    __slots__ = ("_lu", "solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []
        self.installed = set()
        self.missing = set()
        self.hooks = {}  # span name -> callable(result) run after the call

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        hooks = self.hooks

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every layer's public functions, the step methods and splu."""
        import scipy.sparse.linalg as spla

        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"stopsim.{layer}")
            except ImportError:
                self.missing.add(layer)
        namespaces = list(modules.values())
        namespaces.append(importlib.import_module("stopsim"))

        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, traced)
                self.installed.add(name)

        for (layer, cls_name, method), name in METHODS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            if cls is None or not inspect.isfunction(cls.__dict__.get(method)):
                self.missing.add(name)
                continue
            self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
            self.installed.add(name)

        factorize = self.wrap(FACTORIZE, spla.splu)

        def splu(*args, **kwargs):
            lu = factorize(*args, **kwargs)
            return _LUProxy(lu, self.wrap(LU_SOLVE, lu.solve))

        self._patch(spla, "splu", splu)
        self.installed.update((FACTORIZE, LU_SOLVE))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self):
        """Index of the next span; spans from ``mark()`` on belong to one job."""
        return len(self.start)

    def arrays(self, lo):
        """Spans from index ``lo`` on, with parents re-based to the slice."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[lo:].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:].astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)[lo:].copy()
        end = np.frombuffer(self.end, dtype=np.float64)[lo:].copy()
        parent = np.where(parent >= lo, parent - lo, -1)
        return SpanSet(self.names, name_id, parent, start, end)

    def save(self, path, **meta):
        np.savez_compressed(path, names=np.asarray(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64),
                            meta=np.asarray(json.dumps(meta)))


class SpanSet:
    """Spans of one job with per-name totals, self times and counts."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.dur = end - start
        n = self.dur.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self.self_time = self.dur - child
        k = len(names)
        self._count = np.bincount(name_id, minlength=k)
        self._total = np.bincount(name_id, weights=self.dur, minlength=k)
        self._self = np.bincount(name_id, weights=self.self_time, minlength=k)

    def _nid(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def count(self, name):
        nid = self._nid(name)
        return 0 if nid is None else int(self._count[nid])

    def total(self, name):
        nid = self._nid(name)
        return 0.0 if nid is None else float(self._total[nid])

    def self_s(self, name):
        nid = self._nid(name)
        return 0.0 if nid is None else float(self._self[nid])

    def under(self, roots):
        """Per span, the index of its nearest ancestor (or itself) named in
        ``roots``, or -1."""
        root_ids = [self._nid(r) for r in roots]
        is_root = np.isin(self.name_id, [r for r in root_ids if r is not None])
        idx = np.arange(self.name_id.size)
        anc = np.where(is_root, idx, self.parent)
        while True:
            pending = (anc >= 0) & ~is_root[np.maximum(anc, 0)]
            if not pending.any():
                return np.where((anc >= 0) & is_root[np.maximum(anc, 0)], anc, -1)
            anc = np.where(pending, self.parent[np.maximum(anc, 0)], anc)

    def total_under(self, name, anc, root):
        """Total time of spans called ``name`` whose nearest root is named ``root``."""
        nid, rid = self._nid(name), self._nid(root)
        if nid is None or rid is None:
            return 0.0
        sel = (self.name_id == nid) & (anc >= 0)
        sel &= self.name_id[np.maximum(anc, 0)] == rid
        return float(self.dur[sel].sum())
