"""Outside-in tracing: spans recorded around calls into ``dpcp``'s layers.

Nothing inside the program is edited.  The traced process wraps the model
and the adapter in timing proxies, wraps every propagator that
``build`` returns, and rebinds ``Registry.register``, ``heappush`` /
``heappop`` and ``propagate_once`` / ``propagate_fixpoint`` in
``dpcp.search``.  Spans (name, start, end, parent) are kept in flat arrays
in memory and written out when the pass ends; self times come from them.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()  # outcome counters taken at the same boundaries
        self.registry_peak = 0  # largest Registry.size since the last reset
        self.prop_calls = 0

    def timed(self, name, fn):
        """``fn`` wrapped so that each call records one span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def self_times(self):
        """``{name: (calls, self seconds)}``: each span's duration minus the
        part of it covered by its direct children."""
        n = len(self.name_id)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        selfs = Counter()
        names = self.names
        for i, nid in enumerate(self.name_id):
            calls[names[nid]] += 1
            selfs[names[nid]] += ends[i] - starts[i] - child[i]
        return {name: (calls[name], selfs[name]) for name in calls}

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.name_id),
            "arrays": {"name_id": "H", "parent": "l", "start": "d", "end": "d"},
        }
        (directory / "spans.json").write_text(json.dumps(header) + "\n")
        for field in header["arrays"]:
            with open(directory / f"spans.{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)


class _Proxy:
    """Forwards every attribute not replaced by a timed wrapper.

    Public attributes are copied up front so that untimed calls cost the
    search no more than they do unwrapped.
    """

    def __init__(self, target):
        self._target = target
        for name in dir(target):
            if not name.startswith("_"):
                setattr(self, name, getattr(target, name))

    def __getattr__(self, name):
        return getattr(self._target, name)


class ModelProxy(_Proxy):
    def __init__(self, model, tracer: Tracer):
        super().__init__(model)
        for method in ("successors", "dual", "dominates"):
            setattr(self, method, tracer.timed(f"model.{method}", getattr(model, method)))


class PropagatorProxy:
    """A propagator with a timed ``propagate``; built per ``build`` call, so
    it copies nothing up front."""

    __slots__ = ("_target", "propagate")

    def __init__(self, prop, propagate):
        self._target = prop
        self.propagate = propagate

    def __getattr__(self, name):
        return getattr(self._target, name)


class AdapterProxy(_Proxy):
    def __init__(self, adapter, tracer: Tracer):
        super().__init__(adapter)
        self._tracer = tracer
        self._timed_build = tracer.timed("adapter.build", adapter.build)
        self._timed_succ = tracer.timed("adapter.is_succ_infeasible", adapter.is_succ_infeasible)
        self._by_class = {}
        self.build = self._build
        self.dual_cp = tracer.timed("adapter.dual_cp", adapter.dual_cp)
        self.is_succ_infeasible = self._is_succ_infeasible

    def _wrap(self, prop):
        cls = type(prop)
        timed = self._by_class.get(cls)
        if timed is None:
            timed = self._by_class[cls] = self._tracer.timed(f"cp.{cls.__name__}", cls.propagate)
        tracer = self._tracer

        def propagate(store, *args, **kwargs):
            tracer.prop_calls += 1
            return timed(prop, store, *args, **kwargs)

        return PropagatorProxy(prop, propagate)

    def _build(self, *args, **kwargs):
        store, props = self._timed_build(*args, **kwargs)
        return store, [self._wrap(p) for p in props]

    def _is_succ_infeasible(self, *args, **kwargs):
        vetoed = self._timed_succ(*args, **kwargs)
        self._tracer.counts["succ_checked"] += 1
        if vetoed:
            self._tracer.counts["succ_vetoed"] += 1
        return vetoed


def install(search, tracer: Tracer):
    """Rebind the search module's hooks for the rest of this process."""
    counts = tracer.counts
    registry = getattr(search, "Registry", None)
    if registry is not None and hasattr(registry, "register"):
        timed_register = tracer.timed("search.registry", registry.register)

        def register(reg, *args, **kwargs):
            admitted = timed_register(reg, *args, **kwargs)
            counts["registry_offered"] += 1
            if admitted:
                counts["registry_admitted"] += 1
            size = getattr(reg, "size", 0)
            if size > tracer.registry_peak:
                tracer.registry_peak = size
            return admitted

        registry.register = register
    for name in ("heappush", "heappop"):
        if hasattr(search, name):
            setattr(search, name, tracer.timed("search.open", getattr(search, name)))
    for name, fixpoint in (("propagate_once", False), ("propagate_fixpoint", True)):
        if not hasattr(search, name):
            continue
        timed_driver = tracer.timed("cp.propagate", getattr(search, name))

        def driver(store, props, *args, _timed=timed_driver, _fixpoint=fixpoint, **kwargs):
            before = tracer.prop_calls
            out = _timed(store, props, *args, **kwargs)
            if getattr(store, "revision", 0) > 0:
                counts["cp_tightened"] += 1
            if getattr(store, "infeasible", False):
                counts["cp_infeasible"] += 1
            if _fixpoint and props:
                counts["fixpoint_calls"] += 1
                counts["fixpoint_passes"] += -(-(tracer.prop_calls - before) // len(props))
            return out

        setattr(search, name, driver)
