"""Spans around the library's public functions, installed from outside.

The tracer replaces each hooked function by a wrapper in its defining module
and in every ``plateau_lab`` module that bound it with a ``from`` import, so
calls through any name are seen.  Spans stay in memory until the run ends.
``grids`` is not hooked: its methods run ~10^5 times per pass and timing
them would distort the trace; their cost lands in the caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    job: int
    parent: int          # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _n(mesh) -> int:
    return int(mesh.n_simplices)


def _mesh_arg(a, k, key="mesh", pos=0):
    return k[key] if key in k else a[pos]


#: (span name, module, function, counts from (args, kwargs, result))
HOOKS = [
    ("geometry.distance", "plateau_lab.geometry.distance", "point_mesh_distance",
     lambda a, k, r: {"pairs": len(r) * _n(_mesh_arg(a, k, pos=1))}),
    ("geometry.sample", "plateau_lab.geometry.distance", "sample_mesh",
     lambda a, k, r: {"points": len(r)}),
    ("geometry.hausdorff", "plateau_lab.geometry.distance", "local_hausdorff_distance", None),
    ("geometry.clip", "plateau_lab.geometry.clipping", "clipped_measure",
     lambda a, k, r: {"simplices": _n(_mesh_arg(a, k))}),
    ("geometry.clip", "plateau_lab.geometry.clipping", "sphere_slice_measure",
     lambda a, k, r: {"simplices": _n(_mesh_arg(a, k))}),
    ("geometry.clip", "plateau_lab.geometry.clipping", "clip_to_ball",
     lambda a, k, r: {"simplices": _n(_mesh_arg(a, k))}),
    ("geometry.io", "plateau_lab.geometry.meshio", "read_mesh",
     lambda a, k, r: {"bytes": os.path.getsize(_mesh_arg(a, k, "path"))}),
    ("geometry.io", "plateau_lab.geometry.meshio", "atomic_write_text",
     lambda a, k, r: {"bytes": len(_mesh_arg(a, k, "text", 1).encode())}),
    ("geometry.io", "plateau_lab.geometry.meshio", "mesh_to_off", None),
    ("geometry.io", "plateau_lab.geometry.meshio", "dumps_json", None),
    ("projection.split", "plateau_lab.projection", "split_into_grid",
     lambda a, k, r: {"pieces": len(r[0])}),
    ("projection.center", "plateau_lab.projection", "choose_center", None),
    ("projection.map", "plateau_lab.projection", "project_to_skeleton",
     lambda a, k, r: {"faces": sum(len(st.faces) for st in r.stages)}),
    ("minimizer.init", "plateau_lab.minimizer", "initialize_from_mesh", None),
    ("minimizer.descent", "plateau_lab.minimizer", "minimize_faceset",
     lambda a, k, r: {"rounds": r.rounds}),
    ("minimizer.audit", "plateau_lab.minimizer", "quasiminimality_audit",
     lambda a, k, r: {"trials": r.trials}),
    ("minimizer.scheme", "plateau_lab.minimizer", "run_scheme", None),
    ("steiner.optimize", "plateau_lab.steiner", "optimize_steiner",
     lambda a, k, r: {"topologies": r.n_topologies}),
    ("steiner.enumerate", "plateau_lab.steiner", "enumerate_topologies", None),
    ("steiner.audit", "plateau_lab.steiner", "angle_audit", None),
    ("diagnostics.classify", "plateau_lab.diagnostics", "classify_point", None),
    ("diagnostics.cone_slice", "plateau_lab.diagnostics", "cone_slice_check", None),
    ("cones.build", "plateau_lab.cones", "build_cone", None),
    ("cones.build", "plateau_lab.cones", "halfplane_azimuth_cone", None),
    ("cones.build", "plateau_lab.cones", "v_cone_azimuths", None),
]

#: functions that only add a count to the innermost open span
COUNTERS = [
    ("moves", "plateau_lab.minimizer", "admissible_moves", lambda a, k, r: len(r)),
]


class Tracer:
    """Records nested spans; ``install`` hooks the library, ``remove`` undoes it.

    ``clock`` gives the span times; the default is ``time.perf_counter``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.job, parent, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result
        return traced

    def counter(self, key: str, fn, count):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._stack:
                c = self.spans[self._stack[-1]].counts
                c[key] = c.get(key, 0) + count(args, kwargs, result)
            return result
        return counted

    def _rebind(self, module: str, attr: str, make) -> None:
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("plateau_lab") \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, replacement)
                self._undo.append((mod, attr, original))

    def install(self) -> None:
        for name, module, attr, counts in HOOKS:
            self._rebind(module, attr, lambda f, n=name, c=counts: self.wrap(n, f, c))
        for key, module, attr, count in COUNTERS:
            self._rebind(module, attr, lambda f, k=key, c=count: self.counter(k, f, c))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so the children's union is
    their sum.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans: list) -> dict:
    """name -> {"self_s", "total_s", "calls", count keys...} over all spans."""
    own = self_times(spans)
    out: dict = {}
    for s, self_s in zip(spans, own):
        agg = out.setdefault(s.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        agg["self_s"] += self_s
        agg["total_s"] += s.end - s.start
        agg["calls"] += 1
        for key, val in s.counts.items():
            agg[key] = agg.get(key, 0) + val
    return out


def count_under(spans: list, name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    total = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        total += p >= 0
    return total
