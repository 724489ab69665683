"""Every library function the bench traces still exists, and the work it
times still runs through it.

``bench/spans.py`` wraps functions by (module, name) and records a missing
one only in the trace report, so a refactor that renames or deletes a hooked
function would silently drop its span, and one that moves work out from
under a hooked name leaves its span timing less.  This test reads ``bench/``
and changes nothing there.
"""
from __future__ import annotations

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from plateau_lab import cones
from plateau_lab import diagnostics as diag
from plateau_lab import minimizer as mz
from plateau_lab import projection as proj
from plateau_lab.geometry import distance
from plateau_lab.geometry.core import LineBoundary

from conftest import graph_mesh, torus
from test_projection import seeded_blob

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,attr", sorted({(m, a) for _, m, a, _ in spans.HOOKS + spans.COUNTERS}))
def test_hooked_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_the_ladder_runs_through_the_hooked_names(monkeypatch):
    """The ``geometry.hausdorff`` and ``geometry.sample`` spans time the
    minimizer's Hausdorff ladder only while ``run_scheme`` reaches its gaps
    and their samples through these two module attributes.  Each gap is one
    call, and each of its two sides samples inside it."""
    hooked = {(m, a): name for name, m, a, _ in spans.HOOKS}
    calls, depth = [], [0]

    def counted(attr, fn):
        def call(*args, **kwargs):
            calls.append((attr, depth[0]))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    for attr, span in (("local_hausdorff_distance", "geometry.hausdorff"),
                       ("sample_mesh", "geometry.sample")):
        assert hooked[("plateau_lab.geometry.distance", attr)] == span
        monkeypatch.setattr(distance, attr, counted(attr, getattr(distance, attr)))
    monkeypatch.setattr(mz, "LADDER_CENTERS", 3)
    surface = graph_mesh(lambda x, y: 0.45 + 0.15 * math.sin(2 * math.pi * x)
                         * math.sin(2 * math.pi * (y + 0.3)), n=8)
    mz.run_scheme(surface, torus(3, 1), [4, 8], audit_trials=20, seed=0)
    assert calls.count(("local_hausdorff_distance", 0)) == 3 * len(mz.LADDER_RADII)
    assert calls.count(("sample_mesh", 1)) == 2 * 3 * len(mz.LADDER_RADII)
    assert len(calls) == 3 * 3 * len(mz.LADDER_RADII)


def test_the_center_search_runs_through_the_hooked_name(monkeypatch):
    """``projection.center`` times the whole center search only while both
    strategies and ``extra_collapse`` reach the distance kernel inside
    ``choose_center``, which runs once per stage; and a stage's kernel calls
    do not grow with its face count: one clearance test for chebyshev, the
    coarse grid and the samples it keeps for far."""
    hooked = {(m, a): name for name, m, a, _ in spans.HOOKS}
    assert hooked[("plateau_lab.projection", "choose_center")] == "projection.center"
    depth, stages = [0], []

    def center(*args, **kwargs):
        stages.append({"faces": len(args[2]), "calls": 0})
        depth[0] += 1
        try:
            return search(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted(fn):
        def call(*args, **kwargs):
            assert depth[0] == 1
            stages[-1]["calls"] += 1
            return fn(*args, **kwargs)
        return call

    search = proj.choose_center
    monkeypatch.setattr(proj, "choose_center", center)
    monkeypatch.setattr(proj, "stacked_points_to_simplices",
                        counted(proj.stacked_points_to_simplices))
    monkeypatch.setattr(distance, "_points_to_simplex", counted(distance._points_to_simplex))
    grid = torus(3, 4)
    for strategy, calls in (("chebyshev", {1}), ("far", {1, 2})):
        faces = []
        for n_tri in (2, 24):
            stages.clear()
            proj.project_to_skeleton(seeded_blob(3, n_tri), grid, strategy=strategy, trials=8)
            assert len(stages) == 1 and stages[0]["calls"] in calls
            faces.append(stages[0]["faces"])
        assert faces[1] >= 4 * faces[0]
    specks = proj.project_to_skeleton(seeded_blob(4, 6, 0.3, 0.31), grid, strategy="far")
    stages.clear()
    assert proj.extra_collapse(specks, grid).collapse_applied
    assert len(stages) == 1 and stages[0]["faces"] and stages[0]["calls"] in {1, 2}


def test_the_classifier_builds_its_cones_through_the_hooked_names(monkeypatch):
    """``cones.build.calls`` counts the cones a classify pass builds only while
    every cone a fit measures comes from a call of one of these three module
    attributes: one cone per interior fit, one per boundary residual."""
    spine = diag.SlidingContext(LineBoundary(np.zeros(3), np.array([0.0, 0.0, 1.0])),
                                np.array([1.0, 0.0, 0.0]))
    fits = [(cones.build_cone("y", extent=1.5), {"rotations": 4}, "y"),
            (cones.halfplane_azimuth_cone(2.5, extent=1.5), {"context": spine}, "halfplane"),
            (cones.v_cone_azimuths(1.1, 3.4, extent=1.5), {"context": spine}, "v")]
    hooked = {(m, a): name for name, m, a, _ in spans.HOOKS}
    built = []

    def counted(attr, fn):
        def call(*args, **kwargs):
            built.append((attr, fn(*args, **kwargs)))
            return built[-1][1]
        return call

    for attr in ("build_cone", "halfplane_azimuth_cone", "v_cone_azimuths"):
        assert hooked[("plateau_lab.cones", attr)] == "cones.build"
        monkeypatch.setattr(cones, attr, counted(attr, getattr(cones, attr)))
    measured = []
    one_sided = diag._one_sided
    monkeypatch.setattr(diag, "_one_sided", lambda points, cone, *args:
                        measured.append(cone) or one_sided(points, cone, *args))
    for mesh, kwargs, name in fits:
        report = diag.classify_point(mesh, np.zeros(3), 1.0, depth=0.2, **kwargs)
        assert report["best"]["name"] == name
    assert [attr for attr, _ in built].count("build_cone") == 1
    assert {attr for attr, _ in built} == {"build_cone", "halfplane_azimuth_cone",
                                           "v_cone_azimuths"}
    assert {id(cone) for _, cone in built} == {id(cone) for cone in measured}
