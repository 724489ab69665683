"""Catalog cones: exact densities at the apex and slice identities.

Density oracles, all analytic:
  plane      pi                   (full disk)
  halfplane  pi/2
  v          pi                   (two half-disks, any opening)
  y          3*pi/2               (three half-disks)
  t          3*arccos(-1/3)       (six flat wedges, each a sector of the
                                   tetrahedral angle, which is arccos(-1/3))
  line 2, v1 2, y1 3              (counting unit rays)
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from plateau_lab import cones
from plateau_lab.diagnostics import blowup, cone_slice_check, density
from plateau_lab.geometry.core import Ball, EmbeddedMesh, measure
from plateau_lab.geometry.distance import points_to_simplices, sample_mesh


ANALYTIC = {
    "plane": math.pi,
    "halfplane": math.pi / 2,
    "v": math.pi,
    "y": 3 * math.pi / 2,
    "t": 3 * math.acos(-1.0 / 3.0),
    "line": 2.0,
    "v1": 2.0,
    "y1": 3.0,
}


def test_density_table_matches_analytic_formulas():
    for name, value in ANALYTIC.items():
        assert cones.CONE_DENSITY[name] == pytest.approx(value, abs=1e-12), name


def test_measured_apex_densities_are_exact():
    # every catalog cone is piecewise flat, so the ball clip is exact
    for name in cones.catalog(boundary=True):
        mesh = cones.build_cone(name, extent=1.5)
        got = density(mesh, np.zeros(3), 1.0)
        assert got == pytest.approx(ANALYTIC[name], abs=1e-9), name


@pytest.mark.parametrize("radius", [0.2, 0.5, 0.8, 1.3])
def test_apex_density_is_scale_invariant(radius):
    y = cones.build_cone("y", extent=1.5)
    assert density(y, np.zeros(3), radius) == pytest.approx(3 * math.pi / 2, abs=1e-9)


def test_v_opening_angle_does_not_change_density():
    for phi in (2 * math.pi / 3, 0.8 * math.pi, math.pi):
        v = cones.v_cone_azimuths(0.0, phi, extent=1.5)
        assert density(v, np.zeros(3), 1.0) == pytest.approx(math.pi, abs=1e-9)


def test_build_cone_dispatch_matches_direct_constructors():
    a = cones.build_cone("v", extent=1.2)
    b = cones.v_cone_azimuths(0.0, math.pi / 2, extent=1.2)
    assert same_mesh(a, b)
    assert measure(a) == pytest.approx(2 * (1.2 * 2.4), rel=1e-12)   # two R x 2R sheets
    assert a.dimension == 2 and cones.CONE_DIMENSION["v"] == 2


def same_mesh(a, b) -> bool:
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("corners", "multiplicities"))


def explicit_rays(angles, extent, ambient):
    o = np.zeros(ambient)
    ends = [np.pad([math.cos(a), math.sin(a)], (0, ambient - 2)) for a in angles]
    return EmbeddedMesh(1, [[o, extent * u] for u in ends])


def explicit_sheets(phis, extent):
    R = extent
    tris = []
    for phi in phis:
        c, s = R * math.cos(phi), R * math.sin(phi)
        tris += [[[0.0, 0.0, -R], [c, s, -R], [c, s, R]], [[0.0, 0.0, -R], [c, s, R], [0.0, 0.0, R]]]
    return EmbeddedMesh(2, tris)


@pytest.mark.parametrize("extent", [0.3, 1.0, 1.5, 2.0 ** 0.5])
@pytest.mark.parametrize("ambient", range(2, 7))
def test_family_cones_are_their_rays_and_sheets(extent, ambient):
    """v1 and y1 are rays at a right angle and at thirds of a turn, v and y
    half-planes at those azimuths, bit for bit."""
    thirds = [2.0 * math.pi * k / 3.0 for k in range(3)]
    assert same_mesh(cones.build_cone("v1", extent, ambient),
                     explicit_rays([0.0, math.pi / 2], extent, ambient))
    assert same_mesh(cones.build_cone("y1", extent, ambient),
                     explicit_rays(thirds, extent, ambient))
    assert same_mesh(cones.build_cone("v", extent, ambient),
                     explicit_sheets([0.0, math.pi / 2], extent))
    assert same_mesh(cones.build_cone("y", extent, ambient), explicit_sheets(thirds, extent))
    assert same_mesh(cones.halfplane_azimuth_cone(1.1, extent), explicit_sheets([1.1], extent))


def _form_cases():
    for name in cones.catalog(dimension=1):
        for ambient in (2, 3):
            yield f"{name}-R{ambient}", partial(cones.build_cone, name, ambient=ambient)
    for name in cones.catalog(dimension=2, boundary=True):
        yield name, partial(cones.build_cone, name)
    for phi in (0.0, 1.1, 2.5, -math.pi / 3, math.pi):
        yield f"halfplane-at-{phi:.3f}", partial(cones.halfplane_azimuth_cone, phi)
    for phis in ((0.0, 1.9), (1.1, 3.4), (0.4, 0.4 + math.pi), (5.0, 0.3), (2.0, 2.0)):
        yield f"v-at-{phis[0]:.3f}-{phis[1]:.3f}", partial(cones.v_cone_azimuths, *phis)


FORM_CASES = dict(_form_cases())


def probe_points(cone, seed: int) -> np.ndarray:
    """Points in the ball of radius 3 * extent, on the cone and 1e-6 * extent
    off it, at the apex, and on every edge of every simplex, which holds the
    rays and the hinges of the cone."""
    rng = np.random.default_rng(seed)
    n, R = cone.ambient_dim, cone.extent
    ball = rng.normal(size=(6000, n))
    ball *= (3.0 * R * rng.uniform(0.0, 1.0, 6000) / np.linalg.norm(ball, axis=1))[:, None]
    on = sample_mesh(cone, R / 16.0, Ball(np.zeros(n), R))
    near = on + rng.normal(scale=1e-6 * R, size=on.shape)
    c = cone.corners
    s = np.linspace(0.0, 1.0, 33)[:, None]
    edges = [a + s * (b - a) for simplex in c for i, a in enumerate(simplex) for b in simplex[i + 1:]]
    return np.concatenate([ball, on, near, np.zeros((1, n)), *edges])


@pytest.mark.parametrize("extent", [0.45, 1.02, 3.0e4])
@pytest.mark.parametrize("case", sorted(FORM_CASES))
def test_closed_form_is_the_triangle_kernel(case, extent):
    """Within the extent the closed form is the distance to the mesh, within
    4 ulp of the largest coordinate (the classifier's margin is 1e-9 of it);
    beyond, the mesh is truncated and the form is at most the distance."""
    cone = FORM_CASES[case](extent=extent)
    assert cone.extent == extent
    points = probe_points(cone, 0)
    got, want = cone.distance(points), points_to_simplices(points, cone.corners)
    inside = np.linalg.norm(points, axis=1) <= extent
    tol = 4.0 * np.spacing(np.abs(points).max())
    assert inside.sum() > 1000 and (~inside).sum() > 1000
    assert np.abs(got - want)[inside].max() <= tol
    assert (got - want)[~inside].max() <= tol


def test_closed_form_runs_in_blocks(monkeypatch):
    """A block boundary changes no value, and no block exceeds ``FORM_ROWS``."""
    cone = cones.build_cone("y", extent=1.02)
    points = probe_points(cone, 1)
    want = cone.form(points)
    monkeypatch.setattr(cones, "FORM_ROWS", 1000)
    rows = []
    blocked = cones.Cone(2, cone.corners, extent=cone.extent,
                         form=lambda block: rows.append(len(block)) or cone.form(block))
    assert blocked.distance(points).tobytes() == want.tobytes()
    assert max(rows) == 1000 and sum(rows) == len(points)
    assert blocked.distance(points[:0]).shape == (0,)


def test_catalog_filters():
    assert set(cones.catalog(dimension=1)) == {"line", "v1", "y1"}
    assert "halfplane" not in cones.catalog()
    assert set(cones.BOUNDARY_CONES) <= set(cones.catalog(boundary=True))


@pytest.mark.parametrize("name", ["plane", "y", "t"])
def test_slice_identity_on_generators(name):
    mesh = cones.build_cone(name, extent=1.5)
    rep = cone_slice_check(mesh, np.zeros(3), 1.0, tol=1e-6)
    assert rep["ok"]
    assert rep["residual"] <= 1e-9
    # ball measure = (r/d) * slice measure for a cone with apex at the center
    assert rep["ball_measure"] == pytest.approx(rep["cone_value"], rel=1e-9)


def test_slice_identity_fails_off_center():
    # recentering breaks the cone structure, the identity must notice
    y = cones.build_cone("y", extent=2.5)
    rep = cone_slice_check(y, np.array([0.3, 0.1, 0.2]), 1.0, tol=1e-6)
    assert rep["residual"] > 1e-3
    assert not rep["ok"]


def test_blowup_of_a_cone_is_measure_preserving():
    # rescaling a cone about its apex reproduces the same density; skip the
    # unit-ball clip so the comparison stays exact
    t = cones.t_cone(extent=1.5)
    for r in (0.5, 0.25):
        zoomed = blowup(t, np.zeros(3), r, clip=False)
        assert density(zoomed, np.zeros(3), 1.0) == pytest.approx(
            ANALYTIC["t"], abs=1e-9)


def test_blowup_straightens_a_smooth_point():
    # zooming into a gentle graph surface approaches the tangent plane density
    from conftest import graph_mesh
    surf = graph_mesh(lambda x, y: 0.05 * math.sin(2 * math.pi * x) * math.sin(2 * math.pi * y),
                      n=48)
    x = np.array([0.5, 0.5, 0.0])   # a saddle of the height function
    vals = [density(blowup(surf, x, r, clip=False), np.zeros(3), 1.0)
            for r in (0.3, 0.15, 0.075)]
    errors = [abs(v - math.pi) for v in vals]
    assert errors[-1] < errors[0]
    assert errors[-1] < 0.05
