"""Property-based and oracle tests for the geometric core.

The exact-clipping layer is the foundation everything else trusts, so it gets
the heaviest property coverage: partition identities, analytic disk areas,
and serialization round-trips.
"""
from __future__ import annotations

import builtins
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plateau_lab import cones, diagnostics, minimizer, projection
from plateau_lab.geometry.clipping import (CLIP_TOL, clip_to_ball, clipped_measure,
                                           segment_ball_intervals)
from plateau_lab.geometry.core import (
    Ball,
    EmbeddedMesh,
    measure,
    ordered_sum,
    refine,
    simplex_volumes,
)
from plateau_lab.geometry.distance import local_hausdorff_distance, point_mesh_distance
from plateau_lab.geometry.energy import circle_samples, douglas_energy
from plateau_lab.geometry import meshio
from plateau_lab.grids import CubeFace, DyadicGrid

from conftest import segment_mesh, square_patch, torus, wiggle_mesh, write_mesh
from test_clip_kernel import polygon_disk_area, triangle_disk_area

# ─────────────────────────── Strategies ───────────────────────────

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)

points2 = arrays(np.float64, (2,), elements=finite)
points3 = arrays(np.float64, (3,), elements=finite)

radii = st.floats(0.05, 3.0)


@st.composite
def triangles3(draw):
    v = draw(arrays(np.float64, (3, 3), elements=finite))
    # reject slivers: the clipping code accepts them but the oracle areas
    # lose relative precision
    e1, e2 = v[1] - v[0], v[2] - v[0]
    assume(np.linalg.norm(np.cross(e1, e2)) > 1e-3)
    return v


@st.composite
def soup_corners(draw, k, n):
    """(S, k, n) corners drawn from a pool of a few points plus the origin
    written with 0.0 and with -0.0, so rows repeat exactly or by sign only."""
    pool = draw(arrays(np.float64, (draw(st.integers(1, 4)), n),
                       elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1])))
    pool = np.vstack([pool, np.zeros((1, n)), np.full((1, n), -0.0)])
    rows = draw(arrays(np.int64, (draw(st.integers(1, 8)), k),
                       elements=st.integers(0, len(pool) - 1)))
    return pool[rows]


@st.composite
def balls3(draw):
    return Ball(draw(points3), draw(radii))


# ─────────────────────────── Measures ───────────────────────────


class TestMeasure:
    """H^d of simple meshes against closed-form values."""

    def test_unit_right_triangle(self):
        m = EmbeddedMesh(2, np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])[np.array([[0, 1, 2]])])
        assert measure(m) == pytest.approx(0.5, abs=1e-15)

    def test_square_patch_area(self):
        assert measure(square_patch(side=2.0)) == pytest.approx(4.0, abs=1e-12)

    def test_polyline_length(self):
        m = segment_mesh([(0, 0), (3, 0), (3, 4)])
        assert measure(m) == pytest.approx(7.0, abs=1e-12)

    def test_mass_weights_multiplicity(self):
        m = segment_mesh([(0, 0), (1, 0), (2, 0)], multiplicities=[1, 3])
        assert measure(m) == pytest.approx(2.0)
        assert float(np.abs(m.multiplicities) @ simplex_volumes(m)) == pytest.approx(4.0)

    @given(triangles3())
    @settings(max_examples=100)
    def test_simplex_volume_matches_cross_product(self, tri):
        m = EmbeddedMesh(2, tri[np.array([[0, 1, 2]])])
        expect = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
        assert simplex_volumes(m)[0] == pytest.approx(expect, rel=1e-12)

    def test_refine_preserves_measure(self):
        m = square_patch()
        fine = refine(m, 0.05)
        assert measure(fine) == pytest.approx(measure(m), rel=1e-12)
        assert len(fine.corners) > len(m.corners)


def neumaier_sum(values, start=0):
    """The built-in ``sum`` of Python 3.12 on: floats compensated, ints exact."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total, comp = float(start), 0.0
    for x in map(float, values):
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def test_ordered_sum_adds_left_to_right():
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0 and neumaier_sum([1e16, 1.0, -1e16]) == 1.0
    assert ordered_sum(np.array([0.1] * 10)) == 0.9999999999999999
    assert ordered_sum([]) == 0.0


def _trend_spread():
    t = cones.build_cone("t", extent=1.5)
    return [diagnostics.density_profile(t, np.zeros(3), [0.25, 0.5, 0.75, 1.0])["spread"]]


def _center_image_measure():
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    content = np.random.default_rng(0).uniform(0.05, 0.45, size=(12, 3, 3))
    [(_, info)] = projection.choose_center(grid, content,
                                           [(CubeFace(grid.full_mask, (0, 0, 0)), np.arange(12))],
                                           "chebyshev", 16, [np.random.default_rng(0)])
    return [info["image_measure"]]


def _ladder_means():
    res = minimizer.run_scheme(wiggle_mesh(n=8), torus(3, 2), [2, 4], audit_trials=8)
    return [gap["mean"] for row in res.distances for gap in row["gaps"]]


@pytest.mark.parametrize("module, totals", [(diagnostics, _trend_spread),
                                            (projection, _center_image_measure),
                                            (minimizer, _ladder_means)],
                         ids=["density-spread", "center-image-measure", "ladder-mean"])
def test_reported_totals_do_not_depend_on_the_builtin_sum(monkeypatch, module, totals):
    """A compensating ``sum`` (Python 3.12 and later) leaves every bit of the
    density spread, the chebyshev center's image measure and the ladder's
    mean gaps as they are."""
    plain = [x.hex() for x in totals()]
    monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
    assert [x.hex() for x in totals()] == plain


# ─────────────────────────── Exact clipping ───────────────────────────


class TestClipping:
    """clip_to_ball computes H^d(E ∩ B) exactly, not by sampling."""

    def test_plane_clip_is_disk_area(self):
        # large flat patch, ball well inside: the clip is a full disk
        m = square_patch(side=10.0)
        ball = Ball(np.array([5.0, 5.0, 0.0]), 1.25)
        assert clipped_measure(m, ball) == pytest.approx(math.pi * 1.25**2, rel=1e-12)

    def test_offset_plane_clip_is_smaller_disk(self):
        # ball center off the plane by h: radius of the slice is sqrt(r^2-h^2)
        m = square_patch(side=10.0)
        ball = Ball(np.array([5.0, 5.0, 0.6]), 1.0)
        assert clipped_measure(m, ball) == pytest.approx(math.pi * 0.64, rel=1e-12)

    @given(triangles3(), balls3())
    @settings(max_examples=150, deadline=None)
    def test_inside_outside_partition(self, tri, ball):
        m = EmbeddedMesh(2, tri[np.array([[0, 1, 2]])])
        inside = clipped_measure(m, ball)
        outside = measure(m) - inside
        assert inside >= -1e-12 and outside >= -1e-12

    @given(triangles3(), balls3())
    @settings(max_examples=100, deadline=None)
    def test_clip_mesh_agrees_with_scalar_measure(self, tri, ball):
        # clip_to_ball inscribes a polygon in the circular boundary that
        # misses at most CLIP_TOL of the disk, so it may undercount the
        # triangle's clip by that much of the ball's great disk, never overshoot
        m = EmbeddedMesh(2, tri[np.array([[0, 1, 2]])])
        exact = clipped_measure(m, ball)
        approx = measure(clip_to_ball(m, ball))
        assert -1e-9 <= exact - approx <= CLIP_TOL * math.pi * ball.radius**2 + 1e-9

    @given(balls3())
    @settings(max_examples=100)
    def test_segment_interval_against_quadratic(self, ball):
        a = np.array([-5.0, 0.2, -0.1])
        b = np.array([7.0, 0.2, -0.1])
        ok, lo, hi = segment_ball_intervals(a[None], b[None], ball.center, ball.radius)
        if not ok[0]:
            # every sampled point must then be outside the ball
            ts = np.linspace(0.0, 1.0, 101)
            pts = a + ts[:, None] * (b - a)
            assert (np.linalg.norm(pts - ball.center, axis=1)
                    >= ball.radius - 1e-9).all()
            return
        lo, hi = float(lo[0]), float(hi[0])
        # the interval solves |a + t(b-a) - c|^2 = r^2; check cut endpoints
        for t in (lo, hi):
            if 0.0 < t < 1.0:
                p = a + t * (b - a)
                assert np.linalg.norm(p - ball.center) == pytest.approx(
                    ball.radius, rel=1e-9)
        assert 0.0 <= lo <= hi <= 1.0

    def test_triangle_disk_area_against_polygon_formula(self):
        tri2 = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        tri3 = np.hstack([tri2, np.zeros((3, 1))])
        a = triangle_disk_area(tri3, Ball(np.zeros(3), 1.0))
        b = polygon_disk_area(tri2, 1.0)
        assert a == pytest.approx(b, rel=1e-12)
        # quarter disk at the right-angle corner plus nothing else
        assert a == pytest.approx(math.pi / 4, rel=1e-12)


# ─────────────────────────── Douglas energy ───────────────────────────


class TestDouglasEnergy:
    def test_unit_circle_value(self):
        # analytic value for the standard circle parametrization
        e = douglas_energy(circle_samples(256))
        assert e == pytest.approx(16 * math.pi**2, rel=2e-6)

    def test_scales_quadratically(self):
        e1 = douglas_energy(circle_samples(128))
        e2 = douglas_energy(circle_samples(128, radius=2.0))
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    @given(st.floats(0.0, 2 * math.pi), points2)
    @settings(max_examples=50)
    def test_rigid_motion_invariance(self, theta, shift):
        s = circle_samples(64)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = s @ rot.T + shift
        assert douglas_energy(moved) == pytest.approx(
            douglas_energy(s), rel=1e-9, abs=1e-9)

    def test_ellipse_exceeds_circle(self):
        # the circle minimizes among loops with the same parametrization speed
        # pattern scaled; an eccentric ellipse of equal area costs more
        s = circle_samples(128)
        ell = s * np.array([1.6, 1 / 1.6])
        assert douglas_energy(ell) > douglas_energy(s)


# ─────────────────────────── Distances ───────────────────────────


class TestDistances:
    def test_point_mesh_distance_to_segment(self):
        m = segment_mesh([(0.0, 0.0), (1.0, 0.0)])
        assert point_mesh_distance(np.array([0.5, 0.7]), m) == pytest.approx(0.7)
        assert point_mesh_distance(np.array([2.0, 0.0]), m) == pytest.approx(1.0)

    def test_local_hausdorff_zero_on_identical(self):
        m = square_patch(side=3.0)
        ball = Ball(np.array([1.5, 1.5, 0.0]), 1.0)
        assert local_hausdorff_distance(m, m, ball) == pytest.approx(0.0, abs=1e-9)

    def test_local_hausdorff_detects_offset(self):
        a = square_patch(side=3.0)
        shifted = EmbeddedMesh(2, a.corners + np.array([0.0, 0.0, 0.12]), a.multiplicities)
        ball = Ball(np.array([1.5, 1.5, 0.0]), 1.0)
        # sum of both one-sided sups, each normalized by the ball radius
        d = local_hausdorff_distance(a, shifted, ball)
        assert d == pytest.approx(0.24, rel=0.05)


# ─────────────────────────── Serialization ───────────────────────────


class TestMeshIO:
    def test_off_round_trip(self, tmp_path):
        m = square_patch(side=1.5)
        text = meshio.mesh_to_off(m)
        back = meshio.mesh_from_off(text)
        assert np.array_equal(back.corners, m.corners)
        assert measure(back) == pytest.approx(measure(m), rel=1e-12)

    def test_obj_round_trip(self):
        m = square_patch()
        back = meshio.mesh_from_obj(meshio.mesh_to_obj(m))
        assert np.array_equal(back.corners, m.corners)

    def test_segment_csv_round_trip(self):
        # the CSV format stores bare segment coordinates; multiplicities
        # are not part of it and come back as 1
        m = segment_mesh([(0, 0, 0), (1, 0, 0), (1, 2, 0)], multiplicities=[1, 2])
        back = meshio.mesh_from_segment_csv(meshio.mesh_to_segment_csv(m))
        assert measure(back) == pytest.approx(3.0)
        assert back.multiplicities.tolist() == [1, 1]

    @given(st.data(), st.sampled_from(["off", "obj"]))
    @settings(max_examples=60, deadline=None)
    def test_triangle_writers_round_trip_the_corner_bytes(self, data, fmt):
        """Corners drawn from a small pool with 0.0 beside -0.0 and exact
        duplicates: the file holds one vertex per distinct corner bytes and
        reads back the same corner bytes."""
        corners = data.draw(soup_corners(3, 3))
        text = getattr(meshio, f"mesh_to_{fmt}")(EmbeddedMesh(2, corners, allow_degenerate=True))
        back = getattr(meshio, f"mesh_from_{fmt}")(text)
        assert back.corners.tobytes() == corners.tobytes()
        lines = text.splitlines()
        written = (int(lines[1].split()[0]) if fmt == "off"
                   else sum(line.startswith("v ") for line in lines))
        assert written == len({row.tobytes() for row in corners.reshape(-1, 3)})

    @given(st.data(), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_segment_csv_round_trips_the_corner_bytes(self, data, n):
        corners = data.draw(soup_corners(2, n))
        back = meshio.mesh_from_segment_csv(
            meshio.mesh_to_segment_csv(EmbeddedMesh(1, corners, allow_degenerate=True)))
        assert back.corners.tobytes() == corners.tobytes()

    def test_an_empty_mesh_writes_an_empty_off(self):
        assert meshio.mesh_to_off(EmbeddedMesh(2, np.zeros((0, 3, 3)))) == "OFF\n0 0 0\n"
        assert meshio.mesh_from_off("OFF\n0 0 0\n").n_simplices == 0

    def test_write_read_by_extension(self, tmp_path):
        m = square_patch()
        path = tmp_path / "patch.off"
        write_mesh(str(path), m)
        back = meshio.read_mesh(str(path))
        assert measure(back) == pytest.approx(1.0)

    def test_json_dumps_is_canonical(self):
        a = meshio.dumps_json({"b": 1.0, "a": [0.1, float(np.float64(0.2))]})
        b = meshio.dumps_json({"a": [0.1, 0.2], "b": 1})
        # key order never depends on insertion order
        assert a.index('"a"') < a.index('"b"')
        assert meshio.dumps_json({"x": 0.1}) == meshio.dumps_json({"x": 0.1})

    def test_gauge_from_dict(self):
        g2 = meshio.gauge_from_dict({"scale": 0.3, "exponent": 0.5, "cutoff": 2.0})
        assert (g2.scale, g2.exponent, g2.cutoff) == (0.3, 0.5, 2.0)
