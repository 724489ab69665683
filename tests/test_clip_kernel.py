"""Oracle tests for the clipping layer: the stacked measure tier and the
point dedupe.

The measure tier runs over stacked arrays.  The per-triangle functions it
replaced are kept below as its oracles: ``_triangle_frame`` (one
``np.linalg.qr`` per triangle), ``triangle_disk_area`` / ``polygon_disk_area``
(the Green's-theorem edge walk) and ``triangle_sphere_arclength`` /
``circle_arcs_in_convex`` (the arc walk), with the per-crosser loops of
``clipped_measure``, ``sphere_slice_measure`` and ``clip_to_ball`` over them.
The stacked code must return their floats bit for bit, summed in the same
order.

``sphere_slice_measure`` counts the points where a segment mesh meets a
sphere, keeping a point only if no kept point lies within ``1e-12 * radius``.
The quadratic greedy below is the definition; the cell-bucketed
``_greedy_point_count`` must return its count on every input.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plateau_lab.cones import build_cone
from plateau_lab.geometry.clipping import (_arc_lengths, _corner_distance_band, _disk_areas,
                                           _fan_triangulate, _frames, _greedy_point_count,
                                           _halfplane_clip, _near_triangles,
                                           _point_triangle_distance_2d, clip_to_ball,
                                           CLIP_SIDES, CLIP_TOL, clipped_measure,
                                           segment_ball_intervals, sphere_slice_measure)
from plateau_lab.geometry.core import Ball, EmbeddedMesh, refine, simplex_volumes

from conftest import rotated
from test_distance_kernel import kernel_triangles


# ── scalar oracles: one segment, edge or triangle at a time ──

def oracle_sphere_roots(a, b, center, radius):
    d = b - a
    f = a - center
    q2 = float(d @ d)
    q1 = 2.0 * float(d @ f)
    q0 = float(f @ f) - radius * radius
    if q2 <= 0.0:
        return q0, None
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        return q0, None
    s = math.sqrt(disc)
    return q0, ((-q1 - s) / (2.0 * q2), (-q1 + s) / (2.0 * q2))


def oracle_segment_ball_interval(a, b, center, radius):
    q0, roots = oracle_sphere_roots(a, b, center, radius)
    if roots is None:
        return (0.0, 1.0) if q0 <= 0.0 else None
    lo, hi = max(roots[0], 0.0), min(roots[1], 1.0)
    if lo >= hi:
        return None
    return (lo, hi)


def segment_sphere_params(a, b, center, radius):
    _, roots = oracle_sphere_roots(a, b, center, radius)
    if roots is None:
        return []
    out = [min(max(t, 0.0), 1.0) for t in roots if -1e-12 <= t <= 1.0 + 1e-12]
    if len(out) == 2 and abs(out[0] - out[1]) < 1e-15:
        out = out[:1]
    return out


def _edge_circle_area_term(p, q, rho):
    pts = [p]
    interval = oracle_segment_ball_interval(p, q, np.zeros(2), rho)
    if interval is not None:
        t0, t1 = interval
        for t in (t0, t1):
            if 1e-14 < t < 1.0 - 1e-14:
                pts.append(p + t * (q - p))
        pts = [p] + sorted(pts[1:], key=lambda z: float((z - p) @ (q - p)))
    pts.append(q)
    total = 0.0
    for u, v in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (u + v)
        cross = float(u[0] * v[1] - u[1] * v[0])
        if float(mid @ mid) < rho * rho:
            total += 0.5 * cross
        else:
            dot = float(u @ v)
            total += 0.5 * rho * rho * math.atan2(cross, dot)
    return total


def polygon_disk_area(poly, rho):
    """Exact area of (simple polygon) cap disk(0, rho); sign follows orientation."""
    poly = np.asarray(poly, dtype=float)
    m = poly.shape[0]
    total = 0.0
    for i in range(m):
        total += _edge_circle_area_term(poly[i], poly[(i + 1) % m], rho)
    return total


def _point_in_convex(poly, orient, pt):
    m = poly.shape[0]
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        cr = (q[0] - p[0]) * (pt[1] - p[1]) - (q[1] - p[1]) * (pt[0] - p[0])
        if cr * orient < 0:
            return False
    return True


def circle_arcs_in_convex(poly, rho):
    """Exact length of circle(0, rho) inside a convex polygon."""
    poly = np.asarray(poly, dtype=float)
    m = poly.shape[0]
    area2 = 0.0
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        area2 += p[0] * q[1] - p[1] * q[0]
    orient = 1.0 if area2 >= 0 else -1.0
    angles = []
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        for t in segment_sphere_params(p, q, np.zeros(2), rho):
            z = p + t * (q - p)
            angles.append(math.atan2(z[1], z[0]))
    if not angles:
        probe = np.array([rho, 0.0])
        return 2.0 * math.pi * rho if _point_in_convex(poly, orient, probe) else 0.0
    angles = sorted(set(angles))
    total = 0.0
    k = len(angles)
    for i in range(k):
        a0 = angles[i]
        a1 = angles[(i + 1) % k] + (2.0 * math.pi if i == k - 1 else 0.0)
        span = a1 - a0
        if span <= 1e-15:
            continue
        mid = a0 + 0.5 * span
        probe = rho * np.array([math.cos(mid), math.sin(mid)])
        if _point_in_convex(poly, orient, probe):
            total += span * rho
    return total


def _triangle_frame(corners, ball):
    """(2d corners rel. circle center, rho, lift origin, u, v) or None when the
    plane misses the ball."""
    p0 = corners[0]
    e1 = corners[1] - p0
    e2 = corners[2] - p0
    q, _ = np.linalg.qr(np.stack([e1, e2], axis=1))
    u, v = q[:, 0], q[:, 1]
    w = ball.center - p0
    cu, cv = float(w @ u), float(w @ v)
    h2 = float(w @ w) - cu * cu - cv * cv
    rho2 = ball.radius * ball.radius - h2
    if rho2 <= 0.0:
        return None
    rho = math.sqrt(rho2)
    proj_center = p0 + cu * u + cv * v
    t2d = np.array([[float((c - ball.center) @ u), float((c - ball.center) @ v)]
                    for c in corners])
    return t2d, rho, proj_center, u, v


def _origin_triangle_distance(t2d):
    best = math.inf
    sign = 0.0
    for i in range(3):
        p = t2d[i]
        q = t2d[(i + 1) % 3]
        e = q - p
        ee = float(e @ e)
        t = 0.0 if ee <= 0.0 else min(1.0, max(0.0, float(-(p @ e)) / ee))
        z = p + t * e
        best = min(best, math.hypot(float(z[0]), float(z[1])))
        cr = p[0] * q[1] - p[1] * q[0]
        if sign == 0.0:
            sign = cr
        elif cr * sign < 0.0:
            sign = math.nan
    if not math.isnan(sign):
        return 0.0
    return best


def near_frame(corners, ball):
    """The oracle frame of a triangle the walks visit, else None."""
    frame = _triangle_frame(corners, ball)
    if frame is None or _origin_triangle_distance(frame[0]) >= frame[1]:
        return None
    return frame


def triangle_disk_area(corners, ball):
    """Exact area of a triangle intersected with a ball (in the triangle plane)."""
    frame = near_frame(corners, ball)
    return 0.0 if frame is None else abs(polygon_disk_area(frame[0], frame[1]))


def triangle_sphere_arclength(corners, ball):
    """Exact length of (triangle) cap (sphere boundary of the ball)."""
    frame = near_frame(corners, ball)
    return 0.0 if frame is None else circle_arcs_in_convex(frame[0], frame[1])


def oracle_clipped_measure(mesh, ball):
    corners = mesh.corners
    vols = simplex_volumes(mesh)
    if mesh.n_simplices == 0:
        return 0.0
    surely_in, surely_out, _ = _corner_distance_band(corners, ball)
    total_in = float(np.sum(vols[surely_in]))
    for i in np.nonzero(~surely_in & ~surely_out)[0]:
        if vols[i] == 0.0:
            continue
        if mesh.dimension == 1:
            interval = oracle_segment_ball_interval(corners[i, 0], corners[i, 1],
                                                    ball.center, ball.radius)
            if interval is not None:
                total_in += (interval[1] - interval[0]) * float(vols[i])
        else:
            total_in += triangle_disk_area(corners[i], ball)
    return total_in


def oracle_sphere_slice_measure(mesh, ball):
    corners = mesh.corners
    if mesh.n_simplices == 0:
        return 0.0
    surely_in, surely_out, dmax = _corner_distance_band(corners, ball)
    crossers = np.nonzero(~(surely_in & (dmax < ball.radius)) & ~surely_out)[0]
    if mesh.dimension == 2:
        total = 0.0
        for i in crossers:
            total += triangle_sphere_arclength(corners[i], ball)
        return total
    pts = []
    for i in crossers:
        a, b = corners[i, 0], corners[i, 1]
        for t in segment_sphere_params(a, b, ball.center, ball.radius):
            pts.append(a + t * (b - a))
    if not pts:
        return 0.0
    return float(_greedy_point_count(np.array(pts), ball.center, 1e-12 * ball.radius))


def oracle_clip_to_ball(mesh, ball):
    corners = mesh.corners
    n = mesh.ambient_dim
    chunks, mults = [], []
    if mesh.dimension == 1:
        for i in range(mesh.n_simplices):
            a, b = corners[i, 0], corners[i, 1]
            interval = oracle_segment_ball_interval(a, b, ball.center, ball.radius)
            if interval is None or interval[1] - interval[0] <= 1e-14:
                continue
            lo, hi = interval
            pa = a if lo == 0.0 else a + lo * (b - a)
            pb = b if hi == 1.0 else a + hi * (b - a)
            chunks.append(np.array([pa, pb]))
            mults.append(int(mesh.multiplicities[i]))
        if not chunks:
            return EmbeddedMesh(1, np.zeros((0, 2, n)))
        return EmbeddedMesh(1, chunks, mults, allow_degenerate=True)
    m_sides = CLIP_SIDES
    angles = 2.0 * math.pi * np.arange(m_sides) / m_sides
    unit_poly = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for i in range(mesh.n_simplices):
        tri = corners[i]
        mult = int(mesh.multiplicities[i])
        frame = _triangle_frame(tri, ball)
        if frame is None:
            continue
        t2d, rho, origin, u, v = frame
        if np.all(np.linalg.norm(t2d, axis=1) <= rho):
            chunks.append(tri)
            mults.append(mult)
            continue
        if _point_triangle_distance_2d(np.zeros(2), t2d) >= rho:
            continue
        poly_pts = rho * unit_poly
        current = [t2d[0], t2d[1], t2d[2]]
        for k in range(m_sides):
            a2, b2 = poly_pts[k], poly_pts[(k + 1) % m_sides]
            d2 = b2 - a2
            noise = 1e-12 * rho * float(np.hypot(d2[0], d2[1]))
            sides = [d2[0] * (p[1] - a2[1]) - d2[1] * (p[0] - a2[0]) for p in current]
            if all(s >= -noise for s in sides):
                continue
            current = _halfplane_clip(current, a2, b2)
            if not current:
                break
        for t in _fan_triangulate(current):
            chunks.append(origin + t[:, :1] * u + t[:, 1:2] * v)
            mults.append(mult)
    if not chunks:
        return EmbeddedMesh(2, np.zeros((0, 3, n)))
    return EmbeddedMesh(2, chunks, mults, allow_degenerate=True)


def test_clip_sides_are_the_fewest_within_the_tolerance():
    """An inscribed regular m-gon misses 1 - m sin(2 pi / m) / (2 pi) of its
    disk's area: at most CLIP_TOL for the mesh tier's 257 sides, more for 256."""
    deficit = [1.0 - m * math.sin(2.0 * math.pi / m) / (2.0 * math.pi)
               for m in (CLIP_SIDES - 1, CLIP_SIDES)]
    assert CLIP_SIDES == 257 and deficit[1] <= CLIP_TOL < deficit[0]


# ── comparisons ──

def assert_stacked_matches(corners, ball):
    """Frames, visited triangles, disk areas and arc lengths of a stack of
    triangles against the per-triangle oracles, bit for bit."""
    t2d, rho2, origin, u, v = _frames(corners, ball)
    frames = [_triangle_frame(c, ball) for c in corners]
    hit = [f is not None for f in frames]
    assert (~(rho2 <= 0.0)).tolist() == hit
    for i, f in enumerate(frames):
        if f is not None:
            assert t2d[i].tobytes() == f[0].tobytes()
            assert math.sqrt(rho2[i]).hex() == f[1].hex()
            for got, want in zip((origin[i], u[i], v[i]), f[2:]):
                assert got.tobytes() == want.tobytes()
    near = [i for i, c in enumerate(corners) if near_frame(c, ball) is not None]
    p, q, d, cross, rho = _near_triangles(corners, ball)
    assert p.tobytes() == np.array([frames[i][0] for i in near]).reshape(-1, 3, 2).tobytes()
    assert rho.tobytes() == np.array([frames[i][1] for i in near]).tobytes()
    assert ([x.hex() for x in _disk_areas(p, q, d, rho).tolist()]
            == [triangle_disk_area(corners[i], ball).hex() for i in near])
    assert ([x.hex() for x in _arc_lengths(p, q, d, cross, rho)]
            == [triangle_sphere_arclength(corners[i], ball).hex() for i in near])


def assert_measures_match(mesh, ball, clip=True):
    assert clipped_measure(mesh, ball).hex() == oracle_clipped_measure(mesh, ball).hex()
    assert sphere_slice_measure(mesh, ball).hex() == oracle_sphere_slice_measure(mesh, ball).hex()
    if clip:
        assert clip_outcome(clip_to_ball, mesh, ball) == clip_outcome(oracle_clip_to_ball, mesh, ball)


def clip_outcome(clip, mesh, ball):
    """The clipped mesh's arrays as bytes."""
    out = clip(mesh, ball)
    return [getattr(out, f).tobytes() for f in ("corners", "multiplicities")]


coords = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 6), data=st.data(),
       radius=st.one_of(st.floats(0.05, 3.0), st.sampled_from([0.5, 1.0])))
def test_stacked_frames_and_walks_match_the_scalar_oracles(n, data, radius):
    """Coordinates partly on a coarse grid, so that vertices and edges land
    on the circle and planes touch the sphere."""
    corners = data.draw(arrays(np.float64, (data.draw(st.integers(1, 12)), 3, n), elements=coords))
    ball = Ball(data.draw(arrays(np.float64, (n,), elements=coords)), radius)
    assert_stacked_matches(corners, ball)
    mesh = EmbeddedMesh(2, corners.reshape(-1, n)[np.arange(corners.shape[0] * 3).reshape(-1, 3)],
                        allow_degenerate=True)
    assert_measures_match(mesh, ball, clip=corners.shape[0] <= 4)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degenerate_triangles_match_the_oracles(n, seed):
    rng = np.random.default_rng([seed, n])
    tris = np.array([np.array(t) for t in kernel_triangles(n, rng).values()])
    for ball in (Ball(tris[0, 0], 0.3), Ball(tris[0, 0] + 0.1, 1.0), Ball(np.full(n, 0.5), 0.6),
                 Ball(tris[2, 1], 1e-9), Ball(rng.uniform(0.0, 1.0, n), 2.0)):
        assert_stacked_matches(tris, ball)
        assert_stacked_matches(tris[::-1].copy(), ball)


def touching_triangles(n):
    """Triangles meeting the unit circle of the plane x_2 = 0 (rows beyond
    the third coordinate zero): at one vertex, along a tangent edge, along
    a diameter, and with their plane tangent to the unit sphere."""
    tris = np.array([
        [[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, -1.0, 0.0]],     # vertex on the circle, outside
        [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, -0.5, 0.0]],     # vertex on the circle, inside
        [[-1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 2.0, 0.0]],     # tangent edge, outside
        [[-1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],     # tangent edge, inside
        [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],     # a diameter, apex on the circle
        [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -3.0, 0.0]],    # a diameter, apex outside
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],      # plane tangent to the sphere
        [[-1.0, -1.0, 1.0], [2.0, -1.0, 1.0], [-1.0, 2.0, 1.0]],
        [[0.6, 0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 0.0]],      # two vertices within rounding of it
    ])
    return np.concatenate([tris, np.zeros(tris.shape[:2] + (n - 3,))], axis=2)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("scale", [1.0, 2.0 ** -20, 3.0])
def test_touching_triangles_match_the_oracles(n, scale):
    tris = scale * touching_triangles(n)
    ball = Ball(np.zeros(n), scale)
    assert_stacked_matches(tris, ball)
    rho2 = _frames(tris, ball)[1]
    assert rho2[6] == 0.0     # the tangent plane reaches rho^2 = 0 exactly
    mesh = EmbeddedMesh(2, tris.reshape(-1, n)[np.arange(tris.shape[0] * 3).reshape(-1, 3)])
    assert_measures_match(mesh, ball)


@pytest.mark.parametrize("n", [3, 5])
def test_vertices_within_rounding_of_the_circle(n):
    """Corners at (cos, sin) of random angles lie an ulp or so off the unit
    circle, so edge roots fall a hair inside or outside [0, 1]."""
    rng = np.random.default_rng(n)
    angles = rng.uniform(0.0, 2.0 * math.pi, (300, 2))
    tris = np.zeros((300, 3, n))
    tris[:, :2, 0], tris[:, :2, 1] = np.cos(angles), np.sin(angles)
    tris[:, 2, :2] = rng.uniform(-1.5, 1.5, (300, 2))
    tris[100:200, 2, :2] = tris[100:200, 1, :2] * (1.0 + rng.uniform(-1e-15, 1e-15, (100, 1)))
    tris[200:, 1] = tris[200:, 0] + 1e-13 * rng.normal(size=(100, n)) * (np.arange(n) < 2)
    for ball in (Ball(np.zeros(n), 1.0), Ball(np.eye(n)[2] * 0.6, 1.0 / 0.8)):
        assert_stacked_matches(tris, ball)
    mesh = EmbeddedMesh(2, tris.reshape(-1, n)[np.arange(900).reshape(-1, 3)], allow_degenerate=True)
    assert_measures_match(mesh, Ball(np.zeros(n), 1.0), clip=False)


def cone_meshes():
    rot = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    return {
        "t": refine(build_cone("t", extent=1.1), 0.2),
        "t-coarse": build_cone("t", extent=1.5),
        "y": refine(build_cone("y", extent=1.3), 0.3),
        "y-turned": rotated(refine(build_cone("y", extent=1.3), 0.3), rot),
        "plane": refine(build_cone("plane", extent=1.2), 0.25),
    }


@pytest.mark.parametrize("name", sorted(cone_meshes()))
def test_whole_meshes_sum_in_the_oracle_order(name):
    """Thousands of crossers per call, so a change of summation order shows."""
    mesh = cone_meshes()[name]
    for center, radius in ((np.zeros(3), 1.0), (np.array([0.1, -0.2, 0.05]), 0.7),
                           (np.array([0.3, 0.3, 0.3]), 0.45)):
        ball = Ball(center, radius)
        assert_measures_match(mesh, ball, clip=name in ("t-coarse", "y"))


def segment_meshes(n, rng):
    segs = rng.uniform(-1.5, 1.5, (60, 2, n))
    segs[:5, 1] = segs[:5, 0]                            # point segments
    segs[5:10] = np.sign(segs[5:10]) * 0.5               # corners of a cube
    segs[10:15, :, 0] = 1.0                              # along the plane x_0 = 1
    radial = rng.normal(size=(10, n))
    radial /= np.linalg.norm(radial, axis=1)[:, None]
    segs[15:25] = np.stack([0.5 * radial, 2.0 * radial], axis=1)
    return EmbeddedMesh(1, segs.reshape(-1, n)[np.arange(120).reshape(-1, 2)], allow_degenerate=True)


@pytest.mark.parametrize("n", range(2, 7))
def test_segment_meshes_match_the_oracles(n):
    rng = np.random.default_rng(n)
    mesh = segment_meshes(n, rng)
    corners = mesh.corners
    for ball in (Ball(np.zeros(n), 1.0), Ball(np.full(n, 0.5), 0.5), Ball(rng.normal(size=n), 0.8),
                 Ball(np.eye(n)[0], 1.0)):
        assert_measures_match(mesh, ball)
        hit, lo, hi = segment_ball_intervals(corners[:, 0], corners[:, 1], ball.center, ball.radius)
        for (a, b), k, l, h in zip(corners, hit.tolist(), lo.tolist(), hi.tolist()):
            assert ((l, h) if k else None) == oracle_segment_ball_interval(a, b, ball.center,
                                                                           ball.radius)


def greedy_oracle(points, tol):
    kept = []
    for p in points:
        if not any(np.linalg.norm(p - k) <= tol for k in kept):
            kept.append(p)
    return len(kept)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
       log_tol=st.floats(-14.0, 0.0), spread=st.sampled_from([0.5, 1.0, 1.5, 3.0]))
def test_cells_keep_the_greedy_count(seed, dim, log_tol, spread):
    """Clusters a few tol wide, so that pairs straddle cell boundaries."""
    rng = np.random.default_rng(seed)
    tol = 10.0 ** log_tol
    centers = rng.normal(size=(rng.integers(1, 6), dim)) * rng.choice([tol, 1.0])
    pts = centers[rng.integers(0, len(centers), 40)]
    pts = pts + rng.uniform(-spread, spread, size=pts.shape) * tol
    center = rng.normal(size=dim)
    assert _greedy_point_count(pts, center, tol) == greedy_oracle(pts, tol)


@pytest.mark.parametrize("tol", [1e-12, 5e-324, 0.0])
def test_huge_or_degenerate_cells_fall_back_to_one_cell(tol):
    pts = np.array([[1e300, 0.0], [1e300, 0.0], [-1e300, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with np.errstate(over="ignore"):     # the squared gap of +-1e300 overflows to inf
        assert _greedy_point_count(pts, np.zeros(2), tol) == greedy_oracle(pts, tol) == 3


def test_points_exactly_tol_apart_along_a_line():
    tol = 0.25
    pts = np.arange(40)[:, None] * np.array([[tol, 0.0, 0.0]]) - 2.6
    assert _greedy_point_count(pts, np.zeros(3), tol) == greedy_oracle(pts, tol)


def test_slice_dedupe_of_twenty_thousand_crossers_is_fast():
    """20,000 radial segments, each crossing the unit sphere once."""
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(20_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    mesh = EmbeddedMesh(1, list(np.stack([0.5 * dirs, 2.0 * dirs], axis=1)))
    start = time.perf_counter()
    count = sphere_slice_measure(mesh, Ball(np.zeros(3), 1.0))
    assert time.perf_counter() - start < 1.0
    assert count == 20_000.0


def test_shared_sphere_points_are_counted_once():
    """Segments meeting at a point on the sphere count it once."""
    star = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]])
    segs = [np.array([a, b]) for a in star for b in (np.zeros(3), 2.0 * a, a + 0.1)]
    mesh = EmbeddedMesh(1, segs)
    assert sphere_slice_measure(mesh, Ball(np.zeros(3), 1.0)) == 4.0
