"""Clipping meshes against balls.

Two tiers live here.  The measure tier (``clipped_measure``,
``sphere_slice_measure``) evaluates the exact d-volume of mesh-inside-ball
and the exact (d-1)-volume of mesh-on-sphere using closed-form circular
geometry (a Green's-theorem edge walk per triangle), so densities and slice
ratios carry no polygonalization error.  The mesh tier (``clip_to_ball``)
returns the part of a mesh inside a ball as an actual mesh and replaces the
curved boundary by an inscribed regular polygon sized from a relative area
tolerance.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .core import Ball, EmbeddedMesh, _corner_diameters, simplex_volumes

DEFAULT_CLIP_TOL = 1e-4


# ---------------------------------------------------------------------------
# segment primitives (exact)
# ---------------------------------------------------------------------------

def _sphere_roots(a: np.ndarray, b: np.ndarray, center: np.ndarray, radius: float):
    """(q0, roots) of |a + t(b-a) - center|^2 = radius^2 with q0 = |a - center|^2
    - radius^2; roots (t0 <= t1) is None for a point segment or a miss."""
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


def segment_ball_interval(a: np.ndarray, b: np.ndarray, center: np.ndarray,
                          radius: float) -> Optional[tuple[float, float]]:
    """Parameter interval [t0, t1] of {a + t(b-a)} inside the closed ball, or None."""
    q0, roots = _sphere_roots(a, b, center, radius)
    if roots is None:
        # a miss has q0 > 0, so only a point segment inside the ball is kept
        return (0.0, 1.0) if q0 <= 0.0 else None
    lo, hi = max(roots[0], 0.0), min(roots[1], 1.0)
    if lo >= hi:
        return None
    return (lo, hi)


def segment_sphere_params(a: np.ndarray, b: np.ndarray, center: np.ndarray,
                          radius: float) -> list[float]:
    """Parameters t in [0,1] where the segment meets the sphere |x-c| = r."""
    _, roots = _sphere_roots(a, b, center, radius)
    if roots is None:
        return []
    out = [min(max(t, 0.0), 1.0) for t in roots if -1e-12 <= t <= 1.0 + 1e-12]
    if len(out) == 2 and abs(out[0] - out[1]) < 1e-15:
        out = out[:1]
    return out


# ---------------------------------------------------------------------------
# planar circle geometry (exact)
# ---------------------------------------------------------------------------

def _edge_circle_area_term(p: np.ndarray, q: np.ndarray, rho: float) -> float:
    """Green's-theorem contribution of edge p->q to area(polygon cap disk(0, rho)).

    Chord pieces inside the disk contribute cross(u, v)/2; excursions outside
    are replaced by the arc, contributing rho^2/2 * angle(u, v).
    """
    pts = [p]
    interval = segment_ball_interval(p, q, np.zeros(2), rho)
    if interval is not None:
        t0, t1 = interval
        for t in (t0, t1):
            if 1e-14 < t < 1.0 - 1e-14:
                pts.append(p + t * (q - p))
        # keep parameter order
        pts = [p] + sorted(pts[1:], key=lambda z: float((z - p) @ (q - p)))
    pts.append(q)
    total = 0.0
    for u, v in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (u + v)
        cross = float(u[0] * v[1] - u[1] * v[0])
        # strictly-inside test: a tangent piece (midpoint exactly on the
        # circle) must take the arc branch, a true chord is strictly inside
        if float(mid @ mid) < rho * rho:
            total += 0.5 * cross
        else:
            dot = float(u @ v)
            total += 0.5 * rho * rho * math.atan2(cross, dot)
    return total


def polygon_disk_area(poly: np.ndarray, rho: float) -> float:
    """Exact area of (simple polygon) cap disk(0, rho); sign follows orientation."""
    poly = np.asarray(poly, dtype=float)
    m = poly.shape[0]
    total = 0.0
    for i in range(m):
        total += _edge_circle_area_term(poly[i], poly[(i + 1) % m], rho)
    return total


def _point_in_convex(poly: np.ndarray, orient: float, pt: np.ndarray) -> bool:
    m = poly.shape[0]
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        cr = (q[0] - p[0]) * (pt[1] - p[1]) - (q[1] - p[1]) * (pt[0] - p[0])
        if cr * orient < 0:
            return False
    return True


def circle_arcs_in_convex(poly: np.ndarray, rho: float) -> float:
    """Exact length of circle(0, rho) inside a convex polygon."""
    poly = np.asarray(poly, dtype=float)
    m = poly.shape[0]
    area2 = 0.0
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        area2 += p[0] * q[1] - p[1] * q[0]
    orient = 1.0 if area2 >= 0 else -1.0
    angles: list[float] = []
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


# ---------------------------------------------------------------------------
# triangle/plane frames
# ---------------------------------------------------------------------------

def _triangle_frame(corners: np.ndarray, ball: Ball):
    """In-plane data for triangle-vs-ball: (2d corners rel. circle center, rho,
    lift origin, basis u, basis v) or None when the plane misses the ball."""
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


def _origin_triangle_distance(t2d: np.ndarray) -> float:
    """Distance from the origin to a closed 2D triangle."""
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
            sign = math.nan   # origin is outside: edge distances decide
    if not math.isnan(sign):
        return 0.0            # origin on the inner side of every edge
    return best


def triangle_disk_area(corners: np.ndarray, ball: Ball) -> float:
    """Exact area of a triangle intersected with a ball (in the triangle plane)."""
    frame = _triangle_frame(corners, ball)
    if frame is None:
        return 0.0
    t2d, rho, _, _, _ = frame
    # a triangle that provably misses the disk contributes exactly 0.0; the
    # signed edge-term sum below would instead leave float dust of ~1e-17
    if _origin_triangle_distance(t2d) >= rho:
        return 0.0
    return abs(polygon_disk_area(t2d, rho))


def triangle_sphere_arclength(corners: np.ndarray, ball: Ball) -> float:
    """Exact length of (triangle) cap (sphere boundary of the ball)."""
    frame = _triangle_frame(corners, ball)
    if frame is None:
        return 0.0
    t2d, rho, _, _, _ = frame
    if _origin_triangle_distance(t2d) >= rho:
        return 0.0
    return circle_arcs_in_convex(t2d, rho)


# ---------------------------------------------------------------------------
# measure tier
# ---------------------------------------------------------------------------

def _corner_distance_band(corners: np.ndarray, ball: Ball):
    """Vectorized near/far split: indices surely inside, surely outside, unsure.

    A simplex whose vertices all lie in the closed ball is inside (the ball is
    convex); one whose nearest vertex is more than a diameter beyond the
    radius cannot reach the ball.  Everything else stays on the exact path.
    """
    dist = np.linalg.norm(corners - ball.center, axis=2)
    dmin, dmax = dist.min(axis=1), dist.max(axis=1)
    diam = _corner_diameters(corners, corners.shape[1] - 1)
    surely_in = dmax <= ball.radius
    surely_out = dmin - diam >= ball.radius
    return surely_in, surely_out, dmax


def clipped_measure(mesh: EmbeddedMesh, ball: Ball, inside: bool = True) -> float:
    """Exact H^d of the part of the mesh inside (or outside) the closed ball."""
    if ball.ambient_dim != mesh.ambient_dim:
        raise ValueError("ball and mesh ambient dimensions differ")
    corners = mesh.simplex_corners()
    vols = simplex_volumes(mesh)
    if mesh.n_simplices == 0:
        return 0.0
    surely_in, surely_out, _ = _corner_distance_band(corners, ball)
    total_in = float(np.sum(vols[surely_in]))
    for i in np.nonzero(~surely_in & ~surely_out)[0]:
        if vols[i] == 0.0:
            continue
        if mesh.dimension == 1:
            interval = segment_ball_interval(corners[i, 0], corners[i, 1],
                                             ball.center, ball.radius)
            if interval is not None:
                total_in += (interval[1] - interval[0]) * float(vols[i])
        else:
            total_in += triangle_disk_area(corners[i], ball)
    if inside:
        return total_in
    return float(np.sum(vols)) - total_in


def sphere_slice_measure(mesh: EmbeddedMesh, ball: Ball) -> float:
    """Exact H^{d-1} of mesh cap sphere: arc length for d=2, point count for d=1."""
    if ball.ambient_dim != mesh.ambient_dim:
        raise ValueError("ball and mesh ambient dimensions differ")
    corners = mesh.simplex_corners()
    if mesh.n_simplices == 0:
        return 0.0
    surely_in, surely_out, dmax = _corner_distance_band(corners, ball)
    # strictly interior simplices never touch the sphere itself
    crossers = np.nonzero(~(surely_in & (dmax < ball.radius)) & ~surely_out)[0]
    if mesh.dimension == 2:
        total = 0.0
        for i in crossers:
            total += triangle_sphere_arclength(corners[i], ball)
        return total
    pts: list[np.ndarray] = []
    for i in crossers:
        a, b = corners[i, 0], corners[i, 1]
        for t in segment_sphere_params(a, b, ball.center, ball.radius):
            pts.append(a + t * (b - a))
    if not pts:
        return 0.0
    return float(_greedy_point_count(np.array(pts), ball.center, 1e-12 * ball.radius))


def _greedy_point_count(points: np.ndarray, center: np.ndarray, tol: float) -> int:
    """Points kept by a greedy pass that drops a point within ``tol`` of a kept one.

    Kept points go into cells of side 2 tol around ``center``.  Two points
    within ``tol`` are at most half a cell apart on each axis, and while
    every cell index stays below 2^40 rounding adds far less than another
    half, so their cells are neighbours; otherwise all points share one
    cell.  Either way each point meets every kept point that could drop it,
    in the same order, so the count is the plain greedy's.
    """
    with np.errstate(all="ignore"):
        index = np.floor((points - center) / (2.0 * tol))
    if np.all(np.abs(index) < 2.0 ** 40):
        # one integer per cell: 42-bit digits of the shifted indices
        digits = [1 << (42 * i) for i in range(points.shape[1])]
        keys = (index.astype(np.int64) + 2 ** 40).tolist()
        keys = [sum(k * d for k, d in zip(row, digits)) for row in keys]
        around = [sum(o * d for o, d in zip(offset, digits))
                  for offset in itertools.product((-1, 0, 1), repeat=len(digits))]
    else:
        keys, around = [0] * len(points), [0]
    cells: dict[int, list] = {}
    for p, key in zip(points, keys):
        for step in around:
            near = cells.get(key + step)
            if near and any(np.linalg.norm(p - k) <= tol for k in near):
                break
        else:
            cells.setdefault(key, []).append(p)
    return sum(map(len, cells.values()))


# ---------------------------------------------------------------------------
# mesh tier
# ---------------------------------------------------------------------------

def polygon_sides_for_tolerance(tol: float) -> int:
    """Sides of an inscribed regular polygon whose relative area deficit <= tol."""
    if not (0 < tol < 1):
        raise ValueError("clip tolerance must be in (0, 1)")
    return max(8, int(math.ceil(math.pi * math.sqrt(2.0 / (3.0 * tol)))))


def _halfplane_clip(poly: list[np.ndarray], a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Clip a convex polygon to the left of the oriented line through a->b."""
    if not poly:
        return []
    d = b - a
    out: list[np.ndarray] = []
    m = len(poly)
    side = [d[0] * (p[1] - a[1]) - d[1] * (p[0] - a[0]) for p in poly]
    for i in range(m):
        p, sp = poly[i], side[i]
        q, sq = poly[(i + 1) % m], side[(i + 1) % m]
        if sp >= 0.0:
            out.append(p)
        if (sp > 0.0 and sq < 0.0) or (sp < 0.0 and sq > 0.0):
            t = sp / (sp - sq)
            out.append(p + t * (q - p))
    return out if len(out) >= 3 else []


def _fan_triangulate(poly: list[np.ndarray]) -> list[np.ndarray]:
    tris = []
    for i in range(1, len(poly) - 1):
        tris.append(np.array([poly[0], poly[i], poly[i + 1]]))
    return tris


def clip_to_ball(mesh: EmbeddedMesh, ball: Ball,
                 tol: float = DEFAULT_CLIP_TOL) -> EmbeddedMesh:
    """Mesh of the part of ``mesh`` inside the ball.

    d=1 output is exact.  For d=2 the circular boundary is replaced by an
    inscribed regular polygon sized so the relative area deficit is <= tol.
    Triangles entirely inside the closed disk are kept whole (there a cut
    could only trade exactness for approximation), so the output may
    undercount the ball clip by at most tol relative but never overcounts it.
    """
    if ball.ambient_dim != mesh.ambient_dim:
        raise ValueError("ball and mesh ambient dimensions differ")
    corners = mesh.simplex_corners()
    n = mesh.ambient_dim
    chunks: list[np.ndarray] = []
    mults: list[int] = []

    if mesh.dimension == 1:
        for i in range(mesh.n_simplices):
            a, b = corners[i, 0], corners[i, 1]
            interval = segment_ball_interval(a, b, ball.center, ball.radius)
            if interval is None or interval[1] - interval[0] <= 1e-14:
                continue
            lo, hi = interval
            pa = a if lo == 0.0 else a + lo * (b - a)
            pb = b if hi == 1.0 else a + hi * (b - a)
            chunks.append(np.array([pa, pb]))
            mults.append(int(mesh.multiplicities[i]))
        if not chunks:
            return EmbeddedMesh.empty(1, n)
        return EmbeddedMesh.from_simplex_list(1, chunks, mults)

    m_sides = polygon_sides_for_tolerance(tol)
    angles = 2.0 * math.pi * np.arange(m_sides) / m_sides
    unit_poly = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    for i in range(mesh.n_simplices):
        tri = corners[i]
        mult = int(mesh.multiplicities[i])
        frame = _triangle_frame(tri, ball)
        if frame is None:
            continue
        t2d, rho, origin, u, v = frame
        dists = np.linalg.norm(t2d, axis=1)
        # fully inside the closed disk: keep whole (cutting such a triangle
        # against the polygon could only replace exactness by approximation)
        if np.all(dists <= rho):
            chunks.append(tri)
            mults.append(mult)
            continue
        # fully outside the circle (hence the polygon)
        if _point_triangle_distance_2d(np.zeros(2), t2d) >= rho:
            continue
        poly_pts = rho * unit_poly
        current = [t2d[0], t2d[1], t2d[2]]
        for k in range(m_sides):
            a2, b2 = poly_pts[k], poly_pts[(k + 1) % m_sides]
            d2 = b2 - a2
            # cut depth below float noise: a near-tangent cut would place its
            # intersection vertices from nearly-degenerate crossings, folding
            # micro-bowties into the running polygon that the unsigned fan
            # then double-counts (an *over*shoot); skipping it keeps the piece
            # within the true disk, since the polygon sagitta dwarfs the skip
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
        return EmbeddedMesh.empty(2, n)
    return EmbeddedMesh.from_simplex_list(2, chunks, mults, allow_degenerate=True)


def _point_triangle_distance_2d(pt: np.ndarray, tri: np.ndarray) -> float:
    """Distance from a 2D point to a (possibly degenerate) 2D triangle."""
    best = math.inf
    inside = True
    sign = 0.0
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        e = b - a
        w = pt - a
        cr = e[0] * w[1] - e[1] * w[0]
        if sign == 0.0 and abs(cr) > 0:
            sign = math.copysign(1.0, cr)
        elif cr * sign < 0:
            inside = False
        ee = float(e @ e)
        t = 0.0 if ee == 0.0 else min(max(float(w @ e) / ee, 0.0), 1.0)
        best = min(best, float(np.linalg.norm(w - t * e)))
    return 0.0 if inside and sign != 0.0 else best
