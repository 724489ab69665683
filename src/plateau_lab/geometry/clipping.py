"""Clipping meshes against balls.

Two tiers live here.  The measure tier (``clipped_measure``,
``sphere_slice_measure``) evaluates the exact d-volume of mesh-inside-ball
and the exact (d-1)-volume of mesh-on-sphere using closed-form circular
geometry (a Green's-theorem edge walk per triangle), so densities and slice
ratios carry no polygonalization error.  The mesh tier (``clip_to_ball``)
returns the part of a mesh inside a ball as an actual mesh and replaces the
curved boundary by an inscribed regular polygon whose relative area deficit
is at most ``CLIP_TOL``.

The measure tier runs over stacked arrays: one pass builds the plane frames
of all candidate triangles, and the edge walks run over all of them at once.
Each value takes the float operations of a walk over one simplex, in the
same order: ``atan2`` and ``hypot`` come from ``math`` (numpy's round
differently), and sums run left to right (``core.ordered_sum``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (Ball, EmbeddedMesh, _corner_diameters, _corner_volumes, ordered_sum,
                   row_dots, stacked_dots)

#: relative area deficit of the mesh tier's inscribed polygon
CLIP_TOL = 1e-4

#: sides of that polygon: a regular m-gon inscribed in a circle misses
#: about (2 pi^2 / 3) / m^2 of the disk's area, so m = 257 at CLIP_TOL
CLIP_SIDES = math.ceil(math.pi * math.sqrt(2.0 / (3.0 * CLIP_TOL)))


# ---------------------------------------------------------------------------
# segment primitives (exact)
# ---------------------------------------------------------------------------

def _sphere_roots(a: np.ndarray, b: np.ndarray, center, radius):
    """Per segment a -> b (rows over the last axis): q0 = |a - center|^2 -
    radius^2, whether |a + t(b-a) - center|^2 = radius^2 has real roots (a
    point segment has none) and the roots t0 <= t1."""
    d = b - a
    f = a - center
    q2 = row_dots(d, d)
    q1 = 2.0 * row_dots(d, f)
    q0 = row_dots(f, f) - radius * radius
    with np.errstate(all="ignore"):
        disc = q1 * q1 - 4.0 * q2 * q0
        s = np.sqrt(disc)
        t0, t1 = (-q1 - s) / (2.0 * q2), (-q1 + s) / (2.0 * q2)
    return q0, ~(q2 <= 0.0) & ~(disc < 0.0), t0, t1


def segment_ball_intervals(a: np.ndarray, b: np.ndarray, center, radius):
    """Per segment a -> b (rows over the last axis): whether part of it lies
    in the closed ball, and that part's parameter interval [lo, hi]."""
    q0, real, t0, t1 = _sphere_roots(a, b, center, radius)
    lo = np.where(real & ~(0.0 > t0), t0, 0.0)
    hi = np.where(real & ~(1.0 < t1), t1, 1.0)
    # a miss has q0 > 0, so without roots only a point segment inside the ball is kept
    return np.where(real, ~(lo >= hi), q0 <= 0.0), lo, hi


def _sphere_params(a: np.ndarray, b: np.ndarray, center, radius):
    """Parameters (..., 2) in [0, 1] where segments a -> b meet the sphere,
    and which of them count: a root up to 1e-12 outside [0, 1] is clamped
    onto it, and a second root within 1e-15 of the first is dropped."""
    _, real, t0, t1 = _sphere_roots(a, b, center, radius)
    t = np.stack([t0, t1], axis=-1)
    keep = real[..., None] & (-1e-12 <= t) & (t <= 1.0 + 1e-12)
    t = np.where(0.0 > t, 0.0, t)
    t = np.where(1.0 < t, 1.0, t)
    keep[..., 1] &= ~(keep[..., 0] & (np.abs(t[..., 0] - t[..., 1]) < 1e-15))
    return t, keep


# ---------------------------------------------------------------------------
# triangle/plane frames, stacked
# ---------------------------------------------------------------------------

def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # unlike row_dots, keeps the operands' strides: a BLAS dot with a strided
    # QR column rounds apart from one with its contiguous copy in R^4 and up
    return stacked_dots(a, b)[..., 0, 0]


def _frames(corners: np.ndarray, ball: Ball):
    """Triangles (K, 3, n) in their planes: corners relative to the circle
    center (K, 3, 2), rho^2 of that circle (<= 0 where the plane misses the
    ball), the circle center and the in-plane basis u, v."""
    p0 = corners[:, 0]
    q = np.linalg.qr(np.swapaxes(corners[:, 1:] - p0[:, None], 1, 2))[0]
    u, v = q[..., 0], q[..., 1]
    w = ball.center - p0
    cu, cv = _dots(w, u), _dots(w, v)
    rho2 = ball.radius * ball.radius - (row_dots(w, w) - cu * cu - cv * cv)
    rel = corners - ball.center
    t2d = np.stack([_dots(rel, u[:, None]), _dots(rel, v[:, None])], axis=-1)
    return t2d, rho2, p0 + cu[:, None] * u + cv[:, None] * v, u, v


def _origin_distances(p: np.ndarray, d: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Distance from the origin to each closed 2D triangle, whose edges run
    from p (K, 3, 2) by d with cross products ``cross`` (K, 3)."""
    ee = row_dots(d, d)
    with np.errstate(all="ignore"):
        t = -row_dots(p, d) / ee
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(ee <= 0.0, 0.0, np.where(t < 1.0, t, 1.0))
    z = (p + t[..., None] * d).reshape(-1, 2).tolist()
    hyp = np.array([math.hypot(x, y) for x, y in z]).reshape(t.shape)
    best = np.full(len(p), math.inf)
    sign = np.zeros(len(p))
    for i in range(3):
        best = np.where(hyp[:, i] < best, hyp[:, i], best)
        # nan once two edges disagree: the origin is outside
        sign = np.where(sign == 0.0, cross[:, i],
                        np.where(cross[:, i] * sign < 0.0, math.nan, sign))
    return np.where(np.isnan(sign), best, 0.0)


def _near_triangles(corners: np.ndarray, ball: Ball):
    """The triangles whose plane cuts the ball in a circle (radius rho) that
    comes nearer than rho: their 2D edges, from p (K, 3, 2) to q by d, the
    edges' cross products p x q, and rho.  The others contribute exactly 0.0,
    where a signed sum of edge terms would leave float dust of ~1e-17."""
    t2d, rho2, _, _, _ = _frames(corners, ball)
    hit = ~(rho2 <= 0.0)
    p, rho = t2d[hit], np.sqrt(rho2[hit])
    q = np.roll(p, -1, axis=1)
    d = q - p
    cross = p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]
    near = ~(_origin_distances(p, d, cross) >= rho)
    return p[near], q[near], d[near], cross[near], rho[near]


# ---------------------------------------------------------------------------
# planar circle geometry (exact), stacked
# ---------------------------------------------------------------------------

def _piece_terms(u: np.ndarray, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Green's-theorem term of each piece u -> v of an edge: cross(u, v)/2 for
    a chord strictly inside disk(0, rho), else rho^2/2 * angle(u, v).

    A tangent piece (midpoint exactly on the circle) takes the arc branch.
    """
    mid = 0.5 * (u + v)
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    arc = np.nonzero(~(row_dots(mid, mid) < rho * rho))
    out = 0.5 * cross
    angles = [math.atan2(c, dot) for c, dot in zip(cross[arc].tolist(),
                                                    row_dots(u[arc], v[arc]).tolist())]
    out[arc] = np.broadcast_to(0.5 * rho * rho, out.shape)[arc] * np.array(angles)
    return out


def _disk_areas(p, q, d, rho) -> np.ndarray:
    """Exact area of each 2D triangle cap disk(0, rho): each edge's pieces
    inside and outside the disk summed from 0.0, then the edges in order."""
    r = rho[:, None]
    ok, lo, hi = segment_ball_intervals(p, q, 0.0, r)
    in0 = (ok & (1e-14 < lo) & (lo < 1.0 - 1e-14))[..., None]
    in1 = (ok & (1e-14 < hi) & (hi < 1.0 - 1e-14))[..., None]
    z0, z1 = p + lo[..., None] * d, p + hi[..., None] * d
    first = np.where(in0, z0, np.where(in1, z1, q))
    second = np.where(in0 & in1, z1, q)
    edge = 0.0 + _piece_terms(p, first, r)
    edge = np.where((in0 | in1)[..., 0], edge + _piece_terms(first, second, r), edge)
    edge = np.where((in0 & in1)[..., 0], edge + _piece_terms(z1, q, r), edge)
    return np.abs(0.0 + edge[:, 0] + edge[:, 1] + edge[:, 2])


def _holds(tri: list, orient: float, x: float, y: float) -> bool:
    """Is (x, y) in the convex 2D triangle ``tri`` of orientation ``orient``?"""
    for (px, py), (qx, qy) in zip(tri, tri[1:] + tri[:1]):
        if ((qx - px) * (y - py) - (qy - py) * (x - px)) * orient < 0:
            return False
    return True


def _arc_length(tri: list, orient: float, rho: float, angles: list) -> float:
    """Length of circle(0, rho) inside a convex 2D triangle whose edges meet
    the circle at ``angles``: the arcs between them whose midpoint it holds."""
    if not angles:
        return 2.0 * math.pi * rho if _holds(tri, orient, rho, 0.0) else 0.0
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
        if _holds(tri, orient, rho * math.cos(mid), rho * math.sin(mid)):
            total += span * rho
    return total


def _arc_lengths(p, q, d, cross, rho) -> list:
    """Exact length of circle(0, rho) inside each convex 2D triangle."""
    t, keep = _sphere_params(p, q, 0.0, rho[:, None])
    keep = keep.reshape(len(p), 6)
    z = (p[:, :, None] + t[..., None] * d[:, :, None]).reshape(len(p), 6, 2)[keep]
    angles = iter([math.atan2(y, x) for x, y in z.tolist()])
    orient = np.where(0.0 + cross[:, 0] + cross[:, 1] + cross[:, 2] >= 0, 1.0, -1.0)
    return [_arc_length(tri, o, r, list(itertools.islice(angles, k)))
            for tri, o, r, k in zip(p.tolist(), orient.tolist(), rho.tolist(),
                                    keep.sum(axis=1).tolist())]


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


def clipped_measure(mesh: EmbeddedMesh, ball: Ball) -> float:
    """Exact H^d of the part of the mesh inside the closed ball."""
    if ball.ambient_dim != mesh.ambient_dim:
        raise ValueError("ball and mesh ambient dimensions differ")
    if mesh.n_simplices == 0:
        return 0.0
    corners = mesh.corners
    vols = _corner_volumes(corners, mesh.dimension)
    surely_in, surely_out, _ = _corner_distance_band(corners, ball)
    unsure = ~surely_in & ~surely_out & ~(vols == 0.0)
    if mesh.dimension == 1:
        a, b = corners[unsure, 0], corners[unsure, 1]
        ok, lo, hi = segment_ball_intervals(a, b, ball.center, ball.radius)
        parts = (hi - lo)[ok] * vols[unsure][ok]
    else:
        p, q, d, _, rho = _near_triangles(corners[unsure], ball)
        parts = _disk_areas(p, q, d, rho)
    return ordered_sum(np.r_[np.sum(vols[surely_in]), parts])


def sphere_slice_measure(mesh: EmbeddedMesh, ball: Ball) -> float:
    """Exact H^{d-1} of mesh cap sphere: arc length for d=2, point count for d=1."""
    if ball.ambient_dim != mesh.ambient_dim:
        raise ValueError("ball and mesh ambient dimensions differ")
    corners = mesh.corners
    if mesh.n_simplices == 0:
        return 0.0
    surely_in, surely_out, dmax = _corner_distance_band(corners, ball)
    # strictly interior simplices never touch the sphere itself
    crossers = corners[~(surely_in & (dmax < ball.radius)) & ~surely_out]
    if mesh.dimension == 2:
        return ordered_sum(_arc_lengths(*_near_triangles(crossers, ball)))
    a, b = crossers[:, 0], crossers[:, 1]
    t, keep = _sphere_params(a, b, ball.center, ball.radius)
    pts = (a[:, None] + t[..., None] * (b - a)[:, None])[keep]
    if not len(pts):
        return 0.0
    return float(_greedy_point_count(pts, ball.center, 1e-12 * ball.radius))


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


def clip_to_ball(mesh: EmbeddedMesh, ball: Ball) -> EmbeddedMesh:
    """Mesh of the part of ``mesh`` inside the ball.

    d=1 output is exact.  For d=2 the circular boundary is replaced by the
    inscribed regular ``CLIP_SIDES``-gon, whose relative area deficit is at
    most ``CLIP_TOL``.  Triangles entirely inside the closed disk are kept
    whole (there a cut could only trade exactness for approximation), so the
    output may undercount the ball clip by at most ``CLIP_TOL`` relative but
    never overcounts it.
    """
    if ball.ambient_dim != mesh.ambient_dim:
        raise ValueError("ball and mesh ambient dimensions differ")
    corners = mesh.corners
    n = mesh.ambient_dim
    chunks: list[np.ndarray] = []
    mults: list[int] = []

    if mesh.dimension == 1:
        a, b = corners[:, 0], corners[:, 1]
        ok, lo, hi = segment_ball_intervals(a, b, ball.center, ball.radius)
        keep = ok & ~(hi - lo <= 1e-14)
        a, b, lo, hi = a[keep], b[keep], lo[keep, None], hi[keep, None]
        pa = np.where(lo == 0.0, a, a + lo * (b - a))
        pb = np.where(hi == 1.0, b, a + hi * (b - a))
        return EmbeddedMesh(1, np.stack([pa, pb], axis=1), mesh.multiplicities[keep],
                            allow_degenerate=True)

    angles = 2.0 * math.pi * np.arange(CLIP_SIDES) / CLIP_SIDES
    unit_poly = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    t2d, rho2, origins, us, vs = _frames(corners, ball)
    hit = ~(rho2 <= 0.0)
    rhos = np.sqrt(np.where(hit, rho2, 0.0))
    # fully inside the closed disk: keep whole (cutting such a triangle
    # against the polygon could only replace exactness by approximation)
    whole = np.all(np.linalg.norm(t2d, axis=2) <= rhos[:, None], axis=1)
    for i in np.nonzero(hit)[0]:
        tri, rho = corners[i], float(rhos[i])
        mult = int(mesh.multiplicities[i])
        if whole[i]:
            chunks.append(tri)
            mults.append(mult)
            continue
        # fully outside the circle (hence the polygon)
        if _point_triangle_distance_2d(np.zeros(2), t2d[i]) >= rho:
            continue
        poly_pts = rho * unit_poly
        current = list(t2d[i])
        for k in range(CLIP_SIDES):
            a2, b2 = poly_pts[k], poly_pts[(k + 1) % CLIP_SIDES]
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
            chunks.append(origins[i] + t[:, :1] * us[i] + t[:, 1:2] * vs[i])
            mults.append(mult)

    return EmbeddedMesh(2, np.reshape(chunks, (-1, 3, n)), mults, allow_degenerate=True)


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
