"""Point-to-mesh distances, mesh sampling, and the two-sided local gap.

The localized gap between two sets on a ball B(x, r) is

    gap = r^{-1} sup{dist(y, E) : y in F cap B} + r^{-1} sup{dist(y, F) : y in E cap B}

with the convention that a term is 0 when its ranging set misses the ball or
its target set is empty.  Sups are estimated by dense deterministic sampling
of the ranging mesh (exact clip for segments, barycentric lattices for
triangles); distances to the target are exact, so the estimate errs low by at
most the sampling pitch.

Both steps are culled by bounding balls without changing a bit: sampling
skips the simplices that cannot reach the ball, and ``sup_distance`` skips
the point-simplex pairs that cannot change the max of mins.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .clipping import segment_ball_interval
from .core import Ball, EmbeddedMesh

#: ball-radius divisor giving the default sampling pitch
DEFAULT_SAMPLING_DIVISOR = 64
#: most lattice points one ``sample_mesh`` call may generate
MAX_SAMPLE_POINTS = 2 ** 22
#: points per block of ``sup_distance``; 512 measured best on the plateau ladder
SUP_BLOCK = 512
#: float margin of every culling bound, as a fraction of the coordinate scale
BOUND_MARGIN = 1e-9


def _points_to_segment(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    e = b - a
    ee = float(e @ e)
    w = points - a
    if ee <= 0.0:
        return np.linalg.norm(w, axis=1)
    t = np.clip((w @ e) / ee, 0.0, 1.0)
    return np.linalg.norm(w - t[:, None] * e, axis=1)


def _points_to_triangle(points: np.ndarray, a: np.ndarray, b: np.ndarray,
                        c: np.ndarray) -> np.ndarray:
    """Exact distances from points to a triangle (closest-point region walk)."""
    ab = b - a
    ac = c - a
    # degenerate triangles collapse to their edges
    cross_sq = float(ab @ ab) * float(ac @ ac) - float(ab @ ac) ** 2
    if cross_sq <= 1e-24 * max(float(ab @ ab), float(ac @ ac), 1e-300) ** 2:
        return np.minimum.reduce([
            _points_to_segment(points, a, b),
            _points_to_segment(points, a, c),
            _points_to_segment(points, b, c),
        ])
    ap = points - a
    d1 = ap @ ab
    d2 = ap @ ac
    bp = points - b
    d3 = bp @ ab
    d4 = bp @ ac
    cp = points - c
    d5 = cp @ ab
    d6 = cp @ ac

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    # np.select keeps the first region that holds, as the region walk does;
    # each region's closest point (a vertex, an edge point or, in region 6,
    # the face point) is then computed on that region's rows only
    region = np.select([(d1 <= 0) & (d2 <= 0),
                        (d3 >= 0) & (d4 <= d3),
                        (d6 >= 0) & (d5 <= d6),
                        (vc <= 0) & (d1 >= 0) & (d3 <= 0),
                        (vb <= 0) & (d2 >= 0) & (d6 <= 0),
                        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)], range(6), default=6)
    closest = np.empty_like(points)
    for k, vertex in enumerate((a, b, c)):
        closest[region == k] = vertex
    edges = ((a, ab, d1, d1 - d3), (a, ac, d2, d2 - d6), (b, c - b, d4 - d3, (d4 - d3) + (d5 - d6)))
    for k, (start, step, num, den) in enumerate(edges, start=3):
        m = region == k
        closest[m] = start + (num[m] / np.where(den[m] != 0, den[m], 1.0))[:, None] * step
    m = region == 6
    total = va[m] + vb[m] + vc[m]
    total = np.where(total != 0, total, 1.0)
    closest[m] = a + (vb[m] / total)[:, None] * ab + (vc[m] / total)[:, None] * ac
    return np.linalg.norm(points - closest, axis=1)


def _points_to_simplex(points: np.ndarray, c: np.ndarray) -> np.ndarray:
    if c.shape[0] == 2:
        return _points_to_segment(points, c[0], c[1])
    return _points_to_triangle(points, c[0], c[1], c[2])


def points_to_simplices(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Exact distance from each point (P, n) to the union of segments or
    triangles given as corners (S, d+1, n); inf when S = 0."""
    best = np.full(points.shape[0], np.inf)
    for c in corners:
        # binding d keeps each pass's array alive until the next one is made;
        # freeing it first measured 5x the page faults and 1.5x the time on a
        # 48,909-point query
        d = _points_to_simplex(points, c)
        np.minimum(best, d, out=best)
    return best


def _bounding_balls(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and covering radius of each simplex (S, d+1, n)."""
    centers = corners.mean(axis=1)
    radii = np.sqrt(((corners - centers[:, None, :]) ** 2).sum(axis=2)).max(axis=1)
    return centers, radii


def _margin(*arrays) -> float:
    return BOUND_MARGIN * max(float(np.abs(a).max(initial=0.0)) for a in arrays)


def _block_balls(points: np.ndarray, vertices: np.ndarray):
    """Centroid, covering radius and nearest target vertex distance of each
    ``SUP_BLOCK``-row block of points."""
    starts = np.arange(0, points.shape[0], SUP_BLOCK)
    owner = np.arange(points.shape[0]) // SUP_BLOCK
    centers = np.add.reduceat(points, starts) / np.bincount(owner)[:, None]
    radii = np.maximum.reduceat(np.sqrt(((points - centers[owner]) ** 2).sum(axis=1)), starts)
    # blocks x vertices x n at most about 2^18 floats at a time
    step = max(1, (1 << 18) // vertices.size)
    nearest = np.concatenate([
        np.sqrt(((vertices - c[:, None]) ** 2).sum(axis=2)).min(axis=1)
        for c in np.split(centers, np.arange(step, centers.shape[0], step))])
    return centers, radii, nearest


def sup_distance(points: np.ndarray, corners: np.ndarray, bound: float = math.inf,
                 radius: float = 1.0) -> float:
    """``points_to_simplices(points, corners).max()`` to the bit, most pairs skipped.

    The early break of Taha & Hanbury (IEEE TPAMI 37, 2015) over blocks of
    ``SUP_BLOCK`` points, each with a bounding ball.  Blocks go in order of
    their upper bound (nearest target vertex plus block radius), and a block
    that cannot beat the running max ``cmax`` is skipped.  A block meets its
    simplices in order of their lower bound (centre gap minus both radii) and
    stops once no remaining simplex can lower any point's running min; points
    whose min falls to ``cmax`` are dropped.  Every computed pair runs the
    same kernel on a subset of the rows, whose floats do not depend on the
    other rows present, and min and max are exact, so the result is the
    oracle's float.

    With a ``bound``, the loop also stops after a block once
    ``cmax / radius >= bound``, for the positive ``radius`` the caller
    divides by: the value returned is then a lower bound on the sup, but it
    divides to at least ``bound`` too, so a caller that keeps only values
    below ``bound`` keeps exact ones.
    """
    if points.shape[0] == 0 or corners.shape[0] == 0:
        return float(points_to_simplices(points, corners).max())
    s_center, s_radius = _bounding_balls(corners)
    margin = _margin(points, corners)
    centers, radii, nearest = _block_balls(points, corners.reshape(-1, corners.shape[2]))
    upper = nearest + radii + margin
    cmax = -math.inf
    for b in np.argsort(-upper, kind="stable").tolist():
        if upper[b] <= cmax:
            break
        block = points[b * SUP_BLOCK:(b + 1) * SUP_BLOCK]
        lower = np.sqrt(((s_center - centers[b]) ** 2).sum(axis=1)) - s_radius - (radii[b] + margin)
        best = np.full(block.shape[0], math.inf)
        rows = np.arange(block.shape[0])
        for s in np.argsort(lower, kind="stable"):
            if lower[s] > best[rows].max():
                break
            best[rows] = np.minimum(best[rows], _points_to_simplex(block[rows], corners[s]))
            rows = rows[best[rows] > cmax]
            if rows.size == 0:
                break
        if rows.size:
            cmax = max(cmax, float(best[rows].max()))
            if cmax / radius >= bound:
                break
    return cmax


def point_mesh_distance(points, mesh: EmbeddedMesh) -> np.ndarray:
    """Exact euclidean distance from each point to the mesh support."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mesh.n_simplices == 0:
        raise ValueError("distance to an empty mesh is undefined")
    return points_to_simplices(pts, mesh.simplex_corners())


def _check_spacing(spacing: float) -> None:
    if not (spacing > 0 and math.isfinite(spacing)):
        raise ValueError("spacing must be positive and finite")


def _lattice_steps(length: float, spacing: float) -> int:
    # clamped so that an overlong lattice reaches the cap instead of overflowing
    return max(1, int(math.ceil(min(length / spacing, MAX_SAMPLE_POINTS))))


def sample_mesh(mesh: EmbeddedMesh, spacing: float,
                ball: Optional[Ball] = None) -> np.ndarray:
    """Deterministic point samples on the mesh at pitch <= spacing.

    With a ball, simplices whose bounding ball misses it are skipped,
    segments are clipped exactly and triangle samples are filtered, so every
    returned point lies on the mesh and inside the ball.  More than
    ``MAX_SAMPLE_POINTS`` lattice points is a ``ValueError``, raised before
    any lattice is allocated.
    """
    _check_spacing(spacing)
    corners = mesh.simplex_corners()
    if ball is not None and corners.shape[0]:
        s_center, s_radius = _bounding_balls(corners)
        gap = np.sqrt(((s_center - ball.center) ** 2).sum(axis=1)) - s_radius
        corners = corners[gap <= ball.radius + _margin(corners, ball.center, ball.radius)]
    lattices = []
    total = 0
    for corner in corners:
        if mesh.dimension == 1:
            a, b = corner
            lo, hi = 0.0, 1.0
            if ball is not None:
                interval = segment_ball_interval(a, b, ball.center, ball.radius)
                if interval is None:
                    continue
                lo, hi = interval
            pa, pb = a + lo * (b - a), a + hi * (b - a)
            k = _lattice_steps(float(np.linalg.norm(pb - pa)), spacing)
            lattices.append((pa, pb, k))
            total += k + 1
        else:
            a, b, c = corner
            diam = max(np.linalg.norm(b - a), np.linalg.norm(c - a), np.linalg.norm(c - b))
            k = _lattice_steps(float(diam), spacing)
            lattices.append((a, b, c, k))
            total += (k + 1) * (k + 2) // 2
        if total > MAX_SAMPLE_POINTS:
            raise ValueError(f"sampling at pitch {spacing:g} exceeds the cap of "
                             f"{MAX_SAMPLE_POINTS} lattice points")
    out: list[np.ndarray] = []
    for lattice in lattices:
        if mesh.dimension == 1:
            pa, pb, k = lattice
            t = np.linspace(0.0, 1.0, k + 1)
            out.append(pa + t[:, None] * (pb - pa))
        else:
            a, b, c, k = lattice
            # (i, j - i) walks i + (j - i) <= k row by row, with no (k+1)^2 grid
            i, j = np.triu_indices(k + 1)
            s = (i / k)[:, None]
            t = ((j - i) / k)[:, None]
            pts = a + s * (b - a) + t * (c - a)
            if ball is not None:
                pts = pts[np.linalg.norm(pts - ball.center, axis=1) <= ball.radius]
                if pts.shape[0] == 0:
                    continue
            out.append(pts)
    if not out:
        return np.zeros((0, mesh.ambient_dim))
    return np.vstack(out)


def local_hausdorff_distance(mesh_a: EmbeddedMesh, mesh_b: EmbeddedMesh,
                             ball: Ball, spacing: Optional[float] = None) -> float:
    """Two-sided localized gap between two meshes on a ball (see module doc)."""
    if mesh_a.ambient_dim != mesh_b.ambient_dim:
        raise ValueError("meshes live in different ambient dimensions")
    if ball.ambient_dim != mesh_a.ambient_dim:
        raise ValueError("ball dimension differs from the meshes")
    if spacing is None:
        spacing = ball.radius / DEFAULT_SAMPLING_DIVISOR
    _check_spacing(spacing)
    total = 0.0
    for ranging, target in ((mesh_a, mesh_b), (mesh_b, mesh_a)):
        if ranging.n_simplices == 0 or target.n_simplices == 0:
            continue
        pts = sample_mesh(ranging, spacing, ball=ball)
        if pts.shape[0] == 0:
            continue
        total += sup_distance(pts, target.simplex_corners())
    return total / ball.radius
