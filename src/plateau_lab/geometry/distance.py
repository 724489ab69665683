"""Point-to-mesh distances, mesh sampling, and the two-sided local gap.

The localized gap between two sets on a ball B(x, r) is

    gap = r^{-1} sup{dist(y, E) : y in F cap B} + r^{-1} sup{dist(y, F) : y in E cap B}

with the convention that a term is 0 when its ranging set misses the ball or
its target set is empty.  Sups are estimated by dense deterministic sampling
of the ranging mesh (exact clip for segments, barycentric lattices for
triangles); distances to the target are exact, to its simplices or, for grid
faces, by one clamp to each face's box, so the estimate errs low by at most
the sampling pitch.

Both steps are culled by bounding balls without changing a bit: sampling
skips the simplices that cannot reach the ball and, on each lattice row, the
points off the ball's chord, and ``sup_distance`` skips the point-simplex
pairs that cannot change the max of mins.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .clipping import segment_ball_intervals
from .core import Ball, EmbeddedMesh, row_dots

#: ball-radius divisor giving the default sampling pitch
DEFAULT_SAMPLING_DIVISOR = 64
#: most lattice points one ``sample_mesh`` call may generate
MAX_SAMPLE_POINTS = 2 ** 22
#: points per block of ``sup_distance``; 512 measured best on the plateau ladder
SUP_BLOCK = 512
#: float margin of every culling bound, as a fraction of the coordinate scale
BOUND_MARGIN = 1e-9
#: most (point, simplex) pairs per call of ``stacked_points_to_simplices``'s kernels.
#: A (pairs, 3) float table then stays under glibc's default 128 KiB mmap
#: threshold, so the calls reuse heap pages: a seed-0 plateau pass took 9.6-12k
#: page faults in the center search, against 17-18k at 2^14
STACK_PAIRS = 1 << 12


def _points_to_segment(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if points.shape[0] == 1:
        # numpy runs a (1, n) @ (n,) product as a BLAS dot and any taller one
        # as a gemv, which round apart: one row goes as two, so that its
        # float does not depend on the rows that share its call
        return _points_to_segment(np.repeat(points, 2, axis=0), a, b)[:1]
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
    if points.shape[0] == 1:     # the gemv path, as in _points_to_segment
        return _points_to_triangle(np.repeat(points, 2, axis=0), a, b, c)[:1]
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
    # the face point) is then computed on that region's rows only, and a
    # region with no rows is skipped
    region = np.select([(d1 <= 0) & (d2 <= 0),
                        (d3 >= 0) & (d4 <= d3),
                        (d6 >= 0) & (d5 <= d6),
                        (vc <= 0) & (d1 >= 0) & (d3 <= 0),
                        (vb <= 0) & (d2 >= 0) & (d6 <= 0),
                        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)], range(6), default=6)
    held = np.bincount(region, minlength=7).tolist()
    closest = np.empty_like(points)
    for k, vertex in enumerate((a, b, c)):
        if held[k]:
            closest[region == k] = vertex
    edges = ((a, ab, d1, d1 - d3), (a, ac, d2, d2 - d6), (b, c - b, d4 - d3, (d4 - d3) + (d5 - d6)))
    for k, (start, step, num, den) in enumerate(edges, start=3):
        if held[k]:
            m = region == k
            closest[m] = start + (num[m] / np.where(den[m] != 0, den[m], 1.0))[:, None] * step
    if held[6]:
        m = region == 6
        total = va[m] + vb[m] + vc[m]
        total = np.where(total != 0, total, 1.0)
        closest[m] = a + (vb[m] / total)[:, None] * ab + (vc[m] / total)[:, None] * ac
    return np.linalg.norm(points - closest, axis=1)


def _points_to_box(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Exact distances from points to the axis-aligned box [lo, hi] = ``box``,
    one clamp: ``|max(lo - p, 0, p - hi)|``."""
    lo, hi = box
    return np.linalg.norm(np.maximum(np.maximum(lo - points, 0.0), points - hi), axis=1)


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


def _gemv(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m[k] @ x[k]`` for each k, (K, P, n) by (K, n): one BLAS gemv per k,
    as the per-simplex kernels run it, for P >= 2."""
    return np.matmul(m, x[:, :, None])[:, :, 0]


def _stacked_segments(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    e = b - a
    ee = row_dots(e, e)
    w = points - a[:, None]
    point = ee <= 0.0
    t = np.clip(_gemv(w, e) / np.where(point, 1.0, ee)[:, None], 0.0, 1.0)
    t[point] = 0.0
    return np.linalg.norm(w - t[:, :, None] * e[:, None], axis=2)


def _stacked_triangles(points: np.ndarray, a: np.ndarray, b: np.ndarray,
                       c: np.ndarray) -> np.ndarray:
    """``_points_to_triangle`` on each row, its steps in the same order."""
    ab = b - a
    ac = c - a
    uu, vv, uv = row_dots(ab, ab).tolist(), row_dots(ac, ac).tolist(), row_dots(ab, ac).tolist()
    # Python floats: ``x ** 2`` is libm pow, which numpy's square can round apart from
    flat = np.array([u * v - w ** 2 <= 1e-24 * max(u, v, 1e-300) ** 2
                     for u, v, w in zip(uu, vv, uv)], dtype=bool)
    out = np.empty(points.shape[:2])
    if flat.any():
        p, fa, fb, fc = points[flat], a[flat], b[flat], c[flat]
        out[flat] = np.minimum.reduce([_stacked_segments(p, fa, fb), _stacked_segments(p, fa, fc),
                                       _stacked_segments(p, fb, fc)])
    keep = ~flat
    if not keep.any():
        return out
    points, a, b, c, ab, ac = points[keep], a[keep], b[keep], c[keep], ab[keep], ac[keep]
    ap = points - a[:, None]
    d1 = _gemv(ap, ab)
    d2 = _gemv(ap, ac)
    bp = points - b[:, None]
    d3 = _gemv(bp, ab)
    d4 = _gemv(bp, ac)
    cp = points - c[:, None]
    d5 = _gemv(cp, ab)
    d6 = _gemv(cp, ac)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    region = np.select([(d1 <= 0) & (d2 <= 0),
                        (d3 >= 0) & (d4 <= d3),
                        (d6 >= 0) & (d5 <= d6),
                        (vc <= 0) & (d1 >= 0) & (d3 <= 0),
                        (vb <= 0) & (d2 >= 0) & (d6 <= 0),
                        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)], range(6), default=6)
    held = np.bincount(region.ravel(), minlength=7).tolist()
    closest = np.empty_like(points)
    rows = np.broadcast_to(np.arange(len(a))[:, None], region.shape)
    for k, vertex in enumerate((a, b, c)):
        if held[k]:
            m = region == k
            closest[m] = vertex[rows[m]]
    edges = ((a, ab, d1, d1 - d3), (a, ac, d2, d2 - d6), (b, c - b, d4 - d3, (d4 - d3) + (d5 - d6)))
    for k, (start, step, num, den) in enumerate(edges, start=3):
        if held[k]:
            m = region == k
            r = rows[m]
            closest[m] = start[r] + (num[m] / np.where(den[m] != 0, den[m], 1.0))[:, None] * step[r]
    if held[6]:
        m = region == 6
        r = rows[m]
        total = va[m] + vb[m] + vc[m]
        total = np.where(total != 0, total, 1.0)
        closest[m] = a[r] + (vb[m] / total)[:, None] * ab[r] + (vc[m] / total)[:, None] * ac[r]
    out[keep] = np.linalg.norm(points - closest, axis=2)
    return out


def stacked_points_to_simplices(points: np.ndarray, owner: np.ndarray,
                                corners: np.ndarray) -> np.ndarray:
    """Distances (K, P) from the points of each row k, ``points[owner[k]]``
    (P, n) of ``points`` (F, P, n), to its own segment or triangle
    ``corners[k]`` (K, d+1, n).

    Row k is ``_points_to_simplex(points[owner[k]], corners[k])`` bit for
    bit: each product of the per-simplex kernel is the same BLAS call on the
    same operands, every other step is elementwise, and a row's floats do
    not depend on the rows beside it.  One point goes as two, as there.  The
    rows go in calls of at most ``STACK_PAIRS`` pairs, each of which gathers
    its own points.
    """
    K, P = len(owner), points.shape[1]
    if K == 0 or P == 0:
        return np.zeros((K, P))
    if P == 1:
        return stacked_points_to_simplices(np.repeat(points, 2, axis=1), owner, corners)[:, :1]
    kernel = _stacked_segments if corners.shape[1] == 2 else _stacked_triangles
    step = max(1, STACK_PAIRS // P)
    out = np.empty((K, P))
    for first in range(0, K, step):
        chunk = corners[first:first + step]
        out[first:first + step] = kernel(points[owner[first:first + step]],
                                         *(chunk[:, i] for i in range(chunk.shape[1])))
    return out


def _bounding_balls(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and covering radius of each simplex (S, d+1, n)."""
    centers = corners.mean(axis=1)
    radii = np.sqrt(((corners - centers[:, None, :]) ** 2).sum(axis=2)).max(axis=1)
    return centers, radii


def _margin(*arrays) -> float:
    return BOUND_MARGIN * max(float(np.abs(a).max(initial=0.0)) for a in arrays)


def point_blocks(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and covering radius of each ``SUP_BLOCK``-row block of points;
    a rigid motion carries them: ``(centers @ R + t, radii)`` may stand for
    the blocks of ``points @ R + t``, whose rounding lies far inside ``BOUND_MARGIN``."""
    starts = np.arange(0, points.shape[0], SUP_BLOCK)
    owner = np.arange(points.shape[0]) // SUP_BLOCK
    centers = np.add.reduceat(points, starts) / np.bincount(owner)[:, None]
    radii = np.maximum.reduceat(np.sqrt(((points - centers[owner]) ** 2).sum(axis=1)), starts)
    return centers, radii


def sup_distance(points: np.ndarray, corners: np.ndarray, bound: float = math.inf,
                 radius: float = 1.0, blocks=None, boxes: bool = False) -> float:
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
    below ``bound`` keeps exact ones.  ``blocks`` are ``point_blocks(points)``,
    computed here when not given.

    With ``boxes``, ``corners`` are the (S, 2, n) [lo, hi] rows of
    axis-aligned boxes, and each pair runs ``_points_to_box``.  The bounds
    hold as they are: a box's bounding ball is its circumscribed ball, and
    lo and hi are points of the box.
    """
    if points.shape[0] == 0 or corners.shape[0] == 0:
        return float(np.full(points.shape[0], math.inf).max())
    kernel = _points_to_box if boxes else _points_to_simplex
    s_center, s_radius = _bounding_balls(corners)
    margin = _margin(points, corners)
    centers, radii = point_blocks(points) if blocks is None else blocks
    vertices = corners.reshape(-1, corners.shape[2])
    # blocks x vertices x n at most about 2^18 floats at a time
    step = max(1, (1 << 18) // vertices.size)
    nearest = np.concatenate([
        np.sqrt(((vertices - c[:, None]) ** 2).sum(axis=2)).min(axis=1)
        for c in np.split(centers, np.arange(step, centers.shape[0], step))])
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
            best[rows] = np.minimum(best[rows], kernel(block[rows], corners[s]))
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
    return points_to_simplices(pts, mesh.corners)


def _check_spacing(spacing: float) -> None:
    if not (spacing > 0 and math.isfinite(spacing)):
        raise ValueError("spacing must be positive and finite")


def _lattice_steps(length: float, spacing: float) -> int:
    # clamped so that an overlong lattice reaches the cap instead of overflowing
    return max(1, int(math.ceil(min(length / spacing, MAX_SAMPLE_POINTS))))


def _lattice_indices(a: np.ndarray, b: np.ndarray, c: np.ndarray, k: int,
                     ball: Optional[Ball], margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, m) of the lattice points a + (i/k)(b - a) + (m/k)(c - a),
    i + m <= k, row by row and m ascending; with a ball, only those that may
    lie in the ball enlarged by ``margin``.

    Row i is a line in m, and the ball's chord on it bounds m, widened by
    one step on each side.  A row keeps all its points where the step
    (c - a)/k has zero length or where the step or the chord overflows.
    """
    rows = np.arange(k + 1)
    last = k - rows
    lo, hi = np.zeros(k + 1), last.astype(float)
    # an overflow leaves a step or a chord non-finite, and that row is kept whole
    with np.errstate(over="ignore", invalid="ignore"):
        e = (c - a) / k
        ee = float(e @ e)
        if ball is not None and 0.0 < ee < math.inf:
            q = a + (rows / k)[:, None] * (b - a) - ball.center
            mid = -(q @ e) / ee
            w = q + mid[:, None] * e
            reach = ball.radius + margin
            slack = reach * reach - (w * w).sum(axis=1)
            half = np.sqrt(np.where(slack > 0.0, slack, 0.0) / ee)
            first, stop = mid - half, mid + half
            bounded = np.isfinite(first) & np.isfinite(stop) & ~np.isnan(slack)
            # clipped into [-1, last] before the cast; a row that misses is empty
            lo = np.where(bounded, np.clip(np.floor(first) - 1.0, 0.0, last), lo)
            hi = np.where(bounded, np.clip(np.ceil(stop) + 1.0, -1.0, last), hi)
            hi[bounded & (slack < 0.0)] = -1.0
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    counts = np.maximum(hi - lo + 1, 0)
    starts = np.cumsum(counts) - counts
    i = np.repeat(rows, counts)
    m = np.arange(i.size) - np.repeat(starts - lo, counts)
    return i, m


def sample_mesh(mesh: EmbeddedMesh, spacing: float,
                ball: Optional[Ball] = None) -> np.ndarray:
    """Deterministic point samples on the mesh at pitch <= spacing.

    With a ball, simplices whose bounding ball misses it are skipped,
    segments are clipped exactly and triangle samples are filtered, so every
    returned point lies on the mesh and inside the ball; a triangle builds
    only the points of its lattice rows' chords through the ball.  More than
    ``MAX_SAMPLE_POINTS`` lattice points, counting every triangle's whole
    lattice, is a ``ValueError``, raised before any lattice is allocated.
    """
    _check_spacing(spacing)
    corners = mesh.corners
    margin = 0.0
    if ball is not None and corners.shape[0]:
        margin = _margin(corners, ball.center, ball.radius)
        s_center, s_radius = _bounding_balls(corners)
        gap = np.sqrt(((s_center - ball.center) ** 2).sum(axis=1)) - s_radius
        corners = corners[gap <= ball.radius + margin]
    # each segment's parameter interval in the ball, None where it misses
    spans = [(0.0, 1.0)] * corners.shape[0]
    if mesh.dimension == 1 and ball is not None:
        hit, lo, hi = segment_ball_intervals(corners[:, 0], corners[:, 1], ball.center, ball.radius)
        spans = [(l, h) if k else None for k, l, h in zip(hit.tolist(), lo.tolist(), hi.tolist())]
    lattices = []
    total = 0
    for corner, span in zip(corners, spans):
        if mesh.dimension == 1:
            if span is None:
                continue
            a, b = corner
            lo, hi = span
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
            i, m = _lattice_indices(a, b, c, k, ball, margin)
            s = (i / k)[:, None]
            t = (m / k)[:, None]
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
                             ball: Ball, spacing: Optional[float] = None,
                             boxes: Optional[tuple] = None) -> float:
    """Two-sided localized gap between two meshes on a ball (see module doc).

    ``boxes`` are the [lo, hi] rows of the two meshes' axis-aligned faces
    (``FaceSet.boxes``), when each mesh is its faces cut into simplices: the
    samples still come from the simplices, and each side measures to the
    other's boxes, one clamp per box.
    """
    if mesh_a.ambient_dim != mesh_b.ambient_dim:
        raise ValueError("meshes live in different ambient dimensions")
    if ball.ambient_dim != mesh_a.ambient_dim:
        raise ValueError("ball dimension differs from the meshes")
    if spacing is None:
        spacing = ball.radius / DEFAULT_SAMPLING_DIVISOR
    _check_spacing(spacing)
    targets = (mesh_b.corners, mesh_a.corners) if boxes is None else boxes[::-1]
    total = 0.0
    for ranging, target in zip((mesh_a, mesh_b), targets):
        if ranging.n_simplices == 0 or target.shape[0] == 0:
            continue
        pts = sample_mesh(ranging, spacing, ball=ball)
        if pts.shape[0] == 0:
            continue
        total += sup_distance(pts, target, boxes=boxes is not None)
    return total / ball.radius
