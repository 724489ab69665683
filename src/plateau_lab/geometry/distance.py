"""Point-to-mesh distances, mesh sampling, and the two-sided local gap.

The localized gap between two sets on a ball B(x, r) is

    gap = r^{-1} sup{dist(y, E) : y in F cap B} + r^{-1} sup{dist(y, F) : y in E cap B}

with the convention that a term is 0 when its ranging set misses the ball or
its target set is empty.  Sups are estimated by dense deterministic sampling
of the ranging mesh (exact clip for segments, barycentric lattices for
triangles); distances to the target are exact, so the estimate errs low by at
most the sampling pitch.
"""

from __future__ import annotations

import logging
import math
from typing import Optional

import numpy as np

from .clipping import segment_ball_interval
from .core import Ball, EmbeddedMesh

logger = logging.getLogger(__name__)

#: ball-radius divisor giving the default sampling pitch
DEFAULT_SAMPLING_DIVISOR = 64


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

    closest = np.empty_like(points)
    done = np.zeros(points.shape[0], dtype=bool)

    def assign(mask, value):
        nonlocal done
        m = mask & ~done
        if np.any(m):
            closest[m] = value[m] if value.ndim == 2 else value[None, :]
            done[m] = True

    assign((d1 <= 0) & (d2 <= 0), a)
    assign((d3 >= 0) & (d4 <= d3), b)
    assign((d6 >= 0) & (d5 <= d6), c)

    vc = d1 * d4 - d3 * d2
    mask = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom = np.where(d1 - d3 != 0, d1 - d3, 1.0)
    assign(mask, a + (d1 / denom)[:, None] * ab)

    vb = d5 * d2 - d1 * d6
    mask = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom = np.where(d2 - d6 != 0, d2 - d6, 1.0)
    assign(mask, a + (d2 / denom)[:, None] * ac)

    va = d3 * d6 - d5 * d4
    mask = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = np.where((d4 - d3) + (d5 - d6) != 0, (d4 - d3) + (d5 - d6), 1.0)
    assign(mask, b + ((d4 - d3) / denom)[:, None] * (c - b))

    rest = ~done
    if np.any(rest):
        total = va + vb + vc
        total = np.where(total != 0, total, 1.0)
        v = vb / total
        w = vc / total
        closest[rest] = a + v[rest, None] * ab + w[rest, None] * ac
    return np.linalg.norm(points - closest, axis=1)


def points_to_simplices(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Exact distance from each point (P, n) to the union of segments or
    triangles given as corners (S, d+1, n); inf when S = 0."""
    best = np.full(points.shape[0], np.inf)
    for c in corners:
        if c.shape[0] == 2:
            d = _points_to_segment(points, c[0], c[1])
        else:
            d = _points_to_triangle(points, c[0], c[1], c[2])
        np.minimum(best, d, out=best)
    return best


def point_mesh_distance(points, mesh: EmbeddedMesh) -> np.ndarray:
    """Exact euclidean distance from each point to the mesh support."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mesh.n_simplices == 0:
        raise ValueError("distance to an empty mesh is undefined")
    return points_to_simplices(pts, mesh.simplex_corners())


def sample_mesh(mesh: EmbeddedMesh, spacing: float,
                ball: Optional[Ball] = None) -> np.ndarray:
    """Deterministic point samples on the mesh at pitch <= spacing.

    With a ball, segments are clipped exactly first and triangle samples are
    filtered, so every returned point lies on the mesh and inside the ball.
    """
    if not (spacing > 0):
        raise ValueError("spacing must be positive")
    corners = mesh.simplex_corners()
    out: list[np.ndarray] = []
    for i in range(mesh.n_simplices):
        if mesh.dimension == 1:
            a, b = corners[i, 0], corners[i, 1]
            lo, hi = 0.0, 1.0
            if ball is not None:
                interval = segment_ball_interval(a, b, ball.center, ball.radius)
                if interval is None:
                    continue
                lo, hi = interval
            pa, pb = a + lo * (b - a), a + hi * (b - a)
            length = float(np.linalg.norm(pb - pa))
            k = max(1, int(math.ceil(length / spacing)))
            t = np.linspace(0.0, 1.0, k + 1)
            out.append(pa + t[:, None] * (pb - pa))
        else:
            a, b, c = corners[i]
            diam = max(np.linalg.norm(b - a), np.linalg.norm(c - a), np.linalg.norm(c - b))
            k = max(1, int(math.ceil(diam / spacing)))
            ii, jj = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
            keep = (ii + jj) <= k
            s = (ii[keep] / k)[:, None]
            t = (jj[keep] / k)[:, None]
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
    total = 0.0
    for ranging, target in ((mesh_a, mesh_b), (mesh_b, mesh_a)):
        if ranging.n_simplices == 0 or target.n_simplices == 0:
            continue
        pts = sample_mesh(ranging, spacing, ball=ball)
        if pts.shape[0] == 0:
            continue
        total += float(np.max(point_mesh_distance(pts, target)))
    return total / ball.radius
