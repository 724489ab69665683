"""Radial projection of low-dimensional content onto dyadic grid skeletons.

The pipeline walks face dimensions k = n, n-1, ..., d+1.  At each stage the
content whose minimal containing grid face S has dimension k is projected
from a center xi in the interior of S onto the boundary of S.  Before mapping,
simplices are split along the hyperplanes through xi and the (k-2)-faces of
the boundary of S; inside one facet cone the central projection is a
perspectivity, so mapping simplex vertices is *exact* — images land exactly
inside facets, and no refinement error is incurred (the certified measure
error bound of the pipeline is 0; optional eta-refinement is kept as
preconditioning only).

Bookkeeping: content entering the grid is split at all grid hyperplanes with
split coordinates assigned exactly, every piece carries the lexicographically
smallest cell containing its minimal face as its owner, and because images
never leave the owner's closed cell the per-cube inequality

    H^d(image cap R) <= sum over R' in V(R) of ratio(R') * H^d(input cap R')

holds by construction (ratio(R') = end-to-end image/input measure of owner
R').  Faces inside the boundary of Q are frozen (the map is the identity
there) unless the grid is periodic, in which case face keys canonicalize and
nothing is frozen.  Simplices fully outside Q are returned verbatim.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry.core import EmbeddedMesh, refine
from .geometry.distance import _points_to_segment, _points_to_triangle
from .grids import CubeFace, DyadicGrid, FlatManifold

logger = logging.getLogger(__name__)

#: vertex-to-plane snapping tolerance, relative to the cell side
SNAP_REL = 1e-9

#: required clearance between a projection center and the content it projects
CLEARANCE_REL = 1e-9

#: grid resolutions per face dimension for the deterministic 'far' center search
_FAR_GRID = {1: 65, 2: 17, 3: 9}

#: content chunks times centers per kernel call in the 'chebyshev' search;
#: bounds the memory of one call (chunks multiply as the cone planes cut them)
_CENTER_BATCH = 4096


# ---------------------------------------------------------------------------
# content pieces
# ---------------------------------------------------------------------------

@dataclass
class Piece:
    """One content simplex: corner block, multiplicity, owner cell, min face."""

    corners: np.ndarray
    mult: int
    owner: Optional[CubeFace] = None
    face: Optional[CubeFace] = None


def _points_to_pieces(points: np.ndarray, pieces: Sequence[Piece]) -> np.ndarray:
    best = np.full(points.shape[0], np.inf)
    for p in pieces:
        if p.corners.shape[0] == 2:
            d = _points_to_segment(points, p.corners[0], p.corners[1])
        else:
            d = _points_to_triangle(points, p.corners[0], p.corners[1], p.corners[2])
        np.minimum(best, d, out=best)
    return best


# ---------------------------------------------------------------------------
# batched convex splitting and radial projection
# ---------------------------------------------------------------------------
#
# Chunks travel as (T, d+1, n) corner arrays.  Every step is a flat map:
# chunk t becomes one or more output chunks, emitted in the order the
# chunk-by-chunk code gives, with ``parent`` naming the chunk each came from.
# The float operations are the scalar ones, element by element, so the
# output is bit-identical to splitting and mapping one chunk at a time.

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (R, n) arrays.

    A stacked (1, n) @ (n, 1) matmul runs the BLAS dot that ``u @ v`` runs
    on one pair of vectors, so each value equals the scalar product bit for
    bit; ``(a * b).sum(-1)`` and ``einsum`` round differently.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _volumes(chunks) -> list[float]:
    """Measure of each chunk (length or area) as Python floats.

    A triangle's area is 0.5 * sqrt(max(|u|^2 |v|^2 - (u.v)^2, 0)).  The
    square (u.v)^2 is taken on Python floats: ``x ** 2`` (libm ``pow``) and
    numpy's square differ in the last bit on about 0.1% of inputs.
    """
    if len(chunks) == 0:
        return []
    c = np.asarray(chunks, dtype=float)
    u = c[:, 1] - c[:, 0]
    if c.shape[1] == 2:
        return np.sqrt(_rowdot(u, u)).tolist()
    v = c[:, 2] - c[:, 0]
    g = _rowdot(u, u) * _rowdot(v, v) - np.array([x ** 2 for x in _rowdot(u, v).tolist()])
    return (0.5 * np.sqrt(np.where(0.0 > g, 0.0, g))).tolist()


def _pieces_measure(pieces: Sequence[Piece]) -> float:
    return float(sum(_volumes([p.corners for p in pieces])))


def _split_table(d: int):
    """Output chunks of a d-simplex cut by a plane, per vertex sign pattern.

    Pattern index: sum of (sign_i + 1) * 3**(d - i).  Tokens 0..d name the
    vertices, d+1+i the crossing point on edge i -> i+1 (mod d+1).  A chunk
    with no strictly negative or no strictly positive vertex is kept whole;
    a triangle's below and above cycles are fanned from their first point,
    below chunks first.  Returns (counts, tokens).
    """
    v = d + 1
    patterns = []
    for code in range(3 ** v):
        s = [(code // 3 ** (d - i)) % 3 - 1 for i in range(v)]
        if all(x <= 0 for x in s) or all(x >= 0 for x in s):
            patterns.append([tuple(range(v))])
        elif d == 1:
            patterns.append([(0, 2), (2, 1)] if s[0] < 0 else [(2, 1), (0, 2)])
        else:
            below, above = [], []
            for i in range(v):
                if s[i] <= 0:
                    below.append(i)
                if s[i] >= 0:
                    above.append(i)
                if s[i] * s[(i + 1) % v] < 0:
                    below.append(v + i)
                    above.append(v + i)
            patterns.append([(c[0], c[i], c[i + 1]) for c in (below, above)
                             for i in range(1, len(c) - 1)])
    width = max(len(p) for p in patterns)
    tokens = np.zeros((len(patterns), width, v), dtype=np.intp)
    for code, chunks in enumerate(patterns):
        tokens[code, :len(chunks)] = chunks
    return np.array([len(p) for p in patterns]), tokens


_SPLIT = {d: _split_table(d) for d in (1, 2)}


def _split_by_plane(pts: np.ndarray, active: np.ndarray, normals: np.ndarray,
                    offsets: np.ndarray, snaps: np.ndarray, exact=None):
    """Split each active chunk by its own plane {normal . x == offset}.

    ``normals`` (A, n), ``offsets`` and ``snaps`` (A,) belong to the A active
    chunks, in order; inactive chunks pass through unchanged.  Values within
    the snap of the plane count as on it.  ``exact = (axis, value, tol)``
    marks an axis-aligned plane: on-plane vertices and crossing points get
    that coordinate assigned exactly, and a triangle that is cut also has
    every cycle point within ``tol`` of the plane assigned.  Returns
    (chunks, parent).
    """
    T, v, n = pts.shape
    d = v - 1
    idx = np.flatnonzero(active)
    sub = pts[idx]
    vals = _rowdot(np.repeat(normals, v, axis=0), sub.reshape(-1, n)).reshape(-1, v) \
        - offsets[:, None]
    on_plane = np.abs(vals) <= snaps[:, None]
    vals[on_plane] = 0.0
    if exact is not None:
        axis, value, tol = exact
        sub[on_plane, axis] = value
    code = ((np.sign(vals) + 1).astype(np.intp) * 3 ** np.arange(d, -1, -1)).sum(axis=1)
    counts, tokens = _SPLIT[d]
    i0 = np.arange(1 if d == 1 else v)          # edge i runs from i0[i] to i1[i]
    i1 = (i0 + 1) % v
    sp, sq = vals[:, i0], vals[:, i1]
    crossing = ((sp < 0.0) & (sq > 0.0)) | ((sq < 0.0) & (sp > 0.0))
    t = np.divide(sp, sp - sq, out=np.zeros_like(sp), where=crossing)
    p, q = sub[:, i0], sub[:, i1]
    cross = p + t[..., None] * (q - p)
    if exact is not None:
        if d == 1:
            cross[..., axis] = value
        else:
            cut = counts[code] > 1
            cross_vals = _rowdot(np.repeat(normals, v, axis=0), cross.reshape(-1, n)) \
                .reshape(-1, v) - offsets[:, None]
            sub[cut[:, None] & (np.abs(vals) <= tol), axis] = value
            cross[cut[:, None] & (np.abs(cross_vals) <= tol), axis] = value
    ext = np.concatenate([sub, cross], axis=1)

    n_out = np.ones(T, dtype=np.intp)
    n_out[idx] = counts[code]
    parent = np.repeat(np.arange(T), n_out)
    slot = np.arange(parent.size) - np.repeat(np.cumsum(n_out) - n_out, n_out)
    row_of = np.full(T, -1)
    row_of[idx] = np.arange(idx.size)
    row = row_of[parent]
    cut_rows = row >= 0
    out = pts[parent]
    r = row[cut_rows]
    out[cut_rows] = ext[r[:, None], tokens[code[r], slot[cut_rows]]]
    return out, parent


def _cone_planes(xi: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 spanned: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Planes through each center xi[m] and the (k-2)-faces of the face boundary.

    Returns normals (M, P, n) and offsets (M, P): P = 4 for k = 2, 12 for
    k = 3, none otherwise.
    """
    M, n = xi.shape
    k = len(spanned)
    normals = []
    if k == 2:
        a0, a1 = spanned
        for ca in (lo[a0], hi[a0]):
            for cb in (lo[a1], hi[a1]):
                normal = np.zeros((M, n))
                normal[:, a0] = -(cb - xi[:, a1])
                normal[:, a1] = ca - xi[:, a0]
                normals.append(normal)
    elif k == 3:
        for e in spanned:
            o0, o1 = [a for a in spanned if a != e]
            for c0 in (lo[o0], hi[o0]):
                for c1 in (lo[o1], hi[o1]):
                    # u, v run from xi to the two ends of an edge along axis e
                    u3 = np.empty((M, 3))
                    v3 = np.empty((M, 3))
                    for j, a in enumerate(spanned):
                        u_end, v_end = ((lo[e], hi[e]) if a == e
                                        else (c0, c0) if a == o0 else (c1, c1))
                        u3[:, j] = u_end - xi[:, a]
                        v3[:, j] = v_end - xi[:, a]
                    normal = np.zeros((M, n))
                    normal[:, spanned] = np.cross(u3, v3)
                    normals.append(normal)
    normals = np.stack(normals, axis=1) if normals else np.zeros((M, 0, n))
    P = normals.shape[1]
    offsets = _rowdot(normals.reshape(-1, n), np.repeat(xi, P, axis=0)).reshape(M, P)
    return normals, offsets


def _map_to_boundary(v: np.ndarray, xi: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, spanned: list[int]) -> np.ndarray:
    """Push each vertex v[i] radially from xi[i] onto the face boundary.

    A vertex already on a bounding plane stays.  Otherwise the first spanned
    axis with the smallest exit time wins, that coordinate is set to the
    bound exactly, and the spanned coordinates are clamped into [lo, hi].
    """
    R = v.shape[0]
    fixed = np.zeros(R, dtype=bool)
    best_t = np.full(R, math.inf)
    best_axis = np.full(R, -1)
    best_bound = np.zeros(R)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in spanned:
            fixed |= (v[:, a] == lo[a]) | (v[:, a] == hi[a])
            d = v[:, a] - xi[:, a]
            up = d > 0.0
            t = np.where(up, (hi[a] - xi[:, a]) / d, (lo[a] - xi[:, a]) / d)
            better = (up | (d < 0.0)) & (t < best_t)
            best_t[better] = t[better]
            best_axis[better] = a
            best_bound[better] = np.where(up, hi[a], lo[a])[better]
        moving = np.flatnonzero(~fixed)
        if np.any(best_axis[moving] < 0):
            raise ValueError("projection center coincides with a content vertex")
        x = xi[moving]
        p = x + best_t[moving, None] * (v[moving] - x)
    p[np.arange(moving.size), best_axis[moving]] = best_bound[moving]
    for a in spanned:
        # min(max(p, lo), hi) with Python's tie rules
        m = np.where(lo[a] > p[:, a], lo[a], p[:, a])
        p[:, a] = np.where(hi[a] < m, hi[a], m)
    out = v.copy()
    out[moving] = p
    return out


def _project_batch(corners: np.ndarray, centers: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray, spanned: list[int], s: float):
    """Radially project one face's content from each of several centers.

    ``corners`` (C, d+1, n) is the content, ``centers`` (M, n).  For every
    center the chunks are split by its cone planes (a plane with a zero
    normal is skipped for that center) and their vertices are mapped onto
    the face boundary.  Returns (images, center_of, source_of): the image
    chunks grouped by center, each center's in chunk-by-chunk order, with
    the center and the input chunk each came from.
    """
    C, v, n = corners.shape
    M = centers.shape[0]
    pts = np.tile(corners, (M, 1, 1))
    center_of = np.repeat(np.arange(M), C)
    source_of = np.tile(np.arange(C), M)
    normals, offsets = _cone_planes(centers, lo, hi, spanned)
    P = normals.shape[1]
    flat = normals.reshape(-1, n)
    norms = np.sqrt(_rowdot(flat, flat)).reshape(M, P)
    snap = 1e-13 * s
    for j in range(P):
        active = ~(norms[center_of, j] <= 0.0)
        c = center_of[active]
        pts, parent = _split_by_plane(pts, active, normals[c, j], offsets[c, j],
                                      snap * norms[c, j])
        center_of = center_of[parent]
        source_of = source_of[parent]
    images = _map_to_boundary(pts.reshape(-1, n), np.repeat(centers[center_of], v, axis=0),
                              lo, hi, spanned)
    return images.reshape(pts.shape), center_of, source_of


def _project_face_content(chunks: list[np.ndarray], xi: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray, spanned: list[int], s: float) -> list[np.ndarray]:
    """Images of ``chunks`` under the radial projection from one center."""
    images, _, _ = _project_batch(np.asarray(chunks, dtype=float), xi[None, :],
                                  lo, hi, spanned, s)
    return list(images)


# ---------------------------------------------------------------------------
# grid-plane splitting and face assignment
# ---------------------------------------------------------------------------

def _split_at_grid_planes(corners: np.ndarray, grid: DyadicGrid, snap: float):
    """Split simplices (S, d+1, n) at every grid plane their bounding box meets.

    Each simplex meets its planes axis by axis, in increasing order, with
    plane coordinates assigned exactly.  Returns (chunks, source_of).
    """
    S, v, n = corners.shape
    chunks = np.array(corners, dtype=float)
    source_of = np.arange(S)
    if S == 0:
        return chunks, source_of
    for a in range(n):
        normal = np.zeros(n)
        normal[a] = 1.0
        rel_lo = (corners[:, :, a].min(axis=1) - grid.corner[a]) / grid.spacing
        rel_hi = (corners[:, :, a].max(axis=1) - grid.corner[a]) / grid.spacing
        p_lo = np.maximum(0, np.ceil(rel_lo - 1e-12)).astype(np.int64)
        p_hi = np.minimum(grid.subdivisions, np.floor(rel_hi + 1e-12)).astype(np.int64)
        for p in range(int(p_lo.min()), int(p_hi.max()) + 1):
            active = (p_lo[source_of] <= p) & (p <= p_hi[source_of])
            m = int(active.sum())
            if m == 0:
                continue
            value = grid.plane_coordinate(a, p)
            tol = max(snap, 1e-12 * (abs(value) + 1.0))
            chunks, parent = _split_by_plane(chunks, active, np.tile(normal, (m, 1)),
                                             np.full(m, value), np.full(m, snap),
                                             exact=(a, value, tol))
            source_of = source_of[parent]
    return chunks, source_of


def _inside_closed_cube(point: np.ndarray, grid: DyadicGrid, slack: float) -> bool:
    lo = grid.corner - slack
    hi = grid.corner + grid.size + slack
    return bool(np.all(point >= lo) and np.all(point <= hi))


def _derive_face(corners: np.ndarray, grid: DyadicGrid, snap: float) -> Optional[CubeFace]:
    """Minimal grid face containing the simplex; snaps near-plane coordinates."""
    n, N, s = grid.ambient_dim, grid.subdivisions, grid.spacing
    mask = 0
    lattice = []
    for a in range(n):
        vals = corners[:, a]
        rel = (vals - grid.corner[a]) / s
        p = int(round(float(rel[0])))
        plane = grid.plane_coordinate(a, p)
        if 0 <= p <= N and np.all(np.abs(vals - plane) <= snap):
            corners[:, a] = plane
            lattice.append(p)
            continue
        mask |= 1 << a
        bary = float(np.mean(rel))
        idx = min(max(int(math.floor(bary)), 0), N - 1)
        lattice.append(idx)
    face = CubeFace(mask, tuple(lattice))
    return face if grid.is_valid(face) else None


def _owner_cell(face: CubeFace, grid: DyadicGrid) -> CubeFace:
    return min(grid.containing_cells(face))


def _canonical_piece(chunk: np.ndarray, face: CubeFace, grid: DyadicGrid,
                     manifold: Optional[FlatManifold], snap: float):
    """Translate a chunk onto its face's canonical representative (periodic axes).

    Returns the (possibly shifted) chunk and its face, re-derived after the
    shift and falling back to the canonical key when re-derivation fails.
    """
    if manifold is None:
        return chunk, face
    canon = manifold.canonical_face(face, grid.subdivisions)
    if canon == face:
        return chunk, face
    chunk = chunk + manifold.canonical_shift(face, grid.subdivisions)
    return chunk, _derive_face(chunk, grid, snap) or canon


# ---------------------------------------------------------------------------
# center selection
# ---------------------------------------------------------------------------

def choose_center(grid: DyadicGrid, face: CubeFace, content: Sequence[Piece],
                  strategy: str = "chebyshev", trials: int = 32,
                  rng: Optional[np.random.Generator] = None) -> tuple[np.ndarray, dict]:
    """Pick a projection center in the concentric half-face.

    ``far``: deterministic sample-grid argmax of the distance to the content
    (ties break to the first sample), reporting the a-priori ratio bound
    (diam(S)/dist)^d.  ``chebyshev``: best of ``trials`` seeded uniform
    samples ranked by exact image measure (ties keep the earliest sample).
    An empty face takes the midpoint with ratio 0 by convention.
    """
    lo, hi = grid.face_bounds(face)
    spanned = [a for a in range(grid.ambient_dim) if face.spans(a)]
    if not spanned:
        raise ValueError("cannot choose a center inside a vertex")
    diam = grid.face_diameter(face)
    half_lo, half_hi = lo.copy(), hi.copy()
    for a in spanned:
        half_lo[a] = lo[a] + 0.25 * grid.spacing
        half_hi[a] = hi[a] - 0.25 * grid.spacing
    center = 0.5 * (half_lo + half_hi)
    if not content:
        return center, {"strategy": strategy, "ratio_bound": 0.0, "clearance": math.inf}
    clearance_min = CLEARANCE_REL * diam

    if strategy == "far":
        g = _FAR_GRID.get(len(spanned), 9)
        axes_pts = [np.linspace(half_lo[a], half_hi[a], g) for a in spanned]
        mesh = np.meshgrid(*axes_pts, indexing="ij")
        pts = np.tile(center, (mesh[0].size, 1))
        for j, a in enumerate(spanned):
            pts[:, a] = mesh[j].ravel()
        dist = _points_to_pieces(pts, content)
        idx = int(np.argmax(dist))
        best = pts[idx]
        d_best = float(dist[idx])
        if d_best < clearance_min:
            raise ValueError("no admissible projection center in the half-face")
        return best, {"strategy": "far", "clearance": d_best,
                      "ratio_bound": (diam / d_best) ** (len(content[0].corners) - 1)}

    if strategy != "chebyshev":
        raise ValueError(f"unknown center strategy {strategy!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    samples = rng.uniform(half_lo, half_hi, size=(max(1, trials), grid.ambient_dim))
    for a in range(grid.ambient_dim):
        if a not in spanned:
            samples[:, a] = lo[a]
    dists = _points_to_pieces(samples, content)
    admissible = np.flatnonzero(~(dists < clearance_min))
    best_xi, best_val, best_clear = None, math.inf, 0.0
    raw = np.array([c.corners for c in content])
    step = max(1, _CENTER_BATCH // len(raw))
    for first in range(0, admissible.size, step):
        group = admissible[first:first + step]
        images, center_of, _ = _project_batch(raw, samples[group], lo, hi, spanned,
                                              grid.spacing)
        vols = _volumes(images)
        ends = np.cumsum(np.bincount(center_of, minlength=group.size)).tolist()
        for i, start, end in zip(group.tolist(), [0] + ends, ends):
            val = float(sum(vols[start:end]))
            if val < best_val - 1e-15:
                best_xi, best_val, best_clear = samples[i], val, float(dists[i])
    if best_xi is None:
        logger.warning("chebyshev center sampling found no admissible candidate; falling back to far")
        return choose_center(grid, face, content, "far", trials, rng)
    return best_xi, {"strategy": "chebyshev", "clearance": best_clear,
                     "trials": int(samples.shape[0]), "image_measure": best_val}


# ---------------------------------------------------------------------------
# pipeline records
# ---------------------------------------------------------------------------

@dataclass
class StageRecord:
    dim: int
    measure_in: float
    measure_out: float
    faces: dict

    @property
    def ratio(self) -> float:
        return self.measure_out / self.measure_in if self.measure_in > 1e-300 else 0.0


@dataclass
class ProjectionResult:
    mesh: EmbeddedMesh
    skeleton_dim: int
    measure_in: float
    measure_out: float
    stages: list
    per_cell: dict
    plan: dict
    error_bound: float = 0.0
    collapse_applied: bool = False
    collapse_report: Optional[dict] = None
    pieces: list = field(default_factory=list, repr=False)
    outside_chunks: list = field(default_factory=list, repr=False)
    outside_mults: list = field(default_factory=list, repr=False)

    def content_measure_by_face(self) -> dict:
        out: dict[CubeFace, float] = {}
        for p, vol in zip(self.pieces, _volumes([p.corners for p in self.pieces])):
            if p.face is None:
                continue
            out[p.face] = out.get(p.face, 0.0) + vol
        return out


def _face_rng(seed: int, stage: int, face: CubeFace) -> np.random.Generator:
    key = (stage & 0xFFFFFFFF, face.axes & 0xFFFFFFFF) + tuple(int(x) & 0xFFFFFFFF for x in face.lattice)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _assemble_mesh(dimension: int, ambient: int, pieces: Sequence[Piece],
                   outside_chunks: Sequence[np.ndarray], outside_mults: Sequence[int]) -> EmbeddedMesh:
    chunks = [np.asarray(c, dtype=float) for c in outside_chunks]
    mults = [int(m) for m in outside_mults]
    for p in pieces:
        chunks.append(p.corners)
        mults.append(p.mult)
    if not chunks:
        return EmbeddedMesh.empty(dimension, ambient)
    base = EmbeddedMesh.from_simplex_list(dimension, chunks, allow_degenerate=True)
    return EmbeddedMesh(dimension, base.vertices, base.simplices,
                        np.array(mults, dtype=np.int64), allow_degenerate=True)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def split_into_grid(mesh: EmbeddedMesh, grid: DyadicGrid,
                    manifold: Optional[FlatManifold] = None):
    """Split a mesh at all grid hyperplanes.

    Returns (pieces, outside_chunks, outside_mults).  Pieces carry exact
    plane coordinates, their minimal face (canonical on periodic axes,
    translating the piece into the canonical representative), and their owner
    cell.  Simplices whose bounding box misses Q are passed through verbatim.
    """
    corners_all = mesh.simplex_corners()
    snap = SNAP_REL * grid.spacing
    lo_q = grid.corner
    hi_q = grid.corner + grid.size
    outside = (np.any(corners_all.max(axis=1) < lo_q - snap, axis=1)
               | np.any(corners_all.min(axis=1) > hi_q + snap, axis=1))
    chunks, source_of = _split_at_grid_planes(corners_all[~outside], grid, snap)
    ends = np.cumsum(np.bincount(source_of, minlength=int((~outside).sum())))
    split_simplices = iter(np.split(chunks, ends[:-1]))
    pieces: list[Piece] = []
    outside_chunks: list[np.ndarray] = []
    outside_mults: list[int] = []
    for i in range(mesh.n_simplices):
        mult = int(mesh.multiplicities[i])
        if outside[i]:
            outside_chunks.append(corners_all[i])
            outside_mults.append(mult)
            continue
        for chunk in next(split_simplices):
            bary = chunk.mean(axis=0)
            if not _inside_closed_cube(bary, grid, snap):
                outside_chunks.append(chunk)
                outside_mults.append(mult)
                continue
            face = _derive_face(chunk, grid, snap)
            if face is None:
                outside_chunks.append(chunk)
                outside_mults.append(mult)
                continue
            chunk, face = _canonical_piece(chunk, face, grid, manifold, snap)
            pieces.append(Piece(chunk, mult, _owner_cell(face, grid), face))
    return pieces, outside_chunks, outside_mults


def project_to_skeleton(mesh: EmbeddedMesh, grid: DyadicGrid, *,
                        eta: Optional[float] = None,
                        strategy: str = "chebyshev",
                        trials: int = 32,
                        seed: int = 0,
                        manifold: Optional[FlatManifold] = None,
                        freeze_boundary: Optional[bool] = None) -> ProjectionResult:
    """Project mesh content onto the d-skeleton of the grid (d = mesh dimension).

    Stages run k = n .. d+1; at each stage every face with content picks a
    center (deterministically seeded per face) and its content is pushed onto
    the face boundary by the exact perspectivity map.  Boundary faces of Q are
    frozen unless the grid is periodic (``manifold`` given).  The result
    carries per-stage and per-cube measure ledgers.
    """
    if mesh.dimension >= grid.ambient_dim:
        raise ValueError("content dimension must be below the grid dimension")
    if mesh.ambient_dim != grid.ambient_dim:
        raise ValueError("mesh and grid ambient dimensions differ")
    if freeze_boundary is None:
        freeze_boundary = manifold is None
    if eta is not None:
        mesh = refine(mesh, eta)
    d = mesh.dimension
    n = grid.ambient_dim
    pieces, outside_chunks, outside_mults = split_into_grid(mesh, grid, manifold)
    measure_in = _pieces_measure(pieces)
    in_by_owner: dict[CubeFace, float] = {}
    for p, vol in zip(pieces, _volumes([p.corners for p in pieces])):
        in_by_owner[p.owner] = in_by_owner.get(p.owner, 0.0) + vol

    snap = SNAP_REL * grid.spacing
    stages: list[StageRecord] = []
    for k in range(n, d, -1):
        groups: dict[CubeFace, list[Piece]] = {}
        passthrough: list[Piece] = []
        for p in pieces:
            if p.face.dim == k and not (freeze_boundary and grid.on_boundary(p.face)):
                groups.setdefault(p.face, []).append(p)
            else:
                passthrough.append(p)
        face_records: dict = {}
        stage_in = 0.0
        stage_out = 0.0
        new_pieces: list[Piece] = list(passthrough)
        for fkey in sorted(groups.keys()):
            batch = groups[fkey]
            lo, hi = grid.face_bounds(fkey)
            spanned = [a for a in range(n) if fkey.spans(a)]
            rng = _face_rng(seed, k, fkey)
            xi, info = choose_center(grid, fkey, batch, strategy, trials, rng)
            raw = np.array([p.corners for p in batch])
            m_in = float(sum(_volumes(raw)))
            images, _, source_of = _project_batch(raw, xi[None, :], lo, hi, spanned,
                                                  grid.spacing)
            mapped_pieces: list[Piece] = []
            for c, i in zip(images, source_of.tolist()):
                c, face = _canonical_piece(c, _derive_face(c, grid, snap) or fkey,
                                           grid, manifold, snap)
                mapped_pieces.append(Piece(c, batch[i].mult, batch[i].owner, face))
            m_out = _pieces_measure(mapped_pieces)
            stage_in += m_in
            stage_out += m_out
            info["center"] = [float(x) for x in xi]
            info["measure_in"] = m_in
            info["measure_out"] = m_out
            info["measured_ratio"] = m_out / m_in if m_in > 1e-300 else 0.0
            face_records[fkey] = info
            new_pieces.extend(mapped_pieces)
        pieces = new_pieces
        stages.append(StageRecord(k, stage_in, stage_out, face_records))

    out_by_owner: dict[CubeFace, float] = {}
    for p, vol in zip(pieces, _volumes([p.corners for p in pieces])):
        out_by_owner[p.owner] = out_by_owner.get(p.owner, 0.0) + vol
    per_cell = {}
    for cell, m_in in sorted(in_by_owner.items()):
        m_out = out_by_owner.get(cell, 0.0)
        per_cell[cell] = {"measure_in": m_in, "measure_out": m_out,
                          "ratio": m_out / m_in if m_in > 1e-300 else 0.0}

    final = _assemble_mesh(d, n, pieces, outside_chunks, outside_mults)
    plan = {"strategy": strategy, "trials": trials, "seed": seed,
            "eta": eta, "freeze_boundary": freeze_boundary,
            "periodic": manifold is not None}
    return ProjectionResult(final, d, measure_in, _pieces_measure(pieces),
                            stages, per_cell, plan, 0.0,
                            pieces=pieces, outside_chunks=outside_chunks,
                            outside_mults=outside_mults)


def skeleton_deviation(result: ProjectionResult, grid: DyadicGrid) -> float:
    """Max distance from any content vertex to its assigned face (0 = exact)."""
    worst = 0.0
    for p in result.pieces:
        lo, hi = grid.face_bounds(p.face)
        over = np.maximum(np.maximum(lo - p.corners, p.corners - hi), 0.0)
        if over.size:
            worst = max(worst, float(np.max(np.linalg.norm(over, axis=1))))
    return worst


def verify_cell_locality(result: ProjectionResult, grid: DyadicGrid) -> tuple[bool, float]:
    """Check H^d(out cap R) <= sum_{R' in V(R)} ratio(R') H^d(in cap R') for all cells.

    Both sides are evaluated geometrically (closed cells; shared boundary
    content counts for every touching cell).  Returns (ok, worst slack).
    """
    out_geo: dict[CubeFace, float] = {}
    for p, vol in zip(result.pieces, _volumes([p.corners for p in result.pieces])):
        for cell in grid.containing_cells(p.face):
            out_geo[cell] = out_geo.get(cell, 0.0) + vol
    per_cell = result.per_cell
    worst = math.inf
    ok = True
    for cell in set(list(out_geo.keys()) + list(per_cell.keys())):
        lhs = out_geo.get(cell, 0.0)
        rhs = 0.0
        for nb in grid.cell_neighbors(cell):
            rec = per_cell.get(nb)
            if rec is not None:
                rhs += rec["ratio"] * rec["measure_in"]
        slack = rhs - lhs
        worst = min(worst, slack)
        if lhs > rhs + 1e-9 * max(1.0, lhs):
            ok = False
    return ok, (0.0 if worst is math.inf else worst)


def extra_collapse(result: ProjectionResult, grid: DyadicGrid, *,
                   manifold: Optional[FlatManifold] = None,
                   strategy: str = "far", trials: int = 32,
                   seed: int = 0) -> ProjectionResult:
    """Collapse sparse interior d-face content onto the (d-1)-skeleton.

    Fires only when *every* interior d-face holding content has content
    measure below (s/2)^d (the measure of the concentric half-face) and
    admits an admissible center; then each face's content is projected onto
    the face boundary, leaving only degenerate (measure-zero) simplices in
    face interiors.  Otherwise the input result is returned unchanged with
    ``collapse_applied`` False and the blocking faces reported.
    """
    d = result.skeleton_dim
    groups: dict[CubeFace, list[int]] = {}
    vols = _volumes([p.corners for p in result.pieces])
    for idx, p in enumerate(result.pieces):
        if p.face.dim == d and not (result.plan.get("freeze_boundary") and grid.on_boundary(p.face)):
            if vols[idx] > 0.0:
                groups.setdefault(p.face, []).append(idx)
    threshold = (grid.spacing / 2.0) ** d
    blockers = []
    centers: dict[CubeFace, np.ndarray] = {}
    for fkey in sorted(groups.keys()):
        batch = [result.pieces[i] for i in groups[fkey]]
        m = _pieces_measure(batch)
        if m >= threshold:
            blockers.append({"face": str(fkey), "reason": "content at least half-face measure",
                             "measure": m})
            continue
        try:
            rng = _face_rng(seed, d, fkey)
            xi, _ = choose_center(grid, fkey, batch, strategy, trials, rng)
        except ValueError:
            blockers.append({"face": str(fkey), "reason": "no admissible center"})
            continue
        centers[fkey] = xi
    if blockers:
        report = {"fired": False, "blockers": blockers}
        return ProjectionResult(result.mesh, d, result.measure_in, result.measure_out,
                                result.stages, result.per_cell, result.plan,
                                result.error_bound, False, report,
                                result.pieces, result.outside_chunks, result.outside_mults)
    snap = SNAP_REL * grid.spacing
    new_pieces = list(result.pieces)
    collapsed = 0.0
    for fkey, idxs in sorted(groups.items()):
        lo, hi = grid.face_bounds(fkey)
        spanned = [a for a in range(grid.ambient_dim) if fkey.spans(a)]
        batch = [result.pieces[i] for i in idxs]
        raw = np.array([p.corners for p in batch])
        images, _, source_of = _project_batch(raw, centers[fkey][None, :], lo, hi, spanned,
                                              grid.spacing)
        replaced: list[list[Piece]] = [[] for _ in batch]
        for c, j in zip(images, source_of.tolist()):
            c, face = _canonical_piece(c, _derive_face(c, grid, snap) or fkey,
                                       grid, manifold, snap)
            replaced[j].append(Piece(c, batch[j].mult, batch[j].owner, face))
        for i, p, vol, rep in zip(idxs, batch, _volumes(raw), replaced):
            collapsed += vol
            new_pieces[i] = rep[0] if rep else Piece(p.corners[:1].repeat(d + 1, 0), p.mult, p.owner, fkey)
            new_pieces.extend(rep[1:])
    final = _assemble_mesh(d, grid.ambient_dim, new_pieces,
                           result.outside_chunks, result.outside_mults)
    report = {"fired": True, "faces": len(groups), "collapsed_measure": collapsed}
    return ProjectionResult(final, d, result.measure_in, _pieces_measure(new_pieces),
                            result.stages, result.per_cell, result.plan,
                            result.error_bound, True, report,
                            new_pieces, result.outside_chunks, result.outside_mults)


def interior_face_measure(result: ProjectionResult, grid: DyadicGrid) -> float:
    """Total content measure sitting in interiors of d-faces (not in lower skeleton)."""
    d = result.skeleton_dim
    total = 0.0
    for p, vol in zip(result.pieces, _volumes([p.corners for p in result.pieces])):
        if p.face.dim == d:
            total += vol
    return total
