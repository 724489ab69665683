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
R').  Each axis has its own boundary rule: on an identified axis face keys
canonicalize and cells wrap, and faces in a wall of any other axis are frozen
(the map is the identity there).  Simplices fully outside Q are returned
verbatim.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .geometry.core import EmbeddedMesh, ordered_sum, refine, row_dots
from .geometry.distance import points_to_simplices
from .grids import CubeFace, DyadicGrid

logger = logging.getLogger(__name__)

#: vertex-to-plane snapping tolerance, relative to the cell side
SNAP_REL = 1e-9

#: required clearance between a projection center and the content it projects
CLEARANCE_REL = 1e-9

#: grid resolutions per face dimension for the deterministic 'far' center search
_FAR_GRID = {1: 65, 2: 17, 3: 9}

#: most center samples per face of the 'chebyshev' search; each face draws a
#: (trials, n) array
MAX_TRIALS = 1 << 12

#: content chunks times centers per kernel call in the 'chebyshev' search;
#: bounds the memory of one call (chunks multiply as the cone planes cut them)
_CENTER_BATCH = 4096


# ---------------------------------------------------------------------------
# content pieces
# ---------------------------------------------------------------------------

@dataclass
class PieceTable:
    """Content simplices as parallel arrays, one row per piece.

    ``corners`` (P, d+1, n), ``mult`` (P,), ``face`` and ``owner`` (P, n+1):
    the minimal grid face and the owner cell as key rows [axes, lattice...],
    whose row order is CubeFace order; ``vol`` (P,) the measure of each
    piece, taken once from its corners when omitted.
    """

    corners: np.ndarray
    mult: np.ndarray
    face: np.ndarray
    owner: np.ndarray
    vol: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.vol is None:
            self.vol = np.array(_volumes(self.corners), dtype=float)

    def __len__(self) -> int:
        return len(self.mult)

    def take(self, rows) -> "PieceTable":
        return PieceTable(self.corners[rows], self.mult[rows], self.face[rows],
                          self.owner[rows], self.vol[rows])

    @staticmethod
    def concat(tables) -> "PieceTable":
        return PieceTable(*(np.concatenate([getattr(t, f.name) for t in tables])
                            for f in fields(PieceTable)))


def _cube_face(key) -> CubeFace:
    return CubeFace(int(key[0]), tuple(int(x) for x in key[1:]))


def _faces_of_dim(keys: np.ndarray, dim: int, grid: DyadicGrid) -> np.ndarray:
    """Rows whose face has dimension ``dim`` and lies in no frozen wall."""
    return (grid.spans(keys).sum(axis=1) == dim) & ~grid.frozen(keys)


def _face_groups(keys: np.ndarray, select: np.ndarray) -> list[tuple[CubeFace, np.ndarray]]:
    """Distinct faces of the selected rows in sorted order, each with its rows in order."""
    rows = np.flatnonzero(select)
    faces, group = np.unique(keys[rows], axis=0, return_inverse=True)
    group = group.reshape(-1)
    members = np.split(rows[np.argsort(group, kind="stable")],
                       np.cumsum(np.bincount(group, minlength=len(faces)))[:-1])
    return [(_cube_face(f), m) for f, m in zip(faces, members)]


def _ledger(keys: np.ndarray, vol: np.ndarray) -> dict:
    """{CubeFace: total measure} per distinct key row, in order of first appearance."""
    groups = sorted(_face_groups(keys, np.ones(len(keys), dtype=bool)), key=lambda g: g[1][0])
    return {face: ordered_sum(vol[rows]) for face, rows in groups}


# ---------------------------------------------------------------------------
# batched convex splitting and radial projection
# ---------------------------------------------------------------------------
#
# Chunks travel as (T, d+1, n) corner arrays.  Every step is a flat map:
# chunk t becomes one or more output chunks, emitted in the order the
# chunk-by-chunk code gives, with ``parent`` naming the chunk each came from.
# The float operations are the scalar ones, element by element, so the
# output is bit-identical to splitting and mapping one chunk at a time.
# Chunks of several faces (or of several trial centers) travel together:
# each chunk names its center, and each center carries its face's bounds.

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
        return np.sqrt(row_dots(u, u)).tolist()
    v = c[:, 2] - c[:, 0]
    g = row_dots(u, u) * row_dots(v, v) - np.array([x ** 2 for x in row_dots(u, v).tolist()])
    return (0.5 * np.sqrt(np.where(0.0 > g, 0.0, g))).tolist()


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

    Without ``exact`` an uncut chunk's tokens are the identity, so only the
    cut chunks go on to the crossings; the others pass through as inactive
    ones do.
    """
    T, v, n = pts.shape
    d = v - 1
    idx = np.flatnonzero(active)
    sub = pts[idx]
    vals = row_dots(np.repeat(normals, v, axis=0), sub.reshape(-1, n)).reshape(-1, v) \
        - offsets[:, None]
    on_plane = np.abs(vals) <= snaps[:, None]
    vals[on_plane] = 0.0
    if exact is not None:
        axis, value, tol = exact
        sub[on_plane, axis] = value
    code = ((np.sign(vals) + 1).astype(np.intp) * 3 ** np.arange(d, -1, -1)).sum(axis=1)
    counts, tokens = _SPLIT[d]
    if exact is None:
        kept = counts[code] > 1
        idx, sub, vals, code = idx[kept], sub[kept], vals[kept], code[kept]
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
            cross_vals = row_dots(np.repeat(normals, v, axis=0), cross.reshape(-1, n)) \
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
    """Planes through each center xi[m] and the (k-2)-faces of the boundary
    of its face, whose bounds are lo[m], hi[m] (M, n).

    Returns normals (M, P, n) and offsets (M, P): P = 4 for k = 2, 12 for
    k = 3, none otherwise.
    """
    M, n = xi.shape
    k = len(spanned)
    normals = []
    if k == 2:
        a0, a1 = spanned
        for ca in (lo[:, a0], hi[:, a0]):
            for cb in (lo[:, a1], hi[:, a1]):
                normal = np.zeros((M, n))
                normal[:, a0] = -(cb - xi[:, a1])
                normal[:, a1] = ca - xi[:, a0]
                normals.append(normal)
    elif k == 3:
        for e in spanned:
            o0, o1 = [a for a in spanned if a != e]
            for c0 in (lo[:, o0], hi[:, o0]):
                for c1 in (lo[:, o1], hi[:, o1]):
                    # u, v run from xi to the two ends of an edge along axis e
                    u3 = np.empty((M, 3))
                    v3 = np.empty((M, 3))
                    for j, a in enumerate(spanned):
                        u_end, v_end = ((lo[:, e], hi[:, e]) if a == e
                                        else (c0, c0) if a == o0 else (c1, c1))
                        u3[:, j] = u_end - xi[:, a]
                        v3[:, j] = v_end - xi[:, a]
                    normal = np.zeros((M, n))
                    normal[:, spanned] = np.cross(u3, v3)
                    normals.append(normal)
    normals = np.stack(normals, axis=1) if normals else np.zeros((M, 0, n))
    P = normals.shape[1]
    offsets = row_dots(normals.reshape(-1, n), np.repeat(xi, P, axis=0)).reshape(M, P)
    return normals, offsets


def _map_to_boundary(v: np.ndarray, xi: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, spanned: list[int]) -> np.ndarray:
    """Push each vertex v[i] radially from xi[i] onto the boundary of the
    face with bounds lo[i], hi[i].

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
            fixed |= (v[:, a] == lo[:, a]) | (v[:, a] == hi[:, a])
            d = v[:, a] - xi[:, a]
            up = d > 0.0
            t = np.where(up, (hi[:, a] - xi[:, a]) / d, (lo[:, a] - xi[:, a]) / d)
            better = (up | (d < 0.0)) & (t < best_t)
            best_t[better] = t[better]
            best_axis[better] = a
            best_bound[better] = np.where(up, hi[:, a], lo[:, a])[better]
        moving = np.flatnonzero(~fixed)
        if np.any(best_axis[moving] < 0):
            raise ValueError("projection center coincides with a content vertex")
        x = xi[moving]
        p = x + best_t[moving, None] * (v[moving] - x)
    p[np.arange(moving.size), best_axis[moving]] = best_bound[moving]
    lo, hi = lo[moving], hi[moving]
    for a in spanned:
        # min(max(p, lo), hi) with Python's tie rules
        m = np.where(lo[:, a] > p[:, a], lo[:, a], p[:, a])
        p[:, a] = np.where(hi[:, a] < m, hi[:, a], m)
    out = v.copy()
    out[moving] = p
    return out


def _project_batch(chunks: np.ndarray, center_of: np.ndarray, centers: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray, spanned: list[int], s: float):
    """Radially project each chunk from its own center onto its face boundary.

    ``chunks`` (T, d+1, n) is the content and ``center_of`` (T,) the center
    of each chunk; ``centers``, ``lo`` and ``hi`` (M, n) are the centers and
    the bounds of the face each projects, every face spanning ``spanned``.
    The chunks are split by their center's cone planes (a plane with a zero
    normal is skipped for that center) and their vertices are mapped onto
    the face boundary.  Returns (images, center_of, source_of): the image
    chunks in chunk-by-chunk order, with the center and the input chunk each
    came from.
    """
    v, n = chunks.shape[1:]
    source_of = np.arange(len(chunks))
    normals, offsets = _cone_planes(centers, lo, hi, spanned)
    M, P = normals.shape[:2]
    flat = normals.reshape(-1, n)
    norms = np.sqrt(row_dots(flat, flat)).reshape(M, P)
    snap = 1e-13 * s
    pts = chunks
    for j in range(P):
        active = ~(norms[center_of, j] <= 0.0)
        c = center_of[active]
        pts, parent = _split_by_plane(pts, active, normals[c, j], offsets[c, j],
                                      snap * norms[c, j])
        center_of = center_of[parent]
        source_of = source_of[parent]
    rows = np.repeat(center_of, v)
    images = _map_to_boundary(pts.reshape(-1, n), centers[rows], lo[rows], hi[rows], spanned)
    return images.reshape(pts.shape), center_of, source_of


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


def _derive_faces(corners: np.ndarray, grid: DyadicGrid) -> np.ndarray:
    """Key row of the minimal grid face of each chunk (R, d+1, n).

    An axis is pinned at the first vertex's nearest plane p in 0..N when
    every vertex lies within the snap of it, and those coordinates are set
    to the plane in place; otherwise the barycenter's cell, clamped into the
    grid, spans it.  So every key is a valid face.
    """
    n, N, s = corners.shape[2], grid.subdivisions, grid.spacing
    snap = SNAP_REL * s
    keys = np.zeros((len(corners), n + 1), dtype=np.int64)
    for a in range(n):
        vals = corners[:, :, a]
        rel = (vals - grid.corner[a]) / s
        p = np.rint(np.clip(rel[:, 0], -1, N + 1)).astype(np.int64)   # clip: no int64 overflow
        plane = grid.corner[a] + p * s
        pinned = (0 <= p) & (p <= N) & np.all(np.abs(vals - plane[:, None]) <= snap, axis=1)
        vals[pinned] = plane[pinned, None]
        cell = np.clip(np.floor(rel.mean(axis=1)), 0, N - 1).astype(np.int64)
        keys[:, 0] |= np.where(pinned, 0, 1 << a)
        keys[:, a + 1] = np.where(pinned, p, cell)
    return keys


def _assign_faces(corners: np.ndarray, grid: DyadicGrid) -> np.ndarray:
    """Face key rows of chunks (R, d+1, n), snapping them in place.  On
    identified axes a chunk on a non-canonical face key moves onto the
    canonical representative and its face is derived again."""
    keys = _derive_faces(corners, grid)
    N = grid.subdivisions
    lat = keys[:, 1:]
    ident = np.array(grid.identified)
    moved = np.any(ident & (lat % N != lat), axis=1)
    shift = np.where(ident, (lat[moved] % N - lat[moved]) * (grid.size / N), 0.0)
    shifted = corners[moved] + shift[:, None, :]
    keys[moved] = _derive_faces(shifted, grid)
    corners[moved] = shifted
    return keys


def _owner_cells(keys: np.ndarray, grid: DyadicGrid) -> np.ndarray:
    """Key row of the lexicographically smallest cell containing each face."""
    lat = keys[:, 1:]
    cells = np.where(grid.spans(keys), lat, np.maximum(lat - 1, 0))
    return np.column_stack([np.full(len(keys), grid.full_mask), cells])


# ---------------------------------------------------------------------------
# center selection
# ---------------------------------------------------------------------------

def choose_center(grid: DyadicGrid, face: CubeFace, content: np.ndarray,
                  strategy: str = "chebyshev", trials: int = 32,
                  rng: Optional[np.random.Generator] = None) -> tuple[np.ndarray, dict]:
    """Pick a projection center in the concentric half-face.

    ``content`` holds the face's pieces as corners (C, d+1, n).
    ``far``: deterministic sample-grid argmax of the distance to the content
    (ties break to the first sample), reporting the a-priori ratio bound
    (diam(S)/dist)^d.  ``chebyshev``: best of ``trials`` seeded uniform
    samples ranked by exact image measure (ties keep the earliest sample).
    An empty face takes the midpoint with ratio 0 by convention.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials {trials} must be at least 1 "
                         f"and not exceed the cap of {MAX_TRIALS}")
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
    if len(content) == 0:
        return center, {"strategy": strategy, "ratio_bound": 0.0, "clearance": math.inf}
    clearance_min = CLEARANCE_REL * diam

    if strategy == "far":
        g = _FAR_GRID.get(len(spanned), 9)
        axes_pts = [np.linspace(half_lo[a], half_hi[a], g) for a in spanned]
        mesh = np.meshgrid(*axes_pts, indexing="ij")
        pts = np.tile(center, (mesh[0].size, 1))
        for j, a in enumerate(spanned):
            pts[:, a] = mesh[j].ravel()
        dist = points_to_simplices(pts, content)
        idx = int(np.argmax(dist))
        best = pts[idx]
        d_best = float(dist[idx])
        if d_best < clearance_min:
            raise ValueError("no admissible projection center in the half-face")
        return best, {"strategy": "far", "clearance": d_best,
                      "ratio_bound": (diam / d_best) ** (content.shape[1] - 1)}

    if strategy != "chebyshev":
        raise ValueError(f"unknown center strategy {strategy!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    samples = rng.uniform(half_lo, half_hi, size=(trials, grid.ambient_dim))
    for a in range(grid.ambient_dim):
        if a not in spanned:
            samples[:, a] = lo[a]
    dists = points_to_simplices(samples, content)
    admissible = np.flatnonzero(~(dists < clearance_min))
    best_xi, best_val, best_clear = None, math.inf, 0.0
    step = max(1, _CENTER_BATCH // len(content))
    for first in range(0, admissible.size, step):
        group = admissible[first:first + step]
        shape = (group.size, grid.ambient_dim)
        images, center_of, _ = _project_batch(
            np.tile(content, (group.size, 1, 1)), np.repeat(np.arange(group.size), len(content)),
            samples[group], np.broadcast_to(lo, shape), np.broadcast_to(hi, shape), spanned,
            grid.spacing)
        vols = _volumes(images)
        ends = np.cumsum(np.bincount(center_of, minlength=group.size)).tolist()
        for i, start, end in zip(group.tolist(), [0] + ends, ends):
            val = ordered_sum(vols[start:end])
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


@dataclass
class ProjectionResult:
    mesh: EmbeddedMesh
    skeleton_dim: int
    measure_in: float
    measure_out: float
    stages: list
    per_cell: dict
    plan: dict
    pieces: PieceTable = field(repr=False)
    outside_chunks: list = field(repr=False)
    outside_mults: list = field(repr=False)
    collapse_applied: bool = False
    collapse_report: Optional[dict] = None

    def content_measure_by_face(self) -> dict:
        return _ledger(self.pieces.face, self.pieces.vol)


def _face_rng(seed: int, stage: int, face: CubeFace) -> np.random.Generator:
    key = (stage & 0xFFFFFFFF, face.axes & 0xFFFFFFFF) + tuple(int(x) & 0xFFFFFFFF for x in face.lattice)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _assemble_mesh(dimension: int, ambient: int, pieces: PieceTable,
                   outside_chunks: list, outside_mults: list) -> EmbeddedMesh:
    chunks = list(outside_chunks) + list(pieces.corners)
    if not chunks:
        return EmbeddedMesh.empty(dimension, ambient)
    mults = list(outside_mults) + pieces.mult.tolist()
    return EmbeddedMesh.from_simplex_list(dimension, chunks, mults, allow_degenerate=True)


def _project_groups(pieces: PieceTable, groups: list, centers: list, grid: DyadicGrid):
    """Image pieces of each face group under the projection from its center,
    group by group and in row order, with mult and owner of their source.
    The faces that span the same axes go through one kernel call.  Returns
    (images, source row of each image, end of each group's images)."""
    n = grid.ambient_dim
    rows = np.concatenate([r for _, r in groups] + [np.zeros(0, dtype=np.intp)])
    group_of = np.repeat(np.arange(len(groups)), [len(r) for _, r in groups])
    keys = pieces.face[[r[0] for _, r in groups]]
    lo, hi = grid.bounds(keys)
    xi = np.array(centers, dtype=float).reshape(-1, n)
    chunks, image_group, sources = [pieces.corners[:0]], [group_of[:0]], [rows[:0]]
    for axes in np.unique(keys[:, 0]).tolist():
        faces = np.flatnonzero(keys[:, 0] == axes)
        batch = np.flatnonzero(keys[group_of, 0] == axes)
        images, center_of, source_of = _project_batch(
            pieces.corners[rows[batch]], np.searchsorted(faces, group_of[batch]), xi[faces],
            lo[faces], hi[faces], [a for a in range(n) if axes >> a & 1], grid.spacing)
        chunks.append(images)
        image_group.append(faces[center_of])
        sources.append(rows[batch[source_of]])
    image_group = np.concatenate(image_group)
    order = np.argsort(image_group, kind="stable")
    corners = np.concatenate(chunks)[order]
    source = np.concatenate(sources)[order]
    face = _assign_faces(corners, grid)
    ends = np.cumsum(np.bincount(image_group, minlength=len(groups))).tolist()
    return PieceTable(corners, pieces.mult[source], face, pieces.owner[source]), source, ends


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def split_into_grid(mesh: EmbeddedMesh, grid: DyadicGrid):
    """Split a mesh at all grid hyperplanes.

    Returns (pieces, outside_chunks, outside_mults).  Pieces carry exact
    plane coordinates, their minimal face (canonical on identified axes,
    translating the piece into the canonical representative), and their owner
    cell.  Simplices whose bounding box misses Q are passed through verbatim,
    and so are chunks whose barycenter misses Q, all in simplex order.
    """
    corners_all = mesh.simplex_corners()
    snap = SNAP_REL * grid.spacing
    lo_q, hi_q = grid.corner, grid.corner + grid.size
    missed = (np.any(corners_all.max(axis=1) < lo_q - snap, axis=1)
              | np.any(corners_all.min(axis=1) > hi_q + snap, axis=1))
    split = np.flatnonzero(~missed)
    chunks, source_of = _split_at_grid_planes(corners_all[split], grid, snap)
    source_of = split[source_of]
    bary = chunks.mean(axis=1)
    inside = np.all((bary >= lo_q - snap) & (bary <= hi_q + snap), axis=1)
    source = np.concatenate([np.flatnonzero(missed), source_of[~inside]])
    order = np.argsort(source, kind="stable")
    outside_chunks = list(np.concatenate([corners_all[missed], chunks[~inside]])[order])
    outside_mults = mesh.multiplicities[source[order]].tolist()
    corners = chunks[inside]
    face = _assign_faces(corners, grid)
    return (PieceTable(corners, mesh.multiplicities[source_of[inside]], face,
                       _owner_cells(face, grid)), outside_chunks, outside_mults)


def project_to_skeleton(mesh: EmbeddedMesh, grid: DyadicGrid, *,
                        eta: Optional[float] = None,
                        strategy: str = "chebyshev",
                        trials: int = 32,
                        seed: int = 0) -> ProjectionResult:
    """Project mesh content onto the d-skeleton of the grid (d = mesh dimension).

    Stages run k = n .. d+1; at each stage every face with content picks a
    center (deterministically seeded per face) and its content is pushed onto
    the face boundary by the exact perspectivity map.  Faces in the walls of
    the axes the grid does not identify are frozen; identified axes are
    glued.  The result carries per-stage and per-cube measure ledgers.
    """
    if mesh.dimension >= grid.ambient_dim:
        raise ValueError("content dimension must be below the grid dimension")
    if mesh.ambient_dim != grid.ambient_dim:
        raise ValueError("mesh and grid ambient dimensions differ")
    if eta is not None:
        mesh = refine(mesh, eta)
    d = mesh.dimension
    n = grid.ambient_dim
    pieces, outside_chunks, outside_mults = split_into_grid(mesh, grid)
    measure_in = ordered_sum(pieces.vol)
    in_by_owner = _ledger(pieces.owner, pieces.vol)

    stages: list[StageRecord] = []
    for k in range(n, d, -1):
        moving = _faces_of_dim(pieces.face, k, grid)
        groups = _face_groups(pieces.face, moving)
        # only the chebyshev search draws samples
        chosen = [choose_center(grid, fkey, pieces.corners[rows], strategy, trials,
                                _face_rng(seed, k, fkey) if strategy == "chebyshev" else None)
                  for fkey, rows in groups]
        images, _, ends = _project_groups(pieces, groups, [xi for xi, _ in chosen], grid)
        face_records = {}
        stage_in = 0.0
        stage_out = 0.0
        for (fkey, rows), (xi, info), start, end in zip(groups, chosen, [0] + ends, ends):
            m_in = ordered_sum(pieces.vol[rows])
            m_out = ordered_sum(images.vol[start:end])
            stage_in += m_in
            stage_out += m_out
            face_records[fkey] = info
            info["center"] = [float(x) for x in xi]
            info["measure_in"] = m_in
            info["measure_out"] = m_out
            info["measured_ratio"] = m_out / m_in if m_in > 1e-300 else 0.0
        pieces = PieceTable.concat([pieces.take(~moving), images])
        stages.append(StageRecord(k, stage_in, stage_out, face_records))

    out_by_owner = _ledger(pieces.owner, pieces.vol)
    per_cell = {}
    for cell, m_in in sorted(in_by_owner.items()):
        m_out = out_by_owner.get(cell, 0.0)
        per_cell[cell] = {"measure_in": m_in, "measure_out": m_out,
                          "ratio": m_out / m_in if m_in > 1e-300 else 0.0}

    final = _assemble_mesh(d, n, pieces, outside_chunks, outside_mults)
    plan = {"strategy": strategy, "trials": trials, "seed": seed,
            "eta": eta, "freeze_boundary": not all(grid.identified),
            "periodic": any(grid.identified)}
    return ProjectionResult(final, d, measure_in, ordered_sum(pieces.vol),
                            stages, per_cell, plan, pieces, outside_chunks, outside_mults)


def skeleton_deviation(result: ProjectionResult, grid: DyadicGrid) -> float:
    """Max distance from any content vertex to its assigned face (0 = exact)."""
    pieces = result.pieces
    lo, hi = grid.bounds(pieces.face)
    over = np.maximum(np.maximum(lo[:, None] - pieces.corners, pieces.corners - hi[:, None]), 0.0)
    return float(np.linalg.norm(over, axis=2).max(initial=0.0))


def _closed_cell_ledger(pieces: PieceTable, grid: DyadicGrid) -> dict:
    """{cell: H^d of the pieces in its closure}: content on a shared cell
    boundary counts for every touching cell."""
    n, N = grid.ambient_dim, grid.subdivisions
    # every piece against the 2**n choices of cell p-1 or p on each pinned
    # axis p, wrapped on identified axes; the valid ones are the cells whose
    # closure holds the piece, each once (p-1 and p are one cell when N = 1)
    glued = np.array(grid.identified)
    spans = grid.spans(pieces.face)[:, None, :]
    upper = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    lat = np.where(spans, pieces.face[:, None, 1:], pieces.face[:, None, 1:] - 1 + upper)
    lat = np.where(glued, lat % N, lat)
    same = spans | (glued & (N == 1))
    valid = np.all((lat >= 0) & (lat < N) & ~(same & (upper == 1)), axis=2)
    cells = np.concatenate([np.full(lat.shape[:2] + (1,), grid.full_mask), lat], axis=2)
    vol = np.broadcast_to(pieces.vol[:, None], valid.shape)
    return _ledger(cells[valid], vol[valid])


def verify_cell_locality(result: ProjectionResult, grid: DyadicGrid) -> tuple[bool, float]:
    """Check H^d(out cap R) <= sum_{R' in V(R)} ratio(R') H^d(in cap R') for all cells.

    Both sides are evaluated geometrically (closed cells, ``_closed_cell_ledger``).
    Returns (ok, worst slack).
    """
    out_geo = _closed_cell_ledger(result.pieces, grid)
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


def extra_collapse(result: ProjectionResult, grid: DyadicGrid) -> ProjectionResult:
    """Collapse sparse interior d-face content onto the (d-1)-skeleton.

    Fires only when *every* interior d-face holding content has content
    measure below (s/2)^d (the measure of the concentric half-face) and
    admits an admissible center of the deterministic ``far`` search; then
    each face's content is projected onto the face boundary, leaving only
    degenerate (measure-zero) simplices in face interiors.  Otherwise the
    input result is returned unchanged with ``collapse_applied`` False and
    the blocking faces reported.
    """
    d = result.skeleton_dim
    pieces = result.pieces
    moving = _faces_of_dim(pieces.face, d, grid) & (pieces.vol > 0.0)
    groups = _face_groups(pieces.face, moving)
    threshold = (grid.spacing / 2.0) ** d
    blockers = []
    centers = []
    for fkey, rows in groups:
        m = ordered_sum(pieces.vol[rows])
        if m >= threshold:
            blockers.append({"face": str(fkey), "reason": "content at least half-face measure",
                             "measure": m})
            continue
        try:
            xi, _ = choose_center(grid, fkey, pieces.corners[rows], "far")
        except ValueError:
            blockers.append({"face": str(fkey), "reason": "no admissible center"})
            continue
        centers.append(xi)
    if blockers:
        return replace(result, collapse_applied=False,
                       collapse_report={"fired": False, "blockers": blockers})
    images, source, _ = _project_groups(pieces, groups, centers, grid)
    # a source's first image takes its row; the other images are appended
    first = np.diff(source, prepend=-1) != 0
    rows = np.arange(len(pieces))
    rows[source[first]] = len(pieces) + np.flatnonzero(first)
    rows = np.r_[rows, len(pieces) + np.flatnonzero(~first)]
    new_pieces = PieceTable.concat([pieces, images]).take(rows)
    collapsed = ordered_sum(pieces.vol[source[first]])
    final = _assemble_mesh(d, grid.ambient_dim, new_pieces,
                           result.outside_chunks, result.outside_mults)
    report = {"fired": True, "faces": len(groups), "collapsed_measure": collapsed}
    return replace(result, mesh=final, measure_out=ordered_sum(new_pieces.vol),
                   collapse_applied=True, collapse_report=report, pieces=new_pieces)


def interior_face_measure(result: ProjectionResult, grid: DyadicGrid) -> float:
    """Total content measure in the interiors of the d-faces that
    ``extra_collapse`` may move: not in the lower skeleton, nor in a frozen wall."""
    pieces = result.pieces
    return ordered_sum(pieces.vol[_faces_of_dim(pieces.face, result.skeleton_dim, grid)])
