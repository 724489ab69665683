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

from .geometry.core import EmbeddedMesh, ordered_sum, ordered_sums, refine, row_dots
from .geometry.distance import BOUND_MARGIN, stacked_points_to_simplices
from .grids import CubeFace, DyadicGrid

logger = logging.getLogger(__name__)

#: vertex-to-plane snapping tolerance, relative to the cell side
SNAP_REL = 1e-9

#: required clearance between a projection center and the content it projects
CLEARANCE_REL = 1e-9

#: grid resolutions per face dimension for the deterministic 'far' center search
_FAR_GRID = {1: 65, 2: 17, 3: 9}

#: most 'far' samples held at once: a stage's faces go through the search in
#: blocks of this many grid samples
_FAR_SAMPLES = 1 << 17

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


def face_groups(keys: np.ndarray, select: np.ndarray) -> list[tuple[CubeFace, np.ndarray]]:
    """Distinct faces of the selected rows in sorted order, each with its rows
    in order: one stable lexsort, cut where the key row changes."""
    rows = np.flatnonzero(select)
    rows = rows[np.lexsort(keys[rows].T[::-1])]
    ordered = keys[rows]
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)][:len(rows)])
    return [(_cube_face(f), m) for f, m in zip(ordered[starts], np.split(rows, starts[1:]))]


def _ledger(keys: np.ndarray, vol: np.ndarray) -> dict:
    """{CubeFace: total measure} per distinct key row, in order of first appearance."""
    groups = face_groups(keys, np.ones(len(keys), dtype=bool))
    pairs = zip(groups, _group_sums(vol, groups).tolist())
    return {face: m for (face, _), m in sorted(pairs, key=lambda p: p[0][1][0])}


def _group_sums(vol: np.ndarray, groups: list) -> np.ndarray:
    """``ordered_sum`` of ``vol`` over each group's rows."""
    rows = [r for _, r in groups]
    return ordered_sums(vol[np.concatenate([np.zeros(0, np.intp), *rows])], [len(r) for r in rows])


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
    above = vals > snaps[:, None]
    below = vals < -snaps[:, None]
    if exact is not None:
        axis, value, tol = exact
        sub[~(above | below), axis] = value
    sign = above.view(np.int8) - below.view(np.int8)
    code = np.full(len(sign), 3 ** v // 2)
    for i in range(v):
        code += sign[:, i] * 3 ** (d - i)
    counts, tokens = _SPLIT[d]
    if exact is None:
        kept = np.flatnonzero(counts[code] > 1)
        idx, sub, vals, above, below, code = (idx[kept], sub[kept], vals[kept], above[kept],
                                              below[kept], code[kept])
    i0 = np.arange(1 if d == 1 else v)          # edge i runs from i0[i] to i1[i]
    i1 = (i0 + 1) % v
    sp, sq = vals[:, i0], vals[:, i1]
    crossing = (below[:, i0] & above[:, i1]) | (below[:, i1] & above[:, i0])
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
    n_out[idx] = made = counts[code]
    out = np.repeat(pts, n_out, axis=0)
    # the rows made from the split chunks: chunk r's slots 0 .. made[r] - 1
    r = np.repeat(np.arange(idx.size), made)
    slot = np.arange(r.size) - np.repeat(np.cumsum(made) - made, made)
    at = np.repeat((np.cumsum(n_out) - n_out)[idx], made) + slot
    out[at] = ext[r[:, None], tokens[code[r], slot]]
    return out, np.repeat(np.arange(T), n_out)


#: bound (0 lo, 1 hi) of each spanned axis at both ends of the 12 edges, in plane order
_EDGE_ENDS = np.array([[[end if j == e else (c0, c1)[j - (j > e)] for j in range(3)]
                        for end in (0, 1)]
                       for e in range(3) for c0 in (0, 1) for c1 in (0, 1)])


def _cone_planes(xi: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 spanned: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Planes through each center xi[m] and the (k-2)-faces of the boundary
    of its face, whose bounds are lo[m], hi[m] (M, n).

    Returns normals (M, P, n) and offsets (M, P): P = 4 for k = 2, 12 for
    k = 3 (the cross products of the vectors from xi to each edge's ends,
    in one call), none otherwise.
    """
    M, n = xi.shape
    # ends[m, b, j]: bound b of spanned axis j, seen from xi[m]
    ends = np.stack([lo, hi], axis=1)[:, :, spanned] - xi[:, None, spanned]
    normals = np.zeros((M, {2: 4, 3: 12}.get(len(spanned), 0), n))
    if len(spanned) == 2:
        normals[:, :, spanned[0]] = -np.tile(ends[:, :, 1], 2)
        normals[:, :, spanned[1]] = np.repeat(ends[:, :, 0], 2, axis=1)
    elif len(spanned) == 3:
        uv = ends[:, _EDGE_ENDS, np.arange(3)]
        normals[:, :, spanned] = np.cross(uv[:, :, 0], uv[:, :, 1])
    return normals, row_dots(normals, xi[:, None])


def _map_to_boundary(v: np.ndarray, center_of: np.ndarray, xi: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, spanned: list[int]) -> np.ndarray:
    """Push each vertex v[i] radially from its center xi[center_of[i]] onto
    the boundary of that center's face, whose bounds are lo, hi (M, n).

    A vertex already on a bounding plane stays.  Otherwise the first spanned
    axis with the smallest exit time wins, that coordinate is set to the
    bound exactly, and the spanned coordinates are clamped into [lo, hi].
    """
    R = v.shape[0]
    fixed = np.zeros(R, dtype=bool)
    best_t, best_axis, best_bound = np.full(R, math.inf), np.full(R, -1), np.zeros(R)
    bounds, x = [], xi[center_of]
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in spanned:
            lo_a, hi_a = lo[center_of, a], hi[center_of, a]
            bounds.append((a, lo_a, hi_a))
            fixed |= (v[:, a] == lo_a) | (v[:, a] == hi_a)
            d = v[:, a] - x[:, a]
            up = d > 0.0
            bound = np.where(up, hi_a, lo_a)
            t = (bound - x[:, a]) / d
            better = (up | (d < 0.0)) & (t < best_t)
            np.copyto(best_t, t, where=better)
            np.copyto(best_axis, a, where=better)
            np.copyto(best_bound, bound, where=better)
        if np.any(best_axis[~fixed] < 0):
            raise ValueError("projection center coincides with a content vertex")
        # every row is mapped; the fixed ones take their vertex back at the end
        p = x + best_t[:, None] * (v - x)
    p[np.arange(R), best_axis] = best_bound
    for a, lo_a, hi_a in bounds:
        # min(max(p, lo), hi) with Python's tie rules
        m = np.where(lo_a > p[:, a], lo_a, p[:, a])
        p[:, a] = np.where(hi_a < m, hi_a, m)
    np.copyto(p, v, where=fixed[:, None])
    return p


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
    norms = np.sqrt(row_dots(normals, normals))
    snap = 1e-13 * s
    for j in range(normals.shape[1]):
        active = ~(norms[center_of, j] <= 0.0)
        c = center_of[active]
        chunks, parent = _split_by_plane(chunks, active, normals[c, j], offsets[c, j],
                                         snap * norms[c, j])
        center_of = center_of[parent]
        source_of = source_of[parent]
    images = _map_to_boundary(chunks.reshape(-1, n), np.repeat(center_of, v), centers, lo, hi,
                              spanned)
    return images.reshape(chunks.shape), center_of, source_of


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
        normal = np.eye(n)[a]
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
    steps = (grid.canonical(keys) - keys)[:, 1:]
    moved = steps.any(axis=1)
    shifted = corners[moved] + (steps[moved] * grid.spacing)[:, None, :]
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

def _stage_distances(corners: np.ndarray, starts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(F, P) distance from each face's points (F, P, n) to its pieces, the
    rows of ``corners`` (S, d+1, n) from ``starts[f]`` to the next face's
    start: one stacked kernel over every (piece, point) pair."""
    face_of = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(corners)]))
    return np.minimum.reduceat(stacked_points_to_simplices(points, face_of, corners), starts)


def _far_centers(corners: np.ndarray, starts: np.ndarray, spanned: np.ndarray,
                 half_lo: np.ndarray, half_hi: np.ndarray) -> tuple:
    """Per face, the sample-grid argmax of the distance to its pieces (ties
    to the first sample) and that distance.

    The samples are a g^k grid in the half-face.  The distance to the content
    is 1-Lipschitz, so the even-index sub-grid is measured first: its maximum
    M bounds the argmax from below, and a sample whose coarse cell's corners
    e give min f(e) + |s - e| below M, by more than a float margin, lies
    strictly below the maximum and is not measured.  Every measured sample
    gets the kernel's float, so the argmax is the full grid's.
    """
    F, k = spanned.shape
    g = _FAR_GRID.get(k, 9)
    index = np.indices((g,) * k).reshape(k, -1).T            # the grid's samples in ij order
    ticks = np.linspace(np.take_along_axis(half_lo, spanned, 1),
                        np.take_along_axis(half_hi, spanned, 1), g, axis=-1)
    center = 0.5 * (half_lo + half_hi)

    def at(face, sample):
        """Coordinates of sample ``sample[i]`` of face ``face[i]``."""
        p = center[face]
        for j in range(k):
            p[np.arange(len(face)), spanned[face, j]] = ticks[face, j, index[sample, j]]
        return p

    odd = index & 1
    fine = np.flatnonzero(odd.any(axis=1))
    even = np.flatnonzero(~odd.any(axis=1))
    grid_pts = at(np.repeat(np.arange(F), len(even)), np.tile(even, F)).reshape(F, len(even), -1)
    coarse = _stage_distances(corners, starts, grid_pts)
    # a fine sample's coarse cell has the corners one step down or up on each odd axis
    nearest = np.full((F, len(fine)), math.inf)
    for shift in np.indices((2,) * k).reshape(k, -1).T * 2 - 1:
        cell = (index[fine] + odd[fine] * shift) // 2
        np.minimum(nearest, coarse[:, np.ravel_multi_index(tuple(cell.T), ((g + 1) // 2,) * k)],
                   out=nearest)
    step = (half_hi - half_lo).max() / (g - 1)
    margin = BOUND_MARGIN * max(np.abs(grid_pts).max(), np.abs(corners).max())
    nearest += np.sqrt(odd[fine].sum(axis=1)) * step + margin
    face_of, sample = np.nonzero(nearest >= coarse.max(axis=1)[:, None])
    sample = fine[sample]
    dist = np.full((F, len(index)), -math.inf)
    dist[:, even] = coarse
    if face_of.size:
        counts = np.diff(np.r_[starts, len(corners)])[face_of]
        first = np.cumsum(counts) - counts
        rep = np.repeat(np.arange(face_of.size), counts)
        piece = starts[face_of][rep] + np.arange(rep.size) - first[rep]
        pair = stacked_points_to_simplices(at(face_of, sample)[:, None], rep, corners[piece])
        dist[face_of, sample] = np.minimum.reduceat(pair[:, 0], first)
    faces = np.arange(F)
    idx = dist.argmax(axis=1)
    return at(faces, idx), dist[faces, idx]


def choose_center(grid: DyadicGrid, corners: np.ndarray, groups: list,
                  strategy: str = "chebyshev", trials: int = 32,
                  rngs: Optional[list] = None) -> list:
    """Pick a projection center in the concentric half-face of each face of a stage.

    ``groups`` are the stage's faces, all of one dimension, each
    ``(CubeFace, rows)`` with the rows of its pieces (at least one) in ``corners``
    (S, d+1, n).  Returns one ``(center, info)`` per face, or None for a
    face with no admissible center.  ``far``: deterministic sample-grid
    argmax of the distance to the content (ties break to the first sample),
    reporting the a-priori ratio bound (diam(S)/dist)^d.  ``chebyshev``: best
    of ``trials`` uniform samples from the face's generator in ``rngs``,
    ranked by exact image measure (ties keep the earliest sample); a face
    none of whose samples clears the content falls back to ``far``.  The
    distances of a stage go through a few stacked kernel calls.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials {trials} must be at least 1 "
                         f"and not exceed the cap of {MAX_TRIALS}")
    if strategy not in ("far", "chebyshev"):
        raise ValueError(f"unknown center strategy {strategy!r}")
    if not groups:
        return []
    sizes = [len(rows) for _, rows in groups]
    if 0 in sizes:
        raise ValueError("every face of a stage must hold at least one piece")
    keys = grid.key_rows([face for face, _ in groups])
    mask = grid.spans(keys)
    if not mask.any():
        raise ValueError("cannot choose a center inside a vertex")
    lo, hi = grid.bounds(keys)
    half_lo = np.where(mask, lo + 0.25 * grid.spacing, lo)
    half_hi = np.where(mask, hi - 0.25 * grid.spacing, hi)
    spanned = np.nonzero(mask)[1].reshape(len(keys), -1)
    starts = np.cumsum(sizes) - sizes
    content = corners[np.concatenate([rows for _, rows in groups])]
    diam = grid.face_diameter(groups[0][0])
    clearance_min = CLEARANCE_REL * diam

    def far(faces: list) -> list:
        out = []
        block = max(1, _FAR_SAMPLES // _FAR_GRID.get(spanned.shape[1], 9) ** spanned.shape[1])
        for first in range(0, len(faces), block):
            sub = faces[first:first + block]
            rows = np.concatenate([np.arange(starts[f], starts[f] + sizes[f]) for f in sub])
            xi, clear = _far_centers(content[rows], np.cumsum([0] + [sizes[f] for f in sub[:-1]]),
                                     spanned[sub], half_lo[sub], half_hi[sub])
            out += [None if c < clearance_min else
                    (x, {"strategy": "far", "clearance": c,
                         "ratio_bound": (diam / c) ** (corners.shape[1] - 1)})
                    for x, c in zip(xi, clear.tolist())]
        return out

    if strategy == "far":
        return far(list(range(len(groups))))

    if rngs is None:
        rngs = [np.random.default_rng(0) for _ in groups]
    n = grid.ambient_dim
    samples = np.stack([rng.uniform(half_lo[f], half_hi[f], size=(trials, n))
                        for f, rng in enumerate(rngs)])
    samples = np.where(mask[:, None], samples, lo[:, None])
    dists = _stage_distances(content, starts, samples)
    chosen, fallback = [], []
    for f, (size, start) in enumerate(zip(sizes, starts.tolist())):
        face_content = content[start:start + size]
        admissible = np.flatnonzero(~(dists[f] < clearance_min))
        best_xi, best_val, best_clear = None, math.inf, 0.0
        step = max(1, _CENTER_BATCH // size)
        for first in range(0, admissible.size, step):
            group = admissible[first:first + step]
            lo_f, hi_f = (np.broadcast_to(b[f], (group.size, n)) for b in (lo, hi))
            images, center_of, _ = _project_batch(
                np.tile(face_content, (group.size, 1, 1)), np.repeat(np.arange(group.size), size),
                samples[f, group], lo_f, hi_f, spanned[f].tolist(), grid.spacing)
            vals = ordered_sums(_volumes(images), np.bincount(center_of, minlength=group.size))
            for i, val in zip(group.tolist(), vals.tolist()):
                if val < best_val - 1e-15:
                    best_xi, best_val, best_clear = samples[f, i], val, float(dists[f, i])
        if best_xi is None:
            logger.warning("chebyshev center sampling found no admissible candidate; "
                           "falling back to far")
            fallback.append(f)
        chosen.append((best_xi, {"strategy": "chebyshev", "clearance": best_clear,
                                 "trials": trials, "image_measure": best_val}))
    for f, pick in zip(fallback, far(fallback)):
        chosen[f] = pick
    return chosen


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
    skeleton_dim: int
    measure_in: float
    measure_out: float
    stages: list
    per_cell: dict
    plan: dict
    pieces: PieceTable = field(repr=False)
    outside_chunks: np.ndarray = field(repr=False)
    outside_mults: np.ndarray = field(repr=False)
    collapse_applied: bool = False
    collapse_report: Optional[dict] = None

    def content_measure_by_face(self) -> dict:
        return _ledger(self.pieces.face, self.pieces.vol)

    @property
    def mesh(self) -> EmbeddedMesh:
        """The projected content: the outside chunks, then the pieces."""
        return EmbeddedMesh(self.skeleton_dim,
                            np.concatenate([self.outside_chunks, self.pieces.corners]),
                            np.concatenate([self.outside_mults, self.pieces.mult]),
                            allow_degenerate=True)


def _face_rng(seed: int, stage: int, face: CubeFace) -> np.random.Generator:
    key = (stage & 0xFFFFFFFF, face.axes & 0xFFFFFFFF) + tuple(int(x) & 0xFFFFFFFF for x in face.lattice)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


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

    Returns (pieces, outside_chunks, outside_mults), the outside content as a
    (K, d+1, n) corner array and its (K,) multiplicities.  Pieces carry exact
    plane coordinates, their minimal face (canonical on identified axes,
    translating the piece into the canonical representative), and their owner
    cell.  Simplices whose bounding box misses Q are passed through verbatim,
    and so are chunks whose barycenter misses Q, all in simplex order.
    """
    corners_all = mesh.corners
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
    outside_chunks = np.concatenate([corners_all[missed], chunks[~inside]])[order]
    outside_mults = mesh.multiplicities[source[order]]
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
    pieces, outside_chunks, outside_mults = split_into_grid(mesh, grid)
    measure_in = ordered_sum(pieces.vol)
    in_by_owner = _ledger(pieces.owner, pieces.vol)

    stages: list[StageRecord] = []
    for k in range(grid.ambient_dim, d, -1):
        moving = _faces_of_dim(pieces.face, k, grid)
        groups = face_groups(pieces.face, moving)
        # only the chebyshev search draws samples
        rngs = [_face_rng(seed, k, fkey) for fkey, _ in groups] if strategy == "chebyshev" else None
        chosen = choose_center(grid, pieces.corners, groups, strategy, trials, rngs)
        if None in chosen:
            raise ValueError("no admissible projection center in the half-face")
        images, _, ends = _project_groups(pieces, groups, [xi for xi, _ in chosen], grid)
        measures_in = _group_sums(pieces.vol, groups)
        measures_out = ordered_sums(images.vol, np.diff(ends, prepend=0))
        for (xi, info), m_in, m_out in zip(chosen, measures_in.tolist(), measures_out.tolist()):
            info.update(center=[float(x) for x in xi], measure_in=m_in, measure_out=m_out,
                        measured_ratio=m_out / m_in if m_in > 1e-300 else 0.0)
        face_records = {fkey: info for (fkey, _), (_, info) in zip(groups, chosen)}
        pieces = PieceTable.concat([pieces.take(~moving), images])
        stages.append(StageRecord(k, ordered_sum(measures_in), ordered_sum(measures_out),
                                  face_records))

    out_by_owner = _ledger(pieces.owner, pieces.vol)
    per_cell = {}
    for cell, m_in in sorted(in_by_owner.items()):
        m_out = out_by_owner.get(cell, 0.0)
        per_cell[cell] = {"measure_in": m_in, "measure_out": m_out,
                          "ratio": m_out / m_in if m_in > 1e-300 else 0.0}

    plan = {"strategy": strategy, "trials": trials, "seed": seed,
            "eta": eta, "freeze_boundary": not all(grid.identified),
            "periodic": any(grid.identified)}
    return ProjectionResult(d, measure_in, ordered_sum(pieces.vol),
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
    cells, valid = grid.closure_cells(pieces.face)
    vol = np.broadcast_to(pieces.vol[:, None], valid.shape)
    return _ledger(cells[valid], vol[valid])


def verify_cell_locality(result: ProjectionResult, grid: DyadicGrid) -> tuple[bool, float]:
    """Check H^d(out cap R) <= sum_{R' in V(R)} ratio(R') H^d(in cap R') for all cells.

    Both sides are evaluated geometrically (closed cells, ``_closed_cell_ledger``).
    Returns (ok, worst slack).
    """
    out_geo = _closed_cell_ledger(result.pieces, grid)
    per_cell = result.per_cell
    ok, worst = True, math.inf
    for cell in out_geo.keys() | per_cell.keys():
        lhs = out_geo.get(cell, 0.0)
        rhs = ordered_sum([rec["ratio"] * rec["measure_in"] for nb in grid.cell_neighbors(cell)
                           if (rec := per_cell.get(nb)) is not None])
        worst = min(worst, rhs - lhs)
        ok = ok and not lhs > rhs + 1e-9 * max(1.0, lhs)
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
    groups = face_groups(pieces.face, moving)
    threshold = (grid.spacing / 2.0) ** d
    measures = _group_sums(pieces.vol, groups).tolist()
    chosen = iter(choose_center(grid, pieces.corners,
                                [g for g, m in zip(groups, measures) if m < threshold], "far"))
    blockers, centers = [], []
    for (fkey, _), m in zip(groups, measures):
        if m >= threshold:
            blockers.append({"face": str(fkey), "reason": "content at least half-face measure",
                             "measure": m})
            continue
        pick = next(chosen)
        if pick is None:
            blockers.append({"face": str(fkey), "reason": "no admissible center"})
            continue
        centers.append(pick[0])
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
    report = {"fired": True, "faces": len(groups), "collapsed_measure": collapsed}
    return replace(result, measure_out=ordered_sum(new_pieces.vol),
                   collapse_applied=True, collapse_report=report, pieces=new_pieces)


def interior_face_measure(result: ProjectionResult, grid: DyadicGrid) -> float:
    """Total content measure in the interiors of the d-faces that
    ``extra_collapse`` may move: not in the lower skeleton, nor in a frozen wall."""
    pieces = result.pieces
    return ordered_sum(pieces.vol[_faces_of_dim(pieces.face, result.skeleton_dim, grid)])
