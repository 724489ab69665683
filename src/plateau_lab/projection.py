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


def _chunk_volume(corners: np.ndarray) -> float:
    if corners.shape[0] == 2:
        return float(np.linalg.norm(corners[1] - corners[0]))
    u = corners[1] - corners[0]
    v = corners[2] - corners[0]
    g = float(u @ u) * float(v @ v) - float(u @ v) ** 2
    return 0.5 * math.sqrt(max(g, 0.0))


def _pieces_measure(pieces: Sequence[Piece]) -> float:
    return float(sum(_chunk_volume(p.corners) for p in pieces))


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
# convex splitting
# ---------------------------------------------------------------------------

def _split_cycle(pts: list[np.ndarray], vals: list[float]):
    """Split a convex vertex cycle by the zero set of linear values.

    Returns (below_cycle, above_cycle); on-plane vertices (val == 0) belong
    to both.  Degenerate outputs (< d+1 distinct points) are dropped later.
    """
    below: list[np.ndarray] = []
    above: list[np.ndarray] = []
    m = len(pts)
    for i in range(m):
        p, sp = pts[i], vals[i]
        q, sq = pts[(i + 1) % m], vals[(i + 1) % m]
        if sp <= 0.0:
            below.append(p)
        if sp >= 0.0:
            above.append(p)
        if (sp < 0.0 < sq) or (sq < 0.0 < sp):
            t = sp / (sp - sq)
            x = p + t * (q - p)
            below.append(x)
            above.append(x)
    return below, above


def _cycle_to_chunks(cycle: list[np.ndarray], d: int) -> list[np.ndarray]:
    if d == 1:
        if len(cycle) < 2:
            return []
        return [np.array([cycle[0], cycle[-1]])]
    out = []
    for i in range(1, len(cycle) - 1):
        out.append(np.array([cycle[0], cycle[i], cycle[i + 1]]))
    return out


def _split_chunk_by_plane(corners: np.ndarray, normal: np.ndarray, offset: float,
                          snap: float, exact_axis: Optional[int] = None,
                          exact_value: float = 0.0):
    """Split one simplex by {normal . x == offset}.

    Values within ``snap`` of the plane are treated as on-plane, and when
    ``exact_axis`` is given (axis-aligned planes) every on-plane or crossing
    vertex gets that coordinate assigned exactly.
    """
    d = corners.shape[0] - 1
    pts = [corners[i].copy() for i in range(d + 1)]
    vals = []
    for p in pts:
        v = float(normal @ p) - offset
        if abs(v) <= snap:
            v = 0.0
            if exact_axis is not None:
                p[exact_axis] = exact_value
        vals.append(v)
    if all(v <= 0.0 for v in vals):
        return [np.array(pts)], []
    if all(v >= 0.0 for v in vals):
        return [], [np.array(pts)]
    if d == 1:
        # strict sign change: one crossing point (exact-assigned below)
        p, q = pts
        sp, sq = vals
        t = sp / (sp - sq)
        x = p + t * (q - p)
        if exact_axis is not None:
            x[exact_axis] = exact_value
        if sp < 0.0:
            return [np.array([p, x])], [np.array([x, q])]
        return [np.array([x, q])], [np.array([p, x])]
    below_c, above_c = _split_cycle(pts, vals)
    if exact_axis is not None:
        for cyc in (below_c, above_c):
            for p in cyc:
                if abs(float(normal @ p) - offset) <= max(snap, 1e-12 * (abs(offset) + 1.0)):
                    p[exact_axis] = exact_value
    below = [c for c in _cycle_to_chunks(below_c, d)]
    above = [c for c in _cycle_to_chunks(above_c, d)]
    return below, above


def _split_chunks_collect(chunks: list[np.ndarray], normal, offset, snap,
                          exact_axis=None, exact_value=0.0) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for c in chunks:
        below, above = _split_chunk_by_plane(c, normal, offset, snap, exact_axis, exact_value)
        out.extend(below)
        out.extend(above)
    return out


# ---------------------------------------------------------------------------
# grid-plane splitting and face assignment
# ---------------------------------------------------------------------------

def _split_at_grid_planes(corners: np.ndarray, grid: DyadicGrid, snap: float) -> list[np.ndarray]:
    n = grid.ambient_dim
    chunks = [np.array(corners, dtype=float)]
    for a in range(n):
        axis_normal = np.zeros(n)
        axis_normal[a] = 1.0
        lo = min(float(c[a]) for c in corners)
        hi = max(float(c[a]) for c in corners)
        p_lo = max(0, int(math.ceil((lo - grid.corner[a]) / grid.spacing - 1e-12)))
        p_hi = min(grid.subdivisions, int(math.floor((hi - grid.corner[a]) / grid.spacing + 1e-12)))
        for p in range(p_lo, p_hi + 1):
            value = grid.plane_coordinate(a, p)
            chunks = _split_chunks_collect(chunks, axis_normal, value, snap,
                                           exact_axis=a, exact_value=value)
    return chunks


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
# exact radial projection within one face
# ---------------------------------------------------------------------------

def _cone_planes(xi: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 spanned: list[int]) -> list[tuple[np.ndarray, float]]:
    n = xi.size
    k = len(spanned)
    planes: list[tuple[np.ndarray, float]] = []
    if k == 2:
        a0, a1 = spanned
        for ca in (lo[a0], hi[a0]):
            for cb in (lo[a1], hi[a1]):
                normal = np.zeros(n)
                normal[a0] = -(cb - xi[a1])
                normal[a1] = ca - xi[a0]
                planes.append((normal, float(normal @ xi)))
    elif k == 3:
        for e in spanned:
            others = [a for a in spanned if a != e]
            for c0 in (lo[others[0]], hi[others[0]]):
                for c1 in (lo[others[1]], hi[others[1]]):
                    p1 = xi.copy()
                    p1[others[0]] = c0
                    p1[others[1]] = c1
                    p2 = p1.copy()
                    p1[e] = lo[e]
                    p2[e] = hi[e]
                    u = p1 - xi
                    v = p2 - xi
                    u3 = np.array([u[a] for a in spanned])
                    v3 = np.array([v[a] for a in spanned])
                    n3 = np.cross(u3, v3)
                    normal = np.zeros(n)
                    for j, a in enumerate(spanned):
                        normal[a] = n3[j]
                    planes.append((normal, float(normal @ xi)))
    return planes


def _map_vertex_to_boundary(v: np.ndarray, xi: np.ndarray, lo: np.ndarray,
                            hi: np.ndarray, spanned: list[int]) -> np.ndarray:
    for a in spanned:
        if v[a] == lo[a] or v[a] == hi[a]:
            return v.copy()
    best_t = math.inf
    best_axis = -1
    best_bound = 0.0
    for a in spanned:
        d = v[a] - xi[a]
        if d > 0.0:
            t = (hi[a] - xi[a]) / d
            bound = hi[a]
        elif d < 0.0:
            t = (lo[a] - xi[a]) / d
            bound = lo[a]
        else:
            continue
        if t < best_t:
            best_t, best_axis, best_bound = t, a, bound
    if best_axis < 0:
        raise ValueError("projection center coincides with a content vertex")
    p = xi + best_t * (v - xi)
    p[best_axis] = best_bound
    for a in spanned:
        p[a] = min(max(p[a], lo[a]), hi[a])
    return p


def _project_face_content(chunks: list[np.ndarray], xi: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray, spanned: list[int], s: float) -> list[np.ndarray]:
    snap = 1e-13 * s
    pieces = list(chunks)
    for normal, offset in _cone_planes(xi, lo, hi, spanned):
        norm = float(np.linalg.norm(normal))
        if norm <= 0.0:
            continue
        pieces = _split_chunks_collect(pieces, normal, offset, snap * norm)
    out = []
    for c in pieces:
        mapped = np.array([_map_vertex_to_boundary(v, xi, lo, hi, spanned) for v in c])
        out.append(mapped)
    return out


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
    raw = [c.corners for c in content]
    best_xi, best_val, best_clear = None, math.inf, 0.0
    for i in range(samples.shape[0]):
        if dists[i] < clearance_min:
            continue
        imgs = _project_face_content(raw, samples[i], lo, hi, spanned, grid.spacing)
        val = float(sum(_chunk_volume(c) for c in imgs))
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
        for p in self.pieces:
            if p.face is None:
                continue
            out[p.face] = out.get(p.face, 0.0) + _chunk_volume(p.corners)
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
    pieces: list[Piece] = []
    outside_chunks: list[np.ndarray] = []
    outside_mults: list[int] = []
    for i in range(mesh.n_simplices):
        corners = corners_all[i]
        mult = int(mesh.multiplicities[i])
        bb_lo = corners.min(axis=0)
        bb_hi = corners.max(axis=0)
        if np.any(bb_hi < lo_q - snap) or np.any(bb_lo > hi_q + snap):
            outside_chunks.append(corners)
            outside_mults.append(mult)
            continue
        for chunk in _split_at_grid_planes(corners, grid, snap):
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
    for p in pieces:
        in_by_owner[p.owner] = in_by_owner.get(p.owner, 0.0) + _chunk_volume(p.corners)

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
            raw = [p.corners for p in batch]
            m_in = float(sum(_chunk_volume(c) for c in raw))
            mapped_pieces: list[Piece] = []
            for p in batch:
                imgs = _project_face_content([p.corners], xi, lo, hi, spanned, grid.spacing)
                for c in imgs:
                    c, face = _canonical_piece(c, _derive_face(c, grid, snap) or fkey,
                                               grid, manifold, snap)
                    mapped_pieces.append(Piece(c, p.mult, p.owner, face))
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
    for p in pieces:
        out_by_owner[p.owner] = out_by_owner.get(p.owner, 0.0) + _chunk_volume(p.corners)
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
    for p in result.pieces:
        vol = _chunk_volume(p.corners)
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
    for idx, p in enumerate(result.pieces):
        if p.face.dim == d and not (result.plan.get("freeze_boundary") and grid.on_boundary(p.face)):
            if _chunk_volume(p.corners) > 0.0:
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
        xi = centers[fkey]
        lo, hi = grid.face_bounds(fkey)
        spanned = [a for a in range(grid.ambient_dim) if fkey.spans(a)]
        for i in idxs:
            p = new_pieces[i]
            collapsed += _chunk_volume(p.corners)
            imgs = _project_face_content([p.corners], xi, lo, hi, spanned, grid.spacing)
            replaced = []
            for c in imgs:
                c, face = _canonical_piece(c, _derive_face(c, grid, snap) or fkey,
                                           grid, manifold, snap)
                replaced.append(Piece(c, p.mult, p.owner, face))
            new_pieces[i] = replaced[0] if replaced else Piece(p.corners[:1].repeat(d + 1, 0), p.mult, p.owner, fkey)
            new_pieces.extend(replaced[1:])
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
    for p in result.pieces:
        if p.face.dim == d:
            total += _chunk_volume(p.corners)
    return total
