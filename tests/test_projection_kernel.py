"""The batched face kernel against the chunk-by-chunk projection it replaced.

The oracle below is the scalar code the projection ran before it worked on
arrays: split one chunk by one plane at a time, map one vertex at a time,
measure one chunk at a time, derive each chunk's face and owner cell one
chunk at a time, and sum the ledgers one piece at a time.  The kernel must
give the same chunks, in the same order, with the same bytes.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import fields
from typing import Optional

import numpy as np
import pytest

from plateau_lab import projection as proj
from plateau_lab.geometry import core
from plateau_lab.geometry.core import EmbeddedMesh, ordered_sum, row_dots
from plateau_lab.geometry.distance import points_to_simplices
from plateau_lab.grids import CubeFace, DyadicGrid

from conftest import containing_cells, grid_faces, plane_bounds
from test_minimizer import oracle_frozen
from test_projection import seeded_blob


# ── scalar oracle ──

def _split_cycle(pts, vals):
    below, above = [], []
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


def _cycle_to_chunks(cycle, d):
    if d == 1:
        if len(cycle) < 2:
            return []
        return [np.array([cycle[0], cycle[-1]])]
    return [np.array([cycle[0], cycle[i], cycle[i + 1]]) for i in range(1, len(cycle) - 1)]


def oracle_split_chunk(corners, normal, offset, snap,
                       exact_axis: Optional[int] = None, exact_value: float = 0.0):
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
    return _cycle_to_chunks(below_c, d), _cycle_to_chunks(above_c, d)


def oracle_split_collect(chunks, normal, offset, snap, exact_axis=None, exact_value=0.0):
    out = []
    for c in chunks:
        below, above = oracle_split_chunk(c, normal, offset, snap, exact_axis, exact_value)
        out.extend(below)
        out.extend(above)
    return out


def oracle_grid_split(corners, grid, snap):
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
            chunks = oracle_split_collect(chunks, axis_normal, value, snap,
                                          exact_axis=a, exact_value=value)
    return chunks


def oracle_split_by_plane(pts, active, normals, offsets, snaps, exact=None):
    """``_split_by_plane`` as it was before uncut chunks skipped the crossings:
    every active chunk goes through the crossings and the token gather."""
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
    counts, tokens = proj._SPLIT[d]
    i0 = np.arange(1 if d == 1 else v)
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


def oracle_cone_planes(xi, lo, hi, spanned):
    n = xi.size
    planes = []
    if len(spanned) == 2:
        a0, a1 = spanned
        for ca in (lo[a0], hi[a0]):
            for cb in (lo[a1], hi[a1]):
                normal = np.zeros(n)
                normal[a0] = -(cb - xi[a1])
                normal[a1] = ca - xi[a0]
                planes.append((normal, float(normal @ xi)))
    elif len(spanned) == 3:
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
                    n3 = np.cross(np.array([u[a] for a in spanned]),
                                  np.array([v[a] for a in spanned]))
                    normal = np.zeros(n)
                    for j, a in enumerate(spanned):
                        normal[a] = n3[j]
                    planes.append((normal, float(normal @ xi)))
    return planes


def oracle_map_vertex(v, xi, lo, hi, spanned):
    for a in spanned:
        if v[a] == lo[a] or v[a] == hi[a]:
            return v.copy()
    best_t, best_axis, best_bound = math.inf, -1, 0.0
    for a in spanned:
        d = v[a] - xi[a]
        if d > 0.0:
            t, bound = (hi[a] - xi[a]) / d, hi[a]
        elif d < 0.0:
            t, bound = (lo[a] - xi[a]) / d, lo[a]
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


def oracle_project(chunks, xi, lo, hi, spanned, s):
    snap = 1e-13 * s
    pieces = list(chunks)
    for normal, offset in oracle_cone_planes(xi, lo, hi, spanned):
        norm = float(np.linalg.norm(normal))
        if norm <= 0.0:
            continue
        pieces = oracle_split_collect(pieces, normal, offset, snap * norm)
    return [np.array([oracle_map_vertex(v, xi, lo, hi, spanned) for v in c]) for c in pieces]


def oracle_volume(corners):
    if corners.shape[0] == 2:
        return float(np.linalg.norm(corners[1] - corners[0]))
    u = corners[1] - corners[0]
    v = corners[2] - corners[0]
    g = float(u @ u) * float(v @ v) - float(u @ v) ** 2
    return 0.5 * math.sqrt(max(g, 0.0))


def oracle_chebyshev(grid, face, content, trials, rng):
    lo, hi = grid.face_bounds(face)
    spanned = [a for a in range(grid.ambient_dim) if face.spans(a)]
    half_lo, half_hi = lo.copy(), hi.copy()
    for a in spanned:
        half_lo[a] = lo[a] + 0.25 * grid.spacing
        half_hi[a] = hi[a] - 0.25 * grid.spacing
    clearance_min = proj.CLEARANCE_REL * grid.face_diameter(face)
    samples = rng.uniform(half_lo, half_hi, size=(max(1, trials), grid.ambient_dim))
    for a in range(grid.ambient_dim):
        if a not in spanned:
            samples[:, a] = lo[a]
    dists = points_to_simplices(samples, content)
    raw = list(content)
    best_xi, best_val, best_clear = None, math.inf, 0.0
    for i in range(samples.shape[0]):
        if dists[i] < clearance_min:
            continue
        imgs = oracle_project(raw, samples[i], lo, hi, spanned, grid.spacing)
        val = float(sum(oracle_volume(c) for c in imgs))
        if val < best_val - 1e-15:
            best_xi, best_val, best_clear = samples[i], val, float(dists[i])
    assert best_xi is not None
    return best_xi, {"strategy": "chebyshev", "clearance": best_clear,
                     "trials": int(samples.shape[0]), "image_measure": best_val}


def oracle_project_groups(pieces, groups, centers, grid):
    """``_project_groups`` as one kernel call per face, with that face's own
    ``face_bounds``, before the faces of a stage were batched."""
    chunks, sources = [pieces.corners[:0]], [np.zeros(0, dtype=np.intp)]
    for (face, rows), xi in zip(groups, centers):
        lo, hi = grid.face_bounds(face)
        spanned = [a for a in range(grid.ambient_dim) if face.spans(a)]
        images, _, source_of = proj._project_batch(
            pieces.corners[rows], np.zeros(len(rows), dtype=np.intp), xi[None, :],
            lo[None], hi[None], spanned, grid.spacing)
        chunks.append(images)
        sources.append(rows[source_of])
    corners = np.concatenate(chunks)
    source = np.concatenate(sources)
    face = proj._assign_faces(corners, grid)
    ends = np.cumsum([len(c) for c in chunks[1:]]).tolist()
    return proj.PieceTable(corners, pieces.mult[source], face, pieces.owner[source]), source, ends


def oracle_derive_face(corners, grid, snap) -> Optional[CubeFace]:
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


def oracle_owner_cell(face, grid):
    return min(containing_cells(grid, face))


def oracle_canonical_piece(chunk, face, grid, snap):
    """Translate a chunk onto its face's canonical representative (periodic axes)."""
    if not any(grid.identified):
        return chunk, face
    canon = grid.canonical_face(face)
    if canon == face:
        return chunk, face
    N = grid.subdivisions
    shift = np.zeros(grid.ambient_dim)
    for a in range(grid.ambient_dim):
        if grid.identified[a]:
            shift[a] = (face.lattice[a] % N - face.lattice[a]) * (grid.size / N)
    chunk = chunk + shift
    return chunk, oracle_derive_face(chunk, grid, snap) or canon


def oracle_split_into_grid(mesh, grid):
    """Chunk-by-chunk split_into_grid; pieces are (corners, mult, face, owner)."""
    corners_all = mesh.corners
    snap = proj.SNAP_REL * grid.spacing
    lo_q, hi_q = grid.corner, grid.corner + grid.size
    outside = (np.any(corners_all.max(axis=1) < lo_q - snap, axis=1)
               | np.any(corners_all.min(axis=1) > hi_q + snap, axis=1))
    chunks, source_of = proj._split_at_grid_planes(corners_all[~outside], grid, snap)
    ends = np.cumsum(np.bincount(source_of, minlength=int((~outside).sum())))
    split_simplices = iter(np.split(chunks, ends[:-1]))
    pieces, outside_chunks, outside_mults = [], [], []
    for i in range(mesh.n_simplices):
        mult = int(mesh.multiplicities[i])
        if outside[i]:
            outside_chunks.append(corners_all[i])
            outside_mults.append(mult)
            continue
        for chunk in next(split_simplices):
            bary = chunk.mean(axis=0)
            face = None
            if np.all(bary >= lo_q - snap) and np.all(bary <= hi_q + snap):
                face = oracle_derive_face(chunk, grid, snap)
            if face is None:
                outside_chunks.append(chunk)
                outside_mults.append(mult)
                continue
            chunk, face = oracle_canonical_piece(chunk, face, grid, snap)
            pieces.append((chunk, mult, face, oracle_owner_cell(face, grid)))
    return pieces, outside_chunks, outside_mults


def running_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_cells(grid, center, steps):
    """The cells at ``center`` plus a step per axis from ``steps``, wrapped
    around identified axes, dropped off the walls of the others, each once,
    in lattice order."""
    N = grid.subdivisions
    options = []
    for c, glued, step in zip(center, grid.identified, steps):
        near = [c + k for k in step]
        near = {i % N for i in near} if glued else {i for i in near if 0 <= i < N}
        options.append(sorted(near))
    return [CubeFace(grid.full_mask, lat) for lat in itertools.product(*options)]


def oracle_closed_cell_ledger(result, grid):
    """{cell: content in its closure}, summed piece by piece over the cells
    around each piece, walked here."""
    out_geo = {}
    for c, key in zip(result.pieces.corners, result.pieces.face):
        face = proj._cube_face(key)
        steps = [(0,) if face.spans(a) else (-1, 0) for a in range(grid.ambient_dim)]
        for cell in oracle_cells(grid, face.lattice, steps):
            out_geo[cell] = out_geo.get(cell, 0.0) + oracle_volume(c)
    return out_geo


def oracle_cell_locality(result, grid):
    """verify_cell_locality over the oracle's closed-cell ledger and the
    neighbours of each cell, walked here."""
    out_geo = oracle_closed_cell_ledger(result, grid)
    worst, ok = math.inf, True
    for cell in set(out_geo) | set(result.per_cell):
        lhs = out_geo.get(cell, 0.0)
        rhs = 0.0
        for nb in oracle_cells(grid, cell.lattice, [(-1, 0, 1)] * grid.ambient_dim):
            rec = result.per_cell.get(nb)
            if rec is not None:
                rhs += rec["ratio"] * rec["measure_in"]
        worst = min(worst, rhs - lhs)
        ok = ok and not lhs > rhs + 1e-9 * max(1.0, lhs)
    return ok, (0.0 if worst is math.inf else worst)


# ── helpers ──

def assert_same_chunks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


#: (content dimension d, ambient n, spanned axes of the face); the pipeline
#: projects d-dimensional content only out of faces of dimension k > d
CASES = [(1, 2, [0, 1]), (1, 3, [0, 2]), (1, 3, [0, 1, 2]), (2, 3, [0, 1, 2])]


def face_setup(n, spanned, rng):
    """A face of side 1/4 with random lower corner; off-face axes are pinned."""
    s = 0.25
    lo = np.round(rng.uniform(-1.0, 1.0, size=n) * 8) / 8
    hi = lo.copy()
    hi[spanned] += s
    return lo, hi, s


def content_in_face(d, lo, hi, rng, count):
    return rng.uniform(lo, hi, size=(count, d + 1, lo.size))


def centers_in_face(lo, hi, spanned, s, rng, m):
    half_lo, half_hi = lo.copy(), hi.copy()
    half_lo[spanned] += 0.25 * s
    half_hi[spanned] -= 0.25 * s
    return rng.uniform(half_lo, half_hi, size=(m, lo.size))


def pin_to_planes(chunks, xi, lo, hi, spanned, s, rng, jitter):
    """Move some vertices onto a cone plane of xi: on a ray from xi to a face
    corner (k = 2) or edge point (k = 3), plus ``jitter`` * s noise."""
    corners = []
    for bits in range(2 ** len(spanned)):
        c = lo.copy()
        for j, a in enumerate(spanned):
            if bits >> j & 1:
                c[a] = hi[a]
        corners.append(c)
    out = chunks.copy()
    for t in range(out.shape[0]):
        for i in range(out.shape[1]):
            if rng.random() < 0.4:
                target = corners[rng.integers(len(corners))]
                lam = rng.choice([0.25, 0.5, 0.75])
                p = xi + lam * (target - xi)
                p[spanned] += jitter * s * rng.standard_normal(len(spanned))
                out[t, i] = p
    return out


# ── kernel vs oracle ──

@pytest.mark.parametrize("d,n,spanned", CASES)
@pytest.mark.parametrize("jitter", [None, 0.0, 1e-15, 1e-12])
def test_batched_projection_matches_scalar_oracle(d, n, spanned, jitter):
    """Several centers per call; vertices free, exactly on a cone plane
    (dyadic center, so the plane value is exactly 0), within snap of one,
    and just outside snap."""
    rng = np.random.default_rng(1000 * d + 10 * n + len(spanned))
    for _ in range(4):
        lo, hi, s = face_setup(n, spanned, rng)
        xi = centers_in_face(lo, hi, spanned, s, rng, 5)
        chunks = content_in_face(d, lo, hi, rng, 6)
        if jitter is not None:
            xi[0, spanned] = np.round(xi[0, spanned] * 64) / 64
            chunks = pin_to_planes(chunks, xi[0], lo, hi, spanned, s, rng, jitter)
        images, center_of, source_of = proj._project_batch(
            np.tile(chunks, (5, 1, 1)), np.repeat(np.arange(5), len(chunks)), xi,
            np.tile(lo, (5, 1)), np.tile(hi, (5, 1)), spanned, s)
        source_of = source_of % len(chunks)          # index into the untiled chunks
        for m in range(xi.shape[0]):
            want, want_src = [], []
            for i, c in enumerate(chunks):
                imgs = oracle_project([c], xi[m], lo, hi, spanned, s)
                want += imgs
                want_src += [i] * len(imgs)
            mine = center_of == m
            assert_same_chunks(images[mine], want)
            assert source_of[mine].tolist() == want_src
            # whole-batch scalar projection gives the same flat map
            assert_same_chunks(images[mine], oracle_project(list(chunks), xi[m], lo, hi,
                                                            spanned, s))
        assert np.all(np.diff(center_of) >= 0)


@pytest.mark.parametrize("d,n,spanned", CASES)
def test_one_batch_over_several_faces_equals_one_call_per_face(d, n, spanned):
    """Faces with different bounds, each with its own centers and content,
    in one kernel call: every face's images, in order, as its own call."""
    rng = np.random.default_rng(2000 + 100 * d + 10 * n + len(spanned))
    chunks, center_of, centers, lows, highs, want = [], [], [], [], [], []
    for f in range(4):
        lo, hi, s = face_setup(n, spanned, rng)
        xi = centers_in_face(lo, hi, spanned, s, rng, 2)
        content = content_in_face(d, lo, hi, rng, 5)
        for m in range(2):
            first = len(centers)
            centers.append(xi[m])
            lows.append(lo)
            highs.append(hi)
            part = content[rng.random(len(content)) < 0.7]
            start = sum(len(c) for c in chunks)
            chunks.append(part)
            center_of += [first] * len(part)
            images, _, source_of = proj._project_batch(
                part, np.zeros(len(part), dtype=np.intp), xi[m][None], lo[None], hi[None],
                spanned, s)
            want.append((images, [first] * len(images), (start + source_of).tolist()))
    images, got_center, got_source = proj._project_batch(
        np.concatenate(chunks), np.array(center_of), np.array(centers), np.array(lows),
        np.array(highs), spanned, 0.25)
    assert_same_chunks(images, np.concatenate([w[0] for w in want]))
    assert got_center.tolist() == sum((w[1] for w in want), [])
    assert got_source.tolist() == sum((w[2] for w in want), [])


def split_inputs(d, n, kind, rng, count=60):
    """Chunks, an active mask and one plane per active chunk.  ``random``
    chunks straddle their planes or not; ``snapped`` ones have vertices on
    their plane, within its snap, or just outside; ``on-plane`` ones lie in
    it whole, or all but one vertex."""
    pts = rng.uniform(-1.0, 1.0, (count, d + 1, n))
    active = rng.random(count) < 0.8
    a = int(active.sum())
    normals = rng.normal(size=(a, n))
    if kind != "random":
        normals = np.round(normals * 4) / 4        # dyadic: exact plane values
    offsets = rng.uniform(-0.5, 0.5, a)
    snaps = np.full(a, 1e-13)
    idx = np.flatnonzero(active)
    for r, t in enumerate(idx.tolist()):
        nrm, off = normals[r], offsets[r]
        if not nrm.any():
            continue
        for i in range(d + 1):
            on = kind == "on-plane" and (i < d or rng.random() < 0.5)
            if on or (kind == "snapped" and rng.random() < 0.5):
                x = pts[t, i]
                gap = float(nrm @ x) - off
                pts[t, i] = x - gap / float(nrm @ nrm) * nrm
                if not on:
                    pts[t, i] += rng.choice([0.0, 0.5e-13, 2e-13]) * nrm
    return pts, active, normals, offsets, snaps


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 3), (2, 4)])
@pytest.mark.parametrize("kind", ["random", "snapped", "on-plane"])
def test_split_by_plane_matches_the_all_rows_splitter(d, n, kind):
    """Skipping the uncut chunks' crossings gives the same chunks and
    parents, byte for byte, as running every active chunk through them; so
    do the axis-aligned exact splits, which keep every active chunk."""
    rng = np.random.default_rng([31, d, n, len(kind)])
    for _ in range(5):
        pts, active, normals, offsets, snaps = split_inputs(d, n, kind, rng)
        got, got_parent = proj._split_by_plane(pts, active, normals, offsets, snaps)
        want, want_parent = oracle_split_by_plane(pts, active, normals, offsets, snaps)
        assert got.tobytes() == want.tobytes()
        assert got_parent.tolist() == want_parent.tolist()
        assert len(got) > len(pts) or kind == "on-plane"
        axis = int(rng.integers(n))
        value = float(np.round(rng.uniform(-0.5, 0.5) * 8) / 8)
        if kind != "random":
            pts[:, :, axis] = np.where(rng.random(pts.shape[:2]) < 0.4, value, pts[:, :, axis])
        unit = np.zeros((int(active.sum()), n))
        unit[:, axis] = 1.0
        plane = (unit, np.full(len(unit), value), snaps)
        exact = (axis, value, 1e-12 * (abs(value) + 1.0))
        got = proj._split_by_plane(pts, active, *plane, exact=exact)
        want = oracle_split_by_plane(pts, active, *plane, exact=exact)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist()


def test_exact_plane_hits_are_exercised():
    """The on-plane case really reaches the zero-value branch."""
    lo, hi = np.zeros(2), np.full(2, 0.25)
    xi = np.array([0.125, 0.0625])
    on = xi + 0.5 * (np.array([0.25, 0.25]) - xi)
    normal, offset = oracle_cone_planes(xi, lo, hi, [0, 1])[3]
    assert float(normal @ on) - offset == 0.0
    seg = np.array([[on, [0.2, 0.01]]])
    assert_same_chunks(proj._project_batch(seg, np.zeros(1, dtype=int), xi[None, :], lo[None],
                                           hi[None], [0, 1], 0.25)[0],
                       oracle_project(list(seg), xi, lo, hi, [0, 1], 0.25))


def test_center_on_a_vertex_raises_like_the_oracle():
    lo, hi = np.zeros(3), np.full(3, 0.25)
    xi = np.array([0.125, 0.125, 0.125])
    tri = np.array([[xi, [0.2, 0.1, 0.05], [0.05, 0.2, 0.1]]])
    with pytest.raises(ValueError, match="coincides"):
        oracle_project(list(tri), xi, lo, hi, [0, 1, 2], 0.25)
    with pytest.raises(ValueError, match="coincides"):
        proj._project_batch(tri, np.zeros(1, dtype=int), xi[None, :], lo[None], hi[None],
                            [0, 1, 2], 0.25)


@pytest.mark.parametrize("d", [1, 2])
def test_volumes_match_scalar_measure(d):
    rng = np.random.default_rng(7 + d)
    chunks = rng.standard_normal((400, d + 1, 3)) * 10.0 ** rng.uniform(-6, 3, (400, 1, 1))
    chunks[::5, 1] = chunks[::5, 0]        # degenerate chunks
    if d == 2:                             # collinear: the Gram term rounds to either sign
        chunks[1::5, 2] = chunks[1::5, 0] + 0.3 * (chunks[1::5, 1] - chunks[1::5, 0])
    got = proj._volumes(chunks)
    assert got == [oracle_volume(c) for c in chunks]
    assert proj._volumes([]) == []


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("corner,size", [(-0.5, 2.0), (1000.0, 2.0 ** -6)])
def test_grid_split_matches_scalar_oracle(d, n, corner, size):
    """Batched exact-axis split vs per-simplex scalar split, including
    vertices on grid planes, within the snap of them, and (far from the
    origin, where the cycle tolerance 1e-12 * (|plane| + 1) exceeds the
    snap) between the snap and that tolerance."""
    rng = np.random.default_rng(50 + d + n)
    grid = DyadicGrid(np.full(n, corner), size, 8)
    snap = proj.SNAP_REL * grid.spacing
    tol = 1e-12 * (abs(corner) + 1.0)
    corners = rng.uniform(corner - 0.05 * size, corner + 1.05 * size, size=(40, d + 1, n))
    planes = grid.corner[0] + grid.spacing * np.arange(grid.subdivisions + 1)
    pick = rng.random(corners.shape) < 0.3
    near = planes[rng.integers(planes.size, size=corners.shape)]
    near = near + rng.choice([0.0, 0.5 * snap, -0.5 * snap, 2.0 * snap, 0.5 * tol],
                             size=corners.shape)
    corners = np.where(pick, near, corners)
    chunks, source_of = proj._split_at_grid_planes(corners, grid, snap)
    want, want_src = [], []
    for i, c in enumerate(corners):
        got = oracle_grid_split(c, grid, snap)
        want += got
        want_src += [i] * len(got)
    assert_same_chunks(chunks, want)
    assert source_of.tolist() == want_src


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("one_center_per_call", [False, True])
def test_chebyshev_center_matches_scalar_oracle(seed, one_center_per_call, monkeypatch):
    """The stage's search, its clearance test stacked over every face, against
    the scalar oracle face by face."""
    if one_center_per_call:
        monkeypatch.setattr(proj, "_CENTER_BATCH", 1)
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    pieces, _, _ = proj.split_into_grid(seeded_blob(seed), grid)
    groups = proj.face_groups(pieces.face, proj._faces_of_dim(pieces.face, 3, grid))
    assert len(groups) > 1
    chosen = proj.choose_center(grid, pieces.corners, groups, "chebyshev", 8,
                                [proj._face_rng(seed, 3, face) for face, _ in groups])
    for (face, rows), got in list(zip(groups, chosen))[:3]:
        want = oracle_chebyshev(grid, face, pieces.corners[rows], 8, proj._face_rng(seed, 3, face))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]


def test_chebyshev_falls_back_to_far_on_its_own_faces(caplog):
    """A face none of whose samples clears its content takes the far center,
    with a warning; the other faces of the stage keep their chebyshev pick."""
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    faces = [CubeFace(grid.full_mask, (0, 0, 0)), CubeFace(grid.full_mask, (1, 0, 0))]
    xi = proj.choose_center(grid, np.zeros((1, 3, 3)), [(faces[0], [0])], "chebyshev", 1,
                            [np.random.default_rng(7)])[0][0]
    # a triangle through the face's one sample, and one far from the other's
    content = np.array([xi + [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.0, 0.05, 0.0]],
                        [[0.55, 0.05, 0.05], [0.6, 0.05, 0.05], [0.55, 0.1, 0.05]]])
    groups = [(faces[0], [0]), (faces[1], [1])]
    with caplog.at_level("WARNING", logger=proj.__name__):
        got = proj.choose_center(grid, content, groups, "chebyshev", 1,
                                 [np.random.default_rng(7) for _ in groups])
    assert "falling back to far" in caplog.text
    far = proj.choose_center(grid, content, groups, "far")
    assert got[0][0].tobytes() == far[0][0].tobytes() and got[0][1] == far[0][1]
    assert got[1][1]["strategy"] == "chebyshev"


# ── face assignment, split and ledgers vs the per-piece oracle ──

def key_of(face):
    return [face.axes, *face.lattice]


#: box and periodic grids, one far from the origin with two of three axes identified
GRIDS = [
    DyadicGrid(np.zeros(3), 1.0, 4),
    DyadicGrid(np.zeros(3), 1.0, 4, (True,) * 3),
    DyadicGrid(np.full(3, 1000.0), 2.0 ** -6, 8, (True, False, True)),
    DyadicGrid(np.array([-0.5, 0.25]), 2.0, 4),
    DyadicGrid(np.array([-0.5, 0.25]), 2.0, 4, (True,) * 2),
]


@pytest.mark.parametrize("g", range(len(GRIDS)))
@pytest.mark.parametrize("d", [1, 2])
def test_face_assignment_matches_scalar_oracle(g, d):
    """Batched face derivation, canonicalization and owner cells against the
    chunk-by-chunk oracle.  Axes of a chunk sit on a grid plane (inside Q or
    one plane beyond it), within the snap of one, or just outside the snap;
    a fifth of the chunks lie outside Q, where the oracle still finds a
    valid face because the lattice is clamped."""
    grid = GRIDS[g]
    n, N = grid.ambient_dim, grid.subdivisions
    snap = proj.SNAP_REL * grid.spacing
    rng = np.random.default_rng(10 * g + d)
    chunks = grid.corner + grid.size * rng.uniform(-0.1, 1.1, size=(400, d + 1, n))
    for c in chunks:
        for a in range(n):
            if rng.random() < 0.5:
                plane = grid.plane_coordinate(a, int(rng.integers(-1, N + 2)))
                c[:, a] = plane + rng.choice([0.0, 0.5 * snap, -0.5 * snap, 2.0 * snap], size=d + 1)
    got = chunks.copy()
    keys = proj._assign_faces(got, grid)
    owners = proj._owner_cells(keys, grid)
    shifted = 0
    for c, got_c, key, owner in zip(chunks, got, keys, owners):
        want = c.copy()
        face = oracle_derive_face(want, grid, snap)
        assert face is not None
        want, canon = oracle_canonical_piece(want, face, grid, snap)
        shifted += canon != face
        assert got_c.tobytes() == want.tobytes()
        assert key.tolist() == key_of(canon)
        assert owner.tolist() == key_of(oracle_owner_cell(canon, grid))
    assert np.any(keys[:, 0] != grid.full_mask) and np.any(keys[:, 0] == grid.full_mask)
    assert (shifted > 0) == any(grid.identified)


@pytest.mark.parametrize("g", range(len(GRIDS)))
def test_split_into_grid_matches_scalar_oracle(g):
    grid = GRIDS[g]
    n = grid.ambient_dim
    d = n - 1
    rng = np.random.default_rng(70 + g)
    verts = grid.corner + grid.size * rng.uniform(-0.3, 1.3, size=(30 * (d + 1), n))
    verts[-(d + 1):] += 5.0 * grid.size                   # one simplex misses Q
    on_plane = grid.corner + grid.spacing * np.round((verts - grid.corner) / grid.spacing)
    verts = np.where(rng.random(verts.shape) < 0.3, on_plane, verts)
    mesh = EmbeddedMesh(d, verts[np.arange(len(verts)).reshape(-1, d + 1)],
                        rng.integers(1, 4, 30), allow_degenerate=True)
    pieces, outside, outside_mults = proj.split_into_grid(mesh, grid)
    want, want_outside, want_mults = oracle_split_into_grid(mesh, grid)
    assert len(pieces) == len(want) and len(want_outside) > 1
    assert_same_chunks(pieces.corners, [w[0] for w in want])
    assert pieces.mult.tolist() == [w[1] for w in want]
    assert pieces.face.tolist() == [key_of(w[2]) for w in want]
    assert pieces.owner.tolist() == [key_of(w[3]) for w in want]
    assert pieces.vol.tolist() == [oracle_volume(w[0]) for w in want]
    assert_same_chunks(outside, want_outside)
    assert outside_mults.tolist() == want_mults


def seeded_segments(seed: int, count: int = 12):
    r = np.random.default_rng(seed)
    verts = r.uniform(-0.4, 1.6, size=(2 * count, 2))
    return EmbeddedMesh(1, verts[np.arange(2 * count).reshape(count, 2)])


@pytest.mark.parametrize("case", range(6))
def test_ledgers_match_per_piece_recomputation(case):
    """per_cell, content_measure_by_face (values and key order), the stage
    totals and the locality check, summed piece by piece."""
    periodic = case % 2 == 1
    if case < 4:
        mesh, grid = seeded_blob(case), DyadicGrid(np.zeros(3), 1.0, 2, (periodic,) * 3)
    else:
        mesh, grid = seeded_segments(case), DyadicGrid(np.array([-0.5, 0.25]), 2.0, 4,
                                                       (periodic,) * 2)
    res = proj.project_to_skeleton(mesh, grid, strategy="far")
    split, _, _ = proj.split_into_grid(mesh, grid)

    def by_key(table, keys):
        out = {}
        for c, key in zip(table.corners, keys):
            f = proj._cube_face(key)
            out[f] = out.get(f, 0.0) + oracle_volume(c)
        return out

    in_by_owner = by_key(split, split.owner)
    out_by_owner = by_key(res.pieces, res.pieces.owner)
    want_cells = {}
    for cell, m_in in sorted(in_by_owner.items()):
        m_out = out_by_owner.get(cell, 0.0)
        want_cells[cell] = {"measure_in": m_in, "measure_out": m_out,
                            "ratio": m_out / m_in if m_in > 1e-300 else 0.0}
    assert list(res.per_cell.items()) == list(want_cells.items())
    by_face = by_key(res.pieces, res.pieces.face)
    assert list(res.content_measure_by_face().items()) == list(by_face.items())

    assert res.measure_in == running_sum(oracle_volume(c) for c in split.corners)
    assert res.measure_out == running_sum(oracle_volume(c) for c in res.pieces.corners)
    for st in res.stages:
        assert st.measure_in == running_sum(i["measure_in"] for i in st.faces.values())
        assert st.measure_out == running_sum(i["measure_out"] for i in st.faces.values())
    first = {}
    for c, key in zip(split.corners, split.face):
        f = proj._cube_face(key)
        if f.dim == grid.ambient_dim:
            first.setdefault(f, []).append(oracle_volume(c))
    assert list(res.stages[0].faces) == sorted(first)
    assert [i["measure_in"] for i in res.stages[0].faces.values()] == \
        [running_sum(first[f]) for f in sorted(first)]

    assert proj.verify_cell_locality(res, grid) == oracle_cell_locality(res, grid)
    got = proj._closed_cell_ledger(res.pieces, grid)
    want = oracle_closed_cell_ledger(res, grid)
    assert sorted(got) == sorted(want)
    assert all(got[cell].hex() == want[cell].hex() for cell in want)
    assert proj.interior_face_measure(res, grid) == running_sum(
        oracle_volume(c) for c, key in zip(res.pieces.corners, res.pieces.face)
        if proj._cube_face(key).dim == mesh.dimension
        and not grid.on_boundary(proj._cube_face(key)))


# ── one kernel call per stage and spanned axes vs one per face ──

def test_key_bounds_match_face_bounds():
    """``DyadicGrid.bounds`` over key rows and its one-row form
    ``face_bounds`` give the per-axis ``plane_coordinate`` corners bit for
    bit, on every face of every grid, the one far from the origin included,
    and of a grid whose corner and spacing round."""
    for grid in GRIDS + [DyadicGrid(np.array([0.1, -7.3, 1e3 / 3]), 0.7, 12)]:
        faces = [f for k in range(grid.ambient_dim + 1) for f in grid_faces(grid, k)]
        lo, hi = grid.bounds(np.array([key_of(f) for f in faces]))
        for f, lo_f, hi_f in zip(faces, lo, hi):
            want_lo, want_hi = plane_bounds(grid, f)
            for got_lo, got_hi in ((lo_f, hi_f), grid.face_bounds(f)):
                assert got_lo.tobytes() == want_lo.tobytes()
                assert got_hi.tobytes() == want_hi.tobytes()


def test_wall_mask_agrees_with_on_boundary():
    """``DyadicGrid.frozen`` over key rows, its one-row form ``on_boundary``
    and the stage selection all follow the per-axis wall rule, on every face
    of every grid and of a 2-D grid with one axis identified."""
    for grid in GRIDS + [DyadicGrid(np.array([-0.5, 0.25]), 2.0, 4, (False, True))]:
        for k in range(grid.ambient_dim + 1):
            faces = list(grid_faces(grid, k))
            keys = np.array([key_of(f) for f in faces])
            want = [oracle_frozen(grid, f) for f in faces]
            assert grid.frozen(keys).tolist() == want
            assert [grid.on_boundary(f) for f in faces] == want
            assert proj._faces_of_dim(keys, k, grid).tolist() == [not w for w in want]
            assert not proj._faces_of_dim(keys, k + 1, grid).any()


def assert_same_projection(got, want):
    (table, source, ends), (want_table, want_source, want_ends) = got, want
    for f in fields(proj.PieceTable):
        a, b = getattr(table, f.name), getattr(want_table, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
    assert source.tobytes() == want_source.tobytes()
    assert ends == want_ends


def stage_content(grid, d, rng, count, extent):
    """``count`` simplices of side up to ``extent`` * size anywhere in Q,
    with about a third of their coordinates moved onto grid planes, so that
    stages below the top one hold content on faces of every spanned axes."""
    n = grid.ambient_dim
    base = grid.corner + grid.size * rng.uniform(0.02, 0.98 - extent, size=(count, 1, n))
    corners = base + grid.size * extent * rng.uniform(size=(count, d + 1, n))
    on_plane = grid.corner + grid.spacing * np.round((corners - grid.corner) / grid.spacing)
    pin = rng.random((count, 1, n)) < 0.35
    corners = np.where(pin, on_plane[:, :1], corners)
    return EmbeddedMesh(d, corners.reshape(-1, n)[np.arange(count * (d + 1)).reshape(count, d + 1)],
                        rng.integers(1, 4, count), allow_degenerate=True)


#: (grid, content dimension) pairs of ``GRIDS`` with d < n
STAGE_CASES = [(g, d) for g in range(len(GRIDS)) for d in (1, 2) if d < GRIDS[g].ambient_dim]


@pytest.mark.parametrize("g,d", STAGE_CASES)
def test_stage_batch_matches_per_face_loop(g, d, monkeypatch):
    """Every ``_project_groups`` call of a projection and of its extra
    collapse against the per-face loop, byte for byte, with the faces in
    order and reversed; and an empty stage."""
    grid = GRIDS[g]
    n = grid.ambient_dim
    real = proj._project_groups
    masks = []

    def checked(pieces, groups, centers, grid):
        got = real(pieces, groups, centers, grid)
        assert_same_projection(got, oracle_project_groups(pieces, groups, centers, grid))
        # faces need not come sorted by spanned axes
        assert_same_projection(real(pieces, groups[::-1], centers[::-1], grid),
                               oracle_project_groups(pieces, groups[::-1], centers[::-1], grid))
        masks.append({face.axes for face, _ in groups})
        return got

    monkeypatch.setattr(proj, "_project_groups", checked)
    rng = np.random.default_rng(90 + 10 * g + d)
    proj.project_to_skeleton(stage_content(grid, d, rng, 24, 0.3), grid, trials=4, seed=g)
    assert len(masks) == n - d and all(masks)
    if n - d >= 2:                  # the second stage mixes spanned axes
        assert len(masks[1]) > 1
    specks = proj.project_to_skeleton(stage_content(grid, d, rng, 3, 0.01), grid,
                                      strategy="far")
    assert proj.extra_collapse(specks, grid).collapse_applied
    assert len(masks) == 2 * (n - d) + 1

    pieces, _, _ = proj.split_into_grid(stage_content(grid, d, rng, 4, 0.3), grid)
    empty = real(pieces, [], [], grid)
    assert_same_projection(empty, oracle_project_groups(pieces, [], [], grid))
    assert len(empty[0]) == 0 and empty[2] == []


def test_one_stage_makes_one_kernel_call_per_spanned_axes(monkeypatch):
    """Segments in R^3 reach the k = 2 stage on faces of all three spanned
    axes: that stage makes three kernel calls, at most C(n, k)."""
    grid = GRIDS[0]
    rng = np.random.default_rng(5)
    pieces, _, _ = proj.split_into_grid(stage_content(grid, 1, rng, 24, 0.3), grid)
    calls = []
    real = proj._project_batch
    monkeypatch.setattr(proj, "_project_batch", lambda *a: calls.append(a[-2]) or real(*a))
    for k in (3, 2):
        groups = proj.face_groups(pieces.face, proj._faces_of_dim(pieces.face, k, grid))
        centers = [grid.face_center(face) for face, _ in groups]
        calls.clear()
        images, _, _ = proj._project_groups(pieces, groups, centers, grid)
        assert len(calls) == len({face.axes for face, _ in groups}) <= math.comb(3, k)
        moving = proj._faces_of_dim(pieces.face, k, grid)
        pieces = proj.PieceTable.concat([pieces.take(~moving), images])
    assert sorted(calls) == [[0, 1], [0, 2], [1, 2]]


# ── the far search vs the full sample grid ──

def oracle_far(grid, face, content):
    """The far search of one face as it ran before stages: every sample of
    the full grid against every piece, one ``points_to_simplices`` call."""
    lo, hi = grid.face_bounds(face)
    spanned = [a for a in range(grid.ambient_dim) if face.spans(a)]
    diam = grid.face_diameter(face)
    half_lo, half_hi = lo.copy(), hi.copy()
    for a in spanned:
        half_lo[a] = lo[a] + 0.25 * grid.spacing
        half_hi[a] = hi[a] - 0.25 * grid.spacing
    center = 0.5 * (half_lo + half_hi)
    g = proj._FAR_GRID.get(len(spanned), 9)
    mesh = np.meshgrid(*[np.linspace(half_lo[a], half_hi[a], g) for a in spanned], indexing="ij")
    pts = np.tile(center, (mesh[0].size, 1))
    for j, a in enumerate(spanned):
        pts[:, a] = mesh[j].ravel()
    dist = points_to_simplices(pts, content)
    idx = int(np.argmax(dist))
    d_best = float(dist[idx])
    if d_best < proj.CLEARANCE_REL * diam:
        return None
    return pts[idx], {"strategy": "far", "clearance": d_best,
                      "ratio_bound": (diam / d_best) ** (content.shape[1] - 1)}, dist


def assert_far_matches_oracle(grid, corners, groups, chosen):
    assert len(chosen) == len(groups)
    for (face, rows), got in zip(groups, chosen):
        want = oracle_far(grid, face, corners[rows])
        if want is None:
            assert got is None
            continue
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]


@pytest.mark.parametrize("g,d", STAGE_CASES)
def test_far_stage_matches_the_full_grid_per_face(g, d, monkeypatch):
    """Every far search of a projection and of its extra collapse, in R^2
    and R^3 and on the grid far from the origin, against the per-face argmax
    over the full sample grid: the same center bytes and the same info."""
    grid = GRIDS[g]
    real = proj.choose_center
    stages = []

    def checked(grid, corners, groups, strategy="chebyshev", trials=32, rngs=None):
        chosen = real(grid, corners, groups, strategy, trials, rngs)
        assert_far_matches_oracle(grid, corners, groups, chosen)
        stages.append(len(groups))
        return chosen

    monkeypatch.setattr(proj, "choose_center", checked)
    rng = np.random.default_rng(190 + 10 * g + d)
    proj.project_to_skeleton(stage_content(grid, d, rng, 16, 0.3), grid, strategy="far")
    specks = proj.project_to_skeleton(stage_content(grid, d, rng, 3, 0.01), grid, strategy="far")
    assert proj.extra_collapse(specks, grid).collapse_applied
    assert len(stages) == 2 * (grid.ambient_dim - d) + 1 and all(stages[:grid.ambient_dim - d])


def plane_content(n, levels):
    """Corners of the hyperplanes {x_last = z} for z in ``levels``, across
    the cell [0, 0.5]^n: segments in R^2, two triangles each in R^3."""
    out = []
    for z in levels:
        if n == 2:
            out.append([[0.0, z], [0.5, z]])
        else:
            out += [[[0.0, 0.0, z], [0.5, 0.0, z], [0.0, 0.5, z]],
                    [[0.5, 0.5, z], [0.0, 0.5, z], [0.5, 0.0, z]]]
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fine", [False, True])
def test_far_ties_go_to_the_first_sample(n, fine):
    """A plane through the cell's middle puts the maximum on two whole layers
    of samples, the first one coarse (even index).  Planes 3h apart, h the
    sample step, starting h/2 below the half-face, put it on every third
    layer from the second, whose samples are fine (odd index).  The search
    returns the oracle's first tied sample either way."""
    grid = DyadicGrid(np.zeros(n), 1.0, 2)
    face = CubeFace(grid.full_mask, (0,) * n)
    g = proj._FAR_GRID[n]
    h = 0.25 / (g - 1)
    levels = 0.125 - 0.5 * h + 3 * h * np.arange(g // 3 + 2) if fine else [0.25]
    content = plane_content(n, levels)
    groups = [(face, np.arange(len(content)))]
    _, _, dist = oracle_far(grid, face, content)
    tied = np.flatnonzero(dist == dist.max())
    assert tied.size >= 2 * g ** (n - 1)
    assert (tied[0] % g % 2 == 1) == fine
    chosen = proj.choose_center(grid, content, groups, "far")
    assert_far_matches_oracle(grid, content, groups, chosen)


def test_far_measures_the_coarse_grid_and_few_other_samples(monkeypatch):
    """On a triangle soup the far search measures every piece against the
    even-index sub-grid of its face, 5^3 of the 9^3 samples, and against
    under a tenth of the other samples."""
    grid = DyadicGrid(np.zeros(3), 1.0, 4, (True,) * 3)
    pieces, _, _ = proj.split_into_grid(seeded_blob(3, 24), grid)
    groups = proj.face_groups(pieces.face, proj._faces_of_dim(pieces.face, 3, grid))
    pairs = []
    kernel = proj.stacked_points_to_simplices
    monkeypatch.setattr(proj, "stacked_points_to_simplices",
                        lambda p, owner, c: pairs.append((len(owner), p.shape[1]))
                        or kernel(p, owner, c))
    chosen = proj.choose_center(grid, pieces.corners, groups, "far")
    assert_far_matches_oracle(grid, pieces.corners, groups, chosen)
    count = sum(len(rows) for _, rows in groups)
    assert pairs[0] == (count, 5 ** 3)
    assert pairs[1][1] == 1 and 0 < pairs[1][0] < 0.1 * count * (9 ** 3 - 5 ** 3)



# ── projection bookkeeping in arrays: the forms it replaced as oracles ──

def oracle_face_groups(keys, select):
    """The ``np.unique(axis=0)`` grouping that ``face_groups`` replaced."""
    rows = np.flatnonzero(select)
    faces, group = np.unique(keys[rows], axis=0, return_inverse=True)
    group = group.reshape(-1)
    members = np.split(rows[np.argsort(group, kind="stable")],
                       np.cumsum(np.bincount(group, minlength=len(faces)))[:-1])
    return [(CubeFace(int(f[0]), tuple(int(x) for x in f[1:])), m) for f, m in zip(faces, members)]


def assert_same_groups(got, want):
    assert [face for face, _ in got] == [face for face, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_face_groups_match_the_unique_grouping(seed):
    """Random key rows with many ties in the leading columns and a random
    selection, all rows, no rows, and one row."""
    rng = np.random.default_rng(seed)
    keys = np.column_stack([rng.integers(0, 2, 300), rng.integers(0, 2, 300),
                            rng.integers(-3, 4, (300, 2))]).astype(np.int64)
    for select in (rng.random(300) < 0.6, np.ones(300, dtype=bool),
                   np.zeros(300, dtype=bool), np.arange(300) == 7):
        got = proj.face_groups(keys, select)
        assert_same_groups(got, oracle_face_groups(keys, select))
    assert proj.face_groups(keys, np.zeros(300, dtype=bool)) == []
    assert proj.face_groups(keys[:0], np.zeros(0, dtype=bool)) == []


def test_face_groups_on_the_pieces_of_a_projection():
    grid = DyadicGrid(np.zeros(3), 1.0, 4, (True,) * 3)
    res = proj.project_to_skeleton(seeded_blob(3, 24), grid, trials=4)
    for keys in (res.pieces.face, res.pieces.owner):
        for select in (np.ones(len(keys), dtype=bool), proj._faces_of_dim(keys, 2, grid)):
            assert_same_groups(proj.face_groups(keys, select), oracle_face_groups(keys, select))


def per_segment_sums(values, counts):
    starts = np.cumsum(counts) - counts
    return np.array([ordered_sum(values[s:s + c]) for s, c in zip(starts, counts)], dtype=float)


@pytest.mark.parametrize("loop", [0, 3, 64])
def test_ordered_sums_match_per_segment_ordered_sum(loop, monkeypatch):
    """Both paths, the position loop and the one-segment sum (``loop`` moves
    the cut between them): signed zeros, subnormals, huge and cancelling
    values, one-element and empty segments."""
    monkeypatch.setattr(core, "SEGMENT_LOOP", loop)
    rng = np.random.default_rng(5)
    tiny = 5e-324
    specials = np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, 1e300, -1e300, 1e-300, 1.0, -1.0])
    for _ in range(40):
        counts = rng.integers(0, 12, rng.integers(0, 25))
        counts[rng.random(counts.size) < 0.2] = 1
        values = rng.choice(specials, counts.sum()) * rng.choice([1.0, 0.1, 0.5], counts.sum())
        values[rng.random(counts.sum()) < 0.3] = -0.0
        got = core.ordered_sums(values, counts)
        assert got.dtype == np.float64
        assert got.tobytes() == per_segment_sums(values, counts).tobytes()
    # all -0.0 segments sum to +0.0, as ordered_sum starts from 0.0
    got = core.ordered_sums(np.full(5, -0.0), [2, 0, 1, 2])
    assert got.tobytes() == np.zeros(4).tobytes()
    assert core.ordered_sums([], []).shape == (0,)
    assert core.ordered_sums([0.1] * 10, [10])[0] == 0.9999999999999999


def oracle_row_map(v, xi, lo, hi, spanned):
    """The per-row map that the per-center map replaced: xi, lo and hi hold
    one row per vertex."""
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
        m = np.where(lo[:, a] > p[:, a], lo[:, a], p[:, a])
        p[:, a] = np.where(hi[:, a] < m, hi[:, a], m)
    out = v.copy()
    out[moving] = p
    return out


@pytest.mark.parametrize("d,n,spanned", CASES)
def test_per_center_map_matches_the_per_row_map(d, n, spanned):
    """Vertices inside the face, on a bound, on a cone plane and beyond the
    face, with several centers and faces per call."""
    rng = np.random.default_rng(40 + n + len(spanned))
    M = 5
    faces = [face_setup(n, spanned, rng) for _ in range(M)]
    lo = np.array([f[0] for f in faces])
    hi = np.array([f[1] for f in faces])
    xi = np.concatenate([centers_in_face(lo[m], hi[m], spanned, 0.25, rng, 1) for m in range(M)])
    center_of = rng.integers(0, M, 400)
    v = rng.uniform(lo[center_of] - 0.05, hi[center_of] + 0.05)
    off = [a for a in range(n) if a not in spanned]
    v[:, off] = lo[center_of][:, off]
    on = rng.random((400, n)) < 0.15
    v = np.where(on, np.where(rng.random((400, n)) < 0.5, lo[center_of], hi[center_of]), v)
    ray = rng.random(400) < 0.2
    v[ray] = xi[center_of[ray]] + 0.5 * (hi[center_of[ray]] - xi[center_of[ray]])
    assert on[:, spanned].any()
    got = proj._map_to_boundary(v, center_of, xi, lo, hi, spanned)
    want = oracle_row_map(v, xi[center_of], lo[center_of], hi[center_of], spanned)
    assert got.tobytes() == want.tobytes()


def test_per_center_map_refuses_a_coinciding_center_like_the_per_row_map():
    lo, hi = np.zeros((2, 3)), np.full((2, 3), 0.25)
    xi = np.array([[0.125, 0.125, 0.125], [0.1, 0.12, 0.14]])
    v = np.array([[0.2, 0.1, 0.05], [0.1, 0.12, 0.14], [0.25, 0.1, 0.1]])
    center_of = np.array([0, 1, 1])
    with pytest.raises(ValueError, match="coincides"):
        oracle_row_map(v, xi[center_of], lo[center_of], hi[center_of], [0, 1, 2])
    with pytest.raises(ValueError, match="coincides"):
        proj._map_to_boundary(v, center_of, xi, lo, hi, [0, 1, 2])
    # the same vertex on a bound stays put, whatever its center
    v[1] = [0.1, 0.12, 0.0]
    xi[1] = v[1]
    got = proj._map_to_boundary(v, center_of, xi, lo, hi, [0, 1, 2])
    assert got.tobytes() == oracle_row_map(v, xi[center_of], lo[center_of], hi[center_of],
                                           [0, 1, 2]).tobytes()


@pytest.mark.parametrize("n,spanned", [(2, [0, 1]), (3, [0, 2]), (3, [0, 1, 2]), (4, [1, 2, 3])])
def test_stacked_cone_planes_match_the_per_plane_oracle(n, spanned):
    rng = np.random.default_rng(n + len(spanned))
    faces = [face_setup(n, spanned, rng) for _ in range(6)]
    lo = np.array([f[0] for f in faces])
    hi = np.array([f[1] for f in faces])
    xi = np.concatenate([centers_in_face(lo[m], hi[m], spanned, 0.25, rng, 1) for m in range(6)])
    normals, offsets = proj._cone_planes(xi, lo, hi, spanned)
    for m in range(6):
        planes = oracle_cone_planes(xi[m], lo[m], hi[m], spanned)
        assert normals[m].tobytes() == np.array([p for p, _ in planes]).reshape(-1, n).tobytes()
        assert offsets[m].tolist() == [o for _, o in planes]
