"""Discrete minimizer: face-set semantics, moves, and a brute-force oracle.

The d = 1 oracle enumerates every edge subset of a tiny torus grid, keeps the
ones homologous to the start (difference in the GF(2) span of cell
boundaries), and takes the true minimum measure.  The greedy minimizer has to
land on it.
"""
from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau_lab.geometry.core import EmbeddedMesh
from plateau_lab.grids import CubeFace, DyadicGrid
from plateau_lab import minimizer as mz

from conftest import (flat_slice_mesh, grid_faces, plane_bounds, quotient_distance,
                      segment_mesh, torus, wiggle_mesh)


def torus_grid(n_sub: int, dim: int = 3):
    return torus(dim, n_sub)


def flat_slice_faces(n_sub: int, level: int):
    """All horizontal 2-faces of the z = level/n plane (canonical lattice)."""
    return frozenset(CubeFace(0b011, (i, j, level))
                     for i in range(n_sub) for j in range(n_sub))


def flat_faceset(n_sub: int = 4, level: int = 2) -> mz.FaceSet:
    grid = torus_grid(n_sub)
    return mz.FaceSet(grid, flat_slice_faces(n_sub, level))


def cell_boundary(grid, cell: CubeFace) -> frozenset:
    return frozenset(grid.canonical_face(f) for f in grid.subfaces(cell))


def applied(fs: mz.FaceSet, move: mz.Move) -> mz.FaceSet:
    """The face set after the move, as ``minimize_faceset`` applies it."""
    return fs.with_faces(fs.faces ^ move.toggles)


# ── face-set semantics ──


class TestFaceSet:
    def test_measure_counts_top_faces(self):
        fs = flat_faceset(4)
        assert fs.dimension == 2
        assert len(fs.faces) == 16
        assert fs.measure() == pytest.approx(1.0)

    def test_flat_slice_is_a_relative_cycle(self):
        assert flat_faceset(4).is_relative_cycle()

    def test_punctured_slice_is_not(self):
        fs = flat_faceset(4)
        hole = next(iter(fs.faces))
        punctured = fs.with_faces(fs.faces - {hole})
        assert not punctured.is_relative_cycle()
        assert punctured.odd_ridges()

    def test_lower_dimensional_face_is_rejected(self):
        grid = torus_grid(4)
        stray_edge = CubeFace(0b001, (0, 0, 0))
        with pytest.raises(ValueError, match="dimension n-1"):
            mz.FaceSet(grid, flat_slice_faces(4, 2) | {stray_edge})

    def test_to_mesh_round_trips_measure(self):
        fs = flat_faceset(4)
        from plateau_lab.geometry.core import measure
        assert measure(fs.to_mesh()) == pytest.approx(fs.measure(), rel=1e-12)


# ── moves ──


class TestMoves:
    def test_flip_toggles_one_cell_boundary(self):
        grid = torus_grid(4)
        slice_faces = flat_slice_faces(4, 2)
        cell = CubeFace(0b111, (1, 1, 2))
        pimple = frozenset(slice_faces) ^ cell_boundary(grid, cell)
        fs = mz.FaceSet(grid, pimple)
        assert fs.measure() == pytest.approx(20 / 16)
        assert fs.is_relative_cycle()

        moves = [m for m in mz.admissible_moves(fs) if m.delta_faces < 0]
        best = min(moves, key=lambda m: m.sort_key())
        assert best.kind == "interior-projection"
        assert best.delta_faces == -4
        after = applied(fs, best)
        assert after.faces == frozenset(slice_faces)

    def test_apply_move_is_an_involution_on_faces(self):
        grid = torus_grid(4)
        cell = CubeFace(0b111, (0, 0, 2))
        fs = flat_faceset(4)
        toggles = cell_boundary(grid, cell)
        move = [m for m in mz.admissible_moves(fs, only_improving=False)
                if frozenset(m.toggles) == toggles]
        assert move, "the single-cell toggle should be admissible"
        once = applied(fs, move[0])
        again = [m for m in mz.admissible_moves(once, only_improving=False)
                 if frozenset(m.toggles) == toggles]
        assert again and applied(once, again[0]).faces == fs.faces

    def test_move_deltas_are_exact_face_counts(self):
        fs = flat_faceset(4)
        s = fs.grid.spacing
        # the flat slice has no improving move, so inspect the full menu
        for move in mz.admissible_moves(fs, only_improving=False):
            after = applied(fs, move)
            assert len(after.faces) - len(fs.faces) == move.delta_faces
            assert after.measure() - fs.measure() == pytest.approx(
                move.delta_faces * s**2, abs=1e-12)

    def test_move_support_sits_in_its_ball(self):
        grid = torus_grid(4)
        fs = flat_faceset(4)
        for move in mz.admissible_moves(fs, only_improving=False):
            for face in move.toggles:
                center = grid.face_center(face)
                d = quotient_distance(grid, center, move.ball.center)
                assert d <= move.ball.radius + 1e-12

    @given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3),
                             st.integers(0, 3)), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_cell_toggles_preserve_the_cycle_property(self, lattice_points):
        # XOR-ing boundaries of any cell bag keeps the chain closed, so the
        # move generator must always be offered cycle-preserving flips
        grid = torus_grid(4)
        faces = frozenset(flat_slice_faces(4, 2))
        for lat in lattice_points:
            faces = faces ^ cell_boundary(grid, CubeFace(0b111, lat))
        fs = mz.FaceSet(grid, faces)
        assert fs.is_relative_cycle()
        for move in mz.admissible_moves(fs, only_improving=False):
            if move.kind == "interior-projection":
                assert applied(fs, move).is_relative_cycle()

    def test_free_collapse_trims_a_whisker(self):
        # a dangling edge on a 2-torus curve: exactly one free ridge
        grid = torus(2, 4)
        loop = frozenset(CubeFace(0b01, (i, 1)) for i in range(4))
        whisker = CubeFace(0b10, (2, 1))
        fs = mz.FaceSet(grid, loop | {whisker})
        assert not fs.is_relative_cycle()
        collapses = mz.collapse_moves(fs)
        assert any(m.kind == "free-collapse" and whisker in m.toggles
                   for m in collapses)
        result = mz.minimize_faceset(fs)
        assert whisker not in result.faceset.faces
        assert result.faceset.faces == loop


# ── flat fixed point and the pimple ──


def test_flat_slice_is_a_fixed_point():
    result = mz.minimize_faceset(flat_faceset(4))
    assert result.final_measure == pytest.approx(1.0)
    assert result.rounds == 0 or not result.log
    assert result.faceset.faces == flat_faceset(4).faces


def test_pimple_is_flattened_in_one_move():
    grid = torus_grid(4)
    cell = CubeFace(0b111, (1, 1, 2))
    faces = frozenset(flat_slice_faces(4, 2)) ^ cell_boundary(grid, cell)
    result = mz.minimize_faceset(mz.FaceSet(grid, faces))
    assert result.final_measure == pytest.approx(1.0)
    assert len(result.log) == 1
    entry = result.log[0]
    assert entry["kind"] == "interior-projection"


# ── brute-force oracle on the 2-torus, d = 1 ──


def gf2_span_membership(vectors: list[np.ndarray], target: np.ndarray) -> bool:
    """Is target in the GF(2) span of vectors?  Plain Gaussian elimination."""
    rows = [v.copy() for v in vectors]
    t = target.copy()
    pivot_cols = []
    reduced = []
    for row in rows:
        for col_r, r in zip(pivot_cols, reduced):
            if row[col_r]:
                row ^= r
        nz = np.flatnonzero(row)
        if nz.size:
            pivot_cols.append(int(nz[0]))
            reduced.append(row)
    for col_r, r in zip(pivot_cols, reduced):
        if t[col_r]:
            t ^= r
    return not t.any()


def test_greedy_reaches_the_enumerated_optimum():
    n = 2
    grid = torus(2, n)
    edges = sorted(
        {grid.canonical_face(f) for k in (1, 2) for f in grid_faces(grid, 1)
         if grid.is_valid(f)},
        key=lambda f: (f.axes, f.lattice),
    )
    index = {f: i for i, f in enumerate(edges)}
    assert len(edges) == 2 * n * n

    def vec(faces) -> np.ndarray:
        v = np.zeros(len(edges), dtype=np.uint8)
        for f in faces:
            v[index[grid.canonical_face(f)]] ^= 1
        return v

    boundaries = [vec(grid.subfaces(c)) for c in grid_faces(grid, grid.ambient_dim)]

    # a bent loop around axis 0 only: right, up, right (wraps), down
    start = {CubeFace(0b01, (0, 0)), CubeFace(0b10, (1, 0)),
             CubeFace(0b01, (1, 1)), CubeFace(0b10, (2, 0))}
    start = frozenset(grid.canonical_face(f) for f in start)
    fs = mz.FaceSet(grid, start)
    assert fs.is_relative_cycle()
    start_vec = vec(start)

    # oracle: scan all 2^8 edge subsets in the same homology class
    best = math.inf
    for bits in itertools.product((0, 1), repeat=len(edges)):
        v = np.array(bits, dtype=np.uint8)
        if not gf2_span_membership(boundaries, v ^ start_vec):
            continue
        subset = frozenset(e for e, b in zip(edges, bits) if b)
        cand = mz.FaceSet(grid, subset)
        if cand.is_relative_cycle():
            best = min(best, cand.measure())
    assert best == pytest.approx(1.0)

    result = mz.minimize_faceset(fs)
    assert result.final_measure == pytest.approx(best)
    audit = mz.quasiminimality_audit(result.faceset, trials=500, seed=1)
    assert audit.improving_trials == 0
    assert audit.worst_ratio <= 1.0 + 1e-12


# ── initialization from meshes ──


def test_on_skeleton_mesh_initializes_by_thresholding():
    grid = torus_grid(4)
    report = mz.initialize_from_mesh(flat_slice_mesh(level=0.5, n=8), grid)
    assert report.source == "threshold"
    assert report.faceset.is_relative_cycle()
    assert report.faceset.measure() == pytest.approx(1.0)


def test_wiggly_mesh_falls_back_to_completion():
    grid = torus_grid(8)
    report = mz.initialize_from_mesh(wiggle_mesh(amplitude=0.1, n=16), grid)
    assert report.faceset.is_relative_cycle()
    # the competitor never exceeds the terraced staircase bound
    assert report.faceset.measure() <= 1.0 + 8 / 8 + 1e-9


def test_wiggle_minimizes_back_to_the_flat_slice():
    grid = torus_grid(8)
    report = mz.initialize_from_mesh(wiggle_mesh(amplitude=0.1, n=16), grid)
    result = mz.minimize_faceset(report.faceset)
    assert result.final_measure == pytest.approx(1.0)
    audit = mz.quasiminimality_audit(result.faceset, trials=1000, seed=3)
    assert audit.improving_trials == 0


def test_audit_flags_the_pimple():
    grid = torus_grid(4)
    cell = CubeFace(0b111, (1, 1, 2))
    faces = frozenset(flat_slice_faces(4, 2)) ^ cell_boundary(grid, cell)
    audit = mz.quasiminimality_audit(mz.FaceSet(grid, faces),
                                     trials=2000, seed=0)
    assert audit.improving_trials > 0
    assert audit.worst_ratio > 1.0


@pytest.mark.parametrize("trials", [-1, mz.MAX_AUDIT_TRIALS + 1])
def test_audit_trials_out_of_range_raise(trials):
    with pytest.raises(ValueError, match=f"audit trials must be in 0..{mz.MAX_AUDIT_TRIALS}"):
        mz.quasiminimality_audit(flat_faceset(4), trials=trials)


def test_scheme_levels_do_not_increase():
    scheme = mz.run_scheme(wiggle_mesh(amplitude=0.1, n=16), DyadicGrid(np.zeros(3), 1.0, 1),
                           [4, 8], audit_trials=300, seed=0)
    finals = [lv.result.final_measure for lv in scheme.levels]
    assert finals == sorted(finals, reverse=True)
    for lv in scheme.levels:
        assert lv.audit.improving_trials == 0
    assert scheme.distances, "the level ladder must report gap readings"


@pytest.mark.parametrize("cap", [mz.MAX_ROUNDS, 1])
def test_scheme_audit_reuses_the_descent_verdict(monkeypatch, cap):
    """Below the round cap the descent ends on an empty move list, and the
    audit does not build it again; at the cap the audit builds it."""
    monkeypatch.setattr(mz, "MAX_ROUNDS", cap)
    mesh, domain = wiggle_mesh(amplitude=0.3, n=8), torus(3, 1)
    calls = []
    moves = mz.admissible_moves
    monkeypatch.setattr(mz, "admissible_moves", lambda *a, **k: calls.append(a[0]) or moves(*a, **k))
    scheme = mz.run_scheme(mesh, domain, [2, 4], audit_trials=50)
    rounds = [lv.result.rounds for lv in scheme.levels]
    assert rounds == ([0, 2] if cap > 1 else [0, 1])
    # a list per round, plus the empty one that ends the descent or, at the
    # cap, the audit's own
    assert len(calls) == sum(r + 1 for r in rounds)
    for lv in scheme.levels:
        assert lv.audit == mz.quasiminimality_audit(lv.result.faceset, trials=50, seed=0)


def test_one_dimensional_curve_on_the_2_torus():
    grid = torus(2, 8)
    # a seam-periodic zigzag around axis 0
    pts = [(i / 16, 0.25 + 0.05 * math.sin(2 * math.pi * i / 16)) for i in range(17)]
    mesh = segment_mesh(pts)
    report = mz.initialize_from_mesh(mesh, grid)
    result = mz.minimize_faceset(report.faceset)
    assert result.final_measure == pytest.approx(1.0)


# ── one boundary rule per axis: glued if identified, else frozen walls ──

@pytest.mark.parametrize("identified", [(True, False), (False, False)])
def test_partial_grid_freezes_the_walls_it_does_not_identify(identified):
    """The edge column x = 1/2 of a 4 x 4 grid in R^2, from wall to wall.

    Its two ends are odd ridges on the walls of axis 1.  That axis is not
    identified, so its walls are frozen whether or not axis 0 is: the column
    is a relative cycle, and no collapse move erases it.
    """
    grid = DyadicGrid(np.zeros(2), 1.0, 4, identified)
    fs = mz.FaceSet(grid, frozenset(CubeFace(0b10, (2, j)) for j in range(4)))
    assert fs.odd_ridges() == {CubeFace(0, (2, 0)), CubeFace(0, (2, 4))}
    assert fs.is_relative_cycle()
    assert mz.collapse_moves(fs) == []


@pytest.mark.parametrize("big_n", [3, 4])
def test_slab_freezes_like_the_box_and_glues_like_the_torus(big_n):
    """A slab glued in x and y and walled in z: a film between two plates.

    Its frozen faces are the box's z-walls, face for face, and its keys and
    cell neighbours on x and y are the torus's.  A sheet x = 1/N rising from
    the floor to height h has the torus's odd ridges (the y sides are glued)
    and the box's collapse moves (the floor is frozen); from floor to ceiling
    it is a relative cycle on all three.
    """
    n = 3
    slab = DyadicGrid(np.zeros(n), 1.0, big_n, (True, True, False))
    box, tor = DyadicGrid(np.zeros(n), 1.0, big_n), torus(n, big_n)
    faces = [f for k in range(n + 1) for f in grid_faces(box, k)]

    def in_z_wall(f):
        lo, hi = box.face_bounds(f)
        return lo[2] == hi[2] and lo[2] in (box.plane_coordinate(2, 0),
                                            box.plane_coordinate(2, big_n))

    assert {f for f in faces if slab.on_boundary(f)} == \
        {f for f in faces if box.on_boundary(f) and in_z_wall(f)}
    for f in faces:
        glued, wrapped = slab.canonical_face(f), tor.canonical_face(f)
        assert glued.lattice[:2] == wrapped.lattice[:2] and glued.lattice[2] == f.lattice[2]
    for cell in grid_faces(box, n):
        near = slab.cell_neighbors(cell)
        assert {c.lattice[:2] for c in near} == {c.lattice[:2] for c in tor.cell_neighbors(cell)}
        assert {c.lattice[2] for c in near} == {c.lattice[2] for c in box.cell_neighbors(cell)}

    def sheet(grid, h):
        return mz.FaceSet(grid, frozenset(CubeFace(0b110, (1, j, k))
                                          for j in range(big_n) for k in range(h)))

    for h in range(2, big_n):
        assert sheet(slab, h).odd_ridges() == sheet(tor, h).odd_ridges() \
            != sheet(box, h).odd_ridges()
        slab_moves = _move_rows(mz.collapse_moves(sheet(slab, h)))
        assert slab_moves == _move_rows(mz.collapse_moves(sheet(box, h)))
        assert slab_moves != _move_rows(mz.collapse_moves(sheet(tor, h)))
        assert not sheet(slab, h).is_relative_cycle()
    assert all(sheet(g, big_n).is_relative_cycle() for g in (slab, box, tor))


# ── the ridge table and the batched audit against the plain walks ──


def oracle_ridge_incidence(fs):
    """Canonical ridge -> number of incident d-faces, walked face by face."""
    inc = {}
    for f in fs.faces:
        for r in fs.grid.subfaces(f):
            r = fs.grid.canonical_face(r)
            inc[r] = inc.get(r, 0) + 1
    return inc


def oracle_frozen(grid, face):
    """In a wall of an axis the grid does not identify: pinned at plane 0 or N."""
    return any(face.lattice[a] in (0, grid.subdivisions)
               for a in range(grid.ambient_dim)
               if not (grid.identified[a] or face.spans(a)))


def oracle_collapse_moves(fs):
    inc = oracle_ridge_incidence(fs)
    owner = {}
    for f in fs.faces:
        for r in fs.grid.subfaces(f):
            owner[fs.grid.canonical_face(r)] = f
    moves, seen = [], set()
    for r, k in inc.items():
        if k != 1 or oracle_frozen(fs.grid, r):
            continue
        f = owner[r]
        if f not in seen:
            seen.add(f)
            moves.append(mz.Move("free-collapse", "collapse", frozenset([f]), -1,
                                 (f.axes,) + f.lattice, mz._support_ball(fs.grid, [f])))
    return moves


def oracle_coplanar_components(fs):
    """One ridge map and one flood fill per (pinned axis, plane) group."""
    grid = fs.grid
    groups = {}
    for f in fs.faces:
        a = next(ax for ax in range(grid.ambient_dim) if not f.spans(ax))
        groups.setdefault((a, f.lattice[a]), []).append(f)
    comps = []
    for (a, p), members in sorted(groups.items()):
        ridge_map = {}
        for f in members:
            for r in grid.subfaces(f):
                ridge_map.setdefault(grid.canonical_face(r), []).append(f)
        adjacency = {f: set() for f in members}
        for flist in ridge_map.values():
            for x in flist:
                adjacency[x].update(y for y in flist if y != x)
        todo = set(members)
        while todo:
            seed = min(todo)
            comp, frontier = {seed}, [seed]
            todo.discard(seed)
            while frontier:
                for nb in adjacency[frontier.pop()]:
                    if nb in todo:
                        todo.discard(nb)
                        comp.add(nb)
                        frontier.append(nb)
            comps.append((a, p, frozenset(comp)))
    return comps


def oracle_cell_across(grid, face, axis, level):
    N = grid.subdivisions
    if grid.identified[axis]:
        level %= N
    elif not 0 <= level <= N - 1:
        return None
    lat = list(face.lattice)
    lat[axis] = level
    return CubeFace(grid.full_mask, tuple(lat))


def oracle_flip_moves(fs):
    """One flip per cell on either side of a face of the set, walked face by face."""
    grid = fs.grid
    cells = set()
    for f in fs.faces:
        a = next(ax for ax in range(grid.ambient_dim) if not f.spans(ax))
        cells |= {oracle_cell_across(grid, f, a, level)
                  for level in (f.lattice[a] - 1, f.lattice[a])} - {None}
    return [m for cell in sorted(cells) for m in mz._cell_boundary_move(
        fs, "flip", [cell], (cell.axes,) + cell.lattice, False)]


def oracle_audit(fs, trials, seed):
    """The audit with one ``farthest`` call per move and trial.

    Returns the report's fields and the most moves that fitted one ball.
    """
    grid = fs.grid
    s = grid.spacing
    max_radius = mz.AUDIT_RADIUS_CELLS * s
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xA0D17,)))
    top = sorted(fs.faces)
    if not top:
        return (1.0, 0, trials), 0
    lows, highs = zip(*(grid.face_bounds(f) for f in top))
    lo_arr, hi_arr = np.array(lows), np.array(highs)
    moves = mz.admissible_moves(fs, only_improving=True)
    move_bounds = []
    for m in moves:
        ml, mh = zip(*(grid.face_bounds(f) for f in sorted(m.toggles)))
        move_bounds.append((np.array(ml), np.array(mh)))

    def farthest(center, lo, hi):
        # on a glued axis the circle distance from the center peaks at its
        # antipode; a box that misses the antipode peaks at an end
        far = np.maximum(np.abs(lo - center), np.abs(hi - center))
        for a in range(grid.ambient_dim):
            if grid.identified[a]:
                ends = [np.minimum(np.abs(x - center[a]), grid.size - np.abs(x - center[a]))
                        for x in (lo[..., a], hi[..., a])]
                antipode = (center[a] - grid.corner[a] + grid.size / 2) % grid.size + grid.corner[a]
                holds = (lo[..., a] <= antipode) & (antipode <= hi[..., a])
                far[..., a] = np.where(holds, grid.size / 2, np.maximum(*ends))
        return np.sqrt((far ** 2).sum(axis=-1))

    worst, improving, most_fits = 1.0, 0, 0
    n = grid.ambient_dim
    for _ in range(trials):
        center = grid.corner + rng.random(n) * grid.size
        r = s + rng.random() * max(max_radius - s, 0.0)
        before = int(np.count_nonzero(farthest(center, lo_arr, hi_arr) <= r + 1e-12))
        if before == 0:
            continue
        best, fits = None, 0
        for m, (ml, mh) in zip(moves, move_bounds):
            if np.all(farthest(center, ml, mh) <= r + 1e-12):
                fits += 1
                after = before + m.delta_faces
                if best is None or after < best:
                    best = after
        most_fits = max(most_fits, fits)
        if best is None:
            ratio = 1.0
        else:
            improving += 1
            ratio = before / best if best > 0 else math.inf
        worst = max(worst, ratio)
    return (worst, improving, trials), most_fits


ORACLE_GRIDS = {
    "torus2-N1": torus(2, 1),
    "torus2-N2": torus(2, 2),
    "torus3-N1": torus(3, 1),
    "torus3-N2": torus(3, 2),
    "torus3-N3": torus(3, 3),
    "box2-N4": DyadicGrid(np.zeros(2), 1.0, 4),
    "box3-N2": DyadicGrid(np.zeros(3), 1.0, 2),
    "box3-N3": DyadicGrid(np.full(3, -0.5), 2.0, 3),
    "slab3-N1": DyadicGrid(np.zeros(3), 1.0, 1, (True, False, True)),
    "slab3-N2": DyadicGrid(np.zeros(3), 1.0, 2, (True, False, True)),
    "slab3-N3": DyadicGrid(np.zeros(3), 1.0, 3, (True, False, True)),
}


def random_faceset(name, seed):
    """About half of the grid's canonical d-faces, drawn with a seeded rng."""
    grid = ORACLE_GRIDS[name]
    faces = sorted({grid.canonical_face(f) for f in grid_faces(grid, grid.ambient_dim - 1)})
    keep = np.random.default_rng(seed).random(len(faces)) < 0.5
    return mz.FaceSet(grid, frozenset(f for f, k in zip(faces, keep) if k))


ORACLE_CASES = [(name, seed) for name in ORACLE_GRIDS for seed in (0, 1, 2)]


def _move_rows(moves):
    return [(m.sort_key(), m.toggles, tuple(m.ball.center), m.ball.radius)
            for m in sorted(moves, key=mz.Move.sort_key)]


@pytest.mark.parametrize("name,seed", ORACLE_CASES)
def test_ridge_table_and_its_readers_match_the_walks(name, seed):
    fs = random_faceset(name, seed)
    grid = fs.grid
    inc = oracle_ridge_incidence(fs)
    assert {r: len(held) for r, held in fs.ridges.items()} == inc
    for r, held in fs.ridges.items():
        want = [f for f in sorted(fs.faces) for q in grid.subfaces(f)
                if grid.canonical_face(q) == r]
        assert sorted(held) == want
    assert fs.odd_ridges() == {r for r, k in inc.items() if k % 2}
    assert _move_rows(mz.collapse_moves(fs)) == _move_rows(oracle_collapse_moves(fs))
    assert mz._coplanar_components(fs) == oracle_coplanar_components(fs)
    for f in fs.faces:
        a = next(ax for ax in range(grid.ambient_dim) if not f.spans(ax))
        for level in range(-1, grid.subdivisions + 1):
            assert mz._cell_across(grid, f, a, level) == oracle_cell_across(grid, f, a, level)
    assert _move_rows(mz.flip_moves(fs, only_improving=False)) == \
        _move_rows(oracle_flip_moves(fs))


def test_a_face_whose_ridges_wrap_onto_one_is_held_twice():
    grid = torus(2, 1)
    face = CubeFace(0b01, (0, 0))
    fs = mz.FaceSet(grid, frozenset([face]))
    assert fs.ridges == {CubeFace(0, (0, 0)): [face, face]}
    assert fs.is_relative_cycle()
    assert mz.collapse_moves(fs) == []


# ── the face-set mesh against the per-face chunks ──


def oracle_face_chunks(grid, face):
    """The face as simplex corner blocks (1 segment or 2 triangles), built
    one face at a time."""
    lo, hi = plane_bounds(grid, face)
    spanned = [a for a in range(grid.ambient_dim) if face.spans(a)]
    if face.dim == 1:
        b = lo.copy()
        b[spanned[0]] = hi[spanned[0]]
        return [np.array([lo, b])]
    a0, a1 = spanned
    p10, p11, p01 = lo.copy(), lo.copy(), lo.copy()
    p10[a0] = p11[a0] = hi[a0]
    p11[a1] = p01[a1] = hi[a1]
    return [np.array([lo, p10, p11]), np.array([lo, p11, p01])]


def test_to_mesh_measures():
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    fs = mz.FaceSet(grid, frozenset([CubeFace(0b011, (0, 1, 2))]))   # a square of side 1/2
    corners = fs.to_mesh().corners
    assert corners.shape == (2, 3, 3)
    total = sum(0.5 * np.linalg.norm(np.cross(b - a, c - a)) for a, b, c in corners)
    assert total == pytest.approx(0.25)


MESH_GRIDS = {
    "box2": DyadicGrid(np.array([-0.5, 0.25]), 2.0, 4),
    "torus2": torus(2, 3),
    "slab2": DyadicGrid(np.array([0.1, -7.3]), 0.7, 5, (False, True)),
    "box3": DyadicGrid(np.array([0.1, -7.3, 1e3 / 3]), 0.7, 3),
    "torus3": torus(3, 2, size=3.0),
    "slab3": DyadicGrid(np.full(3, 1000.0), 2.0 ** -6, 3, (True, False, True)),
}


@pytest.mark.parametrize("name", sorted(MESH_GRIDS))
@pytest.mark.parametrize("seed", [0, 1])
def test_to_mesh_matches_the_per_face_chunks(name, seed):
    """Corners and multiplicities bit for bit against the mesh of
    the per-face chunks, on about half of the grid's canonical d-faces."""
    grid = MESH_GRIDS[name]
    faces = sorted({grid.canonical_face(f) for f in grid_faces(grid, grid.ambient_dim - 1)})
    keep = np.random.default_rng(seed).random(len(faces)) < 0.5
    fs = mz.FaceSet(grid, frozenset(f for f, k in zip(faces, keep) if k))
    got = fs.to_mesh()
    want = EmbeddedMesh(
        fs.dimension, [c for f in sorted(fs.faces) for c in oracle_face_chunks(grid, f)])
    assert got.corners.tobytes() == want.corners.tobytes()
    assert got.multiplicities.tobytes() == want.multiplicities.tobytes()


def test_to_mesh_of_an_empty_set_and_of_3_faces():
    empty = mz.FaceSet(torus(3, 2), frozenset()).to_mesh()
    assert (empty.dimension, empty.ambient_dim, empty.n_simplices) == (2, 3, 0)
    with pytest.raises(ValueError, match="only for 1- and 2-faces"):
        mz.FaceSet(torus(4, 1), frozenset([CubeFace(0b0111, (0, 0, 0, 0))])).to_mesh()


def test_batched_audit_matches_the_per_move_loop():
    most = {}
    for name, seed in ORACLE_CASES + [("flat", 0)]:
        fs = flat_faceset(4) if name == "flat" else random_faceset(name, seed)
        want, most[name, seed] = oracle_audit(fs, 200, seed)
        assert mz.quasiminimality_audit(fs, trials=200, seed=seed) == mz.HaircutReport(*want)
    # the batched min has to pick among several fitting moves somewhere
    assert max(most.values()) >= 2
    assert most["flat", 0] == 0


# ── the graph completion against the wall stacks it replaced ──


def oracle_completion(res, grid):
    """The dominant-level graph completion with its wall stacks built by hand:
    one pinned face per column plus the walls between neighbouring columns
    of different levels, wrapped on identified axes."""
    n = grid.ambient_dim
    N = grid.subdivisions
    cover = res.content_measure_by_face()
    per_axis = [0.0] * n
    for f, m in cover.items():
        if f.dim == n - 1:
            per_axis[mz._pinned_axis(f)] += m
    axis = int(np.argmax(per_axis))
    mask = grid.full_mask & ~(1 << axis)
    levels = {}
    for f, m in cover.items():
        if f.dim != n - 1 or f.axes != mask:
            continue
        col = tuple(x for i, x in enumerate(f.lattice) if i != axis)
        p = f.lattice[axis]
        cur = levels.get(col)
        if cur is None or m > cur[0] + 1e-15 or (abs(m - cur[0]) <= 1e-15 and p < cur[1]):
            levels[col] = (m, p)
    if levels:
        tally = {}
        for m, p in levels.values():
            tally[p] = tally.get(p, 0.0) + m
        default = max(sorted(tally), key=lambda p: tally[p])
    else:
        default = N // 2
    other_axes = [a for a in range(n) if a != axis]
    cols = list(np.ndindex(*([N] * len(other_axes))))
    level_of = {col: levels.get(tuple(col), (0.0, default))[1] for col in cols}

    def face_at(col, p):
        lat = [0] * n
        for i, a in enumerate(other_axes):
            lat[a] = col[i]
        lat[axis] = p
        return CubeFace(mask, tuple(lat))

    faces = {face_at(col, level_of[col]) for col in cols}
    for col in cols:
        for i, a in enumerate(other_axes):
            nb = list(col)
            nb[i] += 1
            if nb[i] >= N:
                if not grid.identified[a]:
                    continue
                nb[i] %= N
            p0, p1 = level_of[col], level_of[tuple(nb)]
            if p0 == p1:
                continue
            wall_mask = grid.full_mask & ~(1 << a)
            for h in range(min(p0, p1), max(p0, p1)):
                lat = [0] * n
                for j, aa in enumerate(other_axes):
                    lat[aa] = col[j]
                lat[a] = col[i] + 1
                lat[axis] = h
                faces.add(grid.canonical_face(CubeFace(wall_mask, tuple(lat))))
    return mz.FaceSet(grid, frozenset(faces))


#: each grid with its canonical faces of dimension n-1 and below
COMPLETION_GRIDS = [(grid, sorted({grid.canonical_face(f) for k in range(grid.ambient_dim)
                                   for f in grid_faces(grid, k)}))
                    for grid in (DyadicGrid(np.zeros(n), 1.0, big_n, ident)
                                 for n in (2, 3) for big_n in range(1, 6)
                                 for ident in itertools.product((False, True), repeat=n))]


def random_cover(grid, faces, rng):
    """A seeded coverage table: some of ``faces`` in a random order (the
    order breaks chained ties), empty one time in twenty.  Most values come
    from a few levels, each also moved by a few 1e-16, so columns and axes
    tie within the 1e-15 tolerance."""
    n = grid.ambient_dim
    if rng.random() < 0.05:
        return {}
    picked = rng.permutation(len(faces))[:rng.integers(1, len(faces) + 1)]
    base = rng.choice([0.25, 0.5, 1.0], size=picked.size) * grid.spacing ** (n - 1)
    jitter = rng.integers(-4, 5, size=picked.size) * 3e-16
    values = np.where(rng.random(picked.size) < 0.8, base + jitter,
                      rng.random(picked.size) * grid.spacing ** (n - 1))
    return {faces[i]: float(v) for i, v in zip(picked.tolist(), values.tolist())}


def test_completion_matches_the_wall_stacks():
    """3,000 seeded tables over n = 2, 3, N = 1..5 and every choice of
    identified axes: box, torus and partly identified grids."""
    rng = np.random.default_rng(2018)
    empty = set()
    for t in range(3000):
        grid, faces = COMPLETION_GRIDS[t % len(COMPLETION_GRIDS)]
        cover = random_cover(grid, faces, rng)
        res = SimpleNamespace(content_measure_by_face=lambda cover=cover: cover)
        got = mz._completion_faceset(cover, grid)
        assert got == oracle_completion(res, grid), (t, grid)
        empty.add(not cover)
    assert empty == {True, False}
