"""Dyadic grid combinatorics, and face keys and the quotient metric of a flat torus.

The face-count oracle is the standard product formula: an N-subdivided cube
in R^n has C(n,k) * N^k * (N+1)^(n-k) faces of dimension k (choose the spanned
axes, a column per spanned axis, a plane per pinned axis).  It checks the
face enumerator that the other grid tests use.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plateau_lab.grids import CubeFace, DyadicGrid

from conftest import containing_cells, grid_faces, quotient_distance, torus


def face_count_formula(n: int, big_n: int, k: int) -> int:
    return math.comb(n, k) * big_n**k * (big_n + 1) ** (n - k)


@pytest.mark.parametrize("n,big_n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_face_counts_match_product_formula(n, big_n):
    grid = DyadicGrid(np.zeros(n), 1.0, big_n)
    for k in range(n + 1):
        enumerated = sum(1 for _ in grid_faces(grid, k))
        assert enumerated == face_count_formula(n, big_n, k)


def test_every_enumerated_face_is_valid_and_distinct():
    grid = DyadicGrid(np.zeros(3), 2.0, 2)
    seen = set()
    for k in range(4):
        for face in grid_faces(grid, k):
            assert grid.is_valid(face)
            assert face.dim == k
            assert face not in seen
            seen.add(face)


def test_face_bounds_geometry():
    grid = DyadicGrid(np.array([1.0, -1.0]), 2.0, 4)   # spacing 0.5
    # the edge spanning axis 0 at lattice (2, 3)
    face = CubeFace(0b01, (2, 3))
    lo, hi = grid.face_bounds(face)
    assert np.allclose(lo, [1.0 + 2 * 0.5, -1.0 + 3 * 0.5])
    assert np.allclose(hi, [1.0 + 3 * 0.5, -1.0 + 3 * 0.5])
    assert np.allclose(grid.face_center(face), (lo + hi) / 2)
    assert grid.face_diameter(face) == pytest.approx(0.5)


def test_subfaces_and_superfaces_are_inverse_incidences():
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    for cell in grid_faces(grid, grid.ambient_dim):
        facets = grid.subfaces(cell)
        assert len(facets) == 6
        for f in facets:
            assert f.dim == 2
            assert cell in containing_cells(grid, f)


def test_interior_face_cell_incidence_counts():
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    # an interior vertex belongs to 2^3 cells, an interior edge to 2^2
    vertex = CubeFace(0, (1, 1, 1))
    assert len(containing_cells(grid, vertex)) == 8
    edge = CubeFace(0b001, (0, 1, 1))
    assert len(containing_cells(grid, edge)) == 4


def test_boundary_flags():
    grid = DyadicGrid(np.zeros(2), 1.0, 2)
    assert grid.on_boundary(CubeFace(0b01, (0, 0)))      # bottom edge
    assert grid.on_boundary(CubeFace(0b01, (1, 2)))      # top edge
    assert not grid.on_boundary(CubeFace(0b01, (0, 1)))  # interior edge


def test_only_the_walls_of_unidentified_axes_are_frozen():
    grid = DyadicGrid(np.zeros(2), 1.0, 2, (True, False))
    assert not grid.on_boundary(CubeFace(0b10, (0, 0)))  # the glued x = 0 side
    assert not grid.on_boundary(CubeFace(0b10, (2, 1)))  # the glued x = 1 side
    assert grid.on_boundary(CubeFace(0b01, (1, 2)))      # the y = 1 wall
    assert grid.on_boundary(CubeFace(0, (0, 0)))         # a corner lies in the y = 0 wall
    assert not any(torus(3, 2).on_boundary(f) for k in range(4)
                   for f in grid_faces(torus(3, 2), k))


@pytest.mark.parametrize("big_n", [1, 2, 3, 4])
def test_cell_neighbors_wrap_identified_axes(big_n):
    """V(R) is every cell one step away, around the seam on identified axes,
    each cell once."""
    grid = DyadicGrid(np.zeros(2), 1.0, big_n, (True, False))
    for cell in grid_faces(grid, 2):
        i, j = cell.lattice
        want = {(x % big_n, y) for x in (i - 1, i, i + 1)
                for y in (j - 1, j, j + 1) if 0 <= y < big_n}
        got = [c.lattice for c in grid.cell_neighbors(cell)]
        assert len(got) == len(set(got)) and set(got) == want


# ── flat torus ──

def test_quotient_distance_goes_around_the_seam():
    t = torus(3, 1)
    d = quotient_distance(t, [0.9, 0.0, 0.0], [0.1, 0.0, 0.0])
    assert d == pytest.approx(0.2, abs=1e-12)


def test_torus_identifies_all_axes():
    t = torus(3, 1, size=2.0)
    assert tuple(t.identified) == (True, True, True)
    assert t.ambient_dim == 3


def test_canonical_face_folds_the_far_seam():
    n = 4
    t = torus(2, n)
    # the right-hand edge column at lattice x = n is the same as x = 0
    far = CubeFace(0b10, (n, 1))
    assert t.canonical_face(far) == CubeFace(0b10, (0, 1))
    # interior faces are already canonical
    mid = CubeFace(0b10, (2, 1))
    assert t.canonical_face(mid) == mid


@given(arrays(np.float64, (3, 3), elements=st.floats(0.0, 1.0, exclude_max=True)))
@settings(max_examples=200)
def test_quotient_distance_is_a_metric(pts):
    t = torus(3, 1)
    p, q, r = pts
    dpq = quotient_distance(t, p, q)
    assert dpq == pytest.approx(quotient_distance(t, q, p), abs=1e-12)
    assert quotient_distance(t, p, p) == pytest.approx(0.0, abs=1e-12)
    # triangle inequality
    assert dpq <= quotient_distance(t, p, r) + quotient_distance(t, r, q) + 1e-12
    # never longer than the straight-line representative distance
    assert dpq <= np.linalg.norm(p - q) + 1e-12


@given(st.integers(0, 3), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=100)
def test_canonical_face_is_idempotent(axes, i, j):
    n = 4
    t = torus(2, n)
    face = CubeFace(axes, (i, j))
    grid = t
    if not grid.is_valid(face):
        face = t.canonical_face(face)
    once = t.canonical_face(face)
    assert t.canonical_face(once) == once


# ── value equality ──

def test_grids_compare_and_hash_by_value():
    a, b = torus(3, 4), torus(3, 4)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert DyadicGrid(np.zeros(3), 1.0, 4) == DyadicGrid(np.zeros(3), 1.0, 4, (False,) * 3)
    for other in (DyadicGrid(np.zeros(3), 1.0, 4),                 # identified
                  torus(3, 8),                          # subdivisions
                  torus(3, 4, size=2.0),                # size
                  DyadicGrid(np.array([0.0, 0.0, 0.5]), 1.0, 4, (True,) * 3),   # corner
                  DyadicGrid(np.array([0.0, 0.0, -0.0]), 1.0, 4, (True,) * 3),  # corner bytes
                  torus(2, 4)):                         # dimension
        assert a != other and not a == other
    assert a != "torus" and a != None  # noqa: E711


# ── glued axes over key rows: canonical, closure cells, farthest offsets ──

GLUE_GRIDS = {f"n{n}-N{big_n}-{''.join('g' if b else 'w' for b in ident)}":
              DyadicGrid(np.zeros(n), 1.0, big_n, ident)
              for n in (2, 3) for big_n in (1, 2, 3)
              for ident in itertools.product((False, True), repeat=n)}


@pytest.mark.parametrize("name", sorted(GLUE_GRIDS))
def test_canonical_matches_canonical_face_row_by_row(name):
    """Key rows with lattice entries from -N to 2N, and every axes mask."""
    grid = GLUE_GRIDS[name]
    n, big_n = grid.ambient_dim, grid.subdivisions
    rng = np.random.default_rng(sorted(GLUE_GRIDS).index(name))
    keys = np.column_stack([rng.integers(0, grid.full_mask + 1, 300),
                            rng.integers(-big_n, 2 * big_n + 1, (300, n))])
    want = [[f.axes, *f.lattice] for f in (grid.canonical_face(CubeFace(r[0], tuple(r[1:])))
                                           for r in keys.tolist())]
    assert grid.canonical(keys).tolist() == want


def oracle_closure_cells(grid, face):
    """Cells whose closure holds the face, walked: p-1 or p on each pinned
    axis, wrapped on identified axes and dropped off the walls of the others."""
    big_n = grid.subdivisions
    options = []
    for a, glued in enumerate(grid.identified):
        p = face.lattice[a]
        near = (p,) if face.spans(a) else (p - 1, p)
        options.append({i % big_n for i in near} if glued
                       else {i for i in near if 0 <= i < big_n})
    return sorted(CubeFace(grid.full_mask, lat) for lat in itertools.product(*options))


@pytest.mark.parametrize("name", sorted(GLUE_GRIDS))
def test_closure_cells_match_the_walk_each_cell_once(name):
    """Every face of every dimension, the glued far planes (index N) too."""
    grid = GLUE_GRIDS[name]
    n = grid.ambient_dim
    faces = [f for k in range(n + 1) for f in grid_faces(grid, k)]
    cells, valid = grid.closure_cells(grid.key_rows(faces))
    assert cells.shape == (len(faces), 2 ** n, n + 1) and valid.shape == cells.shape[:2]
    for face, rows, keep in zip(faces, cells.tolist(), valid.tolist()):
        got = [CubeFace(r[0], tuple(r[1:])) for r, k in zip(rows, keep) if k]
        assert sorted(got) == oracle_closure_cells(grid, face)


def test_farthest_offsets_reach_the_antipode_across_the_seam():
    """Seen from (0.1, 0.1, 0.1) on the 3-torus, the square x in [0.5, 0.75],
    y in [0, 0.25], z = 0 holds the antipode x = 0.6; its nearer x end 0.75
    (0.35 around the seam) is not its farthest point."""
    grid = torus(3, 4)
    lo, hi = grid.face_bounds(CubeFace(0b011, (2, 0, 0)))
    far = grid.farthest_offsets(np.full(3, 0.1), lo, hi)
    assert far == pytest.approx([0.5, 0.15, 0.1])
    assert math.sqrt((far ** 2).sum()) == pytest.approx(0.5315, abs=1e-4)


@pytest.mark.parametrize("name", sorted(GLUE_GRIDS))
def test_farthest_offsets_match_dense_sampling(name):
    """The quotient distance splits over the axes, so a box's farthest point
    is farthest on each axis on its own: sample each axis of every face at
    1,025 points, fold the glued ones around the seam, and take the max."""
    grid = GLUE_GRIDS[name]
    n = grid.ambient_dim
    faces = [f for k in range(n + 1) for f in grid_faces(grid, k)]
    lo, hi = grid.bounds(grid.key_rows(faces))
    t = np.linspace(0.0, 1.0, 1025)
    step = grid.spacing / 1024
    rng = np.random.default_rng(sorted(GLUE_GRIDS).index(name))
    for center in grid.corner + rng.random((6, n)) * grid.size:
        got = grid.farthest_offsets(center, lo, hi)
        for a in range(n):
            off = np.abs(lo[:, a, None] + (hi[:, a] - lo[:, a])[:, None] * t - center[a])
            if grid.identified[a]:
                off = np.minimum(np.fmod(off, grid.size), grid.size - np.fmod(off, grid.size))
            want = off.max(axis=1)
            assert np.all(got[:, a] >= want - 1e-12) and np.all(got[:, a] <= want + step)
