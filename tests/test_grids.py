"""Dyadic grid combinatorics and flat-torus quotient geometry.

The face-count oracle is the standard product formula: an N-subdivided cube
in R^n has C(n,k) * N^k * (N+1)^(n-k) faces of dimension k (choose the spanned
axes, a column per spanned axis, a plane per pinned axis).
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plateau_lab.grids import CubeFace, DyadicGrid, build_grid


def face_count_formula(n: int, big_n: int, k: int) -> int:
    return math.comb(n, k) * big_n**k * (big_n + 1) ** (n - k)


@pytest.mark.parametrize("n,big_n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_face_counts_match_product_formula(n, big_n):
    grid = build_grid(np.zeros(n), 1.0, big_n)
    for k in range(n + 1):
        enumerated = sum(1 for _ in grid.faces(k))
        assert enumerated == face_count_formula(n, big_n, k)
        assert grid.count_faces(k) == enumerated


def test_every_enumerated_face_is_valid_and_distinct():
    grid = build_grid(np.zeros(3), 2.0, 2)
    seen = set()
    for k in range(4):
        for face in grid.faces(k):
            assert grid.is_valid(face)
            assert face.dim == k
            assert face not in seen
            seen.add(face)


def test_face_bounds_geometry():
    grid = build_grid(np.array([1.0, -1.0]), 2.0, 4)   # spacing 0.5
    # the edge spanning axis 0 at lattice (2, 3)
    face = CubeFace(0b01, (2, 3))
    lo, hi = grid.face_bounds(face)
    assert np.allclose(lo, [1.0 + 2 * 0.5, -1.0 + 3 * 0.5])
    assert np.allclose(hi, [1.0 + 3 * 0.5, -1.0 + 3 * 0.5])
    assert np.allclose(grid.face_center(face), (lo + hi) / 2)
    assert grid.face_diameter(face) == pytest.approx(0.5)


def test_subfaces_and_superfaces_are_inverse_incidences():
    grid = build_grid(np.zeros(3), 1.0, 2)
    for cell in grid.cells():
        facets = grid.subfaces(cell)
        assert len(facets) == 6
        for f in facets:
            assert f.dim == 2
            assert cell in grid.superfaces(f)


def test_interior_face_cell_incidence_counts():
    grid = build_grid(np.zeros(3), 1.0, 2)
    # an interior vertex belongs to 2^3 cells, an interior edge to 2^2
    vertex = CubeFace(0, (1, 1, 1))
    assert len(grid.containing_cells(vertex)) == 8
    edge = CubeFace(0b001, (0, 1, 1))
    assert len(grid.containing_cells(edge)) == 4


def test_boundary_flags():
    grid = build_grid(np.zeros(2), 1.0, 2)
    assert grid.on_boundary(CubeFace(0b01, (0, 0)))      # bottom edge
    assert grid.on_boundary(CubeFace(0b01, (1, 2)))      # top edge
    assert not grid.on_boundary(CubeFace(0b01, (0, 1)))  # interior edge
    boundary_cells = grid.boundary_cells()
    assert len(boundary_cells) == 4   # every cell of a 2x2 grid touches the rim


def test_skeleton_measure_of_unit_square_grid():
    grid = build_grid(np.zeros(2), 1.0, 2)
    # 12 edges of length 1/2
    assert grid.skeleton_measure(1) == pytest.approx(6.0)
    # 4 cells of area 1/4
    assert grid.skeleton_measure(2) == pytest.approx(1.0)


def test_face_mesh_chunk_measures():
    grid = build_grid(np.zeros(3), 1.0, 2)
    cell_face = CubeFace(0b011, (0, 1, 2))   # a square of side 1/2
    chunks = grid.face_mesh_chunk(cell_face)
    total = 0.0
    for ch in chunks:
        a, b, c = ch
        total += 0.5 * np.linalg.norm(np.cross(b - a, c - a))
    assert total == pytest.approx(0.25)


# ── flat torus ──

def test_wrap_into_fundamental_domain():
    t = DyadicGrid.torus(3, 1)
    assert np.allclose(t.wrap([1.25, 0.0, 0.0]), [0.25, 0.0, 0.0])
    assert np.allclose(t.wrap([-0.25, 2.5, 0.75]), [0.75, 0.5, 0.75])


def test_quotient_distance_goes_around_the_seam():
    t = DyadicGrid.torus(3, 1)
    d = t.quotient_distance([0.9, 0.0, 0.0], [0.1, 0.0, 0.0])
    assert d == pytest.approx(0.2, abs=1e-12)


def test_torus_identifies_all_axes():
    t = DyadicGrid.torus(3, 1, size=2.0)
    assert tuple(t.identified) == (True, True, True)
    assert t.ambient_dim == 3


def test_canonical_face_folds_the_far_seam():
    n = 4
    t = DyadicGrid.torus(2, n)
    # the right-hand edge column at lattice x = n is the same as x = 0
    far = CubeFace(0b10, (n, 1))
    assert t.canonical_face(far) == CubeFace(0b10, (0, 1))
    # interior faces are already canonical
    mid = CubeFace(0b10, (2, 1))
    assert t.canonical_face(mid) == mid


@given(arrays(np.float64, (3,), elements=st.floats(-10, 10)))
@settings(max_examples=200)
def test_wrap_is_idempotent_in_the_quotient(p):
    # a tiny negative input wraps to exactly 1.0 in floats, which re-wraps
    # to 0.0 -- the same torus point, so compare via the quotient metric
    t = DyadicGrid.torus(3, 1)
    w = t.wrap(p)
    assert (w >= 0.0).all() and (w <= 1.0).all()
    assert t.quotient_distance(t.wrap(w), w) == pytest.approx(0.0, abs=1e-12)


@given(arrays(np.float64, (3, 3), elements=st.floats(0.0, 1.0, exclude_max=True)))
@settings(max_examples=200)
def test_quotient_distance_is_a_metric(pts):
    t = DyadicGrid.torus(3, 1)
    p, q, r = pts
    dpq = t.quotient_distance(p, q)
    assert dpq == pytest.approx(t.quotient_distance(q, p), abs=1e-12)
    assert t.quotient_distance(p, p) == pytest.approx(0.0, abs=1e-12)
    # triangle inequality
    assert dpq <= t.quotient_distance(p, r) + t.quotient_distance(r, q) + 1e-12
    # never longer than the straight-line representative distance
    assert dpq <= np.linalg.norm(p - q) + 1e-12


@given(st.integers(0, 3), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=100)
def test_canonical_face_is_idempotent(axes, i, j):
    n = 4
    t = DyadicGrid.torus(2, n)
    face = CubeFace(axes, (i, j))
    grid = t
    if not grid.is_valid(face):
        face = t.canonical_face(face)
    once = t.canonical_face(face)
    assert t.canonical_face(once) == once


# ── value equality ──

def test_grids_compare_and_hash_by_value():
    a, b = DyadicGrid.torus(3, 4), DyadicGrid.torus(3, 4)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert build_grid(np.zeros(3), 1.0, 4) == DyadicGrid(np.zeros(3), 1.0, 4, (False,) * 3)
    for other in (build_grid(np.zeros(3), 1.0, 4),                 # identified
                  DyadicGrid.torus(3, 8),                          # subdivisions
                  DyadicGrid.torus(3, 4, size=2.0),                # size
                  DyadicGrid(np.array([0.0, 0.0, 0.5]), 1.0, 4, (True,) * 3),   # corner
                  DyadicGrid(np.array([0.0, 0.0, -0.0]), 1.0, 4, (True,) * 3),  # corner bytes
                  DyadicGrid.torus(2, 4)):                         # dimension
        assert a != other and not a == other
    assert a != "torus" and a != None  # noqa: E711
