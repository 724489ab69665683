"""The writers' vertex table and refine against the loops they replaced.

The oracles below are the code that ran before it worked on arrays: the
vertex numbering merged vertices one corner at a time in a dict keyed by the
corner's bytes, and ``refine`` split one simplex at a time by recursion.  The
array code must give the same vertices, simplex rows, corners and
multiplicities, byte for byte.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from plateau_lab import cones
from plateau_lab.geometry.core import (DEFAULT_REFINE_CAP, EmbeddedMesh, _corner_diameters,
                                       measure, refine)
from plateau_lab.geometry.meshio import _vertex_table


# ── oracles ──

def oracle_vertex_table(chunks):
    n = np.asarray(chunks[0], dtype=float).shape[1]
    key_to_idx: dict[bytes, int] = {}
    verts: list[np.ndarray] = []
    rows = []
    for chunk in chunks:
        block = np.asarray(chunk, dtype=float)
        row = []
        for v in block:
            key = v.tobytes()
            idx = key_to_idx.get(key)
            if idx is None:
                idx = len(verts)
                key_to_idx[key] = idx
                verts.append(v)
            row.append(idx)
        rows.append(row)
    return np.array(verts, dtype=float).reshape(len(verts), n), np.array(rows, dtype=np.int64)


def oracle_refine(mesh, eta):
    diam = _corner_diameters(mesh.corners, mesh.dimension)
    levels = np.zeros(mesh.n_simplices, dtype=np.int64)
    need = diam > eta
    levels[need] = np.ceil(np.log2(diam[need] / eta)).astype(np.int64)
    chunks: list[np.ndarray] = []
    mults: list[int] = []

    def split_segment(a, b, k):
        if k == 0:
            chunks.append(np.array([a, b]))
            return
        m = 0.5 * (a + b)
        split_segment(a, m, k - 1)
        split_segment(m, b, k - 1)

    def split_triangle(a, b, c, k):
        if k == 0:
            chunks.append(np.array([a, b, c]))
            return
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        split_triangle(a, ab, ca, k - 1)
        split_triangle(ab, b, bc, k - 1)
        split_triangle(ca, bc, c, k - 1)
        split_triangle(ab, bc, ca, k - 1)

    corners = mesh.corners
    for i in range(mesh.n_simplices):
        before = len(chunks)
        if mesh.dimension == 1:
            split_segment(corners[i, 0], corners[i, 1], int(levels[i]))
        else:
            split_triangle(corners[i, 0], corners[i, 1], corners[i, 2], int(levels[i]))
        mults.extend([int(mesh.multiplicities[i])] * (len(chunks) - before))
    return EmbeddedMesh(mesh.dimension, chunks, mults, mesh.allow_degenerate)


def assert_same_arrays(got, want):
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        assert a.shape == b.shape and a.dtype == b.dtype, i
        assert a.tobytes() == b.tobytes(), i


def assert_same_mesh(got, want):
    assert got.dimension == want.dimension
    assert got.allow_degenerate == want.allow_degenerate
    assert_same_arrays((got.corners, got.multiplicities), (want.corners, want.multiplicities))


# ── inputs ──

DN = [(d, n) for d in (1, 2) for n in range(2, 7) if d < n]


def signed_zero_pool(n):
    """Corners that differ only in the sign of a zero, which stay apart."""
    base = np.eye(n)
    flipped = base.copy()
    flipped[flipped == 0.0] = -0.0
    return np.vstack([base, flipped, np.zeros((1, n)), np.full((1, n), -0.0)])


def soup(d, n, rng, count=60, pool=12):
    """Corners drawn from a small pool, so vertices are shared across
    simplices and repeated within one; the pool holds exact duplicates and
    signed zeros."""
    points = rng.uniform(-1.0, 1.0, (pool, n))
    points = np.vstack([points, points[:3], signed_zero_pool(n)])
    return points[rng.integers(0, points.shape[0], (count, d + 1))]


def distinct_soup(d, n, rng, count=40):
    """A soup with no repeated corner inside a simplex, so it validates
    without ``allow_degenerate``; neighbours share corners, and the corners
    of ``-eye`` carry -0.0."""
    points = np.vstack([rng.uniform(-1.0, 1.0, (10, n)), np.eye(n), -np.eye(n)])
    rows = np.array([rng.choice(points.shape[0], d + 1, replace=False) for _ in range(count)])
    return points[rows]


# ── the vertex table ──

@pytest.mark.parametrize("d,n", DN)
@pytest.mark.parametrize("seed", [0, 1])
def test_builder_matches_oracle(d, n, seed):
    rng = np.random.default_rng([seed, d, n])
    corners = soup(d, n, rng)
    want = oracle_vertex_table(list(corners))
    assert_same_arrays(_vertex_table(corners), want)
    verts, simplices = want
    assert verts[simplices].tobytes() == corners.tobytes()
    clean = distinct_soup(d, n, rng)
    assert_same_arrays(_vertex_table(EmbeddedMesh(d, clean).corners),
                       oracle_vertex_table(list(clean)))


def test_signed_zeros_stay_apart():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    flipped = np.array([[-0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, -0.0]])
    verts, simplices = _vertex_table(EmbeddedMesh(2, [tri, flipped, tri]).corners)
    assert verts.shape[0] == 5
    assert simplices.tolist() == [[0, 1, 2], [3, 1, 4], [0, 1, 2]]
    assert np.signbit(verts[3, 0]) and np.signbit(verts[4, 2])


def test_builder_refuses_an_empty_list():
    """An empty list has no (S, d+1, n) shape; an empty corner array is the
    empty mesh, and its vertex table is empty."""
    with pytest.raises(ValueError, match=r"\(S, d\+1, n\)"):
        EmbeddedMesh(2, [])
    mesh = EmbeddedMesh(1, np.zeros((0, 2, 3)))
    assert (mesh.n_simplices, mesh.ambient_dim, mesh.multiplicities.shape) == (0, 3, (0,))
    verts, simplices = _vertex_table(mesh.corners)
    assert verts.shape == (0, 3) and simplices.shape == (0, 2) and simplices.dtype == np.int64


def test_builder_checks_multiplicities_and_rows():
    tri = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    with pytest.raises(ValueError, match="multiplicities"):
        EmbeddedMesh(2, tri, [1, 2])
    with pytest.raises(ValueError, match=r"\(S, d\+1, n\)"):
        EmbeddedMesh(1, tri)
    with pytest.raises(ValueError, match="degenerate simplex at rows \\[0\\]"):
        EmbeddedMesh(2, tri[:, [0, 1, 0]])


# ── refine ──

def mixed_level_mesh(d, n, rng, count=12):
    """Simplices whose diameters span 0.01..1, so that at eta = 0.1 the
    levels run from 0 to 4; multiplicities other than 1 ride along."""
    corners = distinct_soup(d, n, rng, count)
    anchor = corners[:, :1]
    scale = np.geomspace(0.01, 1.0, count)[:, None, None]
    corners = anchor + scale * (corners - anchor)
    corners[0, 0] = -0.0
    return EmbeddedMesh(d, corners, rng.integers(1, 5, count), True)


@pytest.mark.parametrize("d,n", DN)
def test_refine_matches_oracle(d, n):
    rng = np.random.default_rng([3, d, n])
    mesh = mixed_level_mesh(d, n, rng)
    levels = np.ceil(np.log2(np.maximum(_corner_diameters(mesh.corners, d) / 0.1, 1.0)))
    assert levels.min() == 0 and levels.max() >= 3
    for eta in (0.1, 0.37, 10.0):
        got = refine(mesh, eta)
        assert_same_mesh(got, oracle_refine(mesh, eta))
        assert measure(got) == pytest.approx(measure(mesh), rel=1e-12)


@pytest.mark.parametrize("name", ["line", "y1", "plane", "y", "t"])
def test_refine_cones_match_oracle(name):
    mesh = cones.build_cone(name, extent=1.1)
    assert_same_mesh(refine(mesh, 0.2), oracle_refine(mesh, 0.2))


def test_refine_over_the_cap_raises_before_allocating():
    mesh = cones.t_cone(extent=1.1)
    tracemalloc.start()
    try:
        # 1e-4 is just over the cap; 1e-12 and 1e-300 overflow a 64-bit count
        for eta in (1e-4, 1e-12, 1e-300):
            with pytest.raises(ValueError, match=f"cap {DEFAULT_REFINE_CAP}"):
                refine(mesh, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
