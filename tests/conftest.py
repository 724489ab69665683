"""Shared builders for the test suite.

Everything here is deliberately dumb and explicit so that tests depending on
these helpers can be read without chasing indirection.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from plateau_lab.geometry.core import EmbeddedMesh, as_point
from plateau_lab.geometry.meshio import _vertex_table, atomic_write_text, mesh_text
from plateau_lab.grids import CubeFace, DyadicGrid


def write_mesh(path, mesh: EmbeddedMesh) -> None:
    """Write the mesh in the format named by the path's suffix."""
    atomic_write_text(path, mesh_text(path, mesh))


def torus(ambient_dim: int, subdivisions: int, size: float = 1.0) -> DyadicGrid:
    """The grid over [0, size]^n with every axis identified (a flat torus)."""
    return DyadicGrid(np.zeros(ambient_dim), float(size), subdivisions, (True,) * ambient_dim)


def grid_faces(grid: DyadicGrid, dim: int):
    """Every dim-face of the grid, spanned axes by spanned axes, lattices in order."""
    n, N = grid.ambient_dim, grid.subdivisions
    for spanned in itertools.combinations(range(n), dim):
        mask = sum(1 << a for a in spanned)
        ranges = [range(N) if (mask >> a) & 1 else range(N + 1) for a in range(n)]
        for lattice in itertools.product(*ranges):
            yield CubeFace(mask, lattice)


def plane_bounds(grid: DyadicGrid, face: CubeFace) -> tuple[np.ndarray, np.ndarray]:
    """A face's lower and upper corners, axis by axis from ``plane_coordinate``."""
    lo = [grid.plane_coordinate(a, face.lattice[a]) for a in range(grid.ambient_dim)]
    hi = [grid.plane_coordinate(a, face.lattice[a] + 1) if face.spans(a) else lo[a]
          for a in range(grid.ambient_dim)]
    return np.array(lo), np.array(hi)


def containing_cells(grid: DyadicGrid, face: CubeFace) -> list[CubeFace]:
    """All top cells whose closure contains the face."""
    N = grid.subdivisions
    options = []
    for a in range(grid.ambient_dim):
        if face.spans(a):
            options.append((face.lattice[a],))
        else:
            p = face.lattice[a]
            options.append(tuple(c for c in (p - 1, p) if 0 <= c <= N - 1))
    return [CubeFace(grid.full_mask, lat) for lat in itertools.product(*options)]


def quotient_distance(grid: DyadicGrid, p, q) -> float:
    """Distance in the quotient metric: identified axes go around the seam."""
    p = as_point(p)
    q = as_point(q)
    total = 0.0
    for a in range(grid.ambient_dim):
        d = abs(p[a] - q[a])
        if grid.identified[a]:
            d = math.fmod(d, grid.size)
            d = min(d, grid.size - d)
        total += d * d
    return math.sqrt(total)


def rotated(mesh: EmbeddedMesh, rot) -> EmbeddedMesh:
    """The mesh with every vertex x moved to R x: the rows of its vertex
    table turn as ``vertices @ R.T`` and are gathered back into corners."""
    verts, simplices = _vertex_table(mesh.corners)
    return EmbeddedMesh(mesh.dimension, (verts @ np.asarray(rot, dtype=float).T)[simplices],
                        mesh.multiplicities, mesh.allow_degenerate)


def segment_mesh(points, multiplicities=None) -> EmbeddedMesh:
    """Polyline through ``points`` as a 1-dimensional mesh."""
    pts = np.asarray(points, dtype=float)
    segs = np.column_stack([np.arange(len(pts) - 1), np.arange(1, len(pts))])
    mult = None if multiplicities is None else np.asarray(multiplicities, dtype=float)
    return EmbeddedMesh(1, pts[segs], mult)


def graph_mesh(height, n: int = 16, corner=(0.0, 0.0, 0.0), size: float = 1.0,
               periodic: bool = True) -> EmbeddedMesh:
    """Triangulated graph z = height(x, y) over an n x n grid of the base square.

    With ``periodic`` the height function is sampled on representatives of the
    unit 2-torus so the seam rows agree with the opposite side.
    """
    cx, cy, cz = corner
    verts = []
    for i in range(n + 1):
        for j in range(n + 1):
            u, v = i / n, j / n
            if periodic:
                h = height(u % 1.0, v % 1.0)
            else:
                h = height(u, v)
            verts.append((cx + size * u, cy + size * v, cz + size * h))
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = (i + 1) * (n + 1) + j
            c = (i + 1) * (n + 1) + j + 1
            d = i * (n + 1) + j + 1
            tris.append((a, b, c))
            tris.append((a, c, d))
    return EmbeddedMesh(2, np.asarray(verts, dtype=float)[np.asarray(tris, dtype=np.int64)])


def flat_slice_mesh(level: float = 0.5, n: int = 8) -> EmbeddedMesh:
    """Horizontal plane z = level over the unit square base."""
    return graph_mesh(lambda x, y: level, n=n, periodic=False)


def wiggle_mesh(amplitude: float = 0.1, n: int = 32) -> EmbeddedMesh:
    """The standard wobbly competitor: z = 1/2 + a sin(2 pi x) sin(2 pi y)."""
    return graph_mesh(
        lambda x, y: 0.5 + amplitude * math.sin(2 * math.pi * x) * math.sin(2 * math.pi * y),
        n=n,
    )


def square_patch(side: float = 1.0, z: float = 0.0) -> EmbeddedMesh:
    """Two triangles covering [0, side]^2 at height z."""
    v = np.array([
        [0.0, 0.0, z], [side, 0.0, z], [side, side, z], [0.0, side, z],
    ])
    t = np.array([[0, 1, 2], [0, 2, 3]])
    return EmbeddedMesh(2, v[t])


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
