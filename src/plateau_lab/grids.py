"""Dyadic cube complexes and flat identified manifolds.

A grid subdivides an axis-aligned cube Q into N^n closed subcubes of side
s = size/N.  Faces of every dimension are addressed by integer keys: a
bitmask of spanned axes plus a lattice tuple holding cell indices (0..N-1) on
spanned axes and plane indices (0..N) on pinned axes.  All incidence and
adjacency is integer arithmetic; geometry (bounds, centers, meshes) is
derived from the key.

A flat manifold is a single cube with opposite-face identifications on a
subset of axes (all axes = flat torus).  Identified axes wrap points into the
fundamental domain, turn the metric into the quotient metric, and make face
keys periodic (plane index N is plane 0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry.core import as_point

#: refuse to build grids with more cells than this
MAX_GRID_CELLS = 4_194_304


@dataclass(frozen=True, order=True)
class CubeFace:
    """A k-face of a dyadic grid: spanned-axes bitmask + lattice tuple."""

    axes: int
    lattice: tuple

    @property
    def dim(self) -> int:
        return bin(self.axes).count("1")

    def spans(self, axis: int) -> bool:
        return bool((self.axes >> axis) & 1)


@dataclass(frozen=True)
class DyadicGrid:
    """N^n dyadic complex over the cube [corner, corner + size]^n."""

    corner: np.ndarray
    size: float
    subdivisions: int

    def __post_init__(self):
        object.__setattr__(self, "corner", as_point(self.corner))
        self.corner.flags.writeable = False
        if not (self.size > 0 and math.isfinite(self.size)):
            raise ValueError("grid size must be positive and finite")
        N = int(self.subdivisions)
        if N < 1:
            raise ValueError("subdivisions must be >= 1")
        object.__setattr__(self, "subdivisions", N)
        if N ** self.ambient_dim > MAX_GRID_CELLS:
            raise ValueError(f"grid with {N}^{self.ambient_dim} cells exceeds the cap")

    # -- basic attributes ------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.corner.size

    @property
    def spacing(self) -> float:
        """Side length s of one subcube."""
        return self.size / self.subdivisions

    @property
    def full_mask(self) -> int:
        return (1 << self.ambient_dim) - 1

    def plane_coordinate(self, axis: int, index: int) -> float:
        return float(self.corner[axis] + index * self.spacing)

    # -- face enumeration ------------------------------------------------------

    def count_faces(self, dim: int) -> int:
        n, N = self.ambient_dim, self.subdivisions
        if not (0 <= dim <= n):
            raise ValueError("face dimension out of range")
        return math.comb(n, dim) * N ** dim * (N + 1) ** (n - dim)

    def faces(self, dim: int) -> Iterator[CubeFace]:
        n, N = self.ambient_dim, self.subdivisions
        if not (0 <= dim <= n):
            raise ValueError("face dimension out of range")
        for spanned in itertools.combinations(range(n), dim):
            mask = sum(1 << a for a in spanned)
            ranges = [range(N) if (mask >> a) & 1 else range(N + 1) for a in range(n)]
            for lattice in itertools.product(*ranges):
                yield CubeFace(mask, lattice)

    def cells(self) -> Iterator[CubeFace]:
        return self.faces(self.ambient_dim)

    def is_valid(self, face: CubeFace) -> bool:
        n, N = self.ambient_dim, self.subdivisions
        if face.axes < 0 or face.axes > self.full_mask or len(face.lattice) != n:
            return False
        for a in range(n):
            hi = N - 1 if face.spans(a) else N
            if not (0 <= face.lattice[a] <= hi):
                return False
        return True

    # -- geometry of a face ----------------------------------------------------

    def face_bounds(self, face: CubeFace) -> tuple[np.ndarray, np.ndarray]:
        # build both corners from plane_coordinate so that bounds compare
        # bit-identically against exactly-assigned split coordinates
        lo = np.array([self.plane_coordinate(a, face.lattice[a])
                       for a in range(self.ambient_dim)])
        hi = np.array([self.plane_coordinate(a, face.lattice[a] + 1) if face.spans(a)
                       else lo[a] for a in range(self.ambient_dim)])
        return lo, hi

    def face_center(self, face: CubeFace) -> np.ndarray:
        lo, hi = self.face_bounds(face)
        return 0.5 * (lo + hi)

    def face_diameter(self, face: CubeFace) -> float:
        return self.spacing * math.sqrt(face.dim)

    def face_mesh_chunk(self, face: CubeFace) -> list[np.ndarray]:
        """The face as simplex corner blocks (1 segment or 2 triangles)."""
        lo, hi = self.face_bounds(face)
        spanned = [a for a in range(self.ambient_dim) if face.spans(a)]
        if face.dim == 1:
            b = lo.copy()
            b[spanned[0]] = hi[spanned[0]]
            return [np.array([lo, b])]
        if face.dim == 2:
            a0, a1 = spanned
            p00 = lo.copy()
            p10 = lo.copy(); p10[a0] = hi[a0]
            p11 = lo.copy(); p11[a0] = hi[a0]; p11[a1] = hi[a1]
            p01 = lo.copy(); p01[a1] = hi[a1]
            return [np.array([p00, p10, p11]), np.array([p00, p11, p01])]
        raise ValueError("mesh chunks only for 1- and 2-faces")

    # -- incidence ---------------------------------------------------------------

    def subfaces(self, face: CubeFace) -> list[CubeFace]:
        """Codimension-1 subfaces (2*dim of them)."""
        out = []
        for a in range(self.ambient_dim):
            if not face.spans(a):
                continue
            for side in (0, 1):
                lat = list(face.lattice)
                lat[a] = lat[a] + side
                out.append(CubeFace(face.axes & ~(1 << a), tuple(lat)))
        return out

    def superfaces(self, face: CubeFace) -> list[CubeFace]:
        """Faces one dimension up whose closure contains this face."""
        N = self.subdivisions
        out = []
        for a in range(self.ambient_dim):
            if face.spans(a):
                continue
            p = face.lattice[a]
            for cell in (p - 1, p):
                if 0 <= cell <= N - 1:
                    lat = list(face.lattice)
                    lat[a] = cell
                    out.append(CubeFace(face.axes | (1 << a), tuple(lat)))
        return out

    def on_boundary(self, face: CubeFace) -> bool:
        """True when the face lies inside the boundary of Q."""
        N = self.subdivisions
        for a in range(self.ambient_dim):
            if not face.spans(a) and face.lattice[a] in (0, N):
                return True
        return False

    def containing_cells(self, face: CubeFace) -> list[CubeFace]:
        """All top cells whose closure contains the face."""
        N = self.subdivisions
        options = []
        for a in range(self.ambient_dim):
            if face.spans(a):
                options.append((face.lattice[a],))
            else:
                p = face.lattice[a]
                options.append(tuple(c for c in (p - 1, p) if 0 <= c <= N - 1))
        return [CubeFace(self.full_mask, lat) for lat in itertools.product(*options)]

    # -- cube adjacency -----------------------------------------------------------

    def cell_neighbors(self, cell: CubeFace) -> list[CubeFace]:
        """V(R): cells whose closure meets the closure of R (includes R)."""
        if cell.axes != self.full_mask:
            raise ValueError("cell_neighbors expects a top cell")
        N = self.subdivisions
        ranges = [tuple(c for c in (i - 1, i, i + 1) if 0 <= c <= N - 1)
                  for i in cell.lattice]
        return [CubeFace(self.full_mask, lat) for lat in itertools.product(*ranges)]

    def boundary_cells(self) -> list[CubeFace]:
        """The annulus A: cells touching the boundary of Q."""
        N = self.subdivisions
        out = []
        for cell in self.cells():
            if any(i == 0 or i == N - 1 for i in cell.lattice):
                out.append(cell)
        return out

    def skeleton_measure(self, dim: int) -> float:
        """Total H^dim of the dim-skeleton (count times s^dim)."""
        return self.count_faces(dim) * self.spacing ** dim


def build_grid(corner, size: float, subdivisions: int) -> DyadicGrid:
    """Construct the N^n dyadic complex over [corner, corner + size]^n."""
    return DyadicGrid(np.asarray(corner, dtype=float), float(size), int(subdivisions))


@dataclass(frozen=True)
class FlatManifold:
    """A cube with opposite-face identifications on the marked axes."""

    corner: np.ndarray
    size: float
    identified: tuple

    def __post_init__(self):
        object.__setattr__(self, "corner", as_point(self.corner))
        self.corner.flags.writeable = False
        if not (self.size > 0 and math.isfinite(self.size)):
            raise ValueError("manifold size must be positive and finite")
        ident = tuple(bool(b) for b in self.identified)
        if len(ident) != self.corner.size:
            raise ValueError("identification flags must match the ambient dimension")
        object.__setattr__(self, "identified", ident)

    @classmethod
    def torus(cls, ambient_dim: int, size: float = 1.0, corner=None) -> "FlatManifold":
        c = np.zeros(ambient_dim) if corner is None else np.asarray(corner, dtype=float)
        return cls(c, float(size), tuple(True for _ in range(ambient_dim)))

    @property
    def ambient_dim(self) -> int:
        return self.corner.size

    def wrap(self, point) -> np.ndarray:
        """Map a point into the fundamental domain along identified axes."""
        x = np.array(as_point(point), dtype=float)
        for a in range(self.ambient_dim):
            if self.identified[a]:
                x[a] = self.corner[a] + np.mod(x[a] - self.corner[a], self.size)
        return x

    def quotient_distance(self, p, q) -> float:
        p = as_point(p)
        q = as_point(q)
        total = 0.0
        for a in range(self.ambient_dim):
            d = abs(p[a] - q[a])
            if self.identified[a]:
                d = math.fmod(d, self.size)
                d = min(d, self.size - d)
            total += d * d
        return math.sqrt(total)

    def grid(self, subdivisions: int) -> DyadicGrid:
        return DyadicGrid(self.corner.copy(), self.size, subdivisions)

    # -- periodic face keys -----------------------------------------------------

    def canonical_face(self, face: CubeFace, subdivisions: int) -> CubeFace:
        """Wrap a face key: plane index N -> 0, cell indices mod N, on identified axes."""
        N = subdivisions
        lat = list(face.lattice)
        for a in range(self.ambient_dim):
            if self.identified[a]:
                lat[a] = lat[a] % N
        return CubeFace(face.axes, tuple(lat))
