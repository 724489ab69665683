"""Dyadic cube complexes, optionally with opposite faces identified.

A grid subdivides an axis-aligned cube Q into N^n closed subcubes of side
s = size/N.  Faces of every dimension are addressed by integer keys: a
bitmask of spanned axes plus a lattice tuple holding cell indices (0..N-1) on
spanned axes and plane indices (0..N) on pinned axes.  All incidence and
adjacency is integer arithmetic; geometry (bounds, centers) is derived from
the key.  Many faces travel as an int array of key rows [axes, lattice...],
and a face's bounds, its frozen-wall test, its canonical key and the cells
around it are written once, over such rows; the one-face forms read a
one-row array, save ``canonical_face``, which is too hot for the round trip.

A grid may identify opposite faces of Q on a subset of axes (all axes = flat
torus, none = box).  Each axis has its own boundary rule: an identified axis
is glued, so its face keys canonicalize (plane index N is plane 0, and cell
indices run mod N) and adjacency wraps around it; the two walls of every
other axis are frozen.  A slab glued in x and y and walled in z is a film
between two plates.  Every glue decision is made here: other modules read no
identification flag and wrap no index themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class DyadicGrid:
    """N^n dyadic complex over the cube [corner, corner + size]^n.

    ``identified`` holds one flag per axis (default: none identified): an
    identified axis is glued, the walls of any other axis are frozen.  Two
    grids are equal when their corner bytes, size, subdivisions and
    identifications are.
    """

    corner: np.ndarray
    size: float
    subdivisions: int
    identified: tuple = None

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
        ident = (False,) * self.ambient_dim if self.identified is None \
            else tuple(bool(b) for b in self.identified)
        if len(ident) != self.ambient_dim:
            raise ValueError("identification flags must match the ambient dimension")
        object.__setattr__(self, "identified", ident)

    def _key(self) -> tuple:
        return self.corner.tobytes(), self.size, self.subdivisions, self.identified

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, DyadicGrid) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

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

    # -- face keys ---------------------------------------------------------------

    def is_valid(self, face: CubeFace) -> bool:
        n, N = self.ambient_dim, self.subdivisions
        if face.axes < 0 or face.axes > self.full_mask or len(face.lattice) != n:
            return False
        for a in range(n):
            hi = N - 1 if face.spans(a) else N
            if not (0 <= face.lattice[a] <= hi):
                return False
        return True

    # -- geometry of key rows ----------------------------------------------------

    def key_rows(self, faces) -> np.ndarray:
        """(R, n+1) int64 key rows [axes, lattice...] of the faces, in order."""
        return np.array([(f.axes,) + f.lattice for f in faces],
                        dtype=np.int64).reshape(-1, self.ambient_dim + 1)

    def spans(self, keys: np.ndarray) -> np.ndarray:
        """(R, n) mask of the axes each key row spans."""
        return (keys[:, :1] >> np.arange(self.ambient_dim)) & 1 == 1

    def bounds(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(R, n) lower and upper corners of each key row's face.

        Each coordinate is ``plane_coordinate``'s, so bounds compare
        bit-identically against exactly-assigned split coordinates.
        """
        lat = keys[:, 1:]
        lo = self.corner + lat * self.spacing
        return lo, np.where(self.spans(keys), self.corner + (lat + 1) * self.spacing, lo)

    def frozen(self, keys: np.ndarray) -> np.ndarray:
        """(R,) True where the row's face lies in a frozen wall: a wall of Q
        on an axis that is not identified."""
        wall = (keys[:, 1:] == 0) | (keys[:, 1:] == self.subdivisions)
        return (wall & ~self.spans(keys) & ~np.array(self.identified)).any(axis=1)

    def face_bounds(self, face: CubeFace) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.bounds(self.key_rows([face]))
        return lo[0], hi[0]

    def face_center(self, face: CubeFace) -> np.ndarray:
        lo, hi = self.face_bounds(face)
        return 0.5 * (lo + hi)

    def face_diameter(self, face: CubeFace) -> float:
        return self.spacing * math.sqrt(face.dim)

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

    def on_boundary(self, face: CubeFace) -> bool:
        """True when the face lies in a frozen wall (``frozen``)."""
        return bool(self.frozen(self.key_rows([face]))[0])

    # -- cube adjacency -----------------------------------------------------------

    def cell_neighbors(self, cell: CubeFace) -> list[CubeFace]:
        """V(R): cells whose closure meets the closure of R (includes R),
        wrapping identified axes, each cell once."""
        if cell.axes != self.full_mask:
            raise ValueError("cell_neighbors expects a top cell")
        N = self.subdivisions
        ranges = [sorted({(i + k) % N for k in (-1, 0, 1)}) if glued
                  else [c for c in (i - 1, i, i + 1) if 0 <= c <= N - 1]
                  for i, glued in zip(cell.lattice, self.identified)]
        return [CubeFace(self.full_mask, lat) for lat in itertools.product(*ranges)]

    def closure_cells(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cells whose closure holds each key row's face, each cell once.

        Returns cells (R, 2^n, n+1) and valid (R, 2^n): row r's candidates
        take cell p-1 or p on each axis the face pins at plane p (bit a of
        the candidate's index picks p), wrapped on identified axes; the valid
        ones lie in the grid and are distinct (p-1 and p are one cell when
        a glued axis has N = 1).
        """
        n, N = self.ambient_dim, self.subdivisions
        glued = np.array(self.identified)
        spans = self.spans(keys)[:, None, :]
        upper = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        lat = np.where(spans, keys[:, None, 1:], keys[:, None, 1:] - 1 + upper)
        lat = np.where(glued, lat % N, lat)
        same = spans | (glued & (N == 1))
        valid = np.all((lat >= 0) & (lat < N) & ~(same & (upper == 1)), axis=2)
        cells = np.concatenate([np.full(lat.shape[:2] + (1,), self.full_mask), lat], axis=2)
        return cells, valid

    # -- identifications -----------------------------------------------------------

    def canonical(self, keys: np.ndarray) -> np.ndarray:
        """Key rows wrapped on identified axes: plane index N -> 0, cell indices mod N."""
        return np.where(np.r_[False, self.identified], keys % self.subdivisions, keys)

    def canonical_face(self, face: CubeFace) -> CubeFace:
        """One face's ``canonical`` key, without the array round trip."""
        N = self.subdivisions
        lat = list(face.lattice)
        for a in range(self.ambient_dim):
            if self.identified[a]:
                lat[a] = lat[a] % N
        return CubeFace(face.axes, tuple(lat))

    def farthest_offsets(self, center: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> np.ndarray:
        """(..., n) per-axis offset from ``center`` to the farthest point of
        each box [lo, hi] of Q, measured around the circle on identified axes.

        On a glued axis the farthest point is the antipode of ``center``, at
        size/2, when the box holds it; otherwise it is the end whose folded
        offset is larger.
        """
        d_lo, d_hi = np.abs(lo - center), np.abs(hi - center)
        half = 0.5 * self.size
        antipode = (((lo <= center + half) & (center + half <= hi))
                    | ((lo <= center - half) & (center - half <= hi)))
        folded = np.maximum(np.minimum(d_lo, self.size - d_lo), np.minimum(d_hi, self.size - d_hi))
        return np.where(self.identified, np.where(antipode, half, folded), np.maximum(d_lo, d_hi))
