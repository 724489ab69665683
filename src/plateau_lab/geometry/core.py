"""Core geometric primitives: points, balls, gauges, embedded meshes, measure.

Everything downstream (grid projections, density diagnostics, the minimizer)
speaks in terms of the small value types defined here.  Meshes are simplicial
soups: a shared vertex array plus integer simplex rows.  No conformity is
required — simplices only need pairwise disjoint interiors, which all
generators in this package maintain.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

MIN_AMBIENT_DIM = 2
MAX_AMBIENT_DIM = 6

#: relative d-volume below which a simplex counts as degenerate
DEGENERACY_REL_TOL = 1e-14

#: cap on the number of simplices refine() may produce
DEFAULT_REFINE_CAP = 2_000_000


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball of R^d (omega_d)."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def as_point(coords) -> np.ndarray:
    """Validate and return a finite ambient point as a float vector."""
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1 or not (MIN_AMBIENT_DIM <= p.size <= MAX_AMBIENT_DIM):
        raise ValueError(
            "point must be a vector of dimension %d..%d, got shape %s"
            % (MIN_AMBIENT_DIM, MAX_AMBIENT_DIM, (p.shape,))
        )
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius) with strictly positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(as_point(self.center)))
        r = float(self.radius)
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError("ball radius must be positive and finite")
        object.__setattr__(self, "radius", r)

    @property
    def ambient_dim(self) -> int:
        return self.center.size

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius


@dataclass(frozen=True)
class Gauge:
    """Power gauge h(r) = scale * r**exponent for r <= cutoff, +inf beyond.

    ``scale`` >= 0, ``exponent`` > 0, ``cutoff`` > 0.  scale == 0 is the
    trivial gauge h == 0 on [0, cutoff].
    """

    scale: float
    exponent: float
    cutoff: float

    def __post_init__(self):
        if not (self.scale >= 0.0 and math.isfinite(self.scale)):
            raise ValueError("gauge scale must be finite and >= 0")
        if not (self.exponent > 0.0 and math.isfinite(self.exponent)):
            raise ValueError("gauge exponent must be finite and > 0")
        if not (self.cutoff > 0.0 and math.isfinite(self.cutoff)):
            raise ValueError("gauge cutoff must be finite and > 0")

    def __call__(self, r: float) -> float:
        if r < 0:
            raise ValueError("gauge argument must be >= 0")
        if r > self.cutoff:
            return math.inf
        return self.scale * r ** self.exponent


@dataclass(frozen=True)
class LineBoundary:
    """A straight line (sliding boundary): base point plus unit direction."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        base = _freeze(as_point(self.base))
        d = np.asarray(self.direction, dtype=float)
        if d.shape != base.shape:
            raise ValueError("line direction must match base dimension")
        norm = float(np.linalg.norm(d))
        if norm < 1e-12:
            raise ValueError("line direction must be nonzero")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", _freeze(d / norm))

    def foot(self, x) -> np.ndarray:
        """Orthogonal projection of x onto the line."""
        x = np.asarray(x, dtype=float)
        return self.base + np.dot(x - self.base, self.direction) * self.direction

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.foot(x)))


@dataclass(frozen=True)
class EmbeddedMesh:
    """A d-dimensional simplicial soup embedded in R^n (d in {1,2}, d < n).

    ``vertices``: (V, n) float array.  ``simplices``: (S, d+1) integer rows of
    vertex indices.  ``multiplicities``: (S,) integers (>= 1 for plain sets;
    signed values appear only through net exports).  Degenerate simplices
    (zero d-volume) are rejected unless ``allow_degenerate`` is set, in which
    case they are carried along but contribute nothing to any measure.
    """

    dimension: int
    vertices: np.ndarray
    simplices: np.ndarray
    multiplicities: Optional[np.ndarray] = None
    allow_degenerate: bool = False

    def __post_init__(self):
        d = int(self.dimension)
        if d not in (1, 2):
            raise ValueError("mesh dimension must be 1 or 2")
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2:
            raise ValueError("vertices must be a (V, n) array")
        n = verts.shape[1]
        if not (MIN_AMBIENT_DIM <= n <= MAX_AMBIENT_DIM):
            raise ValueError("ambient dimension must be in 2..6")
        if d >= n:
            raise ValueError("mesh dimension must be smaller than ambient dimension")
        if verts.size and not np.all(np.isfinite(verts)):
            raise ValueError("vertex coordinates must be finite")
        simp = np.asarray(self.simplices, dtype=np.int64)
        if simp.size == 0:
            simp = simp.reshape(0, d + 1)
        if simp.ndim != 2 or simp.shape[1] != d + 1:
            raise ValueError("simplices must be a (S, d+1) index array")
        if simp.size:
            if simp.min() < 0 or simp.max() >= verts.shape[0]:
                raise ValueError("simplex index out of range")
            if not self.allow_degenerate:
                for j in range(d + 1):
                    for k in range(j + 1, d + 1):
                        if np.any(simp[:, j] == simp[:, k]):
                            raise ValueError("simplex with repeated vertex index")
        mult = self.multiplicities
        if mult is None:
            mult = np.ones(simp.shape[0], dtype=np.int64)
        else:
            mult = np.asarray(mult, dtype=np.int64)
            if mult.shape != (simp.shape[0],):
                raise ValueError("multiplicities must be one integer per simplex")
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "vertices", _freeze(verts))
        object.__setattr__(self, "simplices", _freeze(simp))
        object.__setattr__(self, "multiplicities", _freeze(mult))
        if not self.allow_degenerate and simp.shape[0]:
            vols = simplex_volumes(self)
            scale = self._simplex_diameters() ** d
            bad = np.nonzero(vols <= DEGENERACY_REL_TOL * np.maximum(scale, 1e-300))[0]
            if bad.size:
                raise ValueError(f"degenerate simplex at rows {bad[:8].tolist()} (pass allow_degenerate to keep)")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls, dimension: int, ambient_dim: int) -> "EmbeddedMesh":
        return cls(dimension, np.zeros((0, ambient_dim)), np.zeros((0, dimension + 1), dtype=np.int64))

    @classmethod
    def from_simplex_list(cls, dimension: int, chunks: Sequence[np.ndarray],
                          allow_degenerate: bool = False) -> "EmbeddedMesh":
        """Build a mesh from a list of (d+1, n) vertex blocks, deduplicating vertices."""
        if not len(chunks):
            raise ValueError("empty simplex list; use EmbeddedMesh.empty")
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
        return cls(dimension, np.array(verts, dtype=float).reshape(len(verts), n),
                   np.array(rows, dtype=np.int64), allow_degenerate=allow_degenerate)

    @classmethod
    def from_segments(cls, segments: Iterable, **kw) -> "EmbeddedMesh":
        chunks = [np.asarray(s, dtype=float) for s in segments]
        if not chunks:
            raise ValueError("no segments given")
        return cls.from_simplex_list(1, chunks, **kw)

    @classmethod
    def from_triangles(cls, triangles: Iterable, **kw) -> "EmbeddedMesh":
        chunks = [np.asarray(t, dtype=float) for t in triangles]
        if not chunks:
            raise ValueError("no triangles given")
        return cls.from_simplex_list(2, chunks, **kw)

    # -- basic queries ---------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]

    def simplex_corners(self) -> np.ndarray:
        """(S, d+1, n) array of simplex corner coordinates."""
        return self.vertices[self.simplices]

    def _simplex_diameters(self) -> np.ndarray:
        corners = self.simplex_corners()
        d = self.dimension
        out = np.zeros(corners.shape[0])
        for j in range(d + 1):
            for k in range(j + 1, d + 1):
                out = np.maximum(out, np.linalg.norm(corners[:, j] - corners[:, k], axis=1))
        return out

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.n_simplices:
            z = np.zeros(self.ambient_dim)
            return z, z
        used = self.vertices[np.unique(self.simplices)]
        return used.min(axis=0), used.max(axis=0)

    def transformed(self, rotation: Optional[np.ndarray] = None,
                    translation: Optional[np.ndarray] = None,
                    scale: float = 1.0) -> "EmbeddedMesh":
        """Apply x -> scale * R x + t to every vertex."""
        verts = self.vertices * float(scale)
        if rotation is not None:
            verts = verts @ np.asarray(rotation, dtype=float).T
        if translation is not None:
            verts = verts + np.asarray(translation, dtype=float)
        return EmbeddedMesh(self.dimension, verts, self.simplices.copy(),
                            self.multiplicities.copy(), allow_degenerate=self.allow_degenerate)


def simplex_volumes(mesh: EmbeddedMesh) -> np.ndarray:
    """Unsigned d-volume per simplex (Gram determinant; exact for d<=2)."""
    corners = mesh.simplex_corners()
    if corners.shape[0] == 0:
        return np.zeros(0)
    if mesh.dimension == 1:
        return np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
    u = corners[:, 1] - corners[:, 0]
    v = corners[:, 2] - corners[:, 0]
    uu = np.einsum("ij,ij->i", u, u)
    vv = np.einsum("ij,ij->i", v, v)
    uv = np.einsum("ij,ij->i", u, v)
    gram = np.maximum(uu * vv - uv * uv, 0.0)
    return 0.5 * np.sqrt(gram)


def _effective_volumes(mesh: EmbeddedMesh) -> np.ndarray:
    """Simplex volumes with degenerate rows (if allowed) zeroed out."""
    vols = simplex_volumes(mesh)
    if mesh.allow_degenerate and vols.size:
        scale = mesh._simplex_diameters() ** mesh.dimension
        degenerate = vols <= DEGENERACY_REL_TOL * np.maximum(scale, 1e-300)
        if degenerate.any():
            logger.debug("measure: %d degenerate simplices contribute 0", int(degenerate.sum()))
            vols = np.where(degenerate, 0.0, vols)
    return vols


def measure(mesh: EmbeddedMesh) -> float:
    """Total d-dimensional Hausdorff measure of the mesh (multiplicity-blind).

    Summation order is fixed (row order), so results are reproducible.
    """
    return float(np.sum(_effective_volumes(mesh)))


def mass(mesh: EmbeddedMesh) -> float:
    """Multiplicity-weighted measure: sum |m_s| * vol(s)."""
    vols = _effective_volumes(mesh)
    return float(np.sum(np.abs(mesh.multiplicities) * vols))


def refine(mesh: EmbeddedMesh, eta: float) -> EmbeddedMesh:
    """Subdivide until every simplex has diameter <= eta.

    Segments are halved and triangles are 4-split, k = ceil(log2(diam/eta))
    times per input simplex, so measure is preserved exactly and the vertex
    set only grows.  Raises if the output would exceed ``DEFAULT_REFINE_CAP``.
    """
    if not (eta > 0):
        raise ValueError("eta must be positive")
    if mesh.n_simplices == 0:
        return mesh
    diam = mesh._simplex_diameters()
    levels = np.zeros(mesh.n_simplices, dtype=np.int64)
    need = diam > eta
    levels[need] = np.ceil(np.log2(diam[need] / eta)).astype(np.int64)
    branching = (2 if mesh.dimension == 1 else 4) ** levels
    total = int(branching.sum())
    if total > DEFAULT_REFINE_CAP:
        raise ValueError(f"refine would produce {total} simplices (cap {DEFAULT_REFINE_CAP})")

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

    corners = mesh.simplex_corners()
    for i in range(mesh.n_simplices):
        before = len(chunks)
        if mesh.dimension == 1:
            split_segment(corners[i, 0], corners[i, 1], int(levels[i]))
        else:
            split_triangle(corners[i, 0], corners[i, 1], corners[i, 2], int(levels[i]))
        mults.extend([int(mesh.multiplicities[i])] * (len(chunks) - before))

    out = EmbeddedMesh.from_simplex_list(mesh.dimension, chunks, allow_degenerate=mesh.allow_degenerate)
    return EmbeddedMesh(out.dimension, out.vertices, out.simplices,
                        np.array(mults, dtype=np.int64), allow_degenerate=mesh.allow_degenerate)
