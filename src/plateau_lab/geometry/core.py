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
from typing import Optional

import numpy as np

logger = logging.getLogger(__name__)

MIN_AMBIENT_DIM = 2
MAX_AMBIENT_DIM = 6

#: relative d-volume below which a simplex counts as degenerate
DEGENERACY_REL_TOL = 1e-14

#: the degeneracy check at construction runs over blocks of this many
#: simplices, so it never holds a full-size corner array
CHECK_BLOCK = 1 << 16

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


def row_dots(a, b) -> np.ndarray:
    """Dot products over the last axis, for any leading shape.

    A stacked (1, n) @ (n, 1) matmul runs the BLAS dot that ``u @ v`` runs
    on one pair of vectors, so each value equals the scalar product bit for
    bit; ``(a * b).sum(-1)`` and ``einsum`` round differently.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return stacked_dots(a, b)[..., 0, 0]


def stacked_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matmul of ``row_dots`` as a (..., 1, 1) stack, without its
    conversions: for C-contiguous float64 arrays in hot loops."""
    return np.matmul(a[..., None, :], b[..., :, None])


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
            bad = np.nonzero(np.concatenate([_degenerate(verts[simp[i:i + CHECK_BLOCK]], d)[1]
                                             for i in range(0, simp.shape[0], CHECK_BLOCK)]))[0]
            if bad.size:
                raise ValueError(f"degenerate simplex at rows {bad[:8].tolist()} (pass allow_degenerate to keep)")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls, dimension: int, ambient_dim: int) -> "EmbeddedMesh":
        return cls(dimension, np.zeros((0, ambient_dim)), np.zeros((0, dimension + 1), dtype=np.int64))

    @classmethod
    def from_simplex_list(cls, dimension: int, corners, multiplicities=None,
                          allow_degenerate: bool = False) -> "EmbeddedMesh":
        """Build a mesh from simplex corners: an (S, d+1, n) array or a list of
        (d+1, n) blocks.  Corners with equal bytes become one vertex (so -0.0
        and 0.0 stay apart), numbered in order of first appearance."""
        if not len(corners):
            raise ValueError("empty simplex list; use EmbeddedMesh.empty")
        corners = np.asarray(corners, dtype=float)
        rows = np.ascontiguousarray(corners.reshape(-1, corners.shape[-1]))
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(order.size)
        return cls(dimension, rows[first[order]], number[inverse].reshape(corners.shape[:-1]),
                   multiplicities, allow_degenerate)

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
        return _corner_diameters(self.simplex_corners(), self.dimension)

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


def _corner_volumes(corners: np.ndarray, d: int) -> np.ndarray:
    """Unsigned d-volume per (d+1, n) corner block (Gram determinant; exact for d<=2)."""
    if corners.shape[0] == 0:
        return np.zeros(0)
    if d == 1:
        return np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
    u = corners[:, 1] - corners[:, 0]
    v = corners[:, 2] - corners[:, 0]
    uu = np.einsum("ij,ij->i", u, u)
    vv = np.einsum("ij,ij->i", v, v)
    uv = np.einsum("ij,ij->i", u, v)
    gram = np.maximum(uu * vv - uv * uv, 0.0)
    return 0.5 * np.sqrt(gram)


def simplex_volumes(mesh: EmbeddedMesh) -> np.ndarray:
    """Unsigned d-volume per simplex."""
    return _corner_volumes(mesh.simplex_corners(), mesh.dimension)


def _corner_diameters(corners: np.ndarray, d: int) -> np.ndarray:
    out = np.zeros(corners.shape[0])
    for j in range(d + 1):
        for k in range(j + 1, d + 1):
            out = np.maximum(out, np.linalg.norm(corners[:, j] - corners[:, k], axis=1))
    return out


def _degenerate(corners: np.ndarray, d: int) -> tuple:
    """Volumes of (S, d+1, n) corners and the mask of degenerate rows (see the tolerance)."""
    vols = _corner_volumes(corners, d)
    scale = _corner_diameters(corners, d) ** d
    return vols, vols <= DEGENERACY_REL_TOL * np.maximum(scale, 1e-300)


def _effective_volumes(mesh: EmbeddedMesh) -> np.ndarray:
    """Simplex volumes with degenerate rows (if allowed) zeroed out."""
    if not (mesh.allow_degenerate and mesh.n_simplices):
        return simplex_volumes(mesh)
    vols, degenerate = _degenerate(mesh.simplex_corners(), mesh.dimension)
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


#: midpoints appended to a simplex's corners, and the children of one split
#: as rows of the extended corner list, in the order the split emits them
_SPLIT_MIDPOINTS = {1: [(0, 1)], 2: [(0, 1), (1, 2), (2, 0)]}
_SPLIT_CHILDREN = {1: [[0, 2], [2, 1]],
                   2: [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]}


def refine(mesh: EmbeddedMesh, eta: float) -> EmbeddedMesh:
    """Subdivide until every simplex has diameter <= eta.

    Segments are halved and triangles are 4-split, k = ceil(log2(diam/eta))
    times per input simplex, so measure is preserved exactly and the vertex
    set only grows.  Each pass splits every simplex with levels left into its
    children in place, so the rows come out in depth-first order.  Raises if
    the output would exceed ``DEFAULT_REFINE_CAP``.
    """
    if not (eta > 0):
        raise ValueError("eta must be positive")
    if mesh.n_simplices == 0:
        return mesh
    d = mesh.dimension
    diam = mesh._simplex_diameters()
    levels = np.zeros(mesh.n_simplices, dtype=np.int64)
    need = diam > eta
    levels[need] = np.ceil(np.log2(diam[need] / eta)).astype(np.int64)
    # counted in floats, where 2**(d*k) cannot wrap as int64 does at k = 64 / d
    with np.errstate(over="ignore"):
        total = float(np.ldexp(1.0, d * levels).sum())
    if total > DEFAULT_REFINE_CAP:
        raise ValueError(f"refine would produce {total:.0f} simplices (cap {DEFAULT_REFINE_CAP})")

    corners = mesh.simplex_corners()
    mults = mesh.multiplicities
    children = np.array(_SPLIT_CHILDREN[d])
    for _ in range(int(levels.max())):
        split = levels > 0
        counts = np.where(split, len(children), 1)
        start = np.cumsum(counts) - counts
        c = corners[split]
        extended = np.concatenate([c] + [0.5 * (c[:, i:i + 1] + c[:, j:j + 1])
                                         for i, j in _SPLIT_MIDPOINTS[d]], axis=1)
        out = np.empty((int(counts.sum()),) + corners.shape[1:])
        out[start[~split]] = corners[~split]
        out[start[split][:, None] + np.arange(len(children))] = extended[:, children]
        corners = out
        levels = np.repeat(levels - split, counts)
        mults = np.repeat(mults, counts)
    return EmbeddedMesh.from_simplex_list(d, corners, mults, mesh.allow_degenerate)
