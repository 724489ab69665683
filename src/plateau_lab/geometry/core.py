"""Core geometric primitives: points, balls, gauges, embedded meshes, measure.

Everything downstream (grid projections, density diagnostics, the minimizer)
speaks in terms of the small value types defined here.  Meshes are simplicial
soups: one (S, d+1, n) array of simplex corners.  No conformity is
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

#: cap on the number of simplices refine() may produce
DEFAULT_REFINE_CAP = 2_000_000


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


def ordered_sum(values) -> float:
    """0.0 + v[0] + v[1] + ..., left to right on every Python version
    (``np.sum`` adds pairwise, and the built-in ``sum`` compensates from
    Python 3.12 on)."""
    return float(np.cumsum(np.concatenate([[0.0], values]))[-1])


def stacked_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matmul of ``row_dots`` as a (..., 1, 1) stack, without its
    conversions: for float64 arrays in hot loops.  Each dot sees its
    operands' strides, as ``u @ v`` does on strided views."""
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

    ``corners``: (S, d+1, n) float array, one row of corner points per
    simplex; which simplices share a point is not recorded (the file writers
    number shared points themselves).  ``multiplicities``: (S,) integers
    (>= 1 for plain sets; signed values appear only through net exports).
    Degenerate simplices (zero d-volume, which includes a repeated corner)
    are rejected unless ``allow_degenerate`` is set, in which case they are
    carried along but contribute nothing to any measure.
    """

    dimension: int
    corners: np.ndarray
    multiplicities: Optional[np.ndarray] = None
    allow_degenerate: bool = False

    def __post_init__(self):
        d = int(self.dimension)
        if d not in (1, 2):
            raise ValueError("mesh dimension must be 1 or 2")
        corners = np.asarray(self.corners, dtype=float)
        if corners.ndim != 3 or corners.shape[1] != d + 1:
            raise ValueError("corners must be an (S, d+1, n) array")
        n = corners.shape[2]
        if not (MIN_AMBIENT_DIM <= n <= MAX_AMBIENT_DIM):
            raise ValueError("ambient dimension must be in 2..6")
        if d >= n:
            raise ValueError("mesh dimension must be smaller than ambient dimension")
        if corners.size and not np.all(np.isfinite(corners)):
            raise ValueError("vertex coordinates must be finite")
        mult = self.multiplicities
        if mult is None:
            mult = np.ones(corners.shape[0], dtype=np.int64)
        else:
            mult = np.asarray(mult, dtype=np.int64)
            if mult.shape != (corners.shape[0],):
                raise ValueError("multiplicities must be one integer per simplex")
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "corners", _freeze(corners))
        object.__setattr__(self, "multiplicities", _freeze(mult))
        if not self.allow_degenerate:
            bad = np.flatnonzero(_degenerate(corners, d)[1])
            if bad.size:
                raise ValueError(f"degenerate simplex at rows {bad[:8].tolist()} (pass allow_degenerate to keep)")

    # -- basic queries ---------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.corners.shape[2]

    @property
    def n_simplices(self) -> int:
        return self.corners.shape[0]

    def transformed(self, translation: Optional[np.ndarray] = None,
                    scale: float = 1.0) -> "EmbeddedMesh":
        """Apply x -> scale * x + t to every corner."""
        corners = self.corners * float(scale)
        if translation is not None:
            corners = corners + np.asarray(translation, dtype=float)
        return EmbeddedMesh(self.dimension, corners, self.multiplicities,
                            allow_degenerate=self.allow_degenerate)


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
    return _corner_volumes(mesh.corners, mesh.dimension)


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
    vols, degenerate = _degenerate(mesh.corners, mesh.dimension)
    if degenerate.any():
        logger.debug("measure: %d degenerate simplices contribute 0", int(degenerate.sum()))
        vols = np.where(degenerate, 0.0, vols)
    return vols


def measure(mesh: EmbeddedMesh) -> float:
    """Total d-dimensional Hausdorff measure of the mesh (multiplicity-blind).

    The volumes are added by ``np.sum``, pairwise over fixed blocks of the
    rows, so the same rows give the same bits on every run.
    """
    return float(np.sum(_effective_volumes(mesh)))


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
    diam = _corner_diameters(mesh.corners, d)
    levels = np.zeros(mesh.n_simplices, dtype=np.int64)
    need = diam > eta
    levels[need] = np.ceil(np.log2(diam[need] / eta)).astype(np.int64)
    # counted in floats, where 2**(d*k) cannot wrap as int64 does at k = 64 / d
    with np.errstate(over="ignore"):
        total = float(np.ldexp(1.0, d * levels).sum())
    if total > DEFAULT_REFINE_CAP:
        raise ValueError(f"refine would produce {total:.0f} simplices (cap {DEFAULT_REFINE_CAP})")

    corners = mesh.corners
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
    return EmbeddedMesh(d, corners, mults, mesh.allow_degenerate)
