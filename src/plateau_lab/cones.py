"""Reference cone catalog: minimal tangent-cone shapes and their densities.

Every builder returns a ``Cone``, an ``EmbeddedMesh`` whose apex sits at the
origin and whose flat pieces are truncated far enough out that intersecting
with any ball of radius up to ``extent`` is exact: the ball-measure then equals
``theta * r**d`` with the cataloged constant ``theta``, to machine precision,
via the exact circular clipping in :mod:`plateau_lab.geometry`.

Cataloged constants (measure of the unit-ball slice):

==========  ===  =======================================
name        dim  theta
==========  ===  =======================================
line         1   2
v1           1   2            (two rays at a right angle)
y1           1   3            (three rays at 120 degrees)
plane        2   pi
halfplane    2   pi/2
v            2   pi           (two half-planes at a right dihedral)
y            2   3*pi/2       (three half-planes at 120 degrees)
t            2   3*arccos(-1/3)
==========  ===  =======================================

The rays of ``v1`` and ``y1`` come from one ray builder, and the half-planes
of ``v`` and ``y`` from one sheet builder at their azimuths; the densities of
``v1`` and ``v`` hold at any opening angle.  A ``Cone`` also carries the
closed-form distance to the untruncated cone, written from the same builder
arguments as its mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry.core import EmbeddedMesh

#: points per block of ``Cone.distance``: the widest table, the (rows, k, n)
#: gaps to k <= 3 rays in n <= 3 coordinates, then holds under 2^18 floats
FORM_ROWS = 1 << 14

#: content of the unit-ball slice for each catalog entry
CONE_DENSITY = {
    "line": 2.0,
    "v1": 2.0,
    "y1": 3.0,
    "plane": math.pi,
    "halfplane": math.pi / 2.0,
    "v": math.pi,
    "y": 1.5 * math.pi,
    "t": 3.0 * math.acos(-1.0 / 3.0),
}

CONE_DIMENSION = {
    "line": 1, "v1": 1, "y1": 1,
    "plane": 2, "halfplane": 2, "v": 2, "y": 2, "t": 2,
}

#: cones that can only occur against a sliding boundary line
BOUNDARY_CONES = ("halfplane", "v")

#: unit directions toward the corners of the regular tetrahedron
TETRA_DIRECTIONS = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
]) / math.sqrt(3.0)


@dataclass(frozen=True)
class Cone(EmbeddedMesh):
    """A catalog cone's mesh, truncated beyond ``extent`` from the apex, and
    ``form``, the closed-form distance from (P, n) points to the cone it truncates.

    Each mesh holds the whole cone within ``extent`` of the apex, and
    projection onto a closed cone does not increase the norm, so the form is
    the distance to the mesh at every point within ``extent`` of the apex,
    and at most it beyond.
    """

    extent: float = field(kw_only=True)
    form: Callable[[np.ndarray], np.ndarray] = field(kw_only=True)

    def distance(self, points: np.ndarray) -> np.ndarray:
        """``form`` of the (P, n) points, in blocks of ``FORM_ROWS`` rows."""
        return np.concatenate([self.form(block) for block in
                               np.split(points, np.arange(FORM_ROWS, points.shape[0], FORM_ROWS))])


def _rays_form(dirs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance to the union of the rays from the origin along the unit rows of ``dirs``."""
    gaps = points[:, None, :] - np.maximum(points @ dirs.T, 0.0)[:, :, None] * dirs
    return np.sqrt((gaps * gaps).sum(axis=2)).min(axis=1)


def _sheets_form(axes: tuple, phis: Sequence[float], points: np.ndarray) -> np.ndarray:
    """Distance to half-planes hinged on the axis orthogonal to the coordinates
    ``axes`` = (i, j), at the azimuths ``phis`` in the (i, j)-plane: the gap
    across a sheet where the point lies on its side of the hinge, else the
    gap to the hinge."""
    x, y = points[:, axes[0]], points[:, axes[1]]
    hinge = np.hypot(x, y)
    best = hinge
    for phi in phis:
        c, s = math.cos(phi), math.sin(phi)
        best = np.minimum(best, np.where(x * c + y * s >= 0.0, np.abs(x * s - y * c), hinge))
    return best


def _plane_form(points: np.ndarray) -> np.ndarray:
    return np.abs(points[:, 2])


def _t_form(points: np.ndarray) -> np.ndarray:
    """Distance to the T cone: sqrt(3/8) times the gap between the two least
    of the dots t = p . u with its four unit rays.

    The u sum to 0, so p = (3/4) sum(t_i u_i) = (3/4) sum((t_i - t_d) u_i)
    for the least dot t_d: p lies in the convex cone over u_a, u_b and u_c,
    the other three, whose three faces are wedges of T.  So the nearest point
    of T lies on one of them, at the least distance from p to their planes.
    The plane of wedge (a, b) has the normal u_c - u_d, of length sqrt(8/3),
    so its distance is sqrt(3/8) (t_c - t_d), least for the second-least t_c.
    """
    t = TETRA_DIRECTIONS @ points.T
    low, high = np.minimum(t[:2], t[2:]), np.maximum(t[:2], t[2:])
    least = np.minimum(low[0], low[1])
    second = np.minimum(np.maximum(low[0], low[1]), np.minimum(high[0], high[1]))
    return math.sqrt(3.0 / 8.0) * (second - least)


def _pad(vec: Sequence[float], ambient: int) -> np.ndarray:
    v = np.zeros(ambient)
    a = np.asarray(vec, dtype=float)
    v[: a.size] = a
    return v


def _ray_cone(dirs: np.ndarray, extent: float) -> Cone:
    """Rays from the origin along the unit rows of ``dirs``."""
    o = np.zeros(dirs.shape[1])
    return Cone(1, [[o, extent * u] for u in dirs], extent=extent, form=partial(_rays_form, dirs))


def line_cone(extent: float = 1.0, ambient: int = 2) -> Cone:
    """The x-axis through the origin, as two apex rays."""
    u = _pad([1.0], ambient)
    return _ray_cone(np.array([u, -u]), extent)


def _rays(angles: Sequence[float], extent: float, ambient: int) -> Cone:
    """Rays from the origin in the xy-plane at the given angles."""
    return _ray_cone(np.array([_pad([math.cos(a), math.sin(a)], ambient) for a in angles]), extent)


def plane_cone(extent: float = 1.0) -> Cone:
    """The xy-plane through the origin as a two-triangle square in 3-space."""
    R = extent
    p = [[-R, -R, 0.0], [R, -R, 0.0], [R, R, 0.0], [-R, R, 0.0]]
    return Cone(2, [[p[0], p[1], p[2]], [p[0], p[2], p[3]]], extent=R, form=_plane_form)


def halfplane_cone(extent: float = 1.0) -> Cone:
    """The half-plane x >= 0 of the xy-plane; its edge is the y-axis."""
    R = extent
    p = [[0.0, -R, 0.0], [R, -R, 0.0], [R, R, 0.0], [0.0, R, 0.0]]
    return Cone(2, [[p[0], p[1], p[2]], [p[0], p[2], p[3]]], extent=R,
                form=partial(_sheets_form, (0, 2), [0.0]))


def _sheets(phis: Sequence[float], extent: float) -> Cone:
    """Half-planes hinged on the z-axis at the given azimuths, two triangles each."""
    R = extent
    tris = []
    for phi in phis:
        u = [math.cos(phi), math.sin(phi)]
        p = [[0.0, 0.0, -R], [R * u[0], R * u[1], -R], [R * u[0], R * u[1], R], [0.0, 0.0, R]]
        tris += [[p[0], p[1], p[2]], [p[0], p[2], p[3]]]
    return Cone(2, tris, extent=R, form=partial(_sheets_form, (0, 1), list(phis)))


def v_cone_azimuths(phi1: float, phi2: float, extent: float = 1.0) -> Cone:
    """Two half-planes sharing the z-axis at explicit azimuths."""
    return _sheets([phi1, phi2], extent)


def halfplane_azimuth_cone(phi: float, extent: float = 1.0) -> Cone:
    """One half-plane hinged on the z-axis at the given azimuth."""
    return _sheets([phi], extent)


def t_cone(extent: float = 1.0) -> Cone:
    """The cone over the edge graph of a regular tetrahedron.

    Six flat wedges, one for each pair of tetrahedron directions; each wedge
    is truncated as the triangle hull(0, c*u, c*v) with c = sqrt(3)*extent so
    that the chord stays outside the ball of radius ``extent`` (the wedge
    opening is arccos(-1/3), whose half-angle cosine is 1/sqrt(3)).
    """
    c = math.sqrt(3.0) * extent
    o = np.zeros(3)
    tris = []
    for i in range(4):
        for j in range(i + 1, 4):
            tris.append([o, c * TETRA_DIRECTIONS[i], c * TETRA_DIRECTIONS[j]])
    return Cone(2, tris, extent=extent, form=_t_form)


#: azimuths of the rays of v1 and y1 and of the half-planes of v and y
_RIGHT = (0.0, math.pi / 2)
_THIRDS = tuple(2.0 * math.pi * k / 3.0 for k in range(3))

_BUILDERS = {
    "line": lambda extent, ambient: line_cone(extent, ambient),
    "v1": lambda extent, ambient: _rays(_RIGHT, extent, ambient),
    "y1": lambda extent, ambient: _rays(_THIRDS, extent, ambient),
    "plane": lambda extent, ambient: plane_cone(extent),
    "halfplane": lambda extent, ambient: halfplane_cone(extent),
    "v": lambda extent, ambient: _sheets(_RIGHT, extent),
    "y": lambda extent, ambient: _sheets(_THIRDS, extent),
    "t": lambda extent, ambient: t_cone(extent),
}


def build_cone(name: str, extent: float = 1.0, ambient: int = 3) -> Cone:
    """Build a catalog cone by name (see module docstring for the names)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown cone {name!r}; catalog: {sorted(_BUILDERS)}")
    return _BUILDERS[name](extent, ambient=ambient)


def catalog(dimension: Optional[int] = None, boundary: bool = False) -> list:
    """Catalog names, optionally filtered by content dimension and context.

    Interior points can only see the unconstrained cones; ``boundary`` adds
    the sliding shapes (half-plane and open book) that require an edge line.
    """
    names = []
    for name, d in CONE_DIMENSION.items():
        if dimension is not None and d != dimension:
            continue
        if name in BOUNDARY_CONES and not boundary:
            continue
        names.append(name)
    return sorted(names)
