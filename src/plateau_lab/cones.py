"""Reference cone catalog: minimal tangent-cone shapes and their densities.

Every builder returns an ``EmbeddedMesh`` whose apex sits at the origin and
whose flat pieces are truncated far enough out that intersecting with any
ball of radius up to ``extent`` is exact: the ball-measure then equals
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
``v1`` and ``v`` hold at any opening angle.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .geometry.core import EmbeddedMesh

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


def _pad(vec: Sequence[float], ambient: int) -> np.ndarray:
    v = np.zeros(ambient)
    a = np.asarray(vec, dtype=float)
    v[: a.size] = a
    return v


def line_cone(extent: float = 1.0, ambient: int = 2) -> EmbeddedMesh:
    """The x-axis through the origin, as two apex rays."""
    u = _pad([1.0], ambient)
    o = np.zeros(ambient)
    return EmbeddedMesh(1, [[o, extent * u], [o, -extent * u]])


def _rays(angles: Sequence[float], extent: float, ambient: int) -> EmbeddedMesh:
    """Rays from the origin in the xy-plane at the given angles."""
    o = np.zeros(ambient)
    return EmbeddedMesh(
        1, [[o, extent * _pad([math.cos(a), math.sin(a)], ambient)] for a in angles])


def plane_cone(extent: float = 1.0) -> EmbeddedMesh:
    """The xy-plane through the origin as a two-triangle square in 3-space."""
    R = extent
    p = [[-R, -R, 0.0], [R, -R, 0.0], [R, R, 0.0], [-R, R, 0.0]]
    return EmbeddedMesh(2, [[p[0], p[1], p[2]], [p[0], p[2], p[3]]])


def halfplane_cone(extent: float = 1.0) -> EmbeddedMesh:
    """The half-plane x >= 0 of the xy-plane; its edge is the y-axis."""
    R = extent
    p = [[0.0, -R, 0.0], [R, -R, 0.0], [R, R, 0.0], [0.0, R, 0.0]]
    return EmbeddedMesh(2, [[p[0], p[1], p[2]], [p[0], p[2], p[3]]])


def _sheets(phis: Sequence[float], extent: float) -> EmbeddedMesh:
    """Half-planes hinged on the z-axis at the given azimuths, two triangles each."""
    R = extent
    tris = []
    for phi in phis:
        u = [math.cos(phi), math.sin(phi)]
        p = [[0.0, 0.0, -R], [R * u[0], R * u[1], -R], [R * u[0], R * u[1], R], [0.0, 0.0, R]]
        tris += [[p[0], p[1], p[2]], [p[0], p[2], p[3]]]
    return EmbeddedMesh(2, tris)


def v_cone_azimuths(phi1: float, phi2: float, extent: float = 1.0) -> EmbeddedMesh:
    """Two half-planes sharing the z-axis at explicit azimuths."""
    return _sheets([phi1, phi2], extent)


def halfplane_azimuth_cone(phi: float, extent: float = 1.0) -> EmbeddedMesh:
    """One half-plane hinged on the z-axis at the given azimuth."""
    return _sheets([phi], extent)


def t_cone(extent: float = 1.0) -> EmbeddedMesh:
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
    return EmbeddedMesh(2, tris)


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


def build_cone(name: str, extent: float = 1.0, ambient: int = 3) -> EmbeddedMesh:
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
