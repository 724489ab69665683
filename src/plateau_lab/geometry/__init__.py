"""Geometric core: value types, exact measures, clipping, distances, energy."""

from .core import (
    Ball,
    EmbeddedMesh,
    Gauge,
    LineBoundary,
    as_point,
    mass,
    measure,
    refine,
    simplex_volumes,
    unit_ball_volume,
)
from .clipping import (
    clip_to_ball,
    clipped_measure,
    sphere_slice_measure,
)
from .distance import local_hausdorff_distance, point_mesh_distance, sample_mesh
from .energy import circle_samples, douglas_energy

__all__ = [
    "Ball",
    "EmbeddedMesh",
    "Gauge",
    "LineBoundary",
    "as_point",
    "circle_samples",
    "clip_to_ball",
    "clipped_measure",
    "douglas_energy",
    "local_hausdorff_distance",
    "mass",
    "measure",
    "point_mesh_distance",
    "refine",
    "sample_mesh",
    "simplex_volumes",
    "sphere_slice_measure",
    "unit_ball_volume",
]
