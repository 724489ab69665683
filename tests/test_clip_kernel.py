"""Oracle and cap tests for the clipping layer's point dedupe.

``sphere_slice_measure`` counts the points where a segment mesh meets a
sphere, keeping a point only if no kept point lies within ``1e-12 * radius``.
The quadratic greedy below is the definition; the cell-bucketed
``_greedy_point_count`` must return its count on every input.
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau_lab.geometry.clipping import _greedy_point_count, sphere_slice_measure
from plateau_lab.geometry.core import Ball, EmbeddedMesh


def greedy_oracle(points, tol):
    kept = []
    for p in points:
        if not any(np.linalg.norm(p - k) <= tol for k in kept):
            kept.append(p)
    return len(kept)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
       log_tol=st.floats(-14.0, 0.0), spread=st.sampled_from([0.5, 1.0, 1.5, 3.0]))
def test_cells_keep_the_greedy_count(seed, dim, log_tol, spread):
    """Clusters a few tol wide, so that pairs straddle cell boundaries."""
    rng = np.random.default_rng(seed)
    tol = 10.0 ** log_tol
    centers = rng.normal(size=(rng.integers(1, 6), dim)) * rng.choice([tol, 1.0])
    pts = centers[rng.integers(0, len(centers), 40)]
    pts = pts + rng.uniform(-spread, spread, size=pts.shape) * tol
    center = rng.normal(size=dim)
    assert _greedy_point_count(pts, center, tol) == greedy_oracle(pts, tol)


@pytest.mark.parametrize("tol", [1e-12, 5e-324, 0.0])
def test_huge_or_degenerate_cells_fall_back_to_one_cell(tol):
    pts = np.array([[1e300, 0.0], [1e300, 0.0], [-1e300, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with np.errstate(over="ignore"):     # the squared gap of +-1e300 overflows to inf
        assert _greedy_point_count(pts, np.zeros(2), tol) == greedy_oracle(pts, tol) == 3


def test_points_exactly_tol_apart_along_a_line():
    tol = 0.25
    pts = np.arange(40)[:, None] * np.array([[tol, 0.0, 0.0]]) - 2.6
    assert _greedy_point_count(pts, np.zeros(3), tol) == greedy_oracle(pts, tol)


def test_slice_dedupe_of_twenty_thousand_crossers_is_fast():
    """20,000 radial segments, each crossing the unit sphere once."""
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(20_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    mesh = EmbeddedMesh.from_simplex_list(1, list(np.stack([0.5 * dirs, 2.0 * dirs], axis=1)))
    start = time.perf_counter()
    count = sphere_slice_measure(mesh, Ball(np.zeros(3), 1.0))
    assert time.perf_counter() - start < 1.0
    assert count == 20_000.0


def test_shared_sphere_points_are_counted_once():
    """Segments meeting at a point on the sphere count it once."""
    star = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]])
    segs = [np.array([a, b]) for a in star for b in (np.zeros(3), 2.0 * a, a + 0.1)]
    mesh = EmbeddedMesh.from_simplex_list(1, segs)
    assert sphere_slice_measure(mesh, Ball(np.zeros(3), 1.0)) == 4.0
