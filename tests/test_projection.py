"""Grid projection pipeline: pushforward values, locality, containment.

The fixed-center value for the square diagonal is checked against an
independent oracle implemented here from scratch: push a dense polyline
through the central projection by explicit ray-exit arithmetic and measure
the image polyline.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from plateau_lab.geometry.core import EmbeddedMesh, measure
from plateau_lab.grids import CubeFace, DyadicGrid
from plateau_lab import projection as proj

from conftest import segment_mesh, torus


# ── independent oracle for the fixed-center diagonal image ──

def _ray_exit_unit_square(xi: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exit point of the ray xi -> p on the boundary of [0,1]^2 (t >= 1)."""
    d = p - xi
    best_t = np.inf
    for axis in (0, 1):
        for wall in (0.0, 1.0):
            if abs(d[axis]) < 1e-300:
                continue
            t = (wall - xi[axis]) / d[axis]
            if t >= 1.0 - 1e-12:
                q = xi + t * d
                other = q[1 - axis]
                if -1e-12 <= other <= 1.0 + 1e-12 and t < best_t:
                    best_t = t
    assert np.isfinite(best_t)
    return xi + best_t * d


def diagonal_pushforward_oracle(xi, samples: int = 4096) -> float:
    """Length of the image of the unit-square diagonal, by dense sampling.

    ``samples`` even keeps t = 1/2 (the preimage of the corner the image
    passes through) an exact sample point, so the polyline has no shortcut
    across the corner and the length is exact up to float rounding.
    """
    xi = np.asarray(xi, dtype=float)
    ts = np.linspace(0.0, 1.0, samples + 1)
    pts = np.column_stack([ts, ts])
    imgs = np.array([_ray_exit_unit_square(xi, p) for p in pts])
    return float(np.linalg.norm(np.diff(imgs, axis=0), axis=1).sum())


def test_oracle_value_for_the_standard_center():
    # from (0.7, 0.3) the diagonal sweeps the whole left and top edges
    assert diagonal_pushforward_oracle((0.7, 0.3)) == pytest.approx(2.0, abs=1e-9)


def test_fixed_center_diagonal_image_matches_oracle():
    diag = EmbeddedMesh(1, np.array([[0.0, 0.0], [1.0, 1.0]])[np.array([[0, 1]])])
    grid = DyadicGrid(np.zeros(2), 1.0, 1)
    pieces, outside, _ = proj.split_into_grid(diag, grid)
    assert len(outside) == 0 and len(pieces) == 1
    lo, hi = grid.face_bounds(proj._cube_face(pieces.owner[0]))
    imgs, _, _ = proj._project_batch(pieces.corners, np.zeros(1, dtype=int), np.array([[0.7, 0.3]]),
                                     lo[None], hi[None], [0, 1], grid.spacing)
    total = sum(float(np.linalg.norm(c[1] - c[0])) for c in imgs)
    assert total == pytest.approx(diagonal_pushforward_oracle((0.7, 0.3)), abs=1e-9)
    assert total == pytest.approx(2.0, abs=1e-3)


# ── full pipeline behavior ──

def seeded_blob(seed: int, n_tri: int = 12, lo: float = 0.1, hi: float = 0.9):
    """A little random triangle soup inside the unit cube."""
    r = np.random.default_rng(seed)
    verts = r.uniform(lo, hi, size=(n_tri * 3, 3))
    tris = np.arange(n_tri * 3).reshape(n_tri, 3)
    return EmbeddedMesh(2, verts[tris])


def test_identity_outside_the_grid_box_is_bit_exact():
    inside = seeded_blob(5, n_tri=4)
    far = np.array([[10.0, 10.0, 10.0], [11.0, 10.0, 10.0], [10.0, 11.0, 10.0],
                    [-3.0, 0.5, 0.25], [-3.0, 1.5, 0.25], [-4.0, 0.5, 0.75]])
    far_tris = np.array([[0, 1, 2], [3, 4, 5]])
    mesh = EmbeddedMesh(2, [inside.corners[i] for i in range(inside.n_simplices)]
                        + [far[t] for t in far_tris])
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    result = proj.project_to_skeleton(mesh, grid, strategy="far")
    out_verts = {tuple(v) for chunk in result.outside_chunks for v in chunk}
    for t in far_tris:
        for v in far[t]:
            assert tuple(v) in out_verts      # exact float equality, no tolerance
    # and the outside part is carried into the final mesh unchanged
    mesh_verts = {tuple(v) for chunk in result.mesh.corners for v in chunk}
    assert out_verts <= mesh_verts


def test_image_is_contained_in_the_skeleton():
    mesh = seeded_blob(11)
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    result = proj.project_to_skeleton(mesh, grid, strategy="far")
    assert proj.skeleton_deviation(result, grid) <= 1e-9 * grid.spacing


def test_cell_locality_on_seeded_meshes():
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    for seed in range(8):
        result = proj.project_to_skeleton(seeded_blob(seed), grid, strategy="far")
        ok, worst = proj.verify_cell_locality(result, grid)
        assert ok, f"locality violated at seed {seed}: worst ratio {worst}"


def beside_the_seam(seed: int) -> EmbeddedMesh:
    """Three triangles whose vertices sit just below x = 1, the seam of x."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0, 1, (9, 3))
    v[:, 0] = 1 - rng.uniform(0.01, 0.225, 9)
    return EmbeddedMesh(2, v[np.arange(9).reshape(3, 3)])


@pytest.mark.parametrize("strategy", ["far", "chebyshev"])
@pytest.mark.parametrize("big_n", [1, 2, 3, 4])
def test_cell_locality_beside_the_seam(strategy, big_n):
    """Content projected across the seam lands in a cell beside its owner
    only around it; the locality walks must go around it too."""
    grid = torus(3, big_n)
    for seed in range(4):
        result = proj.project_to_skeleton(beside_the_seam(seed), grid, strategy=strategy)
        ok, worst = proj.verify_cell_locality(result, grid)
        assert ok, f"locality violated at seed {seed}: worst slack {worst}"


def test_locality_check_sees_both_sides_of_the_seam():
    """A segment on the seam x = 0 of a 4 x 4 torus lies in the closed cells
    on both sides of it.  Credited with its input two cells away on one side,
    it is too far from the cell on the other side, and the check fails."""
    grid = torus(2, 4)
    res = proj.project_to_skeleton(segment_mesh([(0.0, 0.05), (0.0, 0.2)]), grid)
    assert res.pieces.face.tolist() == [[0b10, 0, 0]]
    rec = {"measure_in": res.measure_in, "measure_out": res.measure_out, "ratio": 1.0}
    for i, ok in ((0, True), (1, False), (3, True), (2, False)):
        moved = replace(res, per_cell={CubeFace(grid.full_mask, (i, 0)): rec})
        assert proj.verify_cell_locality(moved, grid)[0] is ok, i


def test_measure_ledger_is_consistent():
    mesh = seeded_blob(3)
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    result = proj.project_to_skeleton(mesh, grid, strategy="far")
    assert result.measure_in == pytest.approx(measure(mesh), rel=1e-9)
    assert result.stages[0].measure_in == pytest.approx(result.measure_in, rel=1e-9)
    assert result.stages[-1].measure_out == pytest.approx(result.measure_out, rel=1e-9)
    # stages chain: out of one is in of the next
    for a, b in zip(result.stages, result.stages[1:]):
        assert a.measure_out == pytest.approx(b.measure_in, rel=1e-9)


def test_eta_refinement_preserves_input_measure():
    mesh = seeded_blob(7, n_tri=3)
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    coarse = proj.project_to_skeleton(mesh, grid, strategy="far")
    fine = proj.project_to_skeleton(mesh, grid, eta=0.08, strategy="far")
    assert fine.measure_in == pytest.approx(coarse.measure_in, rel=1e-9)


def test_extra_collapse_empties_interior_on_sparse_input():
    # one tiny triangle: after projection no 2-face is fully covered, so the
    # second pass pushes everything into the 1-skeleton
    v = np.array([[0.30, 0.30, 0.30], [0.38, 0.31, 0.33], [0.33, 0.39, 0.36]])
    mesh = EmbeddedMesh(2, v[np.array([[0, 1, 2]])])
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    first = proj.project_to_skeleton(mesh, grid, strategy="far")
    assert proj.interior_face_measure(first, grid) > 1e-6
    collapsed = proj.extra_collapse(first, grid)
    assert collapsed.collapse_applied
    assert proj.interior_face_measure(collapsed, grid) <= 1e-12


def test_frozen_wall_content_is_not_interior():
    """A triangle in the z = 0 wall of a box stays where it is, and the
    collapse, which moves no wall content, leaves nothing interior."""
    v = np.array([[0.1, 0.1, 0.0], [0.3, 0.1, 0.0], [0.1, 0.3, 0.0]])
    mesh = EmbeddedMesh(2, v[np.array([[0, 1, 2]])])
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    first = proj.project_to_skeleton(mesh, grid, strategy="far")
    collapsed = proj.extra_collapse(first, grid)
    assert collapsed.collapse_report == {"fired": True, "faces": 0, "collapsed_measure": 0.0}
    assert collapsed.measure_out == pytest.approx(0.02)
    assert proj.interior_face_measure(first, grid) == 0.0
    assert proj.interior_face_measure(collapsed, grid) == 0.0


def test_projection_on_torus_has_no_frozen_boundary():
    grid = torus(3, 4)
    mesh = seeded_blob(9, n_tri=6)
    result = proj.project_to_skeleton(mesh, grid, strategy="far")
    assert proj.skeleton_deviation(result, grid) <= 1e-9 * grid.spacing


def test_per_cell_ledger_covers_all_content():
    mesh = seeded_blob(13)
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    result = proj.project_to_skeleton(mesh, grid, strategy="far")
    total_in = sum(rec["measure_in"] for rec in result.per_cell.values())
    assert total_in == pytest.approx(result.measure_in, rel=1e-9)


def test_trials_over_the_cap_raise_before_allocating():
    """One trial over the cap is refused before the (trials, n) sample draw."""
    import tracemalloc
    from plateau_lab.grids import CubeFace
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    content = np.array([[[0.1, 0.1, 0.2], [0.4, 0.1, 0.3], [0.1, 0.4, 0.2]]])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"cap of {proj.MAX_TRIALS}"):
            proj.choose_center(grid, content, [(CubeFace(grid.full_mask, (0, 0, 0)), [0])],
                               trials=proj.MAX_TRIALS + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("strategy", ["chebyshev", "far"])
@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_raise(trials, strategy):
    from plateau_lab.grids import CubeFace
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    content = np.array([[[0.1, 0.1, 0.2], [0.4, 0.1, 0.3], [0.1, 0.4, 0.2]]])
    with pytest.raises(ValueError, match=f"trials {trials} must be at least 1"):
        proj.choose_center(grid, content, [(CubeFace(grid.full_mask, (0, 0, 0)), [0])],
                           strategy=strategy, trials=trials)


@pytest.mark.parametrize("strategy", ["chebyshev", "far"])
@pytest.mark.parametrize("empty", [0, 1])
def test_a_face_without_pieces_is_refused(strategy, empty):
    """A stage's distances are reduced face by face over its pieces, so a face
    with none would read its neighbour's or fall off the end: it is refused."""
    from plateau_lab.grids import CubeFace
    grid = DyadicGrid(np.zeros(3), 1.0, 2)
    content = np.array([[[0.1, 0.1, 0.2], [0.4, 0.1, 0.3], [0.1, 0.4, 0.2]]])
    rows = [[0], []] if empty else [[], [0]]
    groups = [(CubeFace(grid.full_mask, (i, 0, 0)), np.array(r, dtype=int))
              for i, r in enumerate(rows)]
    with pytest.raises(ValueError, match="at least one piece"):
        proj.choose_center(grid, content, groups, strategy=strategy, trials=4)
