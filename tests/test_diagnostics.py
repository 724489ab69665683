"""Density profiles, the sliding functional, and the coverage check."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau_lab import cones
from plateau_lab import diagnostics as diag
from plateau_lab.geometry.core import Ball, EmbeddedMesh, Gauge, LineBoundary
from plateau_lab.geometry.distance import points_to_simplices

from conftest import rotated, square_patch


def polar_annulus(r0: float, r1: float, nr: int = 12, nth: int = 48) -> EmbeddedMesh:
    """Triangulated flat annulus in the z = 0 plane."""
    vs, ts = [], []
    rs = np.linspace(r0, r1, nr + 1)
    for r in rs:
        for k in range(nth):
            a = 2 * math.pi * k / nth
            vs.append((r * math.cos(a), r * math.sin(a), 0.0))
    for i in range(nr):
        for k in range(nth):
            a = i * nth + k
            b = i * nth + (k + 1) % nth
            c = (i + 1) * nth + k
            d = (i + 1) * nth + (k + 1) % nth
            ts.append((a, b, d))
            ts.append((a, d, c))
    return EmbeddedMesh(2, np.array(vs)[np.array(ts)])


# ── plain profiles ──

def test_plane_profile_is_flat_at_pi():
    plane = cones.plane_cone(extent=6.0)
    prof = diag.density_profile(plane, np.zeros(3), [0.25, 0.5, 1.0, 2.0])
    assert np.allclose(prof["densities"], math.pi, atol=1e-9)
    assert prof["flat"]
    assert prof["spread"] == pytest.approx(0.0, abs=1e-9)


def test_halfplane_interior_profile_decreases_toward_half_disk():
    hp = cones.halfplane_cone(extent=64.0)
    t = 1.0
    x = np.array([t, 0.0, 0.0])
    radii = [t / 4, t / 2, t, 2 * t, 4 * t, 8 * t, 16 * t]
    prof = diag.density_profile(hp, x, radii)
    dens = prof["densities"]
    assert dens[0] == pytest.approx(math.pi, abs=1e-9)   # small balls miss the edge
    # slack 1e-9: the huge sheet corners cost ~1e-12 of clip precision
    assert all(a >= b - 1e-9 for a, b in zip(dens, dens[1:]))
    # half-disk plus a strip of width 2t: pi/2 + 2t/r + O((t/r)^2)
    assert dens[-1] == pytest.approx(math.pi / 2 + 2 / 16, abs=0.02)
    assert not prof["flat"]


def test_gauge_adjustment_only_adds():
    plane = cones.plane_cone(extent=6.0)
    gauge = Gauge(scale=0.2, exponent=0.5, cutoff=4.0)
    prof = diag.density_profile(plane, np.zeros(3), [0.5, 1.0, 2.0], gauge=gauge)
    assert all(a >= d - 1e-12 for a, d in zip(prof["adjusted"], prof["densities"]))
    # the zero gauge changes nothing
    zero = diag.density_profile(plane, np.zeros(3), [0.5, 1.0, 2.0])
    assert np.allclose(zero["adjusted"], zero["densities"], atol=1e-12)


# ── sliding functional ──

def halfplane_context() -> diag.SlidingContext:
    # edge along the y axis, the sheet occupies x >= 0
    return diag.SlidingContext(
        LineBoundary(np.zeros(3), np.array([0.0, 1.0, 0.0])),
        np.array([1.0, 0.0, 0.0]),
    )


def test_sliding_functional_constant_on_halfplane():
    hp = cones.halfplane_cone(extent=64.0)
    t = 1.0
    x = np.array([t, 0.0, 0.0])
    radii = [t / 4, t / 2, t, 2 * t, 4 * t]
    prof = diag.sliding_profile(diag.density_profile(hp, x, radii), x, halfplane_context())
    assert np.allclose(prof["shaded_densities"], math.pi, atol=1e-2)


def test_shade_term_is_exactly_zero_inside_the_reach():
    hp = cones.halfplane_cone(extent=64.0)
    t = 1.0
    x = np.array([t, 0.0, 0.0])
    inside = [t / 4, t / 2, 0.999 * t]
    prof = diag.sliding_profile(diag.density_profile(hp, x, inside), x, halfplane_context())
    # balls that do not reach the boundary line gain nothing: identical floats
    assert list(prof["shaded_densities"]) == list(prof["densities"])


def test_edge_point_sliding_density_is_half_disk_plus_shade():
    hp = cones.halfplane_cone(extent=8.0)
    x = np.zeros(3)   # on the boundary line itself
    prof = diag.sliding_profile(diag.density_profile(hp, x, [0.5, 1.0, 2.0]), x,
                                halfplane_context())
    # half-disk (pi/2) plus half-disk of shade = pi, scale free
    assert np.allclose(prof["shaded_densities"], math.pi, atol=1e-9)


# ── coverage / big projection ──

def test_flat_disk_passes_coverage():
    disk = polar_annulus(1e-9, 1.3)
    rep = diag.big_projection_check(disk, np.zeros(3), 1.0)
    assert rep["ok"]
    assert rep["covered_fraction"] == pytest.approx(1.0)
    assert rep["missing_cells"] == 0


def test_center_hole_fails_and_localizes():
    tau = 0.25
    holed = polar_annulus(tau / 2, 1.3)
    rep = diag.big_projection_check(holed, np.zeros(3), 1.0, tau=tau)
    assert not rep["ok"]
    assert rep["missing_cells"] > 0
    holes = np.asarray(rep["holes"])
    # every reported gap sits inside the actual hole (center disk)
    assert (np.linalg.norm(holes[:, :2], axis=1) <= tau / 2 + rep["pitch"]).all()


def test_tilted_disk_still_passes():
    disk = polar_annulus(1e-9, 1.3)
    th = 0.3
    rot = np.array([[1, 0, 0],
                    [0, math.cos(th), -math.sin(th)],
                    [0, math.sin(th), math.cos(th)]])
    rep = diag.big_projection_check(rotated(disk, rot), np.zeros(3), 1.0)
    assert rep["ok"] and rep["covered_fraction"] == pytest.approx(1.0)


@pytest.mark.parametrize("th", [0.0, 0.4])
def test_projection_axis_is_the_disk_normal(th):
    rot = np.array([[1, 0, 0],
                    [0, math.cos(th), -math.sin(th)],
                    [0, math.sin(th), math.cos(th)]])
    disk = rotated(polar_annulus(1e-9, 1.3), rot)
    rep = diag.big_projection_check(disk, np.zeros(3), 1.0)
    assert abs(float(np.dot(rep["axis"], rot[:, 2]))) >= 1 - 1e-9


# ── classification, cheap cases only ──

def test_plane_classifies_as_plane():
    plane = cones.plane_cone(extent=1.5)
    rep = diag.classify_point(plane, np.zeros(3), 1.0, rotations=128, depth=1e-2)
    assert rep["best"]["name"] == "plane"
    assert rep["best"]["residual"] <= 0.05


def test_empty_neighborhood_is_unclassified():
    patch = square_patch(side=0.2, z=0.0)
    rep = diag.classify_point(patch, np.array([5.0, 5.0, 0.0]), 1.0,
                              rotations=64, depth=1e-2)
    assert rep["best"] is None or rep["best"]["name"] == "unclassified"


# ── classification at a sliding boundary ──
# depth 0.2 equals the first pattern step, so only the azimuth grid runs

def test_halfplane_on_its_edge_line_classifies_from_one_sample_set(monkeypatch):
    hp = cones.halfplane_cone(extent=1.5)
    calls = []
    sample_mesh = diag.sample_mesh

    def counting(mesh, *args, **kwargs):
        calls.append(mesh is hp)
        return sample_mesh(mesh, *args, **kwargs)

    posed = []
    pose = cones.halfplane_azimuth_cone
    monkeypatch.setattr(diag, "sample_mesh", counting)
    monkeypatch.setattr(cones, "halfplane_azimuth_cone",
                        lambda *args, **kwargs: posed.append(1) or pose(*args, **kwargs))
    rep = diag.classify_point(hp, np.zeros(3), 1.0, context=halfplane_context(),
                              depth=0.2)
    assert rep["best"]["name"] == "halfplane"
    assert rep["best"]["residual"] <= diag.RESIDUAL_OK
    assert rep["ok"]
    assert calls.count(True) == 1      # the 64 azimuths share one sample set
    assert len(posed) == 64            # one posed cone per azimuth
    # the first azimuth fits exactly, so every later one is cut on its
    # one-sided term and its cone is never sampled
    assert calls.count(False) == 1


def test_open_book_classifies_as_v_with_its_dihedral():
    beta = 2.0
    book = cones.v_cone_azimuths(0.0, beta, extent=1.5)
    spine = diag.SlidingContext(LineBoundary(np.zeros(3), np.array([0.0, 0.0, 1.0])),
                                np.array([1.0, 0.0, 0.0]))
    rep = diag.classify_point(book, np.zeros(3), 1.0, context=spine, depth=0.2)
    assert rep["best"]["name"] == "v"
    assert abs(rep["best"]["dihedral"] - beta) <= 2 * math.pi / 25



def test_rotations_over_the_cap_raise_before_allocating():
    """One rotation over the cap is refused before the net is drawn."""
    import tracemalloc
    mesh = cones.plane_cone(extent=1.5)
    tracemalloc.start()
    try:
        for count in (diag.MAX_ROTATIONS + 1, -1):
            with pytest.raises(ValueError, match=f"rotations must be in 0..{diag.MAX_ROTATIONS}"):
                diag.classify_point(mesh, np.zeros(3), 1.0, rotations=count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ── residuals that stop once they lose ──

@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 4), min_size=0, max_size=12))
def test_two_best_ranks_as_sorted_with_ties_in_index_order(values):
    """A cut residual is any value at or above its bound; the least legal
    one, the bound itself, ties with the incumbent and must rank after it."""
    got = diag._two_best(values, lambda v, bound: v if v < bound else bound)
    assert got == sorted(range(len(values)), key=lambda i: values[i])[:2]


def test_net_with_repeated_rotations_ranks_as_sorted():
    """Repeated rotations give bitwise-equal residuals, so ties decide."""
    cone = cones.build_cone("y", extent=1.02)
    coarse = diag.sample_mesh(cones.build_cone("t", extent=1.5), 1 / 16, Ball(np.zeros(3), 1.0))
    rots = diag._rotation_net(3, 4, 3)
    for pattern in ([1, 1, 2, 1, 0, 2, 0, 1], [3, 0, 3, 0, 3], [2, 2, 2], [4, 1, 4, 1, 1, 4]):
        net = [rots[k] for k in pattern]
        exact = [diag._one_sided(coarse @ rot, cone, 1.0) for rot in net]
        assert len(set(exact)) < len(net)
        got = diag._two_best(net, lambda rot, bound: diag._one_sided(coarse @ rot, cone, 1.0, bound))
        assert got == sorted(range(len(net)), key=lambda i: exact[i])[:2]


def _spine_context():
    return diag.SlidingContext(LineBoundary(np.zeros(3), np.array([0.0, 0.0, 1.0])),
                               np.array([1.0, 0.0, 0.0]))


def test_two_sided_is_exact_below_its_bound():
    """E is one sheet of the Y cone, so the cone-to-E side is the larger
    one; bounds between the two sides must not skip it."""
    sheet = cones.halfplane_azimuth_cone(0.3, extent=1.5)
    cone = cones.build_cone("y", extent=1.02)
    samples = diag.sample_mesh(sheet, 1 / 32, Ball(np.zeros(3), 1.0))
    cone_samples = diag._sample_cone(cone, 1.0)
    blocks = diag.point_blocks(cone_samples)
    for rot in diag._rotation_net(1, 6, 3):
        local = samples @ rot
        world = lambda: diag._moved(cone_samples, blocks, rot.T, np.zeros(3))
        args = (sheet, local, cone, world, 1.0)
        exact = diag._two_sided(*args)
        near = diag._one_sided(local, cone, 1.0)
        assert near < exact
        for bound in (0.5 * near, near, (near + exact) / 2, exact,
                      math.nextafter(exact, math.inf), 2 * exact, math.inf):
            got = diag._two_sided(*args, bound)
            if exact < bound:
                assert got.hex() == exact.hex()
            else:
                assert bound <= got <= exact


def _full_one_sided(points, cone, radius, bound=math.inf):
    """The one-sided term as the max of the full point x simplex table."""
    if points.shape[0] == 0:
        return math.inf
    return float(points_to_simplices(points, cone.corners).max()) / radius


def _posed_samples(name: str, seed: int):
    """(cone, E's samples posed in the cone frame) for a fit of ``name``: E is
    the same cone, built wider, so that the identity pose puts every sample
    on the cone, and the other poses come from a rotation net."""
    radius = 0.7
    if name == "halfplane":
        build = lambda extent: cones.halfplane_azimuth_cone(0.3, extent)
    elif name == "book":
        build = lambda extent: cones.v_cone_azimuths(0.3, 2.2, extent)
    else:
        kind, n = name.split("-R")
        build = lambda extent: cones.build_cone(kind, extent, int(n))
    cone, mesh = build(1.02 * radius), build(1.5)
    n = mesh.ambient_dim
    samples = diag.sample_mesh(mesh, radius / 16, Ball(np.zeros(n), radius))
    return cone, radius, [samples @ rot for rot in diag._rotation_net(seed, 5, n)]


@pytest.mark.parametrize("name", ["y-R3", "t-R3", "plane-R3", "y1-R2", "v1-R3", "line-R2",
                                  "halfplane", "book"])
def test_one_sided_is_the_full_table_below_its_bound(name, monkeypatch):
    """Below ``bound``, bit for bit the max of the full point x simplex table;
    at or above it, between ``bound`` and that max.  At the identity pose
    every sample is on the cone and the closed form keeps them all."""
    cone, radius, poses = _posed_samples(name, sum(map(ord, name)))
    rows = []
    sup_distance = diag.sup_distance
    monkeypatch.setattr(diag, "sup_distance", lambda points, *args:
                        rows.append(len(points)) or sup_distance(points, *args))
    for k, points in enumerate(poses):
        exact = _full_one_sided(points, cone, radius)
        rows.clear()
        assert diag._one_sided(points, cone, radius).hex() == exact.hex()
        # off the cone the kernel measures only the samples that can hold
        # the sup (y1's three ray ends tie); on it, every sample
        assert rows == [len(points)] and exact < 1e-14 if k == 0 else 1 <= rows[0] <= 3
        for bound in (0.5 * exact, math.nextafter(exact, -math.inf), exact,
                      math.nextafter(exact, math.inf), 1.5 * exact, math.inf):
            got = diag._one_sided(points, cone, radius, bound)
            if exact < bound:
                assert got.hex() == exact.hex()
            else:
                assert bound <= got <= exact
    assert diag._one_sided(poses[0][:0], cone, radius) == math.inf


@pytest.mark.parametrize("name", ["y", "t"])
def test_one_sided_measures_every_sample_beyond_the_truncation(name):
    """Beyond the cone's extent the closed form runs below the distance to the
    truncated mesh, so those samples are measured whatever their form says."""
    cone = cones.build_cone(name, extent=0.35)
    samples = diag.sample_mesh(cones.build_cone(name, extent=1.5), 1 / 24, Ball(np.zeros(3), 1.0))
    for rot in diag._rotation_net(5, 4, 3):
        points = samples @ rot
        exact = _full_one_sided(points, cone, 1.0)
        assert exact > cone.distance(points).max() + 1e-3
        assert diag._one_sided(points, cone, 1.0).hex() == exact.hex()
        assert diag._one_sided(points, cone, 1.0, math.nextafter(exact, math.inf)).hex() == \
            exact.hex()


BOUNDED_CASES = {
    # an interior fit with a full pattern descent
    "y-descent": lambda: (cones.build_cone("y", extent=1.5), np.zeros(3), 1.0,
                          dict(rotations=32, depth=1e-2)),
    "t-edge": lambda: (cones.t_cone(extent=2.0),
                       np.asarray(cones.TETRA_DIRECTIONS[0], dtype=float), 0.45,
                       dict(rotations=32, depth=1e-2)),
    # posed off the azimuth grid, so that the grid improves step by step
    "halfplane": lambda: (cones.halfplane_azimuth_cone(2.5, extent=1.5), np.zeros(3), 1.0,
                          dict(context=_spine_context(), depth=1e-2)),
    "open-book": lambda: (cones.v_cone_azimuths(1.1, 3.4, extent=1.5), np.zeros(3), 1.0,
                          dict(context=_spine_context(), depth=0.2)),
}


@pytest.mark.parametrize("case", sorted(BOUNDED_CASES))
def test_bounded_residuals_leave_every_report_byte_identical(case, monkeypatch):
    """The oracle is the same fit with every sup run to the end: each
    one-sided term is the max of the full table over every sample, so that
    neither the closed-form filter nor the bound can skip a sample."""
    mesh, center, radius, kwargs = BOUNDED_CASES[case]()
    got = json.dumps(diag.classify_point(mesh, center, radius, **kwargs))
    sup_distance = diag.sup_distance
    # the oracle drops the carried blocks too, so every sup builds its own
    monkeypatch.setattr(diag, "sup_distance", lambda points, corners, bound, radius, blocks:
                        sup_distance(points, corners))
    monkeypatch.setattr(diag, "_one_sided", _full_one_sided)
    want = json.dumps(diag.classify_point(mesh, center, radius, **kwargs))
    assert got == want


def test_the_boundary_fit_samples_a_cone_only_for_residuals_below_their_bound(monkeypatch):
    """Each ``_sample_cone`` call follows a one-sided term below its bound,
    and most azimuths of the half-plane fit are cut before it."""
    mesh, center, radius, kwargs = BOUNDED_CASES["halfplane"]()
    events = []
    one_sided, sample_cone = diag._one_sided, diag._sample_cone

    def spy_one_sided(local, cone, radius, bound=math.inf):
        value = one_sided(local, cone, radius, bound)
        events.append(value < bound)
        return value

    monkeypatch.setattr(diag, "_one_sided", spy_one_sided)
    monkeypatch.setattr(diag, "_sample_cone",
                        lambda cone, radius: events.append("sample") or sample_cone(cone, radius))
    report = diag.classify_point(mesh, center, radius, **kwargs)
    assert report["best"]["name"] == "halfplane"
    samples = [k for k, event in enumerate(events) if event == "sample"]
    assert samples and all(events[k - 1] is True for k in samples)
    assert len(samples) == events.count(True)
    assert len(samples) < events.count(False)
