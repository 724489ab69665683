"""Steiner solver oracles.

Expected values come from closed forms derived in the comments, from the
double-factorial census of full tree shapes, and from a from-scratch Prim
MST used for the pentagon ratio.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from plateau_lab import steiner
from plateau_lab.steiner import (
    MultiplicityNet,
    Terminal,
    angle_audit,
    check_kirchhoff,
    enumerate_topologies,
    optimize_steiner,
    star_upper_bound,
)


def term(x, y, charge=1):
    return Terminal(np.array([x, y], dtype=float), charge)


def spanning_charges(terminals):
    """All-but-last sources of charge 1, last terminal absorbs everything."""
    k = len(terminals)
    return ([Terminal(t.point, 1) for t in terminals[:-1]]
            + [Terminal(terminals[-1].point, -(k - 1))])


def prim_mst_length(points) -> float:
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    in_tree = {0}
    total = 0.0
    while len(in_tree) < n:
        d, j = min((float(np.linalg.norm(pts[i] - pts[j])), j)
                   for i in in_tree for j in range(n) if j not in in_tree)
        total += d
        in_tree.add(j)
    return total


def test_full_tree_census_is_double_factorial():
    # (2k-5)!! full shapes on k labelled leaves
    expected = {3: 1, 4: 3, 5: 15, 6: 105}
    for k, want in expected.items():
        assert len(enumerate_topologies(k)) == want


def test_unit_square_closed_form():
    """Two junctions on the midline at height 1/(2 sqrt 3) from each side.

    Minimizing 4*sqrt(1/4 + h^2) + (1 - 2h) over the junction offset h gives
    h = 1/(2 sqrt 3) and total length sqrt(3) + 1.
    """
    square = [term(0, 0), term(1, 0), term(1, 1), term(0, 1)]
    t0 = time.time()
    result = optimize_steiner(square, functional="size")
    assert time.time() - t0 < 5.0
    assert result.cost == pytest.approx(1 + math.sqrt(3.0), abs=1e-6)

    pts = result.net.points
    junctions = pts[4:]
    assert junctions.shape == (2, 2)
    h = 1 / (2 * math.sqrt(3.0))
    want = {(0.5, round(h, 9)), (0.5, round(1 - h, 9))}
    got = {(round(p[0], 9), round(p[1], 9)) for p in junctions}
    # junction coordinates from the closed form, modulo symmetry of the tree
    for gx, gy in got:
        assert min(abs(gx - wx) + abs(gy - wy) for wx, wy in want) < 1e-5

    aud = angle_audit(result.net, 4)
    assert aud["junctions"] == 2
    assert aud["ok"] and aud["max_deviation"] < 1e-4


def test_equilateral_triangle_fermat_point():
    # total length for side a is a * sqrt(3)
    tri = [term(0, 0), term(1, 0), term(0.5, math.sqrt(3) / 2)]
    result = optimize_steiner(tri, functional="size")
    assert result.cost == pytest.approx(math.sqrt(3.0), abs=1e-6)
    check_kirchhoff(result.net, spanning_charges(tri))


def test_obtuse_triangle_has_no_junction():
    # with an angle over 120 degrees the tree goes through the obtuse vertex
    tri = [term(-1, 0), term(1, 0), term(0, 0.15)]
    result = optimize_steiner(tri, functional="size")
    expect = 2 * math.hypot(1, 0.15)
    assert result.cost == pytest.approx(expect, abs=1e-6)
    assert result.net.points.shape[0] == 3     # no added junction survives


def test_pentagon_against_from_scratch_mst():
    pent = [Terminal(np.array([math.cos(2 * math.pi * k / 5 + math.pi / 2),
                               math.sin(2 * math.pi * k / 5 + math.pi / 2)]))
            for k in range(5)]
    result = optimize_steiner(pent, functional="size")
    mst = prim_mst_length([t.point for t in pent])
    assert mst == pytest.approx(4.702282018339785, abs=1e-12)
    ratio = result.cost / mst
    assert ratio == pytest.approx(0.9727892058317135, abs=1e-9)
    assert ratio < 1.0                         # strictly beats the MST
    check_kirchhoff(result.net, spanning_charges(pent))


def test_mass_merges_redundant_junction():
    """Flow 2 on the trunk makes an interior junction unaffordable.

    Balance at a junction needs |u1 + u2| = 2 which forces u1 = u2, so the
    optimum is the pair of straight edges into the sink: cost sqrt 5.
    """
    v = [term(-0.5, 1.0, 1), term(0.5, 1.0, 1), term(0.0, 0.0, -2)]
    result = optimize_steiner(v, functional="mass")
    assert result.cost == pytest.approx(math.sqrt(5.0), abs=1e-9)
    check_kirchhoff(result.net, v)


def test_beta_half_revives_the_trunk():
    """With weight 2^0.5 the junction reappears at (0, 1/2), cost 1.5 sqrt 2.

    Minimizing 2 sqrt(1/4 + (1-y)^2) + sqrt(2) * y gives 1 - y = 1/2.
    """
    v = [term(-0.5, 1.0, 1), term(0.5, 1.0, 1), term(0.0, 0.0, -2)]
    result = optimize_steiner(v, functional="m_beta", beta=0.5)
    assert result.cost == pytest.approx(1.5 * math.sqrt(2.0), abs=1e-6)
    pts = result.net.points
    assert pts.shape[0] == 4
    assert np.allclose(pts[3], [0.0, 0.5], atol=1e-4)
    check_kirchhoff(result.net, v)


def test_m_beta_at_one_equals_mass():
    v = [term(-0.5, 1.0, 1), term(0.5, 1.0, 1), term(0.0, 0.0, -2)]
    a = optimize_steiner(v, functional="m_beta", beta=1.0)
    b = optimize_steiner(v, functional="mass")
    assert a.cost == pytest.approx(b.cost, abs=1e-12)


def test_star_bound_dominates_optimum():
    rng = np.random.default_rng(99)
    for _ in range(5):
        pts = rng.uniform(-1, 1, size=(4, 2))
        terms = [Terminal(p) for p in pts]
        result = optimize_steiner(terms, functional="size")
        assert result.cost <= star_upper_bound(terms, "size") + 1e-9
        assert result.upper_bound >= result.cost - 1e-9


def test_every_emitted_net_passes_kirchhoff():
    rng = np.random.default_rng(4)
    for k in (3, 4, 5):
        pts = rng.uniform(-1, 1, size=(k, 2))
        terms = [Terminal(p) for p in pts]
        result = optimize_steiner(terms, functional="size")
        check_kirchhoff(result.net, spanning_charges(terms))


def test_size_ignores_flow_magnitude_mass_does_not():
    net = MultiplicityNet(np.array([[0.0, 0.0], [1.0, 0.0]]),
                          np.array([[0, 1]]), np.array([3]))
    assert net.cost("size") == pytest.approx(1.0)
    assert net.cost("mass") == pytest.approx(3.0)
    assert net.cost("m_beta", 0.5) == pytest.approx(math.sqrt(3.0))


def test_an_unknown_functional_is_refused_before_anything_else(monkeypatch):
    """Unbalanced charges would fail the flow step with another reason, and
    enumerating the topologies first would cost the whole census."""
    def enumerate_topologies(N):
        raise AssertionError("topologies enumerated before the functional was checked")

    monkeypatch.setattr(steiner, "enumerate_topologies", enumerate_topologies)
    terms = [term(math.cos(k), math.sin(k)) for k in range(8)]
    with pytest.raises(ValueError, match="unknown functional 'bogus'"):
        optimize_steiner(terms, functional="bogus")
