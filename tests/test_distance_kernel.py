"""The culled sup-distance, sampling and triangle kernel against the code
they replaced.

The oracle for ``sup_distance`` is the max over the full point x simplex
distance table of ``points_to_simplices``; the oracle for ``sample_mesh`` is
the per-simplex loop it ran before simplices were culled by bounding balls;
the oracle for ``_points_to_triangle`` is its region walk with masked
writes.  The new code must give the same floats, and the same sample bytes
in the same order.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau_lab import minimizer as mz
from plateau_lab.geometry import distance as dist
from plateau_lab.geometry.clipping import segment_ball_intervals
from plateau_lab.geometry.core import Ball, EmbeddedMesh
from plateau_lab.geometry.distance import (MAX_SAMPLE_POINTS, SUP_BLOCK, _points_to_segment,
                                           _points_to_triangle, local_hausdorff_distance,
                                           points_to_simplices, sample_mesh, sup_distance)

from conftest import graph_mesh, torus


# ── oracles ──

def oracle_sup(points, corners) -> float:
    return float(points_to_simplices(points, corners).max())


def oracle_sample_mesh(mesh, spacing, ball=None):
    corners = mesh.simplex_corners()
    out = []
    for i in range(mesh.n_simplices):
        if mesh.dimension == 1:
            a, b = corners[i, 0], corners[i, 1]
            lo, hi = 0.0, 1.0
            if ball is not None:
                hit, lo, hi = segment_ball_intervals(a[None], b[None], ball.center, ball.radius)
                if not hit[0]:
                    continue
                lo, hi = float(lo[0]), float(hi[0])
            pa, pb = a + lo * (b - a), a + hi * (b - a)
            length = float(np.linalg.norm(pb - pa))
            k = max(1, int(math.ceil(length / spacing)))
            t = np.linspace(0.0, 1.0, k + 1)
            out.append(pa + t[:, None] * (pb - pa))
        else:
            a, b, c = corners[i]
            diam = max(np.linalg.norm(b - a), np.linalg.norm(c - a), np.linalg.norm(c - b))
            k = max(1, int(math.ceil(diam / spacing)))
            ii, jj = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
            keep = (ii + jj) <= k
            s = (ii[keep] / k)[:, None]
            t = (jj[keep] / k)[:, None]
            pts = a + s * (b - a) + t * (c - a)
            if ball is not None:
                pts = pts[np.linalg.norm(pts - ball.center, axis=1) <= ball.radius]
                if pts.shape[0] == 0:
                    continue
            out.append(pts)
    if not out:
        return np.zeros((0, mesh.ambient_dim))
    return np.vstack(out)


def oracle_points_to_triangle(points, a, b, c):
    ab = b - a
    ac = c - a
    cross_sq = float(ab @ ab) * float(ac @ ac) - float(ab @ ac) ** 2
    if cross_sq <= 1e-24 * max(float(ab @ ab), float(ac @ ac), 1e-300) ** 2:
        return np.minimum.reduce([
            _points_to_segment(points, a, b),
            _points_to_segment(points, a, c),
            _points_to_segment(points, b, c),
        ])
    ap = points - a
    d1 = ap @ ab
    d2 = ap @ ac
    bp = points - b
    d3 = bp @ ab
    d4 = bp @ ac
    cp = points - c
    d5 = cp @ ab
    d6 = cp @ ac

    closest = np.empty_like(points)
    done = np.zeros(points.shape[0], dtype=bool)

    def assign(mask, value):
        nonlocal done
        m = mask & ~done
        if np.any(m):
            closest[m] = value[m] if value.ndim == 2 else value[None, :]
            done[m] = True

    assign((d1 <= 0) & (d2 <= 0), a)
    assign((d3 >= 0) & (d4 <= d3), b)
    assign((d6 >= 0) & (d5 <= d6), c)

    vc = d1 * d4 - d3 * d2
    mask = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom = np.where(d1 - d3 != 0, d1 - d3, 1.0)
    assign(mask, a + (d1 / denom)[:, None] * ab)

    vb = d5 * d2 - d1 * d6
    mask = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom = np.where(d2 - d6 != 0, d2 - d6, 1.0)
    assign(mask, a + (d2 / denom)[:, None] * ac)

    va = d3 * d6 - d5 * d4
    mask = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = np.where((d4 - d3) + (d5 - d6) != 0, (d4 - d3) + (d5 - d6), 1.0)
    assign(mask, b + ((d4 - d3) / denom)[:, None] * (c - b))

    rest = ~done
    if np.any(rest):
        total = va + vb + vc
        total = np.where(total != 0, total, 1.0)
        v = vb / total
        w = vc / total
        closest[rest] = a + v[rest, None] * ab + w[rest, None] * ac
    return np.linalg.norm(points - closest, axis=1)


# ── inputs ──

def random_mesh(d, n, rng, count=40, degenerate=0):
    """``count`` simplices of a random soup in [0, 1]^n.  Of the first
    ``degenerate`` triangles, a third have a repeated corner, a third a
    collinear one and a third are slivers, 1e-12..1e-6 off collinear."""
    corners = rng.uniform(0.0, 1.0, (count, d + 1, n))
    corners[:, 1:] = corners[:, :1] + 0.25 * (corners[:, 1:] - corners[:, :1])
    for i in range(degenerate):
        a, b = corners[i, 0], corners[i, 1]
        if i % 3 == 0:
            corners[i, -1] = a
        elif i % 3 == 1:
            corners[i, -1] = a + 0.5 * (b - a)
        else:
            corners[i, -1] = a + 1.3 * (b - a) + 10.0 ** rng.uniform(-12, -6) * rng.normal(size=n)
    verts = corners.reshape(-1, n)
    simp = np.arange(verts.shape[0]).reshape(count, d + 1)
    return EmbeddedMesh(d, verts, simp, allow_degenerate=True)


def points_on(mesh, rng, count):
    corners = mesh.simplex_corners()
    w = rng.dirichlet(np.ones(mesh.dimension + 1), count)
    pick = rng.integers(0, mesh.n_simplices, count)
    return np.einsum("pk,pkn->pn", w, corners[pick])


def point_sets(mesh, rng):
    """Point sets in random order, where every block spans the whole set,
    and in sweep order, where blocks are local and the early exit bites."""
    n = mesh.ambient_dim
    verts = mesh.vertices
    cloud = rng.uniform(-0.2, 1.2, (3000, n))
    return {
        "cloud": cloud,
        "sweep": cloud[np.argsort(cloud[:, 0], kind="stable")],
        "spiral": np.column_stack([np.linspace(0.0, 1.5, 2000) * np.cos(np.linspace(0, 9, 2000)),
                                   np.linspace(0.0, 1.5, 2000) * np.sin(np.linspace(0, 9, 2000)),
                                   np.zeros((2000, n - 2))]) + 0.5,
        "near": points_on(mesh, rng, 1200) + rng.normal(0.0, 1e-3, (1200, n)),
        "on": points_on(mesh, rng, 700),
        "vertices": verts.copy(),
        "far": rng.uniform(-0.5, 0.5, (900, n)) + 50.0,
        "clusters": np.vstack([rng.normal(c, 0.01, (SUP_BLOCK, n))
                               for c in rng.uniform(-0.5, 1.5, (6, n))]),
        "single": rng.uniform(0.0, 1.0, (1, n)),
        "single_far": np.full((1, n), -7.0),
    }


DN = [(d, n) for d in (1, 2) for n in range(2, 7) if d < n]


# ── sup_distance ──

@pytest.mark.parametrize("d,n", DN)
@pytest.mark.parametrize("seed", [0, 1])
def test_sup_distance_matches_oracle(d, n, seed):
    rng = np.random.default_rng([seed, d, n])
    mesh = random_mesh(d, n, rng, degenerate=12 if d == 2 else 0)
    corners = mesh.simplex_corners()
    for name, pts in point_sets(mesh, rng).items():
        got = sup_distance(pts, corners)
        assert got.hex() == oracle_sup(pts, corners).hex(), name
    # each simplex's first corner is its own closest point, at distance 0.0 exactly
    assert sup_distance(corners[:, 0].copy(), corners) == 0.0


@pytest.mark.parametrize("n", [2, 3, 6])
def test_sup_distance_on_block_boundaries(n):
    """Point counts around the block size, a target of one simplex, and a
    far target that makes every block's bounds loose."""
    rng = np.random.default_rng(n)
    mesh = random_mesh(1, n, rng)
    corners = mesh.simplex_corners()
    for count in (SUP_BLOCK - 1, SUP_BLOCK, SUP_BLOCK + 1, 2 * SUP_BLOCK + 7):
        pts = rng.uniform(0.0, 1.0, (count, n))
        for target in (corners, corners[:1], corners + 1e3):
            assert sup_distance(pts, target).hex() == oracle_sup(pts, target).hex()


def test_sup_distance_stops_only_when_no_point_can_improve():
    """After the near segment, the far point's running min (0.990) is above
    the second segment's lower bound (0.9) although the near point's (0.01)
    is below it; stopping there would return 0.990 instead of 0.9."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    corners = np.array([[[-0.01, 0.01], [0.01, 0.01]], [[1.9, 0.0], [2.1, 0.0]]])
    assert sup_distance(pts, corners) == oracle_sup(pts, corners) == pytest.approx(0.9)


def test_sup_distance_skips_most_pairs(monkeypatch):
    """On a ladder-like query (samples in a small ball, a whole surface as the
    target) the pruned sup evaluates a small share of the point-simplex pairs."""
    mesh = graph_mesh(lambda x, y: 0.5 + 0.1 * math.sin(2 * math.pi * x), n=16)
    other = graph_mesh(lambda x, y: 0.45 + 0.1 * math.sin(2 * math.pi * y), n=16)
    pts = sample_mesh(mesh, 0.125 / 32, Ball(np.array([0.5, 0.5, 0.5]), 0.125))
    corners = other.simplex_corners()
    want = oracle_sup(pts, corners)
    pairs = []
    kernel = dist._points_to_simplex
    monkeypatch.setattr(dist, "_points_to_simplex",
                        lambda p, c: pairs.append(p.shape[0]) or kernel(p, c))
    assert sup_distance(pts, corners).hex() == want.hex()
    assert sum(pairs) < 0.05 * pts.shape[0] * corners.shape[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dn=st.sampled_from(DN),
       radius=st.sampled_from([1.0, 0.45, 0.125, 3.0]),
       kind=st.sampled_from(["inf", "exact", "below", "above", "between"]),
       frac=st.floats(0.0, 1.0))
def test_bounded_sup_is_exact_below_its_bound(seed, dn, radius, kind, frac):
    """Below the bound the oracle's float comes back; at or above it, some
    value no larger than the sup that divides by ``radius`` to at least the
    bound.  Callers keep only values below their bound, so they keep exact
    ones."""
    d, n = dn
    rng = np.random.default_rng(seed)
    mesh = random_mesh(d, n, rng, count=20, degenerate=6 if d == 2 else 0)
    corners = mesh.simplex_corners()
    pts = list(point_sets(mesh, rng).values())[int(rng.integers(0, 10))]
    want = oracle_sup(pts, corners)
    bound = {"inf": math.inf, "exact": want / radius, "below": frac * want / radius,
             "above": (1.0 + frac) * want / radius + 1e-300,
             "between": math.nextafter(want / radius, math.inf)}[kind]
    got = sup_distance(pts, corners, bound, radius)
    assert got <= want
    if want / radius < bound:
        assert got.hex() == want.hex()
    else:
        assert got / radius >= bound


def test_bound_stops_after_the_first_block_that_reaches_it(monkeypatch):
    """Any sup reaches a bound of 0, so only the first block's rows meet the
    kernel, and its max falls short of the sup of all blocks."""
    rng = np.random.default_rng(5)
    mesh = random_mesh(2, 3, rng)
    corners = mesh.simplex_corners()
    pts = point_sets(mesh, rng)["near"]
    want = oracle_sup(pts, corners)
    rows = []
    kernel = dist._points_to_simplex
    monkeypatch.setattr(dist, "_points_to_simplex",
                        lambda p, c: rows.append(p.shape[0]) or kernel(p, c))
    assert 0.0 < sup_distance(pts, corners, 0.0) < want
    assert sum(rows) <= SUP_BLOCK * corners.shape[0]
    rows.clear()
    assert sup_distance(pts, corners).hex() == want.hex()
    assert sum(rows) > SUP_BLOCK * corners.shape[0]


def test_sup_distance_empty_inputs_follow_the_oracle():
    corners = np.zeros((0, 3, 3))
    assert sup_distance(np.zeros((4, 3)), corners) == math.inf == oracle_sup(np.zeros((4, 3)), corners)
    with pytest.raises(ValueError):
        sup_distance(np.zeros((0, 3)), np.zeros((2, 3, 3)))


@pytest.mark.parametrize("n", range(2, 7))
def test_kernel_rows_are_independent(n):
    """Each row of the pair kernels is the same float whatever rows it is
    evaluated with, which the early exit's row subsets rely on."""
    rng = np.random.default_rng(100 + n)
    pts = rng.uniform(-1.0, 2.0, (2048, n))
    a, b, c = rng.uniform(0.0, 1.0, (3, n))
    kernels = [lambda p: _points_to_segment(p, a, b),
               lambda p: _points_to_triangle(p, a, b, c),
               lambda p: _points_to_triangle(p, a, b, a + 0.5 * (b - a))]
    for kernel in kernels:
        full = kernel(pts)
        for size in (1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 100, 511, 512, 513, 1000, 2048):
            idx = np.sort(rng.choice(2048, size, replace=False))
            assert kernel(pts[idx]).tobytes() == full[idx].tobytes()
            shuffled = rng.permutation(idx)
            assert kernel(pts[shuffled]).tobytes() == full[shuffled].tobytes()
            start = int(rng.integers(0, 2049 - size))
            assert kernel(pts[start:start + size]).tobytes() == full[start:start + size].tobytes()
        # a one-row call runs a different BLAS routine unless the kernel pads it
        alone = np.concatenate([kernel(pts[i:i + 1]) for i in range(512)])
        assert alone.tobytes() == full[:512].tobytes()


def test_a_last_block_of_one_point_matches_the_oracle():
    """513 points leave one in the last block, and a far point puts the sup there."""
    rng = np.random.default_rng(1259)
    corners = rng.uniform(0, 1, (6, 3, 3))
    pts = rng.uniform(-0.5, 1.5, (513, 3))
    pts[-1] = rng.uniform(3, 4, 3)
    assert sup_distance(pts, corners).hex() == oracle_sup(pts, corners).hex()


# ── the triangle kernel ──

def kernel_triangles(n, rng):
    """Regular, sliver and degenerate triangles in R^n."""
    a, b, c = rng.uniform(0.0, 1.0, (3, n))
    e = rng.normal(size=n)
    return {
        "regular": (a, b, c),
        "right": (np.zeros(n), np.eye(n)[0], np.eye(n)[1]),
        "sliver": (a, b, a + 1.7 * (b - a) + 1e-9 * e),
        "needle": (a, b, b + 1e-10 * e),
        "collinear": (a, b, a + 0.5 * (b - a)),
        "repeated": (a, a, c),
        "point": (a, a, a),
    }


def kernel_points(tri, rng, n):
    """Points on the vertices, on the edges, on the face, near and far."""
    a, b, c = tri
    t = rng.uniform(0.0, 1.0, (60, 1))
    w = rng.dirichlet(np.ones(3), 200)
    on_face = w[:, :1] * a + w[:, 1:2] * b + w[:, 2:] * c
    return np.vstack([
        np.array([a, b, c]),
        0.5 * (a + b)[None, :], 0.5 * (b + c)[None, :], 0.5 * (c + a)[None, :],
        a + t * (b - a), b + t * (c - b), c + t * (a - c),
        on_face,
        on_face + rng.normal(0.0, 1e-3, on_face.shape),
        rng.uniform(-1.0, 2.0, (500, n)),
        rng.uniform(-1.0, 1.0, (50, n)) + 1e3,
    ])


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangle_kernel_matches_oracle(n, seed):
    rng = np.random.default_rng([seed, n])
    for name, tri in kernel_triangles(n, rng).items():
        pts = kernel_points(tri, rng, n)
        got = _points_to_triangle(pts, *tri)
        assert got.tobytes() == oracle_points_to_triangle(pts, *tri).tobytes(), name


# ── sample_mesh ──

def balls_for(mesh, rng):
    n = mesh.ambient_dim
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    out = [None, Ball((lo + hi) / 2, 10.0)]
    out += [Ball(rng.uniform(lo, hi), r) for r in (0.05, 0.2, 0.4)]
    out.append(Ball(hi + 5.0, 1.0))                  # far: misses everything
    v = mesh.vertices[0]
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    out.append(Ball(v + 0.3 * u, 0.3))               # sphere through a vertex
    c = rng.uniform(lo, hi) + 0.3
    gap = float(points_to_simplices(c[None, :], mesh.simplex_corners()).min())
    out.append(Ball(c, gap))                          # tangent to the mesh
    out.append(Ball(c, gap * (1 + 1e-12)))
    return out


@pytest.mark.parametrize("d,n", DN)
def test_culled_sampling_matches_oracle(d, n):
    rng = np.random.default_rng([7, d, n])
    mesh = random_mesh(d, n, rng, count=30, degenerate=4)
    for ball in balls_for(mesh, rng):
        for spacing in (0.05, 0.013):
            got = sample_mesh(mesh, spacing, ball)
            want = oracle_sample_mesh(mesh, spacing, ball)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sampling_cap_refuses_before_allocating():
    mesh = random_mesh(2, 3, np.random.default_rng(0), count=4)
    tracemalloc.start()
    try:
        for spacing in (1e-7, 1e-300):
            with pytest.raises(ValueError, match="exceeds the cap"):
                sample_mesh(mesh, spacing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a coarse pitch on the same mesh stays far below the cap
    assert sample_mesh(mesh, 0.01).shape[0] < MAX_SAMPLE_POINTS // 100


@pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf])
def test_bad_spacing_is_refused_even_with_an_empty_mesh(spacing):
    full = random_mesh(2, 3, np.random.default_rng(1), count=3)
    empty = EmbeddedMesh(2, full.vertices, np.zeros((0, 3), dtype=np.int64))
    ball = Ball(np.full(3, 0.5), 0.5)
    with pytest.raises(ValueError, match="spacing"):
        local_hausdorff_distance(full, empty, ball, spacing=spacing)
    with pytest.raises(ValueError, match="spacing"):
        sample_mesh(full, spacing)


# ── the ladder end to end ──

def test_run_scheme_distances_match_oracle(monkeypatch):
    """A two-level scheme on a torus surface whose minimizers differ, so the
    ladder reads gaps of 1, not 0."""
    def ladder():
        surface = graph_mesh(lambda x, y: 0.45 + 0.15 * math.sin(2 * math.pi * x)
                             * math.sin(2 * math.pi * (y + 0.3)), n=8)
        return mz.run_scheme(surface, torus(3, 1), [4, 8], audit_trials=20,
                             seed=0).distances

    monkeypatch.setattr(mz, "LADDER_CENTERS", 3)
    got = ladder()
    monkeypatch.setattr(dist, "sup_distance", oracle_sup)
    monkeypatch.setattr(dist, "sample_mesh", oracle_sample_mesh)
    want = ladder()
    assert repr(got) == repr(want)
    assert all(g["max"] > 0.5 for g in got[0]["gaps"])
