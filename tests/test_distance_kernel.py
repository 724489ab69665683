"""The culled sup-distance, sampling and triangle kernel against the code
they replaced, and the box kernel against the triangles it stands for.

The oracle for ``sup_distance`` is the max over the full point x simplex
distance table of ``points_to_simplices`` (over the full point x box table of
one broadcast clamp, for boxes); the oracle for ``sample_mesh`` is
the per-simplex loop it ran before simplices were culled by bounding balls;
the oracle for ``_points_to_triangle`` is its region walk with masked
writes.  The new code must give the same floats, and the same sample bytes
in the same order.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau_lab import diagnostics as diag
from plateau_lab import minimizer as mz
from plateau_lab.geometry import distance as dist
from plateau_lab.geometry.clipping import segment_ball_intervals
from plateau_lab.geometry.core import Ball, EmbeddedMesh
from plateau_lab.geometry.distance import (MAX_SAMPLE_POINTS, SUP_BLOCK, _points_to_box,
                                           _points_to_segment, _points_to_triangle,
                                           local_hausdorff_distance, point_blocks,
                                           points_to_simplices, sample_mesh,
                                           stacked_points_to_simplices, sup_distance)
from plateau_lab.grids import DyadicGrid

from conftest import graph_mesh, grid_faces, segment_mesh, torus


# ── oracles ──

def box_table(points, boxes) -> np.ndarray:
    """(P, S) distances from each point to each [lo, hi] box, one broadcast clamp."""
    p = points[:, None, :]
    return np.sqrt((np.maximum(np.maximum(boxes[:, 0] - p, 0.0), p - boxes[:, 1]) ** 2).sum(axis=2))


def oracle_sup(points, corners, boxes=False) -> float:
    if boxes:
        return float(box_table(points, corners).min(axis=1, initial=math.inf).max())
    return float(points_to_simplices(points, corners).max())


def oracle_sample_mesh(mesh, spacing, ball=None):
    corners = mesh.corners
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
    return EmbeddedMesh(d, verts[simp], allow_degenerate=True)


def points_on(mesh, rng, count):
    corners = mesh.corners
    w = rng.dirichlet(np.ones(mesh.dimension + 1), count)
    pick = rng.integers(0, mesh.n_simplices, count)
    return np.einsum("pk,pkn->pn", w, corners[pick])


def point_sets(mesh, rng):
    """Point sets in random order, where every block spans the whole set,
    and in sweep order, where blocks are local and the early exit bites."""
    n = mesh.ambient_dim
    verts = mesh.corners.reshape(-1, n)
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
    corners = mesh.corners
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
    corners = mesh.corners
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
    corners = other.corners
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
    corners = mesh.corners
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
    corners = mesh.corners
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
               lambda p: _points_to_triangle(p, a, b, a + 0.5 * (b - a)),
               lambda p: _points_to_box(p, np.sort(np.stack([a, b]), axis=0))]
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


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_balls_carried_by_a_rigid_motion_keep_every_float(d, n, seed):
    """The classifier turns its samples' block balls instead of rebuilding
    them.  Under the rotations of its net and shifts of up to 1e3 times the
    set's size, the carried blocks give the fresh call's float, and with a
    bound, the same float below it and a value at or above it otherwise."""
    rng = np.random.default_rng([seed, d, n])
    mesh = random_mesh(d, n, rng, count=12)
    middle = mesh.corners.reshape(-1, n).mean(axis=0)
    for count in (SUP_BLOCK - 1, SUP_BLOCK, SUP_BLOCK + 1, 2 * SUP_BLOCK):
        q = points_on(mesh, rng, count) + rng.normal(0.0, 0.05, (count, n)) - middle
        centers, radii = point_blocks(q)
        for rot in diag._rotation_net(seed, 2, n):
            for size in (0.0, 1.0, 1e3):
                shift = size * rng.normal(size=n)
                points = q @ rot + shift
                target = (mesh.corners - middle) @ rot + shift
                blocks = (centers @ rot + shift, radii)
                want = sup_distance(points, target)
                assert sup_distance(points, target, blocks=blocks).hex() == want.hex()
                for bound in (0.5 * want, want, math.nextafter(want, math.inf), 2.0 * want):
                    got = sup_distance(points, target, bound, 1.0, blocks)
                    if want < bound:
                        assert got.hex() == want.hex()
                    else:
                        assert bound <= got <= want
    empty = np.zeros((0, n))
    corners = mesh.corners
    with pytest.raises(ValueError):
        oracle_sup(empty, corners)
    with pytest.raises(ValueError):
        sup_distance(empty, corners, blocks=point_blocks(empty))
    q = rng.uniform(0.0, 1.0, (5, n))
    got = sup_distance(q, corners[:0], blocks=point_blocks(q))
    assert got == math.inf == oracle_sup(q, corners[:0])


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


def region_points(region, n, rng, count=40):
    """Points whose closest point on the right triangle (0, e0, e1) in R^n
    is, for ``region`` 0..6: vertex a, b or c, a point of edge ab, ac or bc,
    or a point of the face.  Off-plane axes carry noise."""
    u = rng.uniform(0.1, 0.9, count)
    w = rng.uniform(0.1, 2.0, count)
    xy = {0: (-w, -rng.uniform(0.1, 2.0, count)),
          1: (1.0 + w, rng.uniform(-0.5, 0.0, count) * w),
          2: (rng.uniform(-0.5, 0.0, count) * w, 1.0 + w),
          3: (u, -w),
          4: (-w, u),
          5: (u + w, 1.0 - u + w),
          6: (u * rng.uniform(0.05, 0.95, count), (1.0 - u) * rng.uniform(0.05, 0.95, count))}
    pts = rng.normal(0.0, 0.5, (count, n))
    pts[:, 0], pts[:, 1] = xy[region]
    return pts


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("region", range(7))
def test_triangle_kernel_with_every_row_in_one_region(n, region):
    """Six of the seven regions hold no row, and their writes are skipped."""
    rng = np.random.default_rng([region, n])
    a, b, c = np.zeros(n), np.eye(n)[0], np.eye(n)[1]
    pts = region_points(region, n, rng)
    got = _points_to_triangle(pts, a, b, c)
    assert got.tobytes() == oracle_points_to_triangle(pts, a, b, c).tobytes()
    if region < 3:
        vertex = (a, b, c)[region]
        assert got.tobytes() == np.linalg.norm(pts - vertex, axis=1).tobytes()
    for row in pts[:3]:
        one = _points_to_triangle(row[None, :], a, b, c)
        assert one.tobytes() == oracle_points_to_triangle(row[None, :], a, b, c).tobytes()


# ── the stacked kernel ──

def stacked_rows(n, rng, rows, far):
    """(K, d+1, n) triangles and segments for the stacked kernel: each of
    ``kernel_triangles`` (and its edges, and a point segment) ``rows``
    times; with ``far``, moved to the grid at 1000 with spacing 2^-6."""
    tris = np.array([t for t in kernel_triangles(n, rng).values() for _ in range(rows)])
    segs = np.concatenate([tris[:, :2], tris[:, 1:], tris[:, ::2]])
    if far:
        tris, segs = 1000.0 + 2.0 ** -6 * tris, 1000.0 + 2.0 ** -6 * segs
    return tris, segs


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("P", [1, 2, 729])
@pytest.mark.parametrize("far", [False, True])
def test_stacked_kernel_rows_equal_the_per_simplex_kernel(n, P, far, monkeypatch):
    """Row k of ``stacked_points_to_simplices`` is ``_points_to_simplex``
    on ``points[owner[k]]`` and ``corners[k]``, byte for byte: segments,
    point segments, regular, sliver and degenerate triangles, one point (the
    padded dot path), two, and a 9^3 grid's worth; at the origin and on the
    grid far from it.  Every kernel call covers at most ``STACK_PAIRS``
    pairs, and a smaller cap changes no byte."""
    rng = np.random.default_rng([n, P, far])
    for corners in stacked_rows(n, rng, 3, far):
        lo, hi = corners.min(axis=(0, 1)), corners.max(axis=(0, 1))
        points = lo + (hi - lo) * rng.uniform(-0.5, 1.5, (len(corners) // 2, P, n))
        owner = rng.integers(0, len(points), len(corners))
        points[owner[:5], :1] = corners[:5, :1]            # points on a vertex
        pairs = []
        for name in ("_stacked_segments", "_stacked_triangles"):
            kernel = getattr(dist, name)
            monkeypatch.setattr(dist, name, lambda p, *c, kernel=kernel:
                                pairs.append(p.shape[0] * p.shape[1]) or kernel(p, *c))
        got = stacked_points_to_simplices(points, owner, corners)
        assert got.shape == (len(corners), P)
        for k in range(len(corners)):
            want = dist._points_to_simplex(points[owner[k]], corners[k])
            assert got[k].tobytes() == want.tobytes()
        assert max(pairs) <= dist.STACK_PAIRS
        monkeypatch.setattr(dist, "STACK_PAIRS", 3 * max(P, 2))
        assert stacked_points_to_simplices(points, owner, corners).tobytes() == got.tobytes()
        monkeypatch.undo()


def test_stacked_kernel_of_no_rows_is_empty():
    empty = np.zeros(0, dtype=int)
    assert stacked_points_to_simplices(np.zeros((1, 4, 3)), empty, np.zeros((0, 3, 3))).shape \
        == (0, 4)
    assert stacked_points_to_simplices(np.zeros((1, 0, 3)), np.zeros(2, dtype=int),
                                       np.zeros((2, 3, 3))).shape == (2, 0)


# ── the box kernel ──

def random_faceset(n, rng, count=24, unit=False):
    """``count`` random (n-1)-faces of an unidentified grid: over [0, 1]^n
    with ``unit``, else with a corner and a size drawn over six decades."""
    corner, size = np.zeros(n), 1.0
    if not unit:
        corner = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 4)
        size = float(rng.uniform(0.5, 2.0) * 10.0 ** rng.integers(-3, 4))
    grid = DyadicGrid(corner, size, int(rng.integers(1, 9)))
    faces = list(grid_faces(grid, n - 1))
    pick = rng.choice(len(faces), min(count, len(faces)), replace=False)
    return mz.FaceSet(grid, frozenset(faces[i] for i in pick))


def face_points(boxes, rng, count):
    """Points on the faces, clamped into their box so that they lie on it exactly."""
    pick = rng.integers(0, boxes.shape[0], count)
    lo, hi = boxes[pick, 0], boxes[pick, 1]
    return np.clip(lo + rng.uniform(0.0, 1.0, lo.shape) * (hi - lo), lo, hi)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_box_kernel_matches_the_simplices_of_each_face(n, seed):
    """On grid segments in R^2 and grid squares in R^3, one clamp per face is
    within 4 ulp of the coordinate scale of the min over the face's segment
    or two triangles, on points all around, near and on the faces."""
    rng = np.random.default_rng([seed, n, 25])
    fs = random_faceset(n, rng)
    grid, boxes = fs.grid, fs.boxes
    # each face is one segment (n = 2) or two triangles (n = 3) of n corners
    simplices = fs.to_mesh().corners.reshape(boxes.shape[0], n - 1, n, n)
    pts = np.vstack([grid.corner + rng.uniform(-0.2, 1.2, (2000, n)) * grid.size,
                     face_points(boxes, rng, 1000) + rng.normal(0.0, 1e-3 * grid.spacing, (1000, n)),
                     face_points(boxes, rng, 500)])
    for box, corners in zip(boxes, simplices):
        got = _points_to_box(pts, box)
        want = np.minimum.reduce([dist._points_to_simplex(pts, c) for c in corners])
        scale = max(float(np.abs(pts).max()), float(np.abs(box).max()))
        assert float(np.abs(got - want).max()) <= 4 * np.spacing(scale)


@pytest.mark.parametrize("n", [2, 3])
def test_a_point_on_its_face_is_at_distance_zero(n):
    rng = np.random.default_rng([n, 26])
    for _ in range(6):
        boxes = random_faceset(n, rng).boxes
        for box in boxes:
            lo, hi = box
            pts = np.vstack([box, np.where(rng.random((20, n)) < 0.5, lo, hi),
                             face_points(box[None], rng, 300)])
            assert (_points_to_box(pts, box) == 0.0).all()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sup_distance_on_boxes_matches_the_full_table(n, seed):
    """Bit for bit, and with a bound, the oracle's float below it and a value
    at or above it otherwise."""
    rng = np.random.default_rng([seed, n, 27])
    fs = random_faceset(n, rng, unit=True)
    boxes = fs.boxes
    sets = point_sets(fs.to_mesh(), rng)
    sets["faces"] = face_points(boxes, rng, 900)
    for name, pts in sets.items():
        want = oracle_sup(pts, boxes, boxes=True)
        assert sup_distance(pts, boxes, boxes=True).hex() == want.hex(), name
        for radius in (1.0, 0.125):
            for bound in (want / radius, math.nextafter(want / radius, math.inf),
                          0.5 * want / radius, 2.0 * want / radius + 1e-300):
                got = sup_distance(pts, boxes, bound, radius, boxes=True)
                if want / radius < bound:
                    assert got.hex() == want.hex(), name
                else:
                    assert got <= want and got / radius >= bound, name
    assert sup_distance(sets["faces"], boxes, boxes=True) == 0.0


def test_sup_distance_on_boxes_empty_inputs_follow_the_table():
    none = np.zeros((0, 2, 3))
    assert sup_distance(np.zeros((4, 3)), none, boxes=True) == math.inf
    assert oracle_sup(np.zeros((4, 3)), none, boxes=True) == math.inf
    for sup in (sup_distance, oracle_sup):
        with pytest.raises(ValueError):
            sup(np.zeros((0, 3)), np.zeros((2, 2, 3)), boxes=True)


def test_sup_distance_on_boxes_skips_most_pairs(monkeypatch):
    """The culling loop serves the box kernel as it serves the triangles: on
    a ladder-like query most point-box pairs are never evaluated."""
    fine = mz.initialize_from_mesh(graph_mesh(lambda x, y: 0.5 + 0.1 * math.sin(2 * math.pi * x),
                                              n=16), torus(3, 8)).faceset
    pts = sample_mesh(graph_mesh(lambda x, y: 0.45 + 0.1 * math.sin(2 * math.pi * y), n=16),
                      0.125 / 32, Ball(np.array([0.5, 0.5, 0.5]), 0.125))
    boxes = fine.boxes
    want = oracle_sup(pts, boxes, boxes=True)
    pairs = []
    kernel = dist._points_to_box
    monkeypatch.setattr(dist, "_points_to_box", lambda p, b: pairs.append(p.shape[0]) or kernel(p, b))
    monkeypatch.setattr(dist, "_points_to_simplex", None)
    assert sup_distance(pts, boxes, boxes=True).hex() == want.hex()
    assert 0 < sum(pairs) < 0.05 * pts.shape[0] * boxes.shape[0]


# ── sample_mesh ──

def balls_for(mesh, rng):
    n = mesh.ambient_dim
    verts = mesh.corners.reshape(-1, n)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    out = [None, Ball((lo + hi) / 2, 10.0)]
    out += [Ball(rng.uniform(lo, hi), r) for r in (0.05, 0.2, 0.4)]
    out.append(Ball(hi + 5.0, 1.0))                  # far: misses everything
    v = verts[0]
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    out.append(Ball(v + 0.3 * u, 0.3))               # sphere through a vertex
    c = rng.uniform(lo, hi) + 0.3
    gap = float(points_to_simplices(c[None, :], mesh.corners).min())
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


def right_triangle(n, corners=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))):
    verts = np.zeros((3, n))
    verts[:, :2] = corners
    return EmbeddedMesh(2, verts[np.array([[0, 1, 2]])], allow_degenerate=True)


def edge_case_balls(n):
    """Balls on the lattice of the unit right triangle at k = 8 (pitch 0.18):
    spheres through dyadic lattice points, a sphere tangent to the plane at a
    lattice point, spheres tangent to a row line at a lattice point, and each
    of them a hair larger and smaller."""
    def at(*xyz):
        p = np.zeros(n)
        p[:len(xyz)] = xyz
        return p
    balls = [(at(0.25, 0.25), 0.25), (at(0.5, 0.5), 0.5), (at(0.0, 0.0), 0.625),
             (at(0.25, 0.25, 0.125), 0.125), (at(0.75, 0.25), 0.25),
             (at(0.5, 0.375, 0.0), 0.125), (at(-0.25, 0.5), 0.25), (at(1.0, 1.0), 0.5 ** 0.5)]
    return [Ball(c, r * f) for c, r in balls for f in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1 + 1e-9)]


@pytest.mark.parametrize("n", [3, 5])
def test_ball_sampling_on_spheres_through_lattice_points(n):
    """Lattice points exactly on the sphere, tangent and grazing balls: every
    point the whole-lattice filter keeps is kept, in the same order."""
    mesh = right_triangle(n)
    kept = 0
    for ball in edge_case_balls(n):
        got = sample_mesh(mesh, 0.18, ball)
        want = oracle_sample_mesh(mesh, 0.18, ball)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        kept += got.shape[0]
    assert kept > 0
    # (0.5, 0.25) lies exactly on the first sphere, and is kept
    on = sample_mesh(mesh, 0.18, Ball(edge_case_balls(n)[0].center, 0.25))
    assert any(p[0] == 0.5 and p[1] == 0.25 for p in on.tolist())


@pytest.mark.parametrize("corners", [
    ((0.0, 0.0), (1.0, 0.0), (0.0, 0.0)),                      # c == a: zero row step
    ((0.0, 0.0), (0.0, 0.0), (0.0, 1.0)),                      # b == a
    ((0.0, 0.0), (1.0, 0.0), (2.0, 1e-9)),                     # sliver
    ((0.0, 0.0), (1.0, 1e-12), (1e-300, 2e-300)),              # c - a nearly 0
    ((0.0, 0.0), (1.0, 0.0), (0.5, 0.0)),                      # collinear
])
def test_ball_sampling_on_degenerate_triangles(corners):
    mesh = right_triangle(3, corners)
    rng = np.random.default_rng(5)
    balls = [Ball(np.array([0.5, 0.0, 0.0]), 0.25), Ball(np.array([0.0, 0.0, 0.0]), 0.5),
             Ball(np.array([0.25, 1e-10, 0.0]), 1e-3)]
    balls += [Ball(rng.uniform(-0.2, 1.2, 3), r) for r in (0.05, 0.3)]
    for ball in balls:
        for spacing in (0.05, 0.013):
            got = sample_mesh(mesh, spacing, ball)
            want = oracle_sample_mesh(mesh, spacing, ball)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("a,b,c,center,reach,kept", [
    # a step whose square overflows: every row whole
    ((-1e308, 0, 0), (1e308, 0, 0), (1e308, 1e308, 0), (0.5, 0, 0), 1e300, 36),
    # a chord whose square overflows: every row whole
    ((0, 0, 0), (1e300, 0, 0), (0, 1e300, 0), (0.5, 0, 0), 1e300, 36),
    # a step whose square underflows to 0: every row whole
    ((0, 0, 0), (1, 0, 0), (0, 1e-310, 0), (0.5, 0, 0), 0.1, 36),
    # a subnormal squared step: rows 3 and 4 whole, the others missed
    ((0, 0, 0), (1, 0, 0), (0, 1e-160, 0), (0.5, 0, 0), 0.1, 9),
])
def test_ball_lattice_bounds_raise_no_float_warnings(a, b, c, center, reach, kept):
    """The chord bounds guard their divisions and casts: no RuntimeWarning,
    and a row whose bound is not finite keeps all its points."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, c, center = (np.array(x, dtype=float) for x in (a, b, c, center))
        i, m = dist._lattice_indices(a, b, c, 7, Ball(center, reach), 0.0)
    assert len(i) == kept
    assert np.all((i >= 0) & (m >= 0) & (i + m <= 7))


def test_small_ball_builds_only_its_lattice_rows():
    """One triangle at just under the cap, k = 2894 (4,191,960 lattice
    points), and a ball of radius 1e-3 inside it: only the points near the
    ball are built, so the peak stays small."""
    mesh = right_triangle(3)
    spacing = math.sqrt(2.0) / 2893.5
    k = math.ceil(math.sqrt(2.0) / spacing)
    assert k == 2894 and (k + 1) * (k + 2) // 2 <= MAX_SAMPLE_POINTS
    ball = Ball(np.array([0.25, 0.25, 0.0]), 1e-3)
    tracemalloc.start()
    try:
        pts = sample_mesh(mesh, spacing, ball)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert 0 < pts.shape[0] < 100
    assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius)


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
    empty = EmbeddedMesh(2, full.corners[:0])
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


@pytest.mark.parametrize("n,surface", [
    (3, lambda: graph_mesh(lambda x, y: 0.5, n=8)),
    (2, lambda: segment_mesh([[x / 8, 0.5] for x in range(9)])),
])
def test_coincident_minimizers_read_gaps_of_exactly_zero(n, surface):
    """A flat slice of the torus minimizes to itself at N = 2, 4 and 8, and
    every sample lies on a face of the other level, so each gap is 0.0 (the
    two-triangle kernel read up to 1.9e-15 on the squares)."""
    res = mz.run_scheme(surface(), torus(n, 1), [2, 4, 8], audit_trials=20, seed=0)
    assert [lv.result.faceset.measure() for lv in res.levels] == [1.0] * 3
    gaps = [g[k] for row in res.distances for g in row["gaps"] for k in ("max", "mean")]
    assert len(gaps) == 2 * 2 * len(mz.LADDER_RADII)
    assert all(g == 0.0 for g in gaps)
