"""The batched Weiszfeld kernel against the scalar loop it replaced.

``oracle_optimize_interior`` is the per-topology, per-vertex, per-neighbour
loop that ``steiner._optimize_interiors`` replaced, frozen here; the only
addition is that it also returns its sweep count.  ``oracle_optimize_steiner``
is the old driver, which solved one topology at a time.  Every comparison is
on bytes (``tobytes``, ``float.hex``), so a change of summation order or of
the norm's form shows.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

from plateau_lab import steiner
from plateau_lab.geometry.core import EmbeddedMesh
from plateau_lab.steiner import (
    WEISZFELD_MAX_SWEEPS,
    WEISZFELD_REL_TOL,
    MultiplicityNet,
    Terminal,
    enumerate_topologies,
    optimize_steiner,
)


def oracle_optimize_interior(topology, terminals, weights, scale):
    """Damped Weiszfeld sweeps for the interior vertex positions."""
    N = topology.n_terminals
    V = N + topology.n_interior
    n = terminals[0].point.size
    pos = np.zeros((V, n))
    for i, t in enumerate(terminals):
        pos[i] = t.point
    k = V - N
    if k:
        L = np.zeros((k, k))
        rhs = np.zeros((k, n))
        for a, b in topology.edges:
            for u, w in ((a, b), (b, a)):
                if u >= N:
                    L[u - N, u - N] += 1.0
                    if w >= N:
                        L[u - N, w - N] -= 1.0
                    else:
                        rhs[u - N] += pos[w]
        pos[N:] = np.linalg.solve(L, rhs)
    adj = [[] for _ in range(V)]
    for (a, b), w in zip(topology.edges, weights):
        adj[a].append((b, float(w)))
        adj[b].append((a, float(w)))
    eps = 1e-14 * scale
    tol = WEISZFELD_REL_TOL * scale
    sweeps = WEISZFELD_MAX_SWEEPS
    for sweep in range(WEISZFELD_MAX_SWEEPS):
        moved = 0.0
        for v in range(N, V):
            num = np.zeros(n)
            den = 0.0
            for w, wt in adj[v]:
                if wt <= 0.0:
                    continue
                d = float(np.linalg.norm(pos[w] - pos[v]))
                c = wt / max(d, eps)
                num += c * pos[w]
                den += c
            if den <= 0.0:
                continue
            target = num / den
            step = 0.5 * (target - pos[v]) if sweep < 8 else target - pos[v]
            moved = max(moved, float(np.linalg.norm(step)))
            pos[v] = pos[v] + step
        if moved <= tol:
            sweeps = sweep + 1
            break
    return pos, sweeps


def solver_inputs(terminals, functional, beta):
    N = len(terminals)
    if functional == "size":
        charges = (1,) * (N - 1) + (-(N - 1),)
    else:
        charges = tuple(t.charge for t in terminals)
    scale = steiner._instance_scale([t.point for t in terminals])
    tops = enumerate_topologies(N)
    flows = [steiner._tree_flows(topo, charges) for topo in tops]
    weights = [steiner._edge_weights(f, functional, beta) for f in flows]
    return tops, flows, weights, scale


def oracle_optimize_steiner(terminals, functional, beta):
    """The old driver: (cost, runner_up, topology, net), one topology at a time."""
    tops, all_flows, weights, scale = solver_inputs(terminals, functional, beta)
    N = len(terminals)
    best = runner = None
    for topo, flows, w in zip(tops, all_flows, weights):
        pos, _ = oracle_optimize_interior(topo, terminals, w, scale)
        pts, e_arr, f_arr = steiner._merge_collapsed(pos, np.array(topo.edges), flows, N, scale)
        net = MultiplicityNet(pts, e_arr, f_arr)
        cost = net.cost(functional, beta)
        pts2, e2, f2 = steiner._merge_collapsed(pos, np.array(topo.edges), flows, N, scale,
                                                tol=2e-2 * scale)
        if e2.shape != e_arr.shape or (e2 != e_arr).any():
            net2 = MultiplicityNet(pts2, e2, f2)
            cost2 = net2.cost(functional, beta)
            if cost2 <= cost:
                net, cost = net2, cost2
        key = (cost, tuple(sorted(map(tuple, e_arr.tolist()))))
        if best is None or key < best[0]:
            if best is not None:
                runner = best[1]
            best = (key, cost, net, topo)
        elif runner is None or cost < runner:
            runner = cost
    _, cost, net, topo = best
    return cost, runner, topo, net


def oracle_vertex_balance(net):
    bal = np.zeros(len(net.points), dtype=np.int64)
    for (a, b), f in zip(net.edges, net.flows):
        bal[a] += f
        bal[b] -= f
    return bal


def oracle_segments_mesh(net):
    keep = net.multiplicities > 0
    segs = [np.array([net.points[a], net.points[b]])
            for (a, b), k in zip(net.edges, keep) if k]
    if not segs:
        return EmbeddedMesh(1, np.zeros((0, 2, net.ambient_dim)))
    return EmbeddedMesh(1, segs, net.multiplicities[keep])


def random_terminals(seed, N, dim, functional):
    """Uniform points in [-1, 1]^dim; balanced nonzero charges off ``size``."""
    rng = np.random.default_rng([seed, N, dim])
    pts = rng.uniform(-1.0, 1.0, (N, dim))
    charges = [1] * N
    while functional != "size":
        charges = [int(q) for q in rng.choice([-3, -2, -1, 1, 2, 3], N - 1)]
        charges.append(-sum(charges))
        if charges[-1]:
            break
    return [Terminal(p, q) for p, q in zip(pts, charges)]


def terms(points, charges=None):
    charges = charges or [1] * len(points)
    return [Terminal(np.array(p, dtype=float), q) for p, q in zip(points, charges)]


#: a bench instance (mass, charges 2, 1, -1, -1, -1) where one topology runs
#: all WEISZFELD_MAX_SWEEPS sweeps
SLOW = terms([[0.88623046875, 0.3193359375], [0.903076171875, 0.05322265625],
              [0.091064453125, 0.56787109375], [0.737060546875, 0.979736328125],
              [0.009521484375, 0.32177734375]], [2, 1, -1, -1, -1])
#: three opposite pairs: some topologies meet three zero-flow edges at a
#: junction, which then has no weighted neighbour and never moves
PAIRS = terms([[0.0, 0.0], [0.3, 0.1], [1.0, 0.2], [1.2, 0.5], [0.4, 1.0], [0.7, 1.3]],
              [1, -1, 1, -1, 1, -1])
#: an obtuse triangle: the junction collapses onto the obtuse corner
OBTUSE = terms([[-1, 0], [1, 0], [0, 0.15]])
#: flow 2 on the trunk: the mass junction merges into the sink
MERGING = terms([[-0.5, 1.0], [0.5, 1.0], [0.0, 0.0]], [1, 1, -2])
#: signed zeros in the input coordinates
SIGNED_ZEROS = terms([[-0.0, 1.0], [-0.0, -1.0], [1.0, -0.0], [-1.0, 0.0]], [1, 1, -1, -1])

FUNCTIONALS = [("size", 1.0), ("mass", 1.0), ("m_beta", 0.5)]


def check_kernel(terminals, functional, beta, sample=None, seed=0):
    """Kernel on every topology; the oracle on all or on ``sample`` of them.

    Returns the oracle's sweep counts and the weight rows of the checked
    topologies.
    """
    tops, _, weights, scale = solver_inputs(terminals, functional, beta)
    got = steiner._optimize_interiors(tops, terminals, weights, scale)
    assert got.shape == (len(tops), 2 * len(terminals) - 2, terminals[0].point.size)
    idx = range(len(tops))
    if sample is not None and sample < len(tops):
        idx = sorted(np.random.default_rng(seed).choice(len(tops), sample, replace=False))
    sweeps = []
    for i in idx:
        want, count = oracle_optimize_interior(tops[i], terminals, weights[i], scale)
        assert got[i].tobytes() == want.tobytes(), f"topology {i}: {tops[i].edges}"
        sweeps.append(count)
    return sweeps, [weights[i] for i in idx]


@pytest.mark.parametrize("functional,beta", FUNCTIONALS)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_kernel_matches_scalar_oracle(N, dim, functional, beta):
    terminals = random_terminals(11, N, dim, functional)
    check_kernel(terminals, functional, beta, sample=12 if N >= 6 else None, seed=N * dim)


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_kernel_matches_scalar_oracle_in_higher_dimensions(dim):
    for functional, beta in FUNCTIONALS:
        check_kernel(random_terminals(12, 5, dim, functional), functional, beta)


def test_kernel_keeps_a_junction_without_weighted_neighbours():
    for functional, beta in (("mass", 1.0), ("m_beta", 0.5)):
        _, weights = check_kernel(PAIRS, functional, beta)
        tops = enumerate_topologies(len(PAIRS))
        frozen = 0
        for topo, w in zip(tops, weights):
            for v in range(len(PAIRS), 2 * len(PAIRS) - 2):
                incident = [wt for (a, b), wt in zip(topo.edges, w) if v in (a, b)]
                frozen += all(wt == 0.0 for wt in incident)
        assert frozen >= 1
        assert any((w == 0.0).any() for w in weights)


def test_batched_start_matches_the_per_topology_solve(monkeypatch):
    # with no sweeps both return the harmonic start guess
    monkeypatch.setattr(steiner, "WEISZFELD_MAX_SWEEPS", 0)
    monkeypatch.setattr(sys.modules[__name__], "WEISZFELD_MAX_SWEEPS", 0)
    for N in (3, 5, 7):
        for dim in (2, 3):
            check_kernel(random_terminals(15, N, dim, "size"), "size", 1.0)


def test_kernel_runs_a_topology_to_the_sweep_cap():
    sweeps, _ = check_kernel(SLOW, "mass", 1.0)
    assert max(sweeps) == WEISZFELD_MAX_SWEEPS
    assert min(sweeps) < WEISZFELD_MAX_SWEEPS


@pytest.mark.parametrize("terminals,functional,beta", [
    (OBTUSE, "size", 1.0), (MERGING, "mass", 1.0), (MERGING, "m_beta", 0.5),
    (SIGNED_ZEROS, "size", 1.0), (SIGNED_ZEROS, "mass", 1.0),
], ids=["obtuse", "merging-mass", "merging-m_beta", "signed-zeros-size", "signed-zeros-mass"])
def test_kernel_matches_scalar_oracle_on_special_instances(terminals, functional, beta):
    check_kernel(terminals, functional, beta)


def assert_same_result(terminals, functional, beta):
    got = optimize_steiner(terminals, functional=functional, beta=beta)
    cost, runner, topo, net = oracle_optimize_steiner(terminals, functional, beta)
    assert got.cost.hex() == cost.hex()
    assert (None if got.runner_up is None else got.runner_up.hex()) == \
        (None if runner is None else runner.hex())
    assert got.topology == topo
    for field in ("points", "edges", "flows"):
        assert getattr(got.net, field).tobytes() == getattr(net, field).tobytes(), field
    return got


@pytest.mark.parametrize("functional,beta", FUNCTIONALS)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("N", [3, 4, 5])
def test_optimize_steiner_matches_old_loop(N, dim, functional, beta):
    assert_same_result(random_terminals(13, N, dim, functional), functional, beta)


def test_optimize_steiner_matches_old_loop_with_collapsed_junctions():
    N = len(OBTUSE)
    assert len(assert_same_result(OBTUSE, "size", 1.0).net.points) < 2 * N - 2
    assert len(assert_same_result(MERGING, "mass", 1.0).net.points) < 2 * N - 2
    assert_same_result(MERGING, "m_beta", 0.5)
    assert_same_result(SIGNED_ZEROS, "size", 1.0)
    assert_same_result(SLOW, "mass", 1.0)
    assert_same_result(PAIRS, "mass", 1.0)


def net_cases():
    for terminals, functional, beta in ((SLOW, "mass", 1.0), (PAIRS, "mass", 1.0),
                                        (OBTUSE, "size", 1.0), (MERGING, "m_beta", 0.5),
                                        (random_terminals(14, 5, 3, "mass"), "mass", 1.0)):
        yield optimize_steiner(terminals, functional=functional, beta=beta).net
    pts = np.array([[0.0, 0.0], [1.0, -0.0], [1.0, 1.0], [-0.0, 1.0]])
    for flows in ([3, 0, -2, 1], [0, 0, 0, 0], [-1, 2, 0, 5]):
        yield MultiplicityNet(pts, [[0, 1], [1, 2], [2, 3], [3, 0]], flows)
    yield MultiplicityNet(pts, np.zeros((0, 2)), [])


def test_net_arrays_match_the_loops():
    for net in net_cases():
        assert net.vertex_balance().tobytes() == oracle_vertex_balance(net).tobytes()
        got, want = net.as_segments_mesh(), oracle_segments_mesh(net)
        for field in ("corners", "multiplicities"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert got.corners.shape == want.corners.shape


def test_batched_norms_match_linalg_norm():
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        D = rng.standard_normal((400, n)) * rng.choice([1e-9, 1.0, 1e9], (400, 1))
        want = np.array([np.linalg.norm(d) for d in D])
        assert steiner._norms(D)[:, 0].tobytes() == want.tobytes()
        assert steiner._norms(D.reshape(20, 20, n))[..., 0].tobytes() == want.tobytes()


def test_topologies_are_all_full_trees():
    # the kernel's (slot, neighbour) tables assume degree 3 at every junction
    for N in range(3, 8):
        for topo in enumerate_topologies(N):
            deg = np.bincount(np.array(topo.edges).ravel(), minlength=2 * N - 2)
            assert (deg[:N] == 1).all() and (deg[N:] == 3).all()
