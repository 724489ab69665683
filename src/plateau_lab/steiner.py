"""Weighted networks spanning charged terminals, and their optimizers.

A network is a straight-segment graph with positive integer multiplicities.
Terminals carry integer charges; a network is admissible when the signed flow
through every vertex balances its charge (terminals) or vanishes (interior
vertices), counting each oriented edge flow once.  The cost functionals are

* ``size``  — total length, ignoring multiplicities,
* ``mass``  — length weighted by multiplicity,
* ``m_beta`` — length weighted by multiplicity**beta, 0 < beta <= 1
  (with 0**beta = 0, so zero-multiplicity edges are free).

The optimizer enumerates full Steiner topologies over the terminals (built by
the classical insertion scheme, (2N-5)!! trees), solves each for interior
vertex positions by a damped fixed-point iteration of the weighted
Fermat-point condition, derives edge multiplicities from the terminal charges
by flow conservation on the tree, merges collapsed vertices, and returns the
best network with a small audit certificate.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry.core import EmbeddedMesh, as_point, stacked_dots

logger = logging.getLogger(__name__)

#: vertices closer than this (relative to the instance scale) merge
MERGE_REL_TOL = 1e-9

#: fixed-point iteration stops when positions move less than this, relative
WEISZFELD_REL_TOL = 1e-12

WEISZFELD_MAX_SWEEPS = 2000

#: interior angles at degree-3 junctions should match 2*pi/3 to this (radians)
ANGLE_AUDIT_TOL = 1e-4

#: exhaustive search limit: 8 terminals are 10,395 topologies, 10 would be
#: 34,459,425 built in memory before the first solve
MAX_TERMINALS = 8


@dataclass(frozen=True)
class Terminal:
    """A charged boundary point: positive charge = source, negative = sink."""

    point: np.ndarray
    charge: int = 1

    def __post_init__(self):
        object.__setattr__(self, "point", as_point(self.point))
        self.point.flags.writeable = False
        if int(self.charge) != self.charge or self.charge == 0:
            raise ValueError("terminal charge must be a nonzero integer")
        object.__setattr__(self, "charge", int(self.charge))


@dataclass
class MultiplicityNet:
    """Straight segments with integer multiplicities and oriented flows."""

    points: np.ndarray
    edges: np.ndarray          # (E, 2) vertex indices, flow oriented 0 -> 1
    flows: np.ndarray          # (E,) signed integer flow along the edge

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.flows = np.asarray(self.flows, dtype=np.int64).reshape(-1)
        if self.points.ndim != 2:
            raise ValueError("points must be a (V, n) array")
        if self.flows.shape[0] != self.edges.shape[0]:
            raise ValueError("one flow per edge required")
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= len(self.points)):
            raise ValueError("edge index out of range")

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def multiplicities(self) -> np.ndarray:
        return np.abs(self.flows)

    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.points[self.edges[:, 1]] - self.points[self.edges[:, 0]], axis=1)

    def cost(self, functional: str = "size", beta: float = 1.0) -> float:
        """Total length, each edge weighted by ``_edge_weights``."""
        return float((self.lengths() * _edge_weights(self.flows, functional, beta)).sum())

    def vertex_balance(self) -> np.ndarray:
        """Net outflow per vertex (outgoing minus incoming signed flow)."""
        bal = np.zeros(len(self.points), dtype=np.int64)
        np.add.at(bal, self.edges[:, 0], self.flows)
        np.subtract.at(bal, self.edges[:, 1], self.flows)
        return bal

    def as_segments_mesh(self) -> EmbeddedMesh:
        keep = self.multiplicities > 0
        if not keep.any():
            return EmbeddedMesh.empty(1, self.ambient_dim)
        return EmbeddedMesh.from_simplex_list(1, self.points[self.edges[keep]],
                                              self.multiplicities[keep])


def check_kirchhoff(net: MultiplicityNet, terminals: Sequence[Terminal]) -> None:
    """Verify flow conservation against the terminal charges.

    Terminal vertices must have net outflow equal to their charge; every
    other vertex must balance to zero.  Raises ValueError with the first
    offending vertex otherwise.
    """
    pts = net.points
    scale = _instance_scale([t.point for t in terminals])
    tol = MERGE_REL_TOL * scale
    charge = np.zeros(len(pts), dtype=np.int64)
    seen = set()
    for t in terminals:
        d = np.linalg.norm(pts - t.point[None, :], axis=1)
        i = int(np.argmin(d))
        if d[i] > tol:
            raise ValueError("terminal has no matching network vertex")
        if i in seen:
            raise ValueError("two terminals map to one network vertex")
        seen.add(i)
        charge[i] += t.charge
    bal = net.vertex_balance()
    bad = np.nonzero(bal != charge)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"flow conservation fails at vertex {i}: net outflow {int(bal[i])}, "
            f"required {int(charge[i])}")


def _instance_scale(points: Sequence[np.ndarray]) -> float:
    arr = np.asarray(points, dtype=float)
    if arr.shape[0] < 2:
        return 1.0
    return float(np.max(arr.max(axis=0) - arr.min(axis=0))) or 1.0


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetTopology:
    """A full tree over N terminals: N leaf slots then N-2 interior slots."""

    n_terminals: int
    edges: tuple

    @property
    def n_interior(self) -> int:
        return max(self.n_terminals - 2, 0)


def enumerate_topologies(n_terminals: int) -> list[NetTopology]:
    """All full Steiner trees by edge insertion: 1, 1, 3, 15, 105, ... trees."""
    N = n_terminals
    if N < 2:
        raise ValueError("need at least two terminals")
    if N == 2:
        return [NetTopology(2, ((0, 1),))]
    # terminals are labelled 0..N-1 and interior vertices N..2N-3; the base
    # tree joins terminals 0, 1, 2 at interior vertex N
    tops = [[(0, N), (1, N), (2, N)]]
    for t in range(3, N):
        new_tops = []
        interior_new = N + t - 2
        for edges in tops:
            for i, (a, b) in enumerate(edges):
                out = [e for j, e in enumerate(edges) if j != i]
                out.extend([(a, interior_new), (b, interior_new), (t, interior_new)])
                new_tops.append(out)
        tops = new_tops
    return [NetTopology(N, tuple(sorted(e))) for e in tops]


def _tree_flows(topology: NetTopology, charges: Sequence[int]) -> np.ndarray:
    """Signed flow on each tree edge forced by the terminal charges.

    The flow along edge (a, b), oriented a -> b, equals minus the total
    charge hanging on the b-side of the edge (what must stream back through
    toward a), which the tree structure determines uniquely.
    """
    N = topology.n_terminals
    V = N + topology.n_interior
    adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]
    for idx, (a, b) in enumerate(topology.edges):
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    flows = np.zeros(len(topology.edges), dtype=np.int64)

    def subtree_charge(v: int, parent: int) -> int:
        total = charges[v] if v < N else 0
        for w, idx in adj[v]:
            if w == parent:
                continue
            c = subtree_charge(w, v)
            a, b = topology.edges[idx]
            # orient flow a -> b; the side beyond the far endpoint carries c
            flows[idx] = -c if b == w else c
            total += c
        return total

    if subtree_charge(0, -1) != 0:
        raise ValueError("terminal charges must sum to zero")
    return flows


# ---------------------------------------------------------------------------
# geometric optimization of the topologies
# ---------------------------------------------------------------------------

def _check_beta(beta: float) -> None:
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must be in (0, 1]")


def _edge_weights(flows: np.ndarray, functional: str, beta: float) -> np.ndarray:
    """The weight of each edge under a functional: 1 for size, the
    multiplicity for mass, its beta-th power for m_beta (0 on zero flow)."""
    m = np.abs(flows).astype(float)
    if functional == "size":
        return (m > 0).astype(float)
    if functional == "mass":
        return m
    if functional == "m_beta":
        _check_beta(beta)
        return np.where(m > 0, m ** beta, 0.0)
    raise ValueError(f"unknown functional {functional!r}")


def _norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, kept as a length-1 axis, bit for bit
    as ``np.linalg.norm`` of each vector (see ``row_dots``).  Every ``D`` here
    is a fresh difference or ``steps``, so C-contiguous float64."""
    return np.sqrt(stacked_dots(D, D))[..., 0]


def _optimize_interiors(topologies: Sequence[NetTopology], terminals: Sequence[Terminal],
                        weights: Sequence[np.ndarray], scale: float) -> np.ndarray:
    """Damped Weiszfeld sweeps for the interior vertices of full topologies,
    one row of edge ``weights`` each; returns (T, 2N-2, n) positions.

    The topologies sweep together, Gauss-Seidel slot by slot, summing each
    vertex's three neighbours in adjacency (edge) order; each leaves the batch
    on the sweep its own largest step falls to the tolerance.  So every
    topology gets the floats of a solve on its own.
    """
    N, T = len(terminals), len(topologies)
    k = N - 2
    pos = np.zeros((T, N + k, terminals[0].point.size))
    pos[:, :N] = [t.point for t in terminals]
    if not k:
        return pos
    # (slot, neighbour, topology) tables: a stable sort of the flat endpoint
    # list puts the N leaves first, then each junction's edges in edge order
    ends = np.array([topo.edges for topo in topologies]).reshape(T, -1)
    slot = np.argsort(ends, axis=1, kind="stable")[:, N:]
    nbr = np.take_along_axis(ends, slot ^ 1, axis=1).reshape(T, k, 3).transpose(1, 2, 0)
    wts = np.take_along_axis(np.asarray(weights, dtype=float), slot // 2, axis=1)
    wts = np.ascontiguousarray(wts.reshape(T, k, 3).transpose(1, 2, 0))[..., None]
    # harmonic extension over the tree (terminals pinned) as the start guess:
    # distinct per-junction seeds keep symmetric topologies from collapsing
    L = np.tile(3.0 * np.eye(k), (T, 1, 1))
    j, s, t = np.nonzero(nbr >= N)
    L[t, j, nbr[j, s, t] - N] = -1.0
    rhs = np.zeros((T, k, pos.shape[2]))
    for s in range(3):      # terminal neighbours in edge order
        j, t = np.nonzero(nbr[:, s] < N)
        rhs[t, j] += pos[0, nbr[j, s, t]]
    pos[:, N:] = np.linalg.solve(L, rhs)
    eps = 1e-14 * scale
    tol = WEISZFELD_REL_TOL * scale
    live = np.arange(T)
    batch = pos.copy()
    steps = np.empty((k,) + batch.shape[::2])
    rows = nbr + (N + k) * live
    # a vertex with no weighted neighbour (den 0) keeps its place: its 0/0 step
    # is set to -0.0, and x + -0.0 is x, signed zeros included
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(WEISZFELD_MAX_SWEEPS):
            flat = batch.reshape(-1, batch.shape[2])
            for j in range(k):
                x = batch[:, N + j]
                y = flat[rows[j]]
                c = wts[j] / np.maximum(_norms(y - x), eps)
                cy = c * y
                # start from +0.0 as a running sum would, so signed zeros match
                num = cy[0] + 0.0 + cy[1] + cy[2]
                den = c[0] + c[1] + c[2]
                step = np.subtract(num / den, x, out=steps[j])
                if sweep < 8:
                    step *= 0.5
                np.copyto(step, -0.0, where=den <= 0.0)
                x += step
            done = np.fmax.reduce(_norms(steps), axis=0, initial=0.0)[:, 0] <= tol
            if done.any():
                pos[live[done]] = batch[done]
                keep = ~done
                live, batch, steps, nbr, wts = (live[keep], batch[keep], steps[:, keep],
                                                nbr[..., keep], wts[:, :, keep])
                rows = nbr + (N + k) * np.arange(live.size)
                if not live.size:
                    break
    pos[live] = batch
    return pos


def _merge_collapsed(pos: np.ndarray, edges: np.ndarray, flows: np.ndarray,
                     n_terminals: int, scale: float,
                     tol: Optional[float] = None):
    """Merge vertices within the merge tolerance; drop zero-length edges.

    Terminals never merge into each other; interior vertices snap onto the
    earliest coincident vertex (terminals first), keeping indices stable.
    """
    V = len(pos)
    if tol is None:
        tol = MERGE_REL_TOL * scale
    close = (_norms(pos[:, None] - pos[None, :])[..., 0] <= tol).tolist()
    target = list(range(V))
    for v in range(n_terminals, V):
        target[v] = next((u for u in range(v) if target[u] == u and close[v][u]), v)
    kept = [(target[a], target[b], int(f)) for (a, b), f in zip(edges, flows)
            if target[a] != target[b]]
    used = sorted({i for a, b, _ in kept for i in (a, b)} | set(range(n_terminals)))
    remap = {old: new for new, old in enumerate(used)}
    e_arr = np.array([(remap[a], remap[b]) for a, b, _ in kept], dtype=np.int64).reshape(-1, 2)
    return pos[used], e_arr, np.array([f for _, _, f in kept], dtype=np.int64)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def angle_audit(net: MultiplicityNet, n_terminals: int) -> dict:
    """Check degree-3 interior junction angles against 120 degrees."""
    edges = net.edges[net.multiplicities > 0].tolist()
    worst = 0.0
    checked = 0
    for v in range(n_terminals, len(net.points)):
        others = [b if a == v else a for a, b in edges if v in (a, b)]
        if len(others) != 3:
            continue
        dirs = []
        for u in net.points[others] - net.points[v]:
            norm = float(np.linalg.norm(u))
            if norm > 0:
                dirs.append(u / norm)
        if len(dirs) != 3:
            continue
        checked += 1
        for u1, u2 in itertools.combinations(dirs, 2):
            ang = math.acos(min(1.0, max(-1.0, float(u1 @ u2))))
            worst = max(worst, abs(ang - 2.0 * math.pi / 3.0))
    return {"junctions": checked, "max_deviation": worst, "ok": worst <= ANGLE_AUDIT_TOL or checked == 0}


def star_upper_bound(terminals: Sequence[Terminal], functional: str = "size",
                     beta: float = 1.0) -> float:
    """Cost of the star network through the terminal centroid (an upper bound)."""
    pts = np.array([t.point for t in terminals])
    c = pts.mean(axis=0)
    if functional == "size":
        w = np.ones(len(pts))
    elif functional == "mass":
        w = np.abs([t.charge for t in terminals]).astype(float)
    else:
        # Python's ``**``, not ``_edge_weights``' numpy power: with numpy
        # 2.4.6 on an AVX-512 x86_64 host the two round apart on 6,613 of
        # 128,256 (charge 1..256, beta in 501 steps over [0, 1]) pairs, so
        # moving it would change the bound's last bits
        w = np.array([abs(t.charge) ** beta for t in terminals])
    return float((np.linalg.norm(pts - c, axis=1) * w).sum())


@dataclass
class SteinerResult:
    net: MultiplicityNet
    cost: float
    topology: NetTopology
    n_topologies: int
    upper_bound: float
    audit: dict
    #: the terminal charges the net's flows satisfy: spanning charges for size
    charges: tuple
    runner_up: Optional[float] = None


def optimize_steiner(terminals: Sequence[Terminal], *, functional: str = "size",
                     beta: float = 1.0) -> SteinerResult:
    """Best full-topology network over the terminals for the chosen cost.

    Enumerates every full topology (at most ``MAX_TERMINALS`` terminals),
    optimizes interior vertices, merges collapsed junctions, canonicalizes
    flows, and returns the winner; ties break to the lexicographically
    smallest edge list, so results are deterministic.  Charges must balance
    for mass or m_beta costs.  Terminals whose squared distances overflow
    are refused before any topology is solved.
    """
    terminals = list(terminals)
    N = len(terminals)
    if N < 2:
        raise ValueError("need at least two terminals")
    if N > MAX_TERMINALS:
        raise ValueError(f"{N} terminals exceed the exhaustive search limit of {MAX_TERMINALS}")
    n = terminals[0].point.size
    if any(t.point.size != n for t in terminals):
        raise ValueError("terminals must share one ambient dimension")
    if functional in ("mass", "m_beta") and sum(t.charge for t in terminals) != 0:
        raise ValueError("terminal charges must sum to zero")
    if functional == "m_beta":
        _check_beta(beta)
    pts = np.array([t.point for t in terminals])
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = pts[:, None] - pts[None, :]
        finite = np.isfinite((gaps * gaps).sum(axis=2)).all()
    if not finite:
        raise ValueError("the terminals' squared distances are not finite: "
                         "they overflow in floating point")
    if functional == "size":
        # the size problem is the classical connected one: charges play no
        # role, every tree edge counts with weight 1, so use spanning charges
        # whose partial sums never vanish (keeping all tree flows nonzero)
        charges = (1,) * (N - 1) + (-(N - 1),)
    else:
        charges = tuple(t.charge for t in terminals)
    scale = _instance_scale(pts)
    tops = enumerate_topologies(N)
    all_flows = [_tree_flows(topo, charges) for topo in tops]
    weights = [_edge_weights(flows, functional, beta) for flows in all_flows]
    positions = _optimize_interiors(tops, terminals, weights, scale)
    best: Optional[tuple] = None
    runner: Optional[float] = None
    for topo, flows, pos in zip(tops, all_flows, positions):
        net = MultiplicityNet(*_merge_collapsed(pos, topo.edges, flows, N, scale))
        cost = net.cost(functional, beta)
        e_arr = net.edges
        # Weiszfeld converges slowly when a junction degenerates onto a
        # terminal; a coarse merge is accepted whenever it does not cost more
        coarse = MultiplicityNet(*_merge_collapsed(pos, topo.edges, flows, N, scale,
                                                   tol=2e-2 * scale))
        if coarse.edges.shape != e_arr.shape or (coarse.edges != e_arr).any():
            coarse_cost = coarse.cost(functional, beta)
            if coarse_cost <= cost:
                net, cost = coarse, coarse_cost
        key = (cost, tuple(sorted(map(tuple, e_arr.tolist()))))
        if best is None or key < best[0]:
            if best is not None:
                runner = best[1]
            best = (key, cost, net, topo)
        elif runner is None or cost < runner:
            runner = cost
    assert best is not None
    _, cost, net, topo = best
    if not (math.isfinite(cost) and np.isfinite(net.points).all()):
        raise ValueError("the optimized network is not finite: the terminals' "
                         "distances overflow in floating point")
    audit = angle_audit(net, N)
    ub = star_upper_bound(terminals, functional, beta)
    if cost > ub + 1e-9 * max(1.0, ub):
        logger.warning("optimizer exceeded the star upper bound: %.12g > %.12g", cost, ub)
    return SteinerResult(net, cost, topo, len(tops), ub, audit, charges, runner)
