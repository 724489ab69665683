"""Discrete area minimization over grid facesets.

State is a set of grid d-faces, d = n-1, so it is reduced by construction:
every face carries measure.  Read as a mod-2 chain, a tidy competitor has even
ridge incidence away from the frozen walls, the walls of the axes the grid
does not identify (everywhere, on a torus).  No move touches a frozen wall.
Three deformation moves drive the descent, each realizable as a Lipschitz
deformation supported in the ball it reports:

* free-collapse — remove a d-face with a free ridge (whisker trimming;
  retract from the free side),
* interior-projection / flip — toggle the faceset by the boundary of one
  cell (push the membrane across the cube by a central projection; adding
  a mod-2 boundary, so cycles stay cycles),
* interior-projection / shift — toggle by the boundary of a one-level slab
  of cells over a maximal coplanar component (moves a whole terrace at
  once; single-cell moves stall on staircase plateaus).

Every move changes the measure by an exact integer multiple of s^d.  The
quasiminimality audit returns at once when no move is admissible, as after
every descent that did not stall.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import distance
from .geometry.core import Ball, EmbeddedMesh, ordered_sum
from .grids import CubeFace, DyadicGrid
from .projection import face_groups, project_to_skeleton

logger = logging.getLogger(__name__)

#: audit ball radius, in cell sides
AUDIT_RADIUS_CELLS = 2.0

#: descent rounds before ``minimize_faceset`` stops and reports a stall
MAX_ROUNDS = 100000

#: ball-ladder radii of ``run_scheme``, as fractions of the domain size
LADDER_RADII = (0.25, 0.125)

#: ball-ladder centers of ``run_scheme``, spread over the finest minimizer
LADDER_CENTERS = 8

#: most trials of one ``quasiminimality_audit``; each costs tens of microseconds
MAX_AUDIT_TRIALS = 1 << 16


@dataclass(frozen=True)
class FaceSet:
    """Grid d-faces, d = n-1, each carrying measure s^d."""

    grid: DyadicGrid
    faces: frozenset

    def __post_init__(self):
        d = self.dimension
        for f in self.faces:
            if f.dim != d:
                raise ValueError("faceset faces must have dimension n-1")
            if not self.grid.is_valid(f):
                raise ValueError(f"face {f} is not a face of the grid")
            if self.grid.canonical_face(f) != f:
                raise ValueError("faces must be canonical on identified axes")

    @property
    def dimension(self) -> int:
        return self.grid.ambient_dim - 1

    def measure(self) -> float:
        return len(self.faces) * self.grid.spacing ** self.dimension

    # -- chain structure -------------------------------------------------------

    @cached_property
    def ridges(self) -> dict:
        """Canonical (d-1)-faces -> the faces of the set that hold them.

        A face whose two ridges on an axis wrap onto one (N = 1) is listed
        twice, so a list's length is its ridge's incidence count.
        """
        table: dict[CubeFace, list] = {}
        for f in self.faces:
            for r in self.grid.subfaces(f):
                table.setdefault(self.grid.canonical_face(r), []).append(f)
        return table

    def odd_ridges(self) -> set:
        return {r for r, held in self.ridges.items() if len(held) % 2 == 1}

    def is_relative_cycle(self) -> bool:
        """Even incidence at every ridge off the frozen walls."""
        return bool(self.grid.frozen(self.grid.key_rows(self.odd_ridges())).all())

    @cached_property
    def boxes(self) -> np.ndarray:
        """(S, 2, n): each face's [lo, hi] rows, faces in sorted order."""
        return np.stack(self.grid.bounds(self.grid.key_rows(sorted(self.faces))), axis=1)

    def to_mesh(self) -> EmbeddedMesh:
        """The faces in sorted order, each as a segment or as the two
        triangles [p00, p10, p11] and [p00, p11, p01]."""
        grid, d = self.grid, self.dimension
        if d not in (1, 2):
            raise ValueError("mesh chunks only for 1- and 2-faces")
        lo, hi = self.boxes[:, 0], self.boxes[:, 1]
        corners = [lo, hi]
        if d == 2:
            spans = hi != lo     # the axes each face spans
            first = spans & (np.cumsum(spans, axis=1) == 1)
            corners = [lo, np.where(first, hi, lo), hi, lo, hi, np.where(spans & ~first, hi, lo)]
        return EmbeddedMesh(d, np.stack(corners, axis=1).reshape(-1, d + 1, grid.ambient_dim))

    def with_faces(self, faces: Iterable[CubeFace]) -> "FaceSet":
        return FaceSet(self.grid, frozenset(faces))


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Move:
    kind: str                 # "free-collapse" or "interior-projection"
    variant: str              # "collapse", "flip" or "shift"
    toggles: frozenset        # d-faces whose membership flips
    delta_faces: int          # |after| - |before| over d-faces
    anchor: tuple             # deterministic sort key payload
    ball: Ball                # support of the realizing deformation

    def sort_key(self):
        return (self.delta_faces, self.kind, self.variant, self.anchor)


def _support_ball(grid: DyadicGrid, faces: Iterable[CubeFace]) -> Ball:
    lows, highs = grid.bounds(grid.key_rows(faces))
    lo = lows.min(axis=0)
    hi = highs.max(axis=0)
    center = (lo + hi) / 2.0
    return Ball(center, float(np.linalg.norm(hi - center)) + 1e-12)


def _boundary_toggle(fs: FaceSet, facets: Iterable[CubeFace]):
    """Count the membership flips from toggling the given facet collection."""
    counts: dict[CubeFace, int] = {}
    for f in facets:
        f = fs.grid.canonical_face(f)
        counts[f] = counts.get(f, 0) + 1
    toggles = frozenset(f for f, k in counts.items() if k % 2 == 1)
    delta = sum(-1 if f in fs.faces else 1 for f in toggles)
    return toggles, delta


def _pinned_axis(face: CubeFace) -> int:
    """The one axis a d-face does not span."""
    return next(a for a in range(len(face.lattice)) if not face.spans(a))


def _cell_across(grid: DyadicGrid, face: CubeFace, axis: int, level: int):
    """The cell over ``face`` at index ``level`` on its pinned ``axis``.

    The index wraps on an identified axis; off the grid there is no cell (None).
    """
    lat = list(face.lattice)
    lat[axis] = level
    cell = grid.canonical_face(CubeFace(grid.full_mask, tuple(lat)))
    return cell if grid.is_valid(cell) else None


def collapse_moves(fs: FaceSet) -> list:
    """One move per d-face holding a free ridge off the frozen walls."""
    moves = []
    seen = set()
    for r, held in fs.ridges.items():
        if len(held) != 1 or fs.grid.on_boundary(r):
            continue
        f = held[0]
        if f in seen:
            continue
        seen.add(f)
        moves.append(Move("free-collapse", "collapse", frozenset([f]), -1,
                          (f.axes,) + f.lattice, _support_ball(fs.grid, [f])))
    return moves


def _cell_boundary_move(fs: FaceSet, variant: str, cells: list, anchor: tuple,
                        only_improving: bool) -> list:
    """The move toggling by the boundary of ``cells``, if it is admissible."""
    grid = fs.grid
    toggles, delta = _boundary_toggle(fs, [f for c in cells for f in grid.subfaces(c)])
    if (only_improving and delta >= 0) or not toggles or grid.frozen(grid.key_rows(toggles)).any():
        return []
    return [Move("interior-projection", variant, toggles, delta, anchor,
                 _support_ball(grid, cells))]


def flip_moves(fs: FaceSet, only_improving: bool = True) -> list:
    """Toggle by one cell boundary; improving needs > n present facets."""
    cells, valid = fs.grid.closure_cells(fs.grid.key_rows(fs.faces))
    moves = []
    for cell, _ in face_groups(cells.reshape(-1, cells.shape[2]), valid.reshape(-1)):
        moves += _cell_boundary_move(fs, "flip", [cell], (cell.axes,) + cell.lattice,
                                     only_improving)
    return moves


def _coplanar_components(fs: FaceSet) -> list:
    """Maximal ridge-connected components of d-faces sharing a pinned plane."""
    groups: dict[tuple, list] = {}
    for f in fs.faces:
        a = _pinned_axis(f)
        groups.setdefault((a, f.lattice[a]), []).append(f)
    adjacency: dict[CubeFace, set] = {f: set() for f in fs.faces}
    for held in fs.ridges.values():
        for x in held:
            adjacency[x].update(y for y in held if y != x)
    comps = []
    for (a, p), members in sorted(groups.items()):
        # the fill stays on its plane: a neighbour off it is never in ``todo``
        todo = set(members)
        while todo:
            seed = min(todo)
            comp = {seed}
            todo.discard(seed)
            frontier = [seed]
            while frontier:
                cur = frontier.pop()
                for nb in adjacency[cur]:
                    if nb in todo:
                        todo.discard(nb)
                        comp.add(nb)
                        frontier.append(nb)
            comps.append((a, p, frozenset(comp)))
    return comps


def _slab_cells(grid: DyadicGrid, axis: int, plane: int, direction: int,
                component: frozenset):
    """Cells of the one-level prism on the chosen side of the component."""
    level = plane if direction > 0 else plane - 1
    cells = [_cell_across(grid, f, axis, level) for f in component]
    return None if cells[0] is None else cells


def shift_moves(fs: FaceSet, only_improving: bool = True) -> list:
    """Toggle by the boundary of a component's one-level prism of cells."""
    moves = []
    for a, p, comp in _coplanar_components(fs):
        for direction in (-1, 1):
            cells = _slab_cells(fs.grid, a, p, direction, comp)
            if cells is not None:
                anchor = (a, p, direction, len(comp)) + tuple(sorted(comp))[0].lattice
                moves += _cell_boundary_move(fs, "shift", cells, anchor, only_improving)
    return moves


def admissible_moves(fs: FaceSet, only_improving: bool = True) -> list:
    """Every legal move of the three kinds, deterministically ordered."""
    moves = collapse_moves(fs) + flip_moves(fs, only_improving) + shift_moves(fs, only_improving)
    return sorted(moves, key=Move.sort_key)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

@dataclass
class MinimizeResult:
    faceset: FaceSet
    initial_measure: float
    final_measure: float
    log: list                 # one entry per applied move, in order
    rounds: int


def minimize_faceset(fs: FaceSet) -> MinimizeResult:
    """Descend by improving moves until none remains.

    Each round applies the single best move, ordered by (measure delta,
    kind, face keys), so the descent is fully deterministic.
    """
    log = []
    start = fs.measure()
    rounds = 0
    while rounds < MAX_ROUNDS:
        picks = admissible_moves(fs)
        if not picks:
            break
        move = picks[0]     # admissible_moves sorts by Move.sort_key
        before = fs.measure()
        fs = fs.with_faces(fs.faces ^ move.toggles)
        rounds += 1
        log.append({
            "kind": move.kind, "variant": move.variant,
            "ball_center": [float(x) for x in move.ball.center],
            "ball_radius": float(move.ball.radius),
            "faces": [[f.axes, list(f.lattice)] for f in sorted(move.toggles)],
            "measure_before": before, "measure_after": fs.measure(),
        })
    if rounds >= MAX_ROUNDS:
        logger.warning("minimization stopped at the round cap %d", MAX_ROUNDS)
    return MinimizeResult(fs, start, fs.measure(), log, rounds)


# ---------------------------------------------------------------------------
# initialization from continuous content
# ---------------------------------------------------------------------------

@dataclass
class InitReport:
    faceset: FaceSet
    source: str               # "threshold" or "completion"
    covered_faces: int


def _threshold_faceset(cover: dict, grid: DyadicGrid, threshold: float) -> FaceSet:
    d = grid.ambient_dim - 1
    target = threshold * grid.spacing ** d
    chosen = [f for f, m in cover.items() if f.dim == d and m >= target]
    return FaceSet(grid, frozenset(chosen))


def _completion_faceset(cover: dict, grid: DyadicGrid) -> FaceSet:
    """Dominant-level graph completion of the coverage ledger ``cover``.

    Pick the axis carrying the most projected coverage, choose the best
    level per column (argmax coverage, ties to the lower plane), and emit
    the graph surface: the default-level slice toggled by the boundary of the
    cells between it and each column's level, less the walls of Q that this
    leaves on the other axes.  The result is a cycle by construction, in the
    class of a constant-level slice.
    """
    n = grid.ambient_dim
    N = grid.subdivisions
    per_axis = [0.0] * n
    for f, m in cover.items():
        if f.dim == n - 1:
            per_axis[_pinned_axis(f)] += m
    axis = int(np.argmax(per_axis))
    mask = grid.full_mask & ~(1 << axis)
    levels: dict[tuple, tuple] = {}
    for f, m in cover.items():
        if f.dim != n - 1 or f.axes != mask:
            continue
        col = tuple(x for i, x in enumerate(f.lattice) if i != axis)
        p = f.lattice[axis]
        cur = levels.get(col)
        if cur is None or m > cur[0] + 1e-15 or (abs(m - cur[0]) <= 1e-15 and p < cur[1]):
            levels[col] = (m, p)
    # default level for naked columns: coverage-weighted mode of the others
    if levels:
        tally: dict[int, float] = {}
        for m, p in levels.values():
            tally[p] = tally.get(p, 0.0) + m
        default = max(sorted(tally), key=lambda p: tally[p])
    else:
        default = N // 2
    slice_faces, cells = [], []
    for col in np.ndindex(*([N] * (n - 1))):
        face = CubeFace(mask, col[:axis] + (default,) + col[axis:])
        slice_faces.append(face)
        p = levels.get(col, (0.0, default))[1]
        cells += [_cell_across(grid, face, axis, h) for h in range(min(p, default), max(p, default))]
    graph = FaceSet(grid, frozenset(slice_faces))
    toggles, _ = _boundary_toggle(graph, [f for c in cells for f in grid.subfaces(c)])
    faces = sorted(graph.faces ^ toggles)
    keys = grid.key_rows(faces)
    walls = grid.frozen(keys) & (keys[:, 0] != mask)
    return graph.with_faces(f for f, wall in zip(faces, walls) if not wall)


def initialize_from_mesh(mesh: EmbeddedMesh, grid: DyadicGrid, *,
                         threshold: float = 0.5, strategy: str = "far",
                         seed: int = 0) -> InitReport:
    """Project content onto the skeleton and lift a starting faceset.

    Faces covered beyond ``threshold`` of their area are retained when they
    form a relative cycle; otherwise (the usual case for oscillating graphs,
    whose projections terrace across several levels with torn ridges) the
    dominant-level completion builds a clean graph surface from the same
    coverage table, staying in the class of the input slice.
    """
    if mesh.dimension != grid.ambient_dim - 1:
        raise ValueError("initialization expects codimension-one content")
    cover = project_to_skeleton(mesh, grid, strategy=strategy, seed=seed).content_measure_by_face()
    fs = _threshold_faceset(cover, grid, threshold)
    covered = len(fs.faces)
    if fs.faces and fs.is_relative_cycle():
        return InitReport(fs, "threshold", covered)
    fs2 = _completion_faceset(cover, grid)
    if not fs2.is_relative_cycle():
        logger.warning("completion faceset has %d odd ridges", len(fs2.odd_ridges()))
    return InitReport(fs2, "completion", covered)


# ---------------------------------------------------------------------------
# quasiminimality audit
# ---------------------------------------------------------------------------

@dataclass
class HaircutReport:
    worst_ratio: float        # empirical quasiminimality constant >= 1
    improving_trials: int     # trials whose ball admitted an improving move
    trials: int


def _check_audit_trials(trials: int) -> None:
    if not 0 <= trials <= MAX_AUDIT_TRIALS:
        raise ValueError(f"audit trials must be in 0..{MAX_AUDIT_TRIALS}, got {trials}")


def quasiminimality_audit(fs: FaceSet, trials: int = 1000, seed: int = 0,
                          moves: Optional[list] = None) -> HaircutReport:
    """Hunt for ball-local improvements among the move vocabulary.

    Each trial draws a ball (center uniform over the grid domain, radius
    uniform up to ``AUDIT_RADIUS_CELLS`` cell sides) and applies the
    best improving move whose toggled faces all lie in the closed ball, if
    any.  The trial ratio is (local measure before) / (local measure after);
    the worst ratio over the trials estimates the quasiminimality constant,
    and 1.0 means no test deformation improved anything: the report of an
    empty set, or of one with no admissible move, is returned at once.
    ``moves`` are the improving ``admissible_moves`` of ``fs``, when the
    caller already has them.
    """
    _check_audit_trials(trials)
    if moves is None:
        moves = admissible_moves(fs, only_improving=True)
    if not moves:
        return HaircutReport(1.0, 0, trials)
    grid = fs.grid
    s = grid.spacing
    max_radius = AUDIT_RADIUS_CELLS * s
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xA0D17,)))
    lo_arr, hi_arr = grid.bounds(grid.key_rows(fs.faces))
    # every toggled face of every move, one row each; move i owns the rows
    # from starts[i] to the next start
    move_lo, move_hi = grid.bounds(grid.key_rows(f for m in moves for f in m.toggles))
    starts = np.cumsum([0] + [len(m.toggles) for m in moves[:-1]])
    deltas = np.array([m.delta_faces for m in moves])

    def farthest(center, lo, hi):
        # per-face distance to its farthest point, in the quotient
        return np.sqrt((grid.farthest_offsets(center, lo, hi) ** 2).sum(axis=-1))

    worst = 1.0
    improving = 0
    n = grid.ambient_dim
    for _ in range(trials):
        center = grid.corner + rng.random(n) * grid.size
        r = s + rng.random() * max(max_radius - s, 0.0)
        inside = farthest(center, lo_arr, hi_arr) <= r + 1e-12
        before = int(np.count_nonzero(inside))
        if before == 0:
            continue
        fits = np.logical_and.reduceat(farthest(center, move_lo, move_hi) <= r + 1e-12, starts)
        if not fits.any():
            continue
        improving += 1
        best = before + int(deltas[fits].min())
        worst = max(worst, before / best if best > 0 else math.inf)
    return HaircutReport(worst, improving, trials)


# ---------------------------------------------------------------------------
# refinement scheme
# ---------------------------------------------------------------------------

@dataclass
class SchemeLevel:
    subdivisions: int
    init: InitReport
    result: MinimizeResult
    audit: HaircutReport


@dataclass
class SchemeResult:
    levels: list
    distances: list           # successive-minimizer gaps on the ball ladder


def run_scheme(mesh: EmbeddedMesh, domain: DyadicGrid, subdivision_levels: Sequence[int], *,
               threshold: float = 0.5, strategy: str = "far",
               seed: int = 0, audit_trials: int = 200) -> SchemeResult:
    """Initialize, minimize and audit per grid level.

    Level N subdivides ``domain``'s cube, with its identifications, into N^n
    cells; the domain's own subdivision count is not read.  Successive
    minimizers are compared through normalized local gaps on a fixed ball
    ladder: centers sampled on the finest minimizer, one row per (center,
    radius) scale.
    """
    _check_audit_trials(audit_trials)
    size = domain.size
    levels = []
    for N in subdivision_levels:
        grid = replace(domain, subdivisions=N)
        init = initialize_from_mesh(mesh, grid, threshold=threshold, strategy=strategy,
                                    seed=seed)
        result = minimize_faceset(init.faceset)
        # below the round cap, the descent stopped on an empty move list
        audit = quasiminimality_audit(result.faceset, trials=audit_trials, seed=seed,
                                      moves=[] if result.rounds < MAX_ROUNDS else None)
        levels.append(SchemeLevel(N, init, result, audit))
    # fixed ball ladder: centers on the finest minimizer, shared radii
    distances = []
    if len(levels) >= 2:
        fine = levels[-1].result.faceset
        faces = sorted(fine.faces)
        step = max(1, len(faces) // LADDER_CENTERS)
        centers = [fine.grid.face_center(f) for f in faces[::step][:LADDER_CENTERS]]
        meshes = [lv.result.faceset.to_mesh() for lv in levels]
        # the target side measures to the faces' boxes, whose triangles these are
        boxes = [lv.result.faceset.boxes for lv in levels]
        for (ia, ma), mb in zip(enumerate(meshes), meshes[1:]):
            row = {"coarse": levels[ia].subdivisions,
                   "fine": levels[ia + 1].subdivisions, "gaps": []}
            for r in LADDER_RADII:
                gaps = []
                for c in centers:
                    try:
                        gaps.append(distance.local_hausdorff_distance(
                            ma, mb, Ball(c, r * size), boxes=(boxes[ia], boxes[ia + 1])))
                    except ValueError:
                        continue
                row["gaps"].append({"radius": r * size,
                                    "max": max(gaps) if gaps else math.inf,
                                    "mean": ordered_sum(gaps) / len(gaps) if gaps else math.inf})
            distances.append(row)
    return SchemeResult(levels, distances)
