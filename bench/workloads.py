"""Seeded inputs and job lists for the three benchmark workloads.

Everything here is the benchmark's own code: it imports nothing from
``plateau_lab`` or ``tests/``, so the input bytes depend only on the workload
name and the seed, never on the library version under test.  The program
receives the files written here plus ``--seed``.

Run as a script to write one workload's inputs into a directory::

    python3 bench/workloads.py --workload classify --seed 3 --out DIR
"""
from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

#: why each workload exists (also recorded in BENCHMARK.json)
WHY = {
    "plateau": "ff-project and a two-level minimize on a periodic graph surface: "
               "the only workload where projection and minimizer work; distance is "
               "used as a few large queries, by the minimizer's Hausdorff ladder",
    "classify": "three classify fits and a big-mesh cone-check: distance "
                "dominates as many small queries; clip and OFF read only here",
    "steiner": "three size, mass and m_beta Steiner solves over 15 topologies each; "
               "never touches geometry, so it is the no-change control for "
               "geometry and projection changes",
}

NAMES = tuple(WHY)

#: the Steiner base instances are drawn once from this seed; a run's seed
#: only picks a mirror image of each (see ``build``)
BASE_SEED = 2018
#: Steiner base coordinates lie on this dyadic grid, so 1 - x is exact
STEINER_GRID = 2 ** 12
#: graph surface z = level + A sin 2pi(x+px) sin 2pi(y+py) over QUADS x QUADS quads
GRAPH_QUADS = 8
GRAPH_AMPLITUDE = 0.1
GRAPH_PHASE = (0.1, 0.3)
#: the surface sits on a plane of the N = 4 grid, and quarter-period shifts
#: map that grid onto itself
GRAPH_LEVELS = (0.25, 0.5, 0.75)
#: the Y, T and half-plane cones are built with this extent around radius 1
CONE_EXTENT = 1.5
#: the cone-check mesh is the T cone split until every triangle is <= ETA
CONE_CHECK_ETA = 8e-2
STEINER_TERMINALS = 5
STEINER_INSTANCES = 3
STEINER_CHARGES = (2, 1, -1, -1, -1)
TETRA = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / math.sqrt(3.0)


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = NAMES.index(workload)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _off_text(vertices: np.ndarray, triangles: np.ndarray) -> str:
    lines = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    lines += [" ".join("{:.17g}".format(float(x)) for x in v) for v in vertices]
    lines += ["3 " + " ".join(str(int(i)) for i in t) for t in triangles]
    return "\n".join(lines) + "\n"


def graph_surface(shift=(0, 0), level: float = 0.5, n: int = GRAPH_QUADS):
    """Periodic graph surface over the unit square, moved on the 3-torus.

    ``shift`` rolls the sampled heights by whole lattice steps, which moves
    the surface by ``-shift / n`` on the torus without resampling it.
    """
    u = np.arange(n) / n
    height = GRAPH_AMPLITUDE * np.outer(np.sin(2 * math.pi * (u + GRAPH_PHASE[0])),
                                        np.sin(2 * math.pi * (u + GRAPH_PHASE[1])))
    height = np.pad(np.roll(height, (-shift[0], -shift[1]), axis=(0, 1)),
                    ((0, 1), (0, 1)), mode="wrap")
    x, y = np.meshgrid(np.arange(n + 1) / n, np.arange(n + 1) / n, indexing="ij")
    verts = np.column_stack([x.ravel(), y.ravel(), level + height.ravel()])
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            tris += [(a, b, b + 1), (a, b + 1, a + 1)]
    return verts, np.array(tris)


def y_cone(extent: float = CONE_EXTENT):
    """Three half-planes on the z-axis at 120 degree dihedrals."""
    verts, tris = [], []
    for k in range(3):
        phi = 2.0 * math.pi * k / 3.0
        ux, uy = extent * math.cos(phi), extent * math.sin(phi)
        base = len(verts)
        verts += [[0.0, 0.0, -extent], [ux, uy, -extent],
                  [ux, uy, extent], [0.0, 0.0, extent]]
        tris += [(base, base + 1, base + 2), (base, base + 2, base + 3)]
    return np.array(verts), np.array(tris)


def halfplane_cone(extent: float = CONE_EXTENT):
    """The half-plane x >= 0 of the xy-plane; its edge is the y-axis."""
    verts = np.array([[0.0, -extent, 0.0], [extent, -extent, 0.0],
                      [extent, extent, 0.0], [0.0, extent, 0.0]])
    return verts, np.array([(0, 1, 2), (0, 2, 3)])


def t_cone(extent: float = CONE_EXTENT, eta: float | None = None):
    """T cone over the tetrahedron's edges, each wedge split into a k x k lattice.

    Wedge (u_i, u_j) is the triangle hull(0, c u_i, c u_j) with
    c = sqrt(3) extent; k is the smallest power of two putting every
    sub-triangle's diameter at or below ``eta`` (k = 1 without ``eta``).
    """
    c = math.sqrt(3.0) * extent
    verts, tris = [], []
    for i in range(4):
        for j in range(i + 1, 4):
            b, e = c * TETRA[i], c * TETRA[j]
            diam = max(np.linalg.norm(b), np.linalg.norm(e), np.linalg.norm(b - e))
            k = 1 if eta is None else 2 ** max(0, math.ceil(math.log2(diam / eta)))
            index = {}
            for p in range(k + 1):
                for q in range(k + 1 - p):
                    index[p, q] = len(verts) + len(index)
            lattice = np.array(list(index))
            verts.extend((lattice[:, :1] / k) * b + (lattice[:, 1:] / k) * e)
            for p in range(k):
                for q in range(k - p):
                    tris.append((index[p, q], index[p + 1, q], index[p, q + 1]))
                    if p + q + 1 < k:
                        tris.append((index[p + 1, q], index[p + 1, q + 1], index[p, q + 1]))
    return np.array(verts), np.array(tris)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation from a normalised Gaussian quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def cube_symmetry(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The points under a random symmetry of the unit cube (or square).

    Axis swaps and flips x -> 1 - x; both are exact for dyadic coordinates.
    """
    out = points[:, rng.permutation(points.shape[1])]
    flip = rng.integers(0, 2, points.shape[1]).astype(bool)
    out[:, flip] = 1.0 - out[:, flip]
    return out


def _steiner_instance(points: np.ndarray, charges, objective: str, beta=None) -> str:
    doc = {"terminals": [{"pos": [float(x) for x in p], "charge": int(q)}
                         for p, q in zip(points, charges)],
           "objective": objective}
    if beta is not None:
        doc["beta"] = beta
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def build(workload: str, seed: int) -> tuple[dict, list]:
    """(file name -> text, job list) for one workload and seed.

    A job is ``{"name", "check", "args"}``; ``args`` name inputs as
    ``@file`` and artifacts as bare file names, resolved by the runner.

    A job's cost must not depend on the seed's draw, or the seeds of a
    measurement would spread it.  Hence the classifier fits run the rotation
    net only (``--depth 0.2`` equals the first pattern step, so no descent
    runs: the descent's probe count swings a fit's cost by +-30% from draw
    to draw), the surface is a congruent copy of a fixed one (quarter-period
    shifts on the torus), and the Steiner terminals are exact mirror images
    of fixed base instances in their base order.  Weiszfeld's sweep count
    depends on the draw, on the order of the terminals and even on rounding:
    a relabelling moved one instance's cost by 2x.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    rng = _rng(workload, seed)
    s = str(int(seed))
    files, jobs = {}, []
    if workload == "plateau":
        shift = 2 * rng.integers(0, 4, 2)
        level = GRAPH_LEVELS[rng.integers(len(GRAPH_LEVELS))]
        verts, tris = graph_surface(shift, level)
        files["surface.off"] = _off_text(verts, tris)
        files["torus4.json"] = json.dumps({"corner": [0, 0, 0], "size": 1.0, "N": 4,
                                           "identifications": "torus"}) + "\n"
        jobs.append({"name": "ff-project", "check": "ff-project", "args": [
            "ff-project", "--grid", "@torus4.json", "--mesh", "@surface.off",
            "--strategy", "chebyshev", "--trials", "16", "--seed", s,
            "--out", "projected.off", "--report", "report.json"]})
        jobs.append({"name": "minimize", "check": "minimize", "args": [
            "minimize", "--init", "@surface.off", "--levels", "4,8",
            "--audit-trials", "1000", "--seed", s,
            "--out", "faceset.json", "--report", "levels.json"]})
    elif workload == "classify":
        verts, tris = y_cone()
        files["y_rotated.off"] = _off_text(verts @ random_rotation(rng).T, tris)
        files["t.off"] = _off_text(*t_cone())
        files["halfplane.off"] = _off_text(*halfplane_cone())
        files["t_refined.off"] = _off_text(*t_cone(eta=CONE_CHECK_ETA))
        fit = ["--center", "0,0,0", "--radius", "1", "--rotations", "32",
               "--depth", "0.2", "--seed", s, "--out", "fit.json"]
        jobs.append({"name": "classify-y", "check": "classify", "expect": "y",
                     "args": ["classify", "--mesh", "@y_rotated.off", *fit]})
        jobs.append({"name": "classify-t", "check": "classify", "expect": "t",
                     "args": ["classify", "--mesh", "@t.off", *fit]})
        jobs.append({"name": "classify-halfplane", "check": "classify",
                     "expect": "halfplane",
                     "args": ["classify", "--mesh", "@halfplane.off", *fit,
                              "--line-base", "0,0,0", "--line-direction", "0,1,0",
                              "--shade-direction", "1,0,0"]})
        jobs.append({"name": "cone-check", "check": "cone-check", "args": [
            "cone-check", "--mesh", "@t_refined.off", "--center", "0,0,0",
            "--radius", "1", "--tol", "1e-3", "--seed", s, "--out", "slice.json"]})
    else:
        base = np.random.default_rng(BASE_SEED)
        n = STEINER_TERMINALS
        for k in range(STEINER_INSTANCES):
            for func, dim, charges, beta in (("size", 2, [1] * n, None),
                                             ("mass", 2, STEINER_CHARGES, None),
                                             ("m_beta", 3, STEINER_CHARGES, 0.5)):
                draw = np.round(base.uniform(0.0, 1.0, (n, dim)) * STEINER_GRID)
                points = cube_symmetry(draw / STEINER_GRID, rng)
                name = f"steiner-{func}-{k}"
                files[f"{name}.json"] = _steiner_instance(points, charges, func, beta)
                jobs.append({"name": name, "check": "steiner", "functional": func,
                             "args": ["steiner", "--instance", f"@{name}.json", "--seed", s,
                                      "--out", "solution.json", "--csv", "net.csv"]})
    return files, jobs


def write(workload: str, seed: int, out_dir: Path) -> None:
    """Write the inputs and ``jobs.json`` for one workload into ``out_dir``."""
    files, jobs = build(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    (out_dir / "jobs.json").write_text(json.dumps(
        {"workload": workload, "seed": int(seed), "jobs": jobs}, indent=1) + "\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    a = ap.parse_args()
    write(a.workload, a.seed, a.out)
