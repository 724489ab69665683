"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines
stream).  Every tolerance is stated inline next to its check.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import plateau_lab
from plateau_lab import cones
from plateau_lab import diagnostics as diag
from plateau_lab import minimizer as mz
from plateau_lab import projection as proj
from plateau_lab.geometry.core import EmbeddedMesh, LineBoundary, refine
from plateau_lab.geometry.energy import circle_samples, douglas_energy
from plateau_lab.grids import DyadicGrid
from plateau_lab.steiner import (Terminal, angle_audit, check_kirchhoff,
                                 optimize_steiner)

from conftest import flat_slice_mesh, rotated, torus, wiggle_mesh, write_mesh


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {label}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _spanning(terminals):
    k = len(terminals)
    return ([Terminal(t.point, 1) for t in terminals[:-1]]
            + [Terminal(terminals[-1].point, -(k - 1))])


# ── 1: Steiner square ──

def test_criterion_01_steiner_square():
    square = [Terminal(np.array(p, dtype=float))
              for p in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    t0 = time.perf_counter()
    result = optimize_steiner(square, functional="size")
    elapsed = time.perf_counter() - t0

    cost_ok = abs(result.cost - (1 + math.sqrt(3.0))) <= 1e-6
    junctions = result.net.points.shape[0] - 4
    aud = angle_audit(result.net, 4)
    checks = {
        "size": cost_ok,
        "junctions=2": junctions == 2 and aud["junctions"] == 2,
        "angles 120deg +-1e-4": aud["ok"] and aud["max_deviation"] <= 1e-4,
        "runtime<5s": elapsed < 5.0,
    }
    _report(1, "square net", all(checks.values()),
            f"cost={result.cost:.9f}, angle dev={aud['max_deviation']:.2e}, "
            f"{elapsed:.2f}s; " + ", ".join(k for k, v in checks.items() if not v))


# ── 2: Steiner triangle + balance audit ──

def test_criterion_02_steiner_triangle():
    tri = [Terminal(np.array(p, dtype=float))
           for p in [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]]
    result = optimize_steiner(tri, functional="size")
    cost_ok = abs(result.cost - math.sqrt(3.0)) <= 1e-6

    balanced = True
    cases = [tri,
             [Terminal(np.array(p, dtype=float))
              for p in [(0, 0), (1, 0), (1, 1), (0, 1)]],
             [Terminal(np.array([-0.5, 1.0]), 1), Terminal(np.array([0.5, 1.0]), 1),
              Terminal(np.array([0.0, 0.0]), -2)]]
    for terms in cases[:2]:
        try:
            check_kirchhoff(optimize_steiner(terms, functional="size").net,
                            _spanning(terms))
        except ValueError:
            balanced = False
    try:
        check_kirchhoff(optimize_steiner(cases[2], functional="mass").net, cases[2])
    except ValueError:
        balanced = False

    _report(2, "triangle net + balance", cost_ok and balanced,
            f"cost={result.cost:.9f}, every emitted net balanced={balanced}")


# ── 3: cone densities and the half-plane profile ──

def test_criterion_03_cone_densities():
    targets = [("plane", math.pi, 1e-6), ("y", 3 * math.pi / 2, 1e-6),
               ("t", 3 * math.acos(-1.0 / 3.0), 1e-3)]
    parts = []
    details = []
    for name, want, tol in targets:
        t0 = time.perf_counter()
        got = diag.density(cones.build_cone(name, extent=1.5), np.zeros(3), 1.0)
        dt = time.perf_counter() - t0
        parts.append(abs(got - want) <= tol and dt < 10.0)
        details.append(f"{name}={got:.6f} ({dt:.2f}s)")

    t0 = time.perf_counter()
    hp = cones.halfplane_cone(extent=64.0)
    x = np.array([1.0, 0.0, 0.0])
    prof = diag.density_profile(hp, x, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    dens = prof["densities"]
    dt = time.perf_counter() - t0
    decreasing = (abs(dens[0] - math.pi) <= 1e-6
                  and all(a >= b - 1e-9 for a, b in zip(dens, dens[1:]))
                  and math.pi / 2 < dens[-1] <= math.pi / 2 + 0.15)
    parts.append(decreasing and dt < 10.0)
    details.append(f"halfplane {dens[0]:.4f}->{dens[-1]:.4f} ({dt:.2f}s)")

    _report(3, "apex densities", all(parts), ", ".join(details))


# ── 4: slice identity on refined generators ──

def test_criterion_04_cone_slice_identity():
    parts, details = [], []
    for name in ("plane", "y", "t"):
        mesh = refine(cones.build_cone(name, extent=1.1), 1e-2)
        rep = diag.cone_slice_check(mesh, np.zeros(3), 1.0, tol=1e-3)
        parts.append(rep["residual"] <= 1e-3)
        details.append(f"{name} residual={rep['residual']:.2e}")
    _report(4, "slice identity at eta=1e-2", all(parts), ", ".join(details))


# ── 5: grid projection battery ──

def _blob(seed: int, n_tri: int = 10) -> EmbeddedMesh:
    r = np.random.default_rng(seed)
    verts = r.uniform(0.08, 0.92, size=(n_tri * 3, 3))
    return EmbeddedMesh(2, verts[np.arange(n_tri * 3).reshape(n_tri, 3)])


def test_criterion_05_ff_projection():
    grid = DyadicGrid(np.zeros(3), 1.0, 2)

    # (a) identity outside the box, bit exact
    far = np.array([[10.0, 10.0, 10.0], [11.0, 10.0, 10.0], [10.0, 11.0, 10.0]])
    mesh = EmbeddedMesh(2, [_blob(1).corners[i] for i in range(10)] + [far])
    res = proj.project_to_skeleton(mesh, grid, strategy="far")
    out_verts = {tuple(v) for chunk in res.outside_chunks for v in chunk}
    a_ok = all(tuple(v) in out_verts for v in far)

    # (b) image inside the skeleton
    b_ok = proj.skeleton_deviation(res, grid) <= 1e-9 * grid.spacing

    # (c) per-cube locality on 100 randomized meshes
    c_ok, worst = True, 0.0
    for seed in range(100):
        r = proj.project_to_skeleton(_blob(seed), grid, strategy="far")
        ok, ratio = proj.verify_cell_locality(r, grid)
        worst = max(worst, ratio)
        c_ok = c_ok and ok

    # (d) diagonal with the pinned center
    diag_mesh = EmbeddedMesh(1, np.array([[0.0, 0.0], [1.0, 1.0]])[np.array([[0, 1]])])
    sq = DyadicGrid(np.zeros(2), 1.0, 1)
    pieces, _, _ = proj.split_into_grid(diag_mesh, sq)
    lo, hi = sq.face_bounds(proj._cube_face(pieces.owner[0]))
    imgs, _, _ = proj._project_batch(pieces.corners, np.zeros(1, dtype=int), np.array([[0.7, 0.3]]),
                                     lo[None], hi[None], [0, 1], sq.spacing)
    diag_len = sum(float(np.linalg.norm(c[1] - c[0])) for c in imgs)
    d_ok = abs(diag_len - 2.0) <= 1e-3

    # (e) second collapse pass drains sparse interiors
    tiny = EmbeddedMesh(2, np.array([[0.30, 0.30, 0.30], [0.38, 0.31, 0.33],
                                     [0.33, 0.39, 0.36]])[np.array([[0, 1, 2]])])
    first = proj.project_to_skeleton(tiny, grid, strategy="far")
    drained = proj.extra_collapse(first, grid)
    e_ok = proj.interior_face_measure(drained, grid) <= 1e-12

    ok = a_ok and b_ok and c_ok and d_ok and e_ok
    _report(5, "grid projection", ok,
            f"outside-exact={a_ok}, containment={b_ok}, locality(100)={c_ok} "
            f"worst={worst:.3f}, diagonal={diag_len:.6f}, drained={e_ok}")


# ── 6: sliding functional on the half-plane ──

def test_criterion_06_sliding_functional():
    hp = cones.halfplane_cone(extent=64.0)
    t = 1.0
    x = np.array([t, 0.0, 0.0])
    ctx = diag.SlidingContext(LineBoundary(np.zeros(3), np.array([0.0, 1.0, 0.0])),
                              np.array([1.0, 0.0, 0.0]))
    ladder = [t / 4, t / 2, t, 2 * t, 4 * t]
    prof = diag.sliding_profile(diag.density_profile(hp, x, ladder), x, ctx)
    const_ok = all(abs(v - math.pi) <= 1e-2 for v in prof["shaded_densities"])

    inner = diag.sliding_profile(diag.density_profile(hp, x, [t / 4, t / 2, 0.99 * t]), x, ctx)
    zero_ok = list(inner["shaded_densities"]) == list(inner["densities"])

    _report(6, "sliding functional", const_ok and zero_ok,
            f"F in [{min(prof['shaded_densities']):.5f}, "
            f"{max(prof['shaded_densities']):.5f}], shade-free inside={zero_ok}")


# ── 7: big projection coverage ──

def _flat_disk(r0: float, r1: float) -> EmbeddedMesh:
    vs, ts = [], []
    rs = np.linspace(r0, r1, 13)
    nth = 48
    for r in rs:
        for k in range(nth):
            a = 2 * math.pi * k / nth
            vs.append((r * math.cos(a), r * math.sin(a), 0.0))
    for i in range(12):
        for k in range(nth):
            a = i * nth + k
            b = i * nth + (k + 1) % nth
            c = (i + 1) * nth + k
            d = (i + 1) * nth + (k + 1) % nth
            ts.append((a, b, d))
            ts.append((a, d, c))
    return EmbeddedMesh(2, np.array(vs)[np.array(ts)])


def test_criterion_07_big_projection():
    tau = 0.25
    disk = _flat_disk(1e-9, 1.3)
    full = diag.big_projection_check(disk, np.zeros(3), 1.0, tau=tau)
    pass_ok = full["ok"] and full["covered_fraction"] == pytest.approx(1.0)

    holed = diag.big_projection_check(_flat_disk(tau / 2, 1.3), np.zeros(3), 1.0,
                                      tau=tau)
    holes = np.asarray(holed["holes"])
    localized = (not holed["ok"] and holed["missing_cells"] > 0
                 and (np.linalg.norm(holes[:, :2], axis=1)
                      <= tau / 2 + holed["pitch"]).all())

    _report(7, "big projection", pass_ok and localized,
            f"disk covered={full['covered_fraction']:.3f}, hole cells="
            f"{holed['missing_cells']} all inside the puncture")


# ── 8: classifier ──

def _rotations(seed: int, count: int):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        out.append(q)
    return out


def test_criterion_08_classifier():
    settings = dict(rotations=128, depth=1e-2)
    parts, details = [], []

    for name in ("plane", "y", "t"):
        rep = diag.classify_point(cones.build_cone(name, extent=1.5),
                                  np.zeros(3), 1.0, **settings)
        best = rep["best"] or {}
        parts.append(best.get("name") == name and best.get("residual", 1.0) <= 0.05)
        details.append(f"{name}->{best.get('name')}@{best.get('residual', 1):.1e}")

    edge_pt = np.asarray(cones.TETRA_DIRECTIONS[0], dtype=float)
    rep = diag.classify_point(cones.t_cone(extent=2.0), edge_pt, 0.45, **settings)
    edge_ok = (rep["best"] or {}).get("name") == "y"
    parts.append(edge_ok)
    details.append(f"t-edge->{(rep['best'] or {}).get('name')}")

    # 20 random rigid motions split across the catalog
    plan = [("plane", 8), ("y", 6), ("t", 6)]
    stable = True
    k = 0
    for name, reps in plan:
        base = cones.build_cone(name, extent=1.5)
        for rot in _rotations(118 + k, reps):
            moved = rotated(base, rot)
            rep = diag.classify_point(moved, np.zeros(3), 1.0, **settings)
            if (rep["best"] or {}).get("name") != name:
                stable = False
        k += 1
    parts.append(stable)
    details.append(f"20-rotation tags stable={stable}")

    _report(8, "cone classifier", all(parts), ", ".join(details))


# ── 9: minimizer ──

def test_criterion_09_minimizer():
    fixed_ok = True
    for n_sub in (4, 8, 16):
        grid = torus(3, n_sub)
        rep = mz.initialize_from_mesh(flat_slice_mesh(level=0.5, n=n_sub), grid)
        res = mz.minimize_faceset(rep.faceset)
        fixed_ok = fixed_ok and (res.final_measure == pytest.approx(1.0)
                                 and not res.log)

    t0 = time.perf_counter()
    scheme = mz.run_scheme(wiggle_mesh(amplitude=0.1, n=32), torus(3, 1),
                           [4, 8, 16], audit_trials=10_000, seed=0)
    elapsed = time.perf_counter() - t0

    finals = [lv.result.final_measure for lv in scheme.levels]
    bounds_ok = all(f <= 1.0 + 8.0 / lv.subdivisions + 1e-9
                    for f, lv in zip(finals, scheme.levels))
    mono_ok = all(a >= b - 1e-12 for a, b in zip(finals, finals[1:]))
    audit_ok = all(lv.audit.improving_trials == 0 and lv.audit.trials == 10_000
                   for lv in scheme.levels)
    time_ok = elapsed < 120.0

    _report(9, "discrete minimizer", fixed_ok and bounds_ok and mono_ok
            and audit_ok and time_ok,
            f"fixed point at N=4,8,16: {fixed_ok}; finals={finals}; "
            f"audits clean at 1e4 trials: {audit_ok}; {elapsed:.1f}s")


# ── 10: loop energy ──

def test_criterion_10_douglas_energy():
    e = douglas_energy(circle_samples(256))
    target = 16 * math.pi**2
    rel = abs(e - target) / target
    _report(10, "circle loop energy", rel <= 1e-3,
            f"E={e:.6f}, 16*pi^2={target:.6f}, rel={rel:.2e}")


# ── 11: determinism ──

def _run_cli(args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PLATEAU_THREADS"}
    # The child must import the package this process imported; a relative
    # PYTHONPATH entry such as ``src`` does not resolve from the per-run cwd.
    root = os.path.dirname(os.path.dirname(os.path.abspath(plateau_lab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "plateau_lab", *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          check=False)


def _hash_dir(root) -> dict:
    out = {}
    for name in sorted(os.listdir(root)):
        p = os.path.join(root, name)
        if os.path.isfile(p):
            out[name] = hashlib.sha256(Path(p).read_bytes()).hexdigest()
    return out


def test_criterion_11_determinism(tmp_path):
    shared = tmp_path / "inputs"
    shared.mkdir()
    (shared / "square.json").write_text(json.dumps(
        {"terminals": [{"pos": [0.0, 0.0]}, {"pos": [1.0, 0.0]},
                       {"pos": [1.0, 1.0]}, {"pos": [0.0, 1.0]}],
         "objective": "size"}))
    (shared / "grid.json").write_text(json.dumps(
        {"corner": [0, 0, 0], "size": 1.0, "N": 2}))
    write_mesh(str(shared / "y.off"), cones.build_cone("y", extent=1.5))
    write_mesh(str(shared / "blob.off"), _blob(3))
    write_mesh(str(shared / "flat.off"), flat_slice_mesh(level=0.5, n=4))

    jobs = {
        "steiner": ["steiner", "--instance", "../inputs/square.json",
                    "--seed", "3", "--out", "sol.json", "--csv", "net.csv"],
        "ff-project": ["ff-project", "--grid", "../inputs/grid.json",
                       "--mesh", "../inputs/blob.off", "--seed", "3",
                       "--out", "proj.off", "--report", "rep.json"],
        "density": ["density", "--mesh", "../inputs/y.off", "--center", "0,0,0",
                    "--radii", "0.25,0.5,1.0", "--out", "prof.csv"],
        "classify": ["classify", "--mesh", "../inputs/y.off", "--center", "0,0,0",
                     "--radius", "1.0", "--rotations", "32", "--depth", "0.05",
                     "--seed", "3", "--out", "cls.json"],
        "cone-check": ["cone-check", "--mesh", "../inputs/y.off",
                       "--center", "0,0,0", "--radius", "1.0", "--out", "cc.json"],
        "blowup": ["blowup", "--mesh", "../inputs/y.off", "--center", "0,0,0",
                   "--radius", "0.5", "--out", "zoom.off"],
        "hausdorff": ["hausdorff", "--mesh-a", "../inputs/y.off",
                      "--mesh-b", "../inputs/y.off", "--center", "0,0,0",
                      "--radius", "1.0", "--out", "hd.json"],
        "minimize": ["minimize", "--init", "../inputs/flat.off", "--levels", "4",
                     "--audit-trials", "200", "--seed", "3",
                     "--out", "fs.json", "--report", "mz.json"],
        "douglas": ["douglas", "--samples", "64", "--out", "energy.json"],
    }

    mismatches = []
    for name, args in jobs.items():
        digests = []
        for attempt in ("one", "two"):
            run_dir = tmp_path / f"{name}-{attempt}"
            run_dir.mkdir()
            r = _run_cli(args, cwd=str(run_dir))
            assert r.returncode == 0, f"{name}: {r.stderr}"
            digests.append((_hash_dir(run_dir), r.stdout))
        if digests[0] != digests[1]:
            mismatches.append(name)

    _report(11, "artifact determinism", not mismatches,
            f"9 subcommands, mismatches={mismatches or 'none'}")
