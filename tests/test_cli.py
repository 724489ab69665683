"""End-to-end checks of the command line front end.

Runs subcommands through click's CliRunner. Determinism is asserted the same
way a shell script would: hash the artifact bytes from two runs.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from plateau_lab import cones
from plateau_lab import steiner as steiner_module
from plateau_lab.cli import main
from plateau_lab.geometry import meshio
from plateau_lab.geometry.core import MAX_AMBIENT_DIM
from plateau_lab.geometry.distance import MAX_SAMPLE_POINTS
from plateau_lab.geometry.energy import MAX_SAMPLES
from plateau_lab.steiner import MAX_TERMINALS

from conftest import flat_slice_mesh, square_patch, write_mesh


@pytest.fixture
def runner():
    # click >= 8.2 separates stdout and stderr by default
    return CliRunner()


@pytest.fixture
def square_instance(tmp_path):
    doc = {"terminals": [{"pos": [0.0, 0.0]}, {"pos": [1.0, 0.0]},
                         {"pos": [1.0, 1.0]}, {"pos": [0.0, 1.0]}],
           "objective": "size"}
    p = tmp_path / "square.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def y_mesh(tmp_path):
    p = tmp_path / "y.off"
    write_mesh(str(p), cones.build_cone("y", extent=1.5))
    return str(p)


def summary_of(result):
    assert result.exit_code == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["schema"] == 1
    return doc


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_steiner_square(runner, square_instance, tmp_path):
    out = tmp_path / "sol.json"
    csv = tmp_path / "net.csv"
    r = runner.invoke(main, ["steiner", "--instance", square_instance,
                             "--out", str(out), "--csv", str(csv)])
    doc = summary_of(r)
    assert doc["score"] == pytest.approx(1 + math.sqrt(3), abs=1e-6)
    assert doc["angle_audit"]["ok"]
    sol = json.loads(out.read_text())
    assert len(sol["nodes"]) == 6          # 4 terminals + 2 junctions
    assert csv.exists()


def test_steiner_is_deterministic(runner, square_instance, tmp_path):
    hashes = []
    for run in ("a", "b"):
        out = tmp_path / f"sol_{run}.json"
        r = runner.invoke(main, ["steiner", "--instance", square_instance,
                                 "--seed", "7", "--out", str(out)])
        assert r.exit_code == 0
        hashes.append((sha(out), r.stdout.replace(f"sol_{run}", "sol_X")))
    assert hashes[0] == hashes[1]


def test_missing_input_is_a_config_error(runner, tmp_path):
    out = tmp_path / "never.json"
    r = runner.invoke(main, ["steiner", "--instance", str(tmp_path / "nope.json"),
                             "--out", str(out)])
    assert r.exit_code == 2
    assert not out.exists()        # nothing staged, nothing written


def test_unknown_config_fields_are_all_reported(runner, square_instance, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"functionl": "size", "betta": 2.0}))
    r = runner.invoke(main, ["steiner", "--config", str(conf),
                             "--instance", square_instance])
    assert r.exit_code == 2
    assert "functionl" in r.stderr and "betta" in r.stderr


def test_flag_beats_config(runner, tmp_path):
    # a charged instance works under every functional
    inst = tmp_path / "v.json"
    inst.write_text(json.dumps({
        "terminals": [{"pos": [-0.5, 1.0], "charge": 1},
                      {"pos": [0.5, 1.0], "charge": 1},
                      {"pos": [0.0, 0.0], "charge": -2}],
        "objective": "size"}))
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"functional": "mass"}))
    r = runner.invoke(main, ["steiner", "--config", str(conf),
                             "--instance", str(inst), "--functional", "size"])
    assert summary_of(r)["functional"] == "size"
    # and without the flag the config wins over the instance objective
    r2 = runner.invoke(main, ["steiner", "--config", str(conf),
                              "--instance", str(inst)])
    assert summary_of(r2)["functional"] == "mass"
    from_config = tmp_path / "from_config.csv"
    from_flag = tmp_path / "from_flag.csv"
    conf.write_text(json.dumps({"csv": str(from_config)}))
    r3 = runner.invoke(main, ["steiner", "--config", str(conf),
                              "--instance", str(inst), "--csv", str(from_flag)])
    assert summary_of(r3)["artifacts"] == [str(from_flag)]
    assert from_flag.exists() and not from_config.exists()


def test_config_supplies_a_required_option(runner, square_instance, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"instance": square_instance}))
    by_config = runner.invoke(main, ["steiner", "--config", str(conf)])
    by_flag = runner.invoke(main, ["steiner", "--instance", square_instance])
    summary_of(by_config)
    assert by_config.stdout == by_flag.stdout


def test_config_values_go_through_the_option_types(runner, square_instance, y_mesh, tmp_path):
    """A bad config value is a config error naming its option, as the same
    bad flag is; a good one is converted as the flag would be."""
    conf = tmp_path / "conf.json"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"corner": [-2, -2, -2], "size": 4.0, "N": 2}))
    cases = [(["steiner", "--instance", square_instance], {"seed": "x"}, "seed"),
             (["ff-project", "--grid", str(grid), "--mesh", y_mesh], {"trials": "x"}, "trials"),
             (["classify", "--mesh", y_mesh, "--center", "0,0,0"], {"radius": "abc"}, "radius"),
             (["blowup", "--mesh", y_mesh, "--center", "0,0,0", "--radius", "1",
               "--out", str(tmp_path / "b.off")], {"clip": "maybe"}, "clip")]
    for args, doc, name in cases:
        conf.write_text(json.dumps(doc))
        r = runner.invoke(main, [*args, "--config", str(conf)])
        assert r.exit_code == 2, (name, r.stdout, r.stderr)
        assert r.stderr.startswith(f"config error: {name}:"), r.stderr
    conf.write_text(json.dumps({"center": [0, 0, 0], "radius": "1"}))
    by_config = runner.invoke(main, ["cone-check", "--mesh", y_mesh, "--config", str(conf)])
    by_flag = runner.invoke(main, ["cone-check", "--mesh", y_mesh, "--center", "0,0,0",
                                   "--radius", "1"])
    summary_of(by_config)
    assert by_config.stdout == by_flag.stdout


def test_missing_required_option_is_named(runner, tmp_path):
    r = runner.invoke(main, ["steiner"])
    assert r.exit_code == 2
    assert "'--instance'" in r.stderr
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": 3}))
    r = runner.invoke(main, ["hausdorff", "--config", str(conf), "--mesh-a", "a.off"])
    assert r.exit_code == 2
    assert all(f"'{o}'" in r.stderr for o in ("--mesh-b", "--center", "--radius"))
    assert "--mesh-a" not in r.stderr


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_numbers_are_json_strings():
    """The writer never emits bare Infinity or NaN, from Python floats, numpy
    scalars or arrays, inside tuples too."""
    want = {"a": "inf", "b": "-inf", "c": ["nan"], "d": ["inf", 1.5]}
    for doc in ({"a": np.float64("inf"), "b": float("-inf"), "c": np.array([np.nan]),
                 "d": (math.inf, np.float32(1.5))},
                {"a": math.inf, "b": -math.inf, "c": [np.float64("nan")],
                 "d": np.array([np.inf, 1.5])}):
        raw = meshio.dumps_json(doc)
        assert json.loads(raw, parse_constant=_no_constants) == want


@pytest.mark.parametrize("fail", ["write", "replace"])
def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch, fail):
    target = tmp_path / "out.json"
    if fail == "replace":
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(meshio.os, "replace", refuse)
        with pytest.raises(OSError):
            meshio.atomic_write_text(target, "{}\n")
    else:
        # a lone surrogate cannot be encoded: the write fails after the open
        with pytest.raises(UnicodeEncodeError):
            meshio.atomic_write_text(target, "{\udc80}\n")
    assert list(tmp_path.iterdir()) == []


def test_thread_cap_is_recorded(runner, square_instance):
    r = runner.invoke(main, ["steiner", "--instance", square_instance],
                      env={"PLATEAU_THREADS": "7"})
    assert summary_of(r)["threads"] == 7


def test_bad_thread_cap_fails_before_any_write(runner, tmp_path):
    out = tmp_path / "energy.json"
    r = runner.invoke(main, ["douglas", "--out", str(out)], env={"PLATEAU_THREADS": "x"})
    assert r.exit_code == 2
    assert r.stderr == "config error: PLATEAU_THREADS must be an integer, got 'x'\n"
    assert r.stdout == "" and not out.exists()


def test_density_profile_of_y_cone(runner, y_mesh, tmp_path):
    out = tmp_path / "prof.csv"
    r = runner.invoke(main, ["density", "--mesh", y_mesh, "--center", "0,0,0",
                             "--radii", "0.25,0.5,1.0", "--out", str(out)])
    summary_of(r)
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("r,theta")
    for row in rows[1:]:
        theta = float(row.split(",")[1])
        assert theta == pytest.approx(3 * math.pi / 2, abs=1e-9)


def test_bad_radii_fail_before_any_write(runner, y_mesh, tmp_path):
    out = tmp_path / "prof.csv"
    r = runner.invoke(main, ["density", "--mesh", y_mesh, "--center", "0,0,0",
                             "--radii", "1,abc", "--out", str(out)])
    assert r.exit_code == 2
    assert not out.exists()


def test_cone_check_on_generator(runner, y_mesh):
    r = runner.invoke(main, ["cone-check", "--mesh", y_mesh,
                             "--center", "0,0,0", "--radius", "1.0"])
    doc = summary_of(r)
    assert doc["residual"] <= 1e-9
    assert doc["ok"]


def test_classify_plane_quickly(runner, tmp_path):
    p = tmp_path / "plane.off"
    write_mesh(str(p), cones.plane_cone(extent=1.5))
    r = runner.invoke(main, ["classify", "--mesh", str(p), "--center", "0,0,0",
                             "--radius", "1.0", "--rotations", "64",
                             "--depth", "0.01"])
    doc = summary_of(r)
    assert doc["best"] == "plane"
    assert doc["residual"] <= 0.05


def test_blowup_writes_a_mesh(runner, y_mesh, tmp_path):
    out = tmp_path / "zoom.off"
    r = runner.invoke(main, ["blowup", "--mesh", y_mesh, "--center", "0,0,0",
                             "--radius", "0.5", "--out", str(out)])
    summary_of(r)
    zoomed = meshio.read_mesh(str(out))
    assert zoomed.ambient_dim == 3


def test_blowup_keeps_a_point_segment_inside_the_ball(runner, tmp_path):
    # read_mesh accepts a segment with equal ends; clipping keeps it whole
    mesh, out = tmp_path / "segs.csv", tmp_path / "zoom.csv"
    mesh.write_text("0,0,1,0\n0.5,0.5,0.5,0.5\n")
    r = runner.invoke(main, ["blowup", "--mesh", str(mesh), "--center", "0,0",
                             "--radius", "2", "--out", str(out)])
    assert summary_of(r)["simplices"] == 2
    assert out.read_text().splitlines()[1:] == ["0,0,0.5,0", "0.25,0.25,0.25,0.25"]


def test_hausdorff_of_mesh_with_itself(runner, y_mesh):
    r = runner.invoke(main, ["hausdorff", "--mesh-a", y_mesh, "--mesh-b", y_mesh,
                             "--center", "0,0,0", "--radius", "1.0"])
    assert summary_of(r)["distance"] == pytest.approx(0.0, abs=1e-12)


def test_hausdorff_sampling_cap_fails_fast(runner, y_mesh):
    start = time.perf_counter()
    r = runner.invoke(main, ["hausdorff", "--mesh-a", y_mesh, "--mesh-b", y_mesh,
                             "--center", "0,0,0", "--radius", "1.0", "--spacing", "1e-7"])
    assert time.perf_counter() - start < 5.0
    assert r.exit_code == 1
    assert f"exceeds the cap of {MAX_SAMPLE_POINTS}" in r.stderr


@pytest.mark.parametrize("spacing", ["0", "-0.5", "nan", "inf"])
def test_hausdorff_bad_spacing_with_an_empty_mesh(runner, y_mesh, tmp_path, spacing):
    """An invalid pitch is refused even when one side has nothing to sample."""
    empty = tmp_path / "empty.off"
    empty.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
    r = runner.invoke(main, ["hausdorff", "--mesh-a", y_mesh, "--mesh-b", str(empty),
                             "--center", "0,0,0", "--radius", "1.0", "--spacing", spacing])
    assert r.exit_code == 1
    assert "spacing must be positive and finite" in r.stderr


def test_douglas_circle(runner):
    r = runner.invoke(main, ["douglas", "--samples", "256"])
    assert summary_of(r)["energy"] == pytest.approx(16 * math.pi**2, rel=1e-3)


def test_douglas_sample_cap(runner, tmp_path):
    r = runner.invoke(main, ["douglas", "--samples", str(MAX_SAMPLES + 2)])
    assert r.exit_code == 2
    assert f"at most {MAX_SAMPLES}" in r.stderr
    loop = tmp_path / "loop.csv"
    m = MAX_SAMPLES + 2
    loop.write_text("".join(f"{math.cos(2 * math.pi * i / m)!r},{math.sin(2 * math.pi * i / m)!r}\n"
                            for i in range(m)))
    r = runner.invoke(main, ["douglas", "--loop", str(loop)])
    assert r.exit_code == 1
    assert "exceed the limit" in r.stderr


def test_douglas_column_cap(runner, tmp_path):
    """A loop with more columns than MAX_AMBIENT_DIM fails before the m x m x n array."""
    loop = tmp_path / "wide.csv"
    loop.write_text("".join(",".join([repr(math.cos(i * math.pi / 4)), repr(math.sin(i * math.pi / 4))]
                                     + ["0.0"] * (MAX_AMBIENT_DIM - 1)) + "\n" for i in range(8)))
    r = runner.invoke(main, ["douglas", "--loop", str(loop)])
    assert r.exit_code == 1
    assert f"{MAX_AMBIENT_DIM + 1} columns exceed the limit of {MAX_AMBIENT_DIM}" in r.stderr


def test_steiner_terminal_cap_fails_fast(runner, tmp_path):
    doc = {"terminals": [{"pos": [math.cos(i), math.sin(i)]} for i in range(10)]}
    inst = tmp_path / "ten.json"
    inst.write_text(json.dumps(doc))
    start = time.perf_counter()
    r = runner.invoke(main, ["steiner", "--instance", str(inst)])
    assert time.perf_counter() - start < 1.0
    assert r.exit_code == 1
    assert f"limit of {MAX_TERMINALS}" in r.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_steiner_refuses_a_network_that_overflows(runner, tmp_path):
    """Terminals 1e155 apart square to inf: the run exits 1 instead of
    writing a score of inf with a failed angle audit, and it refuses before
    any float overflows, so numpy warns of nothing."""
    doc = {"terminals": [{"pos": [0.0, 0.0]}, {"pos": [1e155, 0.0]}, {"pos": [0.0, 1e155]}],
           "objective": "size"}
    inst = tmp_path / "far.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / "solution.json"
    r = runner.invoke(main, ["steiner", "--instance", str(inst), "--out", str(out)])
    assert r.exit_code == 1
    assert "not finite" in r.stderr
    assert r.stdout == "" and not out.exists()


def test_steiner_refuses_beta_out_of_range_before_the_solve(runner, tmp_path, monkeypatch):
    doc = {"terminals": [{"pos": [0.0, 0.0], "charge": 2}, {"pos": [1.0, 0.0], "charge": -1},
                         {"pos": [0.0, 1.0], "charge": -1}]}
    inst = tmp_path / "dipole.json"
    inst.write_text(json.dumps(doc))

    batches = []
    solve = steiner_module._optimize_interiors
    monkeypatch.setattr(steiner_module, "_optimize_interiors",
                        lambda *args: batches.append(args) or solve(*args))
    r = runner.invoke(main, ["steiner", "--instance", str(inst),
                             "--functional", "m_beta", "--beta", "2"])
    assert r.exit_code == 1
    assert "beta must be in (0, 1]" in r.stderr
    assert r.stdout == "" and batches == []


def test_minimize_flat_slice(runner, tmp_path):
    p = tmp_path / "flat.off"
    write_mesh(str(p), flat_slice_mesh(level=0.5, n=8))
    report = tmp_path / "report.json"
    r = runner.invoke(main, ["minimize", "--init", str(p), "--levels", "4",
                             "--audit-trials", "200", "--report", str(report)])
    doc = summary_of(r)
    assert doc["final_measure"] == pytest.approx(1.0)
    assert doc["audit_worst_ratio"] <= 1.0
    rep = json.loads(report.read_text())
    assert rep["levels"][0]["source"] == "threshold"
    assert rep["levels"][0]["rounds"] == 0


@pytest.mark.parametrize("manifold", ["box3", "torus3"])
def test_minimize_size_sets_the_domain(runner, tmp_path, manifold):
    """``--size`` scales a box as it scales a torus: a flat 2 x 2 square at
    z = 1 is a level-1 slice of the side-2 domain."""
    p = tmp_path / "square.off"
    write_mesh(str(p), square_patch(side=2.0, z=1.0))
    out = tmp_path / "fs.json"
    r = runner.invoke(main, ["minimize", "--init", str(p), "--manifold", manifold,
                             "--size", "2", "--levels", "2", "--audit-trials", "10",
                             "--out", str(out)])
    summary_of(r)
    doc = json.loads(out.read_text())
    assert doc["grid"]["size"] == 2.0
    assert doc["measure"] == 4.0


@pytest.mark.parametrize("trials", ["-1", "65537"])
def test_audit_trials_are_bounded_before_level_one(runner, tmp_path, monkeypatch, trials):
    from plateau_lab import minimizer
    assert minimizer.MAX_AUDIT_TRIALS == 65536
    calls = []
    monkeypatch.setattr(minimizer, "initialize_from_mesh", lambda *a, **k: calls.append(a))
    p = tmp_path / "flat.off"
    write_mesh(str(p), flat_slice_mesh(level=0.5, n=2))
    r = runner.invoke(main, ["minimize", "--init", str(p), "--levels", "2",
                             "--audit-trials", trials, "--out", str(tmp_path / "fs.json")])
    assert r.exit_code == 1, r.stderr
    assert r.stderr == f"error: audit trials must be in 0..65536, got {trials}\n"
    assert not calls and not (tmp_path / "fs.json").exists()


def test_ff_project_determinism(runner, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"corner": [0, 0, 0], "size": 1.0, "N": 2}))
    mesh = tmp_path / "blob.off"
    rng = np.random.default_rng(3)
    from plateau_lab.geometry.core import EmbeddedMesh
    verts = rng.uniform(0.1, 0.9, size=(9, 3))
    write_mesh(str(mesh), EmbeddedMesh(2, verts, np.arange(9).reshape(3, 3)))
    hashes = []
    for run in ("a", "b"):
        out = tmp_path / f"proj_{run}.off"
        rep = tmp_path / f"rep_{run}.json"
        r = runner.invoke(main, ["ff-project", "--grid", str(grid),
                                 "--mesh", str(mesh), "--seed", "11",
                                 "--out", str(out), "--report", str(rep)])
        assert r.exit_code == 0, r.stderr
        hashes.append((sha(out), sha(rep)))
    assert hashes[0] == hashes[1]


def test_partially_identified_grid_freezes_the_other_walls(runner, tmp_path):
    """On identifications [true, false, true] the walls of axis 1 are frozen:
    a segment inside the y = 0 wall comes back unmoved, and one inside the
    glued x = 0 side is projected onto the edges of its face."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"corner": [0, 0, 0], "size": 1.0, "N": 2,
                                "identifications": [True, False, True]}))
    wall = [[0.125, 0.0, 0.25], [0.375, 0.0, 0.125]]
    side = [[0.0, 0.25, 0.125], [0.0, 0.375, 0.25]]
    mesh, out, rep = tmp_path / "segs.csv", tmp_path / "out.csv", tmp_path / "rep.json"
    mesh.write_text("# segments ambient=3\n" + "".join(
        ",".join(map(str, a + b)) + "\n" for a, b in (wall, side)))
    summary_of(runner.invoke(main, ["ff-project", "--grid", str(grid), "--mesh", str(mesh),
                                    "--out", str(out), "--report", str(rep)]))
    plan = json.loads(rep.read_text())["plan"]
    assert plan["periodic"] is True and plan["freeze_boundary"] is True
    segments = meshio.read_mesh(str(out)).simplex_corners().tolist()
    assert wall in segments and side not in segments
    assert all(any(x in (0.0, 0.5) for x in p[1:]) for s in segments if s != wall for p in s)


@pytest.mark.parametrize("strategy", ["far", "chebyshev"])
def test_locality_holds_beside_the_torus_seam(runner, tmp_path, strategy):
    """Content just below x = 1 on a torus projects across the seam; the
    locality check goes around it and passes."""
    grid = tmp_path / "torus4.json"
    grid.write_text(json.dumps({"corner": [0, 0, 0], "size": 1.0, "N": 4,
                                "identifications": "torus"}))
    rng = np.random.default_rng(0)
    v = rng.uniform(0, 1, (9, 3))
    v[:, 0] = 1 - rng.uniform(0.01, 0.225, 9)
    mesh = tmp_path / "seam.off"
    from plateau_lab.geometry.core import EmbeddedMesh
    write_mesh(str(mesh), EmbeddedMesh(2, v, np.arange(9).reshape(3, 3)))
    doc = summary_of(runner.invoke(main, ["ff-project", "--grid", str(grid), "--mesh", str(mesh),
                                          "--strategy", strategy]))
    assert doc["locality_ok"] is True


@pytest.mark.parametrize("spec,message", [
    ({"corner": [0, 0, 0], "size": 1.0, "N": 100000}, "exceeds the cap"),
    ({"corner": [0] * 7, "size": 1.0, "N": 1}, "dimension 2..6"),
    ({"corner": [0, 0, 0], "size": 1.0, "N": 2, "identifications": [True, False]},
     "identification flags must match"),
    ({"corner": [0, 0, 0], "size": 1.0, "N": 2, "identifications": [False, False]},
     "identification flags must match"),
    ({"corner": [0, 0, 0], "size": 1.0, "N": 2, "identifications": [0, 0, 0]},
     "boolean list"),
])
def test_grid_spec_errors_are_config_errors(runner, tmp_path, spec, message):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(spec))
    mesh = tmp_path / "tri.off"
    write_mesh(str(mesh), flat_slice_mesh(level=0.5, n=2))
    r = runner.invoke(main, ["ff-project", "--grid", str(grid), "--mesh", str(mesh)])
    assert r.exit_code == 2
    assert "config error: grid spec:" in r.stderr and message in r.stderr


@pytest.mark.parametrize("field", ["size", "N"])
def test_grid_spec_booleans_are_not_numbers(runner, tmp_path, field):
    spec = {"corner": [0, 0, 0], "size": 1.0, "N": 2, field: True}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(spec))
    mesh = tmp_path / "tri.off"
    write_mesh(str(mesh), flat_slice_mesh(level=0.5, n=2))
    r = runner.invoke(main, ["ff-project", "--grid", str(grid), "--mesh", str(mesh)])
    assert r.exit_code == 2
    assert r.stderr.startswith("config error: grid spec needs a") and f"'{field}'" in r.stderr


@pytest.mark.parametrize("charge", [2.9, -0.5, "2", True])
def test_terminal_charges_must_be_integers(runner, tmp_path, charge):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"terminals": [
        {"pos": [0.0, 0.0], "charge": charge}, {"pos": [1.0, 0.0], "charge": -1},
        {"pos": [0.0, 1.0], "charge": -1}]}))
    r = runner.invoke(main, ["steiner", "--instance", str(inst), "--out", str(tmp_path / "s.json")])
    assert r.exit_code == 2, r.stderr
    assert r.stderr == f"config error: terminal 0: 'charge' must be an integer, got {charge!r}\n"
    assert not (tmp_path / "s.json").exists()


def test_integral_float_charge_is_that_integer(runner, tmp_path):
    docs = []
    for charge in (2, 2.0):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"terminals": [
            {"pos": [0.0, 0.0], "charge": charge}, {"pos": [1.0, 0.0], "charge": -1},
            {"pos": [0.0, 1.0], "charge": -1}], "objective": "mass"}))
        docs.append(summary_of(runner.invoke(main, ["steiner", "--instance", str(inst)])))
    assert docs[0] == docs[1]


def test_ff_project_report_is_local(runner, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"corner": [0, 0, 0], "size": 1.0, "N": 2}))
    mesh = tmp_path / "blob.off"
    rng = np.random.default_rng(5)
    from plateau_lab.geometry.core import EmbeddedMesh
    verts = rng.uniform(0.1, 0.9, size=(9, 3))
    write_mesh(str(mesh), EmbeddedMesh(2, verts, np.arange(9).reshape(3, 3)))
    rep = tmp_path / "rep.json"
    r = runner.invoke(main, ["ff-project", "--grid", str(grid), "--mesh", str(mesh),
                             "--report", str(rep)])
    summary_of(r)
    doc = json.loads(rep.read_text())
    assert doc["locality_ok"]
    assert doc["measure_in"] > 0
    assert doc["stages"], "per-stage ledger must be present"
    assert doc["per_cell"], "per-cube ledger must be present"


@pytest.mark.parametrize("center,radius", [("0,0,0", "0"), ("0,0,0", "nan"), ("0,0,0", "-1"),
                                           ("0,0,0,0,0,0,0", "1")])
def test_bad_hausdorff_ball_is_a_domain_error(runner, y_mesh, center, radius):
    r = runner.invoke(main, ["hausdorff", "--mesh-a", y_mesh, "--mesh-b", y_mesh,
                             "--center", center, "--radius", radius])
    assert r.exit_code == 1, r.stderr
    assert r.stderr.startswith("error: "), r.stderr


@pytest.mark.parametrize("levels", ["nan", "inf", "4,-inf"])
def test_non_finite_levels_are_config_errors(runner, tmp_path, levels):
    p = tmp_path / "flat.off"
    write_mesh(str(p), flat_slice_mesh(level=0.5, n=2))
    r = runner.invoke(main, ["minimize", "--init", str(p), "--levels", levels])
    assert r.exit_code == 2, r.stderr
    assert "levels must be integers" in r.stderr


def test_douglas_rejects_non_finite_samples(runner, tmp_path):
    out = tmp_path / "energy.json"
    r = runner.invoke(main, ["douglas", "--radius", "nan", "--out", str(out)])
    assert r.exit_code == 1
    assert "samples must be finite" in r.stderr
    assert not out.exists()
    loop = tmp_path / "loop.csv"
    loop.write_text("".join(f"{math.cos(i * math.pi / 4)!r},{math.sin(i * math.pi / 4)!r}\n"
                            for i in range(7)) + "nan,0.0\n")
    r = runner.invoke(main, ["douglas", "--loop", str(loop)])
    assert r.exit_code == 1
    assert "samples must be finite" in r.stderr


def test_rotation_and_trial_caps_fail_fast(runner, y_mesh, tmp_path):
    """One over each cap is refused before the net or the samples are drawn."""
    from plateau_lab.diagnostics import MAX_ROTATIONS
    from plateau_lab.projection import MAX_TRIALS
    r = runner.invoke(main, ["classify", "--mesh", y_mesh, "--center", "0,0,0",
                             "--radius", "1", "--rotations", str(MAX_ROTATIONS + 1)])
    assert r.exit_code == 1
    assert f"rotations must be in 0..{MAX_ROTATIONS}" in r.stderr
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"corner": [-2, -2, -2], "size": 4.0, "N": 2}))
    r = runner.invoke(main, ["ff-project", "--grid", str(grid), "--mesh", y_mesh,
                             "--trials", str(MAX_TRIALS + 1)])
    assert r.exit_code == 1
    assert f"exceed the cap of {MAX_TRIALS}" in r.stderr


@pytest.mark.parametrize("trials", [0, -1])
def test_ff_project_trials_below_one_fail(runner, y_mesh, tmp_path, trials):
    """A trial count below 1 is a domain error, not one silent trial."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"corner": [-2, -2, -2], "size": 4.0, "N": 2}))
    out = tmp_path / "proj.off"
    r = runner.invoke(main, ["ff-project", "--grid", str(grid), "--mesh", y_mesh,
                             "--trials", str(trials), "--out", str(out)])
    assert r.exit_code == 1
    assert f"trials {trials} must be at least 1" in r.stderr
    assert not out.exists()


def _parse_profile(text):
    rows = text.strip().splitlines()
    assert rows[0] == "r,theta,adjusted,F,err"
    return [[float(x) for x in row.split(",")] for row in rows[1:]]


_PARSERS = {".json": lambda path: json.loads(Path(path).read_text()),
            ".off": meshio.read_mesh}


@pytest.mark.parametrize("case", ["ff-collapse", "blowup-no-clip", "density-gauge",
                                  "minimize-box", "steiner-m-beta"])
def test_flags_without_other_coverage(runner, y_mesh, tmp_path, case):
    """Each run exits 0 and writes artifacts that parse."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"corner": [0, 0, 0], "size": 1.0, "N": 2}))
    blob = tmp_path / "blob.off"
    verts = np.random.default_rng(3).uniform(0.1, 0.9, size=(9, 3))
    from plateau_lab.geometry.core import EmbeddedMesh
    write_mesh(str(blob), EmbeddedMesh(2, verts, np.arange(9).reshape(3, 3)))
    flat = tmp_path / "flat.off"
    write_mesh(str(flat), flat_slice_mesh(level=0.5, n=4))
    gauge = tmp_path / "gauge.json"
    gauge.write_text(json.dumps({"scale": 0.5, "exponent": 1.0, "cutoff": 2.0}))
    inst = tmp_path / "charged.json"
    inst.write_text(json.dumps({"terminals": [
        {"pos": [-0.5, 1.0, 0.1], "charge": 1}, {"pos": [0.5, 1.0, 0.0], "charge": 1},
        {"pos": [0.0, 0.0, 0.2], "charge": -1}, {"pos": [0.3, -0.4, 0.0], "charge": -1}]}))
    args, artifacts = {
        "ff-collapse": (["ff-project", "--grid", str(grid), "--mesh", str(blob), "--collapse",
                         "--eta", "0.2", "--out", "proj.off", "--report", "rep.json"],
                        {"proj.off": _PARSERS[".off"], "rep.json": _PARSERS[".json"]}),
        "blowup-no-clip": (["blowup", "--mesh", y_mesh, "--center", "0,0,0", "--radius", "0.5",
                            "--no-clip", "--out", "zoom.off"], {"zoom.off": _PARSERS[".off"]}),
        "density-gauge": (["density", "--mesh", y_mesh, "--center", "0,0,0",
                           "--radii", "0.25,0.5,1.0", "--gauge", str(gauge),
                           "--line-base", "0,0,0", "--line-direction", "0,0,1",
                           "--shade-direction", "1,0,0", "--out", "prof.csv"],
                          {"prof.csv": lambda path: _parse_profile(Path(path).read_text())}),
        "minimize-box": (["minimize", "--init", str(flat), "--manifold", "box3", "--levels", "2,4",
                          "--audit-trials", "50", "--export-prefix", "lvl",
                          "--out", "fs.json", "--report", "mz.json"],
                         {"fs.json": _PARSERS[".json"], "mz.json": _PARSERS[".json"],
                          "lvl_N2.off": _PARSERS[".off"], "lvl_N4.off": _PARSERS[".off"]}),
        "steiner-m-beta": (["steiner", "--instance", str(inst), "--functional", "m_beta",
                            "--beta", "0.5", "--out", "sol.json", "--csv", "net.csv"],
                           {"sol.json": _PARSERS[".json"], "net.csv": meshio.read_mesh}),
    }[case]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    with runner.isolated_filesystem(temp_dir=run_dir):
        r = runner.invoke(main, args)
        doc = summary_of(r)
        assert doc["artifacts"] == sorted(artifacts)
        parsed = {name: parse(name) for name, parse in artifacts.items()}
    if case == "blowup-no-clip":
        assert doc["simplices"] == meshio.read_mesh(y_mesh).n_simplices
        assert parsed["zoom.off"].n_simplices == doc["simplices"]
    elif case == "density-gauge":
        assert doc["sliding"] and len(parsed["prof.csv"]) == 3
    elif case == "steiner-m-beta":
        assert parsed["sol.json"]["functional"] == "m_beta" and parsed["sol.json"]["beta"] == 0.5
    elif case == "ff-collapse":
        assert parsed["rep.json"]["plan"]["eta"] == 0.2


def test_mesh_format_errors_are_config_errors(runner, tmp_path):
    """A mesh that the output format cannot hold exits 2 and writes nothing."""
    seg = tmp_path / "seg.csv"
    seg.write_text("# segments ambient=2\n0.0,0.5,0.5,0.5\n0.5,0.5,1.0,0.5\n")
    prefix = tmp_path / "lv"
    r = runner.invoke(main, ["minimize", "--init", str(seg), "--manifold", "torus2",
                             "--levels", "2", "--audit-trials", "5",
                             "--export-prefix", str(prefix)])
    assert r.exit_code == 2, r.stderr
    assert r.stderr == "config error: OFF export requires a triangle mesh in R^3\n"
    assert list(tmp_path.iterdir()) == [seg]


@pytest.mark.parametrize("case", ["instance", "grid", "terminal", "config"])
def test_non_object_json_inputs_are_config_errors(runner, y_mesh, tmp_path, case):
    """A JSON input of the wrong shape exits 2 and names the input."""
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"terminals": [{"pos": [0.0, 0.0]}, [1, 2]]}))
    args, message = {
        "instance": (["steiner", "--instance", str(bad)], f"instance {bad} must hold a JSON object"),
        "grid": (["ff-project", "--grid", str(bad), "--mesh", y_mesh],
                 f"grid spec {bad} must hold a JSON object"),
        "terminal": (["steiner", "--instance", str(inst)], "terminal 1 must be a JSON object"),
        "config": (["douglas", "--config", str(bad)], f"config {bad} must hold a JSON object"),
    }[case]
    r = runner.invoke(main, [*args, "--out", str(tmp_path / "out.json")])
    assert r.exit_code == 2, r.stderr
    assert r.stderr == f"config error: {message}\n"
    assert r.stdout == "" and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("text", ["OFF\n", "OFF\n3 1 0\n0 0 0\n1 0\n",
                                  "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n"])
def test_truncated_off_is_a_config_error(runner, tmp_path, text):
    mesh = tmp_path / "short.off"
    mesh.write_text(text)
    r = runner.invoke(main, ["density", "--mesh", str(mesh), "--center", "0,0,0",
                             "--radii", "1", "--out", str(tmp_path / "prof.csv")])
    assert r.exit_code == 2, r.stderr
    assert r.stderr.startswith(f"config error: mesh {mesh}: "), r.stderr
    assert list(tmp_path.iterdir()) == [mesh]


def test_unwritable_output_path_writes_nothing(runner, square_instance, tmp_path, monkeypatch):
    """Every path is checked before the first write; a failed write exits 2."""
    out = tmp_path / "sol.json"
    for csv in (tmp_path / "missing" / "net.csv", tmp_path):
        r = runner.invoke(main, ["steiner", "--instance", square_instance,
                                 "--out", str(out), "--csv", str(csv)])
        assert r.exit_code == 2, r.stderr
        assert r.stderr == f"config error: cannot write {csv}\n"
        assert r.stdout == "" and not out.exists()

    def refuse(path, text):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(meshio, "atomic_write_text", refuse)
    r = runner.invoke(main, ["steiner", "--instance", square_instance, "--out", str(out)])
    assert r.exit_code == 2, r.stderr
    assert r.stderr.startswith(f"config error: cannot write {out}: ")
    assert r.stdout == "" and not out.exists()


_GUARDED = {
    "steiner": ("optimize_steiner", ["--instance", "@square.json", "--out", "sol.json",
                                     "--csv", "net.csv"]),
    "ff-project": ("project_to_skeleton", ["--grid", "@grid.json", "--mesh", "@y.off",
                                           "--out", "proj.off", "--report", "rep.json"]),
    "density": ("density_profile", ["--mesh", "@y.off", "--center", "0,0,0", "--radii", "1",
                                    "--out", "prof.csv"]),
    "classify": ("classify_point", ["--mesh", "@y.off", "--center", "0,0,0", "--radius", "1",
                                    "--out", "cls.json"]),
    "cone-check": ("cone_slice_check", ["--mesh", "@y.off", "--center", "0,0,0",
                                        "--radius", "1", "--out", "cc.json"]),
    "blowup": ("blowup_mesh", ["--mesh", "@y.off", "--center", "0,0,0", "--radius", "1",
                               "--out", "zoom.off"]),
    "hausdorff": ("local_hausdorff_distance", ["--mesh-a", "@y.off", "--mesh-b", "@y.off",
                                               "--center", "0,0,0", "--radius", "1",
                                               "--out", "hd.json"]),
    "minimize": ("run_scheme", ["--init", "@flat.off", "--levels", "2", "--out", "fs.json",
                                "--report", "mz.json", "--export-prefix", "lv"]),
    "douglas": ("douglas_energy", ["--out", "energy.json"]),
}


@pytest.mark.parametrize("subcommand", sorted(_GUARDED))
def test_every_subcommand_maps_value_errors_to_exit_1(runner, square_instance, y_mesh,
                                                      tmp_path, monkeypatch, subcommand):
    """A ValueError from any library call is a domain error that writes nothing."""
    import plateau_lab.cli as cli
    call, args = _GUARDED[subcommand]
    assert callable(getattr(cli, call))

    def boom(*args, **kwargs):
        raise ValueError("boom")
    monkeypatch.setattr(cli, call, boom)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"corner": [-2, -2, -2], "size": 4.0, "N": 2}))
    flat = tmp_path / "flat.off"
    write_mesh(str(flat), flat_slice_mesh(level=0.5, n=2))
    inputs = {"@square.json": square_instance, "@grid.json": str(grid),
              "@y.off": y_mesh, "@flat.off": str(flat)}
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    with runner.isolated_filesystem(temp_dir=run_dir) as cwd:
        r = runner.invoke(main, [subcommand, *(inputs.get(a, a) for a in args)])
        assert r.exit_code == 1, r.stderr
        assert r.stderr == "error: boom\n" and r.stdout == ""
        assert list(Path(cwd).iterdir()) == []
