"""Command-line front end.

One binary, subcommand style.  Every run prints a ``schema: 1`` summary JSON
to stdout, writes its artifacts atomically after all computation succeeded
(so nonzero exits leave nothing behind), and exits 0 on success, 1 on domain
errors (bad geometry, unsatisfiable constraints), 2 on configuration errors
(unreadable inputs, unknown fields, bad parameter values, unwritable outputs).

A subcommand body maps its option values to ``(artifacts, summary)``; the
``_command`` decorator turns a ``ValueError`` from the body into a domain
error and renders, checks and writes the artifacts.

A ``--config file.json`` may supply any long-option value by name;
explicit command-line flags win over the config file.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from .diagnostics import (SlidingContext, blowup as blowup_mesh, classify_point,
                          cone_slice_check, density_profile, sliding_profile)
from .geometry import meshio
from .geometry.core import Ball, EmbeddedMesh, LineBoundary, measure
from .geometry.distance import local_hausdorff_distance
from .geometry.energy import MAX_SAMPLES, circle_samples, douglas_energy
from .grids import DyadicGrid
from .minimizer import run_scheme
from .projection import extra_collapse, project_to_skeleton, verify_cell_locality
from .steiner import Terminal, check_kirchhoff, optimize_steiner

SCHEMA = 1


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _fail_config(messages) -> None:
    for m in messages:
        click.echo(f"config error: {m}", err=True)
    sys.exit(2)


def _merge_config(ctx: click.Context, values: dict) -> dict:
    """Overlay config-file values under explicitly passed flags.

    Each value is read as the text a flag would carry (a JSON list as its
    comma-joined items) and goes through its option's click type.
    """
    path = values.pop("config", None)
    if path is None:
        return values
    raw = _read_json(path, "config")
    params = {p.name: p for p in ctx.command.params}
    errors = []
    for key, val in raw.items():
        name = key.replace("-", "_")
        if name not in values:
            errors.append(f"unknown field {key!r}")
            continue
        if ctx.get_parameter_source(name) == ParameterSource.COMMANDLINE:
            continue
        if val is not None:
            val = ",".join(map(str, val)) if isinstance(val, list) else str(val)
        try:
            values[name] = params[name].type_cast_value(ctx, val)
        except click.BadParameter as e:
            errors.append(f"{key}: {e.message}")
    if errors:
        _fail_config(errors)
    return values


def _threads() -> int | None:
    raw = os.environ.get("PLATEAU_THREADS")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        _fail_config([f"PLATEAU_THREADS must be an integer, got {raw!r}"])


def _vector(text: str, name: str) -> np.ndarray:
    try:
        arr = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        _fail_config([f"{name} must be a comma-separated number list, got {text!r}"])
    if arr.size == 0:
        _fail_config([f"{name} must not be empty"])
    return arr


def _floats(text, name: str) -> list:
    return [float(x) for x in _vector(text, name)]


def _ints(text, name: str) -> list:
    vals = _floats(text, name)
    if not all(math.isfinite(v) and v.is_integer() for v in vals):
        _fail_config([f"{name} must be integers, got {text!r}"])
    return [int(v) for v in vals]


def _read_mesh(path) -> EmbeddedMesh:
    try:
        return meshio.read_mesh(path)
    except OSError as e:
        _fail_config([f"cannot read mesh {path}: {e}"])
    except ValueError as e:
        _fail_config([f"mesh {path}: {e}"])


def _read_json(path, name: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        _fail_config([f"cannot read {name} {path}: {e}"])
    except json.JSONDecodeError as e:
        _fail_config([f"{name} {path} is not valid JSON: {e}"])
    if not isinstance(doc, dict):
        _fail_config([f"{name} {path} must hold a JSON object"])
    return doc


def _load_grid(path) -> DyadicGrid:
    """Grid spec JSON {corner, size, N, identifications?} -> grid."""
    spec = _read_json(path, "grid spec")
    errors = []
    corner = spec.get("corner")
    size = spec.get("size")
    N = spec.get("N")
    ident = spec.get("identifications")
    if corner is None:
        errors.append("grid spec misses 'corner'")
    if isinstance(size, bool) or not isinstance(size, (int, float)) or size <= 0:
        errors.append("grid spec needs a positive 'size'")
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        errors.append("grid spec needs an integer 'N' >= 1")
    if not (ident is None or ident == "torus"
            or isinstance(ident, list) and all(isinstance(b, bool) for b in ident)):
        errors.append("grid spec: 'identifications' must be 'torus' or a boolean list")
    if errors:
        _fail_config(errors)
    try:
        corner = np.asarray(corner, dtype=float)
        if ident == "torus":
            ident = [True] * corner.size
        return DyadicGrid(corner, float(size), N, ident)
    except (TypeError, ValueError) as e:
        _fail_config([f"grid spec: {e}"])


def _number(value, message: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        _fail_config([f"{message}, got {value!r}"])


def _load_instance(path):
    """Instance JSON {terminals: [{pos, charge}], ...} -> (terminals, spec)."""
    spec = _read_json(path, "instance")
    raw_terms = spec.get("terminals")
    if not isinstance(raw_terms, list) or len(raw_terms) < 2:
        _fail_config(["instance needs a 'terminals' list with at least two entries"])
    terms = []
    errors = []
    for i, t in enumerate(raw_terms):
        if not isinstance(t, dict):
            errors.append(f"terminal {i} must be a JSON object")
            continue
        pos = t.get("pos")
        charge = t.get("charge", 1)
        if pos is None:
            errors.append(f"terminal {i} misses 'pos'")
            continue
        if not (isinstance(charge, int) and not isinstance(charge, bool)
                or isinstance(charge, float) and charge.is_integer()):
            errors.append(f"terminal {i}: 'charge' must be an integer, got {charge!r}")
            continue
        try:
            terms.append(Terminal(np.asarray(pos, dtype=float), charge))
        except (TypeError, ValueError) as e:
            errors.append(f"terminal {i}: {e}")
    if errors:
        _fail_config(errors)
    return terms, spec


def _load_gauge(path):
    try:
        return meshio.gauge_from_dict(_read_json(path, "gauge"))
    except (KeyError, TypeError, ValueError) as e:
        _fail_config([f"gauge: {e}"])


def _manifold(name: str) -> tuple[bool, int]:
    """'torus<n>' or 'box<n>' -> (every axis identified, n)."""
    torus = name.startswith("torus")
    if not (torus or name.startswith("box")):
        _fail_config([f"manifold must be torus<n> or box<n>, got {name!r}"])
    try:
        return torus, int(name.removeprefix("torus").removeprefix("box"))
    except ValueError:
        _fail_config([f"manifold must end in its dimension, got {name!r}"])


def _read_loop(path) -> np.ndarray:
    """Loop samples from a CSV with one point per row."""
    try:
        rows = Path(path).read_text().strip().splitlines()
    except OSError as e:
        _fail_config([f"cannot read loop {path}: {e}"])
    try:
        return np.array([[float(x) for x in row.split(",")] for row in rows if row.strip()])
    except ValueError:
        _fail_config([f"loop {path} must be numeric CSV rows"])


def _writable(path) -> bool:
    p = Path(path)
    return (p.parent.is_dir() and os.access(p.parent, os.W_OK | os.X_OK)
            and not p.is_dir())


def _render(path, payload) -> str:
    """Artifact text: a string as is, a mesh in its path's format, else JSON."""
    if isinstance(payload, str):
        return payload
    if isinstance(payload, EmbeddedMesh):
        return meshio.mesh_text(path, payload)
    return meshio.dumps_json(payload)


def _emit(artifacts: list, summary: dict) -> None:
    """Write every ``(path, payload)`` whose path is set, then print the summary.

    Nothing is rendered for an unset path.  Every path is checked before the
    first write, and every payload rendered, so a bad path or a mesh that its
    format cannot hold exits 2 with nothing written.
    """
    artifacts = [(path, payload) for path, payload in artifacts if path]
    unwritable = [f"cannot write {path}" for path, _ in artifacts if not _writable(path)]
    if unwritable:
        _fail_config(unwritable)
    try:
        texts = [(path, _render(path, payload)) for path, payload in artifacts]
    except ValueError as e:
        _fail_config([str(e)])
    for path, text in texts:
        try:
            meshio.atomic_write_text(path, text)
        except OSError as e:
            _fail_config([f"cannot write {path}: {e}"])
    summary["artifacts"] = sorted(str(p) for p, _ in artifacts)
    click.echo(meshio.dumps_json(summary))


def _face_key_list(faces) -> list:
    return [[f.axes, list(f.lattice)] for f in sorted(faces)]


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(package_name="plateau-lab", prog_name="plateau-lab")
def main() -> None:
    """Desk-scale lab for grid deformations, nets and minimal-set probes."""


_config_opt = click.option("--config", type=click.Path(), default=None,
                           help="JSON file supplying option values by name.")
_seed_opt = click.option("--seed", type=int, default=0, show_default=True,
                         help="Seed for every randomized choice.")


def _command(name: str | None = None):
    """Register a subcommand with ``--config`` and ``--seed`` in front.

    The body receives one dict keyed by click's parameter names, with the
    config file merged under the flags given on the command line.  Required
    options are checked after the merge, so the config may supply them.  It
    returns ``(artifacts, summary)``: ``(path, payload)`` pairs for ``_emit``
    and the run's own summary fields.
    """
    def register(fn):
        @functools.wraps(fn)
        def callback(**params):
            vals = _merge_config(click.get_current_context(), params)
            missing = [f"missing option '{p.opts[0]}'" for p in required
                       if vals[p.name] is None]
            if missing:
                _fail_config(missing)
            header = {"schema": SCHEMA, "threads": _threads(),
                      "subcommand": cmd.name, "seed": vals["seed"]}
            try:
                artifacts, summary = fn(vals)
            except ValueError as e:
                click.echo(f"error: {e}", err=True)
                sys.exit(1)
            _emit(artifacts, {**header, **summary})
        cmd = main.command(name)(_config_opt(_seed_opt(callback)))
        required = [p for p in cmd.params if p.required]
        for p in required:
            p.required = False
            # the mark click prints for a required option
            p.help = f"{p.help}  [required]" if p.help else "[required]"
        return cmd
    return register


# ---------------------------------------------------------------------------
# steiner
# ---------------------------------------------------------------------------

@_command()
@click.option("--instance", type=click.Path(), required=True,
              help="Instance JSON {terminals: [{pos, charge}], objective, beta}.")
@click.option("--functional", type=click.Choice(["size", "mass", "m_beta"]),
              default=None, help="Override the instance objective.")
@click.option("--beta", type=float, default=None, help="Exponent for m_beta.")
@click.option("--out", type=click.Path(), default=None,
              help="Solution JSON path.")
@click.option("--csv", type=click.Path(), default=None,
              help="Optional CSV polyline export of the optimal net.")
def steiner(vals):
    """Optimal Steiner/charge-flow net over an instance's terminals."""
    terms, spec = _load_instance(vals["instance"])
    func = vals["functional"] or spec.get("objective", "size")
    if func not in ("size", "mass", "m_beta"):
        _fail_config([f"unknown objective {func!r}"])
    b = vals["beta"]
    if b is None:
        b = _number(spec.get("beta", 1.0), "instance 'beta' must be a number")
    result = optimize_steiner(terms, functional=func, beta=b)
    check_kirchhoff(result.net, [Terminal(t.point, q) for t, q in zip(terms, result.charges)])
    net = result.net
    solution = {
        "nodes": [[float(x) for x in p] for p in net.points],
        "edges": [[int(a), int(b2)] for a, b2 in net.edges],
        "flows": [int(f) for f in net.flows],
        "multiplicities": [int(m) for m in net.multiplicities],
        "score": result.cost,
        "functional": func, "beta": b,
        "n_topologies": result.n_topologies,
        "upper_bound": result.upper_bound,
        "runner_up": result.runner_up,
        "angle_audit": result.audit,
    }
    # the net is CSV whatever the path's suffix
    csv = vals["csv"] and meshio.mesh_to_segment_csv(net.as_segments_mesh())
    return [(vals["out"], solution), (vals["csv"], csv)], {
        "score": result.cost, "functional": func,
        "n_topologies": result.n_topologies, "angle_audit": result.audit}


# ---------------------------------------------------------------------------
# ff-project
# ---------------------------------------------------------------------------

@_command("ff-project")
@click.option("--grid", type=click.Path(), required=True,
              help="Grid spec JSON {corner, size, N, identifications?}.")
@click.option("--mesh", type=click.Path(), required=True)
@click.option("--strategy", type=click.Choice(["far", "chebyshev"]),
              default="chebyshev", show_default=True)
@click.option("--trials", type=int, default=32, show_default=True)
@click.option("--eta", default="auto", show_default=True,
              help="Refinement pitch; 'auto' refines nothing.")
@click.option("--collapse", is_flag=True, default=False,
              help="Attempt the final collapse onto the (d-1)-skeleton.")
@click.option("--out", type=click.Path(), default=None, help="Projected mesh path.")
@click.option("--report", type=click.Path(), default=None,
              help="Projection report JSON path.")
def ff_project(vals):
    """Push mesh content onto the grid's d-skeleton with measure ledgers."""
    grid = _load_grid(vals["grid"])
    mesh = _read_mesh(vals["mesh"])
    eta_val = None
    if vals["eta"] not in (None, "auto"):
        eta_val = _number(vals["eta"], "eta must be a number or 'auto'")
    result = project_to_skeleton(mesh, grid, eta=eta_val, strategy=vals["strategy"],
                                 trials=vals["trials"], seed=vals["seed"])
    if vals["collapse"]:
        result = extra_collapse(result, grid)
    locality_ok, locality_slack = verify_cell_locality(result, grid)
    report = {
        "measure_in": result.measure_in,
        "measure_out": result.measure_out,
        "error_bound": 0.0,     # the perspectivity map is exact
        "plan": result.plan,
        "stages": [{"dim": st.dim, "measure_in": st.measure_in,
                    "measure_out": st.measure_out,
                    "faces": len(st.faces)} for st in result.stages],
        "per_cell": [{"cell": [c.axes, list(c.lattice)], **rec}
                     for c, rec in sorted(result.per_cell.items())],
        "locality_ok": locality_ok,
        "collapse": {"applied": result.collapse_applied,
                     "report": result.collapse_report},
    }
    return [(vals["out"], result.mesh), (vals["report"], report)], {
        "measure_in": result.measure_in, "measure_out": result.measure_out,
        "stages": len(result.stages), "collapse_applied": result.collapse_applied,
        "locality_ok": locality_ok}


# ---------------------------------------------------------------------------
# density / classify / cone-check / blowup
# ---------------------------------------------------------------------------

def _context_options(fn):
    fn = click.option("--line-base", default=None,
                      help="Sliding-boundary line base point (comma list).")(fn)
    fn = click.option("--line-direction", default=None,
                      help="Sliding-boundary line direction (comma list).")(fn)
    fn = click.option("--shade-direction", default=None,
                      help="Shade direction orthogonal to the line.")(fn)
    return fn


def _build_context(vals) -> SlidingContext | None:
    parts = [vals.get("line_base"), vals.get("line_direction"),
             vals.get("shade_direction")]
    if all(p is None for p in parts):
        return None
    if any(p is None for p in parts):
        _fail_config(["line-base, line-direction and shade-direction "
                      "must be given together"])
    try:
        line = LineBoundary(_vector(parts[0], "line-base"),
                            _vector(parts[1], "line-direction"))
        return SlidingContext(line, _vector(parts[2], "shade-direction"))
    except ValueError as e:
        _fail_config([str(e)])


@_command()
@click.option("--mesh", type=click.Path(), required=True)
@click.option("--center", required=True, help="Ball center (comma list).")
@click.option("--radii", required=True, help="Radius ladder (comma list).")
@click.option("--gauge", type=click.Path(), default=None,
              help="Gauge JSON {scale, exponent, cutoff}.")
@_context_options
@click.option("--out", type=click.Path(), default=None,
              help="CSV profile path (r,theta,adjusted,F,err).")
def density(vals):
    """Density profile over a radius ladder, optionally gauge-adjusted."""
    mesh = _read_mesh(vals["mesh"])
    c = _vector(vals["center"], "center")
    rs = _floats(vals["radii"], "radii")
    gauge = _load_gauge(vals["gauge"]) if vals["gauge"] else None
    context = _build_context(vals)
    prof = density_profile(mesh, c, rs, gauge=gauge)
    slid = sliding_profile(prof, c, context, gauge=gauge) if context else None
    f_col = slid["shaded_densities"] if slid else prof["densities"]
    table = vals["out"] and "r,theta,adjusted,F,err\n" + "".join(
        ",".join(meshio.fmt_float(x) for x in (*row, 0.0)) + "\n"
        for row in zip(prof["radii"], prof["densities"], prof["adjusted"], f_col))
    return [(vals["out"], table)], {
        "densities": prof["densities"], "flat": prof["flat"],
        "spread": prof["spread"], "low_density": prof["low_density"],
        "sliding": slid is not None}


@_command()
@click.option("--mesh", type=click.Path(), required=True)
@click.option("--center", required=True)
@click.option("--radius", type=float, required=True)
@click.option("--rotations", type=int, default=512, show_default=True)
@click.option("--depth", type=float, default=1e-4, show_default=True)
@_context_options
@click.option("--out", type=click.Path(), default=None,
              help="Classification report JSON path.")
def classify(vals):
    """Match the ball around a point against the cone catalog."""
    mesh = _read_mesh(vals["mesh"])
    context = _build_context(vals)
    report = classify_point(mesh, _vector(vals["center"], "center"), vals["radius"],
                            context=context, seed=vals["seed"],
                            rotations=vals["rotations"], depth=vals["depth"])
    best = report.get("best") or {}
    return [(vals["out"], report)], {
        "density": report["density"], "ok": report["ok"],
        "best": best.get("name"), "residual": best.get("residual")}


@_command("cone-check")
@click.option("--mesh", type=click.Path(), required=True)
@click.option("--center", required=True)
@click.option("--radius", type=float, required=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cone_check(vals):
    """Ball-versus-sphere-slice identity residual at one point."""
    mesh = _read_mesh(vals["mesh"])
    rep = cone_slice_check(mesh, _vector(vals["center"], "center"),
                           vals["radius"], tol=vals["tol"])
    return [(vals["out"], rep)], rep


@_command()
@click.option("--mesh", type=click.Path(), required=True)
@click.option("--center", required=True)
@click.option("--radius", type=float, required=True)
@click.option("--clip/--no-clip", default=True, show_default=True,
              help="Restrict to the unit ball after rescaling.")
@click.option("--out", type=click.Path(), required=True,
              help="Rescaled mesh path.")
def blowup(vals):
    """Recenter and rescale a ball to unit size (one blow-up step)."""
    mesh = _read_mesh(vals["mesh"])
    small = blowup_mesh(mesh, _vector(vals["center"], "center"), vals["radius"],
                        clip=vals["clip"])
    return [(vals["out"], small)], {"measure": measure(small),
                                    "simplices": small.n_simplices}


# ---------------------------------------------------------------------------
# hausdorff / minimize / douglas
# ---------------------------------------------------------------------------

@_command()
@click.option("--mesh-a", type=click.Path(), required=True)
@click.option("--mesh-b", type=click.Path(), required=True)
@click.option("--center", required=True)
@click.option("--radius", type=float, required=True)
@click.option("--spacing", type=float, default=None,
              help="Sample pitch; default radius/64.")
@click.option("--out", type=click.Path(), default=None)
def hausdorff(vals):
    """Normalized two-sided local gap between two meshes on a ball."""
    ma = _read_mesh(vals["mesh_a"])
    mb = _read_mesh(vals["mesh_b"])
    ball = Ball(_vector(vals["center"], "center"), vals["radius"])
    dist = local_hausdorff_distance(ma, mb, ball, spacing=vals["spacing"])
    rep = {"distance": dist, "radius": vals["radius"],
           "center": [float(x) for x in ball.center]}
    return [(vals["out"], rep)], rep


@_command()
@click.option("--manifold", default="torus3", show_default=True,
              help="torus<n> for a periodic grid, box<n> for frozen walls.")
@click.option("--init", type=click.Path(), required=True,
              help="Initial content mesh.")
@click.option("--levels", default="4,8,16", show_default=True,
              help="Grid subdivision ladder.")
@click.option("--threshold", type=float, default=0.5, show_default=True,
              help="Face retention fraction at initialization.")
@click.option("--strategy", type=click.Choice(["far", "chebyshev"]),
              default="far", show_default=True)
@click.option("--size", type=float, default=1.0, show_default=True,
              help="Domain side length.")
@click.option("--audit-trials", type=int, default=1000, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Final faceset JSON path.")
@click.option("--report", type=click.Path(), default=None,
              help="Per-level report JSON path.")
@click.option("--export-prefix", type=click.Path(), default=None,
              help="Write each level's minimizer to PREFIX_N<k>.off.")
def minimize(vals):
    """Discrete Plateau descent over a ladder of grid refinements."""
    mesh = _read_mesh(vals["init"])
    torus, dim = _manifold(vals["manifold"])
    if mesh.ambient_dim != dim:
        _fail_config([f"mesh is {mesh.ambient_dim}-dimensional but manifold "
                      f"asks for {dim}"])
    level_list = _ints(vals["levels"], "levels")
    if any(n < 1 for n in level_list):
        _fail_config(["levels must be positive"])
    domain = DyadicGrid(np.zeros(dim), vals["size"], 1, (torus,) * dim)
    scheme = run_scheme(mesh, domain, level_list,
                        threshold=vals["threshold"], strategy=vals["strategy"],
                        seed=vals["seed"], audit_trials=vals["audit_trials"])
    last = scheme.levels[-1]
    fs = last.result.faceset
    final_doc = {
        "grid": {"corner": [float(x) for x in fs.grid.corner],
                 "size": fs.grid.size, "N": fs.grid.subdivisions,
                 "identifications": "torus" if torus else None},
        "faces": _face_key_list(fs.faces),
        "measure": fs.measure(),
    }
    report = {"levels": [], "distances": scheme.distances}
    for lv in scheme.levels:
        report["levels"].append({
            "N": lv.subdivisions,
            "source": lv.init.source,
            "covered_faces": lv.init.covered_faces,
            "initial_measure": lv.result.initial_measure,
            "final_measure": lv.result.final_measure,
            "rounds": lv.result.rounds,
            "moves": lv.result.log,
            "audit": {"worst_ratio": lv.audit.worst_ratio,
                      "improving_trials": lv.audit.improving_trials,
                      "trials": lv.audit.trials},
        })
    exports = [(f"{vals['export_prefix']}_N{lv.subdivisions}.off",
                lv.result.faceset.to_mesh())
               for lv in scheme.levels] if vals["export_prefix"] else []
    return [(vals["out"], final_doc), (vals["report"], report), *exports], {
        "levels": [lv.subdivisions for lv in scheme.levels],
        "measures": [lv.result.final_measure for lv in scheme.levels],
        "final_measure": last.result.final_measure,
        "audit_worst_ratio": last.audit.worst_ratio}


@_command()
@click.option("--samples", type=int, default=256, show_default=True,
              help="Sample count for the generated circle.")
@click.option("--radius", type=float, default=1.0, show_default=True)
@click.option("--loop", type=click.Path(), default=None,
              help="CSV of loop samples (one point per row) instead.")
@click.option("--out", type=click.Path(), default=None)
def douglas(vals):
    """Boundary-parametrization energy of a loop (circle by default)."""
    if vals["loop"]:
        pts, label = _read_loop(vals["loop"]), vals["loop"]
    else:
        if vals["samples"] < 8:
            _fail_config(["need at least 8 samples"])
        if vals["samples"] > MAX_SAMPLES:
            _fail_config([f"samples must be at most {MAX_SAMPLES}"])
        pts = circle_samples(vals["samples"], vals["radius"])
        label = "circle"
    rep = {"energy": douglas_energy(pts), "samples": int(pts.shape[0]), "loop": label}
    return [(vals["out"], rep)], rep


if __name__ == "__main__":
    main()
