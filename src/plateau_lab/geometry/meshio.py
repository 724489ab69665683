"""Mesh and value-type serialization.

Triangle meshes (d=2, n=3) round-trip through OFF and OBJ; segment meshes
(d=1, any ambient) through a one-segment-per-row CSV.  JSON payloads are
emitted by a tiny deterministic writer: sorted keys, floats at 17 significant
digits, so identical values produce identical bytes; non-finite floats become
the strings "inf", "-inf" and "nan", so the output is strict JSON.
"""

from __future__ import annotations

import io
import math
import os
import re
import tempfile
from pathlib import Path
from typing import Union

import numpy as np

from .core import EmbeddedMesh, Gauge

PathLike = Union[str, os.PathLike]


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form (round-trips any float64)."""
    if isinstance(x, float) and math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "{:.17g}".format(float(x))


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def dumps_json(obj) -> str:
    """Serialize dict/list/str/num/bool/None with sorted keys, 17g floats and
    a two-space indent."""
    buf = io.StringIO()

    def emit(o, depth):
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if isinstance(o, dict):
            if not o:
                buf.write("{}")
                return
            buf.write("{\n")
            items = sorted(o.items(), key=lambda kv: kv[0])
            for i, (k, v) in enumerate(items):
                if not isinstance(k, str):
                    raise TypeError("JSON object keys must be strings")
                buf.write(pad_in + '"' + _escape(k) + '": ')
                emit(v, depth + 1)
                buf.write(",\n" if i < len(items) - 1 else "\n")
            buf.write(pad + "}")
        elif isinstance(o, (list, tuple, np.ndarray)):
            seq = list(o.tolist()) if isinstance(o, np.ndarray) else list(o)
            if not seq:
                buf.write("[]")
                return
            buf.write("[\n")
            for i, v in enumerate(seq):
                buf.write(pad_in)
                emit(v, depth + 1)
                buf.write(",\n" if i < len(seq) - 1 else "\n")
            buf.write(pad + "]")
        elif isinstance(o, bool) or o is None:
            buf.write("true" if o is True else "false" if o is False else "null")
        elif isinstance(o, (int, np.integer)):
            buf.write(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            v = float(o)
            if math.isfinite(v):
                buf.write(fmt_float(v))
            else:
                buf.write('"' + str(v) + '"')
        elif isinstance(o, str):
            buf.write('"' + _escape(o) + '"')
        else:
            raise TypeError(f"cannot serialize {type(o)!r}")

    emit(obj, 0)
    buf.write("\n")
    return buf.getvalue()


def _escape(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
             .replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r"))


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write via a uniquely named temp file in the same directory plus rename.

    Concurrent writers never share a temp file, and a failed write leaves
    none behind.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            # mkstemp creates 0600; give the file the mode open() would
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# triangle meshes: OFF / OBJ
# ---------------------------------------------------------------------------

def _vertex_table(corners: np.ndarray) -> tuple:
    """(vertices, simplices) of (S, d+1, n) corners: corners with equal bytes
    become one vertex (so -0.0 and 0.0 stay apart), numbered in order of
    first appearance."""
    rows = np.ascontiguousarray(corners.reshape(-1, corners.shape[-1]))
    if not len(rows):
        return rows, np.zeros(corners.shape[:-1], dtype=np.int64)
    # rows compare by their int64 words, which are their bytes; the sort is
    # stable, so each run of equal rows starts at its first appearance
    words = rows.view(np.int64)
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    starts = np.concatenate([[True], np.any(ranked[1:] != ranked[:-1], axis=1)])
    first = np.zeros(len(rows), dtype=bool)
    first[order[starts]] = True
    # a first appearance's vertex number counts the first appearances before it
    number = np.cumsum(first) - 1
    index = np.empty_like(order)
    index[order] = number[order[starts]][np.cumsum(starts) - 1]
    return rows[first], index.reshape(corners.shape[:-1])


def _indexed_triangles(verts: np.ndarray, faces: list) -> EmbeddedMesh:
    """The triangles of a file's vertex list and face rows, checked as
    outside input: every vertex finite, used or not, and every index in
    range."""
    faces = np.asarray(faces, dtype=np.int64).reshape(len(faces), 3)
    if verts.size and not np.all(np.isfinite(verts)):
        raise ValueError("vertex coordinates must be finite")
    if faces.size and (faces.min() < 0 or faces.max() >= verts.shape[0]):
        raise ValueError("simplex index out of range")
    return EmbeddedMesh(2, verts[faces], allow_degenerate=True)


def mesh_to_off(mesh: EmbeddedMesh) -> str:
    if mesh.dimension != 2 or mesh.ambient_dim != 3:
        raise ValueError("OFF export requires a triangle mesh in R^3")
    verts, simplices = _vertex_table(mesh.corners)
    lines = ["OFF", f"{verts.shape[0]} {mesh.n_simplices} 0"]
    for v in verts:
        lines.append(" ".join(fmt_float(x) for x in v))
    for s in simplices:
        lines.append("3 " + " ".join(str(int(i)) for i in s))
    return "\n".join(lines) + "\n"


#: a comment runs from '#' to the end of its line, as ``str.splitlines`` ends lines
_OFF_COMMENT = re.compile(r"#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def mesh_from_off(text: str) -> EmbeddedMesh:
    tokens = _OFF_COMMENT.sub("", text).split()
    if not tokens or tokens[0].upper() != "OFF":
        raise ValueError("not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
    except IndexError:
        raise ValueError("OFF file ends before its declared vertices and faces") from None
    if nv < 0 or nf < 0:
        raise ValueError(f"OFF vertex and face counts must not be negative, got {nv} and {nf}")
    verts = np.array(list(map(float, tokens[4:4 + 3 * nv])), dtype=float)
    block = np.array(list(map(int, tokens[4 + 3 * nv:4 + 3 * nv + 4 * nf])), dtype=np.int64)
    del tokens
    if np.any(block[::4] != 3):
        raise ValueError("only triangle faces are supported")
    if verts.size < 3 * nv or block.size < 4 * nf:
        raise ValueError("OFF file ends before its declared vertices and faces")
    return _indexed_triangles(verts.reshape(nv, 3), block.reshape(nf, 4)[:, 1:])


def mesh_to_obj(mesh: EmbeddedMesh) -> str:
    if mesh.dimension != 2 or mesh.ambient_dim != 3:
        raise ValueError("OBJ export requires a triangle mesh in R^3")
    verts, simplices = _vertex_table(mesh.corners)
    lines = []
    for v in verts:
        lines.append("v " + " ".join(fmt_float(x) for x in v))
    for s in simplices:
        lines.append("f " + " ".join(str(int(i) + 1) for i in s))
    return "\n".join(lines) + "\n"


def mesh_from_obj(text: str) -> EmbeddedMesh:
    verts, faces = [], []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 4:
                raise ValueError(f"line {number}: a vertex takes exactly three coordinates, "
                                 f"got {len(parts) - 1}")
            verts.append([float(x) for x in parts[1:]])
        elif parts[0] == "f":
            idx = [int(p.split("/", 1)[0]) - 1 for p in parts[1:]]
            if len(idx) != 3:
                raise ValueError("only triangle faces are supported")
            faces.append(idx)
    return _indexed_triangles(np.array(verts, dtype=float).reshape(len(verts), 3), faces)


# ---------------------------------------------------------------------------
# segment meshes: CSV, one segment per row
# ---------------------------------------------------------------------------

def mesh_to_segment_csv(mesh: EmbeddedMesh) -> str:
    if mesh.dimension != 1:
        raise ValueError("segment CSV export requires a d=1 mesh")
    n = mesh.ambient_dim
    lines = [f"# segments ambient={n}"]
    corners = mesh.corners
    for i in range(mesh.n_simplices):
        row = list(corners[i, 0]) + list(corners[i, 1])
        lines.append(",".join(fmt_float(x) for x in row))
    return "\n".join(lines) + "\n"


def mesh_from_segment_csv(text: str) -> EmbeddedMesh:
    segs = []
    ambient = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "ambient=" in line:
                ambient = int(line.split("ambient=")[1].split()[0])
            continue
        vals = [float(x) for x in line.split(",")]
        if len(vals) % 2 != 0:
            raise ValueError("segment row must hold two points")
        n = len(vals) // 2
        if ambient is None:
            ambient = n
        if n != ambient:
            raise ValueError("inconsistent ambient dimension in segment CSV")
        segs.append(np.array([vals[:n], vals[n:]], dtype=float))
    if not segs:
        raise ValueError("no segments in CSV")
    return EmbeddedMesh(1, segs, allow_degenerate=True)


# ---------------------------------------------------------------------------
# dispatch + value types
# ---------------------------------------------------------------------------

def mesh_text(path: PathLike, mesh: EmbeddedMesh) -> str:
    """The mesh in the format named by the path's suffix (.off, .obj or .csv)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".off":
        return mesh_to_off(mesh)
    if suffix == ".obj":
        return mesh_to_obj(mesh)
    if suffix == ".csv":
        return mesh_to_segment_csv(mesh)
    raise ValueError(f"unsupported mesh format {suffix!r} for {path}")


def read_mesh(path: PathLike) -> EmbeddedMesh:
    p = Path(path)
    suffix = p.suffix.lower()
    text = p.read_text()
    if suffix == ".off":
        return mesh_from_off(text)
    if suffix == ".obj":
        return mesh_from_obj(text)
    if suffix == ".csv":
        return mesh_from_segment_csv(text)
    raise ValueError(f"unsupported mesh format {suffix!r} (use .off/.obj/.csv)")


def gauge_from_dict(d: dict) -> Gauge:
    return Gauge(float(d["scale"]), float(d["exponent"]), float(d["cutoff"]))
