"""Seed-independent checks of one job's outputs, and the digest of them.

Each check holds for every seed, so a failure is a defect of the program
(or of the inputs), never bad luck of the draw.
"""
from __future__ import annotations

import hashlib
import json

#: criterion 09 bounds the final measure of an N-level by 1 + 8/N
MINIMIZE_SLACK = 8.0
CONE_CHECK_TOL = 1e-3


def _minimize(job, summary, files) -> list:
    levels = json.loads(files["levels.json"])["levels"]
    out = [f"level N={lv['N']}: {lv['audit']['improving_trials']} improving audit trials"
           for lv in levels if lv["audit"]["improving_trials"] != 0]
    n = levels[-1]["N"]
    if not summary["final_measure"] <= 1.0 + MINIMIZE_SLACK / n:
        out.append(f"final measure {summary['final_measure']} > 1 + 8/{n}")
    return out


def _steiner(job, summary, files) -> list:
    sol = json.loads(files["solution.json"])
    out = []
    if not sol["score"] <= sol["upper_bound"]:
        out.append(f"score {sol['score']} above the star bound {sol['upper_bound']}")
    # mass nets may legitimately break the 120 degree rule at collapsed junctions
    if job["functional"] == "size" and not sol["angle_audit"]["ok"]:
        out.append(f"angle audit failed: {sol['angle_audit']}")
    return out


CHECKS = {
    "ff-project": lambda job, s, f: [] if s["locality_ok"] is True else ["locality_ok is false"],
    "minimize": _minimize,
    "classify": lambda job, s, f: ([] if s["best"] == job["expect"]
                                   else [f"best tag {s['best']!r}, expected {job['expect']!r}"]),
    "cone-check": lambda job, s, f: ([] if s["ok"] is True and s["residual"] <= CONE_CHECK_TOL
                                     else [f"cone-check ok={s['ok']} residual={s['residual']}"]),
    "steiner": _steiner,
}


def check(job: dict, code: int, stdout: str, files: dict) -> list:
    """Failure messages for one job run; empty when every check holds.

    ``files`` maps each artifact name to its text.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        summary = json.loads(stdout)
        return CHECKS[job["check"]](job, summary, files)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


def digest(stdout: str, files: dict) -> str:
    """sha256 over stdout and every artifact, in name order."""
    h = hashlib.sha256(stdout.encode())
    for name in sorted(files):
        h.update(b"\0" + name.encode() + b"\0" + files[name].encode())
    return h.hexdigest()
