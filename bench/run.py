"""plateau-lab benchmark: closed-loop CLI workloads, end-to-end and per-layer.

Run from the root of a plateau-lab checkout::

    python3 bench/run.py --workload classify --seed 0 --seconds 30 --trace 0

One client runs the workload's job list, starting a job only when the previous
one finished.  Each pass over the list runs in a fresh worker process
(``worker.py``) that calls the CLI in-process; passes repeat until
``--seconds`` is spent.  Inputs are generated from the seed in a separate
process first (``workloads.py``), so generation is untimed and does not
inflate the worker's memory.  Every job's output is checked by ``oracle.py``.

Times are reported at a nominal host speed.  The workers time the
benchmark's own reference kernel (``reference.py``) after set-up and, on a
timer, all through a pass, and the seconds are scaled by
``REF_S / mean reference seconds`` of the same workers.  That cancels the
drift of a shared host's speed, which no repetition count averages out,
while any change of the program's cost shows in full.  The run stays on one
CPU, the one its reference samples describe.  The unscaled seconds are in
the report.  Set-up is timed in ``SETUP_SAMPLES`` extra workers per run that
stop after set-up, so every run has as many set-up samples, however long
its passes are.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the spans of
``spans.py``; the untraced passes give ``trace.overhead_frac``.

The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); a readable summary goes to stderr and the full
report, with the environment block, to ``.bench_work/`` (and with
``--trace 1`` the raw spans of every traced pass).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans as spanlib  # noqa: E402
import workloads  # noqa: E402
from reference import REF_S  # noqa: E402

#: seed whose job digests are recorded in digests.json
DEFAULT_SEED = 0
#: set-up is timed this often per run, in workers that stop after set-up
SETUP_SAMPLES = 5
#: a worker that runs longer than this is killed and the run fails
WORKER_TIMEOUT_S = 90
DIGESTS = HERE / "digests.json"


def _env_block(root: Path) -> dict:
    """Versions, CPU and commit, recorded with every report."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "click": version("click"), "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": _commit(root)}


def _commit(root: Path):
    """HEAD of the checkout, or None where it is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(python_env: dict, inputs: Path, out: Path, result: Path,
            trace: bool = False, probe: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--out", str(out), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--probe"] * probe
    spawned = time.perf_counter()
    subprocess.run(cmd, env=python_env, check=True, timeout=WORKER_TIMEOUT_S)
    res = json.loads(result.read_text())
    res["setup_s"] = res["ready"] - spawned
    res["trace"] = trace
    return res


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               work: Path) -> tuple:
    """(set-up probes, passes) of one benchmark run.

    A pass of the plateau workload takes 18-27 s, so a run holds one or two;
    the probes give every run the same number of set-up samples.
    """
    env = {k: v for k, v in os.environ.items() if k != "PLATEAU_THREADS"}
    inputs = work / "inputs"
    subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(inputs)],
                   env=env, check=True, timeout=WORKER_TIMEOUT_S)
    probes = [_worker(env, inputs, work / "out", work / "result.json", probe=True)
              for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(_worker(env, inputs, work / "out", work / "result.json", traced))
        elapsed = time.perf_counter() - start
        # a traced run needs an untraced and a traced pass at least
        if len(passes) >= 1 + trace and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    return probes, passes


def _speed(runs: list, scaled: bool) -> float:
    """Factor from measured to nominal seconds for these workers (1 unscaled)."""
    if not scaled:
        return 1.0
    return REF_S / statistics.mean(r for p in runs for r in p["ref_s"])


def _pass_wall(passes: list, scaled: bool = True) -> float:
    """Mean job time of one pass over the passes, at nominal speed if ``scaled``."""
    total = sum(j["seconds"] for p in passes for j in p["jobs"])
    return total / len(passes) * _speed(passes, scaled)


def _setup(probes: list, scaled: bool = True) -> float:
    """Median set-up time of the probes, at nominal speed if ``scaled``."""
    return statistics.median(p["setup_s"] for p in probes) * _speed(probes, scaled)


def end_to_end(probes: list, passes: list) -> dict:
    jobs = [j for p in passes for j in p["jobs"]]
    ok = sum(not j["failures"] for j in jobs)
    return {
        "wall_s": {"value": _pass_wall(passes), "unit": "s"},
        "setup_s": {"value": _setup(probes), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(p["maxrss_kib"] for p in passes) / 1024.0,
                         "unit": "MiB"},
        "success_rate": {"value": ok / len(jobs), "unit": "ratio"},
    }


def raw_figures(probes: list, passes: list) -> dict:
    """Unscaled seconds and the reference's own times, for the report."""
    plain = [p for p in passes if not p["trace"]]
    return {"wall_s": _pass_wall(plain, scaled=False), "setup_s": _setup(probes, scaled=False),
            "ref_s": statistics.mean(r for p in plain for r in p["ref_s"]),
            "ref_samples": sum(len(p["ref_s"]) for p in plain), "ref_nominal_s": REF_S}


def _frac(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def per_layer(passes: list, mismatches: int) -> dict:
    """Per-layer metrics, per traced pass, from the spans of the traced passes."""
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    n = len(traced)
    agg: dict = {}
    residual_evals = 0
    for p in traced:
        spans = [spanlib.Span(**s) for s in p["spans"]]
        for name, vals in spanlib.layer_totals(spans).items():
            into = agg.setdefault(name, {})
            for key, val in vals.items():
                into[key] = into.get(key, 0) + val
        residual_evals += spanlib.count_under(spans, "geometry.distance",
                                              "diagnostics.classify")

    def get(name, key="self_s"):
        return agg.get(name, {}).get(key, 0) / n

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    # seconds per traced pass; a layer a workload never calls reads 0 there
    for layer in ("geometry.distance", "geometry.sample", "geometry.clip", "geometry.io",
                  "projection.split", "projection.center", "projection.map",
                  "minimizer.init", "minimizer.descent", "minimizer.audit",
                  "minimizer.scheme", "steiner.optimize", "steiner.enumerate",
                  "steiner.audit", "diagnostics.classify", "diagnostics.cone_slice",
                  "cones.build"):
        put(f"{layer}.self_s", get(layer), "s")
    put("geometry.distance.calls", get("geometry.distance", "calls"), "count")
    put("geometry.distance.pairs", get("geometry.distance", "pairs"), "count")
    put("geometry.distance.pairs_per_s",
        _frac(get("geometry.distance", "pairs"), get("geometry.distance")), "1/s")
    put("geometry.sample.points", get("geometry.sample", "points"), "count")
    put("geometry.hausdorff.s", get("geometry.hausdorff", "total_s"), "s")
    put("geometry.hausdorff.calls", get("geometry.hausdorff", "calls"), "count")
    put("geometry.clip.simplices", get("geometry.clip", "simplices"), "count")
    put("geometry.io.bytes", get("geometry.io", "bytes"), "count")
    put("projection.pieces", get("projection.split", "pieces"), "count")
    put("projection.center.calls", get("projection.center", "calls"), "count")
    put("projection.faces", get("projection.map", "faces"), "count")
    rounds = get("minimizer.descent", "rounds")
    moves = get("minimizer.descent", "moves")
    put("minimizer.rounds", rounds, "count")
    put("minimizer.moves_generated", moves, "count")
    put("minimizer.move_yield", _frac(rounds, moves), "ratio")
    put("minimizer.audit.trials", get("minimizer.audit", "trials"), "count")
    topologies = get("steiner.optimize", "topologies")
    put("steiner.topologies", topologies, "count")
    put("steiner.topology_s", _frac(get("steiner.optimize", "total_s"), topologies), "s")
    put("diagnostics.residual_evals", residual_evals / n, "count")
    put("cones.build.calls", get("cones.build", "calls"), "count")
    put("cli.self_s", get("cli"), "s")
    put("cli.total_s", get("cli", "total_s"), "s")
    put("cli.cpu_s", statistics.mean(sum(j["cpu_s"] for j in p["jobs"]) for p in traced), "s")
    put("cli.jobs", get("cli", "calls"), "count")
    put("cli.digest_mismatch", mismatches, "count")
    put("trace.overhead_frac", _pass_wall(traced) / _pass_wall(plain) - 1.0, "ratio")
    return out


def digest_mismatches(workload: str, seed: int, passes: list) -> int:
    """Jobs whose digest differs from the record; 0 off the default seed."""
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return 0
    want = json.loads(DIGESTS.read_text()).get(workload, {})
    return len({j["name"] for p in passes for j in p["jobs"]
                if j["digest"] != want.get(j["name"])})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"store this run's job digests (seed {DEFAULT_SEED} only)")
    a = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "plateau_lab" / "cli.py").is_file():
        print("bench: run from the root of a plateau-lab checkout "
              "(src/plateau_lab/cli.py not found)", file=sys.stderr)
        return 2
    if a.record_digests and a.seed != DEFAULT_SEED:
        print(f"bench: digests are recorded for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{a.workload}-{a.seed}-{a.trace}-{os.getpid()}"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        probes, passes = run_passes(a.workload, a.seed, a.seconds, bool(a.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(bool(j["failures"]) for j in jobs)
    if a.record_digests:
        record = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        record[a.workload] = {j["name"]: j["digest"] for j in passes[0]["jobs"]}
        DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    mismatches = digest_mismatches(a.workload, a.seed, passes)
    metrics = (per_layer(passes, mismatches) if a.trace
               else end_to_end(probes, passes))
    report = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "why": workloads.WHY[a.workload],
              "environment": _env_block(root), "raw": raw_figures(probes, passes),
              "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
              "digest_mismatch": mismatches, "metrics": metrics}
    out = root / ".bench_work"
    out.mkdir(exist_ok=True)
    (out / f"report-{a.workload}-trace{a.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    if a.trace:
        (out / f"spans-{a.workload}.json").write_text(
            json.dumps([p["spans"] for p in passes if p["trace"]]) + "\n")
    print(f"[bench] environment {json.dumps(report['environment'])}", file=sys.stderr)
    print(f"[bench] unscaled {json.dumps(report['raw'])}", file=sys.stderr)
    for hook in sorted({h for p in passes for h in p.get("missing_hooks", [])}):
        print(f"[bench] not traced, no longer in the library: {hook}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"[bench] {a.workload:9s} {name:34s} {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
