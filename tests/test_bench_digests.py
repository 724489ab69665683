"""The benchmark's seed-0 jobs still produce the recorded artifacts, byte for byte.

``bench/run.py`` compares each job's digest with ``bench/digests.json`` and
reports a mismatch only as a count in the bench report.  This test runs
every workload's seed-0 jobs in-process, as ``bench/worker.py`` does (each
job in its own directory, artifacts under relative names), so a change of
one byte fails the test suite too.  It reads ``bench/`` and changes nothing
there.

The digests are bit-exact, so they belong to the platform they were
recorded on: x86_64 Linux, CPython 3.11.7, numpy 2.4.6 from its wheel with the
bundled scipy-openblas 0.3.31 (DYNAMIC_ARCH, which picks its kernels by CPU).
Another BLAS or numpy build may round a dot or gemv differently and fail
this test with no change to the program.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
RECORDED = json.loads((BENCH / "digests.json").read_text())


@pytest.fixture(scope="module")
def bench_modules():
    """The bench's modules, which import each other under top-level names;
    they are dropped from ``sys.modules`` again afterwards."""
    from plateau_lab import cli
    loaded = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        import oracle
        import worker
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    yield cli, oracle, worker, workloads
    for name in set(sys.modules) - loaded:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
            del sys.modules[name]


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_seed_zero_jobs_match_the_recorded_digests(workload, bench_modules, tmp_path,
                                                   monkeypatch):
    cli, oracle, worker, workloads = bench_modules
    monkeypatch.delenv("PLATEAU_THREADS", raising=False)   # as bench/run.py runs its workers
    inputs = tmp_path / "inputs"
    workloads.write(workload, 0, inputs)
    jobs = json.loads((inputs / "jobs.json").read_text())["jobs"]
    got = {}
    for job in jobs:
        job_dir = tmp_path / job["name"]
        job_dir.mkdir()
        monkeypatch.chdir(job_dir)
        code, stdout, error = worker.run_job(cli, worker._argv(job, inputs))
        assert error is None, error
        files = {p.name: p.read_text() for p in sorted(job_dir.iterdir()) if p.is_file()}
        assert oracle.check(job, code, stdout, files) == [], job["name"]
        got[job["name"]] = oracle.digest(stdout, files)
    assert got == RECORDED[workload]
