"""One timed pass over a workload's job list, in a fresh process.

The CLI runs in-process: each job calls the click group with its argument
list and catches ``SystemExit``, so a non-zero code counts as a failed job.
Only the CLI call is timed; output checks and hashing run between jobs.

A pass also measures the host's speed while it runs: a timer signal runs
the reference kernel (``reference.py``) every ``SAMPLE_PERIOD_S`` seconds,
on the worker's own CPU and during the jobs themselves, and the time spent
in the handler is taken out of the job times and spans.  Every worker also
takes one sample right after set-up.  The result
(timings, reference samples, oracle verdicts, digests, spans) goes to
``--result`` as JSON.  ``--probe`` stops after set-up and its reference
sample, which is all a set-up sample needs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import oracle
from reference import reference_s

#: the reference kernel runs this often during an untraced pass
SAMPLE_PERIOD_S = 0.4


def _setup(inputs: Path):
    """Import the CLI and load the inputs: what every CLI user pays first."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    from plateau_lab import cli
    spec = json.loads((inputs / "jobs.json").read_text())
    for p in sorted(inputs.iterdir()):
        p.read_bytes()
    return cli, spec["jobs"]


def _argv(job: dict, inputs: Path) -> list:
    return [str(inputs / a[1:]) if a.startswith("@") else a for a in job["args"]]


def run_job(cli, argv: list) -> tuple:
    """(exit code, stdout, traceback or None) of one in-process CLI call."""
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=argv, prog_name="plateau-lab", standalone_mode=True)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else int(e.code is not None)
        except Exception:  # a crash is a failed job, not a failed benchmark
            code, error = 1, traceback.format_exc()
    return code, buf.getvalue(), error


class HostSampler:
    """Times the reference kernel on a timer signal, as a context manager.

    Python runs the handler between two bytecodes of the main thread, so the
    kernel interrupts the program at a safe point; ``spent`` is the time the
    handler took, samples included.
    """

    def __init__(self, period_s: float = SAMPLE_PERIOD_S):
        self.period_s = period_s
        self.samples: list = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # the kernel outlasted the period: skip, do not nest
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(cli, jobs: list, inputs: Path, out: Path, sampler: HostSampler,
             tracer=None) -> list:
    """One record per job; the ``sampler``'s handler time is not job time."""
    records = []
    for i, job in enumerate(jobs):
        job_dir = out / job["name"]
        shutil.rmtree(job_dir, ignore_errors=True)
        job_dir.mkdir(parents=True)
        argv = _argv(job, inputs)
        here = os.getcwd()
        os.chdir(job_dir)
        try:
            span = None
            if tracer is not None:
                tracer.job = i
                span = tracer.begin("cli")
            spent0 = sampler.spent
            cpu0, t0 = time.process_time(), time.perf_counter()
            code, stdout, error = run_job(cli, argv)
            spent = sampler.spent - spent0
            seconds = time.perf_counter() - t0 - spent
            cpu_s = time.process_time() - cpu0 - spent
            if span is not None:
                tracer.end(span)
        finally:
            os.chdir(here)
        files = {p.name: p.read_text() for p in sorted(job_dir.iterdir()) if p.is_file()}
        failures = oracle.check(job, code, stdout, files)
        if error:
            failures.append(error)
        for msg in failures:
            print(f"[bench] job {job['name']} failed: {msg}", file=sys.stderr)
        records.append({"name": job["name"], "seconds": seconds, "cpu_s": cpu_s,
                        "code": code, "failures": failures,
                        "digest": oracle.digest(stdout, files)})
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    a = ap.parse_args()
    cli, jobs = _setup(a.inputs)
    result = {"ready": time.perf_counter(), "ref_s": [reference_s()]}
    if not a.probe:
        tracer = None
        with HostSampler() as sampler:
            if a.trace:
                from spans import Tracer
                # spans leave the sampler's handler time out, as job times do
                tracer = Tracer(clock=lambda: time.perf_counter() - sampler.spent)
                tracer.install()
            result["jobs"] = run_pass(cli, jobs, a.inputs.resolve(), a.out, sampler, tracer)
        result["ref_s"] += sampler.samples
        if tracer is not None:
            tracer.remove()
            result["spans"] = [asdict(s) for s in tracer.spans]
            result["missing_hooks"] = tracer.missing
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    a.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
