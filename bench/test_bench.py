"""Tests of the benchmark itself: inputs, oracle, spans and host-speed scaling.

Run with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from plateau_lab import cli  # noqa: E402
from plateau_lab import steiner as steiner_mod  # noqa: E402

SQUARE = {"terminals": [{"pos": [0.0, 0.0]}, {"pos": [1.0, 0.0]},
                        {"pos": [1.0, 1.0]}, {"pos": [0.0, 1.0]}],
          "objective": "size"}


def _run(tmp_path, monkeypatch, argv):
    """(code, stdout, artifacts) of one in-process CLI call in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    code, stdout, error = worker.run_job(cli, argv)
    assert error is None, error
    files = {p.name: p.read_text() for p in tmp_path.iterdir() if p.is_file()}
    return code, stdout, files


def _steiner_job():
    _, jobs = workloads.build("steiner", 0)
    return next(j for j in jobs if j["functional"] == "size")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    workloads.write(workload, 7, tmp_path / "a")
    workloads.write(workload, 7, tmp_path / "b")
    workloads.write(workload, 8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in names if n != "jobs.json")


def test_refined_t_cone_has_the_expected_size():
    verts, tris = workloads.t_cone(eta=workloads.CONE_CHECK_ETA)
    assert tris.shape == (6 * 64 ** 2, 3)
    assert len(verts) == 6 * 65 * 66 // 2


def test_oracle_rejects_a_changed_classify_tag(tmp_path, monkeypatch):
    _, jobs = workloads.build("classify", 0)
    job = next(j for j in jobs if j["expect"] == "halfplane")
    workloads.write("classify", 0, tmp_path / "in")
    argv = worker._argv(job, tmp_path / "in")
    (tmp_path / "run").mkdir()
    code, stdout, files = _run(tmp_path / "run", monkeypatch, argv)
    assert oracle.check(job, code, stdout, files) == []
    summary = json.loads(stdout)
    summary["best"] = "plane"
    assert oracle.check(job, code, json.dumps(summary), files)


def test_oracle_rejects_a_score_above_the_upper_bound(tmp_path, monkeypatch):
    (tmp_path / "square.json").write_text(json.dumps(SQUARE))
    code, stdout, files = _run(tmp_path, monkeypatch, [
        "steiner", "--instance", "square.json", "--out", "solution.json"])
    job = _steiner_job()
    assert oracle.check(job, code, stdout, files) == []
    sol = json.loads(files["solution.json"])
    sol["score"] = sol["upper_bound"] * 1.01
    assert oracle.check(job, code, stdout, {**files, "solution.json": json.dumps(sol)})


def test_oracle_counts_a_nonzero_exit_as_a_failure():
    assert oracle.check(_steiner_job(), 2, "", {}) == ["exit code 2"]


def test_digest_covers_stdout_and_every_artifact():
    files = {"a.json": "1", "b.csv": "2"}
    d = oracle.digest("out", files)
    assert d == oracle.digest("out", dict(reversed(files.items())))
    assert d != oracle.digest("out ", files)
    assert d != oracle.digest("out", {**files, "b.csv": "3"})


def test_spans_nest_and_hooks_reach_from_imports(tmp_path, monkeypatch):
    (tmp_path / "square.json").write_text(json.dumps(SQUARE))
    original = steiner_mod.optimize_steiner
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.optimize_steiner is not original
        assert steiner_mod.optimize_steiner is cli.optimize_steiner
        root = tracer.begin("cli")
        code, _, _ = _run(tmp_path, monkeypatch, [
            "steiner", "--instance", "square.json", "--out", "solution.json"])
        tracer.end(root)
    finally:
        tracer.remove()
    assert code == 0
    assert cli.optimize_steiner is original and steiner_mod.optimize_steiner is original
    assert tracer.missing == []
    got = spans.layer_totals(tracer.spans)
    for name in ("steiner.optimize", "steiner.enumerate", "steiner.audit", "geometry.io"):
        assert got[name]["calls"] >= 1, name
    assert got["steiner.optimize"]["topologies"] == 3
    for i, s in enumerate(tracer.spans):
        children = [c for c in tracer.spans if c.parent == i]
        assert sum(c.end - c.start for c in children) <= s.end - s.start
        assert all(s.start <= c.start and c.end <= s.end for c in children)
    assert all(t >= 0 for t in spans.self_times(tracer.spans))
    total = sum(spans.self_times(tracer.spans))
    assert total == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_count_under_follows_the_parent_chain():
    s = [spans.Span("diagnostics.classify", 0, -1, 0.0, 4.0),
         spans.Span("cones.build", 0, 0, 1.0, 2.0),
         spans.Span("geometry.distance", 0, 1, 1.0, 1.5),
         spans.Span("geometry.distance", 0, -1, 5.0, 6.0)]
    assert spans.count_under(s, "geometry.distance", "diagnostics.classify") == 1
    assert spans.self_times(s) == pytest.approx([3.0, 0.5, 0.5, 1.0])


def test_benchmark_json_names_every_reported_metric():
    import run
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(workloads.WHY.items())
    job = {"name": "j", "seconds": 1.0, "cpu_s": 1.0, "failures": [], "digest": ""}
    plain = {"trace": False, "jobs": [job], "maxrss_kib": 1024, "setup_s": 0.1,
             "ref_s": [0.05]}
    traced = {**plain, "trace": True,
              "spans": [{"name": "cli", "job": 0, "parent": -1, "start": 0.0, "end": 1.0,
                         "counts": {}}]}
    e2e = run.end_to_end([plain], [plain])
    layers = run.per_layer([plain, traced], 0)
    assert list(e2e) == [m["name"] for m in doc["end_to_end"]]
    assert list(layers) == [m["name"] for m in doc["per_layer"]]
    for m in doc["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
    for m in doc["per_layer"]:
        assert layers[m["name"]]["unit"] == m["unit"]


def test_times_are_scaled_to_the_nominal_host_speed():
    import run

    def one_pass(seconds, ref_s, setup_s):
        job = {"name": "j", "seconds": seconds, "failures": []}
        return {"trace": False, "jobs": [job], "maxrss_kib": 1024,
                "setup_s": setup_s, "ref_s": [ref_s, ref_s]}

    ref = run.REF_S
    # one second of work at nominal speed, on a host at half speed in two passes:
    # the reference takes 5/3 of REF_S on average, so seconds are scaled by 3/5
    passes = [one_pass(2.0, 2 * ref, 0.6), one_pass(1.0, ref, 0.3), one_pass(2.0, 2 * ref, 0.6)]
    e2e = run.end_to_end(passes, passes)
    assert e2e["wall_s"]["value"] == pytest.approx(1.0)
    assert e2e["setup_s"]["value"] == pytest.approx(0.36)
    assert run.raw_figures(passes, passes)["wall_s"] == pytest.approx(5.0 / 3.0)


def test_counts_from_inner_calls_survive_the_span_counts():
    tracer = spans.Tracer()
    moves = tracer.counter("moves", lambda: [1, 2, 3], lambda a, k, r: len(r))
    descent = tracer.wrap("minimizer.descent", lambda: len(moves()) + 1,
                          lambda a, k, r: {"rounds": r})
    assert descent() == 4
    assert tracer.spans[0].counts == {"moves": 3, "rounds": 4}


def test_host_sampler_samples_on_its_timer_and_counts_its_own_time():
    with worker.HostSampler(period_s=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.spent >= sum(sampler.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
