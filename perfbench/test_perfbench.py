"""Tests of the benchmark itself: tracing, counters, gate and job lists.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os

import pytest

import bench_env
import harness
import run
import workloads
from spans import Tracer


def _run(argvs, tracer=None, workdir=""):
    jobs = [workloads.Job(tuple(a)) for a in argvs]
    if tracer is not None:
        tracer.install()
    try:
        return [harness.execute(call) for _, call in harness.prepare(jobs, workdir)]
    finally:
        if tracer is not None:
            tracer.uninstall()


def _traced(argv):
    tracer = Tracer()
    (out,) = _run([argv], tracer)
    assert out.status == 0, out.error
    return tracer


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    jobs = []
    for name in workloads.WORKLOADS:
        jobs += workloads.warmups(name)
    jobs += workloads.select("interactive", 0)
    bound = harness.prepare(jobs, str(tmp_path))
    plain = [harness.execute(call) for _, call in bound]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [harness.execute(call) for _, call in bound]
    finally:
        tracer.uninstall()
    assert tracer.spans
    for a, b in zip(plain, traced):
        assert (a.status, a.stdout, a.error) == (b.status, b.stdout, b.error)
        assert type(a.escaped) is type(b.escaped)


def test_uninstall_restores_every_function():
    import anyons
    from anyons import knots, laurent, toric

    before = (anyons.evaluate, knots.evaluate, toric.commutation_phase,
              laurent.LaurentPoly.__mul__)
    tracer = Tracer()
    tracer.install()
    assert knots.evaluate is not before[1] and toric.commutation_phase is not before[2]
    tracer.uninstall()
    assert (anyons.evaluate, knots.evaluate, toric.commutation_phase,
            laurent.LaurentPoly.__mul__) == before


@pytest.mark.parametrize("n", [1, 5, 9])
def test_smoothing_loops_calls_equal_two_to_the_crossings(n):
    word = "B3: " + " ".join((["s1", "s2^-1"] * n)[:n])
    tracer = _traced(["bracket", "--braid", word, "--method", "statesum"])
    assert tracer.summary()["calls"]["knots.smoothing_loops"] == 2 ** n
    assert tracer.counts["knots.crossings"] == n


@pytest.mark.parametrize("length", [0, 3, 6])
def test_projective_distance_calls_count_every_reduced_word(length):
    tracer = _traced(["compile", "--target", "H", "--max-len", str(length)])
    assert tracer.summary()["calls"]["braids.projective_distance"] == 2 * 3 ** length - 1


@pytest.mark.parametrize("lx,ly", [(2, 2), (3, 5), (8, 8)])
def test_stabilizers_built_per_build(lx, ly):
    from anyons import toric

    tracer = Tracer()
    tracer.install()
    try:
        toric.build_stabilizers(toric.TorusLattice(lx, ly), 3)
    finally:
        tracer.uninstall()
    assert tracer.counts["toric.stabilizers_built"] == 2 * lx * ly
    assert tracer.summary()["calls"]["toric.build_stabilizers"] == 1


@pytest.mark.parametrize("model,k", [("fibonacci", 2), ("toric", 4), ("z_d:3", 3)])
def test_pentagon_elements_are_two_k_to_the_ninth(model, k):
    tracer = _traced(["pentagon", "--model", model])
    assert tracer.counts["fsymbols.pentagon_elements"] == 2 * k ** 9
    assert tracer.pentagon_peak_alloc_mb() > 0


def test_self_time_partitions_the_traced_job_time():
    tracer = _traced(["toric", "--lx", "3", "--ly", "3", "--d", "3"])
    s = tracer.summary()
    top = [sp for sp in tracer.spans if sp[3] < 0]
    assert [sp[0] for sp in top] == ["cli.run", "cli.render"]
    assert sum(s["layer_self"].values()) == pytest.approx(s["top_level_s"], rel=1e-9)
    assert s["calls"]["toric.dyon_braiding_phase"] == 3 ** 4
    assert min(s["self"].values()) >= -1e-6


def test_gate_rejects_nan_and_accepts_float_noise():
    with pytest.raises(ValueError):
        harness.strict_json('{"x": NaN}')
    assert harness.same({"a": [1, 0.5]}, {"a": [1, 0.5 + 1e-12]}) is None
    assert harness.same({"a": [1, 0.5]}, {"a": [1, 0.51]})
    assert harness.same({"a": 1}, {"a": True})
    assert harness.same({"a": [1, 2]}, {"a": [2, 1]})


def test_refusals_follow_the_contract_not_a_recording():
    job = workloads.Job(("qdims", "--model", "su3"), expect_status=1)
    (out,) = _run([job.argv])
    assert harness.check(job, out, {}) is None
    assert harness.check(job, harness.Outcome(0.0, 0, "{}", None), {})
    assert harness.check(job, harness.Outcome(0.0, escaped=ZeroDivisionError()), {})


def test_each_workload_runs_a_known_defect_refusal():
    for name in workloads.WORKLOADS:
        jobs = workloads.select(name, 3)
        assert any(j.defect for j in jobs), name


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_selectable_job_has_a_reference(name):
    reference = harness.load_reference(name)
    keys = {j.key for j in workloads.catalog(name)}
    assert keys == set(reference)
    for seed in range(20):
        jobs = workloads.select(name, seed)
        assert len(jobs) >= 100  # at least 10 samples beyond p90 in one pass
        assert {j.key for j in jobs if j.expect_status is None} <= keys
    assert workloads.select(name, 5) == workloads.select(name, 5)
    assert workloads.select(name, 5) != workloads.select(name, 6)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(bench_env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (n, u) for n, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m[0], m[1]) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
