"""Tests for the benchmark harness itself, at toy sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import json

import pytest

from perfbench import case_a, run, scale_world, serve_ingest
from perfbench.common import Outcome, emit, load_spec
from perfbench.layers import NOT_SUMMED, layer_metric_names
from perfbench.spans import SimProfiler, Tracer

SPEC = load_spec()


WORKLOADS = ("case-a", "serve-ingest", "scale-world")
#: Four simulated days of Case A (the warm-up config: the cap lands on
#: day 2, and the attacker is blocked and rotates) emit ~2.5k events.
TOY_EVENTS = 8 * serve_ingest.BATCH


def toy_case_a():
    return case_a.warmup_config(3)


def run_toy(workload, trace):
    if workload == "case-a":
        return case_a.run(3, 0, trace, min_reps=2, config=toy_case_a())
    if workload == "serve-ingest":
        return serve_ingest.run(3, 0, trace, min_reps=1, config=toy_case_a(),
                                events=TOY_EVENTS)
    return scale_world.run(3, 0, trace, min_reps=2, visitors=2_000)


@pytest.fixture(scope="module", params=[(w, t) for w in WORKLOADS for t in (False, True)],
                ids=lambda p: f"{p[0]}-trace{int(p[1])}")
def toy(request):
    workload, trace = request.param
    return workload, trace, run_toy(workload, trace)


def test_toy_run_prints_every_metric_with_its_unit(toy, capsys):
    workload, trace, outcome = toy
    assert outcome.correct, outcome.errors
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    line = emit(outcome, names)
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == line
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in names}
    table = "\n".join(printed[:-1])
    for entry in names:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert f"{entry['name']}" in table and f" {entry['unit']}" in table
    if not trace:
        for entry in names:
            assert result["metrics"][entry["name"]]["value"] > 0
            assert f"(n={outcome.samples[entry['name']]})" in table


def test_traced_breakdown_sums_to_traced_wall(toy):
    workload, trace, outcome = toy
    if not trace:
        pytest.skip("untraced run")
    metrics = outcome.metrics
    assert set(metrics) == set(layer_metric_names())
    wall = metrics["trace.wall_s"]
    assert wall > 0
    shares = sum(
        value for name, value in metrics.items()
        if name.endswith("_s") and name not in NOT_SUMMED
    )
    assert shares == pytest.approx(wall, rel=1e-9, abs=1e-9)
    # The remainder is a remainder, not where the time went.
    assert 0 <= metrics["unattributed_s"] < 0.1 * wall
    assert all(metrics[name] >= 0 for name in metrics if name.endswith("_s")
               and name != "serve.http_s")


def test_layers_do_work_where_the_map_says(toy):
    workload, trace, outcome = toy
    if not trace:
        pytest.skip("untraced run")
    m = outcome.metrics
    if workload == "case-a":
        assert m["detect.features_s"] > 0 and m["graph.compile_s"] > 0
        assert m["mitigation.controller_s"] > 0 and m["traffic.attacker_s"] > 0
        assert m["graph.refreshes"] == 0 and m["serve.snapshot_s"] == 0
    elif workload == "serve-ingest":
        assert m["sim.events"] == 0 and m["detect.features_s"] == 0
        assert m["graph.refreshes"] > 0 and m["serve.checkpoints"] > 0
        assert m["stream.entries"] > 0 and m["serve.http_s"] > 0
    else:
        assert m["traffic.legit_s"] > 0 and m["runner.pool_start_s"] > 0
        assert m["traffic.attacker_s"] == 0 and m["detect.sessions"] == 0
        assert m["graph.refresh_s"] == 0 and m["serve.codec_s"] == 0


def test_case_a_digest_mismatch_fails_the_check(monkeypatch):
    calls = itertools.count()
    monkeypatch.setattr(case_a, "digest", lambda detection: f"{next(calls):064d}")
    outcome = case_a.run(3, 0, False, min_reps=2, config=toy_case_a())
    assert not outcome.correct
    assert outcome.failed == 1
    assert "digest" in outcome.errors[0]


def test_case_a_late_cap_fails_the_check(monkeypatch):
    run_case_a = case_a.run_case_a

    def corrupted(config, on_world=None):
        result = run_case_a(config, on_world=on_world)
        return dataclasses.replace(result, cap_applied_at=config.cap_at + 1.0)

    monkeypatch.setattr(case_a, "run_case_a", corrupted)
    outcome = case_a.run(3, 0, False, min_reps=1, config=toy_case_a())
    assert not outcome.correct
    assert any("NiP cap" in error for error in outcome.errors)


def test_serve_digest_mismatch_fails_the_check(monkeypatch):
    prepare = serve_ingest.prepare

    def corrupted(config, work, events):
        inputs = prepare(config, work, events)
        inputs.reference_digest = "0" * 64
        return inputs

    monkeypatch.setattr(serve_ingest, "prepare", corrupted)
    outcome = serve_ingest.run(3, 0, False, min_reps=1, config=toy_case_a(),
                               events=TOY_EVENTS)
    assert not outcome.correct
    assert outcome.failed == 1
    assert "/finish digest" in outcome.errors[0]


def test_serve_short_ack_fails_the_check(monkeypatch):
    prepare = serve_ingest.prepare

    def corrupted(config, work, events):
        inputs = prepare(config, work, events)
        inputs.sizes[0] += 1
        return inputs

    monkeypatch.setattr(serve_ingest, "prepare", corrupted)
    outcome = serve_ingest.run(3, 0, False, min_reps=1, config=toy_case_a(),
                               events=TOY_EVENTS)
    assert not outcome.correct
    assert any("batch 0: applied" in error for error in outcome.errors)


def test_scale_world_metric_mismatch_fails_the_check(monkeypatch):
    sweep = scale_world.sweep

    def corrupted(spec, backend):
        result = sweep(spec, backend)
        if backend == scale_world.PROCESS:
            result.metrics["events_processed"] += 1
        return result

    monkeypatch.setattr(scale_world, "sweep", corrupted)
    outcome = scale_world.run(3, 0, False, min_reps=2, visitors=2_000)
    assert not outcome.correct
    assert outcome.failed == 2


def test_failed_check_prints_result_and_exits_nonzero(monkeypatch, capsys):
    failed = Outcome("case-a", metrics={e["name"]: 1.0 for e in SPEC["end_to_end"]},
                     attempted=2, failed=1, errors=["corrupted"])
    monkeypatch.setattr(run, "run_one", lambda *args: failed)
    status = run.main(["--workload", "case-a", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] == 1


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    log = tracer.log()
    outer = log.add("outer", 0.0, 10.0, -1)
    inner = log.add("inner", 1.0, 4.0, outer)
    log.add("leaf", 2.0, 3.0, inner)
    log.add("inner", 5.0, 6.0, outer)
    assert log.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_sim_profiler_adopts_spans_opened_during_a_callback():
    tracer = Tracer()
    profiler = SimProfiler(tracer, lambda label: "cb." + label)
    with tracer.span("sim.run"):
        with tracer.span("web.handle"):
            pass
        profiler.record_event("visitor", 0.5)
        profiler.record_event("visitor", 0.1)
    log = tracer.log()
    assert log.names == ["sim.run", "web.handle", "cb.visitor", "cb.visitor"]
    assert log.parents == [-1, 2, 0, 0]
    assert profiler.counts == {"visitor": 2}


def test_benchmark_json_names_match_the_harness():
    assert {e["name"] for e in SPEC["per_layer"]} == set(layer_metric_names())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {e["name"] for e in SPEC["end_to_end"]} == {
        "setup_s", "wall_s", "events_per_s", "peak_rss_mb"
    }
    assert set(NOT_SUMMED) <= set(layer_metric_names())
