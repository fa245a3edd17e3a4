"""Tests for the profiling harness: instrumentation hooks end-to-end.

The expensive fixtures run the ``--ticks-short`` Case A once per module
and share the profile across assertions.
"""

import json

import pytest

import repro.runner
from repro.cli import build_parser, main
from repro.obs import RunContext
from repro.obs.profile import (
    PROFILED_CASES,
    instrument_world,
    profile_case,
    short_overrides,
)
from repro.sim.events import EventLoop


@pytest.fixture(scope="module")
def short_profile():
    return profile_case("case-a", seed=7, ticks_short=True)


class TestEventLoopProfilerHook:
    def test_dispatch_reports_label_and_duration(self):
        loop = EventLoop()
        context = RunContext()
        loop.profiler = context
        loop.schedule_at(1.0, lambda: None, label="tick")
        loop.schedule_at(2.0, lambda: None)  # unlabelled
        loop.run_until(10.0)
        timers = context.registry.timers("sim.event.")
        assert timers["sim.event.tick"].count == 1
        assert timers["sim.event.unlabelled"].count == 1

    def test_no_profiler_means_no_observation(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None, label="tick")
        loop.run_until(10.0)
        assert loop.profiler is None
        assert loop.events_processed == 1

    def test_run_all_also_profiles(self):
        loop = EventLoop()
        context = RunContext()
        loop.profiler = context
        loop.schedule_at(1.0, lambda: None, label="tick")
        loop.run_all()
        assert context.registry.timers()["sim.event.tick"].count == 1


class TestProfileCase:
    def test_rejects_unknown_case(self):
        with pytest.raises(ValueError):
            profile_case("case-z")
        with pytest.raises(ValueError):
            short_overrides("case-z")

    def test_short_overrides_are_copies(self):
        assert short_overrides("case-a") is not short_overrides("case-a")

    def test_report_covers_all_three_subsystems(self, short_profile):
        timers = short_profile.registry.timers()
        assert any(n.startswith("sim.event.") for n in timers)
        assert any(n.startswith("web.request.") for n in timers)
        assert any(n.startswith("stream.stage.") for n in timers)

    def test_sim_kernel_breakdown_is_complete(self, short_profile):
        """Every processed event was attributed to some label."""
        registry = short_profile.registry
        dispatched = sum(
            timer.count
            for timer in registry.timers("sim.event.").values()
        )
        assert dispatched == registry.gauge("sim.events_processed")
        assert dispatched > 0

    def test_web_latency_matches_request_volume(self, short_profile):
        registry = short_profile.registry
        timed = sum(
            timer.count
            for timer in registry.timers("web.request.").values()
        )
        statuses = sum(registry.counters("web.response.").values())
        assert timed == statuses == registry.gauge("web.requests")

    def test_stream_tap_processes_every_log_entry(self, short_profile):
        registry = short_profile.registry
        assert registry.counter("stream.entries") == registry.gauge(
            "web.requests"
        )
        assert registry.gauge("stream.events_per_second") > 0
        assert registry.counter("stream.sessions_closed") > 0

    def test_stream_tap_does_not_change_the_scenario(self):
        """The observational tap must be invisible to the case result."""
        from repro.scenarios.case_a import CaseAConfig, run_case_a

        config = CaseAConfig(**short_overrides("case-a"))
        plain = run_case_a(config)
        profiled = profile_case("case-a", config=config)
        assert (
            profiled.result.attacker_holds_created
            == plain.attacker_holds_created
        )
        assert (
            profiled.result.attacker_rotations == plain.attacker_rotations
        )

    def test_phases_recorded(self, short_profile):
        phases = short_profile.registry.timers("phase.")
        assert "phase.simulate" in phases
        assert "phase.simulate/stream-finish" not in phases  # sequential
        assert "phase.stream-finish" in phases

    def test_run_identity(self, short_profile):
        context = short_profile.context
        assert context.scenario == "case-a"
        assert context.seed == 7
        assert context.finished_at is not None
        assert context.registry.gauge("run.wall_seconds") > 0

    def test_stream_tap_off_leaves_no_stream_metrics(self):
        run = profile_case(
            "case-a", seed=7, ticks_short=True, stream_tap=False
        )
        assert run.registry.timers("stream.") == {}
        assert run.registry.counters("stream.") == {}
        assert run.registry.timers("web.request.") != {}

    def test_all_cases_are_wired(self):
        # case-b / case-c short profiles also produce sim timings; the
        # full three-subsystem assertion runs on case-a above.
        for case in PROFILED_CASES:
            assert short_overrides(case)


class TestInstrumentWorldUnit:
    def test_attaches_all_hooks(self):
        class FakeWorld:
            class loop:
                profiler = None

            class app:
                obs = None

        context = RunContext()
        pipeline = instrument_world(FakeWorld, context, stream_tap=False)
        assert pipeline is None
        assert FakeWorld.loop.profiler is context
        assert FakeWorld.app.obs is context.registry


class TestRunnerObsMerge:
    def test_merged_obs_folds_cells(self, tmp_path):
        from repro.runner import SweepSpec, run_sweep

        result = run_sweep(
            SweepSpec(
                scenario="profile-case-a",
                base=short_overrides("case-a"),
                replications=2,
                master_seed=7,
            ),
            workers=1,
        )
        assert len(result.cells) == 2
        for cell in result.cells:
            assert cell.obs_snapshot  # each cell shipped a registry
        merged = result.merged_obs()
        per_cell = [cell.obs().counter("stream.entries")
                    for cell in result.cells]
        assert merged.counter("stream.entries") == sum(per_cell)
        dispatched = sum(
            timer.count
            for timer in merged.timers("sim.event.").values()
        )
        assert dispatched > 0

    def test_obs_survives_the_cache_round_trip(self, tmp_path):
        from repro.runner import SweepSpec, run_sweep

        spec = SweepSpec(
            scenario="profile-case-a",
            base=short_overrides("case-a"),
            replications=1,
            master_seed=7,
        )
        cache_dir = str(tmp_path / "cache")
        cold = run_sweep(spec, workers=1, cache_dir=cache_dir)
        warm = run_sweep(spec, workers=1, cache_dir=cache_dir)
        assert warm.cache_hits == 1
        assert (
            warm.merged_obs().snapshot() == cold.merged_obs().snapshot()
        )


class TestProfileCli:
    def test_profile_command_writes_parsable_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(
            ["profile", "case-a", "--ticks-short", "--out", out]
        )
        assert code == 0
        report = json.load(open(out))
        assert report["schema"] == "repro.obs/1"
        timers = report["timers"]
        assert any(n.startswith("sim.event.") for n in timers)
        assert any(n.startswith("web.request.") for n in timers)
        assert any(n.startswith("stream.stage.") for n in timers)
        families = [
            f"detect.family.{family}"
            for family in (
                "volume-threshold", "kmeans-behaviour", "fingerprint-rules",
            )
        ]
        for name in families:
            assert timers[name]["count"] == 1, name
        stdout = capsys.readouterr().out
        assert "event-loop dispatch" in stdout
        assert "request latency" in stdout
        assert "per-stage latency" in stdout
        assert "batch analysis" in stdout
        for name in families:
            assert name in stdout, name

    def test_profile_command_prom_format(self, tmp_path):
        out = str(tmp_path / "report.prom")
        code = main(
            ["profile", "case-a", "--ticks-short", "--out", out,
             "--format", "prom"]
        )
        assert code == 0
        text = open(out).read()
        assert "repro_run_wall_seconds" in text
        assert "_bucket{le=" in text

    def test_profile_command_rejects_unknown_case(self):
        with pytest.raises(SystemExit):
            main(["profile", "case-z"])

    def test_profile_case_is_validated_by_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "case-z"])

    def test_profile_passes_shards_to_the_runner(self, monkeypatch):
        class Stop(Exception):
            pass

        seen = {}

        def fake_run_sweep(spec, **kwargs):
            seen.update(kwargs, scenario=spec.scenario)
            raise Stop

        monkeypatch.setattr(repro.runner, "run_sweep", fake_run_sweep)
        with pytest.raises(Stop):
            main(["profile", "case-a", "--reps", "2", "--shards", "2"])
        assert seen["scenario"] == "profile-case-a"
        assert seen["shards"] == 2
