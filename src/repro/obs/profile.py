"""Case-profiling harness: run a scenario with full instrumentation.

:func:`profile_case` stands up a case study with every observability
hook attached via the scenario's ``on_world`` callback —

* the event loop's dispatch profiler (per-label sim-kernel timings:
  one ``sim.event.<label>`` timer per actor/step kind),
* the web application's request instrumentation (per-endpoint
  latency, edge-pipeline time, per-status counters),
* an *observational* streaming tap: the standard adapter set attached
  to the live log with no verdict sink, so the per-stage stream
  timers/throughput gauges are populated without changing what the
  scenario does —

and wraps the run in coarse :meth:`~repro.obs.context.RunContext.phase`
blocks (``setup`` / ``simulate`` / ``stream-finish``).  The result is
one :class:`~repro.obs.context.RunContext` whose registry is the
canonical profile report for the run.

The module-level ``profile_*_cell`` functions are picklable sweep-cell
entry points (registered as ``profile-case-a`` etc.), so ``repro
profile <case> --reps N --workers W`` fans replications out through
:mod:`repro.runner` and merges the per-worker registries exactly like
metric recorders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..sim.clock import DAY, HOUR, WEEK
from .context import RunContext
from .core import ObsRegistry

#: Case names :func:`profile_case` accepts.
PROFILED_CASES: Tuple[str, ...] = ("case-a", "case-b", "case-c")

#: Compressed configs for smoke runs (``repro profile --ticks-short``):
#: the same code paths at a few seconds of wall clock.
_SHORT_OVERRIDES: Dict[str, Dict[str, object]] = {
    "case-a": {
        "visitor_rate_per_hour": 5.0,
        "attack_start": 1 * DAY,
        "cap_at": None,
        "departure_time": 3 * DAY,
        "target_capacity": 120,
        "attacker_target_seats": 60,
    },
    "case-b": {
        "duration": 3 * DAY,
        "visitor_rate_per_hour": 5.0,
        "automated_attack_start": 1 * DAY,
        "manual_attack_start": 1 * DAY,
        "automated_target_seats": 30,
    },
    "case-c": {
        "baseline_weekly_total": 4_800,
        "attack_start": 2 * DAY,
        "duration": 4 * DAY,
    },
}


def short_overrides(case: str) -> Dict[str, object]:
    """The ``--ticks-short`` config overrides for ``case`` (a copy)."""
    if case not in _SHORT_OVERRIDES:
        raise ValueError(
            f"unknown profiled case {case!r}; expected one of "
            f"{PROFILED_CASES}"
        )
    return dict(_SHORT_OVERRIDES[case])


@dataclass
class ProfileRun:
    """One profiled scenario run: the context plus the case result."""

    case: str
    context: RunContext
    #: The underlying scenario result (``CaseAResult`` etc.).
    result: object

    @property
    def registry(self) -> ObsRegistry:
        return self.context.registry


def instrument_world(
    world,
    context: RunContext,
    stream_tap: bool = True,
    idle_gap: Optional[float] = None,
):
    """Attach every obs hook to a built world.

    Returns the observational stream pipeline (or ``None`` when
    ``stream_tap`` is off — the overhead benchmark measures pure
    instrumentation cost, without the tap's real detection work).
    """
    world.loop.profiler = context
    world.app.obs = context.registry
    if not stream_tap:
        return None
    # Imported lazily: repro.stream pulls in the detector stack, which
    # the un-tapped path (and the overhead benchmark) never needs.
    from ..scenarios.streaming import build_stream_pipeline
    from ..web.logs import DEFAULT_IDLE_GAP

    pipeline = build_stream_pipeline(
        sink=None,
        idle_gap=idle_gap if idle_gap is not None else DEFAULT_IDLE_GAP,
    )
    pipeline.obs = context.registry
    pipeline.attach(world.app.log)
    return pipeline


def batch_analysis(world, context: RunContext) -> None:
    """Run the batch session analysis, instrumented.

    Builds the :class:`~repro.core.detection.session_index.
    SessionIndex` (populating the ``detect.features`` timer and the
    ``detect.sessions`` / ``detect.entries`` counters) and judges it
    with :func:`~repro.scenarios.graph_case.session_arm`, which times
    each family under ``detect.family.<name>`` — the per-stage
    breakdown ``repro profile`` reports next to the sim-kernel and
    stream tables.
    """
    # Imported lazily, like the stream tap: the detector stack is not
    # an :mod:`repro.obs` dependency.
    from ..core.detection.session_index import SessionIndex
    from ..scenarios.graph_case import session_arm

    registry = context.registry
    session_arm(
        world, SessionIndex.from_log(world.app.log, obs=registry), registry
    )


def _case_entry(case: str) -> Tuple[type, Callable]:
    """(config class, run function) for a profiled case, resolved lazily
    so importing :mod:`repro.obs` stays cheap."""
    if case == "case-a":
        from ..scenarios.case_a import CaseAConfig, run_case_a

        return CaseAConfig, run_case_a
    if case == "case-b":
        from ..scenarios.case_b import CaseBConfig, run_case_b

        return CaseBConfig, run_case_b
    if case == "case-c":
        from ..scenarios.case_c import CaseCConfig, run_case_c

        return CaseCConfig, run_case_c
    raise ValueError(
        f"unknown profiled case {case!r}; expected one of {PROFILED_CASES}"
    )


def profile_case(
    case: str,
    config: Optional[object] = None,
    seed: Optional[int] = None,
    ticks_short: bool = False,
    stream_tap: bool = True,
) -> ProfileRun:
    """Run ``case`` fully instrumented and return its profile.

    Either pass a ready ``config`` (its seed wins) or let the harness
    build one from ``seed``/``ticks_short``.
    """
    config_cls, run_fn = _case_entry(case)
    if config is None:
        params = short_overrides(case) if ticks_short else {}
        if seed is not None:
            params["seed"] = seed
        config = config_cls(**params)
    context = RunContext(
        scenario=case,
        seed=getattr(config, "seed", None),
        meta={"ticks_short": ticks_short, "stream_tap": stream_tap},
    )
    pipeline = None

    def wire(world) -> None:
        nonlocal pipeline
        pipeline = instrument_world(world, context, stream_tap=stream_tap)

    with context.phase("simulate"):
        result = run_fn(config, on_world=wire)
    if pipeline is not None:
        with context.phase("stream-finish"):
            pipeline.finish()
    registry = context.registry
    world = getattr(result, "world", None)
    if world is not None:
        with context.phase("batch-analysis"):
            batch_analysis(world, context)
        registry.set_gauge(
            "sim.events_processed", float(world.loop.events_processed)
        )
        registry.set_gauge(
            "web.requests", world.metrics.counter("web.requests")
        )
    context.finish()
    return ProfileRun(case=case, context=context, result=result)


# -- sweep-cell entry points (registered as profile-<case>) ------------------


def _profile_cell(case: str, config: object) -> Dict[str, object]:
    """Plain-data payload of one profiled cell, with the registry
    snapshot under ``"obs"`` so the runner can merge it across
    workers (see :meth:`repro.runner.core.SweepResult.merged_obs`)."""
    run = profile_case(case, config=config)
    registry = run.registry
    return {
        "metrics": {
            "wall_seconds": run.context.wall_seconds,
            "sim_events": registry.gauge("sim.events_processed"),
            "web_requests": registry.gauge("web.requests"),
            "sim_event_seconds": registry.total_time("sim.event."),
            "stream_entries": registry.counter("stream.entries"),
            "detect_seconds": registry.total_time("detect."),
        },
        "info": {"run_id": run.context.run_id},
        "recorder": {},
        "obs": registry.snapshot(),
    }


def profile_case_a_cell(config) -> Dict[str, object]:
    return _profile_cell("case-a", config)


def profile_case_b_cell(config) -> Dict[str, object]:
    return _profile_cell("case-b", config)


def profile_case_c_cell(config) -> Dict[str, object]:
    return _profile_cell("case-c", config)
