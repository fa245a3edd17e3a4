"""``scale-world``: the sharded visitor world on the runner's pool.

One sweep is ``run_sweep`` over the ``scale-world`` scenario, 25k
visitors over one simulated day, split into K=2 shards and run on a
process pool of 2 workers: the million-visitor flagship's shape, sized
to a 2-core machine.  It runs no detection at all.  A 50k-visitor
sweep takes ~6.5 s there and single sweeps vary by +-10%, so a run
fits too few of them for a steady median; at 25k it fits about eight.

To see when the shards start and stop inside the workers, the
scenario is re-registered, for the duration of the run, with a cell
function that stamps ``perf_counter`` around the stock ``scale_cell``
into the shard's ``info`` (which the shard merge keeps per shard).
Forked workers inherit the registration.  ``perf_counter`` reads the
system-wide monotonic clock, so the stamps compare with the parent process's.

Output check: every sweep's merged cell metrics equal those of one
serial-backend sweep with the same seed and K, run after the timed
sweeps.

The traced run executes the same shards on the serial backend, so the
wrappers see them; the serial == process-pool pin makes its outputs
identical.  Pool start and worker busy share come from a process-pool
sweep in the same run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Dict, Optional

from repro.runner.core import PROCESS, SERIAL, run_sweep
from repro.runner.registry import register_scenario
from repro.runner.spec import SweepSpec
from repro.scenarios.scale import ScaleConfig, scale_cell
from repro.shard import merge, plan
from repro.sim.clock import DAY

from .common import (
    Outcome,
    children_rss_mb,
    median_rep,
    repeat,
    self_rss_mb,
    spans_path,
)
from .layers import charge, traced_metrics
from .spans import Tracer
from .wraps import install_sim

NAME = "scale-world"
SCENARIO = "scale-world"
VISITORS = 25_000
DURATION = 1 * DAY
SHARDS = 2
WORKERS = 2
MIN_REPS = 2
WARMUP_VISITORS = 2_000


def stamped_scale_cell(config: ScaleConfig) -> Dict[str, object]:
    """``scale_cell`` plus its start and end ``perf_counter`` stamps."""
    started = perf_counter()
    payload = scale_cell(config)
    payload["info"]["busy"] = [started, perf_counter()]
    return payload


@contextlib.contextmanager
def stamping():
    register_scenario(SCENARIO, ScaleConfig, stamped_scale_cell)
    try:
        yield
    finally:
        register_scenario(SCENARIO, ScaleConfig, scale_cell)


@dataclass
class Sweep:
    started: float
    wall_s: float
    first_start: float
    last_end: float
    busy_s: float
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def setup_s(self) -> float:
        return self.first_start - self.started

    @property
    def events_per_s(self) -> float:
        return self.metrics["events_processed"] / (self.last_end - self.first_start)


def sweep_spec(seed: int, visitors: int) -> SweepSpec:
    return SweepSpec(
        scenario=SCENARIO,
        base={"visitors": visitors, "duration": DURATION},
        master_seed=seed,
    )


def sweep(spec: SweepSpec, backend: str) -> Sweep:
    workers = WORKERS if backend == PROCESS else 1
    started = perf_counter()
    result = run_sweep(spec, workers=workers, backend=backend, shards=SHARDS)
    wall = perf_counter() - started
    cell = result.cells[0]
    busy = [shard["busy"] for shard in cell.info["shards"]]
    return Sweep(
        started=started,
        wall_s=wall,
        first_start=min(start for start, _ in busy),
        last_end=max(end for _, end in busy),
        busy_s=sum(end - start for start, end in busy),
        metrics=dict(cell.metrics),
    )


def pool_sweep(spec: SweepSpec) -> Sweep:
    """A process-pool sweep with its pool start and worker busy share.

    Pool start runs from the end of shard planning to the first shard
    starting in a worker: pool creation, fork and dispatch.
    """
    with Tracer() as tracer:
        tracer.wrap(plan, "shard_cell", "shard.plan")
        result = sweep(spec, PROCESS)
    planned = max(tracer.log().ends)
    result.layers = {
        "runner.pool_start_s": result.first_start - planned,
        "runner.worker_busy_frac": result.busy_s / (WORKERS * result.wall_s),
    }
    return result


def traced_sweep(spec: SweepSpec) -> Sweep:
    with Tracer() as tracer:
        profiler = install_sim(tracer)
        tracer.wrap(plan, "shard_cell", "shard.plan")
        tracer.wrap(merge, "merge_payloads", "shard.merge")
        with tracer.span("scale-world") as root:
            result = sweep(spec, SERIAL)
    metrics = result.metrics
    result.layers = {
        **charge(tracer.log().self_times()),
        "sim.events": metrics["events_processed"],
        "traffic.visitors": float(profiler.counts.get("legit-arrival", 0)),
        "web.requests": metrics["web_requests"],
        "web.log_rows": metrics["log_entries"],
        "web.log_bytes_per_row": metrics["log_store_bytes"] / metrics["log_entries"],
        "booking.holds": metrics["holds_created"],
        "trace.wall_s": tracer.log().duration(root),
    }
    result.tracer = tracer
    return result


def run(seed: int, seconds: float, trace: bool, min_reps: int = MIN_REPS,
        visitors: int = VISITORS) -> Outcome:
    spec = sweep_spec(seed, visitors)
    outcome = Outcome(NAME, metrics={})
    with stamping():
        # Pays lazy imports once, in the parent the workers fork from.
        sweep(sweep_spec(seed, WARMUP_VISITORS), SERIAL)
        if trace:
            rounds = repeat(
                seconds,
                lambda: (pool_sweep(spec), sweep(spec, SERIAL), traced_sweep(spec)),
                1,
            )
            pools = [r[0] for r in rounds]
            plain = [r[1] for r in rounds]
            traced = [r[2] for r in rounds]
            chosen = median_rep(traced, key=lambda s: s.wall_s)
            pool = {
                name: median([p.layers[name] for p in pools])
                for name in ("runner.pool_start_s", "runner.worker_busy_frac")
            }
            outcome.metrics = traced_metrics(
                {**chosen.layers, **pool},
                [s.wall_s for s in traced], [s.wall_s for s in plain],
            )
            chosen.tracer.write(spans_path(NAME))
            outcome.notes.append(
                "breakdown of a serial-backend sweep; pool start and busy "
                "share from a process-pool sweep of the same run"
            )
            reference = plain[0]
            checked = pools + plain[1:] + traced
            outcome.attempted = len(rounds) * 3
        else:
            reps = repeat(seconds, lambda: sweep(spec, PROCESS), min_reps)
            outcome.metrics = {
                "setup_s": median([r.setup_s for r in reps]),
                "wall_s": median([r.wall_s for r in reps]),
                "events_per_s": median([r.events_per_s for r in reps]),
                # The parent's high-water mark plus the largest worker's.
                "peak_rss_mb": self_rss_mb() + children_rss_mb(),
            }
            for name in ("setup_s", "wall_s", "events_per_s"):
                outcome.samples[name] = len(reps)
            outcome.samples["peak_rss_mb"] = len(reps)
            reference = sweep(spec, SERIAL)
            checked = reps
            outcome.attempted = len(reps) + 1
    for index, result in enumerate(checked):
        if result.metrics != reference.metrics:
            outcome.fail(
                f"sweep {index}: merged cell metrics differ from the "
                f"serial-backend sweep's"
            )
    outcome.notes.append(
        f"{visitors} visitors x 1 day, K={SHARDS} shards, {WORKERS} workers; "
        f"{int(reference.metrics['events_processed'])} kernel events per sweep"
    )
    return outcome
