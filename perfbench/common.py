"""Shared plumbing: metric spec, statistics, memory, scratch space and
the result line every workload prints."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the metric names and units this run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99), inclusive interpolation."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_rss_mb() -> float:
    """This process's high-water RSS in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """The largest waited-for child process's high-water RSS in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        parent = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(parent, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=parent)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run's directory is still there


def spans_path(workload: str) -> str:
    """Where a traced run writes its spans."""
    directory = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{workload}-spans.tsv")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    #: Metric name -> value; end-to-end metrics on an untraced run,
    #: per-layer metrics on a traced one.
    metrics: Dict[str, float]
    #: Metric name -> how many samples the value summarises.
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Output-check failures, one line each.
    errors: List[str] = field(default_factory=list)
    #: Extra human-readable lines (workload-specific figures).
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def fail(self, message: str) -> None:
        """Record one failed operation and why."""
        self.failed += 1
        self.errors.append(message)


def emit(outcome: Outcome, names: Sequence[Dict[str, str]]) -> str:
    """Print the human-readable table, then the JSON result line.

    ``names`` are the ``BENCHMARK.json`` metric entries this run must
    report; a missing one is a harness bug and raises.
    """
    lines = [f"workload {outcome.workload}"]
    metrics = {}
    for entry in names:
        name, unit = entry["name"], entry["unit"]
        value = float(outcome.metrics[name])
        metrics[name] = {"value": value, "unit": unit}
        count = outcome.samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        lines.append(f"  {name:<32} {value:>16.6f} {unit}{suffix}")
    lines.extend(f"  {note}" for note in outcome.notes)
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    lines.append(
        f"  failed_frac {failed_frac:.4f} "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    for error in outcome.errors:
        lines.append(f"  CHECK FAILED: {error}")
    print("\n".join(lines), flush=True)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    print(line, flush=True)
    return line


def repeat(seconds: float, once, min_reps: int) -> list:
    """Call ``once()`` until ``seconds`` have passed and at least
    ``min_reps`` calls are done.  Garbage from the previous call is
    collected before the next starts, outside its timing."""
    results = []
    started = perf_counter()
    while len(results) < min_reps or perf_counter() - started < seconds:
        gc.collect()
        results.append(once())
    return results


def median_rep(reps: list, key) -> object:
    """The rep whose ``key`` is the (lower) median."""
    ordered = sorted(reps, key=key)
    return ordered[(len(ordered) - 1) // 2]
