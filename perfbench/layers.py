"""Layers, their per-layer metrics, and what each should move.

:data:`SPAN_METRIC` names the per-layer time metric each span's self
time is charged to.  Spans not listed (the scenario harness, the
benchmark's own loop, ``DetectionService.ingest`` bookkeeping) fall
into ``unattributed_s``, which is what makes every traced breakdown
sum to its traced wall time.

:data:`LAYER_MAP` is the layer -> end-to-end metric -> workload map:
which end-to-end metric a change to a layer should move, and on which
workload.  On every workload not listed for a layer, the prediction is
no change.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Sequence, Tuple

#: Span name -> per-layer metric charged with the span's self time.
SPAN_METRIC: Dict[str, str] = {
    "sim.run": "sim.dispatch_self_s",
    "traffic.legit": "traffic.legit_s",
    "traffic.attacker": "traffic.attacker_s",
    "web.handle": "web.handle_self_s",
    "booking.hold": "booking.hold_s",
    "mitigation.controller": "mitigation.controller_s",
    "detect.features": "detect.features_s",
    "detect.family.volume": "detect.family.volume_s",
    "detect.family.kmeans": "detect.family.kmeans_s",
    "detect.family.fingerprint": "detect.family.fingerprint_s",
    "detect.fusion": "detect.fusion_s",
    # GraphDetector.judge_all's own work is seeding the graph it just
    # built, so it is charged to graph build.
    "graph.judge_all": "graph.build_s",
    "graph.build": "graph.build_s",
    "graph.compile": "graph.compile_s",
    "graph.propagate": "graph.propagate_s",
    "graph.campaigns": "graph.campaigns_s",
    "graph.refresh": "graph.refresh_s",
    "stream.process": "stream.adapters_s",
    "stream.finish": "stream.adapters_s",
    "stream.sessionize": "stream.sessionize_s",
    "stream.fusion": "stream.fusion_s",
    "serve.codec": "serve.codec_s",
    "serve.journal": "serve.journal_s",
    "serve.checkpoint": "serve.snapshot_s",
    "serve.snapshot": "serve.snapshot_s",
    "serve.views": "serve.views_s",
    "serve.finish": "serve.finish_s",
    "shard.plan": "shard.plan_s",
    "shard.merge": "shard.merge_s",
}

#: Per-layer time metrics that are *not* shares of the traced wall:
#: the traced wall itself, and pool start, which only exists on the
#: process backend (the traced scale-world sweep runs serially).
NOT_SUMMED = ("trace.wall_s", "runner.pool_start_s")

#: Sim event labels of the legitimate population and of the defender;
#: every other actor's steps are attacker traffic.
LEGIT_LABELS = frozenset({"legit-arrival", "visitor", "legit-population.step"})
MITIGATION_LABELS = frozenset(
    {"mitigation-controller.step", "scripted-nip-cap"}
)


def categorize_label(label: str) -> str:
    if label in LEGIT_LABELS:
        return "traffic.legit"
    if label in MITIGATION_LABELS:
        return "mitigation.controller"
    return "traffic.attacker"


#: layer -> (its per-layer metrics, the (end-to-end metric, workload)
#: pairs a change to it should move).
LAYER_MAP: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]] = {
    "sim": (
        ("sim.events", "sim.dispatch_self_s"),
        (("events_per_s", "scale-world"), ("events_per_s", "case-a")),
    ),
    "traffic": (
        ("traffic.visitors", "traffic.legit_s", "traffic.attacker_s"),
        (("events_per_s", "scale-world"), ("events_per_s", "case-a")),
    ),
    "web": (
        ("web.requests", "web.handle_self_s", "web.log_rows",
         "web.log_bytes_per_row"),
        (("wall_s", "scale-world"), ("wall_s", "case-a"),
         ("peak_rss_mb", "scale-world")),
    ),
    "booking": (
        ("booking.holds", "booking.hold_s"),
        (("wall_s", "case-a"),),
    ),
    "core.mitigation": (
        ("mitigation.controller_s", "mitigation.blocks"),
        (("wall_s", "case-a"),),
    ),
    "core.detection": (
        ("detect.sessions", "detect.features_s", "detect.family.volume_s",
         "detect.family.kmeans_s", "detect.family.fingerprint_s",
         "detect.fusion_s"),
        (("wall_s", "case-a"),),
    ),
    "graph (batch)": (
        ("graph.nodes", "graph.edges", "graph.build_s", "graph.compile_s",
         "graph.propagate_s", "graph.propagate_rounds", "graph.campaigns_s"),
        (("wall_s", "case-a"),),
    ),
    "graph (stream)": (
        ("graph.refreshes", "graph.refresh_s", "graph.refresh_cost_growth",
         "graph.refresh_useful_frac"),
        (("events_per_s", "serve-ingest"), ("wall_s", "serve-ingest")),
    ),
    "stream": (
        ("stream.entries", "stream.sessions_closed", "stream.sessionize_s",
         "stream.adapters_s", "stream.fusion_s"),
        (("events_per_s", "serve-ingest"),),
    ),
    "serve": (
        ("serve.codec_s", "serve.journal_s", "serve.http_s",
         "serve.checkpoints", "serve.snapshot_s", "serve.snapshot_bytes",
         "serve.views_s", "serve.finish_s", "serve.ack_p50_ms",
         "serve.ack_p90_ms", "serve.query_p50_ms", "serve.query_p75_ms"),
        (("events_per_s", "serve-ingest"), ("wall_s", "serve-ingest"),
         ("peak_rss_mb", "serve-ingest")),
    ),
    "shard / runner": (
        ("shard.plan_s", "shard.merge_s", "runner.pool_start_s",
         "runner.worker_busy_frac"),
        (("setup_s", "scale-world"), ("wall_s", "scale-world")),
    ),
    "(remainder)": (("unattributed_s",), ()),
    "(tracing)": (("trace.wall_s", "trace.overhead_frac"), ()),
}


def layer_metric_names() -> List[str]:
    return [name for metrics, _ in LAYER_MAP.values() for name in metrics]


def charge(self_time: Dict[str, float]) -> Dict[str, float]:
    """Fold per-span self times into per-layer time metrics; spans
    with no layer are returned under ``unattributed_s``."""
    out: Dict[str, float] = {"unattributed_s": 0.0}
    for name, seconds in self_time.items():
        metric = SPAN_METRIC.get(name, "unattributed_s")
        out[metric] = out.get(metric, 0.0) + seconds
    return out


def traced_metrics(
    layers: Dict[str, float],
    traced_walls: Sequence[float],
    plain_walls: Sequence[float],
) -> Dict[str, float]:
    """Every per-layer metric: ``layers`` over zeros for the layers the
    workload does not exercise, plus the tracing overhead (median
    traced wall over median untraced wall, minus one)."""
    metrics = {name: 0.0 for name in layer_metric_names()}
    metrics.update(layers)
    metrics["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    return metrics
