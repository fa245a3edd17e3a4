"""``case-a``: the paper's Case A end to end, then one batch detection pass.

The scenario runs at its default :class:`CaseAConfig` (three simulated
weeks: baseline, attack, NiP cap) with only the seed changed.  The
detection pass over its log is wired as ``run_graph_case`` wires it:
``SessionIndex.from_log``, the volume, k-means and fingerprint
families, session fusion, ``GraphDetector.judge_all`` seeded from the
families, then fusion with the graph family.

Output checks: the NiP cap is applied at its scheduled time, the
attacker rotated and was blocked, and every repetition (same seed)
yields the same fused-verdict digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.core.detection.clustering import ClusteringDetector
from repro.core.detection.fingerprint_rules import FingerprintDetector
from repro.core.detection.fusion import DEFAULT_WEIGHTS, FusionDetector
from repro.core.detection.session_index import SessionIndex
from repro.core.detection.verdict import Verdict
from repro.core.detection.volume import VolumeDetector
from repro.graph.campaigns import CAMPAIGN_DETECTOR
from repro.graph.detector import GraphDetector, GraphDetectorConfig
from repro.scenarios.case_a import CaseAConfig, run_case_a
from repro.scenarios.graph_case import SEED_WEIGHTS, GraphCaseConfig
from repro.sim.clock import DAY

from .common import Outcome, median_rep, repeat, self_rss_mb, spans_path
from .layers import charge, traced_metrics
from .spans import Tracer, untimed
from .wraps import install_batch_graph, install_sim

NAME = "case-a"
MIN_REPS = 3


def warmup_config(seed: int) -> CaseAConfig:
    """Four simulated days through the same code paths: run once
    before timing, so that lazy imports and first-call costs are paid
    outside the measured reps."""
    return CaseAConfig(
        seed=seed,
        visitor_rate_per_hour=5.0,
        attack_start=1 * DAY,
        cap_at=2 * DAY,
        departure_time=5 * DAY,
        target_capacity=120,
        attacker_target_seats=60,
    )


def fingerprint_verdicts(world, index: SessionIndex) -> List[Verdict]:
    """Each session inherits its fingerprint's rule verdict."""
    detector = FingerprintDetector()
    judged: Dict[str, bool] = {}
    verdicts = []
    for session_id, fingerprint_id in zip(index.session_ids, index.fingerprints):
        is_bot = judged.get(fingerprint_id)
        if is_bot is None:
            fingerprint = world.app.fingerprints_seen.get(fingerprint_id)
            is_bot = fingerprint is not None and detector.judge(fingerprint).is_bot
            judged[fingerprint_id] = is_bot
        verdicts.append(
            Verdict(
                subject_id=session_id,
                detector=detector.name,
                score=1.0 if is_bot else 0.0,
                is_bot=is_bot,
            )
        )
    return verdicts


@dataclass
class Detection:
    fused: List[Verdict]
    detector: GraphDetector
    sessions: int


def detect(world, span: Callable = untimed) -> Detection:
    """One batch detection pass over the world's log."""
    with span("detect.features"):
        index = SessionIndex.from_log(world.app.log)
        sessions = index.sessions()
    with span("detect.family.volume"):
        volume = VolumeDetector().judge_index(index)
    with span("detect.family.kmeans"):
        kmeans = ClusteringDetector(
            world.rngs.numpy_stream("detector.kmeans")
        ).judge_index(index)
    with span("detect.family.fingerprint"):
        fingerprint = fingerprint_verdicts(world, index)
    families = [volume, kmeans, fingerprint]
    with span("detect.fusion"):
        FusionDetector().fuse(families)
    detector = GraphDetector(GraphDetectorConfig(seed_weights=dict(SEED_WEIGHTS)))
    with span("graph.judge_all"):
        graph_verdicts = detector.judge_all(
            sessions,
            bookings=world.reservations.records,
            sms=world.sms.delivered_records(),
            seed_verdicts=[v for family in families for v in family],
        )
    with span("detect.fusion"):
        fused = FusionDetector(
            weights={
                **DEFAULT_WEIGHTS,
                CAMPAIGN_DETECTOR: GraphCaseConfig().graph_fusion_weight,
            }
        ).fuse(families + [graph_verdicts])
    return Detection(fused=fused, detector=detector, sessions=len(sessions))


def digest(detection: Detection) -> str:
    """SHA-256 over the fused verdicts and the graph's campaigns."""
    canonical = json.dumps(
        {
            "fused": [
                [v.subject_id, v.detector, v.score, v.is_bot, list(v.reasons)]
                for v in detection.fused
            ],
            "campaigns": [
                [c.campaign_id, c.risk] for c in detection.detector.campaigns
            ],
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    events_per_s: float
    digest: str
    errors: List[str] = field(default_factory=list)
    #: Per-layer metrics, traced reps only.
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None


def check(config: CaseAConfig, result) -> List[str]:
    """The Case A invariants this benchmark relies on."""
    errors = []
    if config.cap_at is None or result.cap_applied_at != config.cap_at:
        errors.append(
            f"NiP cap applied at {result.cap_applied_at}, "
            f"scheduled for {config.cap_at}"
        )
    if result.attacker_rotations <= 0:
        errors.append("attacker never rotated")
    if result.attacker_blocks_encountered <= 0:
        errors.append("attacker was never blocked")
    return errors


def once(config: CaseAConfig, tracer: Optional[Tracer] = None) -> Rep:
    """Simulate and detect once; with ``tracer``, record spans and
    derive the per-layer breakdown."""
    span = untimed if tracer is None else tracer.span
    marks: Dict[str, float] = {}

    def on_world(world) -> None:
        marks["built"] = perf_counter()

    root = tracer.open("case-a") if tracer is not None else None
    started = perf_counter()
    result = run_case_a(config, on_world=on_world)
    simulated = perf_counter()
    detection = detect(result.world, span)
    finished = perf_counter()
    if tracer is not None:
        tracer.close(root)
    world = result.world
    rep = Rep(
        setup_s=marks["built"] - started,
        wall_s=finished - started,
        events_per_s=world.loop.events_processed / (simulated - marks["built"]),
        digest=digest(detection),
        errors=check(config, result),
    )
    if tracer is not None:
        analysis = detection.detector.last_analysis
        log = world.app.log
        store = getattr(log, "_store", None)
        rep.layers = {
            **charge(tracer.log().self_times()),
            "sim.events": float(world.loop.events_processed),
            "traffic.visitors": float(
                world.loop.profiler.counts.get("legit-arrival", 0)
            ),
            "web.requests": world.metrics.counter("web.requests"),
            "web.log_rows": float(len(log)),
            "web.log_bytes_per_row": (
                store.nbytes() / len(log) if store is not None and len(log) else 0.0
            ),
            "booking.holds": world.metrics.counter("booking.holds_created"),
            "mitigation.blocks": float(len(result.rule_effectiveness)),
            "detect.sessions": float(detection.sessions),
            "graph.nodes": float(analysis.graph.node_count),
            "graph.edges": float(analysis.graph.edge_count),
            "graph.propagate_rounds": float(analysis.propagation.rounds),
            "trace.wall_s": tracer.log().duration(root),
        }
        rep.tracer = tracer
    return rep


def traced_once(config: CaseAConfig) -> Rep:
    with Tracer() as tracer:
        install_sim(tracer)
        install_batch_graph(tracer)
        return once(config, tracer)


def run(seed: int, seconds: float, trace: bool, min_reps: int = MIN_REPS,
        config: Optional[CaseAConfig] = None) -> Outcome:
    config = config or CaseAConfig(seed=seed)
    outcome = Outcome(NAME, metrics={})
    once(warmup_config(seed))
    if trace:
        pairs = repeat(
            seconds, lambda: (once(config), traced_once(config)), min_reps
        )
        plain = [pair[0] for pair in pairs]
        traced = [pair[1] for pair in pairs]
        chosen = median_rep(traced, key=lambda rep: rep.wall_s)
        outcome.metrics = traced_metrics(
            chosen.layers, [r.wall_s for r in traced], [r.wall_s for r in plain]
        )
        chosen.tracer.write(spans_path(NAME))
        outcome.notes.append(
            f"traced reps {len(traced)}, untraced reps {len(plain)}; "
            f"breakdown of the median traced rep"
        )
        reps = plain + traced
    else:
        reps = repeat(seconds, lambda: once(config), min_reps)
        outcome.metrics = {
            "setup_s": median([r.setup_s for r in reps]),
            "wall_s": median([r.wall_s for r in reps]),
            "events_per_s": median([r.events_per_s for r in reps]),
            "peak_rss_mb": self_rss_mb(),
        }
        for name in ("setup_s", "wall_s", "events_per_s"):
            outcome.samples[name] = len(reps)
        outcome.samples["peak_rss_mb"] = 1
    outcome.attempted = len(reps)
    reference = reps[0].digest
    for index, rep in enumerate(reps):
        errors = list(rep.errors)
        if rep.digest != reference:
            errors.append(
                f"rep {index} fused-verdict digest {rep.digest[:12]} "
                f"differs from rep 0's {reference[:12]}"
            )
        if errors:
            outcome.fail(f"rep {index}: " + "; ".join(errors))
    outcome.notes.append(f"fused-verdict digest {reference[:16]}")
    return outcome
