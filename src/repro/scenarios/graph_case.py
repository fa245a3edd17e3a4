"""Graph-vs-session fusion on the rotated case-study campaigns.

The acceptance experiment for :mod:`repro.graph`: run a case study
whose attacker rotates identity (Case A's seat spinner on a mimicry
forge, Case C's geo-matched SMS pumper), score the same sessions with
two fusion arms, and compare them campaign-for-campaign:

* **session arm** — volume thresholds, k-means clustering and
  fingerprint rules fused per session.  Rotation keeps every
  reconstructed session under each family's radar, so the fused
  scores stay weak too;
* **graph arm** — the *same* family verdicts, plus
  :class:`~repro.graph.detector.GraphDetector` convictions fused in.
  The graph family seeds those weak scores onto the entity graph,
  where shared infrastructure (passenger names, booking references,
  subnets) amplifies them into campaign convictions.

Both arms share the session-level detector verdicts, so any
false-positive difference is attributable to the graph family alone.
The pinned acceptance property (``repro graph case-a``, and the
``graph-smoke`` CI job): the graph arm's campaign recall is strictly
higher than the session arm's at a same-or-lower false-positive rate,
and at least one recovered campaign spans multiple fingerprints —
the defeat-rotation claim in one assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.evaluation import (
    BinaryEvaluation,
    CampaignEvaluation,
    campaign_recall_from_verdicts,
    evaluate_campaigns,
    evaluate_verdicts,
)
from ..core.detection.clustering import ClusteringDetector
from ..core.detection.fingerprint_rules import FingerprintDetector
from ..core.detection.fusion import DEFAULT_WEIGHTS, FusionDetector
from ..core.detection.session_index import SessionIndex
from ..core.detection.verdict import Verdict
from ..core.detection.volume import VolumeDetector
from ..graph.campaigns import CAMPAIGN_DETECTOR, Campaign
from ..graph.detector import GraphDetector, GraphDetectorConfig
from ..sim.clock import DAY, HOUR
from ..traffic.seat_spinner import FIXED_NAME_ROTATING_DOB
from ..web.logs import Session
from .world import World

CASE_A = "case-a"
CASE_C = "case-c"

#: Cases the graph experiment knows how to stand up.
GRAPH_CASES: Tuple[str, ...] = (CASE_A, CASE_C)

#: Graph-seed trust per detector family, keyed by the *verdict* name
#: each family emits.  Mirrors the fusion weights except k-means,
#: whose binary 1.0 scores at a double-digit false-positive rate make
#: it a hint, not evidence.
SEED_WEIGHTS: Dict[str, float] = {
    "volume-threshold": 0.9,
    "kmeans-behaviour": 0.05,
    "fingerprint-rules": 0.9,
}


@dataclass
class GraphCaseConfig:
    """Parameters for one graph-vs-session comparison run."""

    seed: int = 7
    case: str = CASE_A
    #: Compressed timeline for smoke/CI runs (same code paths, a few
    #: seconds of wall clock).
    ticks_short: bool = False
    #: Fusion trust for campaign-graph verdicts in the graph arm.
    graph_fusion_weight: float = 0.95
    #: Share of a true campaign's sessions that must be flagged for
    #: the campaign to count as recovered (both arms, same bar).
    coverage_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.case not in GRAPH_CASES:
            raise ValueError(
                f"unknown graph case {self.case!r}; expected {GRAPH_CASES}"
            )


@dataclass
class ArmResult:
    """One fusion arm's session- and campaign-level scores."""

    arm: str
    verdicts: List[Verdict]
    evaluation: BinaryEvaluation
    #: Campaign recall achievable from these per-session verdicts.
    campaign_recall: float


@dataclass
class GraphCaseResult:
    """Both arms plus the graph family's campaign-level evaluation."""

    config: GraphCaseConfig
    case_config: object
    sessions: List[Session]
    session_arm: ArmResult
    graph_arm: ArmResult
    campaigns: List[Campaign]
    campaign_evaluation: CampaignEvaluation
    detector: GraphDetector
    world: World

    @property
    def multi_fingerprint_campaigns(self) -> List[Campaign]:
        """Recovered campaigns spanning >1 fingerprint — the ones
        per-session detection structurally cannot assemble."""
        return [
            campaign
            for campaign in self.campaigns
            if len(campaign.fingerprint_ids) > 1
        ]


def _case_a_config(config: GraphCaseConfig):
    """A compressed Case A tuned for campaign detection, not Fig. 1.

    Mitigation is disabled (no controller, no NiP cap) so the arms
    compare pure detection; the spinner rotates on a timer instead,
    and uses the Case B fixed-lead-passenger style so the graph has
    the paper's passenger-name side channel to link across rotations.
    """
    from .case_a import CaseAConfig

    params: Dict[str, object] = dict(
        seed=config.seed,
        visitor_rate_per_hour=8.0,
        target_capacity=160,
        attacker_target_seats=80,
        preferred_nip=4,
        passenger_style=FIXED_NAME_ROTATING_DOB,
        attack_start=1 * DAY,
        cap_at=None,
        controller_enabled=False,
        rotation_mean_interval=3 * HOUR,
        departure_time=6 * DAY,
        stop_before_departure=1 * DAY,
    )
    if config.ticks_short:
        params.update(
            visitor_rate_per_hour=5.0,
            target_capacity=120,
            attacker_target_seats=60,
            attack_start=0.5 * DAY,
            departure_time=3 * DAY,
            stop_before_departure=0.5 * DAY,
        )
    return CaseAConfig(**params)


def _case_c_config(config: GraphCaseConfig):
    """A compressed unprotected Case C (clean pumping measurement)."""
    from .case_c import CaseCConfig

    params: Dict[str, object] = dict(
        seed=config.seed,
        baseline_weekly_total=9_600,
        attack_start=2 * DAY,
        duration=5 * DAY,
    )
    if config.ticks_short:
        params.update(
            baseline_weekly_total=4_800,
            attack_start=1 * DAY,
            duration=3 * DAY,
        )
    return CaseCConfig(**params)


def _run_case(config: GraphCaseConfig) -> Tuple[object, World]:
    """Stand up the configured case study; return (case config, world)."""
    if config.case == CASE_A:
        from .case_a import run_case_a

        case_config = _case_a_config(config)
        return case_config, run_case_a(case_config).world
    from .case_c import run_case_c

    case_config = _case_c_config(config)
    return case_config, run_case_c(case_config).world


def _timed(obs: Optional[object], family: str, run: Callable[[], List[Verdict]]):
    """Run one detector family under a ``detect.family.<name>`` timer."""
    if obs is None:
        return run()
    with obs.timer(f"detect.family.{family}").time():
        return run()


def session_arm(
    world: World, index: SessionIndex, obs: Optional[object] = None
) -> List[List[Verdict]]:
    """The session-level families on one index: volume thresholds,
    k-means clustering and fingerprint rules, each under its
    ``detect.family.<name>`` timer when ``obs`` is given."""
    kmeans = ClusteringDetector(world.rngs.numpy_stream("detector.kmeans"))
    return [
        _timed(
            obs, "volume-threshold",
            lambda: VolumeDetector().judge_index(index),
        ),
        _timed(obs, "kmeans-behaviour", lambda: kmeans.judge_index(index)),
        _timed(
            obs, "fingerprint-rules",
            lambda: FingerprintDetector().judge_index(
                index, world.app.fingerprints_seen
            ),
        ),
    ]


def run_graph_case(
    config: Optional[GraphCaseConfig] = None,
    obs: Optional[object] = None,
) -> GraphCaseResult:
    """Run one case study and score both fusion arms on its sessions."""
    config = config or GraphCaseConfig()
    case_config, world = _run_case(config)
    # One columnar pass sessionizes the log and extracts every feature
    # vector; the matrix families judge straight off it and Session
    # objects are materialised once, only for the consumers that need
    # per-entry data (graph builder, evaluation).
    index = SessionIndex.from_log(world.app.log, obs=obs)
    sessions = index.sessions()

    # Shared session-level families — identical inputs to both arms.
    base_families = session_arm(world, index, obs)

    session_fused = FusionDetector().fuse(base_families)
    session_result = ArmResult(
        arm="session-fusion",
        verdicts=session_fused,
        evaluation=evaluate_verdicts(sessions, session_fused),
        campaign_recall=campaign_recall_from_verdicts(
            sessions, session_fused, config.coverage_threshold
        ),
    )

    detector = GraphDetector(
        GraphDetectorConfig(seed_weights=dict(SEED_WEIGHTS)), obs=obs
    )
    graph_verdicts = detector.judge_all(
        sessions,
        bookings=world.reservations.records,
        sms=world.sms.delivered_records(),
        seed_verdicts=[v for family in base_families for v in family],
    )
    graph_fused = FusionDetector(
        weights={
            **DEFAULT_WEIGHTS,
            CAMPAIGN_DETECTOR: config.graph_fusion_weight,
        }
    ).fuse(base_families + [graph_verdicts])
    graph_arm = ArmResult(
        arm="graph-fusion",
        verdicts=graph_fused,
        evaluation=evaluate_verdicts(sessions, graph_fused),
        campaign_recall=campaign_recall_from_verdicts(
            sessions, graph_fused, config.coverage_threshold
        ),
    )

    campaigns = detector.campaigns
    return GraphCaseResult(
        config=config,
        case_config=case_config,
        sessions=sessions,
        session_arm=session_result,
        graph_arm=graph_arm,
        campaigns=campaigns,
        campaign_evaluation=evaluate_campaigns(
            sessions, campaigns, config.coverage_threshold
        ),
        detector=detector,
        world=world,
    )


def graph_case_cell(config: GraphCaseConfig) -> Dict[str, object]:
    """Picklable sweep-cell entry point (plain data only)."""
    result = run_graph_case(config)
    detection_times = list(
        result.campaign_evaluation.time_to_detection.values()
    )
    propagation = (
        result.detector.last_analysis.propagation
        if result.detector.last_analysis is not None
        else None
    )
    return {
        "metrics": {
            "session_fpr": result.session_arm.evaluation.false_positive_rate,
            "session_recall": result.session_arm.evaluation.recall,
            "session_campaign_recall": result.session_arm.campaign_recall,
            "graph_fpr": result.graph_arm.evaluation.false_positive_rate,
            "graph_recall": result.graph_arm.evaluation.recall,
            "graph_campaign_recall": result.graph_arm.campaign_recall,
            "campaigns_found": float(len(result.campaigns)),
            "multi_fingerprint_campaigns": float(
                len(result.multi_fingerprint_campaigns)
            ),
            "campaign_precision": (
                result.campaign_evaluation.campaign_precision
            ),
            "campaign_level_recall": (
                result.campaign_evaluation.campaign_recall
            ),
            "mean_time_to_detection_hours": (
                sum(detection_times) / len(detection_times) / HOUR
                if detection_times
                else -1.0
            ),
            "propagation_rounds": (
                float(propagation.rounds) if propagation is not None else 0.0
            ),
        },
        "info": {
            "case": config.case,
            "campaigns": [
                {
                    "campaign_id": campaign.campaign_id,
                    "risk": campaign.risk,
                    "sessions": len(campaign.session_ids),
                    "fingerprints": len(campaign.fingerprint_ids),
                }
                for campaign in result.campaigns
            ],
        },
        "recorder": result.world.metrics.snapshot(),
        # Plain-data graph view so shard/worker merges can union the
        # per-shard entity graphs (EntityGraph.merge_snapshot).
        "graph": (
            result.detector.last_analysis.graph.snapshot(
                include_spans=True
            )
            if result.detector.last_analysis is not None
            else {}
        ),
    }


def graph_case_a_cell(config: GraphCaseConfig) -> Dict[str, object]:
    return graph_case_cell(replace(config, case=CASE_A))


def graph_case_c_cell(config: GraphCaseConfig) -> Dict[str, object]:
    return graph_case_cell(replace(config, case=CASE_C))
