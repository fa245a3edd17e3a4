"""E6 — detector-family comparison on mixed traffic (Section III).

One world, four simultaneous attack campaigns plus legitimate traffic:

* a classic high-volume **scraper** (raw headless browser, datacenter
  IPs) — the attacker conventional defenses were built for;
* a low-volume **seat spinner** (mimicry fingerprints, rotating
  identity, Case B passenger pattern);
* an **SMS pumper** whose per-request geo-matched proxy exits shred
  sessionization into single-request sessions;
* a **manual seat spinner** (human cadence, genuine devices).

Six detector families judge the same logs:

1. session-volume thresholds,
2. supervised logistic regression over session features (trained on a
   disjoint world),
3. unsupervised k-means clustering,
4. fingerprint rules (artifacts + inconsistencies),
5. the paper-informed pipeline: passenger-detail heuristics for DoI
   plus booking-reference identity linking for SMS pumping,
6. the campaign graph: the other families' (mostly sub-threshold)
   scores seeded onto the entity graph and amplified into
   campaign-level convictions (:mod:`repro.graph`).

The result table is the paper's Section III argument in numbers: the
first four families catch the scraper and miss the functional-abuse
attacks; the fifth and sixth catch what the others miss — the sixth
without needing the fifth's domain-specific heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.evaluation import (
    BinaryEvaluation,
    evaluate_verdicts,
    recall_by_class,
)
from ..core.detection.classifier import LogisticSessionClassifier
from ..core.detection.clustering import ClusteringDetector
from ..core.detection.fingerprint_rules import FingerprintDetector
from ..core.detection.passenger_details import PassengerDetailAnalyzer
from ..core.detection.rotation import link_sms_records
from ..core.detection.session_index import SessionIndex
from ..core.detection.verdict import Verdict
from ..core.detection.volume import VolumeDetector
from ..graph.campaigns import Campaign
from ..graph.detector import GraphDetector, GraphDetectorConfig
from ..identity.forge import (
    BotIdentity,
    FingerprintForge,
    MIMICRY,
    RAW_HEADLESS,
    RotationPolicy,
)
from ..identity.ip import ResidentialProxyPool
from ..ml.data import build_dataset_columnar
from ..ml.detector import LearnedSessionDetector
from ..ml.train import TrainConfig, train_model
from ..sim.clock import DAY, HOUR
from ..traffic.legitimate import LegitimateConfig
from ..traffic.manual_spinner import ManualSeatSpinner, ManualSpinnerConfig
from ..traffic.scraper import ScraperBot, ScraperConfig
from ..traffic.seat_spinner import (
    FIXED_NAME_ROTATING_DOB,
    SeatSpinnerBot,
    SeatSpinnerConfig,
)
from ..traffic.sms_baseline import BaselineSmsConfig
from ..traffic.sms_pumper import SmsPumperBot, SmsPumperConfig
from ..web.logs import Session
from .world import (
    FlightSpec,
    World,
    WorldConfig,
    build_world,
    default_flight_schedule,
    start_legit_population,
    start_sms_baseline,
)

SPINNER_FLIGHT = "MIX-SPIN-TARGET"
MANUAL_FLIGHT = "MIX-MANUAL-TARGET"
PUMPER_FLIGHT = "MIX-PUMP-SETUP"


@dataclass
class DetectorComparisonConfig:
    """Mixed-traffic world parameters."""

    seed: int = 31
    duration: float = 4 * DAY
    visitor_rate_per_hour: float = 25.0
    scraper_requests_per_hour: float = 1200.0
    scraper_duration: float = 12 * HOUR
    pumper_sms_per_hour: float = 30.0
    baseline_sms_per_hour: float = 40.0


@dataclass
class DetectorRun:
    """One detector family's scores on the shared session set."""

    detector: str
    evaluation: BinaryEvaluation
    recall_by_class: Dict[str, float]


@dataclass
class DetectorComparisonResult:
    """Comparison table across detector families."""

    config: DetectorComparisonConfig
    runs: Dict[str, DetectorRun]
    sessions: List[Session]
    session_counts_by_class: Dict[str, int]
    world: World
    #: Campaigns the graph family recovered (empty for the others).
    campaigns: List[Campaign] = field(default_factory=list)

    def run_for(self, detector: str) -> DetectorRun:
        return self.runs[detector]


def _build_mixed_world(
    config: DetectorComparisonConfig, seed: int
) -> Tuple[World, SessionIndex]:
    """Stand up one mixed-traffic world and return its session index."""
    flights = default_flight_schedule(
        count=25, horizon=config.duration, capacity=200
    )
    for flight_id in (SPINNER_FLIGHT, MANUAL_FLIGHT, PUMPER_FLIGHT):
        flights.append(
            FlightSpec(
                flight_id=flight_id,
                departure_time=config.duration + 2 * DAY,
                capacity=160,
            )
        )
    world = build_world(
        WorldConfig(seed=seed, flights=flights, hold_ttl=2 * HOUR)
    )
    loop, rngs, app = world.loop, world.rngs, world.app

    start_legit_population(
        world,
        LegitimateConfig(visitor_rate_per_hour=config.visitor_rate_per_hour),
    )
    start_sms_baseline(
        world, BaselineSmsConfig(sms_per_hour=config.baseline_sms_per_hour)
    )

    ScraperBot(
        loop,
        app,
        BotIdentity(
            FingerprintForge(RAW_HEADLESS),
            RotationPolicy(mean_interval=3 * HOUR, rotate_on_block=True),
            rngs.stream("attacker.scraper.identity"),
        ),
        rngs.stream("attacker.scraper"),
        ScraperConfig(
            requests_per_hour=config.scraper_requests_per_hour,
            duration=config.scraper_duration,
        ),
    ).start(at=0.5 * DAY)

    # A *stealth* spinner: small party size, modest seat block, and a
    # 2-hour identity rotation that keeps every reconstructed session
    # down to a handful of hold requests — the low-footprint operation
    # the paper says modern DoI attackers run.
    SeatSpinnerBot(
        loop,
        app,
        BotIdentity(
            FingerprintForge(MIMICRY),
            RotationPolicy(mean_interval=2 * HOUR, rotate_on_block=True),
            rngs.stream("attacker.spinner.identity"),
        ),
        ResidentialProxyPool(),
        rngs.stream("attacker.spinner"),
        SeatSpinnerConfig(
            target_flight=SPINNER_FLIGHT,
            preferred_nip=2,
            target_seats=30,
            passenger_style=FIXED_NAME_ROTATING_DOB,
            stop_before_departure=1 * DAY,
        ),
    ).start(at=0.5 * DAY)

    ManualSeatSpinner(
        loop,
        app,
        rngs.stream("attacker.manual"),
        ManualSpinnerConfig(target_flight=MANUAL_FLIGHT),
    ).start(at=0.5 * DAY)

    SmsPumperBot(
        loop,
        app,
        BotIdentity(
            FingerprintForge(MIMICRY),
            RotationPolicy(mean_interval=5.3 * HOUR, rotate_on_block=True),
            rngs.stream("attacker.pumper.identity"),
        ),
        ResidentialProxyPool(),
        rngs.stream("attacker.pumper"),
        SmsPumperConfig(
            setup_flight=PUMPER_FLIGHT,
            sms_per_hour=config.pumper_sms_per_hour,
        ),
    ).start(at=1 * DAY)

    world.run_until(config.duration)
    return world, SessionIndex.from_log(world.app.log)


def _identity_pairs_to_verdicts(
    sessions: List[Session],
    flagged_pairs: Set[Tuple[str, str]],
    detector: str,
) -> List[Verdict]:
    """Turn a set of flagged (ip, fingerprint) identities into session
    verdicts."""
    verdicts = []
    for session in sessions:
        flagged = (
            session.ip_address,
            session.fingerprint_id,
        ) in flagged_pairs
        verdicts.append(
            Verdict(
                subject_id=session.session_id,
                detector=detector,
                score=1.0 if flagged else 0.0,
                is_bot=flagged,
                reasons=("linked-identity",) if flagged else (),
            )
        )
    return verdicts


def run_detector_comparison(
    config: Optional[DetectorComparisonConfig] = None,
) -> DetectorComparisonResult:
    """Run the mixed world and score all five detector families."""
    config = config or DetectorComparisonConfig()
    world, index = _build_mixed_world(config, config.seed)
    # Matrix families judge straight off the columnar index; Session
    # objects are materialised once for the consumers that need
    # per-entry data (evaluation, identity heuristics, the graph).
    sessions = index.sessions()

    runs: Dict[str, DetectorRun] = {}
    family_verdicts: Dict[str, List[Verdict]] = {}

    def score(name: str, verdicts: List[Verdict]) -> None:
        family_verdicts[name] = verdicts
        runs[name] = DetectorRun(
            detector=name,
            evaluation=evaluate_verdicts(sessions, verdicts),
            recall_by_class=recall_by_class(sessions, verdicts),
        )

    # 1. Volume thresholds.
    score("volume", VolumeDetector().judge_index(index))

    # 2. Supervised classifier, trained on a disjoint world.
    training_world, training_index = _build_mixed_world(
        config, config.seed + 1000
    )
    del training_world
    classifier = LogisticSessionClassifier()
    classifier.fit_matrix(training_index.matrix, training_index.is_attacker)
    score("logistic", classifier.judge_index(index))

    # 3. Unsupervised clustering.
    clustering = ClusteringDetector(
        world.rngs.numpy_stream("detector.kmeans")
    )
    score("kmeans", clustering.judge_index(index))

    # 4. Fingerprint rules: a session inherits its fingerprint's verdict.
    score(
        "fingerprint",
        FingerprintDetector().judge_index(
            index, world.app.fingerprints_seen
        ),
    )

    # 5. The paper-informed pipeline: passenger-detail heuristics plus
    #    booking-reference identity linking.
    held = [
        r for r in world.reservations.records if r.outcome == "held"
    ]
    analyzer = PassengerDetailAnalyzer()
    flagged_holds = analyzer.flagged_hold_ids(held)
    flagged_pairs: Set[Tuple[str, str]] = {
        (r.client.ip_address, r.client.fingerprint_id)
        for r in held
        if r.hold_id in flagged_holds
    }
    sms_entities = link_sms_records(
        world.sms.delivered_records(), min_cluster=10
    )
    delivered = world.sms.delivered_records()
    for entity in sms_entities:
        if not entity.rotates_identity:
            continue
        for record_index in entity.record_indices:
            record = delivered[record_index]
            flagged_pairs.add(
                (record.client.ip_address, record.client.fingerprint_id)
            )
    score(
        "abuse-pipeline",
        _identity_pairs_to_verdicts(sessions, flagged_pairs, "abuse-pipeline"),
    )

    # 6. Campaign graph: every other family's verdicts become weak
    #    seeds on the entity graph; propagation and campaign
    #    extraction turn shared infrastructure into convictions.  Seed
    #    trust mirrors each family's precision — k-means emits binary
    #    1.0 scores at a double-digit false-positive rate, so its hits
    #    seed weakly and only corroborated clusters survive.
    graph_detector = GraphDetector(
        GraphDetectorConfig(
            seed_weights={
                "volume-threshold": 0.9,
                "logistic-behaviour": 0.6,
                "kmeans-behaviour": 0.05,
                "fingerprint-rules": 0.9,
                "abuse-pipeline": 0.95,
            }
        )
    )
    seed_verdicts = [
        verdict
        for family in (
            "volume",
            "logistic",
            "kmeans",
            "fingerprint",
            "abuse-pipeline",
        )
        for verdict in family_verdicts[family]
    ]
    score(
        "campaign-graph",
        graph_detector.judge_all(
            sessions,
            bookings=world.reservations.records,
            sms=world.sms.delivered_records(),
            seed_verdicts=seed_verdicts,
        ),
    )

    # 7. The learned arm (repro.ml): the MLP rung of the model ladder,
    #    trained on the same disjoint world as the logistic family but
    #    class-weighted and with its threshold calibrated on the
    #    training world's legitimate sessions.  ~25% of the training
    #    rows are the pumper's single-request sessions — bot-labelled
    #    but featureless, so the weighted loss never converges on them
    #    (training accuracy plateaus near 0.57); the long epoch budget
    #    is what lets the six scraper rows carve out their island
    #    against that irreducible mass.
    learned_train = train_model(
        build_dataset_columnar(training_index, with_truth=True),
        TrainConfig(model="mlp", master_seed=config.seed, epochs=4000),
    )
    score(
        "learned",
        LearnedSessionDetector(learned_train.model).judge_index(index),
    )

    session_counts: Dict[str, int] = {}
    for session in sessions:
        label = session.actor_class
        session_counts[label] = session_counts.get(label, 0) + 1

    return DetectorComparisonResult(
        config=config,
        runs=runs,
        sessions=sessions,
        session_counts_by_class=session_counts,
        world=world,
        campaigns=graph_detector.campaigns,
    )
