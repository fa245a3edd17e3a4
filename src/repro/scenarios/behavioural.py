"""E11 (extension) — the Section V behavioural-detection stack.

The paper's closing recommendation: "recent work in bot detection has
explored local behavioral modeling, such as graph-based navigation
analysis and biometric indicators (e.g., mouse trajectory tracking).
These approaches could be adapted to functional abuse detection."

This scenario adapts them.  One world with legitimate traffic plus
three campaigns that defeat the conventional stack:

* an **evasive scraper** (human-paced, session-budgeted, trap-aware) —
  invisible to volume, clustering and navigation analysis;
* an **automated seat spinner** — low-volume but *teleports* straight
  to ``/hold``, which the navigation model finds improbable;
* a **manual seat spinner** — a real human, so biometrics pass, but
  their navigation is the same teleport-to-hold pattern.

Each session then gets the pointer data its actor would produce (humans
move like humans; headless bots emit nothing; the evasive scraper
replays a synthetic curve), and three detectors vote: volume,
navigation-graph, mouse-biometrics — fused with noisy-OR.

The punchline the benchmark asserts: each campaign evades at least one
behavioural detector, *no campaign evades the fusion*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.evaluation import (
    BinaryEvaluation,
    evaluate_verdicts,
    recall_by_class,
)
from ..common import LEGIT, MANUAL_SPINNER, SCRAPER, SEAT_SPINNER
from ..core.detection.fusion import FusionDetector
from ..core.detection.navigation import (
    NavigationDetector,
    NavigationDetectorConfig,
)
from ..core.detection.session_index import SessionIndex
from ..core.detection.verdict import Verdict
from ..core.detection.volume import VolumeDetector
from ..identity.biometrics import (
    BiometricDetector,
    BotMotionModel,
    HumanMotionModel,
    MouseTrajectory,
    NO_MOUSE,
    SYNTHETIC_CURVE,
)
from ..identity.forge import (
    BotIdentity,
    FingerprintForge,
    MIMICRY,
    RotationPolicy,
)
from ..identity.ip import ResidentialProxyPool
from ..sim.clock import DAY, HOUR
from ..traffic.evasive_scraper import (
    EvasiveScraperBot,
    EvasiveScraperConfig,
)
from ..traffic.legitimate import LegitimateConfig
from ..traffic.manual_spinner import ManualSeatSpinner, ManualSpinnerConfig
from ..traffic.seat_spinner import (
    FIXED_NAME_ROTATING_DOB,
    SeatSpinnerBot,
    SeatSpinnerConfig,
)
from ..web.logs import Session
from .world import (
    FlightSpec,
    World,
    WorldConfig,
    build_world,
    default_flight_schedule,
    start_legit_population,
)

SPIN_FLIGHT = "BEH-SPIN-TARGET"
MANUAL_FLIGHT = "BEH-MANUAL-TARGET"

#: Pointer-data profile per ground-truth actor class: what a client-
#: side biometric collector would capture from each.
_MOTION_BY_CLASS: Dict[str, str] = {
    LEGIT: "human",
    MANUAL_SPINNER: "human",        # a human attacker moves like one
    SCRAPER: SYNTHETIC_CURVE,       # the evasive scraper fakes curves
    SEAT_SPINNER: NO_MOUSE,         # headless automation
}


@dataclass
class BehaviouralConfig:
    """Scenario parameters."""

    seed: int = 41
    duration: float = 3 * DAY
    visitor_rate_per_hour: float = 20.0
    #: Trajectories captured per session request (capped per session).
    max_trajectories_per_session: int = 8


@dataclass
class BehaviouralRun:
    """One detector's scores in this scenario."""

    detector: str
    evaluation: BinaryEvaluation
    recall_by_class: Dict[str, float]


@dataclass
class BehaviouralResult:
    config: BehaviouralConfig
    runs: Dict[str, BehaviouralRun]
    sessions: List[Session]
    session_counts_by_class: Dict[str, int]
    world: World

    def run_for(self, detector: str) -> BehaviouralRun:
        return self.runs[detector]


def _build_world(config: BehaviouralConfig, seed: int) -> World:
    flights = default_flight_schedule(
        count=20, horizon=config.duration, capacity=200
    )
    flights.append(
        FlightSpec(SPIN_FLIGHT, config.duration + 2 * DAY, capacity=160)
    )
    flights.append(
        FlightSpec(MANUAL_FLIGHT, config.duration + 2 * DAY, capacity=160)
    )
    world = build_world(
        WorldConfig(seed=seed, flights=flights, hold_ttl=2 * HOUR)
    )
    start_legit_population(
        world,
        LegitimateConfig(visitor_rate_per_hour=config.visitor_rate_per_hour),
    )
    return world


def _add_attacks(world: World, config: BehaviouralConfig) -> None:
    EvasiveScraperBot(
        world.loop,
        world.app,
        BotIdentity(
            FingerprintForge(MIMICRY),
            RotationPolicy(),
            world.rngs.stream("evasive.identity"),
        ),
        world.rngs.stream("evasive"),
        EvasiveScraperConfig(duration=config.duration),
    ).start(at=2 * HOUR)

    SeatSpinnerBot(
        world.loop,
        world.app,
        BotIdentity(
            FingerprintForge(MIMICRY),
            RotationPolicy(mean_interval=6 * HOUR),
            world.rngs.stream("spinner.identity"),
        ),
        ResidentialProxyPool(),
        world.rngs.stream("spinner"),
        SeatSpinnerConfig(
            target_flight=SPIN_FLIGHT,
            preferred_nip=2,
            target_seats=50,
            passenger_style=FIXED_NAME_ROTATING_DOB,
            stop_before_departure=1 * DAY,
        ),
    ).start(at=2 * HOUR)

    ManualSeatSpinner(
        world.loop,
        world.app,
        world.rngs.stream("manual"),
        ManualSpinnerConfig(target_flight=MANUAL_FLIGHT),
    ).start(at=2 * HOUR)


def _simulate_pointer_data(
    session: Session,
    config: BehaviouralConfig,
    rng: random.Random,
) -> Sequence[Optional[MouseTrajectory]]:
    """Generate the pointer captures this session's actor would emit."""
    count = min(
        session.request_count, config.max_trajectories_per_session
    )
    profile = _MOTION_BY_CLASS[session.actor_class]
    if profile == "human":
        model = HumanMotionModel(rng)
        return [model.move() for _ in range(count)]
    bot = BotMotionModel(profile, rng)
    return [bot.move() for _ in range(count)]


def run_behavioural_stack(
    config: Optional[BehaviouralConfig] = None,
) -> BehaviouralResult:
    """Run the scenario and score volume / navigation / biometrics /
    fusion on the same sessions."""
    config = config or BehaviouralConfig()

    # Attack world.
    world = _build_world(config, config.seed)
    _add_attacks(world, config)
    world.run_until(config.duration)
    index = SessionIndex.from_log(world.app.log)
    sessions = index.sessions()

    # Training world: legitimate traffic only, disjoint seed — this is
    # what the navigation model learns "normal" from.
    training_world = _build_world(config, config.seed + 1000)
    training_world.run_until(config.duration)
    training_sessions = SessionIndex.from_log(
        training_world.app.log
    ).sessions()

    runs: Dict[str, BehaviouralRun] = {}

    def score(name: str, verdicts: List[Verdict]) -> List[Verdict]:
        runs[name] = BehaviouralRun(
            detector=name,
            evaluation=evaluate_verdicts(sessions, verdicts),
            recall_by_class=recall_by_class(sessions, verdicts),
        )
        return verdicts

    volume_verdicts = score(
        "volume", VolumeDetector().judge_index(index)
    )

    navigation = NavigationDetector(
        NavigationDetectorConfig(calibration_percentile=1.0)
    )
    navigation.fit(training_sessions)
    navigation_verdicts = score(
        "navigation", navigation.judge_all(sessions)
    )

    biometrics = BiometricDetector()
    pointer_rng = world.rngs.stream("pointer-capture")
    biometric_verdicts = score(
        "biometrics",
        [
            biometrics.judge_subject(
                session.session_id,
                _simulate_pointer_data(session, config, pointer_rng),
            )
            for session in sessions
        ],
    )

    fusion = FusionDetector()
    score(
        "fusion",
        fusion.fuse(
            [volume_verdicts, navigation_verdicts, biometric_verdicts]
        ),
    )

    session_counts: Dict[str, int] = {}
    for session in sessions:
        label = session.actor_class
        session_counts[label] = session_counts.get(label, 0) + 1

    return BehaviouralResult(
        config=config,
        runs=runs,
        sessions=sessions,
        session_counts_by_class=session_counts,
        world=world,
    )
