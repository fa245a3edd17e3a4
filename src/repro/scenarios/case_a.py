"""Case A — Seat Spinning on Airline A (paper Section IV-A, Fig. 1).

Three simulated weeks:

* **week 1** — the average week: legitimate traffic only;
* **week 2** — the attack week: an automated seat spinner holds a block
  of the target flight at its preferred NiP (6), re-holding on every
  expiry, with no NiP limitation in place;
* **week 3** — the mitigation week: the defender caps NiP at 4 (the
  paper's temporary restriction); the attacker probes the cap and
  continues at NiP 4; legitimate groups above the cap re-book at 4.

Throughout weeks 2-3 the mitigation controller hunts the attacker's
fingerprints and deploys block rules; the attacker rotates past each
one, reproducing the 5.3 h arms race.  The attack stops
``stop_before_departure`` (2 days) before the flight leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.distributions import nip_counts, nip_shares
from ..core.detection.rotation import LinkedEntity, link_booking_records
from ..core.mitigation.blocking import RuleEffectiveness
from ..core.mitigation.controller import (
    ControllerConfig,
    MitigationAction,
    MitigationController,
)
from ..core.mitigation.policies import NipCapPolicy
from ..common import SEAT_SPINNER
from ..identity.forge import (
    BotIdentity,
    FingerprintForge,
    MIMICRY,
    RotationPolicy,
)
from ..identity.ip import ResidentialProxyPool
from ..sim.clock import DAY, HOUR, WEEK
from ..traffic.legitimate import AVERAGE_WEEK_NIP_MIXTURE, LegitimateConfig
from ..traffic.seat_spinner import (
    FIXED_NAME_ROTATING_DOB,
    GIBBERISH,
    SeatSpinnerBot,
    SeatSpinnerConfig,
)
from .world import (
    FlightSpec,
    World,
    WorldConfig,
    build_world,
    default_flight_schedule,
    start_legit_population,
)

TARGET_FLIGHT = "AirlineA-TARGET"


@dataclass
class CaseAConfig:
    """Scenario parameters (defaults reproduce the paper's setting)."""

    seed: int = 7
    visitor_rate_per_hour: float = 12.0
    #: Arrival-gap block size for the vectorized traffic generators;
    #: the run is bit-identical for any value (1 = scalar reference).
    arrival_block_size: int = 256
    #: Seat-hold duration ("30 minutes to several hours" in the paper).
    #: Because the attacker re-holds in waves synchronised on the TTL,
    #: this also sets the cadence of the rotation arms race.
    hold_ttl: float = 5 * HOUR
    target_capacity: int = 200
    #: Seats the attacker tries to keep held on the target flight.
    attacker_target_seats: int = 120
    preferred_nip: int = 6
    passenger_style: str = GIBBERISH
    attack_start: float = 1 * WEEK
    #: Scripted NiP cap (the paper's temporary restriction); None
    #: disables the mitigation entirely (ablation mode).
    cap_at: Optional[float] = 2 * WEEK
    cap_value: int = 4
    #: Fingerprint-block arms race on/off.
    controller_enabled: bool = True
    controller_interval: float = 1 * HOUR
    controller_window: float = 6 * HOUR
    holds_per_fingerprint_threshold: int = 5
    #: Attacker rotation policy.
    rotation_mean_interval: Optional[float] = None
    rotate_on_block: bool = True
    #: Departure set so the attack's 2-day stop margin lands just past
    #: the third Fig. 1 week.
    departure_time: float = 3 * WEEK + 2.5 * DAY
    stop_before_departure: float = 2 * DAY
    honeypot_mode: bool = False


def evasive_case_a_config(
    seed: int, ticks_short: bool = False, stealth: bool = False
) -> CaseAConfig:
    """A compressed Case A for the graph and learned experiments.

    No mitigation (pure detection); the spinner rotates identity on a
    timer with the Case B fixed-lead-passenger style, the name side
    channel the graph links across rotations.  ``stealth`` is the
    Section IV-A low-NiP attacker (party size 2, faster rotation);
    ``ticks_short`` compresses the timeline for smoke runs.
    """
    params: Dict[str, object] = dict(
        seed=seed,
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
    if stealth:
        params.update(
            preferred_nip=2,
            attacker_target_seats=40,
            rotation_mean_interval=2 * HOUR,
        )
    if ticks_short:
        params.update(
            visitor_rate_per_hour=5.0,
            target_capacity=120,
            attacker_target_seats=30 if stealth else 60,
            attack_start=0.5 * DAY,
            departure_time=3 * DAY,
            stop_before_departure=0.5 * DAY,
        )
    return CaseAConfig(**params)


@dataclass
class CaseAResult:
    """Everything the Fig. 1 / Case A benchmarks assert on."""

    config: CaseAConfig
    #: NiP share dicts for (average, attack, post-cap) weeks.
    week_shares: Tuple[Dict[int, float], ...]
    week_counts: Tuple[Dict[int, int], ...]
    cap_applied_at: Optional[float]
    attacker_holds_created: int
    attacker_rotations: int
    attacker_blocks_encountered: int
    attacker_nip_adaptations: List[Tuple[float, int]]
    attacker_final_nip: int
    last_attack_hold_time: Optional[float]
    departure_time: float
    rule_effectiveness: List[RuleEffectiveness]
    mean_rule_window: Optional[float]
    #: Defender-side rotation estimate from the identity linker.
    linked_entity: Optional[LinkedEntity]
    controller_timeline: List[MitigationAction]
    legit_holds_total: int
    target_availability_end: int
    #: Seats on the target flight actually sold to legitimate customers
    #: — the quantity a DoI attack suppresses and a honeypot restores.
    target_legit_confirmed_seats: int
    shadow_seats_absorbed: int
    proxy_pool: ResidentialProxyPool
    world: World
    bot: SeatSpinnerBot

    @property
    def measured_rotation_interval(self) -> Optional[float]:
        """Mean time between attacker fingerprint rotations over the
        attack's lifetime — the statistic the paper reports as 5.3 h."""
        if self.attacker_rotations == 0 or self.last_attack_hold_time is None:
            return None
        span = self.last_attack_hold_time - self.config.attack_start
        return span / self.attacker_rotations


def case_a_cell(config: CaseAConfig) -> Dict[str, object]:
    """Picklable sweep-cell entry point for Case A.

    A pure function of ``config`` returning only plain data — scalar
    ``metrics``, a JSON-able ``info`` dict, and the world's metrics
    ``recorder`` snapshot — so :mod:`repro.runner` can run it in a
    worker process and ship the result back across the pickle boundary
    (a full :class:`CaseAResult` holds the event loop and is not
    picklable).
    """
    from ..economics.reports import attacker_seat_seconds

    result = run_case_a(config)
    displaced = attacker_seat_seconds(
        result.world.reservations, TARGET_FLIGHT
    )
    attempts = (
        result.attacker_holds_created + result.attacker_blocks_encountered
    )
    interval = result.measured_rotation_interval
    return {
        "metrics": {
            "attacker_holds_created": float(result.attacker_holds_created),
            "attacker_rotations": float(result.attacker_rotations),
            "attacker_blocks_encountered": float(
                result.attacker_blocks_encountered
            ),
            "blocked_fraction": (
                result.attacker_blocks_encountered / attempts
                if attempts
                else 0.0
            ),
            "rules_deployed": float(len(result.rule_effectiveness)),
            "attacker_seat_hours": displaced.attacker_seat_hours,
            "legit_holds_total": float(result.legit_holds_total),
            "target_availability_end": float(
                result.target_availability_end
            ),
            "target_legit_confirmed_seats": float(
                result.target_legit_confirmed_seats
            ),
            "attacker_final_nip": float(result.attacker_final_nip),
            "measured_rotation_interval": (
                interval if interval is not None else 0.0
            ),
        },
        "info": {
            "week_counts": [
                {str(nip): count for nip, count in week.items()}
                for week in result.week_counts
            ],
            "cap_applied_at": result.cap_applied_at,
            "last_attack_hold_time": result.last_attack_hold_time,
        },
        "recorder": result.world.metrics.snapshot(),
    }


def run_case_a(
    config: Optional[CaseAConfig] = None,
    on_world: Optional[Callable[[World], None]] = None,
) -> CaseAResult:
    """Run the full three-week Case A scenario."""
    config = config or CaseAConfig()

    flights = default_flight_schedule(
        count=40, horizon=config.departure_time, capacity=220
    )
    flights.append(
        FlightSpec(
            flight_id=TARGET_FLIGHT,
            departure_time=config.departure_time,
            capacity=config.target_capacity,
        )
    )
    world = build_world(
        WorldConfig(
            seed=config.seed,
            flights=flights,
            hold_ttl=config.hold_ttl,
        ),
        on_world=on_world,
    )
    loop, rngs, app = world.loop, world.rngs, world.app

    start_legit_population(
        world,
        LegitimateConfig(
            visitor_rate_per_hour=config.visitor_rate_per_hour,
            arrival_block_size=config.arrival_block_size,
        ),
    )

    proxy_pool = ResidentialProxyPool()
    identity = BotIdentity(
        FingerprintForge(MIMICRY),
        RotationPolicy(
            mean_interval=config.rotation_mean_interval,
            rotate_on_block=config.rotate_on_block,
        ),
        rngs.stream("attacker.identity"),
    )
    bot = SeatSpinnerBot(
        loop,
        app,
        identity,
        proxy_pool,
        rngs.stream("attacker.spinner"),
        SeatSpinnerConfig(
            target_flight=TARGET_FLIGHT,
            preferred_nip=config.preferred_nip,
            target_seats=config.attacker_target_seats,
            passenger_style=config.passenger_style,
            stop_before_departure=config.stop_before_departure,
        ),
    )
    bot.start(at=config.attack_start)

    controller: Optional[MitigationController] = None
    if config.controller_enabled:
        controller = MitigationController(
            loop,
            app,
            ControllerConfig(
                interval=config.controller_interval,
                window=config.controller_window,
                baseline_nip=AVERAGE_WEEK_NIP_MIXTURE,
                # The NiP cap is scripted below to keep the Fig. 1 week
                # boundaries crisp; the controller handles fingerprints.
                enable_nip_cap=False,
                holds_per_fingerprint_threshold=(
                    config.holds_per_fingerprint_threshold
                ),
                honeypot_mode=config.honeypot_mode,
            ),
        )
        controller.start(at=1 * HOUR)

    cap_applied_at: List[float] = []
    if config.cap_at is not None:
        cap_time = config.cap_at

        def apply_cap() -> None:
            NipCapPolicy(config.cap_value).apply(app)
            cap_applied_at.append(loop.now)

        loop.schedule_at(cap_time, apply_cap, label="scripted-nip-cap")

    world.run_until(config.departure_time)

    # -- harvest ------------------------------------------------------------

    records = world.reservations.records
    week_counts = tuple(
        nip_counts(records, start, start + WEEK)
        for start in (0.0, WEEK, 2 * WEEK)
    )
    week_shares = tuple(nip_shares(counts) for counts in week_counts)

    attack_records = [
        r
        for r in records
        if r.outcome == "held" and r.client.actor_class == SEAT_SPINNER
    ]
    last_attack = max((r.time for r in attack_records), default=None)
    legit_holds = sum(
        1
        for r in records
        if r.outcome == "held" and not r.client.is_attacker
    )

    # Defender-side identity linking over the target flight's holds
    # during the attack window.
    window_records = [
        r
        for r in records
        if r.outcome == "held"
        and r.flight_id == TARGET_FLIGHT
        and r.time >= config.attack_start
    ]
    entities = link_booking_records(window_records, min_cluster=5)
    linked = entities[0] if entities else None

    effectiveness: List[RuleEffectiveness] = []
    mean_window: Optional[float] = None
    timeline: List[MitigationAction] = []
    shadow_seats = 0
    if controller is not None:
        effectiveness = controller.blocks.effectiveness()
        mean_window = controller.blocks.mean_effective_window()
        timeline = controller.timeline
        shadow_seats = controller.honeypot.shadow_seats_absorbed()

    return CaseAResult(
        config=config,
        week_shares=week_shares,
        week_counts=week_counts,
        cap_applied_at=cap_applied_at[0] if cap_applied_at else None,
        attacker_holds_created=bot.holds_created,
        attacker_rotations=identity.rotations,
        attacker_blocks_encountered=bot.blocks_encountered,
        attacker_nip_adaptations=list(bot.nip_adaptations),
        attacker_final_nip=bot.current_nip,
        last_attack_hold_time=last_attack,
        departure_time=config.departure_time,
        rule_effectiveness=effectiveness,
        mean_rule_window=mean_window,
        linked_entity=linked,
        controller_timeline=timeline,
        legit_holds_total=legit_holds,
        target_availability_end=world.reservations.availability(
            TARGET_FLIGHT
        ),
        target_legit_confirmed_seats=sum(
            hold.nip
            for hold in world.reservations.holds.all_holds()
            if hold.flight_id == TARGET_FLIGHT
            and hold.status == "confirmed"
            and not hold.client.is_attacker
        ),
        shadow_seats_absorbed=shadow_seats,
        proxy_pool=proxy_pool,
        world=world,
        bot=bot,
    )
