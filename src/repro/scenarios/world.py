"""World construction: one airline platform wired end to end.

Every scenario and benchmark starts from :func:`build_world`, which
assembles the substrates around a single deterministic event loop:
reservation system, SMS gateway + telco network, and the web
application edge.  :func:`start_legit_population` and
:func:`start_sms_baseline` start the two background-traffic processes
on their fixed RNG stream names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..booking.flight import Flight
from ..booking.reservation import ReservationSystem
from ..sim.clock import DAY, HOUR, WEEK
from ..sim.events import EventLoop
from ..sim.metrics import MetricsRecorder
from ..sim.rng import RngRegistry
from ..sms.gateway import SmsGateway
from ..sms.telco import LocalCarrier, TelcoNetwork
from ..traffic.legitimate import LegitimateConfig, LegitimatePopulation
from ..traffic.sms_baseline import BaselineSmsConfig, BaselineSmsTraffic
from ..web.application import WebApplication


@dataclass(frozen=True)
class FlightSpec:
    """One flight to create in the world."""

    flight_id: str
    departure_time: float
    capacity: int = 180
    airline: str = "AirlineA"
    origin: str = "NCE"
    destination: str = "CDG"


def default_flight_schedule(
    count: int = 40,
    horizon: float = 4 * WEEK,
    capacity: int = 200,
    airline: str = "AirlineA",
) -> List[FlightSpec]:
    """An evenly spread schedule departing *after* the horizon, so
    background flights never sell out mid-scenario."""
    return [
        FlightSpec(
            flight_id=f"{airline}-{index:03d}",
            departure_time=horizon + DAY + index * (6 * HOUR),
            capacity=capacity,
            airline=airline,
        )
        for index in range(count)
    ]


@dataclass
class WorldConfig:
    """Everything needed to stand up one airline platform."""

    seed: int = 0
    flights: Optional[List[FlightSpec]] = None
    hold_ttl: float = 2 * HOUR
    max_nip: int = 9
    sms_weekly_quota: Optional[int] = None
    #: Countries whose terminating carrier colludes with attackers,
    #: with the revenue share kicked back per termination fee.
    colluding_countries: Tuple[str, ...] = ()
    attacker_revenue_share: float = 0.5


@dataclass
class World:
    """A fully wired platform plus its RNG registry."""

    loop: EventLoop
    rngs: RngRegistry
    metrics: MetricsRecorder
    reservations: ReservationSystem
    telco: TelcoNetwork
    sms: SmsGateway
    app: WebApplication

    @property
    def now(self) -> float:
        return self.loop.now

    def run_until(self, until: float) -> None:
        self.loop.run_until(until)
        self.reservations.expire_due()


def build_world(
    config: WorldConfig,
    on_world: Optional[Callable[[World], None]] = None,
) -> World:
    """Assemble all substrates around one event loop.

    ``on_world`` runs on the finished world before any actor starts —
    the hook streaming consumers (trace capture, the online detection
    pipeline, profilers) use to attach to ``world.app.log``.  Every
    ``run_case_*`` passes its own ``on_world`` straight through.
    """
    loop = EventLoop()
    rngs = RngRegistry(config.seed)
    metrics = MetricsRecorder()

    reservations = ReservationSystem(
        loop.clock,
        metrics=metrics,
        hold_ttl=config.hold_ttl,
        max_nip=config.max_nip,
    )
    flights = (
        config.flights
        if config.flights is not None
        else default_flight_schedule()
    )
    for spec in flights:
        reservations.add_flight(
            Flight(
                flight_id=spec.flight_id,
                airline=spec.airline,
                origin=spec.origin,
                destination=spec.destination,
                departure_time=spec.departure_time,
                capacity=spec.capacity,
            )
        )

    telco = TelcoNetwork()
    for country in config.colluding_countries:
        telco.register_carrier(
            LocalCarrier(
                carrier_id=f"shady-{country.lower()}",
                country_code=country,
                colluding=True,
                attacker_revenue_share=config.attacker_revenue_share,
            )
        )
    sms = SmsGateway(
        loop.clock,
        telco=telco,
        metrics=metrics,
        weekly_quota=config.sms_weekly_quota,
    )
    app = WebApplication(
        loop.clock,
        reservations,
        sms,
        rngs.stream("web.app"),
        metrics=metrics,
    )
    world = World(
        loop=loop,
        rngs=rngs,
        metrics=metrics,
        reservations=reservations,
        telco=telco,
        sms=sms,
        app=app,
    )
    if on_world is not None:
        on_world(world)
    return world


def start_legit_population(
    world: World, config: LegitimateConfig
) -> LegitimatePopulation:
    """Legitimate visitors on the ``traffic.legit[.arrivals]`` streams,
    started at t=0."""
    population = LegitimatePopulation(
        world.loop,
        world.app,
        world.rngs.stream("traffic.legit"),
        config,
        arrival_rng=world.rngs.numpy_stream("traffic.legit.arrivals"),
    )
    population.start(at=0.0)
    return population


def start_sms_baseline(
    world: World, config: BaselineSmsConfig
) -> BaselineSmsTraffic:
    """Legitimate SMS traffic on the ``traffic.sms-baseline[.arrivals]``
    streams, started at t=0."""
    traffic = BaselineSmsTraffic(
        world.loop,
        world.app,
        world.rngs.stream("traffic.sms-baseline"),
        config,
        arrival_rng=world.rngs.numpy_stream("traffic.sms-baseline.arrivals"),
    )
    traffic.start(at=0.0)
    return traffic
