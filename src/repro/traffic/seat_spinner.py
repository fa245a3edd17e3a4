"""The automated Seat Spinning (Denial of Inventory) bot.

Implements the attacker of Sections IV-A and IV-B:

* keeps as many of the target flight's seats as possible under hold,
  re-holding "as soon as the temporary hold on the previous one
  expired";
* chooses a preferred NiP below the maximum "possibly to avoid
  triggering an immediate anomaly detection alert", and *adapts* when a
  NiP cap rejects it;
* rotates fingerprint and IP on a timer and reactively after blocks
  (the 5.3 h arms race);
* fills passenger details in one of the styles observed in the wild:
  gibberish, fixed-name-with-rotating-birthdate, or plausible mimicry;
* ceases activity a configurable margin before departure (the paper's
  attack stopped two days out).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..booking.passengers import (
    Passenger,
    sample_birthdate,
    sample_genuine_passenger,
    sample_gibberish_passenger,
)
from ..booking.reservation import (
    REJECT_DEPARTED,
    REJECT_NIP_CAP,
    REJECT_NO_INVENTORY,
)
from ..common import SEAT_SPINNER
from ..identity.forge import BotIdentity
from ..identity.ip import IpAddress
from ..sim.clock import DAY, MINUTE
from ..sim.events import EventLoop
from ..sim.process import Process
from ..web.application import WebApplication
from ..web.request import (
    BLOCKED,
    CAPTCHA_FAILED,
    CAPTCHA_SOLVER,
    HOLD,
    RATE_LIMITED,
    Request,
)
from .clients import make_client

# Passenger-detail styles (Section IV-B).
GIBBERISH = "gibberish"
FIXED_NAME_ROTATING_DOB = "fixed-name-rotating-dob"
PLAUSIBLE = "plausible"

_STYLES = (GIBBERISH, FIXED_NAME_ROTATING_DOB, PLAUSIBLE)


@dataclass
class SeatSpinnerConfig:
    """Attack parameters for one Seat Spinning campaign."""

    target_flight: str
    preferred_nip: int = 6
    #: Seats the bot tries to keep held (None = the whole flight).
    target_seats: Optional[int] = None
    passenger_style: str = GIBBERISH
    poll_interval: float = 5 * MINUTE
    #: Maximum hold attempts per step (burst control).
    burst: int = 8
    stop_before_departure: float = 2 * DAY
    #: Consecutive fully-blocked steps before giving up entirely.
    give_up_after_blocked_steps: int = 0  # 0 = never give up

    def __post_init__(self) -> None:
        if self.preferred_nip < 1:
            raise ValueError(
                f"preferred_nip must be >= 1: {self.preferred_nip}"
            )
        if self.passenger_style not in _STYLES:
            raise ValueError(
                f"unknown passenger style {self.passenger_style!r}; "
                f"expected one of {_STYLES}"
            )
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1: {self.burst}")


class SeatSpinnerBot(Process):
    """Automated inventory-hoarding bot against one flight."""

    def __init__(
        self,
        loop: EventLoop,
        app: WebApplication,
        identity: BotIdentity,
        ip_pool,
        rng: random.Random,
        config: SeatSpinnerConfig,
        name: str = "seat-spinner",
    ) -> None:
        super().__init__(loop, name=name)
        self.app = app
        self.identity = identity
        self.ip_pool = ip_pool
        self.config = config
        self._rng = rng
        self.ip: IpAddress = ip_pool.lease(rng)
        self.current_nip = config.preferred_nip
        #: (hold_id, nip, expires_at) for holds the bot believes it owns.
        self._owned: List[Tuple[str, int, float]] = []
        self.holds_created = 0
        self.blocks_encountered = 0
        self.rate_limits_encountered = 0
        self.nip_adaptations: List[Tuple[float, int]] = []
        self._blocked_steps = 0
        # Fixed lead passenger for the rotating-birthdate style.
        lead = sample_genuine_passenger(rng)
        self._fixed_lead_name = (lead.first_name, lead.last_name)
        self._companion_pool = [
            (p.first_name, p.last_name)
            for p in (sample_genuine_passenger(rng) for _ in range(4))
        ]

    # -- identity -----------------------------------------------------------

    def _client(self):
        return make_client(
            self.ip,
            self.identity.fingerprint,
            actor=self.name,
            actor_class=SEAT_SPINNER,
        )

    # -- passenger fabrication -------------------------------------------------

    def _make_party(self, nip: int) -> List[Passenger]:
        style = self.config.passenger_style
        if style == GIBBERISH:
            return [sample_gibberish_passenger(self._rng) for _ in range(nip)]
        if style == PLAUSIBLE:
            return [sample_genuine_passenger(self._rng) for _ in range(nip)]
        # Fixed lead name, systematically rotated birthdate; companions
        # reuse a small overlapping name pool (the Case B pattern).
        first, last = self._fixed_lead_name
        party = [
            Passenger(
                first_name=first,
                last_name=last,
                birthdate=sample_birthdate(self._rng),
                email=f"{first.lower()}.{last.lower()}@mailbox.example",
            )
        ]
        for _ in range(nip - 1):
            c_first, c_last = self._rng.choice(self._companion_pool)
            party.append(
                Passenger(
                    first_name=c_first,
                    last_name=c_last,
                    birthdate=sample_birthdate(self._rng),
                    email=f"{c_first.lower()}.{c_last.lower()}@mailbox.example",
                )
            )
        return party

    # -- main loop ----------------------------------------------------------------

    def step(self) -> Optional[float]:
        now = self.loop.now
        try:
            flight = self.app.reservations.flight(self.config.target_flight)
        except KeyError:
            return None
        if now >= flight.departure_time - self.config.stop_before_departure:
            return None  # attack window closed

        # Timed rotation, independent of blocks.
        if self.identity.maybe_rotate(now, was_blocked=False):
            self.ip = self.ip_pool.lease(self._rng)

        self._owned = [
            entry for entry in self._owned if entry[2] > now
        ]
        held = sum(nip for _, nip, _ in self._owned)
        target = self.config.target_seats
        if target is None:
            target = flight.capacity

        step_fully_blocked = True
        attempts = 0
        while held < target and attempts < self.config.burst:
            attempts += 1
            outcome, gained = self._attempt_hold()
            if outcome == "held":
                held += gained
                step_fully_blocked = False
            elif outcome == REJECT_NO_INVENTORY:
                step_fully_blocked = False
                break  # flight is fully committed; wait for expiries
            elif outcome == REJECT_NIP_CAP:
                continue  # adapted NiP; retry immediately
            elif outcome == REJECT_DEPARTED:
                return None
            elif outcome in ("blocked", "rate-limited", "captcha-failed"):
                continue  # rotated (or not); retry within the burst
            else:
                step_fully_blocked = False
                break
        if attempts == 0:
            step_fully_blocked = False

        if step_fully_blocked:
            self._blocked_steps += 1
            give_up = self.config.give_up_after_blocked_steps
            if give_up and self._blocked_steps >= give_up:
                return None
        else:
            self._blocked_steps = 0

        return self._next_delay(now)

    def _next_delay(self, now: float) -> float:
        """Wake at the next owned-hold expiry (plus jitter) or the poll
        interval, whichever comes first."""
        delay = self.config.poll_interval
        if self._owned:
            next_expiry = min(expires for _, _, expires in self._owned)
            delay = min(delay, max(next_expiry - now, 1.0))
        return delay + self._rng.uniform(0.5, 5.0)

    def _attempt_hold(self) -> Tuple[str, int]:
        """One hold attempt; returns (outcome, seats gained)."""
        nip = self.current_nip
        party = self._make_party(nip)
        request = Request(
            method="POST",
            path=HOLD,
            client=self._client(),
            params={
                "flight_id": self.config.target_flight,
                "passengers": party,
            },
            fingerprint=self.identity.fingerprint,
            captcha_ability=CAPTCHA_SOLVER,
        )
        response = self.app.handle(request)
        now = self.loop.now

        if response.ok:
            hold = response.data
            self._owned.append((hold.hold_id, hold.nip, hold.expires_at))
            self.holds_created += 1
            return "held", hold.nip

        if response.status == BLOCKED:
            self.blocks_encountered += 1
            if self.identity.maybe_rotate(now, was_blocked=True):
                self.ip = self.ip_pool.lease(self._rng)
            return "blocked", 0
        if response.status == RATE_LIMITED:
            self.rate_limits_encountered += 1
            if self.identity.maybe_rotate(now, was_blocked=True):
                self.ip = self.ip_pool.lease(self._rng)
            return "rate-limited", 0
        if response.status == CAPTCHA_FAILED:
            return "captcha-failed", 0

        if response.outcome == REJECT_NIP_CAP:
            # Reconnaissance: fall back to the largest accepted party.
            self.current_nip = max(self.current_nip - 1, 1)
            self.nip_adaptations.append((now, self.current_nip))
            return REJECT_NIP_CAP, 0
        return response.outcome, 0

    @property
    def seats_currently_held(self) -> int:
        now = self.loop.now
        return sum(nip for _, nip, expires in self._owned if expires > now)
