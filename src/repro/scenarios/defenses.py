"""The SMS-channel defenses of Cases C, D and E, wired once.

Each case deploys one of them; the portfolio's ``all`` posture calls
the same functions side by side (the paper's Section V point that
defenses only work layered), so the two cannot drift apart.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..common import LEGIT
from ..core.detection.surge import DestinationSurgeScorer
from ..core.mitigation.online import OnlineVerdictSink
from ..sim.clock import DAY
from ..stream import StreamAdapter, StreamPipeline
from ..web.logs import WebLog
from ..web.ratelimit import (
    RateLimitRule,
    key_by_booking_ref,
    key_by_destination,
    key_by_profile,
)
from ..web.request import BLOCKED, BOARDING_PASS_SMS, NOTIFY
from .streaming import build_stream_pipeline
from .world import World

DESTINATION_CAP_RULE = "notify-per-destination"


def install_sms_ref_limits(
    world: World,
    per_ref_limit_per_day: int,
    per_profile_limit_per_day: int,
) -> None:
    """Daily boarding-pass SMS limits per booking reference and per
    profile (the Section V recommendation)."""
    for rule_id, key_fn, limit in (
        ("bp-sms-per-booking-ref", key_by_booking_ref, per_ref_limit_per_day),
        ("bp-sms-per-profile", key_by_profile, per_profile_limit_per_day),
    ):
        world.app.ratelimits.add_rule(
            RateLimitRule(
                rule_id=rule_id,
                key_fn=key_fn,
                limit=limit,
                window=1 * DAY,
                paths=(BOARDING_PASS_SMS,),
            )
        )


def attach_record_defense(
    world: World, adapters: Sequence[StreamAdapter]
) -> StreamPipeline:
    """A streaming pipeline over ``adapters`` whose convictions block
    online (``pipeline.sink``), attached to the live web log.

    Attach it before any traffic starts: the pipeline must see the
    record stream from the first entry.
    """
    pipeline = build_stream_pipeline(
        adapters=adapters, sink=OnlineVerdictSink(world.app)
    )
    pipeline.attach(world.app.log)
    return pipeline


def schedule_destination_cap(
    world: World,
    scorer: DestinationSurgeScorer,
    limit: int,
    poll: float,
) -> List[float]:
    """Poll ``scorer`` every ``poll`` seconds; at the first open surge
    cap every destination at ``limit`` notify messages a day and stop.

    Sender blocks come from the online sink instantly; the destination
    cap is the responder's call.  Returns the list the install time is
    appended to (empty until the cap goes in).
    """
    loop = world.loop
    installed_at: List[float] = []

    def respond_to_surges() -> None:
        if scorer.surging_destinations:
            world.app.ratelimits.add_rule(
                RateLimitRule(
                    rule_id=DESTINATION_CAP_RULE,
                    key_fn=key_by_destination,
                    limit=limit,
                    window=1 * DAY,
                    paths=(NOTIFY,),
                )
            )
            installed_at.append(loop.now)
            return
        loop.schedule_in(poll, respond_to_surges)

    loop.schedule_in(poll, respond_to_surges)
    return installed_at


def legit_collateral(
    log: WebLog, convicted: Iterable[str]
) -> Tuple[int, float]:
    """Legit requests the defense blocked, and the share of legit
    fingerprints seen in ``log`` that are among ``convicted``."""
    blocked = 0
    fingerprints: set = set()
    for entry in log.iter_entries():
        if entry.client.actor_class == LEGIT:
            fingerprints.add(entry.client.fingerprint_id)
            if entry.status == BLOCKED:
                blocked += 1
    hits = len(fingerprints.intersection(convicted))
    return blocked, hits / len(fingerprints) if fingerprints else 0.0
