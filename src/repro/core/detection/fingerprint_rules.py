"""Knowledge-based (fingerprint) detection.

The paper's Section III-B pipeline: collect client fingerprints, flag
automation artifacts (``navigator.webdriver``, headless UA, empty
plugin lists) and cross-attribute inconsistencies (Safari on Windows,
touch on desktop, ...), and turn confirmed-bad fingerprints into edge
block rules.

Its documented weakness — the reason the paper's attacks succeed — is
also modelled: a mimicry-level fingerprint trips neither check, and a
rotating attacker invalidates any fingerprint-id block within hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from ...identity.fingerprint import (
    Fingerprint,
    automation_artifacts,
    consistency_check,
)
from ...web.request import Request
from .verdict import Verdict


@dataclass(frozen=True)
class FingerprintWeights:
    """Scoring weights for the two signal classes."""

    artifact_weight: float = 0.6
    inconsistency_weight: float = 0.35
    threshold: float = 0.3


class FingerprintDetector:
    """Scores individual fingerprints on artifacts + inconsistencies.

    Subjects are fingerprint ids, except for :meth:`judge_index`, which
    maps the verdicts onto session ids.
    """

    name = "fingerprint-rules"

    def __init__(
        self, weights: FingerprintWeights = FingerprintWeights()
    ) -> None:
        self.weights = weights

    def judge(self, fingerprint: Fingerprint) -> Verdict:
        artifacts = automation_artifacts(fingerprint)
        inconsistencies = consistency_check(fingerprint)
        score = min(
            len(artifacts) * self.weights.artifact_weight
            + len(inconsistencies) * self.weights.inconsistency_weight,
            1.0,
        )
        return Verdict(
            subject_id=fingerprint.fingerprint_id,
            detector=self.name,
            score=score,
            is_bot=score >= self.weights.threshold,
            reasons=tuple(artifacts) + tuple(inconsistencies),
        )

    def judge_all(
        self, fingerprints: Iterable[Fingerprint]
    ) -> List[Verdict]:
        return [self.judge(fingerprint) for fingerprint in fingerprints]

    def judge_index(
        self, index, fingerprints_seen: Dict[str, Fingerprint]
    ) -> List[Verdict]:
        """Session-level verdicts for a :class:`~repro.core.detection.
        session_index.SessionIndex`: each session inherits its
        fingerprint's rule verdict (unseen fingerprints are clean)."""
        # Fingerprints repeat across sessions; judge each digest once.
        judged: Dict[str, bool] = {}
        verdicts = []
        for session_id, fingerprint_id in zip(
            index.session_ids, index.fingerprints
        ):
            is_bot = judged.get(fingerprint_id)
            if is_bot is None:
                fingerprint = fingerprints_seen.get(fingerprint_id)
                is_bot = (
                    fingerprint is not None
                    and self.judge(fingerprint).is_bot
                )
                judged[fingerprint_id] = is_bot
            verdicts.append(
                Verdict(
                    subject_id=session_id,
                    detector=self.name,
                    score=1.0 if is_bot else 0.0,
                    is_bot=is_bot,
                )
            )
        return verdicts

    def flagged_ids(
        self, fingerprints_seen: Dict[str, Fingerprint]
    ) -> List[str]:
        """Fingerprint ids (from an edge collection) judged as bots."""
        return [
            fingerprint_id
            for fingerprint_id, fingerprint in fingerprints_seen.items()
            if self.judge(fingerprint).is_bot
        ]


def block_by_fingerprint_id(
    fingerprint_id: str,
) -> Callable[[Request], bool]:
    """Edge predicate blocking one exact fingerprint id.

    The narrowest possible rule — and the one a rotating attacker
    escapes the moment they re-forge (the 5.3 h effectiveness window
    measured in Case A).
    """

    def predicate(request: Request) -> bool:
        return request.client.fingerprint_id == fingerprint_id

    return predicate


def block_by_attribute_combo(
    reference: Fingerprint,
    attributes: Optional[List[str]] = None,
) -> Callable[[Request], bool]:
    """Edge predicate blocking fingerprints matching a salient attribute
    combination of ``reference``.

    Broader than an exact-id block — survives rotations that only
    change minor attributes — at the price of potential collateral
    damage on genuine users sharing the combination.
    """
    selected = attributes or [
        "browser",
        "os",
        "screen_width",
        "screen_height",
        "canvas_hash",
    ]
    expected = {name: getattr(reference, name) for name in selected}

    def predicate(request: Request) -> bool:
        fingerprint = request.fingerprint
        if fingerprint is None:
            return False
        return all(
            getattr(fingerprint, name) == value
            for name, value in expected.items()
        )

    return predicate


def block_by_ip(ip_address: str) -> Callable[[Request], bool]:
    """Edge predicate blocking one exact IP address."""

    def predicate(request: Request) -> bool:
        return request.client.ip_address == ip_address

    return predicate


def block_by_booking_ref(booking_ref: str) -> Callable[[Request], bool]:
    """Edge predicate blocking requests that cite one booking reference.

    The anti-rotation block for SMS pumping: the attacker can swap
    fingerprints and exits at will, but the booking references that
    anchor the campaign are finite and cannot be re-forged without
    buying more tickets.
    """

    def predicate(request: Request) -> bool:
        return request.params.get("booking_ref") == booking_ref

    return predicate


def block_datacenter_asns(asns: Iterable[int]) -> Callable[[Request], bool]:
    """Edge predicate blocking non-residential clients (IP-intel rule)."""
    del asns  # reserved for finer-grained variants

    def predicate(request: Request) -> bool:
        return not request.client.ip_residential

    return predicate
