"""Campaign extraction over the risk-thresholded graph.

A *campaign* is what per-session detection cannot see: the set of
sessions, fingerprints and infrastructure one operation spreads its
traffic across.  Extraction works core-out:

1. the **core** is every infrastructure node (fingerprint, IP,
   passenger name, booking reference, phone) whose propagated risk
   clears ``risk_threshold`` — these are where diffusion concentrates,
   because one shared identity unions evidence from many sessions;
2. connected components run over the core *only* — never through hub
   kinds (target flights, /24 subnets), and never through sessions.
   Raw components would merge every legitimate customer of a targeted
   flight into the attacker's cluster through the shared flight node;
3. each component then **attaches** the sessions adjacent to its core
   (the traffic the infrastructure carried), and is kept if at least
   ``min_sessions`` attach.

The campaign's risk combines the core's evidence channels noisy-OR
style: for each infrastructure kind present in the core, take the
maximum propagated score, then combine across kinds — a cluster whose
fingerprints, IPs *and* recurring passenger names all amplified is
more damning than any one channel alone.  That combined risk is the
score member sessions inherit: a member is convicted for belonging to
a collectively damning operation, not for its own behaviour.

Each :class:`Campaign` carries the temporal-coherence and identity-
churn statistics that :class:`~repro.core.detection.rotation.LinkedEntity`
pioneered (distinct fingerprints/IPs, activity span, mean rotation
interval), generalised from booking records to the whole entity graph.

:class:`CampaignVerdict` bridges into the existing detection stack: a
campaign-level :class:`~repro.core.detection.verdict.Verdict`
(``campaign:<id>`` subject) for campaign-scale mitigation, plus one
per-member-session verdict that feeds
:class:`~repro.core.detection.fusion.FusionDetector` exactly like any
other detector family's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.detection.verdict import Verdict
from .builder import EntityGraph
from .propagation import CompiledGraph, PropagationResult, compile_graph
from .entities import (
    BOOKING_REF,
    FINGERPRINT,
    FLIGHT,
    IP,
    NAME_KEY,
    PHONE,
    SESSION,
    SUBNET,
    EntityId,
)

#: Detector name attached to campaign-derived verdicts.
CAMPAIGN_DETECTOR = "campaign-graph"

#: Subject-id namespace for campaign-level verdicts.
CAMPAIGN_SUBJECT_PREFIX = "campaign:"

#: Propagated scores: the sweep's result or any node -> score map.
Scores = Union[PropagationResult, Mapping[EntityId, float]]

#: Node kinds eligible for the campaign core (shared infrastructure).
CORE_KINDS: Tuple[str, ...] = (
    FINGERPRINT,
    IP,
    NAME_KEY,
    BOOKING_REF,
    PHONE,
)

#: Device/address kinds that need corroboration to enter the core: a
#: fingerprint or IP can inherit a hot score from a *single* shared
#: identity node (a passenger-name collision with the attacker's fixed
#: names, a NAT'd exit address), which is coincidence, not linkage.
DEVICE_KINDS: Tuple[str, ...] = (FINGERPRINT, IP)


@dataclass(frozen=True)
class CampaignConfig:
    """Extraction thresholds.

    ``risk_threshold`` gates which infrastructure nodes enter the
    core; ``hub_kinds`` (flights, subnets) exist for propagation only
    and are never members nor connectors; ``min_sessions`` drops cores
    whose attached traffic is too small to call a campaign.
    """

    risk_threshold: float = 0.25
    min_sessions: int = 3
    hub_kinds: Tuple[str, ...] = (FLIGHT, SUBNET)
    #: Risky neighbours a device node (fingerprint/IP) must have to
    #: enter the core when it carries no direct seed evidence of its
    #: own.  One hot neighbour means the device's score was relayed
    #: down a single channel — a name collision, a shared NAT exit —
    #: while real campaign devices tie together several risky nodes.
    min_device_corroboration: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.risk_threshold < 1.0:
            raise ValueError(
                f"risk_threshold must be in (0, 1): {self.risk_threshold}"
            )
        if self.min_sessions < 1:
            raise ValueError(
                f"min_sessions must be >= 1: {self.min_sessions}"
            )
        if self.min_device_corroboration < 1:
            raise ValueError(
                "min_device_corroboration must be >= 1: "
                f"{self.min_device_corroboration}"
            )


@dataclass(frozen=True)
class Campaign:
    """One recovered operation: a risky infrastructure core plus the
    sessions it carried."""

    campaign_id: str
    #: Core infrastructure nodes plus attached session nodes, sorted.
    members: Tuple[EntityId, ...]
    #: Noisy-OR over the core's per-kind maximum propagated scores.
    risk: float
    first_seen: float
    last_seen: float

    def _values(self, kind: str) -> Tuple[str, ...]:
        return tuple(
            member.value for member in self.members if member.kind == kind
        )

    @property
    def session_ids(self) -> Tuple[str, ...]:
        return self._values(SESSION)

    @property
    def fingerprint_ids(self) -> Tuple[str, ...]:
        return self._values(FINGERPRINT)

    @property
    def ip_addresses(self) -> Tuple[str, ...]:
        return self._values(IP)

    @property
    def name_keys(self) -> Tuple[str, ...]:
        return self._values(NAME_KEY)

    @property
    def booking_refs(self) -> Tuple[str, ...]:
        return self._values(BOOKING_REF)

    @property
    def phone_numbers(self) -> Tuple[str, ...]:
        return self._values(PHONE)

    @property
    def session_count(self) -> int:
        return len(self.session_ids)

    @property
    def distinct_fingerprints(self) -> int:
        return len(self.fingerprint_ids)

    @property
    def distinct_ips(self) -> int:
        return len(self.ip_addresses)

    @property
    def span(self) -> float:
        return self.last_seen - self.first_seen

    @property
    def rotates_identity(self) -> bool:
        """More than one fingerprint for one logical operation."""
        return self.distinct_fingerprints > 1

    @property
    def mean_rotation_interval(self) -> float:
        """Estimated time between fingerprint rotations (the paper's
        5.3 h statistic).  Infinity when no rotation was observed."""
        if self.distinct_fingerprints <= 1:
            return float("inf")
        return self.span / (self.distinct_fingerprints - 1)


@dataclass(frozen=True)
class CampaignVerdict:
    """A campaign plus its verdict forms.

    ``verdict`` judges the campaign itself (subject
    ``campaign:<id>``) — the input to campaign-level mitigation.
    ``member_verdicts`` judge each member session with the campaign's
    risk — the fan-out that feeds :class:`FusionDetector` so graph
    evidence combines with per-session detector families.
    """

    campaign: Campaign
    verdict: Verdict
    member_verdicts: Tuple[Verdict, ...]


def _campaign_risk(
    core: Sequence[int], nodes: Sequence[EntityId], vector: np.ndarray
) -> float:
    """Noisy-OR across the core's evidence channels.

    Each infrastructure kind contributes its best-amplified node; the
    channels combine like independent evidence (fusion's convention).
    A rotated campaign whose fingerprints, IPs and recurring names all
    lit up scores far above any single channel.
    """
    per_kind: Dict[str, float] = {}
    for i in core:
        kind = nodes[i].kind
        score = float(vector[i])
        if score > per_kind.get(kind, 0.0):
            per_kind[kind] = score
    survival = 1.0
    for score in per_kind.values():
        survival *= 1.0 - min(max(score, 0.0), 1.0)
    return 1.0 - survival


def _corroborated(
    compiled: CompiledGraph,
    i: int,
    vector: np.ndarray,
    seeds: Mapping[EntityId, float],
    config: CampaignConfig,
) -> bool:
    """Whether a device node's risk is multi-channel, not one relay.

    Counts risky neighbours.  Hub kinds never corroborate (a hot
    target flight must not vouch for every device that touched it),
    and a session neighbour counts only on its *seed* evidence — its
    propagated score includes backflow from this very device, so a
    single name collision would otherwise vouch for itself through
    the device's own session.
    """
    hot = 0
    nodes = compiled.nodes
    for j in compiled.neighbor_positions(i).tolist():
        neighbor = nodes[j]
        if neighbor.kind in config.hub_kinds:
            continue
        evidence = (
            seeds.get(neighbor, 0.0)
            if neighbor.kind == SESSION
            else vector[j]
        )
        if evidence >= config.risk_threshold:
            hot += 1
            if hot >= config.min_device_corroboration:
                return True
    return False


def _score_vector(scores: Scores, compiled: CompiledGraph) -> np.ndarray:
    """``scores`` over ``compiled.nodes``: the sweep's own vector when
    it was propagated on this compile."""
    if isinstance(scores, PropagationResult):
        if scores.nodes is compiled.nodes:
            return scores.vector
        scores = scores.scores
    return np.array([scores.get(node, 0.0) for node in compiled.nodes])


def extract_campaigns(
    graph: EntityGraph,
    scores: Scores,
    config: Optional[CampaignConfig] = None,
    obs: Optional[object] = None,
    seeds: Optional[Mapping[EntityId, float]] = None,
    compiled: Optional[CompiledGraph] = None,
) -> List[Campaign]:
    """Core components plus their attached sessions.

    ``seeds`` (when given) exempts directly seeded device nodes from
    the corroboration gate: a fingerprint with its own evidence (an
    SMS-velocity prior, an entity-level verdict) is core on its own
    merits, while one that merely inherited heat from a single shared
    identity node needs ``min_device_corroboration`` risky neighbours.

    Neighbour scans and the core's components read the CSR form of
    ``graph``: ``compiled`` when the caller already built it for
    propagation, else a fresh :func:`~repro.graph.propagation.
    compile_graph`.

    Campaigns are ordered largest-first (session count, then first
    member id) and named ``C001``, ``C002``, ... deterministically.
    """
    config = config or CampaignConfig()
    seeds = seeds or {}
    if compiled is None:
        compiled = compile_graph(graph, obs=obs)
    nodes = compiled.nodes
    vector = _score_vector(scores, compiled)
    # One threshold mask picks the candidates; only those are checked
    # node by node.  Positions ascend, i.e. follow sorted node id.
    core = [
        i
        for i in np.flatnonzero(vector >= config.risk_threshold).tolist()
        if nodes[i].kind in CORE_KINDS
        and (
            nodes[i].kind not in DEVICE_KINDS
            or seeds.get(nodes[i], 0.0) > 0.0
            or _corroborated(compiled, i, vector, seeds, config)
        )
    ]

    candidates: List[Tuple[Tuple[EntityId, ...], float, float, float]] = []
    for component in compiled.position_components(core):
        attached = sorted(
            {
                j
                for i in component
                for j in compiled.neighbor_positions(i).tolist()
                if nodes[j].kind == SESSION
            }
        )
        if len(attached) < config.min_sessions:
            continue
        times = [
            time
            for j in attached
            for time in (graph.first_seen(nodes[j]), graph.last_seen(nodes[j]))
            if time is not None
        ]
        first = min(times) if times else 0.0
        last = max(times) if times else 0.0
        risk = _campaign_risk(component, nodes, vector)
        members = tuple(nodes[i] for i in sorted({*component, *attached}))
        candidates.append((members, risk, first, last))

    candidates.sort(
        key=lambda item: (
            -sum(1 for n in item[0] if n.kind == SESSION),
            item[0][0],
        )
    )
    campaigns = [
        Campaign(
            campaign_id=f"C{index + 1:03d}",
            members=members,
            risk=risk,
            first_seen=first,
            last_seen=last,
        )
        for index, (members, risk, first, last) in enumerate(candidates)
    ]
    if obs is not None:
        obs.set_gauge("graph.campaigns", float(len(campaigns)))
        obs.set_gauge(
            "graph.campaign_sessions",
            float(sum(c.session_count for c in campaigns)),
        )
    return campaigns


def campaign_subject(campaign_id: str) -> str:
    return f"{CAMPAIGN_SUBJECT_PREFIX}{campaign_id}"


def campaign_verdicts(
    campaigns: List[Campaign],
    threshold: float = 0.5,
    detector: str = CAMPAIGN_DETECTOR,
) -> List[CampaignVerdict]:
    """Verdict forms for every campaign.

    Member-session verdicts inherit the campaign's (core) risk — a
    member is judged for the operation it belongs to, which is the
    whole point of campaign-level detection — and are bot-positive
    when the campaign clears ``threshold``.
    """
    results = []
    for campaign in campaigns:
        is_bot = campaign.risk >= threshold
        score = min(max(campaign.risk, 0.0), 1.0)
        reasons = (
            f"campaign:{campaign.campaign_id}",
            f"fingerprints:{campaign.distinct_fingerprints}",
            f"sessions:{campaign.session_count}",
        )
        members = tuple(
            Verdict(
                subject_id=session_id,
                detector=detector,
                score=score,
                is_bot=is_bot,
                reasons=reasons if is_bot else (),
            )
            for session_id in campaign.session_ids
        )
        results.append(
            CampaignVerdict(
                campaign=campaign,
                verdict=Verdict(
                    subject_id=campaign_subject(campaign.campaign_id),
                    detector=detector,
                    score=min(max(campaign.risk, 0.0), 1.0),
                    is_bot=is_bot,
                    reasons=reasons,
                ),
                member_verdicts=members,
            )
        )
    return results
