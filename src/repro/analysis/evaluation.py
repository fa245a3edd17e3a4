"""Detector scoring against simulation ground truth.

The traffic generators tag every request with its true actor class;
sessions inherit the majority label.  This module turns detector
verdicts plus those labels into the usual binary metrics, overall and
per attack class — which is how the E6 benchmark shows each detector
family's blind spots.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..common import LEGIT
from ..core.detection.verdict import Verdict
from ..web.logs import Session


@dataclass(frozen=True)
class BinaryEvaluation:
    """Confusion-matrix summary of one detector run."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def false_positive_rate(self) -> float:
        denominator = self.false_positives + self.true_negatives
        return self.false_positives / denominator if denominator else 0.0

    @property
    def total(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )


def predicted_bot_map(verdicts: Iterable[Verdict]) -> Dict[str, bool]:
    """Merge verdicts into a per-subject bot flag, any-bot-wins.

    A subject can legitimately carry several verdicts (one per detector
    family, or a detector re-judging a session after a graph refresh).
    A naive ``{v.subject_id: v.is_bot}`` dict resolves such duplicates
    last-write-wins, so a benign verdict arriving after a bot verdict
    silently un-flags the subject — and the measured recall then depends
    on detector *order*.  Flagged-by-anyone is the deterministic,
    order-independent merge every evaluation below uses.
    """
    predicted: Dict[str, bool] = {}
    for verdict in verdicts:
        if verdict.is_bot:
            predicted[verdict.subject_id] = True
        else:
            predicted.setdefault(verdict.subject_id, False)
    return predicted


def evaluate_verdicts(
    sessions: Sequence[Session], verdicts: Sequence[Verdict]
) -> BinaryEvaluation:
    """Score session verdicts against session ground truth.

    Sessions without a verdict count as predicted-benign (a detector
    that never looked at a session did not flag it); sessions with
    several verdicts count as flagged if *any* verdict flagged them
    (see :func:`predicted_bot_map`).
    """
    predicted = predicted_bot_map(verdicts)
    tp = fp = tn = fn = 0
    for session in sessions:
        truth = session.is_attacker
        flagged = predicted.get(session.session_id, False)
        if truth and flagged:
            tp += 1
        elif truth and not flagged:
            fn += 1
        elif not truth and flagged:
            fp += 1
        else:
            tn += 1
    return BinaryEvaluation(tp, fp, tn, fn)


def recall_by_class(
    sessions: Sequence[Session], verdicts: Sequence[Verdict]
) -> Dict[str, float]:
    """Recall split by ground-truth attack class.

    The paper's core empirical claim in one table: a volume detector
    shows high recall on ``scraper`` and near-zero on ``seat-spinner`` /
    ``sms-pumper`` / ``manual-spinner``.
    """
    predicted = predicted_bot_map(verdicts)
    caught: Dict[str, int] = defaultdict(int)
    totals: Dict[str, int] = defaultdict(int)
    for session in sessions:
        label = session.actor_class
        if label == LEGIT:
            continue
        totals[label] += 1
        if predicted.get(session.session_id, False):
            caught[label] += 1
    return {
        label: caught[label] / totals[label] for label in sorted(totals)
    }


def session_actor(session: Session) -> str:
    """Ground-truth majority actor id (campaign label) of a session.

    The traffic generators stamp each request's :class:`ClientRef`
    with the operating actor; like ``actor_class``, the session takes
    the majority.  Evaluation only — detection code must never call
    this.

    A zero-entry session (the sessionizer can surface one at an
    eviction boundary, before its first entry lands) has no actor —
    it counts as unattributed rather than crashing ``max()``.
    """
    counts: Dict[str, int] = {}
    for entry in session.entries:
        counts[entry.client.actor] = counts.get(entry.client.actor, 0) + 1
    if not counts:
        return ""
    return max(counts.items(), key=lambda item: item[1])[0]


@dataclass(frozen=True)
class CampaignGroundTruth:
    """One true campaign: all sessions operated by one attacker actor."""

    actor: str
    session_ids: Tuple[str, ...]
    first_seen: float


def true_campaigns(
    sessions: Sequence[Session],
) -> Dict[str, CampaignGroundTruth]:
    """Group attacker sessions by ground-truth actor id.

    Every distinct attacker actor is one true campaign, regardless of
    how many fingerprints or addresses it rotated through — that
    rotation is exactly what campaign detection must see through.
    """
    by_actor: Dict[str, List[Session]] = defaultdict(list)
    for session in sessions:
        if not session.is_attacker:
            continue
        by_actor[session_actor(session)].append(session)
    return {
        actor: CampaignGroundTruth(
            actor=actor,
            session_ids=tuple(s.session_id for s in members),
            first_seen=min(s.start for s in members),
        )
        for actor, members in by_actor.items()
    }


@dataclass(frozen=True)
class CampaignEvaluation:
    """Campaign-level scoring of a detection run.

    A true campaign counts as *recovered* when flagged sessions cover
    at least the coverage threshold of its traffic; a predicted
    campaign counts as *precise* when at least that share of its
    sessions belong to a single true campaign.  ``time_to_detection``
    maps each recovered actor to (earliest flagged member session end)
    minus (campaign first activity).
    """

    recovered: int
    total_true: int
    precise: int
    total_predicted: int
    time_to_detection: Dict[str, float]

    @property
    def campaign_recall(self) -> float:
        return self.recovered / self.total_true if self.total_true else 0.0

    @property
    def campaign_precision(self) -> float:
        return (
            self.precise / self.total_predicted
            if self.total_predicted
            else 0.0
        )


def _predicted_session_ids(predicted: object) -> Tuple[str, ...]:
    """Accept ``Campaign``-like objects or plain session-id iterables."""
    session_ids = getattr(predicted, "session_ids", predicted)
    return tuple(session_ids)


def evaluate_campaigns(
    sessions: Sequence[Session],
    predicted: Iterable[object],
    coverage_threshold: float = 0.5,
) -> CampaignEvaluation:
    """Score predicted campaigns against per-actor ground truth.

    ``predicted`` items are either :class:`repro.graph.campaigns.
    Campaign` instances or bare iterables of session ids.
    """
    truth = true_campaigns(sessions)
    end_of: Dict[str, float] = {s.session_id: s.end for s in sessions}
    actor_of: Dict[str, str] = {}
    for actor, campaign in truth.items():
        for session_id in campaign.session_ids:
            actor_of[session_id] = actor

    clusters = [_predicted_session_ids(item) for item in predicted]
    precise = 0
    detection_time: Dict[str, float] = {}
    flagged_by_actor: Dict[str, set] = defaultdict(set)
    for cluster in clusters:
        if not cluster:
            continue
        actor_counts: Dict[str, int] = defaultdict(int)
        for session_id in cluster:
            actor = actor_of.get(session_id)
            if actor is not None:
                actor_counts[actor] += 1
        if actor_counts:
            top_actor, top_count = max(
                actor_counts.items(), key=lambda item: (item[1], item[0])
            )
            if top_count / len(cluster) >= coverage_threshold:
                precise += 1
        for session_id in cluster:
            actor = actor_of.get(session_id)
            if actor is not None:
                flagged_by_actor[actor].add(session_id)

    recovered = 0
    for actor, campaign in truth.items():
        flagged = flagged_by_actor.get(actor, set())
        coverage = len(flagged) / len(campaign.session_ids)
        if coverage >= coverage_threshold:
            recovered += 1
            detection_time[actor] = (
                min(end_of[s] for s in flagged) - campaign.first_seen
            )
    return CampaignEvaluation(
        recovered=recovered,
        total_true=len(truth),
        precise=precise,
        total_predicted=len(clusters),
        time_to_detection=detection_time,
    )


def campaign_recall_from_verdicts(
    sessions: Sequence[Session],
    verdicts: Sequence[Verdict],
    coverage_threshold: float = 0.5,
) -> float:
    """Campaign recall achievable from per-session verdicts alone.

    A true campaign counts as recovered when flagged sessions cover at
    least ``coverage_threshold`` of its traffic.  This is the honest
    arm-to-arm comparison: a session-only detector never names
    campaigns, but if it flagged most of one's sessions it would have
    caught the operation.
    """
    truth = true_campaigns(sessions)
    if not truth:
        return 0.0
    flagged = {v.subject_id for v in verdicts if v.is_bot}
    recovered = 0
    for campaign in truth.values():
        covered = sum(
            1 for session_id in campaign.session_ids
            if session_id in flagged
        )
        if covered / len(campaign.session_ids) >= coverage_threshold:
            recovered += 1
    return recovered / len(truth)


def false_positive_sessions(
    sessions: Sequence[Session], verdicts: Sequence[Verdict]
) -> List[Session]:
    """Legitimate sessions the detector flagged (collateral damage)."""
    predicted = predicted_bot_map(verdicts)
    return [
        session
        for session in sessions
        if not session.is_attacker
        and predicted.get(session.session_id, False)
    ]
