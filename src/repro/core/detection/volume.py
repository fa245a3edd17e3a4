"""Volume-threshold behaviour detection.

The simplest — and historically most common — behaviour-based bot
detector: flag sessions whose request volume or rate is inhuman.  The
paper's central claim about it (Section III-A) is that DoI and SMS
Pumping bots "do not require a high request volume within a single
session to achieve their objective", so this detector catches scrapers
and misses the paper's attacks.  The E6 benchmark demonstrates exactly
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ...web.logs import Session
from .features import FEATURE_NAMES, extract_features
from .verdict import Verdict


@dataclass(frozen=True)
class VolumeThresholds:
    """Tunable thresholds; defaults are generous to keep false positives
    on legitimate power users near zero."""

    max_requests_per_session: int = 120
    max_requests_per_minute: float = 12.0
    #: Sessions shorter than this (minutes) are never rate-flagged,
    #: because a burst of 3 quick clicks is not a bot signature.
    min_duration_for_rate: float = 2.0


class VolumeDetector:
    """Threshold detector over session volume features.

    Subjects are session ids.
    """

    name = "volume-threshold"

    def __init__(self, thresholds: VolumeThresholds = VolumeThresholds()) -> None:
        self.thresholds = thresholds

    def judge(self, session: Session) -> Verdict:
        """Judge one session (the streaming path): a one-row
        :meth:`judge_matrix` call, so the thresholds exist once."""
        return self.judge_matrix(
            [session.session_id],
            extract_features(session).vector()[np.newaxis, :],
        )[0]

    def judge_matrix(
        self, session_ids: Sequence[str], matrix: np.ndarray
    ) -> List[Verdict]:
        """Judge every row of a prebuilt feature matrix.

        The one copy of the threshold and score arithmetic; the
        per-session :meth:`judge` and the batch :meth:`judge_index`
        both call it.
        """
        counts = matrix[:, FEATURE_NAMES.index("request_count")]
        durations = matrix[:, FEATURE_NAMES.index("duration_minutes")]
        rates = matrix[:, FEATURE_NAMES.index("requests_per_minute")]
        count_hit = counts > self.thresholds.max_requests_per_session
        rate_eligible = durations >= self.thresholds.min_duration_for_rate
        rate_hit = rate_eligible & (
            rates > self.thresholds.max_requests_per_minute
        )
        count_ratio = counts / self.thresholds.max_requests_per_session
        rate_ratio = np.where(
            rate_eligible,
            rates / self.thresholds.max_requests_per_minute,
            0.0,
        )
        scores = np.minimum(
            np.maximum(count_ratio, rate_ratio) / 2.0, 1.0
        )
        verdicts = []
        for row, session_id in enumerate(session_ids):
            reasons = []
            if count_hit[row]:
                reasons.append("session-request-count")
            if rate_hit[row]:
                reasons.append("request-rate")
            verdicts.append(
                Verdict(
                    subject_id=session_id,
                    detector=self.name,
                    score=float(scores[row]),
                    is_bot=bool(reasons),
                    reasons=tuple(reasons),
                )
            )
        return verdicts

    def judge_index(self, index) -> List[Verdict]:
        """Judge every session in a :class:`~repro.core.detection.
        session_index.SessionIndex` without materialising any."""
        return self.judge_matrix(index.session_ids, index.matrix)
