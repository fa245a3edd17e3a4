"""Session feature extraction for behaviour-based detection.

Turns a reconstructed :class:`~repro.web.logs.Session` into the numeric
feature vector the behaviour-based literature uses (Section III-A):
volume metrics, HTTP-method mix, endpoint mix, timing statistics and
error rates.  The same vector feeds the threshold detector, the
logistic-regression classifier and the clustering detector, which is
what makes the E6 comparison apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from ...web.logs import Session
from ...web.request import (
    BOARDING_PASS_SMS,
    FLIGHT_DETAILS,
    HOLD,
    OTP_LOGIN,
    PAY,
    SEARCH,
    TRAP,
)

#: Order of features in the vector (kept stable for trained models).
FEATURE_NAMES: List[str] = [
    "request_count",
    "duration_minutes",
    "requests_per_minute",
    "get_fraction",
    "post_fraction",
    "unique_paths",
    "search_count",
    "details_count",
    "hold_count",
    "pay_count",
    "sms_request_count",
    "hold_to_pay_gap",        # holds minus pays (abandonment signal)
    "mean_interrequest",
    "cv_interrequest",        # coefficient of variation of gaps
    "error_fraction",         # non-200 responses
    "trap_hits",              # visits to the hidden trap endpoint
]


@dataclass(frozen=True)
class SessionFeatures:
    """Named feature bundle for one session."""

    session_id: str
    request_count: int
    duration_minutes: float
    requests_per_minute: float
    get_fraction: float
    post_fraction: float
    unique_paths: int
    search_count: int
    details_count: int
    hold_count: int
    pay_count: int
    sms_request_count: int
    hold_to_pay_gap: int
    mean_interrequest: float
    cv_interrequest: float
    error_fraction: float
    trap_hits: int

    def vector(self) -> np.ndarray:
        """The feature vector in :data:`FEATURE_NAMES` order."""
        return np.array(
            [getattr(self, name) for name in FEATURE_NAMES], dtype=float
        )


def extract_features(session: Session) -> SessionFeatures:
    """Compute the behaviour feature bundle for one session.

    A zero-entry session (the sessionizer can surface one at an
    eviction boundary) yields the all-zeros bundle instead of dividing
    by its zero request count.
    """
    entries = session.entries
    count = len(entries)
    if count == 0:
        return SessionFeatures(
            session_id=session.session_id,
            request_count=0,
            duration_minutes=0.0,
            requests_per_minute=0.0,
            get_fraction=0.0,
            post_fraction=0.0,
            unique_paths=0,
            search_count=0,
            details_count=0,
            hold_count=0,
            pay_count=0,
            sms_request_count=0,
            hold_to_pay_gap=0,
            mean_interrequest=0.0,
            cv_interrequest=0.0,
            error_fraction=0.0,
            trap_hits=0,
        )
    duration_min = session.duration / 60.0
    # A single-request session has zero duration; rate uses a 1-minute
    # floor so it stays finite and comparable.
    rate = count / max(duration_min, 1.0)

    gets = sum(1 for e in entries if e.method == "GET")
    posts = sum(1 for e in entries if e.method == "POST")
    paths = {e.path for e in entries}
    by_path = {
        SEARCH: 0,
        FLIGHT_DETAILS: 0,
        HOLD: 0,
        PAY: 0,
        OTP_LOGIN: 0,
        BOARDING_PASS_SMS: 0,
        TRAP: 0,
    }
    for entry in entries:
        if entry.path in by_path:
            by_path[entry.path] += 1
    errors = sum(1 for e in entries if e.status != 200)

    times = [e.time for e in entries]
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    if gaps:
        mean_gap = sum(gaps) / len(gaps)
        # Squared deviation via multiplication, not ``** 2``: CPython
        # lowers float ``**`` to libm pow, which rounds differently
        # from multiply for ~0.1% of inputs on this platform — and the
        # columnar fast path (NumPy squares via multiply) must be
        # bit-identical to this reference.
        deviations = [g - mean_gap for g in gaps]
        variance = sum(d * d for d in deviations) / len(gaps)
        cv = math.sqrt(variance) / mean_gap if mean_gap > 0 else 0.0
    else:
        mean_gap = 0.0
        cv = 0.0

    sms_requests = by_path[OTP_LOGIN] + by_path[BOARDING_PASS_SMS]
    return SessionFeatures(
        session_id=session.session_id,
        request_count=count,
        duration_minutes=duration_min,
        requests_per_minute=rate,
        get_fraction=gets / count,
        post_fraction=posts / count,
        unique_paths=len(paths),
        search_count=by_path[SEARCH],
        details_count=by_path[FLIGHT_DETAILS],
        hold_count=by_path[HOLD],
        pay_count=by_path[PAY],
        sms_request_count=sms_requests,
        hold_to_pay_gap=by_path[HOLD] - by_path[PAY],
        mean_interrequest=mean_gap,
        cv_interrequest=cv,
        error_fraction=errors / count,
        trap_hits=by_path[TRAP],
    )
