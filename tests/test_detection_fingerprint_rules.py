"""Tests for repro.core.detection.fingerprint_rules."""

import random

import pytest

from repro.common import ClientRef
from repro.core.detection.fingerprint_rules import (
    FingerprintDetector,
    FingerprintWeights,
    block_by_attribute_combo,
    block_by_fingerprint_id,
    block_by_ip,
    block_datacenter_asns,
)
from repro.core.detection.session_index import SessionIndex
from repro.identity.fingerprint import FingerprintPopulation
from repro.identity.forge import (
    FingerprintForge,
    MIMICRY,
    NAIVE_SPOOF,
    RAW_HEADLESS,
)
from repro.web.logs import WebLog
from repro.web.request import Request, SEARCH


def make_request(fingerprint, ip="1.1.1.1", residential=True):
    return Request(
        method="GET",
        path=SEARCH,
        client=ClientRef(
            ip_address=ip,
            ip_country="US",
            ip_residential=residential,
            fingerprint_id=fingerprint.fingerprint_id,
            user_agent=fingerprint.user_agent,
        ),
        fingerprint=fingerprint,
    )


class TestFingerprintDetector:
    def test_raw_headless_flagged(self):
        detector = FingerprintDetector()
        forge = FingerprintForge(RAW_HEADLESS)
        rng = random.Random(1)
        for _ in range(20):
            verdict = detector.judge(forge.forge(rng))
            assert verdict.is_bot
            assert verdict.score > 0.5

    def test_genuine_population_clean(self):
        detector = FingerprintDetector()
        population = FingerprintPopulation()
        rng = random.Random(2)
        for _ in range(200):
            assert not detector.judge(population.sample(rng)).is_bot

    def test_mimicry_evades(self):
        """The paper's Section III-B conclusion in one assertion."""
        detector = FingerprintDetector()
        forge = FingerprintForge(MIMICRY)
        rng = random.Random(3)
        flagged = sum(
            detector.judge(forge.forge(rng)).is_bot for _ in range(200)
        )
        assert flagged == 0

    def test_naive_spoof_partially_caught(self):
        detector = FingerprintDetector()
        forge = FingerprintForge(NAIVE_SPOOF)
        rng = random.Random(4)
        flagged = sum(
            detector.judge(forge.forge(rng)).is_bot for _ in range(300)
        )
        assert 60 < flagged < 300  # caught often, but not always

    def test_flagged_ids_filters_collection(self):
        detector = FingerprintDetector()
        rng = random.Random(5)
        good = FingerprintPopulation().sample(rng)
        bad = FingerprintForge(RAW_HEADLESS).forge(rng)
        seen = {
            good.fingerprint_id: good,
            bad.fingerprint_id: bad,
        }
        assert detector.flagged_ids(seen) == [bad.fingerprint_id]

    def test_judge_index_sessions_inherit_fingerprint_verdict(self):
        """Every session carries its fingerprint's rule verdict; a
        fingerprint the edge never collected leaves its sessions clean."""
        rng = random.Random(8)
        good = FingerprintPopulation().sample(rng)
        bad = FingerprintForge(RAW_HEADLESS).forge(rng)
        log = WebLog()
        for time, fingerprint_id in enumerate(
            [bad.fingerprint_id, good.fingerprint_id, "unseen",
             bad.fingerprint_id]
        ):
            client = ClientRef(
                ip_address=f"1.1.1.{time}",
                ip_country="US",
                ip_residential=True,
                fingerprint_id=fingerprint_id,
                user_agent="UA",
            )
            log.append_fields(float(time), "GET", SEARCH, 200, client)
        index = SessionIndex.from_log(log)
        seen = {
            good.fingerprint_id: good,
            bad.fingerprint_id: bad,
        }
        verdicts = FingerprintDetector().judge_index(index, seen)
        assert [v.subject_id for v in verdicts] == index.session_ids
        assert [v.is_bot for v in verdicts] == [True, False, False, True]
        assert [v.score for v in verdicts] == [1.0, 0.0, 0.0, 1.0]
        assert {v.detector for v in verdicts} == {"fingerprint-rules"}


class TestBlockPredicates:
    def test_block_by_fingerprint_id(self):
        rng = random.Random(6)
        population = FingerprintPopulation()
        target = population.sample(rng)
        other = population.sample(rng)
        predicate = block_by_fingerprint_id(target.fingerprint_id)
        assert predicate(make_request(target))
        assert not predicate(make_request(other))

    def test_block_by_attribute_combo_survives_minor_rotation(self):
        rng = random.Random(7)
        target = FingerprintPopulation().sample(rng)
        predicate = block_by_attribute_combo(target)
        # Rotating only the language does not escape the combo rule.
        rotated = target.with_changes(language="de-DE")
        assert predicate(make_request(rotated))
        # Rotating the canvas hash does escape it.
        escaped = target.with_changes(canvas_hash="ffffffffffff")
        assert not predicate(make_request(escaped))

    def test_combo_block_custom_attributes(self):
        rng = random.Random(8)
        target = FingerprintPopulation().sample(rng)
        predicate = block_by_attribute_combo(target, attributes=["browser"])
        same_browser = FingerprintPopulation().sample(rng).with_changes(
            browser=target.browser
        )
        assert predicate(make_request(same_browser))

    def test_combo_block_requires_fingerprint(self):
        rng = random.Random(9)
        target = FingerprintPopulation().sample(rng)
        predicate = block_by_attribute_combo(target)
        request = make_request(target)
        bare = Request(
            method="GET", path=SEARCH, client=request.client,
            fingerprint=None,
        )
        assert not predicate(bare)

    def test_block_by_ip(self):
        rng = random.Random(10)
        fingerprint = FingerprintPopulation().sample(rng)
        predicate = block_by_ip("9.9.9.9")
        assert predicate(make_request(fingerprint, ip="9.9.9.9"))
        assert not predicate(make_request(fingerprint, ip="8.8.8.8"))

    def test_block_datacenter(self):
        rng = random.Random(11)
        fingerprint = FingerprintPopulation().sample(rng)
        predicate = block_datacenter_asns([])
        assert predicate(make_request(fingerprint, residential=False))
        assert not predicate(make_request(fingerprint, residential=True))
