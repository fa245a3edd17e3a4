"""Integration tests for the Section V behavioural-stack scenario."""

import hashlib

import pytest

from repro.scenarios.behavioural import (
    BehaviouralConfig,
    run_behavioural_stack,
)
from repro.runner.spec import canonical_json
from repro.sim.clock import DAY


@pytest.fixture(scope="module")
def result():
    return run_behavioural_stack(
        BehaviouralConfig(seed=43, duration=2 * DAY)
    )


class TestBehaviouralStack:
    def test_all_detectors_scored(self, result):
        assert set(result.runs) == {
            "volume", "navigation", "biometrics", "fusion",
        }

    def test_every_class_has_sessions(self, result):
        for cls in ("legit", "scraper", "seat-spinner", "manual-spinner"):
            assert result.session_counts_by_class.get(cls, 0) > 0, cls

    def test_volume_misses_evasive_attacks(self, result):
        recall = result.run_for("volume").recall_by_class
        for cls in ("scraper", "seat-spinner", "manual-spinner"):
            assert recall.get(cls, 0.0) <= 0.1, cls

    def test_navigation_catches_teleporters(self, result):
        recall = result.run_for("navigation").recall_by_class
        assert recall.get("seat-spinner", 0.0) > 0.8
        assert recall.get("manual-spinner", 0.0) > 0.8

    def test_biometrics_catch_automation_only(self, result):
        recall = result.run_for("biometrics").recall_by_class
        assert recall.get("scraper", 0.0) > 0.8
        assert recall.get("seat-spinner", 0.0) > 0.8
        assert recall.get("manual-spinner", 0.0) < 0.2  # human!

    def test_fusion_dominates_components(self, result):
        fusion = result.run_for("fusion").recall_by_class
        for name in ("volume", "navigation", "biometrics"):
            component = result.run_for(name).recall_by_class
            for cls, value in component.items():
                assert fusion.get(cls, 0.0) >= value - 1e-9, (name, cls)

    def test_fusion_low_false_positives(self, result):
        assert (
            result.run_for("fusion").evaluation.false_positive_rate
            < 0.02
        )

    def test_outcome_digest_is_pinned(self, result):
        payload = {
            "runs": {
                name: {
                    "confusion": [
                        run.evaluation.true_positives,
                        run.evaluation.false_positives,
                        run.evaluation.true_negatives,
                        run.evaluation.false_negatives,
                    ],
                    "recall_by_class": run.recall_by_class,
                }
                for name, run in result.runs.items()
            },
            "session_counts": result.session_counts_by_class,
            "recorder": result.world.metrics.snapshot(),
        }
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        assert digest == (
            "ec75ff6bfb44a5f6e41df93f69bc8f26ccb1ff5a6cf173dc4d76ec78c5882f12"
        )
