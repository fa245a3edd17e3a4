"""Pre-wired scenarios reproducing the paper's case studies.

* :mod:`~repro.scenarios.world` — the shared harness: :func:`build_world`
  (runs the ``on_world`` hook) and the background-traffic starters,
* :mod:`~repro.scenarios.defenses` — the Case C-E defenses and
  legit-collateral accounting, shared with the portfolio,
* :mod:`~repro.scenarios.case_a` — Seat Spinning / Fig. 1 / the 5.3 h
  fingerprint arms race (Section IV-A), and the evasive Case A preset,
* :mod:`~repro.scenarios.case_b` — automated vs manual spinning and the
  passenger-detail heuristics (Section IV-B),
* :mod:`~repro.scenarios.case_c` — advanced SMS Pumping / Table I
  (Section IV-C),
* :mod:`~repro.scenarios.case_d` — OTP abuse via disposable-number
  cycling (number-reputation defense),
* :mod:`~repro.scenarios.case_e` — agent-based amplification against a
  victim destination (destination-surge defense),
* :mod:`~repro.scenarios.portfolio` — the adaptive attacker moving
  budget across all channels vs single-case and layered defenses,
* :mod:`~repro.scenarios.detectors` — detector-family comparison
  (Section III),
* :mod:`~repro.scenarios.behavioural` — the Section V behavioural stack,
* :mod:`~repro.scenarios.streaming` — online detection during Case A,
* :mod:`~repro.scenarios.graph_case` — campaign graph vs session fusion,
* :mod:`~repro.scenarios.learned` — learned vs hand-tuned detection,
* :mod:`~repro.scenarios.scale` — the million-visitor background world.
"""

from .behavioural import (
    BehaviouralConfig,
    BehaviouralResult,
    BehaviouralRun,
    run_behavioural_stack,
)
from .case_a import CaseAConfig, CaseAResult, TARGET_FLIGHT, run_case_a
from .case_b import (
    AIRLINE_B_FLIGHT,
    AIRLINE_C_FLIGHT,
    CaseBConfig,
    CaseBResult,
    run_case_b,
)
from .case_c import (
    CaseCConfig,
    CaseCResult,
    PATH_LIMIT,
    PER_REF,
    TABLE1_ORDER,
    TABLE1_SURGES,
    UNPROTECTED,
    case_c_attack_totals,
    case_c_attack_weights,
    case_c_baseline_weekly,
    run_case_c,
)
from .case_d import CaseDConfig, CaseDResult, run_case_d
from .case_e import CaseEConfig, CaseEResult, run_case_e
from .detectors import (
    DetectorComparisonConfig,
    DetectorComparisonResult,
    DetectorRun,
    run_detector_comparison,
)
from .portfolio import (
    DEFENSES,
    PortfolioConfig,
    PortfolioResult,
    SINGLE_DEFENSES,
    run_portfolio,
)
from .world import (
    FlightSpec,
    World,
    WorldConfig,
    build_world,
    default_flight_schedule,
)

__all__ = [
    "BehaviouralConfig",
    "BehaviouralResult",
    "BehaviouralRun",
    "run_behavioural_stack",
    "CaseAConfig",
    "CaseAResult",
    "TARGET_FLIGHT",
    "run_case_a",
    "AIRLINE_B_FLIGHT",
    "AIRLINE_C_FLIGHT",
    "CaseBConfig",
    "CaseBResult",
    "run_case_b",
    "CaseCConfig",
    "CaseCResult",
    "PATH_LIMIT",
    "PER_REF",
    "TABLE1_ORDER",
    "TABLE1_SURGES",
    "UNPROTECTED",
    "case_c_attack_totals",
    "case_c_attack_weights",
    "case_c_baseline_weekly",
    "run_case_c",
    "CaseDConfig",
    "CaseDResult",
    "run_case_d",
    "CaseEConfig",
    "CaseEResult",
    "run_case_e",
    "DEFENSES",
    "PortfolioConfig",
    "PortfolioResult",
    "SINGLE_DEFENSES",
    "run_portfolio",
    "DetectorComparisonConfig",
    "DetectorComparisonResult",
    "DetectorRun",
    "run_detector_comparison",
    "FlightSpec",
    "World",
    "WorldConfig",
    "build_world",
    "default_flight_schedule",
]
