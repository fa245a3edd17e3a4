"""Bit-identity pins for every scenario cell at a small configuration.

Each pin is the SHA-256 of ``canonical_json(cell payload)``: metrics,
info and the full metrics-recorder snapshot. A change to world
construction, background-traffic wiring, the order actors are started
in, or a defense's wiring moves at least one of them. The pins are
literals; a legitimate behaviour change re-pins them deliberately.
"""

import hashlib

import pytest

from repro.runner.spec import canonical_json
from repro.scenarios.case_a import case_a_cell
from repro.scenarios.case_b import CaseBConfig, case_b_cell
from repro.scenarios.case_c import CaseCConfig, case_c_cell
from repro.scenarios.case_d import CaseDConfig, case_d_cell
from repro.scenarios.case_e import CaseEConfig, case_e_cell
from repro.scenarios.graph_case import (
    GraphCaseConfig,
    graph_case_a_cell,
    graph_case_c_cell,
)
from repro.scenarios.portfolio import DEFENSES, PortfolioConfig, portfolio_cell
from repro.scenarios.scale import ScaleConfig, scale_cell
from repro.sim.clock import DAY, HOUR
from tests.test_determinism import SMALL_A


def payload_digest(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _case_c(variant: str, **extra):
    return CaseCConfig(
        variant=variant,
        baseline_weekly_total=4800,
        attack_start=2 * DAY,
        duration=4 * DAY,
        **extra,
    )


#: name -> (cell function, config)
CELLS = {
    "case-a": (case_a_cell, SMALL_A),
    "case-b": (case_b_cell, CaseBConfig(seed=25, duration=4 * DAY)),
    "case-c/unprotected": (case_c_cell, _case_c("unprotected")),
    # At the default 6,000/day the path limit never trips at this size.
    "case-c/path-limit": (
        case_c_cell, _case_c("path-limit", path_limit_per_day=200)
    ),
    "case-c/per-ref": (case_c_cell, _case_c("per-ref")),
    "case-d/unprotected": (
        case_d_cell,
        CaseDConfig(duration=12 * HOUR, attack_start=2 * HOUR),
    ),
    "case-d/number-reputation": (
        case_d_cell,
        CaseDConfig(
            duration=12 * HOUR,
            attack_start=2 * HOUR,
            variant="number-reputation",
        ),
    ),
    "case-e/unprotected": (
        case_e_cell,
        CaseEConfig(duration=8 * HOUR, attack_start=1 * HOUR),
    ),
    "case-e/destination-surge": (
        case_e_cell,
        CaseEConfig(
            duration=8 * HOUR,
            attack_start=1 * HOUR,
            variant="destination-surge",
        ),
    ),
    **{
        f"portfolio/{defense}": (
            portfolio_cell,
            PortfolioConfig(defense=defense, duration=1 * DAY),
        )
        for defense in DEFENSES
    },
    "scale": (scale_cell, ScaleConfig(visitors=5000, duration=1 * DAY)),
    "graph-case-a": (graph_case_a_cell, GraphCaseConfig(ticks_short=True)),
    "graph-case-c": (graph_case_c_cell, GraphCaseConfig(ticks_short=True)),
}

PINS = {
    "case-a":
        "2fe39d6ccdf3395c93614af846090c151a5cfb43466d366a09314c32eb2ebc5b",
    "case-b":
        "97644f86130d4febce4769e1d664449892090e436ab3740615ea7d93eaed6243",
    "case-c/path-limit":
        "599213313053bedf66201df168486fb1b93a790da5a422927bbc26b578116836",
    "case-c/per-ref":
        "114b0d44fdc29a8a4e7524397736f5dc0a25d498cd8374c88f7b5e014370b4b0",
    "case-c/unprotected":
        "2b27d4212ff64924e4a0c3ffd7b78fed5d62e4d830584f5baa2713139c8aa5b1",
    "case-d/number-reputation":
        "3b2ed895f72525c3ed7f558e38a35fd55a88ea6f8d2e2c25bd5775c21c57758e",
    "case-d/unprotected":
        "383c5e95493eeca76de9616635df524ca8322468f36efe8785add182636fec70",
    "case-e/destination-surge":
        "abde54d6456ffd7882ab2f03eec985084b94aedb23f71d48f0ba3c6440739b90",
    "case-e/unprotected":
        "3846decc220e018b1af01724877fb6dd239a749184090b5f7fe62f7cc371ef5c",
    "graph-case-a":
        "41834ceb966f8c6825ad7fee2e9aa9a6949f05a70344aa4303f94bb8a14c0fd6",
    "graph-case-c":
        "a4cb195cafe89b18919d05bafddeb1f686c596202678a715ff395e4ebcfd5d23",
    "portfolio/all":
        "5b23fb6549dc541c61a0608aaaae4fe015ecef89add1f2af6d605c6742ec39cf",
    "portfolio/case-a":
        "d2332fa4ffffd5f05d1845dd8e744788724b07c3d1ad3dd685da94e09f1a7cb6",
    "portfolio/case-c":
        "3db05552eac7612714280eb6d793501e8ed817a0547879f2534f3079f395a04f",
    "portfolio/case-d":
        "1869d204b3ab0425aab1aed6c3d11bdffc8dfca96408ca74be699cf4c2b80b27",
    "portfolio/case-e":
        "4762fcb98c538750b006603cd24db29b6701904fbbeb901849c9df9b3a21d8ba",
    "portfolio/none":
        "8085b0359c092fdc63afd2d90ea83abe232d10d3b1c8bdbe7c1294a935209948",
    "scale":
        "e4b7d377f6267b38fb0a18c2c374f73c083313738d3082443a89a7d499440d03",
}

#: Defended variant -> its undefended twin.
TWINS = {
    "case-c/path-limit": "case-c/unprotected",
    "case-c/per-ref": "case-c/unprotected",
    "case-d/number-reputation": "case-d/unprotected",
    "case-e/destination-surge": "case-e/unprotected",
    **{
        f"portfolio/{defense}": "portfolio/none"
        for defense in DEFENSES
        if defense != "none"
    },
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_digest_is_pinned(name):
    cell, config = CELLS[name]
    assert payload_digest(cell(config)) == PINS[name]


@pytest.mark.parametrize("defended", sorted(TWINS))
def test_defense_changes_the_outcome(defended):
    assert PINS[defended] != PINS[TWINS[defended]]
