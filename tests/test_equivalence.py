"""Four views of a parallel market must agree: aggregate cost function,
per-LP fills at the shared price, scoring-rule differences, greedy routing."""

import re

import numpy as np
import pytest

from parmm import (
    LmsrCurve,
    LmsrGenerator,
    UniswapV2Curve,
    brier_curve,
    initialize,
    liability_of,
)
from parmm.equivalence import (
    ScoringMarket,
    equivalence_suite,
    interp1_validate,
    interp2_greedy,
)
from parmm.errors import InvariantViolated, OutOfRange, UnknownKind


def test_scoring_trade_matches_engine_two_lps():
    gens = [LmsrCurve(1.0), UniswapV2Curve(1.0)]
    p0 = np.array([0.3, 0.7])
    target = np.array([0.6, 0.4])
    scoring = ScoringMarket(gens, p0)
    net, parts = scoring.scoring_trade(target)

    engine = initialize(gens[0], price=p0, strict=False)
    lp = engine.register_lp()
    engine.modify_liquidity(lp, gens[1])
    rec = engine.execute_trade(bundle=net)
    assert np.max(np.abs(rec.price_after - target)) < 1e-9
    assert np.max(np.abs(rec.parts[0] - parts[0])) < 1e-9
    assert np.max(np.abs(rec.parts[1] - parts[1])) < 1e-9


def test_scoring_parts_are_score_differences():
    # each LP's fill is exactly its score bundle change
    gens = [brier_curve(2.0), LmsrCurve(0.8)]
    p0 = np.array([0.45, 0.55])
    p1 = np.array([0.25, 0.75])
    scoring = ScoringMarket(gens, p0)
    net, parts = scoring.scoring_trade(p1)
    for G, part in zip(gens, parts):
        want = liability_of(G, p1) - liability_of(G, p0)
        assert np.max(np.abs(part - want)) < 1e-12
    assert np.max(np.abs(net - np.sum(parts, axis=0))) < 1e-12


def test_interp1_validates_coherent_split():
    gens = [LmsrGenerator(1.0, 3), LmsrGenerator(2.0, 3)]
    p0 = np.ones(3) / 3
    p1 = np.array([0.5, 0.3, 0.2])
    scoring = ScoringMarket(gens, p0)
    _, parts = scoring.scoring_trade(p1)
    qs = [liability_of(G, p0) for G in gens]
    dev = interp1_validate(gens, qs, parts, tol=1e-9)
    assert dev < 1e-9


def test_interp1_rejects_incoherent_split():
    gens = [LmsrGenerator(1.0, 2), LmsrGenerator(1.0, 2)]
    p0 = np.array([0.5, 0.5])
    qs = [liability_of(G, p0) for G in gens]
    bad = [np.array([0.3, -0.3]), np.array([-0.3, 0.3])]  # swaps liability,
    # leaving books off their zero level sets
    with pytest.raises(InvariantViolated):
        interp1_validate(gens, qs, bad, tol=1e-9)


def test_interp1_raises_on_a_bundle_off_the_level_set():
    # buying 5 of outcome 1 for 1 of outcome 2 moves an LMSR book's cost by
    # about 4.31; the check raises rather than returning that deviation
    G = LmsrGenerator(1.0, 2)
    q = liability_of(G, np.array([0.5, 0.5]))
    with pytest.raises(InvariantViolated, match=r"4\.309e\+00"):
        interp1_validate([G], [q], [np.array([5.0, -1.0])])


def test_greedy_routing_prefers_cheaper_lp():
    # second LP starts at a lower price for the flow direction and should
    # take the first slices
    gens = [LmsrGenerator(1.0, 2), LmsrGenerator(1.0, 2)]
    qs = [liability_of(gens[0], np.array([0.7, 0.3])),
          liability_of(gens[1], np.array([0.3, 0.7]))]
    out = interp2_greedy(gens, qs, v=np.array([1.0, 0.0]), duration=0.2, steps=50)
    assert out["route"][0] == 1


def test_greedy_residual_decays_linearly():
    # Bregman overpayment per slice is O(dt^2), so the summed residual is
    # O(1/steps): slope -1 on a log-log fit
    gens = [LmsrGenerator(1.0, 2), LmsrGenerator(2.0, 2)]
    p0 = np.array([0.4, 0.6])
    qs = [liability_of(G, p0) for G in gens]
    v = np.array([1.0, -0.5])
    residuals = []
    steps_grid = [10, 100, 1000]
    for steps in steps_grid:
        out = interp2_greedy(gens, qs, v, duration=1.0, steps=steps)
        residuals.append(out["residual"])
    assert all(r > 0 for r in residuals)
    slope = np.polyfit(np.log(steps_grid), np.log(residuals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)


@pytest.mark.parametrize("kwargs, error, message", [
    # steps = 0 divided by zero, 2.5 failed in range(), and -3 routed
    # nothing and reported a residual of 0.0
    ({"steps": 0}, UnknownKind, "steps must be a positive integer, got 0"),
    ({"steps": 2.5}, UnknownKind, "steps must be a positive integer, got 2.5"),
    ({"steps": -3}, UnknownKind, "steps must be a positive integer, got -3"),
    ({"steps": True}, UnknownKind, "steps must be a positive integer, got True"),
    ({"duration": "1"}, UnknownKind, "duration must be a number, got '1'"),
    ({"duration": -0.5}, OutOfRange, "duration -0.5 is negative or not finite"),
    ({"duration": float("inf")}, OutOfRange, "duration inf is negative or not finite"),
], ids=["steps-0", "steps-fraction", "steps-negative", "steps-bool", "duration-str", "duration-negative",
        "duration-inf"])
def test_greedy_checks_its_steps_and_duration(kwargs, error, message):
    gens = [LmsrGenerator(1.0, 2), LmsrGenerator(2.0, 2)]
    qs = [liability_of(G, np.array([0.4, 0.6])) for G in gens]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        interp2_greedy(gens, qs, np.array([1.0, -0.5]), **kwargs)


def test_greedy_cleanup_restores_coherence():
    gens = [LmsrGenerator(1.0, 3), LmsrGenerator(1.5, 3)]
    p0 = np.ones(3) / 3
    qs = [liability_of(G, p0) for G in gens]
    out = interp2_greedy(gens, qs, v=np.array([1.0, 0.0, -1.0]), duration=0.3, steps=200)
    total = np.sum(out["liabilities"], axis=0)
    assert np.max(np.abs(np.sum(out["cleanup"], axis=0) - total)) < 1e-9
    # the split books each sit at the shared price and their costs sum to the
    # aggregate cost (start levels plus the greedy residual)
    from parmm import conjugate_value, price_of

    costs = [conjugate_value(G, part).cost for G, part in zip(gens, out["cleanup"])]
    assert sum(costs) == pytest.approx(out["aggregate_cost"], abs=1e-9)
    for G, part in zip(gens, out["cleanup"]):
        assert np.max(np.abs(price_of(G, part) - out["shared_price"])) < 1e-7


def test_suite_two_outcomes():
    report = equivalence_suite(2, trials=60, seed=1)
    assert report["pass"] and report["failures"] == 0
    assert report["max_net_deviation"] < 1e-7


def test_suite_three_outcomes():
    report = equivalence_suite(3, trials=30, seed=2)
    assert report["pass"] and report["failures"] == 0
    assert report["max_net_deviation"] < 1e-6


def test_two_lmsr_equals_pooled_lmsr():
    # b1 + b2 parallel LMSRs trade identically to one LMSR of size b1 + b2
    b1, b2 = 0.8, 1.7
    gens = [LmsrGenerator(b1, 2), LmsrGenerator(b2, 2)]
    pooled = LmsrGenerator(b1 + b2, 2)
    p0 = np.array([0.35, 0.65])
    engine = initialize(gens[0], price=p0, strict=False)
    lp = engine.register_lp()
    engine.modify_liquidity(lp, gens[1])
    solo = initialize(pooled, price=p0, strict=False)
    rng = np.random.default_rng(4)
    for _ in range(40):
        t = float(rng.uniform(0.1, 0.9))
        target = np.array([t, 1 - t])
        r1 = engine.execute_trade(target_price=target)
        r2 = solo.execute_trade(target_price=target)
        assert np.max(np.abs(r1.bundle - r2.bundle)) < 1e-7
        # parts split in proportion to the b's
        assert np.max(np.abs(r1.parts[0] - b1 / (b1 + b2) * r1.bundle)) < 1e-7
