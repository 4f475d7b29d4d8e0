"""Acceptance suite: end-to-end checks of the library at fixed tolerances.

One test per acceptance item.  `test_three_asset_pinned_fee_values` asserts a
set of pinned fee vectors that the engine does not produce (the engine's own
arithmetic is checked in test_engine.py); it is expected to fail and is kept
red deliberately rather than weakened.
"""

import json
import math
import os

import numpy as np
import pytest

from fd_hessian import fd_hessian
from parmm import (
    BucketCurve,
    ConstantProductGenerator,
    LmsrCurve,
    LmsrGenerator,
    PairConstantProductGenerator,
    PiecewiseLinearMarket,
    PiecewisePolyCurve,
    PositivePartFee,
    SoftBucketCurve,
    UniswapV2Curve,
    UniswapV2Market,
    audit_budget_balance,
    brier_curve,
    conjugate_value,
    directional_liquidity,
    infimal_convolution_split,
    initialize,
    liability2,
    liability_of,
    liquidity_matrix,
    price_of,
)
from parmm.equivalence import equivalence_suite, interp2_greedy
from parmm.generators import Generator

SCEN = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SQ2 = math.sqrt(2.0)
SQH = math.sqrt(0.5)


# 1. two-LP walkthrough replay ------------------------------------------------


def test_walkthrough_replay():
    with open(os.path.join(SCEN, "two_lp_walkthrough.json")) as fh:
        scen = json.load(fh)
    from parmm.cli import run_scenario

    trace = run_scenario(scen, None, None, None)
    tol = 1e-3  # published figures round to three places
    by_op = {}
    for rec in trace[1:]:
        by_op.setdefault(rec["op"], []).append(rec)

    init = by_op["initialize"][0]
    assert init["state"]["price"] == pytest.approx([0.2, 0.8], abs=tol)
    assert init["state"]["lps"][0]["liability"] == pytest.approx([-1.2, -0.1], abs=tol)

    t1, t2 = by_op["execute_trade"]
    assert t1["result"]["price_after"] == pytest.approx([0.5, 0.5], abs=tol)
    assert t1["result"]["trader_fee"] == pytest.approx(0.15, abs=tol)

    dep = by_op["modify_liquidity"][0]["result"]["deposit"]
    assert dep == pytest.approx([1.25, 0.45], abs=tol)

    assert t2["result"]["price_after"] == pytest.approx([0.7, 0.3], abs=tol)
    parts = t2["result"]["parts"]
    assert np.abs(parts["0"]) == pytest.approx([0.225, 0.275], abs=tol)
    assert np.abs(parts["1"]) == pytest.approx([0.8, 1.2], abs=tol)
    assert t2["result"]["lp_fees"]["0"] == pytest.approx(0.05, abs=tol)
    assert t2["result"]["lp_fees"]["1"] == pytest.approx(0.20, abs=tol)

    final = {lp["id"]: lp["liability"] for lp in trace[-1]["state"]["lps"]}
    assert final[0] == pytest.approx([0.0, -0.9], abs=tol)
    assert final[1] == pytest.approx([-0.45, -1.65], abs=tol)


# 2. three-asset pinned fee values (deliberately red; see module docstring) ---


def test_three_asset_pinned_fee_values():
    beta = 1.0
    st = initialize(
        PairConstantProductGenerator(3, 0, 1, 1.0),
        price=np.ones(3) / 3,
        fee=PositivePartFee(beta),
        strict=False,
    )
    lp = st.register_lp()
    st.modify_liquidity(lp, PairConstantProductGenerator(3, 1, 2, 1.0))
    s = 3.0 + SQ2
    rec = st.execute_trade(
        target_price=np.array([(1.5 + SQ2) / s, 1.0 / s, 0.5 / s])
    )
    assert np.allclose(rec.trader_fee, beta * np.array([0.0, 0.0, 1 - SQH]), atol=1e-9)
    assert np.allclose(rec.lp_fees[0], beta * np.array([0.0, 0.0, 1 - SQH]), atol=1e-9)
    assert np.allclose(rec.lp_fees[lp], beta * np.array([0.0, SQ2 - 1, 0.0]), atol=1e-9)
    imbalance = audit_budget_balance(st.fee, rec)
    assert np.allclose(imbalance, beta * np.array([0.0, SQ2 - 1, 0.0]), atol=1e-9)


# 3. randomized equivalence suite ---------------------------------------------


def test_equivalence_suite_two_outcomes():
    report = equivalence_suite(2, trials=200, seed=7)
    assert report["failures"] == 0
    assert report["max_net_deviation"] < 1e-7
    assert report["max_level_set_deviation"] < 1e-6


def test_equivalence_suite_three_outcomes():
    report = equivalence_suite(3, trials=100, seed=11)
    assert report["failures"] == 0
    assert report["max_net_deviation"] < 1e-7
    assert report["max_level_set_deviation"] < 1e-6


# 4. duality round trips ------------------------------------------------------


def _duality_families() -> list[Generator]:
    return [
        LmsrCurve(1.0),
        UniswapV2Curve(1.0),
        brier_curve(2.0),
        BucketCurve(LmsrCurve(1.0), 0.01, 0.99, 1.0),
        SoftBucketCurve([0.0, 0.4, 0.6, 1.0], [0.0, 1.0, 1.0, 0.0]),
        LmsrGenerator(1.0, 3),
        ConstantProductGenerator(3, 1.0),
        PairConstantProductGenerator(3, 0, 2, 1.0),
    ]


def test_duality_round_trips():
    rng = np.random.default_rng(13)
    for G in _duality_families():
        n = G.n
        for _ in range(200):
            p = rng.dirichlet(np.ones(n))
            p = np.clip(p, 0.03, None)
            p /= p.sum()
            q = liability_of(G, p)
            assert abs(conjugate_value(G, q).cost) < 1e-8
            assert np.max(np.abs(price_of(G, q, p) - p)) < 1e-6


# 5. split value equals sum-conjugate; pooled-LMSR aggregation ----------------


def test_split_value_matches_sum_conjugate():
    rng = np.random.default_rng(17)
    pool = _duality_families()
    for _ in range(100):
        n = 2 if rng.uniform() < 0.5 else 3
        cands = [G for G in pool if G.n == n]
        k = int(rng.integers(1, 4))
        gens = [cands[int(rng.integers(0, len(cands)))] for _ in range(k)]
        if not any(G.is_pseudobarrier for G in gens):
            # keep the optimum interior under the random liability perturbation
            gens[0] = LmsrCurve(1.0) if n == 2 else LmsrGenerator(1.0, 3)
        p = rng.dirichlet(np.ones(n))
        p = np.clip(p, 0.05, None)
        p /= p.sum()
        q = sum(liability_of(G, p) for G in gens) + rng.normal(scale=0.05, size=n)

        class _Sum(Generator):
            def __init__(self):
                self.n = n
                self.is_pseudobarrier = False

            def value(self, x):
                return float(sum(G.value(x) for G in gens))

            def grad(self, x):
                return np.sum([G.grad(x) for G in gens], axis=0)

            def hessian(self, p):
                return np.sum([G.hessian(p) for G in gens], axis=0)

        cost, parts, price = infimal_convolution_split(gens, q, p)
        want = conjugate_value(_Sum(), q, p).cost
        assert abs(cost - want) < 1e-6
        assert np.max(np.abs(np.sum(parts, axis=0) - q)) < 1e-9


def test_parallel_lmsrs_aggregate_to_pooled_lmsr():
    b1, b2 = 1.3, 0.6
    engine = initialize(LmsrGenerator(b1, 2), price=[0.5, 0.5], strict=False)
    lp = engine.register_lp()
    engine.modify_liquidity(lp, LmsrGenerator(b2, 2))
    solo = initialize(LmsrGenerator(b1 + b2, 2), price=[0.5, 0.5], strict=False)
    rng = np.random.default_rng(19)
    for _ in range(100):
        t = float(rng.uniform(0.05, 0.95))
        r1 = engine.execute_trade(target_price=[t, 1 - t])
        r2 = solo.execute_trade(target_price=[t, 1 - t])
        assert np.max(np.abs(r1.bundle - r2.bundle)) < 1e-7


# 6. constant-product pool: invariant and adapter agreement -------------------


def test_constant_product_thousand_operations():
    rng = np.random.default_rng(23)
    m = UniswapV2Market([3.0, 2.0])
    mirror = initialize(UniswapV2Curve(m.alpha), liability=-m.reserves)
    lp = m.register_lp()
    for _ in range(1000):
        if rng.uniform() < 0.9:
            r = m.swap(float(rng.uniform(0.01, 0.4)), asset=int(rng.integers(0, 2)))
            m.trade(r)
            mirror.execute_trade(bundle=r)
            assert np.max(np.abs(mirror.total_liability() + m.reserves)) < 1e-9
            assert abs(float(mirror.price[0]) - m.price) < 1e-9
        else:
            m.mint(lp, float(rng.uniform(0.0, 0.8)))
            mirror = initialize(UniswapV2Curve(m.alpha), liability=-m.reserves)
        target = m.alpha ** 2
        assert abs(m.invariant() - target) < 1e-9 * max(1.0, target)


# 7. bucket liability columns and shifted invariant ---------------------------


def test_bucket_columns_match_restriction_pipeline():
    # nine cells: {constant-product, LMSR, quadratic} bases x three price
    # regions, each bucket checked against the double-integration pipeline of
    # the restricted liquidity profile
    bases = {
        "v2": UniswapV2Curve(1.0),
        "lmsr": LmsrCurve(1.0),
        "brier": brier_curve(1.0),
    }
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = float(rng.uniform(0.05, 0.6))
        b = float(rng.uniform(a + 0.1, 0.95))
        for base in bases.values():
            crv = BucketCurve(base, a, b, 1.0)
            knots = np.concatenate([[1e-4], np.linspace(a, b, 800), [1 - 1e-4]])
            for p in (rng.uniform(0.01, a), rng.uniform(a, b), rng.uniform(b, 0.99)):
                pc = min(max(float(p), a), b)
                # oracle: score differences of the base curve across the bucket
                s1 = (base.g(pc) + (1 - pc) * base.dg(pc)) - (
                    base.g(b) + (1 - b) * base.dg(b)
                )
                s2 = (base.g(pc) - pc * base.dg(pc)) - (base.g(a) - a * base.dg(a))
                got = liability2(crv, float(p))
                assert np.max(np.abs(got - [s1, s2])) < 1e-9


def test_shifted_product_invariant_in_bucket():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a = float(rng.uniform(0.1, 0.5))
        b = float(rng.uniform(a + 0.2, 0.9))
        w = float(rng.uniform(0.5, 2.0))
        crv = BucketCurve(UniswapV2Curve(1.0), a, b, w)
        x = -liability2(crv, float(rng.uniform(a, b)))
        lhs = (x[0] + w * math.sqrt((1 - b) / b)) * (x[1] + w * math.sqrt(a / (1 - a)))
        assert abs(lhs - w * w) < 1e-9


# 8. liquidity matrices -------------------------------------------------------


def test_hessians_match_finite_differences():
    rng = np.random.default_rng(37)
    for G in _duality_families():
        n = G.n
        for _ in range(50):
            p = rng.dirichlet(np.ones(n))
            p = np.clip(p, 0.05, None)
            p /= p.sum()
            H = liquidity_matrix(G, p)
            F = fd_hessian(G, p)
            scale = max(1.0, float(np.max(np.abs(F))))
            assert np.max(np.abs(H - F)) / scale < 1e-4


def test_directional_liquidity_closed_values():
    u = np.ones(3) / 3
    v = np.array([1.0, 0.0, -1.0])
    G1 = ConstantProductGenerator(3, 1.0)
    G2 = sum_pairs = None
    from parmm import SumGenerator

    G2 = SumGenerator(
        [
            PairConstantProductGenerator(3, 0, 1, 1.0),
            PairConstantProductGenerator(3, 0, 2, 1.0),
            PairConstantProductGenerator(3, 1, 2, 1.0),
        ]
    )
    assert directional_liquidity(G1, u, v) == pytest.approx(6.0, abs=1e-6)
    assert directional_liquidity(G2, u, v) == pytest.approx(9.0, abs=1e-6)


def test_vanishing_outcome_liquidity_limits():
    from parmm import SumGenerator

    G1 = ConstantProductGenerator(3, 1.0)
    G2 = SumGenerator(
        [
            PairConstantProductGenerator(3, 0, 1, 1.0),
            PairConstantProductGenerator(3, 0, 2, 1.0),
            PairConstantProductGenerator(3, 1, 2, 1.0),
        ]
    )
    v = np.array([1.0, 0.0, -1.0])
    prev = None
    for eps in [1e-2, 1e-3, 1e-4, 1e-5]:
        p = np.array([(1 - eps) / 2, eps, (1 - eps) / 2])
        l1 = directional_liquidity(G1, p, v)
        l2 = directional_liquidity(G2, p, v)
        if prev is not None:
            assert l1 < prev  # joint pool's liquidity dies with the outcome
        prev = l1
        assert l2 >= 1.0 / math.sqrt(p[0] * p[2]) - 1e-6
    assert prev < 0.2


# 9. liquidity-profile pipeline -----------------------------------------------


def _reference_double_integral(bps, levels):
    """Independent construction: integrate a piecewise-constant profile twice
    and subtract the chord so the ends sit at zero."""
    bps = np.asarray(bps, float)

    def dg_raw(p):
        acc = 0.0
        for lo, hi, ell in zip(bps[:-1], bps[1:], levels):
            acc += ell * (min(max(p, lo), hi) - lo)
        return acc

    def g_raw(p):
        acc = 0.0
        for lo, hi, ell in zip(bps[:-1], bps[1:], levels):
            if p <= lo:
                break
            x = min(p, hi)
            acc += dg_raw(lo) * (x - lo) + 0.5 * ell * (x - lo) ** 2
        return acc

    chord = g_raw(1.0)
    return lambda p: g_raw(p) - chord * p


def test_double_integration_reproduces_piecewise_curves():
    # fixed profiles with hand-integrated closed forms
    g1 = PiecewisePolyCurve.from_liquidity([0, 0.6, 1], [[5.0], [0.0]])
    g2 = PiecewisePolyCurve.from_liquidity([0, 0.4, 1], [[0.0], [10.0]])
    for p in np.linspace(0.0, 1.0, 101):
        want1 = 2.5 * p * p - 2.1 * p if p <= 0.6 else 0.9 * (p - 1.0)
        want2 = -1.8 * p if p <= 0.4 else 5 * p * p - 5.8 * p + 0.8
        assert abs(g1.g(p) - want1) < 1e-10
        assert abs(g2.g(p) - want2) < 1e-10
    # random profiles against an independently coded double integration
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        bps = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, size=m)), [1.0]])
        levels = [float(rng.uniform(0.0, 8.0)) for _ in range(m + 1)]
        crv = PiecewisePolyCurve.from_liquidity(bps, [[v] for v in levels])
        ref = _reference_double_integral(bps, levels)
        for p in np.linspace(0.0, 1.0, 101):
            assert abs(crv.g(p) - ref(p)) < 1e-10


def test_constant_liquidity_two_gives_quadratic_score():
    crv = PiecewisePolyCurve.from_liquidity([0.0, 1.0], [[2.0]])
    ref = brier_curve(1.0)
    for p in np.linspace(0.0, 1.0, 101):
        assert crv.g(p) == pytest.approx(ref.g(p), abs=1e-15)
        assert crv.dg(p) == pytest.approx(ref.dg(p), abs=1e-15)


# 10. greedy routing convergence rate -----------------------------------------


def test_greedy_residual_rate():
    gens = [LmsrGenerator(1.0, 2), LmsrGenerator(2.0, 2)]
    p0 = np.array([0.4, 0.6])
    qs = [liability_of(G, p0) for G in gens]
    v = np.array([1.0, -0.5])
    steps_grid = [10, 100, 1000]
    residuals = [
        interp2_greedy(gens, qs, v, duration=1.0, steps=s)["residual"]
        for s in steps_grid
    ]
    slope = np.polyfit(np.log(steps_grid), np.log(residuals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)


# 11. piecewise-linear book ---------------------------------------------------


def test_book_price_and_deposits():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        grid = np.sort(rng.uniform(0.05, 0.95, size=m))
        while len(np.unique(grid)) < m:
            grid = np.sort(rng.uniform(0.05, 0.95, size=m))
        alpha = rng.uniform(0.1, 2.0, size=m)
        book = PiecewiseLinearMarket(grid, {0: alpha})
        R = float(rng.uniform(0.0, alpha.sum() * 0.999))
        book.t = float(np.sum(alpha * (grid - 1.0))) + R
        # brute-force argmax over slots
        prefix = np.concatenate([[0.0], np.cumsum(alpha)[:-1]])
        best = max(j for j in range(m) if R - prefix[j] >= 0)
        assert book.price == grid[best]
        # deposit round trip is exact
        j = int(rng.integers(0, m))
        w0 = alpha[j]
        d1 = book.modify_liquidity(0, j, w0 + 1.0)
        d2 = book.modify_liquidity(0, j, w0)
        assert d1 + d2 == 0.0
