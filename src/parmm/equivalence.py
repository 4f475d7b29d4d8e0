"""Equivalent views of parallel makers, and randomized cross-checks.

The same market can be run four ways: as one aggregate cost-function maker, as
parallel per-LP makers filled at the shared coherent price, as a scoring-rule
market where a trade to price target p moves each LP from S_i(p_old) to
S_i(p), or as a stream of infinitesimal trades routed greedily to the
cheapest LP.  This module implements the scoring view and the greedy stream
and checks all of them against the engine.
"""

from __future__ import annotations

import numpy as np

from .convex_core import (
    conjugate_value,
    infimal_convolution_split,
    liability_of,
    price_of,
)
from .engine import initialize
from .errors import InvariantViolated, ParmmError, _check_integer
from .generators import (
    BucketCurve,
    ConstantProductGenerator,
    Generator,
    LmsrCurve,
    LmsrGenerator,
    PairConstantProductGenerator,
    UniswapV2Curve,
    brier_curve,
)


class ScoringMarket:
    """Parallel makers driven purely by price targets.

    Each LP quotes the shared price p and owes its score bundle S_i(p); a
    trade names a new target and hands every LP the difference."""

    def __init__(self, generators, price):
        self.generators = list(generators)
        self.price = np.asarray(price, dtype=float)
        self.liabilities = liability_of(self.generators, self.price)  # (k, n)

    def scoring_trade(self, target):
        """Move every maker to the target price; returns (net bundle, parts)."""
        target = np.asarray(target, dtype=float)
        held = liability_of(self.generators, target)
        parts = list(held - self.liabilities)
        self.liabilities, self.price = held, target
        return np.sum(parts, axis=0), parts


def interp1_validate(generators, liabilities, parts, tol=1e-8) -> float:
    """Check a proposed split of a net trade: every LP must stay on its own
    cost level set.  Returns the worst level-set deviation; raises
    InvariantViolated if it exceeds tol."""
    worst = 0.0
    for G, q, r in zip(generators, liabilities, parts):
        before = conjugate_value(G, np.asarray(q, float)).cost
        after = conjugate_value(G, np.asarray(q, float) + np.asarray(r, float)).cost
        worst = max(worst, abs(after - before))
    if not worst <= tol:
        raise InvariantViolated(f"level-set deviation {worst:.3e} exceeds {tol:.1e}")
    return worst


def interp2_greedy(generators, liabilities, v, duration=1.0, steps=100):
    """Stream the flow bundle v for `duration`, each slice routed to the LP
    quoting the lowest marginal cost <p_i, v>.

    Each finite slice overpays its quote by a Bregman gap of order dt^2, so
    the summed residual sum_i C_i(q_i) decays like 1/steps.  The returned
    cleanup split rebalances the books at the shared coherent price.
    """
    gens = list(generators)
    qs = [np.asarray(q, dtype=float).copy() for q in liabilities]
    ones = np.ones(len(v))
    v = np.asarray(v, dtype=float)
    dt = duration / steps
    prices = [price_of(G, q) for G, q in zip(gens, qs)]
    route = []
    for _ in range(steps):
        costs = [float(p @ v) for p in prices]
        i = int(np.argmin(costs))
        qs[i] = qs[i] + dt * (v - costs[i] * ones)
        prices[i] = price_of(gens[i], qs[i], prices[i])
        route.append(i)
    start_levels = [conjugate_value(G, np.asarray(q, float)).cost for G, q in zip(gens, liabilities)]
    end_levels = [conjugate_value(G, q).cost for G, q in zip(gens, qs)]
    residual = float(sum(end_levels) - sum(start_levels))
    total = np.sum(qs, axis=0)
    cost, cleanup_parts, shared_price = infimal_convolution_split(gens, total)
    return {
        "residual": residual,
        "liabilities": qs,
        "route": route,
        "cleanup": cleanup_parts,
        "shared_price": shared_price,
        "aggregate_cost": cost,
    }


# ---------------------------------------------------------------------------
# randomized suite
# ---------------------------------------------------------------------------


def _sample_generator(rng, n: int) -> Generator:
    if n == 2:
        kind = rng.integers(0, 4)
        if kind == 0:
            return LmsrCurve(float(rng.uniform(0.5, 3.0)))
        if kind == 1:
            return UniswapV2Curve(float(rng.uniform(0.5, 2.0)))
        if kind == 2:
            return brier_curve(float(rng.uniform(1.0, 3.0)))
        # wide bucket: sampled prices stay interior, so it acts as a
        # translated copy of its base and every view stays comparable
        base = LmsrCurve(1.0) if rng.integers(0, 2) == 0 else UniswapV2Curve(1.0)
        return BucketCurve(base, 0.01, 0.99, float(rng.uniform(0.5, 2.0)))
    kind = rng.integers(0, 3)
    if kind == 0:
        return LmsrGenerator(float(rng.uniform(0.5, 3.0)), n)
    if kind == 1:
        return ConstantProductGenerator(n, float(rng.uniform(0.5, 2.0)))
    i = int(rng.integers(0, n - 1))
    j = int(rng.integers(i + 1, n))
    return PairConstantProductGenerator(n, i, j, float(rng.uniform(0.5, 2.0)))


def _sample_price(rng, n: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    p = np.clip(p, 0.02, None)
    return p / p.sum()


def equivalence_suite(n: int, trials: int, seed: int) -> dict:
    """Random markets, random price moves; check that the engine split, the
    scoring-rule split and per-LP coherence all agree.  UnknownKind unless n
    is an integer >= 2 and trials a positive integer: a suite that checked
    nothing does not pass."""
    _check_integer("n", n, 2)
    _check_integer("trials", trials, 1)
    rng = np.random.default_rng(seed)
    tol = 1e-7 if n == 2 else 1e-6
    worst_net = worst_part = worst_price = worst_level = 0.0
    failures = 0
    for _ in range(trials):
        k = int(rng.integers(2, 4))
        gens = [_sample_generator(rng, n) for _ in range(k)]
        if not any(G.is_pseudobarrier for G in gens):
            gens[0] = LmsrCurve(1.0) if n == 2 else LmsrGenerator(1.0, n)
        p0 = _sample_price(rng, n)
        target = _sample_price(rng, n)
        try:
            scoring = ScoringMarket(gens, p0)
            engine = initialize(gens[0], price=p0, strict=False)
            for G in gens[1:]:
                lp = engine.register_lp()
                engine.modify_liquidity(lp, G)
            net, parts = scoring.scoring_trade(target)
            receipt = engine.execute_trade(bundle=net)
            worst_level = max(worst_level, interp1_validate(gens, liability_of(gens, p0), parts, tol=1e-7))
            worst_price = max(worst_price, float(np.max(np.abs(receipt.price_after - target))))
            worst_part = max(worst_part, float(np.max(np.abs(receipt.fills - parts))))
            engine_net = np.sum(receipt.fills, axis=0)
            worst_net = max(worst_net, float(np.max(np.abs(engine_net - net))))
        except ParmmError:
            failures += 1
    report = {
        "n": n,
        "trials": trials,
        "seed": seed,
        "tolerance": tol,
        "max_net_deviation": worst_net,
        "max_part_deviation": worst_part,
        "max_price_deviation": worst_price,
        "max_level_set_deviation": worst_level,
        "failures": failures,
    }
    report["pass"] = bool(
        failures == 0
        and worst_net <= tol
        and worst_part <= tol
        and worst_price <= tol
    )
    return report
