"""Seeded inputs for the benchmark workloads, built with the standard library.

Nothing here imports numpy or parmm, so the set-up probe can make its inputs
before it starts timing ``import parmm``.  Only ``random.Random`` seeded with a
string is used, so one seed gives the same inputs, byte for byte, on every
platform and run.

Operation streams are infinite iterators: a timed loop takes as many as fit
in its time budget, and two passes over the same seed see the same prefix.
"""

from __future__ import annotations

import math
import random

N2_LPS = 16
N2_FAMILIES = ("uniswap_v2", "lmsr", "v3_bucket", "piecewise_liquidity")
FEE_BETA = 0.003
REPLAY_EVENTS = 150  # events after the opening market (initialize, register, modify)
REPLAY_CHURN_EVERY = 5  # every fifth event is a modify_liquidity, the rest trades
N5_OUTCOMES = 5
N5_LPS = 16
V3_BUCKETS = 400
V3_LPS = 8
V3_REMINT_EVERY = 10  # every tenth operation re-mints a bucket, the rest swap


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _expit(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def _reflect(z: float, lo: float, hi: float) -> float:
    while z < lo or z > hi:
        z = 2.0 * lo - z if z < lo else 2.0 * hi - z
    return z


def price_walk(rng: random.Random, p: float, sigma: float, lo: float, hi: float):
    """Endless random walk of a two-outcome price p_1, in logit space,
    reflected at [lo, hi]: each price is near the one before."""
    zlo, zhi = _logit(lo), _logit(hi)
    z = _logit(p)
    while True:
        z = _reflect(z + rng.gauss(0.0, sigma), zlo, zhi)
        yield _expit(z)


# ---------------------------------------------------------------------------
# two outcomes, k = 16 LPs of mixed curve families
# ---------------------------------------------------------------------------


def n2_descriptor(rng: random.Random, family: str) -> dict:
    """Generator descriptor, as the scenario format writes it."""
    if family == "uniswap_v2":
        return {"family": "uniswap_v2", "alpha": rng.uniform(0.5, 3.0)}
    if family == "lmsr":
        return {"family": "lmsr", "b": rng.uniform(0.3, 2.0)}
    if family == "v3_bucket":
        return {"family": "v3_bucket", "a": rng.uniform(0.03, 0.4),
                "b": rng.uniform(0.6, 0.97), "alpha": rng.uniform(0.5, 3.0)}
    if family == "piecewise_liquidity":
        return {"family": "piecewise_liquidity",
                "breakpoints": [0.0, rng.uniform(0.2, 0.45), rng.uniform(0.55, 0.8), 1.0],
                "coefficients": [[rng.uniform(0.5, 5.0)] for _ in range(3)]}
    raise ValueError(f"unknown family {family!r}")


def n2_market(seed: int, workload: str = "n2") -> dict:
    """Opening price p_1 and one descriptor per LP; LP i has family i mod 4."""
    rng = _rng(workload, seed, "market")
    return {
        "price": rng.uniform(0.35, 0.65),
        "fee_beta": FEE_BETA,
        "lps": [n2_descriptor(rng, N2_FAMILIES[i % len(N2_FAMILIES)]) for i in range(N2_LPS)],
    }


def n2_targets(seed: int, start: float, workload: str = "n2"):
    """Endless target prices p_1 for trades, each near the one before."""
    return price_walk(_rng(workload, seed, "targets"), start, 0.05, 0.1, 0.9)


def replay_scenario(seed: int, events: int = REPLAY_EVENTS) -> dict:
    """Scenario for ``parmm run``: the k = 16 opening market, then `events`
    events, of which every fifth replaces one LP's generator and the rest are
    target-price trades."""
    market = n2_market(seed, "replay")
    lps = market["lps"]
    evs: list[dict] = [{"op": "initialize", "price": market["price"], "generator": lps[0]}]
    for lp, desc in enumerate(lps[1:], start=1):
        evs.append({"op": "register_lp"})
        evs.append({"op": "modify_liquidity", "lp": lp, "generator": desc})
    targets = n2_targets(seed, market["price"], "replay")
    churn = _rng("replay", seed, "churn")
    for i in range(events):
        if i % REPLAY_CHURN_EVERY == REPLAY_CHURN_EVERY - 1:
            lp = churn.randrange(N2_LPS)
            desc = n2_descriptor(churn, N2_FAMILIES[lp % len(N2_FAMILIES)])
            evs.append({"op": "modify_liquidity", "lp": lp, "generator": desc})
        else:
            evs.append({"op": "execute_trade", "target_price": next(targets)})
    return {"n": 2, "mode": "lenient",
            "fee": {"scheme": "norm-l1", "beta": market["fee_beta"]}, "events": evs}


# ---------------------------------------------------------------------------
# five outcomes: one LMSR LP plus constant-product LPs
# ---------------------------------------------------------------------------


def n5_market(seed: int) -> dict:
    rng = _rng("n5", seed, "market")
    return {
        "n": N5_OUTCOMES,
        "lmsr_b": rng.uniform(0.5, 2.0),
        "alphas": [rng.uniform(2.0, 16.0) for _ in range(N5_LPS - 1)],
        "fee_beta": FEE_BETA,
    }


def _simplex(z: list[float]) -> list[float]:
    m = max(z)
    e = [math.exp(v - m) for v in z]
    s = sum(e)
    return [v / s for v in e]


def n5_ops(seed: int):
    """Endless alternation of ("trade", target price) and
    ("quote", nearby price, cash offset c): log-prices walk with step 0.05
    per outcome and stay within 1.0 of their mean."""
    rng = _rng("n5", seed, "ops")
    z = [0.0] * N5_OUTCOMES
    while True:
        z = [v + rng.gauss(0.0, 0.05) for v in z]
        mean = sum(z) / len(z)
        z = [min(max(v - mean, -1.0), 1.0) for v in z]
        yield ("trade", _simplex(z))
        near = [v + rng.gauss(0.0, 0.05) for v in z]
        yield ("quote", _simplex(near), rng.uniform(-0.05, 0.05))


# ---------------------------------------------------------------------------
# Uniswap v3 pool: B = 400 buckets tiled by 8 LPs
# ---------------------------------------------------------------------------


def v3_market(seed: int) -> dict:
    """Bucket edges, opening price and the opening mints (lp, bucket, weight).

    The LPs tile the buckets in contiguous ranges, so every bucket holds
    liquidity and the total number of bucket terms stays B.
    """
    rng = _rng("v3", seed, "market")
    lo, hi = 0.02, 0.98
    edges = [lo + (hi - lo) * j / V3_BUCKETS for j in range(V3_BUCKETS + 1)]
    cuts = sorted(rng.sample(range(20, V3_BUCKETS - 20), V3_LPS - 1))
    bounds = [0] + cuts + [V3_BUCKETS]
    owner = []
    for lp in range(V3_LPS):
        owner.extend([lp] * (bounds[lp + 1] - bounds[lp]))
    mints = [(owner[j], j, rng.uniform(0.5, 2.0)) for j in range(V3_BUCKETS)]
    price = rng.uniform(0.4, 0.6)
    # the pool opens with LP 0 holding weight 1 on the bucket at the opening
    # price; hand that bucket back to its owner in the tiling
    opening = next(j for j in range(V3_BUCKETS) if edges[j] <= price <= edges[j + 1])
    if owner[opening] != 0:
        mints.append((0, opening, 0.0))
    return {"edges": edges, "price": price, "owner": owner,
            "mints": mints, "fee_beta": FEE_BETA}


def v3_ops(seed: int, market: dict):
    """Endless ("swap", target p_1) operations, with every tenth one a
    ("mint", lp, bucket, weight) re-mint of a bucket the LP already owns."""
    rng = _rng("v3", seed, "ops")
    walk = price_walk(rng, market["price"], 0.04, 0.1, 0.9)
    owner = market["owner"]
    i = 0
    while True:
        i += 1
        if i % V3_REMINT_EVERY == 0:
            j = rng.randrange(V3_BUCKETS)
            yield ("mint", owner[j], j, rng.uniform(0.5, 2.0))
        else:
            yield ("swap", next(walk))
