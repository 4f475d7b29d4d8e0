"""The benchmark's workloads: open a market, prepare each operation, check it.

Every workload runs as a closed loop with one caller.  For each operation the
benchmark first prepares the inputs (a trade bundle is computed from a seeded
target price and the live state), then times the call alone, then checks the
result.  A call that raises ``ParmmError`` is a failed operation; a check that
fails raises ``CheckFailed``, which fails the whole run.

Importing this module imports parmm: put the repository's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import partial
from pathlib import Path

import numpy as np

from parmm import (
    ConstantProductGenerator,
    LmsrGenerator,
    NormFee,
    UniswapV3Market,
    audit_budget_balance,
    cli,
    generator_from_descriptor,
    initialize,
    liability_of,
)

import inputs

COHERENCE_TOL = 1e-7  # worst per-LP distance from the LP's own level set
SUM_TOL = 1e-9  # parts against the bundle, LP fees against the trader fee
PRICE_TOL = 1e-9  # price after a trade against its target, two outcomes
SOLVE_TOL_N5 = 1e-7  # prices and quotes from the simplex solver (KKT tolerance 1e-10)


class CheckFailed(Exception):
    """An output of the program is wrong: the run fails, it is not slow."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def close(got, want, tol: float) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.max(np.abs(got - want)) <= tol * max(1.0, float(np.max(np.abs(want)))))


def target_bundle(state, p) -> np.ndarray:
    """Trade bundle that takes the market to price p: the aggregate
    liability at p (a gradient, no solve) minus the liability held now."""
    p = np.asarray(p, dtype=float)
    held = state.total_liability()
    return np.sum([liability_of(rec.generator, p) for rec in state.records], axis=0) - held


def check_coherent(state):
    # the engine's own check asserts, which ``python -O`` strips; compare here
    worst = state.check_coherent(np.inf)
    _require(worst <= COHERENCE_TOL, f"LP liability {worst:.3e} off its level set")


def check_trade(state, receipt, bundle, price, price_tol):
    parts = np.sum(list(receipt.parts.values()), axis=0)
    _require(close(parts, bundle, SUM_TOL), "trade parts do not sum to the bundle")
    _require(close(receipt.price_after, price, price_tol), "trade missed its target price")
    if isinstance(state.fee, NormFee):
        gap = float(np.max(np.abs(audit_budget_balance(state.fee, receipt))))
        _require(gap <= SUM_TOL * max(1.0, receipt.trader_fee),
                 "NormFee LP fees do not add up to the trader fee")
    check_coherent(state)


def fingerprint(state) -> dict:
    """Final price and per-LP liabilities, compared with a recorded reference."""
    return {"price": [float(v) for v in state.price],
            "liabilities": [[float(v) for v in rec.liability] for rec in state.records]}


class Workload:
    """One workload at one seed.  `spec` holds the generated opening
    market (for replay-n2, the whole scenario); `events_per_op` is how many
    of the program's events one timed operation covers."""

    name = ""
    root = "op"  # name of the root span of one operation in a traced run
    events_per_op = 1
    trace_rate = 1.0  # rough untraced ops/s, to size the fixed-length traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build(self):
        raise NotImplementedError

    def ops(self):
        """Endless iterator of operation inputs, made from the seed."""
        raise NotImplementedError

    def prepare(self, market, op):
        """(call, verify): the timed zero-argument call, and the check of
        its result.  The call looks methods up when it runs, so that a
        tracer installed after `prepare` sees it."""
        raise NotImplementedError

    def state(self, market):
        return market

    def trace_bytes(self) -> int:
        """Bytes of trace the last operation wrote; library calls write none."""
        return 0


# ---------------------------------------------------------------------------
# two outcomes
# ---------------------------------------------------------------------------


def open_n2(spec: dict):
    """The k = 16 mixed-family market of `inputs.n2_market`."""
    lps = spec["lps"]
    p = spec["price"]
    st = initialize(generator_from_descriptor(lps[0], 2), price=[p, 1.0 - p],
                    fee=NormFee(spec["fee_beta"], "l1"), strict=False)
    for desc in lps[1:]:
        lp = st.register_lp()
        st.modify_liquidity(lp, generator_from_descriptor(desc, 2))
    return st


class BundleN2(Workload):
    """Trades by bundle over the replay's k = 16 market: each runs three
    50-step bisection solves over a 16-term SumGenerator and no
    serialization, so a solver change shows here first."""

    name = "bundle-n2"
    trace_rate = 16.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = inputs.n2_market(seed)

    def build(self):
        return open_n2(self.spec)

    def ops(self):
        return inputs.n2_targets(self.seed, self.spec["price"])

    def prepare(self, st, p1):
        p = np.array([p1, 1.0 - p1])
        bundle = target_bundle(st, p)
        return (lambda: st.execute_trade(bundle=bundle)), partial(
            check_trade, st, bundle=bundle, price=p, price_tol=PRICE_TOL)


class ReplayN2(Workload):
    """``parmm run`` of a k = 16 mixed-family scenario.  Target-price trades
    run no conjugate solve, so serialization and the engine split dominate
    and a solver change should move nothing; the modify_liquidity churn makes
    any trade-side cache pay for its rebuilds.  One timed operation is one
    in-process ``parmm run`` of the whole scenario."""

    name = "replay-n2"
    root = "cli.main"
    trace_rate = 3.0

    def __init__(self, seed, workdir, events=inputs.REPLAY_EVENTS):
        super().__init__(seed, workdir)
        self.spec = inputs.replay_scenario(seed, events)
        self.events_per_op = len(self.spec["events"])
        self.path = workdir / f"replay-{seed}-{events}.json"
        self.out = workdir / f"trace-{seed}-{events}.jsonl"
        self.path.write_text(json.dumps(self.spec))
        self.sha256 = None

    def build(self):
        return open_n2(inputs.n2_market(self.seed, "replay"))

    def ops(self):
        return itertools.repeat(None)

    def prepare(self, market, op):
        return (lambda: cli.main(["run", str(self.path), "--out", str(self.out)])), self.verify

    def trace_bytes(self) -> int:
        return self.out.stat().st_size

    def verify(self, code):
        _require(code == 0, f"parmm run exited with {code}")
        data = self.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.sha256 is None:
            lines = data.decode().splitlines()
            _require(len(lines) == self.events_per_op + 1, "trace has the wrong number of lines")
            last = json.loads(lines[-1])["state"]["price"][0]
            trades = [ev["target_price"] for ev in self.spec["events"] if "target_price" in ev]
            _require(abs(last - trades[-1]) <= 1e-10, "replay did not end at the last target price")
            self.sha256 = digest
        _require(digest == self.sha256, "replaying the same scenario gave a different trace")


# ---------------------------------------------------------------------------
# five outcomes
# ---------------------------------------------------------------------------


class BundleN5(Workload):
    """Five outcomes, one LMSR LP and 15 constant-product LPs: the only
    workload on the exponentiated-gradient plus Newton solver, with
    read-only quotes between the trades.  Its solver stalls (about 2 s
    before ``SolverDiverged``) on a few percent of operations; they count
    as failed operations at their full time."""

    name = "bundle-n5"
    trace_rate = 8.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = inputs.n5_market(seed)

    def build(self):
        n = self.spec["n"]
        st = initialize(LmsrGenerator(self.spec["lmsr_b"], n), price=np.full(n, 1.0 / n),
                        fee=NormFee(self.spec["fee_beta"], "l1"), strict=False)
        for alpha in self.spec["alphas"]:
            lp = st.register_lp()
            st.modify_liquidity(lp, ConstantProductGenerator(n, alpha))
        return st

    def ops(self):
        return inputs.n5_ops(self.seed)

    def prepare(self, st, op):
        p = np.asarray(op[1], dtype=float)
        bundle = target_bundle(st, p)
        if op[0] == "trade":
            return (lambda: st.execute_trade(bundle=bundle)), partial(
                check_trade, st, bundle=bundle, price=p, price_tol=SOLVE_TOL_N5)
        # a partial bundle whose completion is known without a solve: the
        # bundle to p, shifted by cash c in the 1-direction, completes to
        # the bundle to p and a quote of -c
        cash = op[2]
        price, held = st.price.copy(), st.total_liability()

        def verify(result):
            full, quote = result
            _require(close(quote, -cash, SOLVE_TOL_N5), "quote_completion quoted the wrong cash")
            _require(close(full, bundle, SOLVE_TOL_N5), "quote_completion returned the wrong bundle")
            _require(np.array_equal(st.price, price) and np.array_equal(st.total_liability(), held),
                     "quote_completion changed the market")

        return (lambda: st.quote_completion(bundle + cash)), verify


# ---------------------------------------------------------------------------
# Uniswap v3 pool
# ---------------------------------------------------------------------------


class V3Pool(Workload):
    """Uniswap v3 pool of B = 400 buckets tiled by 8 LPs, swaps crossing
    buckets and one re-mint in ten: the only workload on ``price2`` and on
    bucket sums whose length B scales."""

    name = "v3-pool"
    trace_rate = 14.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = inputs.v3_market(seed)

    def build(self):
        edges = self.spec["edges"]
        pool = UniswapV3Market(list(zip(edges[:-1], edges[1:])), self.spec["price"],
                               beta=self.spec["fee_beta"])
        for _ in range(inputs.V3_LPS - 1):
            pool.register_lp()
        for lp, j, weight in self.spec["mints"]:
            pool.mint(lp, j, weight)
        return pool

    def ops(self):
        return inputs.v3_ops(self.seed, self.spec)

    def state(self, pool):
        return pool.state

    def prepare(self, pool, op):
        if op[0] == "mint":
            _, lp, j, weight = op
            price = pool.state.price.copy()

            def verify(_deposit):
                _require(pool.weights[lp][j] == weight, "mint did not set the weight")
                _require(np.array_equal(pool.state.price, price), "mint moved the price")
                check_coherent(pool.state)

            return (lambda: pool.mint(lp, j, weight)), verify
        p = np.array([op[1], 1.0 - op[1]])
        bundle = target_bundle(pool.state, p)

        def verify(receipt):
            fees = np.sum(list(receipt.lp_fees.values()), axis=0)
            _require(close(fees, receipt.trader_fee, SUM_TOL), "pool LP fees do not add up")
            check_trade(pool.state, receipt, bundle, p, PRICE_TOL)

        return (lambda: pool.trade(bundle)), verify


WORKLOADS = {cls.name: cls for cls in (ReplayN2, BundleN2, BundleN5, V3Pool)}
