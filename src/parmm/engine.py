"""Market engine: parallel liquidity providers behind one coherent price.

Each LP posts a generator and holds the liability bundle its maker owes at the
shared market price.  Trades are net bundles against the aggregate maker (the
sum of generators); the engine splits every trade across LPs so each stays on
the zero level set of its own cost function.  Conjugate solves run on the
aggregate compiled by `generators.compile_sum`, which merges same-family
terms: LMSR, V2 and constant-product makers by their scale, buckets over equal
bases into one bucket array, and piecewise curves into one on the union of
their breakpoints.  Liabilities take one gradient per LP; the split stacks
them in one (k, n) array and spreads the residual across its rows, and the
fees read the same stacked fills.  A receipt is booked in one pass over the
LPs: cash fees are Python floats and bundle fees arrays, so a fee's type
gives its kind.  Fees are tracked per LP and never touch the pricing math.
`MarketState.records` is the only per-LP book, which the pools read too;
its constructor, `initialize`, opens a market.  LP ids, bundles, fee rates
and audit grids are checked by the rules of `errors`, and prices by
`simplex_price`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .convex_core import (
    EPS,
    conjugate_value,
    liability_of,
    normalize_generator,
    price_of,
    simplex_price,
    spread_residual,
)
from .errors import (
    InvariantViolated,
    LiabilityMismatch,
    NotLevelSet,
    NotPseudobarrier,
    UnknownKind,
    UnsupportedFamily,
    _bundle,
    _check_amount,
    _check_integer,
)
from .generators import Generator, TrivialGenerator, compile_sum

_LEVEL_TOL = 1e-8


# ---------------------------------------------------------------------------
# fee schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormFee:
    """Trader pays the cash amount beta * ||r||; LPs share it pro rata by the
    norm of their fill.  Budget balanced by construction."""

    beta: float
    norm: str = "l1"  # "l1" or "l2"

    def __post_init__(self):
        if self.norm not in ("l1", "l2"):
            raise UnknownKind(f"unknown fee norm {self.norm!r}")
        _check_amount("fee rate", self.beta)

    def _norm(self, r):
        # np.linalg.norm's own expression for l1, without its dispatch
        if self.norm == "l1":
            return float(np.add.reduce(np.abs(r)))
        return float(np.linalg.norm(r, 2))


@dataclass(frozen=True)
class PositivePartFee:
    """Trader pays the bundle beta * max(-r, 0); LP i receives
    beta * max(-r_i, 0).  Budget balanced for two outcomes, generally not for
    more: the per-LP positive parts can exceed the positive part of the sum."""

    beta: float

    def __post_init__(self):
        _check_amount("fee rate", self.beta)


def compute_fees(scheme, r, parts):
    """Fees for a net trade r split into per-LP fills.

    Returns (trader_fee, lp_fees): Python floats (cash) for NormFee,
    bundles for PositivePartFee.
    """
    r = np.asarray(r, dtype=float)
    if isinstance(scheme, NormFee):
        trader = scheme.beta * scheme._norm(r)
        if scheme.norm == "l1":
            norms = np.abs(parts).sum(axis=-1)
        else:
            # per row: np.linalg.norm(P, 2, axis=1) and sqrt(einsum) both
            # differ from the row norm in the last ulp on most fills
            norms = np.array([scheme._norm(ri) for ri in parts])
        total = norms.sum()
        if total <= 0.0:
            return 0.0, [0.0 for _ in parts]
        return trader, (trader * norms / total).tolist()
    if isinstance(scheme, PositivePartFee):
        trader = scheme.beta * np.maximum(-r, 0.0)
        return trader, [scheme.beta * np.maximum(-np.asarray(ri, float), 0.0) for ri in parts]
    raise UnknownKind(f"unknown fee scheme {scheme!r}")


def audit_budget_balance(scheme, receipt):
    """Bundle by which LP fee income exceeds what the trader paid.

    Cash fees are lifted to the 1-direction (one unit of every outcome pays
    one unit of cash).  Zero for NormFee; can be strictly positive for
    PositivePartFee with three or more outcomes.
    """
    n = len(receipt.bundle)
    ones = np.ones(n)

    def lift(x):
        return x * ones if np.isscalar(x) or np.ndim(x) == 0 else np.asarray(x, float)

    total_lp = sum(lift(f) for f in receipt.lp_fees.values())
    return total_lp - lift(receipt.trader_fee)


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


@dataclass
class LpRecord:
    lp_id: int
    generator: Generator
    liability: np.ndarray
    cash_fees: float
    bundle_fees: np.ndarray


@dataclass
class TradeReceipt:
    bundle: np.ndarray
    parts: dict  # lp_id -> fill bundle
    price_before: np.ndarray
    price_after: np.ndarray
    trader_fee: object  # float (cash) or ndarray (bundle)
    lp_fees: dict  # lp_id -> float or ndarray


class MarketState:
    """Protocol state: LP records, shared price, fee scheme.

    strict mode requires the aggregate generator to be a pseudobarrier (its
    gradient blows up at the boundary), which keeps every price query interior.
    Conjugate solves run on `compile_sum` of the LPs' generators, built on the
    first solve after a change; liabilities and target-price trades take one
    gradient per LP, and the split works on them stacked.
    """

    def __init__(self, generator: Generator, liability=None, price=None, fee=None, strict: bool = True):
        generator = normalize_generator(generator)  # as `modify_liquidity` books it
        n = generator.n
        hint = None
        if liability is None:
            if price is None:
                raise TypeError("initialize needs a liability or a price")
            hint = simplex_price(price, n)
            liability = liability_of(generator, hint)
        q0 = _bundle("liability", liability, n)
        if strict and not generator.is_pseudobarrier:
            raise NotPseudobarrier("strict markets need a pseudobarrier generator")
        self.n = n
        self.fee = fee
        self.strict = strict
        self.records: list[LpRecord] = [LpRecord(0, generator, q0.copy(), 0.0, np.zeros(n))]
        self._compiled = None
        p = price_of(self._solver(), q0, hint)
        if np.max(np.abs(liability_of(generator, p) - q0)) > 1e-8:
            raise LiabilityMismatch("q0 is not on the zero level set of the cost function")
        self.price = p

    # -- helpers ----------------------------------------------------------

    def _nontrivial(self):
        return [rec for rec in self.records if not isinstance(rec.generator, TrivialGenerator)]

    def _terms(self, generators=None) -> list:
        """The nontrivial generators among `generators`, the LPs' by default."""
        gens = [rec.generator for rec in self.records] if generators is None else generators
        gens = [G for G in gens if not isinstance(G, TrivialGenerator)]
        if not gens:
            raise NotLevelSet("market holds no liquidity")
        return gens

    def _solver(self) -> Generator:
        """The aggregate for conjugate solves, compiled on first use."""
        if self._compiled is None:
            self._compiled = compile_sum(self._terms())
        return self._compiled

    def _record(self, lp_id: int) -> LpRecord:
        _check_integer("lp", lp_id)
        if not 0 <= lp_id < len(self.records):
            raise UnknownKind(f"no LP with id {lp_id}")
        return self.records[lp_id]

    def total_liability(self) -> np.ndarray:
        return np.add.reduce([rec.liability for rec in self.records], axis=0)

    def check_coherent(self, tol=1e-6) -> float:
        worst = 0.0
        for rec in self.records:
            dev = np.max(np.abs(rec.liability - liability_of(rec.generator, self.price)))
            worst = max(worst, float(dev))
        if not worst <= tol:
            raise InvariantViolated(f"incoherent state: liability deviation {worst:.3e}")
        return worst

    # -- operations -------------------------------------------------------

    def register_lp(self) -> int:
        lp_id = len(self.records)
        self.records.append(LpRecord(lp_id, TrivialGenerator(self.n), np.zeros(self.n), 0.0, np.zeros(self.n)))
        return lp_id

    def modify_liquidity(self, lp_id: int, generator: Generator) -> np.ndarray:
        """Swap an LP's generator; returns the bundle the LP must deposit
        (negative components are withdrawals).  Nothing changes unless it
        succeeds."""
        if generator.n != self.n:
            raise UnsupportedFamily(f"{generator.n}-outcome generator on a {self.n}-outcome market")
        rec = self._record(lp_id)
        generator = normalize_generator(generator)
        terms = self._terms([generator if other is rec else other.generator for other in self.records])
        if self.strict and not any(G.is_pseudobarrier for G in terms):
            raise NotPseudobarrier("modification would remove the last pseudobarrier")
        target = liability_of(generator, self.price)
        deposit = rec.liability - target
        rec.generator, rec.liability = generator, target
        self._compiled = None
        return deposit

    def quote_completion(self, partial) -> tuple[np.ndarray, float]:
        """Complete a partial bundle into a valid net trade by adding cash in
        the 1-direction; returns (full bundle, cash added per outcome)."""
        partial = _bundle("bundle", partial, self.n)
        agg = self._solver()
        q = self.total_liability()
        c0 = conjugate_value(agg, q, self.price).cost
        c1 = conjugate_value(agg, q + partial, self.price).cost
        beta = c0 - c1
        return partial + beta * np.ones(self.n), float(beta)

    def price_trade(self, bundle=None, target_price=None) -> TradeReceipt:
        """Price a trade by bundle or by target price without booking it;
        `execute_trade` books the receipt this returns."""
        q = self.total_liability()
        nontrivial = self._nontrivial()
        if bundle is None:
            if target_price is None:
                raise TypeError("price_trade needs a bundle or a target_price")
            p_new = simplex_price(target_price, self.n)
            if not nontrivial:
                raise NotLevelSet("market holds no liquidity")
            # one gradient per LP: the aggregate's liability is the sum of theirs
            held = np.array([liability_of(rec.generator, p_new) for rec in nontrivial])
            bundle = np.add.reduce(held, axis=0) - q
        else:
            bundle = _bundle("bundle", bundle, self.n)
            agg = self._solver()
            c0 = conjugate_value(agg, q, self.price).cost
            res = conjugate_value(agg, q + bundle, self.price)
            if abs(res.cost - c0) > _LEVEL_TOL * max(1.0, float(np.abs(q).max())):
                raise NotLevelSet(f"trade moves the aggregate cost by {res.cost - c0:.3e}")
            p_new = price_of(agg, q + bundle, self.price)
            held = np.array([liability_of(rec.generator, p_new) for rec in nontrivial])
        # fills by record index (= lp_id), zero for LPs without liquidity
        fills = np.zeros((len(self.records), self.n))
        rows = [rec.lp_id for rec in nontrivial]
        fills[rows] = spread_residual(held - np.array([rec.liability for rec in nontrivial]), bundle)
        parts = {i: fills[i] for i in rows}
        parts.update((rec.lp_id, fills[rec.lp_id]) for rec in self.records if rec.lp_id not in parts)
        trader_fee, lp_fee_list = (0.0, [0.0] * len(self.records))
        if self.fee is not None:
            trader_fee, lp_fee_list = compute_fees(self.fee, bundle, fills)
        return TradeReceipt(
            bundle=bundle,
            parts=parts,
            price_before=self.price.copy(),
            price_after=p_new.copy(),
            trader_fee=trader_fee,
            lp_fees={rec.lp_id: lp_fee_list[k] for k, rec in enumerate(self.records)},
        )

    def _settle(self, receipt: TradeReceipt):
        """Book a receipt from `price_trade`: fills, fees and the new price,
        in one pass over the LPs.  A fee is cash if it is a float (as
        `compute_fees` returns cash fees) and a bundle otherwise."""
        for rec in self.records:
            rec.liability = rec.liability + receipt.parts[rec.lp_id]
            fee = receipt.lp_fees[rec.lp_id]
            if isinstance(fee, float):
                rec.cash_fees += fee
            else:
                rec.bundle_fees = rec.bundle_fees + fee
        self.price = receipt.price_after.copy()

    def execute_trade(self, bundle=None, target_price=None) -> TradeReceipt:
        receipt = self.price_trade(bundle, target_price)
        self._settle(receipt)
        return receipt

    def audit_no_liability(self, lp_id: int, grid: int = 10) -> float:
        """Worst-case component of the LP's liability over a price grid; a
        nonpositive generator never leaves the LP owing the trader, so the
        audit value should never exceed ~0.  `grid` points per axis, a
        positive integer."""
        rec = self._record(lp_id)
        _check_integer("grid", grid, 1)
        worst = -np.inf
        for p in _simplex_grid(self.n, grid):
            worst = max(worst, float(liability_of(rec.generator, p).max()))
        return worst

    def snapshot(self) -> dict:
        return {
            "price": self.price.tolist(),
            "lps": [
                {
                    "id": rec.lp_id,
                    "generator": rec.generator.descriptor(),
                    "liability": rec.liability.tolist(),
                    "cash_fees": rec.cash_fees,
                    "bundle_fees": rec.bundle_fees.tolist(),
                }
                for rec in self.records
            ],
        }


def _simplex_grid(n: int, m: int):
    """Deterministic m^(n-1)-point grid of the relative interior, by stick
    breaking over an interior grid of (0, 1)^(n-1)."""
    u = (np.arange(m) + 0.5) / m
    for combo in product(u, repeat=n - 1):
        p = np.empty(n)
        rest = 1.0
        for i, t in enumerate(combo):
            p[i] = t * rest
            rest -= p[i]
        p[n - 1] = rest
        if p.min() > EPS:
            yield p


initialize = MarketState
