"""Market engine: parallel liquidity providers behind one coherent price.

Each LP posts a generator and holds the liability bundle its maker owes at the
shared market price.  Trades are net bundles against the aggregate maker (the
sum of generators); the engine splits every trade across LPs so each stays on
the zero level set of its own cost function.  Conjugate solves run on the
aggregate compiled by `generators.compile_sum`, which merges same-family
terms: LMSR, V2 and constant-product makers by their scale, buckets over equal
bases into one bucket array, and piecewise curves into one on the union of
their breakpoints.  The LP book is arrays end to end, row i for LP i: the
LPs' liabilities at a price are one `liability_of` batch; the split spreads
the residual across its rows; the fees of those fills are one array, (k,)
in cash or (k, n) in bundles; a receipt carries the fill and fee arrays and
booking adds each to the book's.  Fees never touch the pricing math.
`MarketState` holds the only per-LP book, which the pools read too, and
`records` hands out copies of its rows as values; its constructor,
`initialize`, opens a market.  LP ids, bundles, fee rates and audit grids
are checked by the rules of `errors`, and prices by `simplex_price`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import MappingProxyType

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


def compute_fees(scheme, r, fills):
    """Fees for a net trade r split into the fills, a (k, n) array with row i
    for LP i.

    Returns (trader_fee, lp_fees): a Python float and a (k,) array of cash
    fees for NormFee, a bundle and a (k, n) array of bundle fees for
    PositivePartFee.
    """
    r = np.asarray(r, dtype=float)
    fills = np.asarray(fills, dtype=float)
    if isinstance(scheme, NormFee):
        trader = scheme.beta * scheme._norm(r)
        if scheme.norm == "l1":
            norms = np.add.reduce(np.abs(fills), axis=-1)
        else:
            # per row: np.linalg.norm(P, 2, axis=1) and sqrt(einsum) both
            # differ from the row norm in the last ulp on most fills
            norms = np.array([scheme._norm(ri) for ri in fills])
        total = np.add.reduce(norms)  # the reduction of ndarray.sum, without its wrapper
        if total <= 0.0:
            return 0.0, np.zeros(len(fills))
        return trader, trader * norms / total
    if isinstance(scheme, PositivePartFee):
        return scheme.beta * np.maximum(-r, 0.0), scheme.beta * np.maximum(-fills, 0.0)
    raise UnknownKind(f"unknown fee scheme {scheme!r}")


def audit_budget_balance(scheme, receipt):
    """Bundle by which LP fee income exceeds what the trader paid.

    Cash fees are lifted to the 1-direction (one unit of every outcome pays
    one unit of cash).  Zero for NormFee; can be strictly positive for
    PositivePartFee with three or more outcomes.
    """
    ones = np.ones(len(receipt.bundle))
    fees = receipt.fees if receipt.fees.ndim == 2 else np.outer(receipt.fees, ones)
    # row by row, in LP order; times ones leaves a bundle's bits as they are
    return np.add.reduce(fees, axis=0) - receipt.trader_fee * ones


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpRecord:
    """One LP of a market, as a value: its id, generator, liability, cash fees
    (a Python float) and bundle fees, copied from the market's book when
    `MarketState.records` is read.  Writing into its arrays leaves the market
    as it was.  Two records are equal when they hold the same LP id and
    generator object, equal cash fees and equal arrays."""

    lp_id: int
    generator: Generator
    liability: np.ndarray
    cash_fees: float
    bundle_fees: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, LpRecord):
            return NotImplemented
        return (self.lp_id == other.lp_id and self.generator is other.generator and self.cash_fees == other.cash_fees
                and np.array_equal(self.liability, other.liability) and np.array_equal(self.bundle_fees, other.bundle_fees))


@dataclass
class TradeReceipt:
    """A priced trade.  `fills` is a (k, n) array, row i for LP i, summing to
    `bundle`; `fees` holds the LPs' fees, a (k,) array of cash fees or a
    (k, n) array of bundle fees, its shape giving their kind, and
    `trader_fee` what the trader pays: a float in cash or a bundle."""

    bundle: np.ndarray
    fills: np.ndarray
    price_before: np.ndarray
    price_after: np.ndarray
    trader_fee: object
    fees: np.ndarray

    @property
    def parts(self) -> MappingProxyType:
        """lp_id -> fill bundle, in LP id order; read only."""
        return MappingProxyType(dict(enumerate(self.fills)))

    @property
    def lp_fees(self) -> MappingProxyType:
        """lp_id -> fee, a Python float in cash or a bundle, in LP id order; read only."""
        return MappingProxyType(dict(enumerate(self.fees.tolist() if self.fees.ndim == 1 else self.fees)))


class MarketState:
    """Protocol state: the LP book, shared price, fee scheme.

    The book is one generator list and three arrays: liabilities (k, n),
    cash fees (k,) and bundle fees (k, n), row i for LP i; `records` copies
    them out as one value per LP.  Every operation replaces an array instead
    of writing into it, so a row read earlier keeps its value.  strict mode
    requires the aggregate generator to be a pseudobarrier (its gradient
    blows up at the boundary), which keeps every price query interior.
    Conjugate solves run on `compile_sum` of the LPs' generators, built on
    the first solve after a change; liabilities at a price are one
    `liability_of` batch over the LPs that hold liquidity, whose list is kept
    until a generator changes too.
    """

    def __init__(self, generator: Generator, liability=None, price=None, fee=None, strict: bool = True):
        if (liability is None) == (price is None):
            raise TypeError("initialize takes a liability or a price, one of the two")
        generator = normalize_generator(generator)  # as `modify_liquidity` books it
        n = generator.n
        hint = None
        if liability is None:
            hint = simplex_price(price, n)
            liability = liability_of(generator, hint)
        q0 = _bundle("liability", liability, n)
        if strict and not generator.is_pseudobarrier:
            raise NotPseudobarrier("strict markets need a pseudobarrier generator")
        self.n = n
        self.fee = fee
        self.strict = strict
        self._generators = [generator]
        self._liabilities = np.array([q0])
        self._cash_fees = np.zeros(1)
        self._bundle_fees = np.zeros((1, n))
        self._compiled = self._live = None
        p = price_of(self._solver(), q0, hint)
        if np.max(np.abs(liability_of(generator, p) - q0)) > 1e-8:
            raise LiabilityMismatch("q0 is not on the zero level set of the cost function")
        self.price = p

    @property
    def records(self) -> list[LpRecord]:
        """The book as one value per LP, in LP id order, built from copies of
        its arrays."""
        book = zip(self._generators, self._liabilities.copy(), self._cash_fees.tolist(), self._bundle_fees.copy())
        return [LpRecord(i, G, q, cash, fees) for i, (G, q, cash, fees) in enumerate(book)]

    # -- helpers ----------------------------------------------------------

    def _nontrivial(self) -> tuple[list, list]:
        """The rows and generators of the LPs that hold liquidity, kept
        until an LP's generator changes."""
        if self._live is None:
            rows = [i for i, G in enumerate(self._generators) if not isinstance(G, TrivialGenerator)]
            self._live = rows, [self._generators[i] for i in rows]
        return self._live

    def _terms(self, generators=None) -> list:
        """The nontrivial generators among `generators`, the LPs' by default."""
        if generators is None:
            gens = self._nontrivial()[1]
        else:
            gens = [G for G in generators if not isinstance(G, TrivialGenerator)]
        if not gens:
            raise NotLevelSet("market holds no liquidity")
        return gens

    def _solver(self) -> Generator:
        """The aggregate for conjugate solves, compiled on first use."""
        if self._compiled is None:
            self._compiled = compile_sum(self._terms())
        return self._compiled

    def _check_lp(self, lp_id: int):
        _check_integer("lp", lp_id)
        if not 0 <= lp_id < len(self._generators):
            raise UnknownKind(f"no LP with id {lp_id}")

    def total_liability(self) -> np.ndarray:
        return np.add.reduce(self._liabilities, axis=0)

    def check_coherent(self, tol=1e-6) -> float:
        worst = float(np.max(np.abs(self._liabilities - liability_of(self._generators, self.price))))
        if not worst <= tol:
            raise InvariantViolated(f"incoherent state: liability deviation {worst:.3e}")
        return worst

    # -- operations -------------------------------------------------------

    def register_lp(self) -> int:
        lp_id = len(self._generators)
        self._generators.append(TrivialGenerator(self.n))
        self._liabilities = np.concatenate([self._liabilities, np.zeros((1, self.n))])
        self._cash_fees = np.append(self._cash_fees, 0.0)
        self._bundle_fees = np.concatenate([self._bundle_fees, np.zeros((1, self.n))])
        return lp_id

    def modify_liquidity(self, lp_id: int, generator: Generator) -> np.ndarray:
        """Swap an LP's generator; returns the bundle the LP must deposit
        (negative components are withdrawals).  Nothing changes unless it
        succeeds."""
        if generator.n != self.n:
            raise UnsupportedFamily(f"{generator.n}-outcome generator on a {self.n}-outcome market")
        self._check_lp(lp_id)
        generator = normalize_generator(generator)
        terms = self._terms([generator if i == lp_id else G for i, G in enumerate(self._generators)])
        if self.strict and not any(G.is_pseudobarrier for G in terms):
            raise NotPseudobarrier("modification would remove the last pseudobarrier")
        target = liability_of(generator, self.price)
        liabilities = self._liabilities.copy()
        deposit = liabilities[lp_id] - target
        liabilities[lp_id] = target
        self._generators[lp_id], self._liabilities = generator, liabilities
        self._compiled = self._live = None  # the aggregate and the LPs holding liquidity change
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
        if (bundle is None) == (target_price is None):
            raise TypeError("price_trade takes a bundle or a target_price, one of the two")
        q = self.total_liability()
        rows, live = self._nontrivial()
        if bundle is None:
            p_new = simplex_price(target_price, self.n)
            if not live:
                raise NotLevelSet("market holds no liquidity")
            # one gradient batch: the aggregate's liability is the sum of the LPs'
            held = liability_of(live, p_new)
            bundle = np.add.reduce(held, axis=0) - q
        else:
            bundle = _bundle("bundle", bundle, self.n)
            agg = self._solver()
            c0 = conjugate_value(agg, q, self.price).cost
            res = conjugate_value(agg, q + bundle, self.price)
            if abs(res.cost - c0) > _LEVEL_TOL * max(1.0, float(np.abs(q).max())):
                raise NotLevelSet(f"trade moves the aggregate cost by {res.cost - c0:.3e}")
            p_new = price_of(agg, q + bundle, self.price)
            held = liability_of(live, p_new)
        # fills by row (= lp_id), zero for LPs without liquidity
        k = len(self._generators)
        fills = np.zeros((k, self.n))
        fills[rows] = spread_residual(held - self._liabilities[rows], bundle)
        trader_fee, fees = (0.0, np.zeros(k)) if self.fee is None else compute_fees(self.fee, bundle, fills)
        return TradeReceipt(bundle, fills, self.price.copy(), p_new.copy(), trader_fee, fees)

    def _settle(self, receipt: TradeReceipt):
        """Book a receipt from `price_trade`: one add for its fills, one for
        its fees into the cash or the bundle fees, as their shape says, each
        into a new array, and the new price."""
        self._liabilities = self._liabilities + receipt.fills
        if receipt.fees.ndim == 1:
            self._cash_fees = self._cash_fees + receipt.fees
        else:
            self._bundle_fees = self._bundle_fees + receipt.fees
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
        self._check_lp(lp_id)
        _check_integer("grid", grid, 1)
        worst = -np.inf
        for p in _simplex_grid(self.n, grid):
            worst = max(worst, float(liability_of(self._generators[lp_id], p).max()))
        return worst

    def snapshot(self) -> dict:
        book = zip(self._generators, self._liabilities.tolist(), self._cash_fees.tolist(), self._bundle_fees.tolist())
        return {
            "price": self.price.tolist(),
            "lps": [
                {"id": i, "generator": G.descriptor(), "liability": q, "cash_fees": cash, "bundle_fees": fees}
                for i, (G, q, cash, fees) in enumerate(book)
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
