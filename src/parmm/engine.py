"""Market engine: parallel liquidity providers behind one coherent price.

Each LP posts a generator and holds the liability bundle its maker owes at the
shared market price.  Trades are net bundles against the aggregate maker (the
sum of generators); the engine splits every trade across LPs so each stays on
the zero level set of its own cost function.  Conjugate solves run on the
aggregate compiled by `generators.compile_sum`, which merges same-family
terms: LMSR, V2 and constant-product makers by their scale, buckets over equal
bases into one bucket array, and piecewise curves into one on the union of
their breakpoints.  The LP book is arrays: the LPs' liabilities at a price
are one `liability_of` batch, a (k, n) array; the split spreads the residual
across its rows, the fees read the same fills, and a receipt is booked with
one add per book array.  Cash fees are Python floats and bundle fees arrays,
so a fee's type gives its kind.  Fees are tracked per LP and never touch the
pricing math.  `MarketState` holds the only per-LP book, which the pools
read too through `MarketState.records`; its constructor, `initialize`, opens
a market.  LP ids, bundles, fee rates and audit grids are checked by the
rules of `errors`, and prices by `simplex_price`.
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
            norms = np.add.reduce(np.abs(parts), axis=-1)
        else:
            # per row: np.linalg.norm(P, 2, axis=1) and sqrt(einsum) both
            # differ from the row norm in the last ulp on most fills
            norms = np.array([scheme._norm(ri) for ri in parts])
        total = np.add.reduce(norms)  # the reduction of ndarray.sum, without its wrapper
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


def _row(name: str, read=None):
    """A read/write view of row `lp_id` of the book array `name`.  A write
    replaces the array with a copy, as every operation does, so a row read
    earlier keeps its value."""

    def get(rec):
        row = getattr(rec._state, name)[rec.lp_id]
        return row if read is None else read(row)

    def put(rec, value):
        book = getattr(rec._state, name).copy()
        book[rec.lp_id] = value
        setattr(rec._state, name, book)

    return property(get, put)


class LpRecord:
    """One LP of a `MarketState`: its id, and its generator, liability, cash
    fees (a Python float) and bundle fees read from and written to the
    market's book.  A record is a view, not a value: it compares by identity
    and refers to its market."""

    __slots__ = ("_state", "lp_id")

    def __init__(self, state, lp_id: int):
        self._state, self.lp_id = state, lp_id

    def __repr__(self) -> str:
        return (
            f"LpRecord(lp_id={self.lp_id}, generator={self.generator!r}, liability={self.liability!r}, "
            f"cash_fees={self.cash_fees!r}, bundle_fees={self.bundle_fees!r})"
        )

    liability = _row("_liabilities")
    cash_fees = _row("_cash_fees", float)
    bundle_fees = _row("_bundle_fees")

    @property
    def generator(self) -> Generator:
        return self._state._generators[self.lp_id]

    @generator.setter
    def generator(self, G: Generator):
        self._state._generators[self.lp_id] = G
        self._state._compiled = self._state._live = None


@dataclass
class TradeReceipt:
    bundle: np.ndarray
    parts: dict  # lp_id -> fill bundle
    price_before: np.ndarray
    price_after: np.ndarray
    trader_fee: object  # float (cash) or ndarray (bundle)
    lp_fees: dict  # lp_id -> float or ndarray


class MarketState:
    """Protocol state: the LP book, shared price, fee scheme.

    The book is one generator list and three arrays: liabilities (k, n),
    cash fees (k,) and bundle fees (k, n), row i for LP i, which `records`
    views.  Every operation replaces an array instead of writing into it, so
    a row read earlier keeps its value.  strict mode requires the aggregate
    generator to be a pseudobarrier (its gradient blows up at the boundary),
    which keeps every price query interior.  Conjugate solves run on
    `compile_sum` of the LPs' generators, built on the first solve after a
    change; liabilities at a price are one `liability_of` batch over the LPs
    that hold liquidity, whose list is kept until a generator changes too.
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
        self._generators = [generator]
        self._liabilities = np.array([q0])
        self._cash_fees = np.zeros(1)
        self._bundle_fees = np.zeros((1, n))
        self.records: list[LpRecord] = [LpRecord(self, 0)]
        self._compiled = self._live = None
        p = price_of(self._solver(), q0, hint)
        if np.max(np.abs(liability_of(generator, p) - q0)) > 1e-8:
            raise LiabilityMismatch("q0 is not on the zero level set of the cost function")
        self.price = p

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

    def _record(self, lp_id: int) -> LpRecord:
        _check_integer("lp", lp_id)
        if not 0 <= lp_id < len(self.records):
            raise UnknownKind(f"no LP with id {lp_id}")
        return self.records[lp_id]

    def total_liability(self) -> np.ndarray:
        return np.add.reduce(self._liabilities, axis=0)

    def check_coherent(self, tol=1e-6) -> float:
        worst = float(np.max(np.abs(self._liabilities - liability_of(self._generators, self.price))))
        if not worst <= tol:
            raise InvariantViolated(f"incoherent state: liability deviation {worst:.3e}")
        return worst

    # -- operations -------------------------------------------------------

    def register_lp(self) -> int:
        lp_id = len(self.records)
        self._generators.append(TrivialGenerator(self.n))
        self._liabilities = np.concatenate([self._liabilities, np.zeros((1, self.n))])
        self._cash_fees = np.append(self._cash_fees, 0.0)
        self._bundle_fees = np.concatenate([self._bundle_fees, np.zeros((1, self.n))])
        self.records.append(LpRecord(self, lp_id))
        return lp_id

    def modify_liquidity(self, lp_id: int, generator: Generator) -> np.ndarray:
        """Swap an LP's generator; returns the bundle the LP must deposit
        (negative components are withdrawals).  Nothing changes unless it
        succeeds."""
        if generator.n != self.n:
            raise UnsupportedFamily(f"{generator.n}-outcome generator on a {self.n}-outcome market")
        rec = self._record(lp_id)
        generator = normalize_generator(generator)
        terms = self._terms([generator if i == lp_id else G for i, G in enumerate(self._generators)])
        if self.strict and not any(G.is_pseudobarrier for G in terms):
            raise NotPseudobarrier("modification would remove the last pseudobarrier")
        target = liability_of(generator, self.price)
        deposit = rec.liability - target
        rec.generator, rec.liability = generator, target  # the generator's write drops the aggregate
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
        rows, live = self._nontrivial()
        if bundle is None:
            if target_price is None:
                raise TypeError("price_trade needs a bundle or a target_price")
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
        k = len(self.records)
        fills = np.zeros((k, self.n))
        fills[rows] = spread_residual(held - self._liabilities[rows], bundle)
        parts = {i: fills[i] for i in rows}
        parts.update((i, fills[i]) for i in range(k) if i not in parts)
        trader_fee, lp_fee_list = (0.0, [0.0] * k)
        if self.fee is not None:
            trader_fee, lp_fee_list = compute_fees(self.fee, bundle, fills)
        return TradeReceipt(
            bundle=bundle,
            parts=parts,
            price_before=self.price.copy(),
            price_after=p_new.copy(),
            trader_fee=trader_fee,
            lp_fees=dict(enumerate(lp_fee_list)),
        )

    def _settle(self, receipt: TradeReceipt):
        """Book a receipt from `price_trade`: fills, fees and the new price,
        one add per array into a new array.  A fee is cash if it is a float
        (as `compute_fees` returns cash fees) and a bundle otherwise; a row
        without a fee of one kind adds zero to that array."""
        k = len(self.records)
        self._liabilities = self._liabilities + [receipt.parts[i] for i in range(k)]
        fees = [receipt.lp_fees[i] for i in range(k)]
        cash = [isinstance(fee, float) for fee in fees]
        if any(cash):
            self._cash_fees = self._cash_fees + [fee if c else 0.0 for fee, c in zip(fees, cash)]
        if not all(cash):
            zero = np.zeros(self.n)
            self._bundle_fees = self._bundle_fees + [zero if c else fee for fee, c in zip(fees, cash)]
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
