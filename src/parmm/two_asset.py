"""Two-outcome specializations: scalar-curve makers and AMM adapters.

A two-outcome maker is fully described by its curve g on [0, 1]: the maker's
liability at price p is (g(p) + g'(p)(1 - p), g(p) - p g'(p)) and its state
collapses to the scalar t = q_1 - q_2, recovered through the inverse of g'.
The curve is itself the maker's generator: `price2` is a scalar view of
`conjugate_value` on it and runs no solver of its own.  The
constant-product and concentrated-liquidity pools below are the general
engine plus reserve bookkeeping x = -q, and keep no LP book of their own:
each LP's liquidity, a V2 alpha or a `BucketArrayCurve` of bucket weights,
is read from the engine's generators, and the v3 aggregate is the engine's
solve aggregate.  The v3 pool prices a swap once, with `price_trade`,
checks its buckets at that price and books that same receipt with its
bucket-share fees written in as a (k, n) array, so pool fees land in the
LPs' `bundle_fees`.
Arguments are checked by the rules of `errors`; a bucket or slot index
that is not an integer in range (a bool is not one) raises `OutOfRange`.
"""

from __future__ import annotations

import math

import numpy as np

from .convex_core import conjugate_value, liability_of, simplex_price
from .engine import MarketState, PositivePartFee
from .errors import (
    EmptyBucket,
    InsufficientReserves,
    InvariantViolated,
    OutOfRange,
    _bundle,
    _check_amount,
    _check_index,
    _check_integer,
    _check_number,
    _floats,
)
from .generators import (
    BucketArrayCurve,
    BucketCurve,
    Curve1D,
    PiecewisePolyCurve,
    TrivialGenerator,
    UniswapV2Curve,
    piecewise_linear_curve,
)

__all__ = [
    "liability2",
    "price2",
    "UniswapV2Market",
    "UniswapV3Market",
    "PiecewiseLinearMarket",
]


def liability2(curve: Curve1D, p: float) -> np.ndarray:
    """Scoring-rule liability of the curve maker quoting price p: `liability_of` at (p, 1 - p)."""
    _check_number("price", p)
    return liability_of(curve, simplex_price(p, 2))


def price2(curve: Curve1D, q) -> float:
    """Leftmost price consistent with liability q (scalar t = q1 - q2 also
    accepted).  Flat stretches and kinks of g' resolve to their left end."""
    if not isinstance(q, (list, tuple, np.ndarray)):
        _check_number("liability", q)
        q = [q, 0.0]
    res = conjugate_value(curve, _bundle("liability", q, 2))
    if res.at_boundary:
        raise OutOfRange(f"slope {q[0] - q[1]} outside the reachable range")
    return float(res.price[0])


# ---------------------------------------------------------------------------
# constant-product pool
# ---------------------------------------------------------------------------


class UniswapV2Market:
    """Constant-product pool x1 x2 = alpha^2 as an engine adapter.

    Reserves are the negated liabilities of the curve maker
    g(p) = -2 alpha sqrt(p (1-p)); the quoted price is x2 / (x1 + x2).
    Trades are bundles r toward the trader: reserves move to x - r.
    """

    def __init__(self, reserves, beta: float = 0.0):
        x = _bundle("reserves", reserves, 2)
        if not np.all(x > 0):
            raise OutOfRange(f"reserves {x} are not two positive amounts")
        fee = PositivePartFee(beta)  # checks the rate
        self.state = MarketState(UniswapV2Curve(math.sqrt(x[0] * x[1])), liability=-x, fee=fee if beta != 0 else None)

    @property
    def reserves(self) -> np.ndarray:
        return -self.state.total_liability()

    @property
    def price(self) -> float:
        return float(self.state.price[0])

    @property
    def alpha(self) -> float:
        return sum(G.alpha for G in self.state._nontrivial()[1])

    def invariant(self) -> float:
        x = self.reserves
        return float(x[0] * x[1])

    def register_lp(self) -> int:
        return self.state.register_lp()

    def mint(self, lp_id: int, alpha_new: float) -> np.ndarray:
        """Set an LP's liquidity share; returns the reserve bundle the LP must
        deposit (proportional to current reserves)."""
        return self.state.modify_liquidity(lp_id, UniswapV2Curve(alpha_new))

    def trade(self, r):
        """Execute the bundle r (toward the trader); the pool keeps its
        product invariant and positive reserves or the trade is rejected."""
        r = _bundle("trade", r, 2)
        x = self.reserves
        x_new = x - r
        if np.any(x_new <= 0):
            raise InsufficientReserves(f"reserves would become {x_new}")
        target = self.alpha ** 2
        if abs(x_new[0] * x_new[1] - target) > 1e-9 * max(1.0, target):
            raise InvariantViolated(
                f"product {x_new[0] * x_new[1]:.12g} != {target:.12g}"
            )
        return self.state.execute_trade(bundle=r)

    def swap(self, amount_in: float, asset: int = 0) -> np.ndarray:
        """Bundle for a swap selling `amount_in` of one asset into the pool."""
        _check_index(asset, 2)
        _check_number("swap amount", amount_in)
        if not amount_in > 0:
            raise OutOfRange(f"cannot swap {amount_in} of asset {asset}")
        x = self.reserves
        other = 1 - asset
        out = x[other] - self.alpha ** 2 / (x[asset] + amount_in)
        r = np.zeros(2)
        r[asset] = -amount_in
        r[other] = out
        return r


# ---------------------------------------------------------------------------
# concentrated liquidity
# ---------------------------------------------------------------------------


class UniswapV3Market:
    """Concentrated-liquidity pool: constant-product liquidity restricted to
    price buckets [a_j, b_j], aggregated across LPs.  Each LP's maker is one
    `BucketArrayCurve` over the pool's buckets, holding its weights.

    Inside bucket j with total weight A the virtual reserves obey the shifted
    invariant (x1 + A sqrt((1-b)/b)) (x2 + A sqrt(a/(1-a))) = A^2.
    """

    def __init__(self, buckets, price: float, beta: float = 0.0):
        # validates the buckets; every LP's curve shares its bucket constants
        pairs = _floats("buckets", buckets)
        self._empty = BucketArrayCurve(UniswapV2Curve(1.0), pairs, np.zeros(pairs.shape[:1]))
        self.buckets = self._empty.buckets
        self.beta = PositivePartFee(beta).beta  # checks the rate
        _check_number("opening price", price)
        j = self.locate(price)
        if j is None:
            raise OutOfRange(f"opening price {price} not inside any bucket")
        w = np.zeros(len(self.buckets))
        w[j] = 1.0
        curve = self._curve(w)
        self.state = MarketState(curve, liability2(curve, price), fee=None, strict=False)

    # -- bookkeeping ------------------------------------------------------

    def _curve(self, w):
        """The constant-product buckets carrying weights w; trivial if none."""
        return self._empty.with_weights(w) if np.any(w > 0) else TrivialGenerator(2)

    def _weights(self, G) -> np.ndarray:
        """The bucket weights an LP's generator G holds, not copied."""
        return self._empty.weights if isinstance(G, TrivialGenerator) else G.weights

    @property
    def weights(self) -> dict:
        """Each LP's bucket weights, copied from its curve in the engine."""
        return {lp_id: self._weights(G).copy() for lp_id, G in enumerate(self.state._generators)}

    def aggregate_curve(self) -> BucketArrayCurve:
        """The engine's solve aggregate: the LPs' weights summed in LP order."""
        return self.state._solver()

    def aggregate_weight(self) -> np.ndarray:
        return self.aggregate_curve().weights.copy()

    def locate(self, p: float):
        """The first bucket holding p, or None."""
        i0, i1 = self._empty.holding(p)
        return i0 if i0 < i1 else None

    @property
    def reserves(self) -> np.ndarray:
        return -self.state.total_liability()

    @property
    def price(self) -> float:
        return float(self.state.price[0])

    def register_lp(self) -> int:
        return self.state.register_lp()

    def mint(self, lp_id: int, j: int, weight: float) -> np.ndarray:
        """Set an LP's weight on bucket j; returns the reserve deposit."""
        self.state._check_lp(lp_id)
        _check_index(j, len(self.buckets))
        _check_amount("bucket weight", weight)
        w = self._weights(self.state._generators[lp_id]).copy()
        w[j] = weight
        # engine deposits are in liability space; reserves are the negation,
        # and the two agree because deposit = q_old - q_new = x_new - x_old
        return self.state.modify_liquidity(lp_id, self._curve(w))

    def shifted_invariant_gap(self, j: int, p: float) -> float:
        """Deviation of bucket j's virtual reserves from its invariant at p."""
        _check_index(j, len(self.buckets))
        _check_number("price", p)
        A = float(self.aggregate_curve().weights[j])
        a, b = self.buckets[j]
        crv = BucketCurve(UniswapV2Curve(1.0), a, b, A)
        x = -liability2(crv, p)
        lhs = (x[0] + A * math.sqrt((1.0 - b) / b)) * (x[1] + A * math.sqrt(a / (1.0 - a)))
        return float(lhs - A * A)

    def trade(self, r):
        receipt = self.state.price_trade(bundle=r)
        p_new = float(receipt.price_after[0])
        j_old = self.locate(float(receipt.price_before[0]))
        j_new = self.locate(p_new)
        if j_new is None:
            raise EmptyBucket(f"price {p_new:.6g} lands outside every bucket")
        lo, hi = min(j_old, j_new), max(j_old, j_new)
        W = self.aggregate_curve().weights
        crossed = slice(lo, hi + 1)
        empty = np.flatnonzero(W[crossed] <= 0)
        if empty.size:
            raise EmptyBucket(f"bucket {lo + int(empty[0])} holds no liquidity")
        if self.beta > 0:
            receipt.trader_fee = self.beta * np.maximum(-receipt.bundle, 0.0)
            denom = float(W[crossed].sum())
            shares = [float(self._weights(G)[crossed].sum()) / denom for G in self.state._generators]
            receipt.fees = np.array(shares)[:, None] * receipt.trader_fee
        self.state._settle(receipt)
        return receipt


# ---------------------------------------------------------------------------
# piecewise-linear book
# ---------------------------------------------------------------------------


class PiecewiseLinearMarket:
    """Limit-order-book-like maker: weight alpha_j posted at grid price a_j.

    The state is the fill `active` = (j*, y): the quoted price is the grid
    price of the active slot j*, filled to the fraction y in [0, 1), and the
    scalar liability t = q_1 - q_2 is what the fill encodes.  A state landing
    exactly on a slot boundary opens the higher slot with y = 0.  The grid and
    each LP's weights obey the rule of `piecewise_linear_curve`, this book's
    curve.
    """

    def __init__(self, grid, weights: dict | None = None):
        self.grid = _floats("grid", grid).copy()
        piecewise_linear_curve(self.grid, np.zeros_like(self.grid))  # the curve's rule checks the grid
        self.weights: dict[int, np.ndarray] = {}
        for lp_id, w in (weights or {}).items():
            _check_integer("lp", lp_id)
            piecewise_linear_curve(self.grid, w)  # ... and each LP's weights
            self.weights[lp_id] = np.array(w, dtype=float)
        self.active = (0, 0.0)  # all slots unfilled

    def total_weights(self) -> np.ndarray:
        if not self.weights:
            return np.zeros_like(self.grid)
        return np.sum([w for w in self.weights.values()], axis=0)

    def register_lp(self) -> int:
        lp_id = max(self.weights, default=-1) + 1
        self.weights[lp_id] = np.zeros_like(self.grid)
        return lp_id

    def curve(self) -> PiecewisePolyCurve:
        return piecewise_linear_curve(self.grid, self.total_weights())

    # -- state ------------------------------------------------------------

    def _base(self, alpha) -> float:
        """Scalar state with every slot unfilled."""
        return float(np.sum(alpha * (self.grid - 1.0)))

    @property
    def t(self) -> float:
        """The scalar liability q_1 - q_2 that the fill encodes; setting it
        decodes the fill, or raises OutOfRange outside the book and changes
        nothing."""
        j, y = self.active
        alpha = self.total_weights()
        return self._base(alpha) + float(np.sum(alpha[:j])) + y * float(alpha[j])

    @t.setter
    def t(self, t: float):
        alpha = self.total_weights()
        R = t - self._base(alpha)
        total = float(alpha.sum())
        tol = 1e-12 * max(1.0, total)
        if not -tol <= R < total:
            raise OutOfRange(f"state {t} outside the book")
        # slot 0 always qualifies, its prefix being 0
        prefix = np.concatenate([[0.0], np.cumsum(alpha)[:-1]])
        j = int(np.nonzero(R - prefix >= -tol)[0][-1])
        y = 0.0 if alpha[j] <= 0 else max(0.0, (R - prefix[j]) / alpha[j])
        if y >= 1.0:
            raise OutOfRange(f"state {t} outside the book")
        self.active = (j, y)

    @property
    def price(self) -> float:
        return float(self.grid[self.active[0]])

    def unit_liability(self, j: int) -> float:
        """Scalar liability of a unit-weight maker at grid slot j in the
        current state: a_j - 1 if unfilled, a_j if filled, in between on the
        active slot."""
        jstar, y = self.active
        a = float(self.grid[j])
        if j < jstar:
            return a
        if j > jstar:
            return a - 1.0
        return a - 1.0 + y

    def modify_liquidity(self, lp_id: int, j: int, weight: float) -> float:
        """Set one LP weight, opening the LP if its integer id is new; returns the
        scalar deposit that keeps the book's price and fill unchanged (exact)."""
        _check_integer("lp", lp_id)
        _check_index(j, len(self.grid))
        _check_amount("weight", weight)
        w = self.weights.setdefault(lp_id, np.zeros_like(self.grid))
        delta = (weight - w[j]) * self.unit_liability(j)
        w[j] = weight
        return delta

    def trade(self, r: float):
        """Move the scalar state by r; returns itemized fills
        [(slot j, filled weight, price a_j)], positive when the book sells."""
        _check_number("trade", r)
        alpha = self.total_weights()
        j0, y0 = self.active
        self.t += r  # raises OutOfRange before any change
        j1, y1 = self.active
        # walk from the old fill to the new one, one slot at a time
        step = 1 if r >= 0 else -1
        fills = []
        for j in range(j0, j1 + step, step):
            start = y0 if j == j0 else float(step < 0)
            end = y1 if j == j1 else float(step > 0)
            if (end - start) * step > 0 and alpha[j] > 0:
                fills.append((j, float((end - start) * alpha[j]), float(self.grid[j])))
        return fills
