"""Two-outcome specializations: scalar-curve makers and AMM adapters.

A two-outcome maker is fully described by its curve g on [0, 1]: the maker's
liability at price p is (g(p) + g'(p)(1 - p), g(p) - p g'(p)) and its state
collapses to the scalar t = q_1 - q_2, recovered through the inverse of g'.
The curve is itself the maker's generator: `price2` is a scalar view of
`conjugate_value` on it and runs no solver of its own.  The
constant-product and concentrated-liquidity pools below are the general
engine plus reserve bookkeeping x = -q, and keep no LP book of their own:
each LP's liquidity, a V2 alpha or a `BucketArrayCurve` of bucket weights,
is read from the engine's records, and the v3 aggregate is the engine's
solve aggregate.  The v3 pool prices a swap once, with `price_trade`,
checks its buckets at that price and books that same receipt with its
bucket-share fees written in, so pool fees land in the LPs' `bundle_fees`.
Invalid arguments, bucket and slot indices among them (a bool is not an
index), raise `ParmmError` subclasses, also under `python -O`.
"""

from __future__ import annotations

import math

import numpy as np

from .convex_core import EPS, conjugate_value, liability_of
from .engine import MarketState, PositivePartFee
from .errors import (
    EmptyBucket,
    InsufficientReserves,
    InvariantViolated,
    OutOfRange,
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
    if not EPS <= min(p, 1.0 - p):
        raise OutOfRange(f"price {p} outside the clamp")
    return liability_of(curve, [p, 1.0 - p])


def price2(curve: Curve1D, q) -> float:
    """Leftmost price consistent with liability q (scalar t = q1 - q2 also
    accepted).  Flat stretches and kinks of g' resolve to their left end."""
    q = [float(q), 0.0] if np.ndim(q) == 0 else q
    res = conjugate_value(curve, q)
    if res.at_boundary:
        raise OutOfRange(f"slope {q[0] - q[1]} outside the reachable range")
    return float(res.price[0])


def _check_index(j, size: int):
    """Raise OutOfRange unless j is an integer in range(size), not a bool (a numpy mask)."""
    if isinstance(j, bool) or not (isinstance(j, (int, np.integer)) and 0 <= j < size):
        raise OutOfRange(f"index {j!r} outside range({size})")


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
        x = np.asarray(reserves, dtype=float)
        if x.shape != (2,) or not np.all(x > 0):
            raise OutOfRange(f"reserves {x} are not two positive amounts")
        fee = PositivePartFee(beta) if beta > 0 else None
        self.state = MarketState(UniswapV2Curve(math.sqrt(x[0] * x[1])), liability=-x, fee=fee)

    @property
    def reserves(self) -> np.ndarray:
        return -self.state.total_liability()

    @property
    def price(self) -> float:
        return float(self.state.price[0])

    @property
    def alpha(self) -> float:
        return sum(rec.generator.alpha for rec in self.state._nontrivial())

    def invariant(self) -> float:
        x = self.reserves
        return float(x[0] * x[1])

    def register_lp(self) -> int:
        return self.state.register_lp()

    def mint(self, lp_id: int, alpha_new: float) -> np.ndarray:
        """Set an LP's liquidity share; returns the reserve bundle the LP must
        deposit (proportional to current reserves)."""
        if not alpha_new >= 0:
            raise OutOfRange(f"liquidity {alpha_new} is negative")
        return self.state.modify_liquidity(lp_id, UniswapV2Curve(alpha_new))

    def trade(self, r):
        """Execute the bundle r (toward the trader); the pool keeps its
        product invariant and positive reserves or the trade is rejected."""
        r = np.asarray(r, dtype=float)
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
        if not amount_in > 0 or asset not in (0, 1):
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
        self._empty = BucketArrayCurve(UniswapV2Curve(1.0), buckets, np.zeros(len(buckets)))
        self.buckets = self._empty.buckets
        self.beta = beta
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

    def _weights(self, rec) -> np.ndarray:
        """An LP's bucket weights as its curve holds them, not copied."""
        return self._empty.weights if isinstance(rec.generator, TrivialGenerator) else rec.generator.weights

    @property
    def weights(self) -> dict:
        """Each LP's bucket weights, copied from its curve in the engine."""
        return {rec.lp_id: self._weights(rec).copy() for rec in self.state.records}

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
        rec = self.state._record(lp_id)
        _check_index(j, len(self.buckets))
        if not weight >= 0:
            raise OutOfRange(f"bucket weight {weight} is negative")
        w = self._weights(rec).copy()
        w[j] = weight
        # engine deposits are in liability space; reserves are the negation,
        # and the two agree because deposit = q_old - q_new = x_new - x_old
        return self.state.modify_liquidity(lp_id, self._curve(w))

    def shifted_invariant_gap(self, j: int, p: float) -> float:
        """Deviation of bucket j's virtual reserves from its invariant at p."""
        return self._invariant_gap(j, float(self.aggregate_curve().weights[j]), p)

    def _invariant_gap(self, j: int, A: float, p: float) -> float:
        """`shifted_invariant_gap` for bucket j holding total weight A."""
        a, b = self.buckets[j]
        crv = BucketCurve(UniswapV2Curve(1.0), a, b, A)
        x = -liability2(crv, p)
        lhs = (x[0] + A * math.sqrt((1.0 - b) / b)) * (x[1] + A * math.sqrt(a / (1.0 - a)))
        return float(lhs - A * A)

    def trade(self, r):
        receipt = self.state.price_trade(bundle=r)
        p_old = float(receipt.price_before[0])
        p_new = float(receipt.price_after[0])
        j_old = self.locate(p_old)
        j_new = self.locate(p_new)
        if j_new is None:
            raise EmptyBucket(f"price {p_new:.6g} lands outside every bucket")
        lo, hi = min(j_old, j_new), max(j_old, j_new)
        W = self.aggregate_curve().weights
        crossed = slice(lo, hi + 1)
        empty = np.flatnonzero(W[crossed] <= 0)
        if empty.size:
            raise EmptyBucket(f"bucket {lo + int(empty[0])} holds no liquidity")
        for j in (j_old, j_new):
            p_chk = p_old if j == j_old else p_new
            if abs(self._invariant_gap(j, float(W[j]), p_chk)) > 1e-9 * max(1.0, W[j] ** 2):
                raise InvariantViolated(f"bucket {j} off its shifted invariant")
        if self.beta > 0:
            receipt.trader_fee = self.beta * np.maximum(-receipt.bundle, 0.0)
            denom = float(W[crossed].sum())
            receipt.lp_fees = {
                rec.lp_id: float(self._weights(rec)[crossed].sum()) / denom * receipt.trader_fee
                for rec in self.state.records
            }
        self.state._settle(receipt)
        return receipt


# ---------------------------------------------------------------------------
# piecewise-linear book
# ---------------------------------------------------------------------------


class PiecewiseLinearMarket:
    """Limit-order-book-like maker: weight alpha_j posted at grid price a_j.

    State is the scalar liability t = q_1 - q_2.  The quoted price is the grid
    price of the active bucket j*, with fractional fill y in [0, 1); a state
    landing exactly on a bucket boundary opens the higher bucket with y = 0.
    """

    def __init__(self, grid, weights: dict | None = None):
        self.grid = np.asarray(grid, dtype=float)
        if not (np.all(np.diff(self.grid) > 0) and self.grid[0] > 0 and self.grid[-1] < 1):
            raise OutOfRange("grid prices must increase strictly inside (0, 1)")
        self.weights: dict[int, np.ndarray] = {}
        if weights:
            for lp_id, w in weights.items():
                w = np.asarray(w, dtype=float)
                if w.shape != self.grid.shape or not np.all(w >= 0):
                    raise OutOfRange(f"weights of LP {lp_id} do not match the grid")
                self.weights[lp_id] = w
        self.t = float(np.sum(self.total_weights() * (self.grid - 1.0)))  # all buckets unfilled
        self._fill = (0, 0.0)  # cached active (slot, fraction) matching self.t

    def total_weights(self) -> np.ndarray:
        if not self.weights:
            return np.zeros_like(self.grid)
        return np.sum([w for w in self.weights.values()], axis=0)

    def register_lp(self, lp_id: int | None = None) -> int:
        if lp_id is None:
            lp_id = max(self.weights, default=-1) + 1
        self.weights[lp_id] = np.zeros_like(self.grid)
        return lp_id

    def curve(self) -> PiecewisePolyCurve:
        return piecewise_linear_curve(self.grid, self.total_weights())

    # -- state decoding ---------------------------------------------------

    def _decode(self, t: float):
        """(j*, y) for scalar state t; OutOfRange outside the book."""
        alpha = self.total_weights()
        R = t - float(np.sum(alpha * (self.grid - 1.0)))
        total = float(alpha.sum())
        tol = 1e-12 * max(1.0, total)
        if R < -tol or R >= total:
            raise OutOfRange(f"state {t} outside the book")
        prefix = np.concatenate([[0.0], np.cumsum(alpha)[:-1]])
        feasible = np.nonzero(R - prefix >= -tol)[0]
        if len(feasible) == 0:
            raise OutOfRange(f"state {t} outside the book")
        j = int(feasible[-1])
        y = 0.0 if alpha[j] <= 0 else max(0.0, (R - prefix[j]) / alpha[j])
        if y >= 1.0:
            raise OutOfRange(f"state {t} outside the book")
        return j, y

    def _encode(self, j: int, y: float) -> float:
        alpha = self.total_weights()
        return (
            float(np.sum(alpha * (self.grid - 1.0)))
            + float(np.sum(alpha[:j]))
            + y * float(alpha[j])
        )

    @property
    def active(self):
        # the cached fill is authoritative while it still encodes to the
        # current scalar state bit-for-bit; this keeps deposits exact
        if self._fill is not None and self._encode(*self._fill) == self.t:
            return self._fill
        return self._decode(self.t)

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
        """Set one LP weight; returns the scalar deposit that keeps the book's
        price and fill unchanged (exact, no rounding)."""
        _check_index(j, len(self.grid))
        if not weight >= 0:
            raise OutOfRange(f"weight {weight} is negative")
        if lp_id not in self.weights:
            self.register_lp(lp_id)
        jstar, y = self.active
        delta = (weight - self.weights[lp_id][j]) * self.unit_liability(j)
        self.weights[lp_id][j] = weight
        # re-encode the state from the preserved fill so that a matching
        # reverse modification refunds the deposit exactly
        self.t = self._encode(jstar, y)
        self._fill = (jstar, y)
        return delta

    def trade(self, r: float):
        """Move the scalar state by r; returns itemized fills
        [(slot j, filled weight, price a_j)], positive when the book sells."""
        alpha = self.total_weights()
        j0, y0 = self.active
        j1, y1 = self._decode(self.t + r)  # raises OutOfRange before mutating
        fills = []
        if r >= 0:
            for j in range(j0, j1 + 1):
                start = y0 if j == j0 else 0.0
                end = y1 if j == j1 else 1.0
                if end > start and alpha[j] > 0:
                    fills.append((j, float((end - start) * alpha[j]), float(self.grid[j])))
        else:
            for j in range(j0, j1 - 1, -1):
                start = y0 if j == j0 else 1.0
                end = y1 if j == j1 else 0.0
                if start > end and alpha[j] > 0:
                    fills.append((j, float((end - start) * alpha[j]), float(self.grid[j])))
        self.t += r
        self._fill = (j1, y1) if self._encode(j1, y1) == self.t else None
        return fills
