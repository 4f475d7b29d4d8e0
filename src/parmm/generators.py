"""Generator families for cost-function market makers.

A generator is a convex, nonpositive function G on the probability simplex,
extended 1-homogeneously to the positive orthant via Gbar(x) = |x| * G(x/|x|).
Its gradient map p -> grad Gbar(p) is the liability a maker holds when quoting
price p, and its convex conjugate is the maker's cost function.
`conjugate(q)` gives that cost as (C(q), maximizing price) for the families
with an O(1) closed form (LMSR, V2, constant product at n = 2) and None for
the rest, piecewise curves, buckets and sums among them, which the solvers in
`convex_core` price.  A piecewise curve checks its convexity and continuity
when built.  It is the one piecewise-polynomial family: the `brier`,
`piecewise_linear` and `tabulated_liquidity` descriptors load as one.

A two-outcome maker is a `Curve1D`: the generator G(p) = g(p_1) of a scalar
curve g on [0, 1].  A curve is a `Generator` with n = 2 and goes wherever one
does; it adds g, g' and g'' as `g`, `dg` and `d2g`, which give its slope and
curvature.  All curve families here are normalized so g(0) = g(1) = 0.
`compile_sum` merges the same-family terms of a sum for the solvers.
"""

from __future__ import annotations

import copy
import json
import math
from bisect import bisect_left, bisect_right

import numpy as np

from .errors import (
    DivergentIntegral,
    OutOfRange,
    UnknownKind,
    UnsupportedFamily,
    VertexUnbounded,
)

_TINY = 1e-12


# ---------------------------------------------------------------------------
# generator base
# ---------------------------------------------------------------------------


class Generator:
    """Convex nonpositive generator on the n-simplex, 1-homogeneously extended.

    value/grad accept any strictly positive vector x (grad is 0-homogeneous, so
    finite differencing off the simplex is legitimate); hessian returns the
    analytic Hessian of the extension at a simplex point, or None.
    """

    n: int
    is_pseudobarrier = False
    # g' at the two price clamps, kept by `convex_core._clamp_slopes`; code
    # that changes a generator's parameters in place resets it to None
    _clamp_slopes = None

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, p):
        return None

    def slope(self, t: float) -> float:
        """g'(t) of a two-outcome generator: the gradient difference at (t, 1 - t)."""
        gr = self.grad(np.array([t, 1.0 - t]))
        return float(gr[0] - gr[1])

    def curvature(self, t: float):
        """g''(t) of a two-outcome generator, (1, -1) H (1, -1) at (t, 1 - t);
        None when the family has no analytic Hessian."""
        H = self.hessian(np.array([t, 1.0 - t]))
        if H is None:
            return None
        return float(H[0, 0] - H[0, 1] - H[1, 0] + H[1, 1])

    def conjugate(self, q):
        """Closed form of the cost C(q) = sup_p <p, q> - G(p): the pair
        (C(q), maximizing p), or None if the family has none."""
        return None

    def vertex_values(self) -> np.ndarray:
        """G at the simplex vertices; raises VertexUnbounded if infinite."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scalar curves (two-outcome makers)
# ---------------------------------------------------------------------------


class Curve1D(Generator):
    """Two-outcome generator G(p) = g(p_1) of a convex curve g on [0, 1];
    g(0) and g(1) are finite for every family here."""

    n = 2

    def g(self, p):
        raise NotImplementedError

    def dg(self, p):
        """Derivative; midpoint of the two one-sided slopes at a kink.

        Nondecreasing in floating point too, also where pieces join: the
        two-outcome price solve takes the leftmost p with dg(p) >= t, and a
        join that rounds below a flat it borders would cut the flat off.
        """
        raise NotImplementedError

    def d2g(self, p):
        """Second derivative where defined, from the right at a kink (0 on flat
        pieces)."""
        raise NotImplementedError

    # value and grad read x as two Python floats: numpy's scalar arithmetic
    # costs more than g and dg on most curves, and x0 + x1 is x.sum()
    def value(self, x):
        x0, x1 = np.asarray(x, dtype=float).tolist()
        s = x0 + x1
        return float(s * self.g(x0 / s))

    def grad(self, x):
        x0, x1 = np.asarray(x, dtype=float).tolist()
        p = x0 / (x0 + x1)
        gp = self.g(p)
        dp = self.dg(p)
        base = gp - p * dp
        return np.array([dp + base, base])

    def hessian(self, p):
        p = np.asarray(p, dtype=float)
        s = p.sum()
        t = p[0] / s
        v = np.array([1.0 - t, -t])
        return self.d2g(t) / s * np.outer(v, v)

    def slope(self, t):
        return self.dg(t)

    def curvature(self, t):
        return self.d2g(t)

    def vertex_values(self):
        g0, g1 = self.g(0.0), self.g(1.0)
        if not (math.isfinite(g0) and math.isfinite(g1)):
            raise VertexUnbounded("curve endpoint values are not finite")
        return np.array([g1, g0])


class PiecewisePolyCurve(Curve1D):
    """Piecewise-polynomial curve on breakpoints 0 = x_0 < ... < x_m = 1.

    polys[k], the coefficients of the curve on [xs[k], xs[k+1]] (lowest
    degree first, in the global coordinate p) or an object holding them as
    `.coef`, such as a numpy Polynomial, gives each piece.  The constructor
    raises OutOfRange, to a relative 1e-9, where g' falls, inside a piece (g''
    below 0 at an end or where g''' vanishes, or a lower right-end slope) or
    at a breakpoint, and where g jumps at a breakpoint.  Non-finite slopes
    are left to `liability_of`.  There is no closed-form conjugate:
    `convex_core` solves it, as it solves every sum.
    """

    def __init__(self, xs, polys):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1 or len(xs) != len(polys) + 1:
            raise UnknownKind(f"breakpoints of shape {xs.shape} for {len(polys)} pieces")
        if not (abs(xs[0]) < _TINY and abs(xs[-1] - 1.0) < _TINY and np.all(np.diff(xs) > 0)):
            raise OutOfRange("breakpoints must increase strictly from 0 to 1")
        # g, g' and g'' run inside every price solve: their coefficients are
        # Python floats, evaluated by _horner, and the breakpoints a list
        self._x = xs.tolist()
        self._c0 = [_coefficients(P) for P in polys]
        self._c1 = [_polyder(c, 1) for c in self._c0]
        self._c2 = [_polyder(c, 2) for c in self._c0]
        # g' and g'' at both ends of each piece
        ends = [
            (_horner(c1, a), _horner(c1, b), _horner(c2, a), _horner(c2, b))
            for c1, c2, a, b in zip(self._c1, self._c2, self._x, self._x[1:])
        ]
        tol = 1e-9 * max([1.0] + [abs(v) for e in ends for v in e if math.isfinite(v)])
        # slope bounds per piece, nondecreasing across the breakpoints, so a
        # piece whose end value rounds below its neighbour's is clamped to it
        self._dlo, self._dhi = [], []
        top = -math.inf
        for k, (sl, sr, cl, cr) in enumerate(ends):
            if min([cl, cr] + _turning_values(self._c2[k], *self._x[k : k + 2])) < -tol or sr < sl - tol:
                raise OutOfRange(f"piece {k} is not convex: g' falls inside it")
            if sl < top - tol:
                raise OutOfRange(f"g' falls at breakpoint {self._x[k]}: the curve is not convex")
            if k and abs(_horner(self._c0[k - 1], self._x[k]) - _horner(self._c0[k], self._x[k])) > tol:
                raise OutOfRange(f"g jumps at breakpoint {self._x[k]}: the curve is not continuous")
            self._dlo.append(max(sl, top))
            top = max(sr, self._dlo[-1])
            self._dhi.append(top)

    @classmethod
    def from_liquidity(cls, xs, liq_polys) -> "PiecewisePolyCurve":
        """Build the curve whose second derivative is the given piecewise
        polynomial liquidity profile, normalized so g(0) = g(1) = 0.

        Double antiderivative with continuity across breakpoints, then chord
        subtraction; any antiderivative choice gives the same curve.
        """
        xs = np.asarray(xs, dtype=float)
        B = _integrate(xs, _integrate(xs, [_coefficients(P) for P in liq_polys]))
        chord = [0.0, _horner(B[-1], xs[-1])]  # B(1), with B(0) = 0
        return cls(xs, [_polyadd(Q, [-v for v in chord]) for Q in B])

    def _piece(self, p):
        k = bisect_right(self._x, p) - 1
        return min(max(k, 0), len(self._c0) - 1)

    def g(self, p):
        return float(_horner(self._c0[self._piece(p)], p))

    def _slope(self, k, p):
        return min(max(float(_horner(self._c1[k], p)), self._dlo[k]), self._dhi[k])

    def dg(self, p):
        k = self._piece(p)
        d = self._slope(k, p)
        # midpoint subgradient at interior breakpoints
        if 0 < k and p == self._x[k]:
            d = 0.5 * (d + self._slope(k - 1, p))
        return float(d)

    def d2g(self, p):
        return float(_horner(self._c2[self._piece(p)], p))

    def descriptor(self) -> dict:
        return {
            "family": "piecewise_poly",
            "breakpoints": list(self._x),
            "coefficients": [list(c) for c in self._c0],
        }


def _integrate(xs, polys):
    """Antiderivatives of the pieces, continuous across the breakpoints xs and
    0 at xs[0]."""
    out, acc = [], 0.0
    for k, c in enumerate(polys):
        Q = _polyint(c)
        Q = _polyadd(Q, [acc - _horner(Q, xs[k])])
        out.append(Q)
        acc = _horner(Q, xs[k + 1])
    return out


def _turning_values(c2, a, b):
    """g'' at the real parts of the roots of g''' in (a, b): with g''(a) and
    g''(b), they bound g'' below on the piece.  None for an affine g''."""
    if len(c2) < 3:
        return []
    return [_horner(c2, r) for r in np.roots(_polyder(c2, 1)[::-1]).real.tolist() if a < r < b]


def _coefficients(P) -> list:
    """The coefficients of a piece, given as a sequence or as `.coef`."""
    c = np.array(getattr(P, "coef", P), dtype=float, ndmin=1)
    if c.ndim != 1 or not c.size:
        raise UnknownKind(f"piece coefficients of shape {c.shape}")
    return c.tolist()


# Coefficient lists, lowest degree first, hold the pieces.  These helpers are
# numpy.polynomial's polyval, polyder, polyint, polyadd and trimseq on lists of
# Python floats, in the same operation order, so their results are numpy's
# bit for bit.


def _horner(c, x):
    """polyval(x, c)."""
    acc = c[-1] + x * 0
    for coef in c[-2::-1]:
        acc = coef + acc * x
    return acc


def _trim(c):
    """trimseq(c): c without its trailing zeros, keeping the first entry."""
    k = len(c)
    while k > 1 and c[k - 1] == 0:
        k -= 1
    return c[:k]


def _polyder(c, m):
    """polyder(c, m), the m-th derivative."""
    if m >= len(c):
        return [c[0] * 0]
    for _ in range(m):
        c = [j * c[j] for j in range(1, len(c))]
    return c


def _polyint(c):
    """polyint(c), the antiderivative that is 0 at 0."""
    if len(c) == 1 and c[0] == 0:
        return [0.0]
    Q = [c[0] * 0, c[0]] + [v / (j + 1) for j, v in enumerate(c[1:], 1)]
    Q[0] += 0 - _horner(Q, 0)
    return Q


def _polyadd(a, b):
    """polyadd(a, b), which trims both terms and the sum."""
    a, b = _trim(a), _trim(b)
    if len(a) < len(b):
        a, b = b, a
    return _trim([u + v for u, v in zip(a, b)] + a[len(b) :])


def brier_curve(scale: float = 1.0) -> PiecewisePolyCurve:
    """Quadratic-score curve g(p) = scale * (p^2 - p); liquidity 2 * scale."""
    if not scale > 0:
        raise OutOfRange(f"Brier scale {scale} is not positive")
    return PiecewisePolyCurve([0.0, 1.0], [[0.0, -scale, scale]])


def piecewise_linear_curve(grid, weights) -> PiecewisePolyCurve:
    """Sum of weighted one-kink curves with kinks at grid prices 0 < a_1 <
    ... < a_k < 1: the j-th has slope a_j - 1 left of a_j and a_j right of
    it, so its maker quotes a_j for every state inside its capacity.  On
    (a_j, a_{j+1}), with a_0 = 0, the sum's slope is sum_{i<=j} w_i a_i +
    sum_{i>j} w_i (a_i - 1) and its intercept -sum_{i<=j} w_i a_i."""
    grid, weights = np.asarray(grid, dtype=float), np.asarray(weights, dtype=float)
    if grid.ndim != 1 or grid.shape != weights.shape or len(grid) == 0:
        raise UnknownKind(f"grid of shape {grid.shape} for weights of shape {weights.shape}")
    if not (np.all(np.diff(grid) > 0) and grid[0] > 0 and grid[-1] < 1 and np.all(weights >= 0)):
        raise OutOfRange("grid prices must increase strictly inside (0, 1), weights be nonnegative")
    intercepts = np.r_[0.0, -np.cumsum(weights * grid)]
    unfilled = np.r_[np.cumsum((weights * (grid - 1.0))[::-1])[::-1], 0.0]
    return PiecewisePolyCurve(np.r_[0.0, grid, 1.0], [[c, u - c] for c, u in zip(intercepts, unfilled)])


def tabulated_liquidity_curve(grid, values) -> PiecewisePolyCurve:
    """Curve whose liquidity g'' interpolates `values` at the prices `grid`
    linearly and is 0 off the grid, which lies inside [0, 1];
    `from_liquidity` integrates it exactly, so g, g' and g'' agree."""
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or len(grid) < 2:
        raise UnknownKind(f"grid of shape {grid.shape} for samples of shape {values.shape}")
    if not (np.all(np.diff(grid) > 0) and grid[0] >= 0.0 and grid[-1] <= 1.0):
        raise OutOfRange("grid must increase strictly inside [0, 1]")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise DivergentIntegral("liquidity samples must be finite and nonnegative")
    slopes = np.diff(values) / np.diff(grid)
    lo, hi = int(grid[0] > 0.0), int(grid[-1] < 1.0)  # the pieces off the grid
    xs = [0.0] * lo + grid.tolist() + [1.0] * hi
    liq = [[0.0]] * lo + [[v - s * x, s] for v, s, x in zip(values, slopes, grid)] + [[0.0]] * hi
    return PiecewisePolyCurve.from_liquidity(xs, liq)


class LmsrCurve(Curve1D):
    """Two-outcome LMSR shape g(p) = b (p log p + (1-p) log(1-p)).

    `LmsrGenerator(b, 2)` is the same maker; this curve stays as the scalar
    base a `BucketCurve` needs and as the merged LMSR term of `compile_sum`,
    whose slope builds no arrays.  An "lmsr" descriptor loads as the generator.
    """

    is_pseudobarrier = True

    def __init__(self, b: float):
        if not b > 0:
            raise OutOfRange(f"LMSR b {b} is not positive")
        self.b = b

    def g(self, p):
        return float(self.b * (_xlogy(p, p) + _xlogy(1.0 - p, 1.0 - p)))

    def dg(self, p):
        return float(self.b * (np.log(p) - np.log1p(-p)))

    def d2g(self, p):
        return float(self.b / (p * (1.0 - p)))

    def conjugate(self, q):
        t = q[0] - q[1]
        cost = float(self.b * np.logaddexp(0.0, t / self.b)) + q[1]
        p1 = _expit(t / self.b)
        return cost, np.array([p1, 1.0 - p1])

    def descriptor(self):
        return {"family": "lmsr", "b": self.b}


def _xlogy(x, y):
    """scipy's xlogy(x, y): x log y, 0 where x == 0 (y not NaN), NaN where
    y < 0.  Bit for bit, as both call the C library's log; numpy's log can
    differ from it in the last place."""
    if x == 0 and y == y:
        return 0.0
    if y > 0:
        return x * math.log(y)
    return x * -math.inf if y == 0 else math.nan


def _expit(t):
    """scipy's expit(t), 1 / (1 + exp(-t)) in its one branch, bit for bit;
    0 where exp(-t) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0


def _constant_product_conjugate(q, width):
    """(cost, price) of the two-outcome maker g(p) = -width sqrt(p (1 - p))."""
    q = np.asarray(q, dtype=float)
    t = q[0] - q[1]
    r = math.hypot(width, t)
    p1 = 0.5 * (1.0 + t / r)
    return 0.5 * (t + r) + q[1], np.array([p1, 1.0 - p1])


class UniswapV2Curve(Curve1D):
    """Constant-product shape g(p) = -2 a sqrt(p (1-p)); reserves x1 x2 = a^2."""

    def __init__(self, alpha: float):
        if not alpha >= 0:
            raise OutOfRange(f"liquidity {alpha} is negative")
        self.alpha = alpha

    @property
    def is_pseudobarrier(self):
        return self.alpha > 0

    def g(self, p):
        return float(-2.0 * self.alpha * math.sqrt(max(p * (1.0 - p), 0.0)))

    def dg(self, p):
        w = math.sqrt(p * (1.0 - p))
        return float(self.alpha * (2.0 * p - 1.0) / w)

    def d2g(self, p):
        w = p * (1.0 - p)
        return float(self.alpha / (2.0 * w ** 1.5))

    def conjugate(self, q):
        return _constant_product_conjugate(q, 2.0 * self.alpha)

    def descriptor(self):
        return {"family": "uniswap_v2", "alpha": self.alpha}


class BucketCurve(Curve1D):
    """Liquidity of a base curve restricted to [a, b], scaled by `weight`.

    The base maker's liquidity profile is zeroed outside [a, b] and the
    resulting curve renormalized to g(0) = g(1) = 0, giving a maker whose
    slope is affine outside the bucket and matches the base inside.
    """

    def __init__(self, base: Curve1D, a: float, b: float, weight: float = 1.0):
        if not (0.0 < a < b < 1.0 and weight >= 0):
            raise OutOfRange(f"bucket [{a}, {b}] with weight {weight} needs 0 < a < b < 1 and weight >= 0")
        self.base, self.a, self.b, self.weight = base, a, b, weight
        self._ga, self._gb = base.g(a), base.g(b)
        self._da, self._db = base.dg(a), base.dg(b)
        # slopes of the affine tails
        self._lo = self._ga - self._gb - self._da * (a - 1.0) + self._db * (b - 1.0)
        self._hi = self._ga - self._gb - a * self._da + b * self._db

    def g(self, p):
        a, b, w = self.a, self.b, self.weight
        if p <= a:
            val = p * self._lo
        elif p >= b:
            val = (p - 1.0) * self._hi
        else:
            val = (
                self.base.g(p)
                + self._ga * (p - 1.0)
                - p * self._gb
                - self.a * self._da * (p - 1.0)
                + p * self._db * (b - 1.0)
            )
        return float(w * val)

    def dg(self, p):
        a, b, w = self.a, self.b, self.weight
        if p < a:
            val = self._lo
        elif p > b:
            val = self._hi
        else:
            val = self.base.dg(p) + self._ga - self._gb - a * self._da + self._db * (b - 1.0)
            # at the edges the in-bucket sum can round past the tail slopes
            val = min(max(val, self._lo), self._hi)
        return float(w * val)

    def d2g(self, p):
        # from the right at the edges, as a piecewise curve takes the piece
        # right of a breakpoint: then buckets that tile [a, b] add up to it
        if self.a <= p < self.b:
            return float(self.weight * self.base.d2g(p))
        return 0.0

    _short = None  # the `_UNIT_BASES` shorthand for the base ("" if none), found on first use

    def descriptor(self):
        if self._short is None:
            base = self.base.descriptor()
            self._short = next((short for short, (_, unit_desc) in _UNIT_BASES.items() if base == unit_desc), "")
        if self._short:
            return {"family": self._short, "a": self.a, "b": self.b, "alpha": self.weight}
        return {"family": "bucket", "base": self.base.descriptor(), "a": self.a, "b": self.b, "weight": self.weight}


class BucketArrayCurve(Curve1D):
    """Sum of BucketCurve(base, a_j, b_j, w_j) over sorted buckets that do not
    overlap; zero weights are allowed.

    A bucket left of p adds its right tail, slope w_j hi_j, and a bucket right
    of p its left tail, slope w_j lo_j, so g, g' and g'' take a bisection,
    prefix sums of w hi, suffix sums of w lo and the bucket or two holding p,
    evaluated as their own `BucketCurve`: the tick bookkeeping of the Uniswap
    v3 whitepaper (section 6.2) with the walk replaced by prefix sums.  g' is
    clamped to bounds per bisection state, as `PiecewisePolyCurve` clamps per
    piece, so it stays nondecreasing in floating point where a bucket enters
    or leaves the sums.  `with_weights` reuses the per-bucket constants.
    """

    def __init__(self, base: Curve1D, buckets, weights):
        buckets = [(float(a), float(b)) for a, b in buckets]
        if not buckets or not all(0.0 < a < b < 1.0 for a, b in buckets):
            raise OutOfRange("every bucket needs 0 < a < b < 1")
        pairs = zip(buckets, buckets[1:])
        if buckets != sorted(buckets) or any(b > a2 + 1e-12 or b > b2 for (_, b), (a2, b2) in pairs):
            raise OutOfRange("buckets must be sorted and must not overlap")
        self.base, self.buckets = base, buckets
        self._units = [BucketCurve(base, a, b) for a, b in buckets]
        self._lo = np.array([u._lo for u in self._units])
        self._hi = np.array([u._hi for u in self._units])
        self._a = [a for a, _ in buckets]
        self._b = [b for _, b in buckets]
        # bisection state s = i0 + i1 of p, where i0 buckets lie left of p
        # (b < p) and i1 start at or left of it (a <= p): walking p upward,
        # each edge raises i1 at a or i0 just past b, so s counts the edges
        # passed and (i0, i1) is the count of each kind among the first s
        edges = np.r_[self._a, self._b]
        is_b = np.r_[np.zeros(len(buckets), int), np.ones(len(buckets), int)]
        order = np.lexsort((is_b, edges))
        kind, at = is_b[order], edges[order]
        i0, i1 = np.r_[0, np.cumsum(kind)], np.r_[0, np.cumsum(1 - kind)]
        # state s holds p from x_s to y_s; unit slopes of its held buckets at
        # both ends bound their slopes in the state
        x = np.r_[0.0, np.where(kind == 1, np.nextafter(at, 2.0), at)]
        y = np.maximum(x, np.r_[np.where(kind == 1, at, np.nextafter(at, -1.0)), 1.0])
        self._i0, self._i1, self._held_at = i0, i1, []
        for r in range(int(np.max(i1 - i0))):
            held = i0 + r < i1
            j = np.minimum(i0 + r, len(buckets) - 1)
            ux = [self._units[k].dg(v) if h else 0.0 for k, v, h in zip(j, x, held)]
            uy = [self._units[k].dg(v) if h else 0.0 for k, v, h in zip(j, y, held)]
            self._held_at.append((held, j, np.array(ux), np.array(uy)))
        self._set_weights(weights)

    def _set_weights(self, weights):
        w = np.array(weights, dtype=float)
        if w.shape != (len(self.buckets),) or not np.all(w >= 0):
            raise OutOfRange(f"weights of shape {w.shape} for {len(self.buckets)} buckets, or negative")
        self.weights = w
        self._w = w.tolist()
        self._clamp_slopes = None
        H = np.concatenate(([0.0], np.cumsum(w * self._hi)))
        L = np.concatenate((np.cumsum((w * self._lo)[::-1])[::-1], [0.0]))
        # g' at the two ends of each state, summed in dg's order; the clamp
        # bounds make it nondecreasing from state to state
        lo, hi = H[self._i0], H[self._i0]
        for held, j, ux, uy in self._held_at:
            lo = np.where(held, lo + w[j] * ux, lo)
            hi = np.where(held, hi + w[j] * uy, hi)
        top = np.maximum.accumulate(hi + L[self._i1])
        self._dlo = np.maximum(lo + L[self._i1], np.concatenate(([-math.inf], top[:-1]))).tolist()
        self._dhi = top.tolist()
        self._H, self._L = H.tolist(), L.tolist()

    def with_weights(self, weights) -> "BucketArrayCurve":
        """The same buckets over the same base, with other weights."""
        arr = copy.copy(self)
        arr._set_weights(weights)
        return arr

    def holding(self, p):
        """(i0, i1): buckets i0 <= j < i1 hold p, those before lie left of it."""
        return bisect_left(self._b, p), bisect_right(self._a, p)

    def g(self, p):
        i0, i1 = self.holding(p)
        val = (p - 1.0) * self._H[i0] + p * self._L[i1]
        for j in range(i0, i1):
            val += self._w[j] * self._units[j].g(p)
        return float(val)

    def dg(self, p):
        i0, i1 = self.holding(p)
        acc = self._H[i0]
        for j in range(i0, i1):
            acc += self._w[j] * self._units[j].dg(p)
        s = i0 + i1
        return float(min(max(acc + self._L[i1], self._dlo[s]), self._dhi[s]))

    def d2g(self, p):
        i0, i1 = self.holding(p)
        return float(sum(self._w[j] * self._units[j].d2g(p) for j in range(i0, i1)))

    def descriptor(self):
        return {
            "family": "bucket_array",
            "base": self.base.descriptor(),
            "buckets": [list(ab) for ab in self.buckets],
            "weights": list(self._w),
        }


class SoftBucketCurve(Curve1D):
    """Liquidity f(p) * 2 (p (1-p))^{-3/2} with f piecewise linear on knots.

    `knots` are the interior knots a_1 = 0 < ... < a_k = 1 and `weights` the
    liquidity heights at those knots; f interpolates them linearly.  The double
    integral has a closed form: with w = sqrt(p (1-p)) and base profile
    lb = 2 w^{-3},
        int lb dp        = 4 (2p - 1) / w
        int p lb dp      = 4 sqrt(p / (1-p))
        int^2 lb dp      = -8 w
        int^2 p lb dp    = -4 w + 2 asin(2p - 1)
    so no quadrature is needed.
    """

    def __init__(self, knots, weights):
        knots = np.asarray(knots, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if len(knots) == len(weights) + 2:
            # outer knots below 0 / above 1 carry no mass on [0, 1]
            knots = knots[1:-1]
        if knots.ndim != 1 or knots.shape != weights.shape or len(knots) < 2:
            raise UnknownKind(f"{knots.shape} knots for {weights.shape} weights")
        if not (abs(knots[0]) < _TINY and abs(knots[-1] - 1.0) < _TINY and np.all(np.diff(knots) > 0)):
            raise OutOfRange("knots must increase strictly from 0 to 1")
        if not np.all(weights >= 0):
            raise OutOfRange("soft-bucket weights must be nonnegative")
        self.knots, self.weights = knots, weights
        # per-interval affine pieces f = u + v p
        v = np.diff(weights) / np.diff(knots)
        u = weights[:-1] - v * knots[:-1]
        self._u, self._v = u, v
        # chain antiderivative constants; anchor at the piece containing 1/2
        m = len(u)
        j0 = min(max(int(np.searchsorted(knots, 0.5, side="right")) - 1, 0), m - 1)
        CA = np.zeros(m)
        CB = np.zeros(m)
        CA[j0] = -(u[j0] * self._I0(0.5) + v[j0] * self._I1(0.5))
        for j in range(j0 + 1, m):
            t = knots[j]
            CA[j] = (u[j - 1] - u[j]) * self._I0(t) + (v[j - 1] - v[j]) * self._I1(t) + CA[j - 1]
        for j in range(j0 - 1, -1, -1):
            t = knots[j + 1]
            CA[j] = (u[j + 1] - u[j]) * self._I0(t) + (v[j + 1] - v[j]) * self._I1(t) + CA[j + 1]
        self._CA = CA
        CB[j0] = -(u[j0] * self._J0(0.5) + v[j0] * self._J1(0.5) + CA[j0] * 0.5)
        for j in range(j0 + 1, m):
            t = knots[j]
            CB[j] = self._B_raw(j - 1, t) + CB[j - 1] - self._B_raw(j, t)
        for j in range(j0 - 1, -1, -1):
            t = knots[j + 1]
            CB[j] = self._B_raw(j + 1, t) + CB[j + 1] - self._B_raw(j, t)
        self._CB = CB
        b0 = self._B(0.0)
        b1 = self._B(1.0)
        self._b0, self._slope = b0, b1 - b0

    @staticmethod
    def _I0(p):
        return 4.0 * (2.0 * p - 1.0) / math.sqrt(p * (1.0 - p))

    @staticmethod
    def _I1(p):
        return 4.0 * math.sqrt(p / (1.0 - p))

    @staticmethod
    def _J0(p):
        return -8.0 * math.sqrt(p * (1.0 - p))

    @staticmethod
    def _J1(p):
        return -4.0 * math.sqrt(p * (1.0 - p)) + 2.0 * math.asin(2.0 * p - 1.0)

    def _piece(self, p):
        j = int(np.searchsorted(self.knots, p, side="right")) - 1
        return min(max(j, 0), len(self._u) - 1)

    def _B_raw(self, j, p):
        return self._u[j] * self._J0(p) + self._v[j] * self._J1(p) + self._CA[j] * p

    def _B(self, p):
        j = self._piece(p)
        return self._B_raw(j, p) + self._CB[j]

    def f(self, p):
        return float(np.interp(p, self.knots, self.weights))

    def g(self, p):
        return float(self._B(p) - self._b0 - self._slope * p)

    def dg(self, p):
        j = self._piece(p)
        A = self._u[j] * self._I0(p) + self._v[j] * self._I1(p) + self._CA[j]
        return float(A - self._slope)

    def d2g(self, p):
        return float(self.f(p) * 2.0 * (p * (1.0 - p)) ** -1.5)

    def descriptor(self):
        return {"family": "soft_bucket", "knots": list(self.knots), "weights": list(self.weights)}


# ---------------------------------------------------------------------------
# n-asset generators
# ---------------------------------------------------------------------------


class LmsrGenerator(Generator):
    """G(p) = b * sum_i p_i log p_i."""

    is_pseudobarrier = True

    def __init__(self, b: float, n: int):
        if not (b > 0 and n >= 2):
            raise OutOfRange(f"LMSR needs b > 0 and n >= 2, got b = {b}, n = {n}")
        self.b, self.n = b, n

    def value(self, x):
        x = np.asarray(x, dtype=float)
        y = x / x.sum()
        return float(self.b * np.sum([_xlogy(u, v) for u, v in zip(x.tolist(), y.tolist())]))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.b * np.log(x / x.sum())

    def hessian(self, p):
        p = np.asarray(p, dtype=float)
        s = p.sum()
        return self.b * (np.diag(s / p) - np.ones((self.n, self.n))) / s

    def conjugate(self, q):
        z = np.asarray(q, dtype=float) / self.b
        m = z.max()
        e = np.exp(z - m)
        cost = self.b * (m + np.log(e.sum()))
        return cost, e / e.sum()

    def vertex_values(self):
        return np.zeros(self.n)

    def descriptor(self):
        return {"family": "lmsr", "b": self.b, "n": self.n}


class ConstantProductGenerator(Generator):
    """G(p) = -n (alpha * prod_i p_i)^{1/n}; reserves satisfy prod x_i = alpha."""

    is_pseudobarrier = True

    def __init__(self, n: int, alpha: float = 1.0):
        if not (n >= 2 and alpha > 0):
            raise OutOfRange(f"constant product needs n >= 2 and alpha > 0, got n = {n}, alpha = {alpha}")
        self.n, self.alpha = n, alpha

    def _gm(self, x):
        return math.exp((math.log(self.alpha) + np.sum(np.log(x))) / self.n)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(-self.n * self._gm(x))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return -self._gm(x) / x

    def hessian(self, p):
        p = np.asarray(p, dtype=float)
        gm = self._gm(p)
        inv = 1.0 / p
        return gm * (np.diag(inv * inv) - np.outer(inv, inv) / self.n)

    def conjugate(self, q):
        if self.n != 2:
            return None
        return _constant_product_conjugate(q, 2.0 * math.sqrt(self.alpha))

    def vertex_values(self):
        return np.zeros(self.n)

    def descriptor(self):
        return {"family": "constant_product", "n": self.n, "alpha": self.alpha}


class PairConstantProductGenerator(Generator):
    """G(p) = -2 alpha sqrt(p_i p_j): constant-product liquidity on one pair."""

    def __init__(self, n: int, i: int, j: int, alpha: float = 1.0):
        if not (n >= 2 and 0 <= i < j < n and alpha >= 0):
            raise OutOfRange(f"pair ({i}, {j}) of {n} outcomes with alpha {alpha} is invalid")
        self.n, self.i, self.j, self.alpha = n, i, j, alpha

    @property
    def is_pseudobarrier(self):
        # for n > 2 the generator is flat in the remaining coordinates
        return self.n == 2 and self.alpha > 0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(-2.0 * self.alpha * math.sqrt(x[self.i] * x[self.j]))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.n)
        r = math.sqrt(x[self.i] * x[self.j])
        out[self.i] = -self.alpha * r / x[self.i]
        out[self.j] = -self.alpha * r / x[self.j]
        return out

    def hessian(self, p):
        p = np.asarray(p, dtype=float)
        i, j = self.i, self.j
        r = math.sqrt(p[i] * p[j])
        H = np.zeros((self.n, self.n))
        H[i, i] = self.alpha * r / (2.0 * p[i] ** 2)
        H[j, j] = self.alpha * r / (2.0 * p[j] ** 2)
        H[i, j] = H[j, i] = -self.alpha / (2.0 * r)
        return H

    def vertex_values(self):
        return np.zeros(self.n)

    def descriptor(self):
        return {"family": "pair_constant_product", "n": self.n, "i": self.i, "j": self.j, "alpha": self.alpha}


class SumGenerator(Generator):
    def __init__(self, terms):
        flat = []
        for t in terms:
            flat.extend(t.terms if isinstance(t, SumGenerator) else [t])
        if not flat:
            raise UnknownKind("a sum needs at least one term")
        self.terms = flat
        self.n = flat[0].n
        if any(t.n != self.n for t in flat):
            raise UnsupportedFamily("terms of a sum have different outcome counts")

    @property
    def is_pseudobarrier(self):
        return any(t.is_pseudobarrier for t in self.terms)

    def value(self, x):
        return sum(t.value(x) for t in self.terms)

    def grad(self, x):
        return np.sum([t.grad(x) for t in self.terms], axis=0)

    def slope(self, t):
        return sum(term.slope(t) for term in self.terms)

    def curvature(self, t):
        cs = [term.curvature(t) for term in self.terms]
        return None if None in cs else sum(cs)

    def hessian(self, p):
        hs = [t.hessian(p) for t in self.terms]
        if any(h is None for h in hs):
            return None
        return np.sum(hs, axis=0)

    def vertex_values(self):
        return np.sum([t.vertex_values() for t in self.terms], axis=0)

    def descriptor(self):
        return {"family": "sum", "terms": [t.descriptor() for t in self.terms]}


def _family(G) -> tuple | None:
    """Key shared by the terms `compile_sum` merges with G; None for a family
    that does not merge."""
    if isinstance(G, LmsrCurve):
        return ("lmsr", 2)
    if isinstance(G, LmsrGenerator):
        return ("lmsr", G.n)
    if type(G) is UniswapV2Curve:
        return ("uniswap_v2",)
    if isinstance(G, ConstantProductGenerator):
        return ("constant_product", G.n)
    if isinstance(G, BucketArrayCurve):
        return ("bucket_array", id(G._units))
    if type(G) is BucketCurve:
        # equal bases merge, however they were built
        return ("bucket", json.dumps(G.base.descriptor(), sort_keys=True))
    if type(G) is PiecewisePolyCurve:
        return ("piecewise_poly",)
    return None


def _merge(kind: str, terms) -> Generator:
    """One generator for a sum of same-family terms: each family is linear in
    its scale (b, alpha, alpha^(1/n), the bucket weights) or, for buckets and
    piecewise curves, in its liquidity on the common refinement of the terms'
    edges or breakpoints."""
    n = terms[0].n
    if kind == "lmsr":
        b = sum(T.b for T in terms)
        return LmsrCurve(b) if n == 2 else LmsrGenerator(b, n)
    if len(terms) == 1:
        return terms[0]
    if kind == "uniswap_v2":
        return UniswapV2Curve(sum(T.alpha for T in terms))
    if kind == "constant_product":
        return ConstantProductGenerator(n, sum(T.alpha ** (1.0 / n) for T in terms) ** n)
    if kind == "bucket":
        # liquidity on [a, c] is its restriction to [a, b] plus that to
        # [b, c], each normalized to g(0) = g(1) = 0: a sub-bucket carries
        # the weights of the buckets that contain it
        edges = sorted({x for T in terms for x in (T.a, T.b)})
        subs = [(a, b, [T.weight for T in terms if T.a <= a and b <= T.b]) for a, b in zip(edges, edges[1:])]
        subs = [(a, b, sum(ws)) for a, b, ws in subs if ws]
        return BucketArrayCurve(terms[0].base, [(a, b) for a, b, _ in subs], [w for _, _, w in subs])
    if kind == "piecewise_poly":
        # each refined piece adds the coefficients of the pieces covering it
        xs = sorted({x for T in terms for x in T._x})
        coefs = [[0.0] * max(len(c) for T in terms for c in T._c0) for _ in xs[1:]]
        for c, a, b in zip(coefs, xs, xs[1:]):
            for T in terms:
                for i, v in enumerate(T._c0[T._piece(0.5 * (a + b))]):
                    c[i] += v
        return PiecewisePolyCurve(xs, coefs)
    return terms[0].with_weights(np.sum([T.weights for T in terms], axis=0))


def compile_sum(generators) -> Generator:
    """The sum of `generators` with same-family terms merged, for conjugate
    solves: LMSR b values add (two-outcome LMSR makers become one
    `LmsrCurve`), V2 alphas add, constant-product alphas add in alpha^(1/n),
    bucket arrays that share their buckets add their weights, `BucketCurve`s
    over equal bases become one `BucketArrayCurve` on the common refinement
    of their edges, `PiecewisePolyCurve`s become one on the union of their
    breakpoints, and every other term stays as it is.  A single generator is
    returned unchanged."""
    gens = list(generators)
    if len(gens) == 1:
        return gens[0]
    groups: dict = {}  # family key -> its terms, in first-seen order
    for k, G in enumerate(SumGenerator(gens).terms):
        # a term of an unmerged family keeps a group of its own, even when
        # one generator object backs several LPs
        groups.setdefault(_family(G) or ("other", k), []).append(G)
    terms = [_merge(key[0], group) for key, group in groups.items()]
    return terms[0] if len(terms) == 1 else SumGenerator(terms)


class TrivialGenerator(Generator):
    """The zero generator: no liquidity, liability always zero."""

    def __init__(self, n: int):
        self.n = n

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros(self.n)

    def hessian(self, p):
        return np.zeros((self.n, self.n))

    def vertex_values(self):
        return np.zeros(self.n)

    def descriptor(self):
        return {"family": "trivial", "n": self.n}


class ShiftedGenerator(Generator):
    """inner minus the linear function <x, shift>; zero at the vertices."""

    def __init__(self, inner: Generator, shift):
        self.inner = inner
        self.shift = np.asarray(shift, dtype=float)
        self.n = inner.n

    @property
    def is_pseudobarrier(self):
        return self.inner.is_pseudobarrier

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.inner.value(x) - float(x @ self.shift)

    def grad(self, x):
        return self.inner.grad(x) - self.shift

    def slope(self, t):
        return self.inner.slope(t) - float(self.shift[0] - self.shift[1])

    def curvature(self, t):
        return self.inner.curvature(t)

    def hessian(self, p):
        return self.inner.hessian(p)

    def conjugate(self, q):
        return self.inner.conjugate(np.asarray(q, dtype=float) + self.shift)

    def vertex_values(self):
        return self.inner.vertex_values() - self.shift

    def descriptor(self):
        return {"family": "shifted", "inner": self.inner.descriptor(), "shift": list(self.shift)}


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


# the bucket shorthands: family -> (unit base curve, its descriptor)
_UNIT_BASES = {
    fam: (base, base.descriptor())
    for fam, base in [("v3_bucket", UniswapV2Curve(1.0)), ("lmsr_bucket", LmsrCurve(1.0)), ("brier_bucket", brier_curve(1.0))]
}


def curve_from_descriptor(d: dict) -> Curve1D:
    fam = d.get("family")
    if fam in _UNIT_BASES:
        return BucketCurve(_UNIT_BASES[fam][0], d["a"], d["b"], d.get("alpha", 1.0))
    if fam == "lmsr":
        return LmsrCurve(d["b"])
    if fam == "uniswap_v2":
        return UniswapV2Curve(d["alpha"])
    if fam == "brier":
        return brier_curve(d.get("scale", 1.0))
    if fam == "piecewise_poly":
        return PiecewisePolyCurve(d["breakpoints"], d["coefficients"])
    if fam == "piecewise_liquidity":
        return PiecewisePolyCurve.from_liquidity(d["breakpoints"], d["coefficients"])
    if fam == "bucket":
        return BucketCurve(curve_from_descriptor(d["base"]), d["a"], d["b"], d.get("weight", 1.0))
    if fam == "soft_bucket":
        return SoftBucketCurve(d["knots"], d["weights"])
    if fam == "piecewise_linear":
        return piecewise_linear_curve(d["grid"], d["weights"])
    if fam == "tabulated_liquidity":
        return tabulated_liquidity_curve(d["grid"], d["values"])
    if fam == "bucket_array":
        return BucketArrayCurve(curve_from_descriptor(d["base"]), d["buckets"], d["weights"])
    raise UnknownKind(f"unknown family {fam!r}")


def generator_from_descriptor(d: dict, n: int | None = None) -> Generator:
    fam = d.get("family")
    if fam == "lmsr":
        return LmsrGenerator(d["b"], d.get("n", n or 2))
    if fam == "constant_product":
        return ConstantProductGenerator(d.get("n", n or 2), d.get("alpha", 1.0))
    if fam == "pair_constant_product":
        return PairConstantProductGenerator(d.get("n", n or 2), d["i"], d["j"], d.get("alpha", 1.0))
    if fam == "trivial":
        return TrivialGenerator(d.get("n", n or 2))
    if fam == "sum":
        terms = [generator_from_descriptor(t, n) for t in d["terms"]]
        return SumGenerator(terms)
    if fam == "shifted":
        return ShiftedGenerator(generator_from_descriptor(d["inner"], n), d["shift"])
    # every other family is a two-outcome curve
    curve = curve_from_descriptor(d)
    if n not in (None, 2):
        raise UnknownKind(f"curve family {fam!r} only supports two outcomes")
    return curve
