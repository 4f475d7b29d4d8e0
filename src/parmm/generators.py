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
does.  A family defines g as `g` and writes g' and g'' once, in
`slope_curvature`: the pair (g', g''), the two-outcome Newton step's one
evaluation, which a family finds from one lookup (a piece, the held
buckets).  `dg`, the liability's g', and `hessian`, the g'' of the
liquidity, read it there.  At n = 2, every generator's slope g' is
`slope_curvature(t)[0]`, q_1 - q_2 at the price (t, 1 - t).  All curve
families here are normalized so g(0) = g(1) = 0.
`compile_sum` merges the same-family terms of a sum for the solvers.

A family's descriptor is `{"family": ..., field: value, ...}`, its fields the
keyword arguments of its builder in `_BUILDERS`.  Each field name has one
kind in `_KINDS`, whose rule checks it whether it comes from a descriptor or
a call: every constructor and builder runs `_checked` on its arguments
first, which keeps numbers as Python's ints and floats and vectors as float
arrays of their own, and records a generator's fields once, for the one
`Generator.descriptor` to write back in containers of their own.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
from bisect import bisect_left, bisect_right
from functools import partial
from operator import methodcaller

import numpy as np

from .errors import (
    DivergentIntegral,
    OutOfRange,
    UnknownKind,
    UnsupportedFamily,
    _check_amount,
    _check_integer,
    _check_number,
    _floats,
)

_TINY = 1e-12


# ---------------------------------------------------------------------------
# generator base
# ---------------------------------------------------------------------------


class Generator:
    """Convex nonpositive generator on the n-simplex, 1-homogeneously extended.

    A family defines value, grad, hessian (the analytic Hessian of the
    extension at a simplex point) and vertex_values; conjugate is optional.
    value and grad accept any strictly positive vector x.  At n = 2,
    slope_curvature follows from grad and hessian; sums and shifts define
    faster ones that return the same floats, and curves define their own.
    Its constructor checks its arguments with `_checked`, which records them
    under its `family`, a class keyword, for `descriptor`.
    """

    n: int
    is_pseudobarrier = False
    # g' at the two price clamps, kept by `convex_core._clamp_slopes`; code
    # that changes a generator's parameters in place resets it to None
    _clamp_slopes = None

    def __init_subclass__(cls, family: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls.family = family

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, p) -> np.ndarray:
        raise NotImplementedError

    def slope_curvature(self, t: float) -> tuple:
        """(g'(t), g''(t)) of a two-outcome generator, for one Newton step:
        the gradient difference and (1, -1) H (1, -1) at (t, 1 - t)."""
        gr = self.grad(np.array([t, 1.0 - t]))
        H = self.hessian(np.array([t, 1.0 - t]))
        return float(gr[0] - gr[1]), float(H[0, 0] - H[0, 1] - H[1, 0] + H[1, 1])

    def conjugate(self, q):
        """Closed form of the cost C(q) = sup_p <p, q> - G(p): the pair
        (C(q), maximizing p), or None if the family has none."""
        return None

    def vertex_values(self) -> np.ndarray:
        """G at the simplex vertices; `normalize_generator` checks they are finite."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        """{"family": ..., field: value, ...}: the fields recorded when the
        generator was built, in signature order and in containers of their
        own, so that editing the result leaves the generator as it was."""
        record, nested = self._descriptor
        d = record.copy()
        for key, write in nested:  # empty for most families
            d[key] = write(d[key])
        return d


# ---------------------------------------------------------------------------
# scalar curves (two-outcome makers)
# ---------------------------------------------------------------------------


class Curve1D(Generator):
    """Two-outcome generator G(p) = g(p_1) of a convex curve g on [0, 1];
    g(0) and g(1) are finite for every family here.  A family defines `g`
    and `slope_curvature`."""

    n = 2

    def g(self, p):
        raise NotImplementedError

    def dg(self, p):
        """Derivative, the g' of `slope_curvature`; midpoint of the two
        one-sided slopes at a kink.

        Nondecreasing in floating point too, also where pieces join: the
        two-outcome price solve takes the leftmost p with dg(p) >= t, and a
        join that rounds below a flat it borders would cut the flat off.
        """
        return self.slope_curvature(p)[0]

    def slope_curvature(self, p):
        """(g'(p), g''(p)): g' as `dg` promises it, and g'' where defined,
        from the right at a kink (0 on flat pieces).  The curve's only g' and
        g''; the base has none, since the generator default reads `hessian`,
        which reads this."""
        raise NotImplementedError

    # value and grad read x as two Python floats: numpy's scalar arithmetic
    # costs more than g and dg on most curves, and x0 + x1 is x.sum()
    def value(self, x):
        x0, x1 = np.asarray(x, dtype=float).tolist()
        s = x0 + x1
        return float(s * self.g(x0 / s))

    def grad(self, x):
        x0, x1 = np.asarray(x, dtype=float).tolist()
        return np.array(self.grad_pair(x0 / (x0 + x1)))

    def grad_pair(self, p):
        """The gradient at the price (p, 1 - p) as two floats, from g and
        dg: `grad`'s one formula, which `convex_core.liability_of` also reads
        for a batch of curves at one price."""
        gp = self.g(p)
        dp = self.dg(p)
        base = gp - p * dp
        return dp + base, base

    def hessian(self, p):
        p = np.asarray(p, dtype=float)
        s = p.sum()
        t = p[0] / s
        v = np.array([1.0 - t, -t])
        return self.slope_curvature(t)[1] / s * np.outer(v, v)

    def vertex_values(self):
        return np.array([self.g(1.0), self.g(0.0)])


class PiecewisePolyCurve(Curve1D, family="piecewise_poly"):
    """Piecewise-polynomial curve on breakpoints 0 = x_0 < ... < x_m = 1.

    coefficients[k], those of the curve on [breakpoints[k], breakpoints[k+1]]
    (lowest degree first, in the global coordinate p) or an object holding them as
    `.coef`, such as a numpy Polynomial, gives each piece.  The constructor
    raises OutOfRange, to a relative 1e-9, where g' falls, inside a piece (g''
    below 0 at an end or where g''' vanishes, or a lower right-end slope) or
    at a breakpoint, and where g jumps at a breakpoint.  Non-finite slopes
    are left to `liability_of`.  There is no closed-form conjugate:
    `convex_core` solves it, as it solves every sum.
    """

    def __init__(self, breakpoints, coefficients):
        xs, coefficients = _checked(self, breakpoints=breakpoints, coefficients=coefficients)
        _check_pieces(xs, coefficients)
        if not (abs(xs[0]) < _TINY and abs(xs[-1] - 1.0) < _TINY and np.all(np.diff(xs) > 0)):
            raise OutOfRange("breakpoints must increase strictly from 0 to 1")
        # g, g' and g'' run inside every price solve: their coefficients are
        # Python floats, evaluated by _horner, and the breakpoints a list
        self.breakpoints, self.coefficients = xs.tolist(), coefficients
        self._c1 = [_polyder(c, 1) for c in coefficients]
        self._c2 = [_polyder(c, 2) for c in coefficients]
        # g' and g'' at both ends of each piece
        ends = [
            (_horner(c1, a), _horner(c1, b), _horner(c2, a), _horner(c2, b))
            for c1, c2, a, b in zip(self._c1, self._c2, self.breakpoints, self.breakpoints[1:])
        ]
        tol = 1e-9 * max([1.0] + [abs(v) for e in ends for v in e if math.isfinite(v)])
        # slope bounds per piece, nondecreasing across the breakpoints, so a
        # piece whose end value rounds below its neighbour's is clamped to it
        self._dlo, self._dhi = [], []
        top = -math.inf
        for k, (sl, sr, cl, cr) in enumerate(ends):
            x = self.breakpoints[k]
            if min([cl, cr] + _turning_values(self._c2[k], x, self.breakpoints[k + 1])) < -tol or sr < sl - tol:
                raise OutOfRange(f"piece {k} is not convex: g' falls inside it")
            if sl < top - tol:
                raise OutOfRange(f"g' falls at breakpoint {x}: the curve is not convex")
            if k and abs(_horner(coefficients[k - 1], x) - _horner(coefficients[k], x)) > tol:
                raise OutOfRange(f"g jumps at breakpoint {x}: the curve is not continuous")
            self._dlo.append(max(sl, top))
            top = max(sr, self._dlo[-1])
            self._dhi.append(top)

    @classmethod
    def from_liquidity(cls, breakpoints, coefficients) -> "PiecewisePolyCurve":
        """Build the curve whose second derivative is the given piecewise
        polynomial liquidity profile, normalized so g(0) = g(1) = 0.

        Double antiderivative with continuity across breakpoints, then chord
        subtraction; any antiderivative choice gives the same curve.
        """
        xs, liquidity = _checked(breakpoints=breakpoints, coefficients=coefficients)
        _check_pieces(xs, liquidity)
        B = _integrate(xs, _integrate(xs, liquidity))
        chord = [0.0, _horner(B[-1], xs[-1])]  # B(1), with B(0) = 0
        return cls(xs, [_polyadd(Q, [-v for v in chord]) for Q in B])

    def _piece(self, p):
        k = bisect_right(self.breakpoints, p) - 1
        return min(max(k, 0), len(self.coefficients) - 1)

    def g(self, p):
        return float(_horner(self.coefficients[self._piece(p)], p))

    def _slope(self, k, p):
        return min(max(float(_horner(self._c1[k], p)), self._dlo[k]), self._dhi[k])

    def slope_curvature(self, p):
        k = self._piece(p)
        d = self._slope(k, p)
        # midpoint subgradient at interior breakpoints
        if 0 < k and p == self.breakpoints[k]:
            d = 0.5 * (d + self._slope(k - 1, p))
        return float(d), float(_horner(self._c2[k], p))


def _check_pieces(xs, coefficients):
    """Raise UnknownKind unless the breakpoints xs bound the pieces."""
    if xs.ndim != 1 or len(xs) != len(coefficients) + 1:
        raise UnknownKind(f"breakpoints of shape {xs.shape} for {len(coefficients)} pieces")


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
    (scale,) = _checked(scale=scale)
    if not 0 < scale < math.inf:
        raise OutOfRange(f"Brier scale {scale} is not positive and finite")
    return PiecewisePolyCurve([0.0, 1.0], [[0.0, -scale, scale]])


def piecewise_linear_curve(grid, weights) -> PiecewisePolyCurve:
    """Sum of weighted one-kink curves with kinks at grid prices 0 < a_1 <
    ... < a_k < 1: the j-th has slope a_j - 1 left of a_j and a_j right of
    it, so its maker quotes a_j for every state inside its capacity.  On
    (a_j, a_{j+1}), with a_0 = 0, the sum's slope is sum_{i<=j} w_i a_i +
    sum_{i>j} w_i (a_i - 1) and its intercept -sum_{i<=j} w_i a_i."""
    grid, weights = _checked(grid=grid, weights=weights)
    if grid.ndim != 1 or grid.shape != weights.shape or len(grid) == 0:
        raise UnknownKind(f"grid of shape {grid.shape} for weights of shape {weights.shape}")
    if not (np.all(np.diff(grid) > 0) and grid[0] > 0 and grid[-1] < 1 and np.all((0 <= weights) & (weights < math.inf))):
        raise OutOfRange("grid prices must increase strictly inside (0, 1), weights be nonnegative and finite")
    intercepts = np.r_[0.0, -np.cumsum(weights * grid)]
    unfilled = np.r_[np.cumsum((weights * (grid - 1.0))[::-1])[::-1], 0.0]
    return PiecewisePolyCurve(np.r_[0.0, grid, 1.0], [[c, u - c] for c, u in zip(intercepts, unfilled)])


def tabulated_liquidity_curve(grid, values) -> PiecewisePolyCurve:
    """Curve whose liquidity g'' interpolates `values` at the prices `grid`
    linearly and is 0 off the grid, which lies inside [0, 1];
    `from_liquidity` integrates it exactly, so g, g' and g'' agree."""
    grid, values = _checked(grid=grid, values=values)
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


class LmsrCurve(Curve1D, family="lmsr"):
    """Two-outcome LMSR shape g(p) = b (p log p + (1-p) log(1-p)).

    `LmsrGenerator(b, 2)` is the same maker; this curve stays as the scalar
    base a `BucketCurve` needs and as the merged LMSR term of `compile_sum`,
    whose slope builds no arrays.  An "lmsr" descriptor loads as the generator.
    """

    is_pseudobarrier = True

    def __init__(self, b: float):
        (self.b,) = _checked(self, b=b)
        if not 0 < self.b < math.inf:
            raise OutOfRange(f"LMSR b {b} is not positive and finite")

    def g(self, p):
        return float(self.b * (_xlogy(p, p) + _xlogy(1.0 - p, 1.0 - p)))

    def slope_curvature(self, p):
        return float(self.b * (np.log(p) - np.log1p(-p))), float(self.b / (p * (1.0 - p)))

    def conjugate(self, q):
        t = q[0] - q[1]
        cost = float(self.b * np.logaddexp(0.0, t / self.b)) + q[1]
        p1 = _expit(t / self.b)
        return cost, np.array([p1, 1.0 - p1])


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


class UniswapV2Curve(Curve1D, family="uniswap_v2"):
    """Constant-product shape g(p) = -2 a sqrt(p (1-p)); reserves x1 x2 = a^2."""

    def __init__(self, alpha: float):
        (self.alpha,) = _checked(self, alpha=alpha)
        _check_amount("liquidity", self.alpha)

    @property
    def is_pseudobarrier(self):
        return self.alpha > 0

    def g(self, p):
        return float(-2.0 * self.alpha * math.sqrt(max(p * (1.0 - p), 0.0)))

    def slope_curvature(self, p):
        w = math.sqrt(p * (1.0 - p))
        return float(self.alpha * (2.0 * p - 1.0) / w), float(self.alpha / (2.0 * (p * (1.0 - p)) ** 1.5))

    def conjugate(self, q):
        return _constant_product_conjugate(q, 2.0 * self.alpha)


class BucketCurve(Curve1D, family="bucket"):
    """Liquidity of a base curve restricted to [a, b], scaled by `weight`.

    The base maker's liquidity profile is zeroed outside [a, b] and the
    resulting curve renormalized to g(0) = g(1) = 0, giving a maker whose
    slope is affine outside the bucket and matches the base inside.
    """

    def __init__(self, base: Curve1D, a: float, b: float, weight: float = 1.0):
        base, a, b, weight = _checked(self, base=base, a=a, b=b, weight=weight)
        if not (0.0 < a < b < 1.0 and 0 <= weight < math.inf):
            raise OutOfRange(f"bucket [{a}, {b}] with weight {weight} needs 0 < a < b < 1 and a finite weight >= 0")
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

    def slope_curvature(self, p):
        w = self.weight
        if p < self.a:
            return float(w * self._lo), 0.0
        if p > self.b:
            return float(w * self._hi), 0.0
        d, d2 = self.base.slope_curvature(p)
        # at the edges the in-bucket sum can round past the tail slopes
        d = min(max(d + self._ga - self._gb - self.a * self._da + self._db * (self.b - 1.0), self._lo), self._hi)
        # g'' from the right at the edges, as a piecewise curve takes the
        # piece right of a breakpoint: then buckets that tile [a, b] add up to it
        return float(w * d), (float(w * d2) if p < self.b else 0.0)

    _short = None  # the bucket shorthand whose unit base is equal to the base ("" if none), found on first use

    def descriptor(self):
        if self._short is None:
            base = self.base.descriptor()
            self._short = next((fam for fam, build in _BUILDERS.items()
                                if getattr(build, "func", None) is _unit_bucket and build.args[0].descriptor() == base), "")
        if self._short:
            return {"family": self._short, "a": self.a, "b": self.b, "alpha": self.weight}
        return super().descriptor()


class BucketArrayCurve(Curve1D, family="bucket_array"):
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
        base, pairs, weights = _checked(self, base=base, buckets=buckets, weights=weights)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise UnknownKind(f"buckets must be (a, b) pairs, got shape {pairs.shape}")
        buckets = [(a, b) for a, b in pairs.reshape(-1, 2).tolist()]
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

    def _set_weights(self, w):
        if w.shape != (len(self.buckets),):
            raise UnknownKind(f"weights of shape {w.shape} for {len(self.buckets)} buckets")
        if not np.all((w >= 0) & (w < math.inf)):
            raise OutOfRange(f"weights of {len(self.buckets)} buckets, some negative or not finite")
        # a copy shares the recorded descriptor: replace it, never edit it
        record, nested = self._descriptor
        self._descriptor = {**record, "weights": w}, nested
        self.weights = w
        self._w = w.tolist()
        self._clamp_slopes = None
        H = np.concatenate(([0.0], np.cumsum(w * self._hi)))
        L = np.concatenate((np.cumsum((w * self._lo)[::-1])[::-1], [0.0]))
        # g' at the two ends of each state, summed in slope_curvature's
        # order; the clamp bounds make it nondecreasing from state to state
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
        arr._set_weights(*_checked(weights=weights))
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

    def slope_curvature(self, p):
        # g' from the prefix sums and the held buckets, g'' summed from 0
        # over the same buckets
        i0, i1 = self.holding(p)
        acc, curv = self._H[i0], 0
        for j in range(i0, i1):
            d, d2 = self._units[j].slope_curvature(p)
            acc += self._w[j] * d
            curv += self._w[j] * d2
        s = i0 + i1
        return float(min(max(acc + self._L[i1], self._dlo[s]), self._dhi[s])), float(curv)


class SoftBucketCurve(Curve1D, family="soft_bucket"):
    """Liquidity f(p) * 2 (p (1-p))^{-3/2} with f piecewise linear on knots.

    `knots` run 0 = a_1 < ... < a_k = 1 and `weights` are the liquidity
    heights at them; f interpolates them linearly, f = u + v p on each piece.
    The double integral has a closed form: with w = sqrt(p (1-p)) and base
    profile lb = 2 w^{-3},
        I0 = int lb dp        = 4 (2p - 1) / w
        I1 = int p lb dp      = 4 sqrt(p / (1-p))
        J0 = int^2 lb dp      = -8 w
        J1 = int^2 p lb dp    = -4 w + 2 asin(2p - 1)
    so no quadrature is needed.
    """

    def __init__(self, knots, weights):
        knots, weights = _checked(self, knots=knots, weights=weights)
        if knots.ndim != 1 or knots.shape != weights.shape or len(knots) < 2:
            raise UnknownKind(f"knots of shape {knots.shape} for weights of shape {weights.shape}")
        if not (abs(knots[0]) < _TINY and abs(knots[-1] - 1.0) < _TINY and np.all(np.diff(knots) > 0)):
            raise OutOfRange("knots must increase strictly from 0 to 1")
        if not np.all((weights >= 0) & (weights < math.inf)):
            raise OutOfRange("soft-bucket weights must be nonnegative and finite")
        self.knots, self.weights = knots, weights
        # Python floats: the interior knots, and per piece (u, v, c, e) with
        # g' = u I0 + v I1 + c and g = u J0 + v J1 + c p + e, the constants
        # chained from g(0) = 0 so both are continuous at the knots; g(1) = 0
        # once the chord p g(1) is subtracted
        x, w = knots.tolist(), weights.tolist()
        self._x, self._pieces = x[1:-1], []
        for k, (x0, x1, w0, w1) in enumerate(zip(x, x[1:], w, w[1:])):
            v = (w1 - w0) / (x1 - x0)
            u = w0 - v * x0
            pu, pv, pc, pe = self._pieces[-1] if k else (0.0, 0.0, 0.0, 0.0)
            c = _soft_dg((pu - u, pv - v, pc, 0.0), x0) if k else 0.0
            self._pieces.append((u, v, c, _soft_g((pu - u, pv - v, pc - c, pe), x0)))
        self._chord = _soft_g(self._pieces[-1], 1.0)
        # slope bounds per piece from g' at its ends, nondecreasing across the
        # knots as `PiecewisePolyCurve`'s are: the two sides' closed forms can
        # round past each other at a knot
        self._dlo, self._dhi = [], []
        top = -math.inf
        for k, piece in enumerate(self._pieces):
            self._dlo.append(max(_soft_dg(piece, x[k]) - self._chord if k else -math.inf, top))
            top = max(_soft_dg(piece, x[k + 1]) - self._chord if k < len(x) - 2 else math.inf, self._dlo[-1])
            self._dhi.append(top)

    def g(self, p):
        return float(_soft_g(self._pieces[bisect_right(self._x, p)], p) - self._chord * p)

    def slope_curvature(self, p):
        k = bisect_right(self._x, p)
        d = min(max(_soft_dg(self._pieces[k], p) - self._chord, self._dlo[k]), self._dhi[k])
        return float(d), float(_soft_d2g(self._pieces[k], p))


def _soft_g(piece, p):
    """u J0(p) + v J1(p) + c p + e for a soft-bucket piece (u, v, c, e)."""
    u, v, c, e = piece
    w = math.sqrt(p * (1.0 - p))
    return u * (-8.0 * w) + v * (-4.0 * w + 2.0 * math.asin(2.0 * p - 1.0)) + c * p + e


def _soft_dg(piece, p):
    """u I0(p) + v I1(p) + c, the derivative of `_soft_g`."""
    u, v, c, _ = piece
    return u * (4.0 * (2.0 * p - 1.0) / math.sqrt(p * (1.0 - p))) + v * (4.0 * math.sqrt(p / (1.0 - p))) + c


def _soft_d2g(piece, p):
    """(u + v p) 2 (p (1 - p))^{-3/2}, the derivative of `_soft_dg`."""
    u, v, _, _ = piece
    return (u + v * p) * 2.0 * (p * (1.0 - p)) ** -1.5


# ---------------------------------------------------------------------------
# n-asset generators
# ---------------------------------------------------------------------------


class LmsrGenerator(Generator, family="lmsr"):
    """G(p) = b * sum_i p_i log p_i."""

    is_pseudobarrier = True

    def __init__(self, b: float, n: int):
        self.b, self.n = _checked(self, b=b, n=n)
        if not (0 < self.b < math.inf and self.n >= 2):
            raise OutOfRange(f"LMSR needs a finite b > 0 and n >= 2, got b = {b}, n = {n}")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        y = x / x.sum()
        return float(self.b * np.sum([_xlogy(u, v) for u, v in zip(x.tolist(), y.tolist())]))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.b * np.log(x / np.add.reduce(x))  # x.sum() without its wrapper

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


class ConstantProductGenerator(Generator, family="constant_product"):
    """G(p) = -n (alpha * prod_i p_i)^{1/n}; reserves satisfy prod x_i = alpha."""

    is_pseudobarrier = True

    def __init__(self, n: int, alpha: float = 1.0):
        self.n, self.alpha = _checked(self, n=n, alpha=alpha)
        if not (self.n >= 2 and 0 < self.alpha < math.inf):
            raise OutOfRange(f"constant product needs n >= 2 and a finite alpha > 0, got n = {n}, alpha = {alpha}")

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


class PairConstantProductGenerator(Generator, family="pair_constant_product"):
    """G(p) = -2 alpha sqrt(p_i p_j): constant-product liquidity on one pair."""

    def __init__(self, n: int, i: int, j: int, alpha: float = 1.0):
        self.n, self.i, self.j, self.alpha = _checked(self, n=n, i=i, j=j, alpha=alpha)
        if not (self.n >= 2 and 0 <= self.i < self.j < self.n and 0 <= self.alpha < math.inf):
            raise OutOfRange(f"pair ({i}, {j}) of {n} outcomes with alpha {alpha} is invalid")

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


class SumGenerator(Generator, family="sum"):
    def __init__(self, terms):
        (self.terms,) = _checked(self, terms=terms)
        self.n = self.terms[0].n
        if any(t.n != self.n for t in self.terms):
            raise UnsupportedFamily("terms of a sum have different outcome counts")

    @property
    def is_pseudobarrier(self):
        return any(t.is_pseudobarrier for t in self.terms)

    def value(self, x):
        return sum(t.value(x) for t in self.terms)

    def grad(self, x):
        return np.sum([t.grad(x) for t in self.terms], axis=0)

    def slope_curvature(self, t):
        # both sums run in term order from 0, as `sum` adds
        slope, curv = 0, 0
        for term in self.terms:
            d, d2 = term.slope_curvature(t)
            slope += d
            curv += d2
        return slope, curv

    def hessian(self, p):
        return np.sum([t.hessian(p) for t in self.terms], axis=0)

    def vertex_values(self):
        return np.sum([t.vertex_values() for t in self.terms], axis=0)


def _family(G) -> tuple | None:
    """Key shared by the terms `compile_sum` merges with G; None for a family
    that does not merge."""
    kind = type(G)
    if kind in (LmsrCurve, LmsrGenerator, ConstantProductGenerator, UniswapV2Curve, PiecewisePolyCurve):
        return (G.family, G.n)
    if kind is BucketArrayCurve:
        return (G.family, id(G._units))
    if kind is BucketCurve:  # equal bases merge, however they were built
        return (G.family, json.dumps(G.base.descriptor(), sort_keys=True))
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
        xs = sorted({x for T in terms for x in T.breakpoints})
        coefs = [[0.0] * max(len(c) for T in terms for c in T.coefficients) for _ in xs[1:]]
        for c, a, b in zip(coefs, xs, xs[1:]):
            for T in terms:
                for i, v in enumerate(T.coefficients[T._piece(0.5 * (a + b))]):
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


class TrivialGenerator(Generator, family="trivial"):
    """The zero generator: no liquidity, liability always zero."""

    def __init__(self, n: int):
        (self.n,) = _checked(self, n=n)

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros(self.n)

    def hessian(self, p):
        return np.zeros((self.n, self.n))

    def vertex_values(self):
        return np.zeros(self.n)


class ShiftedGenerator(Generator, family="shifted"):
    """inner minus the linear function <x, shift>; zero at the vertices."""

    def __init__(self, inner: Generator, shift):
        inner, shift = _checked(self, inner=inner, shift=shift)
        if shift.shape != (inner.n,):  # one per outcome, not broadcast
            raise UnknownKind(f"shift has shape {shift.shape}, not ({inner.n},)")
        self.inner, self.shift, self.n = inner, shift, inner.n

    @property
    def is_pseudobarrier(self):
        return self.inner.is_pseudobarrier

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.inner.value(x) - float(x @ self.shift)

    def grad(self, x):
        return self.inner.grad(x) - self.shift

    def slope_curvature(self, t):
        d, d2 = self.inner.slope_curvature(t)
        return d - float(self.shift[0] - self.shift[1]), d2

    def hessian(self, p):
        return self.inner.hessian(p)

    def conjugate(self, q):
        return self.inner.conjugate(np.asarray(q, dtype=float) + self.shift)

    def vertex_values(self):
        return self.inner.vertex_values() - self.shift


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def _number(name, x):
    if type(x) is float:  # the common field, tested first
        return x
    _check_number(name, x)
    return int(x) if isinstance(x, (int, np.integer)) else float(x)


def _integer(name, k):
    _check_integer(name, k)
    return _number(name, k)  # a number too: not beyond the float range


def _vectors(name, x):
    if not (isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim) or not len(x):
        raise UnknownKind(f"{name} must be a nonempty list of vectors, got {x!r}")
    pieces = []
    for P in x:
        c = np.atleast_1d(_floats(name, getattr(P, "coef", P)))
        if c.ndim != 1 or not c.size:
            raise UnknownKind(f"{name} holds a piece of shape {c.shape}")
        pieces.append(c.tolist())
    return pieces


def _instance(kind, what):
    def rule(name, x):
        if not isinstance(x, kind):  # a generator's repr holds its address: name its type
            raise UnknownKind(f"{name} must be {what}, got {type(x).__name__ if isinstance(x, Generator) else repr(x)}")
        return x
    return rule


_curve, _generator = _instance(Curve1D, "a two-outcome curve"), _instance(Generator, "a generator")


def _generators(name, x):
    if not isinstance(x, (list, tuple)) or not x:
        raise UnknownKind(f"{name} must be a nonempty list of generators, got {x!r}")
    for k, t in enumerate(x):
        if not isinstance(t, Generator):
            _generator(f"{name}[{k}]", t)  # raises, naming the entry
    return [u for t in x for u in (t.terms if isinstance(t, SumGenerator) else [t])]


_DESCRIBED = methodcaller("descriptor")
_KINDS = {  # field -> (rule, writer of a recorded value; None for a number)
    **dict.fromkeys(["a", "b", "alpha", "scale", "weight"], (_number, None)),
    **dict.fromkeys(["n", "i", "j"], (_integer, None)),
    **dict.fromkeys(["breakpoints", "buckets", "grid", "knots", "shift", "values", "weights"],
                    (lambda name, x: _floats(name, x).copy(), np.ndarray.tolist)),
    "coefficients": (_vectors, lambda pieces: [c.copy() for c in pieces]),
    "base": (_curve, _DESCRIBED),
    "inner": (_generator, _DESCRIBED),
    "terms": (_generators, lambda terms: [t.descriptor() for t in terms]),
}


def _checked(G=None, **fields) -> list:
    """The fields, each checked and converted by the rule of its kind; given
    a generator G, also record them under its family for `descriptor()`."""
    values, nested = [], []
    for key, value in fields.items():
        rule, write = _KINDS[key]
        values.append(rule(key, value))
        if write:
            nested.append((key, write))
    if G is not None:
        record = {"family": G.family}
        record.update(zip(fields, values))
        G._descriptor = record, nested
    return values


def _unit_bucket(base, a, b, alpha=1.0):
    """A bucket shorthand: `base` at unit scale on [a, b], weighted by alpha.
    Its own field is alpha; `BucketCurve` checks a and b by the same names."""
    return BucketCurve(base, a, b, *_checked(alpha=alpha))


# The one descriptor table, family -> builder.  A field left out takes the
# builder's default, and a count n the market's n or 2; "base" loads as a
# two-outcome curve, in which "lmsr" is an `LmsrCurve`.
_BUILDERS = {
    "lmsr": LmsrGenerator,
    "uniswap_v2": UniswapV2Curve,
    "brier": brier_curve,
    "piecewise_poly": PiecewisePolyCurve,
    "piecewise_liquidity": PiecewisePolyCurve.from_liquidity,
    "bucket": BucketCurve,
    "v3_bucket": partial(_unit_bucket, UniswapV2Curve(1.0)),
    "lmsr_bucket": partial(_unit_bucket, LmsrCurve(1.0)),
    "brier_bucket": partial(_unit_bucket, brier_curve(1.0)),
    "bucket_array": BucketArrayCurve,
    "soft_bucket": SoftBucketCurve,
    "piecewise_linear": piecewise_linear_curve,
    "tabulated_liquidity": tabulated_liquidity_curve,
    "constant_product": ConstantProductGenerator,
    "pair_constant_product": PairConstantProductGenerator,
    "trivial": TrivialGenerator,
    "sum": SumGenerator,
    "shifted": ShiftedGenerator,
}
_CURVES = {**_BUILDERS, "lmsr": LmsrCurve}
_PARAMETERS = {build: inspect.signature(build).parameters for build in [*_BUILDERS.values(), LmsrCurve]}
_REQUIRED = {build: {key for key, par in params.items() if par.default is par.empty}
             for build, params in _PARAMETERS.items()}


def generator_from_descriptor(d: dict, n: int | None = None) -> Generator:
    """The generator a JSON descriptor names, for a market of n outcomes."""
    return _load(d, n, _BUILDERS)


def _load(d, n, builders, prefix="") -> Generator:
    """Load d; `prefix` names the outer field a nested d of no known family is."""
    if not isinstance(d, dict):
        raise UnknownKind(f"a descriptor must be an object, got {d!r}")
    fam = d.get("family")
    if not isinstance(fam, str) or fam not in builders:
        raise UnknownKind(f"{prefix}unknown family {fam!r}")
    build, fields = builders[fam], {key: value for key, value in d.items() if key != "family"}
    malformed = f"malformed {fam} descriptor: "
    params, required = _PARAMETERS[build], _REQUIRED[build]
    if "n" in params and "n" not in fields:
        fields["n"] = n or 2
    if not required <= fields.keys() <= params.keys():
        unknown = [key for key in fields if key not in params]
        missing = [key for key in params if key in required and key not in fields]
        raise UnknownKind(malformed + (
            f"{unknown[0]} is not one of its fields ({', '.join(params)})" if unknown else f"{missing[0]} is missing"))
    # a nested descriptor loads on its own, and its errors name its family
    if isinstance(fields.get("base"), dict):
        fields["base"] = _load(fields["base"], 2, _CURVES, f"{malformed}base of ")
    if isinstance(fields.get("inner"), dict):
        fields["inner"] = _load(fields["inner"], n, builders, f"{malformed}inner of ")
    if isinstance(fields.get("terms"), list):
        fields["terms"] = [_load(t, n, builders, f"{malformed}terms[{k}] of ") if isinstance(t, dict) else t
                           for k, t in enumerate(fields["terms"])]
    try:
        G = build(**fields)
    except UnknownKind as exc:
        raise UnknownKind(f"{malformed}{exc}") from None
    if n not in (None, 2) and isinstance(G, Curve1D):
        raise UnknownKind(f"{malformed}a curve family only supports two outcomes, not {n}")
    return G
