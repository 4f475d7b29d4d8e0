"""Core convex operations: liabilities, conjugates, prices, liquidity.

Conventions.  Prices live in the relative interior of the simplex, clamped at
EPS from the boundary; `simplex_price` checks every price that comes from
outside, a number t at n = 2 as (t, 1 - t), and the other entry points check
the length of each vector they take.  Liabilities are oriented toward the
maker: the bundle q = grad Gbar(p) is what the maker owes.  Trade bundles r
are oriented toward the trader and valid net trades keep the aggregate cost
C(q + r) = C(q).

Conjugate solves: two-outcome makers reduce to a monotone scalar equation
g'(p) = q_1 - q_2, solved by safeguarded Newton (rtsafe, Numerical Recipes
section 9.4), warm-started at the caller's price hint.  Each step evaluates G
once: G.slope_curvature(p) gives the slope g'(p) and g''(p) together; a
bisection step is the fallback whenever Newton would leave the bracket or
stops halving its step, so the answer keeps the bisection's definition (the
leftmost solution across flats and kinks, to a bracket of 1e-15), given a
slope that is nondecreasing in floating point as `Curve1D.dg` promises.  The
slopes at the two clamps, which tell whether the maximizer sits at one,
depend on G alone: they are evaluated once per generator object and kept on
it.
This is the package's only scalar solver: `two_asset.price2` calls into
`conjugate_value`.  Larger markets have one solver too:
damped Newton on the KKT system of max <p, q> - G(p) over the clamped simplex,
started at the caller's price hint or the uniform price.  Coordinates whose
reduced gradient points out of the clamp are held there; the others take the
equality-constrained Newton step, with the Hessian plus min(1, r) diag(1/p) for
a KKT residual r, so flat directions get scaled-gradient steps.  A maximizer
with a held coordinate is reported at the boundary, and a solve that has not
converged after _MAXIT steps raises SolverDiverged with its residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryPrice,
    NoGradient,
    NotLevelSet,
    OutOfRange,
    SolverDiverged,
    UnknownKind,
    VertexUnbounded,
    _bundle,
    _floats,
    _shaped,
)
from .generators import (
    Generator,
    ShiftedGenerator,
    compile_sum,
)

EPS = 1e-9  # boundary clamp for simplex prices
# the simplex solver stops at a KKT residual below _GTOL, or below _GREL times
# the largest |q_i| + |grad_i G| when that is larger: the residual's rounding floor
_GTOL = 1e-12
_GREL = 1e-14
_MAXIT = 100  # Newton steps before the simplex solver gives up
_XTOL = 1e-15  # bracket width at which a two-outcome solve stops
_NUDGE = 4e-16  # two-outcome iterates stay this far inside the bracket


def simplex_price(values, n: int | None = None) -> np.ndarray:
    """The one rule for a price from outside: a point of the relative
    interior of the simplex or, for n = 2 or None, a number t read as
    (t, 1 - t).  An entry that is not a number or a wrong shape raises
    UnknownKind, a value not finite or components not summing to 1 (to
    1e-9) OutOfRange, not renormalised, and a price at the clamp
    BoundaryPrice.  One that passes is divided by its sum."""
    p = _floats("price", values)
    if p.ndim == 0 and n in (2, None):
        p = np.array([p, 1.0 - p])
    if p.ndim != 1 or len(p) < 2 or (n is not None and len(p) != n):
        raise UnknownKind(f"price must be a vector of {n or '>= 2'} components, got shape {p.shape}")
    # scalar checks on the list cost less than numpy's reductions, as in liability_of
    xs = p.tolist()
    if not all(map(math.isfinite, xs)):
        raise OutOfRange("price components must be finite")
    s = sum(xs)
    if abs(s - 1.0) > 1e-9:
        raise OutOfRange(f"price components sum to {s}, not 1")
    p = p / s
    if min(xs) / s < EPS or max(xs) / s > 1.0 - EPS:
        raise BoundaryPrice("price touches the boundary clamp")
    return p


def liability_of(G: Generator, p) -> np.ndarray:
    """Bundle the maker owes when quoting price p: grad Gbar(p)."""
    p = _shaped("price", p, G.n)
    # scalar checks on the lists cost less than most gradients; as p.min()
    # propagates NaN, a NaN coordinate does not read as a boundary price
    xs = p.tolist()
    if min(xs) < EPS and not any(map(math.isnan, xs)):
        raise BoundaryPrice("liability queried at the boundary clamp")
    try:
        q = G.grad(p)
    except (FloatingPointError, ZeroDivisionError) as exc:  # pragma: no cover
        raise NoGradient(str(exc))
    if not all(map(math.isfinite, q.tolist())):
        raise NoGradient("gradient is not finite at this price")
    return q


@dataclass
class ConjugateResult:
    cost: float
    price: np.ndarray  # maximizer of <p, q> - G(p); clamped if at_boundary
    at_boundary: bool


def _clamp_slopes(G: Generator) -> tuple:
    """(g'(EPS), g'(1 - EPS)), evaluated once per generator object and kept
    on it as `Generator._clamp_slopes`."""
    ends = G._clamp_slopes
    if ends is None:
        ends = G._clamp_slopes = (G.slope_curvature(EPS)[0], G.slope_curvature(1.0 - EPS)[0])
    return ends


def _conjugate_two(G: Generator, q, p0) -> ConjugateResult:
    t = float(q[0] - q[1])
    lo, hi = EPS, 1.0 - EPS
    slack = 1e-13 * max(1.0, abs(t))
    # the clamp slopes, once per generator: a t beyond them puts the
    # maximizer at a clamp
    slope_lo, slope_hi = _clamp_slopes(G)
    if slope_hi < t - slack:
        # maximizer at p = 1: the conjugate continues affinely
        return ConjugateResult(float(q[0] - G.value(np.array([1.0, 0.0]))), np.array([hi, 1.0 - hi]), True)
    if slope_lo >= t:
        return ConjugateResult(float(q[1] - G.value(np.array([0.0, 1.0]))), np.array([lo, 1.0 - lo]), True)
    # leftmost p with g'(p) >= t (ties broken left across flats and kinks),
    # keeping the bracket g'(lo) < t <= g'(hi).  The next point is the Newton
    # point when g'' > 0, it lies in the bracket and its step is under half the
    # step before (rtsafe), else the midpoint.  Points keep _NUDGE inside the
    # bracket: a Newton point that rounds onto the end just evaluated moves
    # off it, so one more evaluation closes the bracket after convergence.
    x = float(p0[0]) if p0 is not None and lo <= p0[0] <= hi else 0.5 * (lo + hi)
    x = min(max(x, lo + _NUDGE), hi - _NUDGE)
    step = hi - lo
    while True:
        f, d = G.slope_curvature(x)
        f -= t
        if f >= 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= _XTOL:
            break
        newton = d > 0.0 and lo <= x - f / d <= hi and abs(f / d) < 0.5 * step
        xn = x - f / d if newton else 0.5 * (lo + hi)
        xn = min(max(xn, lo + _NUDGE), hi - _NUDGE)
        x, step = xn, abs(xn - x)
    p1 = hi
    p = np.array([p1, 1.0 - p1])
    cost = float(p @ q - G.value(p))
    return ConjugateResult(cost, p, p1 <= EPS * (1 + 1e-6) or p1 >= 1.0 - EPS * (1 + 1e-6))


def _free_residual(p, v):
    """(held, r) for the simplex solver: the coordinates held at the clamp
    because their reduced gradient v_i - c points outward, and the KKT
    residual max |v_i - c| over the rest, with c the p-weighted mean of v off
    the clamp."""
    at = p <= EPS * (1 + 1e-6)
    c = p[~at] @ v[~at] / p[~at].sum()
    held = at & (v < c)
    return held, float(np.max(np.abs(v[~held] - c)))


def _conjugate_kkt(G: Generator, q, p0) -> ConjugateResult:
    """Damped Newton on the KKT system of max <p, q> - G(p) over the simplex
    (see the module docstring).  A step stops at 0.99 of the distance to the
    clamp, then backtracks: it is taken on an Armijo increase or, near the
    optimum, when it cuts the residual while the objective drops by no more
    than its rounding floor.  f is about 0 at held liabilities (Euler's
    identity), so that floor scales with the terms of f, not with f."""
    n = G.n
    p = np.full(n, 1.0 / n) if p0 is None else np.clip(np.asarray(p0, dtype=float), EPS, None)
    p = p / p.sum()
    g = G.value(p)
    f = p @ q - g
    v = q - G.grad(p)
    held, r = _free_residual(p, v)
    for it in range(_MAXIT):
        if r < max(_GTOL, _GREL * float(np.max(np.abs(q) + np.abs(q - v)))):
            return ConjugateResult(float(f), p, bool(held.any()))
        free = ~held
        m = int(free.sum())
        K = np.ones((m + 1, m + 1))
        K[:m, :m] = G.hessian(p)[np.ix_(free, free)] + min(1.0, r) * np.diag(1.0 / p[free])
        K[m, m] = 0.0
        d = np.zeros(n)
        d[free] = np.linalg.solve(K, np.append(v[free], 0.0))[:m]
        out = d < 0
        tau = min(1.0, 0.99 * float(np.min((p[out] - EPS) / -d[out]))) if out.any() else 1.0
        rise = float(v @ d)
        floor = 1e-14 * (float(np.abs(p * q).sum()) + abs(g))
        for _ in range(60):
            pn = p + tau * d
            pn = pn / pn.sum()
            gn = G.value(pn)
            fn = pn @ q - gn
            if fn >= f - floor:
                vn = q - G.grad(pn)
                heldn, rn = _free_residual(pn, vn)
                if fn >= f + 0.01 * tau * rise or rn <= (1.0 - 0.25 * tau) * r:
                    break
            tau *= 0.5
        else:
            break
        p, g, f, v, held, r = pn, gn, fn, vn, heldn, rn
    raise SolverDiverged(f"KKT residual {r:.3e} after {it + 1} iterations")


def conjugate_value(G: Generator, q, p0=None) -> ConjugateResult:
    """Cost C(q) = sup_p <p, q> - G(p) together with the maximizing price."""
    q = _shaped("liability", q, G.n)
    closed = G.conjugate(q)
    if closed is not None:
        cost, p = closed
        p = np.clip(np.asarray(p, dtype=float), EPS, None)
        p = p / p.sum()
        return ConjugateResult(float(cost), p, bool(p.min() <= EPS * (1 + 1e-6)))
    if G.n == 2:
        return _conjugate_two(G, q, p0)
    return _conjugate_kkt(G, q, p0)


def price_of(G: Generator, q, p0=None) -> np.ndarray:
    """Coherent price for liability q; unique when G is strictly convex."""
    res = conjugate_value(G, q, p0)
    if res.at_boundary:
        raise BoundaryPrice("maximizer reached the boundary clamp")
    return res.price


def infimal_convolution_split(generators, q, p0=None):
    """Split liability q across parallel makers at their shared coherent price.

    Returns (cost, parts, price) where cost is the aggregate cost
    (inf-convolution of the individual costs, equal to the conjugate of the
    summed generator, solved on its `compile_sum`), the rows of the (k, n)
    array parts sum to q exactly, and each part sits on the level set
    C_i = cost / k up to solver tolerance.
    """
    gens = list(generators)
    if not gens:
        raise NotLevelSet("no makers to split the liability across")
    agg = compile_sum(gens)
    q = _shaped("liability", q, agg.n)
    res = conjugate_value(agg, q, p0)
    if res.at_boundary:
        raise BoundaryPrice("aggregate maximizer reached the boundary clamp")
    p = res.price
    # the residual equals cost * 1 in exact arithmetic
    parts = spread_residual(np.array([liability_of(Gi, p) for Gi in gens]), q)
    return float(res.cost), parts, p


def spread_residual(parts, total) -> np.ndarray:
    """Add (total - sum(parts)) / k to each row of the (k, n) array `parts`
    so the rows sum to total.  The column sums run row by row from +0.0, so
    a column of -0.0 parts sums to +0.0."""
    share = (total - np.add.reduce(parts, axis=0, initial=0.0)) / len(parts)
    return parts + share


def liquidity_matrix(G: Generator, p) -> np.ndarray:
    """Hessian of the 1-homogeneous extension at p: PSD with p in its null
    space; the inverse metric of price impact.  p is not renormalised."""
    p = _bundle("price", p, G.n)
    if p.min() < EPS:
        raise BoundaryPrice("liquidity queried at the boundary clamp")
    return G.hessian(p)


def directional_liquidity(G: Generator, p, v) -> float:
    v = _bundle("direction", v, G.n)
    return float(v @ liquidity_matrix(G, p) @ v)


def normalize_generator(G: Generator) -> Generator:
    """Shift G by a linear function so it vanishes at the simplex vertices.

    This removes the deterministic part of the maker's liability without
    changing its liquidity.  Families whose vertex values are unbounded cannot
    be normalized and raise VertexUnbounded (none of the built-in families do).
    """
    vertex = G.vertex_values()
    if not np.all(np.isfinite(vertex)):
        raise VertexUnbounded("generator is unbounded at a vertex")
    if np.max(np.abs(vertex)) <= 1e-12:
        return G
    return ShiftedGenerator(G, vertex)
