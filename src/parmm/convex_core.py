"""Core convex operations: liabilities, conjugates, prices, liquidity.

Conventions.  Prices live in the relative interior of the simplex, clamped at
EPS from the boundary.  Liabilities are oriented toward the maker: the bundle
q = grad Gbar(p) is what the maker owes.  Trade bundles r are oriented toward
the trader and valid net trades keep the aggregate cost C(q + r) = C(q).

Conjugate solves: two-outcome makers reduce to a monotone scalar equation
G.slope(p) = q_1 - q_2, solved by safeguarded Newton on the slope with
G.curvature, warm-started at the caller's price hint; a bisection step is the
fallback whenever Newton would leave the bracket or stops halving its step, so
the answer keeps the bisection's definition (the leftmost solution across
flats and kinks, to a bracket of 1e-15), given a slope that is nondecreasing
in floating point as `Curve1D.dg` promises.
This is the package's only scalar solver: the views `two_asset.price2` and
`cost2` are calls into `conjugate_value`.  Larger markets use
exponentiated-gradient ascent on p |-> <p, q> - G(p), which is invariant to
the c * 1 gauge freedom of q, and hand off to Newton on the tangent-space KKT
system as soon as the projected gradient is below 1e-3; a hand-off that does
not reach the tolerance is discarded and the ascent goes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryPrice,
    NoGradient,
    NotLevelSet,
    SolverDiverged,
    VertexUnbounded,
)
from .generators import (
    Generator,
    ShiftedGenerator,
    SumGenerator,
)

EPS = 1e-9  # boundary clamp for simplex prices
_GTOL = 1e-10  # projected-gradient tolerance for the simplex solver
_MAXIT = 10_000
_XTOL = 1e-15  # bracket width at which a two-outcome solve stops
_NUDGE = 4e-16  # two-outcome iterates stay this far inside the bracket
_HANDOFF = 1e-3  # projected gradient below which EG tries the Newton polish


def simplex_price(values, n: int | None = None) -> np.ndarray:
    """Validate a point of the (relative interior of the) price simplex."""
    p = np.asarray(values, dtype=float)
    if n is not None and p.shape != (n,):
        raise ValueError(f"expected {n} components, got {p.shape}")
    if p.ndim != 1 or len(p) < 2 or not np.all(np.isfinite(p)):
        raise ValueError("price must be a finite vector of length >= 2")
    s = p.sum()
    if abs(s - 1.0) > 1e-9:
        raise ValueError(f"price components sum to {s}, not 1")
    p = p / s
    if p.min() < EPS or p.max() > 1.0 - EPS:
        raise BoundaryPrice("price touches the boundary clamp")
    return p


def binary_price(p1: float) -> np.ndarray:
    return simplex_price([p1, 1.0 - p1])


def liability_of(G: Generator, p) -> np.ndarray:
    """Bundle the maker owes when quoting price p: grad Gbar(p)."""
    p = np.asarray(p, dtype=float)
    # the ufunc and the list skip numpy's reduction wrappers, which cost more
    # than most gradients; the minimum still propagates NaN as p.min() does
    if np.minimum.reduce(p) < EPS:
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


def _conjugate_two(G: Generator, q, p0) -> ConjugateResult:
    t = float(q[0] - q[1])
    lo, hi = EPS, 1.0 - EPS
    slack = 1e-13 * max(1.0, abs(t))
    if G.slope(hi) < t - slack:
        # maximizer at p = 1: the conjugate continues affinely
        return ConjugateResult(float(q[0] - G.value(np.array([1.0, 0.0]))), np.array([hi, 1.0 - hi]), True)
    if G.slope(lo) >= t:
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
        f = G.slope(x) - t
        if f >= 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= _XTOL:
            break
        d = G.curvature(x)
        newton = d is not None and d > 0.0 and lo <= x - f / d <= hi and abs(f / d) < 0.5 * step
        xn = x - f / d if newton else 0.5 * (lo + hi)
        xn = min(max(xn, lo + _NUDGE), hi - _NUDGE)
        x, step = xn, abs(xn - x)
    p1 = hi
    p = np.array([p1, 1.0 - p1])
    cost = float(p @ q - G.value(p))
    return ConjugateResult(cost, p, p1 <= EPS * (1 + 1e-6) or p1 >= 1.0 - EPS * (1 + 1e-6))


def _project_simplex_step(p, v):
    """Tangent-space Newton direction is computed in the caller; here we just
    report the projected-gradient residual max_i |v_i - <p, v>|."""
    return float(np.max(np.abs(v - p @ v)))


def _newton_polish(G: Generator, q, p, max_iter=50):
    """Tangent-space Newton on grad Gbar(p) = q - c 1, using the analytic
    Hessian when available and a finite-difference one otherwise."""
    n = len(p)
    for _ in range(max_iter):
        v = q - G.grad(p)
        resid = _project_simplex_step(p, v)
        if resid < 1e-13:
            return p
        H = G.hessian(p)
        if H is None:
            H = _fd_hessian(G, p)
        KKT = np.zeros((n + 1, n + 1))
        KKT[:n, :n] = H
        KKT[:n, n] = 1.0
        KKT[n, :n] = 1.0
        rhs = np.concatenate([v, [0.0]])
        # least squares tolerates the singular Hessians of degenerate
        # generators (flat directions pick up the minimum-norm step)
        step = np.linalg.lstsq(KKT, rhs, rcond=None)[0][:n]
        if not np.all(np.isfinite(step)):
            return p
        # damp so the iterate stays strictly inside the clamp
        tau = 1.0
        bad = step < 0
        if bad.any():
            tau = min(1.0, 0.9 * float(np.min(-(p[bad] - EPS) / step[bad])))
        pn = p + tau * step
        if pn.min() < EPS or not np.all(np.isfinite(pn)):
            return p
        pn = pn / pn.sum()
        vn = q - G.grad(pn)
        if _project_simplex_step(pn, vn) >= resid:
            return p
        p = pn
    return p


def _conjugate_eg(G: Generator, q, p0) -> ConjugateResult:
    n = G.n
    p = np.full(n, 1.0 / n) if p0 is None else np.clip(np.asarray(p0, dtype=float), EPS, None)
    p = p / p.sum()

    def fval(pp):
        return float(pp @ q - G.value(pp))

    eta = 1.0
    f = fval(p)
    converged = False
    handoff = _HANDOFF
    for it in range(_MAXIT):
        grad = q - G.grad(p)
        resid = _project_simplex_step(p, grad)
        if resid < _GTOL:
            converged = True
            break
        if resid < handoff:
            # Newton finishes the job when it reaches the tolerance; otherwise
            # keep ascending and try again after the residual drops tenfold
            pn = _newton_polish(G, q, p)
            if _project_simplex_step(pn, q - G.grad(pn)) < _GTOL:
                p, converged = pn, True
                break
            handoff = 0.1 * resid
        accepted = False
        for _ in range(60):
            z = p * np.exp(eta * (grad - grad.max()))
            pn = z / z.sum()
            pn = np.clip(pn, EPS, None)
            pn = pn / pn.sum()
            fn = fval(pn)
            if fn >= f:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            # stalled on function value; fall back to residual control
            p = _newton_polish(G, q, p)
            resid = _project_simplex_step(p, q - G.grad(p))
            converged = resid < _GTOL
            break
        if fn > f:
            eta *= 1.3
        p, f = pn, fn
    if not converged:
        resid = _project_simplex_step(p, q - G.grad(p))
        if resid >= _GTOL:
            # KKT residual concentrated on clamped coordinates means the true
            # maximizer sits at the boundary
            interior = p > EPS * (1 + 1e-6)
            v = q - G.grad(p)
            v = v - p @ v
            if float(np.max(np.abs(v[interior]))) < 1e-8:
                return ConjugateResult(fval(p), p, True)
            raise SolverDiverged(f"projected gradient {resid:.3e} after {_MAXIT} iterations")
    at_boundary = bool(p.min() <= EPS * (1 + 1e-6))
    return ConjugateResult(fval(p), p, at_boundary)


def conjugate_value(G: Generator, q, p0=None) -> ConjugateResult:
    """Cost C(q) = sup_p <p, q> - G(p) together with the maximizing price."""
    q = np.asarray(q, dtype=float)
    closed = G.conjugate(q)
    if closed is not None:
        cost, p = closed
        p = np.clip(np.asarray(p, dtype=float), EPS, None)
        p = p / p.sum()
        return ConjugateResult(float(cost), p, bool(p.min() <= EPS * (1 + 1e-6)))
    if G.n == 2:
        return _conjugate_two(G, q, p0)
    return _conjugate_eg(G, q, p0)


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
    summed generator), parts sum to q exactly, and each part sits on the level
    set C_i = cost / k up to solver tolerance.
    """
    gens = list(generators)
    if not gens:
        raise NotLevelSet("no makers to split the liability across")
    q = np.asarray(q, dtype=float)
    agg = gens[0] if len(gens) == 1 else SumGenerator(gens)
    res = conjugate_value(agg, q, p0)
    if res.at_boundary:
        raise BoundaryPrice("aggregate maximizer reached the boundary clamp")
    p = res.price
    # the residual equals cost * 1 in exact arithmetic
    parts = spread_residual([liability_of(Gi, p) for Gi in gens], q)
    return float(res.cost), parts, p


def spread_residual(parts, total) -> list:
    """Add (total - sum(parts)) / k to each of the k parts so they sum to total."""
    acc = np.zeros_like(total)
    for part in parts:
        acc += part
    share = (total - acc) / len(parts)
    return [part + share for part in parts]


def _fd_hessian(G: Generator, p, h=None):
    """Central differences of the 0-homogeneous gradient map, taken in ambient
    coordinates (legitimate off the simplex), then projected so that p spans
    the null space as it does analytically."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(p)))
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        H[:, j] = (G.grad(p + e) - G.grad(p - e)) / (2.0 * h)
    H = 0.5 * (H + H.T)
    P = np.eye(n) - np.outer(p, p) / float(p @ p)
    return P @ H @ P


def liquidity_matrix(G: Generator, p) -> np.ndarray:
    """Hessian of the 1-homogeneous extension at p: PSD with p in its null
    space; the inverse metric of price impact."""
    p = np.asarray(p, dtype=float)
    if p.min() < EPS:
        raise BoundaryPrice("liquidity queried at the boundary clamp")
    H = G.hessian(p)
    if H is None:
        H = _fd_hessian(G, p)
    return H


def directional_liquidity(G: Generator, p, v) -> float:
    v = np.asarray(v, dtype=float)
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
