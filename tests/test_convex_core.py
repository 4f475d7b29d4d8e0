"""Duality, liquidity matrices, and infimal convolution."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_pools import bench_inputs, n2_market, v3_pool
from fd_hessian import fd_hessian
from parmm import (
    BucketArrayCurve,
    Generator,
    BucketCurve,
    ConstantProductGenerator,
    LmsrCurve,
    LmsrGenerator,
    PairConstantProductGenerator,
    PiecewisePolyCurve,
    ShiftedGenerator,
    SoftBucketCurve,
    SumGenerator,
    TrivialGenerator,
    UniswapV2Curve,
    UniswapV3Market,
    brier_curve,
    conjugate_value,
    directional_liquidity,
    generator_from_descriptor,
    infimal_convolution_split,
    liability_of,
    liquidity_matrix,
    normalize_generator,
    piecewise_linear_curve,
    price_of,
)
from parmm.convex_core import _MAXIT, EPS, _conjugate_two, simplex_price, spread_residual
from parmm.errors import (
    BoundaryPrice,
    NoGradient,
    NotLevelSet,
    OutOfRange,
    SolverDiverged,
    UnknownKind,
    VertexUnbounded,
)


def families_n2():
    return [
        LmsrCurve(1.0),
        LmsrCurve(0.4),
        UniswapV2Curve(1.5),
        brier_curve(2.0),
        BucketCurve(UniswapV2Curve(1.0), 0.3, 0.7, 1.2),
        BucketCurve(LmsrCurve(1.0), 0.2, 0.8, 0.9),
        SoftBucketCurve([0.0, 0.4, 0.7, 1.0], [0.0, 1.5, 0.5, 0.0]),
        PiecewisePolyCurve.from_liquidity([0, 0.6, 1], [[5.0], [0.0]]),
        ConstantProductGenerator(2, 1.0),
    ]


def families_n3():
    return [
        LmsrGenerator(1.0, 3),
        LmsrGenerator(2.5, 3),
        ConstantProductGenerator(3, 1.0),
        SumGenerator([LmsrGenerator(0.7, 3), PairConstantProductGenerator(3, 0, 2, 1.0)]),
    ]


def family_cases():
    """families_n2() and families_n3() as parameters with ids that stay the
    same from run to run: the family and the index."""
    return [pytest.param(G, id=f"{G.family}-{i}") for i, G in enumerate(families_n2() + families_n3())]


def random_prices(rng, n, count):
    ps = rng.dirichlet(np.ones(n), size=count)
    ps = np.clip(ps, 0.01, None)
    return ps / ps.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# duality round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("G", family_cases())
def test_duality_round_trip(G):
    rng = np.random.default_rng(5)
    for p in random_prices(rng, G.n, 200):
        q = liability_of(G, p)
        res = conjugate_value(G, q)
        assert abs(res.cost) < 1e-8  # liability sits on the zero level set
        # price round trip; bucketed curves are flat off-bucket, where any
        # consistent price must reproduce the same liability instead
        q_back = liability_of(G, np.clip(res.price, 1e-9, None))
        assert np.max(np.abs(q_back - q)) < 1e-6


def test_price_round_trip_strictly_convex():
    rng = np.random.default_rng(9)
    for G in [LmsrCurve(1.0), UniswapV2Curve(1.0), LmsrGenerator(1.3, 3), ConstantProductGenerator(3, 1.0)]:
        for p in random_prices(rng, G.n, 200):
            q = liability_of(G, p)
            assert np.max(np.abs(price_of(G, q) - p)) < 1e-6


def test_euler_identity():
    rng = np.random.default_rng(2)
    for G in families_n2() + families_n3():
        for p in random_prices(rng, G.n, 20):
            q = liability_of(G, p)
            assert float(p @ q) == pytest.approx(G.value(p), abs=1e-9)


def test_one_homogeneous_extension():
    rng = np.random.default_rng(3)
    for G in families_n2() + families_n3():
        x = rng.uniform(0.2, 2.0, size=G.n)
        for lam in (0.5, 2.0, 7.3):
            assert G.value(lam * x) == pytest.approx(lam * G.value(x), rel=1e-12)
            assert np.allclose(G.grad(lam * x), G.grad(x), atol=1e-10)


def test_cash_invariance_of_cost():
    # C(q + c 1) = C(q) + c: adding cash to every outcome is just cash
    rng = np.random.default_rng(4)
    for G in [LmsrCurve(1.0), LmsrGenerator(1.0, 3), ConstantProductGenerator(3, 1.0)]:
        q = liability_of(G, random_prices(rng, G.n, 1)[0])
        base = conjugate_value(G, q).cost
        for c in (-0.7, 0.3, 2.0, 1e6, -1e6):
            assert conjugate_value(G, q + c).cost == pytest.approx(base + c, abs=1e-9)


@pytest.mark.parametrize(
    "G",
    [
        LmsrCurve(1.3),
        UniswapV2Curve(0.8),
        LmsrGenerator(0.7, 2),
        ConstantProductGenerator(2, 1.7),
        ShiftedGenerator(UniswapV2Curve(1.2), [0.4, -0.3]),
    ],
    ids=["lmsr-curve", "v2", "lmsr-n2", "constant_product-n2", "shifted-v2"],
)
def test_closed_forms_match_the_scalar_solve(G):
    # the O(1) closed forms against the scalar solve
    rng = np.random.default_rng(16)
    for p1 in rng.uniform(0.02, 0.98, 40):
        q = liability_of(G, [p1, 1.0 - p1]) + rng.normal(0.0, 0.5, 2)
        cost, p = G.conjugate(q)
        res = _conjugate_two(G, q, None)
        assert abs(res.cost - cost) <= 1e-12
        assert abs(res.price[0] - p[0]) <= 1e-12


def test_solver_matches_closed_form_lmsr():
    # run the iterative path against the analytic conjugate
    G = LmsrGenerator(1.3, 3)

    class NoClosedForm(LmsrGenerator):
        def conjugate(self, q):
            return None

    H = NoClosedForm(1.3, 3)
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = rng.normal(0.0, 1.0, size=3)
        want, pwant = G.conjugate(q)
        got = conjugate_value(H, q)
        assert got.cost == pytest.approx(want, abs=1e-9)
        if pwant.min() > 1e-4:
            assert np.max(np.abs(got.price - pwant)) < 1e-7


@pytest.mark.parametrize("p", [[1e-12, 1.0 - 1e-12], [0.0, 1.0], [1.0, 0.0], [0.3, 0.7, 0.0], [0.5, -0.1, 0.6]])
def test_boundary_liability_raises(p):
    G = LmsrCurve(1.0) if len(p) == 2 else LmsrGenerator(1.0, 3)
    with pytest.raises(BoundaryPrice):
        liability_of(G, np.array(p))


class _FixedGradient(Generator):
    n = 2

    def __init__(self, g):
        self.g = np.array(g, dtype=float)

    def grad(self, x):
        return self.g.copy()


@pytest.mark.parametrize("g", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0], [1e308, math.nan]])
def test_non_finite_gradient_raises(g):
    with pytest.raises(NoGradient):
        liability_of(_FixedGradient(g), [0.4, 0.6])
    assert np.array_equal(liability_of(_FixedGradient([1e308, -1e308]), [0.4, 0.6]), [1e308, -1e308])


def test_nan_price_is_not_a_boundary_price():
    # a price entry that is not finite is out of range before any clamp test
    for p in ([math.nan, 1e-20], [1e-20, math.nan], [math.nan, 1e-20, 0.5]):
        with pytest.raises(OutOfRange):
            liability_of(LmsrGenerator(1.0, len(p)), np.array(p))


# ---------------------------------------------------------------------------
# liability batches
# ---------------------------------------------------------------------------


def _batch_books(n):
    """Generators for one liability batch at n outcomes: every family of
    `families_n2` or `families_n3`, a trivial, a shifted and a sum generator,
    and two whose liabilities hold -0.0 entries."""
    if n == 2:
        return families_n2() + [
            TrivialGenerator(2),
            ShiftedGenerator(UniswapV2Curve(1.0), [0.3, -0.2]),
            SumGenerator([LmsrCurve(0.5), BucketCurve(UniswapV2Curve(1.0), 0.2, 0.6, 1.0)]),
            BucketCurve(UniswapV2Curve(1.0), 0.3, 0.7, 0.0),
            PairConstantProductGenerator(2, 0, 1, 0.0),
        ]
    return families_n3() + [
        TrivialGenerator(3),
        ShiftedGenerator(LmsrGenerator(1.0, 3), [0.1, 0.0, -0.4]),
        SumGenerator([ConstantProductGenerator(3, 2.0), LmsrGenerator(0.3, 3)]),
        PairConstantProductGenerator(3, 0, 2, 0.0),
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_a_liability_batch_is_the_one_lp_calls_stacked_bit_for_bit(n):
    gens = _batch_books(n)
    rng = np.random.default_rng(31)
    # on the simplex, off it (the extension is 0-homogeneous), and at the clamp
    prices = list(random_prices(rng, n, 60)) + list(random_prices(rng, n, 20) * 2.5)
    prices.append(np.array([EPS] + [(1.0 - EPS) / (n - 1)] * (n - 1)))
    signed = False
    for p in prices:
        got = liability_of(gens, p)
        want = np.array([liability_of(G, p) for G in gens])
        assert got.shape == (len(gens), n) and got.tobytes() == want.tobytes()
        # and each row is the generator's own gradient
        assert np.array([G.grad(np.asarray(p, dtype=float)) for G in gens]).tobytes() == want.tobytes()
        assert liability_of(tuple(gens), p).tobytes() == want.tobytes()
        signed |= bool((np.signbit(got) & (got == 0.0)).any())
    assert signed  # some rows hold -0.0, whose sign the batch keeps


_BAD_PRICES = {
    "nan": ([math.nan, 0.5], OutOfRange),
    "none": ([None, 0.5], OutOfRange),
    "inf": ([math.inf, 0.5], OutOfRange),
    "bool": ([True, 0.5], UnknownKind),
    "bool-array": (np.array([True, False]), UnknownKind),
    "str": (["x", 0.5], UnknownKind),
    "long": ([0.2, 0.3, 0.5], UnknownKind),
    "clamp": ([0.0, 1.0], BoundaryPrice),
}


@pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
@pytest.mark.parametrize("name", sorted(_BAD_PRICES))
def test_liability_of_checks_a_price_by_the_errors_rules(name, batch):
    price, error = _BAD_PRICES[name]
    G = LmsrCurve(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            liability_of([G, UniswapV2Curve(1.0)] if batch else G, price)


@pytest.mark.parametrize(
    "makers",
    [[], [LmsrCurve(1.0), LmsrGenerator(1.0, 3)], [LmsrCurve(1.0), "lmsr"], [None], "lmsr", None, 2.0,
     iter([LmsrCurve(1.0)]), {LmsrCurve(1.0)}],
    ids=["empty", "mixed-n", "str-entry", "none-entry", "str", "none", "number", "iterator", "set"],
)
def test_liability_of_takes_a_generator_or_a_list_of_generators_with_one_n(makers):
    with pytest.raises(UnknownKind):
        liability_of(makers, [0.4, 0.6])
    # the price's n is the makers' n
    with pytest.raises(UnknownKind):
        liability_of([LmsrGenerator(1.0, 3)] * 2, [0.4, 0.6])


# ---------------------------------------------------------------------------
# liquidity matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("G", family_cases())
def test_hessian_analytic_vs_finite_difference(G):
    rng = np.random.default_rng(8)
    for p in random_prices(rng, G.n, 50):
        H = G.hessian(p)
        F = fd_hessian(G, p)
        scale = max(1.0, float(np.abs(H).max()))
        assert np.max(np.abs(H - F)) / scale < 1e-4


def test_liquidity_matrix_properties():
    rng = np.random.default_rng(12)
    for G in [LmsrGenerator(1.0, 3), ConstantProductGenerator(3, 1.0), UniswapV2Curve(1.0)]:
        for p in random_prices(rng, G.n, 10):
            L = liquidity_matrix(G, p)
            assert np.allclose(L, L.T, atol=1e-12)
            assert np.max(np.abs(L @ p)) < 1e-8  # p spans the null space
            w = np.linalg.eigvalsh(L)
            assert w.min() > -1e-8  # positive semidefinite


def test_inverse_duality_two_outcomes():
    # curvature of cost and curve are reciprocal: c''(g'(p)) = 1 / g''(p)
    crv = LmsrCurve(1.0)
    h = 1e-5
    for p in [0.2, 0.5, 0.8]:
        q = crv.dg(p)
        c2 = (crv.conjugate([q + h, 0.0])[1][0] - crv.conjugate([q - h, 0.0])[1][0]) / (2 * h)
        assert c2 == pytest.approx(1.0 / crv.slope_curvature(p)[1], rel=1e-6)


def test_directional_liquidity_uniform_values():
    # geometric-mean generator and its pairwise counterpart at the uniform
    # price, direction (1, 0, -1): values 6 and 9
    G1 = ConstantProductGenerator(3, 1.0)
    G2 = SumGenerator(
        [
            PairConstantProductGenerator(3, 0, 1, 1.0),
            PairConstantProductGenerator(3, 0, 2, 1.0),
            PairConstantProductGenerator(3, 1, 2, 1.0),
        ]
    )
    u = np.ones(3) / 3
    v = np.array([1.0, 0.0, -1.0])
    assert directional_liquidity(G1, u, v) == pytest.approx(6.0, abs=1e-6)
    assert directional_liquidity(G2, u, v) == pytest.approx(9.0, abs=1e-6)


def test_directional_liquidity_degenerate_limit():
    # as p2 -> 0, the geometric mean's (1,0,-1)-liquidity vanishes while the
    # pairwise generator keeps at least 1/sqrt(p1 p3)
    G1 = ConstantProductGenerator(3, 1.0)
    G2 = SumGenerator(
        [
            PairConstantProductGenerator(3, 0, 1, 1.0),
            PairConstantProductGenerator(3, 0, 2, 1.0),
            PairConstantProductGenerator(3, 1, 2, 1.0),
        ]
    )
    v = np.array([1.0, 0.0, -1.0])
    prev = None
    for p2 in [1e-2, 1e-4, 1e-6]:
        p = np.array([(1 - p2) / 2, p2, (1 - p2) / 2])
        l1 = directional_liquidity(G1, p, v)
        l2 = directional_liquidity(G2, p, v)
        if prev is not None:
            assert l1 < prev
        prev = l1
        assert l2 >= 1.0 / math.sqrt(p[0] * p[2]) - 1e-9
    assert prev < 1e-1


# ---------------------------------------------------------------------------
# infimal convolution
# ---------------------------------------------------------------------------


def test_split_parts_sum_and_share_level():
    rng = np.random.default_rng(14)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        gens = [LmsrGenerator(float(rng.uniform(0.5, 2.0)), 3) for _ in range(k)]
        p = random_prices(rng, 3, 1)[0]
        q = np.sum([liability_of(G, p) for G in gens], axis=0) + float(rng.uniform(-0.5, 0.5))
        cost, parts, price = infimal_convolution_split(gens, q)
        assert np.max(np.abs(np.sum(parts, axis=0) - q)) < 1e-12
        # aggregate cost equals the sum of the parts' costs
        total = sum(conjugate_value(G, part).cost for G, part in zip(gens, parts))
        assert total == pytest.approx(cost, abs=1e-6)
        for G, part in zip(gens, parts):
            assert conjugate_value(G, part).cost == pytest.approx(cost / k, abs=1e-6)


def test_split_is_optimal():
    # no other decomposition of q attains a lower total cost
    rng = np.random.default_rng(15)
    gens = [LmsrGenerator(1.0, 3), LmsrGenerator(2.0, 3)]
    q = liability_of(gens[0], np.array([0.5, 0.3, 0.2])) + liability_of(gens[1], np.array([0.2, 0.5, 0.3]))
    cost, parts, _ = infimal_convolution_split(gens, q)
    for _ in range(200):
        delta = rng.normal(0.0, 0.3, size=3)
        alt = sum(
            conjugate_value(G, part + sgn * delta).cost
            for G, part, sgn in zip(gens, parts, (1.0, -1.0))
        )
        assert alt >= cost - 1e-9


def test_two_lmsr_split_closed_form():
    # parallel LMSRs aggregate to an LMSR with summed b, and the split is
    # proportional to b
    b1, b2 = 1.0, 2.5
    gens = [LmsrGenerator(b1, 3), LmsrGenerator(b2, 3)]
    combined = LmsrGenerator(b1 + b2, 3)
    rng = np.random.default_rng(16)
    for _ in range(50):
        p = random_prices(rng, 3, 1)[0]
        q = liability_of(combined, p)
        cost, parts, price = infimal_convolution_split(gens, q)
        assert cost == pytest.approx(conjugate_value(combined, q).cost, abs=1e-9)
        assert np.max(np.abs(price - p)) < 1e-9
        assert np.allclose(parts[0], b1 / (b1 + b2) * q, atol=1e-8)


def _sequential_spread(parts, total):
    """The split as a loop over the parts, their sum started from +0.0."""
    acc = np.zeros_like(total)
    for part in parts:
        acc += part
    share = (total - acc) / len(parts)
    return [part + share for part in parts]


def test_stacked_split_matches_the_sequential_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    cases = []
    for k in (1, 2, 3, 8, 9, 16, 17, 40):
        for n in (2, 3, 5):
            parts = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-6, 7, (k, n))
            cases.append((parts, parts.sum(axis=0) + rng.standard_normal(n) * 1e-9))
    # a column of -0.0 parts sums to +0.0, so a -0.0 total stays -0.0 in
    # every part; and totals with an exact zero component
    zero_col = rng.standard_normal((4, 3))
    zero_col[:, 1] = -0.0
    for total in ([1.0, -0.0, -2.0], [1.0, 0.0, 0.0], [0.0, -0.0, 1e-300]):
        cases.append((zero_col, np.array(total)))
    cases.append((np.zeros((3, 2)), np.array([0.0, -0.0])))
    for parts, total in cases:
        got = spread_residual(parts, total)
        assert got.shape == parts.shape
        assert got.tobytes() == np.array(_sequential_spread(list(parts), total)).tobytes()
    assert spread_residual(zero_col, np.array([1.0, -0.0, 2.0]))[:, 1].tobytes() == np.full(4, -0.0).tobytes()


def test_engine_split_matches_the_sequential_loop_bit_for_bit():
    # the k = 16 bench market with one LP emptied and one never filled, by
    # target and by bundle
    st = n2_market(2)
    idle = st.register_lp()
    st.modify_liquidity(3, TrivialGenerator(2))
    live = [rec for rec in st.records if not isinstance(rec.generator, TrivialGenerator)]
    rng = np.random.default_rng(32)
    for k in range(6):
        before = {rec.lp_id: rec.liability.copy() for rec in st.records}
        p = np.array([1.0, -1.0]) * float(rng.uniform(0.2, 0.8)) + [0.0, 1.0]
        if k % 2:
            bundle = np.sum([liability_of(rec.generator, p) for rec in live], axis=0) - st.total_liability()
            receipt = st.execute_trade(bundle=bundle)
        else:
            receipt = st.execute_trade(target_price=p)
        held = [liability_of(rec.generator, receipt.price_after) for rec in live]
        want = _sequential_spread([h - before[rec.lp_id] for h, rec in zip(held, live)], receipt.bundle)
        # the LPs with liquidity first, in record order, then the others
        assert list(receipt.parts) == [rec.lp_id for rec in live] + [3, idle]
        assert np.array([receipt.parts[rec.lp_id] for rec in live]).tobytes() == np.array(want).tobytes()
        assert np.array([receipt.parts[3], receipt.parts[idle]]).tobytes() == np.zeros((2, 2)).tobytes()


def test_split_across_no_makers_raises():
    # the same error an empty market raises
    with pytest.raises(NotLevelSet):
        infimal_convolution_split([], np.zeros(2))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_generator_zeroes_vertices():
    G = ShiftedGenerator(LmsrGenerator(1.0, 3), np.array([-0.5, 0.2, 0.1]))
    assert np.max(np.abs(G.vertex_values() - np.array([0.5, -0.2, -0.1]))) < 1e-12
    N = normalize_generator(G)
    assert np.max(np.abs(N.vertex_values())) < 1e-12
    # liquidity is unchanged by the affine shift
    p = np.array([0.3, 0.3, 0.4])
    assert np.allclose(liquidity_matrix(N, p), liquidity_matrix(G, p), atol=1e-12)


def test_normalize_generator_identity_when_normalized():
    G = LmsrGenerator(1.0, 3)
    assert normalize_generator(G) is G
    T = TrivialGenerator(3)
    assert normalize_generator(T) is T


def test_normalize_rejects_unbounded_vertices():
    class Unbounded(LmsrGenerator):
        def vertex_values(self):
            return np.array([-np.inf] * self.n)

    with pytest.raises(VertexUnbounded):
        normalize_generator(Unbounded(1.0, 3))


@given(st.floats(0.05, 0.95), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=50, deadline=None)
def test_conjugate_is_convex_and_monotone_lmsr(p, qa, qb):
    G = LmsrCurve(1.0)
    qa_vec = np.array([qa, -qa])
    qb_vec = np.array([qb, -qb])
    ca = conjugate_value(G, qa_vec).cost
    cb = conjugate_value(G, qb_vec).cost
    mid = conjugate_value(G, 0.5 * (qa_vec + qb_vec)).cost
    assert mid <= 0.5 * (ca + cb) + 1e-9


# ---------------------------------------------------------------------------
# the two-outcome Newton solve and the n >= 3 hand-off
# ---------------------------------------------------------------------------


def two_bucket_gap():
    # g' is flat on the gap [0.4, 0.6] between two constant-product buckets
    return SumGenerator(
        [BucketCurve(UniswapV2Curve(1.0), a, b, 1.0) for a, b in ((0.1, 0.4), (0.6, 0.9))]
    )


def v3_pool_with_empty_bucket():
    m = UniswapV3Market([(0.1, 0.3), (0.3, 0.5), (0.5, 0.7), (0.7, 0.9)], price=0.2)
    lp = m.register_lp()
    m.mint(lp, 2, 1.3)
    m.mint(lp, 3, 0.7)
    return m.aggregate_curve()


def leftmost_families():
    # families_n2 holds bucket curves, whose g' is flat outside the bucket
    return families_n2() + [
        # g' is a step function: kinks at the grid, flat in between
        piecewise_linear_curve([0.2, 0.5, 0.7], [1.0, 2.0, 0.5]),
        SumGenerator([LmsrGenerator(0.5, 2), piecewise_linear_curve([0.3, 0.6], [1.0, 1.0])]),
        # interior flats with curvature on both sides
        two_bucket_gap(),
        v3_pool_with_empty_bucket(),
        SumGenerator(
            [
                BucketCurve(LmsrCurve(1.0), 0.15, 0.35, 0.7),
                BucketCurve(brier_curve(1.0), 0.55, 0.85, 1.9),
            ]
        ),
        PiecewisePolyCurve.from_liquidity([0, 0.3, 0.6, 1], [[1.0], [0.0], [1.0]]),
        PiecewisePolyCurve.from_liquidity([0, 0.2, 0.45, 0.7, 1], [[2.0], [0.0], [0.5, 1.0], [0.0]]),
        # bucket arrays: gaps and an empty bucket; the solve aggregate of the
        # benchmark's B = 400 pool, and one of its LPs, flat outside its range
        BucketArrayCurve(LmsrCurve(0.7), [(0.1, 0.25), (0.4, 0.5), (0.5, 0.8)], [1.3, 0.0, 2.0]),
        BENCH_POOL.state._solver(),
        BENCH_POOL.state.records[3].generator,
    ]


BENCH_POOL = v3_pool(1)
LEFTMOST = leftmost_families()


@pytest.mark.parametrize("G", LEFTMOST, ids=[f"{type(G).__name__}-{i}" for i, G in enumerate(LEFTMOST)])
@given(s=st.floats(0.02, 0.98), h=st.floats(0.02, 0.98))
@settings(max_examples=40, deadline=None)
def test_conjugate_two_returns_the_leftmost_point_whatever_the_hint(G, s, h):
    t = G.slope_curvature(s)[0]
    q = np.array([t, 0.0])
    res = _conjugate_two(G, q, None)
    p = float(res.price[0])
    if not res.at_boundary:
        assert G.slope_curvature(p)[0] >= t
        assert G.slope_curvature(p - 2e-15)[0] < t
    for hint in ([h, 1.0 - h], [EPS, 1.0 - EPS], [1.0 - EPS, EPS]):
        other = _conjugate_two(G, q, np.array(hint))
        assert abs(float(other.price[0]) - p) <= 1e-12
        assert other.at_boundary == res.at_boundary


def test_conjugate_two_keeps_the_flat_when_newton_lands_on_its_right_end():
    # Newton from the right converges onto 0.6, the right end of the flat;
    # the bucket's slope there must not round below the flat's level
    G = two_bucket_gap()
    q = np.array([G.slope_curvature(0.5)[0], 0.0])
    for hint in (None, [0.75, 0.25], [0.3, 0.7]):
        res = _conjugate_two(G, q, None if hint is None else np.array(hint))
        assert res.price[0] == pytest.approx(0.4, abs=1e-15)


def test_conjugate_two_on_a_flat_reached_by_a_double_root():
    # liquidity falls linearly to 0 at 0.4, so g' - t has a double root at the
    # flat's left end: g' sits within rounding of t over ~1e-8 left of 0.4 and
    # no evaluation order can resolve the point more finely than that
    G = SoftBucketCurve([0, 0.3, 0.4, 0.6, 0.7, 1], [1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    q = np.array([G.slope_curvature(0.5)[0], 0.0])
    for hint in (None, [0.1, 0.9], [0.39, 0.61], [0.5, 0.5], [0.65, 0.35], [0.9, 0.1]):
        p = float(_conjugate_two(G, q, None if hint is None else np.array(hint)).price[0])
        assert G.slope_curvature(p)[0] >= q[0]
        assert abs(p - 0.4) < 1e-7


def test_warm_started_two_outcome_solve_needs_few_slope_calls():
    # the k = 16 mixed-family aggregate of the bundle-n2 benchmark workload;
    # each solve starts from the price before, as the engine's trades do.
    # Clamp slopes and Newton steps each evaluate the aggregate once, with
    # slope_curvature
    inputs = bench_inputs()
    spec = inputs.n2_market(1)
    agg = SumGenerator([normalize_generator(generator_from_descriptor(d, 2)) for d in spec["lps"]])
    calls, fused = [], agg.slope_curvature
    agg.slope_curvature = lambda t: calls.append(t) or fused(t)
    price = np.array([spec["price"], 1.0 - spec["price"]])
    for _, p1 in zip(range(30), inputs.n2_targets(1, spec["price"])):
        target = np.array([p1, 1.0 - p1])
        calls.clear()
        res = conjugate_value(agg, agg.grad(target), price)
        assert len(calls) <= 16
        assert np.max(np.abs(res.price - target)) < 1e-12
        price = res.price


def test_simplex_solver_does_not_stall_on_mixed_constant_product_sum():
    # 60 interior targets: every solve converges within 20 gradients
    G = SumGenerator([LmsrGenerator(1.0, 5)] + [ConstantProductGenerator(5, float(a)) for a in range(2, 17)])
    calls, grad = [], G.grad
    G.grad = lambda x: calls.append(1) or grad(x)
    rng = np.random.default_rng(0)
    diverged = 0
    for _ in range(60):
        p = np.clip(rng.dirichlet(np.ones(5)), 0.02, None)
        p /= p.sum()
        q = grad(p)
        calls.clear()
        try:
            res = conjugate_value(G, q)
        except SolverDiverged:
            diverged += 1
            continue
        assert np.max(np.abs(res.price - p)) < 1e-9
        assert len(calls) <= 20
    assert diverged == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_simplex_solver_near_the_boundary(n):
    # targets with components down to 1e-6, solved from the uniform price and
    # from the previous target
    aggregates = [
        SumGenerator([LmsrGenerator(1.0, n)] + [ConstantProductGenerator(n, float(a)) for a in range(2, 17)]),
        SumGenerator([LmsrGenerator(0.7, n), PairConstantProductGenerator(n, 0, n - 1, 1.0)]),
        ConstantProductGenerator(n, 1.0),
    ]
    rng = np.random.default_rng(n)
    for G in aggregates:
        prev = None
        for k in range(20):
            p = np.clip(rng.dirichlet(np.full(n, 0.3)), 10 ** rng.uniform(-6, -2), None)
            p /= p.sum()
            res = conjugate_value(G, G.grad(p), prev if k % 2 else None)
            assert not res.at_boundary
            assert np.max(np.abs(res.price - p)) < 1e-9
            prev = p


def test_simplex_solver_stops_at_the_rounding_floor_of_its_residual():
    # the gradient's first component is about -1.9e5 here, so the KKT
    # residual cannot get below about 3e-11 in floating point
    G = SumGenerator([LmsrGenerator(1.0, 3)] + [ConstantProductGenerator(3, float(a)) for a in range(2, 17)])
    p = np.array([1e-6, 0.5, 0.5 - 1e-6])
    assert np.max(np.abs(conjugate_value(G, G.grad(p)).price - p)) < 1e-9


@pytest.mark.parametrize(
    "q, cost, price",
    [
        ([0.0, 0.0, -1.0], 0.999999998, [0.5, 0.5, 0.0]),
        ([0.3, -0.2, 0.1], 1.0807764054, [0.621268, 0.378732, 0.0]),
    ],
)
@pytest.mark.parametrize("hint", [None, [0.2, 0.3, 0.5]])
def test_lone_pair_pool_maximizer_sits_on_the_boundary(q, cost, price, hint):
    # flat in the third outcome: the maximizer holds it at the clamp
    G = PairConstantProductGenerator(3, 0, 1, 1.0)
    res = conjugate_value(G, np.array(q), hint)
    assert res.at_boundary
    assert res.cost == pytest.approx(cost, abs=1e-10)
    assert np.max(np.abs(res.price - price)) < 1e-6
    assert res.price[2] <= EPS * (1 + 1e-6)
    with pytest.raises(BoundaryPrice):
        price_of(G, np.array(q), hint)


def test_inconsistent_gradient_fails_fast_with_its_residual():
    class Flickering(LmsrGenerator):
        """The LMSR value, with a gradient off by 0.5 on every other call and
        no closed-form conjugate."""

        calls = 0

        def conjugate(self, q):
            return None

        def grad(self, x):
            self.calls += 1
            return super().grad(x) + np.array([0.5 * (self.calls % 2), 0.0, 0.0])

    G = Flickering(1.0, 3)
    steps, hessian = [], G.hessian
    G.hessian = lambda p: steps.append(1) or hessian(p)
    with pytest.raises(SolverDiverged, match=r"KKT residual \d\.\d{3}e[+-]\d+ after \d+ iterations"):
        conjugate_value(G, np.array([0.3, -0.1, 0.2]))
    assert 0 < len(steps) <= _MAXIT


def test_simplex_price_rejects_instead_of_renormalising():
    assert np.array_equal(simplex_price([0.25, 0.75], 2), [0.25, 0.75])
    for bad in ([0.5, 0.6], [0.5, np.nan]):
        with pytest.raises(OutOfRange):
            simplex_price(bad, 2)
    # a wrong shape is a kind error
    for bad in ([1.0], [[0.5, 0.5]], [0.2, 0.3, 0.5]):
        with pytest.raises(UnknownKind):
            simplex_price(bad, 2)
    with pytest.raises(BoundaryPrice):
        simplex_price([0.0, 1.0])


# the core's entry points check a vector's length, and its kind where numpy
# cannot convert it: each of these returned a vector of the wrong length or a
# NaN matrix, or raised numpy's own error
_MISSHAPEN = {
    "liability_of-short": (lambda: liability_of(LmsrGenerator(1.0, 3), [0.5, 0.5]), UnknownKind),
    "liability_of-long": (lambda: liability_of(LmsrCurve(1.0), [0.5, 0.3, 0.2]), UnknownKind),
    "liability_of-str": (lambda: liability_of(LmsrCurve(1.0), ["x", 0.5]), UnknownKind),
    "price_of-short": (lambda: price_of(LmsrGenerator(1.0, 3), [0, 0]), UnknownKind),
    "conjugate_value-short": (lambda: conjugate_value(LmsrCurve(1.0), [1.0]), UnknownKind),
    "infimal_convolution_split-long": (lambda: infimal_convolution_split([LmsrCurve(1.0)], [0, 0, 0]), UnknownKind),
    "liquidity_matrix-nan": (lambda: liquidity_matrix(LmsrCurve(1.0), [np.nan, 0.5]), OutOfRange),
    "liquidity_matrix-long": (lambda: liquidity_matrix(LmsrCurve(1.0), [0.2, 0.3, 0.5]), UnknownKind),
    "directional_liquidity-long": (lambda: directional_liquidity(LmsrCurve(1.0), [0.5, 0.5], [1, -1, 0]), UnknownKind),
    "directional_liquidity-inf": (lambda: directional_liquidity(LmsrCurve(1.0), [0.5, 0.5], [np.inf, -1]), OutOfRange),
}


@pytest.mark.parametrize("name", sorted(_MISSHAPEN))
def test_core_entry_points_reject_a_vector_of_the_wrong_length_or_kind(name):
    call, error = _MISSHAPEN[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()
