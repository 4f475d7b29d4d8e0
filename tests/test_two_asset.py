"""Two-outcome makers: scalar reductions, AMM adapters, bucket algebra."""

import math

import numpy as np
import pytest

from bench_pools import v3_pool
from parmm import (
    BucketCurve,
    SumGenerator,
    LmsrCurve,
    PiecewiseLinearMarket,
    PiecewisePolyCurve,
    UniswapV2Curve,
    UniswapV2Market,
    UniswapV3Market,
    brier_curve,
    conjugate_value,
    initialize,
    liability2,
    liability_of,
    price2,
)
from parmm.errors import (
    BoundaryPrice,
    EmptyBucket,
    InsufficientReserves,
    InvariantViolated,
    NotLevelSet,
    OutOfRange,
    UnknownKind,
)


# ---------------------------------------------------------------------------
# scalar reduction
# ---------------------------------------------------------------------------


def test_liability2_closed_forms():
    for p in [0.2, 0.5, 0.8]:
        assert np.allclose(liability2(LmsrCurve(1.0), p), [math.log(p), math.log(1 - p)], atol=1e-12)
        v2 = liability2(UniswapV2Curve(1.0), p)
        assert np.allclose(v2, [-math.sqrt((1 - p) / p), -math.sqrt(p / (1 - p))], atol=1e-12)
        br = liability2(brier_curve(1.0), p)
        assert np.allclose(br, [-((1 - p) ** 2), -(p ** 2)], atol=1e-12)


def test_price2_inverts_liability():
    for crv in [LmsrCurve(0.7), UniswapV2Curve(1.3), brier_curve(2.0)]:
        for p in np.linspace(0.05, 0.95, 19):
            q = liability2(crv, p)
            assert price2(crv, q) == pytest.approx(p, abs=1e-9)


def test_price2_leftmost_on_flat():
    # off-bucket states have a flat slope; the leftmost consistent price wins
    crv = BucketCurve(LmsrCurve(1.0), 0.3, 0.7, 1.0)
    q = liability2(crv, 0.85)  # same liability for every p in [0.7, 1)
    assert price2(crv, q) == pytest.approx(0.7, abs=1e-9)


def test_price2_left_flat_is_a_boundary_result():
    # a flat stretch of g' that starts at the clamp resolves to the clamp itself
    crv = BucketCurve(LmsrCurve(1.0), 0.3, 0.7, 1.0)
    q = liability2(crv, 0.15)  # same liability for every p in (0, 0.3]
    with pytest.raises(OutOfRange):
        price2(crv, q)


def test_price2_inverts_liability_on_cubic_pieces():
    # a linear liquidity piece integrates to a cubic: no closed-form conjugate
    crv = PiecewisePolyCurve.from_liquidity([0, 0.3, 0.6, 1], [[5.0], [1.0, 2.0], [0.5]])
    for p in np.linspace(0.05, 0.95, 19):
        q = liability2(crv, p)
        assert price2(crv, q) == pytest.approx(p, abs=1e-9)
        assert conjugate_value(crv, q).cost == pytest.approx(0.0, abs=1e-12)


def test_price2_out_of_range():
    crv = brier_curve(1.0)  # slope range [-1, 1]
    with pytest.raises(OutOfRange):
        price2(crv, np.array([2.0, 0.0]))
    with pytest.raises(OutOfRange):
        price2(crv, np.array([-2.0, 0.0]))


def test_cost_zero_on_level_set():
    for crv in [LmsrCurve(1.0), UniswapV2Curve(1.0), brier_curve(1.0)]:
        for p in [0.1, 0.5, 0.9]:
            assert conjugate_value(crv, liability2(crv, p)).cost == pytest.approx(0.0, abs=1e-12)


def test_price2_and_the_aggregate_cost_match_the_bucket_sum():
    # a V3 aggregate curve has no closed-form conjugate, so both sides run
    # the iterative two-outcome solve
    m = UniswapV3Market([(0.1, 0.3), (0.3, 0.6), (0.6, 0.9)], 0.4)
    m.mint(0, 0, 1.0)
    m.mint(0, 2, 0.5)
    agg = m.aggregate_curve()
    G = SumGenerator([BucketCurve(UniswapV2Curve(1.0), a, b, w) for (a, b), w in zip(m.buckets, m.aggregate_weight())])
    for p in [0.15, 0.45, 0.7]:
        q = liability2(agg, p)
        res = conjugate_value(G, q)
        assert price2(agg, q) == pytest.approx(res.price[0], abs=1e-12)
        assert conjugate_value(agg, q).cost == pytest.approx(res.cost, abs=1e-12)


def test_cost_continues_affinely_past_the_range():
    crv = BucketCurve(LmsrCurve(1.0), 0.3, 0.7, 1.0)  # no closed-form conjugate
    q = np.array([5.0, 1.0])  # t = 4 lies above every slope of the curve
    assert conjugate_value(crv, q).cost == pytest.approx(q[0] - crv.g(1.0), abs=1e-12)
    with pytest.raises(OutOfRange):
        price2(crv, q)


# ---------------------------------------------------------------------------
# bucket liability columns
# ---------------------------------------------------------------------------


def bucket_oracle(base, a, b, p, w):
    """Score differences of the base maker, clamped to the bucket."""
    pc = min(max(p, a), b)
    if base == "v2":
        q1 = -math.sqrt((1 - pc) / pc) + math.sqrt((1 - b) / b)
        q2 = -math.sqrt(pc / (1 - pc)) + math.sqrt(a / (1 - a))
    elif base == "lmsr":
        q1 = math.log(pc / b)
        q2 = math.log((1 - pc) / (1 - a))
    else:  # brier
        q1 = -((1 - pc) ** 2) + (1 - b) ** 2
        q2 = -(pc ** 2) + a ** 2
    return w * np.array([q1, q2])


@pytest.mark.parametrize("base", ["v2", "lmsr", "brier"])
def test_bucket_liability_matches_oracle(base):
    bases = {"v2": UniswapV2Curve(1.0), "lmsr": LmsrCurve(1.0), "brier": brier_curve(1.0)}
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = float(rng.uniform(0.05, 0.6))
        b = float(rng.uniform(a + 0.1, 0.95))
        w = float(rng.uniform(0.5, 2.0))
        crv = BucketCurve(bases[base], a, b, w)
        for p in (rng.uniform(0.01, a), rng.uniform(a, b), rng.uniform(b, 0.99)):
            got = liability2(crv, float(p))
            assert np.max(np.abs(got - bucket_oracle(base, a, b, float(p), w))) < 1e-9


def test_brier_bucket_equals_restricted_liquidity_pipeline():
    # double-integrating the restricted liquidity profile (exact for constant
    # liquidity) reproduces the bucket construction
    from parmm import PiecewisePolyCurve

    a, b, w = 0.25, 0.65, 1.7
    via_bucket = BucketCurve(brier_curve(1.0), a, b, w)
    via_pipeline = PiecewisePolyCurve.from_liquidity([0, a, b, 1], [[0.0], [2.0 * w], [0.0]])
    for p in np.linspace(0.01, 0.99, 97):
        assert via_bucket.g(p) == pytest.approx(via_pipeline.g(p), abs=1e-12)
        assert via_bucket.dg(p) == pytest.approx(via_pipeline.dg(p), abs=1e-12)


def test_shifted_invariant_inside_bucket():
    # virtual reserves of a bucketed constant-product maker obey
    # (x1 + w sqrt((1-b)/b)) (x2 + w sqrt(a/(1-a))) = w^2 inside the bucket
    rng = np.random.default_rng(22)
    for _ in range(100):
        a = float(rng.uniform(0.1, 0.5))
        b = float(rng.uniform(a + 0.2, 0.9))
        w = float(rng.uniform(0.5, 2.0))
        crv = BucketCurve(UniswapV2Curve(1.0), a, b, w)
        p = float(rng.uniform(a, b))
        x = -liability2(crv, p)
        lhs = (x[0] + w * math.sqrt((1 - b) / b)) * (x[1] + w * math.sqrt(a / (1 - a)))
        assert lhs == pytest.approx(w * w, abs=1e-9)


# ---------------------------------------------------------------------------
# constant-product pool
# ---------------------------------------------------------------------------


def test_v2_price_is_reserve_ratio():
    m = UniswapV2Market([4.0, 1.0])
    assert m.price == pytest.approx(1.0 / 5.0, abs=1e-12)


def test_v2_mint_is_proportional():
    m = UniswapV2Market([4.0, 1.0])
    lp = m.register_lp()
    dep = m.mint(lp, 0.5)
    assert np.allclose(dep, 0.5 / 2.0 * np.array([4.0, 1.0]), atol=1e-9)
    # withdraw round trip
    back = m.mint(lp, 0.0)
    assert np.max(np.abs(dep + back)) < 1e-9


def test_v2_thousand_operations_keep_invariant():
    rng = np.random.default_rng(23)
    m = UniswapV2Market([3.0, 2.0])
    mirror = initialize(UniswapV2Curve(m.alpha), liability=-m.reserves)
    lp = m.register_lp()
    mirror_synced = True
    for k in range(1000):
        op = rng.uniform()
        if op < 0.85:
            r = m.swap(float(rng.uniform(0.01, 0.5)), asset=int(rng.integers(0, 2)))
            m.trade(r)
            if mirror_synced:
                mirror.execute_trade(bundle=r)
                assert np.max(np.abs(mirror.total_liability() + m.reserves)) < 1e-9
                assert abs(float(mirror.price[0]) - m.price) < 1e-9
        else:
            m.mint(lp, float(rng.uniform(0.0, 1.0)))
            mirror_synced = False  # mirror keeps the old alpha
            mirror = initialize(UniswapV2Curve(m.alpha), liability=-m.reserves)
            mirror_synced = True
        target = m.alpha ** 2
        assert abs(m.invariant() - target) < 1e-9 * max(1.0, target)
        x = m.reserves
        assert m.price == pytest.approx(x[1] / (x[0] + x[1]), abs=1e-9)


def test_v2_rejects_bad_trades():
    m = UniswapV2Market([2.0, 2.0])
    with pytest.raises(InvariantViolated):
        m.trade(np.array([0.5, 0.5]))  # leaves the hyperbola
    with pytest.raises(InsufficientReserves):
        m.trade(np.array([2.5, -10.0]))


def test_v2_positive_part_fees_split_by_share():
    m = UniswapV2Market([2.0, 2.0], beta=0.1)
    lp = m.register_lp()
    m.mint(lp, 1.0)  # shares now 2:1
    r = m.swap(0.5, asset=0)
    rec = m.trade(r)
    assert np.allclose(rec.trader_fee, 0.1 * np.maximum(-r, 0.0), atol=1e-12)
    assert np.allclose(rec.lp_fees[0], 2.0 / 3.0 * rec.trader_fee, atol=1e-9)
    assert np.allclose(rec.lp_fees[lp], 1.0 / 3.0 * rec.trader_fee, atol=1e-9)


# ---------------------------------------------------------------------------
# concentrated liquidity
# ---------------------------------------------------------------------------


def _v3():
    return UniswapV3Market([(0.2, 0.4), (0.4, 0.6), (0.6, 0.8)], price=0.5)


def test_v3_mint_deposit_cases():
    # below the bucket: all first asset; above: all second; inside: both
    m = _v3()  # price 0.5
    lp = m.register_lp()
    d_above = m.mint(lp, 0, 1.0)  # bucket [0.2, 0.4] below the price
    assert d_above[0] == pytest.approx(0.0, abs=1e-12)
    assert d_above[1] == pytest.approx(
        math.sqrt(0.4 / 0.6) - math.sqrt(0.2 / 0.8), abs=1e-9
    )
    d_below = m.mint(lp, 2, 1.0)  # bucket [0.6, 0.8] above the price
    assert d_below[1] == pytest.approx(0.0, abs=1e-12)
    assert d_below[0] == pytest.approx(
        math.sqrt(0.4 / 0.6) - math.sqrt(0.2 / 0.8), abs=1e-9
    )
    d_in = m.mint(lp, 1, 1.0)  # active bucket [0.4, 0.6], price 0.5
    want = 1.0 - math.sqrt(0.4 / 0.6)  # both legs, by symmetry of the bucket
    assert d_in[0] == pytest.approx(want, abs=1e-9)
    assert d_in[1] == pytest.approx(want, abs=1e-9)
    assert np.all(d_in > 0)


def test_v3_in_bucket_trades_keep_shifted_invariant():
    m = _v3()
    rng = np.random.default_rng(25)
    q = m.state.total_liability()
    for target in rng.uniform(0.41, 0.59, size=25):
        r = liability2(m.aggregate_curve(), float(target)) - m.state.total_liability()
        m.trade(r)
        assert m.price == pytest.approx(float(target), abs=1e-9)
        assert abs(m.shifted_invariant_gap(1, m.price)) < 1e-9


def test_v3_cross_bucket_trade_and_fees():
    m = UniswapV3Market([(0.2, 0.4), (0.4, 0.6), (0.6, 0.8)], price=0.5, beta=0.1)
    lp = m.register_lp()
    m.mint(lp, 2, 2.0)
    r = liability2(m.aggregate_curve(), 0.7) - m.state.total_liability()
    rec = m.trade(r)
    assert m.price == pytest.approx(0.7, abs=1e-9)
    # crossed buckets 1 and 2: founder weight 1, lp weight 2
    assert np.allclose(rec.lp_fees[0], rec.trader_fee / 3.0, atol=1e-12)
    assert np.allclose(rec.lp_fees[lp], 2.0 * rec.trader_fee / 3.0, atol=1e-12)


def test_v3_empty_bucket_rejected():
    m = UniswapV3Market([(0.1, 0.3), (0.3, 0.5), (0.5, 0.7)], price=0.2)
    lp = m.register_lp()
    m.mint(lp, 2, 1.0)  # middle bucket left empty
    r = liability2(m.aggregate_curve(), 0.6) - m.state.total_liability()
    with pytest.raises(EmptyBucket):
        m.trade(r)


def test_v3_trade_onto_the_empty_bucket_level_stops_at_its_left_edge():
    # the aggregate slope is flat across the empty middle bucket; a state on
    # that level is priced at the flat's left end, inside the bucket below,
    # by price2 (no hint) and by the engine's trade (hinted at the old price)
    m = UniswapV3Market([(0.1, 0.3), (0.3, 0.5), (0.5, 0.7)], price=0.2)
    lp = m.register_lp()
    m.mint(lp, 2, 1.0)
    agg = m.aggregate_curve()
    q_gap = liability2(agg, 0.4)
    assert price2(agg, q_gap) == pytest.approx(0.3, abs=1e-12)
    assert price2(agg, q_gap) == price2(agg, liability2(agg, 0.45))
    m.trade(q_gap - m.state.total_liability())
    assert m.price == pytest.approx(0.3, abs=1e-12)
    # the mirror pool opens above the gap: the same level crosses the empty
    # bucket on its way down to the flat's left end
    m = UniswapV3Market([(0.1, 0.3), (0.3, 0.5), (0.5, 0.7)], price=0.6)
    m.mint(m.register_lp(), 0, 1.0)
    with pytest.raises(EmptyBucket, match="bucket 1"):
        m.trade(q_gap - m.state.total_liability())


def _tiled_pool(seed, buckets=20, lps=3, beta=0.01):
    rng = np.random.default_rng(seed)
    edges = np.linspace(0.05, 0.95, buckets + 1)
    m = UniswapV3Market(list(zip(edges[:-1], edges[1:])), price=0.5, beta=beta)
    for _ in range(lps - 1):
        m.register_lp()
    for j in range(buckets):
        m.mint(int(rng.integers(lps)), j, float(rng.uniform(0.5, 2.0)))
    return m, rng


def _to_price(m, target):
    p = np.array([target, 1.0 - target])
    held = m.state.total_liability()
    return np.sum([liability_of(rec.generator, p) for rec in m.state.records], axis=0) - held


def test_v3_fees_over_the_crossed_slice_match_the_index_list_bit_for_bit():
    # the benchmark's B = 400 pool; each swap lands inside a bucket 0 to 39
    # buckets away from the one the price starts in, toward the middle
    pool = v3_pool(3)
    rng = np.random.default_rng(47)
    spans = []
    for span in rng.permutation(np.repeat(np.arange(1, 41), 2)).tolist():
        j = pool.locate(pool.price)
        a, b = pool.buckets[j + (span - 1 if pool.price < 0.5 else 1 - span)]
        W = pool.aggregate_weight()
        weights = {lp: w.copy() for lp, w in pool.weights.items()}
        rec = pool.trade(_to_price(pool, a + (b - a) * rng.uniform(0.2, 0.8)))
        lo, hi = sorted(pool.locate(float(p[0])) for p in (rec.price_before, rec.price_after))
        crossed = list(range(lo, hi + 1))
        denom = float(W[crossed].sum())
        want = {lp: float(w[crossed].sum()) / denom * rec.trader_fee for lp, w in weights.items()}
        assert rec.lp_fees.keys() == want.keys()
        assert all(rec.lp_fees[lp].tobytes() == want[lp].tobytes() for lp in want)
        spans.append(len(crossed))
    assert sorted(set(spans)) == list(range(1, 41))


def test_v3_empty_bucket_error_names_the_first_empty_bucket():
    for start, target in ((0.13, 0.87), (0.87, 0.13)):
        m = UniswapV3Market([(0.1 * j + 0.05, 0.1 * j + 0.15) for j in range(9)], price=start)
        lp = m.register_lp()
        for j in range(9):
            m.mint(lp, j, 0.0 if j in (3, 5) else 1.0)
        with pytest.raises(EmptyBucket, match="bucket 3 holds"):
            m.trade(_to_price(m, target))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_v3_bucket_checks_see_the_price_the_engine_books(seed, monkeypatch):
    m, rng = _tiled_pool(seed)
    seen = []
    locate = m.locate
    monkeypatch.setattr(m, "locate", lambda p: (seen.append(p), locate(p))[1])
    for target in rng.uniform(0.1, 0.9, size=40):
        before = m.price
        m.trade(_to_price(m, float(target)))
        assert seen[-2:] == [before, m.price]


def test_v3_fees_are_booked_in_the_lp_records():
    m, rng = _tiled_pool(4, beta=0.05)
    paid = np.zeros((3, 2))
    for target in rng.uniform(0.1, 0.9, size=10):
        rec = m.trade(_to_price(m, float(target)))
        assert np.allclose(sum(rec.lp_fees.values()), rec.trader_fee, atol=1e-12)
        for lp, fee in rec.lp_fees.items():
            paid[lp] = paid[lp] + fee
    assert paid.sum() > 0
    for lp, rec in enumerate(m.state.records):
        assert np.array_equal(rec.bundle_fees, paid[lp])
        assert rec.cash_fees == 0.0


def test_v3_swap_past_the_last_bucket_raises_boundary_price():
    # past the top of the only funded bucket the cost depends on q_1 alone,
    # so lowering q_2 keeps the level set and pushes the slope out of range
    m = _v3()
    before = m.state.total_liability()
    r = liability2(m.aggregate_curve(), 0.6) + np.array([0.0, -1.0]) - before
    with pytest.raises(BoundaryPrice):
        m.trade(r)
    assert np.array_equal(m.state.total_liability(), before)


def test_v3_off_level_bundle_is_rejected_before_the_bucket_checks():
    # the slope of this bundle lands in the empty middle bucket, but the
    # cash it adds takes it off the level set, which is checked first
    m = UniswapV3Market([(0.1, 0.3), (0.3, 0.5), (0.5, 0.7)], price=0.2)
    m.mint(m.register_lp(), 2, 1.0)
    before = m.state.total_liability()
    r = liability2(m.aggregate_curve(), 0.6) - before + 1.0
    with pytest.raises(NotLevelSet):
        m.trade(r)
    assert np.array_equal(m.state.total_liability(), before)
    with pytest.raises(UnknownKind, match="shape"):
        m.trade(np.zeros(3))


def test_pools_reject_bad_arguments_with_typed_errors():
    for reserves in ([1.0, -1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(OutOfRange):
            UniswapV2Market(reserves)
    v2 = UniswapV2Market([1.0, 4.0])
    with pytest.raises(OutOfRange):
        v2.mint(v2.register_lp(), -1.0)
    with pytest.raises(UnknownKind):
        v2.mint(5, 1.0)
    for amount, asset in ((0.0, 0), (1.0, 2)):
        with pytest.raises(OutOfRange):
            v2.swap(amount, asset)
    for buckets in ([(0.4, 0.6), (0.2, 0.4)], [(0.2, 0.5), (0.4, 0.6)], [(0.0, 0.5)], [(0.6, 0.4)]):
        with pytest.raises(OutOfRange):
            UniswapV3Market(buckets, price=0.45)
    v3 = _v3()
    with pytest.raises(UnknownKind, match="no LP with id 3"):
        v3.mint(3, 0, 1.0)
    with pytest.raises(OutOfRange):
        v3.mint(0, 0, -1.0)
    with pytest.raises(OutOfRange):
        PiecewiseLinearMarket([0.4, 0.2])
    with pytest.raises(OutOfRange):
        PiecewiseLinearMarket([0.2, 0.4], {0: [1.0]})
    book = PiecewiseLinearMarket([0.2, 0.4], {0: [1.0, 1.0]})
    with pytest.raises(OutOfRange):
        book.modify_liquidity(0, 0, -1.0)


@pytest.mark.parametrize("j", [-1, 3, 1.0, None, True, False])
def test_bucket_and_slot_indices_outside_the_range_are_rejected(j):
    # numpy would read a bool index as a mask over every bucket
    v3 = UniswapV3Market([(0.1, 0.3), (0.3, 0.6), (0.6, 0.9)], 0.4)
    weights, owed = v3.weights[0].copy(), v3.state.total_liability()
    with pytest.raises(OutOfRange):
        v3.mint(0, j, 2.0)
    assert np.array_equal(v3.weights[0], weights)
    assert np.array_equal(v3.state.total_liability(), owed)
    book = PiecewiseLinearMarket([0.2, 0.4, 0.6], {0: [1.0, 2.0, 0.5]})
    with pytest.raises(OutOfRange):
        book.modify_liquidity(0, j, 2.0)
    with pytest.raises(OutOfRange):
        book.modify_liquidity(1, j, 2.0)
    assert list(book.weights) == [0] and list(book.weights[0]) == [1.0, 2.0, 0.5]


def test_the_v3_weights_are_copies_of_the_engine_book():
    pool = v3_pool(1)
    before = pool.weights, pool.aggregate_weight(), pool.state.snapshot()
    weights = pool.weights
    for w in weights.values():
        w[:] = 7.0
    weights[len(weights)] = np.ones(len(pool.buckets))
    pool.aggregate_weight()[:] = 7.0
    after = pool.weights, pool.aggregate_weight(), pool.state.snapshot()
    assert after[0].keys() == before[0].keys()
    assert all(after[0][lp].tobytes() == w.tobytes() for lp, w in before[0].items())
    assert after[1].tobytes() == before[1].tobytes() and after[2] == before[2]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_v3_aggregate_weight_is_the_sum_of_the_lp_weights_bit_for_bit(seed):
    # the engine's solve aggregate sums only the LPs that hold liquidity;
    # the zeros of the others change no bit of the sum
    pool = v3_pool(seed)
    rng = np.random.default_rng(seed)
    lps = len(pool.state.records)
    for _ in range(40):
        weight = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.5, 2.0))
        pool.mint(int(rng.integers(lps)), int(rng.integers(len(pool.buckets))), weight)
    want = np.sum(list(pool.weights.values()), axis=0)
    assert pool.aggregate_curve() is pool.state._solver()
    assert pool.aggregate_weight().tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# piecewise-linear book
# ---------------------------------------------------------------------------


def brute_force_price(grid, alpha, t):
    """Largest feasible slot of the argmax formulation, by direct scan."""
    R = t - float(np.sum(alpha * (np.asarray(grid) - 1.0)))
    best = None
    acc = 0.0
    for j in range(len(grid)):
        if R - acc >= 0:
            best = j
        acc += alpha[j]
    if best is None or R >= float(np.sum(alpha)):
        return None
    return grid[best]


def test_book_price_matches_brute_force_on_1000_states():
    rng = np.random.default_rng(26)
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        grid = np.sort(rng.uniform(0.05, 0.95, size=m))
        while len(np.unique(grid)) < m:
            grid = np.sort(rng.uniform(0.05, 0.95, size=m))
        alpha = rng.uniform(0.0, 2.0, size=m)
        if alpha.sum() <= 0:
            continue
        book = PiecewiseLinearMarket(grid, {0: alpha})
        R = float(rng.uniform(0.0, alpha.sum() * 0.999999))
        t = float(np.sum(alpha * (grid - 1.0))) + R
        book.t = t
        want = brute_force_price(grid, alpha, t)
        assert book.price == want


def test_book_state_is_a_subgradient_of_its_curve():
    # the book is the general maker of its piecewise-linear curve: its state
    # t = q_1 - q_2 lies between the curve's one-sided slopes at its price
    rng = np.random.default_rng(27)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        grid = np.sort(rng.choice(np.arange(1, 100), size=m, replace=False)) / 100.0
        alpha = rng.uniform(0.0, 2.0, size=m) * (rng.uniform(size=m) < 0.8)
        book = PiecewiseLinearMarket(grid, {0: alpha})
        book.modify_liquidity(1, int(rng.integers(m)), float(rng.uniform(0.5, 2.0)))
        book.trade(float(rng.uniform(0.0, 0.999)) * float(book.total_weights().sum()))
        crv, p = book.curve(), book.price
        assert type(crv) is PiecewisePolyCurve
        left, right = crv.dg(np.nextafter(p, 0.0)), crv.dg(np.nextafter(p, 1.0))
        tol = 1e-12 * max(1.0, float(book.total_weights().sum()))
        assert left - tol <= book.t <= right + tol


def test_book_deposit_round_trip_exact():
    book = PiecewiseLinearMarket([0.2, 0.4, 0.6], {0: [1.0, 2.0, 0.5]})
    book.trade(1.5)
    state = (book.t, book.active)
    d1 = book.modify_liquidity(0, 1, 3.5)
    d2 = book.modify_liquidity(0, 1, 2.0)
    assert d1 + d2 == 0.0  # exact, no tolerance
    assert (book.t, book.active) == state


def test_book_fills_are_itemized_per_slot():
    book = PiecewiseLinearMarket([0.2, 0.4, 0.6], {0: [1.0, 2.0, 0.5]})
    fills = book.trade(2.0)
    assert fills == [(0, 1.0, 0.2), (1, 1.0, 0.4)]
    assert book.active[0] == 1 and book.active[1] == pytest.approx(0.5)
    back = book.trade(-0.5)
    assert back == [(1, -0.5, 0.4)]


def test_book_rejects_out_of_range():
    book = PiecewiseLinearMarket([0.5], {0: [1.0]})
    with pytest.raises(OutOfRange):
        book.trade(1.5)
    with pytest.raises(OutOfRange):
        book.trade(-0.5)


def test_book_boundary_state_opens_higher_bucket():
    book = PiecewiseLinearMarket([0.3, 0.7], {0: [1.0, 1.0]})
    book.trade(1.0)  # exactly exhausts the first slot
    j, y = book.active
    assert j == 1 and y == 0.0
    assert book.price == pytest.approx(0.7)
