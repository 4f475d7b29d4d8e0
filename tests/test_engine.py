"""Engine behavior: the two-LP walkthrough, fees, audits, guard rails."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import parmm
import parmm.engine
from bench_pools import n2_market, v3_pool
from parmm import (
    BucketArrayCurve,
    ConstantProductGenerator,
    LmsrCurve,
    LmsrGenerator,
    MarketState,
    NormFee,
    PairConstantProductGenerator,
    PiecewiseLinearMarket,
    PiecewisePolyCurve,
    PositivePartFee,
    ShiftedGenerator,
    SoftBucketCurve,
    SumGenerator,
    TrivialGenerator,
    UniswapV2Curve,
    UniswapV2Market,
    UniswapV3Market,
    audit_budget_balance,
    brier_curve,
    compute_fees,
    generator_from_descriptor,
    initialize,
    liability2,
    piecewise_linear_curve,
    simplex_price,
    tabulated_liquidity_curve,
)
from parmm.errors import (
    BoundaryPrice,
    InvariantViolated,
    LiabilityMismatch,
    NoGradient,
    NotLevelSet,
    NotPseudobarrier,
    OutOfRange,
    ParmmError,
    UnknownKind,
)

SQ2 = math.sqrt(2.0)
SQH = math.sqrt(0.5)


def walkthrough_curves():
    g1 = PiecewisePolyCurve.from_liquidity([0, 0.6, 1], [[5.0], [0.0]])
    g2 = PiecewisePolyCurve.from_liquidity([0, 0.4, 1], [[0.0], [10.0]])
    return g1, g2


def test_two_lp_walkthrough():
    g1, g2 = walkthrough_curves()
    st = initialize(g1, price=[0.2, 0.8], fee=NormFee(0.1, "l1"), strict=False)
    assert np.allclose(st.records[0].liability, [-1.2, -0.1], atol=1e-12)

    r1 = st.execute_trade(target_price=[0.5, 0.5])
    assert np.allclose(r1.bundle, [0.975, -0.525], atol=1e-12)
    assert r1.trader_fee == pytest.approx(0.15)

    lp = st.register_lp()
    deposit = st.modify_liquidity(lp, g2)
    assert np.allclose(deposit, [1.25, 0.45], atol=1e-12)

    r2 = st.execute_trade(target_price=[0.7, 0.3])
    assert np.allclose(r2.bundle, [1.025, -1.475], atol=1e-12)
    assert np.allclose(r2.parts[0], [0.225, -0.275], atol=1e-10)
    assert np.allclose(r2.parts[1], [0.8, -1.2], atol=1e-10)
    assert r2.trader_fee == pytest.approx(0.25)
    assert r2.lp_fees[0] == pytest.approx(0.05)
    assert r2.lp_fees[1] == pytest.approx(0.20)

    assert np.allclose(st.records[0].liability, [0.0, -0.9], atol=1e-10)
    assert np.allclose(st.records[1].liability, [-0.45, -1.65], atol=1e-10)
    assert st.records[0].cash_fees == pytest.approx(0.05 + 0.15)
    assert st.records[1].cash_fees == pytest.approx(0.20)
    st.check_coherent(1e-9)
    assert st.audit_no_liability(0) <= 1e-9
    assert st.audit_no_liability(1) <= 1e-9
    assert np.max(np.abs(audit_budget_balance(st.fee, r2))) < 1e-12


def run_under_python_O(script):
    """Run a script with `python -O`, which strips `assert`, on this parmm."""
    src = str(Path(parmm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # a numpy warning fails here as it fails a test run in-process
    return subprocess.run([sys.executable, "-O", "-W", "error::RuntimeWarning", "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env)


def test_check_coherent_raises_under_python_O():
    # the check must not rely on `assert`, which `python -O` strips
    out = run_under_python_O("""
        import sys
        import numpy as np
        from parmm import LmsrCurve, UniswapV2Curve, initialize
        from parmm.errors import InvariantViolated

        assert False  # stripped under -O
        st = initialize(LmsrCurve(1.0), price=[0.3, 0.7])
        st.modify_liquidity(st.register_lp(), UniswapV2Curve(1.0))
        st.execute_trade(target_price=[0.6, 0.4])
        if st.check_coherent(np.inf) == 0.0:
            sys.exit("trade left no rounding residual to detect")
        try:
            st.check_coherent(0.0)
        except InvariantViolated:
            print("InvariantViolated")
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "InvariantViolated"


def test_modify_liquidity_rejects_outcome_count_under_python_O():
    # a two-outcome curve offered to a three-outcome market is refused
    # before the LP's record changes, also with asserts stripped
    out = run_under_python_O("""
        import numpy as np
        from parmm import LmsrCurve, LmsrGenerator, initialize
        from parmm.errors import UnsupportedFamily

        assert False  # stripped under -O
        st = initialize(LmsrGenerator(1.0, 3), price=np.ones(3) / 3)
        lp = st.register_lp()
        rec = st.records[lp]
        before, owed = rec.generator, rec.liability.copy()
        try:
            st.modify_liquidity(lp, LmsrCurve(1.0))
        except UnsupportedFamily:
            print("UnsupportedFamily", rec.generator is before, np.array_equal(rec.liability, owed))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "UnsupportedFamily True True"


def test_pool_mint_of_an_unregistered_lp_raises_under_python_O():
    # the pool adapters validate without `assert` too
    out = run_under_python_O("""
        from parmm import UniswapV3Market
        from parmm.errors import UnknownKind

        assert False  # stripped under -O
        m = UniswapV3Market([(0.2, 0.4), (0.4, 0.6)], price=0.5)
        try:
            m.mint(1, 0, 1.0)
        except UnknownKind:
            print("UnknownKind", sorted(m.weights), len(m.state.records))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "UnknownKind [0] 1"


def test_pool_indices_are_checked_under_python_O():
    # a bucket or slot index outside range(B) is refused before any change
    out = run_under_python_O("""
        from parmm import PiecewiseLinearMarket, UniswapV3Market
        from parmm.errors import OutOfRange

        assert False  # stripped under -O
        m = UniswapV3Market([(0.2, 0.4), (0.4, 0.6), (0.6, 0.8)], price=0.5)
        book = PiecewiseLinearMarket([0.2, 0.4, 0.6], {0: [1.0, 2.0, 0.5]})
        for j in (-1, 3):
            for call in (lambda: m.mint(0, j, 2.0), lambda: book.modify_liquidity(0, j, 2.0)):
                try:
                    call()
                except OutOfRange:
                    print("OutOfRange", m.weights[0].tolist(), book.weights[0].tolist(), end=" ")
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["OutOfRange", "[0.0,", "1.0,", "0.0]", "[1.0,", "2.0,", "0.5]"] * 4


def test_failed_modify_liquidity_changes_nothing():
    # the liability fails last, after normalization and the aggregate
    # checks; the LP keeps its generator and liability and the market its
    # compiled solve aggregate, which only a successful change drops
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5], strict=False)
    lp = st.register_lp()
    rec = st.records[lp]
    gen, owed = rec.generator, rec.liability.copy()
    steep = PiecewisePolyCurve([0, 1], [[0, -1e308, 1e308]])  # g' overflows
    with pytest.raises(NoGradient):
        st.modify_liquidity(lp, steep)
    assert rec.generator is gen
    assert np.array_equal(rec.liability, owed)
    solver = st._solver()
    with pytest.raises(NoGradient):
        st.modify_liquidity(lp, steep)
    assert st._solver() is solver
    st.modify_liquidity(lp, LmsrCurve(2.0))
    merged = st._solver()
    assert merged is not solver and (type(merged), merged.b) == (LmsrCurve, 3.0)


def test_fee_schemes_reject_bad_parameters():
    with pytest.raises(UnknownKind):
        NormFee(-1.0, "l9")
    with pytest.raises(UnknownKind):
        NormFee(0.1, "l9")
    with pytest.raises(OutOfRange):
        NormFee(-0.1, "l2")
    with pytest.raises(OutOfRange):
        PositivePartFee(-0.1)


def test_trade_and_opening_need_their_arguments():
    with pytest.raises(TypeError):
        initialize(LmsrCurve(1.0))
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    with pytest.raises(TypeError):
        st.execute_trade()


def test_intermediate_book_after_first_trade():
    g1, _ = walkthrough_curves()
    st = initialize(g1, price=[0.2, 0.8], strict=False)
    st.execute_trade(target_price=[0.5, 0.5])
    # maker's book at price 0.5: g = -0.425, g' = 0.4, so (-0.225, -0.625)
    assert np.allclose(st.records[0].liability, [-0.225, -0.625], atol=1e-12)


def test_three_outcome_pair_pools_fee_imbalance():
    # two constant-product pair pools, positive-part fees: the LPs jointly
    # collect more than the trader pays, by beta (0, 1 - sqrt(1/2), 0)
    beta = 1.0
    G1 = PairConstantProductGenerator(3, 0, 1, 1.0)
    G2 = PairConstantProductGenerator(3, 1, 2, 1.0)
    u = np.ones(3) / 3
    st = initialize(G1, price=u, fee=PositivePartFee(beta), strict=False)
    lp = st.register_lp()
    deposit = st.modify_liquidity(lp, G2)
    assert np.allclose(deposit, [0.0, 1.0, 1.0], atol=1e-12)

    s = 3.0 + SQ2
    target = np.array([(1.5 + SQ2) / s, 1.0 / s, 0.5 / s])
    rec = st.execute_trade(target_price=target)
    assert np.allclose(rec.bundle, [SQ2 - 1, 1 - SQ2, 1 - SQ2], atol=1e-9)
    assert np.allclose(rec.parts[0], [SQ2 - 1, -SQH, 0.0], atol=1e-9)
    assert np.allclose(rec.parts[1], [0.0, 1 - SQH, 1 - SQ2], atol=1e-9)
    assert np.allclose(rec.trader_fee, beta * np.array([0.0, SQ2 - 1, SQ2 - 1]), atol=1e-9)
    assert np.allclose(rec.lp_fees[0], beta * np.array([0.0, SQH, 0.0]), atol=1e-9)
    assert np.allclose(rec.lp_fees[1], beta * np.array([0.0, 0.0, SQ2 - 1]), atol=1e-9)
    imbalance = audit_budget_balance(st.fee, rec)
    assert np.allclose(imbalance, beta * np.array([0.0, 1 - SQH, 0.0]), atol=1e-9)
    assert imbalance.min() >= -1e-12  # LPs never collect less than the trader pays


class _Receipt:
    def __init__(self, bundle, trader_fee, fees):
        self.bundle, self.trader_fee, self.fees = bundle, trader_fee, fees


def test_positive_part_fee_arithmetic():
    # pure fee arithmetic on a given split: trader pays on the net short leg,
    # each LP collects on its own short leg
    beta = 1.0
    r = np.array([math.sqrt(1.5) - 1, 0.0, SQH - 1])
    parts = [np.array([0.0, SQ2 - 1, SQH - 1]), np.array([math.sqrt(1.5) - 1, 1 - SQ2, 0.0])]
    trader, lp = compute_fees(PositivePartFee(beta), r, parts)
    assert np.allclose(trader, [0.0, 0.0, 1 - SQH], atol=1e-12)
    assert np.allclose(lp[0], [0.0, 0.0, 1 - SQH], atol=1e-12)
    assert np.allclose(lp[1], [0.0, SQ2 - 1, 0.0], atol=1e-12)
    rec = _Receipt(r, trader, lp)
    imbalance = audit_budget_balance(PositivePartFee(beta), rec)
    assert np.allclose(imbalance, [0.0, SQ2 - 1, 0.0], atol=1e-12)


def test_norm_fee_variants():
    r = np.array([3.0, -4.0])
    parts = [np.array([3.0, -4.0])]
    t1, f1 = compute_fees(NormFee(0.1, "l1"), r, parts)
    t2, f2 = compute_fees(NormFee(0.1, "l2"), r, parts)
    assert t1 == pytest.approx(0.7)
    assert t2 == pytest.approx(0.5)
    assert f1[0] == pytest.approx(t1) and f2[0] == pytest.approx(t2)


def test_norm_fee_budget_balance_always():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.normal(size=3)
        parts = [rng.normal(size=3) for _ in range(3)]
        trader, lp = compute_fees(NormFee(0.2, "l2"), r, parts)
        rec = _Receipt(r, trader, lp)
        assert np.max(np.abs(audit_budget_balance(NormFee(0.2, "l2"), rec))) < 1e-12



def test_norm_fee_l1_shares_match_the_row_norms_exactly():
    # l1 fills take one array op; the per-row norm is the reference
    rng = np.random.default_rng(11)
    fee = NormFee(0.02, "l1")
    for n in (2, 3, 5):
        for _ in range(300):
            parts = list(rng.normal(size=(16, n)) * 10.0 ** rng.uniform(-6, 3, size=(16, 1)))
            trader, shares = compute_fees(fee, np.sum(parts, axis=0), parts)
            norms = np.array([np.linalg.norm(part, 1) for part in parts])
            assert shares.tobytes() == (trader * norms / norms.sum()).tobytes()


def test_target_trade_takes_one_gradient_per_lp(monkeypatch):
    st = initialize(LmsrGenerator(1.0, 2), price=[0.5, 0.5])
    for b in (0.5, 2.0):
        st.modify_liquidity(st.register_lp(), LmsrGenerator(b, 2))
    st.register_lp()  # holds no liquidity and takes no gradient
    calls = []
    grad = LmsrGenerator.grad
    monkeypatch.setattr(LmsrGenerator, "grad", lambda self, x: calls.append(self.b) or grad(self, x))
    receipt = st.execute_trade(target_price=[0.6, 0.4])
    assert sorted(calls) == [0.5, 1.0, 2.0]
    assert np.max(np.abs(sum(receipt.parts.values()) - receipt.bundle)) < 1e-12
    st.check_coherent(1e-12)

def test_positive_part_balanced_for_two_outcomes():
    # with two outcomes the per-LP fills share the sign pattern of the net
    # trade, so positive-part fees balance exactly
    st = initialize(LmsrCurve(1.0), price=[0.4, 0.6], fee=PositivePartFee(0.05))
    lp = st.register_lp()
    st.modify_liquidity(lp, LmsrCurve(2.0))
    rec = st.execute_trade(target_price=[0.7, 0.3])
    assert np.max(np.abs(audit_budget_balance(st.fee, rec))) < 1e-12


def test_strict_mode_requires_pseudobarrier():
    g1, _ = walkthrough_curves()
    with pytest.raises(NotPseudobarrier):
        initialize(g1, price=[0.2, 0.8], strict=True)
    st = initialize(LmsrCurve(1.0), price=[0.2, 0.8], strict=True)
    lp = st.register_lp()
    st.modify_liquidity(lp, g1)  # fine: the LMSR LP keeps the barrier
    with pytest.raises(NotPseudobarrier):
        st.modify_liquidity(0, TrivialGenerator(2))


def test_strict_mode_reads_the_barrier_of_a_sum_and_of_a_shifted_generator():
    # a sum is a pseudobarrier when one of its terms is, a shifted generator
    # when its inner one is
    flat, barrier = brier_curve(1.0), LmsrCurve(1.0)
    for G in (SumGenerator([flat, brier_curve(2.0)]), ShiftedGenerator(flat, [0.1, -0.1])):
        with pytest.raises(NotPseudobarrier):
            initialize(G, price=[0.4, 0.6], strict=True)
        st = initialize(barrier, price=[0.4, 0.6], strict=True)
        before = st.snapshot()
        with pytest.raises(NotPseudobarrier):
            st.modify_liquidity(0, G)
        assert st.snapshot() == before
    for G in (SumGenerator([flat, barrier]), ShiftedGenerator(barrier, [0.1, -0.1])):
        assert initialize(G, price=[0.4, 0.6], strict=True).price.tolist() == pytest.approx([0.4, 0.6])


def test_initialize_rejects_off_level_set():
    with pytest.raises(LiabilityMismatch):
        initialize(LmsrGenerator(1.0, 3), liability=np.array([1.0, 0.0, 0.0]))


def test_initialize_accepts_coherent_liability():
    G = LmsrGenerator(1.0, 3)
    p = np.array([0.5, 0.3, 0.2])
    st = initialize(G, liability=np.log(p))
    assert np.max(np.abs(st.price - p)) < 1e-9


def test_reposting_the_opening_generator_deposits_nothing():
    # the opening generator is normalized as a modified one is, so the same
    # curve posted again is the same maker at the same price
    curve = PiecewisePolyCurve([0, 1], [[1.0, -4.0, 4.0]])
    st = initialize(curve, price=[0.3, 0.7], strict=False)
    assert st.modify_liquidity(0, curve).tolist() == [0.0, 0.0]


@pytest.mark.xfail(strict=True, raises=InvariantViolated, reason=(
    "ROADMAP item 15: spread_residual spreads the O(1) residual of a trade ending on a kink "
    "equally over every LP, so the LPs leave their level sets"))
def test_a_bundle_trade_ending_on_a_kink_leaves_every_lp_coherent():
    st = MarketState(LmsrCurve(0.01), price=[0.3, 0.7], strict=False)
    for w in ([1, 0], [0, 1]):
        st.modify_liquidity(st.register_lp(), piecewise_linear_curve([0.2, 0.4], w))
    full, _ = st.quote_completion([0.3, 0.0])
    st.execute_trade(bundle=full)
    assert st.price[0] == pytest.approx(0.4)  # on the kink both books share
    st.check_coherent()


def test_execute_rejects_off_level_set_bundle():
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    with pytest.raises(NotLevelSet):
        st.execute_trade(bundle=np.array([1.0, 1.0]))  # pure cash gift


def test_quote_completion():
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    partial = np.array([0.4, 0.0])
    full, cash = st.quote_completion(partial)
    assert np.allclose(full, partial + cash)
    rec = st.execute_trade(bundle=full)  # must now be level-set valid
    assert rec is not None
    # the completed trade charges the LMSR cost of the partial bundle
    assert -cash == pytest.approx(math.log(0.5 * (1 + math.exp(0.4))), abs=1e-9)


def test_modify_liquidity_normalizes_incoming_generator():
    from parmm import ShiftedGenerator

    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    lp = st.register_lp()
    skewed = ShiftedGenerator(LmsrGenerator(1.0, 2), np.array([0.3, -0.2]))
    st.modify_liquidity(lp, skewed)
    # stored generator has zero vertex values again
    assert np.max(np.abs(st.records[lp].generator.vertex_values())) < 1e-12


def test_withdraw_round_trip():
    st = initialize(LmsrCurve(1.0), price=[0.3, 0.7])
    lp = st.register_lp()
    d1 = st.modify_liquidity(lp, LmsrCurve(1.5))
    d2 = st.modify_liquidity(lp, TrivialGenerator(2))
    assert np.max(np.abs(d1 + d2)) < 1e-12


@pytest.mark.parametrize("fee", [NormFee(0.02, "l1"), PositivePartFee(0.05)], ids=["cash", "bundle"])
def test_an_lp_field_read_before_an_operation_keeps_its_value(fee):
    # every operation replaces the book's arrays instead of writing into them
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5], fee=fee)
    lp = st.register_lp()
    st.modify_liquidity(lp, UniswapV2Curve(0.8))
    operations = [
        lambda: st.execute_trade(target_price=[0.6, 0.4]),
        lambda: st.execute_trade(bundle=st.quote_completion([0.1, 0.0])[0]),
        lambda: st.modify_liquidity(lp, LmsrCurve(0.5)),
        st.register_lp,
    ]
    for op in operations:
        read = [(rec.generator, rec.liability, rec.cash_fees, rec.bundle_fees) for rec in st.records]
        kept = [(G, q.tobytes(), cash, fees.tobytes()) for G, q, cash, fees in read]
        before = st.snapshot()
        op()
        assert st.snapshot() != before
        assert [(G, q.tobytes(), cash, fees.tobytes()) for G, q, cash, fees in read] == kept
        assert all(type(rec.cash_fees) is float for rec in st.records)


@pytest.mark.parametrize("fee", [NormFee(0.02, "l1"), PositivePartFee(0.05)], ids=["cash", "bundle"])
def test_writing_into_a_record_leaves_the_market_as_it_was(fee):
    # a record is a value copied from the book, and holds no reference to it
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5], fee=fee)
    st.modify_liquidity(st.register_lp(), UniswapV2Curve(0.8))
    st.execute_trade(target_price=[0.6, 0.4])
    before = st.snapshot()
    st.records[0].liability[0] += 1.0
    st.records[1].bundle_fees[:] = 7.0
    assert st.snapshot() == before
    assert st.check_coherent(1e-12) <= 1e-12
    rec = st.records[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.cash_fees = 7.0
    assert not any(isinstance(getattr(rec, f.name), MarketState) for f in dataclasses.fields(rec))


def test_an_lp_record_shows_its_fields():
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5], fee=NormFee(0.1, "l1"))
    st.execute_trade(target_price=[0.6, 0.4])
    rec = st.records[0]
    assert repr(rec) == (
        f"LpRecord(lp_id=0, generator={rec.generator!r}, liability={rec.liability!r}, "
        f"cash_fees={rec.cash_fees!r}, bundle_fees={rec.bundle_fees!r})"
    )
    assert repr(rec.cash_fees) in repr(rec) and "array([0., 0.])" in repr(rec)


@pytest.mark.parametrize("fee", [NormFee(0.02, "l1"), PositivePartFee(0.05)], ids=["cash", "bundle"])
def test_lp_records_compare_by_value(fee):
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5], fee=fee)
    st.modify_liquidity(st.register_lp(), UniswapV2Curve(0.8))
    st.execute_trade(target_price=[0.6, 0.4])
    assert (st.records == st.records) is True
    rec = st.records[1]
    changed = dataclasses.replace(rec, liability=rec.liability.copy())
    assert (rec == changed) is True
    changed.liability[0] += 1.0
    assert (rec == changed) is False and rec != changed
    assert (rec == dataclasses.replace(rec, generator=UniswapV2Curve(0.8))) is False
    assert (st.records[0] == rec) is False


def test_trade_and_inverse_trade_restore_books():
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    lp = st.register_lp()
    st.modify_liquidity(lp, LmsrCurve(0.7))
    before = [rec.liability.copy() for rec in st.records]
    r = st.execute_trade(target_price=[0.8, 0.2])
    st.execute_trade(bundle=-r.bundle)
    for old, rec in zip(before, st.records):
        assert np.max(np.abs(old - rec.liability)) < 1e-9
    assert np.max(np.abs(st.price - [0.5, 0.5])) < 1e-9


def _books(st):
    return (
        st.price.copy(),
        [(rec.liability.copy(), rec.cash_fees, rec.bundle_fees.copy()) for rec in st.records],
    )


def _assert_books_equal(a, b):
    assert np.array_equal(a[0], b[0])
    for (q1, c1, f1), (q2, c2, f2) in zip(a[1], b[1]):
        assert np.array_equal(q1, q2) and c1 == c2 and np.array_equal(f1, f2)


@pytest.mark.parametrize("fee", [NormFee(0.1, "l1"), PositivePartFee(0.05)], ids=["norm", "positive-part"])
def test_price_trade_books_nothing_and_returns_the_executed_receipt(fee):
    st = initialize(LmsrCurve(1.0), price=[0.3, 0.7], fee=fee)
    st.modify_liquidity(st.register_lp(), PiecewisePolyCurve.from_liquidity([0, 0.4, 1], [[0.0], [10.0]]))
    st.register_lp()  # an LP without liquidity still gets a zero fill
    bundle = st.price_trade(target_price=[0.6, 0.4]).bundle
    for kwargs in ({"target_price": [0.6, 0.4]}, {"bundle": bundle}):
        before = _books(st)
        quoted = st.price_trade(**kwargs)
        _assert_books_equal(_books(st), before)
        booked = st.execute_trade(**kwargs)
        for name in ("bundle", "price_before", "price_after", "trader_fee"):
            assert np.array_equal(getattr(quoted, name), getattr(booked, name)), name
        for field in ("parts", "lp_fees"):
            got, want = getattr(quoted, field), getattr(booked, field)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want), field
        assert np.array_equal(st.price, booked.price_after)
        assert st.price is not booked.price_after
        st.execute_trade(target_price=[0.3, 0.7])


def test_a_call_given_both_or_neither_of_its_two_inputs_is_refused():
    # a second input was once ignored without a word
    G = LmsrCurve(1.0)
    q = initialize(G, price=[0.5, 0.5]).records[0].liability
    for kwargs in ({"liability": q, "price": [0.4, 0.6]}, {}):
        with pytest.raises(TypeError, match="a liability or a price, one of the two"):
            initialize(G, **kwargs)
    st = initialize(G, price=[0.5, 0.5], fee=NormFee(0.1, "l1"))
    bundle = st.price_trade(target_price=[0.6, 0.4]).bundle
    before = st.snapshot()
    for call in (st.price_trade, st.execute_trade):
        for kwargs in ({"bundle": bundle, "target_price": [0.3, 0.7]}, {}):
            with pytest.raises(TypeError, match="a bundle or a target_price, one of the two"):
                call(**kwargs)
    assert st.snapshot() == before


@pytest.mark.parametrize("lp_id", [-1, 2, 7])
def test_unknown_lp_ids_are_rejected_before_any_change(lp_id):
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    st.modify_liquidity(st.register_lp(), LmsrCurve(2.0))
    gens = [rec.generator for rec in st.records]
    before = _books(st)
    with pytest.raises(UnknownKind, match=f"no LP with id {lp_id}"):
        st.modify_liquidity(lp_id, LmsrCurve(3.0))
    with pytest.raises(UnknownKind, match=f"no LP with id {lp_id}"):
        st.audit_no_liability(lp_id)
    assert [rec.generator for rec in st.records] == gens
    _assert_books_equal(_books(st), before)


@pytest.mark.parametrize("grid", [0, -3, 2.5, True, "7"])
def test_audit_grid_must_be_a_positive_integer(grid):
    # grid 0 audited no price and returned -inf, which reads as no liability
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    with pytest.raises(UnknownKind, match="grid must be a positive integer"):
        st.audit_no_liability(0, grid)
    assert st.audit_no_liability(0, np.int64(1)) == st.audit_no_liability(0, 1) <= 1e-9


def test_trade_inputs_of_the_wrong_shape_are_rejected():
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    before = _books(st)
    for kwargs in (
        {"target_price": [0.2, 0.3, 0.5]},
        {"bundle": [0.1, 0.2, 0.3]},
        {"bundle": 0.1},
        {"target_price": [[0.5, 0.5]]},
    ):
        with pytest.raises(UnknownKind, match="shape"):
            st.execute_trade(**kwargs)
        with pytest.raises(UnknownKind, match="shape"):
            st.price_trade(**kwargs)
    _assert_books_equal(_books(st), before)


def _two_lmsrs():
    st = initialize(LmsrCurve(1.0), price=[0.4, 0.6], fee=NormFee(0.1))
    st.modify_liquidity(st.register_lp(), LmsrCurve(2.0))
    return st


def _v2_pool():
    pool = UniswapV2Market([4.0, 9.0], beta=0.01)
    pool.mint(pool.register_lp(), 2.0)
    return pool


def _v3_pool():
    pool = UniswapV3Market([(0.1, 0.3), (0.3, 0.6), (0.6, 0.9)], 0.4, beta=0.01)
    pool.mint(pool.register_lp(), 2, 1.5)
    return pool


def _book():
    book = PiecewiseLinearMarket([0.2, 0.4], {0: [1.0, 1.0], 1: [0.5, 0.5]})
    book.trade(0.5)
    return book


def _lenient():
    """A lenient market whose one funded LP is LP 0."""
    st = initialize(LmsrCurve(1.0), price=[0.4, 0.6], strict=False)
    st.register_lp()
    return st


def _view(m):
    """What a rejected operation must leave as it was: the engine's snapshot
    and, for a pool, its reserves and each LP's liquidity; a book's state,
    fill and weights."""
    if isinstance(m, MarketState):
        return m.snapshot()
    if isinstance(m, PiecewiseLinearMarket):
        return m.t, m.active, {lp: w.tolist() for lp, w in m.weights.items()}
    held = m.alpha if isinstance(m, UniswapV2Market) else {lp: w.tolist() for lp, w in m.weights.items()}
    return m.state.snapshot(), m.reserves.tolist(), held


# every market holds LPs 0 and 1, so 2 is len(records); True would pick
# LP 1, and 1.5 would index the record list
_BAD_LPS = [True, 1.5, -1, 2]
_BAD_BUNDLES = [([0.1], UnknownKind), (0.1, UnknownKind), ([0.1, 0.1, 0.1], UnknownKind),
                ([np.nan, 0.1], OutOfRange), ([np.inf, -0.1], OutOfRange)]
_BAD_AMOUNTS = [-1.0, math.nan, math.inf]
# scalar arguments that are not numbers: a bool is not one, nor is an
# integer no float holds
_NOT_NUMBERS = ["x", None, True, 2 ** 1024, np.array([0.1, 0.2])]
# one table of bad prices, run at every entry point that takes a price: each
# fault raises one error type everywhere.  A number t is the price (t, 1 - t);
# a price of None means no price was given, so only the number-only entry
# points below read None as a bad price
_BAD_NUMBER_PRICES = [("str", "x", UnknownKind), ("bool", True, UnknownKind), ("nan", math.nan, OutOfRange),
                      ("clamp", 1e-10, BoundaryPrice)]
_BAD_PRICES = [*_BAD_NUMBER_PRICES, ("entry-str", ["x", 0.5], UnknownKind), ("entry-None", [None, 0.5], UnknownKind),
               ("entry-bool", [True, 0.5], UnknownKind), ("short", [1.0], UnknownKind),
               ("2d", [[0.5, 0.5]], UnknownKind), ("long", [0.2, 0.3, 0.5], UnknownKind),
               ("sum", [0.5, 0.6], OutOfRange), ("entry-nan", [math.nan, 0.5], OutOfRange),
               ("entry-clamp", [0.0, 1.0], BoundaryPrice)]
_REJECTIONS = [
    *[pytest.param(_two_lmsrs, lambda st, x=x, call=call: call(st, x), error, id=f"{name}-bad-price-{label}")
      for label, x, error in _BAD_PRICES for name, call in (
          ("simplex_price", lambda st, x: simplex_price(x, 2)),
          ("initialize", lambda st, x: initialize(LmsrCurve(1.0), price=x)),
          ("price_trade", lambda st, x: st.price_trade(target_price=x)),
          ("execute_trade", lambda st, x: st.execute_trade(target_price=x)),
      )],
    # liability2 and the v3 pool take a number, so a vector is a wrong kind;
    # the v3 pool's one bucket reaches the clamp
    *[pytest.param(market, lambda m, x=x, call=call: call(m, x), error, id=f"{name}-bad-price-{label}")
      for label, x, error in [*_BAD_NUMBER_PRICES, ("None", None, UnknownKind), ("list", [0.3, 0.7], UnknownKind)]
      for market, name, call in (
          (_two_lmsrs, "liability2", lambda st, x: liability2(LmsrCurve(1.0), x)),
          (_v3_pool, "v3", lambda m, x: UniswapV3Market([(1e-12, 1.0 - 1e-12)], x)),
      )],
    *[pytest.param(_two_lmsrs, lambda st, lp=lp: st.modify_liquidity(lp, LmsrCurve(3.0)), UnknownKind,
                   id=f"modify_liquidity-lp-{lp}") for lp in _BAD_LPS],
    *[pytest.param(_v2_pool, lambda m, lp=lp: m.mint(lp, 1.0), UnknownKind, id=f"v2-mint-lp-{lp}") for lp in _BAD_LPS],
    *[pytest.param(_v3_pool, lambda m, lp=lp: m.mint(lp, 0, 1.0), UnknownKind, id=f"v3-mint-lp-{lp}") for lp in _BAD_LPS],
    # numpy would read a bool bucket index as a mask over every bucket
    *[pytest.param(_v3_pool, lambda m, j=j: m.mint(1, j, 2.0), OutOfRange, id=f"v3-mint-bucket-{j}") for j in (True, False)],
    *[pytest.param(_two_lmsrs, lambda st, b=b: st.quote_completion(b), error, id=f"quote_completion-{b}")
      for b, error in _BAD_BUNDLES],
    *[pytest.param(_two_lmsrs, lambda st, b=b: st.price_trade(bundle=b), error, id=f"price_trade-{b}")
      for b, error in _BAD_BUNDLES],
    *[pytest.param(_two_lmsrs, lambda st, b=b: st.execute_trade(bundle=b), error, id=f"execute_trade-{b}")
      for b, error in _BAD_BUNDLES],
    *[pytest.param(_v3_pool, lambda m, b=b: m.trade(b), error, id=f"v3-trade-{b}") for b, error in _BAD_BUNDLES],
    pytest.param(_two_lmsrs, lambda st: initialize(LmsrCurve(1.0), liability=[0.0]), UnknownKind,
                 id="initialize-short-liability"),
    # rates and amounts are finite and nonnegative: an infinite weight used to
    # reach numpy (a RuntimeWarning) before the engine refused it
    *[pytest.param(_v2_pool, lambda m, x=x: m.mint(1, x), OutOfRange, id=f"v2-mint-alpha-{x}") for x in _BAD_AMOUNTS],
    *[pytest.param(_v3_pool, lambda m, x=x: m.mint(1, 0, x), OutOfRange, id=f"v3-mint-weight-{x}")
      for x in _BAD_AMOUNTS],
    *[pytest.param(_v2_pool, lambda m, x=x: UniswapV2Market([4.0, 9.0], beta=x), OutOfRange, id=f"v2-beta-{x}")
      for x in _BAD_AMOUNTS],
    *[pytest.param(_v3_pool, lambda m, x=x: UniswapV3Market([(0.1, 0.9)], 0.5, beta=x), OutOfRange,
                   id=f"v3-beta-{x}") for x in _BAD_AMOUNTS],
    *[pytest.param(_two_lmsrs, lambda st, x=x, fee=fee: fee(x), OutOfRange, id=f"{fee.__name__}-{x}")
      for x in _BAD_AMOUNTS for fee in (NormFee, PositivePartFee)],
    *[pytest.param(market, call, UnknownKind, id=f"{name}-{type(x).__name__}") for x in _NOT_NUMBERS
      for market, name, call in (
          (_two_lmsrs, "NormFee", lambda st, x=x: NormFee(x)),
          (_two_lmsrs, "PositivePartFee", lambda st, x=x: PositivePartFee(x)),
          (_v2_pool, "v2-beta", lambda m, x=x: UniswapV2Market([4.0, 9.0], beta=x)),
          (_v2_pool, "v2-mint", lambda m, x=x: m.mint(1, x)),
          (_v2_pool, "v2-swap", lambda m, x=x: m.swap(x)),
          (_v3_pool, "v3-beta", lambda m, x=x: UniswapV3Market([(0.1, 0.9)], 0.5, beta=x)),
          (_v3_pool, "v3-price", lambda m, x=x: UniswapV3Market([(0.1, 0.9)], x)),
          (_v3_pool, "v3-mint", lambda m, x=x: m.mint(1, 0, x)),
          (_book, "book-modify", lambda m, x=x: m.modify_liquidity(1, 0, x)),
          (_book, "book-trade", lambda m, x=x: m.trade(x)),
      )],
    *[pytest.param(_v2_pool, lambda m, b=b: m.trade(b), error, id=f"v2-trade-{b}") for b, error in _BAD_BUNDLES],
    # vector arguments that hold what is not a number, or have the wrong shape
    *[pytest.param(market, call, UnknownKind, id=name) for market, name, call in (
        (_v2_pool, "v2-reserves-str", lambda m: UniswapV2Market(["x", 1.0])),
        (_v2_pool, "v2-trade-str", lambda m: m.trade(["x", 1.0])),
        (_v3_pool, "v3-buckets-str", lambda m: UniswapV3Market([(0.1, "x")], 0.5)),
        (_v3_pool, "v3-buckets-triple", lambda m: UniswapV3Market([(0.1, 0.2, 0.3)], 0.15)),
        (_book, "book-grid-str", lambda m: PiecewiseLinearMarket(["x", 0.4])),
        (_book, "book-grid-2d", lambda m: PiecewiseLinearMarket([[0.2, 0.4]])),
        (_book, "book-weights-str", lambda m: PiecewiseLinearMarket([0.2, 0.4], {0: ["x", 1.0]})),
    )],
    # bucket -1 read the last bucket, 5 and True failed in numpy
    *[pytest.param(_v3_pool, lambda m, j=j: m.shifted_invariant_gap(j, 0.4), OutOfRange, id=f"v3-gap-bucket-{j}")
      for j in (-1, 5, True)],
    pytest.param(_v3_pool, lambda m: m.shifted_invariant_gap(1, "x"), UnknownKind, id="v3-gap-price-str"),
    pytest.param(_two_lmsrs, lambda st: liability2(LmsrCurve(1.0), "x"), UnknownKind, id="liability2-price-str"),
    # a wrong shape is a kind error; a reserve or weight out of range is not
    pytest.param(_v2_pool, lambda m: UniswapV2Market([[4.0, 9.0]]), UnknownKind, id="v2-reserves-2d"),
    pytest.param(_book, lambda m: PiecewiseLinearMarket([0.2, 0.4], {0: [1.0]}), UnknownKind, id="book-weights-short"),
    pytest.param(_v2_pool, lambda m: UniswapV2Market([4.0, 0.0]), OutOfRange, id="v2-reserves-zero"),
    pytest.param(_book, lambda m: PiecewiseLinearMarket([0.2, 0.4], {0: [-1.0, 1.0]}), OutOfRange,
                 id="book-weights-negative"),
    # a trade that is not finite lands outside the book
    *[pytest.param(_book, lambda m, x=x: m.trade(x), OutOfRange, id=f"book-trade-{x}")
      for x in (math.nan, math.inf, -math.inf)],
    # every entry of a vector is a number: a bool is not, nor is a numeric string
    *[pytest.param(market, call, UnknownKind, id=f"{name}-entry-{type(x).__name__}") for x in (True, "0.5")
      for market, name, call in (
          (_two_lmsrs, "price_trade-bundle", lambda st, x=x: st.price_trade(bundle=[x, -0.1])),
          (_two_lmsrs, "price_trade-target", lambda st, x=x: st.price_trade(target_price=[x, 0.5])),
          (_two_lmsrs, "quote_completion", lambda st, x=x: st.quote_completion([x, 0.1])),
          (_two_lmsrs, "initialize-liability", lambda st, x=x: initialize(LmsrCurve(1.0), liability=[x, -1.0])),
          (_v2_pool, "v2-reserves", lambda m, x=x: UniswapV2Market([x, x])),
          (_v2_pool, "v2-trade", lambda m, x=x: m.trade([x, -0.1])),
          (_v3_pool, "v3-buckets", lambda m, x=x: UniswapV3Market([(0.1, x)], 0.3)),
          (_book, "book-grid", lambda m, x=x: PiecewiseLinearMarket([0.2, x])),
          (_book, "book-weights", lambda m, x=x: PiecewiseLinearMarket([0.2, 0.4], {0: [x, x]})),
      )],
    # scalar generator parameters are numbers too
    *[pytest.param(_two_lmsrs, call, UnknownKind, id=name) for name, call in (
        ("LmsrCurve-bool", lambda st: LmsrCurve(True)),
        ("LmsrCurve-str", lambda st: LmsrCurve("x")),
        ("UniswapV2Curve-bool", lambda st: UniswapV2Curve(True)),
        ("brier_curve-str", lambda st: brier_curve("x")),
    )],
    # so are the vector fields of the generator families, built directly or
    # from a descriptor
    *[pytest.param(_two_lmsrs, call, UnknownKind, id=name) for name, call in (
        ("soft_bucket-knots", lambda st: SoftBucketCurve([0, "0.5", 1], [1, 1, 1])),
        ("soft_bucket-weights", lambda st: SoftBucketCurve([0, 0.5, 1], [1, "1", 1])),
        ("piecewise_poly-breakpoints", lambda st: PiecewisePolyCurve(["0", 1], [[0.0, -1.0, 1.0]])),
        ("piecewise_poly-coefficients", lambda st: PiecewisePolyCurve([0, 1], [[0.0, "-1", 1.0]])),
        ("bucket_array-weights", lambda st: BucketArrayCurve(UniswapV2Curve(1.0), [(0.1, 0.3)], ["1"])),
        ("bucket_array-buckets", lambda st: BucketArrayCurve(UniswapV2Curve(1.0), [("0.1", 0.3)], [1.0])),
        ("shifted-shift", lambda st: ShiftedGenerator(LmsrCurve(1.0), ["0", 0])),
        ("piecewise_linear-weights", lambda st: piecewise_linear_curve([0.5], ["1"])),
        ("tabulated_liquidity-grid", lambda st: tabulated_liquidity_curve(["0", 1], [1, 1])),
    )],
    *[pytest.param(_two_lmsrs, lambda st, d=d: generator_from_descriptor(d, 2), UnknownKind, id=f"descriptor-{name}")
      for name, d in (
          ("soft_bucket-knots", {"family": "soft_bucket", "knots": [0, "0.5", 1], "weights": [1, 1, 1]}),
          ("piecewise_poly-breakpoints", {"family": "piecewise_poly", "breakpoints": ["0", 1],
                                          "coefficients": [[0.0, -1.0, 1.0]]}),
          ("bucket_array-weights", {"family": "bucket_array", "base": {"family": "uniswap_v2", "alpha": 1.0},
                                    "buckets": [[0.1, 0.3]], "weights": ["1"]}),
          ("shifted-shift", {"family": "shifted", "inner": {"family": "lmsr", "b": 1.0}, "shift": ["0", 0]}),
          ("piecewise_linear-weights", {"family": "piecewise_linear", "grid": [0.5], "weights": ["1"]}),
          ("tabulated_liquidity-grid", {"family": "tabulated_liquidity", "grid": ["0", 1], "values": [1, 1]}),
      )],
    # a market with no liquidity has no level set to price on
    pytest.param(_two_lmsrs, lambda st: initialize(TrivialGenerator(2), price=[0.5, 0.5], strict=False), NotLevelSet,
                 id="initialize-trivial"),
    pytest.param(_lenient, lambda st: st.modify_liquidity(0, TrivialGenerator(2)), NotLevelSet,
                 id="modify-last-funded-lp-to-trivial"),
]


@pytest.mark.parametrize(("market", "call", "error"), _REJECTIONS)
def test_a_rejected_operation_raises_a_typed_error_and_changes_nothing(market, call, error):
    m = market()
    lps = m.weights if isinstance(m, PiecewiseLinearMarket) else (m if isinstance(m, MarketState) else m.state).records
    assert len(lps) == 2
    before = _view(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(m)
    assert issubclass(error, ParmmError) and _view(m) == before


@pytest.mark.parametrize("x", [np.float64(4.0), np.float32(4.0), np.int64(4), 2 ** 70], ids=repr)
def test_a_vector_entry_may_be_any_number_a_float_holds(x):
    # numpy's scalars are numbers, and so is an integer beyond int64, which
    # numpy holds in an object array
    pool = UniswapV2Market([x, x])
    assert pool.reserves.tolist() == [float(x), float(x)] and pool.price == 0.5
    book = PiecewiseLinearMarket([0.2, 0.4], {0: [x, 1.0]})
    assert book.weights[0].tolist() == [float(x), 1.0]
    st = initialize(LmsrCurve(1.0), price=[0.5, 0.5])
    assert st.price_trade(target_price=np.array([x, x], dtype=object) / (2 * x)).price_after.tolist() == [0.5, 0.5]
    assert SoftBucketCurve([0, 0.5, 1], [1, x, 1]).weights.tolist() == [1.0, float(x), 1.0]


def test_a_number_is_the_two_outcome_price():
    by_number = initialize(LmsrCurve(1.0), price=0.3)
    by_vector = initialize(LmsrCurve(1.0), price=[0.3, 0.7])
    assert by_number.snapshot() == by_vector.snapshot()
    assert by_number.price.tobytes() == by_vector.price.tobytes()
    assert by_number.records[0].liability.tobytes() == by_vector.records[0].liability.tobytes()
    r_number, r_vector = by_number.execute_trade(target_price=0.6), by_vector.execute_trade(target_price=[0.6, 0.4])
    assert r_number.bundle.tobytes() == r_vector.bundle.tobytes()
    assert by_number.snapshot() == by_vector.snapshot()


def test_lp_without_liquidity_audits_to_zero_and_stays_coherent():
    st = initialize(LmsrCurve(1.0), price=[0.4, 0.6])
    lp = st.register_lp()
    st.execute_trade(target_price=[0.7, 0.3])
    assert st.audit_no_liability(lp) == 0.0
    assert np.array_equal(st.records[lp].liability, np.zeros(2))
    assert st.check_coherent(1e-12) <= 1e-12
    assert np.array_equal(st.modify_liquidity(lp, TrivialGenerator(2)), np.zeros(2))


def test_prices_that_do_not_sum_to_one_are_rejected_not_renormalised():
    with pytest.raises(OutOfRange, match="sum to 1.1"):
        initialize(LmsrCurve(1.0), price=[0.5, 0.6])
    with pytest.raises(OutOfRange, match="finite"):
        initialize(LmsrGenerator(1.0, 3), price=[0.5, np.nan, 0.5])
    st = initialize(LmsrCurve(1.0), price=[0.4, 0.6], fee=NormFee(0.1))
    st.modify_liquidity(st.register_lp(), PiecewisePolyCurve.from_liquidity([0, 0.4, 1], [[0.0], [10.0]]))
    before = _books(st)
    for target in ([0.5, 0.6], [0.45, 0.45], [np.inf, 0.0]):
        with pytest.raises(OutOfRange):
            st.price_trade(target_price=target)
        with pytest.raises(OutOfRange):
            st.execute_trade(target_price=target)
    _assert_books_equal(_books(st), before)
    # a sum within 1e-9 of 1 passes and is divided out
    st.execute_trade(target_price=[0.7, 0.3 + 5e-10])
    assert math.fsum(st.price) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "base, make",
    [
        (LmsrCurve(1.0), lambda: PiecewisePolyCurve.from_liquidity([0, 0.6, 1], [[5.0], [1.0]])),
        (LmsrGenerator(1.0, 3), lambda: PairConstantProductGenerator(3, 0, 1, 1.0)),
    ],
    ids=["piecewise-poly", "pair-pool"],
)
def test_one_generator_object_may_back_several_lps(base, make):
    # compile_sum used to group an unmerged family by object identity, then
    # try to merge the group's weights
    n = base.n
    markets = []
    for gens in ([make()] * 2, [make(), make()]):
        st = initialize(base, price=np.full(n, 1.0 / n), strict=False)
        for G in gens:
            st.modify_liquidity(st.register_lp(), G)
        markets.append(st)
    partial = np.zeros(n)
    partial[:2] = [0.1, -0.1]
    shared, separate = (st.execute_trade(bundle=st.quote_completion(partial)[0]) for st in markets)
    assert np.array_equal(shared.price_after, separate.price_after)
    assert markets[0].check_coherent(1e-9) <= 1e-9


# ---------------------------------------------------------------------------
# one-pass booking
# ---------------------------------------------------------------------------


def _old_compute_fees(scheme, r, parts):
    """`compute_fees` with every norm from np.linalg.norm and each LP's fee
    computed alone, stacked into one array."""
    r = np.asarray(r, dtype=float)
    if isinstance(scheme, NormFee):
        order = 1 if scheme.norm == "l1" else 2
        trader = scheme.beta * float(np.linalg.norm(r, order))
        if scheme.norm == "l1":
            norms = np.abs(parts).sum(axis=-1)
        else:
            norms = np.array([float(np.linalg.norm(ri, 2)) for ri in parts])
        total = norms.sum()
        if total <= 0.0:
            return 0.0, np.array([0.0 for _ in parts])
        return trader, np.array(list(trader * norms / total))
    trader = scheme.beta * np.maximum(-r, 0.0)
    return trader, np.array([scheme.beta * np.maximum(-np.asarray(ri, float), 0.0) for ri in parts])


def _old_settle(self, receipt):
    """`MarketState._settle` as a loop over the LPs, testing each fee's kind
    with np.isscalar/np.ndim and adding it alone."""
    liabilities, cash, bundles = self._liabilities.copy(), self._cash_fees.copy(), self._bundle_fees.copy()
    for lp_id, fee in receipt.lp_fees.items():
        liabilities[lp_id] = liabilities[lp_id] + receipt.fills[lp_id]
        if np.isscalar(fee) or np.ndim(fee) == 0:
            cash[lp_id] = float(cash[lp_id]) + float(fee)
        else:
            bundles[lp_id] = bundles[lp_id] + np.asarray(fee, float)
    self._liabilities, self._cash_fees, self._bundle_fees = liabilities, cash, bundles
    self.price = receipt.price_after.copy()


def _bits(x):
    """The float bits and shape of a fee, a receipt field or an array of them."""
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def _receipt_bits(rec):
    return [_bits(getattr(rec, f)) for f in ("bundle", "fills", "price_before", "price_after", "trader_fee", "fees")]


def _booked_bits(st):
    assert all(type(rec.cash_fees) is float for rec in st.records)
    return _bits(st.price), [
        (rec.lp_id, _bits(rec.liability), _bits(rec.cash_fees), _bits(rec.bundle_fees)) for rec in st.records
    ]


def _n3_market(fee):
    st = initialize(LmsrGenerator(1.0, 3), price=[0.3, 0.3, 0.4], fee=fee, strict=False)
    for G in (ConstantProductGenerator(3, 2.0), PairConstantProductGenerator(3, 0, 2, 1.5), LmsrGenerator(0.5, 3)):
        st.modify_liquidity(st.register_lp(), G)
    return st


BOOKED = {
    "norm-l1-n2": lambda: n2_market(1),
    "norm-l2-n3": lambda: _n3_market(NormFee(0.02, "l2")),
    "norm-l1-n3": lambda: _n3_market(NormFee(0.02, "l1")),
    "positive-part-n3": lambda: _n3_market(PositivePartFee(0.05)),
    "v3-pool": lambda: v3_pool(1),
}


def _trades(name, seed):
    """Seeded trade calls for a market of BOOKED: by bundle and by target
    price, and one that books -0.0 fills onto -0.0 liabilities."""
    rng = np.random.default_rng(seed)
    if name == "v3-pool":
        for p1 in rng.uniform(0.3, 0.7, 12):
            p = np.array([p1, 1.0 - p1])
            yield lambda pool: pool.trade(
                np.add.reduce([parmm.liability_of(r.generator, p) for r in pool.state.records])
                - pool.state.total_liability()
            )
        return
    n = BOOKED[name]().n
    for k in range(12):
        p = rng.dirichlet(np.full(n, 4.0))
        if k % 2:
            yield lambda st: st.execute_trade(target_price=p)
        else:
            yield lambda st: st.execute_trade(
                bundle=np.add.reduce([parmm.liability_of(G, p) for G in st._nontrivial()[1]])
                - st.total_liability()
            )

    def signed_zero(st):
        # the LP without liquidity gets a -0.0 fill onto a -0.0 liability
        liabilities = st._liabilities.copy()
        liabilities[-1] = -0.0
        st._liabilities = liabilities
        receipt = st.price_trade(target_price=p)
        receipt.fills[-1] = -0.0
        st._settle(receipt)
        return receipt

    yield signed_zero


@pytest.mark.parametrize("name", sorted(BOOKED))
def test_one_pass_booking_matches_the_per_lp_loop_bit_for_bit(name, monkeypatch):
    got, want = BOOKED[name](), BOOKED[name]()
    for market in (got, want):
        market.register_lp()  # an LP without liquidity
    for trade in _trades(name, 41):
        with monkeypatch.context() as m:
            m.setattr(parmm.engine, "compute_fees", _old_compute_fees)
            m.setattr(MarketState, "_settle", _old_settle)
            old = trade(want)
        new = trade(got)
        assert _receipt_bits(new) == _receipt_bits(old)
        if name != "v3-pool" and isinstance(got.fee, NormFee):
            assert all(type(f) is float for f in new.lp_fees.values())
        states = [m.state if name == "v3-pool" else m for m in (got, want)]
        assert _booked_bits(states[0]) == _booked_bits(states[1])
    if name != "v3-pool":
        assert np.signbit(got.records[-1].liability).all()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_fees_match_np_linalg_norm_bit_for_bit(n):
    rng = np.random.default_rng(43)
    for _ in range(200):
        k = int(rng.integers(1, 17))
        parts = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-6, 3, size=(k, 1))
        parts[rng.random(k) < 0.2] = -0.0  # fills of LPs without liquidity
        r = np.add.reduce(parts, axis=0)
        r[rng.random(n) < 0.2] = -0.0
        for scheme in (NormFee(0.02, "l1"), NormFee(0.03, "l2"), PositivePartFee(0.05)):
            trader, shares = compute_fees(scheme, r, parts)
            old_trader, old_shares = _old_compute_fees(scheme, r, parts)
            assert _bits(trader) == _bits(old_trader) and _bits(shares) == _bits(old_shares)
            if isinstance(scheme, NormFee):
                assert type(trader) is float and shares.shape == (k,)
    # all fills zero: no fee, in cash
    for scheme in (NormFee(0.02, "l1"), NormFee(0.03, "l2")):
        trader, shares = compute_fees(scheme, np.full(n, -0.0), np.full((3, n), -0.0))
        assert type(trader) is float and _bits(trader) == _bits(0.0) and _bits(shares) == _bits(np.zeros(3))
