"""Parallel liquidity provisioning for prediction markets.

Cost-function market makers built from convex generators on the price
simplex, combined in parallel via infimal convolution, with two-outcome AMM
specializations (constant product, concentrated liquidity, piecewise-linear
books), fee schemes, and equivalence checks between the aggregate-maker,
per-LP, and scoring-rule views of the same market.
"""

__version__ = "0.1.0"

from .convex_core import (
    ConjugateResult,
    EPS,
    conjugate_value,
    directional_liquidity,
    infimal_convolution_split,
    liability_of,
    liquidity_matrix,
    normalize_generator,
    price_of,
    simplex_price,
)
from .engine import (
    LpRecord,
    MarketState,
    NormFee,
    PositivePartFee,
    TradeReceipt,
    audit_budget_balance,
    compute_fees,
    initialize,
)
from .equivalence import (
    ScoringMarket,
    equivalence_suite,
    interp1_validate,
    interp2_greedy,
)
from .errors import (
    BoundaryPrice,
    DivergentIntegral,
    EmptyBucket,
    InsufficientReserves,
    InvariantViolated,
    LiabilityMismatch,
    NoGradient,
    NotLevelSet,
    NotPseudobarrier,
    OutOfRange,
    ParmmError,
    SolverDiverged,
    UnknownKind,
    UnsupportedFamily,
    VertexUnbounded,
)
from .generators import (
    BucketArrayCurve,
    BucketCurve,
    ConstantProductGenerator,
    Curve1D,
    Generator,
    LmsrCurve,
    LmsrGenerator,
    PairConstantProductGenerator,
    PiecewisePolyCurve,
    ShiftedGenerator,
    SoftBucketCurve,
    SumGenerator,
    TrivialGenerator,
    UniswapV2Curve,
    brier_curve,
    compile_sum,
    generator_from_descriptor,
    piecewise_linear_curve,
    tabulated_liquidity_curve,
)
from .two_asset import (
    PiecewiseLinearMarket,
    UniswapV2Market,
    UniswapV3Market,
    liability2,
    price2,
)
