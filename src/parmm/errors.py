"""Exception types shared across the package."""


class ParmmError(Exception):
    """Base class for all library errors."""


class BoundaryPrice(ParmmError):
    """A price query resolved at (or beyond) the boundary clamp of the simplex."""


class NoGradient(ParmmError):
    """The generator has no usable gradient at the requested point."""


class SolverDiverged(ParmmError):
    """The iterative conjugate solver failed to reach its tolerance."""


class NotPseudobarrier(ParmmError):
    """A strict-mode market requires a generator whose gradient blows up at the boundary."""


class LiabilityMismatch(ParmmError):
    """The supplied liability vector is not on the zero level set of the cost function."""


class NotLevelSet(ParmmError):
    """A trade bundle would move the aggregate liability off the zero level set."""


class OutOfRange(ParmmError):
    """The requested liability/price is outside the reachable range of the maker."""


class InvariantViolated(ParmmError):
    """A pool invariant or the per-LP coherence of the market state does not hold."""


class InsufficientReserves(ParmmError):
    """A reserve-space trade would drive some reserve to zero or below."""


class EmptyBucket(ParmmError):
    """A trade would traverse a price bucket holding no liquidity."""


class DivergentIntegral(ParmmError):
    """A tabulated liquidity profile has non-finite samples."""


class VertexUnbounded(ParmmError):
    """Generator values at the simplex vertices are unbounded; cannot normalize."""


class UnsupportedFamily(ParmmError):
    """The requested operation is not available for this generator family."""


class UnknownKind(ParmmError):
    """Unrecognized descriptor, report kind, scenario op or LP id, or an input of the wrong shape."""
