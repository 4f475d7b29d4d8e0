"""Exception types shared across the package, and the one check per input
kind for the arguments that arrive from outside it:

- a number is an int or a float, numpy's included, that a float holds: not
  a bool, a string, None or an integer beyond the float range;
- an integer is an int, numpy's included, not a bool;
- a vector is a number or a list, tuple or array of them, nested, of the
  shape its call needs;
- an amount (a rate, a weight, a liquidity) is a finite nonnegative number.

A wrong kind or shape raises `UnknownKind` and a value out of range
`OutOfRange`, also under `python -O`, before any change.  The seven kinds of
a generator descriptor's fields (`generators._KINDS`) are built from these,
and so is the fifth input kind, a price: `convex_core.simplex_price` is the
one price rule, beside the clamp it checks.
"""

import math
import sys

import numpy as np


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
    """Unrecognized descriptor, report kind, scenario op or LP id, or an input of the wrong kind or shape."""


def _numbers_only(x) -> bool:
    """Whether x is a number or a list, tuple or array of numbers, nested."""
    if type(x) is float:  # the common entry, tested first
        return True
    if isinstance(x, (list, tuple)):
        return all(map(_numbers_only, x))
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iuf" or x.dtype.kind == "O" and all(map(_numbers_only, x.flat))
    if isinstance(x, int):  # a bool is none, nor an integer no float holds
        return not isinstance(x, bool) and abs(x) <= sys.float_info.max
    return isinstance(x, (float, np.integer, np.floating))


def _check_number(name: str, x):
    """Raise UnknownKind unless x is a number (a vector is not)."""
    if isinstance(x, (list, tuple, np.ndarray)) or not _numbers_only(x):
        raise UnknownKind(f"{name} must be a number, got {x!r}")


def _check_integer(name: str, k, least=None):
    """Raise UnknownKind unless k is an integer, and at least `least` if that
    is given: an LP id, a count."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or least is not None and k < least:
        what = "an integer" if least is None else "a positive integer" if least == 1 else f"an integer >= {least}"
        raise UnknownKind(f"{name} must be {what}, got {k!r}")


def _check_index(j, size: int):
    """Raise OutOfRange unless j is an integer in range(size), not a bool (a numpy mask)."""
    if isinstance(j, bool) or not (isinstance(j, (int, np.integer)) and 0 <= j < size):
        raise OutOfRange(f"index {j!r} outside range({size})")


def _check_amount(name: str, x):
    """Raise UnknownKind unless x is a number, OutOfRange unless it is an amount."""
    _check_number(name, x)
    if not 0 <= x < np.inf:
        raise OutOfRange(f"{name} {x} is negative or not finite")


def _floats(name: str, x) -> np.ndarray:
    """x as a float array; UnknownKind unless it is a vector of numbers, not ragged."""
    if _numbers_only(x):
        try:
            return np.asarray(x, dtype=float)
        except ValueError:  # ragged
            pass
    raise UnknownKind(f"{name} is not numeric: {x!r}")


def _shaped(name: str, x, n: int) -> np.ndarray:
    """x as a float (n,) array; UnknownKind if numpy cannot convert it or
    its shape is not (n,).  The core's check on its hot paths: it leaves
    entry kinds (numpy reads a bool as 0 or 1 and None as NaN) and
    finiteness to its caller."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise UnknownKind(f"{name} is not numeric: {x!r}") from None
    if x.ndim != 1 or len(x) != n:  # cheaper than building x.shape
        raise UnknownKind(f"{name} has shape {x.shape}, not ({n},)")
    return x


def _bundle(name: str, x, n: int) -> np.ndarray:
    """x as a finite float (n,) vector; UnknownKind or OutOfRange otherwise."""
    x = _shaped(name, _floats(name, x), n)
    # a scalar test on the list costs less than numpy's reduction
    if not all(map(math.isfinite, x.tolist())):
        raise OutOfRange(f"{name} {x.tolist()} is not finite")
    return x
