"""Exception hierarchy shared by the whole package.

Two families matter for the CLI exit-code contract:

* ``PreconditionError`` - the caller handed us an input that violates a
  documented precondition (exit code 2).  A function that must be
  nonnegative and is not raises ``NotNonnegative``, always with a point
  where it is below the tolerance.
* ``InternalInvariantError`` - an invariant the library itself guarantees
  failed (``SelfCheckFailed``: a result failed the library's own check of
  it), or double precision could not carry the computation
  (``RootOverflow``, or ``PairingFailure`` on a nonnegative function whose
  lift's roots do not pair); never the caller's fault (exit code 3).
"""


class HklError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(HklError):
    """A documented precondition was violated by the caller."""


class InternalInvariantError(HklError):
    """An internal invariant failed; indicates a bug, not bad input."""


# -- precondition violations -------------------------------------------------

class NullInput(PreconditionError):
    """The zero polynomial / zero function where a non-null one is required."""


class NotNonnegative(PreconditionError):
    """A boundary function that must be nonnegative takes negative values:
    a point where it is below -tol was found (``nonneg_check``)."""


class PoleHit(PreconditionError):
    """Blaschke-product evaluation at (or too close to) a pole."""


class NotDivisible(PreconditionError):
    """The Blaschke denominator does not divide the polynomial factor, for
    a caller's own f and J (``blaschke_mul_poly``)."""


class NotInV(PreconditionError):
    """The function is not a member of the modulus body for this order."""


class AlreadyExtreme(PreconditionError):
    """Midpoint split requested for an extreme point."""


class NotOnBoundary(PreconditionError):
    """Norm is not 1: the function is not on the boundary of the body."""


class NotUnitNorm(PreconditionError):
    """A unit-norm kernel element was required."""


class BandExceeded(PreconditionError):
    """Frequency content outside the admissible band for this order."""


class InnerFactorPresent(PreconditionError):
    """The lifted function has a nontrivial inner factor where it must be outer."""


class TooSmall(PreconditionError):
    """A sampled modulus dips below the numeric floor for the log/exp path."""


# -- internal failures --------------------------------------------------------

class NonConvergence(InternalInvariantError):
    """Root iteration failed to reach tolerance within the iteration budget."""


class PairingFailure(InternalInvariantError):
    """Zeros of a lifted nonnegative function failed to pair: an odd
    circle zero left, or outside and circle zeros that would give a
    spectral factor a degree above the band of g.  The domination rule
    raises it too, for a g within tolerance of 0 whose circle zeros were
    not found, and for a zero of f near a circle zero of g whose lift
    roots scattered, so that the two can neither be matched nor told
    apart."""


class RootOverflow(InternalInvariantError):
    """A computed number left the double range: a root or its residual in
    the root engine, a reconstruction on the circle, or any number to be
    serialized (``jsonio.dumps``) is not finite, because the input's
    coefficients overflow in the arithmetic."""


class SelfCheckFailed(InternalInvariantError):
    """A result failed the library's own check of it: a spectral factor
    whose round trip misses g (``fejer_riesz`` and the split halves), a
    split half that neither its round trip nor its circle count certifies
    as extreme, a dominated kernel element that is not a multiple of the
    spectral factor (``rigidity_check``), or a spectral factor times an
    inner divisor of its lift that is no polynomial
    (``enumerate_solutions``)."""
