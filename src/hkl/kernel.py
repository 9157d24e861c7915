"""The degree-n polynomial model space and membership in the modulus body.

For the symbol conj(z)**(n+1), the Toeplitz kernel consists of the
polynomials of degree at most n.  Constructors never normalize: whether a
norm equals 1 or is merely below 1 changes the geometry downstream, so the
caller owns that decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .polycore import (NonnegCertificate, Poly, TrigPoly,
                       modulus_squared_terms, nonneg_check)

NORM_TOL = 1e-12   # the one mean-equals-1 test, here and in geometry


@dataclass(frozen=True)
class KernelElement:
    """A polynomial of degree <= n, tagged with the model order n."""

    n: int
    f: Poly

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("model order must be nonnegative")
        if self.f.degree > self.n:
            raise ValueError(
                f"degree {self.f.degree} exceeds model order {self.n}")


def companion(x: KernelElement) -> KernelElement:
    """Conjugate-reversed coefficients within the band: c~[k] = conj(c[n-k]).

    An isometric involution; on the circle |companion(x)| = |x|.  When
    deg f < n the mass moves to the top, so the companion vanishes at 0.
    """
    coeffs = tuple(x.f.coeff(x.n - k).conjugate() for k in range(x.n + 1))
    return KernelElement(x.n, Poly(coeffs))


def h2_norm(x: KernelElement) -> float:
    """sqrt(sum |c_k|^2); identical arithmetic to the modulus-squared mean."""
    if x.f.is_null:
        return 0.0
    return math.sqrt(math.fsum(modulus_squared_terms(x.f)))


def is_in_kernel(f: Poly, n: int) -> bool:
    """Degree at most n; the zero polynomial belongs to every kernel."""
    return f.degree <= n


class Membership(Enum):
    IN_V = "IN_V"
    IN_V_BOUNDARY = "IN_V_BOUNDARY"
    NOT_IN_V = "NOT_IN_V"


@dataclass(frozen=True)
class MembershipResult:
    status: Membership
    reason: str | None
    nonneg: NonnegCertificate | None

    @property
    def is_member(self) -> bool:
        return self.status is not Membership.NOT_IN_V


def membership_V(g: TrigPoly, n: int) -> MembershipResult:
    """Decide membership of g in the modulus body of the order-n model space.

    Required: g nonnegative and non-null, frequency content within |k| <= n
    (this is the analyticity condition on the lift) and mean at most 1.
    The boundary verdict means mean equal to 1 within NORM_TOL.
    """
    if g.is_null:
        return MembershipResult(Membership.NOT_IN_V, "null", None)
    cert = nonneg_check(g)
    if not cert.nonnegative:
        return MembershipResult(Membership.NOT_IN_V, "negativity", cert)
    if g.effective_band > n:
        return MembershipResult(
            Membership.NOT_IN_V,
            f"band limit {g.effective_band} exceeds model order {n}", cert)
    mean = g.mean
    if mean > 1.0 + NORM_TOL:
        return MembershipResult(Membership.NOT_IN_V, f"norm {mean} > 1", cert)
    if abs(mean - 1.0) <= NORM_TOL:
        return MembershipResult(Membership.IN_V_BOUNDARY, None, cert)
    return MembershipResult(Membership.IN_V, None, cert)
