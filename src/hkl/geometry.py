"""Extreme points, midpoint splits, modulus decompositions, rigidity.

The executable statements, for the modulus body V of the order-n model
space (boundary functions g >= 0 with band <= n and mean <= 1):

* a boundary g is extreme iff its lift z**n g is outer            (is_extreme)
* a non-extreme boundary g is the midpoint of two extreme points
  g(1 +/- Re(lam u)), with z**n g = G u outer times inner: since |u| = 1
  on the circle, g u = z**n conj(G) there, so g Re(lam u) =
  Re(conj(lam) z**-n G) and the rotation integral is conj(G_n); both
  halves come from G alone                                 (split_nonextreme)
* with u = N / D of degree k and g's circle zeros (w, m), the halves
  have lift +/-G (lam u +/- 1)**2 / (2 lam) with G = kappa prod (z - w)**m
  D**2, so their factors are prod (z - w)**(m/2) (lam N +/- D) up to a
  constant, built by ``fejer_riesz``'s builder with no root solve; a half
  is extreme by its round trip, or else by the circle count (split_nonextreme)
* a unit-norm kernel element f admits |f|^2 = (|f1|^2 + |f2|^2)/2
  with |f1| != |f2| iff f or its companion has a nonconstant
  inner factor, and otherwise is rigid                   (decompose_modulus)
* all kernel elements with a prescribed modulus are the spectral
  factor times the inner divisors of the lift's inner part
                                                       (enumerate_solutions)
* when the lift is outer, any kernel element merely dominated by
  sqrt(g) is a constant multiple of the spectral factor; domination is
  decided by one multiplicity rule (``_undominated_zero``), which
  ``numeric.domination_integral`` applies too          (rigidity_check)
* at an extreme point no mean-free band-n h keeps g +/- h >= 0: when g's
  circle zeros have multiplicities adding up to 2n, h must vanish at each
  to its full order, so z**n h is divisible by the lift and h = c g with
  c = 0 (route circle_count); otherwise a randomized search bounds the
  largest admissible h (route sampled), whose last bits depend on the
  BLAS thread count                                 (perturbation_search)

A g of order eb (``effective_band``) whose eb local minima are all double
zeros of g within tolerance has all 2 eb zeros of z**eb g on the circle.
``polycore.circle_count`` reads that from g's minima with no root solve.
Each reader takes g from its one analysis record (``polycore._analysis``):
the inner factor of the lift at order n, z**(n - eb) when the count
decides, and g's circle zeros.  Only a g the count declines has its lift
solved, once; the perturbation search's count (``_circle_count``) then
falls back to the lift's roots only for fewer minima, all zeros of g.

Everything returns a certificate object carrying residuals and the
conventions used, so a verdict can be audited without rerunning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (AlreadyExtreme, BandExceeded, InnerFactorPresent,
                     NotDivisible, NotInV, NotOnBoundary, NotUnitNorm,
                     NullInput, PairingFailure, SelfCheckFailed)
from .factor import (BlaschkeProduct, _divisor_exponents, _factor_from_zeros,
                     _inner_multiples, fejer_riesz)
from .kernel import (NORM_TOL, KernelElement, Membership, h2_norm,
                     membership_V)
from .polycore import (CLUSTER_CAP, Poly, TrigPoly, _analysis, _check_band,
                       _count_minima, circle_minima, nonneg_check,
                       nonneg_tol, require_nonnegative, roots, trig_add,
                       trig_mul, trig_scale, trig_from_modulus_squared, unlift)

TOL_ROT = 1e-10         # |c| below this counts as a vanishing rotation integral
ROOT_MATCH_TOL = 1e-6   # matching a kernel element's zeros to double circle
                        # zeros of g; ROOT_MATCH_TOL**(1/m) at 2m-fold ones
TOL_REMAINDER = 1e-9    # x.f / F's remainder and nonconstant part, relative
TOL_UNIT_NORM = 1e-10   # |h2_norm - 1| a kernel element may have to be split
SEARCH_GRID = 4096      # uniform constraint points of the perturbation search
ASCENT_ROUNDS = 40      # coordinate-ascent rounds after the random directions


# ---------------------------------------------------------------------------
# Extreme-point test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremeCertificate:
    verdict: bool
    norm_ok: bool
    inner_factor: BlaschkeProduct
    outer_part: Poly
    mean: float


def is_extreme(g: TrigPoly, n: int) -> ExtremeCertificate:
    """Extreme iff the mean is 1 and the lift z**n g has trivial inner factor.

    The mean is 1 when it is within NORM_TOL of 1, the tolerance of
    ``membership_V``'s boundary verdict.

    Equivalently (tested as an oracle): every root of the lift lies on the
    unit circle and the mean is 1.  Scaling g below norm 1 destroys
    extremality regardless of the root structure.

    The inner factor is ``polycore._analysis``'s: z**(n - eb) with no
    other zero when g's eb local minima are all zeros of g
    (``circle_count``), so a g with every zero on the circle is decided
    with no root solve, and otherwise the lift's disk roots.  The outer
    part is the lift with that inner factor divided out, as
    ``inner_outer`` builds it.  Both are built once per order n in g's
    record (``factorization``), so the extreme test that
    ``split_nonextreme`` repeats reads them.

    A negative g raises NotNonnegative with a point where g < -tol; any
    other g outside V (null, band above n, mean above 1) raises NotInV.
    """
    require_nonnegative(g)
    mem = membership_V(g, n)
    if mem.status is Membership.NOT_IN_V:
        raise NotInV(mem.reason)
    fac = _analysis(g).factorization(n)
    norm_ok = abs(g.mean - 1.0) <= NORM_TOL
    return ExtremeCertificate(
        verdict=norm_ok and fac.inner.is_trivial,
        norm_ok=norm_ok,
        inner_factor=fac.inner,
        outer_part=fac.outer,
        mean=g.mean,
    )


# ---------------------------------------------------------------------------
# Midpoint split of a non-extreme boundary point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitChecks:
    midpoint_residual: float
    norm1: float
    norm2: float
    distinctness_gap: float
    extreme1: bool              # always True: a half not certified raises
    extreme2: bool
    factor_residual: float      # the larger round trip of f1 on g1, f2 on g2


@dataclass(frozen=True)
class SplitCertificate:
    g1: TrigPoly
    g2: TrigPoly
    u: BlaschkeProduct          # rotated inner factor, the perturbation direction
    f1: KernelElement
    f2: KernelElement
    checks: SplitChecks
    rotation: complex           # the unimodular constant applied to the inner factor
    rotation_integral: complex  # integral of g * (inner factor) over the circle


def split_nonextreme(g: TrigPoly, n: int) -> SplitCertificate:
    """Write a non-extreme boundary g as the midpoint of two extreme points.

    With z**n g = G * u0 (outer times inner, u0 nontrivial) and |u0| = 1 on
    the circle, g * u0 = z**n conj(G) there, so the rotation integral c, the
    mean of g * u0, is conj(G_n), and

        g * Re(lam u0) = Re(conj(lam) z**-n G).

    A unimodular lam = +i conj(c)/|c| makes that perturbation mean-free,
    and the halves g1 = g(1 + Re(lam u0)) and g2 = g(1 - Re(lam u0)) are
    built from G alone.  Both have mean 1, are nonnegative, extreme, and
    average back to g exactly.  When the integral vanishes (|c| <= TOL_ROT)
    any rotation works and lam = 1 is fixed, a non-canonical choice recorded
    in the certificate.

    The halves' factors come from the construction, not from solving their
    lifts.  With u0 = N / D (k = deg u0 <= n) and G = kappa prod (z - w)**m
    D**2 over g's circle zeros (w, m) (read from g's analysis record),

        lift(g_+/-) = +/- kappa prod (z - w)**m (lam N +/- D)**2 / (2 lam),

    so f1 is prod (z - w)**(m/2) (lam N + D) up to a constant, and f2
    pairs with lam N - D.  ``factor._factor_from_zeros``, the builder of
    ``fejer_riesz``, builds, polishes and accepts each, and the split keeps
    it; the larger round trip is ``checks.factor_residual``.  The halves
    are extreme by construction (lam N +/- D vanishes where u0 = -/+
    conj(lam), at k simple points of the circle), and each is certified by
    what was built: its round trip at most nonneg_tol(g_j) (g_j has mean
    1, is >= -tol on the circle and |g_j| <= tol at the n zeros of f_j),
    or else the circle count at order n (``_circle_count``).  So
    ``extreme1`` and ``extreme2`` are True on every certificate.  The
    halves are the library's own, so their failures are internal:
    PairingFailure or SelfCheckFailed from the builder, and
    SelfCheckFailed for a half that neither certifies.
    """
    cert = is_extreme(g, n)
    if not cert.norm_ok:
        raise NotOnBoundary(f"mean {cert.mean} != 1")
    if cert.verdict:
        raise AlreadyExtreme("the lift is already outer; nothing to split")

    outer = cert.outer_part
    inner = cert.inner_factor
    c = outer.coeff(n).conjugate()
    if abs(c) > TOL_ROT:
        lam = 1j * c.conjugate() / abs(c)
    else:
        lam = complex(1.0)

    h = unlift(outer.scaled(lam.conjugate()), n)
    g1 = trig_add(g, h)
    g2 = trig_add(g, trig_scale(h, -1.0))

    # the as-built means certify the construction; the returned halves are
    # then normalized exactly so downstream membership tests see mean 1
    norm1, norm2 = g1.mean, g2.mean
    g1 = trig_scale(g1, 1.0 / norm1)
    g2 = trig_scale(g2, 1.0 / norm2)

    # each half's factor is prod (z - w)**(m/2) (lam N +/- D) over g's
    # circle zeros (w, m), expanded once in g's record, with D zero-padded
    # to the length of N
    circle = _analysis(g).circle_factor
    num, den = inner.fraction()
    f1, resid1 = _split_half(g1, n, circle, lam * num + den)
    f2, resid2 = _split_half(g2, n, circle, lam * num - den)

    midpoint = max(
        abs(g1.coeff(k) + g2.coeff(k) - 2.0 * g.coeff(k)) for k in range(n + 1))
    gap = max(abs(g1.coeff(k) - g2.coeff(k)) for k in range(n + 1))
    checks = SplitChecks(
        midpoint_residual=midpoint,
        norm1=norm1,
        norm2=norm2,
        distinctness_gap=gap,
        extreme1=True,
        extreme2=True,
        factor_residual=max(resid1, resid2),
    )
    rotated = BlaschkeProduct(inner.m0, inner.zeros, lam * inner.lam)
    return SplitCertificate(
        g1=g1, g2=g2, u=rotated,
        f1=KernelElement(n, f1), f2=KernelElement(n, f2),
        checks=checks, rotation=lam, rotation_integral=c,
    )


def _split_half(gj: TrigPoly, n: int, circle: tuple | None,
                p: np.ndarray) -> tuple[Poly, float]:
    """Factor and round trip of the split half gj: the factor
    prod (z - w)**(m/2) p over g's circle zeros ``circle`` (g's expanded
    ``circle_factor``, None when an odd circle root was left), built and
    certified extreme as in ``split_nonextreme``."""
    f, resid = _factor_from_zeros(gj, p, circle)
    if (resid > nonneg_tol(gj)
            and (gj.effective_band != n or _circle_count(gj) is None)):
        raise SelfCheckFailed(
            f"a split half's round trip {resid:.3e} exceeds its tolerance "
            f"{nonneg_tol(gj):.1e} and its circle count declines")
    return f, resid


# ---------------------------------------------------------------------------
# Modulus decomposition of a unit-norm kernel element
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    rigid: bool
    f1: KernelElement | None = None
    f2: KernelElement | None = None
    split: SplitCertificate | None = None


def decompose_modulus(x: KernelElement) -> Decomposition:
    """Split |f|^2 into the average of two distinct unit-norm moduli, or RIGID.

    Rigid exactly when both f and its companion are outer, i.e. when the
    lift of |f|^2 at order n has a trivial inner factor.  The mean of |f|^2
    is renormalized to exactly 1 first (it differs from 1 by at most
    TOL_UNIT_NORM under the precondition), so g is on the boundary and the
    split's own extreme test decides rigidity: its AlreadyExtreme is the
    rigid verdict, and the lift is analysed once.
    """
    nrm = h2_norm(x)
    if abs(nrm - 1.0) > TOL_UNIT_NORM:
        raise NotUnitNorm(f"norm {nrm} is not 1 within {TOL_UNIT_NORM}")
    g = trig_from_modulus_squared(x.f)
    g = trig_scale(g, 1.0 / g.mean)
    try:
        cert = split_nonextreme(g, x.n)
    except AlreadyExtreme:
        return Decomposition(rigid=True)
    return Decomposition(rigid=False, f1=cert.f1, f2=cert.f2, split=cert)


# ---------------------------------------------------------------------------
# Enumeration of all kernel elements with prescribed modulus
# ---------------------------------------------------------------------------

def enumerate_solutions(g: TrigPoly, n: int) -> list[KernelElement]:
    """Every f in the order-n model space with |f|^2 = g, up to phase.

    The list is the spectral factor F times each inner divisor J of the
    lift's inner part, in ``divisors`` order, all built in one batch from
    values (``factor._inner_multiples``), so its length is
    (m0 + 1) * prod(mult_i + 1).  Each element is normalized so its lowest
    nonzero coefficient is real positive, which makes the representatives
    pairwise distinct.  F and J are the library's own, so an F * J that is
    no polynomial raises SelfCheckFailed, not the caller's NotDivisible.
    """
    if g.is_null:
        raise NullInput("the zero function: every solution is the zero element")
    _check_band(g.effective_band, n)
    base = fejer_riesz(g)   # raises NotNonnegative for a negative g
    inner = _analysis(g).inner(n)
    try:
        rows = _inner_multiples(base, inner, _divisor_exponents(inner))
    except NotDivisible as exc:
        raise SelfCheckFailed(
            f"the spectral factor times an inner divisor of its lift: {exc}"
        ) from exc
    return [KernelElement(n, _normalize_lowest(row.tolist())) for row in rows]


def _normalize_lowest(coeffs: list) -> Poly:
    """The polynomial of ``coeffs`` (Python complex) rotated so its lowest
    nonzero coefficient c is real positive, c then set to its modulus,
    which the rotation leaves only up to rounding: one Poly, with the
    phase and products in Python complex, as ``Poly.scaled`` takes them."""
    for k, c in enumerate(coeffs):
        if c != 0:
            phase = c.conjugate() / abs(c)
            rotated = [phase * a for a in coeffs]
            rotated[k] = complex(abs(rotated[k]))
            return Poly(tuple(rotated))
    return Poly(tuple(coeffs))


# ---------------------------------------------------------------------------
# Rigidity under domination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityResult:
    """One of two kinds: CONSTANT_MULTIPLE, with the constant and the
    division's remainder, or NOT_DOMINATED, with a circle zero of g where
    domination fails."""

    kind: str                   # CONSTANT_MULTIPLE | NOT_DOMINATED
    constant: complex | None = None
    witness: complex | None = None   # circle zero where domination fails
    remainder: float | None = None

    CONSTANT_MULTIPLE = "CONSTANT_MULTIPLE"
    NOT_DOMINATED = "NOT_DOMINATED"


def rigidity_check(g: TrigPoly, n: int, x: KernelElement) -> RigidityResult:
    """For outer lift, a dominated kernel element is c times the spectral factor.

    x.f is divided by F = ``fejer_riesz(g)`` first: a constant multiple of
    F, within TOL_REMAINDER, is dominated and is CONSTANT_MULTIPLE with no
    root solve.  Any other x.f must be NOT_DOMINATED, with the circle zero
    of g where the multiplicity rule (``_undominated_zero``) finds
    domination failing as witness.  No mean-1 hypothesis is needed, so
    this check bypasses the membership test on purpose.

    An x.f of degree above n is outside the order-n space and raises
    BandExceeded before any work.  A dominated x.f that is not a constant
    multiple is impossible when the implementation is correct, so it
    raises SelfCheckFailed: an internal bug, never a property of the input.
    """
    if x.f.degree > n:
        raise BandExceeded(f"degree {x.f.degree} exceeds model order {n}")
    if g.is_null:
        raise NullInput("rigidity needs a non-null modulus")
    require_nonnegative(g)
    if not _analysis(g).inner(n).is_trivial:
        raise InnerFactorPresent(
            "the lift has a nontrivial inner factor; rigidity does not apply")

    base = fejer_riesz(g)
    if x.f.is_null:
        return RigidityResult(RigidityResult.CONSTANT_MULTIPLE, constant=0j,
                              remainder=0.0)

    quo, rem = npp.polydiv(x.f.as_array(), base.as_array())
    scale = max(1.0, float(np.abs(x.f.as_array()).max()))
    rem_norm = float(np.abs(rem).max()) / scale
    nonconst = float(np.abs(quo[1:]).max()) / scale if len(quo) > 1 else 0.0
    if rem_norm <= TOL_REMAINDER and nonconst <= TOL_REMAINDER:
        return RigidityResult(RigidityResult.CONSTANT_MULTIPLE,
                              constant=complex(quo[0]), remainder=rem_norm)

    witness = _undominated_zero(g, x.f)
    if witness is not None:
        return RigidityResult(RigidityResult.NOT_DOMINATED, witness=witness)
    raise SelfCheckFailed(
        f"a dominated kernel element is not a multiple of the spectral "
        f"factor: remainder {max(rem_norm, nonconst):.3e}")


def _undominated_zero(g: TrigPoly, f: Poly) -> complex | None:
    """The first circle zero of g where f is not dominated by sqrt(g), or
    None when the integral of |f| / sqrt(g) is finite.

    The multiplicity rule: at a circle zero zeta of g of multiplicity 2m
    the integrand behaves like |z - zeta|**(k - m), k the order to which f
    vanishes at zeta, so it is integrable iff k >= m.  g's circle zeros
    are read from its analysis record; k counts the zeros of ``roots(f)``
    within ROOT_MATCH_TOL**(1/m) of zeta, solved only when g has a circle
    zero.  Rounding g moves a 2m-fold zero by about eps**(1/2m), so the
    distance widens with m: 1e-6, 1e-3 and 1e-2 for m = 1, 2, 3.

    Raises NullInput for a null g, NotNonnegative for a negative one, and
    PairingFailure where the record cannot be read: an odd circle zero of
    g is left; g comes within tolerance of 0 (``nonneg_check``) but the
    record lists no circle zero; or f falls short at zeta and has a zero
    within CLUSTER_CAP of it, while the lift of g has more roots than
    zeta's multiplicity within CLUSTER_CAP of it.  The last is a zero of
    order 6 or more whose lift roots scattered, some off the circle, so
    neither its order nor f's zeros there can be matched.  A zero that
    the circle count lists, or whose lift roots merged, is matched as it
    is.  ``rigidity_check`` and ``numeric.domination_integral`` share
    these refusals with the rule.
    """
    if g.is_null:
        raise NullInput("domination needs a non-null modulus")
    require_nonnegative(g)
    record = _analysis(g)
    zeros = record.circle_zeros
    if zeros is None:
        raise PairingFailure("an odd circle zero of g is left unmerged")
    if not zeros:
        cert = nonneg_check(g)
        if cert.min_value <= cert.tol:
            raise PairingFailure(
                f"g dips to {cert.min_value:.3e} at theta="
                f"{cert.argmin_theta:.6f}, within tolerance of 0, but no "
                "circle zero of g was found there")
        return None
    if f.is_null:
        return None
    f_roots = roots(f) if f.degree > 0 else None
    for t, m in zeros:
        zc = complex(np.exp(1j * t))
        near = ROOT_MATCH_TOL ** (2 / m)
        have = f_roots.multiplicity_near(zc, near) if f_roots else 0
        if have < m // 2:
            if (f_roots and f_roots.multiplicity_near(zc, CLUSTER_CAP) > have
                    and record.minima is None
                    and record.lift_roots.multiplicity_near(
                        zc, CLUSTER_CAP) > m):
                raise PairingFailure(
                    f"the lift's roots near the circle zero {zc:.6f} of g "
                    f"scatter, and a zero of f lies near them but not "
                    f"within {near:.1e}")
            return zc
    return None


# ---------------------------------------------------------------------------
# Baseline split without any band restriction
# ---------------------------------------------------------------------------

def baseline_split(g: TrigPoly) -> tuple[TrigPoly, TrigPoly]:
    """Midpoint split g(1 +/- tau) with tau = Re(lam z)/2; band grows by one.

    lam = i g^(1)/|g^(1)| makes the correction mean-free when the first
    coefficient is nonzero; otherwise lam = 1 works outright.  Both halves
    keep mean 1 and nonnegativity since |tau| <= 1/2.
    """
    if g.is_null:
        raise NullInput("cannot split the zero function")
    require_nonnegative(g)
    if abs(g.mean - 1.0) > NORM_TOL:
        raise NotOnBoundary(f"mean {g.mean} != 1")
    c1 = g.coeff(1)
    lam = 1j * c1 / abs(c1) if abs(c1) > 0 else complex(1.0)
    tau = TrigPoly(1, (0j, lam / 4.0))
    correction = trig_mul(g, tau)
    padded = trig_add(g, TrigPoly(g.n + 1, (0j,) * (g.n + 2)))
    g1 = trig_add(padded, correction)
    g2 = trig_add(padded, trig_scale(correction, -1.0))
    return g1, g2


# ---------------------------------------------------------------------------
# Feasibility search: no perturbation survives at an extreme point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSearch:
    max_norm: float
    trials: int
    grid_size: int
    n_constraints: int
    route: str = "sampled"      # circle_count | sampled: what decided max_norm

    CIRCLE_COUNT = "circle_count"
    SAMPLED = "sampled"


def perturbation_search(g: TrigPoly, n: int, *, trials: int = 10_000,
                        seed: int = 0) -> PerturbationSearch:
    """Largest mean-free band-n perturbation h with g +/- h >= 0.

    At an extreme point the only admissible h is zero, so the search is a
    negative certificate: it reports the largest sup-norm it could reach.
    Two routes decide it, and ``route`` names the one that did.

    circle_count: when g has order n (its ``effective_band``; the stored
    band may be larger) and its circle zeros are all 2n zeros of the lift,
    each of even order and with |g| <= nonneg_tol(g) (``_circle_count``),
    no perturbation survives: near a zero of order 2m, g behaves like
    |theta - t0|**2m, and |h| <= g forces the smooth h to vanish there to
    order 2m too.  So z**n h, of degree <= 2n, is divisible by the
    degree-2n circle part of the lift, which is z**n g up to a constant:
    h = c g, and the mean-free condition with mean(g) > 0 gives c = 0.
    This route returns 0 at once and draws no random numbers, so its
    certificate does not depend on ``seed``, ``trials`` or the BLAS thread
    count.  When g's n local minima are all zeros of g it solves no
    polynomial.  At n = 0 the count is vacuously 0 = 2n for a constant
    g > 0.

    sampled: otherwise (a sign change or a short count, as at a point that
    is not extreme), a randomized search over ``trials`` directions plus
    ASCENT_ROUNDS rounds of coordinate ascent on SEARCH_GRID points
    (``grid_size`` on both routes), constrained at the lift's circle roots;
    see ``_sampled_search``.  Its max_norm may differ in the last bits with
    the BLAS thread count.

    Raises NullInput for the zero function, and on the sampled route
    NotNonnegative, with a point where g < -tol, for a negative g.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if g.is_null:
        raise NullInput("the zero function has no perturbation search")
    zeros = _circle_count(g) if g.effective_band == n else None
    if zeros is not None:
        # n_constraints counts the grid the sampled route would have used:
        # one refined block per circle root, and each of zeros is one
        return PerturbationSearch(
            max_norm=0.0, trials=trials, grid_size=SEARCH_GRID,
            n_constraints=SEARCH_GRID + (1 + 2 * len(_LADDER)) * len(zeros),
            route=PerturbationSearch.CIRCLE_COUNT)
    require_nonnegative(g)
    _check_band(g.effective_band, n)
    return _sampled_search(g, n, _analysis(g).lift_roots.on_circle,
                           trials=trials, seed=seed, grid_size=SEARCH_GRID)


def _circle_count(g: TrigPoly) -> np.ndarray | None:
    """The angles of g's circle zeros when they are all 2n zeros of its
    lift, each of even order, with |g| <= nonneg_tol(g) at each and
    mean(g) > 0, so g >= -tol; else None.

    The rule of ``polycore.circle_count`` decides first, taken on g as
    given with no grid of g (``polycore._count_minima``): n local minima
    that are double zeros of g within tolerance are all of the lift's
    zeros, found with no root solve.  Every local minimum of such a g is
    one of its zeros: g' has at most 2n zeros, a zero of g of order 2m
    takes 2m - 1 of them and a maximum between each two neighbouring
    zeros the rest.  So when the count declines, only fewer minima, all
    zeros of g, can still be such a g, with a zero of order 4 or more;
    then the lift's circle roots and their multiplicities decide (the
    ``circle_zeros`` of g's analysis record).
    """
    counted = _count_minima(g)
    if counted is not None:
        return counted[0]
    if g.mean <= 0:
        return None
    n, tol = g.effective_band, nonneg_tol(g)
    minima = circle_minima(g)
    if (minima is None or len(minima) >= n
            or np.any(np.abs(g.values(minima)) > tol)):
        return None
    zeros = _analysis(g).circle_zeros
    if (zeros is None or sum(m for _, m in zeros) != 2 * n
            or np.any(np.abs(g.values([t for t, _ in zeros])) > tol)):
        return None
    return np.array([t for t, _ in zeros])


# angular offsets of the refined constraint points on each side of a zero
_LADDER = np.array([10.0 ** (-k) for k in range(3, 10)])


def _sampled_search(g: TrigPoly, n: int, circle: tuple, *, trials: int,
                    seed: int, grid_size: int) -> PerturbationSearch:
    """Randomized search for the largest admissible perturbation.

    Constraints are linear in h (|h| <= g pointwise) and are imposed on a
    uniform grid augmented with points geometrically accumulating at the
    circle zeros of g, the lift's roots ``circle``.  The refinement
    matters: a sign dip caused by a first-order perturbation near a double
    zero of g is quadratically narrow, so a uniform grid alone admits
    perturbations up to about a quarter of the grid spacing, orders of
    magnitude above the scale this certificate needs to exclude.

    Each block of random candidate directions passes two stages, and a
    candidate is dropped as soon as it cannot beat the best norm so far:

    1. the cheap set: the refined points near the zeros plus the 64
       lowest uniform points bound the reachable norm from above.
    2. the full grid, one candidate at a time, for the candidates whose
       bound still beats the incumbent.
    """
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size

    zero_angles = [float(np.angle(r.location)) for r in circle]
    extra = [np.array(zero_angles)] if zero_angles else []
    for t0 in zero_angles:
        extra.append(t0 + _LADDER)
        extra.append(t0 - _LADDER)
    refined = np.concatenate(extra) if extra else np.empty(0)
    points = np.concatenate([theta, refined])

    gv = np.maximum(g.values(points), 0.0)
    with np.errstate(divide="ignore"):
        inv_gv = np.where(gv > 0, 1.0 / gv, np.inf)

    # basis matrix for h(theta) = 2 Re sum_k h_k e^{i k theta}
    freqs = np.arange(1, n + 1)
    basis = np.exp(1j * np.outer(freqs, points))   # (n, P)
    # the refined points close to the zeros carry almost all the binding
    # constraints, so they are evaluated first and the full grid only for
    # candidates whose upper bound can still beat the incumbent
    cheap_idx = (np.argsort(gv)[:64] if len(refined) == 0 else
                 np.concatenate([np.arange(grid_size, len(points)),
                                 np.argsort(gv[:grid_size])[:64]]))
    basis_cheap = basis[:, cheap_idx]
    inv_cheap = inv_gv[cheap_idx]

    best_norm = 0.0
    best_dir = np.zeros(n, dtype=complex)

    def binding(ah: np.ndarray, inv: np.ndarray) -> np.ndarray:
        # |h| * (1/g) with the convention 0 * inf = 0: a vanishing h makes
        # the constraint at a zero of g vacuous instead of binding
        with np.errstate(invalid="ignore"):
            prod = ah * inv
        return np.where(ah == 0.0, 0.0, prod)

    def consider(coeff_block: np.ndarray) -> None:
        nonlocal best_norm, best_dir
        ah_cheap = np.abs(2.0 * (coeff_block @ basis_cheap).real)
        top_cheap = binding(ah_cheap, inv_cheap[None, :]).max(axis=1)
        with np.errstate(divide="ignore"):
            t_bound = np.where(top_cheap > 0, 1.0 / top_cheap, np.inf)
        # sup |h| <= 2 sum |h_k|, so t_bound * that bounds the reachable norm
        cap = t_bound * 2.0 * np.abs(coeff_block).sum(axis=1)
        for i in np.nonzero(cap > best_norm)[0]:
            ah = np.abs(2.0 * (coeff_block[i] @ basis).real)
            top = binding(ah, inv_gv).max()
            if top > 0 and np.isfinite(top):
                nrm = ah.max() / top
            else:
                nrm = 0.0
            if nrm > best_norm:
                best_norm = nrm
                best_dir = coeff_block[i]

    block = 2000
    done = 0
    while done < trials:
        b = min(block, trials - done)
        consider(rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n)))
        done += b

    # coordinate ascent around the best direction found (directions are
    # scale-free: only their shape matters)
    for _ in range(ASCENT_ROUNDS):
        base_dir = best_dir / max(np.abs(best_dir).max(), 1e-300)
        consider(base_dir[None, :] + 0.3 * (
            rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))))

    return PerturbationSearch(
        max_norm=best_norm, trials=trials, grid_size=grid_size,
        n_constraints=len(points))
