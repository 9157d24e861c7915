"""Extreme points, midpoint splits, modulus decompositions, rigidity.

The executable statements, for the modulus body V of the order-n model
space (boundary functions g >= 0 with band <= n and mean <= 1):

* a boundary g is extreme iff its lift z**n g is outer            (is_extreme)
* a non-extreme boundary g is the midpoint of two extreme points
  built from the rotated inner factor of its lift          (split_nonextreme)
* with z**n g = G u, u = N / D inner of degree k and lam the rotation,
  the halves g(1 +/- Re(lam u)) have lift +/-G (lam u +/- 1)**2 / (2 lam):
  their zeros are g's circle zeros and, doubled, the k unimodular roots
  of lam N +/- D, so their factors need no solve of degree 2n; the claim
  is checked on each half and a half that fails it is solved as before
                                                         (split_nonextreme)
* a unit-norm kernel element f admits |f|^2 = (|f1|^2 + |f2|^2)/2
  with |f1| != |f2| iff f or its companion has a nonconstant
  inner factor, and otherwise is rigid                   (decompose_modulus)
* all kernel elements with a prescribed modulus are the spectral
  factor times the inner divisors of the lift's inner part
                                                       (enumerate_solutions)
* when the lift is outer, any kernel element merely dominated by
  sqrt(g) is a constant multiple of the spectral factor     (rigidity_check)
* at an extreme point no mean-free band-n h keeps g +/- h >= 0: when g's
  circle zeros have multiplicities adding up to 2n, h must vanish at each
  to its full order, so z**n h is divisible by the lift and h = c g with
  c = 0 (route circle_count); otherwise a randomized search bounds the
  largest admissible h (route sampled), whose last bits depend on the
  BLAS thread count                                 (perturbation_search)

The split, the domination rule and the circle count read g's circle zeros
and their even multiplicities from ``factor._circle_zeros`` alone.

Everything returns a certificate object carrying residuals and the
conventions used, so a verdict can be audited without rerunning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (AlreadyExtreme, BandExceeded, InnerFactorPresent, NotInV,
                     NotNonnegative, NotNormalized, NotOnBoundary, NotUnitNorm,
                     NullInput)
from .factor import (BlaschkeProduct, _circle_zeros, _factor_from_zeros,
                     blaschke_eval, blaschke_mul_poly, divisors, fejer_riesz,
                     inner_outer)
from .kernel import KernelElement, Membership, h2_norm, membership_V
from .polycore import (Poly, TrigPoly, grid_min, lift, nonneg_check,
                       nonneg_grid_size, nonneg_tol, refine_circle_angle,
                       roots, trig_add, trig_mul, trig_scale,
                       trig_from_modulus_squared, unlift)

TOL_NORM = 1e-12        # mean-equals-one test
TOL_ROT = 1e-10         # |c| below this counts as a vanishing rotation integral
QUAD_POINTS = 8192      # trapezoid points for the rotation integral
ROOT_MATCH_TOL = 1e-6   # matching a kernel element's zeros to circle zeros of g
TOL_REMAINDER = 1e-9
TOL_UNIT_NORM = 1e-10   # |h2_norm - 1| a kernel element may have to be split
SEARCH_GRID = 4096      # uniform constraint points of the perturbation search


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
    tol_norm: float


def is_extreme(g: TrigPoly, n: int, *, tol_norm: float = TOL_NORM) -> ExtremeCertificate:
    """Extreme iff the mean is 1 and the lift z**n g has trivial inner factor.

    Equivalently (tested as an oracle): every root of the lift lies on the
    unit circle and the mean is 1.  Scaling g below norm 1 destroys
    extremality regardless of the root structure.
    """
    mem = membership_V(g, n)
    if mem.status is Membership.NOT_IN_V:
        raise NotInV(mem.reason)
    fac = inner_outer(lift(g, n))
    norm_ok = abs(g.mean - 1.0) <= tol_norm
    return ExtremeCertificate(
        verdict=norm_ok and fac.inner.is_trivial,
        norm_ok=norm_ok,
        inner_factor=fac.inner,
        outer_part=fac.outer,
        mean=g.mean,
        tol_norm=tol_norm,
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
    extreme1: bool
    extreme2: bool


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
    quad_points: int


def split_nonextreme(g: TrigPoly, n: int, *, rotation_sign: int = +1,
                     quad_points: int = QUAD_POINTS) -> SplitCertificate:
    """Write a non-extreme boundary g as the midpoint of two extreme points.

    With z**n g = G * u0 (outer times inner, u0 nontrivial), a unimodular
    lam is chosen so the integral of g * lam * u0 is purely imaginary; then

        lift(g_+/-) = z**n g  +/-  (conj(lam) G  +  lam (z**n g) u0) / 2

    are the lifts of g_+/- = g(1 +/- Re(lam u0)), g1 = g_+ and g2 = g_-.
    Both halves have mean 1, are nonnegative, extreme, and average back to
    g exactly.  The product (z**n g) * u0 is a polynomial because zeros of
    the lift pair across the circle, so the whole construction stays in
    exact polynomial arithmetic.

    Convention: rotation_sign=+1 selects lam = +i conj(c)/|c|; the opposite
    sign swaps g1 and g2.  When the integral vanishes (|c| <= TOL_ROT) any
    rotation works and lam = 1 is fixed, a non-canonical choice recorded in
    the certificate.

    The halves' factors come from the construction, not from solving their
    lifts.  With u0 = N / D (k = deg u0 <= n), the same lifts read

        lift(g_+/-) = +/- G (lam u0 +/- 1)**2 / (2 lam),

    so the zeros of lift(g1) are g's circle zeros (``_circle_zeros``, from
    the lift of g already solved) and each root of lam N + D, doubled;
    g2 pairs with lam N - D.  |u0| = 1 exactly on the circle, so these k
    roots are unimodular and the degree-k solve is all that is new.  The
    angles are refined on each half (``refine_circle_angle``).  The claim
    is accepted when the multiplicities add up to 2n with |g_j| <=
    nonneg_tol(g_j) at each refined angle (the circle count of
    ``perturbation_search``), g_j >= -tol on the ``nonneg_check`` grid and
    |mean - 1| <= TOL_NORM.  Then g_j is extreme and f_j is assembled from
    the claimed zeros and polished on g_j, as ``fejer_riesz`` does.  A half
    that fails the claim gets ``fejer_riesz(g_j)`` and
    ``is_extreme(g_j, n)`` instead.
    """
    cert = is_extreme(g, n)
    if not cert.norm_ok:
        raise NotOnBoundary(f"mean {cert.mean} != 1")
    if cert.verdict:
        raise AlreadyExtreme("the lift is already outer; nothing to split")

    lifted = lift(g, n)
    outer = cert.outer_part
    inner = cert.inner_factor

    theta = 2.0 * np.pi * np.arange(quad_points) / quad_points
    gv = g.grid_values(quad_points)
    uv = blaschke_eval(inner, np.exp(1j * theta))
    c = complex(np.mean(gv * uv))

    if abs(c) > TOL_ROT:
        lam = rotation_sign * 1j * c.conjugate() / abs(c)
    else:
        lam = complex(1.0)

    lifted_u = blaschke_mul_poly(lifted, inner)
    half_outer = outer.scaled(0.5 * lam.conjugate())
    half_rot = lifted_u.scaled(0.5 * lam)
    g1 = unlift(half_outer + lifted + half_rot, n)
    g2 = unlift(half_outer.scaled(-1) + lifted + half_rot.scaled(-1), n)

    # the as-built means certify the construction; the returned halves are
    # then normalized exactly so downstream membership tests see mean 1
    norm1, norm2 = g1.mean, g2.mean
    g1 = trig_scale(g1, 1.0 / norm1)
    g2 = trig_scale(g2, 1.0 / norm2)

    # each half's claimed zeros: g's circle zeros and the doubled roots of
    # lam N +/- D, with D zero-padded to the length of N
    circle = _circle_zeros(g)
    num = inner.numerator().as_array()
    den = np.zeros(len(num), dtype=complex)
    den[:inner.denominator().degree + 1] = inner.denominator().as_array()
    f1, extreme1 = _split_half(g1, n, circle, lam * num + den)
    f2, extreme2 = _split_half(g2, n, circle, lam * num - den)

    midpoint = max(
        abs(g1.coeff(k) + g2.coeff(k) - 2.0 * g.coeff(k)) for k in range(n + 1))
    gap = max(abs(g1.coeff(k) - g2.coeff(k)) for k in range(n + 1))
    checks = SplitChecks(
        midpoint_residual=midpoint,
        norm1=norm1,
        norm2=norm2,
        distinctness_gap=gap,
        extreme1=extreme1,
        extreme2=extreme2,
    )
    rotated = BlaschkeProduct(inner.m0, inner.zeros, lam * inner.lam)
    return SplitCertificate(
        g1=g1, g2=g2, u=rotated,
        f1=KernelElement(n, f1), f2=KernelElement(n, f2),
        checks=checks, rotation=lam, rotation_integral=c,
        quad_points=quad_points,
    )


def _split_half(gj: TrigPoly, n: int, circle: list | None,
                p: np.ndarray) -> tuple[Poly, bool]:
    """Spectral factor and extreme verdict of the split half gj.

    The claim: lift(gj) vanishes at g's circle zeros ``circle`` ((angle,
    multiplicity) pairs, None when they could not be paired) and doubly at
    each root of the polynomial with coefficients p.  Its angles are refined
    on gj, and it is accepted when the circle count decides on gj, gj >=
    -tol on the ``nonneg_check`` grid and the mean of gj is 1 within
    TOL_NORM; then gj is extreme and its factor is built from the claimed zeros.
    Otherwise both come from solving the lift of gj.
    """
    if circle is not None:
        claimed = circle + [(float(np.angle(r.location)), 2 * r.multiplicity)
                            for r in roots(Poly(tuple(p)))]
        zeros = [(refine_circle_angle(gj, t), m) for t, m in claimed]
        if (_circle_count_decides(gj, n, zeros)
                and grid_min(gj, nonneg_grid_size(gj))[0] >= -nonneg_tol(gj)
                and abs(gj.mean - 1.0) <= TOL_NORM):
            angles = np.array([t for t, _ in zeros])
            halves = np.array([m // 2 for _, m in zeros], dtype=int)
            return (_factor_from_zeros(gj, np.ones(1, dtype=complex), angles,
                                       halves), True)
    return fejer_riesz(gj), is_extreme(gj, n).verdict


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
    is renormalized to exactly 1 before splitting (it differs from 1 by at
    most TOL_UNIT_NORM under the precondition).
    """
    nrm = h2_norm(x)
    if abs(nrm - 1.0) > TOL_UNIT_NORM:
        raise NotUnitNorm(f"norm {nrm} is not 1 within {TOL_UNIT_NORM}")
    g = trig_from_modulus_squared(x.f)
    fac = inner_outer(lift(g, x.n))
    if fac.inner.is_trivial:
        return Decomposition(rigid=True)
    g = trig_scale(g, 1.0 / g.mean)
    cert = split_nonextreme(g, x.n)
    return Decomposition(rigid=False, f1=cert.f1, f2=cert.f2, split=cert)


# ---------------------------------------------------------------------------
# Enumeration of all kernel elements with prescribed modulus
# ---------------------------------------------------------------------------

def enumerate_solutions(g: TrigPoly, n: int) -> list[KernelElement]:
    """Every f in the order-n model space with |f|^2 = g, up to phase.

    The list is the spectral factor times each inner divisor of the lift's
    inner part, so its length is (m0 + 1) * prod(mult_i + 1).  Each element
    is normalized so its lowest nonzero coefficient is real positive, which
    makes the representatives pairwise distinct.
    """
    if g.is_null:
        raise NullInput("the zero function: every solution is the zero element")
    if g.effective_band > n:
        raise BandExceeded(
            f"band limit {g.effective_band} exceeds model order {n}")
    cert = nonneg_check(g)
    if not cert.nonnegative:
        raise NotNonnegative("the prescribed modulus is not nonnegative")

    base = fejer_riesz(g)
    inner = inner_outer(lift(g, n)).inner
    out = []
    for j in divisors(inner):
        f = blaschke_mul_poly(base, j)
        out.append(KernelElement(n, _normalize_lowest(f)))
    return out


def _normalize_lowest(f: Poly) -> Poly:
    """f rotated so its lowest nonzero coefficient c is real positive; c is
    then set to its modulus, which the rotation leaves only up to rounding."""
    for k, c in enumerate(f.coeffs):
        if c != 0:
            rotated = f.scaled(c.conjugate() / abs(c)).coeffs
            return Poly(rotated[:k] + (complex(abs(rotated[k])),)
                        + rotated[k + 1:])
    return f


# ---------------------------------------------------------------------------
# Rigidity under domination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityResult:
    kind: str                   # CONSTANT_MULTIPLE | NOT_DOMINATED | COUNTEREXAMPLE
    constant: complex | None = None
    witness: complex | None = None   # circle zero where domination fails
    remainder: float | None = None

    CONSTANT_MULTIPLE = "CONSTANT_MULTIPLE"
    NOT_DOMINATED = "NOT_DOMINATED"
    COUNTEREXAMPLE = "COUNTEREXAMPLE"


def rigidity_check(g: TrigPoly, n: int, x: KernelElement, *,
                   tol_remainder: float = TOL_REMAINDER) -> RigidityResult:
    """For outer lift, a dominated kernel element is c times the spectral factor.

    Domination (finiteness of the integral of |f|/sqrt(g)) is decided by an
    exact multiplicity rule: at a circle zero of g with multiplicity 2m
    (``_circle_zeros``) the integrand behaves like |z - zeta|**(k - m)
    where k is f's zero multiplicity there, integrable iff k >= m.  No
    mean-1 hypothesis is needed, so this check bypasses the membership
    test on purpose.

    A COUNTEREXAMPLE result (dominated but not a constant multiple) is
    impossible when the implementation is correct; returning it signals an
    internal bug, never a property of the input.
    """
    if g.is_null:
        raise NullInput("rigidity needs a non-null modulus")
    cert = nonneg_check(g)
    if not cert.nonnegative:
        raise NotNonnegative("rigidity needs a nonnegative modulus")
    fac = inner_outer(lift(g, n))
    if not fac.inner.is_trivial:
        raise InnerFactorPresent(
            "the lift has a nontrivial inner factor; rigidity does not apply")

    base = fejer_riesz(g)
    if x.f.is_null:
        return RigidityResult(RigidityResult.CONSTANT_MULTIPLE, constant=0j,
                              remainder=0.0)

    f_roots = roots(x.f) if x.f.degree > 0 else None
    for t, m in _circle_zeros(g):   # not None: fejer_riesz paired them
        zc = complex(np.exp(1j * t))
        have = f_roots.multiplicity_near(zc, ROOT_MATCH_TOL) if f_roots else 0
        if have < m // 2:
            return RigidityResult(RigidityResult.NOT_DOMINATED, witness=zc)

    quo, rem = npp.polydiv(x.f.as_array(), base.as_array())
    scale = max(1.0, float(np.abs(x.f.as_array()).max()))
    rem_norm = float(np.abs(rem).max()) / scale
    nonconst = float(np.abs(quo[1:]).max()) / scale if len(quo) > 1 else 0.0
    if rem_norm > tol_remainder or nonconst > tol_remainder:
        return RigidityResult(RigidityResult.COUNTEREXAMPLE,
                              remainder=max(rem_norm, nonconst))
    return RigidityResult(RigidityResult.CONSTANT_MULTIPLE,
                          constant=complex(quo[0]), remainder=rem_norm)


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
    cert = nonneg_check(g)
    if not cert.nonnegative:
        raise NotNonnegative("baseline split needs a nonnegative function")
    if abs(g.mean - 1.0) > TOL_NORM:
        raise NotNormalized(f"mean {g.mean} != 1")
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
                        seed: int = 0,
                        ascent_rounds: int = 40) -> PerturbationSearch:
    """Largest mean-free band-n perturbation h with g +/- h >= 0.

    At an extreme point the only admissible h is zero, so the search is a
    negative certificate: it reports the largest sup-norm it could reach.
    Two routes decide it, and ``route`` names the one that did.

    circle_count: an exact count on g's circle zeros (``_circle_zeros``).
    When their even multiplicities add up to 2n and |g| <= nonneg_tol(g)
    at each zero, no perturbation survives: near a zero of order 2m, g
    behaves like |theta - t0|**2m, and |h| <= g forces the smooth h to
    vanish there to order 2m too.  So z**n h, of degree <= 2n, is
    divisible by the degree-2n circle part of the lift, which is z**n g up
    to a constant: h = c g, and the mean-free condition with mean(g) > 0
    gives c = 0.  This route returns 0 at once
    and draws no random numbers, so its certificate does not depend on
    ``seed``, ``trials`` or the BLAS thread count.  At n = 0 the count is
    vacuously 0 = 2n.

    sampled: otherwise (an unpaired odd zero or a short count, as when
    rounding returns a double circle zero as a reflected pair), a
    randomized search over ``trials`` directions plus ``ascent_rounds``
    rounds of coordinate ascent on SEARCH_GRID points (``grid_size`` on
    both routes); see ``_sampled_search``.  Its max_norm may differ in the
    last bits with the BLAS thread count.
    """
    if trials < 0 or ascent_rounds < 0:
        raise ValueError("trials and ascent_rounds must be nonnegative")
    circle = roots(lift(g, n)).on_circle
    zeros = _circle_zeros(g)
    if zeros is not None and _circle_count_decides(g, n, zeros):
        # n_constraints counts the grid the sampled route would have used
        return PerturbationSearch(
            max_norm=0.0, trials=trials, grid_size=SEARCH_GRID,
            n_constraints=SEARCH_GRID + (1 + 2 * len(_LADDER)) * len(circle),
            route=PerturbationSearch.CIRCLE_COUNT)
    return _sampled_search(g, n, circle, trials=trials, seed=seed,
                           grid_size=SEARCH_GRID, ascent_rounds=ascent_rounds)


def _circle_count_decides(g: TrigPoly, n: int, zeros: list) -> bool:
    """Circle multiplicities adding up to 2n, each at a zero of g.

    ``zeros`` are (angle, multiplicity) pairs, as from ``_circle_zeros``.
    """
    if sum(m for _, m in zeros) != 2 * n:
        return False
    return bool(np.all(np.abs(g.values([t for t, _ in zeros]))
                       <= nonneg_tol(g)))


# angular offsets of the refined constraint points on each side of a zero
_LADDER = np.array([10.0 ** (-k) for k in range(3, 10)])


def _sampled_search(g: TrigPoly, n: int, circle: tuple, *, trials: int,
                    seed: int, grid_size: int,
                    ascent_rounds: int) -> PerturbationSearch:
    """Randomized search for the largest admissible perturbation.

    Constraints are linear in h (|h| <= g pointwise) and are imposed on a
    uniform grid augmented with points geometrically accumulating at the
    circle zeros of g, the lift's roots ``circle``.  The refinement
    matters: a sign dip caused by a first-order perturbation near a double
    zero of g is quadratically narrow, so a uniform grid alone admits
    perturbations up to about a quarter of the grid spacing, orders of
    magnitude above the scale this certificate needs to exclude.

    Each block of random candidate directions passes three stages, and a
    candidate is dropped as soon as it cannot beat the best norm so far:

    1. zeros of g: the cheap-set points where g evaluates to exactly 0.  A
       direction that does not vanish at one of them has |h|/g = inf there,
       so its admissible step, and with it its reachable norm, is exactly
       0.  Such a candidate can never beat the incumbent (which is >= 0),
       so this stage only drops candidates that stage 2 would reject too.
       At an extreme point g has double zeros on the circle, and at many
       of the refined zero angles it rounds to 0, so this stage usually
       drops every random direction after one narrow product.
    2. the cheap set: the refined points near the zeros plus the 64
       lowest uniform points bound the reachable norm from above.
    3. the full grid, one candidate at a time, for the candidates whose
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
    basis_zero = basis_cheap[:, np.isinf(inv_cheap)]

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
        if basis_zero.shape[1]:
            coeff_block = coeff_block[
                ~(coeff_block @ basis_zero).real.any(axis=1)]
            if not len(coeff_block):
                return
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
    for _ in range(ascent_rounds):
        base_dir = best_dir / max(np.abs(best_dir).max(), 1e-300)
        consider(base_dir[None, :] + 0.3 * (
            rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))))

    return PerturbationSearch(
        max_norm=best_norm, trials=trials, grid_size=grid_size,
        n_constraints=len(points))
