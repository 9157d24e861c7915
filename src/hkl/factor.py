"""Inner-outer factorization, spectral factorization, Blaschke algebra.

For a polynomial the inner factor is a finite Blaschke product over its
zeros in the open unit disk (powers of z included) and the outer factor is
what remains after each disk zero a is traded for the reflected factor
(1 - conj(a) z).  Phase convention throughout: the outer part takes a real
positive value at 0 and all phase lives in the Blaschke product's unimodular
constant, which turns "unique up to a unimodular constant" into plain
equality in tests.

The spectral factorization (``fejer_riesz``) starts from the roots on
purpose: the root picture is what certificates are made of, and it handles
zeros on the circle, which the cepstral method in :mod:`hkl.numeric`
cannot.  Roots of the lift are only as accurate as their conditioning
allows, so the root-built factor is then polished by Gauss-Newton steps on
the coefficient equation |F|^2 = g (Wilson, SIAM J. Numer. Anal. 6, 1969),
which brings the residual down to the rounding level of the input.  The two
paths cross-validate each other on strictly positive inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (NotDivisible, NotNonnegative, NullInput,
                     OddCircleMultiplicity, PairingFailure, PoleHit)
from .polycore import (EPS_CIRCLE, ORIGIN_TOL, Poly, Region, TrigPoly,
                       _horner, lift, nonneg_check, refine_circle_angle,
                       roots, self_inversive_phase, synthetic_divide,
                       trig_scale)

PAIR_TOL = 1e-6      # relative tolerance for matching reflected zero pairs
TOL_DIVIDE = 1e-9    # relative remainder bound for Blaschke-denominator division
POLE_TOL = 1e-12


@dataclass(frozen=True)
class BlaschkeProduct:
    """lambda * z**m0 * prod ((z - a) / (1 - conj(a) z))**mult.

    Zeros satisfy 0 < |a| <= 1 - EPS_CIRCLE and |lambda| = 1; the boundary
    modulus is therefore 1 everywhere on the circle.
    """

    m0: int = 0
    zeros: tuple = ()   # ((a, multiplicity), ...)
    lam: complex = 1.0 + 0j

    def __post_init__(self):
        if self.m0 < 0:
            raise ValueError("m0 must be nonnegative")
        lam = complex(self.lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError("lambda must be unimodular")
        zs = []
        for a, m in self.zeros:
            a = complex(a)
            m = int(m)
            if m < 1:
                raise ValueError("zero multiplicities must be positive")
            if not 0 < abs(a) <= 1.0 - EPS_CIRCLE:
                raise ValueError("Blaschke zeros must lie strictly inside the disk")
            zs.append((a, m))
        zs.sort(key=lambda t: (t[0].real, t[0].imag))
        object.__setattr__(self, "zeros", tuple(zs))
        object.__setattr__(self, "lam", lam)

    @property
    def degree(self) -> int:
        return self.m0 + sum(m for _, m in self.zeros)

    @property
    def is_trivial(self) -> bool:
        return self.m0 == 0 and not self.zeros

    def numerator(self) -> Poly:
        num = Poly((self.lam,)).shifted(self.m0)
        for a, m in self.zeros:
            for _ in range(m):
                num = num * Poly((-a, 1))
        return num

    def denominator(self) -> Poly:
        den = Poly((1.0,))
        for a, m in self.zeros:
            for _ in range(m):
                den = den * Poly((1, -a.conjugate()))
        return den

    def __call__(self, zeta):
        return blaschke_eval(self, zeta)


def blaschke_eval(b: BlaschkeProduct, zeta):
    """Evaluate at a point or ndarray; raises PoleHit at reflected zeros."""
    z = np.asarray(zeta, dtype=complex)
    out = b.lam * z ** b.m0
    for a, m in b.zeros:
        den = 1.0 - a.conjugate() * z
        if np.any(np.abs(den) < POLE_TOL):
            raise PoleHit(f"evaluation at a pole of the factor with zero {a}")
        out = out * ((z - a) / den) ** m
    if np.ndim(zeta) == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class Factorization:
    inner: BlaschkeProduct
    outer: Poly


def inner_outer(p: Poly) -> Factorization:
    """Split p into a Blaschke product over its disk zeros and an outer part.

    Zeros on the circle stay in the outer part.  The outer part keeps p's
    coefficients as far as possible: each disk zero is divided out
    synthetically and the reflected factor is multiplied back in, rather
    than rebuilding the whole polynomial from computed roots.
    """
    if p.is_null:
        raise NullInput("cannot factor the zero polynomial")
    rs = roots(p)
    work = list(p.coeffs)
    m0 = 0
    inner_zeros = []
    for r in rs.inside:
        if abs(r.location) <= ORIGIN_TOL:
            m0 += r.multiplicity
            for _ in range(r.multiplicity):
                work = synthetic_divide(work, r.location)
            continue
        inner_zeros.append((r.location, r.multiplicity))
        a = r.location
        for _ in range(r.multiplicity):
            work = synthetic_divide(work, a)
            work = list(np.convolve(work, [1.0, -a.conjugate()]))

    value0 = work[0]
    if abs(value0) == 0:
        lam = 1.0 + 0j  # exhausted convention; cannot normalize a vanishing value
    else:
        lam = value0 / abs(value0)
    outer = Poly(work).scaled(1.0 / lam).coeffs
    # exactly real positive at 0, not up to the rounding of the rotation
    outer = Poly((complex(abs(outer[0])),) + outer[1:])
    inner = BlaschkeProduct(m0, tuple(inner_zeros), lam)
    return Factorization(inner, outer)


def fejer_riesz(g: TrigPoly) -> Poly:
    """The outer polynomial F with |F|^2 = g on the circle and F(0) > 0.

    Zeros of the lifted function come in pairs reflected across the circle;
    F keeps the representative outside (or on) the circle and takes half of
    each circle multiplicity, as ``_circle_zeros`` reads them: even, with
    odd zeros that ``nonneg_check`` did not confirm merged in pairs.

    This root-based start is then polished by Gauss-Newton steps on the
    coefficient equation |F|^2 = g (``_polish``), with the circle zeros
    kept exactly unimodular: the root picture fixes which factor is meant,
    the polish recovers the accuracy that the input coefficients allow.
    When a coefficient of g exceeds 1 in modulus (s = max |g_k| > 1), F is
    the factor of g / s times sqrt(s), so the polish works at unit scale;
    a nonnegative g with mean at most 1 has |g_k| <= 1 and is factored as
    it is.

    Raises NullInput for the zero function, NotNonnegative or
    OddCircleMultiplicity when nonnegativity fails (a confirmed sign change
    still raises), OddCircleMultiplicity when an odd number of unconfirmed
    odd circle zeros leaves one without a neighbour to merge with, and
    PairingFailure when an inside zero has no reflected partner.
    """
    if g.is_null:
        raise NullInput("the zero function has no spectral factor")
    scale = max(1.0, max(abs(c) for c in g.coeffs))
    if scale > 1.0:
        # near the top of the double range the polish's residual norms
        # overflow; the factor of g / scale times sqrt(scale) is the same F
        return fejer_riesz(trig_scale(g, 1.0 / scale)).scaled(math.sqrt(scale))
    cert = nonneg_check(g)
    if cert.odd_circle_roots:
        raise OddCircleMultiplicity(
            f"sign change at circle zero {cert.odd_circle_roots[0].location}")
    if not cert.nonnegative:
        raise NotNonnegative(
            f"min value {cert.min_value:.3e} at theta={cert.argmin_theta:.6f}")

    rs = roots(lift(g))
    inside = [r for r in rs.inside if abs(r.location) > ORIGIN_TOL]
    outside = list(rs.outside)

    # every inside zero must have its reflected partner outside
    for r in inside:
        mirror = 1.0 / r.location.conjugate()
        if not outside:
            raise PairingFailure(
                f"zero {r.location} has no reflected partner at all")
        match = min(outside, key=lambda s: abs(s.location - mirror))
        rel = abs(match.location - mirror) / max(1.0, abs(mirror))
        if rel > PAIR_TOL or match.multiplicity != r.multiplicity:
            raise PairingFailure(
                f"zero {r.location} has no reflected partner within {PAIR_TOL}")

    circle = _circle_zeros(g)
    if circle is None:
        raise OddCircleMultiplicity("an odd circle zero has no odd neighbour")
    cofactor = np.ones(1, dtype=complex)
    for r in outside:
        for _ in range(r.multiplicity):
            cofactor = np.convolve(cofactor, [-r.location, 1.0])
    angles = np.array([t for t, _ in circle])
    halves = np.array([m // 2 for _, m in circle], dtype=int)
    return _factor_from_zeros(g, cofactor, angles, halves)


def _factor_from_zeros(g: TrigPoly, cofactor: np.ndarray, angles: np.ndarray,
                       halves: np.ndarray) -> Poly:
    """The spectral factor of g with the given zeros, polished and normalized.

    F starts as cofactor(z) * prod (z - exp(i angle))**half, scaled to the
    mean of g, is polished on g's coefficients (``_polish``) and is
    returned with F(0) real positive: rotated, then set to its modulus.
    """
    coeffs = _assemble(cofactor, angles, halves)
    scale = math.sqrt(g.mean / float(np.vdot(coeffs, coeffs).real))
    coeffs = _polish(np.asarray(g.coeffs), cofactor * scale, angles, halves)
    value0 = coeffs[0]
    coeffs = coeffs * (value0.conjugate() / abs(value0))
    coeffs[0] = abs(coeffs[0])
    return Poly(tuple(coeffs))


def _circle_zeros(g: TrigPoly) -> list[tuple[float, int]] | None:
    """(angle, multiplicity) of each circle zero of g, every multiplicity
    even; None when an odd zero is left without a partner.

    The one reader of the multiplicities of lift(g)'s circle roots, for
    ``fejer_riesz`` and geometry's split, ``rigidity_check`` and
    ``perturbation_search``.  An odd multiplicity is rounding: a double
    zero came back as two simple ones.  Taken in angular order, odd zeros
    are merged in pairs across the arcs of smaller total length (the
    spurious dips are the short arcs) into one zero with the summed
    multiplicity.  Each angle is then refined on g (``refine_circle_angle``),
    far better conditioned than the lifted polynomial's root.  The merge
    does not confirm that g keeps its sign: the other callers reject
    confirmed sign changes first, and ``perturbation_search`` counts a zero
    only where |g| <= nonneg_tol(g), which a merge across a real sign change
    misses (cos theta: its two zeros merge at theta = 0, where g = 1).
    """
    on_circle = roots(lift(g)).on_circle
    zeros = [(float(np.angle(r.location)), r.multiplicity) for r in on_circle
             if r.multiplicity % 2 == 0]
    odd = sorted((float(np.angle(r.location)), r.multiplicity)
                 for r in on_circle if r.multiplicity % 2 == 1)
    k = len(odd)
    if k % 2 == 1:
        return None
    if k:
        gaps = [(odd[(i + 1) % k][0] - odd[i][0]) % (2.0 * math.pi)
                for i in range(k)]
        first = 0 if sum(gaps[0::2]) <= sum(gaps[1::2]) else 1
        for i in range(first, k + first, 2):
            (t1, m1), (_, m2) = odd[i % k], odd[(i + 1) % k]
            zeros.append((t1 + gaps[i % k] / 2.0, m1 + m2))
    return [(refine_circle_angle(g, t), m) for t, m in zeros]


def _assemble(cofactor: np.ndarray, angles: np.ndarray,
              halves: np.ndarray) -> np.ndarray:
    """Coefficients of cofactor(z) * prod (z - exp(i angle))**half."""
    out = cofactor
    for zc, m in zip(np.exp(1j * angles), halves):
        for _ in range(m):
            out = np.convolve(out, [-zc, 1.0])
    return out


POLISH_STEPS = 8


def _polish(target: np.ndarray, cofactor: np.ndarray, angles: np.ndarray,
            halves: np.ndarray) -> np.ndarray:
    """Gauss-Newton on F * F~ = lift(g), F = cofactor * prod (z - w_j)**m_j.

    The unknowns are the complex coefficients of the off-circle cofactor and
    one real angle per circle zero w_j = exp(i angle_j), so circle zeros
    stay exactly unimodular whatever the step.  The residual is the
    autocorrelation of F's coefficients minus g's (frequencies 0..n, the
    positive ones counted twice as in the full lift).  A step is accepted
    only if the residual goes down; the iteration stops at the first step
    that does not, or after POLISH_STEPS.  The phase of the cofactor does
    not change the residual; least squares takes the minimum-norm step,
    which leaves it alone.
    """
    n = len(target) - 1
    weight = np.full(n + 1, math.sqrt(2.0))
    weight[0] = 1.0

    def residual(coeffs: np.ndarray) -> np.ndarray:
        deg = len(coeffs) - 1
        auto = np.zeros(n + 1, dtype=complex)
        auto[:deg + 1] = np.correlate(coeffs, coeffs, "full")[deg:]
        r = (auto - target) * weight
        return np.concatenate([r.real, r[1:].imag])

    coeffs = _assemble(cofactor, angles, halves)
    res = residual(coeffs)
    norm = float(np.linalg.norm(res))
    for _ in range(POLISH_STEPS):
        if norm == 0.0:
            break
        step = np.linalg.lstsq(_jacobian(coeffs, cofactor, angles, halves, n,
                                         weight), -res, rcond=None)[0]
        nq = len(cofactor)
        cand_cofactor = cofactor + step[:nq] + 1j * step[nq:2 * nq]
        cand_angles = angles + step[2 * nq:]
        cand = _assemble(cand_cofactor, cand_angles, halves)
        cand_res = residual(cand)
        cand_norm = float(np.linalg.norm(cand_res))
        if not cand_norm < norm:
            break
        cofactor, angles, coeffs, res, norm = (
            cand_cofactor, cand_angles, cand, cand_res, cand_norm)
    return coeffs


def _jacobian(coeffs: np.ndarray, cofactor: np.ndarray, angles: np.ndarray,
              halves: np.ndarray, n: int, weight: np.ndarray) -> np.ndarray:
    """Real Jacobian of ``_polish``'s residual, one column per real unknown.

    A change dc of F's coefficients changes the autocorrelation by
    a_k = sum_j dc_{j+k} conj(c_j) + c_{j+k} conj(dc_j); the columns of dc
    are shifted copies of the circle part (cofactor coefficients, real and
    imaginary) and -i m_j w_j F / (z - w_j) (angles).
    """
    deg = len(coeffs) - 1
    nq = len(cofactor)
    circle_part = _assemble(np.ones(1, dtype=complex), angles, halves)
    rows = np.arange(deg + 1)[:, None]
    shift = rows - np.arange(nq)[None, :]
    toeplitz = np.where((shift >= 0) & (shift < len(circle_part)),
                        circle_part[np.clip(shift, 0, len(circle_part) - 1)],
                        0.0)
    cols = [toeplitz, 1j * toeplitz]
    if len(angles):
        w = np.exp(1j * angles)
        # F / (z - w_j) for all j at once, by synthetic division top-down
        quo = np.zeros((deg + 1, len(w)), dtype=complex)
        carry = np.full(len(w), coeffs[deg])
        for k in range(deg - 1, -1, -1):
            quo[k] = carry
            carry = coeffs[k] + w * carry
        cols.append(quo * (-1j * halves * w)[None, :])
    dc = np.concatenate(cols, axis=1)

    k = np.arange(n + 1)[:, None]
    j = np.arange(deg + 1)[None, :]
    padded = np.concatenate([coeffs, np.zeros(n + 1, dtype=complex)])
    lag = j - k
    left = np.where(lag >= 0, np.conj(coeffs[np.clip(lag, 0, deg)]), 0.0)
    right = padded[j + k]
    jac = (left @ dc + right @ np.conj(dc)) * weight[:, None]
    return np.concatenate([jac.real, jac[1:].imag])


def divisors(inner: BlaschkeProduct) -> list[BlaschkeProduct]:
    """All inner divisors of a finite Blaschke product, lambda = 1 for each.

    There are (m0 + 1) * prod(mult_i + 1) of them, including the trivial
    divisor and the full product; the order is deterministic.
    """
    ranges = [range(inner.m0 + 1)]
    ranges.extend(range(m + 1) for _, m in inner.zeros)
    out = []
    for combo in itertools.product(*ranges):
        zeros = tuple((a, k) for (a, _), k in zip(inner.zeros, combo[1:]) if k)
        out.append(BlaschkeProduct(combo[0], zeros, 1.0))
    return out


MIRROR_MATCH_TOL = 1e-5


def _newton_refine(coeffs: list[complex], start: complex) -> complex:
    c = np.asarray(coeffs, dtype=complex)
    cl, dcl = c.tolist(), npp.polyder(c).tolist()
    r = start
    for _ in range(6):
        zr = complex(r)
        dv = _horner(dcl, zr)
        if dv == 0:
            break
        step = np.complex128(_horner(cl, zr)) / dv
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        r = r - step
        if abs(step) <= 1e-15 * (1.0 + abs(r)):
            break
    return r


def blaschke_mul_poly(f: Poly, j: BlaschkeProduct) -> Poly:
    """The product f * j as a polynomial.

    Requires the denominator of j to divide f: each Blaschke zero of j must
    be mirrored by a zero of f at the reflected point 1/conj(a); otherwise
    the product is genuinely rational and NotDivisible is raised.  The
    division deflates f at its own refined root near each reflected point
    (never at the constructed point itself), which keeps the remainder at
    the residual level instead of amplifying the zero-location noise.

    A self-inversive f (a lift z**n g, say) has the zero a wherever it has
    1/conj(a), and takes another path: with f = z**s p, p = prod (z - a) q
    and conj-reversed p equal to mu * p, the quotient p / prod (1 - conj(a) z)
    is the conj-reversed q divided by mu.  So f is deflated at the Blaschke
    zeros a themselves, the same deflation ``inner_outer`` makes to build
    the outer part, and the product agrees with that outer part to rounding
    even where the zero a is ill-conditioned.  The remainder of each
    deflation is checked against TOL_DIVIDE as on the general path.
    """
    if f.is_null:
        return Poly()
    if j.zeros:
        c = f.as_array()
        s = int(np.flatnonzero(c)[0])
        mu = self_inversive_phase(c[s:]) if len(c) - s > 1 else None
        if mu is not None:
            work = list(c[s:])
            for a, mult in j.zeros:
                for _ in range(mult):
                    _check_remainder(work, a)
                    work = synthetic_divide(work, a)
            quo = Poly(tuple(np.conj(work[::-1]) / mu)).shifted(s)
            return quo * j.numerator()
    work = list(f.coeffs)
    constant = 1.0 + 0j
    for a, mult in j.zeros:
        target = 1.0 / a.conjugate()
        constant *= (-a.conjugate()) ** mult   # (1 - conj(a) z) = -conj(a)(z - 1/conj(a))
        for _ in range(mult):
            r = _newton_refine(work, target)
            if abs(r - target) > MIRROR_MATCH_TOL * max(1.0, abs(target)):
                raise NotDivisible(
                    f"no zero of the factor near the reflected point {target}")
            _check_remainder(work, r)
            work = synthetic_divide(work, r)
    quo = Poly(work).scaled(1.0 / constant)
    return quo * j.numerator()


def _check_remainder(work: list[complex], r: complex) -> None:
    """Raise NotDivisible unless (z - r) divides work to TOL_DIVIDE."""
    w = np.asarray(work, dtype=complex)
    rem = abs(_horner(w.tolist(), complex(r)))
    # backward-error scale at the deflation point
    scale = _horner(np.abs(w).tolist(), abs(complex(r)))
    if rem > TOL_DIVIDE * scale:
        raise NotDivisible(
            f"relative remainder {rem / scale:.3e} exceeds {TOL_DIVIDE:.1e}")
