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
cannot.  A g whose zeros all lie on the circle has them read from its
minima (``polycore.circle_count``) instead, with no root solve, and so has
the inner factor of its lift (``_analysis``).  Its products of linear
factors, like the Blaschke numerator, are expanded from their values by
one FFT (``_zero_poly``).  Roots of the lift are only as accurate as
their conditioning allows, so the root-built factor is then polished by
Gauss-Newton steps on |F|^2 = g (Wilson, SIAM J. Numer. Anal. 6, 1969)
down to the rounding level of the input; a factor already there, as most
root-built ones are, takes no step.  The two paths cross-validate each
other on strictly positive inputs.

A product f * J whose poles f's zeros cancel is built from its values
f(zeta) J(zeta) on the circle, by one FFT for any number of inner divisors
J and with no deflation (``_inner_multiples``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotDivisible, NullInput, PairingFailure, PoleHit,
                     SelfCheckFailed)
from .polycore import (EPS_CIRCLE, Poly, RootSet, TrigPoly, _analysis,
                       _derivative, _l1, _polish as _newton_polish,
                       require_nonnegative, roots, synthetic_divide,
                       trig_from_modulus_squared)

TOL_DIVIDE = 1e-9    # relative tail bound of a product f * J built from values
POLE_TOL = 1e-12
# a returned spectral factor's round trip, relative to |g_0| + 2 sum |g_k|
TOL_SPECTRAL = 1e-7


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
        if not _is_int(self.m0) or self.m0 < 0:
            raise ValueError("m0 must be a nonnegative integer")
        lam = complex(self.lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError("lambda must be unimodular")
        zs = []
        for a, m in self.zeros:
            a = complex(a)
            if not _is_int(m) or m < 1:
                raise ValueError("multiplicities must be positive integers")
            if not 0 < abs(a) <= 1.0 - EPS_CIRCLE:
                raise ValueError("Blaschke zeros must lie strictly inside the disk")
            zs.append((a, int(m)))
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
        return Poly(tuple(self.fraction()[0]))

    def denominator(self) -> Poly:
        """prod (1 - conj(a) z)**mult: the conjugated reverse of the
        numerator's zero part."""
        return Poly(tuple(self.fraction()[1]))

    def fraction(self) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of numerator and denominator, from one
        expansion P = prod (z - a)**mult (``_zero_poly``): lambda z**m0 P,
        and the conjugated reverse of P zero-padded to the same length."""
        part = _zero_poly([a for a, _ in self.zeros],
                          [m for _, m in self.zeros])
        num = np.concatenate([np.zeros(self.m0, dtype=complex),
                              self.lam * part])
        return num, np.pad(np.conj(part[::-1]), (0, self.m0))

    def __call__(self, zeta):
        return blaschke_eval(self, zeta)


def _is_int(v) -> bool:
    """An integer, numpy's included; ``True`` and ``False`` are not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@functools.lru_cache(maxsize=32)
def _unit_grid(size: int) -> np.ndarray:
    """exp(2 pi i j / size) for j = 0..size-1, one read-only table per
    size; the expanders take their grid from it instead of one np.exp of
    the whole grid per call."""
    zeta = np.exp(2j * np.pi * np.arange(size) / size)
    zeta.flags.writeable = False
    return zeta


def _zero_poly(zeros, mults) -> np.ndarray:
    """prod (z - a)**m over zeros a with multiplicities m, leading 1
    exactly: the one expander of a product of linear factors.

    The coefficients are one FFT of the values on a power-of-two grid of at
    least 2(k + 1) points, k = sum m (Calvetti & Reichel, Numer. Algorithms
    33, 2003), so each errs by about eps times the maximum on the circle.
    A chained np.convolve has no such bound: the partial products of zeros
    spread in angle, on the circle or outside it, grow and cancel.  Relative
    round trips of unpolished factors, chained against by values: 6.9e-2
    against 8.8e-15 for 64 jittered circle zeros, 9.8 against 1.3e-14 for
    the 80 outside zeros of a flat g.  The empty product is [1] exactly, as
    the FFT gives it.
    """
    points = np.repeat(np.asarray(zeros, dtype=complex),
                       np.asarray(mults, dtype=int))
    k = len(points)
    if not k:
        return np.array([1 + 0j])    # the empty product, no FFT
    size = 1 << (2 * k + 1).bit_length()
    vals = (_unit_grid(size)[:, None] - points).prod(axis=1)
    coeffs = np.fft.fft(vals, norm="forward")[:k + 1]
    coeffs[k] = 1.0
    return coeffs


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


def _inner_part(found: RootSet) -> BlaschkeProduct:
    """The Blaschke product over the disk roots of ``found``, lambda = 1:
    the one reader of an inner factor from roots, for ``inner_outer`` and
    for a lift whose circle count declines (``polycore._analysis``)."""
    inside = found.inside     # near-origin roots come folded to 0j
    return BlaschkeProduct(
        sum(r.multiplicity for r in inside if r.location == 0),
        tuple((r.location, r.multiplicity) for r in inside if r.location))


def inner_outer(p: Poly) -> Factorization:
    """Split p into a Blaschke product over its disk zeros and an outer part.

    The inner factor is ``_inner_part(roots(p))`` with a phase (``roots``
    raises NullInput for the zero polynomial), and the outer part is
    ``_factorization(p, inner)``'s.
    """
    return _factorization(p, _inner_part(roots(p)))


def _factorization(p: Poly, inner: BlaschkeProduct) -> Factorization:
    """p's factorization, given its inner factor with lambda = 1.

    The outer part, which circle zeros stay in, keeps p's coefficients as
    far as possible rather than rebuilding p from computed roots: the
    powers of z are sliced off, and each other disk zero is divided out
    synthetically and its reflected factor multiplied back in.  The phase
    lambda makes the outer part real positive at 0.
    """
    work = list(p.coeffs[inner.m0:])
    for a, m in inner.zeros:
        for _ in range(m):
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
    return Factorization(BlaschkeProduct(inner.m0, inner.zeros, lam), outer)


@dataclass(frozen=True)
class SpectralFactor:
    """A spectral factor and the relative round trip that accepted it."""

    factor: Poly
    residual: float     # round trip / (|g_0| + 2 sum |g_k|), <= TOL_SPECTRAL


def spectral_factor(g: TrigPoly) -> SpectralFactor:
    """The outer polynomial F with |F|^2 = g on the circle and F(0) > 0.

    Zeros of the lifted function come in pairs reflected across the circle;
    F keeps the representative outside (or on) the circle and takes half of
    each circle multiplicity, as ``_analysis`` reads them.

    The outside roots make the cofactor, which is 1 with no root solved
    when ``circle_count(g)`` finds all of g's zeros on the circle;
    ``_factor_from_zeros``, the builder the split halves share, adds the
    circle part (both expanded by ``_zero_poly``), polishes F on
    |F|^2 = g to g's rounding floor and accepts it by its relative round
    trip, which the record carries as ``residual``.  When s = max |g_k|
    > 1, F is the factor of g / s times sqrt(s), accepted on g / s, so the
    polish works at unit scale; a nonnegative g with mean at most 1 has
    |g_k| <= 1 and is factored as it is.

    Raises NullInput for the zero function, NotNonnegative when
    ``nonneg_check(g)`` finds a point where g < -tol (the error names that
    value and tolerance in g's units), PairingFailure when an odd circle
    zero is left or the outside roots would give F a
    degree above g's band, and SelfCheckFailed when the relative round
    trip exceeds TOL_SPECTRAL.  F is judged by what was built alone: the
    inside roots are not read, and a lift whose roots do not pair shows it
    in F's degree or round trip.

    Factor and round trip are a field of g's analysis record
    (``polycore._analysis``), built once per g.  Errors are not memoized.
    """
    require_nonnegative(g)
    return _analysis(g).spectral


def fejer_riesz(g: TrigPoly) -> Poly:
    """The outer F with |F|^2 = g and F(0) > 0 of ``spectral_factor(g)``."""
    # not through spectral_factor: a traced fejer_riesz times the build
    require_nonnegative(g)
    return _analysis(g).spectral.factor


def _spectral_build(a) -> SpectralFactor:
    """``spectral_factor(g)`` for the analysis record a of a nonnegative g:
    the factor of unit = g / s times sqrt(s), round trip relative to unit."""
    g = a.unit
    if g.is_null:
        raise NullInput("the zero function has no spectral factor")
    # every zero of the lift on the circle: the cofactor is 1
    outside = () if a.minima is not None else a.lift_roots.outside
    cofactor = _zero_poly([r.location for r in outside],
                          [r.multiplicity for r in outside])
    f, resid = _factor_from_zeros(g, cofactor, a.circle_factor, False)
    if a.scale > 1.0:
        # near the top of the double range the polish's residual norms
        # overflow, so F is built for unit; times sqrt(s) it is g's F
        f = f.scaled(math.sqrt(a.scale))
    return SpectralFactor(f, resid / _l1(g))


def _round_trip(f: Poly, g: TrigPoly) -> float:
    """sum over |k| <= n of |(|f|^2)_k - g_k|, which bounds |f|^2 - g on
    the whole circle."""
    back = trig_from_modulus_squared(f)
    size = max(back.n, g.n) + 1
    have, want = np.zeros(size, dtype=complex), np.zeros(size, dtype=complex)
    have[:back.n + 1] = back.coeffs
    want[:g.n + 1] = g.coeffs
    diff = np.abs(have - want)
    return float(diff[0] + 2.0 * diff[1:].sum())


def _circle_factor(zeros: tuple | None) -> tuple | None:
    """(angles, halves, part) of circle zeros (t, m), m even: the angles t,
    the half multiplicities m/2 and part = prod (z - exp(i t))**(m/2) by
    ``_zero_poly``, all read-only; None for None (an odd circle zero is
    left).  The builder takes them in this form, so g's analysis record
    expands g's circle part once for its F and both split halves."""
    if zeros is None:
        return None
    angles = np.array([t for t, _ in zeros])
    halves = np.array([m // 2 for _, m in zeros], dtype=int)
    part = _zero_poly(np.exp(1j * angles), halves)
    for table in (angles, halves, part):
        table.flags.writeable = False
    return angles, halves, part


def _factor_from_zeros(g: TrigPoly, cofactor: np.ndarray,
                       circle: tuple | None,
                       self_inversive: bool) -> tuple[Poly, float]:
    """The spectral factor of g with the given zeros, and its round trip.

    The one builder and acceptance rule of every spectral factor, for
    ``fejer_riesz`` and for the halves of ``geometry.split_nonextreme``.
    F starts as cofactor(z) * prod (z - exp(i t))**(m/2) over the circle
    zeros (t, m) that ``circle`` holds in ``_circle_factor``'s form (as
    ``_analysis`` reads and expands them), scaled to the mean of g, is
    polished on g's coefficients (``_polish``, down to the floor
    eps * (|g_0| + 2 sum |g_k|)) and is returned with F(0) real positive:
    rotated, then set to its modulus.  The circle part comes expanded and
    is handed to the polish, so a start at the floor expands nothing and
    builds no Jacobian.

    ``self_inversive`` says that the cofactor is built self-inversive, as
    a split half's lam N +/- D is (``geometry._split_half``), and then so
    is F: F* = mu F, F* the conjugated reverse.  The polish moves the
    cofactor freely and can push its circle zeros off the circle, so F is
    projected back, F -> (F + conj(mu) F*) / 2 with mu the phase of
    <F, F*>.  Circle zeros outside the cofactor move by their angles alone
    and stay on it.  ``fejer_riesz``'s cofactor, of outside roots, is not
    self-inversive.

    Raises PairingFailure when ``circle`` is None (an odd circle zero is
    left) or F's degree would exceed g's band n, and SelfCheckFailed when
    F's round trip (``_round_trip``) over |g_0| + 2 sum |g_k| exceeds
    TOL_SPECTRAL: no factor that misses g is returned.
    """
    if circle is None:
        raise PairingFailure("an odd circle zero is left unmerged")
    angles, halves, circle_part = circle
    degree = len(cofactor) - 1 + int(halves.sum())
    if degree > g.n:
        raise PairingFailure(
            f"the factor's degree {degree} exceeds the band {g.n} of g")
    start = np.convolve(cofactor, circle_part)
    scale = math.sqrt(g.mean / float(np.vdot(start, start).real))
    l1 = _l1(g)
    coeffs = _polish(np.asarray(g.coeffs), cofactor * scale, circle_part,
                     angles, halves, np.finfo(float).eps * l1)
    if self_inversive:
        star = np.conj(coeffs[::-1])
        mu = np.vdot(coeffs, star)
        coeffs = (coeffs + (mu.conjugate() / abs(mu)) * star) / 2
    value0 = coeffs[0]
    coeffs = coeffs * (value0.conjugate() / abs(value0))
    coeffs[0] = abs(coeffs[0])
    f = Poly(tuple(coeffs.tolist()))
    resid = _round_trip(f, g)
    if not resid / l1 <= TOL_SPECTRAL:
        raise SelfCheckFailed(f"the factor's round trip {resid:.3e} "
                              f"exceeds {TOL_SPECTRAL * l1:.1e}")
    return f, resid


POLISH_STEPS = 8


def _polish(target: np.ndarray, cofactor: np.ndarray,
            circle_part: np.ndarray, angles: np.ndarray, halves: np.ndarray,
            floor: float) -> np.ndarray:
    """Gauss-Newton on F * F~ = lift(g), F = cofactor * prod (z - w_j)**m_j.

    The unknowns are the complex coefficients of the off-circle cofactor and
    one real angle per circle zero w_j = exp(i angle_j), so circle zeros
    stay exactly unimodular whatever the step.  ``circle_part`` is
    prod (z - w_j)**m_j by ``_zero_poly``; a step with angles to move
    expands it again.  The residual is the
    autocorrelation of F's coefficients minus g's (frequencies 0..n, the
    positive ones counted twice as in the full lift).  A step is accepted
    only if the residual goes down.  The iteration stops at the first of
    three events:
    - the residual's 2-norm is at most ``floor``, tested before the first
      Jacobian and after each accepted step.  The builder passes one
      rounding unit of g's scale, eps * (|g_0| + 2 sum |g_k|): below it a
      step only reshuffles rounding, and since the 2-norm bounds the
      round trip up to sqrt(2n + 1), F is then 1e4 or more under every
      acceptance tolerance even at n = 1024;
    - a step that does not lower the residual, which is discarded;
    - POLISH_STEPS accepted steps.
    A start that is already at the floor costs one residual and no
    Jacobian.  The phase of the cofactor does not change the residual;
    least squares takes the minimum-norm step, which leaves it alone.
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

    coeffs = np.convolve(cofactor, circle_part)
    res = residual(coeffs)
    norm = float(np.linalg.norm(res))
    nq = len(cofactor)
    for _ in range(POLISH_STEPS):
        if norm <= floor:
            break
        layout = _jacobian_layout(n, len(coeffs) - 1, nq, len(circle_part))
        step = np.linalg.lstsq(_jacobian(coeffs, circle_part, angles, halves,
                                         weight, layout),
                               -res, rcond=None)[0]
        cand_cofactor = cofactor + step[:nq] + 1j * step[nq:2 * nq]
        cand_angles = angles + step[2 * nq:]
        cand_circle = (_zero_poly(np.exp(1j * cand_angles), halves)
                       if len(angles) else circle_part)
        cand = np.convolve(cand_cofactor, cand_circle)
        cand_res = residual(cand)
        cand_norm = float(np.linalg.norm(cand_res))
        if not cand_norm < norm:
            break
        cofactor, angles, circle_part = cand_cofactor, cand_angles, cand_circle
        coeffs, res, norm = cand, cand_res, cand_norm
    return coeffs


@functools.lru_cache(maxsize=64)
def _jacobian_layout(n: int, deg: int, nq: int, ncircle: int) -> tuple:
    """The index structure of ``_jacobian``, fixed through one polish and
    built only when a polish takes a step: one read-only table per shape,
    as ``_unit_grid`` is per size.  A pinned benchmark pass takes 268 to
    359 steps in 22 to 55 shapes, and a build costs about 26 us there.
    A shape's tables take 1.7 MB at n = deg = 256 and 27 MB at 1024,
    where one step's Jacobian and its complex form take 67 MB.

    It depends only on g's band n, F's degree deg, the cofactor's length nq
    and the circle part's length ncircle: the band of the Toeplitz block
    and its clipped indices, the lags j - k of the left factor with their
    mask and clipped indices, the sums j + k of the right one, and the
    zero pad that makes those sums valid indices.
    """
    shift = np.arange(deg + 1)[:, None] - np.arange(nq)[None, :]
    in_band = (shift >= 0) & (shift < ncircle)
    k = np.arange(n + 1)[:, None]
    j = np.arange(deg + 1)[None, :]
    lag = j - k
    layout = (in_band, np.clip(shift, 0, ncircle - 1), lag >= 0,
              np.clip(lag, 0, deg), j + k, np.zeros(n + 1, dtype=complex))
    for table in layout:
        table.flags.writeable = False
    return layout


def _jacobian(coeffs: np.ndarray, circle_part: np.ndarray,
              angles: np.ndarray, halves: np.ndarray, weight: np.ndarray,
              layout: tuple) -> np.ndarray:
    """Real Jacobian of ``_polish``'s residual, one column per real unknown.

    A change dc of F's coefficients changes the autocorrelation by
    a_k = sum_j dc_{j+k} conj(c_j) + c_{j+k} conj(dc_j); the columns of dc
    are shifted copies of ``circle_part`` (cofactor coefficients, real and
    imaginary) and -i m_j w_j F / (z - w_j) (angles).  ``layout`` is
    ``_jacobian_layout``'s index structure for these sizes.
    """
    in_band, shift, ahead, lag, sums, pad = layout
    deg = len(coeffs) - 1
    toeplitz = np.where(in_band, circle_part[shift], 0.0)
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

    left = np.where(ahead, np.conj(coeffs[lag]), 0.0)
    right = np.concatenate([coeffs, pad])[sums]
    jac = (left @ dc + right @ np.conj(dc)) * weight[:, None]
    return np.concatenate([jac.real, jac[1:].imag])


def divisors(inner: BlaschkeProduct) -> list[BlaschkeProduct]:
    """All inner divisors of a finite Blaschke product, lambda = 1 for each.

    There are (m0 + 1) * prod(mult_i + 1) of them, including the trivial
    divisor and the full product, in the order of ``_divisor_exponents``.
    """
    return [BlaschkeProduct(combo[0], tuple(
        (a, k) for (a, _), k in zip(inner.zeros, combo[1:]) if k), 1.0)
        for combo in _divisor_exponents(inner)]


def _divisor_exponents(inner: BlaschkeProduct) -> list[tuple[int, ...]]:
    """(k0, k_1, ...) of each divisor z**k0 prod b_i**k_i of inner, in a
    deterministic order."""
    return list(itertools.product(range(inner.m0 + 1),
                                  *(range(m + 1) for _, m in inner.zeros)))


MIRROR_MATCH_TOL = 1e-5


def blaschke_mul_poly(f: Poly, j: BlaschkeProduct) -> Poly:
    """The product f * j as a polynomial, built from its values.

    Requires the denominator of j to divide f: each Blaschke zero a of j,
    of multiplicity m, must be mirrored by an m-fold zero of f at the
    reflected point 1/conj(a).  This is the one-divisor call of
    ``_inner_multiples``, which places that zero of f by Newton, never
    deflates f, and raises NotDivisible when the product's coefficients
    above deg f + j.m0 exceed TOL_DIVIDE times f's largest one: f * j is
    then rational, and f and j are the caller's own.  A j without zeros
    gives f shifted and times lambda exactly.
    """
    if f.is_null:
        return Poly()
    combo = [j.m0] + [m for _, m in j.zeros]
    return Poly(tuple(_inner_multiples(f, j, [combo])[0])).scaled(j.lam)


def _inner_multiples(f: Poly, inner: BlaschkeProduct,
                     combos) -> np.ndarray:
    """f * z**k0 * prod b_i**k_i for each row (k0, k_1, ...) of combos: one
    row of coefficients each, exactly 0 below k0 and above deg f + k0.

    f's zero r_i near 1/conj(a_i), for each zero a_i of inner of
    multiplicity m_i, is placed once by Newton on f's (m_i - 1)-th
    derivative, where it is simple (``polycore._polish``, as the root
    engine places a merged root).  b_i(z) = -r_i (z - 1/conj(r_i)) /
    (z - r_i) trades r_i for its mirror and has modulus 1 on the circle.
    f's values on a power-of-two grid of more than 2 (deg f + max k0 + 1)
    points come from one inverse FFT, and after each row multiplies in its
    factors one FFT gives every product's coefficients (Calvetti & Reichel,
    Numer. Algorithms 33, 2003), each to about eps times f's maximum on the
    circle however many zeros are traded.  A row without b_i is f shifted.
    Raises NotDivisible when a row's tail above deg f + k0, which only a
    product that is not a polynomial has, exceeds TOL_DIVIDE times f's
    largest coefficient.

    An inner factor without zeros, z**m0 alone, takes no FFT: every row is
    f shifted, the coefficients the FFT path writes over its rows.  With no
    b_i every product is a polynomial, so the tail check, which only the
    FFT's rounding could reach, cannot raise there.
    """
    c = f.as_array()
    combos = np.asarray(combos, dtype=int)
    low, top = combos[:, :1], len(c) - 1 + combos[:, :1]
    if not inner.zeros:
        out = np.zeros((len(combos), int(top.max()) + 1), dtype=complex)
        for row, k0 in zip(out, low[:, 0].tolist()):
            row[k0:k0 + len(c)] = c
        return out
    size = 1 << (2 * int(top.max()) + 2).bit_length()
    zeta = _unit_grid(size)
    rows = np.fft.ifft(c, size, norm="forward") * zeta ** low
    clist = c.tolist()
    for (a, m), ks in zip(inner.zeros, combos[:, 1:].T):
        target = 1.0 / a.conjugate()
        # q' from q is npp.polyder(c, m) bit for bit while m <= deg f;
        # past that, either derivative stops the polish before its step
        q = _derivative(clist, m - 1)
        r = complex(_newton_polish(target, q, _derivative(q, 1),
                                   MIRROR_MATCH_TOL * max(1.0, abs(target))))
        rows = rows * (-r * (zeta - 1.0 / r.conjugate())
                       / (zeta - r)) ** ks[:, None]
    out = np.fft.fft(rows, axis=1, norm="forward")
    k = np.arange(size)
    tail = float(np.abs(np.where(k > top, out, 0)).max()) / np.abs(c).max()
    if tail > TOL_DIVIDE:
        raise NotDivisible(f"relative tail {tail:.3e} of the product "
                           f"exceeds {TOL_DIVIDE:.1e}")
    out[(k < low) | (k > top)] = 0
    for i in np.flatnonzero(~combos[:, 1:].any(axis=1)):
        out[i, low[i, 0]:top[i, 0] + 1] = c
    return out[:, :int(top.max()) + 1]
