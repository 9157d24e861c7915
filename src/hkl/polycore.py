"""Complex polynomial and trigonometric-polynomial arithmetic.

Everything downstream (factorization, model-space geometry, certificates)
is built on two value types:

* ``Poly``     - polynomial in z with complex coefficients, lowest power first;
                 the zero polynomial is the empty coefficient list.
* ``TrigPoly`` - real-valued trigonometric polynomial on the unit circle,
                 stored through its nonnegative-frequency coefficients only
                 (negative frequencies implied by Hermitian symmetry).

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.

The root finder is an Aberth-Ehrlich simultaneous iteration followed by a
single-linkage multiplicity clustering pass and a Newton polish on the
appropriate derivative.  Double zeros on the unit circle are ubiquitous in
this problem domain (every lifted nonnegative function has them), so the
clustering step is not an optimization: without it, coefficient noise splits
an exact double circle zero into a spurious inside/outside pair and the
inner-outer split becomes wrong.

The Aberth iteration starts from the eigenvalues of the companion
matrix.  They are the roots to a backward error near rounding, so the
iteration usually meets its convergence test on the first step; it takes
that step and stops.  Where the companion matrix is not finite, or its
eigenvalues are not all finite and nonzero, the points start on one
circle instead.  Each step evaluates p, z p' and the backward-error scale
with one power matrix; a point outside the unit circle goes through the
reversed powers of 1/z, so no power exceeds 1 in modulus.  The points of
a multiple root stay spread where the iteration stops; the clustering's
Newton polish places the root.  The polish and residual checks evaluate
at scalar points in plain Python (``_horner``), bit-identical to
``npp.polyval``.

Most points have no other point within CLUSTER_CAP; such a lone point is
a simple root whatever the merge tree, so it is polished directly and the
tree is built over the other points only.  A lift z**n g is exactly
self-inversive, so its off-circle zeros come in reflected pairs
(a, 1/conj(a)): of a pair of lone points only the inside one is
polished, and the outside root is its exact mirror.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (BandExceeded, NonConvergence, NotNonnegative, NullInput,
                     RootOverflow)

# Tolerance policy for the root engine.  EPS_CIRCLE is the dead band of the
# inside / on-circle / outside classification; the inner-outer split is
# discontinuous at |a| = 1, so a declared band keeps behavior deterministic.
EPS_CIRCLE = 1e-9
TOL_ROOT = 1e-12          # per-root residual target |p(a)| / scale
MAX_ROOT_ITER = 200
CLUSTER_CAP = 0.01        # nothing merges past this diameter, whatever the test says
MERGE_BACKWARD_TOL = 1e-10
ORIGIN_TOL = 1e-12        # roots this close to 0 count as powers of z


def _clean_coeffs(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    out = [complex(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    if not all(map(cmath.isfinite, out)):
        raise ValueError("coefficients must be finite")
    return tuple(out)


@dataclass(frozen=True)
class Poly:
    """sum(coeffs[k] * z**k); the zero polynomial has an empty tuple."""

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean_coeffs(self.coeffs))

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Largest power with nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_null(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> complex:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0j

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    # -- evaluation -----------------------------------------------------

    def __call__(self, z):
        if isinstance(z, np.ndarray):
            if self.is_null:
                return np.zeros(z.shape, dtype=complex)
            return npp.polyval(z, self.as_array())
        if self.is_null:
            return 0j
        return _horner(self.coeffs, complex(z))

    # -- algebra --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Poly):
            return poly_mul(self, other)
        return self.scaled(other)

    __rmul__ = __mul__

    def __add__(self, other: "Poly") -> "Poly":
        m = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(m)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scaled(-1)

    def __neg__(self) -> "Poly":
        return self.scaled(-1)

    def scaled(self, c: complex) -> "Poly":
        return Poly(tuple(complex(c) * a for a in self.coeffs))

    def shifted(self, k: int) -> "Poly":
        """Multiply by z**k (k >= 0); low coefficients stay exactly zero."""
        if self.is_null:
            return self
        return Poly((0j,) * k + self.coeffs)

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly()
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Coefficient convolution; degree adds, the zero polynomial absorbs."""
    if a.is_null or b.is_null:
        return Poly()
    return Poly(tuple(np.convolve(a.as_array(), b.as_array())))


def synthetic_divide(coeffs, a: complex) -> list[complex]:
    """Exact-degree quotient of division by (z - a); remainder discarded.

    The recurrence direction follows the root modulus: top-down amplifies
    rounding by |a| per step and bottom-up damps it by 1/|a|, so each is
    stable on its own side of the unit circle.
    """
    coeffs = list(coeffs)
    d = len(coeffs) - 1
    quo = [0j] * d
    if abs(a) <= 1.0:
        carry = coeffs[d]
        for k in range(d - 1, -1, -1):
            quo[k] = carry
            carry = coeffs[k] + a * carry
    else:
        carry = 0j
        for k in range(d):
            carry = (carry - coeffs[k]) / a
            quo[k] = carry
    return quo


# ---------------------------------------------------------------------------
# Trigonometric polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """Real function on the circle: sum over |k| <= n of coeff(k) * z**k.

    Only k = 0..n is stored.  coeff(-k) is defined as conj(coeff(k)), never
    recomputed, which keeps the Hermitian symmetry exact bit for bit.  The
    mean coefficient coeff(0) is stored with imaginary part exactly zero.
    """

    n: int
    coeffs: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("band limit must be nonnegative")
        cs = [complex(c) for c in self.coeffs]
        if len(cs) != self.n + 1:
            raise ValueError("need exactly n+1 coefficients (k = 0..n)")
        if not all(map(cmath.isfinite, cs)):
            raise ValueError("coefficients must be finite")
        scale = max(1.0, max(abs(c) for c in cs))
        if abs(cs[0].imag) > 1e-12 * scale:
            raise ValueError("mean coefficient must be real")
        cs[0] = complex(cs[0].real, 0.0)
        object.__setattr__(self, "coeffs", tuple(cs))

    def coeff(self, k: int) -> complex:
        if k < 0:
            k = -k
            if k > self.n:
                return 0j
            return self.coeffs[k].conjugate()
        if k > self.n:
            return 0j
        return self.coeffs[k]

    @property
    def mean(self) -> float:
        """The 0-th Fourier coefficient, i.e. the integral over the circle."""
        return self.coeffs[0].real

    @property
    def effective_band(self) -> int:
        """Largest k with an exactly nonzero coefficient (0 for the null function)."""
        for k in range(self.n, 0, -1):
            if self.coeffs[k] != 0:
                return k
        return 0

    @property
    def is_null(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def values(self, theta) -> np.ndarray:
        """Evaluate at angles theta; the result is real by symmetry."""
        th = np.asarray(theta, dtype=float)
        out = np.full(th.shape, self.coeffs[0].real)
        for k in range(1, self.n + 1):
            c = self.coeffs[k]
            if c != 0:
                out = out + 2.0 * (c * np.exp(1j * k * th)).real
        return out

    def grid_values(self, size: int) -> np.ndarray:
        """Values at theta_j = 2*pi*j/size by one real inverse FFT of the
        n + 1 stored coefficients, zero-padded; size must exceed 2n."""
        if size <= 2 * self.n:
            raise ValueError("grid too coarse for this band limit")
        return np.fft.irfft(np.array(self.coeffs), size) * size


def trig_scale(g: TrigPoly, s: float) -> TrigPoly:
    return TrigPoly(g.n, tuple(s * c for c in g.coeffs))


def trig_add(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    n = max(a.n, b.n)
    return TrigPoly(n, tuple(a.coeff(k) + b.coeff(k) for k in range(n + 1)))


def trig_mul(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    """Product of two real trig polynomials; the band limits add."""
    fa = np.array([a.coeff(k) for k in range(-a.n, a.n + 1)])
    fb = np.array([b.coeff(k) for k in range(-b.n, b.n + 1)])
    full = np.convolve(fa, fb)
    n = a.n + b.n
    out = [full[n + k] for k in range(n + 1)]
    out[0] = complex(out[0].real, 0.0)
    return TrigPoly(n, tuple(out))


def trig_from_modulus_squared(f: Poly) -> TrigPoly:
    """Boundary modulus squared of a polynomial, as a trig polynomial.

    coeff(k) = sum_j c[j+k] * conj(c[j]); the band limit is deg f and the
    mean is the squared l2 norm of the coefficients (Parseval, the same
    dot product bit for bit as ``kernel.h2_norm``).
    """
    if f.is_null:
        return TrigPoly(0, (0j,))
    c = f.as_array()
    cc = np.conj(c)
    n = f.degree
    coeffs = [complex(np.dot(c[k:], cc[: len(c) - k])) for k in range(n + 1)]
    # the mean is summed with fsum so it is independent of coefficient
    # order: the companion map then preserves it bit for bit
    coeffs[0] = complex(math.fsum(modulus_squared_terms(f)), 0.0)
    return TrigPoly(n, tuple(coeffs))


def modulus_squared_terms(f: Poly) -> list[float]:
    return [(c * c.conjugate()).real for c in f.coeffs]


def lift(g: TrigPoly, n: int | None = None) -> Poly:
    """The analytic lift z**n * g as a polynomial of degree <= 2n.

    The coefficient of z**(n+k) is coeff(k).  ``n`` defaults to the stored
    band limit; a larger model order is allowed (it prepends zeros, i.e.
    powers of z), a smaller one only when the high coefficients vanish.
    """
    if n is None:
        n = g.n
    _check_band(g.effective_band, n)
    arr = [0j] * (n + g.n + 1)
    for k in range(-g.n, g.n + 1):
        c = g.coeff(k)
        if c != 0:
            arr[n + k] = c
    return Poly(tuple(arr))


def _check_band(band: int, n: int) -> None:
    """BandExceeded unless a g of this ``effective_band`` lifts at order n."""
    if band > n:
        raise BandExceeded(
            f"frequency {-band} does not fit below model order {n}")


def unlift(p: Poly, n: int) -> TrigPoly:
    """Inverse of ``lift``: read z**(n+k) as frequency k and re-Hermitianize.

    Rounding noise can leave the two sides of the band slightly asymmetric;
    the returned function averages them, which is the nearest real function.
    """
    if p.degree > 2 * n:
        raise BandExceeded("degree exceeds 2n, cannot unlift at this order")
    coeffs = [complex((p.coeff(n + k) + p.coeff(n - k).conjugate()) / 2.0)
              for k in range(n + 1)]
    coeffs[0] = complex(p.coeff(n).real, 0.0)
    return TrigPoly(n, tuple(coeffs))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

class Region(str, Enum):
    INSIDE = "inside"
    ON_CIRCLE = "on_circle"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Root:
    location: complex
    multiplicity: int
    region: Region


@dataclass(frozen=True)
class RootSet:
    roots: tuple = ()

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def with_region(self, region: Region) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if r.region == region)

    @property
    def inside(self):
        return self.with_region(Region.INSIDE)

    @property
    def on_circle(self):
        return self.with_region(Region.ON_CIRCLE)

    @property
    def outside(self):
        return self.with_region(Region.OUTSIDE)

    def multiplicity_near(self, point: complex, tol: float) -> int:
        return sum(r.multiplicity for r in self.roots
                   if abs(r.location - point) <= tol)


SNAP_BAND = 1e-4   # self-inversive snap range; see _snap_self_inversive


def _classify(a: complex) -> Region:
    r = abs(a)
    if abs(r - 1.0) <= EPS_CIRCLE:
        return Region.ON_CIRCLE
    return Region.INSIDE if r < 1.0 else Region.OUTSIDE


def self_inversive_phase(c: np.ndarray) -> complex | None:
    """The lambda with conj(c[::-1]) = lambda * c and |lambda| = 1, or None.

    Such a polynomial is self-inversive: its zeros lie on the unit circle
    or in reflected pairs (a, 1/conj(a)).  The test is relative to the
    largest coefficient, at 1e-12.
    """
    rev = np.conj(c[::-1])
    k = int(np.argmax(np.abs(c)))
    lam = complex(rev[k] / c[k])
    if abs(abs(lam) - 1.0) > 1e-12:
        return None
    if float(np.abs(rev - lam * c).max()) > 1e-12 * float(np.abs(c).max()):
        return None
    return lam


def _snap_self_inversive(found: list[tuple[complex, int]], c: np.ndarray,
                         lam: complex) -> list[tuple[complex, int]]:
    """Place the near-circle roots of the self-inversive polynomial c.

    An m-fold circle root of c is an m-fold zero of its real function
    q(t) = sqrt(lam) e^(-idt/2) c(e^(it)), here at unit scale (g / max|g_k|
    for a lift z**n g; for odd degree d, q(2s), with integer frequencies).
    Rounding splits a double circle zero into two simple roots on or near
    the circle, but it is a simple zero of q'.  So each root within
    SNAP_BAND of the circle but off it, and each odd root on it, goes by
    Newton on q' from its angle (``refine_circle_angle``).  Roots that
    reach one angle, within EPS_CIRCLE, are one circle root with the summed
    multiplicity where |q| <= nonneg_tol(q), and a genuine reflected pair,
    kept, where |q| is larger.  A root alone at its angle is projected onto
    the circle.  Even roots on the circle are kept bit for bit.
    """
    out, spots = [], []
    for a, m in found:
        off = abs(abs(a) - 1.0)
        keep = off > SNAP_BAND or (off <= EPS_CIRCLE and m % 2 == 0)
        (out if keep else spots).append((a, m))
    if not spots:
        return out
    d = len(c) - 1
    step = 1 + d % 2
    qc = np.zeros(step * d // 2 + 1, dtype=complex)
    qc[d % 2::step] = np.sqrt(lam) * c[(d + 1) // 2:] / np.abs(c).max()
    q = TrigPoly(len(qc) - 1, tuple(qc))
    spots = [(a, m, step * refine_circle_angle(q, float(np.angle(a)) / step))
             for a, m in spots]
    while spots:
        hits = [abs(math.remainder(t - spots[0][2], 2.0 * math.pi))
                <= EPS_CIRCLE for _, _, t in spots]
        grp = [s for s, hit in zip(spots, hits) if hit]
        spots = [s for s, hit in zip(spots, hits) if not hit]
        a, m, t = grp[0]
        if len(grp) == 1:
            out.append((a if abs(abs(a) - 1) <= EPS_CIRCLE else a / abs(a), m))
        elif abs(float(q.values(t / step))) <= nonneg_tol(q):
            out.append((complex(np.exp(1j * t)), sum(s[1] for s in grp)))
        else:
            out.extend((a, m) for a, m, _ in grp)
    return out


def _aberth(c: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Simultaneous iteration on a deflated polynomial (c[0] != 0, deg >= 1).

    Returns the points.  They start at the eigenvalues of the companion
    matrix of c / max|c|, which are the roots to a backward error near
    rounding.  When that matrix is not finite (the leading coefficient
    tiny against the others), when ``eigvals`` raises ``LinAlgError``, or
    when it returns a non-finite or zero value, they start instead on one
    circle whose radius is the geometric mean of the root moduli,
    (|c0/cd|)^(1/d), at an angular offset that breaks symmetry locks.
    ``LinAlgError`` is a ``ValueError`` and must not escape: the CLI would
    report it as the caller's bad input.  A zero start would never move,
    as the correction below is a multiple of z.

    The iteration stops after the step on which every point meets the
    relative backward error |p(z)| <= tol * sum |c_k| |z|^k, or after
    max_iter steps.  At a multiple root the points then lie spread over its
    backward-error ball, and ``_cluster_points`` places the root.  The step
    taken after the test is kept: stopping before it leaves fewer clusters
    that the merge test accepts.

    Each step evaluates every point with one power matrix E.  A point z
    inside the unit circle has the row z^0..z^d; one outside has the powers
    of 1/z, reversed, so that column k holds z^(k-d) and no power exceeds 1
    in modulus.  E @ [c, k c] gives p z^-d and z p' z^-d on the outside rows
    (p and z p' inside), so the Newton correction is z P / Q on every row,
    and |E| @ |c| is the backward-error scale with the same factor.
    """
    c = c / np.abs(c).max()
    d = len(c) - 1
    z = None
    with np.errstate(all="ignore"):
        companion = np.zeros((d, d), dtype=complex)
        companion.reshape(-1)[d::d + 1] = 1.0
        companion[:, -1] = -c[:-1] / c[-1]
    if np.isfinite(companion).all():
        try:
            z = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            pass
    if z is None or not (np.isfinite(z).all() and z.all()):
        r0 = max((abs(c[0]) / abs(c[-1])) ** (1.0 / d), 1e-6)
        z = r0 * np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.77))
    cols = np.stack([c, np.arange(d + 1) * c], axis=1)
    ac = np.abs(c)
    powers = np.empty((d, d + 1), dtype=complex)
    diff = np.empty((d, d), dtype=complex)
    diag = diff.reshape(-1)[::d + 1]
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            outside = np.abs(z) > 1.0
            powers[:, 0] = 1.0
            powers[:, 1:] = np.where(outside, 1.0 / z, z)[:, None]
            np.cumprod(powers, axis=1, out=powers)
            if outside.any():
                powers[outside] = powers[outside, ::-1]
            pq = powers @ cols
            pv, qv = pq[:, 0], pq[:, 1]
            converged = np.all(np.abs(pv) <= tol * (np.abs(powers) @ ac))
            if not qv.all():
                qv = np.where(qv == 0, 1e-300, qv)
            w = z * pv / qv
            np.subtract(z[:, None], z, out=diff)
            diag[:] = np.inf
            if not diff.all():
                diff[diff == 0] = 1e-300
            np.divide(1.0, diff, out=diff)
            repel = diff.sum(axis=1)
            denom = 1.0 - w * repel
            denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
            step = w / denom
            z = z - step
            if converged:
                break
    return z


def _horner(coeffs: Sequence, z):
    """sum(coeffs[k] * z**k) in plain Python, as npp.polyval computes it.

    The same recurrence in the same order (c[-1] + z * 0, then c[k] +
    acc * z downwards), so for Python complex or float ``coeffs`` and ``z``
    the value equals ``npp.polyval(z, coeffs)`` bit for bit, without the
    cost of numpy scalar arithmetic.  A Newton quotient of two such values
    must still be taken in ``np.complex128``: Python's complex division
    rounds differently.

    Which scalar rewrites keep every bit (CPython 3.11, numpy 2.4; 1e5
    random normal operands each):
    - +, - and * of ``np.complex128`` scalars equal those of Python complex,
      mixed operand types and float factors included: 0 mismatches.  So a
      scalar loop may trade numpy scalars for Python numbers.
    - The same * on numpy arrays does not: the SIMD loops fuse
      multiply-adds, and 44% of the products differ in their last bits.
      Never vectorize a scalar loop on a bit-identical path.
    - Complex division differs between numpy and Python: 43% of the
      quotients.  Keep each division in the type it has.  This bites where
      the type is implicit: ``list(np.convolve(...))`` holds numpy scalars
      and ``.tolist()`` Python ones, so in ``factor._factorization``, where
      the phase value0 / abs(value0) divides whichever it gets, the switch
      moved the outer part of 68 of the 240 pinned census inputs.
    """
    acc = coeffs[-1] + z * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * z
    return acc


def _derivative(q: list, m: int) -> list:
    """The m-th derivative of the coefficient list q, as
    ``npp.polyder(q, m).tolist()`` gives it bit for bit, at a sixth of its
    cost on short lists.

    Each order multiplies c_k by k as polyder does, after polyder's scaling
    by scl = 1: exact on finite values, but it turns an overflowed (inf, y)
    into (inf, nan), and the plain k * c would not.  An order at least
    len(q) is polyder's q[0] * 0.
    """
    if m >= len(q):
        return [q[0] * 0]
    for _ in range(m):
        q = [k * (c * 1) for k, c in enumerate(q)][1:]
    return q


def _polish(center: complex, q: list, qd: list, step_cap: float) -> complex:
    """Newton steps on q, the derivative of p in which the root is simple.

    qd is the derivative of q; both are coefficient lists of Python
    complex numbers.
    """
    a = center
    for _ in range(4):
        za = complex(a)
        qdv = _horner(qd, za)
        if qdv == 0:
            break
        step = np.complex128(_horner(q, za)) / qdv
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        if abs(step) > step_cap:
            break  # polish must not leave the cluster it certifies
        a = a - step
    return a


def _residual_ok(clist: list, aclist: list, a: complex) -> bool:
    """|p(a)| <= 10 TOL_ROOT sum |c_k| |a|^k, the bound every root meets;
    false for a NaN residual too.

    Where that residual or scale overflows at a finite |a| > 1, the bound
    is judged on p(a) / a**d by the reversed coefficients at 1/a, as
    ``_aberth`` judges it, so no power exceeds 1 in modulus.
    """
    resid, bound = abs(_horner(clist, a)), 10.0 * TOL_ROOT * _horner(
        aclist, abs(a))
    if resid <= bound:
        return True
    overflow = not (math.isfinite(resid) and math.isfinite(bound))
    if not (overflow and 1 < abs(a) < math.inf):
        return False
    w = 1 / complex(a)
    return (abs(_horner(clist[::-1], w))
            <= 10.0 * TOL_ROOT * _horner(aclist[::-1], abs(w)))


def _judge(clist: list, aclist: list, a: complex) -> None:
    """Raise unless the root a meets ``_residual_ok``: RootOverflow when
    its relative residual is not finite, NonConvergence otherwise."""
    if _residual_ok(clist, aclist, a):
        return
    # a finite point outside the circle is judged on p(a) / a**d, as
    # _aberth judges it, so its powers cannot overflow
    w, step = (1 / a, -1) if 1 < abs(a) < math.inf else (a, 1)
    resid = abs(_horner(clist[::step], w))
    scale = _horner(aclist[::step], abs(w))
    if not math.isfinite(resid / scale):
        raise RootOverflow(
            f"root {a} has residual {resid} at scale {scale}: the "
            f"coefficients overflow double precision")
    raise NonConvergence(
        f"root {a} fails the residual test after at most {MAX_ROOT_ITER} "
        f"iterations (relative residual {resid / scale:.3e})")


def _single_linkage_tree(dist: np.ndarray) -> list[dict]:
    """Single-linkage merge tree of points with pairwise distances dist.

    Nodes 0..N-1 are the points; each later node is {"members": [...],
    "children": (older, younger), "distance": d}, d the distance of the
    pair that merged it, and the last one holds every point.  The
    tree is built by Kruskal's algorithm: the point pairs are visited by
    increasing distance, and a union-find joins the two components each
    pair links, so no cluster-to-cluster distance is ever recomputed.
    Pairs at exactly equal distance are visited in the order of their point
    indices (i, j), i < j; such ties can change the tree's shape, never the
    partition at any distance.  A merged node lists the members of its
    older child (the one created first) before the younger one's.
    """
    npts = len(dist)
    clusters: list[dict] = [
        {"members": [i], "children": None, "distance": 0.0}
        for i in range(npts)]
    parent = list(range(npts))      # union-find forest over the points
    node_of = list(range(npts))     # component root -> its merge-tree node

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # the pairs i < j in np.triu_indices(npts, 1)'s order, without its cost
    iu, ju = np.nonzero(np.arange(npts)[:, None] < np.arange(npts))
    pair_dist = dist[iu, ju]
    for e in np.argsort(pair_dist, kind="stable"):
        ra, rb = find(int(iu[e])), find(int(ju[e]))
        if ra == rb:
            continue
        ca, cb = sorted((node_of[ra], node_of[rb]))
        clusters.append({
            "members": clusters[ca]["members"] + clusters[cb]["members"],
            "children": (ca, cb),
            "distance": float(pair_dist[e]),
        })
        parent[rb] = ra
        node_of[ra] = len(clusters) - 1
        if len(clusters) == 2 * npts - 1:
            break
    return clusters


def _mirror_partners(pts: list, lone: list[int]) -> dict[int, int]:
    """Each lone outside point's lone inside partner, outside index to
    inside index.

    The partner of b is an inside point a whose mirror 1/conj(a) lies
    within CLUSTER_CAP of b.  Points within SNAP_BAND of the circle take no
    part.  The match is one to one, made from the nearest pair upwards, so
    a point whose mirror falls near a second outside point still goes to
    its own partner.
    """
    ins = [i for i in lone if 1.0 - abs(pts[i]) > SNAP_BAND]
    outs = [i for i in lone if abs(pts[i]) - 1.0 > SNAP_BAND]
    if not ins or not outs:
        return {}
    mirrors = 1.0 / np.conj(np.asarray([pts[i] for i in ins]))
    d = np.abs(np.asarray([pts[i] for i in outs])[:, None] - mirrors)
    partner: dict[int, int] = {}
    taken: set[int] = set()
    for e in np.argsort(d, axis=None, kind="stable").tolist():
        r, k = divmod(e, len(ins))
        if d[r, k] > CLUSTER_CAP:
            break
        if outs[r] not in partner and k not in taken:
            partner[outs[r]] = ins[k]
            taken.add(k)
    return partner


def _cluster_points(points: np.ndarray,
                    coeffs: np.ndarray) -> list[tuple[complex, int]]:
    """Single-linkage agglomeration, then a top-down cut of the merge tree.

    A point with no other point within CLUSTER_CAP is a simple root under
    the cut whatever the tree, as every node holding it and another point
    was merged beyond the cap.  So each such lone point is polished on its
    own, and the tree and the cut run over the other points only.  When
    the coefficients are exactly conjugate-palindromic, as every lift
    z**n g is, the zeros come in reflected pairs (a, 1/conj(a)): a lone
    outside point paired with a lone inside one (``_mirror_partners``)
    becomes 1/conj(a) of the polished inside root, not a second polish.  A
    mirror that misses the residual bound is polished from its own point.
    The inside root is the one polished because the inner factor and the
    split halves are read from the inside roots, while ``fejer_riesz``
    polishes the outside roots again; a reflection keeps a root's relative
    error.

    A node holding m points is accepted as one multiplicity-m root by a
    backward-error test: deflate the polynomial m times at the Newton-
    polished candidate center, recompose, and measure the coefficient
    perturbation this m-fold claim imposes on the data.  Below tolerance,
    the coefficients cannot tell the cluster from an exact m-fold root, so
    the merge is sound; rounding of the input coefficients genuinely splits
    an ideal m-fold root by (noise / h)**(1/m) with h the local cofactor
    size, and in that regime the test accepts.  Conversely, genuinely
    distinct roots impose a perturbation the recomposition sees in full
    (a residual probe at the single center point would miss it, and a
    purely geometric diameter threshold gets it wrong in both directions).

    ``_aberth`` stops at its backward-error test, so the m points of an
    m-fold root come in spread over that ball; the polished center, not
    the iteration, places the root.  It must also meet the residual bound
    that every root meets (``_residual_ok``).  A rejected node's children
    are examined instead.  The tree comes from ``_single_linkage_tree``.
    A node's diameter is at least the distance it was merged at, so a node
    merged beyond CLUSTER_CAP is rejected without the diameter, as the
    test would reject it.

    Each returned root is judged once, where it is placed and in the order
    returned: an accepted mirror or merged node by the test that accepted
    it, every other root by ``_judge``, which raises RootOverflow or
    NonConvergence for the first one that misses the residual bound.
    """
    pts = list(points)
    c0 = np.asarray(coeffs, dtype=complex)
    ac = np.abs(c0)
    aclist = ac.tolist()
    # derivative coefficient lists, built only as deep as a tested cluster
    derivs = [c0.tolist()]
    clist = derivs[0]

    def deriv(k: int) -> list:
        while len(derivs) <= k:
            derivs.append(_derivative(derivs[-1], 1))
        return derivs[k]

    dist = np.abs(np.asarray(pts)[:, None] - np.asarray(pts)[None, :])
    near = dist <= CLUSTER_CAP
    np.fill_diagonal(near, False)
    crowded = near.any(axis=1)
    lone = np.flatnonzero(~crowded).tolist()

    def polish(i: int) -> complex:
        return _polish(complex(pts[i]), deriv(0), deriv(1), 1e-4)

    # lone roots are Python complex, so a mirror is 1 / conj(a) in Python
    # arithmetic whatever type the polish returned
    partner = (_mirror_partners(pts, lone)
               if np.array_equal(np.conj(c0[::-1]), c0) else {})
    placed = {i: complex(polish(i)) for i in lone if i not in partner}
    mirrored = set()
    for i, j in partner.items():
        b = 1.0 / placed[j].conjugate()
        if _residual_ok(clist, aclist, b):
            placed[i] = b
            mirrored.add(i)
        else:
            placed[i] = complex(polish(i))
    # in the order returned; an accepted mirror was judged by its test
    for i in lone:
        if i not in mirrored:
            _judge(clist, aclist, placed[i])
    out: list[tuple[complex, int]] = [(placed[i], 1) for i in lone]

    rest = np.flatnonzero(crowded)
    if not len(rest):
        return out
    # the tree, the cut and polish() see the crowded points alone
    pts = [pts[i] for i in rest]
    dist = dist[np.ix_(rest, rest)]
    clusters = _single_linkage_tree(dist)

    def try_accept(mem: list[int]) -> tuple[complex, int] | None:
        m = len(mem)
        if m == 1:
            a = polish(mem[0])
            _judge(clist, aclist, complex(a))
            return (a, 1)
        diam = dist[np.ix_(mem, mem)].max()
        if diam > CLUSTER_CAP:
            return None
        centroid = complex(np.mean([pts[i] for i in mem]))
        polished = _polish(centroid, deriv(m - 1), deriv(m),
                           4.0 * diam + 1e-8)
        # deflate m times at the candidate center and recompose: the
        # difference is exactly the coefficient perturbation the claimed
        # m-fold root imposes on the data
        work = list(c0)
        for _ in range(m):
            work = synthetic_divide(work, polished)
        recomposed = np.asarray(work, dtype=complex)
        for _ in range(m):
            recomposed = np.convolve(recomposed, [-polished, 1.0])
        perturbation = float(np.abs(recomposed - c0).max())
        if (perturbation <= MERGE_BACKWARD_TOL * float(ac.max())
                and _residual_ok(clist, aclist, complex(polished))):
            return (polished, m)
        return None

    def cut(idx: int):
        node = clusters[idx]
        accepted = (None if node["distance"] > CLUSTER_CAP
                    else try_accept(node["members"]))
        if accepted is not None:
            out.append(accepted)
            return
        cut(node["children"][0])
        cut(node["children"][1])

    cut(len(clusters) - 1)
    return out


def roots(p: Poly) -> RootSet:
    """All roots of p with multiplicities and circle classification.

    Raises NullInput for the zero polynomial and NonConvergence when the
    iteration budget is exhausted without meeting the residual target.
    A nonzero constant has no roots: the empty RootSet is returned.
    p's leading zeros (powers of z) come back as one root at 0, so
    ``lift(g)`` and ``lift(g, n)`` get the same solve and agree by
    construction.  Nothing is cached: g's record (``_analysis``) keeps
    the roots of its lift.
    """
    if p.is_null:
        raise NullInput("the zero polynomial has no root set")
    c = p.coeffs
    m0 = 0
    while c[m0] == 0:
        m0 += 1
    return _root_set(_solve(c[m0:]), m0)


def _solve(c: tuple) -> list[tuple[complex, int]]:
    """The roots, as (location, multiplicity), of the polynomial with
    coefficients c, a tuple of Python complex with c[0] != 0.

    Degree 1 is solved in closed form.  Higher degrees start from the
    closed form (degree 2) or ``_aberth``'s points, which
    ``_cluster_points`` places; on exactly conjugate-palindromic c (every
    lift) it returns the outside root of a lone reflected pair as the
    mirror of its polished inside partner.  Every root, mirrors included,
    meets the residual bound (``_residual_ok``), judged once where it is
    placed, and a self-inversive c then has its near-circle roots snapped
    (``_snap_self_inversive``).
    """
    found: list[tuple[complex, int]] = []
    d = len(c) - 1
    carr = np.asarray(c, dtype=complex)
    # coefficients near the float range overflow inside the solve; the
    # roots then come out non-finite, which the residual check reports as
    # RootOverflow instead of a warning per operation
    with np.errstate(all="ignore"):
        if d == 1:
            found = [(complex(-c[0] / c[1]), 1)]
            _judge(carr.tolist(), np.abs(carr).tolist(), found[0][0])
        elif d == 2:
            a2, a1, a0 = c[2], c[1], c[0]
            disc = np.sqrt(complex(a1 * a1 - 4 * a2 * a0))
            # pick the sign that avoids cancellation in -a1 -+ disc
            if (a1.conjugate() * disc).real > 0:
                disc = -disc
            q = -(a1 - disc) / 2
            r1 = q / a2
            r2 = a0 / q if q != 0 else -a1 / a2 - r1
            found = _cluster_points(np.array([r1, r2]), carr)
        elif d > 0:
            # the points of a multiple root are left spread, and only
            # the clustering's polished centers meet the residual bound:
            # failure is judged on those
            found = _cluster_points(_aberth(carr, TOL_ROOT, MAX_ROOT_ITER),
                                    carr)
    if d >= 2 and (lam := self_inversive_phase(carr)) is not None:
        found = _snap_self_inversive(found, carr, lam)
    return found


def _root_set(found: list[tuple[complex, int]], m0: int) -> RootSet:
    """The RootSet of ``found`` and an m0-fold root at 0, sorted by location.

    A root of ``found`` within ORIGIN_TOL of 0 is a rounded power of z: it
    joins the m0-fold root at 0.
    """
    merged: list[tuple[complex, int]] = []
    for a, m in found:
        if abs(a) <= ORIGIN_TOL:
            m0 += m
        else:
            merged.append((a, m))
    if m0:
        merged.append((0j, m0))

    merged.sort(key=lambda t: (t[0].real, t[0].imag))
    return RootSet(tuple(
        Root(a, m, _classify(a)) for a, m in merged))


# ---------------------------------------------------------------------------
# Nonnegativity certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonnegCertificate:
    nonnegative: bool
    min_value: float
    argmin_theta: float
    tol: float
    grid_size: int


def refine_circle_angle(g: TrigPoly, theta0: float) -> float:
    """The angle of the local minimum of the real function g near theta0.

    Newton on g': a local minimum of g is first-order stable under
    coefficient noise, unlike the lift's root there, so this recovers the
    angle of an even-order zero to near machine precision.  It stops where
    g'' <= 0 or a step would exceed 1e-2.  The one angle refiner: for the
    circle zeros of g's analysis record (``_analysis``), the self-inversive
    snap, the dips of ``nonneg_check`` and the minima of ``circle_minima``.
    """
    ks = np.arange(1, g.n + 1)
    iks, kk = 1j * ks, -ks * ks
    cs = np.array(g.coeffs[1:])
    theta = theta0
    for _ in range(8):
        ph = cs * np.exp(iks * theta)
        d1 = float(2.0 * (iks * ph).real.sum())
        d2 = float(2.0 * (kk * ph).real.sum())
        if d2 <= 0:
            break   # not a local minimum neighborhood; keep the input
        step = d1 / d2
        if not math.isfinite(step) or abs(step) > 1e-2:
            break
        theta -= step
        if abs(step) <= 1e-15:
            break
    return theta


def circle_minima(g: TrigPoly) -> np.ndarray | None:
    """The angles of g's local minima on the circle, found with no root
    solve; None when the grid cannot show them.

    g' is taken on the ``nonneg_grid_size(g)`` grid with one FFT, and each
    cell where it goes from < 0 to >= 0 brackets one local minimum, which
    ``refine_circle_angle`` finds from the cell's midpoint.  A trig
    polynomial of order n (``effective_band``) has at most n local minima,
    so more than n cells means that rounding, not g, sets the sign of g'
    somewhere: None, as when a refined angle leaves its cell.  A constant
    has no minimum.
    """
    n = g.effective_band
    if n == 0:
        return np.empty(0)
    size = nonneg_grid_size(g)
    deriv = TrigPoly(g.n, (0j,) + tuple(1j * k * c for k, c in
                                        enumerate(g.coeffs[1:], start=1)))
    d1 = deriv.grid_values(size)
    cells = np.flatnonzero((d1 < 0) & (np.roll(d1, -1) >= 0))
    if len(cells) > n:
        return None
    width = 2.0 * math.pi / size
    theta = np.array([refine_circle_angle(g, (j + 0.5) * width)
                      for j in cells.tolist()])
    if np.any(theta < cells * width) or np.any(theta > (cells + 1) * width):
        return None
    return theta


def nonneg_tol(g: TrigPoly) -> float:
    """The tolerance at which a value of g counts as zero.

    1e-10 of the sup-norm bound |g_0| + 2 sum |g_k|, and never below
    1e-10: ``nonneg_check`` accepts a dip to -tol, and ``circle_count``
    takes |g| <= tol as a zero of g.
    """
    return 1e-10 * max(1.0, _l1(g))


def nonneg_grid_size(g: TrigPoly) -> int:
    """The grid of ``nonneg_check``: 64 points per frequency, at least
    4096."""
    return max(4096, 64 * g.n)


def circle_count(g: TrigPoly) -> np.ndarray | None:
    """The angles of g's n = ``effective_band`` local minima when there are
    n of them, each a double zero of g within tolerance, and the mean is
    > 0; else None.  A constant g > 0 has no minimum and gives no angle.

    A minimum at t is a double zero within tolerance when |g(t)| <=
    nonneg_tol(g) and, if g(t) is above g's rounding floor (n + 1) eps l1,
    l1 = |g_0| + 2 sum |g_k|, the reflected pair of the lift's zeros that
    such a positive minimum is lies within SNAP_BAND of the circle: at
    distance sqrt(2 g(t) / g''(t)), as g is about g''(t) / 2 ((s - t)**2 +
    d**2) near a pair at 1 -/+ d.  Within that band the snap of ``roots``
    merges the pair into a double circle zero too.

    A trig polynomial of order n has at most n local minima, so these are
    all of them: the lift's 2n zeros all lie on the circle, its inner
    factor at model order m is z**(m - n), and g >= -tol, with no root
    solve.  The read-only angles come from ``circle_minima``.  The count is
    sufficient, not necessary: a zero of order 4 or more, or two zeros
    closer than the grid can resolve, shows fewer minima, and the callers
    then solve the lift as before.

    A g the count cannot decide declines on its values on the
    ``nonneg_check`` grid alone, before g' is taken or an angle refined
    (``_grid_declines``), h the grid's cell: when the smallest sample
    exceeds tol + n**2 l1 h**2 / 8 (``_zero_free``), when fewer than n
    samples lie below both their neighbours, or when the parabola through
    such a sample and its two neighbours has its vertex above
    tol + 0.065 n**3 l1 h**3.  A local minimum of g within tol of 0 lies
    between those neighbours,
    where the parabola misses g by at most sup|g'''| h**3 / (9 sqrt 3) <=
    0.0642 n**3 l1 h**3.  Minima closer than about two cells show as one
    sample, so they decline too.

    Computed at unit scale, like ``nonneg_check``, and kept in g's analysis
    record (``_analysis``) with that grid's minimum: one FFT of g per g.
    """
    return _analysis(g).minima


_NEIGHBOURS = np.array([[0], [1], [2]])   # a sample and its neighbours


def _zero_free(g: TrigPoly, low: float, size: int) -> bool:
    """True when low, g's smallest value on the ``size``-point grid,
    exceeds tol + n**2 l1 h**2 / 8, h the grid's cell: then g > tol on the
    whole circle, so g has no circle zero and no sign change.  At g's
    minimum g' = 0 and |g''| <= n**2 l1, and the nearest sample is within
    h / 2 of it, so that sample exceeds the minimum by at most the bound's
    second term."""
    h = 2.0 * math.pi / size
    return low > nonneg_tol(g) + _l1(g) * (g.effective_band * h) ** 2 / 8.0


def _grid_declines(g: TrigPoly, vals: np.ndarray) -> bool:
    """True when g's values on the grid show fewer than n local minima or
    one that is no zero of g, by the parabola bound of ``circle_count``;
    for a g of band n >= 1 that the grid does not show zero-free
    (``_zero_free``, the count's first test)."""
    n = g.effective_band
    tol, l1, h = nonneg_tol(g), _l1(g), 2.0 * math.pi / len(vals)
    # the samples below both their neighbours, wrapped[j + 1] for each j
    wrapped = np.concatenate((vals[-1:], vals, vals[:1]))
    down = wrapped[1:] < wrapped[:-1]
    j = (down[:-1] > down[1:]).nonzero()[0]
    if len(j) < n:
        return True
    # each such sample's parabola is convex with its vertex between the
    # two neighbours, since both lie above the sample
    left, mid, right = wrapped[j + _NEIGHBOURS]
    rise, bend = right - left, left + right - 2.0 * mid
    vertex = mid - rise * rise / (8.0 * bend)
    return bool(np.any(vertex > tol + 0.065 * l1 * (n * h) ** 3))


def _count_minima(g: TrigPoly) -> tuple[np.ndarray, np.ndarray] | None:
    """``circle_count``'s rule on g as given, unmemoized and without the
    grid: g's n minima (``circle_minima``) and g's values there when each
    is a double zero of g within tolerance and the mean is > 0; else None.
    For a caller that has no grid of g, such as the perturbation search.
    """
    n, tol = g.effective_band, nonneg_tol(g)
    if g.mean <= 0:
        return None
    minima = circle_minima(g)
    if minima is None or len(minima) != n:
        return None
    value = g.values(minima)
    if np.any(np.abs(value) > tol):
        return None
    # a value above g's rounding floor is a reflected pair of the lift's
    # zeros at distance sqrt(2 value / g'') from the circle, which the
    # snap of ``roots`` merges only within SNAP_BAND
    floor = (g.n + 1) * math.ulp(1.0) * _l1(g)
    if value.max(initial=0.0) > floor:
        pair = value > floor
        ks = np.arange(1, g.n + 1)
        curvature = -2.0 * (np.asarray(g.coeffs[1:]) * ks * ks * np.exp(
            1j * np.outer(minima[pair], ks))).real.sum(axis=1)
        if np.any(2.0 * value[pair] > SNAP_BAND ** 2 * curvature):
            return None
    minima.flags.writeable = False
    return minima, value


def _l1(g: TrigPoly) -> float:
    """|g_0| + 2 sum |g_k|, the bound of |g| on the circle."""
    return abs(g.coeffs[0]) + 2 * sum(map(abs, g.coeffs[1:]))


def nonneg_check(g: TrigPoly) -> NonnegCertificate:
    """Certify g >= 0 on the circle: the smallest value found is >= -tol.

    A dense grid scan catches gross negativity; a sign change too narrow
    for any fixed grid is found at the minima of g.  When ``circle_count``
    decides, its n minima are all of g's local minima, so the smallest
    value over the grid and those minima is g's minimum.  When the grid's
    smallest sample shows g > tol everywhere (``_zero_free``), there is no
    sign change to find and no root is solved.  Otherwise the
    odd-multiplicity circle roots of the lift mark the narrow sign changes
    (a real trig polynomial changes sign exactly at its odd circle zeros),
    and from each such root Newton on g' (``refine_circle_angle``) reaches
    the bottom of the dip beside it.  Rounding can scatter a double zero
    into odd roots, but not make g negative there, and a dip shallower
    than the tolerance is acceptable anyway.  The grid is
    ``nonneg_grid_size(g)`` and the tolerance ``nonneg_tol(g)``; the
    certificate carries the smallest value and its angle, on failure a
    point where g < -tol.

    When a coefficient of g exceeds 1 in modulus (s = max |g_k| > 1), the
    search runs on g / s, the g that ``factor.fejer_riesz`` factors, and
    the value and tolerance are reported times s, in g's units; the
    verdict is that of g / s.  A g with max |g_k| <= 1 is checked as it is.
    The certificate is kept in g's analysis record (``_analysis``), so
    every check of one g after the first is a lookup.
    """
    return _analysis(g).nonneg


def require_nonnegative(g: TrigPoly) -> None:
    """Raise NotNonnegative, naming a point where g < -tol, unless
    ``nonneg_check`` passes."""
    cert = nonneg_check(g)
    if not cert.nonnegative:
        raise NotNonnegative(f"min value {cert.min_value:.3e} < -{cert.tol:.1e}"
                             f" at theta={cert.argmin_theta:.6f}")


# ---------------------------------------------------------------------------
# The analysis record of one modulus
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=512)
def _analysis(g: TrigPoly) -> _Analysis:
    """g's analysis record, keyed on g as given (the frozen TrigPoly):
    every public call on one g reads the same record, the one place where
    a lift's roots are kept."""
    return _Analysis(g)


class _Analysis:
    """What the library reads from one modulus g, each field computed the
    first time it is read and computed again if that raised.  It analyses
    unit = g / s, s = max(1, max |g_k|), the g that ``nonneg_check`` and
    ``circle_count`` check and ``factor.fejer_riesz`` factors, and solves
    lift(unit) at most once, only for a g the count declines: for
    ``nonneg`` and ``circle_zeros`` only when the grid does not show
    unit > tol everywhere (``_zero_free``).  No grid of
    values is kept.  A result at a model order n (``inner``,
    ``factorization``) is built once per n, and kept only when the build
    returns: an error is raised again on every call."""

    def __init__(self, g: TrigPoly):
        self.g = g
        self.scale = max(1.0, max(map(abs, g.coeffs)))
        self.unit = g if self.scale == 1.0 else trig_scale(g, 1.0 / self.scale)
        self._inners: dict = {}
        self._factorizations: dict = {}

    @functools.cached_property
    def _scan(self) -> tuple[float, float, np.ndarray | None, bool]:
        """unit's smallest value and its angle over the ``nonneg_check``
        grid (the first on a tie) and the count's minima, the count, and
        whether the grid's smallest sample shows unit > tol everywhere
        (``_zero_free``).  A constant unit is counted: no minima."""
        g = self.unit
        size = nonneg_grid_size(g)
        vals = g.grid_values(size)
        j = int(np.argmin(vals))
        low, theta = float(vals[j]), 2.0 * math.pi * j / size
        zero_free = _zero_free(g, low, size)
        declines = g.effective_band > 0 and (zero_free
                                             or _grid_declines(g, vals))
        counted = None if declines else _count_minima(g)
        if counted is None:
            return low, theta, None, zero_free
        minima, values = counted
        for value, t in zip(values.tolist(), minima.tolist()):
            if value < low:
                low, theta = value, t
        return low, theta, minima, zero_free

    @property
    def minima(self) -> np.ndarray | None:
        return self._scan[2]

    @functools.cached_property
    def nonneg(self) -> NonnegCertificate:
        """``nonneg_check(g)``: unit's verdict, value and tolerance times s."""
        g = self.unit
        low, theta = 0.0, 0.0
        if not g.is_null:
            low, theta, minima, zero_free = self._scan
            if minima is None and not zero_free:
                for r in self.lift_roots.on_circle:
                    if r.multiplicity % 2:
                        t = refine_circle_angle(g, float(np.angle(r.location)))
                        value = float(g.values(t))
                        if value < low:
                            low, theta = value, t
        tol = nonneg_tol(g)
        return NonnegCertificate(low >= -tol, low * self.scale, theta,
                                 tol * self.scale, nonneg_grid_size(g))

    @functools.cached_property
    def lift_roots(self) -> RootSet:
        return roots(lift(self.unit))

    @functools.cached_property
    def circle_zeros(self) -> tuple[tuple[float, int], ...] | None:
        """(angle, multiplicity) of each circle zero of g, all even, or None
        for an odd one left: the count's angles as double zeros, none when
        the grid shows g > tol everywhere, else the lift's circle roots,
        refined on unit, which the snap of ``roots`` has merged where
        rounding split a double zero."""
        _, _, minima, zero_free = self._scan
        if minima is not None:
            return tuple((t, 2) for t in minima.tolist())
        if zero_free:
            return ()
        on_circle = self.lift_roots.on_circle
        if any(r.multiplicity % 2 for r in on_circle):
            return None
        return tuple((refine_circle_angle(self.unit,
                                          float(np.angle(r.location))),
                      r.multiplicity) for r in on_circle)

    @functools.cached_property
    def circle_factor(self):
        """g's circle zeros as ``factor._factor_from_zeros`` takes them
        (``factor._circle_factor``: angles, half multiplicities and
        prod (z - exp(i t))**(m/2), read-only), expanded once for g's F and
        both halves of its split; None with ``circle_zeros``."""
        from .factor import _circle_factor   # factor imports this module
        return _circle_factor(self.circle_zeros)

    @functools.cached_property
    def spectral(self):
        """``factor.spectral_factor(g)`` for a nonnegative g."""
        from .factor import _spectral_build
        return _spectral_build(self)

    def inner(self, n: int):
        """The inner factor of lift(g, n) with lambda = 1 (``_build_inner``),
        built once per n."""
        return self._once(self._inners, self._build_inner, n)

    def factorization(self, n: int):
        """``factor._factorization`` of lift(g, n), g as given, with
        ``inner(n)``: the outer part and phase of ``geometry.is_extreme``,
        built once per n."""
        return self._once(self._factorizations, self._build_factorization, n)

    @staticmethod
    def _once(memo: dict, build, n: int):
        found = memo.get(n)
        if found is None:    # no build returns None
            found = memo[n] = build(n)
        return found

    def _build_factorization(self, n: int):
        from .factor import _factorization
        return _factorization(lift(self.g, n), self.inner(n))

    def _build_inner(self, n: int):
        """z**(n - eb) when the count decides, else the lift's disk roots
        times z**(n - g.n), the power of z by which lift(g, n) and lift(g)
        differ.  Raises BandExceeded for eb > n, as lift(g, n) does."""
        from .factor import BlaschkeProduct, _inner_part
        band = self.unit.effective_band
        _check_band(band, n)
        if self.minima is not None:
            return BlaschkeProduct(n - band)
        found = _inner_part(self.lift_roots)
        return replace(found, m0=found.m0 + n - self.unit.n)
