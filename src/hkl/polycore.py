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

The multiplicity clustering depends on the iteration history, so the
engine's speed comes only from cheaper evaluation, never from fewer or
different steps: each Aberth step evaluates p, p' and the backward-error
scale in one fused Horner pass over stacked coefficient rows, and the
polish and residual checks evaluate at scalar points in plain Python
(``_horner``).  Both make the operations of ``npp.polyval`` in its order,
so every value, and every root, is bit-identical to evaluating each
polynomial separately with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import BandExceeded, NonConvergence, NullInput

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
    for c in out:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
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
        for c in cs:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
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
        """Values at theta_j = 2*pi*j/size via FFT; size must exceed 2n."""
        if size <= 2 * self.n:
            raise ValueError("grid too coarse for this band limit")
        arr = np.zeros(size, dtype=complex)
        arr[0] = self.coeffs[0]
        for k in range(1, self.n + 1):
            arr[k] = self.coeffs[k]
            arr[size - k] = self.coeffs[k].conjugate()
        return (np.fft.ifft(arr) * size).real


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
    n = f.degree
    coeffs = [complex(np.dot(c[k:], np.conj(c[: len(c) - k]))) for k in range(n + 1)]
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
    arr = [0j] * (n + g.n + 1)
    for k in range(-g.n, g.n + 1):
        c = g.coeff(k)
        if c == 0:
            continue
        pos = n + k
        if pos < 0:
            raise BandExceeded(
                f"frequency {k} does not fit below model order {n}")
        arr[pos] = c
    return Poly(tuple(arr))


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


def _classify(a: complex, eps: float) -> Region:
    r = abs(a)
    if abs(r - 1.0) <= eps:
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


def _snap_self_inversive(found: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """Project lone near-circle roots of a self-inversive polynomial onto it.

    Roots of a self-inversive polynomial are exactly unimodular or come in
    exact reflected pairs (a, 1/conj(a)).  A computed root slightly off the
    circle is part of a genuine pair only when it and a distinct partner
    pick each other as best match for their mirrors (a one-sided match is
    rounding debris of an on-circle root); everything else inside the snap
    band sits on the circle, displaced only by rounding, and is projected.
    """
    # each mirror is taken in its root's own type: Python complex and
    # np.complex128 divide differently, and a moved mirror can move a match;
    # argmin keeps the first of equal distances, as min does
    locs = np.array([a for a, _ in found], dtype=complex)
    mirrors = np.array([1.0 / a.conjugate() for a, _ in found], dtype=complex)
    matches = np.abs(locs[None, :] - mirrors[:, None]).argmin(axis=1).tolist()
    out = []
    for i, (a, m) in enumerate(found):
        r = abs(a)
        if not EPS_CIRCLE < abs(r - 1.0) <= SNAP_BAND:
            out.append((a, m))
            continue
        j = matches[i]
        if j != i and matches[j] == i:
            out.append((a, m))      # mutual reflected pair, keep
        else:
            out.append((a / r, m))
    return out


def _aberth(c: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Simultaneous iteration on a deflated polynomial (c[0] != 0, deg >= 1).

    Returns the points.  Convergence is per root on the relative backward
    error |p(z)| <= tol * sum |c_k| |z|^k, but the iteration does not stop
    there: the backward-error ball around a multiple root is much wider
    than the rounding floor, so a refinement phase keeps running until the
    steps stagnate.  That is what contracts the point pair at a double zero
    tightly enough for the multiplicity clustering to recognize it.

    p(z), p'(z) and the scale come from one Horner pass over the rows of a
    (3, d+1) array: c, the coefficients of p' with a zero on top, and |c|
    taken at |z|.  The pass makes npp.polyval's operations in its order, so
    each row is bit-identical to a separate evaluation: 0 * z + c[k] is
    c[k], and (a + 0j)(b + 0j) is exactly ab, so the scale row's real part
    is the real Horner sum.  Once converged the scale row is dropped.  The
    iteration history, which the multiplicity clustering depends on, is
    therefore that of three separate evaluations.
    """
    c = c / np.abs(c).max()
    d = len(c) - 1
    rows = np.zeros((3, d + 1), dtype=complex)
    rows[0] = c
    rows[1, :d] = npp.polyder(c)
    rows[2] = np.abs(c)
    cols = [rows[:, k:k + 1] for k in range(d + 1)]
    x = np.empty((3, d), dtype=complex)
    vals = np.empty((3, d), dtype=complex)
    diff = np.empty((d, d), dtype=complex)
    diag = diff.reshape(-1)[::d + 1]
    # Initial guesses on one circle whose radius is the geometric mean of the
    # root moduli (|c0/cd|)^(1/d); the angular offset breaks symmetry locks.
    r0 = max((abs(c[0]) / abs(c[-1])) ** (1.0 / d), 1e-6)
    z = r0 * np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.77))
    converged = False
    extra = 0
    with np.errstate(all="ignore"):
        for it in range(max_iter + 16):
            if not converged and it >= max_iter:
                break
            x[:2] = z
            if not converged:
                np.abs(z, out=x[2])
            np.multiply(x, 0, out=vals)
            vals += cols[d]
            for k in range(d - 1, -1, -1):
                vals *= x
                vals += cols[k]
            pv, dv = vals[0], vals[1]
            if not converged and np.all(np.abs(pv) <= tol * vals[2].real):
                converged = True
                cols = [col[:2] for col in cols]
                x, vals = x[:2], vals[:2]
            if not dv.all():
                dv = np.where(dv == 0, 1e-300, dv)
            w = pv / dv
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
                # refinement phase: the pair at a double root contracts by
                # about 1/3 per iteration, so 16 extra reach the floor
                extra += 1
                if extra >= 16 or np.abs(step).max() <= 1e-13 * (
                        1.0 + np.abs(z).max()):
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
    """
    acc = coeffs[-1] + z * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * z
    return acc


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


def _single_linkage_tree(dist: np.ndarray) -> list[dict]:
    """Single-linkage merge tree of points with pairwise distances dist.

    Nodes 0..N-1 are the points; each later node is {"members": [...],
    "children": (older, younger)} and the last one holds every point.  The
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
        {"members": [i], "children": None} for i in range(npts)]
    parent = list(range(npts))      # union-find forest over the points
    node_of = list(range(npts))     # component root -> its merge-tree node

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    iu, ju = np.triu_indices(npts, 1)
    for e in np.argsort(dist[iu, ju], kind="stable"):
        ra, rb = find(int(iu[e])), find(int(ju[e]))
        if ra == rb:
            continue
        ca, cb = sorted((node_of[ra], node_of[rb]))
        clusters.append({
            "members": clusters[ca]["members"] + clusters[cb]["members"],
            "children": (ca, cb),
        })
        parent[rb] = ra
        node_of[ra] = len(clusters) - 1
        if len(clusters) == 2 * npts - 1:
            break
    return clusters


def _cluster_points(points: np.ndarray, tol: float,
                    coeffs: np.ndarray) -> list[tuple[complex, int]]:
    """Single-linkage agglomeration, then a top-down cut of the merge tree.

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

    A rejected node's children are examined instead.  The tree comes from
    ``_single_linkage_tree``.
    """
    pts = list(points)
    if len(pts) == 1:
        return [(complex(pts[0]), 1)]

    c0 = np.asarray(coeffs, dtype=complex)
    ac = np.abs(c0)
    # derivative coefficient lists, built only as deep as a tested cluster
    derivs = [c0.tolist()]

    def deriv(k: int) -> list:
        while len(derivs) <= k:
            derivs.append(npp.polyder(derivs[-1]).tolist())
        return derivs[k]

    dist = np.abs(np.asarray(pts)[:, None] - np.asarray(pts)[None, :])
    clusters = _single_linkage_tree(dist)

    out: list[tuple[complex, int]] = []

    def try_accept(mem: list[int]) -> tuple[complex, int] | None:
        m = len(mem)
        if m == 1:
            a = _polish(complex(pts[mem[0]]), deriv(0), deriv(1), 1e-4)
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
        if perturbation <= MERGE_BACKWARD_TOL * float(ac.max()):
            return (polished, m)
        return None

    def cut(idx: int):
        node = clusters[idx]
        accepted = try_accept(node["members"])
        if accepted is not None:
            out.append(accepted)
            return
        cut(node["children"][0])
        cut(node["children"][1])

    cut(len(clusters) - 1)
    return out


def roots(p: Poly, *, eps_circle: float = EPS_CIRCLE,
          tol: float = TOL_ROOT, max_iter: int = MAX_ROOT_ITER) -> RootSet:
    """All roots of p with multiplicities and circle classification.

    Raises NullInput for the zero polynomial and NonConvergence when the
    iteration budget is exhausted without meeting the residual target.
    A nonzero constant has no roots: the empty RootSet is returned.
    Results are cached on the deflated coefficients, p with its leading
    zeros (powers of z) removed, and the powers of z are added back as a
    root at 0.  The analysis pipelines ask for the same lift repeatedly,
    and ``lift(g)`` and ``lift(g, n)`` differ only by a power of z, so
    powers of z never cause a second solve and the two lifts agree by
    construction.
    """
    if p.is_null:
        raise NullInput("the zero polynomial has no root set")
    c = p.coeffs
    m0 = 0
    while c[m0] == 0:
        m0 += 1
    found = _roots_cached(c[m0:], eps_circle, tol, max_iter)
    if not m0:
        return found
    return _root_set([(r.location, r.multiplicity) for r in found], m0,
                     eps_circle)


@functools.lru_cache(maxsize=512)
def _roots_cached(c: tuple, eps_circle: float, tol: float,
                  max_iter: int) -> RootSet:
    """The RootSet of the polynomial with coefficients c, c[0] != 0."""
    found: list[tuple[complex, int]] = []
    d = len(c) - 1
    carr = np.asarray(c, dtype=complex)
    if d == 1:
        found = [(complex(-c[0] / c[1]), 1)]
    elif d == 2:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = np.sqrt(complex(a1 * a1 - 4 * a2 * a0))
        # pick the sign that avoids cancellation in -a1 -+ disc
        if (a1.conjugate() * disc).real > 0:
            disc = -disc
        q = -(a1 - disc) / 2
        r1 = q / a2
        r2 = a0 / q if q != 0 else -a1 / a2 - r1
        found = _cluster_points(np.array([r1, r2]), tol, carr)
    elif d > 0:
        # clustering can still rescue a stalled multiple root, so failure
        # is judged on the clustered residuals below
        found = _cluster_points(_aberth(carr, tol, max_iter), tol, carr)

    if found:
        clist = carr.tolist()
        aclist = np.abs(carr).tolist()
        for a, m in found:
            resid = abs(_horner(clist, complex(a)))
            scale = _horner(aclist, abs(complex(a)))
            if resid > 10.0 * tol * scale:
                raise NonConvergence(
                    f"root residual {resid / scale:.3e} above tolerance after "
                    f"{max_iter} iterations")
        if d >= 2 and self_inversive_phase(carr) is not None:
            found = _snap_self_inversive(found)
    return _root_set(found, 0, eps_circle)


def _root_set(found: list[tuple[complex, int]], m0: int,
              eps_circle: float) -> RootSet:
    """The RootSet of ``found`` and an m0-fold root at 0, sorted by location.

    Near-origin clusters fold into the exact power of z, so a set that
    already has a root at 0 can be passed back in with more of them.
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
        Root(a, m, _classify(a, eps_circle)) for a, m in merged))


# ---------------------------------------------------------------------------
# Nonnegativity certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonnegCertificate:
    nonnegative: bool
    min_value: float
    argmin_theta: float
    odd_circle_roots: tuple
    tol: float
    grid_size: int


def refine_circle_angle(g: TrigPoly, theta0: float) -> float:
    """Sharpen the angle of an (even-order) circle zero of g.

    Newton on the angular derivative: the location of a local minimum of
    the real boundary function is first-order stable under coefficient
    noise, unlike the corresponding polynomial root, so this recovers the
    zero's angle to near machine precision even when the lifted roots are
    only loosely localized.
    """
    ks = np.arange(1, g.n + 1)
    cs = np.array(g.coeffs[1:])
    theta = theta0
    for _ in range(8):
        ph = cs * np.exp(1j * ks * theta)
        d1 = float(2.0 * (1j * ks * ph).real.sum())
        d2 = float(2.0 * (-ks * ks * ph).real.sum())
        if d2 <= 0:
            break   # not a local minimum neighborhood; keep the input
        step = d1 / d2
        if not math.isfinite(step) or abs(step) > 1e-2:
            break
        theta -= step
        if abs(step) <= 1e-15:
            break
    return theta


def _local_dip(g: TrigPoly, theta0: float, radius: float,
               levels: int = 5, points: int = 257) -> tuple[float, float]:
    """Most negative value of g near theta0, by nested local scans."""
    center = theta0
    best_val = math.inf
    best_theta = theta0
    r = radius
    for _ in range(levels):
        th = center + np.linspace(-r, r, points)
        vals = g.values(th)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_theta = float(th[j])
        center = float(th[j])
        r /= points / 4.0
    return best_val, best_theta


def nonneg_check(g: TrigPoly, *, grid_size: int | None = None,
                 tol: float | None = None) -> NonnegCertificate:
    """Certify g >= 0 on the circle.

    Two half-checks together are sound: a dense grid scan catches gross
    negativity, and the parity of on-circle zeros of the lift catches sign
    changes too narrow for any fixed grid (a real trig polynomial changes
    sign exactly at its odd-multiplicity circle zeros).  A reported odd
    circle zero is trusted only when a local scan around it actually finds
    a dip below -tol: rounding can scatter the zeros of a degenerate even
    cluster into spurious odd ones, but it cannot manufacture a genuine
    dip, and a dip shallower than the tolerance is acceptable anyway.
    On failure the certificate carries a witness: the most negative point
    found, or the offending odd-multiplicity root.
    """
    if grid_size is None:
        grid_size = max(4096, 64 * g.n)
    if tol is None:
        tol = 1e-10 * max(1.0, abs(g.coeffs[0]) + 2 * sum(
            abs(c) for c in g.coeffs[1:]))
    if g.is_null:
        return NonnegCertificate(True, 0.0, 0.0, (), tol, grid_size)

    vals = g.grid_values(grid_size)
    j = int(np.argmin(vals))
    min_value = float(vals[j])
    theta_min = 2.0 * math.pi * j / grid_size

    confirmed_odd = []
    radius = 4.0 * math.pi / grid_size
    for r in roots(lift(g)).on_circle:
        if r.multiplicity % 2 == 0:
            continue
        dip, dip_theta = _local_dip(g, float(np.angle(r.location)), radius)
        if dip < -tol:
            confirmed_odd.append(r)
            if dip < min_value:
                min_value, theta_min = dip, dip_theta

    ok = (min_value >= -tol) and not confirmed_odd
    return NonnegCertificate(ok, min_value, theta_min, tuple(confirmed_odd),
                             tol, grid_size)
