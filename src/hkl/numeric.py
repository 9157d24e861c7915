"""Grid/FFT engine: an independent numeric route to the same objects.

Works on uniform boundary samples, so it handles arbitrary sampled symbols,
not just the exact polynomial model.  The outer-function construction here
is the cepstral/Hilbert-transform one (exp of log-modulus plus i times its
harmonic conjugate); it needs strict positivity, which is exactly where the
root-based engine takes over.  Each path checks the other on the overlap.
``domination_integral`` is the exception: its verdict is the exact
engine's multiplicity rule, and only its value comes from samples.

Fourier convention: coefficient k is the k-th Fourier coefficient of the
sampled function (forward transform divided by N), with indices above N/2
standing for negative frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooSmall
from .geometry import _undominated_zero
from .kernel import KernelElement
from .polycore import TrigPoly

W_FLOOR = 1e-8
DEFAULT_GRID = 4096
TOL_SYMBOL = 1e-7   # symbol test's defect, relative to sup |g| * sup |phi|


@dataclass(frozen=True)
class Grid:
    """Samples at the N-th roots of unity, N a power of two, N >= 4."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        n = len(v)
        if n < 4 or n & (n - 1):
            raise ValueError("sample count must be a power of two, at least 4")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size

    @property
    def points(self) -> np.ndarray:
        return np.exp(1j * self.thetas)

    @classmethod
    def sample(cls, fn, size: int = DEFAULT_GRID) -> "Grid":
        z = np.exp(2j * np.pi * np.arange(size) / size)
        return cls(np.asarray(fn(z), dtype=complex))


def grid_fft(gr: Grid) -> np.ndarray:
    """Fourier coefficients of the samples: constant 1 maps to delta at 0."""
    return np.fft.fft(gr.values) / gr.size


def grid_ifft(coeffs: np.ndarray) -> Grid:
    return Grid(np.fft.ifft(np.asarray(coeffs, dtype=complex) *
                            len(coeffs)))


def _real(gr: Grid, message: str) -> np.ndarray:
    """gr's samples as reals; ValueError(message) when one is not."""
    v = gr.values
    if np.abs(v.imag).max() > 1e-12 * max(1.0, float(np.abs(v).max())):
        raise ValueError(message)
    return v.real


def _conjugate(u: np.ndarray) -> np.ndarray:
    """``harmonic_conjugate`` of real samples u, of even length."""
    co = np.fft.rfft(u)
    co[0] = co[-1] = 0
    return np.fft.irfft(-1j * co, len(u))


def harmonic_conjugate(gr: Grid) -> Grid:
    """One real FFT pair: the multiplier -i sign(k), mean and Nyquist zeroed.

    Zeroing Nyquist is the symmetric choice (sign(N/2) is ill-defined on a
    grid), so the identity H(H(u)) = -(u - mean u) holds only for inputs
    band-limited below N/2.
    """
    u = _real(gr, "harmonic conjugation expects real samples")
    return Grid(_conjugate(u))


def outer_from_modulus(w: Grid) -> Grid:
    """The outer function with boundary modulus w: exp(log w + i H(log w)),
    with H applied by one real FFT pair.

    Requires strictly positive samples (min >= W_FLOOR); a modulus touching
    zero belongs to the exact engine, where circle zeros are data instead
    of log singularities.  The value at frequency zero is exp(mean log w),
    hence real positive, matching the exact engine's phase convention.
    """
    v = _real(w, "modulus samples must be real")
    mn = float(v.min())
    if mn < W_FLOOR:
        raise TooSmall(f"min sample {mn:.3e} below floor {W_FLOOR:.1e}; "
                       "the log-modulus route is unreliable here")
    logw = np.log(v)
    return Grid(np.exp(logw + 1j * _conjugate(logw)))


def analyticity_defect(gr: Grid) -> float:
    """Largest negative-frequency coefficient magnitude (Nyquist included).

    Zero for samples of an analytic polynomial of degree < N/2; content
    beyond the Nyquist frequency aliases and can hide, so the defect is a
    certificate only up to the usual band-limit caveat.
    """
    co = grid_fft(gr)
    return float(np.abs(co[gr.size // 2:]).max())


@dataclass(frozen=True)
class SymbolTest:
    defect: float
    tolerance: float
    verdict: bool


def symbol_condition_test(phi: Grid, g: Grid) -> SymbolTest:
    """Sampled test that conj(z) conj(phi) g has no negative frequencies.

    This is the analyticity condition characterizing g as the modulus
    squared of a kernel element for the sampled symbol phi.  The tolerance
    is TOL_SYMBOL times both sup norms.
    """
    if phi.size != g.size:
        raise ValueError("phi and g must be sampled on the same grid")
    gv = _real(g, "g must be real-valued")
    gmax = float(np.abs(g.values).max())
    if float(gv.min()) < -1e-12 * max(1.0, gmax):
        raise ValueError("g must be nonnegative")
    prod = Grid(np.conj(g.points) * np.conj(phi.values) * gv)
    defect = analyticity_defect(prod)
    tol = TOL_SYMBOL * gmax * float(np.abs(phi.values).max())
    return SymbolTest(defect=defect, tolerance=tol, verdict=defect <= tol)


@dataclass(frozen=True)
class DominationEstimate:
    value: float                  # the integral, inf when not dominated
    divergent: bool               # f is not dominated by sqrt(g)
    witness: complex | None       # circle zero of g where domination fails


def domination_integral(x: KernelElement, g: TrigPoly) -> DominationEstimate:
    """The integral of |f| / sqrt(g), or inf when it diverges.

    Whether it diverges is decided by the multiplicity rule that
    :func:`hkl.geometry.rigidity_check` applies
    (``geometry._undominated_zero``): DIVERGENT, with g's first circle zero
    where f vanishes to too low an order as witness.  A dominated pair's
    value is the Richardson update of the midpoint sums at 64 and 128
    points, from one evaluation on the union of midpoints, which never
    land on the dyadic grid.

    Raises NullInput for a null g, NotNonnegative for a negative one, and
    PairingFailure when the rule cannot be read from g's analysis record,
    as when the lift's roots at a zero of order 6 or 8 scatter.
    """
    witness = _undominated_zero(g, x.f)
    if witness is not None:
        return DominationEstimate(math.inf, True, witness)
    theta = np.concatenate([2.0 * np.pi * (np.arange(m) + 0.5) / m
                            for m in (64, 128)])
    with np.errstate(divide="ignore", invalid="ignore"):
        fa = np.abs(x.f(np.exp(1j * theta)))
        gv = np.maximum(g.values(theta), 0.0)
        vals = np.where(fa == 0, 0.0, fa / np.sqrt(gv))
    coarse, fine = (float(np.mean(part)) for part in np.split(vals, [64]))
    return DominationEstimate(fine + (fine - coarse) / 3.0, False, None)


def write_boundary_csv(path, gr: Grid) -> None:
    """Dump rows theta,re,im,abs for downstream plotting."""
    th = gr.thetas
    v = gr.values
    with open(path, "w", encoding="ascii") as fh:
        fh.write("theta,re,im,abs\n")
        for t, val in zip(th, v):
            fh.write(f"{t:.17g},{val.real:.17g},{val.imag:.17g},{abs(val):.17g}\n")
