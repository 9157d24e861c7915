import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_outer_poly

from hkl.errors import TooSmall
from hkl.factor import fejer_riesz
from hkl.gen import random_boundary_modulus
from hkl.kernel import KernelElement
from hkl.numeric import (DominationEstimate, Grid, _conjugate,
                         analyticity_defect, domination_integral, grid_fft,
                         grid_ifft, harmonic_conjugate, outer_from_modulus,
                         symbol_condition_test, write_boundary_csv)
from hkl.polycore import Poly, TrigPoly, trig_from_modulus_squared, trig_scale


# ---------------------------------------------------------------------------
# fft conventions
# ---------------------------------------------------------------------------

def test_fft_constant():
    co = grid_fft(Grid(np.ones(16)))
    assert co[0] == pytest.approx(1.0)
    assert np.abs(co[1:]).max() < 1e-15


def test_fft_first_harmonic():
    co = grid_fft(Grid.sample(lambda z: z, 16))
    assert co[1] == pytest.approx(1.0)
    assert np.abs(np.delete(co, 1)).max() < 1e-14


@given(st.integers(min_value=2, max_value=6), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25)
def test_fft_round_trip(logn, seed):
    n = 2 ** logn
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    back = grid_ifft(grid_fft(Grid(vals)))
    assert np.abs(back.values - vals).max() <= 1e-12 * max(
        1.0, np.abs(vals).max())


def test_grid_validates_size():
    with pytest.raises(ValueError):
        Grid(np.ones(12))
    with pytest.raises(ValueError):
        Grid(np.ones(2))


# ---------------------------------------------------------------------------
# harmonic conjugation
# ---------------------------------------------------------------------------

def test_conjugate_cosine():
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    out = harmonic_conjugate(Grid(np.cos(th)))
    assert np.abs(out.values.real - np.sin(th)).max() <= 1e-12


def test_conjugate_constant():
    out = harmonic_conjugate(Grid(np.full(64, 3.0)))
    assert np.abs(out.values).max() <= 1e-13


def test_conjugate_second_harmonic():
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    out = harmonic_conjugate(Grid(np.cos(2 * th)))
    assert np.abs(out.values.real - np.sin(2 * th)).max() <= 1e-12


def test_conjugate_squares_to_negated_mean_free_part():
    rng = np.random.default_rng(8)
    n = 512
    # band-limited below Nyquist so the zeroed bin plays no role
    g = TrigPoly(40, tuple(np.concatenate(
        [[1.0], rng.standard_normal(40) * 0.1 + 1j * rng.standard_normal(40) * 0.1])))
    vals = g.grid_values(n)
    twice = harmonic_conjugate(harmonic_conjugate(Grid(vals)))
    expected = -(vals - vals.mean())
    assert np.abs(twice.values.real - expected).max() <= 1e-10


def _conjugate_oracle(u):
    """The complex multiplier -i sign(k) on the full spectrum, mean and
    Nyquist bins zeroed."""
    n = len(u)
    k = np.arange(n)
    mult = np.where(k < n // 2, -1j, 1j)
    mult[0] = mult[n // 2] = 0
    return np.fft.ifft(np.fft.fft(u) * mult).real


@pytest.mark.parametrize("n", [2 ** p for p in range(2, 13)])
def test_real_fft_conjugate_matches_the_complex_multiplier(n):
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e3):
        u = scale * rng.standard_normal(n)
        got = _conjugate(u)
        assert got.shape == (n,) and got.dtype == float
        assert np.abs(got - _conjugate_oracle(u)).max() \
            <= 1e-14 * np.abs(u).max()
    # the mean and the Nyquist bin carry nothing into the conjugate
    for u in (np.full(n, 2.5), 2.5 * (-1.0) ** np.arange(n)):
        assert np.abs(_conjugate(u)).max() <= 1e-14 * 2.5
        assert np.abs(harmonic_conjugate(Grid(u)).values).max() \
            <= 1e-14 * 2.5


def test_conjugate_rejects_complex_input():
    with pytest.raises(ValueError):
        harmonic_conjugate(Grid(np.full(8, 1j)))


# ---------------------------------------------------------------------------
# outer function from modulus
# ---------------------------------------------------------------------------

def test_outer_constant():
    out = outer_from_modulus(Grid(np.full(64, 2.0)))
    assert np.abs(out.values - 2.0).max() <= 1e-12


def test_outer_linear_factor():
    # |1 - z/2| on the circle lifts back to 1 - z/2 itself
    w = Grid.sample(lambda z: np.abs(1 - z / 2), 4096)
    out = outer_from_modulus(w)
    ref = Grid.sample(lambda z: 1 - z / 2, 4096)
    assert np.abs(out.values - ref.values).max() <= 1e-8


def test_outer_matches_exact_engine():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = random_outer_poly(rng, int(rng.integers(1, 9)))
        w = Grid.sample(lambda z: np.abs(f(z)), 4096)
        out = outer_from_modulus(w)
        ref = f(w.points)
        assert np.abs(out.values - ref).max() <= 1e-7 * np.abs(ref).max()


def test_outer_modulus_and_defect_postconditions():
    rng = np.random.default_rng(4)
    g = random_boundary_modulus(6, 0, 0, 3, rng)
    w = Grid(np.sqrt(np.maximum(g.grid_values(4096), 0.0)))
    out = outer_from_modulus(w)
    assert np.abs(np.abs(out.values) - w.values.real).max() \
        <= 1e-9 * float(w.values.real.max())
    assert analyticity_defect(out) <= 1e-8
    co = grid_fft(out)
    assert co[0].real > 0


def test_outer_rejects_small_modulus():
    vals = np.full(64, 1.0)
    vals[3] = 1e-9
    with pytest.raises(TooSmall):
        outer_from_modulus(Grid(vals))


# ---------------------------------------------------------------------------
# analyticity defect and symbol test
# ---------------------------------------------------------------------------

def test_defect_analytic_sample():
    assert analyticity_defect(Grid.sample(lambda z: z, 64)) <= 1e-14


def test_defect_antianalytic_sample():
    assert analyticity_defect(Grid.sample(np.conj, 64)) == pytest.approx(1.0)


def test_defect_lifted_pair():
    # conj(z) * conj(phi) * g for a valid pair built from the exact engine
    g = TrigPoly(1, (1.0, 0.5))
    phi = Grid.sample(lambda z: np.conj(z) ** 2, 4096)
    gg = Grid(g.grid_values(4096))
    prod = Grid(np.conj(gg.points) * np.conj(phi.values) * gg.values.real)
    assert analyticity_defect(prod) <= 1e-9


def test_symbol_condition_valid_pair():
    g = Grid.sample(lambda z: np.abs(1 + z) ** 2 / 2, 4096)
    phi = Grid.sample(lambda z: np.conj(z) ** 2, 4096)
    res = symbol_condition_test(phi, g)
    assert res.verdict and res.defect <= res.tolerance


def test_symbol_condition_band_too_wide():
    g = Grid.sample(lambda z: 2 + 2 * (z ** 2).real, 4096)
    phi = Grid.sample(lambda z: np.conj(z) ** 2, 4096)
    res = symbol_condition_test(phi, g)
    assert not res.verdict
    assert res.defect == pytest.approx(1.0)


def test_symbol_condition_trivial_symbol():
    ones = Grid(np.ones(4096))
    res = symbol_condition_test(ones, ones)
    assert not res.verdict
    assert res.defect == pytest.approx(1.0)


def test_symbol_condition_agrees_with_membership():
    # sampled route and exact route agree: a band-n modulus passes at
    # order n and fails at order n-1
    from hkl.kernel import membership_V
    rng = np.random.default_rng(12)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        g = random_boundary_modulus(n, 0, n, 0, rng)
        gg = Grid(g.grid_values(4096))
        for order in (n, n - 1):
            phi = Grid.sample(lambda z: np.conj(z) ** (order + 1), 4096)
            res = symbol_condition_test(phi, gg)
            assert res.verdict == membership_V(g, order).is_member


# ---------------------------------------------------------------------------
# domination integral
# ---------------------------------------------------------------------------

def test_domination_constant_ratio():
    r = 1 / math.sqrt(2)
    x = KernelElement(1, Poly((r, r)))
    g = TrigPoly(1, (1.0, 0.5))
    res = domination_integral(x, g)
    assert not res.divergent
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_domination_divergent_witness():
    r = 1 / math.sqrt(2)
    x = KernelElement(1, Poly((r, -r)))
    g = TrigPoly(1, (1.0, 0.5))
    res = domination_integral(x, g)
    assert res.divergent


def _separate_midpoint_sums(x, g):
    """The four midpoint sums, each with its own evaluation of f and g."""
    sums = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in (16, 32, 64, 128):
            theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
            fa = np.abs(x.f(np.exp(1j * theta)))
            gv = np.maximum(g.values(theta), 0.0)
            vals = np.where(fa == 0, 0.0, fa / np.sqrt(gv))
            sums.append(float(np.mean(vals)))
    return sums


def test_domination_sums_equal_separate_evaluations_bit_for_bit():
    # one evaluation on the union of midpoints gives each sum the bits of
    # its own evaluation, convergent, divergent and infinite alike
    rng = np.random.default_rng(32)
    r = 1 / math.sqrt(2)
    pairs = [(KernelElement(1, Poly((r, -r))), TrigPoly(1, (1.0, 0.5))),
             (KernelElement(0, Poly((1.0,))),
              TrigPoly(1, (1.0, -0.5 * np.exp(-1j * np.pi / 16))))]
    for _ in range(40):
        n = int(rng.integers(1, 9))
        circle = int(rng.integers(0, n + 1))
        g = random_boundary_modulus(n, 0, circle, n - circle, rng)
        deg = int(rng.integers(0, n + 1))
        f = Poly(tuple(rng.standard_normal(deg + 1)
                       + 1j * rng.standard_normal(deg + 1)))
        pairs.append((KernelElement(n, f), g))
    for x, g in pairs:
        got = domination_integral(x, g)
        assert list(map(repr, got.estimates)) == \
            list(map(repr, _separate_midpoint_sums(x, g)))
    assert domination_integral(*pairs[0]).divergent
    assert domination_integral(*pairs[1]).estimates[0] == math.inf


def test_domination_zero_element():
    res = domination_integral(KernelElement(1, Poly()), TrigPoly(1, (1.0, 0.5)))
    assert not res.divergent
    assert res.value == 0.0


def test_boundary_csv(tmp_path):
    path = tmp_path / "b.csv"
    write_boundary_csv(path, Grid.sample(lambda z: z, 8))
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,re,im,abs"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[3]) == pytest.approx(1.0)
