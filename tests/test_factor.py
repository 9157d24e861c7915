import collections
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from conftest import (FLAT_ORDER_80, HOLDOUT_131, MERGED_RESIDUAL,
                      NEAR_TOUCHING_64, NEAR_TOUCHING_554,
                      UNMERGED_ODD_ZERO, UNPAIRED_INSIDE_ROOT, census_suite,
                      jittered_extreme_point, trig_from_hex)

from hkl import factor, geometry, polycore
from hkl.errors import (AlreadyExtreme, InternalInvariantError,
                        NotDivisible, NotNonnegative, NullInput,
                        PairingFailure, PoleHit, PreconditionError,
                        SelfCheckFailed)
from hkl.factor import (BlaschkeProduct, blaschke_eval, blaschke_mul_poly,
                        divisors, fejer_riesz, inner_outer, spectral_factor)
from hkl.gen import random_boundary_modulus
from hkl.geometry import (_circle_count, enumerate_solutions, is_extreme,
                          split_nonextreme)
from hkl.polycore import (Poly, TrigPoly, circle_count, lift, nonneg_check,
                          nonneg_tol, poly_mul, roots,
                          trig_from_modulus_squared, trig_scale)

CIRCLE = np.exp(2j * np.pi * np.arange(512) / 512)
TOL_SPECTRAL = 1e-7   # the benchmark's relative round-trip error bound


def _max_err(p, q):
    m = max(p.degree, q.degree) + 1
    return max(abs(p.coeff(k) - q.coeff(k)) for k in range(m))


# ---------------------------------------------------------------------------
# inner_outer
# ---------------------------------------------------------------------------

def test_inner_outer_pure_shift():
    fac = inner_outer(Poly((0, 1)))
    assert fac.inner.m0 == 1 and not fac.inner.zeros
    assert fac.inner.lam == 1
    assert fac.outer.coeffs == (1 + 0j,)


def test_inner_outer_disk_zero():
    p = poly_mul(Poly((-0.5, 1)), Poly((1, -0.5)))
    fac = inner_outer(p)
    assert fac.inner.m0 == 0
    assert len(fac.inner.zeros) == 1
    a, m = fac.inner.zeros[0]
    assert m == 1 and abs(a - 0.5) < 1e-10
    # outer should be (1 - z/2)^2
    expected = poly_mul(Poly((1, -0.5)), Poly((1, -0.5)))
    assert _max_err(fac.outer, expected) < 1e-12


def test_inner_outer_power_of_z_beside_a_negative_inside_zero():
    # the inside zero -0.4 sorts before the root at 0: the powers of z come
    # off first, then -0.4 is traded for its reflection
    p = poly_mul(poly_mul(Poly((0, 0, 0.7 - 0.2j)), Poly((0.4, 1))),
                 Poly((-1.5 - 0.5j, 1)))
    fac = inner_outer(p)
    assert fac.inner.m0 == 2
    (a, m), = fac.inner.zeros
    assert m == 1 and abs(a + 0.4) < 1e-12
    reader = factor._inner_part(roots(p))
    assert reader.lam == 1
    assert (reader.m0, reader.zeros) == (fac.inner.m0, fac.inner.zeros)
    recon = blaschke_eval(fac.inner, CIRCLE) * fac.outer(CIRCLE)
    assert np.abs(recon - p(CIRCLE)).max() <= 1e-14 * np.abs(p(CIRCLE)).max()
    assert fac.outer.degree == 2
    assert all(abs(r.location) > 1 for r in roots(fac.outer))
    assert fac.outer.coeff(0).imag == 0 and fac.outer.coeff(0).real > 0


def test_inner_outer_already_outer():
    fac = inner_outer(Poly((1, 1)))
    assert fac.inner.is_trivial and fac.inner.lam == 1
    assert fac.outer.coeffs == (1 + 0j, 1 + 0j)


def test_inner_outer_null():
    with pytest.raises(NullInput):
        inner_outer(Poly())


def test_inner_outer_reconstructs_on_grid():
    rng = np.random.default_rng(2)
    for _ in range(25):
        deg = int(rng.integers(1, 13))
        p = Poly((rng.standard_normal() + 1j * rng.standard_normal(),))
        for _ in range(deg):
            a = rng.uniform(0.1, 1.9) * np.exp(2j * np.pi * rng.uniform())
            p = poly_mul(p, Poly((-a, 1)))
        fac = inner_outer(p)
        recon = blaschke_eval(fac.inner, CIRCLE) * fac.outer(CIRCLE)
        assert np.abs(recon - p(CIRCLE)).max() <= 1e-9 * max(
            1.0, np.abs(p(CIRCLE)).max())
        # the outer part carries the boundary modulus
        assert np.abs(np.abs(fac.outer(CIRCLE)) - np.abs(p(CIRCLE))).max() \
            <= 1e-9 * max(1.0, np.abs(p(CIRCLE)).max())
        assert fac.outer.coeff(0).imag == pytest.approx(0.0, abs=1e-12)
        assert fac.outer.coeff(0).real > 0


# ---------------------------------------------------------------------------
# fejer_riesz
# ---------------------------------------------------------------------------

def test_fejer_constant():
    assert fejer_riesz(TrigPoly(0, (1.0,))).coeffs == (1 + 0j,)


def test_fejer_one_plus_z():
    f = fejer_riesz(TrigPoly(1, (2.0, 1.0)))
    assert _max_err(f, Poly((1, 1))) < 1e-10


def test_fejer_keeps_outside_root():
    # |1 - z/2|^2 = 5/4 - z/2 - conj(z)/2; the lift's pair is {1/2, 2}
    f = fejer_riesz(TrigPoly(1, (1.25, -0.5)))
    assert _max_err(f, Poly((1, -0.5))) < 1e-10


def test_fejer_rejects_sign_change():
    with pytest.raises(NotNonnegative):
        fejer_riesz(TrigPoly(1, (0.0, 0.5)))


def test_fejer_merged_root_meets_the_residual_bound():
    # the lift's two roots passed the merge test as one double root whose
    # residual failed the bound every root meets: NonConvergence
    back = trig_from_modulus_squared(fejer_riesz(MERGED_RESIDUAL))
    assert _max_err(lift(back), lift(MERGED_RESIDUAL)) <= 1e-9


def test_fejer_unpaired_odd_circle_zero_is_internal():
    # nonnegative to tolerance, but the circle count declines and its lift
    # leaves a lone odd circle zero: the library's failure, not the caller's
    assert _near_touching(5, 600)[554] == UNMERGED_ODD_ZERO
    assert nonneg_check(UNMERGED_ODD_ZERO).nonnegative
    assert circle_count(UNMERGED_ODD_ZERO) is None
    with pytest.raises(PairingFailure, match="odd circle zero"):
        fejer_riesz(UNMERGED_ODD_ZERO)


@pytest.mark.xfail(reason="the count's grid stage shows two "
                   "minima 1.5 cells apart as one sample and declines a g "
                   "that the count's own rule decides")
def test_circle_count_decides_a_g_whose_minima_are_double_zeros():
    # n = 9: all nine minima are double zeros within tolerance, two of them
    # at grid cells 3755.8 and 3757.3 of 4096
    g = _near_touching(5, 600)[194]
    assert len(polycore._count_minima(g)[0]) == 9
    assert circle_count(g) is not None


def test_fejer_factors_holdout_131_split_halves():
    # the lift of the first half has ten double circle zeros, two of them
    # 6e-4 apart: Aberth steps taken past the backward-error test pull
    # them into a triple cluster and a stray simple root off the circle
    cert = split_nonextreme(HOLDOUT_131, 10)
    for half, g in ((cert.f1, cert.g1), (cert.f2, cert.g2)):
        back = fejer_riesz(g)
        scale = max(abs(c) for c in half.f.coeffs)
        assert _max_err(back, half.f) <= TOL_SPECTRAL * scale
        round_trip = trig_from_modulus_squared(back)
        assert max(abs(round_trip.coeff(k) - g.coeff(k))
                   for k in range(g.n + 1)) <= TOL_SPECTRAL
        assert is_extreme(g, 10).verdict


def _near_touching(seed, count):
    """|f|^2 / mean with 1..n unit zeros of f, the others at |a| in
    [1.05, 2]; then g_0 -= d and g_1 += d u e^(i phi), d = 10^U(-13, -3),
    u = U(0, 0.5), which leaves some nonnegative and dips others."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 13))
        circ = int(rng.integers(1, n + 1))
        zeros = [np.exp(2j * np.pi * rng.uniform()) for _ in range(circ)]
        zeros += [rng.uniform(1.05, 2.0) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n - circ)]
        f = Poly((1.0,))
        for a in zeros:
            f = f * Poly((-a, 1.0))
        g = trig_from_modulus_squared(f)
        c = list(trig_scale(g, 1.0 / g.mean).coeffs)
        d = 10.0 ** rng.uniform(-13, -3)
        c[0] -= d
        c[1] += d * rng.uniform(0, 0.5) * np.exp(2j * np.pi * rng.uniform())
        out.append(TrigPoly(n, tuple(c)))
    return out


def _oracle_min(g, mpmath):
    """min of g over a 4096-point grid and the angles of the near-circle
    roots of lift(g') (numpy's companion solve), each valued in 40 digits:
    the minimum of g is at a circle root of g'."""
    k = np.arange(1, g.n + 1)
    c = np.asarray(g.coeffs[1:])
    crit = np.roots(np.concatenate(
        [(-1j * k * c.conj())[::-1], [0j], 1j * k * c])[::-1])
    angles = np.angle(crit[np.abs(np.abs(crit) - 1.0) <= 1e-3])
    cs = [mpmath.mpc(z.real, z.imag) for z in g.coeffs]
    with mpmath.workdps(40):
        values = [float(cs[0].real + 2 * mpmath.re(mpmath.fsum(
            cs[j] * mpmath.expj(j * mpmath.mpf(t))
            for j in range(1, g.n + 1)))) for t in angles]
    return min([float(g.grid_values(4096).min())] + values)


def test_fejer_near_touching_family_negative_iff_oracle_says_so():
    # a nonnegative input may fail inside the library (PairingFailure),
    # never as the caller's fault; a negative one is always NotNonnegative
    mpmath = pytest.importorskip("mpmath")
    signs = set()
    for g in _near_touching(5, 100):
        nonnegative = _oracle_min(g, mpmath) >= -nonneg_tol(g)
        signs.add(nonnegative)
        assert nonneg_check(g).nonnegative == nonnegative
        if nonnegative:
            try:
                fejer_riesz(g)
            except PreconditionError as exc:
                pytest.fail(f"nonnegative input rejected: {exc!r}")
            except PairingFailure:
                pass
        else:
            with pytest.raises(NotNonnegative):
                fejer_riesz(g)
    assert signs == {True, False}


def test_fejer_near_touching_family_outcome_classes():
    # every factor is judged by what was built: 19 nonnegative inputs have
    # no exact factor (their minima dip below 0 within tolerance); the 7
    # whose minima the circle count reads as double zeros are factored from
    # those angles, within tolerance, and the other 12 end in an internal
    # error, never in a wrong factor or the caller's fault
    outcomes = collections.Counter()
    for g in _near_touching(5, 600):
        try:
            fejer_riesz(g)
            outcomes["factor"] += 1
        except NotNonnegative:
            assert not nonneg_check(g).nonnegative
            outcomes["NotNonnegative"] += 1
        except InternalInvariantError as exc:
            outcomes[type(exc).__name__] += 1
    assert outcomes == {"factor": 201, "NotNonnegative": 387,
                        "PairingFailure": 12}


def test_split_near_touching_family_never_blames_a_nonnegative_input(
        monkeypatch):
    # the family rescaled to mean 1: every input ends in a certificate,
    # AlreadyExtreme, NotNonnegative for a negative g, or the library's own
    # failure; a half of g is the library's function, never the caller's
    family = [trig_scale(g, 1.0 / g.mean) for g in _near_touching(5, 600)]
    assert family[64] == NEAR_TOUCHING_64
    assert family[554] == NEAR_TOUCHING_554
    # the halves that miss the round-trip shortcut go to the circle count
    counted = []

    def count(gj):
        zeros = _circle_count(gj)
        counted.append((gj, zeros is not None))
        return zeros
    monkeypatch.setattr(geometry, "_circle_count", count)
    outcomes = collections.Counter()
    for g in family:
        try:
            cert = split_nonextreme(g, g.n)
            assert cert.checks.extreme1 and cert.checks.extreme2
            outcomes["certificate"] += 1
        except AlreadyExtreme:
            outcomes["AlreadyExtreme"] += 1
        except NotNonnegative:
            assert not nonneg_check(g).nonnegative
            outcomes["NotNonnegative"] += 1
        except InternalInvariantError as exc:
            outcomes[type(exc).__name__] += 1
    assert outcomes == {"certificate": 131, "AlreadyExtreme": 63,
                        "PairingFailure": 11, "SelfCheckFailed": 8,
                        "NotNonnegative": 387}
    # the count certifies a half exactly when its lift's roots say extreme;
    # the 8 it declines dip below -nonneg_tol, which is_extreme refuses
    assert len(counted) == 13
    for gj, certified in counted:
        try:
            extreme = is_extreme(gj, gj.n).verdict
        except NotNonnegative:
            extreme = False
        assert certified == extreme
    assert sum(certified for _, certified in counted) == 5


def test_circle_count_certificates_hold_on_a_fine_grid():
    # a g the count certifies is >= -nonneg_tol on a 2**16 grid, and the
    # count certifies every g that the rule it replaced in
    # perturbation_search certified: n double zeros from _circle_zeros,
    # each with |g| <= nonneg_tol (55 of the count's 63; 8 only the count)
    counted = 0
    for g in _near_touching(5, 600):
        tol = nonneg_tol(g)
        minima = _circle_count(g)
        if minima is not None:
            counted += 1
            assert g.grid_values(2 ** 16).min() >= -tol
        zeros = polycore._analysis(g).circle_zeros
        if (zeros is not None and sum(m for _, m in zeros) == 2 * g.n
                and all(abs(g.values(t)) <= tol for t, _ in zeros)):
            assert minima is not None
    assert counted == 63


def test_fejer_not_nonnegative_names_the_minimum_of_g():
    # g = 3 + 4 cos(theta) has max |g_k| = 3: the error gives g's own
    # minimum, -1, and tolerance, not those of g / 3
    g = TrigPoly(1, (3.0, 2.0))
    cert = nonneg_check(g)
    assert cert.min_value == pytest.approx(-1.0)
    assert cert.tol == pytest.approx(nonneg_tol(g))
    with pytest.raises(NotNonnegative) as err:
        fejer_riesz(g)
    assert (f"min value {cert.min_value:.3e} < -{cert.tol:.1e}"
            in str(err.value))


def test_fejer_refuses_a_factor_that_misses_g():
    # nonnegative to tolerance, but the circle count declines and the
    # lift's inside double root has no outside partner: the factor built
    # from the rest has degree 10 and misses g by 0.64 in its round trip,
    # and is not returned
    g = UNPAIRED_INSIDE_ROOT
    assert _near_touching(9, 600)[206] == g
    assert nonneg_check(g).nonnegative
    assert circle_count(g) is None
    with pytest.raises(SelfCheckFailed, match="round trip"):
        fejer_riesz(g)


def test_fejer_factors_flat_order_80():
    # g >= 0.6, so the factor exists and is well conditioned; a cofactor
    # expanded from its ~80 outside roots by chained convolution missed g
    # by about 14, and one FFT of its values gets it to rounding
    g = FLAT_ORDER_80
    assert nonneg_check(g).min_value >= 0.6 - 1e-12
    rec = spectral_factor(g)
    assert rec.factor.degree == 80
    assert rec.residual <= 1e-14


@pytest.mark.parametrize("n", [48, 64])
def test_fejer_factors_jittered_extreme_points(n):
    # n circle zeros spread around the circle: with the circle part
    # expanded by chained convolution the round trip failed from n = 48 on
    f, g = jittered_extreme_point(n, n)
    rec = spectral_factor(g)
    assert rec.residual <= 1e-13
    assert _max_err(rec.factor, f) <= 1e-12


def test_fejer_null():
    with pytest.raises(NullInput):
        fejer_riesz(TrigPoly(0, (0j,)))


def test_fejer_round_trip_random():
    from conftest import random_outer_poly
    rng = np.random.default_rng(10)
    for _ in range(40):
        deg = int(rng.integers(1, 17))
        circ = int(rng.integers(0, min(deg, 3) + 1))
        f = random_outer_poly(rng, deg, circ)
        g = trig_from_modulus_squared(f)
        back = fejer_riesz(g)
        scale = max(abs(c) for c in f.coeffs)
        assert _max_err(back, f) <= 1e-7 * scale


def test_fejer_output_is_outer():
    from conftest import random_outer_poly
    rng = np.random.default_rng(14)
    for _ in range(15):
        f = random_outer_poly(rng, int(rng.integers(1, 13)), 1)
        back = fejer_riesz(trig_from_modulus_squared(f))
        for r in roots(back):
            assert abs(r.location) >= 1.0 - 1e-9


def test_fejer_merges_split_double_circle_zero():
    # the first modulus of acceptance criterion 7: rounding splits the
    # lift's double zero near -0.909-0.417i into two simple circle roots
    # 6e-8 apart, between which the rounded g dips far below the
    # nonnegativity tolerance
    rng = np.random.default_rng(777)
    n = int(rng.integers(1, 9))
    g = random_boundary_modulus(n, 0, n, 0, rng)
    f = fejer_riesz(g)
    assert f.degree == n
    back = trig_from_modulus_squared(f)
    assert max(abs(back.coeff(k) - g.coeff(k)) for k in range(n + 1)) <= 1e-12
    for r in roots(f):
        assert abs(abs(r.location) - 1.0) <= 1e-9


def _round_trip_348():
    # round trip #348 of acceptance criterion 2: degree 16, 3 circle zeros
    from conftest import random_outer_poly
    rng = np.random.default_rng(222)
    for _ in range(349):
        deg = int(rng.integers(1, 17))
        circ = int(rng.integers(0, min(deg, 3) + 1))
        f = random_outer_poly(rng, deg, circ)
    return f


def test_fejer_polish_round_trip_348():
    f = _round_trip_348()
    back = fejer_riesz(trig_from_modulus_squared(f))
    scale = max(abs(c) for c in f.coeffs)
    assert _max_err(back, f) <= 1e-7 * scale


def test_fejer_polish_residual_in_high_precision():
    mpmath = pytest.importorskip("mpmath")
    g = trig_from_modulus_squared(_round_trip_348())
    back = fejer_riesz(g)
    with mpmath.workdps(50):
        c = [mpmath.mpc(z.real, z.imag) for z in back.coeffs]
        worst = max(
            abs(mpmath.fsum(c[j + k] * mpmath.conj(c[j])
                            for j in range(len(c) - k))
                - mpmath.mpc(g.coeff(k).real, g.coeff(k).imag))
            for k in range(g.n + 1))
    assert float(worst) <= 1e-12 * max(abs(c) for c in g.coeffs)


# instance 80 of bench/workloads.spectral_inputs(2718, 400): degree 15 with
# 2 circle zeros, the benchmark's tripwire.  Its factor is ill-conditioned:
# fejer_riesz misses the generator's f by 3.0e-8, 0.52 digits under the
# benchmark's bound, so a change to roots or factors that costs accuracy
# shows here first
SPECTRAL_80_G = (
    ("0x1.f882c80d45580p+25", "0x0.0p+0"),
    ("0x1.2c81773795d12p+22", "0x1.c2c97d8e949b0p+25"),
    ("-0x1.6a288dbb0c53fp+25", "0x1.de7a80e2604b4p+20"),
    ("0x1.6fc5352026e54p+16", "-0x1.2d1a885109b3ep+25"),
    ("0x1.bcd7fc95237b3p+24", "-0x1.6951d1a5a244ap+21"),
    ("0x1.cc2ab07b06b28p+21", "0x1.ea384a57871c4p+23"),
    ("-0x1.bdd02cc34cc29p+22", "0x1.1b85a767c2c89p+20"),
    ("0x1.3d58319a08c28p+18", "-0x1.b47c0aa866ae3p+21"),
    ("0x1.748ed8c0c156cp+20", "0x1.73d716c84f4f1p+18"),
    ("-0x1.db498447fde2fp+18", "0x1.95f8794a0bd6ep+18"),
    ("-0x1.adbc59ed9e264p+17", "-0x1.d8657f824f07bp+18"),
    ("0x1.af6bca6e81dc9p+17", "-0x1.a1d1cc8b8b513p+17"),
    ("0x1.a3545206d317ap+16", "0x1.e7ef82dff9048p+14"),
    ("0x1.e64297e8a395fp+12", "0x1.83604c44b5df5p+14"),
    ("-0x1.0d2c5984aee3dp+11", "0x1.67008c54e2164p+11"),
    ("-0x1.c59fb3f9cf969p+7", "0x1.3e49ce93dfd00p-1"))
SPECTRAL_80_F = (
    ("0x1.c5a023a3e4ec6p+7", "-0x1.2d44c74c88958p-55"),
    ("0x1.32186891d30f3p+9", "0x1.097617829b0bcp+10"),
    ("-0x1.7e69968a24dfep+10", "0x1.275ed3891e1e1p+11"),
    ("-0x1.a35498f6334c4p+11", "-0x1.b49ba2c2bac5cp+9"),
    ("0x1.28bbc8ba975f4p+10", "-0x1.543aa4669aec0p+11"),
    ("0x1.6cb70adaad51cp+11", "0x1.2ad6b4d5f6d1ap+11"),
    ("-0x1.ba582b3fc1038p+10", "0x1.b07f0ffc2818cp+11"),
    ("-0x1.1863c566e12bdp+11", "-0x1.d4017398eea18p+8"),
    ("0x1.7fed4ea0976abp+8", "-0x1.957c7083d5eadp+9"),
    ("0x1.9df431d929b36p+8", "0x1.af96e8a15429ap+8"),
    ("-0x1.19d66543a2bd6p+7", "0x1.6f2829adfa468p+7"),
    ("0x1.6d2f20ee0d3dcp+5", "-0x1.0a353cfff9152p+6"),
    ("0x1.7538088881cebp+6", "0x1.4dc8a977d08eep+5"),
    ("0x1.126ca9f1328e3p+3", "0x1.6c1c3ad5bbdb3p+5"),
    ("-0x1.b3b3daad9f054p+2", "0x1.fe4e48f63ff77p+2"),
    ("-0x1.ffff81f756a09p-1", "0x1.673f3b1fbc4bep-9"))


def test_fejer_spectral_80_stays_under_the_benchmark_bound():
    # the benchmark's measure: max |F_k - f_k| / max |f_k|
    g = trig_from_hex(SPECTRAL_80_G)
    f = np.array([complex(float.fromhex(re), float.fromhex(im))
                  for re, im in SPECTRAL_80_F])
    back = fejer_riesz(g)
    assert back.degree == 15
    got = back.as_array()
    assert np.abs(got - f).max() / np.abs(f).max() <= TOL_SPECTRAL


@pytest.fixture
def jacobian_calls(monkeypatch):
    """The number of ``factor._jacobian`` builds during the test, in a
    one-element list."""
    calls = [0]
    build = factor._jacobian

    def counted(*args):
        calls[0] += 1
        return build(*args)
    monkeypatch.setattr(factor, "_jacobian", counted)
    return calls


def _polish_norm(coeffs, g):
    """The 2-norm that ``factor._polish`` drives down: |F|^2 - g on the
    frequencies 0..n, the positive ones weighted by sqrt(2)."""
    deg = len(coeffs) - 1
    diff = -np.asarray(g.coeffs, dtype=complex)
    diff[:deg + 1] += np.correlate(coeffs, coeffs, "full")[deg:]
    diff[1:] *= math.sqrt(2.0)
    return float(np.linalg.norm(diff))


def _perturbed_polish():
    # F = cofactor * (z - w1)(z - w2), |w_j| = 1, started 1e-9 away from it
    rng = np.random.default_rng(0)
    cofactor = np.convolve(np.convolve([-1.5 * np.exp(0.3j), 1.0],
                                       [-2.0 * np.exp(2j), 1.0]),
                           [1.2, 0.4 - 0.3j])
    angles, halves = np.array([0.7, 2.5]), np.array([1, 1])
    f = np.convolve(cofactor, factor._zero_poly(np.exp(1j * angles), halves))
    g = trig_from_modulus_squared(Poly(tuple(f)))
    floor = np.finfo(float).eps * factor._l1(g)
    start = cofactor * (1 + 1e-9 * rng.standard_normal(len(cofactor)))
    angles = angles + 1e-9 * rng.standard_normal(2)
    polished = factor._polish(np.asarray(g.coeffs), start,
                              factor._zero_poly(np.exp(1j * angles), halves),
                              angles, halves, floor)
    return g, floor, polished


def test_polish_steps_down_to_the_floor(jacobian_calls):
    g, floor, polished = _perturbed_polish()
    assert jacobian_calls[0] >= 1
    assert _polish_norm(polished, g) <= floor


def test_polish_at_the_floor_builds_no_jacobian(jacobian_calls):
    # a polished factor fed back costs one residual and no step
    g, floor, polished = _perturbed_polish()
    jacobian_calls[0] = 0
    again = factor._polish(np.asarray(g.coeffs), polished, np.ones(1),
                           np.zeros(0), np.zeros(0, dtype=int), floor)
    assert jacobian_calls[0] == 0
    assert np.array_equal(again, polished)


def test_jacobian_layout_is_one_read_only_table_per_shape():
    # a polish of the same shape reads the cached layout: its tables refuse
    # writes, and a second polish returns the cold build's coefficients
    factor._jacobian_layout.cache_clear()
    _, _, cold = _perturbed_polish()
    assert factor._jacobian_layout.cache_info().misses == 1
    _, _, warm = _perturbed_polish()
    info = factor._jacobian_layout.cache_info()
    assert info.misses == 1 and info.hits > 0
    assert warm.tobytes() == cold.tobytes()
    # F of degree 5 at band 5: a cofactor of 4 and a circle part of 3 terms
    layout = factor._jacobian_layout(5, 5, 4, 3)
    assert factor._jacobian_layout.cache_info().misses == 1
    for table in layout:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[0]


def test_census_pass_builds_fewer_jacobians_than_polishes(monkeypatch,
                                                          jacobian_calls,
                                                          cold_analysis):
    # work guard in counts, not seconds: most root-built factors start at
    # g's rounding floor and take no step, so a pass builds fewer Jacobians
    # than it polishes.  A polish that stops only on a rejected step builds
    # at least one Jacobian per call
    polishes = [0]
    polish = factor._polish

    def counted(*args):
        polishes[0] += 1
        return polish(*args)
    monkeypatch.setattr(factor, "_polish", counted)
    for g, n, _ in census_suite(240, seed=1812):
        if is_extreme(g, n).verdict:
            fejer_riesz(g)
        else:
            split_nonextreme(g, n)
        enumerate_solutions(g, n)
    assert polishes[0] > 0
    assert jacobian_calls[0] < polishes[0]


def test_build_at_the_floor_expands_once(monkeypatch, jacobian_calls):
    # work guard in counts: a factor whose start is already at g's rounding
    # floor takes no step, so its circle part is expanded once, before the
    # build (``_circle_factor``), and the builder expands nothing again
    cofactor = np.array([-1.5 * np.exp(0.3j), 1.0])
    circle = ((0.7, 2), (2.5, 4))
    f = np.convolve(cofactor, np.convolve(
        [-np.exp(0.7j), 1.0], np.convolve([-np.exp(2.5j), 1.0],
                                          [-np.exp(2.5j), 1.0])))
    g = trig_from_modulus_squared(Poly(tuple(f)))
    expansions = [0]
    expand = factor._zero_poly

    def counted(*args):
        expansions[0] += 1
        return expand(*args)
    monkeypatch.setattr(factor, "_zero_poly", counted)
    built, resid = factor._factor_from_zeros(g, cofactor,
                                             factor._circle_factor(circle))
    assert jacobian_calls[0] == 0
    assert expansions[0] == 1
    assert resid / factor._l1(g) <= 1e-15


def _coefficient_round_trip(f, g):
    # reference: the round trip summed over coeff(k), frequency by frequency
    back = trig_from_modulus_squared(f)
    diff = np.abs([back.coeff(k) - g.coeff(k)
                   for k in range(max(back.n, g.n) + 1)])
    return float(diff[0] + 2.0 * diff[1:].sum())


def test_round_trip_matches_the_coefficient_sum_bit_for_bit():
    # g's own factor, where the difference cancels to rounding, and random
    # F of degree below, at and above g's band
    rng = np.random.default_rng(9001)
    for n in range(1, 13):
        g = random_boundary_modulus(n, 0, n // 2, n - n // 2, rng)
        fs = [fejer_riesz(g)] + [
            Poly(tuple(rng.standard_normal(deg + 1)
                       + 1j * rng.standard_normal(deg + 1)))
            for deg in (n - 1, n, n + 1)]
        for f in fs:
            got = factor._round_trip(f, g)
            assert got.hex() == _coefficient_round_trip(f, g).hex()


def test_spectral_factor_carries_the_round_trip_it_was_accepted_by():
    # the residual is the round trip over |g_0| + 2 sum |g_k|, at unit scale
    # for a g with a coefficient above 1
    g = random_boundary_modulus(5, 1, 2, 2, np.random.default_rng(11))
    rec = spectral_factor(g)
    l1 = abs(g.coeff(0)) + 2 * sum(abs(g.coeff(k)) for k in range(1, 6))
    assert rec.factor == fejer_riesz(g)
    assert rec.residual == factor._round_trip(rec.factor, g) / l1
    assert 0 < rec.residual <= TOL_SPECTRAL
    big = spectral_factor(trig_scale(g, 4.0))
    assert big.residual == rec.residual
    assert _max_err(big.factor, rec.factor.scaled(2.0)) <= 1e-14


def test_fejer_memoizes_one_entry_per_g(monkeypatch, cold_analysis):
    # max |g_k| = 4 > 1: the memo holds one record for g, which analyses
    # g / 4, and a repeated call reads the factor built in it
    builds = []
    build = factor._factor_from_zeros
    monkeypatch.setattr(factor, "_factor_from_zeros",
                        lambda *args: builds.append(args) or build(*args))
    g = TrigPoly(1, (4.0, 1.5))
    first = fejer_riesz(g)
    assert polycore._analysis(g).unit == TrigPoly(1, (1.0, 0.375))
    assert fejer_riesz(g) == first
    info = polycore._analysis.cache_info()
    assert (info.currsize, info.misses, len(builds)) == (1, 1, 1)
    assert info.hits > 0


# ---------------------------------------------------------------------------
# blaschke products
# ---------------------------------------------------------------------------

def test_blaschke_eval_shift():
    b = BlaschkeProduct(1, (), 1.0)
    assert blaschke_eval(b, 1j) == pytest.approx(1j)


def test_blaschke_eval_fixed_points():
    b = BlaschkeProduct(0, ((0.5, 1),), 1.0)
    assert blaschke_eval(b, 1.0) == pytest.approx(1.0)
    assert blaschke_eval(b, -1.0) == pytest.approx(-1.0)


def test_blaschke_pole():
    b = BlaschkeProduct(0, ((0.5, 1),), 1.0)
    with pytest.raises(PoleHit):
        blaschke_eval(b, 2.0)


def test_blaschke_unimodular_on_circle():
    b = BlaschkeProduct(2, ((0.3 + 0.4j, 2), (-0.5, 1)), 1j)
    vals = blaschke_eval(b, CIRCLE)
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-10


def test_blaschke_numerator_and_denominator():
    # N / D is the product on the circle; N leads with exactly lam, D starts
    # with exactly 1 and is N's zero part conjugated and reversed
    b = BlaschkeProduct(2, ((0.3 + 0.4j, 2), (-0.5, 1), (0.1j, 3)), 1j)
    num, den = b.numerator(), b.denominator()
    assert (num.degree, den.degree) == (8, 6)
    assert num.coeffs[:2] == (0j, 0j) and num.coeffs[-1] == 1j
    assert den.coeffs[0] == 1
    assert np.abs(num(CIRCLE) / den(CIRCLE) - blaschke_eval(b, CIRCLE)).max() \
        <= 1e-14
    assert np.allclose(den.as_array(), np.conj(num.as_array()[2:][::-1] / 1j),
                       rtol=0, atol=1e-15)
    # both from one expansion, D zero-padded to N's length
    top, bottom = b.fraction()
    assert len(top) == len(bottom) == 9
    assert top.tobytes() == num.as_array().tobytes()
    assert bottom.tobytes() == np.pad(den.as_array(), (0, 2)).tobytes()


def test_blaschke_rejects_outside_zero():
    with pytest.raises(ValueError):
        BlaschkeProduct(0, ((1.2, 1),), 1.0)
    with pytest.raises(ValueError):
        BlaschkeProduct(0, ((0.5, 1),), 2.0)


@pytest.mark.parametrize("m0, zeros", [(1.5, ()), (0, ((0.5, 1.5),)),
                                      (True, ()), (0, ((0.5, 2.0),)),
                                      (-1, ()), (0, ((0.5, 0),))])
def test_blaschke_rejects_a_count_that_is_no_positive_integer(m0, zeros):
    # int() would read 1.5 as 1; the product refuses it instead
    with pytest.raises(ValueError, match="integer"):
        BlaschkeProduct(m0, zeros, 1.0)


def test_blaschke_takes_numpy_integer_counts():
    b = BlaschkeProduct(np.int64(1), ((0.5, np.int64(2)),), 1.0)
    assert b.degree == 3 and b.zeros == ((0.5 + 0j, 2),)
    assert b.numerator().degree == 3


def test_zero_poly_matches_the_product_of_its_factors():
    # leading 1 exactly; multiplicities repeat a zero; nothing gives 1
    rng = np.random.default_rng(3)
    zeros = rng.uniform(0.2, 2.0, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
    mults = [1, 3, 2, 1]
    got = factor._zero_poly(zeros, mults)
    want = npp.polyfromroots(np.repeat(zeros, mults))
    assert got[-1] == 1 and len(got) == 8
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert factor._zero_poly([], []).tolist() == [1]


def test_expander_grid_is_one_read_only_table_per_size():
    # the grid is the np.exp of the whole grid bit for bit, shared per size
    # and read-only, so the expansions are those of a grid built per call
    for size in (8, 64, 4096):
        zeta = factor._unit_grid(size)
        want = np.exp(2j * np.pi * np.arange(size) / size)
        assert zeta is factor._unit_grid(size)
        assert not zeta.flags.writeable
        assert zeta.tobytes() == want.tobytes()
    # k = 0 is the empty product, which _zero_poly returns without an FFT
    rng = np.random.default_rng(25)
    for k in range(12):
        zeros = rng.uniform(0.2, 2.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
        size = 1 << (2 * k + 1).bit_length()
        zeta = np.exp(2j * np.pi * np.arange(size) / size)
        want = np.fft.fft((zeta[:, None] - zeros).prod(axis=1),
                          norm="forward")[:k + 1]
        want[k] = 1.0
        assert factor._zero_poly(zeros, [1] * k).tobytes() == want.tobytes()


def test_divisors_trivial():
    assert [d.degree for d in divisors(BlaschkeProduct())] == [0]


def test_divisors_single_zero():
    ds = divisors(BlaschkeProduct(0, ((0.5, 1),), 1.0))
    assert len(ds) == 2
    assert {d.degree for d in ds} == {0, 1}


def test_divisors_count():
    ds = divisors(BlaschkeProduct(1, ((0.5, 2),), 1.0))
    assert len(ds) == 6  # (1+1) * (2+1)
    assert all(d.lam == 1 for d in ds)


def test_divisors_count_general():
    b = BlaschkeProduct(2, ((0.5, 2), (0.1 - 0.3j, 3)), -1.0)
    assert len(divisors(b)) == 3 * 3 * 4


# ---------------------------------------------------------------------------
# blaschke_mul_poly
# ---------------------------------------------------------------------------

def test_blaschke_mul_swaps_root():
    f = Poly((1, -0.5))
    j = BlaschkeProduct(0, ((0.5, 1),), 1.0)
    assert _max_err(blaschke_mul_poly(f, j), Poly((-0.5, 1))) < 1e-12


def test_blaschke_mul_trivial():
    f = Poly((1, 2j, 3))
    assert blaschke_mul_poly(f, BlaschkeProduct()).coeffs == f.coeffs


def _fft_rows(f, combos):
    """Reference: the rows the FFT path of ``_inner_multiples`` gives for an
    inner factor without zeros, whose rows it then writes f over."""
    c = f.as_array()
    combos = np.asarray(combos, dtype=int)
    low, top = combos[:, :1], len(c) - 1 + combos[:, :1]
    size = 1 << (2 * int(top.max()) + 2).bit_length()
    zeta = factor._unit_grid(size)
    rows = np.fft.ifft(c, size, norm="forward") * zeta ** low
    out = np.fft.fft(rows, axis=1, norm="forward")
    k = np.arange(size)
    out[(k < low) | (k > top)] = 0
    for i in range(len(combos)):
        out[i, low[i, 0]:top[i, 0] + 1] = c
    return out[:, :int(top.max()) + 1]


def test_inner_multiples_of_a_power_of_z_take_no_fft(monkeypatch):
    # z**m0 alone: each row is f shifted, bit for bit the FFT path's rows
    # (dtype, width and exact zeros included), with no FFT taken
    rng = np.random.default_rng(34)
    cases = []
    for deg in range(1, 17):
        f = Poly(tuple(rng.standard_normal(deg + 1)
                       + 1j * rng.standard_normal(deg + 1)))
        for m0 in range(5):
            inner = BlaschkeProduct(m0)
            for combos in (factor._divisor_exponents(inner), [[m0]]):
                cases.append((f, inner, combos, _fft_rows(f, combos)))

    def refuse(*args, **kwargs):
        raise AssertionError("an FFT was taken")
    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    for f, inner, combos, want in cases:
        got = factor._inner_multiples(f, inner, combos)
        assert got.dtype == want.dtype == np.complex128
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_blaschke_mul_not_divisible():
    with pytest.raises(NotDivisible):
        blaschke_mul_poly(Poly((1, 1)), BlaschkeProduct(0, ((0.5, 1),), 1.0))


def test_blaschke_mul_preserves_modulus():
    f = poly_mul(Poly((1, -0.5)), Poly((2, 1)))
    j = BlaschkeProduct(1, ((0.5, 1),), 1j)
    prod = blaschke_mul_poly(f, j)
    assert np.abs(np.abs(prod(CIRCLE)) - np.abs(f(CIRCLE))).max() < 1e-9


def test_blaschke_mul_self_inversive_lift():
    # a lift z**n g takes the one general path: a Blaschke zero whose
    # reflected point is no zero of the lift is refused.  Instance #360 of
    # the 711 census suite is n = 12, census (3, 9, 0)
    a = 0.4 - 0.3j
    f = poly_mul(Poly((1, 0.6j)), Poly((-a, 1)))      # zero a inside
    g360, n360, _ = census_suite(361, seed=711, max_n=12)[360]
    for lifted in (lift(trig_from_modulus_squared(f)), lift(g360, n360)):
        with pytest.raises(NotDivisible):
            blaschke_mul_poly(lifted, BlaschkeProduct(0, ((0.5, 1),), 1.0))


@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_blaschke_mul_keeps_the_modulus_over_many_zeros(n):
    # F times the Blaschke product of the reflections of its n/2 smallest
    # zeros, for g = 1 plus a band-n term with sum |g_k| = 0.1 over k != 0:
    # deflating F at one zero after another lost digits with each (3.0e-7
    # at n = 64); built from values the product stays at rounding
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = TrigPoly(n, (1 + 0j,) + tuple(c * (0.05 / np.abs(c).sum())))
    f = fejer_riesz(g)
    smallest = sorted(np.roots(f.as_array()[::-1]), key=abs)[:n // 2]
    j = BlaschkeProduct(0, tuple((1 / np.conj(z), 1) for z in smallest), 1.0)
    prod = blaschke_mul_poly(f, j)
    zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
    assert prod.degree == n
    assert np.abs(np.abs(prod(zeta)) ** 2
                  - g.values(np.angle(zeta))).max() <= 1e-12


def test_enumerate_places_each_mirrored_zero_once(monkeypatch):
    # work guard in counts: the lift of g = |f|^2 has 3 simple inner zeros,
    # so 8 divisors.  Each mirrored zero of F is placed once, 3 refiner
    # calls where one per divisor and zero made 12, and one FFT makes every
    # product's coefficients
    f = Poly(tuple(factor._zero_poly([1.5, -1.7j, 0.4 + 0.2j], [1, 1, 1])))
    g = trig_from_modulus_squared(f)
    enumerate_solutions(g, 3)       # fills g's record: F and the lift's roots
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(factor, "_newton_polish",
                        counted("refine", factor._newton_polish))
    monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
    sols = enumerate_solutions(g, 3)
    assert len(sols) == 8
    assert counts == {"refine": 3, "fft": 1}


def test_phase_convention_makes_factorization_unique():
    # the same polynomial rotated by a unimodular constant gives the same
    # outer part; only lambda moves
    p = poly_mul(Poly((-0.4, 1)), Poly((1, 0.7)))
    fac1 = inner_outer(p)
    fac2 = inner_outer(p.scaled(np.exp(0.8j)))
    assert _max_err(fac1.outer, fac2.outer) < 1e-12
    assert fac2.inner.lam == pytest.approx(fac1.inner.lam * np.exp(0.8j))
