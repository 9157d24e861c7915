import collections

import numpy as np
import pytest

from hkl import factor, polycore
from hkl.gen import random_boundary_modulus, random_kernel_element
from hkl.polycore import (Poly, TrigPoly, poly_mul, trig_from_modulus_squared,
                          trig_scale)


def random_outer_poly(rng, degree, circle=0, sep=0.1):
    """Outer polynomial with separated roots in [1.05, 2] plus circle roots.

    Separation counts reflections too, keeping the lifted modulus
    well-conditioned; the value at 0 is normalized real positive.
    """
    used = []
    p = Poly((1.0,))

    def admissible(a):
        pts = (a, 1.0 / a.conjugate())
        return all(abs(x - b) >= sep for x in pts for b in used)

    for _ in range(circle):
        while True:
            a = np.exp(2j * np.pi * rng.uniform())
            if admissible(a):
                break
        used.extend((a, 1.0 / a.conjugate()))
        p = poly_mul(p, Poly((-a, 1)))
    for _ in range(degree - circle):
        while True:
            a = rng.uniform(1.05, 2.0) * np.exp(2j * np.pi * rng.uniform())
            if admissible(a):
                break
        used.extend((a, 1.0 / a.conjugate()))
        p = poly_mul(p, Poly((-a, 1)))
    v0 = p.coeff(0)
    return p.scaled(v0.conjugate() / abs(v0))


def trig_from_hex(pairs):
    """The TrigPoly with coefficients (real, imag) given as float.hex()."""
    return TrigPoly(len(pairs) - 1, tuple(
        complex(float.fromhex(re), float.fromhex(im)) for re, im in pairs))


# census hold-out instance 131 (bench/run.py --pool-seed 6586), n = 10,
# census (0, 9, 1): solving a split half's lift returned two double circle
# zeros 6e-4 apart as a triple zero and a simple zero off the circle
HOLDOUT_131 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.438c7892db8d5p-2", "-0x1.e39d822444df4p-4"),
    ("-0x1.6131f915c481bp-2", "0x1.348d01258a4e7p-1"),
    ("0x1.39dc530be178ap-2", "-0x1.082b769bfe18bp-2"),
    ("-0x1.8fe9e9e1bff30p-2", "-0x1.0b10660bbb78fp-2"),
    ("0x1.3a2efb86458edp-3", "0x1.9ba81ee4fac13p-4"),
    ("0x1.1f660a68d86c9p-2", "-0x1.22f498df7fddbp-4"),
    ("-0x1.3cdd2741d7f5dp-3", "0x1.47e3f0f65aeacp-3"),
    ("-0x1.b25d592d975eap-5", "0x1.6cb9d905c05adp-7"),
    ("0x1.4f59c9a681041p-7", "-0x1.3cdc90ea278f7p-4"),
    ("0x1.6f4d940118f5ep-7", "0x1.1f25dd10ebc8bp-6")))

# census instance 177 of bench/workloads.census_inputs(2819, 240), n = 11:
# the polish moved a split half's self-inversive factor so that its zeros
# left the circle by up to 2.5e-8, one of them to the inside
CENSUS_2819_177 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.ca28ea798c5aep-1", "-0x1.0519f0a906a2ap-2"),
    ("0x1.44fb1cf65c909p-1", "0x1.97cdc45444bc3p-2"),
    ("-0x1.5f88746dbb4cep-2", "-0x1.923fb92968916p-2"),
    ("0x1.01e994c4c4386p-3", "0x1.258a636c2625ap-2"),
    ("-0x1.00c2e1a8deb18p-6", "-0x1.480f20a5bd698p-3"),
    ("-0x1.0396d900dcf17p-6", "0x1.170820ed42692p-4"),
    ("0x1.b4d2ac9e29f03p-7", "-0x1.5c33a782d32b0p-6"),
    ("-0x1.6c94b84cf6678p-8", "0x1.24df0e9d52ea9p-8"),
    ("0x1.73def4593e6a7p-10", "-0x1.08f8c41c26dacp-11"),
    ("-0x1.b644f375af862p-13", "0x1.43488118a7260p-20"),
    ("0x1.c3f1996554c7bp-17", "0x1.3c0fb642db5e9p-18")))

# tests/test_factor.py's _near_touching(5, 600)[554], n = 4, as drawn: its
# minimum -1.3e-11 lies inside nonneg_tol = 3.8e-10, so it counts as
# nonnegative, but g has two local minima for order 4, so the circle count
# declines, and its lift's circle zeros are a double one, a simple one and
# a root at radius 1.0029 outside, beyond the snap band: fejer_riesz
# leaves an odd circle zero unmerged (PairingFailure)
UNMERGED_ODD_ZERO = trig_from_hex((
    ("0x1.ffffffffe105ep-1", "0x0.0p+0"),
    ("0x1.5f986c9fe4d55p-2", "0x1.7529a47b46148p-1"),
    ("-0x1.0e9f48d0b0fbap-2", "0x1.561e17ada7e7ep-2"),
    ("-0x1.22bad2b83a9b9p-3", "-0x1.00f318b857720p-5"),
    ("-0x1.020423fc0fe18p-8", "-0x1.96306948e47cep-6")))

# tests/test_factor.py's _near_touching(5, 600)[64], n = 2, rescaled to
# mean 1: nonnegative, but a split half's built factor misses its half by
# more than nonneg_tol and the half itself dips to -3.3e-10 < -3.0e-10, so
# its extreme test fails on the library's own function (SelfCheckFailed)
NEAR_TOUCHING_64 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.830147e5ee564p-2", "-0x1.078d53803cbfcp-1"),
    ("-0x1.92d55a0a92af2p-6", "0x1.e9bb1cae972e2p-3")))

# tests/test_factor.py's _near_touching(9, 600)[206], n = 11, as drawn:
# nonnegative to tolerance, but one of its eight local minima is 1.6, so the
# circle count declines, and its lift's roots include a double root at
# radius 0.99990 inside with no outside partner, so the factor built misses
# g by 0.64 in its round trip, over the tolerance 5.2e-7 (SelfCheckFailed)
UNPAIRED_INSIDE_ROOT = trig_from_hex((
    ("0x1.ffffffffb9683p-1", "0x0.0p+0"),
    ("0x1.bdc44fa7145b3p-4", "-0x1.94f45d74dc79bp-1"),
    ("-0x1.5b21c70ba75c8p-2", "-0x1.664baf9e70962p-5"),
    ("0x1.3033aba717489p-3", "-0x1.0bedb8f364512p-5"),
    ("-0x1.49b3a7224369bp-3", "-0x1.25c62f36ac37ep-2"),
    ("-0x1.0c1af18028e31p-2", "0x1.c408bc93f3dd7p-4"),
    ("0x1.30ebb739eb7a5p-5", "0x1.00166869034a5p-3"),
    ("0x1.43618dd4becb1p-7", "-0x1.3691738192ca1p-6"),
    ("-0x1.8e64f3a36d4fdp-6", "0x1.710ec0a2c6f12p-6"),
    ("0x1.755d1317beedfp-7", "0x1.206627bceb6fdp-6"),
    ("0x1.84001a04f45cbp-8", "-0x1.c620ee4dc096ap-10"),
    ("0x1.28fc38e5f212ep-15", "-0x1.8a5c1ff311494p-11")))

# UNMERGED_ODD_ZERO rescaled to mean 1 (_near_touching(5, 600)[554]): the
# circle count declines, and a split half's factor built from g's circle
# zeros meets the odd one left unmerged (PairingFailure)
NEAR_TOUCHING_554 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.5f986c9ffa1b0p-2", "0x1.7529a47b5ca84p-1"),
    ("-0x1.0e9f48d0c15b3p-2", "0x1.561e17adbc9acp-2"),
    ("-0x1.22bad2b84c329p-3", "-0x1.00f318b866fdcp-5"),
    ("-0x1.020423fc1f7ddp-8", "-0x1.96306948fd102p-6")))

# n = 1 modulus, nonnegative to tolerance: its minimum g_0 - 2|g_1| is
# -4.3e-11, inside nonneg_tol = 2e-10.  Its lift's two circle roots,
# 1.9e-5 apart, passed the merge test as one double root that failed the
# residual bound every root meets, and solving raised NonConvergence
MERGED_RESIDUAL = trig_from_hex((
    ("0x1.ffffffffa581cp-1", "0x0.0p+0"),
    ("0x1.e01129a6d6829p-2", "0x1.63f9b8fa43a4ep-3")))


def _flat_band_modulus(n, seed):
    """1 plus a band-n term drawn as coefficients with sum |g_k| = 0.2, so
    g >= 0.6 and no zero comes near the circle."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c *= 0.2 / np.abs(c).sum()
    return TrigPoly(n, (1 + 0j,) + tuple(complex(x) for x in c))


# at order 80 a cofactor expanded from the lift's ~80 outside roots by
# chained convolution missed g by about 14 in its round trip, leaving no
# correct digit; expanded from its values by one FFT it is right to rounding
FLAT_ORDER_80 = _flat_band_modulus(80, 80)


def jittered_extreme_point(n, seed):
    """(f, g): f = prod (z - w_j) over n circle zeros jittered by up to 0.3
    of their spacing, with unit norm and f(0) > 0, and g = |f|^2 of mean 1.

    f's coefficients are one FFT of its values on at least 2(n + 1) points;
    a chained expansion of the product keeps about one digit at n = 64.
    """
    rng = np.random.default_rng(seed)
    w = np.exp(2j * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n)
    return _unit_element_from_zeros(w)


def jittered_inside_zero_point(n, seed):
    """(f, g, a): f and g as ``jittered_extreme_point`` gives them, but f
    has n - 1 jittered circle zeros and one zero a inside the disk,
    |a| = 0.5 at a random angle: g is a boundary point that is not extreme,
    and the inner factor of f, and of its lift at order n, is the Blaschke
    factor at a."""
    rng = np.random.default_rng(seed)
    k = n - 1
    w = np.exp(2j * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k)
    a = 0.5 * np.exp(2j * np.pi * rng.uniform())
    return _unit_element_from_zeros(np.append(w, a)) + (complex(a),)


def _unit_element_from_zeros(w):
    """(f, g): f = prod (z - w_j) from one FFT of its values, with unit norm
    and f(0) > 0, and g = |f|^2 scaled to mean 1."""
    n = len(w)
    size = 1 << (2 * n + 1).bit_length()
    zeta = np.exp(2j * np.pi * np.arange(size) / size)
    c = np.fft.fft(np.prod(zeta[:, None] - w[None, :], axis=1))[:n + 1] / size
    c *= np.conj(c[0]) / (abs(c[0]) * np.linalg.norm(c))
    f = Poly(tuple(c))
    g = trig_from_modulus_squared(f)
    return f, trig_scale(g, 1.0 / g.mean)


def repeated_inside_zero_family(count, seed):
    """(f, m, k): f = (z - a)**m times k outside zeros, unit norm, m = 2..5
    and k = 1..3, so deg f <= 8; |a| in [0.3, 0.8], outside radii in
    [1.3, 1.9], angles uniform.

    |f|^2 lifted at order 8 has an m-fold inside zero, which the root engine
    may return as scattered points when m = 5.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        a = rng.uniform(0.3, 0.8) * np.exp(2j * np.pi * rng.uniform())
        outside = (rng.uniform(1.3, 1.9, k)
                   * np.exp(2j * np.pi * rng.uniform(size=k)))
        c = factor._zero_poly([a, *outside], [m] + [1] * k)
        out.append((Poly(tuple(c / np.linalg.norm(c))), m, k))
    return out


def census_suite(count, seed, max_n=12):
    """Random census instances with ground-truth labels.

    Yields (g, n, census) where census = (inside, circle, outside, deficit);
    extremality ground truth is:  inside == outside == 0 and deficit == 0.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        kind = rng.choice(["extreme", "inside", "outside", "deficit", "mixed"])
        if kind == "extreme":
            census = (0, n, 0)
        elif kind == "inside":
            k = int(rng.integers(1, min(n, 3) + 1))
            census = (k, n - k, 0)
        elif kind == "outside":
            k = int(rng.integers(1, min(n, 3) + 1))
            census = (0, n - k, k)
        elif kind == "deficit":
            d = int(rng.integers(1, n + 1))
            circ = n - d
            census = (0, circ, 0)
        else:
            k_in = int(rng.integers(0, min(n, 2) + 1))
            k_out = int(rng.integers(0, min(n - k_in, 2) + 1))
            rest = n - k_in - k_out
            circ = int(rng.integers(0, rest + 1))
            census = (k_in, circ, k_out)
        g = random_boundary_modulus(n, *census, rng)
        out.append((g, n, census))
    return out


@pytest.fixture(scope="session")
def small_census_suite():
    return census_suite(80, seed=20240601)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987)


def random_unit_element(n, census, seed):
    return random_kernel_element(n, *census, np.random.default_rng(seed))


@pytest.fixture
def cold_analysis():
    """Empties the memo of analysis records (``polycore._analysis``), so
    every g the test reads has its record, and each result in it, built
    afresh: a count of a record's work then counts builds, whatever
    earlier tests left in the memo."""
    polycore._analysis.cache_clear()


@pytest.fixture
def solve_counter(monkeypatch, cold_analysis):
    """Root solves during the test, counted by degree.

    ``polycore._solve`` is wrapped by a counter, so each call is one
    solve; the Counter maps the degree of the deflated polynomial to its
    solves.  The analysis records start cold (``cold_analysis``), so a g
    checked by an earlier test is solved again here.
    """
    counts = collections.Counter()
    solve = polycore._solve

    def counted(c):
        counts[len(c) - 1] += 1
        return solve(c)

    monkeypatch.setattr(polycore, "_solve", counted)
    return counts
