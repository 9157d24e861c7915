import collections
import functools

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

# tests/test_factor.py's _near_touching(5, 600)[3], n = 2: its minimum
# -2.3e-11 lies inside nonneg_tol = 2.7e-10, so it counts as nonnegative,
# but its lift has two simple circle zeros and no exact factor exists;
# fejer_riesz leaves an odd circle zero unmerged (PairingFailure)
UNMERGED_ODD_ZERO = trig_from_hex((
    ("0x1.ffffffffcd65dp-1", "0x0.0p+0"),
    ("0x1.55075e5f6d4b8p-1", "-0x1.cd806c0dadd15p-6"),
    ("0x1.541d9cfc1aa7cp-3", "-0x1.cd1730d29b9dcp-7")))

# tests/test_factor.py's _near_touching(5, 600)[64], n = 2, rescaled to
# mean 1: nonnegative, but a split half's built factor misses its half by
# more than nonneg_tol and the half itself dips to -3.3e-10 < -3.0e-10, so
# its extreme test fails on the library's own function (SelfCheckFailed)
NEAR_TOUCHING_64 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.830147e5ee564p-2", "-0x1.078d53803cbfcp-1"),
    ("-0x1.92d55a0a92af2p-6", "0x1.e9bb1cae972e2p-3")))

# tests/test_factor.py's _near_touching(5, 600)[523], n = 12, as drawn:
# nonnegative to tolerance, but its lift's roots are eleven double circle
# zeros and a double root at radius 0.99988 inside with no outside partner,
# so the factor built has degree 11 and its round trip misses g by 1.42,
# over the tolerance 1.1e-6 (SelfCheckFailed)
UNPAIRED_INSIDE_ROOT = trig_from_hex((
    ("0x1.ffffffffea2eap-1", "0x0.0p+0"),
    ("0x1.28cc6236f91b1p-3", "-0x1.cceb74a75ea5fp-1"),
    ("-0x1.772062e9ad2f0p-1", "-0x1.2513853f3a288p-2"),
    ("-0x1.cc513144d82e5p-2", "0x1.34d496c3641fbp-1"),
    ("0x1.d8781f3a53320p-2", "0x1.09f576d9ad1fep-1"),
    ("0x1.c675ec4b87d66p-2", "-0x1.4308a21f34359p-2"),
    ("-0x1.6a31d97f4136ap-3", "-0x1.68c3153b8ed9fp-2"),
    ("-0x1.25f19d1fe815fp-2", "0x1.6924acd7cd119p-5"),
    ("-0x1.323e107d142f1p-6", "0x1.aea88aff16cf9p-3"),
    ("0x1.1ce9c1c1b9162p-3", "0x1.d00a10a77b7a0p-7"),
    ("0x1.f8c2a31bd4956p-8", "-0x1.4692def30563bp-4"),
    ("-0x1.e0c749b5b9247p-6", "-0x1.ffbc7ee9d5592p-8"),
    ("-0x1.6c31e565fc61bp-9", "0x1.17e363accc0b1p-8")))

# the same family's #523, n = 12, rescaled to mean 1: its lift has an inside
# double root with no outside partner, so a split half's built factor would
# have degree 13 (PairingFailure)
NEAR_TOUCHING_523 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.28cc623705c0dp-3", "-0x1.cceb74a7724a1p-1"),
    ("-0x1.772062e9bd2b4p-1", "-0x1.2513853f46a5ap-2"),
    ("-0x1.cc513144ebcbep-2", "0x1.34d496c37148bp-1"),
    ("0x1.d8781f3a67542p-2", "0x1.09f576d9b8753p-1"),
    ("0x1.c675ec4b9b341p-2", "-0x1.4308a21f41f98p-2"),
    ("-0x1.6a31d97f50a5dp-3", "-0x1.68c3153b9e397p-2"),
    ("-0x1.25f19d1ff49c9p-2", "0x1.6924acd7dc754p-5"),
    ("-0x1.323e107d213bdp-6", "0x1.aea88aff29299p-3"),
    ("0x1.1ce9c1c1c53a4p-3", "0x1.d00a10a78f403p-7"),
    ("0x1.f8c2a31bea17cp-8", "-0x1.4692def3134e4p-4"),
    ("-0x1.e0c749b5cda14p-6", "-0x1.ffbc7ee9eb27ap-8"),
    ("-0x1.6c31e5660be6bp-9", "0x1.17e363acd7f86p-8")))

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
def solve_counter(monkeypatch):
    """Root solves during the test, counted by degree.

    ``polycore._roots_cached`` is replaced by an empty cache of the same
    size around the same solver, so each cache miss is one solve; the
    Counter maps the degree of the deflated polynomial to its solves.  The
    per-g memos above it are emptied too, so a g checked by an earlier test
    is solved again here.
    """
    for memo in (polycore._nonneg_cached, factor._fejer_riesz_cached,
                 factor._circle_zeros):
        memo.cache_clear()
    counts = collections.Counter()
    cached = polycore._roots_cached
    solve = cached.__wrapped__

    def counted(c, *args):
        counts[len(c) - 1] += 1
        return solve(c, *args)

    maxsize = cached.cache_parameters()["maxsize"]
    monkeypatch.setattr(polycore, "_roots_cached",
                        functools.lru_cache(maxsize=maxsize)(counted))
    return counts
