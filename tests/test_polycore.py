import cmath
import math

import numpy as np
import pytest
from conftest import random_outer_poly
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from hkl.errors import BandExceeded, NullInput
from hkl.gen import random_boundary_modulus
from hkl.polycore import (EPS_CIRCLE, SNAP_BAND, Poly, Region, Root, TrigPoly,
                          _aberth, _horner, _polish, _roots_cached,
                          _single_linkage_tree, _snap_self_inversive, lift,
                          nonneg_check, poly_mul, roots, trig_add,
                          trig_from_modulus_squared, trig_mul, trig_scale,
                          unlift)

# exact zeros are fine; tiny magnitudes are excluded so products stay clear
# of underflow, which would break the exact degree law
bounded_complex = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=5.0,
                       allow_nan=False, allow_infinity=False))


# ---------------------------------------------------------------------------
# poly_mul
# ---------------------------------------------------------------------------

def test_mul_difference_of_squares():
    p = poly_mul(Poly((1, 1)), Poly((1, -1)))
    assert p.coeffs == (1 + 0j, 0j, -1 + 0j)


def test_mul_identity():
    p = Poly((2, 3j, -1))
    assert poly_mul(p, Poly((1,))).coeffs == p.coeffs


def test_mul_hand_expansion():
    # (z - 1/2)(1 - z/2) expanded by hand
    p = poly_mul(Poly((-0.5, 1)), Poly((1, -0.5)))
    assert p.coeffs == (-0.5 + 0j, 1.25 + 0j, -0.5 + 0j)


def test_mul_null_absorbs():
    assert poly_mul(Poly(), Poly((1, 2))).is_null


@given(st.lists(bounded_complex, max_size=8),
       st.lists(bounded_complex, max_size=8))
def test_mul_degree_law_and_convolution(a, b):
    pa, pb = Poly(a), Poly(b)
    prod = poly_mul(pa, pb)
    if pa.is_null or pb.is_null:
        assert prod.is_null
    else:
        assert prod.degree == pa.degree + pb.degree
        ref = np.convolve(pa.as_array(), pb.as_array())
        assert np.allclose(prod.as_array(), ref, atol=0)


@given(st.lists(bounded_complex, max_size=6),
       st.lists(bounded_complex, max_size=6))
def test_mul_commutes(a, b):
    assert poly_mul(Poly(a), Poly(b)).coeffs == \
        pytest.approx(poly_mul(Poly(b), Poly(a)).coeffs)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def _root_map(rs):
    return {r.location: (r.multiplicity, r.region) for r in rs}


def test_roots_unit_circle_pair():
    rs = roots(Poly((-1, 0, 1)))
    assert rs.total_multiplicity == 2
    assert all(r.region is Region.ON_CIRCLE for r in rs)
    locs = sorted(r.location.real for r in rs)
    assert locs == pytest.approx([-1.0, 1.0])


def test_roots_triple_origin():
    rs = roots(Poly((0, 0, 0, 1)))
    assert len(rs) == 1
    r = rs.roots[0]
    assert r.location == 0 and r.multiplicity == 3
    assert r.region is Region.INSIDE


def test_roots_derived_quadratic():
    # independent oracle: the quadratic formula on -1/2 + (5/4)z - (1/2)z^2
    a2, a1, a0 = -0.5, 1.25, -0.5
    disc = cmath.sqrt(a1 * a1 - 4 * a2 * a0)
    expected = sorted([(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)],
                      key=lambda z: z.real)
    rs = roots(Poly((a0, a1, a2)))
    got = sorted((r.location for r in rs), key=lambda z: z.real)
    assert got == pytest.approx(expected)
    regions = {r.location.real: r.region for r in rs}
    assert regions[min(regions)] is Region.INSIDE
    assert regions[max(regions)] is Region.OUTSIDE


def test_roots_null_and_constant():
    with pytest.raises(NullInput):
        roots(Poly())
    assert len(roots(Poly((3.0,)))) == 0


def test_roots_double_circle_zero_clusters():
    # (z - i)^2 (z + 1): the double circle zero must come back as one root
    p = poly_mul(poly_mul(Poly((-1j, 1)), Poly((-1j, 1))), Poly((1, 1)))
    rs = roots(p)
    by_mult = {r.multiplicity for r in rs}
    assert by_mult == {1, 2}
    double = next(r for r in rs if r.multiplicity == 2)
    assert abs(double.location - 1j) < 1e-10
    assert double.region is Region.ON_CIRCLE


def test_roots_quadruple():
    p = Poly((1,))
    for _ in range(4):
        p = poly_mul(p, Poly((-0.5 - 0.1j, 1)))
    rs = roots(p)
    assert len(rs) == 1
    assert rs.roots[0].multiplicity == 4
    assert abs(rs.roots[0].location - (0.5 + 0.1j)) < 1e-3


def _random_poly_with_roots(rng, degree):
    locs = []
    while len(locs) < degree:
        a = rng.uniform(0.05, 2.0) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(a - b) > 1e-2 for b in locs):
            locs.append(a)
    p = Poly((rng.standard_normal() + 1j * rng.standard_normal(),))
    for a in locs:
        p = poly_mul(p, Poly((-a, 1)))
    return p, locs


def test_roots_round_trip_random():
    # recomposition from the root set reproduces the coefficients
    rng = np.random.default_rng(7)
    for _ in range(60):
        degree = int(rng.integers(1, 17))
        p, _ = _random_poly_with_roots(rng, degree)
        rs = roots(p)
        assert rs.total_multiplicity == degree
        recomposed = Poly((p.coeffs[-1],))
        for r in rs:
            for _ in range(r.multiplicity):
                recomposed = poly_mul(recomposed, Poly((-r.location, 1)))
        scale = max(abs(c) for c in p.coeffs)
        err = max(abs(recomposed.coeff(k) - p.coeff(k))
                  for k in range(degree + 1))
        assert err <= 1e-8 * scale


def test_roots_newton_fixed_point():
    # each reported root is a fixed point of Newton on the derivative that
    # makes it simple
    rng = np.random.default_rng(3)
    p, _ = _random_poly_with_roots(rng, 9)
    p = poly_mul(p, poly_mul(Poly((-0.3 - 0.4j, 1)), Poly((-0.3 - 0.4j, 1))))
    for r in roots(p):
        q = p
        for _ in range(r.multiplicity - 1):
            q = q.derivative()
        step = q(r.location) / q.derivative()(r.location)
        assert abs(step) <= 1e-9 * max(1.0, abs(r.location))


def _exact(rs):
    return [(r.location.real.hex(), r.location.imag.hex(), r.multiplicity,
             r.region) for r in rs]


def _plus_origin(rs, k):
    # rs with k more roots at 0, in the root set's sorted order
    m0 = k + sum(r.multiplicity for r in rs if r.location == 0)
    out = [r for r in rs if r.location != 0] + [Root(0j, m0, Region.INSIDE)]
    return sorted(out, key=lambda r: (r.location.real, r.location.imag))


def test_roots_of_shifted_poly_bit_identical():
    # z**k p has the roots of p, bit for bit, and k more at the origin
    rng = np.random.default_rng(1812)
    cases = [Poly((5.0,))]      # z**k * 5 has only the k-fold root at 0
    for degree in (1, 2, 3, 5, 8, 12):
        p, _ = _random_poly_with_roots(rng, degree)
        cases.append(p)
    # a polynomial that already has a root at 0
    cases.append(Poly((0, -0.5, 1)))
    # a root at 1e-13 that folds into the origin in the unshifted solve
    near = poly_mul(poly_mul(Poly((-1e-13, 1)), Poly((-0.5, 1))),
                    Poly((0.7, 1)))
    assert near.coeff(0) != 0
    assert any(r.location == 0 for r in roots(near))
    cases.append(near)
    for p in cases:
        for k in (1, 2, 4):
            got = roots(p.shifted(k))
            assert _exact(got) == _exact(_plus_origin(roots(p), k))
            assert got.total_multiplicity == p.degree + k


def test_shifted_lifts_share_one_solve():
    # lift(g, n) with g.n < n is lift(g) times a power of z: one solve
    g = random_boundary_modulus(6, 1, 3, 2, np.random.default_rng(6586))
    n = g.n + 3
    assert lift(g, n).coeffs == lift(g).shifted(3).coeffs
    _roots_cached.cache_clear()
    base = roots(lift(g))
    assert _roots_cached.cache_info().misses == 1
    shifted = roots(lift(g, n))
    assert _roots_cached.cache_info().misses == 1
    assert _exact(shifted) == _exact(_plus_origin(base, 3))


def _pairwise_linkage_tree(dist):
    # reference: repeatedly merge the two active clusters at the smallest
    # single-linkage distance, the oldest pair first on a tie
    clusters = [{"members": [i], "children": None} for i in range(len(dist))]
    active = list(range(len(clusters)))
    while len(active) > 1:
        best = None
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                d = dist[np.ix_(clusters[active[ii]]["members"],
                                clusters[active[jj]]["members"])].min()
                if best is None or d < best[0]:
                    best = (d, ii, jj)
        _, ii, jj = best
        ca, cb = active[ii], active[jj]
        clusters.append({
            "members": clusters[ca]["members"] + clusters[cb]["members"],
            "children": (ca, cb),
        })
        active = [a for a in active if a not in (ca, cb)]
        active.append(len(clusters) - 1)
    return clusters


def test_single_linkage_tree_matches_pairwise_merging():
    # same arithmetic (distances are only compared), so the trees are equal
    rng = np.random.default_rng(12)
    for _ in range(40):
        npts = int(rng.integers(2, 25))
        pts = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
        # near-coincident groups, as at multiple roots
        pts[: npts // 3] = pts[0] + 1e-7 * rng.standard_normal(npts // 3)
        dist = np.abs(pts[:, None] - pts[None, :])
        assert _single_linkage_tree(dist) == _pairwise_linkage_tree(dist)


def _three_polyval_aberth(c, tol, max_iter):
    # reference: the iteration with p, p' and the backward-error scale each
    # evaluated by its own npp.polyval call
    c = c / np.abs(c).max()
    d = len(c) - 1
    dc = npp.polyder(c)
    ac = np.abs(c)
    r0 = max((abs(c[0]) / abs(c[-1])) ** (1.0 / d), 1e-6)
    z = r0 * np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.77))
    ok = False
    extra = 0
    with np.errstate(all="ignore"):
        for it in range(max_iter + 20):
            pv = npp.polyval(z, c)
            if not ok:
                if it >= max_iter:
                    break
                scale = npp.polyval(np.abs(z), ac)
                ok = bool(np.all(np.abs(pv) <= tol * scale))
            dv = npp.polyval(z, dc)
            dv = np.where(dv == 0, 1e-300, dv)
            w = pv / dv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            diff = np.where(diff == 0, 1e-300, diff)
            repel = (1.0 / diff).sum(axis=1)
            denom = 1.0 - w * repel
            denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
            step = w / denom
            z = z - step
            if ok:
                extra += 1
                if extra >= 16 or np.abs(step).max() <= 1e-13 * (
                        1.0 + np.abs(z).max()):
                    break
    return z


def _aberth_cases():
    # deflated coefficient arrays (c[0] != 0) of degree 3..24: simple
    # random roots, and lifts of |f|^2 whose circle zeros of f are double
    # circle zeros and whose other zeros come in reflected pairs
    rng = np.random.default_rng(31)
    cases = []
    for degree in range(3, 25):
        p, _ = _random_poly_with_roots(rng, degree)
        cases.append(p.as_array())
    for m in range(2, 13):
        for circle in sorted({0, m // 2, m}):
            f = random_outer_poly(rng, m, circle=circle)
            cases.append(lift(trig_from_modulus_squared(f)).as_array())
    return cases


def test_aberth_bit_identical_to_three_polyval_reference():
    for c in _aberth_cases():
        for max_iter in (200, 4):    # converged, and cut off before it
            new = _aberth(c, 1e-12, max_iter)
            ref = _three_polyval_aberth(c, 1e-12, max_iter)
            assert np.array_equal(new.view(float), ref.view(float))


def _bits(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def test_horner_bit_identical_to_polyval():
    rng = np.random.default_rng(5)
    for degree in range(0, 25):
        c = (rng.standard_normal(degree + 1)
             + 1j * rng.standard_normal(degree + 1))
        ac = np.abs(c)
        for _ in range(8):
            z = complex(rng.uniform(0.0, 2.0)
                        * np.exp(2j * np.pi * rng.uniform()))
            x = float(rng.standard_normal())
            assert _bits(_horner(c.tolist(), z)) == _bits(npp.polyval(z, c))
            assert _bits(_horner(c.tolist(), x)) == _bits(npp.polyval(x, c))
            assert (_bits(_horner(ac.tolist(), abs(z)))
                    == _bits(npp.polyval(abs(z), ac)))


def _polyval_polish(center, q, qd, step_cap):
    # reference: Newton on q with numpy-scalar npp.polyval evaluations
    a = center
    for _ in range(4):
        qv = npp.polyval(a, q)
        qdv = npp.polyval(a, qd)
        if qdv == 0:
            break
        step = qv / qdv
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        if abs(step) > step_cap:
            break
        a = a - step
    return a


def test_polish_bit_identical_to_polyval_newton():
    # the quotient must be taken in np.complex128: Python's complex
    # division rounds some of these steps differently
    rng = np.random.default_rng(8)
    for degree in range(2, 25):
        p, locs = _random_poly_with_roots(rng, degree)
        q = p.as_array()
        qd = npp.polyder(q)
        for a in locs:
            start = complex(a + 0.1 * (rng.standard_normal()
                                        + 1j * rng.standard_normal()))
            assert (_bits(_polish(start, q.tolist(), qd.tolist(), 10.0))
                    == _bits(_polyval_polish(start, q, qd, 10.0)))


def _min_loop_snap(found):
    # reference: the nearest mirror by min over a key function, one root
    # at a time
    def best_match(i):
        mirror = 1.0 / found[i][0].conjugate()
        return min(range(len(found)),
                   key=lambda j: abs(found[j][0] - mirror))

    matches = [best_match(i) for i in range(len(found))]
    out = []
    for i, (a, m) in enumerate(found):
        r = abs(a)
        if not EPS_CIRCLE < abs(r - 1.0) <= SNAP_BAND:
            out.append((a, m))
            continue
        j = matches[i]
        if j != i and matches[j] == i:
            out.append((a, m))
        else:
            out.append((a / r, m))
    return out


def _snap_cases():
    rng = np.random.default_rng(11)
    as_type = [complex, np.complex128]

    def band_offset():
        return float(rng.choice([-1, 1]) * rng.uniform(2 * EPS_CIRCLE,
                                                       SNAP_BAND))

    cases = []
    for _ in range(300):
        found = []
        for _ in range(int(rng.integers(1, 13))):
            t = cmath.exp(2j * math.pi * rng.uniform())
            kind = rng.integers(5)
            if kind == 0:      # lone root displaced off the circle
                pts = [t * (1.0 + band_offset())]
            elif kind == 1:    # reflected pair inside the snap band
                a = t * (1.0 + band_offset())
                pts = [a, 1.0 / a.conjugate()]
            elif kind == 2:    # pair plus rounding debris near its mirror
                a = t * (1.0 + band_offset())
                b = 1.0 / a.conjugate()
                pts = [a, b, b * (1.0 + 1e-9 * rng.standard_normal())]
            elif kind == 3:    # off the band, and exactly on the circle
                pts = [t * rng.uniform(0.2, 3.0), t]
            else:              # its mirror by each division: they differ
                a = t * (1.0 + band_offset())  # in the last bit, or tie
                pts = [a, 1.0 / a.conjugate(),
                       complex(1.0 / np.complex128(a).conjugate())]
            found += [(as_type[rng.integers(2)](p), int(rng.integers(1, 3)))
                      for p in pts]
        cases.append(found)
    return cases


def test_snap_matches_min_loop_reference():
    kept = projected = 0
    for found in _snap_cases():
        new = _snap_self_inversive(found)
        ref = _min_loop_snap(found)
        assert [(_bits(a), type(a), m) for a, m in new] == \
            [(_bits(a), type(a), m) for a, m in ref]
        for (a, _), (b, _) in zip(found, ref):
            if EPS_CIRCLE < abs(abs(a) - 1.0) <= SNAP_BAND:
                kept += _bits(a) == _bits(b)
                projected += _bits(a) != _bits(b)
    assert kept and projected


# ---------------------------------------------------------------------------
# trig_from_modulus_squared
# ---------------------------------------------------------------------------

def test_modulus_squared_one_plus_z():
    g = trig_from_modulus_squared(Poly((1, 1)))
    assert g.n == 1
    assert g.coeffs == (2 + 0j, 1 + 0j)


def test_modulus_squared_constant():
    g = trig_from_modulus_squared(Poly((1,)))
    assert g.n == 0 and g.coeffs == (1 + 0j,)


def test_modulus_squared_worked_element():
    s = 2 / math.sqrt(5)
    g = trig_from_modulus_squared(Poly((-0.5 * s, s)))
    assert g.mean == pytest.approx(1.0)
    assert g.coeff(1) == pytest.approx(-0.4)
    assert g.coeff(-1) == pytest.approx(-0.4)


@given(st.lists(bounded_complex, min_size=1, max_size=10))
def test_modulus_squared_matches_samples(coeffs):
    f = Poly(coeffs)
    g = trig_from_modulus_squared(f)
    theta = np.linspace(0, 2 * np.pi, 17)
    vals = np.abs(f(np.exp(1j * theta))) ** 2
    scale = max(1.0, float(vals.max()))
    assert np.abs(g.values(theta) - vals).max() <= 1e-12 * scale


@given(st.lists(bounded_complex, min_size=1, max_size=10))
def test_modulus_squared_parseval_exact(coeffs):
    f = Poly(coeffs)
    g = trig_from_modulus_squared(f)
    # bit-for-bit: the mean is the correctly rounded sum of |c_k|^2
    assert g.coeffs[0] == complex(
        math.fsum((c * c.conjugate()).real for c in f.coeffs), 0.0)


@given(st.lists(bounded_complex, min_size=1, max_size=10))
def test_modulus_squared_hermitian_bit_for_bit(coeffs):
    g = trig_from_modulus_squared(Poly(coeffs))
    for k in range(g.n + 1):
        assert g.coeff(-k) == g.coeff(k).conjugate()
    assert g.coeffs[0].imag == 0.0


@given(st.lists(bounded_complex, min_size=1, max_size=8))
def test_lift_of_modulus_is_f_times_reversed_conjugate(coeffs):
    f = Poly(coeffs)
    if f.is_null:
        return
    n = f.degree
    rev = Poly(tuple(f.coeff(n - k).conjugate() for k in range(n + 1)))
    prod = poly_mul(f, rev)
    lifted = lift(trig_from_modulus_squared(f))
    scale = max(1.0, max(abs(c) for c in prod.coeffs))
    err = max(abs(lifted.coeff(k) - prod.coeff(k)) for k in range(2 * n + 1))
    assert err <= 1e-12 * scale


# ---------------------------------------------------------------------------
# lift / unlift
# ---------------------------------------------------------------------------

def test_lift_constant():
    assert lift(TrigPoly(1, (1.0, 0.0))).coeffs == (0j, 1 + 0j)


def test_lift_shift_by_band():
    g = TrigPoly(1, (1.0, -0.4))
    assert lift(g).coeffs == (-0.4 + 0j, 1 + 0j, -0.4 + 0j)


def test_lift_square_structure():
    g = TrigPoly(1, (1.0, 0.5))
    # 1/2 + z + z^2/2 = (1+z)^2 / 2
    assert lift(g).coeffs == (0.5 + 0j, 1 + 0j, 0.5 + 0j)


def test_lift_model_order_above_band():
    g = TrigPoly(1, (1.0, 0.5))
    p = lift(g, 3)
    assert p.degree == 4 and p.coeff(2) == 0.5 and p.coeff(0) == 0j


def test_lift_band_exceeded():
    g = TrigPoly(2, (1.0, 0.0, 0.5))
    with pytest.raises(BandExceeded):
        lift(g, 1)


def test_unlift_round_trip():
    g = TrigPoly(3, (1.0, 0.2 + 0.1j, 0, -0.05j))
    assert unlift(lift(g), 3).coeffs == g.coeffs


# ---------------------------------------------------------------------------
# nonneg_check
# ---------------------------------------------------------------------------

def test_nonneg_square_modulus():
    cert = nonneg_check(trig_from_modulus_squared(Poly((1, 1))))
    assert cert.nonnegative


def test_nonneg_pure_cosine_fails_with_witness():
    cert = nonneg_check(TrigPoly(1, (0.0, 0.5)))
    assert not cert.nonnegative
    assert cert.min_value == pytest.approx(-1.0, abs=1e-6)
    assert cert.argmin_theta == pytest.approx(np.pi, abs=1e-3)


def test_nonneg_touching_zero_even_order():
    cert = nonneg_check(TrigPoly(1, (1.0, 0.5)))
    assert cert.nonnegative
    assert cert.min_value >= -cert.tol


def test_nonneg_narrow_dip_caught_by_parity():
    # 2 + 2cos(theta - phi) - d dips to -d on a window of half-width
    # sqrt(d), far narrower than the scan grid; with the zero placed
    # mid-cell the grid sees only positive values and the parity of the
    # circle zeros is what must catch the sign change
    d = 1e-7
    phi = np.pi * (1.0 + 1.0 / 4096)
    g = TrigPoly(1, (2.0 - d, np.exp(-1j * phi)))
    grid_min = g.grid_values(4096).min()
    assert grid_min > 0  # the dip is invisible to the uniform grid
    cert = nonneg_check(g)
    assert not cert.nonnegative
    assert cert.min_value == pytest.approx(-d, rel=1e-3)


def test_nonneg_null():
    assert nonneg_check(TrigPoly(0, (0j,))).nonnegative


# ---------------------------------------------------------------------------
# trig helpers
# ---------------------------------------------------------------------------

def test_trig_mul_matches_values():
    a = TrigPoly(1, (1.0, 0.3 - 0.2j))
    b = TrigPoly(2, (0.5, 0.1j, -0.05))
    c = trig_mul(a, b)
    theta = np.linspace(0, 2 * np.pi, 13)
    assert np.abs(c.values(theta) - a.values(theta) * b.values(theta)).max() \
        <= 1e-12


def test_trig_add_scale():
    a = TrigPoly(1, (1.0, 0.5))
    b = trig_add(trig_scale(a, 2.0), trig_scale(a, -1.0))
    assert b.coeffs == a.coeffs


def test_trig_rejects_complex_mean():
    with pytest.raises(ValueError):
        TrigPoly(1, (1 + 0.5j, 0.0))
