import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (jittered_extreme_point, jittered_inside_zero_point,
                      random_outer_poly)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

import hkl
from hkl import polycore
from hkl.errors import (BandExceeded, InternalInvariantError,
                        NonConvergence, NotNonnegative, NullInput,
                        RootOverflow)
from hkl.factor import _zero_poly, fejer_riesz, inner_outer
from hkl.gen import random_boundary_modulus
from hkl.polycore import (CLUSTER_CAP, EPS_CIRCLE, MERGE_BACKWARD_TOL,
                          TOL_ROOT, Poly, Region, Root, TrigPoly, _aberth,
                          _cluster_points, _derivative, _horner, _polish,
                          _residual_ok,
                          _single_linkage_tree, _snap_self_inversive,
                          circle_minima, lift, nonneg_check, nonneg_tol,
                          poly_mul, refine_circle_angle,
                          require_nonnegative, roots,
                          synthetic_divide, trig_add,
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


def test_roots_overflow_is_named_not_nan():
    # a1 * a1 would overflow in the quadratic formula; the one path solves
    # the polynomial at unit scale, whose roots are the primitive cube
    # roots of unity
    w = cmath.exp(2j * math.pi / 3)
    rs = roots(Poly((1e308, 1e308, 1e308)))
    assert rs.total_multiplicity == 2
    for r in rs:
        assert min(abs(r.location - w), abs(r.location - w.conjugate())) \
            <= 1e-15
    # coefficients spread over two scales, which one balancing cannot
    # bring into range, still fail: with a named error, never a NaN root,
    # and with no numpy warning (pytest turns warnings into errors)
    for c in ((1e-300, 1, 1e300, 1), (1e-300, 1, 1e300, 1e300),
              (1e-200, 1, 1e200, 1e-5)):
        with pytest.raises(NonConvergence):
            roots(Poly(c))


def test_roots_far_point_is_judged_on_reversed_coefficients():
    # every |c_k| <= 1, but a root of the solve lies near |z| = 3.5e7, where
    # plain Horner overflows; judged on p(a) / a**d by the reversed
    # coefficients, as the Aberth iteration judges it, the root meets its
    # bound and is returned
    rng = np.random.default_rng(0)
    zi = rng.uniform(0.3, 0.9, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
    zo = rng.uniform(1.1, 1.9, 112) * np.exp(2j * np.pi * rng.uniform(size=112))
    c = _zero_poly(np.concatenate([zi, zo]), np.ones(128, dtype=int))
    c = c / np.abs(c).max()
    rs = roots(Poly(tuple(c)))
    assert rs.total_multiplicity == 128
    assert max(abs(r.location) for r in rs) > 1e7
    for r in rs:
        a = complex(r.location)
        w, coeffs = (1 / a, c[::-1]) if abs(a) > 1 else (a, c)
        resid = abs(npp.polyval(w, coeffs))
        assert resid <= 10 * TOL_ROOT * npp.polyval(abs(w), np.abs(coeffs))


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


def test_roots_mixed_multiplicities_keep_double_circle_zero():
    # three circle zeros and an inside triple zero, separated by >= 0.26:
    # Aberth steps taken past the backward-error test split the double
    # circle zero w3 into two simple inside roots at |.| = 1 - 1.2e-6
    w1 = -0.6851787749655041 + 0.7283749352749387j
    w2 = 0.8579664971456018 + 0.51370564506895j
    a = 0.5973026033929141 + 0.557564509264205j
    w3 = 0.579050646244631 + 0.8152915730483636j
    p = Poly((1,))
    for z, m in ((w1, 2), (w2, 3), (a, 3), (w3, 2)):
        for _ in range(m):
            p = poly_mul(p, Poly((-z, 1)))
    rs = roots(p)
    assert len(rs) == 4
    for z, m in ((w1, 2), (w2, 3), (a, 3), (w3, 2)):
        r = min(rs, key=lambda r: abs(r.location - z))
        assert r.multiplicity == m and abs(r.location - z) < 1e-6
        if z != a:
            assert r.region is Region.ON_CIRCLE
    inner = inner_outer(p).inner
    assert inner.m0 == 0 and len(inner.zeros) == 1
    zero, m = inner.zeros[0]
    assert m == 3 and abs(zero - a) < 1e-6


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


def test_shifted_lift_roots_are_the_base_roots_plus_the_origin():
    # lift(g, n) with g.n < n is lift(g) times a power of z: the same
    # roots, bit for bit, and n - g.n more at 0
    g = random_boundary_modulus(6, 1, 3, 2, np.random.default_rng(6586))
    n = g.n + 3
    assert lift(g, n).coeffs == lift(g).shifted(3).coeffs
    base = roots(lift(g))
    shifted = roots(lift(g, n))
    assert _exact(shifted) == _exact(_plus_origin(base, 3))


def _pairwise_linkage_tree(dist):
    # reference: repeatedly merge the two active clusters at the smallest
    # single-linkage distance, the oldest pair first on a tie; each merged
    # node records that distance
    clusters = [{"members": [i], "children": None, "distance": 0.0}
                for i in range(len(dist))]
    active = list(range(len(clusters)))
    while len(active) > 1:
        best = None
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                d = dist[np.ix_(clusters[active[ii]]["members"],
                                clusters[active[jj]]["members"])].min()
                if best is None or d < best[0]:
                    best = (d, ii, jj)
        d, ii, jj = best
        ca, cb = active[ii], active[jj]
        clusters.append({
            "members": clusters[ca]["members"] + clusters[cb]["members"],
            "children": (ca, cb),
            "distance": float(d),
        })
        active = [a for a in active if a not in (ca, cb)]
        active.append(len(clusters) - 1)
    return clusters


def test_single_linkage_tree_matches_pairwise_merging():
    # same arithmetic (distances are only compared), so the trees, merge
    # distances included, are equal
    rng = np.random.default_rng(12)
    for _ in range(40):
        npts = int(rng.integers(2, 25))
        pts = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
        # near-coincident groups, as at multiple roots
        pts[: npts // 3] = pts[0] + 1e-7 * rng.standard_normal(npts // 3)
        dist = np.abs(pts[:, None] - pts[None, :])
        tree = _single_linkage_tree(dist)
        assert tree == _pairwise_linkage_tree(dist)
        # what lets the cut reject a node merged beyond the cap unmeasured
        for node in tree:
            mem = node["members"]
            assert dist[np.ix_(mem, mem)].max() >= node["distance"]


def _triu_linkage_tree(dist):
    # reference: the Kruskal tree as built with the pairs of
    # np.triu_indices(npts, 1)
    npts = len(dist)
    clusters = [{"members": [i], "children": None, "distance": 0.0}
                for i in range(npts)]
    parent, node_of = list(range(npts)), list(range(npts))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    iu, ju = np.triu_indices(npts, 1)
    pair_dist = dist[iu, ju]
    for e in np.argsort(pair_dist, kind="stable"):
        ra, rb = find(int(iu[e])), find(int(ju[e]))
        if ra == rb:
            continue
        ca, cb = sorted((node_of[ra], node_of[rb]))
        clusters.append({
            "members": clusters[ca]["members"] + clusters[cb]["members"],
            "children": (ca, cb), "distance": float(pair_dist[e])})
        parent[rb] = ra
        node_of[ra] = len(clusters) - 1
    return clusters


def test_single_linkage_tree_visits_pairs_in_triu_order():
    # ties are visited in pair order, which shapes the tree: small integer
    # distances tie often, so an order other than np.triu_indices(n, 1)'s
    # shows as another tree
    rng = np.random.default_rng(33)
    for npts in range(2, 41):
        dist = rng.integers(1, 4, (npts, npts)).astype(float)
        dist = np.minimum(dist, dist.T)
        np.fill_diagonal(dist, 0.0)
        assert _single_linkage_tree(dist) == _triu_linkage_tree(dist)


def _three_polyval_aberth(c, tol, max_iter):
    # reference: the iteration from points on one circle, with p, p' and
    # the backward-error scale each evaluated by its own npp.polyval call
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


def _is_lift(c):
    # the decision of _solve: even degree and conjugate-palindromic
    return len(c) % 2 == 1 and np.array_equal(np.conj(c[::-1]), c)


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


def test_aberth_clusters_match_three_polyval_reference():
    # the power-matrix evaluation and the companion starts move the points
    # at the rounding level only: clustered, they are the reference's roots
    for c in _aberth_cases():
        new = _cluster_points(_aberth(c, 1e-12, 200), c, _is_lift(c))
        ref = _cluster_points(_three_polyval_aberth(c, 1e-12, 200), c,
                              _is_lift(c))
        matched = []
        for a, m in new:
            j = min(range(len(ref)), key=lambda j: abs(ref[j][0] - a))
            assert ref[j][1] == m
            assert abs(ref[j][0] - a) <= 1e-9 * (1.0 + abs(a))
            matched.append(j)
        assert sorted(matched) == list(range(len(ref)))


def test_aberth_cut_off_early_meets_backward_error():
    # the companion starts are roots to a backward error near rounding, so
    # four steps are enough on every case
    for c in _aberth_cases():
        z = _aberth(c, 1e-12, 4)
        assert np.all(np.abs(npp.polyval(z, c))
                      <= 1e-12 * npp.polyval(np.abs(z), np.abs(c)))


def _tree_cluster_points(points, coeffs):
    # reference: the merge tree and its top-down cut over every point, each
    # leaf polished on its own, with no lone-point shortcut and no mirror
    pts = list(points)
    if len(pts) == 1:
        return [(complex(pts[0]), 1)]
    c0 = np.asarray(coeffs, dtype=complex)
    ac = np.abs(c0)
    derivs = [c0.tolist()]

    def deriv(k):
        while len(derivs) <= k:
            derivs.append(npp.polyder(derivs[-1]).tolist())
        return derivs[k]

    dist = np.abs(np.asarray(pts)[:, None] - np.asarray(pts)[None, :])
    clusters = _single_linkage_tree(dist)
    out = []

    def try_accept(mem):
        m = len(mem)
        if m == 1:
            return (_polish(complex(pts[mem[0]]), deriv(0), deriv(1), 1e-4), 1)
        diam = dist[np.ix_(mem, mem)].max()
        if diam > CLUSTER_CAP:
            return None
        centroid = complex(np.mean([pts[i] for i in mem]))
        polished = _polish(centroid, deriv(m - 1), deriv(m),
                           4.0 * diam + 1e-8)
        work = list(c0)
        for _ in range(m):
            work = synthetic_divide(work, polished)
        recomposed = np.asarray(work, dtype=complex)
        for _ in range(m):
            recomposed = np.convolve(recomposed, [-polished, 1.0])
        if (float(np.abs(recomposed - c0).max())
                <= MERGE_BACKWARD_TOL * float(ac.max())
                and _residual_ok(deriv(0), ac.tolist(), complex(polished))):
            return (polished, m)
        return None

    def cut(idx):
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


def _sorted_bits(found):
    return sorted((_bits(a), m) for a, m in found)


def test_lone_points_match_the_full_tree_cut():
    # a lone point is a leaf of the cut whatever the tree: off lifts the
    # roots are the reference's bit for bit; on lifts the inside and circle
    # roots are, before the snap and after it, and each outside root is the
    # reference's or the exact mirror of an inside root, near the same zero
    for c in _aberth_cases():
        pts = _aberth(c, 1e-12, 200)
        new = _cluster_points(pts, c, _is_lift(c))
        ref = _tree_cluster_points(pts, c)
        if not _is_lift(c):
            assert _sorted_bits(new) == _sorted_bits(ref)
            continue
        for stage_new, stage_ref in ((new, ref),
                                     (_snap_self_inversive(new, c),
                                      _snap_self_inversive(ref, c))):
            assert (_sorted_bits(r for r in stage_new
                                 if abs(r[0]) <= 1 + EPS_CIRCLE)
                    == _sorted_bits(r for r in stage_ref
                                    if abs(r[0]) <= 1 + EPS_CIRCLE))
        mirrors = {_bits(1 / complex(a).conjugate())
                   for a, m in new if abs(a) < 1 and m == 1}
        ref_out = [(a, m) for a, m in ref if abs(a) > 1 + EPS_CIRCLE]
        new_out = [(a, m) for a, m in new if abs(a) > 1 + EPS_CIRCLE]
        assert sorted(m for _, m in new_out) == sorted(m for _, m in ref_out)
        for a, m in new_out:
            assert (_bits(a), m) in _sorted_bits(ref_out) or (
                m == 1 and _bits(a) in mirrors)
            assert min(abs(a - b) for b, _ in ref_out) <= 1e-9 * abs(a)


def test_lift_polishes_each_reflected_pair_once(monkeypatch):
    # work guard in counts: the lift of |f|^2, f with k separated simple
    # zeros off the circle, has k reflected pairs of lone points.  Each
    # inside root is polished and its outside partner is its exact mirror:
    # k polishes, where polishing both made 2k
    calls = [0]
    polish = polycore._polish

    def counted(*args):
        calls[0] += 1
        return polish(*args)

    monkeypatch.setattr(polycore, "_polish", counted)
    rng = np.random.default_rng(1812)
    for k in (3, 6, 9):
        f = random_outer_poly(rng, k)
        calls[0] = 0
        rs = roots(lift(trig_from_modulus_squared(f)))
        assert calls[0] == k
        assert len(rs.inside) == len(rs.outside) == k
        assert all(r.multiplicity == 1 for r in rs)
        for b in rs.outside:
            a = min(rs.inside,
                    key=lambda r: abs(1 / r.location.conjugate() - b.location))
            assert _bits(b.location) == _bits(1 / a.location.conjugate())
    # a polynomial with no reflection symmetry: one polish per root
    for degree in (5, 8, 12):
        p, _ = _random_poly_with_roots(rng, degree)
        calls[0] = 0
        assert roots(p).total_multiplicity == degree
        assert calls[0] == degree


def test_lift_judges_each_root_once(monkeypatch):
    # work guard in counts: a lift with lone reflected pairs and one merged
    # double circle root tests each returned root against the residual
    # bound once: the inside roots where placed, their mirrors as they are
    # accepted and the merged root by the test that accepted it
    calls = [0]
    residual = polycore._residual

    def counted(*args):
        calls[0] += 1
        return residual(*args)

    monkeypatch.setattr(polycore, "_residual", counted)
    rng = np.random.default_rng(6586)
    for degree in (4, 7, 10):
        f = random_outer_poly(rng, degree, circle=1)
        calls[0] = 0
        rs = roots(lift(trig_from_modulus_squared(f)))
        assert [r.multiplicity for r in rs.on_circle] == [2]
        assert len(rs.inside) == len(rs.outside) == degree - 1
        assert calls[0] == len(rs) == 2 * degree - 1


def _off_points(zeros):
    # points 1e-3 off each zero, in the given order, for a stubbed _aberth
    pts = np.array([z * (1.0 + 1e-3) for z in zeros])
    return lambda c, tol, max_iter: pts


def test_roots_judge_rejected_mirrors_and_lone_roots(monkeypatch):
    # points 1e-3 off the roots, left there by a polish that returns its
    # center: every root misses the residual bound.  On a lift each mirror
    # is rejected and its root falls back to its own polish, which is
    # judged: the first root judged is then an outside one
    monkeypatch.setattr(polycore, "_polish", lambda center, *rest: center)
    outside = [1.5, -1.3j, 1.2 + 0.9j]
    g = trig_from_modulus_squared(Poly(tuple(np.poly(outside)[::-1])))
    monkeypatch.setattr(polycore, "_aberth", _off_points(
        outside + [1.0 / np.conj(z) for z in outside]))
    with pytest.raises(NonConvergence) as err:
        roots(lift(g))
    named = complex(str(err.value).split()[1])
    assert named == complex(1.5 * (1.0 + 1e-3))
    # cubics with no reflection symmetry: lone roots are judged, and so are
    # crowded points that the cut leaves one by one, the merges rejected
    for zeros in ([1.5, -0.5j, 0.3 + 0.2j], [1.5, 1.504, 1.508]):
        monkeypatch.setattr(polycore, "_aberth", _off_points(zeros))
        with pytest.raises(NonConvergence):
            roots(Poly(tuple(np.poly(zeros)[::-1])))


_ROOTSET_DIGEST = """
import hashlib, json, sys
from hkl.polycore import Poly, roots
digest = hashlib.sha256()
for pairs in json.load(sys.stdin):
    c = tuple(complex(float.fromhex(x), float.fromhex(y)) for x, y in pairs)
    digest.update(repr(roots(Poly(c))).encode())
print(digest.hexdigest())
"""


def test_roots_bit_identical_across_blas_thread_counts():
    # the companion eigenvalues and the power-matrix products go through
    # LAPACK and BLAS; their results must not depend on the thread count
    payload = json.dumps([[(z.real.hex(), z.imag.hex()) for z in c]
                          for c in _aberth_cases()])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(hkl.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", _ROOTSET_DIGEST],
                              input=payload, capture_output=True, text=True,
                              env=env, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("coeffs", [(1, 2, 3, 1e-310), (1.0, 0, 0, 1e-320),
                                    (1, 1e-200, 1e200, 1)])
def test_roots_extreme_coefficient_ratios_are_internal_errors(coeffs):
    # the companion matrix is not finite, or its eigenvalues are useless:
    # the solve fails as the library's own, never as a ValueError such as
    # numpy's LinAlgError, which the CLI would report as bad input
    with pytest.raises(InternalInvariantError):
        roots(Poly(coeffs))


def test_roots_extreme_quadratic_keeps_its_degree():
    assert roots(Poly((1e-300, 1, 1e300))).total_multiplicity == 2


# one path at low degree: linear and quadratic roots against the roots they
# were built from, not against roots of the rounded coefficients
LOW_MODULI = 10.0 ** np.arange(-6, 7)


def _placed(rs, zeros, tol):
    # each (a, m) is the nearest root, with multiplicity m, within tol |a|
    assert sorted(r.multiplicity for r in rs) == sorted(m for _, m in zeros)
    for a, m in zeros:
        r = min(rs, key=lambda r: abs(r.location - a))
        assert r.multiplicity == m
        assert abs(r.location - a) <= tol * abs(a)


def _polar(rng, r):
    return complex(r * np.exp(2j * np.pi * rng.uniform()))


def test_one_path_places_linear_and_simple_quadratic_roots():
    rng = np.random.default_rng(41)
    for r in LOW_MODULI:
        a = _polar(rng, r)
        lead = complex(rng.standard_normal(), rng.standard_normal())
        _placed(roots(Poly((-a * lead, lead))), [(a, 1)], 1e-12)
        for r2 in LOW_MODULI:
            b = _polar(rng, r2)
            if abs(a - b) < 0.1 * max(abs(a), abs(b)):
                continue
            p = Poly((a * b * lead, -(a + b) * lead, lead))
            _placed(roots(p), [(a, 1), (b, 1)], 1e-12)


def test_one_path_merges_a_double_quadratic_root():
    # rounding moves a double root by about sqrt(eps); at |a| = 1e6 that is
    # past CLUSTER_CAP, so the range stops at 1e5
    rng = np.random.default_rng(42)
    for r in LOW_MODULI[:-1]:
        a = _polar(rng, r)
        lead = complex(rng.standard_normal(), rng.standard_normal())
        _placed(roots(Poly((a * a * lead, -2 * a * lead, lead))), [(a, 2)],
                1e-7)


def test_one_path_solves_the_lifts_of_order_one():
    # |z - a|^2 lifted at order 1 has the reflected pair (a, 1/conj(a));
    # |z - u|^2 with |u| = 1 has the double circle zero u
    rng = np.random.default_rng(43)
    for r in LOW_MODULI[LOW_MODULI < 1]:
        a = _polar(rng, r)
        rs = roots(lift(trig_from_modulus_squared(Poly((-a, 1)))))
        _placed(rs, [(a, 1), (1 / a.conjugate(), 1)], 1e-12)
        assert [len(rs.inside), len(rs.outside)] == [1, 1]
    for _ in range(8):
        u = _polar(rng, 1.0)
        rs = roots(lift(trig_from_modulus_squared(Poly((-1.7 * u, 1.7)))))
        _placed(rs, [(u, 2)], 1e-7)
        assert rs.roots[0].region is Region.ON_CIRCLE


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


def test_derivative_lists_match_polyder_bit_for_bit():
    # polyder scales by scl = 1 before each order: exact on finite values,
    # but (inf, y) becomes (inf, nan); the special values reach that, and
    # orders at least len(q) give polyder's q[0] * 0
    rng = np.random.default_rng(21)
    special = np.array([0.0, -0.0, 1.0, -2.5, 1e308, -1e308, 5e-324, np.inf])
    for degree in range(1, 33):
        normal = (rng.standard_normal(degree + 1)
                  + 1j * rng.standard_normal(degree + 1))
        odd = [complex(x, y) for x, y in zip(rng.choice(special, degree + 1),
                                             rng.choice(special, degree + 1))]
        for c in (normal.tolist(), odd):
            for m in range(1, 6):
                with np.errstate(all="ignore"):
                    want = npp.polyder(np.array(c), m).tolist()
                assert [_bits(v) for v in _derivative(c, m)] == \
                    [_bits(v) for v in want]


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


def _snap_lift(zeros, found):
    # the lift of g = |f|**2, f with the given zeros, and the snap of the
    # root list ``found`` given for it
    g = trig_from_modulus_squared(Poly(tuple(np.poly(zeros)[::-1])))
    c = lift(g).as_array()
    return g, _snap_self_inversive(found, c)


def test_snap_merges_by_newton_on_the_derivative():
    w = cmath.exp(0.7j)
    # a genuine reflected pair at 1 -/+ 1e-5: |g| at the minimum between
    # them is 2.3 times nonneg_tol(g), so the pair is kept bit for bit
    a = (1.0 - 1e-5) * w
    found = [(-w, 8), (a, 1), (1.0 / a.conjugate(), 1)]
    g, snapped = _snap_lift([a] + [-w] * 4, found)
    assert g.values(0.7) > 2.0 * nonneg_tol(g)
    assert [(_bits(z), m) for z, m in snapped] == \
        [(_bits(z), m) for z, m in found]
    # a double circle zero split into a pair at 1 -/+ 5e-8 is one double root
    b = (1.0 - 5e-8) * w
    found = [(b, 1), (1.0 / b.conjugate(), 1), (-w, 2)]
    _, snapped = _snap_lift([w, -w], found)
    assert snapped[0] == (-w, 2)
    (z, m), = snapped[1:]
    assert m == 2 and abs(z) == pytest.approx(1.0, abs=1e-15)
    assert abs(cmath.phase(z) - 0.7) <= 1e-12
    # a lone double root at 1 + 1e-6 is projected onto the circle
    found = [((1.0 + 1e-6) * w, 2), (-w, 2)]
    _, snapped = _snap_lift([w, -w], found)
    assert snapped == [(-w, 2), (found[0][0] / abs(found[0][0]), 2)]


@pytest.fixture
def snap_calls(monkeypatch):
    calls = [0]
    snap = polycore._snap_self_inversive

    def counted(*args):
        calls[0] += 1
        return snap(*args)
    monkeypatch.setattr(polycore, "_snap_self_inversive", counted)
    return calls


def _phase(c):
    # mu with conj(c[::-1]) = mu c, from the largest coefficient
    k = int(np.argmax(np.abs(c)))
    return complex(np.conj(c[::-1])[k] / c[k])


def test_snap_places_the_roots_of_a_lift(snap_calls):
    g = random_boundary_modulus(4, 1, 2, 1, np.random.default_rng(7))
    roots(lift(g))
    assert snap_calls[0] == 1


def test_snap_leaves_other_self_inversive_polynomials(snap_calls):
    # self-inversive, but no lift: an extreme point's factor, of even
    # degree and phase 0.41 - 0.91i, and a lift times 1j, of phase -1
    f = fejer_riesz(random_boundary_modulus(
        4, 0, 4, 0, np.random.default_rng(7))).as_array()
    c = lift(random_boundary_modulus(
        4, 1, 2, 1, np.random.default_rng(7))).as_array() * 1j
    for p in (f, c):
        mu = _phase(p)
        assert len(p) % 2 == 1 and abs(mu - 1.0) > 1e-3
        assert np.abs(np.conj(p[::-1]) - mu * p).max() <= 1e-12
    assert all(r.region is Region.ON_CIRCLE and r.multiplicity == 1
               for r in roots(Poly(tuple(f))).roots)
    assert (sum(r.multiplicity for r in roots(Poly(tuple(c))).roots)
            == len(c) - 1)
    # 1 + z + ... + z**5, odd degree: the sixth roots of unity but 1
    rs = roots(Poly((1,) * 6)).roots
    want = np.exp(2j * np.pi * np.arange(1, 6) / 6)
    assert [r.multiplicity for r in rs] == [1] * 5
    assert all(r.region is Region.ON_CIRCLE for r in rs)
    got = np.array([r.location for r in rs])
    assert np.abs(got[:, None] - want).min(axis=0).max() <= 1e-12
    assert snap_calls[0] == 0


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

    # asymmetric, n = 3: |f|^2 / mean - d with f's circle zero mid-cell and
    # two zeros off the circle; the minimum from 40 digits is the oracle
    mpmath = pytest.importorskip("mpmath")
    phi = 2.0 * np.pi * 1000.5 / 4096
    f = poly_mul(poly_mul(Poly((-np.exp(1j * phi), 1)),
                          Poly((-1.6 * np.exp(0.9j), 1))),
                 Poly((-1.3 * np.exp(-2.1j), 1)))
    h = trig_from_modulus_squared(f)
    h = trig_scale(h, 1.0 / h.mean)
    g = TrigPoly(3, (h.coeffs[0] - d,) + h.coeffs[1:])
    assert g.grid_values(4096).min() > 0
    cs = [mpmath.mpc(c.real, c.imag) for c in g.coeffs]

    def value(t):
        return cs[0].real + 2 * mpmath.re(mpmath.fsum(
            cs[k] * mpmath.expj(k * t) for k in range(1, 4)))

    with mpmath.workdps(40):
        t = mpmath.findroot(lambda t: mpmath.diff(value, t), mpmath.mpf(phi))
        oracle = float(value(t))
    assert oracle < -0.999 * d
    cert = nonneg_check(g)
    assert not cert.nonnegative
    assert cert.min_value == pytest.approx(oracle, rel=1e-6)
    assert cert.argmin_theta == pytest.approx(float(t), abs=1e-9)


def test_nonneg_null():
    assert nonneg_check(TrigPoly(0, (0j,))).nonnegative


# ---------------------------------------------------------------------------
# the local minima of g on the circle
# ---------------------------------------------------------------------------

def test_circle_minima_are_the_local_minima_of_g():
    # |(1 + z)(1 - iz)|^2 has double zeros at -1 and -i
    g = trig_from_modulus_squared(poly_mul(Poly((1, 1)), Poly((1, -1j))))
    got = np.sort(np.mod(circle_minima(g), 2 * np.pi))
    assert got == pytest.approx([np.pi, 1.5 * np.pi], abs=1e-12)
    assert circle_minima(TrigPoly(0, (1.0,))).shape == (0,)
    # cos(theta) and 1 + cos(theta) / 2: one minimum each, at pi
    for g in (TrigPoly(1, (0.0, 0.5)), TrigPoly(1, (1.0, 0.25))):
        assert circle_minima(g) == pytest.approx([np.pi], abs=1e-12)
    # a fourfold zero at 0, (2 - 2 cos)**2: one minimum in the grid's
    # last cell, where Newton on the cubic g' is slow
    got = circle_minima(trig_from_modulus_squared(
        poly_mul(Poly((-1, 1)), Poly((-1, 1)))))
    assert len(got) == 1
    assert abs(math.remainder(got[0], 2 * np.pi)) < 2 * np.pi / 4096


def _zeros_all_on_circle(suite):
    """The extreme and deficit members of a census suite with a zero."""
    return [g for g, n, (inside, circle, outside) in suite
            if inside == outside == 0 and circle > 0]


def test_circle_count_passes_no_negative_g(small_census_suite):
    # g - c has the minima of g, since g' is unchanged: the count decides
    # while |g - c| <= tol there, and skips the odd-root search; past tol
    # it declines, and the lift's odd circle roots find the dip
    members = _zeros_all_on_circle(small_census_suite)
    assert len(members) >= 20
    for g in members:
        tol = nonneg_tol(g)
        minima = polycore.circle_count(g)
        assert minima is not None
        for c in (0.5 * tol, 2.0 * tol, 10.0 * tol):
            shifted = TrigPoly(g.n, (g.coeffs[0] - c,) + g.coeffs[1:])
            assert np.array_equal(circle_minima(shifted), minima)
            cert = nonneg_check(shifted)
            if c <= tol:
                assert np.array_equal(polycore.circle_count(shifted), minima)
                assert cert.nonnegative
            else:
                assert polycore.circle_count(shifted) is None
                assert not cert.nonnegative
                assert shifted.values(cert.argmin_theta) < -cert.tol
                with pytest.raises(NotNonnegative):
                    require_nonnegative(shifted)


def _near_circle_family(delta, seed, count=40):
    """|f|^2 / mean, f with n - 1 circle zeros at uniform random angles and
    one zero at radius 1 - delta, n = 2..9, f built by one FFT."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 2 + i % 8
        w = np.append(np.exp(2j * np.pi * rng.uniform(size=n - 1)),
                      (1 - delta) * np.exp(2j * np.pi * rng.uniform()))
        size = 1 << (2 * n + 1).bit_length()
        zeta = np.exp(2j * np.pi * np.arange(size) / size)
        c = np.fft.fft(np.prod(zeta[:, None] - w, axis=1))[:n + 1] / size
        g = trig_from_modulus_squared(Poly(tuple(c / np.linalg.norm(c))))
        out.append(trig_scale(g, 1.0 / g.mean))
    return out


def test_circle_count_declines_a_reflected_pair_beyond_the_snap_band():
    # every minimum within tol, but one of them is the reflected pair
    # (1 - 1e-3) w, w / (1 - 1e-3) of the lift, which the snap of roots
    # keeps apart: the count must not call it a double zero
    within = []
    for g in _near_circle_family(1e-3, 16):
        minima = circle_minima(g)
        if (minima is not None and len(minima) == g.n
                and np.all(np.abs(g.values(minima)) <= nonneg_tol(g))):
            within.append(g)
    assert len(within) == 10
    for g in within:
        assert polycore.circle_count(g) is None


def _refine_reference(g, theta0):
    # reference: the refiner with 1j * ks and -ks * ks built on every step
    ks = np.arange(1, g.n + 1)
    cs = np.array(g.coeffs[1:])
    theta = theta0
    for _ in range(8):
        ph = cs * np.exp(1j * ks * theta)
        d1 = float(2.0 * (1j * ks * ph).real.sum())
        d2 = float(2.0 * (-ks * ks * ph).real.sum())
        if d2 <= 0:
            break
        step = d1 / d2
        if not math.isfinite(step) or abs(step) > 1e-2:
            break
        theta -= step
        if abs(step) <= 1e-15:
            break
    return theta


def test_refine_circle_angle_bit_identical_to_reference():
    # from random cell midpoints and from half a cell either side of each
    # minimum, on extreme points and on g with inside and outside zeros
    rng = np.random.default_rng(64)
    for n in range(1, 13):
        for census in ((0, n, 0), (n // 3, n - 2 * (n // 3), n // 3)):
            g = random_boundary_modulus(n, *census, rng)
            width = 2 * np.pi / 4096
            starts = [(j + 0.5) * width for j in rng.integers(0, 4096, 8)]
            minima = circle_minima(g)
            if minima is not None:
                starts += [t + s * width for t in minima for s in (-0.5, 0.5)]
            for t in starts:
                assert (refine_circle_angle(g, float(t)).hex()
                        == _refine_reference(g, float(t)).hex())


def _circle_minima_reference(g):
    # reference: g' as a validated TrigPoly, its grid_values, np.roll
    n = g.effective_band
    if n == 0:
        return np.empty(0)
    size = polycore.nonneg_grid_size(g)
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


def test_circle_minima_bit_identical_to_reference():
    # its cells are the refiner's starts, whose angles become the circle
    # zeros of F: on extreme points, on g with inside and outside zeros
    # and on g with random coefficients, of either sign
    rng = np.random.default_rng(1024)
    for n in range(1, 65):
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        for g in (jittered_extreme_point(n, n)[1],
                  jittered_inside_zero_point(n, n)[1],
                  TrigPoly(n, (c[0].real,) + tuple(c[1:]))):
            got, want = circle_minima(g), _circle_minima_reference(g)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


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


def _exact_grid_values(g, size, mpmath):
    """g at theta_j = 2 pi j / size, each angle reduced to (k j) mod size
    before it is rounded, summed at 30 digits."""
    with mpmath.workdps(30):
        unit = [mpmath.expj(2 * mpmath.pi * m / size) for m in range(size)]
        cs = [mpmath.mpc(c.real, c.imag) for c in g.coeffs]
        return np.array([float(cs[0].real + 2 * mpmath.re(mpmath.fsum(
            cs[k] * unit[k * j % size] for k in range(1, g.n + 1))))
            for j in range(size)])


@pytest.mark.parametrize("n", [0, 1, 4, 13])
def test_grid_values_match_values_at_the_grid_angles(n):
    # one real inverse FFT of the n + 1 stored coefficients.  Its rounding
    # grows with log2(size) as well as with n: at n = 1, size 4096 it has
    # reached 2.8 eps l1(g), over (n + 1) eps l1(g) alone.  values(theta)
    # at the rounded angle is itself off by more than (n + 1) eps l1(g), so
    # the reference is g at the exact angle.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    g = TrigPoly(n, (c[0].real,) + tuple(c[1:]))
    for size in sorted({2 * n + 1, 2 * n + 2, 64, 1001, 4096}):
        got = g.grid_values(size)
        bound = (n + 1 + math.log2(size)) * np.finfo(float).eps \
            * polycore._l1(g)
        assert got.shape == (size,) and got.dtype == float
        assert np.abs(got - _exact_grid_values(g, size, mpmath)).max() \
            <= bound, size
    with pytest.raises(ValueError):
        g.grid_values(2 * n)


def _exact_values(g, theta, mpmath):
    """g at each floating-point angle of theta, summed at 30 digits."""
    with mpmath.workdps(30):
        cs = [mpmath.mpc(c.real, c.imag) for c in g.coeffs]
        return np.array([float(cs[0].real + 2 * mpmath.re(mpmath.fsum(
            cs[k] * mpmath.expj(k * mpmath.mpf(t))
            for k in range(1, g.n + 1))))
            for t in np.ravel(theta)]).reshape(np.shape(theta))


@pytest.mark.parametrize("n", [0, 1, 4, 13, 128])
def test_values_match_an_exact_sum_within_the_horner_bound(n):
    # Horner's rule in z = exp(i theta): each of the n steps rounds by a
    # few eps of a partial sum of modulus <= l1(g), and z itself by about
    # one, so the value is within (n + 1) 3 eps l1(g) of g at the angle
    # as rounded; at random angles (negative ones too) and at the grid's
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(100 + n)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    g = TrigPoly(n, (c[0].real,) + tuple(c[1:]))
    bound = (n + 1) * 3 * np.finfo(float).eps * polycore._l1(g)
    size = max(64, 2 * n + 1)
    for theta in (rng.uniform(-2 * np.pi, 4 * np.pi, 64),
                  2 * np.pi * np.arange(size) / size,
                  float(rng.uniform(0, 2 * np.pi))):
        got = g.values(theta)
        assert got.shape == np.shape(theta) and got.dtype == float
        assert np.abs(got - _exact_values(g, theta, mpmath)).max() <= bound


def test_trig_add_scale():
    a = TrigPoly(1, (1.0, 0.5))
    b = trig_add(trig_scale(a, 2.0), trig_scale(a, -1.0))
    assert b.coeffs == a.coeffs


def test_trig_rejects_complex_mean():
    with pytest.raises(ValueError):
        TrigPoly(1, (1 + 0.5j, 0.0))
