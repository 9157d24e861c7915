"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report; every tolerance below is pinned, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from conftest import census_suite, random_outer_poly

from hkl.factor import fejer_riesz, inner_outer
from hkl.gen import random_boundary_modulus
from hkl.geometry import (RigidityResult, decompose_modulus,
                          enumerate_solutions, is_extreme,
                          perturbation_search, rigidity_check,
                          split_nonextreme)
from hkl.kernel import KernelElement, h2_norm
from hkl.numeric import Grid, domination_integral, outer_from_modulus
from hkl.polycore import (Poly, TrigPoly, lift, roots,
                          trig_from_modulus_squared, trig_scale)

RESULTS = []


def report(num, ok, elapsed, budget, detail):
    line = (f"[criterion {num}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s / {budget:g}s budget) {detail}")
    print(line)
    RESULTS.append(line)
    assert ok, line
    assert elapsed < budget, line


@pytest.fixture(scope="module")
def big_census_suite():
    return census_suite(500, seed=711, max_n=12)


def test_criterion_1_worked_decomposition():
    start = time.perf_counter()
    s = 2 / math.sqrt(5)
    x = KernelElement(1, Poly((-0.5 * s, s)))
    dec = decompose_modulus(x)
    elapsed = time.perf_counter() - start

    g = trig_from_modulus_squared(x.f)
    g1 = trig_from_modulus_squared(dec.f1.f)
    g2 = trig_from_modulus_squared(dec.f2.f)
    targets = {-0.4 + 0.3j, -0.4 - 0.3j}
    got = {complex(np.round(g1.coeff(1), 9)), complex(np.round(g2.coeff(1), 9))}
    ok = not dec.rigid and got == targets
    ok &= abs(g1.mean - 1) <= 1e-10 and abs(g2.mean - 1) <= 1e-10
    mid = max(abs(g1.coeff(k) + g2.coeff(k) - 2 * g.coeff(k)) for k in (0, 1))
    ok &= mid <= 1e-10

    # f1 matches (z - (4 -+ 3i)/5)/sqrt(2) up to a unimodular constant
    worst_phase = 0.0
    for f in (dec.f1.f, dec.f2.f):
        best = math.inf
        for root in ((4 + 3j) / 5, (4 - 3j) / 5):
            target = Poly((-root / math.sqrt(2), 1 / math.sqrt(2)))
            phase = f.coeff(1) / target.coeff(1)
            err = max(abs(f.coeff(k) - phase * target.coeff(k))
                      for k in range(2))
            err = max(err, abs(abs(phase) - 1))
            best = min(best, err)
        worst_phase = max(worst_phase, best)
    ok &= worst_phase <= 1e-9
    report(1, ok, elapsed, 0.1,
           f"worked decomposition: midpoint {mid:.1e}, "
           f"representative error {worst_phase:.1e}")


def test_criterion_2_fejer_round_trip():
    rng = np.random.default_rng(222)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        deg = int(rng.integers(1, 17))
        circ = int(rng.integers(0, min(deg, 3) + 1))
        f = random_outer_poly(rng, deg, circ)
        back = fejer_riesz(trig_from_modulus_squared(f))
        scale = max(abs(c) for c in f.coeffs)
        err = max(abs(back.coeff(k) - f.coeff(k))
                  for k in range(deg + 1)) / scale
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-7, elapsed, 10.0,
           f"500 spectral round trips, worst relative error {worst:.2e}")


def test_criterion_3_extreme_oracle(big_census_suite):
    start = time.perf_counter()
    agree = 0
    for g, n, (k_in, k_circ, k_out) in big_census_suite:
        expected = k_in == 0 and k_out == 0 and k_circ == n
        if is_extreme(g, n).verdict == expected:
            agree += 1
    elapsed = time.perf_counter() - start
    report(3, agree == len(big_census_suite), elapsed, 10.0,
           f"extreme verdict vs census oracle: {agree}/{len(big_census_suite)}")


def test_criterion_4_split_certificates(big_census_suite):
    start = time.perf_counter()
    count = 0
    worst_mid = worst_norm = 0.0
    min_gap = math.inf
    all_extreme = True
    for g, n, _ in big_census_suite:
        if is_extreme(g, n).verdict:
            continue
        cert = split_nonextreme(g, n)
        count += 1
        worst_mid = max(worst_mid, cert.checks.midpoint_residual)
        worst_norm = max(worst_norm, abs(cert.checks.norm1 - 1),
                         abs(cert.checks.norm2 - 1))
        min_gap = min(min_gap, cert.checks.distinctness_gap)
        all_extreme &= cert.checks.extreme1 and cert.checks.extreme2
    elapsed = time.perf_counter() - start
    ok = (worst_mid <= 1e-10 and worst_norm <= 1e-10
          and min_gap > 1e-9 and all_extreme)
    report(4, ok, elapsed, 20.0,
           f"{count} splits: midpoint {worst_mid:.1e}, norms {worst_norm:.1e}, "
           f"min gap {min_gap:.1e}, halves extreme {all_extreme}")


def test_criterion_5_uniqueness_at_extreme_points():
    rng = np.random.default_rng(555)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 9))
        g = random_boundary_modulus(n, 0, n, 0, rng)
        res = perturbation_search(g, n, trials=10_000, seed=i)
        worst = max(worst, res.max_norm)
    elapsed = time.perf_counter() - start
    report(5, worst <= 1e-6, elapsed, 60.0,
           f"100 extreme points, 1e4 trials each, "
           f"largest admissible perturbation {worst:.2e}")


def test_criterion_6_solution_enumeration():
    suite = census_suite(200, seed=666, max_n=8)
    zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
    theta = np.angle(zeta)
    start = time.perf_counter()
    ok = True
    worst_resid = 0.0
    for g, n, _ in suite:
        inner = inner_outer(lift(g, n)).inner
        expected = inner.m0 + 1
        for _, m in inner.zeros:
            expected *= m + 1
        sols = enumerate_solutions(g, n)
        ok &= len(sols) == expected
        gv = g.values(theta)
        outers = 0
        for s in sols:
            resid = float(np.abs(np.abs(s.f(zeta)) ** 2 - gv).max())
            worst_resid = max(worst_resid, resid)
            if s.f.degree <= 0 or all(abs(r.location) >= 1 - 1e-9
                                      for r in roots(s.f)):
                outers += 1
        ok &= outers == 1
    elapsed = time.perf_counter() - start
    ok &= worst_resid <= 1e-9
    report(6, ok, elapsed, 20.0,
           f"200 enumerations: counts exact, worst modulus residual "
           f"{worst_resid:.1e}, one outer representative each")


def test_criterion_7_rigidity():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(1, 9))
        g = random_boundary_modulus(n, 0, n, 0, rng)
        base = fejer_riesz(g)
        c = rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.uniform())
        # a counterexample (dominated, not a multiple) raises SelfCheckFailed
        res = rigidity_check(g, n, KernelElement(n, base.scaled(c)))
        worst = max(worst, abs(res.constant - c))

    r = 1 / math.sqrt(2)
    g_neg = TrigPoly(1, (1.0, 0.5))
    x_neg = KernelElement(1, Poly((r, -r)))
    neg = rigidity_check(g_neg, 1, x_neg)
    witness = domination_integral(x_neg, g_neg)
    elapsed = time.perf_counter() - start
    ok = (worst <= 1e-9
          and neg.kind == RigidityResult.NOT_DOMINATED
          and witness.divergent)
    report(7, ok, elapsed, 10.0,
           f"120 constant multiples recovered to {worst:.1e}, "
           f"engineered case "
           f"NOT_DOMINATED with DIVERGENT witness")


def test_criterion_8_cross_validation():
    rng = np.random.default_rng(888)
    start = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 200:
        deg = int(rng.integers(1, 17))
        f = random_outer_poly(rng, deg, 0)
        g = trig_from_modulus_squared(f)
        g = trig_scale(g, 1.0 / g.mean)
        vals = g.grid_values(4096)
        if vals.min() < 1e-3:
            continue
        done += 1
        exact = fejer_riesz(g)
        sampled = outer_from_modulus(Grid(np.sqrt(vals)))
        ref = exact(sampled.points)
        err = float(np.abs(sampled.values - ref).max() /
                    np.abs(ref).max())
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(8, worst <= 1e-7, elapsed, 15.0,
           f"200 strictly positive cross-validations, worst relative "
           f"sample error {worst:.2e}")
