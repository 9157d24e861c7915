"""The order ladder: at every order the tests reach, each call answers with a
result checked against its tolerance, or raises a named error of the
library's own (never one that blames a valid input).

The inputs are built without expanding roots one by one: jittered
equispaced extreme points (every zero of f on the circle, so g is extreme),
the same points of a lower order d below the model order (deficit points,
never extreme), the same points with one zero moved inside the disk
(boundary points with an inside zero, never extreme) and strictly positive
g = 1 + a small band-n term (never extreme).  On the extreme points every
call answers from the circle count with no root solve.  Larger orders than
these take seconds each and are left out of the suite.
"""

import numpy as np
import pytest

from conftest import (_flat_band_modulus, jittered_extreme_point,
                      jittered_inside_zero_point)

from hkl import factor
from hkl.errors import InternalInvariantError
from hkl.factor import TOL_SPECTRAL, fejer_riesz, spectral_factor
from hkl.geometry import (PerturbationSearch, RigidityResult,
                          decompose_modulus, enumerate_solutions, is_extreme,
                          perturbation_search, rigidity_check,
                          split_nonextreme)
from hkl.kernel import KernelElement

LADDER = (8, 16, 32, 64, 128)
TOL_MODULUS = 1e-9     # | |f|^2 - g | on 4096 points, per listed solution
TOL_SPLIT = 1e-10      # a split's midpoint residual and |norm - 1|


def _family(name, n):
    """g and whether it is extreme."""
    if name == "jittered":
        return jittered_extreme_point(n, n)[1], True
    return _flat_band_modulus(n, n), False


@pytest.mark.parametrize("n", LADDER)
@pytest.mark.parametrize("name", ["jittered", "flat"])
def test_every_order_answers_within_tolerance_or_names_its_failure(
        name, n, solve_counter):
    g, extreme = _family(name, n)
    try:
        rec = spectral_factor(g)
    except InternalInvariantError:
        pass
    else:
        assert rec.factor.degree == n
        assert factor._round_trip(rec.factor, g) / factor._l1(g) \
            <= TOL_SPECTRAL
    try:
        cert = is_extreme(g, n)
    except InternalInvariantError:
        pass
    else:
        assert cert.verdict is extreme
    if extreme:
        # the circle count decides: no lift is solved
        assert not solve_counter


@pytest.mark.parametrize("n", LADDER)
def test_extreme_points_search_and_check_rigidity_with_no_solve(
        n, solve_counter):
    # the circle count decides the perturbation search, the rigidity of a
    # multiple of F and the decomposition of the unit-norm F
    g = jittered_extreme_point(n, n)[1]
    search = perturbation_search(g, n)
    assert search.route == PerturbationSearch.CIRCLE_COUNT
    assert search.max_norm == 0.0
    base = fejer_riesz(g)
    rigid = rigidity_check(g, n, KernelElement(n, base.scaled(0.5)))
    assert rigid.kind == RigidityResult.CONSTANT_MULTIPLE
    assert abs(rigid.constant - 0.5) <= 1e-12
    assert decompose_modulus(KernelElement(n, base)).rigid
    assert not solve_counter


@pytest.mark.parametrize("n", LADDER)
def test_deficit_points_list_every_solution(n, solve_counter):
    # an extreme point of order n - d at model order n: the lift's inner
    # factor is z**d, and the d + 1 solutions are F z**k, k = 0..d
    d = n // 8
    g = jittered_extreme_point(n - d, n)[1]
    cert = is_extreme(g, n)
    assert not cert.verdict
    assert cert.inner_factor.m0 == d and not cert.inner_factor.zeros
    sols = enumerate_solutions(g, n)
    assert len(sols) == d + 1
    zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
    gv = g.grid_values(4096)
    for x in sols:
        assert np.abs(np.abs(x.f(zeta)) ** 2 - gv).max() <= TOL_MODULUS
    assert not solve_counter


@pytest.mark.parametrize("n", LADDER)
def test_boundary_points_with_an_inside_zero_split_and_list_two(n):
    # one zero a inside the disk: the lift's inner factor is the Blaschke
    # factor at a, so g is not extreme, splits, and has two solutions, F
    # and F times that factor.  The count declines, so the lift is solved
    g = jittered_inside_zero_point(n, n)[1]
    try:
        cert = is_extreme(g, n)
    except InternalInvariantError:
        pass
    else:
        assert cert.norm_ok and not cert.verdict
    try:
        split = split_nonextreme(g, n)
    except InternalInvariantError:
        pass
    else:
        ch = split.checks
        assert ch.extreme1 and ch.extreme2
        assert ch.midpoint_residual <= TOL_SPLIT
        assert max(abs(ch.norm1 - 1), abs(ch.norm2 - 1)) <= TOL_SPLIT
    try:
        sols = enumerate_solutions(g, n)
    except InternalInvariantError:
        pass
    else:
        assert len(sols) == 2
        zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
        gv = g.grid_values(4096)
        for x in sols:
            assert np.abs(np.abs(x.f(zeta)) ** 2 - gv).max() <= TOL_MODULUS
