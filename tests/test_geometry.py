import collections
import dataclasses
import math

import numpy as np
import pytest

from conftest import (CENSUS_2819_177, HOLDOUT_131, census_suite,
                      jittered_extreme_point, random_unit_element,
                      repeated_inside_zero_family, trig_from_hex)
from test_order_ladder import LADDER

from hkl import factor, geometry, polycore
from hkl.errors import (AlreadyExtreme, BandExceeded, InnerFactorPresent,
                        NotInV, NotNonnegative, NotOnBoundary, NotUnitNorm,
                        NullInput, SelfCheckFailed)
from hkl.factor import (blaschke_eval, fejer_riesz, inner_outer,
                        spectral_factor)
from hkl.gen import random_boundary_modulus, random_kernel_element
from hkl.geometry import (SEARCH_GRID, PerturbationSearch, RigidityResult,
                          _circle_count, _sampled_search, baseline_split,
                          decompose_modulus, enumerate_solutions, is_extreme,
                          perturbation_search, rigidity_check,
                          split_nonextreme)
from hkl.kernel import KernelElement, companion, h2_norm
from hkl.polycore import (Poly, TrigPoly, circle_minima, lift, nonneg_check,
                          nonneg_tol, poly_mul, roots,
                          trig_from_modulus_squared, trig_scale)

SQ5 = math.sqrt(5)
WORKED = KernelElement(1, Poly((-1 / SQ5, 2 / SQ5)))   # (2/sqrt5)(z - 1/2)


def modulus_of(x):
    g = trig_from_modulus_squared(x.f)
    return trig_scale(g, 1.0 / g.mean)


# ---------------------------------------------------------------------------
# is_extreme
# ---------------------------------------------------------------------------

def test_extreme_square_boundary():
    cert = is_extreme(TrigPoly(1, (1.0, 0.5)), 1)
    assert cert.verdict and cert.norm_ok
    assert cert.inner_factor.is_trivial


def test_extreme_fails_with_disk_zero():
    cert = is_extreme(TrigPoly(1, (1.0, -0.4)), 1)
    assert not cert.verdict and cert.norm_ok
    assert len(cert.inner_factor.zeros) == 1
    a, _ = cert.inner_factor.zeros[0]
    assert a == pytest.approx(0.5)


def test_extreme_fails_below_unit_norm():
    cert = is_extreme(TrigPoly(1, (0.9, 0.2)), 1)
    assert not cert.verdict and not cert.norm_ok


def test_extreme_requires_membership():
    # cos(theta) is negative: NotNonnegative names its point, as everywhere
    with pytest.raises(NotNonnegative, match="at theta="):
        is_extreme(TrigPoly(1, (0.0, 0.5)), 1)
    with pytest.raises(NotInV, match="band limit 2"):
        is_extreme(TrigPoly(2, (1.0, 0.0, 0.25)), 1)


def test_extreme_scaling_kills_extremality():
    g = TrigPoly(1, (1.0, 0.5))
    assert is_extreme(g, 1).verdict
    assert not is_extreme(trig_scale(g, 0.7), 1).verdict


def test_extreme_oracle_on_census(small_census_suite):
    # verdict must equal: every zero on the circle and full degree
    for g, n, (k_in, k_circ, k_out) in small_census_suite:
        expected = k_in == 0 and k_out == 0 and k_circ == n
        assert is_extreme(g, n).verdict == expected, (n, (k_in, k_circ, k_out))


# ---------------------------------------------------------------------------
# split_nonextreme: the worked instance
# ---------------------------------------------------------------------------

def test_split_rotation_integral_against_quadrature():
    # independent quadrature oracle for the rotation integral
    g = modulus_of(WORKED)
    cert = split_nonextreme(g, 1)
    theta = 2 * np.pi * np.arange(1 << 14) / (1 << 14)
    zeta = np.exp(1j * theta)
    u = (zeta - 0.5) / (1 - 0.5 * zeta)
    byhand = np.mean(g.values(theta) * u)
    assert byhand == pytest.approx(-0.8, abs=1e-12)
    assert cert.rotation_integral == pytest.approx(byhand, abs=1e-10)


def test_split_worked_instance_values():
    g = modulus_of(WORKED)
    cert = split_nonextreme(g, 1)
    # lambda = +i conj(c)/|c| with c = -4/5 gives -i; the pair of first
    # coefficients is then -2/5 -+ (3/10)i in either order
    got = {complex(np.round(cert.g1.coeff(1), 10)),
           complex(np.round(cert.g2.coeff(1), 10))}
    assert got == {-0.4 - 0.3j, -0.4 + 0.3j}
    assert cert.g1.mean == pytest.approx(1.0, abs=1e-12)
    assert cert.g2.mean == pytest.approx(1.0, abs=1e-12)
    assert cert.checks.midpoint_residual <= 1e-12


def test_split_worked_instance_representatives():
    g = modulus_of(WORKED)
    cert = split_nonextreme(g, 1)
    # each representative matches (z - (4 -+ 3i)/5)/sqrt(2) up to phase
    for f, root in ((cert.f1.f, (4 - 3j) / 5), (cert.f2.f, (4 + 3j) / 5)):
        target = Poly((-root / math.sqrt(2), 1 / math.sqrt(2)))
        phase = f.coeff(1) / target.coeff(1)
        assert abs(abs(phase) - 1) < 1e-9
        assert max(abs(f.coeff(k) - phase * target.coeff(k))
                   for k in range(2)) < 1e-9


def test_split_rejects_extreme_input():
    with pytest.raises(AlreadyExtreme):
        split_nonextreme(TrigPoly(1, (1.0, 0.5)), 1)


def test_split_rejects_interior_norm():
    with pytest.raises(NotOnBoundary):
        split_nonextreme(TrigPoly(1, (0.9, -0.36)), 1)


def test_split_pure_power_inner_factor():
    # g = 1 at order 1: the inner factor is z itself, rotation integral 0
    cert = split_nonextreme(TrigPoly(1, (1.0, 0.0)), 1)
    assert cert.rotation == 1.0  # the vanishing-integral convention
    assert cert.g1.coeff(1) == pytest.approx(0.5)
    assert cert.g2.coeff(1) == pytest.approx(-0.5)


def test_split_certificates_on_census(small_census_suite):
    for g, n, census in small_census_suite:
        cert_e = is_extreme(g, n)
        if cert_e.verdict:
            continue
        cert = split_nonextreme(g, n)
        assert cert.checks.midpoint_residual <= 1e-10
        assert abs(cert.checks.norm1 - 1) <= 1e-10
        assert abs(cert.checks.norm2 - 1) <= 1e-10
        assert cert.checks.distinctness_gap > 1e-9
        assert cert.checks.extreme1 and cert.checks.extreme2
        # representatives reproduce their halves
        for f, gh in ((cert.f1, cert.g1), (cert.f2, cert.g2)):
            back = trig_from_modulus_squared(f.f)
            assert max(abs(back.coeff(k) - gh.coeff(k))
                       for k in range(n + 1)) <= 1e-9


def test_split_halves_are_g_times_one_plus_minus_re_u(small_census_suite):
    # oracle for the halves built from the outer part: before normalization
    # they are g (1 +/- Re(lam u0)), with lam u0 the certificate's u
    size = 1024
    theta = 2 * np.pi * np.arange(size) / size
    zeta = np.exp(1j * theta)
    for g, n, _ in small_census_suite:
        if is_extreme(g, n).verdict:
            continue
        cert = split_nonextreme(g, n)
        re_u = blaschke_eval(cert.u, zeta).real
        gv = g.values(theta)
        for gj, norm, sign in ((cert.g1, cert.checks.norm1, 1.0),
                               (cert.g2, cert.checks.norm2, -1.0)):
            err = np.abs(gj.values(theta) * norm - gv * (1 + sign * re_u))
            assert err.max() <= 1e-12, n


def test_split_ill_conditioned_inside_zero():
    # instance #360 of the 711 census suite (n = 12, census (3, 9, 0)): the
    # inside zero with |a| = 0.753 is ill-conditioned, and the halves are
    # built from the lift's outer part alone, so no product of the lift with
    # u0 carries that zero's rounding into them
    g, n, census = census_suite(361, seed=711, max_n=12)[360]
    assert (n, census) == (12, (3, 9, 0))
    cert = split_nonextreme(g, n)
    assert cert.checks.midpoint_residual <= 1e-10
    assert abs(cert.checks.norm1 - 1) <= 1e-10
    assert abs(cert.checks.norm2 - 1) <= 1e-10
    assert cert.checks.extreme1 and cert.checks.extreme2


def _grid_residual(f, g, size=4096):
    zeta = np.exp(2j * np.pi * np.arange(size) / size)
    return float(np.abs(np.abs(f(zeta)) ** 2 - g.grid_values(size)).max())


def test_split_holdout_131_halves_are_extreme():
    cert = split_nonextreme(HOLDOUT_131, 10)
    assert cert.checks.extreme1 and cert.checks.extreme2
    assert cert.checks.midpoint_residual <= 1e-10
    for f, gh in ((cert.f1, cert.g1), (cert.f2, cert.g2)):
        assert _grid_residual(f.f, gh) <= 1e-9


def test_split_halves_of_census_177_keep_their_zeros_on_the_circle():
    # each half is extreme, so every zero of its factor lies on the circle;
    # np.roots is an independent oracle for where they are
    cert = split_nonextreme(CENSUS_2819_177, 11)
    assert cert.checks.extreme1 and cert.checks.extreme2
    for f in (cert.f1.f, cert.f2.f):
        zeros = np.roots(f.as_array()[::-1])
        assert len(zeros) == 11
        assert np.abs(np.abs(zeros) - 1.0).max() <= 1e-10


def _non_extreme_census(seed):
    # two moduli per order 1..8 and kind, skipping draws that are extreme
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, 9):
        for kind in ("inside", "outside", "deficit", "mixed"):
            for _ in range(2):
                if kind == "inside":
                    k = int(rng.integers(1, min(n, 3) + 1))
                    census = (k, n - k, 0)
                elif kind == "outside":
                    k = int(rng.integers(1, min(n, 3) + 1))
                    census = (0, n - k, k)
                elif kind == "deficit":
                    census = (0, int(rng.integers(0, n)), 0)
                else:
                    k_in = int(rng.integers(0, min(n, 2) + 1))
                    k_out = int(rng.integers(0, min(n - k_in, 2) + 1))
                    census = (k_in, int(rng.integers(
                        0, n - k_in - k_out + 1)), k_out)
                if census != (0, n, 0):
                    out.append((random_boundary_modulus(n, *census, rng), n))
    return out


def test_split_halves_built_without_solving_their_lifts(solve_counter):
    # the halves' factors are prod (z - w)**(m/2) (lam N +/- D) over g's
    # circle zeros, accepted by their round trips; factors and verdicts must
    # agree with solving the halves' lifts
    for g, n in _non_extreme_census(6586):
        assert not is_extreme(g, n).verdict
        solve_counter.clear()
        cert = split_nonextreme(g, n)
        # no root solve after the one of g's lift, not even of lam N +/- D
        assert not solve_counter
        assert cert.checks.factor_residual <= 1e-12
        for f, gh, ext in ((cert.f1, cert.g1, cert.checks.extreme1),
                           (cert.f2, cert.g2, cert.checks.extreme2)):
            assert ext == is_extreme(gh, n).verdict
            want = fejer_riesz(gh).as_array()
            got = f.f.as_array()
            assert len(got) == len(want)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_split_halves_over_the_bound_keep_their_factors(monkeypatch,
                                                        solve_counter):
    # round trips raised above nonneg_tol: each half keeps its built
    # factor and is certified by its circle count, which finds its n minima
    # as zeros of the half and solves no lift; no half is factored again
    def refuse(g):
        raise AssertionError("the split re-solved a half")
    build = geometry._factor_from_zeros

    def over_the_bound(g, cofactor, circle, self_inversive):
        f, resid = build(g, cofactor, circle, self_inversive)
        return f, resid + 1e-6
    monkeypatch.setattr(geometry, "_factor_from_zeros", over_the_bound)
    monkeypatch.setattr(geometry, "fejer_riesz", refuse)
    monkeypatch.setattr(factor, "fejer_riesz", refuse)
    g = random_boundary_modulus(5, 1, 3, 1, np.random.default_rng(131))
    cert = split_nonextreme(g, 5)
    assert solve_counter[10] == 1   # the lift of g alone
    assert cert.checks.extreme1 and cert.checks.extreme2
    assert cert.checks.midpoint_residual <= 1e-10
    assert 1e-6 < cert.checks.factor_residual <= 1e-6 + 1e-12
    for f, gh in ((cert.f1, cert.g1), (cert.f2, cert.g2)):
        assert _grid_residual(f.f, gh) <= 1e-9


def test_split_half_neither_check_certifies_is_internal(monkeypatch):
    # a tolerance no round trip and no minimum meets, and a count that
    # declines: the half is not certified, and the split names its round
    # trip instead of returning it
    monkeypatch.setattr(geometry, "nonneg_tol", lambda g: -1.0)
    monkeypatch.setattr(geometry, "_count_minima",
                        lambda g, minima: None)
    g = random_boundary_modulus(5, 1, 3, 1, np.random.default_rng(131))
    with pytest.raises(SelfCheckFailed, match="round trip .* circle count"):
        split_nonextreme(g, 5)


def test_split_order_48_factors_round_trip():
    # g = 1 + a band-48 term with sum |g_k| = 0.1, drawn as coefficients,
    # not expanded from roots.  Each half's factor starts from lam N +/- D,
    # and N and D expanded by chained products missed g1 and g2 by 1e-4
    n = 48
    rng = np.random.default_rng(48)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c *= 0.1 / np.abs(c).sum()
    cert = split_nonextreme(TrigPoly(n, (1 + 0j,) + tuple(c)), n)
    assert cert.checks.extreme1 and cert.checks.extreme2
    for f, gh in ((cert.f1, cert.g1), (cert.f2, cert.g2)):
        back = trig_from_modulus_squared(f.f)
        diff = [abs(back.coeff(k) - gh.coeff(k)) for k in range(n + 1)]
        assert diff[0] + 2 * sum(diff[1:]) <= 1e-12
    assert cert.checks.factor_residual <= 1e-12


@pytest.mark.parametrize("census", [(0, 4, 0), (1, 2, 1)])
def test_pipeline_analyses_each_g_once(solve_counter, census):
    # the benchmark's sequence of public calls on one g builds one analysis
    # record, and every later call reads it
    n = 4
    g = random_boundary_modulus(n, *census, np.random.default_rng(17))
    cert = is_extreme(g, n)
    assert cert.verdict == (census == (0, 4, 0))
    if cert.verdict:
        x = KernelElement(n, fejer_riesz(g).scaled(0.5))
        assert rigidity_check(g, n, x).kind == RigidityResult.CONSTANT_MULTIPLE
    else:
        split_nonextreme(g, n)
    enumerate_solutions(g, n)
    assert polycore._analysis.cache_info().misses == 1


def test_pipeline_builds_each_order_result_once(monkeypatch, cold_analysis):
    # census (1, 2, 1): inside and circle zeros.  From a cold record, the
    # extreme test, the split (whose own extreme test is a lookup) and the
    # list build the order-n factorization once and expand g's circle part
    # prod (z - w)**(m/2) once, for F and both halves
    n = 4
    g = random_boundary_modulus(n, 1, 2, 1, np.random.default_rng(17))
    built, expanded = [], []
    factorization, expand = factor._factorization, factor._zero_poly
    monkeypatch.setattr(factor, "_factorization",
                        lambda p, inner: built.append(p)
                        or factorization(p, inner))
    monkeypatch.setattr(factor, "_zero_poly",
                        lambda zeros, mults: expanded.append((zeros, mults))
                        or expand(zeros, mults))
    assert not is_extreme(g, n).verdict
    split_nonextreme(g, n)
    assert len(enumerate_solutions(g, n)) == 4
    assert built == [lift(g, n)]
    zeros = polycore._analysis(g).circle_zeros
    assert [m for _, m in zeros] == [2, 2]
    points = np.exp(1j * np.array([t for t, _ in zeros]))
    assert sum(np.array_equal(np.asarray(z), points)
               and np.array_equal(np.asarray(m), [1, 1])
               for z, m in expanded) == 1
    # the shared expansion, its angles and halves are read-only
    for table in polycore._analysis(g).circle_factor:
        with pytest.raises(ValueError):
            table[0] = table[0]


def _certificates(g, n):
    return (repr(is_extreme(g, n)), repr(split_nonextreme(g, n)),
            repr(enumerate_solutions(g, n)))


def test_orders_of_one_record_answer_as_fresh_records(cold_analysis):
    # one record serves two orders, interleaved; each order's certificates
    # are bit for bit those a fresh record gives at that order alone
    g = random_boundary_modulus(4, 1, 2, 1, np.random.default_rng(17))
    n1, n2 = 4, 6
    shared = [(_certificates(g, n1), _certificates(g, n2)) for _ in range(2)]
    fresh = []
    for n in (n1, n2):
        polycore._analysis.cache_clear()
        fresh.append(_certificates(g, n))
    assert shared[0] == shared[1] == tuple(fresh)
    assert len(fresh[1][2]) > len(fresh[0][2])    # z**2 more in the inner


def test_order_errors_are_raised_on_every_call(cold_analysis):
    # only a result that was built is kept: the same error on each call
    high = TrigPoly(1, (1.2, 0.3))                 # mean above 1
    negative = TrigPoly(1, (1.0, 0.6))             # 1 + 1.2 cos < 0
    band = random_boundary_modulus(4, 1, 2, 1, np.random.default_rng(17))
    x = KernelElement(3, Poly((0.5,)))
    record = polycore._analysis(band)
    for _ in range(3):
        with pytest.raises(NotInV):
            is_extreme(high, 1)
        with pytest.raises(NotNonnegative):
            is_extreme(negative, 1)
        with pytest.raises(NotInV):
            is_extreme(band, 3)                    # eb = 4 > n = 3
        with pytest.raises(BandExceeded):
            rigidity_check(band, 3, x)
        with pytest.raises(BandExceeded):
            record.inner(3)
        with pytest.raises(BandExceeded):
            record.factorization(3)
    assert not is_extreme(band, 4).verdict         # a valid order still builds


def test_pipeline_looks_up_a_declined_lift_once(monkeypatch, solve_counter):
    # a g with an inside zero, which the circle count declines, through the
    # census sequence: its lift's roots are looked up once, by the one
    # record, where the nonnegativity check, the circle zeros, the spectral
    # factor and the inner factor each looked them up
    n = 4
    g = random_boundary_modulus(n, 1, 2, 1, np.random.default_rng(17))
    assert polycore.circle_count(g) is None
    lookups = []
    lookup = polycore.roots

    def counted(p):
        lookups.append(p)
        return lookup(p)
    for module in (polycore, factor, geometry):
        monkeypatch.setattr(module, "roots", counted)
    assert not is_extreme(g, n).verdict
    split_nonextreme(g, n)
    enumerate_solutions(g, n)
    assert lookups == [lift(g)]
    assert solve_counter == {2 * n: 1}


def _scaled_declined(n=4):
    """3 g for a g that the circle count declines: max |g_k| = 3 > 1."""
    g = random_boundary_modulus(n, 1, 2, 1, np.random.default_rng(17))
    return trig_scale(g, 3.0)


def test_scaled_modulus_solves_its_lift_once_to_enumerate(solve_counter):
    # the spectral factor and the inner factor read the lift of g / 3 from
    # one record; the raw lift of g is not solved a second time
    g = _scaled_declined()
    assert len(enumerate_solutions(g, 4)) == 4
    assert solve_counter == {8: 1}


def test_scaled_modulus_solves_its_lift_once_to_refuse(solve_counter):
    # the nonnegativity check and the inner factor read one solve
    with pytest.raises(InnerFactorPresent):
        rigidity_check(_scaled_declined(), 4,
                       KernelElement(4, Poly((0.5,))))
    assert solve_counter == {8: 1}


# ---------------------------------------------------------------------------
# decompose_modulus
# ---------------------------------------------------------------------------

def test_decompose_worked_instance():
    dec = decompose_modulus(WORKED)
    assert not dec.rigid
    g = trig_from_modulus_squared(WORKED.f)
    g1 = trig_from_modulus_squared(dec.f1.f)
    g2 = trig_from_modulus_squared(dec.f2.f)
    assert g1.coeff(1) + g2.coeff(1) == pytest.approx(2 * g.coeff(1), abs=1e-10)
    assert g1.mean == pytest.approx(1.0, abs=1e-10)
    assert g2.mean == pytest.approx(1.0, abs=1e-10)
    assert abs(h2_norm(dec.f1) - 1) <= 1e-10
    assert abs(h2_norm(dec.f2) - 1) <= 1e-10


def test_decompose_rigid_full_circle():
    r = 1 / math.sqrt(2)
    dec = decompose_modulus(KernelElement(1, Poly((r, r))))
    assert dec.rigid


def test_decompose_constant_is_not_rigid():
    dec = decompose_modulus(KernelElement(1, Poly((1.0,))))
    assert not dec.rigid
    g1 = trig_from_modulus_squared(dec.f1.f)
    g2 = trig_from_modulus_squared(dec.f2.f)
    assert g1.coeff(1) + g2.coeff(1) == pytest.approx(0.0, abs=1e-10)
    gap = max(abs(g1.coeff(k) - g2.coeff(k)) for k in range(2))
    assert gap > 1e-9


def test_decompose_requires_unit_norm():
    with pytest.raises(NotUnitNorm):
        decompose_modulus(KernelElement(1, Poly((1.0, 1.0))))


def test_decompose_matches_enumeration_census(small_census_suite):
    # rigid exactly when the modulus has a single kernel representative
    # (trivial inner factor); cross-check the two routes
    rng = np.random.default_rng(5)
    for g, n, census in small_census_suite[:40]:
        f = fejer_riesz(g)
        x = KernelElement(n, f)
        dec = decompose_modulus(x)
        sols = enumerate_solutions(g, n)
        comp_inner_trivial = True
        y = companion(x)
        if not y.f.is_null:
            from hkl.factor import inner_outer
            comp_inner_trivial = inner_outer(y.f).inner.is_trivial
        assert dec.rigid == (len(sols) == 1 and comp_inner_trivial)


def test_decompose_solves_one_lift(solve_counter):
    # the rigidity test and the split read the same normalized g, so the
    # degree-2n lift is solved once even when the raw mean is not 1.0
    n = 4
    x = random_unit_element(n, (1, 2, 1), 0)
    assert trig_from_modulus_squared(x.f).mean != 1.0
    dec = decompose_modulus(x)
    assert not dec.rigid
    assert solve_counter[2 * n] == 1


@pytest.mark.parametrize("census", [(1, 2, 1), (0, 4, 0)])
def test_decompose_analyses_the_lift_once(monkeypatch, cold_analysis, census):
    # the split's own extreme test decides rigidity: from a cold record, one
    # build of the lift's inner factor and of the factorization, rigid or not
    builds = collections.Counter()
    for name in ("_build_inner", "_build_factorization"):
        build = getattr(polycore._Analysis, name)
        monkeypatch.setattr(polycore._Analysis, name,
                            lambda a, n, name=name, build=build:
                            builds.update([name]) or build(a, n))
    dec = decompose_modulus(random_unit_element(4, census, 0))
    assert dec.rigid == (census == (0, 4, 0))
    assert builds == {"_build_inner": 1, "_build_factorization": 1}


def test_enumerate_and_rigidity_build_no_outer_part(monkeypatch,
                                                   small_census_suite):
    # both read only the lift's inner factor, so neither builds its outer
    # part
    def refuse(*args):
        raise AssertionError("outer part built")
    monkeypatch.setattr(factor, "inner_outer", refuse)
    monkeypatch.setattr(factor, "_factorization", refuse)
    for g, n, _ in small_census_suite[:30]:
        enumerate_solutions(g, n)
        try:
            rigidity_check(g, n, KernelElement(n, fejer_riesz(g)))
        except InnerFactorPresent:
            pass


def _three_construction_row(row):
    # reference: a listed element as built by Poly, Poly.scaled and a
    # third Poly with the lowest coefficient set to its modulus
    f = Poly(tuple(row.tolist()))
    for k, c in enumerate(f.coeffs):
        if c != 0:
            rotated = f.scaled(c.conjugate() / abs(c)).coeffs
            return Poly(rotated[:k] + (complex(abs(rotated[k])),)
                        + rotated[k + 1:])
    return f


def test_listed_elements_match_the_three_construction_rows(small_census_suite):
    # one Poly per row, bit for bit the elements the three constructions
    # gave, including rows with exact zeros below k0 and above deg F + k0
    for g, n, _ in small_census_suite:
        inner = polycore._analysis(g).inner(n)
        rows = factor._inner_multiples(fejer_riesz(g), inner,
                                       factor._divisor_exponents(inner))
        want = [_three_construction_row(row) for row in rows]
        assert repr(enumerate_solutions(g, n)) == repr(
            [KernelElement(n, f) for f in want])
    assert _three_construction_row(np.zeros(3, dtype=complex)) == Poly()


def _all_on_circle(small_census_suite):
    """(g, n) of every extreme and deficit member of the census suite, and
    of a jittered extreme point at each order of the ladder."""
    members = [(g, n) for g, n, (inside, _, outside) in small_census_suite
               if inside == outside == 0]
    return members + [(jittered_extreme_point(n, n)[1], n) for n in LADDER]


def test_zeros_on_the_circle_need_no_root_solve(monkeypatch, solve_counter,
                                                small_census_suite):
    # the circle count decides every g whose zeros all lie on the circle:
    # each call answers with no root solve, from a cold memo
    def refuse(c):
        raise AssertionError(f"root solve of degree {len(c) - 1}")
    monkeypatch.setattr(polycore, "_solve", refuse)
    members = _all_on_circle(small_census_suite)
    assert sum(g.effective_band < n for g, n in members) >= 5
    for g, n in members:
        deficit = n - g.effective_band
        cert = is_extreme(g, n)
        assert cert.verdict is (deficit == 0)
        assert cert.inner_factor.m0 == deficit and not cert.inner_factor.zeros
        rec = spectral_factor(g)
        assert rec.factor.degree == g.effective_band
        assert len(enumerate_solutions(g, n)) == deficit + 1
        x = KernelElement(n, rec.factor.scaled(0.5 - 1.5j))
        if deficit:
            with pytest.raises(InnerFactorPresent):
                rigidity_check(g, n, x)
            split = split_nonextreme(g, n)
            assert split.checks.extreme1 and split.checks.extreme2
        else:
            res = rigidity_check(g, n, x)
            assert res.kind == RigidityResult.CONSTANT_MULTIPLE
            assert abs(res.constant - (0.5 - 1.5j)) <= 1e-9


# ---------------------------------------------------------------------------
# enumerate_solutions
# ---------------------------------------------------------------------------

def test_enumerate_unique_for_extreme():
    sols = enumerate_solutions(TrigPoly(1, (1.0, 0.5)), 1)
    assert len(sols) == 1
    r = 1 / math.sqrt(2)
    assert max(abs(sols[0].f.coeff(k) - Poly((r, r)).coeff(k))
               for k in range(2)) < 1e-10


def test_enumerate_two_solutions():
    sols = enumerate_solutions(TrigPoly(1, (1.25, -0.5)), 1)
    assert len(sols) == 2
    mods = {tuple(np.round([abs(c) for c in s.f.coeffs], 9)) for s in sols}
    assert mods == {(1.0, 0.5), (0.5, 1.0)}


def test_enumerate_four_solutions_with_shift():
    f = Poly((0, -0.5, 1))   # z(z - 1/2): origin power and a disk zero
    g = trig_from_modulus_squared(f)
    sols = enumerate_solutions(g, 2)
    assert len(sols) == 4


def test_enumerate_every_solution_has_the_modulus(small_census_suite):
    zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for g, n, _ in small_census_suite[:30]:
        sols = enumerate_solutions(g, n)
        gv = g.values(np.angle(zeta))
        outers = 0
        seen = set()
        for s in sols:
            assert np.abs(np.abs(s.f(zeta)) ** 2 - gv).max() <= 1e-9
            if all(abs(r.location) >= 1 - 1e-9 for r in roots(s.f)) \
                    if s.f.degree > 0 else True:
                outers += 1
            seen.add(tuple(np.round([c for c in s.f.coeffs], 9).tolist()))
        assert outers == 1          # exactly one outer representative
        assert len(seen) == len(sols)   # pairwise distinct after phase fix


def test_enumerate_count_formula(small_census_suite):
    from hkl.factor import inner_outer
    for g, n, _ in small_census_suite[:30]:
        inner = inner_outer(lift(g, n)).inner
        expected = (inner.m0 + 1)
        for _, m in inner.zeros:
            expected *= m + 1
        assert len(enumerate_solutions(g, n)) == expected


# instance #175 of the census set of seed 202 (bench/workloads.py
# census_inputs(202, 240)), n = 12, census (3, 9, 0): multiplying the
# spectral factor by a divisor with the given zeros, not the mirrors of the
# factor's own refined roots, left solutions 4.6e-9 off the modulus
CENSUS_202_175 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.4278fb37f4e5ap-1", "-0x1.6b4fff9e863fcp-1"),
    ("-0x1.675e16cbb49a3p-4", "0x1.a0452d4b5b762p-1"),
    ("0x1.0cbbce695c127p-1", "-0x1.8b06c84ee31c0p-2"),
    ("-0x1.dfd06e0828580p-2", "-0x1.ac73f295d8424p-4"),
    ("0x1.1afdd30de9fd7p-3", "0x1.261012cdbe534p-2"),
    ("0x1.6d14b12fffb09p-4", "-0x1.4748ed4b5ecdfp-3"),
    ("-0x1.658e0fdf14965p-4", "0x1.53eb82baa3a1dp-8"),
    ("0x1.33e4186a4b923p-6", "0x1.c6f0372ca092ep-6"),
    ("0x1.1fcb9cc459c67p-8", "-0x1.21d9fb0166dafp-7"),
    ("-0x1.128aa6581f0f1p-9", "0x1.801ffc6b61d10p-14"),
    ("0x1.37b97a7c6fe41p-13", "0x1.0047134dcc413p-12"),
    ("0x1.38cb1d129c156p-17", "-0x1.1420c56e03b40p-16")))


def test_enumerate_census_202_175_keeps_the_modulus():
    sols = enumerate_solutions(CENSUS_202_175, 12)
    assert len(sols) == 8
    for x in sols:
        assert _grid_residual(x.f, CENSUS_202_175) <= 1e-9


def test_enumerate_repeated_inside_zero_never_blames_the_caller():
    # f = (z - a)**m times 1-3 outside zeros, g = |f|^2 at n = 8: every
    # member lists (9 - deg f)(m + 1) 2**k solutions, each within 1e-9 of g
    # on the circle, or raises SelfCheckFailed when the lift's m-fold zero
    # comes back scattered; a product of the library's own F and J that is
    # no polynomial is never the caller's NotDivisible
    zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for f, m, k in repeated_inside_zero_family(300, 18):
        g = trig_from_modulus_squared(f)
        try:
            sols = enumerate_solutions(g, 8)
        except SelfCheckFailed:
            continue
        assert len(sols) == (9 - f.degree) * (m + 1) * 2 ** k
        gv = g.values(np.angle(zeta))
        for x in sols:
            assert np.abs(np.abs(x.f(zeta)) ** 2 - gv).max() <= 1e-9


def test_enumerate_band_exceeded():
    with pytest.raises(BandExceeded):
        enumerate_solutions(TrigPoly(2, (1.0, 0.0, 0.5)), 1)


@pytest.mark.parametrize("n", [48, 64])
def test_enumerate_jittered_extreme_point_has_one_solution(n):
    # every zero of f on the circle: the lift is outer and f is the only
    # solution up to phase
    f, g = jittered_extreme_point(n, n)
    sols = enumerate_solutions(g, n)
    assert len(sols) == 1
    assert np.abs(sols[0].f.as_array() - f.as_array()).max() <= 1e-12


# ---------------------------------------------------------------------------
# rigidity_check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [48, 64])
def test_rigidity_recovers_the_constant_at_jittered_extreme_points(n):
    f, g = jittered_extreme_point(n, n)
    res = rigidity_check(g, n, KernelElement(n, f.scaled(0.6 - 0.8j)))
    assert res.kind == RigidityResult.CONSTANT_MULTIPLE
    assert res.constant == pytest.approx(0.6 - 0.8j, abs=1e-12)


def test_rigidity_constant_multiple():
    g = TrigPoly(1, (1.0, 0.5))
    base = fejer_riesz(g)
    res = rigidity_check(g, 1, KernelElement(1, base.scaled(0.25 - 1.5j)))
    assert res.kind == RigidityResult.CONSTANT_MULTIPLE
    assert res.constant == pytest.approx(0.25 - 1.5j, abs=1e-9)


def test_rigidity_not_dominated():
    g = TrigPoly(1, (1.0, 0.5))
    r = 1 / math.sqrt(2)
    res = rigidity_check(g, 1, KernelElement(1, Poly((r, -r))))
    assert res.kind == RigidityResult.NOT_DOMINATED
    assert res.witness == pytest.approx(-1.0)


def test_rigidity_counterexample_raises(monkeypatch):
    # with g's circle zero moved from -1 to 1, where x vanishes, once its
    # factor is built, x looks dominated but is no multiple of the factor:
    # an internal bug, raised rather than returned
    g = TrigPoly(1, (1.0, 0.5))
    fejer_riesz(g)
    monkeypatch.setattr(polycore._analysis(g), "circle_zeros", ((0.0, 2),))
    r = 1 / math.sqrt(2)
    with pytest.raises(SelfCheckFailed, match="not a multiple"):
        rigidity_check(g, 1, KernelElement(1, Poly((r, -r))))


# census instance 158 of bench/workloads.census_inputs(202, 240), n = 9,
# extreme: a factor root lies 1.09e-6 from g's refined circle zero angle,
# just past ROOT_MATCH_TOL
CENSUS_202_158 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.6d80328065279p-1", "0x1.236fe178ba2ccp-1"),
    ("0x1.3cdd617bafa94p-3", "0x1.5a05c9140bd76p-1"),
    ("-0x1.806ad0bd0339ep-3", "0x1.917f084d1a07fp-2"),
    ("-0x1.98a5e9c666900p-3", "0x1.8f44e2ee3244ep-4"),
    ("-0x1.6a19c2ad254dap-4", "-0x1.3972fdd69f79ep-6"),
    ("-0x1.28f20d3628ebcp-6", "-0x1.65689318d54bbp-6"),
    ("-0x1.be1dca0ba9d73p-13", "-0x1.a6a7aa4e82b0fp-8"),
    ("0x1.22b13a41f6c00p-11", "-0x1.958f66c6a60fbp-11"),
    ("0x1.12b667d8fe6a5p-14", "-0x1.556da91be850fp-16")))


def test_rigidity_constant_multiple_with_a_loose_root():
    c = complex(float.fromhex("0x1.7073f8946065cp+0"),
                float.fromhex("-0x1.1806efce0f354p-3"))
    base = fejer_riesz(CENSUS_202_158)
    res = rigidity_check(CENSUS_202_158, 9, KernelElement(9, base.scaled(c)))
    assert res.kind == RigidityResult.CONSTANT_MULTIPLE
    assert res.constant == pytest.approx(c, abs=1e-9)


def test_rigidity_rejects_inner_factor():
    with pytest.raises(InnerFactorPresent):
        rigidity_check(TrigPoly(1, (1.0, 0.0)), 1, KernelElement(1, Poly((0, 1))))


def test_rigidity_refuses_an_element_above_the_order(monkeypatch):
    # z**3 F has degree 4 > n = 1: not in the order-1 space, refused as the
    # caller's input before any factor or root solve
    g = TrigPoly(1, (1.0, 0.5))
    x = KernelElement(5, fejer_riesz(g).shifted(3))
    monkeypatch.setattr(geometry, "fejer_riesz", None)
    monkeypatch.setattr(geometry, "_analysis", None)
    with pytest.raises(BandExceeded, match="degree 4 exceeds model order 1"):
        rigidity_check(g, 1, x)


def test_rigidity_refuses_a_modulus_above_the_order():
    # g of band 2 has no lift at order 1: refused as the caller's input by
    # the order-n inner factor, as lift(g, 1) refuses it
    g = TrigPoly(2, (1.0, 0.0, 0.3))
    with pytest.raises(BandExceeded, match="frequency -2 .* model order 1"):
        rigidity_check(g, 1, KernelElement(1, Poly((0.5,))))


def test_rigidity_zero_element():
    g = TrigPoly(1, (1.0, 0.5))
    res = rigidity_check(g, 1, KernelElement(1, Poly()))
    assert res.kind == RigidityResult.CONSTANT_MULTIPLE
    assert res.constant == 0


def test_rigidity_no_mean_hypothesis():
    # scaling g away from mean 1 must not matter
    g = trig_scale(TrigPoly(1, (1.0, 0.5)), 3.0)
    base = fejer_riesz(g)
    res = rigidity_check(g, 1, KernelElement(1, base.scaled(2j)))
    assert res.kind == RigidityResult.CONSTANT_MULTIPLE
    assert res.constant == pytest.approx(2j, abs=1e-9)


def test_rigidity_random_census():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        g = random_boundary_modulus(n, 0, n, 0, rng)
        base = fejer_riesz(g)
        c = (rng.uniform(0.3, 2.0) *
             np.exp(2j * np.pi * rng.uniform()))
        res = rigidity_check(g, n, KernelElement(n, base.scaled(c)))
        assert res.kind == RigidityResult.CONSTANT_MULTIPLE
        assert abs(res.constant - c) <= 1e-9


# ---------------------------------------------------------------------------
# baseline_split
# ---------------------------------------------------------------------------

def test_baseline_constant():
    g1, g2 = baseline_split(TrigPoly(0, (1.0,)))
    assert g1.coeff(1) == pytest.approx(0.25)
    assert g2.coeff(1) == pytest.approx(-0.25)
    assert g1.mean == pytest.approx(1.0) and g2.mean == pytest.approx(1.0)


def test_baseline_orthogonality_choice():
    # first coefficient 1/2: lambda = i, tau = -sin(theta)/2
    g = TrigPoly(1, (1.0, 0.5))
    g1, g2 = baseline_split(g)
    theta = np.linspace(0, 2 * np.pi, 1 << 12, endpoint=False)
    tau = -np.sin(theta) / 2
    ref = g.values(theta) * (1 + tau)
    assert np.abs(g1.values(theta) - ref).max() <= 1e-12
    assert np.mean(g.values(theta) * tau) == pytest.approx(0.0, abs=1e-12)


def test_baseline_midpoint_and_band(small_census_suite):
    for g, n, _ in small_census_suite[:15]:
        g1, g2 = baseline_split(g)
        assert g1.n == g.n + 1 and g2.n == g.n + 1
        for k in range(g.n + 2):
            assert g1.coeff(k) + g2.coeff(k) == pytest.approx(
                2 * g.coeff(k), abs=1e-12)
        assert nonneg_check(g1).nonnegative
        assert nonneg_check(g2).nonnegative
        assert g1.mean == pytest.approx(1.0, abs=1e-12)


def test_baseline_requires_normalization():
    with pytest.raises(NotOnBoundary, match="mean 0.5"):
        baseline_split(TrigPoly(1, (0.5, 0.2)))
    with pytest.raises(NullInput):
        baseline_split(TrigPoly(0, (0j,)))


@pytest.mark.parametrize("call", [
    lambda g: enumerate_solutions(g, g.n),
    lambda g: rigidity_check(g, g.n, KernelElement(g.n, Poly((1.0,)))),
    baseline_split,
], ids=["enumerate_solutions", "rigidity_check", "baseline_split"])
def test_not_nonnegative_names_its_point(call):
    # the error names the smallest value found and its angle, a point
    # where g < -tol
    rng = np.random.default_rng(2135)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = TrigPoly(4, (0.1 + 0j,) + tuple(0.5 * c / np.abs(c).sum()))
    cert = nonneg_check(g)
    assert cert.min_value < -cert.tol
    with pytest.raises(NotNonnegative) as err:
        call(g)
    assert f"min value {cert.min_value:.3e}" in str(err.value)
    assert f"theta={cert.argmin_theta:.6f}" in str(err.value)


# ---------------------------------------------------------------------------
# perturbation search (uniqueness at extreme points)
# ---------------------------------------------------------------------------

def test_search_finds_nothing_at_extreme_points():
    rng = np.random.default_rng(77)
    for i in range(8):
        n = int(rng.integers(1, 9))
        g = random_boundary_modulus(n, 0, n, 0, rng)
        res = perturbation_search(g, n, trials=2000, seed=i)
        assert res.max_norm <= 1e-6


def test_search_has_teeth_on_non_extreme_points():
    # a strictly positive non-extreme boundary function admits large
    # perturbations, and the search must find them
    rng = np.random.default_rng(78)
    g = random_boundary_modulus(2, 1, 0, 0, rng)
    assert not is_extreme(g, 2).verdict
    res = perturbation_search(g, 2, trials=500, seed=0)
    assert res.max_norm > 1e-3


def test_search_at_order_zero():
    g = TrigPoly(0, (1.0,))
    assert is_extreme(g, 0).verdict
    res = perturbation_search(g, 0, trials=100)
    assert res.max_norm == 0.0 and res.trials == 100


def test_search_rejects_negative_budgets():
    g = TrigPoly(1, (1.0, 0.5))
    with pytest.raises(ValueError):
        perturbation_search(g, 1, trials=-5)


def _two_stage_search(g, n, *, trials=10_000, seed=0, grid_size=4096):
    # reference: every candidate goes through the cheap set, then the full
    # grid; also reports whether g is exactly 0 on a cheap-set point
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    zero_angles = [float(np.angle(r.location))
                   for r in roots(lift(g, n)).on_circle]
    ladder = np.array([10.0 ** (-k) for k in range(3, 10)])
    extra = [np.array(zero_angles)] if zero_angles else []
    for t0 in zero_angles:
        extra.append(t0 + ladder)
        extra.append(t0 - ladder)
    refined = np.concatenate(extra) if extra else np.empty(0)
    points = np.concatenate([theta, refined])
    gv = np.maximum(g.values(points), 0.0)
    with np.errstate(divide="ignore"):
        inv_gv = np.where(gv > 0, 1.0 / gv, np.inf)
    basis = np.exp(1j * np.outer(np.arange(1, n + 1), points))
    cheap_idx = (np.argsort(gv)[:64] if len(refined) == 0 else
                 np.concatenate([np.arange(grid_size, len(points)),
                                 np.argsort(gv[:grid_size])[:64]]))
    basis_cheap = basis[:, cheap_idx]
    inv_cheap = inv_gv[cheap_idx]
    best_norm = 0.0
    best_dir = np.zeros(n, dtype=complex)

    def binding(ah, inv):
        with np.errstate(invalid="ignore"):
            prod = ah * inv
        return np.where(ah == 0.0, 0.0, prod)

    def consider(coeff_block):
        nonlocal best_norm, best_dir
        ah_cheap = np.abs(2.0 * (coeff_block @ basis_cheap).real)
        top_cheap = binding(ah_cheap, inv_cheap[None, :]).max(axis=1)
        with np.errstate(divide="ignore"):
            t_bound = np.where(top_cheap > 0, 1.0 / top_cheap, np.inf)
        cap = t_bound * 2.0 * np.abs(coeff_block).sum(axis=1)
        for i in np.nonzero(cap > best_norm)[0]:
            ah = np.abs(2.0 * (coeff_block[i] @ basis).real)
            top = binding(ah, inv_gv).max()
            nrm = ah.max() / top if top > 0 and np.isfinite(top) else 0.0
            if nrm > best_norm:
                best_norm = nrm
                best_dir = coeff_block[i]

    done = 0
    while done < trials:
        b = min(2000, trials - done)
        consider(rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n)))
        done += b
    for _ in range(40):
        base_dir = best_dir / max(np.abs(best_dir).max(), 1e-300)
        consider(base_dir[None, :] + 0.3 * (
            rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))))
    res = PerturbationSearch(max_norm=best_norm, trials=trials,
                             grid_size=grid_size, n_constraints=len(points))
    return res, bool(np.isinf(inv_cheap).any())


def _sampled(g, n, **kw):
    # the sampled route alone, with perturbation_search's defaults
    kw = dict(dict(trials=10_000, seed=0, grid_size=4096), **kw)
    return _sampled_search(g, n, roots(lift(g, n)).on_circle, **kw)


def _assert_same_search(g, n, **kw):
    new = _sampled(g, n, **kw)
    ref, has_zero = _two_stage_search(g, n, **kw)
    assert new.max_norm.hex() == ref.max_norm.hex()
    assert new == ref
    return ref, has_zero


def test_search_bit_identical_to_two_stage_reference():
    rng = np.random.default_rng(79)
    zero_columns = []
    for i, n in enumerate(list(range(1, 9)) * 2):
        g = random_boundary_modulus(n, 0, n, 0, rng)
        _, has_zero = _assert_same_search(g, n, trials=2000, seed=i)
        zero_columns.append(has_zero)
    assert any(zero_columns) and not all(zero_columns)

    g = random_boundary_modulus(3, 0, 3, 0, rng)
    _assert_same_search(g, 3, trials=2500, seed=1)
    _assert_same_search(g, 3, trials=2000, seed=2)

    g = random_boundary_modulus(2, 1, 0, 0, rng)
    ref, has_zero = _assert_same_search(g, 2, trials=500, seed=0)
    assert not has_zero and ref.max_norm > 1e-3


# ---------------------------------------------------------------------------
# the two routes of the perturbation search
# ---------------------------------------------------------------------------

def test_circle_count_agrees_with_sampled_oracle():
    # the first 20 points of acceptance criterion 5, searched both ways
    for i, (g, n) in enumerate(_extreme_points_555()):
        res = perturbation_search(g, n, trials=10_000, seed=i)
        assert res.route == PerturbationSearch.CIRCLE_COUNT
        assert res.max_norm == 0.0
        assert _sampled(g, n, seed=i).max_norm <= 1e-6


def test_circle_count_does_not_decide_off_extreme_points():
    rng = np.random.default_rng(78)
    g = random_boundary_modulus(2, 1, 0, 0, rng)
    assert (perturbation_search(g, 2, trials=500).route
            == PerturbationSearch.SAMPLED)
    # cos(theta): two simple circle zeros add up to 2n, but g changes sign;
    # its one minimum is -1, so the count declines and g is outside V
    with pytest.raises(NotNonnegative):
        perturbation_search(TrigPoly(1, (0.0, 0.5)), 1, trials=0)
    # inside, outside and deficit census moduli: the circle count is short
    rng = np.random.default_rng(80)
    for n, census in [(3, (1, 2, 0)), (4, (2, 2, 0)), (3, (0, 2, 1)),
                      (5, (0, 3, 2)), (4, (0, 2, 0)), (6, (0, 0, 0))]:
        g = random_boundary_modulus(n, *census, rng)
        assert not is_extreme(g, n).verdict
        res = perturbation_search(g, n, trials=0)
        assert res.route == PerturbationSearch.SAMPLED


# gridsearch hold-out instance 212 (bench/run.py --pool-seed 5926), n = 5:
# an extreme point whose double circle zero near 0.4541-0.8910i came back
# from the root engine as a reflected pair at |z| = 1 -/+ 3e-7
HOLDOUT_212 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.2d22bd18627e7p-2", "-0x1.a00e739d6d680p-1"),
    ("-0x1.c5b29ed0626a0p-2", "-0x1.a7896c8d7f73ep-2"),
    ("-0x1.3cc67586c38afp-2", "0x1.62a4bdaa03d9ep-3"),
    ("0x1.aee0efeae39b8p-5", "0x1.01c97c4da8162p-3"),
    ("0x1.61fda037129e8p-6", "-0x1.4273ccec1b48dp-7")))
HOLDOUT_212_ANGLE = -1.099440

# cli hold-out instance 104 (bench/run.py --workload cli --pool-seed 2135),
# model order 8, not extreme, 4 solutions: its double circle zero near
# 0.3736-0.9276i came back as a reflected pair at |z| = 1 -/+ 5e-8, which
# counted a spurious inner zero and gave 8 solutions
CLI_104 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.75d969d1c7f50p-1", "-0x1.08558e5300038p-1"),
    ("0x1.b3f960e961eb8p-3", "0x1.36c82f55ed2a7p-1"),
    ("0x1.950edf220f4d2p-4", "-0x1.6536f6590bdd8p-2"),
    ("-0x1.c4e1bcc2e0788p-4", "0x1.825b2e67fd0cbp-4"),
    ("0x1.fc12c22631304p-6", "-0x1.b1182832c0134p-9")))
CLI_104_ANGLE = -1.187873


def test_holdout_212_is_decided_by_circle_count():
    assert sum(r.multiplicity
               for r in roots(lift(HOLDOUT_212, 5)).on_circle) == 10
    assert is_extreme(HOLDOUT_212, 5).verdict
    res = perturbation_search(HOLDOUT_212, 5, seed=212)
    assert res.route == PerturbationSearch.CIRCLE_COUNT
    assert res.max_norm == 0.0


def test_holdout_104_has_four_solutions():
    # the generator's oracle: not extreme, 4 solutions
    assert not is_extreme(CLI_104, 8).verdict
    assert len(enumerate_solutions(CLI_104, 8)) == 4


# gridsearch pinned instance 23 (bench/run.py, pool seed 3141), n = 4: an
# extreme point whose double circle zero at angle 0.239225 came back from
# the root engine as two simple circle roots 1.3e-7 apart
GRID_23 = trig_from_hex((
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.aa8664dec32eep-4", "0x1.784c53ddfa165p-1"),
    ("-0x1.0bb90cb7247b9p-1", "0x1.fb0785c51aaa8p-6"),
    ("0x1.2b7316e715928p-4", "-0x1.547fa013fb459p-2"),
    ("0x1.e235d14816d69p-5", "0x1.0e2c62417f899p-4")))
GRID_23_ANGLE = 0.239225


def test_split_double_zero_is_counted_on_circle():
    near = [r for r in roots(lift(GRID_23)).on_circle
            if abs(np.angle(r.location) - GRID_23_ANGLE) <= 1e-6]
    assert [r.multiplicity for r in near] == [2]
    res = perturbation_search(GRID_23, 4, trials=0)
    assert res.route == PerturbationSearch.CIRCLE_COUNT
    assert res.max_norm == 0.0


@pytest.mark.parametrize("g, angle", [(HOLDOUT_212, HOLDOUT_212_ANGLE),
                                      (CLI_104, CLI_104_ANGLE),
                                      (GRID_23, GRID_23_ANGLE)])
def test_merged_circle_zero_is_a_zero_of_g_prime_in_high_precision(g, angle):
    # the merge is right for the rounded input itself: in 50 digits, g'
    # has a zero within 1e-12 of the merged root's angle, where g is zero
    # to nonneg_tol(g)
    mpmath = pytest.importorskip("mpmath")
    near = [r for r in roots(lift(g)).on_circle
            if abs(np.angle(r.location) - angle) <= 1e-6]
    assert [r.multiplicity for r in near] == [2]
    t0 = float(np.angle(near[0].location))
    cs = [mpmath.mpc(c.real, c.imag) for c in g.coeffs]

    def terms(t, power):
        return [(1j * k) ** power * cs[k] * mpmath.expj(k * t)
                for k in range(1, g.n + 1)]

    with mpmath.workdps(50):
        t = mpmath.findroot(lambda t: 2 * mpmath.re(mpmath.fsum(terms(t, 1))),
                            mpmath.mpf(t0))
        value = cs[0].real + 2 * mpmath.re(mpmath.fsum(terms(t, 0)))
        assert abs(t - t0) <= 1e-12
        assert abs(value) <= nonneg_tol(g)


def test_rigidity_reads_split_double_zero_as_one():
    # the spectral factor with its zero at the double circle zero moved
    # inside: not dominated by sqrt(g) there, which the split roots hid
    base = fejer_riesz(GRID_23).as_array()
    w = min(roots(Poly(tuple(base))).on_circle,
            key=lambda r: abs(r.location - np.exp(1j * GRID_23_ANGLE))).location
    quo = np.polynomial.polynomial.polydiv(base, [-w, 1.0])[0]
    x = KernelElement(4, Poly(tuple(np.convolve(quo, [-0.5, 1.0]))))
    res = rigidity_check(GRID_23, 4, x)
    assert res.kind == RigidityResult.NOT_DOMINATED
    assert abs(res.witness - np.exp(1j * GRID_23_ANGLE)) <= 1e-6


def test_circle_count_certificate_ignores_seed_and_budget(monkeypatch):
    rng = np.random.default_rng(81)
    g = random_boundary_modulus(4, 0, 4, 0, rng)
    first = perturbation_search(g, 4, trials=10_000, seed=0)
    assert first.route == PerturbationSearch.CIRCLE_COUNT

    # the count route draws no random numbers, so nothing it returns can
    # depend on the seed, the budget or the BLAS thread count
    def no_rng(*args, **kwargs):
        raise AssertionError("the circle count drew random numbers")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for trials, seed in [(0, 0), (17, 3), (50_000, 99)]:
        res = perturbation_search(g, 4, trials=trials, seed=seed)
        assert res.trials == trials
        assert res.max_norm.hex() == first.max_norm.hex()
        assert dataclasses.replace(res, trials=first.trials) == first


def test_search_input_checks():
    # the zero function is refused before either route: at n = 0 the count
    # would have no minimum to look at
    for g, n in [(TrigPoly(0, (0.0,)), 0), (TrigPoly(2, (0.0, 0j, 0j)), 2)]:
        with pytest.raises(NullInput):
            perturbation_search(g, n, trials=0)
    # a negative constant has no minimum to count; the sampled route
    # refuses it as it refuses cos(theta)
    with pytest.raises(NotNonnegative):
        perturbation_search(TrigPoly(0, (-1.0,)), 0, trials=0)


def _extreme_points_555():
    # the first 20 points of acceptance criterion 5
    rng = np.random.default_rng(555)
    out = []
    for _ in range(20):
        n = int(rng.integers(1, 9))
        out.append((random_boundary_modulus(n, 0, n, 0, rng), n))
    return out


def test_circle_count_solves_no_polynomial(monkeypatch):
    cases = [(HOLDOUT_212, 5), (GRID_23, 4)] + _extreme_points_555()

    def no_solve(c):
        raise AssertionError("the circle count solved a polynomial")
    monkeypatch.setattr(polycore, "_solve", no_solve)
    for g, n in cases:
        res = perturbation_search(g, n, trials=10_000, seed=0)
        assert res.route == PerturbationSearch.CIRCLE_COUNT
        assert res.max_norm == 0.0


def test_circle_count_never_certifies_a_non_extreme_census_modulus():
    # the generator's oracle: extreme iff all n zeros of f are on the
    # circle.  The count is sufficient, not necessary, yet on these sets it
    # misses no extreme point either
    certified = 0
    for g, n, census in census_suite(240, seed=1812):
        extreme = census == (0, n, 0)
        counted = g.n == n and _circle_count(g) is not None
        assert counted == extreme, (census, n)
        certified += counted
    assert certified > 20


def _uniform_circle_zeros(n, seed):
    """|f|^2 / mean with f's n zeros at uniform random angles; f's
    coefficients come from one FFT of its values prod (zeta - w_j), not
    from expanding the product."""
    rng = np.random.default_rng(seed)
    w = np.exp(2j * np.pi * rng.uniform(size=n))
    zeta = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    f = np.fft.fft(np.prod(zeta[:, None] - w, axis=1)) / (n + 1)
    g = trig_from_modulus_squared(Poly(tuple(f)))
    return trig_scale(g, 1.0 / g.mean)


def test_circle_count_declines_more_brackets_than_minima():
    # at n = 64 rounding, not g, sets the sign of g' over whole arcs where
    # g is below tolerance: the grid shows 75 up-brackets, more than an
    # order-64 trig polynomial has minima, so the count declines and the
    # sampled route answers
    g = _uniform_circle_zeros(64, 89)
    assert circle_minima(g) is None
    res = perturbation_search(g, 64, trials=0)
    assert res.route == PerturbationSearch.SAMPLED


def test_circle_count_falls_back_to_the_lift_at_a_fourfold_zero():
    # |(1 - z)^2|^2 at n = 2 has one minimum, a zero of order 4: the lift's
    # circle roots certify it, as they did before the count read minima
    g = trig_from_modulus_squared(poly_mul(Poly((-1, 1)), Poly((-1, 1))))
    assert len(circle_minima(g)) == 1
    res = perturbation_search(g, 2, trials=10_000, seed=0)
    assert res == PerturbationSearch(
        max_norm=0.0, trials=10_000, grid_size=SEARCH_GRID,
        n_constraints=SEARCH_GRID + 15, route=PerturbationSearch.CIRCLE_COUNT)
    # with three double zeros and one fourfold zero at n = 5 too
    f = poly_mul(poly_mul(Poly((-1, 1)), Poly((-1, 1))),
                 poly_mul(Poly((1, 1)), Poly((1j, 1))))
    g = trig_from_modulus_squared(poly_mul(f, Poly((-1j, 1))))
    assert len(circle_minima(g)) == 4
    assert (perturbation_search(g, 5, trials=0).route
            == PerturbationSearch.CIRCLE_COUNT)


def test_circle_count_scans_the_minima_once(monkeypatch):
    # a point that is not extreme, and the fourfold zero of the test above:
    # the count's rule and its fallback read one scan of g's minima
    calls = [0]
    scan = polycore.circle_minima

    def counted(g):
        calls[0] += 1
        return scan(g)
    for module in (polycore, geometry):
        monkeypatch.setattr(module, "circle_minima", counted)
    f = poly_mul(poly_mul(Poly((-1, 1)), Poly((-1, 1))),
                 poly_mul(Poly((1, 1)), Poly((1j, 1))))
    fourfold = trig_from_modulus_squared(poly_mul(f, Poly((-1j, 1))))
    inside = random_boundary_modulus(5, 1, 3, 1, np.random.default_rng(131))
    for g, decided in ((inside, False), (fourfold, True)):
        polycore._analysis(g).circle_zeros   # the record's own scan
        calls[0] = 0
        assert (_circle_count(g) is not None) == decided
        assert calls[0] == 1


def test_circle_count_reads_the_order_of_g_not_its_stored_band():
    # |(1 + z)(1 - iz)|^2 stored with a zero coefficient at k = 3 is still
    # an extreme point of order 2, and no extreme point of order 3
    g = trig_from_modulus_squared(poly_mul(Poly((1, 1)), Poly((1, -1j))))
    padded = TrigPoly(3, g.coeffs + (0j,))
    assert (perturbation_search(padded, 2, trials=0).route
            == PerturbationSearch.CIRCLE_COUNT)
    assert (perturbation_search(padded, 3, trials=0).route
            == PerturbationSearch.SAMPLED)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_factor_values_at_zero_are_exactly_real_positive(seed):
    # rotating by conj(c)/|c| leaves c off the real axis by about 1e-17
    g = random_boundary_modulus(5, 1, 3, 1, np.random.default_rng(seed))
    cert = split_nonextreme(g, 5)
    lows = [next(c for c in x.f.coeffs if c != 0)
            for x in enumerate_solutions(g, 5)]
    values = [fejer_riesz(g).coeffs[0], cert.f1.f.coeffs[0],
              cert.f2.f.coeffs[0], inner_outer(lift(g, 5)).outer.coeffs[0]]
    for c in values + lows:
        assert c.imag == 0.0 and c.real > 0
