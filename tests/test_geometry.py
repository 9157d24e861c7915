import dataclasses
import math

import numpy as np
import pytest

from conftest import census_suite

from hkl import geometry
from hkl.errors import (AlreadyExtreme, BandExceeded, InnerFactorPresent,
                        NotInV, NotNormalized, NotOnBoundary, NotUnitNorm,
                        NullInput)
from hkl.factor import blaschke_eval, fejer_riesz, inner_outer
from hkl.gen import random_boundary_modulus, random_kernel_element
from hkl.geometry import (PerturbationSearch, RigidityResult, _sampled_search,
                          baseline_split, decompose_modulus,
                          enumerate_solutions, is_extreme,
                          perturbation_search, rigidity_check,
                          split_nonextreme)
from hkl.kernel import KernelElement, companion, h2_norm
from hkl.polycore import (Poly, TrigPoly, lift, nonneg_check, roots,
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
    with pytest.raises(NotInV):
        is_extreme(TrigPoly(1, (0.0, 0.5)), 1)


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


def test_split_sign_swap_symmetry():
    g = modulus_of(WORKED)
    plus = split_nonextreme(g, 1, rotation_sign=+1)
    minus = split_nonextreme(g, 1, rotation_sign=-1)
    for k in range(2):
        assert minus.g1.coeff(k) == pytest.approx(plus.g2.coeff(k), abs=1e-12)
        assert minus.g2.coeff(k) == pytest.approx(plus.g1.coeff(k), abs=1e-12)


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


def test_split_ill_conditioned_inside_zero():
    # instance #360 of the 711 census suite (n = 12, census (3, 9, 0)): the
    # inside zero with |a| = 0.753 is ill-conditioned, so the outer part and
    # lift * u0 must come from the same deflation to agree
    g, n, census = census_suite(361, seed=711, max_n=12)[360]
    assert (n, census) == (12, (3, 9, 0))
    cert = split_nonextreme(g, n)
    assert cert.checks.midpoint_residual <= 1e-10
    assert abs(cert.checks.norm1 - 1) <= 1e-10
    assert abs(cert.checks.norm2 - 1) <= 1e-10
    assert cert.checks.extreme1 and cert.checks.extreme2


# census hold-out instance 131 (bench/run.py --pool-seed 6586), n = 10,
# census (0, 9, 1): solving a split half's lift returned two double circle
# zeros 6e-4 apart as a triple zero and a simple zero off the circle
HOLDOUT_131 = TrigPoly(10, tuple(complex(float.fromhex(re), float.fromhex(im))
                                 for re, im in (
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
    ("0x1.6f4d940118f5ep-7", "0x1.1f25dd10ebc8bp-6"))))


def _grid_residual(f, g, size=4096):
    zeta = np.exp(2j * np.pi * np.arange(size) / size)
    return float(np.abs(np.abs(f(zeta)) ** 2 - g.grid_values(size)).max())


def test_split_holdout_131_halves_are_extreme():
    cert = split_nonextreme(HOLDOUT_131, 10)
    assert cert.checks.extreme1 and cert.checks.extreme2
    assert cert.checks.midpoint_residual <= 1e-10
    for f, gh in ((cert.f1, cert.g1), (cert.f2, cert.g2)):
        assert _grid_residual(f.f, gh) <= 1e-9


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
    # the halves' factors and verdicts come from g's circle zeros and the
    # roots of lam N +/- D; they must agree with solving the halves' lifts
    for g, n in _non_extreme_census(6586):
        assert not is_extreme(g, n).verdict
        solve_counter.clear()
        cert = split_nonextreme(g, n)
        # the only new solves are of lam N +/- D, of degree deg u <= n
        assert set(solve_counter) <= {cert.u.degree}
        assert sum(solve_counter.values()) <= 2
        for f, gh, ext in ((cert.f1, cert.g1, cert.checks.extreme1),
                           (cert.f2, cert.g2, cert.checks.extreme2)):
            assert ext == is_extreme(gh, n).verdict
            want = fejer_riesz(gh).as_array()
            got = f.f.as_array()
            assert len(got) == len(want)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_split_halves_fall_back_to_solving(monkeypatch, solve_counter):
    # a claim the circle count rejects sends each half through its own lift
    monkeypatch.setattr(geometry, "_circle_count_decides",
                        lambda g, n, zeros: None)
    g = random_boundary_modulus(5, 1, 3, 1, np.random.default_rng(131))
    cert = split_nonextreme(g, 5)
    assert solve_counter[10] == 3   # the lifts of g and of both halves
    assert cert.checks.extreme1 and cert.checks.extreme2
    assert cert.checks.midpoint_residual <= 1e-10
    for f, gh in ((cert.f1, cert.g1), (cert.f2, cert.g2)):
        assert f.f == fejer_riesz(gh)
        assert _grid_residual(f.f, gh) <= 1e-9


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


def test_enumerate_band_exceeded():
    with pytest.raises(BandExceeded):
        enumerate_solutions(TrigPoly(2, (1.0, 0.0, 0.5)), 1)


# ---------------------------------------------------------------------------
# rigidity_check
# ---------------------------------------------------------------------------

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


def test_rigidity_rejects_inner_factor():
    with pytest.raises(InnerFactorPresent):
        rigidity_check(TrigPoly(1, (1.0, 0.0)), 1, KernelElement(1, Poly((0, 1))))


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
    with pytest.raises(NotNormalized):
        baseline_split(TrigPoly(1, (0.5, 0.2)))
    with pytest.raises(NullInput):
        baseline_split(TrigPoly(0, (0j,)))


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
    with pytest.raises(ValueError):
        perturbation_search(g, 1, ascent_rounds=-1)


def _two_stage_search(g, n, *, trials=10_000, seed=0, grid_size=4096,
                      ascent_rounds=40):
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
    for _ in range(ascent_rounds):
        base_dir = best_dir / max(np.abs(best_dir).max(), 1e-300)
        consider(base_dir[None, :] + 0.3 * (
            rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))))
    res = PerturbationSearch(max_norm=best_norm, trials=trials,
                             grid_size=grid_size, n_constraints=len(points))
    return res, bool(np.isinf(inv_cheap).any())


def _sampled(g, n, **kw):
    # the sampled route alone, with perturbation_search's defaults
    kw = dict(dict(trials=10_000, seed=0, grid_size=4096, ascent_rounds=40),
              **kw)
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
    _assert_same_search(g, 3, trials=2000, seed=2, ascent_rounds=0)

    g = random_boundary_modulus(2, 1, 0, 0, rng)
    ref, has_zero = _assert_same_search(g, 2, trials=500, seed=0)
    assert not has_zero and ref.max_norm > 1e-3


# ---------------------------------------------------------------------------
# the two routes of the perturbation search
# ---------------------------------------------------------------------------

def test_circle_count_agrees_with_sampled_oracle():
    # the first 20 points of acceptance criterion 5, searched both ways
    rng = np.random.default_rng(555)
    for i in range(20):
        n = int(rng.integers(1, 9))
        g = random_boundary_modulus(n, 0, n, 0, rng)
        res = perturbation_search(g, n, trials=10_000, seed=i)
        assert res.route == PerturbationSearch.CIRCLE_COUNT
        assert res.max_norm == 0.0
        assert _sampled(g, n, seed=i).max_norm <= 1e-6


def test_circle_count_does_not_decide_off_extreme_points():
    rng = np.random.default_rng(78)
    g = random_boundary_modulus(2, 1, 0, 0, rng)
    assert (perturbation_search(g, 2, trials=500).route
            == PerturbationSearch.SAMPLED)
    # cos(theta): two simple circle zeros add up to 2n, but g changes sign
    res = perturbation_search(TrigPoly(1, (0.0, 0.5)), 1, trials=0,
                              ascent_rounds=0)
    assert res.route == PerturbationSearch.SAMPLED
    # inside, outside and deficit census moduli: the circle count is short
    rng = np.random.default_rng(80)
    for n, census in [(3, (1, 2, 0)), (4, (2, 2, 0)), (3, (0, 2, 1)),
                      (5, (0, 3, 2)), (4, (0, 2, 0)), (6, (0, 0, 0))]:
        g = random_boundary_modulus(n, *census, rng)
        assert not is_extreme(g, n).verdict
        res = perturbation_search(g, n, trials=0, ascent_rounds=0)
        assert res.route == PerturbationSearch.SAMPLED


# gridsearch hold-out instance 212 (bench/run.py --pool-seed 5926), n = 5:
# an extreme point whose double circle zero near 0.4541-0.8910i comes back
# from the root engine as a reflected pair at |z| = 1 -/+ 3e-7
HOLDOUT_212 = TrigPoly(5, tuple(complex(float.fromhex(re), float.fromhex(im))
                                for re, im in (
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.2d22bd18627e7p-2", "-0x1.a00e739d6d680p-1"),
    ("-0x1.c5b29ed0626a0p-2", "-0x1.a7896c8d7f73ep-2"),
    ("-0x1.3cc67586c38afp-2", "0x1.62a4bdaa03d9ep-3"),
    ("0x1.aee0efeae39b8p-5", "0x1.01c97c4da8162p-3"),
    ("0x1.61fda037129e8p-6", "-0x1.4273ccec1b48dp-7"))))


def test_short_circle_count_falls_back_to_sampling():
    assert sum(r.multiplicity
               for r in roots(lift(HOLDOUT_212, 5)).on_circle) < 10
    res = perturbation_search(HOLDOUT_212, 5, seed=212)
    assert res.route == PerturbationSearch.SAMPLED
    assert res.max_norm <= 1e-6
    assert res == _sampled(HOLDOUT_212, 5, seed=212)


# gridsearch pinned instance 23 (bench/run.py, pool seed 3141), n = 4: an
# extreme point whose double circle zero at angle 0.239225 comes back from
# the root engine as two simple circle roots 1.3e-7 apart
GRID_23 = TrigPoly(4, tuple(complex(float.fromhex(re), float.fromhex(im))
                            for re, im in (
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.aa8664dec32eep-4", "0x1.784c53ddfa165p-1"),
    ("-0x1.0bb90cb7247b9p-1", "0x1.fb0785c51aaa8p-6"),
    ("0x1.2b7316e715928p-4", "-0x1.547fa013fb459p-2"),
    ("0x1.e235d14816d69p-5", "0x1.0e2c62417f899p-4"))))
GRID_23_ANGLE = 0.239225


def test_split_double_zero_is_counted_on_circle():
    simple = [r for r in roots(lift(GRID_23)).on_circle if r.multiplicity == 1]
    assert len(simple) == 2
    assert all(abs(np.angle(r.location) - GRID_23_ANGLE) <= 1e-6
               for r in simple)
    res = perturbation_search(GRID_23, 4, trials=0, ascent_rounds=0)
    assert res.route == PerturbationSearch.CIRCLE_COUNT
    assert res.max_norm == 0.0


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
        res = perturbation_search(g, 4, trials=trials, seed=seed,
                                  ascent_rounds=7)
        assert res.trials == trials
        assert res.max_norm.hex() == first.max_norm.hex()
        assert dataclasses.replace(res, trials=first.trials) == first


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
