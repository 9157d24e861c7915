"""Seeded inputs and checked instance runners for the benchmark workloads.

Inputs are made here from a seed with numpy alone, so a change to ``hkl``
(its generators included) can never change what is measured.  Each
workload pins the seed and size of the instance set that every run uses
(``Workload.pool_seed`` and ``count``); the run's own seed only orders it.
The zero placement mirrors ``hkl.gen`` and ``random_outer_poly`` of
``tests/conftest.py``, and the census mix is that of ``census_suite``.
Instance cost grows steeply with the order (1.5 ms at n = 1, 100 ms at
n = 12), so the order and kind of each instance are drawn balanced: every
block of draws uses each (order, kind) pair once, in seeded random order.
The distribution is the same as independent draws, but a hold-out seed
gives a set of nearly the same mix.

Each runner times only the calls into ``hkl`` and then checks the answer
against the generator's oracle and the pinned tolerances of
``tests/test_acceptance.py``; no tolerance is calibrated at run time.  The
checks evaluate polynomials with numpy, not with ``hkl``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from hkl import cli, jsonio
from hkl.factor import fejer_riesz
from hkl.geometry import (RigidityResult, enumerate_solutions, is_extreme,
                          perturbation_search, rigidity_check,
                          split_nonextreme)
from hkl.kernel import KernelElement
from hkl.numeric import Grid, domination_integral, outer_from_modulus
from hkl.polycore import Poly, TrigPoly

# Pinned tolerances, the same numbers as tests/test_acceptance.py.
TOL_SPECTRAL = 1e-7       # relative coefficient error of a Fejer-Riesz round trip
TOL_MIDPOINT = 1e-10      # split midpoint residual and |norm - 1| of both halves
TOL_GAP = 1e-9            # the two split halves must differ by more than this
TOL_MODULUS = 1e-9        # | |f|^2 - g | on a 4096-point grid, per solution
TOL_RIGIDITY = 1e-9       # recovered constant of a rigid multiple
TOL_PERTURBATION = 1e-6   # largest admissible perturbation at an extreme point
TOL_CEPSTRAL = 1e-7       # relative sample error of the FFT outer factor

# Margins are reported in digits and capped where the residual reaches
# rounding level, so an exactly zero residual does not read as infinite.
MAX_MARGIN_DIGITS = 16.0

GRID = 4096
_ZETA = np.exp(2j * np.pi * np.arange(GRID) / GRID)


# ---------------------------------------------------------------------------
# input generation (numpy only)
# ---------------------------------------------------------------------------

def _poly_from_zeros(zeros) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for a in zeros:
        out = np.convolve(out, np.array([-a, 1.0]))
    return out


def _census_zeros(inside, circle, outside, rng) -> list[complex]:
    """Zeros in the bands of ``hkl.gen.random_census_poly``, separated."""
    placed: list[complex] = []
    zeros = []
    for count, (lo, hi) in ((inside, (0.2, 0.8)), (circle, (1.0, 1.0)),
                            (outside, (1.25, 2.0))):
        for _ in range(count):
            for _ in range(1000):
                a = rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())
                pts = (a, 1.0 / a.conjugate())
                if all(abs(p - q) >= 0.1 for p in pts for q in placed):
                    break
            else:
                raise RuntimeError("could not place separated zeros")
            placed.extend((a, 1.0 / a.conjugate()))
            zeros.append(a)
    return zeros


def _trig_values(coeffs) -> np.ndarray:
    """A real trig polynomial (coefficients k = 0..n) on the 4096-point grid."""
    spectrum = np.zeros(GRID, dtype=complex)
    spectrum[:len(coeffs)] = coeffs
    spectrum[GRID - len(coeffs) + 1:] = np.conj(coeffs[:0:-1])
    return (np.fft.ifft(spectrum) * GRID).real


def _modulus_squared(f: np.ndarray) -> tuple[complex, ...]:
    """coeff(k) = sum_j f[j+k] conj(f[j]) for k = 0..deg f."""
    d = len(f) - 1
    cs = [complex(np.dot(f[k:], np.conj(f[:d + 1 - k]))) for k in range(d + 1)]
    cs[0] = complex(math.fsum(abs(c) ** 2 for c in f), 0.0)
    return tuple(cs)


def _boundary_modulus(n, census, rng) -> tuple[complex, ...]:
    """Mean-1 modulus of a unit-norm order-n element with the given census."""
    f = _poly_from_zeros(_census_zeros(*census, rng))
    f = f * (1.0 / math.sqrt(math.fsum(abs(c) ** 2 for c in f)))
    low = next(c for c in f if c != 0)
    f = f * (low.conjugate() / abs(low))
    g = _modulus_squared(f)
    s = 1.0 / g[0].real
    return tuple(s * c for c in g)


KINDS = ("extreme", "inside", "outside", "deficit", "mixed")


def _balanced(rng, strata):
    """Endless draws using every stratum once per block, in random order."""
    while True:
        for i in rng.permutation(len(strata)):
            yield strata[i]


def _random_census(n, kind, rng) -> tuple[int, int, int]:
    """The census draw of ``census_suite`` for one instance of order n."""
    if kind == "extreme":
        return (0, n, 0)
    if kind == "inside":
        k = int(rng.integers(1, min(n, 3) + 1))
        return (k, n - k, 0)
    if kind == "outside":
        k = int(rng.integers(1, min(n, 3) + 1))
        return (0, n - k, k)
    if kind == "deficit":
        d = int(rng.integers(1, n + 1))
        return (0, n - d, 0)
    k_in = int(rng.integers(0, min(n, 2) + 1))
    k_out = int(rng.integers(0, min(n - k_in, 2) + 1))
    circ = int(rng.integers(0, n - k_in - k_out + 1))
    return (k_in, circ, k_out)


def _random_outer(rng, degree, circle) -> np.ndarray:
    """``random_outer_poly`` of tests/conftest.py, as a coefficient array."""
    used: list[complex] = []
    zeros = []

    def admissible(a):
        pts = (a, 1.0 / a.conjugate())
        return all(abs(x - b) >= 0.1 for x in pts for b in used)

    for k in range(degree):
        while True:
            r = 1.0 if k < circle else rng.uniform(1.05, 2.0)
            a = r * np.exp(2j * np.pi * rng.uniform())
            if admissible(a):
                break
        used.extend((a, 1.0 / a.conjugate()))
        zeros.append(a)
    f = _poly_from_zeros(zeros)
    return f * (f[0].conjugate() / abs(f[0]))


def _census_oracle(n, census) -> tuple[bool, int]:
    """Ground truth: extremality and the number of solutions with modulus g.

    The lift's inner part is z**deficit times one simple Blaschke zero per
    inside zero and per reflected outside zero (zeros are separated).
    """
    k_in, k_circ, k_out = census
    deficit = n - k_in - k_circ - k_out
    extreme = k_in == 0 and k_out == 0 and deficit == 0
    return extreme, (deficit + 1) * 2 ** (k_in + k_out)


@dataclass(frozen=True)
class CensusInstance:
    g: TrigPoly
    n: int
    census: tuple
    extreme: bool
    solutions: int
    constant: complex      # multiple fed to rigidity_check at extreme points


@dataclass(frozen=True)
class SpectralInstance:
    g: TrigPoly
    f: np.ndarray          # the generating outer polynomial


@dataclass(frozen=True)
class GridInstance:
    g_extreme: TrigPoly
    n: int
    search_seed: int
    g_positive: TrigPoly   # strictly positive, with a known outer factor
    outer: KernelElement


@dataclass(frozen=True)
class CliInstance:
    text: str              # the modulus as an hkl-1 instance file
    n: int
    extreme: bool
    solutions: int


def census_inputs(seed: int, count: int, max_n: int = 12) -> list:
    rng = np.random.default_rng(seed)
    consts = np.random.default_rng([seed, 1])
    strata = _balanced(rng, [(n, k) for n in range(1, max_n + 1)
                             for k in KINDS])
    out = []
    for _ in range(count):
        n, kind = next(strata)
        census = _random_census(n, kind, rng)
        g = _boundary_modulus(n, census, rng)
        extreme, sols = _census_oracle(n, census)
        c = consts.uniform(0.3, 2.0) * np.exp(2j * np.pi * consts.uniform())
        out.append(CensusInstance(TrigPoly(len(g) - 1, g), n, census,
                                  extreme, sols, complex(c)))
    return out


def spectral_inputs(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    degrees = _balanced(rng, range(1, 17))
    out = []
    for _ in range(count):
        deg = next(degrees)
        circ = int(rng.integers(0, min(deg, 3) + 1))
        f = _random_outer(rng, deg, circ)
        out.append(SpectralInstance(TrigPoly(deg, _modulus_squared(f)), f))
    return out


def gridsearch_inputs(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    orders = _balanced(rng, range(1, 9))
    out = []
    for i in range(count):
        n = next(orders)
        ge = _boundary_modulus(n, (0, n, 0), rng)
        while True:
            deg = int(rng.integers(1, 17))
            f = _random_outer(rng, deg, 0)
            gp = _modulus_squared(f)
            s = 1.0 / gp[0].real
            f = f * math.sqrt(s)
            gp = tuple(s * c for c in gp)
            if _trig_values(gp).min() >= 1e-3:
                break
        out.append(GridInstance(TrigPoly(n, ge), n, i, TrigPoly(deg, gp),
                                KernelElement(deg, Poly(tuple(f)))))
    return out


def cli_inputs(seed: int, count: int, n: int = 8) -> list:
    rng = np.random.default_rng(seed)
    kinds = _balanced(rng, KINDS)
    out = []
    for _ in range(count):
        census = _random_census(n, next(kinds), rng)
        g = _boundary_modulus(n, census, rng)
        g = TrigPoly(len(g) - 1, g)
        text = jsonio.dumps(jsonio.instance_to_json(g))
        out.append(CliInstance(text, n, *_census_oracle(n, census)))
    return out


# ---------------------------------------------------------------------------
# runners: time the hkl calls, then check the answer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    seconds: float          # time spent in hkl for this instance
    error: str | None       # failure type; None when every check passed
    answer: tuple           # verdicts and residuals, exactly as computed
    margin: float | None    # digits of headroom of the worst residual check


def _judge(seconds, verdicts, residuals) -> Outcome:
    """verdicts: (name, ok); residuals: (name, value, tolerance)."""
    error = next((f"WrongVerdict:{name}" for name, ok in verdicts if not ok),
                 None)
    margin = MAX_MARGIN_DIGITS
    for name, value, tol in residuals:
        if error is None and not value <= tol:
            error = f"OverTolerance:{name}"
        if value > 0:
            margin = min(margin, math.log10(tol / value))
    answer = (tuple(ok for _, ok in verdicts)
              + tuple(value for _, value, _ in residuals))
    return Outcome(seconds, error, answer, margin)


def well_formed(out) -> bool:
    """The harness checked this instance: a passing outcome has every
    residual within its tolerance, a failing one names its failure."""
    return (isinstance(out, Outcome) and math.isfinite(out.seconds)
            and out.seconds > 0 and len(out.answer) > 0
            and (isinstance(out.error, str)
                 or (out.error is None and out.margin is not None
                     and out.margin >= 0)))


def _raised(seconds, exc) -> Outcome:
    name = type(exc).__name__
    return Outcome(seconds, name, (name,), None)


def _modulus_residual(f: Poly, gv: np.ndarray) -> float:
    return float(np.abs(np.abs(npp.polyval(_ZETA, f.coeffs)) ** 2 - gv).max())


def run_census(inst: CensusInstance) -> Outcome:
    g, n = inst.g, inst.n
    t0 = time.perf_counter()
    try:
        cert = is_extreme(g, n)
        if cert.verdict:
            base = fejer_riesz(g)
            second = rigidity_check(
                g, n, KernelElement(n, base.scaled(inst.constant)))
        else:
            second = split_nonextreme(g, n)
        sols = enumerate_solutions(g, n)
    except Exception as exc:   # a failure of hkl, counted by type
        return _raised(time.perf_counter() - t0, exc)
    seconds = time.perf_counter() - t0

    verdicts = [("extreme", cert.verdict == inst.extreme),
                ("solution_count", len(sols) == inst.solutions)]
    residuals = []
    if cert.verdict:
        verdicts.append(
            ("rigid", second.kind == RigidityResult.CONSTANT_MULTIPLE))
        if second.constant is not None:
            residuals.append(("rigidity_constant",
                              abs(second.constant - inst.constant),
                              TOL_RIGIDITY))
    else:
        ch = second.checks
        verdicts += [("halves_extreme", ch.extreme1 and ch.extreme2),
                     ("halves_distinct", ch.distinctness_gap > TOL_GAP)]
        residuals += [("midpoint", ch.midpoint_residual, TOL_MIDPOINT),
                      ("norms", max(abs(ch.norm1 - 1), abs(ch.norm2 - 1)),
                       TOL_MIDPOINT)]
    gv = _trig_values(g.coeffs)
    worst = max((_modulus_residual(s.f, gv) for s in sols), default=0.0)
    residuals.append(("modulus", worst, TOL_MODULUS))
    return _judge(seconds, verdicts, residuals)


def run_spectral(inst: SpectralInstance) -> Outcome:
    t0 = time.perf_counter()
    try:
        back = fejer_riesz(inst.g)
    except Exception as exc:   # a failure of hkl, counted by type
        return _raised(time.perf_counter() - t0, exc)
    seconds = time.perf_counter() - t0
    f = inst.f
    got = np.array([back.coeff(k) for k in range(len(f))])
    err = float(np.abs(got - f).max() / np.abs(f).max())
    return _judge(seconds, [("degree", back.degree == len(f) - 1)],
                  [("round_trip", err, TOL_SPECTRAL)])


def run_gridsearch(inst: GridInstance) -> Outcome:
    t0 = time.perf_counter()
    try:
        search = perturbation_search(inst.g_extreme, inst.n, trials=10_000,
                                     seed=inst.search_seed)
        samples = Grid(np.sqrt(inst.g_positive.grid_values(GRID)))
        sampled = outer_from_modulus(samples)
        dom = domination_integral(inst.outer, inst.g_positive)
    except Exception as exc:   # a failure of hkl, counted by type
        return _raised(time.perf_counter() - t0, exc)
    seconds = time.perf_counter() - t0
    ref = npp.polyval(_ZETA, inst.outer.f.coeffs)
    cep = float(np.abs(sampled.values - ref).max() / np.abs(ref).max())
    return _judge(seconds, [("convergent", not dom.divergent)],
                  [("perturbation", search.max_norm, TOL_PERTURBATION),
                   ("cepstral", cep, TOL_CEPSTRAL)])


def _cli_call(argv: list[str], text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _stdin(text):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def run_cli(inst: CliInstance) -> Outcome:
    n = str(inst.n)
    commands = [["extreme", "-", "--n", n]]
    if not inst.extreme:
        commands.append(["split", "-", "--n", n])
    commands += [["solutions", "-", "--n", n], ["spectral", "-"]]
    seconds = 0.0
    outputs = {}
    for argv in commands:
        t0 = time.perf_counter()
        try:
            code, stdout, stderr = _cli_call(argv, inst.text)
        except Exception as exc:   # a failure of hkl, counted by type
            return _raised(seconds + time.perf_counter() - t0, exc)
        seconds += time.perf_counter() - t0
        if code != 0:
            # "error: <Type>: message" is the CLI's error contract
            kind = stderr.split(":")[1].strip() if ":" in stderr else "Exit"
            return Outcome(seconds, kind, (argv[0], code, kind), None)
        outputs[argv[0]] = json.loads(stdout)

    ext, sols, spec = (outputs["extreme"], outputs["solutions"],
                       outputs["spectral"])
    # the CLI's own residual_ok flags must agree with its residuals; a
    # residual over the tolerance is then an OverTolerance failure below
    flags = [(s["residual_ok"], s["modulus_residual"], TOL_MODULUS)
             for s in sols["solutions"]]
    flags.append((spec["checks"]["residual_ok"],
                  spec["checks"]["modulus_residual"],
                  spec["tolerances"]["tol_factor"]))
    verdicts = [("extreme", ext["verdict"] == inst.extreme),
                ("solution_count", sols["count"] == inst.solutions),
                ("residual_ok_flags",
                 all(ok == (r <= tol) for ok, r, tol in flags))]
    residuals = [("modulus",
                  max(s["modulus_residual"] for s in sols["solutions"]),
                  TOL_MODULUS),
                 ("spectral_modulus", spec["checks"]["modulus_residual"],
                  spec["tolerances"]["tol_factor"])]
    if "split" in outputs:
        ch = outputs["split"]["checks"]
        verdicts += [("halves_extreme", ch["extreme1"] and ch["extreme2"]),
                     ("halves_distinct", ch["distinctness_gap"] > TOL_GAP)]
        residuals += [("midpoint", ch["midpoint_residual"], TOL_MIDPOINT),
                      ("norms", max(abs(ch["norm1"] - 1),
                                    abs(ch["norm2"] - 1)), TOL_MIDPOINT)]
    return _judge(seconds, verdicts, residuals)


@dataclass(frozen=True)
class Workload:
    make: object            # (seed, count) -> list of instances
    run: object             # instance -> Outcome
    pool_seed: int          # seed of the instance set every run uses
    count: int              # instances in the set: one pass, ~10 s
    layers: tuple           # per-layer functions this workload must call


# The pool seeds were fixed before any result was seen; the counts are what
# one pass gets through in about 10 s at the seed commit.
WORKLOADS = {
    "census": Workload(census_inputs, run_census, 1812, 240, (
        "polycore.roots", "polycore.nonneg_check", "factor.inner_outer",
        "factor.fejer_riesz", "factor.blaschke_mul_poly",
        "geometry.is_extreme", "geometry.split_nonextreme",
        "geometry.enumerate_solutions", "geometry.rigidity_check")),
    "spectral": Workload(spectral_inputs, run_spectral, 2718, 400, (
        "polycore.roots", "polycore.nonneg_check", "factor.fejer_riesz")),
    "gridsearch": Workload(gridsearch_inputs, run_gridsearch, 3141, 280, (
        "polycore.roots", "geometry.perturbation_search",
        "numeric.outer_from_modulus", "numeric.domination_integral")),
    "cli": Workload(cli_inputs, run_cli, 1414, 170, (
        "polycore.roots", "geometry.is_extreme",
        "geometry.split_nonextreme", "geometry.enumerate_solutions",
        "factor.fejer_riesz", "jsonio.load_instance", "jsonio.dumps",
        "cli.main")),
}
