"""Random instances with a prescribed root census.

Inside zeros are drawn uniformly from the annulus [0.2, 0.8], outside zeros
from [1.25, 2], circle zeros on the circle itself; angles are uniform
subject to a minimum separation.  The bands keep every instance away from
the classification dead band, and the separation keeps the zeros of the
lifted modulus well-conditioned: once several circle zeros collide within
about 1e-2, their locations are no longer recoverable from double-precision
coefficients and root-pairing certificates degrade (the same conditioning
cliff that bounds the admissible degree).  With separated zeros the random
suites are deterministic oracles: the generator knows the census, so the
library's verdicts can be checked against ground truth.
"""

from __future__ import annotations

import numpy as np

from .kernel import KernelElement, h2_norm
from .polycore import Poly, TrigPoly, trig_from_modulus_squared, trig_scale

INSIDE_ANNULUS = (0.2, 0.8)
OUTSIDE_ANNULUS = (1.25, 2.0)
MIN_SEPARATION = 0.1


def random_census_poly(inside: int, circle: int, outside: int,
                       rng: np.random.Generator) -> Poly:
    """Monic polynomial with the given number of zeros in each region.

    Separation is enforced between all zeros of the induced lift: each new
    zero, together with its circle reflection, must stay MIN_SEPARATION
    away from the zeros (and reflections) already placed.
    """
    placed: list[complex] = []

    def admissible(a: complex) -> bool:
        pts = (a, 1.0 / a.conjugate())
        return all(abs(p - q) >= MIN_SEPARATION for p in pts for q in placed)

    out = Poly((1.0,))
    for count, (lo, hi) in ((inside, INSIDE_ANNULUS),
                            (circle, (1.0, 1.0)),
                            (outside, OUTSIDE_ANNULUS)):
        for _ in range(count):
            for _ in range(1000):
                r = rng.uniform(lo, hi)
                a = r * np.exp(2j * np.pi * rng.uniform())
                if admissible(a):
                    break
            else:
                raise ValueError(
                    f"could not place {inside + circle + outside} zeros "
                    f"{MIN_SEPARATION} apart")
            placed.extend((a, 1.0 / a.conjugate()))
            out = out * Poly((-a, 1))
    return out


def random_kernel_element(n: int, inside: int, circle: int, outside: int,
                          rng: np.random.Generator) -> KernelElement:
    """Unit-norm element of the order-n space with the prescribed census.

    The total zero count must not exceed n; a deficit leaves the degree
    below n (which forces zeros of the companion at the origin).  Phase is
    fixed by making the lowest coefficient real positive.
    """
    if min(inside, circle, outside) < 0:
        raise ValueError("zero counts must be nonnegative")
    total = inside + circle + outside
    if total > n:
        raise ValueError(f"census size {total} exceeds model order {n}")
    f = random_census_poly(inside, circle, outside, rng)
    x = KernelElement(n, f)
    f = f.scaled(1.0 / h2_norm(x))
    low = next(c for c in f.coeffs if c != 0)
    f = f.scaled(low.conjugate() / abs(low))
    return KernelElement(n, f)


def random_boundary_modulus(n: int, inside: int, circle: int, outside: int,
                            rng: np.random.Generator) -> TrigPoly:
    """|f|^2 for a random census element, rescaled to mean exactly 1."""
    x = random_kernel_element(n, inside, circle, outside, rng)
    g = trig_from_modulus_squared(x.f)
    return trig_scale(g, 1.0 / g.mean)
