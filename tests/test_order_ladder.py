"""The order ladder: at every order the tests reach, each call answers with a
result checked against its tolerance, or raises a named error of the
library's own (never one that blames a valid input).

The inputs are built without expanding roots one by one: jittered
equispaced extreme points (every zero of f on the circle, so g is extreme)
and strictly positive g = 1 + a small band-n term (never extreme).  Larger
orders than these take seconds each and are left out of the suite.
"""

import pytest

from conftest import _flat_band_modulus, jittered_extreme_point

from hkl import factor
from hkl.errors import InternalInvariantError
from hkl.factor import TOL_SPECTRAL, spectral_factor
from hkl.geometry import is_extreme

LADDER = (8, 16, 32, 64, 128)


def _family(name, n):
    """g and whether it is extreme."""
    if name == "jittered":
        return jittered_extreme_point(n, n)[1], True
    return _flat_band_modulus(n, n), False


@pytest.mark.parametrize("n", LADDER)
@pytest.mark.parametrize("name", ["jittered", "flat"])
def test_every_order_answers_within_tolerance_or_names_its_failure(name, n):
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
