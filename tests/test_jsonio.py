import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkl.factor import BlaschkeProduct
from hkl.jsonio import (MAX_ORDER, blaschke_from_json, blaschke_to_json,
                        dumps, grid_from_json, grid_to_json,
                        instance_from_json, instance_to_json,
                        kernel_from_json, kernel_to_json, load_instance,
                        poly_from_json, poly_to_json, trig_from_json,
                        trig_to_json)
from hkl.kernel import KernelElement
from hkl.numeric import Grid
from hkl.polycore import Poly, TrigPoly


def test_poly_round_trip():
    p = Poly((1.5, -2j, 0.25 + 0.5j))
    assert poly_from_json(poly_to_json(p)).coeffs == p.coeffs


def test_trig_round_trip():
    g = TrigPoly(2, (1.0, 0.5 - 0.25j, 0.125j))
    assert trig_from_json(trig_to_json(g)).coeffs == g.coeffs


def test_trig_accepts_consistent_negative_keys():
    d = {"n": 1, "coeffs": {"0": [1.0, 0.0], "1": [0.5, 0.25],
                            "-1": [0.5, -0.25]}}
    g = trig_from_json(d)
    assert g.coeff(1) == 0.5 + 0.25j


def test_trig_rejects_inconsistent_negative_keys():
    d = {"n": 1, "coeffs": {"0": [1.0, 0.0], "1": [0.5, 0.25],
                            "-1": [0.5, 0.25]}}
    with pytest.raises(ValueError):
        trig_from_json(d)


def test_trig_rejects_out_of_band():
    with pytest.raises(ValueError):
        trig_from_json({"n": 1, "coeffs": {"2": [1.0, 0.0]}})


def test_kernel_round_trip():
    x = KernelElement(3, Poly((1, 2, 3)))
    y = kernel_from_json(kernel_to_json(x))
    assert y.n == 3 and y.f.coeffs == x.f.coeffs


def test_grid_round_trip():
    gr = Grid(np.arange(8) + 1j)
    back = grid_from_json(grid_to_json(gr))
    assert np.array_equal(back.values, gr.values)


def test_blaschke_round_trip():
    b = BlaschkeProduct(2, ((0.5 + 0.1j, 2),), 1j)
    back = blaschke_from_json(blaschke_to_json(b))
    assert back.m0 == 2 and back.zeros == b.zeros and back.lam == b.lam


def test_unknown_fields_rejected():
    with pytest.raises(ValueError):
        poly_from_json({"coeffs": [], "extra": 1})
    with pytest.raises(ValueError):
        instance_from_json({"version": "hkl-1", "type": "poly",
                            "payload": {"coeffs": []}, "junk": True})


def test_version_enforced():
    with pytest.raises(ValueError):
        instance_from_json({"version": "hkl-2", "type": "poly",
                            "payload": {"coeffs": []}})


def test_instance_envelope_round_trip():
    for obj in (Poly((1, 2)), TrigPoly(1, (1.0, 0.5)),
                KernelElement(1, Poly((0, 1))), Grid(np.ones(4))):
        back = load_instance(dumps(instance_to_json(obj)))
        assert type(back) is type(obj)


def test_dumps_is_valid_json_with_17_digits():
    text = dumps({"x": 1 / 3, "y": [1, True, None, "s"]})
    assert json.loads(text) == {"x": 1 / 3, "y": [1, True, None, "s"]}
    assert "0.33333333333333331" in text


def test_dumps_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps({"x": float("inf")})


def test_dumps_deterministic():
    obj = instance_to_json(TrigPoly(2, (1.0, 0.1 + 0.2j, -0.05j)))
    assert dumps(obj) == dumps(obj)


def test_bool_band_limit_rejected():
    # JSON true is not the integer 1
    with pytest.raises(ValueError, match="band limit"):
        trig_from_json({"n": True, "coeffs": {"0": [1.0, 0.0]}})
    with pytest.raises(ValueError, match="model order"):
        kernel_from_json({"n": True, "poly": {"coeffs": [[1.0, 0.0]]}})


def test_order_bounded_before_allocation():
    # an order of 10**13 is refused, not allocated; MAX_ORDER itself loads
    with pytest.raises(ValueError, match="band limit 10000000000000 exceeds"):
        trig_from_json({"n": 10 ** 13, "coeffs": {"0": [1.0, 0.0]}})
    with pytest.raises(ValueError, match="model order 10000000000000 exceeds"):
        kernel_from_json({"n": 10 ** 13, "poly": {"coeffs": [[1.0, 0.0]]}})
    assert trig_from_json({"n": MAX_ORDER, "coeffs": {}}).n == MAX_ORDER
    assert kernel_from_json(
        {"n": MAX_ORDER, "poly": {"coeffs": [[1.0, 0.0]]}}).n == MAX_ORDER


def test_bool_coefficient_rejected():
    with pytest.raises(ValueError, match=r"\[re, im\] pair"):
        poly_from_json({"coeffs": [[True, False]]})
    with pytest.raises(ValueError, match=r"\[re, im\] pair"):
        trig_from_json({"n": 0, "coeffs": {"0": [1.0, False]}})
    # integers still read as numbers
    assert poly_from_json({"coeffs": [[1, 0]]}).coeffs == (1 + 0j,)


@pytest.mark.parametrize("key", ["1_0", "+1", "01", " 1", "-0"])
def test_noncanonical_frequency_key_rejected(key):
    # int() reads each of these; "1_0" would load as frequency 10
    d = {"n": 10, "coeffs": {"0": [1.0, 0.0], key: [0.1, 0.0]}}
    with pytest.raises(ValueError, match="bad frequency key"):
        trig_from_json(d)


# one valid payload of each instance type; the fuzz below breaks one field
VALID_PAYLOADS = {
    "poly": {"coeffs": [[1.0, 0.0], [0.5, -0.25]]},
    "trig": {"n": 2, "coeffs": {"0": [1.0, 0.0], "1": [0.25, 0.5],
                                "-1": [0.25, -0.5], "2": [0, 1]}},
    "kernel": {"n": 2, "poly": {"coeffs": [[0.6, 0.0], [0.0, 0.8]]}},
    "grid": {"N": 4, "values": [[1.0, 0.0], [0.5, 0.0], [0.25, 0.0],
                                [0.5, 0.0]]},
}


def _paths(node, prefix=()):
    """Every field of a JSON document, as the keys and indices leading to it."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.integers(-10 ** 400, 10 ** 400), st.floats(), st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
# the loader refuses an order above MAX_ORDER before it allocates anything
# sized by it, so a band limit may be drawn huge
_BAND_LIMITS = st.one_of(
    st.integers(-3, 10 ** 15),
    _JSON_VALUES.filter(lambda v: not isinstance(v, int) or isinstance(v, bool)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_loader_fuzz_raises_only_value_error(data):
    kind = data.draw(st.sampled_from(sorted(VALID_PAYLOADS)))
    doc = json.loads(json.dumps(
        {"version": "hkl-1", "type": kind, "payload": VALID_PAYLOADS[kind]}))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_BAND_LIMITS if path[-1] == "n"
                                 else _JSON_VALUES)
    try:
        obj = load_instance(json.dumps(doc))
    except ValueError:
        return
    assert isinstance(obj, (Poly, TrigPoly, KernelElement, Grid))
