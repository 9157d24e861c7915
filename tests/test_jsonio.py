import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkl.errors import RootOverflow
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
    # a computed number out of the double range is the library's failure
    with pytest.raises(RootOverflow):
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


@pytest.mark.parametrize("size", [4.0, "4", True, None])
def test_grid_size_must_be_an_integer(size):
    # 4.0 == 4 and True == 1 in Python; neither is a JSON integer
    values = [[1.0, 0.0]] * (1 if size is True else 4)
    with pytest.raises(ValueError, match="N must be the integer number"):
        grid_from_json({"N": size, "values": values})


@pytest.mark.parametrize("m0, mult", [("2", 1), (2.0, 1), (True, 1),
                                      (0, 1.5), (0, "1"), (0, True)])
def test_blaschke_counts_must_be_integers(m0, mult):
    # int() would read "2" as 2 and 1.5 as 1
    d = {"m0": m0, "zeros": [[[0.5, 0.0], mult]], "lambda": [1.0, 0.0]}
    with pytest.raises(ValueError, match="integer"):
        blaschke_from_json(d)


def test_blaschke_zeros_must_be_a_list():
    with pytest.raises(ValueError, match="zeros a list"):
        blaschke_from_json({"m0": 0, "zeros": {}, "lambda": [1.0, 0.0]})


def test_order_bounded_before_allocation():
    # an order of 10**13 is refused, not allocated; MAX_ORDER itself loads
    with pytest.raises(ValueError, match="band limit 10000000000000 exceeds"):
        trig_from_json({"n": 10 ** 13, "coeffs": {"0": [1.0, 0.0]}})
    with pytest.raises(ValueError, match="model order 10000000000000 exceeds"):
        kernel_from_json({"n": 10 ** 13, "poly": {"coeffs": [[1.0, 0.0]]}})
    assert trig_from_json({"n": MAX_ORDER, "coeffs": {}}).n == MAX_ORDER
    assert kernel_from_json(
        {"n": MAX_ORDER, "poly": {"coeffs": [[1.0, 0.0]]}}).n == MAX_ORDER


def test_poly_length_bounded_by_a_lift_at_max_order():
    # a lift at MAX_ORDER loads; one coefficient more is refused
    ones = [[1.0, 0.0]] * (2 * MAX_ORDER + 1)
    assert poly_from_json({"coeffs": ones}).degree == 2 * MAX_ORDER
    with pytest.raises(ValueError, match="2050 coefficients exceed 2049"):
        poly_from_json({"coeffs": ones + [[1.0, 0.0]]})


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


# The recursive emitter that ``dumps`` replaced, kept as its oracle: one
# call per value, isinstance dispatch, strings through json.dumps.
def _oracle_float(x: float) -> str:
    if not math.isfinite(x):
        raise RootOverflow(f"cannot serialize the non-finite number {x}: "
                           f"the computation left the double range")
    return format(float(x), ".17g")


def _oracle(obj) -> str:
    parts: list[str] = []
    _oracle_emit(obj, parts)
    return "".join(parts)


def _oracle_emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_oracle_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _oracle_emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _oracle_emit(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"unserializable type {type(obj)!r}")


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 1 / 3]))
_STRINGS = st.text(st.one_of(st.characters(),
                             st.sampled_from("\x00\x1f\x7f\"\\/é "
                                             "퟿\U0001f600")),
                   max_size=6)
_LEAVES = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans(),
    st.none(), _STRINGS,
    # [re, im] pairs, the emitter's one-step case, and near misses of it
    st.lists(_FLOATS, min_size=2, max_size=2),
    st.tuples(_FLOATS, _FLOATS),
    st.tuples(_FLOATS, _FLOATS.map(np.float64)).map(list),
    st.tuples(_FLOATS, st.integers(-3, 3)).map(list))
_KEYS = st.one_of(_STRINGS, st.integers(-5, 5))


class _List(list):
    pass


def _nest(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(inner, max_size=4).map(_List)
        | st.dictionaries(_KEYS, inner, max_size=4)
        | st.dictionaries(_KEYS, inner, max_size=4).map(OrderedDict),
        max_leaves=20)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_nest(_LEAVES))
def test_dumps_matches_the_recursive_oracle(obj):
    assert dumps(obj) == _oracle(obj)


def _wrap(data, value):
    """value at a drawn depth inside lists, tuples and dicts with siblings."""
    for _ in range(data.draw(st.integers(0, 5))):
        siblings = data.draw(st.lists(_LEAVES, max_size=3))
        at = data.draw(st.integers(0, len(siblings)))
        kind = data.draw(st.sampled_from(["list", "tuple", "dict"]))
        items = siblings[:at] + [value] + siblings[at:]
        if kind == "dict":
            value = {f"k{i}": v for i, v in enumerate(items)}
        else:
            value = items if kind == "list" else tuple(items)
    return value


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_dumps_rejects_nonfinite_at_any_depth(data):
    bad = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    other = data.draw(_FLOATS)
    leaf = data.draw(st.sampled_from([
        bad, np.float64(bad), [other, bad], [bad, other], (bad, other),
        [np.float64(bad), other]]))
    obj = _wrap(data, leaf)
    with pytest.raises(RootOverflow, match="non-finite"):
        dumps(obj)
    with pytest.raises(RootOverflow):
        _oracle(obj)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_dumps_rejects_unknown_types_at_any_depth(data):
    leaf = data.draw(st.sampled_from([object(), np.bool_(True), 1 + 2j,
                                      {1.0, 2.0}]))
    obj = _wrap(data, leaf)
    with pytest.raises(TypeError, match="unserializable type"):
        dumps(obj)
    with pytest.raises(TypeError):
        _oracle(obj)
