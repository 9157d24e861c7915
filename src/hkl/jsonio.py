"""Strict JSON codecs for the value types, plus a deterministic serializer.

Instance files carry a version tag and exactly one payload:

    {"version": "hkl-1", "type": "poly" | "trig" | "kernel" | "grid",
     "payload": {...}}

Unknown fields are rejected at every level, negative trig frequencies are
accepted only when they agree with the Hermitian mirror of the positive
ones, and every float is emitted with 17 significant digits so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import RootOverflow
from .factor import BlaschkeProduct, _is_int
from .kernel import KernelElement
from .numeric import Grid
from .polycore import Poly, TrigPoly

VERSION = "hkl-1"
HERMITIAN_TOL = 1e-12
# the largest band limit or model order read from outside, far above the
# 128 of the tests' order ladder and the 16 of the benchmark; a larger one
# is refused before anything sized by it is allocated (the polish's dense
# steps grow like its square)
MAX_ORDER = 1024


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii   # what json.dumps calls


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise RootOverflow(f"cannot serialize the non-finite number {x}: "
                           f"the computation left the double range")
    return "%.17g" % x


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits, insertion-ordered keys.

    A non-finite float raises RootOverflow: every number written is
    computed by the library from finite inputs, so one that left the
    double range is the arithmetic's failure, not the caller's.
    """
    # the recursion goes through _text, so this is one call per document
    return _text(obj)


def _text(obj) -> str:
    """The JSON text of one value; containers are joined from their items.

    The exact built-in types are tested first, and a [re, im] pair of
    floats, the most common value written, is formatted in one step.
    Subclasses (numpy scalars among them) go through ``_subclass_text``.
    """
    t = type(obj)
    if t is float:
        return _float_text(obj)
    if t is list or t is tuple:
        if len(obj) == 2 and type(obj[0]) is float and type(obj[1]) is float:
            re, im = obj
            if math.isfinite(re) and math.isfinite(im):
                return "[%.17g,%.17g]" % (re, im)
        return "[" + ",".join(map(_text, obj)) + "]"
    if t is dict:
        return "{" + ",".join([_escape(k if type(k) is str else str(k))
                               + ":" + _text(v) for k, v in obj.items()]) + "}"
    if t is str:
        return _escape(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return str(obj)
    return _subclass_text(obj)


def _subclass_text(obj) -> str:
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        return _text(dict(obj.items()))
    if isinstance(obj, (list, tuple)):
        return _text(list(obj))
    raise TypeError(f"unserializable type {type(obj)!r}")


def complex_pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _read_pair(v, what: str) -> complex:
    if not (isinstance(v, list) and len(v) == 2
            and all(_is_int(t) or isinstance(t, float) for t in v)):
        raise ValueError(f"{what} must be a [re, im] pair")
    return complex(float(v[0]), float(v[1]))


def _read_pairs(v, what: str) -> list[complex]:
    if not isinstance(v, list):
        raise ValueError(f"{what}s must be a list of [re, im] pairs")
    return [_read_pair(t, what) for t in v]


def _require_fields(d: dict, fields: set[str], what: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object")
    extra = set(d) - fields
    if extra:
        raise ValueError(f"unknown fields in {what}: {sorted(extra)}")
    missing = fields - set(d)
    if missing:
        raise ValueError(f"missing fields in {what}: {sorted(missing)}")


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------

def poly_to_json(p: Poly) -> dict:
    return {"coeffs": [complex_pair(c) for c in p.coeffs]}


def poly_from_json(d: dict) -> Poly:
    _require_fields(d, {"coeffs"}, "poly")
    coeffs = _read_pairs(d["coeffs"], "coefficient")
    # no longer than a lift at MAX_ORDER: p sizes a dense d x d companion
    if len(coeffs) > 2 * MAX_ORDER + 1:
        raise ValueError(
            f"{len(coeffs)} coefficients exceed {2 * MAX_ORDER + 1}")
    return Poly(tuple(coeffs))


def trig_to_json(g: TrigPoly) -> dict:
    return {"n": g.n,
            "coeffs": {str(k): complex_pair(g.coeffs[k])
                       for k in range(g.n + 1)}}


def trig_from_json(d: dict) -> TrigPoly:
    _require_fields(d, {"n", "coeffs"}, "trig")
    n = d["n"]
    if not _is_int(n) or n < 0:
        raise ValueError("band limit must be a nonnegative integer")
    if n > MAX_ORDER:
        raise ValueError(f"band limit {n} exceeds {MAX_ORDER}")
    raw = d["coeffs"]
    if not isinstance(raw, dict):
        raise ValueError("coeffs must be an object keyed by frequency")
    pos = [0j] * (n + 1)
    neg: dict[int, complex] = {}
    for key, v in raw.items():
        try:
            k = int(key)
        except ValueError:
            k = None
        # int() also reads "+1", " 1", "01" and "1_0"; a key is canonical
        if k is None or key != str(k):
            raise ValueError(f"bad frequency key {key!r}")
        if abs(k) > n:
            raise ValueError(f"frequency {k} outside band {n}")
        c = _read_pair(v, f"coefficient {k}")
        if k >= 0:
            pos[k] = c
        else:
            neg[-k] = c
    # negative frequencies are implied; reject them when inconsistent
    scale = max(1.0, max(abs(c) for c in pos))
    for k, c in neg.items():
        if abs(c - pos[k].conjugate()) > HERMITIAN_TOL * scale:
            raise ValueError(
                f"coefficient at -{k} breaks Hermitian symmetry")
    return TrigPoly(n, tuple(pos))


def kernel_to_json(x: KernelElement) -> dict:
    return {"n": x.n, "poly": poly_to_json(x.f)}


def kernel_from_json(d: dict) -> KernelElement:
    _require_fields(d, {"n", "poly"}, "kernel")
    if not _is_int(d["n"]):
        raise ValueError("model order must be an integer")
    if d["n"] > MAX_ORDER:
        raise ValueError(f"model order {d['n']} exceeds {MAX_ORDER}")
    return KernelElement(d["n"], poly_from_json(d["poly"]))


def grid_to_json(gr: Grid) -> dict:
    return {"N": gr.size, "values": [complex_pair(v) for v in gr.values]}


def grid_from_json(d: dict) -> Grid:
    _require_fields(d, {"N", "values"}, "grid")
    vals = _read_pairs(d["values"], "sample")
    if not _is_int(d["N"]) or d["N"] != len(vals):
        raise ValueError("N must be the integer number of samples")
    return Grid(np.array(vals))


def blaschke_to_json(b: BlaschkeProduct) -> dict:
    return {"m0": b.m0,
            "zeros": [[complex_pair(a), m] for a, m in b.zeros],
            "lambda": complex_pair(b.lam)}


def blaschke_from_json(d: dict) -> BlaschkeProduct:
    _require_fields(d, {"m0", "zeros", "lambda"}, "blaschke")
    if not (_is_int(d["m0"]) and isinstance(d["zeros"], list)):
        raise ValueError("m0 must be an integer and zeros a list")
    zeros = []
    for item in d["zeros"]:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError("each zero must be [[re, im], integer]")
        zeros.append((_read_pair(item[0], "zero"), item[1]))
    return BlaschkeProduct(d["m0"], tuple(zeros),
                           _read_pair(d["lambda"], "lambda"))


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

# kind: (type, encoder, decoder), the one table of instance payloads; the
# kind of a type is looked up in _KINDS, derived from it
_CODECS = {
    "poly": (Poly, poly_to_json, poly_from_json),
    "trig": (TrigPoly, trig_to_json, trig_from_json),
    "kernel": (KernelElement, kernel_to_json, kernel_from_json),
    "grid": (Grid, grid_to_json, grid_from_json),
}
_KINDS = {t: kind for kind, (t, _, _) in _CODECS.items()}


def instance_to_json(obj) -> dict:
    kind = _KINDS[type(obj)]
    _, encode, _ = _CODECS[kind]
    return {"version": VERSION, "type": kind, "payload": encode(obj)}


def instance_from_json(d: dict):
    _require_fields(d, {"version", "type", "payload"}, "instance file")
    if d["version"] != VERSION:
        raise ValueError(f"unsupported version {d['version']!r}, "
                         f"expected {VERSION!r}")
    kind = d["type"]
    if not isinstance(kind, str) or kind not in _CODECS:
        raise ValueError(f"unknown payload type {kind!r}")
    _, _, decode = _CODECS[kind]
    try:
        return decode(d["payload"])
    except OverflowError as exc:
        # an int beyond the float range, or a complex number of larger modulus
        raise ValueError(f"a number exceeds double precision: {exc}") from None


def load_instance(text: str):
    try:
        d = json.loads(text)
    except RecursionError:
        raise ValueError("the JSON text nests too deeply") from None
    return instance_from_json(d)
