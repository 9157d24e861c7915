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

from .factor import BlaschkeProduct
from .kernel import KernelElement
from .numeric import Grid
from .polycore import Poly, TrigPoly

VERSION = "hkl-1"
HERMITIAN_TOL = 1e-12
# the largest band limit or model order read from outside, far above the 16
# that the tests and the benchmark reach; a larger one is refused before
# anything sized by it is allocated (the polish's dense steps grow like its
# square)
MAX_ORDER = 1024


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite numbers")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits, insertion-ordered keys."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"unserializable type {type(obj)!r}")


def complex_pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _is_int(v) -> bool:
    """A JSON integer: ``true`` and ``false`` are not numbers."""
    return isinstance(v, int) and not isinstance(v, bool)


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
    return Poly(tuple(_read_pairs(d["coeffs"], "coefficient")))


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
    if d["N"] != len(vals):
        raise ValueError("N does not match the number of samples")
    return Grid(np.array(vals))


def blaschke_to_json(b: BlaschkeProduct) -> dict:
    return {"m0": b.m0,
            "zeros": [[complex_pair(a), m] for a, m in b.zeros],
            "lambda": complex_pair(b.lam)}


def blaschke_from_json(d: dict) -> BlaschkeProduct:
    _require_fields(d, {"m0", "zeros", "lambda"}, "blaschke")
    zeros = []
    for item in d["zeros"]:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError("each zero must be [[re, im], multiplicity]")
        zeros.append((_read_pair(item[0], "zero"), int(item[1])))
    return BlaschkeProduct(int(d["m0"]), tuple(zeros),
                           _read_pair(d["lambda"], "lambda"))


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

_DECODERS = {
    "poly": poly_from_json,
    "trig": trig_from_json,
    "kernel": kernel_from_json,
    "grid": grid_from_json,
}

_ENCODERS = {
    Poly: ("poly", poly_to_json),
    TrigPoly: ("trig", trig_to_json),
    KernelElement: ("kernel", kernel_to_json),
    Grid: ("grid", grid_to_json),
}


def instance_to_json(obj) -> dict:
    kind, enc = _ENCODERS[type(obj)]
    return {"version": VERSION, "type": kind, "payload": enc(obj)}


def instance_from_json(d: dict):
    _require_fields(d, {"version", "type", "payload"}, "instance file")
    if d["version"] != VERSION:
        raise ValueError(f"unsupported version {d['version']!r}, "
                         f"expected {VERSION!r}")
    kind = d["type"]
    if not isinstance(kind, str) or kind not in _DECODERS:
        raise ValueError(f"unknown payload type {kind!r}")
    try:
        return _DECODERS[kind](d["payload"])
    except OverflowError as exc:
        # an int beyond the float range, or a complex number of larger modulus
        raise ValueError(f"a number exceeds double precision: {exc}") from None


def load_instance(text: str):
    return instance_from_json(json.loads(text))
