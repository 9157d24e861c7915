"""Command-line front door: JSON instances in, certificates out.

One command is one process; exit codes are part of the contract:
0 success, 2 a named precondition was violated, 3 an internal invariant
broke or the arithmetic left the double range (never the caller's
fault).  Output is deterministic byte for byte for identical inputs,
flags and seed.

The argument parser is built once per process, on the first ``main``
call, and reused: parsing never changes it, and each call gets a fresh
namespace, so callers that run ``main`` many times in one process (tests,
embedders) do not rebuild it each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gen as genmod
from . import geometry, jsonio, numeric
from .errors import InternalInvariantError, PreconditionError, RootOverflow
from .factor import blaschke_eval, fejer_riesz, inner_outer
from .jsonio import dumps, instance_to_json
from .kernel import KernelElement, companion, h2_norm
from .numeric import Grid, write_boundary_csv
from .polycore import Poly, TrigPoly, trig_from_modulus_squared


def _load(path: str | None, want: type):
    if path is None:
        raise ValueError("an input file is required")
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    obj = jsonio.load_instance(text)
    if not isinstance(obj, want):
        raise ValueError(
            f"expected a {want.__name__} instance, got {type(obj).__name__}")
    return obj


def order(text: str) -> int:
    """The ``--n`` argument: an integer no larger than jsonio.MAX_ORDER."""
    n = int(text)
    if n > jsonio.MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"model order {n} exceeds {jsonio.MAX_ORDER}")
    return n


def _sample_poly(p: Poly, size: int) -> Grid:
    return Grid.sample(lambda z: p(z), size)


def _sample_trig(g: TrigPoly, size: int) -> Grid:
    return Grid(g.grid_values(size).astype(complex))


def _tols(args, **defaults) -> dict:
    out = dict(defaults)
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise ValueError(
                f"--tol must be finite and nonnegative, got {args.tol!r}")
        for k in out:
            out[k] = args.tol
        out["override"] = args.tol
    return out


# ---------------------------------------------------------------------------
# command handlers: return (output dict, boundary grid or None, exit code)
# ---------------------------------------------------------------------------

def cmd_factor(args):
    p = _load(args.input, Poly)
    tols = _tols(args, tol_factor=1e-9)
    fac = inner_outer(p)
    zeta = np.exp(2j * np.pi * np.arange(args.grid) / args.grid)
    # finite roots can still overflow here, with coefficients near the top
    # of the double range
    with np.errstate(all="ignore"):
        recon = blaschke_eval(fac.inner, zeta) * fac.outer(zeta)
        residual = float(np.abs(recon - p(zeta)).max())
    if not math.isfinite(residual):
        raise RootOverflow(
            "the reconstruction on the circle overflows double precision")
    out = {
        "command": "factor",
        "input": jsonio.poly_to_json(p),
        "inner": jsonio.blaschke_to_json(fac.inner),
        "outer": jsonio.poly_to_json(fac.outer),
        "checks": {"reconstruction_residual": residual,
                   "residual_ok": residual <= tols["tol_factor"]},
        "tolerances": tols,
        "conventions": {"outer_value_at_zero": "real positive",
                        "phase_in": "inner.lambda"},
    }
    return out, _sample_poly(p, args.grid), 0


def cmd_spectral(args):
    g = _load(args.input, TrigPoly)
    tols = _tols(args, tol_factor=1e-9)
    f = fejer_riesz(g)
    back = trig_from_modulus_squared(f)
    # relative to the size of g: s = max(1, max |g_k|) is 1 for a
    # nonnegative g with mean at most 1
    scale = max(1.0, max(abs(c) for c in g.coeffs))
    residual = max(abs(back.coeff(k) - g.coeff(k))
                   for k in range(g.n + 1)) / scale
    out = {
        "command": "spectral",
        "input": jsonio.trig_to_json(g),
        "outer": jsonio.poly_to_json(f),
        "checks": {"modulus_residual": residual,
                   "residual_ok": residual <= tols["tol_factor"]},
        "tolerances": tols,
        "conventions": {"value_at_zero": "real positive"},
    }
    return out, _sample_poly(f, args.grid), 0


def cmd_companion(args):
    x = _load(args.input, KernelElement)
    y = companion(x)
    out = {
        "command": "companion",
        "input": jsonio.kernel_to_json(x),
        "result": jsonio.kernel_to_json(y),
    }
    return out, _sample_poly(y.f, args.grid), 0


def cmd_norm(args):
    x = _load(args.input, KernelElement)
    out = {
        "command": "norm",
        "input": jsonio.kernel_to_json(x),
        "h2_norm": h2_norm(x),
    }
    return out, _sample_poly(x.f, args.grid), 0


def cmd_extreme(args):
    g = _load(args.input, TrigPoly)
    tols = _tols(args, tol_norm=1e-12)
    cert = geometry.is_extreme(g, args.n, tol_norm=tols["tol_norm"])
    out = {
        "command": "extreme",
        "input": jsonio.trig_to_json(g),
        "n": args.n,
        "verdict": cert.verdict,
        "norm_ok": cert.norm_ok,
        "mean": cert.mean,
        "inner_factor": jsonio.blaschke_to_json(cert.inner_factor),
        "outer_part": jsonio.poly_to_json(cert.outer_part),
        "tolerances": tols,
    }
    return out, _sample_trig(g, args.grid), 0


def cmd_split(args):
    g = _load(args.input, TrigPoly)
    # echoed with the checks below; nothing here tests them
    tols = {"midpoint": 1e-10, "norms": 1e-10, "distinctness": 1e-9}
    cert = geometry.split_nonextreme(g, args.n, quad_points=args.grid)
    out = {
        "command": "split",
        "input": jsonio.trig_to_json(g),
        "n": args.n,
        "g1": jsonio.trig_to_json(cert.g1),
        "g2": jsonio.trig_to_json(cert.g2),
        "u": jsonio.blaschke_to_json(cert.u),
        "f1": jsonio.kernel_to_json(cert.f1),
        "f2": jsonio.kernel_to_json(cert.f2),
        "checks": {
            "midpoint_residual": cert.checks.midpoint_residual,
            "norm1": cert.checks.norm1,
            "norm2": cert.checks.norm2,
            "distinctness_gap": cert.checks.distinctness_gap,
            "extreme1": cert.checks.extreme1,
            "extreme2": cert.checks.extreme2,
        },
        "tolerances": tols,
        "conventions": {
            "rotation": jsonio.complex_pair(cert.rotation),
            "rotation_integral": jsonio.complex_pair(cert.rotation_integral),
            "rotation_sign": "+i conj(c)/|c|; c below 1e-10 fixes lambda = 1",
            "quad_points": cert.quad_points,
            "representatives": "outer spectral factors",
        },
    }
    return out, _sample_trig(cert.g1, args.grid), 0


def cmd_decompose(args):
    x = _load(args.input, KernelElement)
    dec = geometry.decompose_modulus(x)
    if dec.rigid:
        out = {
            "command": "decompose",
            "input": jsonio.kernel_to_json(x),
            "rigid": True,
        }
        return out, _sample_poly(x.f, args.grid), 0
    out = {
        "command": "decompose",
        "input": jsonio.kernel_to_json(x),
        "rigid": False,
        "f1": jsonio.kernel_to_json(dec.f1),
        "f2": jsonio.kernel_to_json(dec.f2),
        "checks": {
            "midpoint_residual": dec.split.checks.midpoint_residual,
            "distinctness_gap": dec.split.checks.distinctness_gap,
        },
        "conventions": {
            "rotation": jsonio.complex_pair(dec.split.rotation),
        },
    }
    return out, _sample_poly(dec.f1.f, args.grid), 0


def cmd_solutions(args):
    g = _load(args.input, TrigPoly)
    tols = _tols(args, grid_residual=1e-9)
    sols = geometry.enumerate_solutions(g, args.n)
    zeta = np.exp(2j * np.pi * np.arange(args.grid) / args.grid)
    gv = g.values(np.angle(zeta))
    entries = []
    for s in sols:
        resid = float(np.abs(np.abs(s.f(zeta)) ** 2 - gv).max())
        entries.append({
            "element": jsonio.kernel_to_json(s),
            "modulus_residual": resid,
            "residual_ok": resid <= tols["grid_residual"],
        })
    out = {
        "command": "solutions",
        "input": jsonio.trig_to_json(g),
        "n": args.n,
        "count": len(sols),
        "solutions": entries,
        "tolerances": tols,
        "conventions": {"normalization":
                        "lowest nonzero coefficient real positive"},
    }
    boundary = _sample_poly(sols[0].f, args.grid) if sols else None
    return out, boundary, 0


def cmd_rigidity(args):
    g = _load(args.trig, TrigPoly)
    x = _load(args.kernel, KernelElement)
    tols = _tols(args, tol_remainder=1e-9)
    res = geometry.rigidity_check(g, args.n, x,
                                  tol_remainder=tols["tol_remainder"])
    out = {
        "command": "rigidity",
        "inputs": {"trig": jsonio.trig_to_json(g),
                   "kernel": jsonio.kernel_to_json(x)},
        "n": args.n,
        "kind": res.kind,
        "constant": None if res.constant is None
        else jsonio.complex_pair(res.constant),
        "witness": None if res.witness is None
        else jsonio.complex_pair(res.witness),
        "remainder": res.remainder,
        "tolerances": tols,
    }
    code = 3 if res.kind == geometry.RigidityResult.COUNTEREXAMPLE else 0
    return out, _sample_trig(g, args.grid), code


def cmd_outer_grid(args):
    w = _load(args.input, Grid)
    result = numeric.outer_from_modulus(w)
    defect = numeric.analyticity_defect(result)
    out = {
        "command": "outer-grid",
        "N": w.size,
        "result": jsonio.grid_to_json(result),
        "checks": {"analyticity_defect": defect},
        "conventions": {"zero_frequency": "real positive",
                        "nyquist_bin": "zeroed in conjugation"},
    }
    return out, result, 0


def cmd_symbol_test(args):
    phi = _load(args.phi, Grid)
    g = _load(args.g, Grid)
    tols = _tols(args, tol_factor=1e-7)
    res = numeric.symbol_condition_test(phi, g, tol_factor=tols["tol_factor"])
    out = {
        "command": "symbol-test",
        "N": g.size,
        "defect": res.defect,
        "tolerance": res.tolerance,
        "verdict": res.verdict,
        "tolerances": tols,
    }
    prod = Grid(np.conj(g.points) * np.conj(phi.values) * g.values.real)
    return out, prod, 0


def cmd_domination(args):
    x = _load(args.kernel, KernelElement)
    g = _load(args.trig, TrigPoly)
    res = numeric.domination_integral(x, g)
    out = {
        "command": "domination",
        "inputs": {"kernel": jsonio.kernel_to_json(x),
                   "trig": jsonio.trig_to_json(g)},
        "flag": "DIVERGENT" if res.divergent else "CONVERGENT",
        "value": None if res.divergent else res.value,
        "estimates": list(res.estimates),
        "sizes": list(res.sizes),
    }
    theta = 2.0 * np.pi * np.arange(args.grid) / args.grid
    fa = np.abs(x.f(np.exp(1j * theta)))
    gv = np.maximum(g.values(theta), 1e-300)
    boundary = Grid((fa / np.sqrt(gv)).astype(complex))
    return out, boundary, 0


def _parse_census(spec: str) -> dict:
    counts = {"inside": 0, "circle": 0, "outside": 0}
    if spec:
        for part in spec.split(","):
            key, _, val = part.partition(":")
            key = key.strip()
            if key not in counts:
                raise ValueError(f"unknown zero region {key!r}")
            counts[key] = int(val)
    return counts


def cmd_gen(args):
    census = _parse_census(args.zeros)
    rng = np.random.default_rng(args.seed)
    x = genmod.random_kernel_element(
        args.n, census["inside"], census["circle"], census["outside"], rng)
    if args.emit == "trig":
        g = trig_from_modulus_squared(x.f)
        out = instance_to_json(g)
        boundary = _sample_trig(g, args.grid)
    else:
        out = instance_to_json(x)
        boundary = _sample_poly(x.f, args.grid)
    return out, boundary, 0


def cmd_baseline_split(args):
    g = _load(args.input, TrigPoly)
    g1, g2 = geometry.baseline_split(g)
    out = {
        "command": "baseline-split",
        "input": jsonio.trig_to_json(g),
        "g1": jsonio.trig_to_json(g1),
        "g2": jsonio.trig_to_json(g2),
        "conventions": {
            "tau": "Re(lambda z)/2 with lambda = i g1_hat/|g1_hat|, else 1"},
    }
    return out, _sample_trig(g1, args.grid), 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

COMMANDS = {
    "factor": (cmd_factor, 1),
    "spectral": (cmd_spectral, 1),
    "companion": (cmd_companion, 1),
    "norm": (cmd_norm, 1),
    "extreme": (cmd_extreme, 1),
    "split": (cmd_split, 1),
    "decompose": (cmd_decompose, 1),
    "solutions": (cmd_solutions, 1),
    "rigidity": (cmd_rigidity, 2),
    "outer-grid": (cmd_outer_grid, 1),
    "symbol-test": (cmd_symbol_test, 2),
    "domination": (cmd_domination, 2),
    "gen": (cmd_gen, 0),
    "baseline-split": (cmd_baseline_split, 1),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkl",
        description="certified moduli and extreme points for polynomial "
                    "model spaces; JSON in, certificates out")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, batchable=False, tol=False):
        sp.add_argument("--grid", type=int, default=4096,
                        help="boundary sample count (power of two)")
        if tol:
            sp.add_argument("--tol", type=float, default=None,
                            help="override certificate tolerances; echoed")
        sp.add_argument("--csv", type=str, default=None,
                        help="dump boundary samples theta,re,im,abs")
        if batchable:
            sp.add_argument("--batch", type=str, default=None,
                            help="process every *.json in a directory, "
                                 "except earlier *.out.json outputs")

    # --tol only where a handler reads it (through _tols)
    for name in ("factor", "spectral", "companion", "norm", "baseline-split"):
        sp = sub.add_parser(name)
        sp.add_argument("input", nargs="?", default=None)
        common(sp, batchable=True, tol=name in ("factor", "spectral"))

    for name in ("extreme", "split", "solutions"):
        sp = sub.add_parser(name)
        sp.add_argument("input", nargs="?", default=None)
        sp.add_argument("--n", type=order, required=True)
        common(sp, batchable=True, tol=name != "split")

    sp = sub.add_parser("decompose")
    sp.add_argument("input", nargs="?", default=None)
    common(sp, batchable=True)

    sp = sub.add_parser("rigidity")
    sp.add_argument("trig")
    sp.add_argument("kernel")
    sp.add_argument("--n", type=order, required=True)
    common(sp, tol=True)

    sp = sub.add_parser("outer-grid")
    sp.add_argument("input", nargs="?", default=None)
    common(sp, batchable=True)

    sp = sub.add_parser("symbol-test")
    sp.add_argument("phi")
    sp.add_argument("g")
    common(sp, tol=True)

    sp = sub.add_parser("domination")
    sp.add_argument("kernel")
    sp.add_argument("trig")
    common(sp)

    sp = sub.add_parser("gen")
    sp.add_argument("--n", type=order, required=True)
    sp.add_argument("--zeros", type=str, default="",
                    help="inside:k,circle:j,outside:l")
    sp.add_argument("--emit", choices=("kernel", "trig"), default="kernel")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    return parser


def _handle(args, prefix: str = ""):
    """Run the command's handler; on a named failure report it to stderr.

    Returns (output dict, boundary grid, exit code); the output is None
    when the handler failed.  ``prefix`` starts the error line (the input
    path in batch mode).
    """
    handler, _ = COMMANDS[args.command]
    try:
        return handler(args)
    except PreconditionError as exc:
        name, code, msg = type(exc).__name__, 2, str(exc)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        name, code, msg = "BadInput", 2, str(exc)
    except InternalInvariantError as exc:
        name, code, msg = type(exc).__name__, 3, str(exc)
    print(f"{prefix}error: {name}: {msg}", file=sys.stderr)
    return None, None, code


def _run_one(args) -> int:
    out, boundary, code = _handle(args)
    if out is None:
        return code
    if args.csv and boundary is not None:
        write_boundary_csv(args.csv, boundary)
    sys.stdout.write(dumps(out) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    batch_dir = getattr(args, "batch", None)
    if batch_dir is None:
        return _run_one(args)

    # batch mode (single-input commands only): per-input output files next
    # to the inputs, no shared writes; the outputs of earlier batch runs are
    # not inputs
    worst = 0
    files = sorted(p for p in Path(batch_dir).glob("*.json")
                   if not p.name.endswith(".out.json"))
    if not files:
        print(f"error: BadInput: no *.json files in {batch_dir}",
              file=sys.stderr)
        return 2
    for path in files:
        args.input = str(path)
        out, _, code = _handle(args, prefix=f"{path}: ")
        if out is not None:
            path.with_suffix(f".{args.command}.out.json").write_text(
                dumps(out) + "\n")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
