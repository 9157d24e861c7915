"""Command-line front door: JSON instances in, certificates out.

One command is one process; exit codes are part of the contract:
0 success, 2 the caller's input (a named precondition was violated, or an
input or output could not be read or written: BadInput), 3 an internal
invariant broke or the arithmetic left the double range (never the
caller's fault).  A failure writes one line ``error: <Type>: <message>``
to stderr and nothing to stdout.  Output is deterministic byte for byte
for identical inputs, flags and seed.

Everything after argument parsing runs inside ``_handle``, the one place
where an exception becomes an exit code and an error line: loading the
inputs, the command's handler, serializing its output, writing the
``--csv`` file and stdout, listing the batch inputs and writing each
batch output.  The output is serialized before any file is written, so a
failed command writes nothing.  Argparse reports a malformed command line
itself, with exit code 2, before any of this runs.

Every tolerance printed under ``tolerances`` is the module constant that
the check beside it applied, and none is set from the command line, so two
commands never judge one input by different rules.  ``spectral`` prints
the round trip that the library accepted its factor by.  The ``factor``
and ``solutions`` residuals are the CLI's own checks on the ``--grid``
points, relative to the input's size s = max(1, max |c_k|).

``domination`` decides by the multiplicity rule that ``rigidity`` applies
(``numeric.domination_integral``): DIVERGENT with the circle zero of g
where f vanishes to too low an order as ``witness``, else CONVERGENT with
the integral of |f| / sqrt(g) from midpoint sums as ``value``.

The argument parser is built once per process, on the first ``main``
call, and reused: parsing never changes it, and each call gets a fresh
namespace, so callers that run ``main`` many times in one process (tests,
embedders) do not rebuild it each time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import gen as genmod
from . import geometry, jsonio, numeric
from .errors import InternalInvariantError, PreconditionError, RootOverflow
from .factor import TOL_SPECTRAL, blaschke_eval, inner_outer, spectral_factor
from .jsonio import dumps, instance_to_json
from .kernel import NORM_TOL, KernelElement, companion, h2_norm
from .numeric import TOL_SYMBOL, Grid, write_boundary_csv
from .polycore import Poly, TrigPoly, trig_from_modulus_squared

TOL_RESIDUAL = 1e-9     # the factor and solutions residuals over s
# values per batched FFT of ``solutions``' residuals (256 KiB); at --grid
# 4096 a batch of all 256 elements took 13 MB more peak memory, of 16 3.4 MB
BATCH_VALUES = 2 ** 14


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
    """The ``--n`` argument: an integer from 0 to jsonio.MAX_ORDER."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"model order {n} is negative")
    if n > jsonio.MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"model order {n} exceeds {jsonio.MAX_ORDER}")
    return n


MAX_GRID = 2 ** 20


def grid_size(text: str) -> int:
    """The ``--grid`` argument: a power of two from 4 to MAX_GRID."""
    size = int(text)
    if size < 4 or size & (size - 1) or size > MAX_GRID:
        raise argparse.ArgumentTypeError(
            f"grid size {size} is not a power of two from 4 to {MAX_GRID}")
    return size


def _poly_boundary(p: Poly, size: int):
    return lambda: Grid.sample(p, size)


def _circle_values(polys: list[Poly], size: int) -> np.ndarray:
    """Each p of polys at the points exp(2 pi i j / size), one row each, by
    one batched inverse FFT of the stacked coefficients, zero-padded to a
    multiple of size and folded onto size slots (z**size = 1 at every
    point), so any degree works."""
    width = max(len(p.coeffs) for p in polys)
    folds = -(-width // size)
    padded = np.zeros((len(polys), folds * size), dtype=complex)
    for row, p in zip(padded, polys):
        row[:len(p.coeffs)] = p.coeffs
    return np.fft.ifft(padded.reshape(len(polys), folds, size).sum(axis=1),
                       axis=1, norm="forward")


def _trig_boundary(g: TrigPoly, size: int):
    return lambda: Grid(g.grid_values(size).astype(complex))


def _size(coeffs) -> float:
    """s = max(1, max |c_k|), the input's size that a residual is over."""
    return max(1.0, max(abs(c) for c in coeffs))


# ---------------------------------------------------------------------------
# command handlers: return (output dict, boundary or None); the boundary is a
# zero-argument callable that samples the Grid for --csv, so nothing is
# sampled without it.  A failure is raised, never returned.
# ---------------------------------------------------------------------------

def cmd_factor(args):
    p = _load(args.input, Poly)
    fac = inner_outer(p)
    zeta = np.exp(2j * np.pi * np.arange(args.grid) / args.grid)
    # finite roots can still overflow here, with coefficients near the top
    # of the double range
    with np.errstate(all="ignore"):
        recon = blaschke_eval(fac.inner, zeta) * fac.outer(zeta)
        residual = float(np.abs(recon - p(zeta)).max()) / _size(p.coeffs)
    if not math.isfinite(residual):
        raise RootOverflow(
            "the reconstruction on the circle overflows double precision")
    out = {
        "command": "factor",
        "input": jsonio.poly_to_json(p),
        "inner": jsonio.blaschke_to_json(fac.inner),
        "outer": jsonio.poly_to_json(fac.outer),
        "checks": {"reconstruction_residual": residual,
                   "residual_ok": residual <= TOL_RESIDUAL},
        "tolerances": {"tol_factor": TOL_RESIDUAL},
        "conventions": {"outer_value_at_zero": "real positive",
                        "phase_in": "inner.lambda"},
    }
    return out, _poly_boundary(p, args.grid)


def cmd_spectral(args):
    g = _load(args.input, TrigPoly)
    rec = spectral_factor(g)
    out = {
        "command": "spectral",
        "input": jsonio.trig_to_json(g),
        "outer": jsonio.poly_to_json(rec.factor),
        "checks": {"modulus_residual": rec.residual,
                   "residual_ok": rec.residual <= TOL_SPECTRAL},
        "tolerances": {"tol_factor": TOL_SPECTRAL},
        "conventions": {"value_at_zero": "real positive"},
    }
    return out, _poly_boundary(rec.factor, args.grid)


def cmd_companion(args):
    x = _load(args.input, KernelElement)
    y = companion(x)
    out = {
        "command": "companion",
        "input": jsonio.kernel_to_json(x),
        "result": jsonio.kernel_to_json(y),
    }
    return out, _poly_boundary(y.f, args.grid)


def cmd_norm(args):
    x = _load(args.input, KernelElement)
    out = {
        "command": "norm",
        "input": jsonio.kernel_to_json(x),
        "h2_norm": h2_norm(x),
    }
    return out, _poly_boundary(x.f, args.grid)


def cmd_extreme(args):
    g = _load(args.input, TrigPoly)
    cert = geometry.is_extreme(g, args.n)
    out = {
        "command": "extreme",
        "input": jsonio.trig_to_json(g),
        "n": args.n,
        "verdict": cert.verdict,
        "norm_ok": cert.norm_ok,
        "mean": cert.mean,
        "inner_factor": jsonio.blaschke_to_json(cert.inner_factor),
        "outer_part": jsonio.poly_to_json(cert.outer_part),
        "tolerances": {"tol_norm": NORM_TOL},
    }
    return out, _trig_boundary(g, args.grid)


def cmd_split(args):
    g = _load(args.input, TrigPoly)
    cert = geometry.split_nonextreme(g, args.n)
    out = {
        "command": "split",
        "input": jsonio.trig_to_json(g),
        "n": args.n,
        "g1": jsonio.trig_to_json(cert.g1),
        "g2": jsonio.trig_to_json(cert.g2),
        "u": jsonio.blaschke_to_json(cert.u),
        "f1": jsonio.kernel_to_json(cert.f1),
        "f2": jsonio.kernel_to_json(cert.f2),
        "checks": dataclasses.asdict(cert.checks),
        "conventions": {
            "rotation": jsonio.complex_pair(cert.rotation),
            "rotation_integral": jsonio.complex_pair(cert.rotation_integral),
            "rotation_sign": "+i conj(c)/|c|; c below 1e-10 fixes lambda = 1",
            "representatives": "outer spectral factors",
        },
    }
    return out, _trig_boundary(cert.g1, args.grid)


def cmd_decompose(args):
    x = _load(args.input, KernelElement)
    dec = geometry.decompose_modulus(x)
    out = {"command": "decompose", "input": jsonio.kernel_to_json(x),
           "rigid": dec.rigid}
    if dec.rigid:
        return out, _poly_boundary(x.f, args.grid)
    out.update({
        "f1": jsonio.kernel_to_json(dec.f1),
        "f2": jsonio.kernel_to_json(dec.f2),
        "checks": dataclasses.asdict(dec.split.checks),
        "conventions": {"rotation": jsonio.complex_pair(dec.split.rotation)},
    })
    return out, _poly_boundary(dec.f1.f, args.grid)


def cmd_solutions(args):
    g = _load(args.input, TrigPoly)
    sols = geometry.enumerate_solutions(g, args.n)
    # the residual is the largest | |f|^2 - g | over s at the grid's points
    # exp(2 pi i j / grid), so any --grid works, also one of 2 g.n points or
    # fewer.  g is sampled by one FFT (grid_values) on the smallest
    # power-of-two multiple of the grid finer than 2 g.n, of which every
    # k-th sample is a grid point; the f's by batched inverse FFTs of their
    # coefficients folded onto the grid (_circle_values)
    fine = args.grid
    while fine <= 2 * g.n:
        fine *= 2
    gv = g.grid_values(fine)[::fine // args.grid]
    block = max(1, BATCH_VALUES // args.grid)
    resids = np.concatenate([np.abs(np.abs(_circle_values(
        [s.f for s in sols[i:i + block]], args.grid)) ** 2 - gv).max(axis=1)
        for i in range(0, len(sols), block)]) / _size(g.coeffs)
    entries = [{"element": jsonio.kernel_to_json(s),
                "modulus_residual": float(resid),
                "residual_ok": bool(resid <= TOL_RESIDUAL)}
               for s, resid in zip(sols, resids)]
    out = {
        "command": "solutions",
        "input": jsonio.trig_to_json(g),
        "n": args.n,
        "count": len(sols),
        "solutions": entries,
        "tolerances": {"grid_residual": TOL_RESIDUAL},
        "conventions": {"normalization":
                        "lowest nonzero coefficient real positive"},
    }
    boundary = _poly_boundary(sols[0].f, args.grid) if sols else None
    return out, boundary


def cmd_rigidity(args):
    g = _load(args.trig, TrigPoly)
    x = _load(args.kernel, KernelElement)
    res = geometry.rigidity_check(g, args.n, x)
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
        "tolerances": {"tol_remainder": geometry.TOL_REMAINDER},
    }
    return out, _trig_boundary(g, args.grid)


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
    return out, lambda: result


def cmd_symbol_test(args):
    phi = _load(args.phi, Grid)
    g = _load(args.g, Grid)
    res = numeric.symbol_condition_test(phi, g)
    out = {
        "command": "symbol-test",
        "N": g.size,
        "defect": res.defect,
        "tolerance": res.tolerance,
        "verdict": res.verdict,
        "tolerances": {"tol_factor": TOL_SYMBOL},
    }
    return out, lambda: Grid(
        np.conj(g.points) * np.conj(phi.values) * g.values.real)


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
        "witness": None if res.witness is None
        else jsonio.complex_pair(res.witness),
    }

    def boundary() -> Grid:
        theta = 2.0 * np.pi * np.arange(args.grid) / args.grid
        fa = np.abs(x.f(np.exp(1j * theta)))
        gv = np.maximum(g.values(theta), 1e-300)
        return Grid((fa / np.sqrt(gv)).astype(complex))
    return out, boundary


def _parse_census(spec: str) -> dict:
    counts = {"inside": 0, "circle": 0, "outside": 0}
    seen = set()
    if spec:
        for part in spec.split(","):
            key, _, val = part.partition(":")
            key = key.strip()
            if key not in counts:
                raise ValueError(f"unknown zero region {key!r}")
            if key in seen:
                raise ValueError(f"zero region {key!r} given twice")
            seen.add(key)
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
        boundary = _trig_boundary(g, args.grid)
    else:
        out = instance_to_json(x)
        boundary = _poly_boundary(x.f, args.grid)
    return out, boundary


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
    return out, _trig_boundary(g1, args.grid)


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

    def common(sp, *, grid=True, batchable=False):
        if grid:
            sp.add_argument("--grid", type=grid_size, default=4096,
                            help="boundary sample count (power of two)")
        # a batch writes one output per input, and no boundary
        output = sp.add_mutually_exclusive_group()
        output.add_argument("--csv", type=str, default=None,
                            help="dump boundary samples theta,re,im,abs")
        if batchable:
            output.add_argument("--batch", type=str, default=None,
                                help="process every *.json in a directory, "
                                     "except earlier *.out.json outputs")

    for name in ("factor", "spectral", "companion", "norm", "baseline-split"):
        sp = sub.add_parser(name)
        sp.add_argument("input", nargs="?", default=None)
        common(sp, batchable=True)

    for name in ("extreme", "split", "solutions"):
        sp = sub.add_parser(name)
        sp.add_argument("input", nargs="?", default=None)
        sp.add_argument("--n", type=order, required=True)
        common(sp, batchable=True)

    sp = sub.add_parser("decompose")
    sp.add_argument("input", nargs="?", default=None)
    common(sp, batchable=True)

    sp = sub.add_parser("rigidity")
    sp.add_argument("trig")
    sp.add_argument("kernel")
    sp.add_argument("--n", type=order, required=True)
    common(sp)

    # --grid only where a handler reads it: these two take their grids
    # from their inputs
    sp = sub.add_parser("outer-grid")
    sp.add_argument("input", nargs="?", default=None)
    common(sp, grid=False, batchable=True)

    sp = sub.add_parser("symbol-test")
    sp.add_argument("phi")
    sp.add_argument("g")
    common(sp, grid=False)

    about = ("whether |f| / sqrt(g) is integrable, by the multiplicity "
             "rule of `hkl rigidity`, with a circle zero of g as witness "
             "or the integral's value from midpoint sums")
    sp = sub.add_parser("domination", help=about, description=about)
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


def _handle(job, prefix: str = "") -> int:
    """Run ``job()`` and return its exit code, the one place where an
    exception becomes one: a precondition failure exits 2 under its own
    name, a ValueError or OSError (files that cannot be read, parsed or
    written) 2 as BadInput, an internal failure 3 under its own name, each
    with the line ``{prefix}error: <Type>: <message>`` on stderr.
    ``prefix`` is the input path in batch mode.
    """
    try:
        job()
        return 0
    except PreconditionError as exc:
        name, code, msg = type(exc).__name__, 2, str(exc)
    except (ValueError, OSError) as exc:
        name, code, msg = "BadInput", 2, str(exc)
    except InternalInvariantError as exc:
        name, code, msg = type(exc).__name__, 3, str(exc)
    print(f"{prefix}error: {name}: {msg}", file=sys.stderr)
    return code


def _output(args) -> str:
    """The command's output text; its --csv boundary is written only once
    the output is serialized."""
    handler, _ = COMMANDS[args.command]
    out, boundary = handler(args)
    text = dumps(out) + "\n"
    if args.csv and boundary is not None:
        write_boundary_csv(args.csv, boundary())
    return text


def _batch_inputs(batch_dir: str) -> list[Path]:
    """The *.json files of a batch directory, except the outputs of earlier
    batch runs."""
    files = sorted(p for p in Path(batch_dir).glob("*.json")
                   if not p.name.endswith(".out.json"))
    if not files:
        raise ValueError(f"no *.json files in {batch_dir}")
    return files


def _batch_output(args, path: Path) -> None:
    """Run the command on one batch input; write its output next to it."""
    args.input = str(path)
    text = _output(args)
    path.with_suffix(f".{args.command}.out.json").write_text(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "batch", None) is None:
        return _handle(lambda: sys.stdout.write(_output(args)))

    # batch mode (single-input commands only): per-input output files next
    # to the inputs, no shared writes; an input that fails is reported and
    # the others still run
    files: list[Path] = []
    worst = _handle(lambda: files.extend(_batch_inputs(args.batch)))
    for path in files:
        job = functools.partial(_batch_output, args, path)
        worst = max(worst, _handle(job, prefix=f"{path}: "))
    return worst


if __name__ == "__main__":
    sys.exit(main())
