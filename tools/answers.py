"""One digest per answer set of the library, and whether a parent revision
gives the same.

Run from anywhere inside the repository:

    python3 tools/answers.py                       # the working tree alone
    python3 tools/answers.py --parent HEAD~1       # both, set by set
    python3 tools/answers.py --sets census/1812 --count 10

A set is a list of inputs and the library's answers on each, and its
digest is the sha256 of the ``repr`` of that list of answers.  An answer
is the ``repr`` of what a call returns or, when it raises, the error's
class and message:

- ``census/1812``, ``census/6586``: ``is_extreme``, ``split_nonextreme``,
  ``enumerate_solutions``, ``fejer_riesz``, the lift's RootSet and
  ``nonneg_check`` of each ``bench/workloads.census_inputs`` modulus;
- ``spectral/2718``, ``spectral/9001``, ``spectral/2819``:
  ``spectral_factor`` and the lift's RootSet;
- ``gridsearch/3141``, ``gridsearch/5926``: the benchmark harness's
  answer and failure of each instance (``workloads.run_gridsearch``);
- ``cli/1414``, ``cli/2135``: the exit code, stdout and stderr of
  ``hkl extreme``, ``split``, ``solutions`` and ``spectral`` on each
  instance file, every command on every instance;
- ``commands/1414``: the exit code, stdout and stderr of every ``hkl``
  command on the first 20 ``cli/1414`` moduli g, from files that
  ``instance_files`` derives from g's coefficients alone, and of three
  failing lines (``command_lines``);
- ``near_touching/5``: ``fejer_riesz``, the split at mean 1 and the
  lift's RootSet of ``near_touching(5, 600)``, the family of
  ``tests/test_factor.py``'s ``_near_touching``.
The number after the slash is the seed of the inputs; each bench set has
its workload's pinned size, and ``--count`` takes the first instances of
every set.  numpy prints arrays rounded, so an answer whose ``repr``
holds one is refused.

Each side runs in its own interpreter with one BLAS thread,
``PYTHONHASHSEED=0`` and its own empty bytecode cache
(``PYTHONPYCACHEPREFIX``), importing ``hkl`` and ``bench/workloads.py``
from its own tree; the near-touching inputs are built by that tree's
``hkl``, as the test builds them.  The parent is exported with
``tools/ab_pairs.py``'s ``export`` into a temporary directory, the only
place written to, and the ``commands`` set writes its input files into a
temporary directory of its own.  Each side reports the set's digest and
one sha256 per instance, of the ``repr`` of that instance's answers.
With ``--parent`` each set is marked ``identical`` or ``differs``, and
under a set that differs a second line gives the count of instances whose
digests differ and the first 20 of their indices.  Standard library and
numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# set name: (a bench workload, "commands" or "near_touching"; seed of the
# inputs; instances)
SETS = {
    "census/1812": ("census", 1812, 240),
    "census/6586": ("census", 6586, 240),
    "spectral/2718": ("spectral", 2718, 400),
    "spectral/9001": ("spectral", 9001, 400),
    "spectral/2819": ("spectral", 2819, 400),
    "gridsearch/3141": ("gridsearch", 3141, 280),
    "gridsearch/5926": ("gridsearch", 5926, 280),
    "cli/1414": ("cli", 1414, 170),
    "cli/2135": ("cli", 2135, 170),
    "commands/1414": ("commands", 1414, 20),
    "near_touching/5": ("near_touching", 5, 600),
}
MOVED_SHOWN = 20    # indices listed under a set that differs
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _answer(fn, *args) -> str:
    """The repr of fn(*args), or of the error it raises."""
    try:
        text = repr(fn(*args))
    except Exception as exc:   # an answer of the library, like any other
        return f"{type(exc).__name__}: {exc}"
    if "array(" in text:
        raise ValueError(f"{fn.__name__} answers with a numpy array, "
                         "whose repr is rounded")
    return text


def near_touching(seed: int, count: int) -> list:
    """``_near_touching(seed, count)`` of tests/test_factor.py: |f|^2 / mean
    with 1..n unit zeros of f, the others at |a| in [1.05, 2], then
    g_0 -= d and g_1 += d u e^(i phi), d = 10^U(-13, -3), u = U(0, 0.5)."""
    import numpy as np
    from hkl.polycore import (Poly, TrigPoly, trig_from_modulus_squared,
                              trig_scale)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 13))
        circ = int(rng.integers(1, n + 1))
        zeros = [np.exp(2j * np.pi * rng.uniform()) for _ in range(circ)]
        zeros += [rng.uniform(1.05, 2.0) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n - circ)]
        f = Poly((1.0,))
        for a in zeros:
            f = f * Poly((-a, 1.0))
        g = trig_from_modulus_squared(f)
        c = list(trig_scale(g, 1.0 / g.mean).coeffs)
        d = 10.0 ** rng.uniform(-13, -3)
        c[0] -= d
        c[1] += d * rng.uniform(0, 0.5) * np.exp(2j * np.pi * rng.uniform())
        out.append(TrigPoly(n, tuple(c)))
    return out


def _instance(kind: str, payload: dict) -> str:
    """An hkl-1 instance file, written with json so that both sides read
    the same bytes (floats by their shortest repr, which reads back
    exactly)."""
    return json.dumps({"version": "hkl-1", "type": kind, "payload": payload})


def instance_files(text: str) -> dict:
    """{file name: text} of one ``commands`` instance, from the
    coefficients c_0..c_n of its modulus g (the instance file ``text``)
    alone: g itself, p = c_0 + c_1 z + ... + c_n z^n, x = p / ||p||_2 of
    model order n, and on 64 points the grids w = 1 + g, phi = p / max |p|
    and g."""
    import numpy as np
    payload = json.loads(text)["payload"]
    n = payload["n"]
    c = np.array([complex(*payload["coeffs"][str(k)]) for k in range(n + 1)])
    theta = 2 * np.pi * np.arange(64) / 64
    gv = c[0].real + 2 * sum((c[k] * np.exp(1j * k * theta)).real
                             for k in range(1, n + 1))
    pv = np.polyval(c[::-1], np.exp(1j * theta))

    def pairs(values):
        return [[float(v.real), float(v.imag)] for v in values]

    def grid(values):
        return _instance("grid", {"N": len(values), "values": pairs(values)})

    return {"g.json": text,
            "p.json": _instance("poly", {"coeffs": pairs(c)}),
            "x.json": _instance("kernel", {"n": n, "poly": {
                "coeffs": pairs(c / np.sqrt(np.sum(np.abs(c) ** 2)))}}),
            "w.json": grid(1.0 + gv),
            "phi.json": grid(pv / np.abs(pv).max()),
            "gr.json": grid(gv)}


def command_lines(n: int, i: int) -> list[list[str]]:
    """The command lines run on the files of instance i of the
    ``commands`` set (of model order n): every ``hkl`` command (stdin
    carries g), then a missing file, a Poly where a TrigPoly is expected,
    and a model order below the band limit of g."""
    n = str(n)
    zeros = f"inside:{i % 3},circle:{i % 4},outside:{i % 2}"
    return [["factor", "p.json"],
            ["spectral", "-"],
            ["companion", "x.json"],
            ["norm", "x.json"],
            ["baseline-split", "g.json"],
            ["extreme", "g.json", "--n", n],
            ["split", "g.json", "--n", n],
            ["solutions", "g.json", "--n", n],
            ["decompose", "x.json"],
            ["rigidity", "g.json", "x.json", "--n", n],
            ["outer-grid", "w.json"],
            ["symbol-test", "phi.json", "gr.json"],
            ["domination", "x.json", "g.json"],
            ["gen", "--n", n, "--zeros", zeros, "--seed", str(i),
             "--emit", ("kernel", "trig")[i % 2]],
            ["extreme", "missing.json", "--n", n],
            ["extreme", "p.json", "--n", n],
            ["extreme", "g.json", "--n", "2"]]


def command_answers(seed: int, count: int) -> list:
    """(exit code, stdout, stderr) of each ``command_lines`` run of the
    first ``count`` ``cli`` moduli of ``seed``, through in-process
    ``hkl.cli.main``, with the instance's files in the working directory
    (a temporary one, so that every path printed is the same on both
    sides)."""
    import workloads
    out = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="answers_commands_") as tmp:
        os.chdir(tmp)
        try:
            for i, inst in enumerate(workloads.cli_inputs(seed, count)):
                for name, text in instance_files(inst.text).items():
                    Path(name).write_text(text)
                out.append(tuple(workloads._cli_call(argv, inst.text)
                                 for argv in command_lines(inst.n, i)))
        finally:
            os.chdir(home)
    return out


def answers(name: str, count: int) -> list:
    """The answers of the first ``count`` instances of set ``name``, from
    the ``hkl`` and ``bench/workloads.py`` on sys.path."""
    import workloads
    from hkl.factor import fejer_riesz, spectral_factor
    from hkl.geometry import enumerate_solutions, is_extreme, split_nonextreme
    from hkl.polycore import lift, nonneg_check, roots, trig_scale

    def lift_roots(g):
        return roots(lift(g))

    workload, seed, _ = SETS[name]
    if workload == "commands":
        return command_answers(seed, count)
    if workload == "near_touching":
        return [(_answer(fejer_riesz, g),
                 _answer(split_nonextreme, trig_scale(g, 1.0 / g.mean), g.n),
                 _answer(lift_roots, g))
                for g in near_touching(seed, count)]
    wl = workloads.WORKLOADS[workload]
    out = []
    for inst in wl.make(seed, count):
        if workload == "census":
            g, n = inst.g, inst.n
            out.append((_answer(is_extreme, g, n),
                        _answer(split_nonextreme, g, n),
                        _answer(enumerate_solutions, g, n),
                        _answer(fejer_riesz, g), _answer(lift_roots, g),
                        _answer(nonneg_check, g)))
        elif workload == "spectral":
            out.append((_answer(spectral_factor, inst.g),
                        _answer(lift_roots, inst.g)))
        elif workload == "gridsearch":
            res = wl.run(inst)
            out.append((res.error, repr(res.answer)))
        else:
            n = str(inst.n)
            out.append(tuple(
                workloads._cli_call(argv, inst.text)
                for argv in (["extreme", "-", "--n", n],
                             ["split", "-", "--n", n],
                             ["solutions", "-", "--n", n],
                             ["spectral", "-"])))
    return out


def digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()


def digests(records: list) -> list:
    """[the set's digest, [one digest per instance]]."""
    return [digest(records), [digest(r) for r in records]]


def side_digests(tree: Path, pycache: Path, names: list[str],
                 count: int | None) -> dict:
    """{set: digests} of tree, from one pinned interpreter (``--tree``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--tree",
           str(tree), "--sets", *names]
    if count is not None:
        cmd += ["--count", str(count)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PINNED_ENV, PYTHONPYCACHEPREFIX=str(pycache))
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the answers of {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(change: dict, parent: dict | None) -> list[str]:
    """One line per set of change: its digest, and with a parent, whether
    the parent's digest is the same; under a set that differs, the count
    of instances whose digests differ and the first MOVED_SHOWN of their
    indices."""
    width = max(map(len, change))
    lines = []
    for name, (sha, shas) in change.items():
        if parent is None:
            lines.append(f"{name:<{width}}  {sha}")
            continue
        parent_sha, parent_shas = parent[name]
        if parent_sha == sha:
            lines.append(f"{name:<{width}}  {sha}  identical")
            continue
        lines.append(f"{name:<{width}}  {sha}  differs (parent {parent_sha})")
        moved = [i for i, (a, b) in enumerate(zip(shas, parent_shas))
                 if a != b]
        shown = ", ".join(map(str, moved[:MOVED_SHOWN]))
        more = ", ..." if len(moved) > MOVED_SHOWN else ""
        lines.append(f"{'':<{width}}  {len(moved)} of {len(shas)} "
                     f"instances differ: {shown}{more}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision to compare the working "
                                     "tree with")
    ap.add_argument("--sets", nargs="+", choices=list(SETS),
                    default=list(SETS), metavar="SET",
                    help=f"sets to digest, of: {' '.join(SETS)}")
    ap.add_argument("--count", type=int,
                    help="digest the first COUNT instances of each set")
    ap.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.count is not None and args.count < 1:
        ap.error("--count must be at least 1")

    if args.tree is not None:
        # one side, in the pinned interpreter that side_digests starts
        if os.environ.get("PYTHONHASHSEED") != "0":
            ap.error("--tree runs only under the pinned environment")
        sys.path[:0] = [str(args.tree / "src"), str(args.tree / "bench")]
        print(json.dumps({
            name: digests(answers(name, args.count or SETS[name][2]))
            for name in args.sets}))
        return 0

    with tempfile.TemporaryDirectory(prefix="answers_") as tmp:
        parent = None
        if args.parent is not None:
            # tools/ is on sys.path when this file runs as a script
            from ab_pairs import export
            tree = Path(tmp, "parent")
            export(args.parent, tree)
            parent = side_digests(tree, Path(tmp, "pycache-parent"),
                                  args.sets, args.count)
        change = side_digests(ROOT, Path(tmp, "pycache-change"), args.sets,
                              args.count)
    print("\n".join(summary(change, parent)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
