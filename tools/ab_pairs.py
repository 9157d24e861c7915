"""Alternating parent/change runs of the benchmark, the gain rule and the
no-regression verdict.

Run from anywhere inside the repository:

    python3 tools/ab_pairs.py --parent HEAD~1 --workload census --pairs 10
    python3 tools/ab_pairs.py --parent 06c8c1d --workload census \\
        --pool-seed 6586 --seed-base 101
    python3 tools/ab_pairs.py --parent HEAD~1 --workload all --pairs 3

The parent revision is exported with ``git archive`` into a temporary
directory, and ``bench/run.py --trace 0`` runs from that tree and from the
working tree (the repository this file sits in) in pairs.  Both runs of a
pair take the same ``--workload``, ``--seed``, ``--seconds`` and
``--pool-seed``; pair i uses seed ``--seed-base`` + i - 1, and the parent
runs first on odd pairs, the change first on even ones.  Each run is
printed as it ends.  The tool stops, with exit code 1, on the first run
that is not ``correct``.  ``--workload all`` runs the pairs of every
workload that ``BENCHMARK.json`` declares, one workload after another, and
prints each workload's summary block after its pairs.

The summary gives, for each end-to-end metric that ``BENCHMARK.json``
declares, each side's median and quartiles, and the pairs the change won
(strictly better in the metric's direction; a tie counts for neither).
The gain rule holds for a metric when the change won at least nine tenths
of the pairs and the change's median is better than the parent's by more
than the distance between the parent's quartiles.  The no-regression
verdict compares the same numbers with the metric's ``BENCHMARK.json``
bound, relative to the parent's median for the units 1/s, ms, s and MB
and absolute for fraction and digits.  When the parent's quartile spread
is wider than the bound, the verdict is "unresolved", unless every change
run is better than every parent run ("holds"); otherwise it "holds" when
the change's median is worse than the parent's by at most the bound, and
"does not hold" when it is worse by more.

Only the temporary directory is written to: each side's bytecode goes
to its own empty cache there (PYTHONPYCACHEPREFIX), so both sides start
as a fresh checkout does and neither tree gains or reads a __pycache__.
That matters: a module compiled from source leaves a different heap than
one loaded from bytecode, and NumPy temporaries can then fault fresh
pages on one side only.  While ``solutions`` reduced every batch of
residuals over a length-1 fold axis, one pinned ``cli`` pass once took
about 600 minor page faults on one side and 28000 or 46000 on the other.
Since it folds only coefficients wider than the grid, a pass takes about
480 to 500 faults compiled and loaded alike (one BLAS thread, 2-core
x86-64 host); the caches stay per side, as the heaps still differ.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9      # the share of pairs the change must win
RELATIVE_UNITS = ("1/s", "ms", "s", "MB")   # bound times the parent's median
ABSOLUTE_UNITS = ("fraction", "digits")     # bound as it stands


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), quartiles by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """The comparison of one metric over (parent, change) pairs.

    ``better`` is "higher" or "lower".  Returns each side's quartiles,
    the pairs won by the change, the parent's quartile spread, the median
    gap in the better direction, and whether the gain rule holds.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    spread = parent[2] - parent[0]
    gap = sign * (change[1] - parent[1])
    return {"parent": parent, "change": change, "wins": wins,
            "pairs": len(pairs), "spread": spread, "gap": gap,
            "gain": wins >= WIN_SHARE * len(pairs) and gap > spread}


def no_regression(pairs: list[tuple[float, float]], better: str,
                  bound: float, unit: str) -> str:
    """The no-regression verdict of one metric over (parent, change) pairs:
    "holds", "unresolved" or "does not hold", as the module docstring
    says.  A unit with no bound rule raises ValueError."""
    s = summarize(pairs, better)
    if unit in RELATIVE_UNITS:
        allowed = bound * abs(s["parent"][1])
    elif unit in ABSOLUTE_UNITS:
        allowed = bound
    else:
        raise ValueError(f"no bound rule for unit {unit!r}")
    if s["spread"] > allowed:
        sign = 1.0 if better == "higher" else -1.0
        every = (min(sign * c for _, c in pairs)
                 > max(sign * p for p, _ in pairs))
        return "holds" if every else "unresolved"
    return "holds" if s["gap"] >= -allowed else "does not hold"


def export(rev: str, dest: Path) -> None:
    """The tree of revision ``rev`` of this repository, written to dest."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                           rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def expand(choice: str, workloads: list[dict]) -> list[str]:
    """The workloads that ``--workload choice`` runs: for "all", every one
    of ``workloads`` (BENCHMARK.json's list) in its order, else choice."""
    if choice == "all":
        return [w["name"] for w in workloads]
    return [choice]


def bench(tree: Path, pycache: Path, args, workload: str, seed: int) -> dict:
    """The final JSON line of one ``bench/run.py --trace 0`` run of workload
    in tree, with bytecode cached under pycache."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.pool_seed is not None:
        cmd += ["--pool-seed", str(args.pool_seed)]
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(workload: str, trees: dict, tmp: str, args,
              declared: list[dict]) -> dict | None:
    """Each side's metric values over the pairs of one workload, each run
    printed as it ends; None after the first run that is not correct."""
    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        seed = args.seed_base + i - 1
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            res = bench(trees[side], Path(tmp, f"pycache-{side}"), args,
                        workload, seed)
            values = {k: v["value"] for k, v in res["metrics"].items()}
            runs[side].append(values)
            shown = " ".join(f"{d['name']}={values[d['name']]:.6g}"
                             for d in declared if d["name"] in values)
            print(f"pair {i} seed {seed} {side:<6} correct="
                  f"{res['correct']} failed={res['failed']} {shown}",
                  flush=True)
            if not res["correct"]:
                print(f"error: the {side} run of pair {i} is not correct",
                      file=sys.stderr)
                return None
    return runs


def print_summary(workload: str, runs: dict, args,
                  declared: list[dict]) -> None:
    """One workload's summary block: a header line and one line per
    declared metric."""
    print(f"{workload}: {args.pairs} pairs, {args.seconds:g} s per run, "
          f"parent {args.parent}")
    for d in declared:
        name = d["name"]
        if name not in runs["parent"][0]:
            continue
        pairs = [(p[name], c[name]) for p, c in
                 zip(runs["parent"], runs["change"])]
        s = summarize(pairs, d["better"])
        (pq1, pm, pq3), (cq1, cm, cq3) = s["parent"], s["change"]
        print(f"{name:<18} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  change "
              f"{cm:.6g} [{cq1:.6g}, {cq3:.6g}]  change won {s['wins']}/"
              f"{s['pairs']} ({d['better']} is better)  gap {s['gap']:.4g} "
              f"vs spread {s['spread']:.4g}  gain rule "
              f"{'holds' if s['gain'] else 'does not hold'}  no regression "
              f"{no_regression(pairs, d['better'], d['bound'], d['unit'])}",
              flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision to compare the working tree with")
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or all of them "
                         "in turn with 'all'")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1,
                    help="seed of the first pair; pair i takes base + i - 1")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pool-seed", type=int, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": ROOT}
        export(args.parent, trees["parent"])
        for workload in expand(args.workload, spec["workloads"]):
            runs = run_pairs(workload, trees, tmp, args, declared)
            if runs is None:
                return 1
            print_summary(workload, runs, args, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
