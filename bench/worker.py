"""One measured process: set up a workload, run its instance set, report JSON.

Started by ``run.py`` in a fresh interpreter for every pass, so the root
cache inside ``hkl`` starts cold each time, as it does for each CLI
invocation.  Modes:

* ``setup``  import ``hkl`` and make the inputs; report the set-up time.
* ``pass``   set up, then run every instance of the set once, one after
             another, in the order drawn from ``--seed`` and ``--pass``.
* ``trace``  the same, with spans around every public function of the
             traced layers.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 40


def setup(workload: str, pool_seed: int | None, count: int | None,
          order_seed: list[int]):
    """Import hkl and make the workload's inputs; the timed set-up step.

    Returns the workload, the instances with their index in the set, in
    run order, and the set-up time.
    """
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np
    import workloads                      # imports hkl
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make(wl.pool_seed if pool_seed is None else pool_seed,
                     count or wl.count)
    order = np.random.default_rng(order_seed).permutation(len(inputs))
    ordered = [(int(i), inputs[i]) for i in order]
    return wl, ordered, time.perf_counter() - start


def run(wl, ordered, tracer=None) -> dict:
    import hostspeed       # loads numpy, so only after the timed set-up
    import workloads
    raw, starts, margins = [], [], []
    answers = [None] * len(ordered)   # by index in the set, not run order
    checked = 0            # instances with a well-formed, checked outcome
    probes = []            # (time, probe seconds), one every PROBE_EVERY_S
    failures: Counter = Counter()
    next_probe = 0.0
    for pos, (index, inst) in enumerate(ordered):
        now = time.perf_counter()
        if now >= next_probe:
            probes.append((now, hostspeed.probe()))
            next_probe = now + hostspeed.PROBE_EVERY_S
        if tracer is not None:
            tracer.instance = index
        starts.append(time.perf_counter())
        out = wl.run(inst)
        checked += workloads.well_formed(out)
        raw.append(out.seconds)
        answers[index] = out.answer
        if out.error is not None:
            failures[out.error] += 1
        if out.margin is not None:
            margins.append(out.margin)
    probes.append((time.perf_counter(), hostspeed.probe()))
    scales = hostspeed.scales(starts, probes)
    # per-instance figures by index in the set, so passes line up
    by_index = sorted(range(len(ordered)), key=lambda pos: ordered[pos][0])
    raw = [raw[pos] for pos in by_index]
    scales = [scales[pos] for pos in by_index]
    return {
        "latencies": [t * f for t, f in zip(raw, scales)],
        "raw_latencies": raw,
        "scales": scales,
        "margins": sorted(margins),
        "checked": checked,
        "failures": dict(failures),
        "answers_sha256": hashlib.sha256(
            repr(answers).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "pass", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--pool-seed", type=int, default=None)
    ap.add_argument("--count", type=int, default=None)
    args = ap.parse_args(argv)

    wl, ordered, setup_s = setup(args.workload, args.pool_seed, args.count,
                                 [args.seed, args.pass_index])
    import hostspeed
    import numpy
    # probed right after set-up, in the same process: over this ~0.2 s the
    # probe's speed and set-up time correlated at 0.94
    scale = hostspeed.NOMINAL_PROBE_S / hostspeed.probe_median(SETUP_PROBES)
    result = {"setup_s": setup_s * scale, "raw_setup_s": setup_s,
              "numpy": numpy.__version__}
    if args.mode == "pass":
        result.update(run(wl, ordered))
    elif args.mode == "trace":
        import tracer
        import workloads
        tr = tracer.Tracer(extra_modules=[workloads])
        tr.install()
        try:
            result.update(run(wl, ordered, tr))
        finally:
            tr.uninstall()
        result["layers"] = tr.layer_stats(result["scales"])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
