"""Self-tests of the benchmark: smoke runs of every workload, traced and not.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import json
import math
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(res, wanted):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end(name):
    res = result("--workload", name, "--seed", "1", "--seconds", "2",
                 "--trace", "0", "--smoke")
    check_shape(res, SPEC["end_to_end"])
    assert res["correct"]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name):
    res = result("--workload", name, "--seed", "1", "--seconds", "2",
                 "--trace", "1", "--smoke")
    check_shape(res, SPEC["per_layer"])
    # spans leave every verdict and residual bit-identical
    assert res["correct"]
    # the pinned instance set, not as many as fit in the time
    assert res["attempted"] == run.SMOKE_COUNT
    for layer in workloads.WORKLOADS[name].layers:
        assert res["metrics"][f"{layer}.calls"]["value"] > 0, layer
    assert res["metrics"]["trace.overhead"]["value"] > 0


def test_counts_do_not_depend_on_seed_or_speed():
    # the same instance set in another order: same attempts and failures
    one = result("--workload", "census", "--seed", "1", "--seconds", "2",
                 "--trace", "0", "--smoke")
    two = result("--workload", "census", "--seed", "2", "--seconds", "0",
                 "--trace", "0", "--smoke")
    assert one["correct"] and two["correct"]
    assert one["attempted"] == two["attempted"] == run.SMOKE_COUNT
    assert one["failed"] == two["failed"]
    for name in ("pass_frac", "err_margin_digits"):
        assert one["metrics"][name] == two["metrics"][name]


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    layer_names = {f"{f}.{s}" for f, stats in run.LAYER_METRICS
                   for s in stats} | {"trace.overhead"}
    assert layer_names == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name].make
    assert pickle.dumps(make(7, 12)) == pickle.dumps(make(7, 12))
    assert pickle.dumps(make(7, 12)) != pickle.dumps(make(8, 12))


def test_census_oracle_counts():
    # deficit 2, one inside and one outside zero: 3 * 2 * 2 solutions
    assert workloads._census_oracle(6, (1, 2, 1)) == (False, 12)
    assert workloads._census_oracle(4, (0, 4, 0)) == (True, 1)


def test_tail_latency_keeps_ten_samples_above():
    lat = [float(i) for i in range(1, 1001)]
    assert run.tail_latency(lat) == (900.0, 90.0)
    lat = [float(i) for i in range(1, 101)]
    value, pct = run.tail_latency(lat)
    assert value == 90.0 and pct == 90.0
    assert sum(x > value for x in lat) == 10
    assert run.tail_latency([3.0, 1.0]) == (3.0, 100.0)


def test_low_margin_is_tenth_percentile():
    margins = [float(i) for i in range(1, 1001)]
    assert 99.0 <= run.low_margin(margins) <= 101.0
    assert run.low_margin([5.0]) == 5.0 and run.low_margin([]) == 0.0


def test_harness_ok_needs_a_checked_outcome_per_instance():
    good = {"latencies": [0.1, 0.2], "scales": [1.0, 1.0], "checked": 2,
            "failures": {"PairingFailure": 1}}
    assert run.harness_ok(good)
    assert not run.harness_ok(dict(good, checked=1))
    assert not run.harness_ok(dict(good, latencies=[0.1, math.nan]))
    assert not run.harness_ok(dict(good, failures={"X": 3}))
    assert not run.harness_ok(dict(good, latencies=[], scales=[],
                                   checked=0))


def test_well_formed_outcome():
    ok = workloads.Outcome(0.01, None, (True, 1e-12), 2.0)
    assert workloads.well_formed(ok)
    assert workloads.well_formed(workloads.Outcome(0.01, "ValueError",
                                                   ("ValueError",), None))
    # a pass whose residual is over its tolerance is a checker defect
    assert not workloads.well_formed(workloads.Outcome(0.01, None,
                                                       (True, 1.0), -3.0))
    assert not workloads.well_formed(workloads.Outcome(0.01, None, (), 2.0))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_rebinds_names_imported_by_name():
    from hkl import factor, geometry, polycore
    import tracer

    original = polycore.roots
    tr = tracer.Tracer(extra_modules=[workloads])
    tr.install()
    try:
        assert polycore.roots is not original
        assert factor.roots is polycore.roots is geometry.roots
        assert workloads.fejer_riesz is factor.fejer_riesz
    finally:
        tr.uninstall()
    assert polycore.roots is original and factor.roots is original


def test_self_time_subtracts_direct_children():
    import tracer

    tr = tracer.Tracer()
    tr.names = ["geometry.is_extreme", "polycore.roots"]
    # is_extreme spans 0..10 and calls roots twice (1..4, 5..7)
    tr.spans = [(0, 0.0, 10.0, -1, 0, False), (1, 1.0, 4.0, 0, 0, False),
                (1, 5.0, 7.0, 0, 0, True)]
    tr.root_inputs = [(1, 2j, 3), (1, 2j, 3)]
    stats = tr.layer_stats([1.0])
    assert stats["geometry.is_extreme"]["self_s"] == 5.0
    assert stats["polycore.roots"] == {"calls": 2, "self_s": 5.0,
                                       "errors": 1, "distinct": 1,
                                       "deg_mean": 2.0}
