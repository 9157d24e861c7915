"""The summary of ``tools/ab_pairs.py`` on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [400.0, 410.0, 420.0, 430.0, 440.0, 405.0, 415.0, 425.0, 435.0,
          445.0]


def test_quartiles_are_inclusive():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_holds():
    # +40 on every pair: 10 of 10 won, and the median gap 40 is over the
    # parent's quartile spread 433.75 - 411.25 = 22.5
    s = ab_pairs.summarize([(p, p + 40.0) for p in PARENT], "higher")
    assert s["parent"] == (411.25, 422.5, 433.75)
    assert s["change"] == (451.25, 462.5, 473.75)
    assert (s["wins"], s["pairs"]) == (10, 10)
    assert s["spread"] == 22.5 and s["gap"] == 40.0
    assert s["gain"]


def test_eight_wins_of_ten_is_no_gain():
    # a large median gap, but two pairs lost (one a tie, which counts for
    # neither side)
    change = [p + 40.0 for p in PARENT]
    change[3], change[7] = PARENT[3], PARENT[7] - 1.0
    s = ab_pairs.summarize(list(zip(PARENT, change)), "higher")
    assert s["wins"] == 8 and s["gap"] > s["spread"]
    assert not s["gain"]


def test_a_gap_inside_the_parent_spread_is_no_gain():
    # the change wins every pair by 10, under the parent's spread of 22.5
    s = ab_pairs.summarize([(p, p + 10.0) for p in PARENT], "higher")
    assert s["wins"] == 10 and s["gap"] == 10.0 and s["spread"] == 22.5
    assert not s["gain"]


def test_lower_is_better_counts_falls_as_wins():
    parent = [2.0, 2.1, 2.2, 2.05, 2.15, 2.0, 2.1, 2.2, 2.05, 2.15]
    s = ab_pairs.summarize([(p, p - 0.5) for p in parent], "lower")
    assert s["wins"] == 10
    assert s["gap"] == pytest.approx(0.5) and s["gap"] > s["spread"]
    assert s["gain"]
    worse = ab_pairs.summarize([(p, p + 0.5) for p in parent], "lower")
    assert worse["wins"] == 0 and worse["gap"] < 0 and not worse["gain"]


def test_nine_of_ten_is_enough():
    change = [p + 40.0 for p in PARENT]
    change[0] = PARENT[0] - 5.0
    s = ab_pairs.summarize(list(zip(PARENT, change)), "higher")
    assert s["wins"] == 9 and s["gain"]


def test_unknown_direction_is_refused():
    with pytest.raises(ValueError):
        ab_pairs.summarize([(1.0, 2.0)], "faster")


def test_a_fall_within_the_relative_bound_holds():
    # -50 1/s on a parent median of 422.5 is 12% worse, under the 25%
    # bound, and the parent's spread 22.5 is under the bound's 105.6
    pairs = [(p, p - 50.0) for p in PARENT]
    assert ab_pairs.no_regression(pairs, "higher", 0.25, "1/s") == "holds"


def test_a_fall_past_the_relative_bound_does_not_hold():
    pairs = [(p, 0.6 * p) for p in PARENT]
    assert ab_pairs.no_regression(pairs, "higher", 0.25, "1/s") \
        == "does not hold"


def test_a_rise_in_latency_is_judged_against_the_parent_median():
    parent = [2.0, 2.1, 2.2, 2.05, 2.15, 2.0, 2.1, 2.2, 2.05, 2.15]
    within = [(p, p + 0.4) for p in parent]
    past = [(p, p + 0.6) for p in parent]
    assert ab_pairs.no_regression(within, "lower", 0.25, "ms") == "holds"
    assert ab_pairs.no_regression(past, "lower", 0.25, "ms") \
        == "does not hold"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # quartiles 200 and 400 around a median of 300: the spread 200 is
    # over the bound's 75, so an unchanged median tells nothing ...
    parent = [100.0, 200.0, 300.0, 400.0, 500.0]
    same = [(p, p) for p in parent]
    assert ab_pairs.no_regression(same, "higher", 0.25, "1/s") \
        == "unresolved"
    worse = [(p, p - 150.0) for p in parent]
    assert ab_pairs.no_regression(worse, "higher", 0.25, "1/s") \
        == "unresolved"
    # ... unless every change run is better than every parent run
    above = [(p, p + 500.0) for p in parent]
    assert ab_pairs.no_regression(above, "higher", 0.25, "1/s") == "holds"


def test_fraction_and_digits_bounds_are_absolute():
    ones = [(1.0, 1.0)] * 10
    assert ab_pairs.no_regression(ones, "higher", 0.002, "fraction") \
        == "holds"
    lost = [(1.0, 0.999)] * 10
    assert ab_pairs.no_regression(lost, "higher", 0.002, "fraction") \
        == "holds"
    many = [(1.0, 0.99)] * 10
    assert ab_pairs.no_regression(many, "higher", 0.002, "fraction") \
        == "does not hold"
    digits = [(4.799, 4.75)] * 10
    assert ab_pairs.no_regression(digits, "higher", 0.1, "digits") \
        == "holds"
    fewer = [(4.799, 4.6)] * 10
    assert ab_pairs.no_regression(fewer, "higher", 0.1, "digits") \
        == "does not hold"


def test_a_unit_with_no_bound_rule_is_refused():
    with pytest.raises(ValueError):
        ab_pairs.no_regression([(1.0, 1.0)], "lower", 0.1, "count")


def test_every_declared_metric_has_a_bound_rule():
    declared = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    units = ab_pairs.RELATIVE_UNITS + ab_pairs.ABSOLUTE_UNITS
    assert all(d["unit"] in units for d in declared["end_to_end"])


def test_all_expands_to_every_declared_workload_in_order():
    declared = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    assert ab_pairs.expand("all", declared["workloads"]) == names
    assert ab_pairs.expand("cli", declared["workloads"]) == ["cli"]


def _fake_runs(monkeypatch):
    """ab_pairs with no export and a benchmark that answers at once: the
    change's throughput is 10 above the parent's."""
    calls = []

    def bench(tree, pycache, args, workload, seed):
        calls.append(workload)
        speed = 100.0 + seed + (10.0 if tree == ab_pairs.ROOT else 0.0)
        return {"correct": True, "failed": 0,
                "metrics": {"throughput_ips": {"value": speed}}}

    monkeypatch.setattr(ab_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(ab_pairs, "bench", bench)
    return calls


def test_all_runs_each_workload_in_turn_with_one_summary_each(
        monkeypatch, capsys):
    calls = _fake_runs(monkeypatch)
    assert ab_pairs.main(["--parent", "HEAD", "--workload", "all",
                          "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    declared = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    # four runs (two pairs) of each workload, one workload after another
    assert calls == [name for name in names for _ in range(4)]
    headers = [ln for ln in out if ln.endswith("s per run, parent HEAD")]
    assert headers == [f"{name}: 2 pairs, 20 s per run, parent HEAD"
                       for name in names]
    assert sum(ln.startswith("throughput_ips ") for ln in out) == len(names)


def test_one_workload_prints_its_runs_then_one_summary(monkeypatch, capsys):
    calls = _fake_runs(monkeypatch)
    assert ab_pairs.main(["--parent", "HEAD", "--workload", "cli",
                          "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == ["cli"] * 4
    assert out[:4] == [
        "pair 1 seed 1 parent correct=True failed=0 throughput_ips=101",
        "pair 1 seed 1 change correct=True failed=0 throughput_ips=111",
        "pair 2 seed 2 change correct=True failed=0 throughput_ips=112",
        "pair 2 seed 2 parent correct=True failed=0 throughput_ips=102"]
    assert out[4] == "cli: 2 pairs, 20 s per run, parent HEAD"
    assert out[5].startswith("throughput_ips     parent 101.5 ")
    assert "change won 2/2" in out[5] and len(out) == 6
