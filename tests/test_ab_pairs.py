"""The summary of ``tools/ab_pairs.py`` on fixed numbers."""

import importlib.util
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
