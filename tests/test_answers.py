"""The summary of ``tools/answers.py`` on fixed records, and one slice of
a set digested twice."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from conftest import UNMERGED_ODD_ZERO

_PATH = Path(__file__).resolve().parents[1] / "tools" / "answers.py"
_SPEC = importlib.util.spec_from_file_location("answers", _PATH)
answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(answers)

A, B = "a" * 64, "b" * 64


def test_summary_marks_each_set_against_the_parent():
    change = {"census/1812": A, "near_touching/5": B}
    parent = {"census/1812": A, "near_touching/5": A}
    assert answers.summary(change, parent) == [
        f"census/1812      {A}  identical",
        f"near_touching/5  {B}  differs (parent {A})",
    ]


def test_summary_without_a_parent_lists_the_digests():
    assert answers.summary({"cli/1414": A}, None) == [f"cli/1414  {A}"]


def test_digest_is_the_sha256_of_the_repr():
    # the digest of no answers, and one that a changed answer moves
    assert answers.digest([]) == ("4f53cda18c2baa0c0354bb5f9a3ecbe5"
                                  "ed12ab4d8e11ba873c2f11161202b945")
    assert answers.digest([("1",)]) != answers.digest([("2",)])


def test_an_error_is_an_answer_and_an_array_is_refused():
    def fails(x):
        raise ValueError(f"no {x}")

    assert answers._answer(fails, 3) == "ValueError: no 3"
    with pytest.raises(ValueError, match="rounded"):
        answers._answer(np.zeros, 2)


def test_near_touching_is_the_family_of_the_factor_tests():
    assert answers.near_touching(5, 555)[554] == UNMERGED_ODD_ZERO


def test_a_ten_instance_slice_digests_the_same_twice(capsys):
    # two pinned interpreters on the working tree, each with its own
    # empty bytecode cache
    argv = ["--sets", "census/1812", "near_touching/5", "--count", "10"]
    assert answers.main(argv) == 0
    first = capsys.readouterr().out
    assert answers.main(argv) == 0
    assert capsys.readouterr().out == first
    assert [line.split()[0] for line in first.splitlines()] == [
        "census/1812", "near_touching/5"]
