"""The summary of ``tools/answers.py`` on fixed records, and one slice of
a set digested twice."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from conftest import UNMERGED_ODD_ZERO

from hkl.cli import COMMANDS
from hkl.jsonio import dumps, instance_to_json, load_instance
from hkl.kernel import h2_norm
from hkl.polycore import Poly, TrigPoly

_PATH = Path(__file__).resolve().parents[1] / "tools" / "answers.py"
_SPEC = importlib.util.spec_from_file_location("answers", _PATH)
answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(answers)

A, B = "a" * 64, "b" * 64


def test_summary_marks_each_set_against_the_parent():
    change = {"census/1812": [A, [A, B]], "near_touching/5": [B, [A, B, B]]}
    parent = {"census/1812": [A, [A, B]], "near_touching/5": [A, [A, A, A]]}
    assert answers.summary(change, parent) == [
        f"census/1812      {A}  identical",
        f"near_touching/5  {B}  differs (parent {A})",
        "                 2 of 3 instances differ: 1, 2",
    ]


def test_summary_lists_the_first_moved_instances_and_their_count():
    change = {"cli/1414": [A, [B] * 25]}
    parent = {"cli/1414": [B, [A] + [B] * 3 + [A] * 21]}
    lines = answers.summary(change, parent)
    assert lines[1] == ("          22 of 25 instances differ: 0, "
                        + ", ".join(map(str, range(4, 23))) + ", ...")


def test_summary_without_a_parent_lists_the_digests():
    assert answers.summary({"cli/1414": [A, [A]]}, None) == [f"cli/1414  {A}"]


def test_digests_keep_the_set_digest_beside_one_per_instance():
    records = [("1",), ("2",)]
    assert answers.digests(records) == [
        answers.digest(records),
        [answers.digest(("1",)), answers.digest(("2",))]]


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


def test_commands_set_runs_every_command_and_three_failures():
    lines = answers.command_lines(8, 0)
    assert [argv[0] for argv in lines[:-3]] == list(COMMANDS)
    assert lines[-3:] == [["extreme", "missing.json", "--n", "8"],
                          ["extreme", "p.json", "--n", "8"],
                          ["extreme", "g.json", "--n", "2"]]


def test_commands_files_come_from_the_coefficients_of_g():
    g = TrigPoly(2, (1.0, 0.25 + 0.25j, 0.125))
    files = answers.instance_files(dumps(instance_to_json(g)))
    read = {name: load_instance(text) for name, text in files.items()}
    assert read["g.json"] == g
    assert read["p.json"] == Poly(g.coeffs)
    x = read["x.json"]
    assert x.n == 2 and abs(h2_norm(x) - 1.0) < 1e-15
    assert np.allclose(read["gr.json"].values, g.grid_values(64))
    assert np.allclose(read["w.json"].values, 1.0 + g.grid_values(64))
    assert abs(np.abs(read["phi.json"].values).max() - 1.0) < 1e-15
    # only the tool's own code writes them: the same text on every side
    assert files == answers.instance_files(dumps(instance_to_json(g)))


def test_near_touching_is_the_family_of_the_factor_tests():
    assert answers.near_touching(5, 555)[554] == UNMERGED_ODD_ZERO


def test_a_ten_instance_slice_digests_the_same_twice(capsys):
    # two pinned interpreters on the working tree, each with its own
    # empty bytecode cache
    argv = ["--sets", "census/1812", "commands/1414", "near_touching/5",
            "--count", "10"]
    assert answers.main(argv) == 0
    first = capsys.readouterr().out
    assert answers.main(argv) == 0
    assert capsys.readouterr().out == first
    assert [line.split()[0] for line in first.splitlines()] == [
        "census/1812", "commands/1414", "near_touching/5"]
