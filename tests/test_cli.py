import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FLAT_ORDER_80, HOLDOUT_131, MERGED_RESIDUAL,
                      NEAR_TOUCHING_64, NEAR_TOUCHING_554, UNMERGED_ODD_ZERO,
                      UNPAIRED_INSIDE_ROOT, jittered_extreme_point,
                      repeated_inside_zero_family)

import hkl
from hkl import cli, factor, geometry, jsonio, kernel, numeric, polycore
from hkl.cli import COMMANDS, build_parser, main
from hkl.factor import spectral_factor
from hkl.gen import random_boundary_modulus, random_kernel_element
from hkl.geometry import split_nonextreme
from hkl.jsonio import dumps, instance_to_json
from hkl.kernel import KernelElement
from hkl.numeric import Grid
from hkl.polycore import Poly, TrigPoly, trig_from_modulus_squared, trig_scale


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(dumps(instance_to_json(obj)) + "\n")
        return str(path)
    return write, tmp_path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_extreme_command(files, capsys):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.5)))
    code, out, _ = run(capsys, ["extreme", path, "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["tolerances"]["tol_norm"] == 1e-12


def test_split_on_extreme_exits_2(files, capsys):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.5)))
    code, out, err = run(capsys, ["split", path, "--n", "1"])
    assert code == 2
    assert "AlreadyExtreme" in err


def test_decompose_worked_instance(files, capsys):
    write, _ = files
    s = 2 / math.sqrt(5)
    path = write("f.json", KernelElement(1, Poly((-0.5 * s, s))))
    code, out, _ = run(capsys, ["decompose", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["rigid"] is False
    assert doc["checks"]["midpoint_residual"] <= 1e-10


def test_decompose_rigid(files, capsys):
    write, _ = files
    r = 1 / math.sqrt(2)
    path = write("f.json", KernelElement(1, Poly((r, r))))
    code, out, _ = run(capsys, ["decompose", path])
    assert code == 0
    assert json.loads(out)["rigid"] is True


def test_factor_and_spectral(files, capsys):
    write, _ = files
    ppath = write("p.json", Poly((-0.5, 1.25, -0.5)))
    code, out, _ = run(capsys, ["factor", ppath])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["residual_ok"] is True
    assert len(doc["inner"]["zeros"]) == 1

    gpath = write("g.json", TrigPoly(1, (1.25, -0.5)))
    code, out, _ = run(capsys, ["spectral", gpath])
    assert code == 0
    doc = json.loads(out)
    coeffs = [complex(re, im) for re, im in doc["outer"]["coeffs"]]
    assert coeffs == pytest.approx([1.0, -0.5])


def test_solutions_counts(files, capsys):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.25, -0.5)))
    code, out, _ = run(capsys, ["solutions", path, "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert all(e["residual_ok"] for e in doc["solutions"])


def test_rigidity_counterexample_free(files, capsys):
    write, _ = files
    gpath = write("g.json", TrigPoly(1, (1.0, 0.5)))
    r = 1 / math.sqrt(2)
    fpath = write("f.json", KernelElement(1, Poly((r, -r))))
    code, out, _ = run(capsys, ["rigidity", gpath, fpath, "--n", "1"])
    assert code == 0
    assert json.loads(out)["kind"] == "NOT_DOMINATED"


def test_rigidity_element_above_the_order_exits_2(files, capsys):
    # z**3 F, a kernel element of order 5, is outside the order-1 space
    write, _ = files
    g = TrigPoly(1, (1.0, 0.5))
    gpath = write("g.json", g)
    xpath = write("x.json", KernelElement(5, factor.fejer_riesz(g).shifted(3)))
    code, out, err = run(capsys, ["rigidity", gpath, xpath, "--n", "1"])
    _assert_one_error(code, out, err, 2, "BandExceeded")


def test_factor_refuses_a_poly_longer_than_a_lift_at_max_order(
        files, capsys, monkeypatch):
    # 2 MAX_ORDER + 2 coefficients: refused by the loader, before a solve
    write, _ = files
    path = write("p.json", Poly((1.0,) * (2 * jsonio.MAX_ORDER + 2)))
    monkeypatch.setattr(factor, "roots", None)
    code, out, err = run(capsys, ["factor", path])
    _assert_one_error(code, out, err, 2, "BadInput")
    assert "2050 coefficients exceed 2049" in err


def test_gen_decompose_pipeline(files, capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, ["gen", "--n", "1", "--zeros", "inside:1",
                                "--seed", "7"])
    assert code == 0
    path = tmp_path / "gen.json"
    path.write_text(out)
    code, out, _ = run(capsys, ["decompose", str(path)])
    assert code == 0
    assert json.loads(out)["rigid"] is False


def test_gen_deterministic(capsys):
    _, out1, _ = run(capsys, ["gen", "--n", "3", "--zeros",
                              "inside:1,circle:1", "--seed", "42"])
    _, out2, _ = run(capsys, ["gen", "--n", "3", "--zeros",
                              "inside:1,circle:1", "--seed", "42"])
    assert out1 == out2


def test_outer_grid_and_symbol_test(files, capsys):
    write, _ = files
    w = Grid.sample(lambda z: np.abs(1 - z / 2), 256)
    wpath = write("w.json", w)
    code, out, _ = run(capsys, ["outer-grid", wpath])
    assert code == 0
    assert json.loads(out)["checks"]["analyticity_defect"] <= 1e-8

    g = Grid.sample(lambda z: (np.abs(1 + z) ** 2 / 2).astype(complex), 256)
    phi = Grid.sample(lambda z: np.conj(z) ** 2, 256)
    gpath = write("gg.json", g)
    ppath = write("phi.json", phi)
    code, out, _ = run(capsys, ["symbol-test", ppath, gpath])
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_domination_command(files, capsys):
    write, _ = files
    r = 1 / math.sqrt(2)
    fpath = write("f.json", KernelElement(1, Poly((r, -r))))
    gpath = write("g.json", TrigPoly(1, (1.0, 0.5)))
    code, out, _ = run(capsys, ["domination", fpath, gpath])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "inputs", "flag", "value", "witness"]
    assert doc["flag"] == "DIVERGENT"
    # g = 1 + cos(theta) has its double zero at -1, where f does not vanish
    assert abs(complex(*doc["witness"]) + 1) <= 1e-12


def test_baseline_split_command(files, capsys):
    write, _ = files
    path = write("g.json", TrigPoly(0, (1.0,)))
    code, out, _ = run(capsys, ["baseline-split", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["g1"]["coeffs"]["1"] == [0.25, 0.0]


def test_csv_emission(files, capsys, tmp_path):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.5)))
    csv_path = tmp_path / "out.csv"
    code, _, _ = run(capsys, ["extreme", path, "--n", "1", "--grid", "64",
                              "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta,re,im,abs"
    assert len(lines) == 65


def test_bad_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"version": "hkl-1", "type": "poly"}')
    code, _, err = run(capsys, ["factor", str(path)])
    assert code == 2
    assert "BadInput" in err


def test_norm_and_companion(files, capsys):
    write, _ = files
    s = 2 / math.sqrt(5)
    path = write("f.json", KernelElement(1, Poly((-0.5 * s, s))))
    code, out, _ = run(capsys, ["norm", path])
    assert code == 0
    assert json.loads(out)["h2_norm"] == pytest.approx(1.0)
    code, out, _ = run(capsys, ["companion", path])
    assert code == 0
    doc = json.loads(out)
    coeffs = [complex(re, im) for re, im in doc["result"]["poly"]["coeffs"]]
    assert coeffs == pytest.approx([s, -0.5 * s])


def test_batch_mode(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    for k, c1 in enumerate((0.5, 0.25)):
        (d / f"g{k}.json").write_text(
            dumps(instance_to_json(TrigPoly(1, (1.0, c1)))) + "\n")
    code, _, _ = run(capsys, ["extreme", "--n", "1", "--batch", str(d)])
    assert code == 0
    outs = sorted(d.glob("*.extreme.out.json"))
    assert len(outs) == 2
    docs = [json.loads(p.read_text()) for p in outs]
    assert docs[0]["verdict"] is True
    assert docs[1]["verdict"] is False


def test_printed_tolerances_are_the_constants_applied(files, capsys):
    write, _ = files
    g = write("g.json", TrigPoly(1, (1.0, 0.5)))
    r = 1 / math.sqrt(2)
    grid = write("grid.json", Grid.sample(lambda z: np.abs(1 - z / 2), 16))
    applied = {
        ("factor", write("p.json", Poly((-0.5, 1.25, -0.5)))):
            {"tol_factor": cli.TOL_RESIDUAL},
        ("spectral", g): {"tol_factor": factor.TOL_SPECTRAL},
        ("extreme", g, "--n", "1"): {"tol_norm": kernel.NORM_TOL},
        ("solutions", g, "--n", "1"): {"grid_residual": cli.TOL_RESIDUAL},
        ("rigidity", g, write("f.json", KernelElement(1, Poly((r, -r)))),
         "--n", "1"): {"tol_remainder": geometry.TOL_REMAINDER},
        ("symbol-test", grid, grid): {"tol_factor": numeric.TOL_SYMBOL},
    }
    for argv, tolerances in applied.items():
        code, out, _ = run(capsys, list(argv))
        assert code == 0
        assert json.loads(out)["tolerances"] == tolerances
    # the printed round trip is the one the library accepted the factor by
    gen = random_boundary_modulus(4, 1, 1, 2, np.random.default_rng(2))
    code, out, _ = run(capsys, ["spectral", write("gen.json", gen)])
    checks = json.loads(out)["checks"]
    assert checks["modulus_residual"] == spectral_factor(gen).residual
    assert checks["residual_ok"] is True


def test_batch_rerun_skips_earlier_outputs(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    for k, c1 in enumerate((0.5, 0.25)):
        (d / f"g{k}.json").write_text(
            dumps(instance_to_json(TrigPoly(1, (1.0, c1)))) + "\n")
    code, _, err = run(capsys, ["extreme", "--n", "1", "--batch", str(d)])
    assert code == 0 and err == ""
    code, _, err = run(capsys, ["spectral", "--batch", str(d)])
    assert code == 0 and err == ""
    assert len(list(d.glob("*.spectral.out.json"))) == 2
    assert not list(d.glob("*.out.*.out.json"))


def test_batch_error_names_its_input(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "bad.json").write_text('{"version": "hkl-1", "type": "poly"}')
    code, _, err = run(capsys, ["factor", "--batch", str(d)])
    assert code == 2
    assert err.startswith(f"{d / 'bad.json'}: error: BadInput: ")


def test_seed_only_on_gen(files, capsys):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.5)))
    with pytest.raises(SystemExit):
        main(["extreme", path, "--n", "1", "--seed", "3"])


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_is_refused(files, capsys, tol):
    # no command takes a tolerance: argparse refuses --tol before any work
    write, tmp_path = files
    path = write("g.json", TrigPoly(1, (1.0, 0.25)))
    for command in ("extreme", "solutions"):
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--n", "1", "--tol", tol])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: --tol {tol}" in out.err
    d = tmp_path / "batch"
    d.mkdir()
    for k, c1 in enumerate((0.5, 0.25)):
        (d / f"g{k}.json").write_text(
            dumps(instance_to_json(TrigPoly(1, (1.0, c1)))) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["extreme", "--n", "1", "--batch", str(d), "--tol", tol])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not list(d.glob("*.out.json"))


def test_missing_input_exits_2(capsys):
    code, out, err = run(capsys, ["extreme", "--n", "1"])
    assert code == 2 and out == ""
    assert err == "error: BadInput: an input file is required\n"


@pytest.mark.parametrize("argv, kind, payload", [
    (["extreme", "--n", "1"], "trig",
     '{"n": true, "coeffs": {"0": [1.0, 0.0], "1": [0.5, 0.0]}}'),
    (["norm"], "kernel", '{"n": true, "poly": {"coeffs": [[1.0, 0.0]]}}'),
    (["factor"], "poly", '{"coeffs": [[true, false], [1.0, 0.0]]}'),
    (["spectral"], "trig",
     '{"n": 10, "coeffs": {"0": [1.0, 0.0], "1_0": [0.1, 0.0]}}'),
    pytest.param(["spectral"], "trig",
                 '{"n": 1, "coeffs": {"0": [1%s, 0]}}' % ("0" * 400),
                 id="int-beyond-float-range"),
    pytest.param(["factor"], "poly", '{"coeffs": 5}', id="coeffs-not-a-list"),
    pytest.param(["outer-grid"], "grid", '{"N": 4, "values": 5}',
                 id="values-not-a-list"),
])
def test_non_json_types_exit_2(tmp_path, capsys, argv, kind, payload):
    path = tmp_path / "x.json"
    path.write_text('{"version": "hkl-1", "type": "%s", "payload": %s}'
                    % (kind, payload))
    code, out, err = run(capsys, [argv[0], str(path)] + argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: BadInput: ")


@pytest.mark.parametrize("argv, kind, payload", [
    (["extreme", "--n", "1"], "trig",
     '{"n": 10000000000000, "coeffs": {"0": [1.0, 0.0]}}'),
    (["companion"], "kernel",
     '{"n": 10000000000000, "poly": {"coeffs": [[1.0, 0.0]]}}'),
])
def test_huge_order_in_payload_exits_2(tmp_path, capsys, argv, kind, payload):
    # refused before anything sized by the order is allocated
    path = tmp_path / "x.json"
    path.write_text('{"version": "hkl-1", "type": "%s", "payload": %s}'
                    % (kind, payload))
    code, out, err = run(capsys, [argv[0], str(path)] + argv[1:])
    assert code == 2 and out == ""
    assert err == ("error: BadInput: %s 10000000000000 exceeds 1024\n"
                   % ("band limit" if kind == "trig" else "model order"))


@pytest.mark.parametrize("command", ["extreme", "split", "solutions", "gen"])
def test_huge_order_argument_exits_2(files, capsys, command):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.25)))
    argv = [command] + ([path] if command != "gen" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "10000000000000"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --n: model order 10000000000000 exceeds 1024" in out.err


@pytest.mark.parametrize("command", ["extreme", "gen"])
def test_negative_order_argument_exits_2(files, capsys, command):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.25)))
    argv = [command] + ([path] if command != "gen" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --n: model order -1 is negative" in out.err


def test_decompose_prints_the_split_checks(files, capsys):
    # decompose splits the renormalized |f|^2 and prints the same checks,
    # the halves' extreme flags and round trip included; split echoes no
    # tolerance that it does not apply
    write, _ = files
    x = random_kernel_element(4, 1, 1, 2, np.random.default_rng(7))
    code, out, _ = run(capsys, ["decompose", write("f.json", x)])
    assert code == 0
    checks = json.loads(out)["checks"]
    g = trig_from_modulus_squared(x.f)
    g = trig_scale(g, 1.0 / g.mean)
    code, out, _ = run(capsys, ["split", write("g.json", g), "--n", "4"])
    assert code == 0
    doc = json.loads(out)
    assert checks == doc["checks"]
    assert set(checks) == {f.name for f in
                           dataclasses.fields(geometry.SplitChecks)}
    assert checks["extreme1"] and checks["extreme2"]
    assert "tolerances" not in doc


def test_split_output_does_not_depend_on_grid(files, capsys):
    # the split reads no quadrature: --grid sizes only the --csv boundary
    write, _ = files
    g = random_boundary_modulus(4, 1, 2, 1, np.random.default_rng(5))
    path = write("g.json", g)
    coarse = run(capsys, ["split", path, "--n", "4", "--grid", "64"])
    fine = run(capsys, ["split", path, "--n", "4", "--grid", "8192"])
    assert coarse[0] == 0
    assert coarse == fine
    assert "quad_points" not in json.loads(coarse[1])["conventions"]
    # the round trip the halves' factors were accepted by is printed
    assert json.loads(coarse[1])["checks"]["factor_residual"] <= 1e-12


def test_parser_is_built_once_and_reused(files, capsys):
    write, tmp_path = files
    path = write("g.json", TrigPoly(1, (1.0, 0.25)))
    assert build_parser() is build_parser()
    argv = ["extreme", path, "--n", "2"]
    env = dict(os.environ,
               PYTHONPATH=str(Path(hkl.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "hkl.cli"] + argv,
                           capture_output=True, env=env, check=True).stdout
    csv_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, argv + ["--csv", str(csv_path)])
    assert code == 0 and csv_path.exists()
    csv_path.unlink()
    code, out, _ = run(capsys, argv)
    assert code == 0 and not csv_path.exists()
    assert out.encode() == fresh
    # an argparse error leaves the next call unaffected
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.encode() == fresh


def _memo_inputs():
    """(g, w, x): an order-3 modulus with a double circle zero, the boundary
    samples w of a strictly positive modulus, and an order-3 element x."""
    rng = np.random.default_rng(5)
    g = random_boundary_modulus(3, 1, 1, 1, rng)
    w = np.sqrt(random_boundary_modulus(3, 0, 0, 3, rng).grid_values(64))
    return g, w, random_kernel_element(3, 1, 1, 1, rng)


@pytest.mark.parametrize("argv", [["spectral"], ["solutions", "--n", "3"],
                                  ["outer-grid"], ["domination"]])
def test_memoized_analysis_repeats_fresh_output(files, capsys, argv):
    # the second call in one process reads g's analysis from the memos;
    # its output is the first call's, and a fresh process's, byte for byte.
    # outer-grid (the cepstral factor of a positive modulus) keeps no memo
    # but prints bits of the numeric layer's FFTs; domination (x against g)
    # reads g's circle zeros from its record
    write, _ = files
    g, w, x = _memo_inputs()
    inputs = {"outer-grid": [write("w.json", Grid(w))],
              "domination": [write("x.json", x), write("g.json", g)]}
    argv = argv[:1] + inputs.get(argv[0], [write("g.json", g)]) + argv[1:]
    env = dict(os.environ,
               PYTHONPATH=str(Path(hkl.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "hkl.cli"] + argv,
                           capture_output=True, env=env, check=True).stdout
    for _ in range(2):
        code, out, err = run(capsys, argv)
        assert code == 0 and err == "" and out.encode() == fresh


def test_domination_pair_of_the_memo_test_is_log_divergent(files, capsys):
    # the exact multiplicity rule: g has a double zero on the circle where
    # f does not vanish, so |f| / sqrt(g) ~ 1 / |theta - t| there and the
    # integral diverges; that zero is the witness
    write, _ = files
    g, _, x = _memo_inputs()
    zeros = polycore._analysis(g).circle_zeros
    assert [m for _, m in zeros] == [2]
    zeta = complex(np.exp(1j * zeros[0][0]))
    assert abs(x.f(zeta)) > 1.0
    code, out, _ = run(capsys, ["domination", write("x.json", x),
                                write("g.json", g)])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] is None
    assert doc["witness"] == [zeta.real, zeta.imag]


def test_domination_flags_a_log_divergent_pair(files, capsys):
    write, _ = files
    g, _, x = _memo_inputs()
    code, out, _ = run(capsys, ["domination", write("x.json", x),
                                write("g.json", g)])
    assert code == 0
    assert json.loads(out)["flag"] == "DIVERGENT"


@pytest.mark.parametrize("grid", ["0", "3", "100", "-4", "x", str(2**40)])
@pytest.mark.parametrize("command", ["extreme", "split", "solutions"])
def test_bad_grid_exits_2_before_any_work(files, capsys, command, grid):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.25)))
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--n", "1", "--grid", grid])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument --grid: " in out.err


def test_grid_only_on_commands_that_read_it(capsys):
    for command, (_, arity) in COMMANDS.items():
        argv = [command] + ["x.json", "y.json"][:arity]
        if command in ("extreme", "split", "solutions", "rigidity", "gen"):
            argv += ["--n", "1"]
        if command in ("outer-grid", "symbol-test"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv + ["--grid", "8"])
            assert exc.value.code == 2
        else:
            assert build_parser().parse_args(argv + ["--grid", "8"]).grid == 8
    capsys.readouterr()


def test_boundary_is_sampled_only_for_csv(files, capsys):
    # a grid no finer than 2n cannot sample g; only --csv asks for it
    write, tmp_path = files
    path = write("g.json", TrigPoly(2, (1.0, 0.25, 0.25)))
    code, out, _ = run(capsys, ["extreme", path, "--n", "2", "--grid", "4"])
    assert code == 0 and json.loads(out)["command"] == "extreme"
    csv_path = tmp_path / "out.csv"
    code, out, err = run(capsys, ["extreme", path, "--n", "2", "--grid", "4",
                                  "--csv", str(csv_path)])
    assert code == 2 and out == "" and not csv_path.exists()
    assert err == "error: BadInput: grid too coarse for this band limit\n"
    # a CSV that cannot be written fails on the same error path
    code, out, err = run(capsys, ["extreme", path, "--n", "2", "--csv",
                                  str(tmp_path / "missing" / "out.csv")])
    assert code == 2 and out == "" and err.startswith("error: BadInput: ")


def test_csv_with_batch_exits_2(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "a.json").write_text(dumps(instance_to_json(TrigPoly(1, (1.0, 0.5)))))
    with pytest.raises(SystemExit) as exc:
        main(["extreme", "--n", "1", "--batch", str(d),
              "--csv", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --csv: not allowed with argument --batch" in out.err
    assert sorted(p.name for p in d.iterdir()) == ["a.json"]
    assert not (tmp_path / "out.csv").exists()


# the option strings of each command, as build_parser() defines them; a
# flag that a handler does not read must not come back unnoticed
_IO = {"-h", "--help", "--grid", "--csv"}
FLAGS = {
    "factor": _IO | {"--batch"},
    "spectral": _IO | {"--batch"},
    "companion": _IO | {"--batch"},
    "norm": _IO | {"--batch"},
    "baseline-split": _IO | {"--batch"},
    "extreme": _IO | {"--batch", "--n"},
    "split": _IO | {"--batch", "--n"},
    "solutions": _IO | {"--batch", "--n"},
    "decompose": _IO | {"--batch"},
    "rigidity": _IO | {"--n"},
    "outer-grid": _IO - {"--grid"} | {"--batch"},
    "symbol-test": _IO - {"--grid"},
    "domination": _IO,
    "gen": _IO | {"--n", "--zeros", "--emit", "--seed"},
}


def test_each_command_takes_its_pinned_flags(capsys):
    assert {command: set(_subparser(command)._option_string_actions)
            for command in COMMANDS} == FLAGS
    for command, (_, arity) in COMMANDS.items():
        argv = [command] + ["x.json", "y.json"][:arity]
        if "--n" in FLAGS[command]:
            argv += ["--n", "1"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


def test_overflowing_coefficients_raise_root_overflow(files):
    # the quadratic formula overflows: the root engine must say so itself,
    # once, without numpy warnings and without blaming the boundary grid
    write, _ = files
    path = write("big.json", Poly((1e308, 1e308, 1e308)))
    env = dict(os.environ,
               PYTHONPATH=str(Path(hkl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hkl.cli", "factor", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: RootOverflow: ")
    assert len(proc.stderr.splitlines()) == 1


def test_extreme_coefficient_ratio_exits_3(files, capsys):
    # the companion matrix of this cubic is not finite; the solve must fail
    # as the library's own error, not as numpy's LinAlgError (a ValueError,
    # which would be reported as the caller's bad input)
    write, _ = files
    path = write("tiny.json", Poly((1, 2, 3, 1e-310)))
    code, out, err = run(capsys, ["factor", path])
    assert code == 3 and out == ""
    assert err.startswith("error: RootOverflow: ")


def test_overflowing_reconstruction_raises_root_overflow(files):
    # the roots are finite (sixth roots of unity but 1); the reconstruction
    # on the circle overflows, which is the arithmetic's fault, not the input's
    write, _ = files
    path = write("big.json", Poly((1e308,) * 6))
    env = dict(os.environ,
               PYTHONPATH=str(Path(hkl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hkl.cli", "factor", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: RootOverflow: ")
    assert len(proc.stderr.splitlines()) == 1


def test_spectral_residual_is_relative_to_the_modulus(files, capsys):
    write, _ = files
    path = write("big.json", TrigPoly(2, (1e308, 1e307, 1e307)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["spectral", path])
    assert code == 0 and err == ""
    checks = json.loads(out)["checks"]
    assert checks["residual_ok"] is True
    assert checks["modulus_residual"] <= 1e-14


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e8])
def test_factor_and_solutions_residuals_are_relative_to_the_input(
        files, capsys, scale):
    # the residuals on the grid are judged over s = max(1, max |c_k|), as
    # the spectral round trip is, so a large input is not flagged for the
    # rounding of its own size
    write, _ = files
    x = random_kernel_element(4, 1, 1, 2, np.random.default_rng(4))
    code, out, _ = run(capsys, ["factor",
                                write("p.json", x.f.scaled(scale))])
    assert code == 0
    assert json.loads(out)["checks"]["residual_ok"] is True
    g = trig_scale(trig_from_modulus_squared(x.f), scale)
    code, out, _ = run(capsys, ["solutions", write("g.json", g), "--n", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8
    assert all(e["residual_ok"] for e in doc["solutions"])


def test_spectral_factors_a_merged_root_modulus(files, capsys):
    write, _ = files
    path = write("g.json", MERGED_RESIDUAL)
    code, out, err = run(capsys, ["spectral", path])
    assert code == 0 and err == ""
    assert json.loads(out)["checks"]["residual_ok"] is True
    code, out, err = run(capsys, ["extreme", path, "--n", "1"])
    assert code == 0 and err == ""


def test_spectral_unpaired_odd_circle_zero_exits_3(files, capsys):
    # a nonnegative input the library fails to factor is not bad input
    write, _ = files
    path = write("g.json", UNMERGED_ODD_ZERO)
    code, out, err = run(capsys, ["spectral", path])
    assert code == 3 and out == ""
    assert err.startswith("error: PairingFailure: ")


def test_spectral_factors_holdout_131_split_half(files, capsys):
    write, _ = files
    path = write("g1.json", split_nonextreme(HOLDOUT_131, 10).g1)
    code, out, err = run(capsys, ["spectral", path])
    assert code == 0 and err == ""
    assert json.loads(out)["checks"]["residual_ok"] is True


# ---------------------------------------------------------------------------
# one error path: every failure after parsing is an exit code and one line
# ---------------------------------------------------------------------------

def _assert_one_error(code, out, err, expected_code, name):
    assert code == expected_code and out == ""
    assert err.startswith(f"error: {name}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("g, name", [(NEAR_TOUCHING_64, "SelfCheckFailed"),
                                     (NEAR_TOUCHING_554, "PairingFailure")])
def test_split_failing_its_own_halves_exits_3(files, capsys, g, name):
    # nonnegative inputs whose halves the library cannot carry: its own
    # failure, never the caller's
    write, _ = files
    path = write("g.json", g)
    _assert_one_error(*run(capsys, ["split", path, "--n", str(g.n)]), 3, name)


def test_norm_out_of_double_range_exits_3(tmp_path, capsys):
    # the H2 norm of 1e200 + 1e200 z is inf; serializing it is the
    # arithmetic's failure, not the caller's
    path = tmp_path / "k.json"
    path.write_text('{"version": "hkl-1", "type": "kernel", "payload": '
                    '{"n": 1, "poly": {"coeffs": [[1e200, 0], [1e200, 0]]}}}')
    _assert_one_error(*run(capsys, ["norm", str(path)]), 3, "RootOverflow")


def test_domination_prints_an_infinite_estimate_as_null(files, capsys):
    # g = 1 - cos(theta - pi/16) has a double zero at pi/16 where f = 1
    # does not vanish: the integral is inf, printed as a null value, and
    # the witness is e^{i pi/16}
    write, _ = files
    fpath = write("f.json", KernelElement(0, Poly((1.0,))))
    gpath = write("g.json", TrigPoly(1, (1.0, -0.5 * np.exp(-1j * np.pi / 16))))
    code, out, err = run(capsys, ["domination", fpath, gpath])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["flag"] == "DIVERGENT" and doc["value"] is None
    zeta = np.exp(1j * np.pi / 16)
    assert abs(complex(*doc["witness"]) - zeta) <= 1e-12


def test_batch_output_that_cannot_be_written_names_its_input(tmp_path,
                                                              capsys):
    d = tmp_path / "batch"
    d.mkdir()
    for name in ("a.json", "b.json"):
        (d / name).write_text(
            dumps(instance_to_json(TrigPoly(1, (1.0, 0.5)))) + "\n")
    (d / "a.extreme.out.json").mkdir()
    code, out, err = run(capsys, ["extreme", "--n", "1", "--batch", str(d)])
    assert code == 2 and out == ""
    assert err.startswith(f"{d / 'a.json'}: error: BadInput: ")
    assert len(err.splitlines()) == 1
    # every other input is still processed
    assert json.loads((d / "b.extreme.out.json").read_text())["verdict"]


def test_empty_batch_directory_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, ["extreme", "--n", "1", "--batch",
                                  str(tmp_path)])
    assert code == 2 and out == ""
    assert err == f"error: BadInput: no *.json files in {tmp_path}\n"


def test_gen_zeros_that_cannot_be_placed_exit_2(capsys):
    code, out, err = run(capsys, ["gen", "--n", "100", "--zeros",
                                  "circle:100"])
    _assert_one_error(code, out, err, 2, "BadInput")


@pytest.mark.parametrize("zeros", ["inside:-2", "circle:-1,outside:1",
                                   "inside:1,inside:1"])
def test_gen_negative_or_repeated_count_exits_2(capsys, zeros):
    code, out, err = run(capsys, ["gen", "--n", "3", "--zeros", zeros])
    _assert_one_error(code, out, err, 2, "BadInput")


def test_deeply_nested_input_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, ["spectral", str(path)])
    _assert_one_error(code, out, err, 2, "BadInput")


def test_spectral_factor_that_misses_g_exits_3(files, capsys):
    # near-touching #206 of seed 9: the factor built without the lift's
    # unpaired inside double root misses g by 0.64 in its round trip, which
    # the library refuses
    write, _ = files
    path = write("g.json", UNPAIRED_INSIDE_ROOT)
    code, out, err = run(capsys, ["spectral", path])
    _assert_one_error(code, out, err, 3, "SelfCheckFailed")


def test_solutions_that_do_not_multiply_exit_3(files, capsys):
    # member #149 of the repeated-inside-zero family (m = 5, 3 outside
    # zeros): the lift's 5-fold zero comes back scattered, so F times an
    # inner divisor is no polynomial.  F and J are the library's own, so
    # that is its failure (exit 3), not the caller's NotDivisible (exit 2)
    write, _ = files
    f, m, _ = repeated_inside_zero_family(150, 18)[149]
    assert m == 5
    path = write("g.json", trig_from_modulus_squared(f))
    code, out, err = run(capsys, ["solutions", path, "--n", "8"])
    _assert_one_error(code, out, err, 3, "SelfCheckFailed")


@pytest.mark.parametrize("g", [jittered_extreme_point(48, 48)[1],
                               jittered_extreme_point(64, 64)[1],
                               FLAT_ORDER_80], ids=["48", "64", "flat80"])
def test_spectral_factors_high_orders(files, capsys, g):
    # extreme points with 48 and 64 circle zeros and a flat g of order 80,
    # whose factors by chained convolution missed g and exited 3
    write, _ = files
    path = write("g.json", g)
    code, out, err = run(capsys, ["spectral", path])
    assert code == 0 and err == ""
    assert json.loads(out)["checks"]["residual_ok"] is True


def test_rigidity_counterexample_exits_3(files, capsys, monkeypatch):
    # with g's circle zero moved from -1 to 1, where f vanishes, a kernel
    # element that is not dominated looks like a counterexample: the
    # library's own failure, one error line
    write, _ = files
    g = TrigPoly(1, (1.0, 0.5))
    gpath = write("g.json", g)
    r = 1 / math.sqrt(2)
    fpath = write("f.json", KernelElement(1, Poly((r, -r))))
    # moved once g's factor is built with it
    factor.fejer_riesz(g)
    monkeypatch.setattr(polycore._analysis(g), "circle_zeros", ((0.0, 2),))
    code, out, err = run(capsys, ["rigidity", gpath, fpath, "--n", "1"])
    _assert_one_error(code, out, err, 3, "SelfCheckFailed")


def test_rigidity_modulus_above_the_order_exits_2(files, capsys):
    # g of band 2 has no lift at order 1: the caller's input
    write, _ = files
    gpath = write("g.json", TrigPoly(2, (1.0, 0.0, 0.3)))
    fpath = write("f.json", KernelElement(1, Poly((0.5,))))
    code, out, err = run(capsys, ["rigidity", gpath, fpath, "--n", "1"])
    _assert_one_error(code, out, err, 2, "BandExceeded")


# argv-level fuzz: every command line either fails in argparse (exit 2) or
# ends with 0, 2 or 3 and, on a failure, only error lines on stderr

# the instance type of each positional argument
_POSITIONALS = {
    "factor": ("poly",), "spectral": ("trig",), "companion": ("kernel",),
    "norm": ("kernel",), "extreme": ("trig",), "split": ("trig",),
    "decompose": ("kernel",), "solutions": ("trig",),
    "rigidity": ("trig", "kernel"), "outer-grid": ("grid",),
    "symbol-test": ("grid", "grid"), "domination": ("kernel", "trig"),
    "gen": (), "baseline-split": ("trig",),
}
# (good values, bad values) of each flag
_FUZZ_FLAGS = {
    "--n": (["1", "2", "3", "12"], ["-1", "0", "x", "2000"]),
    "--grid": (["8", "64", "4096"], ["4", "3", "0", "x"]),
    "--zeros": (["", "inside:1", "circle:1,outside:1", "circle:2"],
                ["circle:12", "inside:-1", "inside:1,inside:1", "bogus:1",
                 "circle:x"]),
    "--emit": (["kernel", "trig"], ["x"]),
    "--seed": (["0", "7"], ["x"]),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """(good input files by type, bad input files, good and bad values of
    --csv and --batch)."""
    root = tmp_path_factory.mktemp("fuzz")

    def write(name, text):
        path = root / name
        path.write_text(text)
        return str(path)

    def instance(name, obj):
        return write(name, dumps(instance_to_json(obj)) + "\n")

    r = 1 / math.sqrt(2)
    good = {
        "trig": [instance("extreme.json", TrigPoly(1, (1.0, 0.5))),
                 instance("split.json", TrigPoly(1, (1.0, 0.25))),
                 instance("trig2.json", TrigPoly(2, (1.0, 0.25, 0.25)))],
        "kernel": [instance("kernel.json", KernelElement(1, Poly((r, -r))))],
        "poly": [instance("poly.json", Poly((-0.5, 1.25, -0.5)))],
        "grid": [instance("grid.json",
                          Grid.sample(lambda z: np.abs(1 - z / 2), 16))],
    }
    bad = [
        instance("negative.json", TrigPoly(1, (0.1, 0.5))),
        instance("huge_trig.json", TrigPoly(1, (1e300, 4e299))),
        write("huge_kernel.json",
              '{"version": "hkl-1", "type": "kernel", "payload": {"n": 1, '
              '"poly": {"coeffs": [[1e200, 0], [1e200, 0]]}}}'),
        write("malformed.json", '{"version": "hkl-1", "type": '),
        write("deep.json", "[" * 100_000),
        str(root / "missing.json"),
    ] + [path for paths in good.values() for path in paths]
    batches = []
    for k, names in enumerate([("extreme.json", "split.json"),
                               ("kernel.json", "poly.json"), (),
                               ("extreme.json", "malformed.json")]):
        d = root / f"batch{k}"
        d.mkdir()
        for name in names:
            (d / name).write_text((root / name).read_text())
        batches.append(str(d))
    # an output path that is a directory
    Path(batches[3], "extreme.extreme.out.json").mkdir()
    (root / "csvdir").mkdir()
    paths = {"--csv": ([str(root / "out.csv")],
                       [str(root / "missing" / "out.csv"),
                        str(root / "csvdir")]),
             "--batch": (batches[:2], batches[2:] + [str(root / "none")])}
    return good, bad, paths


def _subparser(command: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _good_or_bad(data, good, bad):
    """Three draws in four from the good values."""
    if bad and data.draw(st.integers(0, 3)) == 0:
        return data.draw(st.sampled_from(bad))
    return data.draw(st.sampled_from(good))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_argv_fuzz_exits_0_2_or_3_with_one_error_line(fuzz_files, data):
    good, bad, paths = fuzz_files
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    kinds = _POSITIONALS[command]
    count = data.draw(st.sampled_from([len(kinds)] * 3 + [0]))
    argv = [command] + [_good_or_bad(data, good[k], bad)
                        for k in kinds[:count]]
    values = dict(_FUZZ_FLAGS, **paths)
    # mostly the flags this command takes, --n always where it needs it;
    # sometimes one it does not take
    takes = sorted(f for f in _subparser(command)._option_string_actions
                   if f in values)
    flags = data.draw(st.lists(st.sampled_from(takes), unique=True,
                               max_size=3))
    if "--n" in takes and "--n" not in flags:
        flags.append("--n")
    if data.draw(st.integers(0, 9)) == 0:
        flags.append(data.draw(st.sampled_from(sorted(values))))
    for flag in flags:
        argv += [flag, _good_or_bad(data, *values[flag])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refused the command line
            assert exc.code == 2 and out.getvalue() == ""
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
        return
    assert out == ""
    lines = err.splitlines()
    assert lines and all(re.match(r"(.*: )?error: \w+: ", ln) for ln in lines)
    if "--batch" not in argv:
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("grid", [4, 16, 4096])
def test_solutions_residual_is_the_grid_maximum(files, capsys, grid):
    # the residual is max | |f|^2 - g | over exp(2 pi i j / grid), by FFT;
    # a 4-point grid is coarser than g's band and than each factor's degree
    write, _ = files
    g = random_boundary_modulus(8, 3, 2, 3, np.random.default_rng(3))
    path = write("g.json", g)
    code, out, _ = run(capsys, ["solutions", path, "--n", "8",
                                "--grid", str(grid)])
    assert code == 0
    doc = json.loads(out)
    assert g.n == 8 and doc["count"] == len(doc["solutions"]) == 64
    theta = 2.0 * np.pi * np.arange(grid) / grid
    gv = g.values(theta)
    for entry in doc["solutions"]:
        f = Poly(tuple(complex(re, im) for re, im
                       in entry["element"]["poly"]["coeffs"]))
        assert f.degree == 8
        direct = float(np.abs(np.abs(f(np.exp(1j * theta))) ** 2 - gv).max())
        assert abs(entry["modulus_residual"] - direct) <= 1e-14
        assert entry["residual_ok"] == (direct <= 1e-9)


def _circle_values_one_by_one(polys, size):
    """Each p's values by its own inverse FFT of its coefficients folded
    onto size slots."""
    rows = []
    for p in polys:
        c = p.as_array()
        folds = -(-len(c) // size)
        padded = np.zeros(folds * size, dtype=complex)
        padded[:len(c)] = c
        rows.append(np.fft.ifft(padded.reshape(folds, size).sum(axis=0),
                                norm="forward"))
    return np.array(rows)


@pytest.mark.parametrize("grid", [4, 16, 4096])
def test_solutions_batched_residuals_match_one_by_one(files, capsys,
                                                      monkeypatch, grid):
    # the residuals of all elements come from one batched inverse FFT; the
    # output is byte for byte that of one FFT per element.  g has band 6 at
    # n = 8, so the elements have degrees 6 to 8 and a 4-point grid folds
    # them differently
    write, _ = files
    g = random_boundary_modulus(6, 2, 2, 2, np.random.default_rng(5))
    path = write("g.json", g)
    argv = ["solutions", path, "--n", "8", "--grid", str(grid)]
    code, batched, _ = run(capsys, argv)
    assert code == 0 and json.loads(batched)["count"] == 3 * 2 ** 4
    monkeypatch.setattr(cli, "_circle_values", _circle_values_one_by_one)
    code, one_by_one, _ = run(capsys, argv)
    assert code == 0 and batched == one_by_one
