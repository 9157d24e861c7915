import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hkl
from hkl.cli import COMMANDS, build_parser, main
from hkl.jsonio import dumps, instance_to_json
from hkl.kernel import KernelElement
from hkl.numeric import Grid
from hkl.polycore import Poly, TrigPoly


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
    assert json.loads(out)["flag"] == "DIVERGENT"


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


def test_tol_override_echoed(files, capsys):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.5)))
    code, out, _ = run(capsys, ["extreme", path, "--n", "1",
                                "--tol", "1e-9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["tolerances"]["override"] == 1e-9
    assert doc["tolerances"]["tol_norm"] == 1e-9


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
def test_tol_must_be_finite_and_nonnegative(files, capsys, tol):
    write, tmp_path = files
    path = write("g.json", TrigPoly(1, (1.0, 0.25)))
    for command in ("extreme", "solutions"):
        code, out, err = run(capsys, [command, path, "--n", "1",
                                      "--tol", tol])
        assert code == 2 and out == ""
        assert err.startswith("error: BadInput: --tol must be finite")
    d = tmp_path / "batch"
    d.mkdir()
    for k, c1 in enumerate((0.5, 0.25)):
        (d / f"g{k}.json").write_text(
            dumps(instance_to_json(TrigPoly(1, (1.0, c1)))) + "\n")
    code, out, err = run(capsys, ["extreme", "--n", "1", "--batch", str(d),
                                  "--tol", tol])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert all(": error: BadInput: --tol must be finite" in ln
               for ln in lines)
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


def test_split_echoes_fixed_tolerances(files, capsys):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.25)))
    code, out, _ = run(capsys, ["split", path, "--n", "1"])
    assert code == 0
    assert json.loads(out)["tolerances"] == {
        "midpoint": 1e-10, "norms": 1e-10, "distinctness": 1e-9}


def test_parser_is_built_once_and_reused(files, capsys):
    write, _ = files
    path = write("g.json", TrigPoly(1, (1.0, 0.25)))
    assert build_parser() is build_parser()
    argv = ["extreme", path, "--n", "2"]
    env = dict(os.environ,
               PYTHONPATH=str(Path(hkl.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "hkl.cli"] + argv,
                           capture_output=True, env=env, check=True).stdout
    code, out, _ = run(capsys, argv + ["--tol", "1e-3"])
    assert code == 0 and '"override"' in out
    code, out, _ = run(capsys, argv)
    assert code == 0 and '"override"' not in out
    assert out.encode() == fresh
    # an argparse error leaves the next call unaffected
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.encode() == fresh


READS_TOL = ("factor", "spectral", "extreme", "solutions", "rigidity",
             "symbol-test")


def test_tol_only_on_commands_that_read_it(files, capsys):
    for command, (_, arity) in COMMANDS.items():
        argv = [command] + ["x.json", "y.json"][:arity]
        if command in ("extreme", "split", "solutions", "rigidity", "gen"):
            argv += ["--n", "1"]
        if command in READS_TOL:
            assert build_parser().parse_args(argv + ["--tol", "1e-3"]).tol \
                == 1e-3
        else:
            assert not hasattr(build_parser().parse_args(argv), "tol")
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv + ["--tol", "1e-3"])
            assert exc.value.code == 2
    capsys.readouterr()

    write, _ = files
    path = write("k.json", KernelElement(1, Poly((0.6, 0.8))))
    with pytest.raises(SystemExit) as exc:
        main(["norm", path, "--tol", "nan"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --tol nan" in out.err


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
