import argparse
import ast
import io
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import fracdelay
from conftest import FIXTURES
from test_kernels import exact_l1
from fracdelay.certificates import DEFAULT_DELTA_GRID
from fracdelay.cli import _RUNNERS, build_parser, dump_json, main
from fracdelay.kernels import Kernels
from fracdelay.system import load_problem


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestJsonEmitter:
    def test_scalar_types(self):
        assert dump_json(None) == "null"
        assert dump_json(True) == "true"
        assert dump_json(3) == "3"
        assert dump_json(0.1) == "0.1"
        assert dump_json(float("inf")) == "Infinity"

    def test_non_finite_floats(self):
        assert dump_json(float("nan")) == "NaN"
        assert dump_json([-math.inf, math.inf]) == (
            "[\n  -Infinity,\n  Infinity\n]")

    def test_empty_containers(self):
        assert dump_json({"grid": [], "bounds": {}}) == (
            '{\n  "grid": [],\n  "bounds": {}\n}')

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            dump_json({"x": {1, 2}})

    def test_fifteen_digits(self):
        assert dump_json(1 / 3) == "0.333333333333333"

    def test_key_order_preserved(self):
        assert dump_json({"b": 1, "a": 2}).index('"b"') < \
            dump_json({"b": 1, "a": 2}).index('"a"')


class TestCommands:
    def test_certify_contractive_exit_zero(self):
        code, out = run_cli("certify", "--problem",
                            f"{FIXTURES}/scalar_contractive.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "ContractiveGAS"
        assert doc["bounds"] is None

    def test_certify_inconclusive_exit_two(self):
        code, out = run_cli("certify", "--problem",
                            f"{FIXTURES}/scalar_inconclusive.json")
        assert code == 2
        assert json.loads(out)["verdict"] == "Inconclusive"

    def test_certify_delay_free_includes_bounds(self):
        code, out = run_cli("certify", "--problem",
                            f"{FIXTURES}/exp_decay.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bounds"]["K1"] == pytest.approx(1.0, abs=1e-6)

    def test_simulate_writes_artifacts(self, tmp_path):
        code, out = run_cli("simulate", "--problem",
                            f"{FIXTURES}/exp_decay.json",
                            "--step", "0.001", "--horizon", "1",
                            "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["final_state"][0] == pytest.approx(np.exp(-1), abs=1e-4)
        csv = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert csv[0] == "t,x1"
        assert float(csv[-1].split(",")[1]) == pytest.approx(np.exp(-1),
                                                             abs=1e-4)
        assert (tmp_path / "summary.json").exists()

    def test_spectral_verdict(self):
        code, out = run_cli("spectral", "--problem",
                            f"{FIXTURES}/spectral_t34.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "GloballyAsymptoticallyStable"
        assert doc["composite_norm"] == pytest.approx(0.5, abs=1e-10)

    def test_ml_values(self):
        code, out = run_cli("ml", "--problem", f"{FIXTURES}/frac_nodelay.json",
                            "--t", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["phi_j"][0][0][0] == pytest.approx(0.4275836, abs=5e-8)

    @pytest.mark.parametrize("t", [0.7, 0.0])
    def test_ml_is_one_pass(self, monkeypatch, t):
        # E_{a,j+1} serves "E" and "phi_j", E_{a,a} "phi": one pass over
        # the betas, with the values of the kernels' own methods
        passes = []
        e_ml_each = Kernels.e_ml_each

        def counted(self, betas, ts):
            passes.append(list(betas))
            return e_ml_each(self, betas, ts)

        monkeypatch.setattr(Kernels, "e_ml_each", counted)
        path = f"{FIXTURES}/frac_nodelay.json"
        code, out = run_cli("ml", "--problem", path, "--t", str(t),
                            "--beta", "1.5")
        assert code == 0
        monkeypatch.undo()
        prob = load_problem(path)
        alpha, k = prob.system.alpha, prob.system.k
        assert passes == [[j + 1 for j in range(k)] + [alpha, 1.5]]
        ker = Kernels(alpha, prob.system.kernel_matrix)
        ts = np.array([t])
        expect = {
            "alpha": alpha, "t": t,
            "phi_j": [ker.phi_j(j, ts)[0].tolist() for j in range(k)],
            "phi": (ker.phi(ts)[0].tolist() if t != 0 or alpha >= 1
                    else None),
            "E": {str(j + 1): ker.e_ml(j + 1, ts)[0].tolist()
                  for j in range(k)},
            "E_beta": ker.e_ml(1.5, ts)[0].tolist()}
        assert out.strip() == dump_json(expect).strip()

    @pytest.mark.parametrize("t", ["nan", "inf", "-0.5"])
    def test_ml_refuses_times_outside_the_half_line(self, capsys, t):
        # refused before any evaluation: no RuntimeWarning, no overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli("ml", "--problem",
                                f"{FIXTURES}/frac_nodelay.json", "--t", t)
        assert code == 1 and out == ""
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "t must be nonnegative and finite"}

    def test_verify_bounds(self):
        code, out = run_cli("verify-bounds", "--problem",
                            f"{FIXTURES}/frac_nodelay.json")
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_missing_file_is_error(self, capsys):
        code, _ = run_cli("certify", "--problem", "/nonexistent.json")
        assert code == 1

    def test_infinite_delta_is_error(self, capsys):
        # the spec is checked before np.geomspace sees it: no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli("certify", "--problem",
                                f"{FIXTURES}/scalar_contractive.json",
                                "--delta-grid", "1,inf,3")
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        doc, end = json.JSONDecoder().raw_decode(err)
        assert err[end:] == "\n"
        assert doc == {"error": "FracDelayError",
                       "message": "argument error: --delta-grid '1,inf,3' is "
                                  "not MIN,MAX,COUNT with finite positive "
                                  "ends and an integer count >= 1"}

    @pytest.mark.parametrize("spec", ["1,2", "1,2,3,4", "a,2,3", "0,2,3",
                                      "1,nan,3", "1,2,0", "1,2,2.5"])
    def test_malformed_delta_grid_is_error(self, capsys, spec):
        code, out = run_cli("certify", "--problem",
                            f"{FIXTURES}/scalar_contractive.json",
                            "--delta-grid", spec)
        assert code == 1 and out == ""
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith(f"argument error: --delta-grid "
                                         f"{spec!r}")

    @pytest.mark.parametrize("command", ["verify-bounds"])
    @pytest.mark.parametrize("grid", ["0.5,nan", "0.5,inf", "-inf,0.5"])
    def test_non_finite_t_grid_is_error(self, capsys, command, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(command, "--problem",
                                f"{FIXTURES}/frac_delay_a07.json",
                                f"--t-grid={grid}")
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        doc, end = json.JSONDecoder().raw_decode(err)
        assert err[end:] == "\n"
        assert doc["error"] == "ValueError" and "t_grid" in doc["message"]

    def test_negative_t_grid_needs_no_equals_sign(self, capsys):
        # both spellings reach verify_lemma22's check, not argparse's
        argv = ("verify-bounds", "--problem",
                f"{FIXTURES}/frac_delay_a07.json")
        results = []
        for grid in (["--t-grid=-0.5,0.5"], ["--t-grid", "-0.5,0.5"]):
            results.append((run_cli(*argv, *grid),
                            json.loads(capsys.readouterr().err)))
        assert results[0] == results[1] == (
            (1, ""), {"error": "ValueError",
                      "message": "t_grid must be finite and strictly "
                                 "positive"})

    def test_malformed_problem_is_error(self, capsys, tmp_path):
        path = tmp_path / "three_matrices.json"
        path.write_text(json.dumps({
            "alpha": 0.8, "delays": [0.0, 1.0],
            "A": [[[-1.0]], [[0.1]], [[0.1]]],
            "phi": [{"times": [-1.0], "values": [[1.0]], "interp": "const"}],
        }))
        code, out = run_cli("certify", "--problem", str(path))
        assert code == 1 and out == ""
        assert json.loads(capsys.readouterr().err) == {
            "error": "DimensionMismatch",
            "message": "3 constant matrices for 2 delays"}

    def test_certify_takes_no_window_starts(self, capsys):
        code, out = run_cli("certify", "--problem",
                            f"{FIXTURES}/frac_delay_a07.json",
                            "--t-grid", "1,2")
        assert code == 1 and out == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FracDelayError"
        assert "argument error" in err["message"]
        assert "--t-grid" in err["message"]

    def test_negative_verify_bounds_t_grid_is_error(self, capsys):
        code, out = run_cli("verify-bounds", "--problem",
                            f"{FIXTURES}/frac_delay_a07.json",
                            "--t-grid", "-1,2")
        assert code == 1 and out == ""
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "t_grid must be finite and strictly positive"}

    def test_low_order_delay_free_bounds(self, tmp_path):
        # alpha 0.3, below the doubling loop's reach: K1 = 1/|A0| exactly
        path = tmp_path / "low_order.json"
        path.write_text(json.dumps({
            "alpha": 0.3, "delays": [0.0], "A": [[[-2.0]]],
            "phi": [{"times": [0.0], "values": [[1.0]], "interp": "const"}],
        }))
        code, out = run_cli("certify", "--problem", str(path))
        assert code == 0
        bounds = json.loads(out)["bounds"]
        assert bounds["K1"] == 0.5
        assert bounds["verdict"] == "GloballyAsymptoticallyStable"

    def test_growing_delay_free_kernel_reports_bounds_error(self, tmp_path):
        # alpha 0.8, A0 = 0.5 > 0: phi grows, so the delay-free bounds have
        # no finite L1 and the report carries the error instead
        path = tmp_path / "growing.json"
        path.write_text(json.dumps({
            "alpha": 0.8, "delays": [0.0], "A": [[[0.5]]],
            "phi": [{"times": [0.0], "values": [[1.0]], "interp": "const"}],
        }))
        code, out = run_cli("certify", "--problem", str(path))
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "Inconclusive"
        assert doc["bounds"] == {
            "error": "phi is not integrable: A0 has a zero eigenvalue or "
                     "one with |arg| <= alpha pi / 2"}

    def test_high_order_block_in_report(self, tmp_path):
        # alpha 2.2: phi_0 = phi_1 = 0 and |a1| = 0.1 below the threshold 1
        # pass both diagnostics, yet every kernel grows: the march (step
        # 0.01) grows from 2.2 on [0, 5] to 454 on [55, 60]
        zero = {"times": [-1.0], "values": [[0.0]], "interp": "const"}
        path = tmp_path / "high_order.json"
        path.write_text(json.dumps({
            "alpha": 2.2, "delays": [0.0, 1.0], "A": [[[-1.0]], [[0.1]]],
            "phi": [zero, zero,
                    {"times": [-1.0], "values": [[1.0]], "interp": "const"}],
        }))
        code, out = run_cli("certify", "--problem", str(path),
                            "--delta-grid", "0.5,2,3")
        doc = json.loads(out)
        assert code == 2 and doc["verdict"] == "Inconclusive"
        assert doc["high_order"] == {
            "verdict": "Inconclusive", "zeroing_holds": True,
            "spectral_passes": True, "composite_norm": 0.1, "threshold": 1}
        prob = load_problem(str(path))
        traj = fracdelay.solve_trajectory(
            prob, fracdelay.align_grid(0.01, 60.0, prob.system.delays))
        x = np.abs(traj.states[:, 0])
        assert x[traj.times <= 5.0].max() == pytest.approx(2.196, abs=1e-3)
        assert x[traj.times >= 55.0].max() > 450.0

    def test_kernel_near_order_two_gets_a_report(self, tmp_path):
        # alpha 1.95: |phi| kinks at each zero of a slowly decaying
        # oscillation, and a quadrature segment holding kinks stalls (here
        # on [31.6, 46.4]).  The grid's minimum is 0.431, but the load
        # q = K1 a1 is 2.71, so the verdict is Inconclusive.
        alpha, a0, a1 = 1.95, -0.5975, 0.1
        path = tmp_path / "near_order_two.json"
        path.write_text(json.dumps({
            "alpha": alpha, "delays": [0.0, 0.5], "A": [[[a0]], [[a1]]],
            "phi": [{"times": [-0.5], "values": [[1.0]], "interp": "const"},
                    {"times": [-0.5], "values": [[0.0]], "interp": "const"}],
        }))
        code, out = run_cli("certify", "--problem", str(path))
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "Inconclusive"
        grid = doc["grid"]
        deltas = np.array(DEFAULT_DELTA_GRID)
        # the report prints 15 significant digits
        np.testing.assert_allclose([entry["delta"] for entry in grid], deltas,
                                   rtol=1e-14)
        # g = |phi_0 + phi_1|(delta) + a1 L1(delta), with no lag-0 load
        ker = Kernels(alpha, np.array([[a0]]))
        phi_sum = np.abs(ker.phi_j(0, deltas) + ker.phi_j(1, deltas))[:, 0, 0]
        l1 = (np.array([entry["value"] for entry in grid]) - phi_sum) / a1
        ref, zeros = exact_l1(alpha, a0, tuple(DEFAULT_DELTA_GRID))
        assert zeros.size > 10
        np.testing.assert_allclose(l1, ref, rtol=1e-9)

    def test_nan_table_sample_is_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "alpha": 0.8, "delays": [0.0, 1.0], "A": [[[-1.0]], [[0.1]]],
            "A_tilde": [{"times": [0.0, 1.0, 2.0],
                         "values": [[[0.1]], [[float("nan")]], [[0.1]]]},
                        None],
            "phi": [{"times": [-1.0], "values": [[1.0]], "interp": "const"}],
        }))
        assert "NaN" in path.read_text()
        assert run_cli("certify", "--problem", str(path)) == (1, "")
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "table sample times and values must be finite"}

    def test_invalid_problem_is_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alpha": 1.0, "delays": [0.0, 1.0, 1.0],
            "A": [[[-1.0]], [[0.5]], [[0.5]]],
            "phi": [{"times": [-1.0], "values": [[1.0]], "interp": "const"}],
        }))
        code, _ = run_cli("certify", "--problem", str(bad))
        assert code == 1

    def test_dump_normalized_round_trip(self, tmp_path):
        code, out = run_cli("certify", "--problem",
                            f"{FIXTURES}/scalar_contractive.json",
                            "--dump-normalized")
        assert code == 0
        doc = json.loads(out)
        echo = tmp_path / "echo.json"
        echo.write_text(out)
        code2, out2 = run_cli("certify", "--problem", str(echo),
                              "--dump-normalized")
        assert code2 == 0
        assert out == out2


    @pytest.mark.parametrize("control", [
        {"type": "feedback", "gains": [{"matrix": [[-0.5]], "bound": 0.75},
                                       {"matrix": [[0.1]]}]},
        {"type": "open_loop",
         "u": {"times": [0.0, 1.0, 2.0], "values": [[1.0], [0.5], [0.0]]}},
    ], ids=["feedback", "open_loop"])
    def test_dump_normalized_round_trip_with_control(self, tmp_path, control):
        path = tmp_path / "controlled.json"
        path.write_text(json.dumps({
            "alpha": 0.8, "delays": [0.0, 1.0], "A": [[[-1.0]], [[0.2]]],
            "B": [[1.0]],
            "phi": [{"times": [-1.0], "values": [[1.0]], "interp": "const"}],
            "control": control,
        }))
        code, out = run_cli("certify", "--problem", str(path),
                            "--dump-normalized")
        assert code == 0
        doc = json.loads(out)["control"]
        assert doc["type"] == control["type"]
        if control["type"] == "feedback":
            # a gain without a declared bound is bounded by its own norm
            assert [g["bound"] for g in doc["gains"]] == [0.75, 0.1]
        else:
            assert doc["u"]["values"] == control["u"]["values"]
            assert doc["u"]["interp"] == "linear"
        echo = tmp_path / "echo.json"
        echo.write_text(out)
        assert run_cli("certify", "--problem", str(echo),
                       "--dump-normalized") == (0, out)

    def test_unknown_control_type_is_error(self, tmp_path, capsys):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({
            "alpha": 1.0, "delays": [0.0], "A": [[[-1.0]]], "B": [[1.0]],
            "phi": [{"times": [0.0], "values": [[1.0]], "interp": "const"}],
            "control": {"type": "bang_bang"},
        }))
        assert run_cli("certify", "--problem", str(path)) == (1, "")
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "unknown control type 'bang_bang'"}


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("certify", "--problem", f"{FIXTURES}/scalar_contractive.json"),
        ("simulate", "--problem", f"{FIXTURES}/frac_delay_a07.json",
         "--step", "0.01", "--horizon", "2"),
        ("spectral", "--problem", f"{FIXTURES}/spectral_t34.json"),
        ("ml", "--problem", f"{FIXTURES}/frac_nodelay.json", "--t", "0.7"),
        # time-varying tables and feedback at both lags
        ("certify", "--problem", f"{FIXTURES}/tv_feedback.json"),
        ("simulate", "--problem", f"{FIXTURES}/tv_feedback.json", "--oracle"),
    ])
    def test_repeat_runs_byte_identical(self, argv):
        _, first = run_cli(*argv)
        _, second = run_cli(*argv)
        assert first == second


class _ReadRecorder(argparse.Namespace):
    """A Namespace that records the names of the attributes read from it."""

    reads: set = set()

    def __getattribute__(self, name):
        type(self).reads.add(name)
        return super().__getattribute__(name)


class TestFlags:
    # one cheap invocation per subcommand, every optional flag given
    ARGV = {
        "ml": ("--problem", f"{FIXTURES}/frac_nodelay.json", "--t", "0.7",
               "--beta", "1.5"),
        "simulate": ("--problem", f"{FIXTURES}/frac_delay_a07.json",
                     "--step", "0.05", "--horizon", "1", "--oracle"),
        "certify": ("--problem", f"{FIXTURES}/scalar_contractive.json",
                    "--delta-grid", "0.5,2,3"),
        "spectral": ("--problem", f"{FIXTURES}/spectral_t34.json"),
        "verify-bounds": ("--problem", f"{FIXTURES}/exp_decay.json",
                          "--t-grid", "0.5,1"),
    }
    # main reads these itself before it hands over to the runner
    READ_BY_MAIN = {"command", "problem", "dump_normalized"}

    @pytest.mark.parametrize("command", sorted(_RUNNERS))
    def test_every_flag_is_read_by_its_subcommand(self, command, tmp_path):
        args = build_parser().parse_args(
            [command, *self.ARGV[command], "--out", str(tmp_path)],
            namespace=_ReadRecorder())
        prob = load_problem(args.problem)
        _ReadRecorder.reads = set()
        with redirect_stdout(io.StringIO()):
            assert _RUNNERS[command](args, prob) in (0, 2)
        unread = set(vars(args)) - self.READ_BY_MAIN - _ReadRecorder.reads
        assert unread == set()

    @pytest.mark.parametrize("command", sorted(_RUNNERS))
    def test_no_tolerance_flag(self, command, capsys):
        code, out = run_cli(command, *self.ARGV[command], "--tol", "1e-9")
        assert code == 1 and out == ""
        err = json.loads(capsys.readouterr().err)
        assert "argument error" in err["message"]
        assert "--tol" in err["message"]


# Runs in a fresh interpreter with scipy blocked (sys.modules["scipy"] =
# None makes every scipy import raise ImportError): all five commands run,
# and no scipy module is loaded after any of them.  numpy.ma, which
# np.unique imports, is not loaded either: it costs each process 13 ms.
_IMPORT_PROBE = """
import contextlib, io, sys
sys.modules["scipy"] = None
import fracdelay
from fracdelay.cli import main

def scipy_modules():
    return sorted(m for m, mod in sys.modules.items()
                  if m.split(".")[0] == "scipy" and mod is not None)

fx = sys.argv[1]
for argv in (("ml", "--problem", f"{fx}/frac_nodelay.json", "--t", "1.0"),
             ("simulate", "--problem", f"{fx}/frac_delay_a07.json",
              "--step", "0.01", "--horizon", "2", "--oracle"),
             ("certify", "--problem", f"{fx}/scalar_contractive.json"),
             ("spectral", "--problem", f"{fx}/spectral_t34.json"),
             ("verify-bounds", "--problem", f"{fx}/exp_decay.json",
              "--t-grid", "0.5,1,2,5"),
             # a 2x2 A0: expm's Pade path, not np.exp
             ("verify-bounds", "--problem", f"{fx}/spectral_t34.json")):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    assert code in (0, 2), (argv, code)
    assert not scipy_modules(), (argv[0], scipy_modules())
    assert "numpy.ma" not in sys.modules, argv[0]
"""


def test_no_command_loads_scipy():
    src = os.path.dirname(os.path.dirname(fracdelay.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(FIXTURES)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_scipy():
    src = Path(fracdelay.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_no_accuracy_parameter():
    # accuracy settings are module constants, not per-call arguments
    knobs = {"tol", "rel_tol", "max_terms", "n0", "max_doublings",
             "noise_floor", "slack"}
    src = Path(fracdelay.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                found += [(path.name, arg.arg)
                          for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg)
                          if arg is not None and arg.arg in knobs]
    assert found == []


@pytest.mark.filterwarnings("ignore:'fracdelay.cli' found in sys.modules"
                            ":RuntimeWarning")
@pytest.mark.parametrize("module", ["fracdelay", "fracdelay.cli"])
@pytest.mark.parametrize("argv", [
    ("spectral", "--problem", f"{FIXTURES}/spectral_t34.json"),
    ("certify", "--problem", f"{FIXTURES}/scalar_inconclusive.json"),
    ("certify", "--problem", "/nonexistent.json"),
])
def test_module_entry_points(monkeypatch, capsys, module, argv):
    # python -m fracdelay and python -m fracdelay.cli exit with main's code
    # and print main's output
    want = run_cli(*argv)
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", [module, *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module(module, run_name="__main__")
    assert (exit_info.value.code, capsys.readouterr().out) == want
