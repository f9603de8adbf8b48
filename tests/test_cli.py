import copy
import functools
import json
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quatcalc import AccuracyWarning, J, K, L, cli

from conftest import quaternionic_operator, right_mult_matrix


def run_cli(capsys, command, doc, *flags):
    code, out, _ = run_cli_err(capsys, command, doc, *flags)
    return code, out


def run_cli_err(capsys, command, doc, *flags):
    import io
    import sys

    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        code = cli.run([command, *flags])
    finally:
        sys.stdin = stdin
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_complex(rec):
    return complex(rec["re"], rec["im"])


def test_spectrum_of_j(capsys):
    code, out = run_cli(capsys, "spectrum", {"quaternion": [0, 1, 0, 0]})
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "spectrum"
    assert doc["inputs"]["quaternion"] == [0, 1, 0, 0]
    assert as_complex(doc["result"]["s_plus"]) == 1j
    assert as_complex(doc["result"]["s_minus"]) == -1j


def test_eval_exp_contour_vs_series(capsys):
    doc = {
        "function": {"kind": "scalar", "f": {"kind": "exp"}},
        "quaternion": [0, 1, 0, 0],
        "method": "contour",
    }
    code, out = run_cli(capsys, "eval", doc)
    assert code == 0
    result = json.loads(out)["result"]
    value = np.array([[as_complex(v) for v in row] for row in result["value"]])
    want = np.cos(1.0) * np.eye(2) + np.sin(1.0) * np.array([[1j, 0], [0, -1j]])
    np.testing.assert_allclose(value, want, atol=1e-10)
    assert result["dist_to_quaternions"] <= 1e-10
    assert result["diagnostics"]["converged"]
    assert result["diagnostics"]["nodes_per_circle"] <= 4096


def test_eval_spectral_method(capsys):
    doc = {
        "function": {"kind": "hpoly", "coeffs": [[0, 0, 0, 0], [0, 1, 0, 0]]},
        "quaternion": [0, 0, 1, 0],
        "method": "spectral",
    }
    code, out = run_cli(capsys, "eval", doc)
    assert code == 0
    value = json.loads(out)["result"]["value"]
    # J * K = L has matrix [[0, i], [i, 0]]
    assert as_complex(value[0][1]) == pytest.approx(1j, abs=1e-12)
    assert as_complex(value[1][0]) == pytest.approx(1j, abs=1e-12)


def test_deriv_of_square(capsys):
    doc = {
        "function": {"kind": "scalar", "f": {"kind": "poly", "coeffs": [
            {"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 1, "im": 0}]}},
        "quaternion": [0.5, 0.25, 0, 0],
        "order": 1,
        "method": "spectral",
    }
    code, out = run_cli(capsys, "deriv", doc)
    assert code == 0
    value = json.loads(out)["result"]["value"]
    assert abs(as_complex(value[0][0]) - (1.0 + 0.5j)) < 1e-12


def test_stem_check_pass_and_fail(capsys):
    good = {"function": {"kind": "pair",
                         "f1": {"kind": "poly", "coeffs": [{"re": 0, "im": 1}, {"re": 1, "im": 0}]},
                         "f2": {"kind": "poly", "coeffs": [{"re": 0, "im": 0}]}}}
    code, out = run_cli(capsys, "stem-check", good)
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True

    bad = {"function": {"kind": "entries", "entries": [
        [{"kind": "poly", "coeffs": [{"re": 0, "im": 1}, {"re": 1, "im": 0}]},
         {"kind": "poly", "coeffs": [{"re": 0, "im": 0}]}],
        [{"kind": "poly", "coeffs": [{"re": 0, "im": 0}]},
         {"kind": "poly", "coeffs": [{"re": 0, "im": 1}, {"re": 1, "im": 0}]}]]}}
    code, out = run_cli(capsys, "stem-check", bad)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert result["max_defect"] > 1.0


def test_slice_check_star_involution(capsys):
    doc = {"function": {"kind": "star-involution"}, "grid": {"points": 50, "directions": 3}}
    code, out = run_cli(capsys, "slice-check", doc, "--tol", "1e-5")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert abs(result["max_defect"] - 1.0) < 1e-3


def test_slice_check_regular_function(capsys):
    doc = {
        "function": {"kind": "hpoly", "coeffs": [[1, 0, 0, 0], [0, 0, 1, 0]]},
        "grid": {"points": 50, "directions": 3},
    }
    code, out = run_cli(capsys, "slice-check", doc, "--tol", "1e-5", "--emit-samples")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is True
    assert len(result["samples"]) == 50


def test_zeros(capsys):
    doc = {
        "function": {"kind": "scalar", "f": {"kind": "poly", "coeffs": [
            {"re": 1, "im": 0}, {"re": 0, "im": 0}, {"re": 1, "im": 0}]}},
        "quaternion": [0, 0, 1, 0],
    }
    code, out = run_cli(capsys, "zeros", doc, "--tol", "1e-10")
    assert code == 0
    assert json.loads(out)["result"]["contains"] is True


def test_op_spectrum(capsys):
    doc = {"matrix": [[1.0, 2.0], [-2.0, 1.0]]}
    code, out = run_cli(capsys, "op-spectrum", doc)
    assert code == 0
    pairs = json.loads(out)["result"]["pairs"]
    assert len(pairs) == 1
    assert abs(as_complex(pairs[0]["value"]) - (1 + 2j)) < 1e-10
    assert pairs[0]["multiplicity"] == 1


def test_op_calc_polynomial(capsys):
    doc = {
        "matrix": [[1.0, 2.0], [-2.0, 1.0]],
        "function": {"kind": "op-poly", "coeffs": [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ]},
    }
    code, out = run_cli(capsys, "op-calc", doc)
    assert code == 0
    result = json.loads(out)["result"]
    T = np.array(doc["matrix"])
    np.testing.assert_allclose(np.array(result["value"]), T @ T, atol=1e-8)
    assert result["diagnostics"]["flat_defect"] <= 1e-8


def test_mult_op(capsys):
    doc = {"quaternions": [[0, 1, 0, 0], [0, 0, 2, 0]]}
    code, out = run_cli(capsys, "mult-op", doc)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dimension"] == 8
    values = sorted(as_complex(p["value"]).imag for p in result["eigenvalue_pairs"])
    assert values == pytest.approx([1.0, 2.0], abs=1e-9)


def test_joint_spectrum(capsys):
    doc = {"matrix1": [[1.0, 0.0], [0.0, 2.0]], "matrix2": [[3.0, 0.0], [0.0, 4.0]]}
    code, out = run_cli(capsys, "joint-spectrum", doc)
    assert code == 0
    pts = json.loads(out)["result"]["points"]
    got = sorted((as_complex(p["z1"]).real, as_complex(p["z2"]).real) for p in pts)
    assert got == pytest.approx([(1.0, 3.0), (2.0, 4.0)])
    assert all(p["margin"] <= 1e-8 for p in pts)


def test_joint_calc(capsys):
    doc = {
        "matrix1": [[1.0, 0.0], [0.0, 2.0]],
        "matrix2": [[3.0, 0.0], [0.0, 4.0]],
        "function": {"kind": "poly2", "coeffs": [[
            {"re": 0, "im": 0}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}, {"re": 1, "im": 0}]]},
    }
    code, out = run_cli(capsys, "joint-calc", doc, "--grid-res", "32", "--margin", "1.0")
    assert code == 0
    result = json.loads(out)["result"]
    got = np.array(result["value"])
    np.testing.assert_allclose(got, np.diag([3.0, 8.0]), atol=1e-5)


def test_joint_calc_computes_the_spectrum_once(capsys, monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    doc = {
        "matrix1": [[1.0, 0.5], [0.0, 2.0]],
        "matrix2": [[3.0, 1.0], [0.0, 5.0]],
        "function": {"kind": "poly2", "coeffs": [[{"re": 1, "im": 0}]]},
    }
    code, _ = run_cli(capsys, "joint-calc", doc, "--grid-res", "16")
    assert code == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# contracts of the front end itself


def test_determinism(capsys):
    doc = {"function": {"kind": "scalar", "f": {"kind": "sin"}}, "quaternion": [0.3, 1, 0, 0]}
    _, out1 = run_cli(capsys, "eval", doc)
    _, out2 = run_cli(capsys, "eval", doc)
    assert out1 == out2


def test_round_trip_inputs_bit_exact(capsys):
    doc = {"quaternion": [0.1, -2.25, 1e-3, 4.0]}
    code, out = run_cli(capsys, "spectrum", doc)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["inputs"]["quaternion"] == doc["quaternion"]
    reparsed = json.loads(json.dumps(parsed))
    assert reparsed == parsed


def test_parse_error_exit_code(capsys):
    import io
    import sys

    stdin = sys.stdin
    for text in ("{not json", '{"quaternion": [0, 1, 0, 0], "note": NaN}'):
        sys.stdin = io.StringIO(text)
        try:
            code = cli.run(["spectrum"])
        finally:
            sys.stdin = stdin
        assert code == 1
        assert capsys.readouterr().out == ""

    code, _ = run_cli(capsys, "spectrum", {"quaternion": [0, 1, 0]})
    assert code == 1


@pytest.mark.parametrize(
    "argv", [[], ["frobnicate"], ["spectrum", "--grid-res", "abc"], ["spectrum", "--bogus"]]
)
def test_usage_error_exits_1(capsys, argv):
    assert cli.run(argv) == 1
    assert capsys.readouterr().out == ""


def test_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    assert "usage: quatcalc" in capsys.readouterr().out


def test_jobs_share_one_parser_and_write_one_line(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    doc = {"function": {"kind": "scalar", "f": {"kind": "sin"}}, "quaternion": [0.3, 1, 0, 0]}
    code1, out1 = run_cli(capsys, "eval", doc)
    assert cli.run(["eval", "--bogus"]) == 1
    assert capsys.readouterr().out == ""
    assert cli.run(["--help"]) == 0
    assert "usage: quatcalc" in capsys.readouterr().out
    code2, out2 = run_cli(capsys, "eval", doc)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert built == []
    for out in (out1, out2):
        assert out.count("\n") == 1 and out.endswith("\n")
        want = json.dumps(json.loads(out), sort_keys=True, allow_nan=False, separators=(",", ":"))
        assert out == want + "\n"


STEM_EXP = {"function": {"kind": "scalar", "f": {"kind": "exp"}}}


@pytest.mark.parametrize(
    "command, doc, flag, value",
    [
        ("stem-check", STEM_EXP, "--tol", "nan"),
        ("eval", dict(STEM_EXP, quaternion=[0, 1, 0, 0]), "--tol", "nan"),
        ("eval", dict(STEM_EXP, quaternion=[0, 1, 0, 0]), "--margin", "inf"),
        ("deriv", dict(STEM_EXP, quaternion=[0, 1, 0, 0]), "--margin", "nan"),
        ("slice-check", STEM_EXP, "--fd-step", "-inf"),
        ("slice-check", STEM_EXP, "--fd-step", "abc"),
    ],
)
def test_non_finite_option_exits_1(capsys, command, doc, flag, value):
    code, out = run_cli(capsys, command, doc, flag, value)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("kind", ["exp", "star-involution"])
@pytest.mark.parametrize("step", ["0", "-0.5", "1e-300"])
def test_degenerate_fd_step_exits_1(capsys, kind, step):
    fdoc = {"kind": kind} if kind == "star-involution" else STEM_EXP["function"]
    code, out = run_cli(capsys, "slice-check", {"function": fdoc}, "--fd-step", step)
    assert code == 1
    assert out == ""


JOINT_DOC = {
    "matrix1": [[1.0, 0.0], [0.0, 2.0]],
    "matrix2": [[3.0, 0.0], [0.0, 4.0]],
    "function": {"kind": "poly2", "coeffs": [[{"re": 1, "im": 0}]]},
}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("deriv", dict(STEM_EXP, quaternion=[0, 1, 0, 0], order="x")),
        ("deriv", dict(STEM_EXP, quaternion=[0, 1, 0, 0], order=1.5)),
        ("deriv", dict(STEM_EXP, quaternion=[0, 1, 0, 0], order=True)),
        ("slice-check", dict(STEM_EXP, grid={"points": "many"})),
        ("slice-check", dict(STEM_EXP, grid={"directions": 2.5})),
        ("slice-check", dict(STEM_EXP, grid={"seed": "x"})),
        ("joint-calc", dict(JOINT_DOC, sphere={"center": ["a", 0.0], "radius": 4.0})),
        ("joint-calc", dict(JOINT_DOC, sphere={"center": [2.0, 3.0], "radius": "big"})),
        # booleans, numeric strings and integers beyond float range are no
        # numbers in quaternions, complex records, matrices or domain radii
        ("spectrum", {"quaternion": [True, "1", 0, 0]}),
        ("spectrum", {"quaternion": [10**400, 0, 0, 0]}),
        ("eval", dict(STEM_EXP, quaternion=[0, 1, 0, 0], domain=[
            {"center": {"re": "0", "im": 0}, "radius": 5.0}])),
        ("stem-check", dict(STEM_EXP, samples=[{"re": True, "im": 0.5}])),
        ("op-spectrum", {"matrix": [["1", "2"], [True, "4"]]}),
        ("op-spectrum", {"matrix": [[1.0, 2.0], [False, 4.0]]}),
        ("op-calc", {"matrix": [[1.0, "2"], [-2.0, 1.0]],
                     "function": {"kind": "op-scalar", "f": {"kind": "exp"}}}),
        ("joint-spectrum", dict(JOINT_DOC, matrix2=[[3.0, 0.0], [0.0, True]])),
        ("eval", dict(STEM_EXP, quaternion=[0, 1, 0, 0], domain=[
            {"center": {"re": 0, "im": 0}, "radius": "5"}])),
        ("eval", dict(STEM_EXP, quaternion=[0, 1, 0, 0], domain=[
            {"center": {"re": 0, "im": 0}, "radius": True}])),
    ],
)
def test_malformed_number_field_exits_1(capsys, command, doc):
    code, out = run_cli(capsys, command, doc)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("order", [171, 100_000_000])
def test_deriv_order_above_170_exits_1_before_differentiating(capsys, monkeypatch, order):
    def no_derivative(self):
        raise AssertionError("differentiated a rejected order")

    monkeypatch.setattr(cli.ScalarStem, "derivative", no_derivative)
    doc = dict(STEM_EXP, quaternion=[0, 1, 0, 0], method="spectral", order=order)
    code, out = run_cli(capsys, "deriv", doc)
    assert code == 1
    assert out == ""


def test_deriv_order_170_is_accepted(capsys):
    doc = dict(STEM_EXP, quaternion=[0, 1, 0, 0], method="spectral", order=170)
    code, out = run_cli(capsys, "deriv", doc)
    assert code == 0
    value = json.loads(out)["result"]["value"]
    assert as_complex(value[0][0]) == pytest.approx(np.exp(1j), abs=1e-12)


def test_grid_res_above_256_exits_1_before_any_work(capsys, monkeypatch):
    def no_pair(*args):
        raise AssertionError("built a pair for a rejected --grid-res")

    monkeypatch.setattr(cli, "CommutingPair", no_pair)
    code, out = run_cli(capsys, "joint-calc", JOINT_DOC, "--grid-res", "258")
    assert code == 1
    assert out == ""


def test_grid_res_256_is_accepted(capsys):
    code, out = run_cli(capsys, "joint-calc", JOINT_DOC, "--grid-res", "256", "--margin", "1.0")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["diagnostics"]["nodes"] > 0
    np.testing.assert_allclose(np.array(result["value"]), np.eye(2), atol=1e-8)


@pytest.mark.parametrize("grid", [{"points": 100_000_000}, {"points": 10_001},
                                  {"directions": 10_001}])
def test_slice_grid_above_10000_exits_1_before_any_work(capsys, monkeypatch, grid):
    def no_grid(*args, **kwargs):
        raise AssertionError("drew a rejected grid")

    monkeypatch.setattr(cli.SliceSampleGrid, "random", no_grid)
    code, out = run_cli(capsys, "slice-check", dict(STEM_EXP, grid=grid))
    assert code == 1
    assert out == ""


def test_slice_grid_of_10000_is_accepted(capsys):
    doc = {"function": {"kind": "star-involution"},
           "grid": {"points": 10_000, "directions": 10_000}}
    code, out = run_cli(capsys, "slice-check", doc, "--tol", "1e-5")
    assert code == 0
    assert abs(json.loads(out)["result"]["max_defect"] - 1.0) <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_slice_value_exits_2(capsys, monkeypatch):
    # exp overflows on the slice disk of radius 2000; the SVD of the
    # defects used to fail to converge on the NaNs
    import io
    import sys

    doc = dict(STEM_EXP, grid={"domain": [{"center": {"re": 0, "im": 0}, "radius": 2000}]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.run(["slice-check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: non-finite result")


def test_mult_op_above_256_quaternions_exits_1_before_any_work(capsys, monkeypatch):
    def no_matrix(*args):
        raise AssertionError("built a rejected mult-op matrix")

    monkeypatch.setattr(cli, "discrete_mult_op", no_matrix)
    code, out = run_cli(capsys, "mult-op", {"quaternions": [[0, 1, 0, 0]] * 257})
    assert code == 1
    assert out == ""


def test_mult_op_of_256_quaternions_is_accepted(capsys):
    code, out = run_cli(capsys, "mult-op", {"quaternions": [[0, 1, 0, 0]] * 256})
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dimension"] == 1024
    assert [p["multiplicity"] for p in result["eigenvalue_pairs"]] == [512]


def _nested_sums(depth):
    f = {"kind": "exp"}
    for _ in range(depth - 1):
        f = {"kind": "sum", "parts": [f]}
    return {"function": {"kind": "scalar", "f": f}, "quaternion": [0, 1, 0, 0],
            "method": "spectral"}


def test_scalar_function_nested_64_deep_is_accepted(capsys):
    code, out = run_cli(capsys, "eval", _nested_sums(64))
    assert code == 0
    value = json.loads(out)["result"]["value"]
    assert as_complex(value[0][0]) == pytest.approx(np.exp(1j), abs=1e-12)


@pytest.mark.parametrize("depth", [65, 450])
def test_scalar_function_nested_too_deep_exits_1(capsys, depth):
    code, out = run_cli(capsys, "eval", _nested_sums(depth))
    assert code == 1
    assert out == ""


def test_document_too_deep_to_decode_exits_1(capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 200_000 + "]" * 200_000))
    assert cli.run(["spectrum"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n", [2, 3])
def test_quaternionic_operator_keeps_its_symmetry_through_the_cli(capsys, rng, n):
    # T = [left_mult_matrix(A_ij)] commutes with right multiplication by
    # every quaternion: each eigenvalue pair is even, and exp(T) commutes too
    T = quaternionic_operator(rng.uniform(-1.0, 1.0, (n, n, 4)))
    code, out = run_cli(capsys, "op-spectrum", {"matrix": T.tolist()})
    assert code == 0
    pairs = json.loads(out)["result"]["pairs"]
    assert pairs and all(p["multiplicity"] % 2 == 0 for p in pairs)

    doc = {"matrix": T.tolist(), "function": {"kind": "op-scalar", "f": {"kind": "exp"}}}
    code, out = run_cli(capsys, "op-calc", doc)
    assert code == 0
    value = np.array(json.loads(out)["result"]["value"])
    for b in (J, K, L):
        R = np.kron(np.eye(n), right_mult_matrix(b))
        assert np.linalg.norm(value @ R - R @ value) <= 1e-10 * np.linalg.norm(value)


def test_domain_error_exit_code(capsys):
    doc = {
        "function": {"kind": "scalar", "f": {"kind": "exp"}},
        "quaternion": [0, 3, 0, 0],
        "method": "spectral",
        "domain": [{"center": {"re": 0, "im": 0}, "radius": 1.0}],
    }
    code, _ = run_cli(capsys, "eval", doc)
    assert code == 2


def test_accuracy_error_exit_code(capsys):
    doc = {
        "matrix1": [[1.0, 0.0], [0.0, 2.0]],
        "matrix2": [[3.0, 0.0], [0.0, 4.0]],
        "function": {"kind": "poly2", "coeffs": [[
            {"re": 0, "im": 0}], [{"re": 0, "im": 1}]]},
    }
    code, _ = run_cli(capsys, "joint-calc", doc, "--grid-res", "16")
    assert code == 3


def test_file_io(tmp_path, capsys):
    inp = tmp_path / "job.json"
    outp = tmp_path / "result.json"
    inp.write_text(json.dumps({"quaternion": [1, 0, 0, 0]}))
    code = cli.run(["spectrum", "--input", str(inp), "--output", str(outp)])
    assert code == 0
    doc = json.loads(outp.read_text())
    assert as_complex(doc["result"]["s_plus"]) == 1.0


def test_unwritable_output_exits_1(tmp_path, capsys):
    inp = tmp_path / "job.json"
    outp = tmp_path / "missing" / "result.json"
    inp.write_text(json.dumps({"quaternion": [1, 0, 0, 0]}))
    assert cli.run(["spectrum", "--input", str(inp), "--output", str(outp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output error:")
    assert not outp.exists()


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "quatcalc", "spectrum"],
        input='{"quaternion": [0, 0, 2, 0]}',
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert as_complex(doc["result"]["s_plus"]) == 2j


@pytest.mark.parametrize(
    "command, doc",
    [
        ("op-calc", {"matrix": [[1e300, 0.0], [0.0, 1.0]],
                     "function": {"kind": "op-scalar", "f": {"kind": "exp"}}}),
        ("eval", {"function": {"kind": "scalar", "f": {"kind": "exp"}},
                  "quaternion": [1e200, 0, 0, 0], "method": "spectral"}),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_value_exits_2(capsys, command, doc):
    code, out = run_cli(capsys, command, doc)
    assert code == 2
    assert out == ""


EXP_STALL = {"function": {"kind": "scalar", "f": {"kind": "exp"}}, "quaternion": [0.5, 12, 0, 0]}


@pytest.mark.parametrize(
    "command, doc, flags",
    [
        # one merged circle of radius 24.25 around 0.5 +/- 12i carries exp up
        # to more than 1e10 times the value: 1e-10 is out of reach in doubles
        ("eval", EXP_STALL, ("--margin", "12.25")),
        ("deriv", dict(EXP_STALL, order=1), ("--margin", "12.25")),
        (
            "op-calc",
            {"matrix": [[1.0, 2.0], [-2.0, 1.0]],
             "function": {"kind": "op-scalar", "f": {"kind": "exp"}}},
            ("--tol", "1e-30"),
        ),
    ],
)
def test_quadrature_stall_exits_3(capsys, command, doc, flags):
    with pytest.warns(AccuracyWarning):
        code, out = run_cli(capsys, command, doc, *flags)
    assert code == 3
    assert out == ""


def _assert_error_exit(code, out, err, want):
    assert code == want
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


ONE = {"re": 1, "im": 0}
OVERFLOWING_PAIR = {"matrix1": [[1, 0], [0, 2]], "matrix2": [[-1e308, 0], [0, 4]]}


@pytest.mark.parametrize(
    "command, doc, want",
    [
        # a slice grid that is not an object
        ("slice-check", dict(STEM_EXP, grid=[1]), 1),
        ("slice-check", dict(STEM_EXP, grid=None), 1),
        ("slice-check", dict(STEM_EXP, grid=False), 1),
        ("joint-calc", dict(JOINT_DOC, sphere={"center": [1], "radius": 4.0}), 1),
        ("stem-check", {"function": {"kind": "entries", "entries": [[{"kind": "exp"}] * 2]}}, 1),
        ("joint-calc", dict(JOINT_DOC, function={"kind": "poly2", "coeffs": [[ONE, ONE], [ONE]]}), 1),
        # domains with no disk
        ("eval", dict(STEM_EXP, quaternion=[0, 1, 0, 0], domain=[]), 1),
        ("eval", dict(STEM_EXP, quaternion=[0, 1, 0, 0], domain=""), 1),
        ("stem-check", dict(STEM_EXP, domain=[]), 1),
        ("slice-check", dict(STEM_EXP, grid={"domain": []}), 1),
        ("slice-check", dict(STEM_EXP, grid={"seed": -1}), 1),
        # the pair commutes, but T2^2 overflows
        ("joint-spectrum", OVERFLOWING_PAIR, 2),
        ("joint-calc", dict(JOINT_DOC, **OVERFLOWING_PAIR), 2),
        ("joint-calc", dict(JOINT_DOC, function={"kind": "poly2", "coeffs": []}), 1),
        ("joint-calc", dict(JOINT_DOC, function={"kind": "poly2", "coeffs": [[]]}), 1),
    ],
)
def test_malformed_document_exits_with_one_error_line(capsys, command, doc, want):
    _assert_error_exit(*run_cli_err(capsys, command, doc, "--grid-res", "8"), want)


def _diagonal_pair(n):
    return {"matrix1": np.diag(np.arange(1.0, n + 1)).tolist(),
            "matrix2": np.diag(np.arange(n, 0.0, -1)).tolist()}


def test_pair_above_32_exits_1_before_any_work(capsys, monkeypatch):
    def no_pair(*args):
        raise AssertionError("built a rejected pair")

    monkeypatch.setattr(cli, "CommutingPair", no_pair)
    for command in ("joint-spectrum", "joint-calc"):
        doc = dict(JOINT_DOC, **_diagonal_pair(33))
        _assert_error_exit(*run_cli_err(capsys, command, doc), 1)


def test_pair_of_32_is_accepted(capsys):
    code, out = run_cli(capsys, "joint-spectrum", _diagonal_pair(32))
    assert code == 0
    assert len(json.loads(out)["result"]["points"]) == 32


ASYMMETRIC_POLY = {"kind": "poly", "coeffs": [{"re": 0, "im": 1}]}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("stem-check", {"function": {"kind": "scalar", "f": ASYMMETRIC_POLY}}),
        ("op-calc", {"matrix": [[1.0, 0.0], [0.0, 1.0]], "function": {
            "kind": "op-terms", "terms": [{"matrix": [[1.0, 0.0], [0.0, 1.0]],
                                           "scalar": ASYMMETRIC_POLY}]}}),
    ],
)
def test_contract_error_while_reading_exits_2(capsys, command, doc):
    _assert_error_exit(*run_cli_err(capsys, command, doc), 2)


def test_program_fault_exits_4(capsys, monkeypatch):
    def broken_spectrum(q):
        raise KeyError("a fault of the program")

    monkeypatch.setattr(cli, "spectrum", broken_spectrum)
    code, out, err = run_cli_err(capsys, "spectrum", {"quaternion": [0, 1, 0, 0]})
    _assert_error_exit(code, out, err, 4)
    assert err.startswith("internal error: KeyError:")


# Small valid jobs of every command, which the property below mutates.
DISK = [{"center": {"re": 0, "im": 0}, "radius": 3}]
FUZZ_SEEDS = [
    ("spectrum", {"quaternion": [0.5, 1, 0, 0]}, ()),
    ("eval", dict(STEM_EXP, quaternion=[0.2, 0.5, 0, 0], domain=DISK), ()),
    ("eval", {"function": {"kind": "hpoly", "coeffs": [[0, 1, 0, 0], [1, 0, 0, 0]]},
              "quaternion": [0.2, 0.5, 0.1, 0], "method": "spectral"}, ()),
    ("deriv", {"function": {"kind": "pair", "f1": {"kind": "sin"},
                            "f2": {"kind": "poly", "coeffs": [ONE, {"re": 0.5, "im": 0}]}},
               "quaternion": [0.1, 0.3, 0.2, 0], "order": 1, "method": "spectral"}, ()),
    ("stem-check", {"function": {"kind": "entries", "entries": [
        [{"kind": "exp"}, {"kind": "cos"}], [{"kind": "sin"}, {"kind": "poly", "coeffs": [ONE]}]]},
        "samples": [{"re": 0.5, "im": 0.5}, {"re": 0.5, "im": -0.5}], "domain": DISK}, ()),
    ("slice-check", {"function": {"kind": "hpoly", "coeffs": [[0, 1, 0, 0], [1, 0, 0, 0]]},
                     "grid": {"points": 8, "directions": 2, "seed": 3, "domain": DISK}},
     ("--tol", "1e-4")),
    ("slice-check", {"function": {"kind": "star-involution"},
                     "grid": {"points": 8, "directions": 2}}, ()),
    ("zeros", {"function": {"kind": "scalar", "f": {
        "kind": "affine", "scale": ONE, "shift": {"re": 0.5, "im": 0},
        "body": {"kind": "sum", "parts": [
            {"kind": "exp"}, {"kind": "product", "parts": [{"kind": "sin"}, {"kind": "cos"}]}]}}},
        "quaternion": [0, 1, 0, 0]}, ()),
    ("op-spectrum", {"matrix": [[1, 2], [-2, 1]]}, ()),
    ("op-calc", {"matrix": [[1, 2], [-2, 1]], "function": {
        "kind": "op-terms", "terms": [{"matrix": [[1, 0], [0, 1]], "scalar": {"kind": "exp"}}]}}, ()),
    ("op-calc", {"matrix": [[1, 0.5], [0, 1]], "function": {
        "kind": "op-poly", "coeffs": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}}, ()),
    ("op-calc", {"matrix": [[0.5, 0], [0, -1]],
                 "function": {"kind": "op-scalar", "f": {"kind": "sin"}}}, ()),
    ("mult-op", {"quaternions": [[0, 1, 0, 0], [1, 0, 0.5, 0]]}, ()),
    ("joint-spectrum", {"matrix1": JOINT_DOC["matrix1"], "matrix2": JOINT_DOC["matrix2"]}, ()),
    ("joint-calc", dict(JOINT_DOC, function={"kind": "separable", "g": {"kind": "exp"},
                                             "h": {"kind": "cos"}}), ("--grid-res", "8")),
    ("joint-calc", dict(JOINT_DOC, function={"kind": "poly2", "coeffs": [
        [ONE, {"re": 0, "im": 0}], [{"re": 0, "im": 0}, ONE]]},
        sphere={"center": [1.5, 3.5], "radius": 3}), ("--grid-res", "8")),
]
FUZZ_VALUES = [None, True, "x", [], {}, [1], 0, -1, 2.5, 1e308, 10**400]


@pytest.mark.parametrize("command, doc, flags", FUZZ_SEEDS)
def test_fuzz_seed_is_a_valid_job(capsys, command, doc, flags):
    assert run_cli(capsys, command, doc, *flags)[0] == 0


def _paths(node, path=()):
    """Every path below ``node`` to a dict value or list item."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _no_constant(token):
    raise AssertionError(f"{token} in the output")


@st.composite
def mutated_jobs(draw):
    command, doc, flags = draw(st.sampled_from(FUZZ_SEEDS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        action = draw(st.sampled_from(["delete", "wrap", "replace"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "wrap":
            parent[path[-1]] = [parent[path[-1]]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return command, doc, flags


# A CLI user sees these warnings on stderr; under the suite's warnings-as-
# errors they would surface as exit 4.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::quatcalc.AccuracyWarning")
@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_jobs())
def test_mutated_documents_exit_with_a_documented_code(capsys, job):
    command, doc, flags = job
    code, out, err = run_cli_err(capsys, command, doc, *flags)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert out.count("\n") == 1 and out.endswith("\n")
        json.loads(out, parse_constant=_no_constant)
    else:
        _assert_error_exit(code, out, err, code)
