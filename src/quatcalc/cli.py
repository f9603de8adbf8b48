"""Command-line front end.

One JSON document goes in (stdin or ``--input``), one comes out (stdout or
``--output``) as a single line of compact JSON with sorted keys; pipe it to
``python -m json.tool`` to read it.  Complex numbers are always two-field
records ``{"re": x, "im": y}``, quaternions are four-element real arrays
``[x0, x1, x2, x3]`` along (I, J, K, L), and matrices are row-major nested
arrays.  Outputs echo the parsed inputs, so a run is reproducible from its
own output; identical inputs produce identical output bytes.

Exit codes: 0 success (``--help`` included), 1 parse error (a malformed
document, a number field that is not a finite JSON number of the right kind
-- booleans and strings are not numbers --, a ``deriv`` order above 170, or
a usage error such as an unknown command, a non-finite ``--tol``,
``--margin`` or ``--fd-step``, an ``--fd-step`` that is not positive or
rounds away at a sample point, or a ``--grid-res`` above 256) or output
error (an ``--output`` path that cannot be written), 2
domain/geometry/contract error or a non-finite result, 3 accuracy error
(including a quadrature that stalls before its tolerance: a rounding floor
far above it, or the node cap).  Nothing is written to the output on a
nonzero exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import (
    AccuracyError,
    AffineArg,
    CommutingPair,
    ContractViolationError,
    Cos,
    DomainError,
    EntrywiseFunction,
    Exp,
    GeometryError,
    InvalidArgumentError,
    MatrixCoefficientFunction,
    NumericError,
    PairStem,
    Polynomial,
    Product,
    QuadratureConfig,
    QuaternionPolynomial,
    ScalarStem,
    SeparableProduct,
    Sin,
    SingularElementError,
    SliceSampleGrid,
    SphereGrid,
    Sum,
    SymmetricDomain,
    TwoVariablePolynomial,
    build_contour,
    cauchy_derivative,
    complex_spectrum,
    conjugate_sample_pairs,
    discrete_mult_op,
    dist_to_quaternions,
    enclosing_sphere_grid,
    eval_spectral,
    joint_resolvent_margin,
    joint_spectrum_points,
    make_quaternion,
    martinelli_calculus,
    op_calculus,
    slice_regularity_report,
    spectral_evaluator,
    spectrum,
    verify_stem,
    zero_set_contains,
)

#: Largest ``deriv`` order: the largest k with k! finite in double precision.
_MAX_DERIV_ORDER = 170

#: Largest ``--grid-res``.  The surface integral's cost grows as the cube of
#: the resolution: a 2x2 pair takes 0.6 s at 128 and 3.6 s at 256 on 2 vCPUs.
_MAX_GRID_RES = 256


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# encoding / decoding


def _reject_constant(token):
    raise ParseError(f"{token} is not a JSON number")


def _c_out(z):
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def _c_in(doc):
    try:
        return complex(_number_in(doc["re"]), _number_in(doc["im"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"expected a complex record {{re, im}}, got {doc!r}") from exc


def _mat_out(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [[_c_out(v) for v in row] for row in a.tolist()]
    return a.tolist()


def _quat_in(doc):
    try:
        x0, x1, x2, x3 = (_number_in(v) for v in doc)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"expected a quaternion [x0, x1, x2, x3], got {doc!r}") from exc
    return make_quaternion(x0, x1, x2, x3)


def _quat_out(q):
    return [q.components[0], q.components[1], q.components[2], q.components[3]]


def _number_in(doc, integral=False):
    """A finite JSON number, and with ``integral`` a whole one, as int.

    Booleans and strings are not numbers, and neither is an integer
    literal too large for a float.
    """
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise ParseError(f"expected a finite number, got {doc!r}")
    try:
        value = float(doc)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {doc!r}")
    if not integral:
        return value
    if doc != int(doc):
        raise ParseError(f"expected an integer, got {doc!r}")
    return int(doc)


def _real_matrix_in(doc):
    try:
        m = np.array([[_number_in(v) for v in row] for row in doc], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"expected a real matrix, got {doc!r}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParseError("matrix must be square")
    return m


def _scalar_in(doc):
    try:
        kind = doc["kind"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"scalar function needs a 'kind', got {doc!r}") from exc
    if kind == "poly":
        return Polynomial([_c_in(c) for c in doc["coeffs"]])
    if kind == "exp":
        return Exp()
    if kind == "sin":
        return Sin()
    if kind == "cos":
        return Cos()
    if kind == "affine":
        return AffineArg(_c_in(doc["scale"]), _c_in(doc["shift"]), _scalar_in(doc["body"]))
    if kind == "sum":
        return Sum(*(_scalar_in(p) for p in doc["parts"]))
    if kind == "product":
        return Product(*(_scalar_in(p) for p in doc["parts"]))
    raise ParseError(f"unknown scalar function kind {kind!r}")


def _domain_in(doc):
    if doc is None:
        return None
    try:
        return SymmetricDomain([(_c_in(d["center"]), _number_in(d["radius"])) for d in doc])
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"bad domain specification {doc!r}") from exc


def _stem_in(doc, domain=None):
    try:
        kind = doc["kind"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"matrix function needs a 'kind', got {doc!r}") from exc
    if kind == "scalar":
        return ScalarStem(_scalar_in(doc["f"]), domain=domain)
    if kind == "pair":
        return PairStem(_scalar_in(doc["f1"]), _scalar_in(doc["f2"]), domain=domain)
    if kind == "hpoly":
        return QuaternionPolynomial([_quat_in(c) for c in doc["coeffs"]], domain=domain)
    if kind == "entries":
        rows = doc["entries"]
        return EntrywiseFunction(
            [[_scalar_in(rows[0][0]), _scalar_in(rows[0][1])],
             [_scalar_in(rows[1][0]), _scalar_in(rows[1][1])]],
            domain=domain,
        )
    raise ParseError(f"unknown matrix function kind {kind!r}")


def _operator_function_in(doc, dim):
    try:
        kind = doc["kind"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"operator function needs a 'kind', got {doc!r}") from exc
    if kind == "op-poly":
        mats = [_real_matrix_in(m) for m in doc["coeffs"]]
        F = MatrixCoefficientFunction.from_polynomial(mats)
    elif kind == "op-scalar":
        F = MatrixCoefficientFunction.from_scalar(_scalar_in(doc["f"]), dim)
    elif kind == "op-terms":
        F = MatrixCoefficientFunction(
            [(_real_matrix_in(t["matrix"]), _scalar_in(t["scalar"])) for t in doc["terms"]]
        )
    else:
        raise ParseError(f"unknown operator function kind {kind!r}")
    if F.dim != dim:
        raise ParseError(f"operator function dimension {F.dim} does not match matrix {dim}")
    return F


def _two_variable_in(doc):
    try:
        kind = doc["kind"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"two-variable function needs a 'kind', got {doc!r}") from exc
    if kind == "poly2":
        return TwoVariablePolynomial([[_c_in(c) for c in row] for row in doc["coeffs"]])
    if kind == "separable":
        return SeparableProduct(_scalar_in(doc["g"]), _scalar_in(doc["h"]))
    raise ParseError(f"unknown two-variable function kind {kind!r}")


def _quadrature_config(args):
    return QuadratureConfig(rel_tol=args.tol)


def _quadrature_diagnostics(diag):
    """Output record of a converged quadrature; a stall raises AccuracyError."""
    if not diag.converged:
        raise AccuracyError(
            f"quadrature stalled at {diag.nodes_per_circle} nodes/circle "
            f"(last change {diag.est_error:.3e}, rounding floor {diag.rounding_floor:.3e})"
        )
    return dataclasses.asdict(diag)


def _default_domain_for(q):
    return SymmetricDomain.disk(0.0, max(2.0, 4.0 * q.norm() + 1.0))


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the "result" sub-document)


def _run_spectrum(doc, args):
    q = _quat_in(doc["quaternion"])
    sp = spectrum(q)
    return {
        "eigenvectors": {
            "nu_minus": [_c_out(v) for v in sp.nu_minus],
            "nu_plus": [_c_out(v) for v in sp.nu_plus],
        },
        "s_minus": _c_out(sp.s_minus),
        "s_plus": _c_out(sp.s_plus),
    }


def _eval_common(doc, args, order):
    q = _quat_in(doc["quaternion"])
    domain = _domain_in(doc.get("domain"))
    F = _stem_in(doc["function"], domain=domain)
    method = doc.get("method", "contour")
    if method not in ("contour", "spectral"):
        raise ParseError(f"unknown method {method!r}")
    result = {"method": method, "order": order}
    if method == "spectral":
        G = F
        for _ in range(order):
            G = G.derivative()
        value = eval_spectral(G, q)
        if not np.all(np.isfinite(value)):
            raise NumericError("spectral value is not finite")
        diagnostics = {}
    else:
        sp = spectrum(q)
        dom = domain if domain is not None else _default_domain_for(q)
        gamma = build_contour([sp.s_plus, sp.s_minus], dom, args.margin)
        value, diag = cauchy_derivative(
            F, order, q, gamma, _quadrature_config(args), return_diagnostics=True
        )
        diagnostics = _quadrature_diagnostics(diag)
        if args.emit_samples:
            result["samples"] = {
                "circles": [
                    {"center": _c_out(c.center), "radius": c.radius} for c in gamma.circles
                ]
            }
    result["value"] = _mat_out(value)
    result["dist_to_quaternions"] = dist_to_quaternions(value)
    result["diagnostics"] = diagnostics
    return result


def _run_eval(doc, args):
    return _eval_common(doc, args, 0)


def _run_deriv(doc, args):
    order = _number_in(doc.get("order", 1), integral=True)
    if not 0 <= order <= _MAX_DERIV_ORDER:
        raise ParseError(f"order must be in 0..{_MAX_DERIV_ORDER}, got {order}")
    return _eval_common(doc, args, order)


def _run_stem_check(doc, args):
    domain = _domain_in(doc.get("domain"))
    F = _stem_in(doc["function"], domain=domain)
    if "samples" in doc:
        samples = [_c_in(c) for c in doc["samples"]]
    else:
        samples = conjugate_sample_pairs(F.domain)
    report = verify_stem(F, samples=samples, tol=args.tol)
    out = {
        "max_defect": report.max_defect,
        "passed": report.passed,
        "witness": _c_out(report.witness),
    }
    if args.emit_samples:
        out["samples"] = [_c_out(z) for z in samples]
    return out


def _run_slice_check(doc, args):
    fdoc = doc["function"]
    if isinstance(fdoc, dict) and fdoc.get("kind") == "star-involution":
        def G(q):
            return q.star()
    else:
        G = spectral_evaluator(_stem_in(fdoc))
    grid_doc = doc.get("grid", {})
    domain = _domain_in(grid_doc.get("domain")) or SymmetricDomain.disk(0.0, 2.0)
    grid = SliceSampleGrid.random(
        domain,
        _number_in(grid_doc.get("points", 200), integral=True),
        _number_in(grid_doc.get("directions", 5), integral=True),
        h=args.fd_step,
        seed=_number_in(grid_doc.get("seed", 0), integral=True),
    )
    report = slice_regularity_report(G, grid, tol=args.tol)
    x, y, s = report.worst_point
    out = {
        "max_defect": report.max_defect,
        "passed": report.passed,
        "worst_point": {"direction": _quat_out(s), "x": x, "y": y},
    }
    if args.emit_samples:
        out["samples"] = [{"direction": _quat_out(s), "x": x, "y": y} for x, y, s in grid.points]
    return out


def _run_zeros(doc, args):
    q = _quat_in(doc["quaternion"])
    F = _stem_in(doc["function"], domain=_domain_in(doc.get("domain")))
    sp = spectrum(q)
    return {
        "contains": zero_set_contains(F, q, tol=args.tol),
        "value_at_s_minus": _mat_out(F(sp.s_minus)),
        "value_at_s_plus": _mat_out(F(sp.s_plus)),
    }


def _run_op_spectrum(doc, args):
    T = _real_matrix_in(doc["matrix"])
    report = complex_spectrum(T)
    return {
        "eigenvalues": [_c_out(v) for v in report.eigenvalues],
        "pairs": [{"multiplicity": m, "value": _c_out(v)} for v, m in report.pairs],
    }


def _run_op_calc(doc, args):
    T = _real_matrix_in(doc["matrix"])
    F = _operator_function_in(doc["function"], T.shape[0])
    value, diag, flat_defect = op_calculus(
        F, T, cfg=_quadrature_config(args), return_diagnostics=True
    )
    return {
        "diagnostics": dict(_quadrature_diagnostics(diag), flat_defect=flat_defect),
        "value": _mat_out(value),
    }


def _run_mult_op(doc, args):
    quats = [_quat_in(c) for c in doc["quaternions"]]
    T = discrete_mult_op(quats)
    report = complex_spectrum(T, cap=max(64, T.shape[0]))
    return {
        "dimension": T.shape[0],
        "eigenvalue_pairs": [{"multiplicity": m, "value": _c_out(v)} for v, m in report.pairs],
        "matrix": _mat_out(T),
    }


def _run_joint_spectrum(doc, args):
    pair = CommutingPair(_real_matrix_in(doc["matrix1"]), _real_matrix_in(doc["matrix2"]))
    points = joint_spectrum_points(pair)
    return {
        "points": [
            {
                "margin": joint_resolvent_margin(pair, p),
                "z1": _c_out(p[0]),
                "z2": _c_out(p[1]),
            }
            for p in points
        ]
    }


def _run_joint_calc(doc, args):
    pair = CommutingPair(_real_matrix_in(doc["matrix1"]), _real_matrix_in(doc["matrix2"]))
    f = _two_variable_in(doc["function"])
    if "sphere" in doc:
        sphere = doc["sphere"]
        grid = SphereGrid(
            (_number_in(sphere["center"][0]), _number_in(sphere["center"][1])),
            _number_in(sphere["radius"]),
            args.grid_res,
        )
    else:
        grid = enclosing_sphere_grid(pair, resolution=args.grid_res, margin=args.margin)
    value, diagnostics = martinelli_calculus(f, pair, grid, return_diagnostics=True)
    return {
        "diagnostics": diagnostics,
        "sphere": {"center": [grid.center[0], grid.center[1]], "radius": grid.radius},
        "value": _mat_out(value),
    }


_HANDLERS = {
    "spectrum": _run_spectrum,
    "eval": _run_eval,
    "deriv": _run_deriv,
    "stem-check": _run_stem_check,
    "slice-check": _run_slice_check,
    "zeros": _run_zeros,
    "op-spectrum": _run_op_spectrum,
    "op-calc": _run_op_calc,
    "mult-op": _run_mult_op,
    "joint-spectrum": _run_joint_spectrum,
    "joint-calc": _run_joint_calc,
}


def _finite_float(text):
    """Option type for thresholds and steps: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _grid_res(text):
    """Option type for ``--grid-res``: an integer at most ``_MAX_GRID_RES``."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value > _MAX_GRID_RES:
        raise argparse.ArgumentTypeError(f"at most {_MAX_GRID_RES}, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quatcalc",
        description="Quaternionic spectra and analytic functional calculus.",
    )
    parser.add_argument("command", choices=list(_HANDLERS))
    parser.add_argument("--input", help="input JSON document (default: stdin)")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--tol", type=_finite_float, default=1e-10, help="tolerance / check threshold")
    parser.add_argument("--fd-step", type=_finite_float, default=1e-4, help="finite-difference step")
    parser.add_argument("--grid-res", type=_grid_res, default=48,
                        help=f"sphere grid resolution per angle (at most {_MAX_GRID_RES})")
    parser.add_argument("--margin", type=_finite_float, default=0.25, help="contour/sphere clearance margin")
    parser.add_argument(
        "--emit-samples", action="store_true", help="include evaluation grids in the output"
    )
    return parser


#: Built once per process; ``parse_args`` leaves it unchanged, so jobs share it.
_PARSER = build_parser()


def run(argv):
    """Parse, dispatch, and write one job; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is a
        # parse error here; 2 is the code for domain errors
        return 1 if exc.code else 0

    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        doc = json.loads(text, parse_constant=_reject_constant)
        if not isinstance(doc, dict):
            raise ParseError("top-level document must be an object")
    except (OSError, json.JSONDecodeError, ParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1

    handler = _HANDLERS[args.command]
    try:
        result = handler(doc, args)
    except (ParseError, KeyError, TypeError, InvalidArgumentError, SingularElementError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, GeometryError, ContractViolationError, NumericError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3

    out_doc = {"command": args.command, "inputs": doc, "result": result}
    try:
        payload = json.dumps(
            out_doc, sort_keys=True, allow_nan=False, separators=(",", ":")
        ) + "\n"
    except ValueError as exc:
        print(f"domain error: non-finite number in the output ({exc})", file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.write(payload)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
