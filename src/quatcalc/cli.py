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
-- booleans and strings are not numbers --, a document nested too deep to
decode, a scalar function nested deeper than 64, a domain with no disk, a
``deriv`` order above 170, a ``slice-check`` ``grid.points`` or
``grid.directions`` above 10,000 or a negative ``grid.seed``, a ``mult-op``
of more than 256 quaternions, a ``joint-*`` pair larger than 32 x 32, or a
usage error such as an unknown command, a non-finite ``--tol``,
``--margin`` or ``--fd-step``, an ``--fd-step`` that is not positive or
rounds away at a sample point, or a ``--grid-res`` above 256) or output
error (an ``--output`` path that cannot be written), 2 domain/geometry/
contract error or a non-finite result (including a non-finite
``slice-check`` stencil value, or a pair whose products overflow), 3
accuracy error (including a quadrature that stalls before its tolerance: a
rounding floor far above it, or the node cap), 4 internal error, a fault of
the program and never of the document.  A nonzero exit writes one error
line to stderr (after any warnings the numerics raised) and nothing to the
output.
"""

from __future__ import annotations

import argparse
import contextlib
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

#: Largest ``slice-check`` ``grid.points`` and ``grid.directions``; 10,000
#: points take about 0.5 s.
_MAX_SLICE_POINTS = 10_000

#: Most quaternions in ``mult-op``; its dense real matrix has side 4 times
#: the count (256 quaternions: 0.7 s).
_MAX_MULT_OP_QUATERNIONS = 256

#: Deepest nesting of a scalar function document (a bare ``exp`` has depth 1).
_MAX_FUNCTION_DEPTH = 64

#: Largest side of a ``joint-spectrum`` or ``joint-calc`` pair.  The surface
#: solve's memory grows as its square: n = 32 takes 2 s and 390 MB at the
#: default ``--grid-res``, n = 64 takes 9.5 s and 1.4 GB.
_MAX_PAIR_DIM = 32


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# encoding / decoding


def _reject_constant(token):
    raise ParseError(f"{token} is not a JSON number")


@contextlib.contextmanager
def _reading():
    """Phase of a handler that reads its document into library objects.

    A document of the wrong shape surfaces as one of the builtin errors
    below, which become a ParseError.  The library's own errors pass
    unchanged; three of them subclass ValueError and keep their exit code.
    """
    try:
        yield
    except (ParseError, InvalidArgumentError, DomainError, GeometryError, ContractViolationError):
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed document ({type(exc).__name__}: {exc})") from exc


def _c_out(z):
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def _c_in(doc):
    return complex(_number_in(doc["re"]), _number_in(doc["im"]))


def _mat_out(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [[_c_out(v) for v in row] for row in a.tolist()]
    return a.tolist()


def _quat_in(doc):
    x0, x1, x2, x3 = (_number_in(v) for v in doc)
    return make_quaternion(x0, x1, x2, x3)


def _quat_out(q):
    return [q.components[0], q.components[1], q.components[2], q.components[3]]


def _number_in(doc, integral=False):
    """A finite JSON number, and with ``integral`` a whole one, as int.

    Booleans and strings are not numbers; an integer literal too large for
    a float raises OverflowError.
    """
    if isinstance(doc, bool) or not isinstance(doc, (int, float)) or not math.isfinite(doc):
        raise ParseError(f"expected a finite number, got {doc!r}")
    if not integral:
        return float(doc)
    if doc != int(doc):
        raise ParseError(f"expected an integer, got {doc!r}")
    return int(doc)


def _real_matrix_in(doc):
    m = np.array([[_number_in(v) for v in row] for row in doc], dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParseError("matrix must be square")
    return m


def _kind_in(doc, kinds, *context):
    """The object that ``kinds[doc["kind"]](doc, *context)`` builds."""
    kind = doc["kind"]
    if kind not in kinds:
        raise ParseError(f"unknown kind {kind!r}, expected one of {sorted(kinds)}")
    return kinds[kind](doc, *context)


_SCALAR_KINDS = {
    "poly": lambda doc, depth: Polynomial([_c_in(c) for c in doc["coeffs"]]),
    "exp": lambda doc, depth: Exp(),
    "sin": lambda doc, depth: Sin(),
    "cos": lambda doc, depth: Cos(),
    "affine": lambda doc, depth: AffineArg(
        _c_in(doc["scale"]), _c_in(doc["shift"]), _scalar_in(doc["body"], depth + 1)
    ),
    "sum": lambda doc, depth: Sum(*(_scalar_in(p, depth + 1) for p in doc["parts"])),
    "product": lambda doc, depth: Product(*(_scalar_in(p, depth + 1) for p in doc["parts"])),
}


def _scalar_in(doc, depth=1):
    if depth > _MAX_FUNCTION_DEPTH:
        raise ParseError(f"scalar function nested deeper than {_MAX_FUNCTION_DEPTH}")
    return _kind_in(doc, _SCALAR_KINDS, depth)


_STEM_KINDS = {
    "scalar": lambda doc, dom: ScalarStem(_scalar_in(doc["f"]), domain=dom),
    "pair": lambda doc, dom: PairStem(_scalar_in(doc["f1"]), _scalar_in(doc["f2"]), domain=dom),
    "hpoly": lambda doc, dom: QuaternionPolynomial(map(_quat_in, doc["coeffs"]), domain=dom),
    "entries": lambda doc, dom: EntrywiseFunction(
        [[_scalar_in(doc["entries"][i][j]) for j in (0, 1)] for i in (0, 1)], domain=dom
    ),
}

_OPERATOR_KINDS = {
    "op-poly": lambda doc, dim: MatrixCoefficientFunction.from_polynomial(
        [_real_matrix_in(m) for m in doc["coeffs"]]
    ),
    "op-scalar": lambda doc, dim: MatrixCoefficientFunction.from_scalar(_scalar_in(doc["f"]), dim),
    "op-terms": lambda doc, dim: MatrixCoefficientFunction(
        [(_real_matrix_in(t["matrix"]), _scalar_in(t["scalar"])) for t in doc["terms"]]
    ),
}

_TWO_VARIABLE_KINDS = {
    "poly2": lambda doc: TwoVariablePolynomial([[_c_in(c) for c in row] for row in doc["coeffs"]]),
    "separable": lambda doc: SeparableProduct(_scalar_in(doc["g"]), _scalar_in(doc["h"])),
}


def _domain_in(doc):
    if doc is None:
        return None
    return SymmetricDomain([(_c_in(d["center"]), _number_in(d["radius"])) for d in doc])


def _pair_in(doc):
    t1, t2 = _real_matrix_in(doc["matrix1"]), _real_matrix_in(doc["matrix2"])
    if max(len(t1), len(t2)) > _MAX_PAIR_DIM:
        raise ParseError(f"pair matrices are at most {_MAX_PAIR_DIM} x {_MAX_PAIR_DIM}")
    return CommutingPair(t1, t2)


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
    with _reading():
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


def _run_eval(doc, args):
    """``eval``, and ``deriv`` of the document's ``order`` (default 1)."""
    with _reading():
        order = _number_in(doc.get("order", 1), integral=True) if args.command == "deriv" else 0
        if not 0 <= order <= _MAX_DERIV_ORDER:
            raise ParseError(f"order must be in 0..{_MAX_DERIV_ORDER}, got {order}")
        q = _quat_in(doc["quaternion"])
        domain = _domain_in(doc.get("domain"))
        F = _kind_in(doc["function"], _STEM_KINDS, domain)
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
            F, order, q, gamma, QuadratureConfig(rel_tol=args.tol), return_diagnostics=True
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


def _run_stem_check(doc, args):
    with _reading():
        F = _kind_in(doc["function"], _STEM_KINDS, _domain_in(doc.get("domain")))
        samples = [_c_in(c) for c in doc["samples"]] if "samples" in doc else None
    if samples is None:
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
    with _reading():
        grid_doc = doc.get("grid", {})
        n_points = _number_in(grid_doc.get("points", 200), integral=True)
        n_directions = _number_in(grid_doc.get("directions", 5), integral=True)
        if max(n_points, n_directions) > _MAX_SLICE_POINTS:
            raise ParseError(f"grid points and directions are at most {_MAX_SLICE_POINTS}")
        fdoc = doc["function"]
        if isinstance(fdoc, dict) and fdoc.get("kind") == "star-involution":
            def G(Q):
                # q -> q* is the conjugate transpose of the matrix view
                return np.conj(np.swapaxes(Q, -1, -2))
        else:
            G = spectral_evaluator(_kind_in(fdoc, _STEM_KINDS, None))
        domain = _domain_in(grid_doc.get("domain")) or SymmetricDomain.disk(0.0, 2.0)
        seed = _number_in(grid_doc.get("seed", 0), integral=True)
        if seed < 0:
            raise ParseError(f"grid seed must be non-negative, got {seed}")
    grid = SliceSampleGrid.random(domain, n_points, n_directions, h=args.fd_step, seed=seed)
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
    with _reading():
        q = _quat_in(doc["quaternion"])
        F = _kind_in(doc["function"], _STEM_KINDS, _domain_in(doc.get("domain")))
    sp = spectrum(q)
    return {
        "contains": zero_set_contains(F, q, tol=args.tol),
        "value_at_s_minus": _mat_out(F(sp.s_minus)),
        "value_at_s_plus": _mat_out(F(sp.s_plus)),
    }


def _run_op_spectrum(doc, args):
    with _reading():
        T = _real_matrix_in(doc["matrix"])
    report = complex_spectrum(T)
    return {
        "eigenvalues": [_c_out(v) for v in report.eigenvalues],
        "pairs": [{"multiplicity": m, "value": _c_out(v)} for v, m in report.pairs],
    }


def _run_op_calc(doc, args):
    with _reading():
        T = _real_matrix_in(doc["matrix"])
        F = _kind_in(doc["function"], _OPERATOR_KINDS, len(T))
        if F.dim != len(T):
            raise ParseError(f"operator function dimension {F.dim} does not match matrix {len(T)}")
    value, diag, flat_defect = op_calculus(
        F, T, cfg=QuadratureConfig(rel_tol=args.tol), return_diagnostics=True
    )
    return {
        "diagnostics": dict(_quadrature_diagnostics(diag), flat_defect=flat_defect),
        "value": _mat_out(value),
    }


def _run_mult_op(doc, args):
    with _reading():
        if len(doc["quaternions"]) > _MAX_MULT_OP_QUATERNIONS:
            raise ParseError(f"mult-op takes at most {_MAX_MULT_OP_QUATERNIONS} quaternions")
        quats = [_quat_in(c) for c in doc["quaternions"]]
    T = discrete_mult_op(quats)
    report = complex_spectrum(T, cap=max(64, T.shape[0]))
    return {
        "dimension": T.shape[0],
        "eigenvalue_pairs": [{"multiplicity": m, "value": _c_out(v)} for v, m in report.pairs],
        "matrix": _mat_out(T),
    }


def _run_joint_spectrum(doc, args):
    with _reading():
        pair = _pair_in(doc)
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
    with _reading():
        f = _kind_in(doc["function"], _TWO_VARIABLE_KINDS)
        pair = _pair_in(doc)
        if "sphere" in doc:
            sphere = doc["sphere"]
            grid = SphereGrid(
                (_number_in(sphere["center"][0]), _number_in(sphere["center"][1])),
                _number_in(sphere["radius"]),
                args.grid_res,
            )
    if "sphere" not in doc:
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
    "deriv": _run_eval,
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
    except (OSError, json.JSONDecodeError, ParseError, RecursionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1

    handler = _HANDLERS[args.command]
    try:
        result = handler(doc, args)
    except (ParseError, InvalidArgumentError, SingularElementError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, GeometryError, ContractViolationError, NumericError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, never of the document
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

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
