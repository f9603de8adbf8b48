"""Independent references and the correctness gate for benchmark jobs.

References are computed with numpy and scipy only; nothing here imports
quatcalc.  They come from matrix powers of the quaternion's 2x2 matrix or of
the operator, ``scipy.linalg.expm``/``sinm``/``cosm``, an eigendecomposition
for pair stems, and ``sum c_ab T1^a T2^b`` for the surface calculus.

``attach(job)`` stores a job's reference under ``job["ref"]`` (call it
outside every timed interval); ``check(job, code, stdout)`` returns
``(ok, rel_err, reason)``.  A job passes only with the expected exit code
and, for exit 0, finite values inside the job's stated accuracy.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

# Gate tolerances: the suite's 1e-8 for contour and operator values, a
# tighter 1e-10 where the closed form is evaluated directly, and for the
# surface calculus a per-resolution gate following its geometric
# convergence (1e-2 per 16 nodes per angle), tighter than criterion 12's
# 1e-4 at every resolution but 16.
CONTOUR_TOL = 1e-8
OPERATOR_TOL = 1e-8
SPECTRAL_TOL = 1e-10
SURFACE_TOL = {16: 1e-2, 32: 1e-4, 48: 1e-6, 64: 1e-8}
SLICE_TOL = 1e-5

#: ``--tol`` default of the CLI, which decides stem-check and zeros outcomes.
CLI_TOL = 1e-10


# ---------------------------------------------------------------------------
# scalar functions: derivatives 0..k of a function document


def _poly_jet(coeffs, z, k):
    out = []
    for _ in range(k + 1):
        out.append(np.polynomial.polynomial.polyval(z, coeffs) if len(coeffs) else 0.0 * z)
        coeffs = np.polynomial.polynomial.polyder(coeffs) if len(coeffs) > 1 else np.zeros(0)
    return out


_TRIG_CYCLE = {
    "sin": (np.sin, np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z)),
    "cos": (np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z), np.sin),
}


def scalar_jet(doc, z, k):
    """``[f(z), f'(z), ..., f^(k)(z)]`` for a scalar function document."""
    z = np.asarray(z, dtype=complex)
    kind = doc["kind"]
    if kind == "poly":
        return _poly_jet(np.array([_cin(c) for c in doc["coeffs"]]), z, k)
    if kind == "exp":
        return [np.exp(z)] * (k + 1)
    if kind in _TRIG_CYCLE:
        return [_TRIG_CYCLE[kind][j % 4](z) for j in range(k + 1)]
    if kind == "affine":
        a, b = _cin(doc["scale"]), _cin(doc["shift"])
        inner = scalar_jet(doc["body"], a * z + b, k)
        return [a**j * inner[j] for j in range(k + 1)]
    parts = [scalar_jet(p, z, k) for p in doc["parts"]]
    if kind == "sum":
        return [sum(p[j] for p in parts) for j in range(k + 1)]
    if kind == "product":
        out = parts[0]
        for p in parts[1:]:  # Leibniz rule
            out = [sum(math.comb(j, i) * out[i] * p[j - i] for i in range(j + 1))
                   for j in range(k + 1)]
        return out
    raise ValueError(f"unknown scalar kind {kind!r}")


def _star_derivative(doc, z, k):
    """k-th derivative of ``conj(f(conj z))``."""
    return np.conj(scalar_jet(doc, np.conj(z), k)[k])


# ---------------------------------------------------------------------------
# 2x2 matrix functions at a quaternion


def _cin(rec):
    return complex(rec["re"], rec["im"])


def quaternion_matrix(x):
    z1, z2 = complex(x[0], x[1]), complex(x[2], x[3])
    return np.array([[z1, z2], [-z2.conjugate(), z1.conjugate()]])


def stem_values(doc, z, k):
    """k-th derivative of the matrix function at complex points, shape z.shape + (2, 2)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape + (2, 2), dtype=complex)
    kind = doc["kind"]
    if kind == "hpoly":
        for n, a in enumerate(doc["coeffs"]):
            if n >= k:
                out += math.perm(n, k) * (z ** (n - k))[..., None, None] * quaternion_matrix(a)
    elif kind == "scalar":
        out[..., 0, 0] = out[..., 1, 1] = scalar_jet(doc["f"], z, k)[k]
    elif kind == "pair":
        f1, f2 = doc["f1"], doc["f2"]
        out[..., 0, 0] = scalar_jet(f1, z, k)[k]
        out[..., 0, 1] = scalar_jet(f2, z, k)[k]
        out[..., 1, 0] = -_star_derivative(f2, z, k)
        out[..., 1, 1] = _star_derivative(f1, z, k)
    elif kind == "entries":
        for i, row in enumerate(doc["entries"]):
            for j, f in enumerate(row):
                out[..., i, j] = scalar_jet(f, z, k)[k]
    else:
        raise ValueError(f"unknown matrix function kind {kind!r}")
    return out


_SCALAR_MATRIX_FUNCTIONS = {
    "exp": (scipy.linalg.expm,) * 4,
    "sin": (scipy.linalg.sinm, scipy.linalg.cosm,
            lambda a: -scipy.linalg.sinm(a), lambda a: -scipy.linalg.cosm(a)),
    "cos": (scipy.linalg.cosm, lambda a: -scipy.linalg.sinm(a),
            lambda a: -scipy.linalg.cosm(a), scipy.linalg.sinm),
}


def stem_at_quaternion(doc, x, k):
    """k-th derivative of the matrix function evaluated at the quaternion x."""
    Q = quaternion_matrix(x)
    kind = doc["kind"]
    if kind == "hpoly":
        out = np.zeros((2, 2), dtype=complex)
        for n, a in enumerate(doc["coeffs"]):
            if n >= k:
                out += math.perm(n, k) * quaternion_matrix(a) @ np.linalg.matrix_power(Q, n - k)
        return out
    if kind == "scalar":
        return _SCALAR_MATRIX_FUNCTIONS[doc["f"]["kind"]][k % 4](Q)
    lam, V = np.linalg.eig(Q)
    W = np.linalg.inv(V)
    return sum(stem_values(doc, lam[j], k) @ np.outer(V[:, j], W[j]) for j in range(2))


# ---------------------------------------------------------------------------
# operators


def _real_scalar_of_matrix(doc, T):
    if doc["kind"] == "affine":  # real scale and shift only
        arg = _cin(doc["scale"]).real * T + _cin(doc["shift"]).real * np.eye(len(T))
        return _real_scalar_of_matrix(doc["body"], arg)
    if doc["kind"] == "poly":
        coeffs = [_cin(c).real for c in doc["coeffs"]]
        return sum(c * np.linalg.matrix_power(T, k) for k, c in enumerate(coeffs))
    return _SCALAR_MATRIX_FUNCTIONS[doc["kind"]][0](T)


def operator_function(doc, T):
    kind = doc["kind"]
    if kind == "op-scalar":
        return _real_scalar_of_matrix(doc["f"], T)
    if kind == "op-poly":
        return sum(np.array(A) @ np.linalg.matrix_power(T, k) for k, A in enumerate(doc["coeffs"]))
    return sum(np.array(t["matrix"]) @ _real_scalar_of_matrix(t["scalar"], T) for t in doc["terms"])


def two_variable_function(doc, T1, T2):
    if doc["kind"] == "poly2":
        return sum(
            _cin(c).real * np.linalg.matrix_power(T1, a) @ np.linalg.matrix_power(T2, b)
            for a, row in enumerate(doc["coeffs"]) for b, c in enumerate(row)
        )
    return _real_scalar_of_matrix(doc["g"], T1) @ _real_scalar_of_matrix(doc["h"], T2)


def left_mult_block(x):
    """4x4 real matrix of ``p -> x * p`` on components along (I, J, K, L)."""
    X = quaternion_matrix(x)
    cols = []
    for e in np.eye(4):
        m = X @ quaternion_matrix(e)
        cols.append([m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag])
    return np.array(cols).T


# ---------------------------------------------------------------------------
# reference construction per check


def _ref_matfun(doc, job):
    return stem_at_quaternion(doc["function"], doc["quaternion"], int(doc.get("order", 0)))


def _ref_op_calc(doc, job):
    return operator_function(doc["function"], np.array(doc["matrix"]))


def _ref_joint_calc(doc, job):
    return two_variable_function(doc["function"], np.array(doc["matrix1"]), np.array(doc["matrix2"]))


def _ref_op_spectrum(doc, job):
    return scipy.linalg.eigvals(np.array(doc["matrix"]))


def _ref_mult_op(doc, job):
    quats = doc["quaternions"]
    m = len(quats)
    T = np.zeros((4 * m, 4 * m))
    uppers = []
    for i, x in enumerate(quats):
        T[4 * i:4 * i + 4, 4 * i:4 * i + 4] = left_mult_block(x)
        uppers.append(complex(x[0], float(np.linalg.norm(x[1:]))))
    return {"matrix": T, "uppers": uppers}


def _ref_spectrum(doc, job):
    Q = quaternion_matrix(doc["quaternion"])
    lam = np.linalg.eigvals(Q)
    return {"Q": Q, "s_plus": max(lam, key=lambda v: v.imag), "s_minus": min(lam, key=lambda v: v.imag)}


def _ref_zeros(doc, job):
    lam = np.linalg.eigvals(quaternion_matrix(doc["quaternion"]))
    s_plus, s_minus = max(lam, key=lambda v: v.imag), min(lam, key=lambda v: v.imag)
    fp, fm = stem_values(doc["function"], [s_plus, s_minus], 0)
    contains = max(np.max(np.abs(fp)), np.max(np.abs(fm))) <= CLI_TOL
    return {"plus": fp, "minus": fm, "contains": bool(contains)}


def _skew_conjugate(a):
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1].conj()
    out[..., 0, 1] = -a[..., 1, 0].conj()
    out[..., 1, 0] = -a[..., 0, 1].conj()
    out[..., 1, 1] = a[..., 0, 0].conj()
    return out


def _ref_stem_check(doc, job):
    z = np.array([_cin(rec) for rec in doc["samples"]])
    F = doc["function"]
    defects = np.linalg.norm(stem_values(F, z.conj(), 0) - _skew_conjugate(stem_values(F, z, 0)),
                             2, axis=(-2, -1))
    defect = float(np.max(defects))
    return {"max_defect": defect, "passed": defect <= CLI_TOL}


def _ref_slice_check(doc, job):
    # Stems are slice regular (defect is finite-difference error only); the
    # star involution q -> x - y s has slice Cauchy-Riemann defect exactly I.
    if doc["function"].get("kind") == "star-involution":
        return {"passed": False, "max_defect": 1.0}
    return {"passed": True, "max_defect": None}


_REFERENCES = {
    "matfun": _ref_matfun,
    "matfun-or-stall": _ref_matfun,
    "op-calc": _ref_op_calc,
    "joint-calc": _ref_joint_calc,
    "op-spectrum": _ref_op_spectrum,
    "mult-op": _ref_mult_op,
    "spectrum": _ref_spectrum,
    "zeros": _ref_zeros,
    "stem-check": _ref_stem_check,
    "slice-check": _ref_slice_check,
    "joint-spectrum": lambda doc, job: [(_cin(a), _cin(b)) for a, b in job["joint_points"]],
    "exit-only": lambda doc, job: None,
}


def attach(job):
    doc = json.loads(job["text"]) if job["code"] == 0 else None
    job["ref"] = _REFERENCES[job["check"]](doc, job)
    return job


# ---------------------------------------------------------------------------
# the gate


class Mismatch(Exception):
    def __init__(self, message, err=None):
        super().__init__(message)
        self.err = err  # relative error of a value that missed its gate


def _finite(x):
    arr = np.asarray(x)
    if not np.all(np.isfinite(arr)):
        raise Mismatch("non-finite value in output")
    return arr


def _matrix(doc):
    rows = [[complex(v["re"], v["im"]) if isinstance(v, dict) else float(v) for v in row]
            for row in doc]
    return _finite(np.array(rows))


def _cplx(rec):
    return complex(_finite(float(rec["re"])), _finite(float(rec["im"])))


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


def _gate(err, tol, what):
    if not err <= tol:
        raise Mismatch(f"{what} relative error {err:.3e} exceeds {tol:g}", err)
    return err


def _match_all(got, want, tol, what, dist=lambda a, b: abs(complex(a) - complex(b))):
    """Each value in ``got`` matches a distinct value of ``want``."""
    want = list(want)
    if len(got) != len(want):
        raise Mismatch(f"{what}: {len(got)} values, expected {len(want)}")
    for g in got:
        k = min(range(len(want)), key=lambda i: dist(g, want[i]))
        if dist(g, want[k]) > tol:
            raise Mismatch(f"{what}: {g} matches no remaining reference value within {tol:g}")
        del want[k]


def _check_matfun(job, res, ref):
    _finite(float(res["dist_to_quaternions"]))
    tol = CONTOUR_TOL if job["path"] == "contour_calc" else SPECTRAL_TOL
    return _gate(rel_err(_matrix(res["value"]), ref), tol, "value")


def _check_matfun_or_stall(job, res, ref):
    """A contour value inside the gate, or one whose output reports the stall."""
    err = rel_err(_matrix(res["value"]), ref)
    if err <= CONTOUR_TOL or res["diagnostics"]["converged"] is False:
        return err
    raise Mismatch(f"value relative error {err:.3e} exceeds {CONTOUR_TOL:g} "
                   "and the output reports convergence", err)


def _check_op_calc(job, res, ref):
    return _gate(rel_err(_matrix(res["value"]), ref), OPERATOR_TOL, "value")


def _check_joint_calc(job, res, ref):
    return _gate(rel_err(_matrix(res["value"]), ref), job["tol"], "value")


def _check_op_spectrum(job, res, ref):
    tol = OPERATOR_TOL * max(1.0, float(np.max(np.abs(ref))))
    _match_all([_cplx(v) for v in res["eigenvalues"]], ref, tol, "eigenvalues")
    pairs = [_cplx(p["value"]) for p in res["pairs"] for _ in range(int(p["multiplicity"]))]
    _match_all(pairs, [v for v in ref if v.imag >= -tol], tol, "pairs")


def _check_mult_op(job, res, ref):
    T = ref["matrix"]
    if int(res["dimension"]) != T.shape[0]:
        raise Mismatch("wrong dimension")
    _gate(rel_err(_matrix(res["matrix"]), T), 1e-14, "matrix")
    expanded = [_cplx(p["value"]) for p in res["eigenvalue_pairs"]
                for _ in range(int(p["multiplicity"]) // 2)]
    _match_all(expanded, ref["uppers"], OPERATOR_TOL * max(1.0, np.abs(ref["uppers"]).max()),
               "eigenvalue pairs")


def _check_spectrum(job, res, ref):
    scale = max(1.0, float(np.linalg.norm(ref["Q"], 2)))
    tol = SPECTRAL_TOL * scale
    for key in ("s_plus", "s_minus"):
        _match_all([_cplx(res[key])], [ref[key]], tol, key)
        s = _cplx(res[key])
        nu = np.array([_cplx(v) for v in res["eigenvectors"]["nu_" + key[2:]]])
        if abs(np.linalg.norm(nu) - 1.0) > SPECTRAL_TOL or \
                np.linalg.norm(ref["Q"] @ nu - s * nu) > tol:
            raise Mismatch(f"eigenvector for {key} fails Q nu = s nu")


def _check_zeros(job, res, ref):
    if bool(res["contains"]) != ref["contains"]:
        raise Mismatch(f"contains is {res['contains']}, expected {ref['contains']}")
    err = max(rel_err(_matrix(res["value_at_s_plus"]), ref["plus"]),
              rel_err(_matrix(res["value_at_s_minus"]), ref["minus"]))
    _gate(err, SPECTRAL_TOL, "zero-set values")


def _check_stem_check(job, res, ref):
    expected = job["cls"].endswith("/stem")
    if bool(res["passed"]) != expected or ref["passed"] != expected:
        raise Mismatch(f"passed is {res['passed']}, expected {expected}")
    got = float(_finite(float(res["max_defect"])))
    if abs(got - ref["max_defect"]) > CLI_TOL + SPECTRAL_TOL * ref["max_defect"]:
        raise Mismatch(f"max_defect {got:.3e}, reference {ref['max_defect']:.3e}")


def _check_slice_check(job, res, ref):
    got = float(_finite(float(res["max_defect"])))
    if bool(res["passed"]) != ref["passed"]:
        raise Mismatch(f"passed is {res['passed']}, expected {ref['passed']}")
    if ref["max_defect"] is None:
        if not got <= SLICE_TOL:
            raise Mismatch(f"stem defect {got:.3e} exceeds {SLICE_TOL:g}")
    elif abs(got - ref["max_defect"]) > 1e-6:
        raise Mismatch(f"star-involution defect {got:.6f}, expected 1")


def _check_joint_spectrum(job, res, ref):
    scale = max(1.0, max(abs(a) + abs(b) for a, b in ref))
    points = res["points"]
    _match_all([(_cplx(p["z1"]), _cplx(p["z2"])) for p in points], ref, OPERATOR_TOL * scale,
               "joint eigenvalues", dist=lambda z, w: abs(z[0] - w[0]) + abs(z[1] - w[1]))
    for p in points:
        if not float(_finite(float(p["margin"]))) <= OPERATOR_TOL:
            raise Mismatch("joint eigenvalue off the pencil zero set")


_CHECKS = {
    "matfun": _check_matfun,
    "matfun-or-stall": _check_matfun_or_stall,
    "op-calc": _check_op_calc,
    "joint-calc": _check_joint_calc,
    "op-spectrum": _check_op_spectrum,
    "mult-op": _check_mult_op,
    "spectrum": _check_spectrum,
    "zeros": _check_zeros,
    "stem-check": _check_stem_check,
    "slice-check": _check_slice_check,
    "joint-spectrum": _check_joint_spectrum,
}


def check(job, code, stdout):
    """``(ok, rel_err, reason)``; ``rel_err`` is set for jobs with a value path,
    also when the value misses its gate, so that the worst error counts failures."""
    if code not in (job["code"], job.get("stall_code")):
        return False, None, f"exit code {code}, expected {job['code']}"
    if code != 0:
        if stdout:
            return False, None, "output written on a failing exit"
        return True, None, ""
    try:
        res = json.loads(stdout)["result"]
        err = _CHECKS[job["check"]](job, res, job["ref"])
    except Mismatch as exc:
        return False, exc.err, str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, None, f"unreadable output: {type(exc).__name__}: {exc}"
    return True, err, ""
