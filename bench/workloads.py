"""Seeded job generation for the four benchmark workloads.

Each workload is an endless sequence of *cycles*.  A cycle is a fixed
multiset of job classes (so every seed runs the same mix, except that a
quat-contour job whose one circle is not posed runs on two) whose numeric
inputs are drawn from ``numpy.random.default_rng([seed, workload, cycle])``;
the same seed therefore gives the same jobs, and runs stop only at cycle
boundaries so that the mix inside a run never depends on timing.

A job is a dict:

``id``      ``"<workload>/<cycle>/<index>"``
``cls``     job class label, used for the mix table
``argv``    the CLI's real argv
``text``    the stdin document (JSON text, or deliberately malformed text)
``code``    the expected exit code (``stall_code``, where set, also passes)
``check``   which reference check applies (see ``reference.py``)
``path``    the calculus whose accuracy the job measures, or None

plus check-specific fields (``joint_points`` for joint spectra).  The
program only ever sees ``argv`` and ``text``.
"""

from __future__ import annotations

import json

import numpy as np

from reference import SLICE_TOL, SURFACE_TOL, stem_at_quaternion, stem_values

WORKLOADS = ("quat-contour", "op-calc", "joint-surface", "pointwise")


def _c(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _doc_text(doc):
    return json.dumps(doc, sort_keys=True)


#: Cycle key of the untimed warm-up cycle and of the set-up job; runs never
#: reach this many cycles.
WARMUP_CYCLE = 2**32 - 1


def _rng(seed, workload, cycle):
    return np.random.default_rng([int(seed) % 2**63, WORKLOADS.index(workload), int(cycle)])


# ---------------------------------------------------------------------------
# function documents


def _quaternion(rng, scale):
    return [float(v) for v in scale * rng.standard_normal(4)]


def _hpoly(rng, degree):
    return {"kind": "hpoly", "coeffs": [_quaternion(rng, 1.0) for _ in range(degree + 1)]}


def _complex_poly(rng, degree, scale=0.5):
    coeffs = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    return {"kind": "poly", "coeffs": [_c(c) for c in coeffs]}


def _affine(rng):
    body = {"kind": str(rng.choice(["exp", "sin", "cos"]))}
    scale = complex(rng.uniform(0.4, 1.0), rng.uniform(-0.3, 0.3))
    shift = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    return {"kind": "affine", "scale": _c(scale), "shift": _c(shift), "body": body}


def _pair_stem(rng):
    f1 = {"kind": "sum", "parts": [_affine(rng), _complex_poly(rng, 2)]}
    f2 = {"kind": "product", "parts": [_affine(rng), _complex_poly(rng, 1)]}
    return {"kind": "pair", "f1": f1, "f2": f2}


def _stem(rng, kind):
    if kind in ("exp", "sin", "cos"):
        return {"kind": "scalar", "f": {"kind": kind}}
    if kind == "pair":
        return _pair_stem(rng)
    return _hpoly(rng, int(kind[len("hpoly"):]))


def _real_scalar(rng, kind):
    if kind == "poly":
        return {"kind": "poly", "coeffs": [_c(c) for c in rng.standard_normal(3)]}
    return {"kind": kind}


def _real_matrix(rng, n):
    return rng.standard_normal((n, n)) / np.sqrt(n)


def _split_spectrum_matrix(rng, n):
    """Eigenvalues in two clusters near -2.5 and 2.5, so the contour has two circles."""
    shift = np.diag(np.where(np.arange(n) < n // 2, -2.5, 2.5))
    return 0.3 * _real_matrix(rng, n) + shift


# ---------------------------------------------------------------------------
# quat-contour

_CONTOUR_STEMS = ("hpoly4", "hpoly5", "hpoly6", "exp", "sin", "cos", "pair", "pair")

#: Largest ratio of the integrand's norm on a contour to the value's norm
#: (at least 1) for which a contour job is posed.  The trapezoid sum's
#: rounding error is about eps times that ratio, so beyond ``1e-10 / eps``
#: the program cannot pass its own convergence test (``--tol`` 1e-10) in
#: double precision on that contour.
MAX_AMPLIFICATION = 1e-10 / np.finfo(float).eps


def amplification(function, q, order, center, radius, points=64):
    """Largest norm of the order-th derivative on a circle over its norm at q."""
    z = center + radius * np.exp(2j * np.pi * np.arange(points) / points)
    on_circle = np.linalg.norm(stem_values(function, z, order), axis=(-2, -1)).max()
    at_q = np.linalg.norm(stem_at_quaternion(function, q, order))
    return float(on_circle / max(1.0, at_q))


def _contour_job(rng, stem_kind, q, circles, order):
    t = float(np.linalg.norm(q[1:]))
    doc = {"function": _stem(rng, stem_kind), "quaternion": q}
    # One real-centred circle of radius 2 t + 0.25 encloses both eigenvalues
    # q0 +- i t.  For exp-like stems with t above about 6 the integrand on it
    # exceeds MAX_AMPLIFICATION (at t near 10 the program stalls at 2^18
    # nodes and exits 0 with a value off by 1e-8 or more, which the known-defect
    # job shows in every run); such a job runs on two circles instead, whose
    # radius 0.4 t keeps the ratio small for every quaternion drawn here.
    if circles == 1 and (amplification(doc["function"], q, order, q[0], 2 * t + 0.25)
                         > MAX_AMPLIFICATION):
        circles = 2
    # two circles of radius 0.4 t around the eigenvalues stay disjoint; a
    # margin above t makes them merge into the one circle above
    margin = 0.4 * t if circles == 2 else t + 0.25
    command = "eval" if order == 0 else "deriv"
    if order:
        doc["order"] = order
    return {
        "cls": f"{command}/{stem_kind.rstrip('456')}/{circles}c",
        "argv": [command, "--margin", repr(margin)],
        "text": _doc_text(doc),
        "code": 0,
        "check": "matfun",
        "path": "contour_calc",
    }


def _quat_contour(rng, cycle):
    # Quaternions are scale * N(0, I4) like every other quaternion here.  A
    # two-circle job takes about twice as long as a one-circle job; with one
    # rep in four on two circles the median latency lies inside the
    # one-circle cluster, not between the two.
    jobs = []
    for rep in range(4):
        for scale in (0.3, 1.0, 3.0):
            for stem_kind in _CONTOUR_STEMS:
                q = _quaternion(rng, scale)
                circles = 2 if rep == 3 else 1
                jobs.append(_contour_job(rng, stem_kind, q, circles, (len(jobs) + rep) % 3))
    rng.shuffle(jobs)
    return jobs


def known_defect_jobs(workload):
    """Jobs outside the posed range that show a known defect; the same in every run.

    ``quat-contour``: exp at a quaternion of imaginary norm 12 on one
    circle.  The integrand on the circle is e^24 times the value, so the
    doubling loop stalls at 2^18 nodes and the program exits 0 with
    ``"converged": false`` and a value off by about 1e-6.  A stall should
    not exit 0 (exit 3, AccuracyError, would report it); the check passes a
    value inside the gate, a reported stall, or exit 3.

    ``joint-surface``: ``sin(T1) (I + T2 / 2)`` for a normal pair with joint
    eigenvalues (2 +- 0.75i, 2.2 +- 6i) at resolution 32, unscaled.  The
    program exits 0 with a value off by about 7e-3, against 1e-4 for the
    gate, and reports nothing: the surface calculus has no error estimate.
    """
    if workload == "quat-contour":
        doc = {"function": {"kind": "scalar", "f": {"kind": "exp"}},
               "quaternion": [0.5, 12.0, 0.0, 0.0]}
        return [{"id": "quat-contour/known-defect", "cls": "known-defect",
                 "argv": ["eval", "--margin", repr(12.25)], "text": _doc_text(doc),
                 "code": 0, "stall_code": 3, "check": "matfun-or-stall", "path": None}]
    if workload == "joint-surface":
        points = [(complex(2.0, 0.75), complex(2.2, 6.0)),
                  (complex(2.0, -0.75), complex(2.2, -6.0))]
        doc = {"function": {"kind": "separable", "g": {"kind": "sin"},
                            "h": {"kind": "poly", "coeffs": [_c(1.0), _c(0.5)]}},
               "matrix1": [[2.0, 0.75], [-0.75, 2.0]], "matrix2": [[2.2, 6.0], [-6.0, 2.2]]}
        margin = repr(sphere_margin(points))
        return [{"id": "joint-surface/known-defect", "cls": "known-defect",
                 "argv": ["joint-calc", "--grid-res", "32", "--margin", margin],
                 "text": _doc_text(doc), "code": 0, "stall_code": 3, "check": "joint-calc",
                 "path": None, "tol": SURFACE_TOL[32]}]
    return []


# ---------------------------------------------------------------------------
# op-calc

_OP_SIZES = (2,) * 8 + (4,) * 6 + (8,) * 4 + (16,) * 2 + (32,) * 2
#: Indices into _OP_SIZES whose matrix has a split spectrum: one job each at
#: n = 8 and 16, so every cycle integrates over two circles.  Both n = 32 jobs
#: have one circle: they are the slowest class, about 1/12 of the jobs, so the
#: tail percentile falls inside it rather than between two classes.
_OP_SPLIT = (17, 19)
_OP_FUNCTIONS = ("exp", "sin", "op-poly", "op-terms")


def _op_function(rng, kind, n):
    if kind in ("exp", "sin"):
        return {"kind": "op-scalar", "f": {"kind": kind}}
    if kind == "op-poly":
        return {"kind": "op-poly", "coeffs": [_real_matrix(rng, n).tolist() for _ in range(3)]}
    terms = [
        {"matrix": _real_matrix(rng, n).tolist(),
         "scalar": _real_scalar(rng, str(rng.choice(["exp", "sin", "cos", "poly"])))}
        for _ in range(2)
    ]
    return {"kind": "op-terms", "terms": terms}


def _op_calc(rng, cycle):
    jobs = []
    for k, n in enumerate(_OP_SIZES):
        kind = _OP_FUNCTIONS[(k + cycle) % len(_OP_FUNCTIONS)]
        matrix = (_split_spectrum_matrix if k in _OP_SPLIT else _real_matrix)(rng, n)
        doc = {"function": _op_function(rng, kind, n), "matrix": matrix.tolist()}
        jobs.append({
            "cls": f"op-calc/n{n}{'/split' if k in _OP_SPLIT else ''}",
            "argv": ["op-calc"],
            "text": _doc_text(doc),
            "code": 0,
            "check": "op-calc",
            "path": "real_op",
        })
    n = (4, 8)[cycle % 2]
    jobs.append({
        "cls": "op-spectrum",
        "argv": ["op-spectrum"],
        "text": _doc_text({"matrix": _real_matrix(rng, n).tolist()}),
        "code": 0,
        "check": "op-spectrum",
        "path": None,
    })
    quats = [_quaternion(rng, 1.0) for _ in range(1 + cycle % 4)]
    jobs.append({
        "cls": "mult-op",
        "argv": ["mult-op"],
        "text": _doc_text({"quaternions": quats}),
        "code": 0,
        "check": "mult-op",
        "path": None,
    })
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# joint-surface


def commuting_pair(rng, n, complex_block):
    """Real commuting pair ``S D1 S^-1, S D2 S^-1`` with its joint eigenvalues.

    With ``complex_block`` the leading 2x2 blocks are rotation-scalings, so
    two joint eigenvalues are a conjugate pair off the real axis.
    """
    while True:
        S = rng.standard_normal((n, n))
        if abs(np.linalg.det(S)) > 0.2:
            break
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    points = []
    start = 0
    if complex_block:
        a, b, c, d = rng.standard_normal(4)
        d1[:2, :2] = [[a, b], [-b, a]]
        d2[:2, :2] = [[c, d], [-d, c]]
        points += [(complex(a, b), complex(c, d)), (complex(a, -b), complex(c, -d))]
        start = 2
    for k in range(start, n):
        d1[k, k], d2[k, k] = rng.standard_normal(2)
        points.append((complex(d1[k, k]), complex(d2[k, k])))
    inv = np.linalg.inv(S)
    return S @ d1 @ inv, S @ d2 @ inv, points


def sphere_margin(points):
    """Sphere clearance equal to the reach of the joint spectral set (at least 1).

    The CLI's enclosing sphere then has twice that reach as radius, so the
    quadrature error of a polynomial at a given resolution no longer depends
    on how widely the joint eigenvalues are spread, and one gate per
    resolution fits all pairs.  ``_two_variable`` scales the arguments of
    separable factors by the same reach, for the same reason.
    """
    c1 = (min(p[0].real for p in points) + max(p[0].real for p in points)) / 2.0
    c2 = (min(p[1].real for p in points) + max(p[1].real for p in points)) / 2.0
    reach = max(np.hypot(p[0].real - c1, p[1].real - c2) + np.hypot(p[0].imag, p[1].imag)
                for p in points)
    return max(1.0, float(reach))


def _over(doc, reach):
    """``doc`` evaluated at ``z / reach``."""
    return {"kind": "affine", "scale": _c(1.0 / reach), "shift": _c(0.0), "body": doc}


def _two_variable(rng, kind, reach):
    if kind == "monomial":
        a, b = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))[int(rng.integers(5))]
        coeffs = [[_c(0.0)] * (b + 1) for _ in range(a + 1)]
        coeffs[a][b] = _c(1.0)
        return {"kind": "poly2", "coeffs": coeffs}
    if kind == "poly2":
        return {"kind": "poly2",
                "coeffs": [[_c(v) for v in row] for row in rng.standard_normal((3, 3))]}
    # exp, sin and cos grow like e^r on a sphere of radius r, and the surface
    # rule needs more nodes per angle than r: unscaled, sin at reach 6 misses
    # the resolution-32 gate by 70x (see known_defect_jobs).  Scaled by the
    # reach, every factor sees a sphere of radius about 2.
    g, h = rng.choice(["exp", "sin", "cos", "poly"], size=2)
    return {"kind": "separable", "g": _over(_real_scalar(rng, str(g)), reach),
            "h": _over(_real_scalar(rng, str(h)), reach)}


# (pair group, n, resolution, function kinds): a group with several kinds
# reuses one pair in consecutive jobs; the others use a fresh pair once.
# Group A's polynomial jobs hold ranks 6-9 of the 14 latencies of a cycle,
# so the median lies in their middle rather than at a class boundary.
_JOINT_PLAN = (
    ("A", 2, 32, ("monomial", "poly2", "separable", "monomial", "poly2")),
    ("B", 3, 16, ("monomial", "poly2")),
    (None, 2, 64, ("monomial",)),
    (None, 4, 48, ("poly2",)),
    (None, 4, 48, ("separable",)),
    (None, 3, 32, ("separable",)),
    (None, 4, 16, ("monomial",)),
)


def _joint_surface(rng, cycle):
    jobs = []
    for g, (group, n, res, kinds) in enumerate(_JOINT_PLAN):
        t1, t2, points = commuting_pair(rng, n, complex_block=(g + cycle) % 2 == 0)
        reach = sphere_margin(points)
        margin = repr(reach)
        for kind in kinds:
            doc = {"function": _two_variable(rng, kind, reach), "matrix1": t1.tolist(),
                   "matrix2": t2.tolist()}
            jobs.append({
                "cls": f"joint-calc/n{n}/r{res}/{'recurring' if group else 'single'}",
                "argv": ["joint-calc", "--grid-res", str(res), "--margin", margin],
                "text": _doc_text(doc),
                "code": 0,
                "check": "joint-calc",
                "path": "joint_op",
                "tol": SURFACE_TOL[res],
            })
    for n in (3, 4):
        t1, t2, points = commuting_pair(rng, n, complex_block=(n + cycle) % 2 == 0)
        jobs.append({
            "cls": "joint-spectrum",
            "argv": ["joint-spectrum"],
            "text": _doc_text({"matrix1": t1.tolist(), "matrix2": t2.tolist()}),
            "code": 0,
            "check": "joint-spectrum",
            "path": None,
            "joint_points": [[_c(p[0]), _c(p[1])] for p in points],
        })
    return jobs


# ---------------------------------------------------------------------------
# pointwise

_MALFORMED = (
    ("spectrum", '{"quaternion": [1.0, 2.0'),
    ("spectrum", '[1.0, 2.0, 3.0, 4.0]'),
    ("spectrum", '{"quaternion": [1.0, 2.0, 3.0]}'),
    ("eval", '{"function": {"kind": "scalar", "f": {"kind": "tan"}}, '
             '"quaternion": [0, 1, 0, 0], "method": "spectral"}'),
)


def _conjugate_samples(rng, pairs):
    z = rng.uniform(0.2, 1.5, pairs) * np.exp(1j * rng.uniform(0.0, np.pi, pairs))
    return [_c(v) for w in z for v in (w, w.conjugate())]


def _pointwise(rng, cycle):
    jobs = []

    def add(cls, argv, doc, check, code=0, path=None, text=None):
        jobs.append({"cls": cls, "argv": argv, "text": text or _doc_text(doc), "code": code,
                     "check": check, "path": path})

    for scale in (0.3, 1.0, 3.0):
        add("spectrum", ["spectrum"], {"quaternion": _quaternion(rng, scale)}, "spectrum")
    for k, stem_kind in enumerate(("hpoly3", "exp", "pair")):
        doc = {"function": _stem(rng, stem_kind), "quaternion": _quaternion(rng, 1.0),
               "method": "spectral"}
        add(f"eval-spectral/{stem_kind.rstrip('3')}", ["eval"], doc, "matfun", path="func_model")
    for k, stem_kind in enumerate(("hpoly6", "cos", "pair")):
        doc = {"function": _stem(rng, stem_kind), "quaternion": _quaternion(rng, 1.0),
               "method": "spectral", "order": 1 + (k + cycle) % 2}
        add(f"deriv-spectral/{stem_kind.rstrip('6')}", ["deriv"], doc, "matfun", path="func_model")

    # zeros: z^2 - 2 Re(q) z + |q|^2 times a quaternion vanishes on the spectrum of q
    q = _quaternion(rng, 1.0)
    a = _quaternion(rng, 1.0)
    roots = (float(np.dot(q, q)), -2.0 * q[0], 1.0)
    doc = {"function": {"kind": "hpoly", "coeffs": [[r * v for v in a] for r in roots]},
           "quaternion": q}
    add("zeros/contains", ["zeros"], doc, "zeros")
    add("zeros/misses", ["zeros"], {"function": _hpoly(rng, 3), "quaternion": _quaternion(rng, 1.0)},
        "zeros")

    samples = _conjugate_samples(rng, 16)
    add("stem-check/stem", ["stem-check"],
        {"function": _stem(rng, ("pair", "hpoly4", "sin")[cycle % 3]), "samples": samples},
        "stem-check")
    entries = [[_complex_poly(rng, 2) for _ in range(2)] for _ in range(2)]
    add("stem-check/entries", ["stem-check"],
        {"function": {"kind": "entries", "entries": entries}, "samples": samples}, "stem-check")

    grid = {"points": 24, "directions": 3, "seed": int(rng.integers(2**31))}
    add("slice-check/stem", ["slice-check", "--tol", repr(SLICE_TOL)],
        {"function": _stem(rng, ("hpoly4", "exp")[cycle % 2]), "grid": grid}, "slice-check")
    add("slice-check/star", ["slice-check", "--tol", repr(SLICE_TOL)],
        {"function": {"kind": "star-involution"}, "grid": grid}, "slice-check")

    for k in range(2):
        command, text = _MALFORMED[(2 * cycle + k) % len(_MALFORMED)]
        add("malformed", [command], None, "exit-only", code=1, text=text)
    q = _quaternion(rng, 1.0)
    far = 10.0 + float(np.linalg.norm(q))
    doc = {"function": _stem(rng, "exp"), "quaternion": q, "method": "spectral",
           "domain": [{"center": _c(far), "radius": 1.0}]}
    add("outside-domain", ["eval"], doc, "exit-only", code=2)
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {
    "quat-contour": _quat_contour,
    "op-calc": _op_calc,
    "joint-surface": _joint_surface,
    "pointwise": _pointwise,
}


def cycle_jobs(workload, seed, cycle):
    """The jobs of one cycle, identical for identical arguments."""
    jobs = _GENERATORS[workload](_rng(seed, workload, cycle), cycle)
    for k, job in enumerate(jobs):
        job["id"] = f"{workload}/{cycle}/{k}"
    return jobs


def warmup_job(workload):
    """A small job of the workload's kind, run once by every set-up probe.

    It is the same for every seed, so that ``setup_s`` measures set-up only.
    """
    rng = _rng(0, workload, WARMUP_CYCLE)
    job = {"id": f"{workload}/setup", "cls": "setup", "code": 0, "path": None}
    if workload == "op-calc":
        doc = {"function": _op_function(rng, "exp", 2), "matrix": _real_matrix(rng, 2).tolist()}
        job.update(argv=["op-calc"], check="op-calc")
    elif workload == "joint-surface":
        t1, t2, points = commuting_pair(rng, 2, complex_block=False)
        doc = {"function": _two_variable(rng, "monomial", 1.0), "matrix1": t1.tolist(),
               "matrix2": t2.tolist()}
        job.update(argv=["joint-calc", "--grid-res", "16", "--margin",
                         repr(sphere_margin(points))],
                   check="joint-calc", tol=SURFACE_TOL[16])
    else:
        doc = {"function": _stem(rng, "exp"), "quaternion": _quaternion(rng, 1.0)}
        job.update(argv=["eval"], check="matfun", path="contour_calc")
        if workload == "pointwise":
            doc["method"] = "spectral"
            job["path"] = "func_model"
    job["text"] = _doc_text(doc)
    return job


def mix(workload):
    """Job classes and their counts in one cycle."""
    counts = {}
    for job in cycle_jobs(workload, 0, 0):
        counts[job["cls"]] = counts.get(job["cls"], 0) + 1
    return dict(sorted(counts.items()))
