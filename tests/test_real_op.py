import json

import numpy as np
import pytest

import quatcalc as qc
from quatcalc import I, J, K, cli

from conftest import random_quaternion


def rotation_block(u, v):
    return np.array([[u, v], [-v, u]])


def assert_pairs_close(got, want, tol=1e-10):
    assert len(got) == len(want)
    for (gv, gm), (wv, wm) in zip(got, want):
        assert gm == wm
        assert abs(gv - wv) <= tol


def assert_values_close(got, want, tol=1e-10):
    got = sorted(got, key=lambda v: (round(v.real, 8), round(v.imag, 8)))
    want = sorted(want, key=lambda v: (round(v.real, 8), round(v.imag, 8)))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= tol


def ex2_closed_form(f, u, v):
    # two-projection formula for the rotation block
    a = np.array([[1, -1j], [1j, 1]], dtype=complex)
    b = np.array([[1, 1j], [-1j, 1]], dtype=complex)
    return 0.5 * f(u + 1j * v) * a + 0.5 * f(u - 1j * v) * b


def test_complexify_examples():
    np.testing.assert_array_equal(qc.complexify(np.eye(3)), np.eye(3, dtype=complex))
    T = rotation_block(0.0, 1.0)
    eigs = np.linalg.eigvals(qc.complexify(T))
    assert_values_close(eigs, [-1j, 1j], tol=1e-12)


def test_complexify_commutes_with_squaring(rng):
    T = rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        qc.complexify(T @ T), qc.complexify(T) @ qc.complexify(T), atol=1e-13
    )


def test_flat_fixes_real_operators(rng):
    T = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(qc.flat(qc.complexify(T)), qc.complexify(T))
    S = np.array([[1j, 0], [0, 0]])
    np.testing.assert_array_equal(qc.flat(S), np.array([[-1j, 0], [0, 0]]))


def test_flat_is_multiplicative_and_involutive(rng):
    for _ in range(50):
        S = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        R = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(qc.flat(S @ R), qc.flat(S) @ qc.flat(R), atol=1e-14)
        np.testing.assert_array_equal(qc.flat(qc.flat(S)), S)
        np.testing.assert_allclose(qc.flat(2j * S), -2j * qc.flat(S), atol=1e-15)


# ---------------------------------------------------------------------------
# quaternionic resolvent margins


def test_margin_scalar_operator():
    T = np.array([[2.5]])
    assert qc.q_resolvent_margin(T, qc.Quaternion(2.5, 0)) <= 1e-14
    assert qc.q_resolvent_margin(T, qc.Quaternion(2.5 + 1j, 0)) > 1e-3


def test_margin_diagonal_operator():
    T = np.diag([1.0, 4.0])
    assert qc.q_resolvent_margin(T, qc.Quaternion(1.0, 0)) <= 1e-14
    assert qc.q_resolvent_margin(T, qc.Quaternion(4.0, 0)) <= 1e-14
    assert qc.q_resolvent_margin(T, qc.Quaternion(2.5, 0)) > 1e-3
    assert not qc.q_resolvent_margin(T, qc.Quaternion(1.0, 0)) > 1e-10
    assert qc.q_resolvent_margin(T, qc.Quaternion(2.5, 0)) > 1e-10


def test_margin_star_invariance_exact(rng):
    for _ in range(1000):
        T = rng.standard_normal((4, 4))
        q = random_quaternion(rng, 2.0)
        assert qc.q_resolvent_margin(T, q) == qc.q_resolvent_margin(T, q.star())


def test_margin_depends_only_on_spectrum(rng):
    for _ in range(100):
        T = rng.standard_normal((4, 4))
        q = random_quaternion(rng, 2.0)
        zeta = qc.spectrum(q).s_plus
        u = complex(rng.standard_normal(), rng.standard_normal())
        if abs(u) > abs(zeta.imag):
            u *= rng.uniform() * abs(zeta.imag) / abs(u)
        r = qc.quaternions_with_spectrum(zeta, u)
        a, b = qc.q_resolvent_margin(T, q), qc.q_resolvent_margin(T, r)
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_block_pencil_equivalence(rng):
    # invertibility of the real pencil matches both block operators
    threshold = 1e-10
    for trial in range(200):
        T = rng.standard_normal((3, 3))
        if trial % 4 == 0:
            lam = complex(np.linalg.eigvals(T)[0])
            q = qc.quaternions_with_spectrum(lam, 0.1 * abs(lam.imag))
        else:
            q = random_quaternion(rng, 2.0)
        scale = max(1.0, qc.mat_norm(T))
        m = qc.q_resolvent_margin(T, q)
        b1 = qc.real_op.smallest_singular_value(qc.q_block_pencil(T, q)) / scale
        b2 = qc.real_op.smallest_singular_value(qc.q_block_pencil(T, q.star())) / scale
        b = min(b1, b2)
        if m > 2 * threshold:
            assert b > 0.5 * threshold
        if m < 0.5 * threshold:
            assert b < 2 * threshold


def test_complex_spectrum_examples():
    rep = qc.complex_spectrum(rotation_block(1.0, 2.0))
    assert_values_close(rep.eigenvalues, [1 - 2j, 1 + 2j], tol=1e-12)
    assert_pairs_close(rep.pairs, ((1 + 2j, 1),))

    rep = qc.complex_spectrum(np.diag([3.0, -1.0]))
    assert_values_close(rep.eigenvalues, [-1.0, 3.0], tol=1e-13)
    assert_pairs_close(rep.pairs, ((-1 + 0j, 1), (3 + 0j, 1)))


def test_complex_spectrum_keeps_a_cluster_around_an_interleaved_pair():
    # 1e-17 +/- i sorts between the members of the real cluster at 0
    T = np.zeros((5, 5))
    T[:2, :2] = rotation_block(1e-17, 1.0)
    T[2:, 2:] = np.diag([-2e-17, 0.0, 3e-17])
    rep = qc.complex_spectrum(T)
    assert_pairs_close(rep.pairs, ((0j, 3), (1j, 1)))


def test_complex_spectrum_margin_cross_check(rng):
    # both directions: eigenvalues sit in the margin zero set, and points
    # with clearance from every eigenvalue have visibly positive margin
    for _ in range(30):
        T = rng.standard_normal((5, 5))
        rep = qc.complex_spectrum(T)
        for lam in rep.eigenvalues:
            assert qc.q_resolvent_margin(T, qc.Quaternion(complex(lam), 0)) <= 1e-6
        far = complex(np.max(np.abs(rep.eigenvalues)) + 2.0, 1.0)
        assert qc.q_resolvent_margin(T, qc.Quaternion(far, 0)) > 1e-6


def test_complex_spectrum_cap(tmp_path, capsys):
    # the library takes any size; the CLI reads op-spectrum and op-calc
    # matrices of side at most 64
    assert qc.complex_spectrum(np.eye(65)).pairs == ((1.0, 65),)
    path = tmp_path / "doc.json"
    op_calc = {"function": {"kind": "op-scalar", "f": {"kind": "exp"}}}
    for command, extra in (("op-spectrum", {}), ("op-calc", op_calc)):
        for side, code in ((64, 0), (65, 1)):
            path.write_text(json.dumps({"matrix": np.eye(side).tolist(), **extra}))
            assert cli.run([command, "--input", str(path)]) == code
            out, err = capsys.readouterr()
            if code:
                assert out == "" and len(err.splitlines()) == 1, err
                assert "at most 64 x 64" in err


# ---------------------------------------------------------------------------
# operator functions and the calculus


def test_op_calculus_computes_the_spectrum_once(rng, monkeypatch):
    T = rng.standard_normal((4, 4))
    F = qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 4)
    gamma = qc.operator_contour(qc.complex_spectrum(T).eigenvalues)
    calls = []
    eigvals = np.linalg.eigvals

    def counting_eigvals(a):
        calls.append(a)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    qc.op_calculus(F, T)
    assert len(calls) == 1
    # a caller's contour is checked against the same single spectrum
    qc.op_calculus(F, T, contour=gamma)
    assert len(calls) == 2


def test_operator_contour_is_real_centered(rng):
    T = rng.standard_normal((6, 6))
    gamma = qc.operator_contour(qc.complex_spectrum(T).eigenvalues)
    assert all(c.center.imag == 0.0 for c in gamma.circles)
    circles = set(gamma.circles)
    assert {qc.Circle(c.center.conjugate(), c.radius) for c in circles} == circles
    for lam in qc.complex_spectrum(T).eigenvalues:
        assert max(c.radius - abs(complex(lam) - c.center) for c in gamma.circles) > 0


def test_op_calculus_square_on_rotation(rng):
    for _ in range(10):
        u, v = rng.standard_normal(2)
        T = rotation_block(u, v)
        F = qc.MatrixCoefficientFunction.from_polynomial(
            [np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)]
        )
        np.testing.assert_allclose(qc.op_calculus(F, T)[0], T @ T, atol=1e-8 * max(1, u * u + v * v))


@pytest.mark.parametrize(
    "scalar,fn",
    [
        (qc.Polynomial([0, 0, 1]), lambda z: z * z),
        (qc.Exp(), np.exp),
        (qc.Sin(), np.sin),
    ],
)
def test_op_calculus_rotation_closed_form(rng, scalar, fn):
    for _ in range(5):
        u, v = rng.standard_normal(2)
        T = rotation_block(u, v)
        F = qc.MatrixCoefficientFunction.from_scalar(scalar, 2)
        got, _, _ = qc.op_calculus(F, T)
        want = ex2_closed_form(fn, u, v)
        assert np.linalg.norm(want.imag) <= 1e-10 * max(1.0, np.linalg.norm(want))
        np.testing.assert_allclose(got, want.real, atol=1e-8 * max(1.0, np.linalg.norm(want)))


def test_op_calculus_exp_at_zero():
    F = qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 3)
    np.testing.assert_allclose(qc.op_calculus(F, np.zeros((3, 3)))[0], np.eye(3), atol=1e-10)


def test_op_calculus_polynomial_reproduction(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        T = rng.standard_normal((n, n))
        mats = [rng.standard_normal((n, n)) for _ in range(4)]
        F = qc.MatrixCoefficientFunction.from_polynomial(mats)
        want = sum(A @ np.linalg.matrix_power(T, k) for k, A in enumerate(mats))
        got, _, _ = qc.op_calculus(F, T)
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_op_calculus_flat_invariance(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        T = rng.standard_normal((n, n))
        terms = [(rng.standard_normal((n, n)), qc.Exp()), (rng.standard_normal((n, n)), qc.Polynomial(rng.standard_normal(3)))]
        F = qc.MatrixCoefficientFunction(terms)
        _, _, flat_defect = qc.op_calculus(F, T)
        assert flat_defect <= 1e-8


def test_op_calculus_module_property(rng):
    for _ in range(5):
        n = 3
        T = rng.standard_normal((n, n))
        F = qc.MatrixCoefficientFunction(
            [(rng.standard_normal((n, n)), qc.Exp()), (rng.standard_normal((n, n)), qc.Polynomial([0, 1]))]
        )
        f = qc.Polynomial(rng.standard_normal(3))
        Ff = qc.MatrixCoefficientFunction([(A, qc.Product(g, f)) for A, g in F.terms])
        left = qc.op_calculus(Ff, T)[0]
        right = qc.op_calculus(F, T)[0] @ qc.op_calculus(
            qc.MatrixCoefficientFunction.from_scalar(f, n), T
        )[0]
        assert np.linalg.norm(left - right) <= 1e-8 * max(1.0, np.linalg.norm(left))


def test_op_calculus_rejects_asymmetric_function(rng):
    T = rng.standard_normal((2, 2))
    with pytest.raises(qc.ContractViolationError):
        bad = qc.MatrixCoefficientFunction.from_scalar(qc.Polynomial([0, 1j]), 2)
        qc.op_calculus(bad, T)


def test_op_calculus_opaque_symmetric(rng):
    T = rotation_block(0.3, 0.8)
    good = qc.MatrixCoefficientFunction.from_scalar(qc.Opaque(np.exp, symmetric=True), 2)
    np.testing.assert_allclose(
        qc.op_calculus(good, T)[0], ex2_closed_form(np.exp, 0.3, 0.8).real, atol=1e-8
    )


def test_quaternion_module_polynomials(rng):
    # quaternion coefficients acting by left multiplication on R^4
    for _ in range(10):
        T = rng.standard_normal((4, 4))
        coeffs = [random_quaternion(rng) for _ in range(4)]
        mats = [qc.left_mult_matrix(a) for a in coeffs]
        F = qc.MatrixCoefficientFunction.from_polynomial(mats)
        want = sum(A @ np.linalg.matrix_power(T, k) for k, A in enumerate(mats))
        got, _, _ = qc.op_calculus(F, T)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def _per_node_trapezoid(F, T, circles, nodes):
    """The ``nodes``-point trapezoid value of ``F(z) (z - T)^-1`` with one
    transposed solve per node, the integrand of the unfolded quadrature."""
    n = T.shape[0]
    unit = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    terms = []
    for c in circles:
        for u in unit:
            z = c.center + c.radius * u
            shifted = z * np.eye(n) - T
            values = np.linalg.solve(shifted.T, np.asarray(F(z), dtype=complex).T).T
            terms.append(values * (c.radius * u))
    return np.sum(terms, axis=0) / nodes


def _rotation_3x3():
    T = np.zeros((3, 3))
    T[:2, :2] = rotation_block(0.3, 0.8)
    T[2, 2] = -0.6
    T[0, 2], T[1, 2] = 0.1, -0.2
    return T


def _unit_matrix_exp(n):
    """``exp(z) I`` as the ``n^2`` unit-matrix terms of a caller's entrywise
    callback, ``exp`` on the diagonal and zero elsewhere."""
    terms = []
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n))
            unit[i, j] = 1.0
            entry = np.exp if i == j else (lambda z: 0.0)
            terms.append((unit, qc.Opaque(entry, symmetric=True)))
    return qc.MatrixCoefficientFunction(terms)


def _fold_cases():
    rng = np.random.default_rng(31)
    T3 = _rotation_3x3()
    two_terms = qc.MatrixCoefficientFunction(
        [
            (rng.standard_normal((3, 3)), qc.Exp()),
            (rng.standard_normal((3, 3)), qc.Polynomial([0.5, -1.0, 0.25])),
        ]
    )
    shift = np.diag(np.where(np.arange(8) < 4, -2.5, 2.5))
    split = 0.3 * rng.standard_normal((8, 8)) / np.sqrt(8) + shift
    off_axis = qc.Contour((qc.Circle(1 + 2j, 0.5), qc.Circle(1 - 2j, 0.5)))
    return {
        "rotation-3x3": (two_terms, T3, None),
        "split-8x8": (qc.MatrixCoefficientFunction.from_scalar(qc.Sin(), 8), split, None),
        "off-axis-contour": (
            qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 2), rotation_block(1.0, 2.0), off_axis
        ),
        "opaque-exp": (_unit_matrix_exp(3), T3, None),
    }


@pytest.mark.parametrize("case", ["rotation-3x3", "split-8x8", "off-axis-contour", "opaque-exp"])
def test_folded_quadrature_matches_per_node_reference(case):
    F, T, gamma = _fold_cases()[case]
    got, diag, _ = qc.op_calculus(F, T, contour=gamma)
    circles = (gamma or qc.operator_contour(qc.complex_spectrum(T).eigenvalues)).circles
    if case == "split-8x8":
        assert len(circles) == 2
    want = _per_node_trapezoid(F, T, circles, diag.nodes_per_circle)
    assert np.linalg.norm(got - want.real) <= 1e-12 * np.linalg.norm(want)


class _ClaimsSymmetry(qc.AnalyticScalar):
    """Declares ``f(conj z) = conj f(z)`` but returns ``1j * z``."""

    symmetric = True

    def __call__(self, z):
        return 1j * np.asarray(z, dtype=complex)


def test_folded_quadrature_catches_a_false_symmetry_claim():
    F = qc.MatrixCoefficientFunction.from_scalar(_ClaimsSymmetry(), 3)
    with pytest.raises(qc.ContractViolationError):
        qc.op_calculus(F, _rotation_3x3())


class _CountingExp(qc.AnalyticScalar):
    symmetric = True

    def __init__(self):
        self.points = []

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        self.points.append(z.ravel().copy())
        return np.exp(z)


def test_each_node_is_evaluated_once_and_half_are_solved(monkeypatch, quadrature_nodes):
    systems = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        systems.append(int(np.prod(np.shape(a)[:-2])))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    T = rotation_block(0.3, 0.8)
    (circle,) = qc.operator_contour(qc.complex_spectrum(T).eigenvalues).circles
    g = _CountingExp()
    F = qc.MatrixCoefficientFunction.from_scalar(g, 2)
    # two doublings below the 2048 nodes counted here: the driver decides
    # first at its third level
    quadrature_nodes(512)
    _, diag, _ = qc.op_calculus(F, T)
    assert diag.nodes_per_circle == 2048
    points = np.concatenate(g.points)
    assert points.size == 2048
    assert np.sum(np.abs(points.imag) <= 1e-12) == 2
    k = np.angle((points - circle.center) / circle.radius) * 2048 / (2 * np.pi)
    np.testing.assert_allclose(k, np.round(k), rtol=0, atol=1e-9)
    np.testing.assert_array_equal(np.sort(np.round(k) % 2048), np.arange(2048))
    assert sum(systems) == 1025


@pytest.mark.parametrize("T, contour, nodes, solves, systems", [
    # one real-centered circle: its first batch solves the 9 + 8 + 16 nodes
    # in [0, pi] of the 16-, 32- and 64-node levels
    (rotation_block(0.3, 0.8), None, 64, [33], 33),
    (np.diag([-3.0, 3.0]), None, 64, [33, 33], 66),
    # off the real axis every node is solved
    (rotation_block(0.3, 0.8), qc.Contour((qc.Circle(0.3 + 0.8j, 0.5), qc.Circle(0.3 - 0.8j, 0.5))),
     64, [64, 64], 128),
    # each later doubling is one batch of midpoints
    (rotation_block(0.0, 3.0), qc.Contour((qc.Circle(0j, 3.5),)), 512, [33, 32, 64, 128], 257),
])
def test_one_solve_per_circle_per_level_batch(monkeypatch, T, contour, nodes, solves, systems):
    import scipy.linalg

    calls = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    F = qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 2)
    value, diag, _ = qc.op_calculus(F, T, contour=contour)
    assert diag.nodes_per_circle == nodes
    assert calls == solves
    assert sum(calls) == systems
    np.testing.assert_allclose(value, scipy.linalg.expm(T), rtol=1e-10)


@pytest.mark.parametrize("seed", [2, 4])
def test_sine_of_non_normal_triangular_matrices(seed):
    import scipy.linalg

    rng = np.random.default_rng(seed)
    for n in (8, 12, 16):
        T = np.triu(rng.standard_normal((n, n)), 1) + np.diag(rng.standard_normal(n))
        got, _, _ = qc.op_calculus(qc.MatrixCoefficientFunction.from_scalar(qc.Sin(), n), T)
        want = scipy.linalg.sinm(T)
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("lam", np.arange(-3.0, 3.01, 0.5))
def test_exp_of_jordan_block_stops_at_its_rounding_floor(lam):
    # the circle about the 8-fold eigenvalue has radius 1.0-1.15, so the
    # resolvent stays O(1) per order on it and the driver converges within
    # its first decision levels, far below these bounds
    import scipy.linalg

    T = lam * np.eye(8) + np.diag(np.ones(7), 1)
    F = qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 8)
    got, diag, _ = qc.op_calculus(F, T)
    want = scipy.linalg.expm(T)
    assert diag.nodes_per_circle <= 8192
    assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def test_stall_on_a_twelve_fold_eigenvalue_is_reported_as_a_stall():
    # radius 0.1 about a 12-fold eigenvalue: the resolvent reaches 1e12 and
    # the rounding floor lies far above 1e-10, so the driver stalls at once;
    # the noise of that value breaks flat invariance by more than 1e-8,
    # which is no evidence against the symmetric input, so the stall and
    # not a contract error is what the caller sees
    T = np.eye(12) + np.diag(np.ones(11), 1)
    F = qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 12)
    tight = qc.Contour((qc.Circle(1.0, 0.1),))
    with pytest.raises(qc.AccuracyError) as stall:
        qc.op_calculus(F, T, contour=tight)
    value = stall.value.value
    flat_defect = np.linalg.norm(value - qc.flat(value))
    assert flat_defect > 1e-8 * np.linalg.norm(value.real)


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("scalar, reference", [("Exp", "expm"), ("Sin", "sinm")])
def test_default_contour_converges_on_large_jordan_blocks(scalar, reference, lam, n):
    # a clearance of 1.0 keeps the resolvent about the n-fold eigenvalue
    # O(1) per order; at 0.1 it reached 1e10-1e12 and these jobs stalled
    import scipy.linalg

    T = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
    F = qc.MatrixCoefficientFunction.from_scalar(getattr(qc, scalar)(), n)
    got, diag, _ = qc.op_calculus(F, T)
    want = getattr(scipy.linalg, reference)(T)
    assert diag.nodes_per_circle <= 128
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_default_contour_keeps_every_eigenvalue_one_inside(rng):
    for n in (2, 3, 5, 8, 13, 21):
        for scale in (0.1, 1.0, 3.0):
            T = scale * rng.standard_normal((n, n))
            eigs = np.linalg.eigvals(T)
            assert np.max(np.abs(eigs)) < 20.0
            circles = qc.operator_contour(eigs).circles
            for s in eigs:
                depth = max(c.radius - abs(s - c.center) for c in circles)
                assert depth >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# discrete multiplication operators


def test_discrete_mult_op_single():
    T = qc.discrete_mult_op([J])
    np.testing.assert_array_equal(T, qc.left_mult_matrix(J))
    rep = qc.complex_spectrum(T)
    assert_pairs_close(rep.pairs, ((1j, 2),))


def test_discrete_mult_op_two_points():
    T = qc.discrete_mult_op([J, K * 2.0])
    assert T.shape == (8, 8)
    rep = qc.complex_spectrum(T)
    assert_pairs_close(rep.pairs, ((1j, 2), (2j, 2)))
    # block criterion: per-point roots of the characteristic polynomial
    for theta in (J, K * 2.0):
        sp = qc.spectrum(theta)
        for s in (sp.s_plus, sp.s_minus):
            assert min(abs(rep.eigenvalues - s)) <= 1e-10


def test_discrete_mult_op_real_scalar():
    T = qc.discrete_mult_op([I * 1.5])
    rep = qc.complex_spectrum(T)
    assert_pairs_close(rep.pairs, ((1.5 + 0j, 4),))


def test_discrete_mult_op_empty():
    with pytest.raises(qc.InvalidArgumentError):
        qc.discrete_mult_op([])


def test_op_calculus_rejects_spectrum_on_contour(rng):
    T = np.diag([1.0, 3.0])
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    F = qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 2)
    with pytest.raises(qc.GeometryError):
        qc.op_calculus(F, T, contour=gamma)


def test_spectrum_membership_coherence(rng):
    # eigenvalue-route membership agrees with small pencil margins away
    # from the threshold bands
    for _ in range(50):
        T = rng.standard_normal((4, 4))
        rep = qc.complex_spectrum(T)
        lam = complex(rep.eigenvalues[int(rng.integers(4))])
        u = 0.5 * abs(lam.imag) * np.exp(2j * np.pi * rng.uniform())
        inside = qc.quaternions_with_spectrum(lam, u)
        assert rep.contains_quaternion_spectrum(inside, tol=1e-7)
        assert qc.q_resolvent_margin(T, inside) <= 1e-7

        far = qc.Quaternion(complex(np.max(np.abs(rep.eigenvalues)) + 1.5, 0.5), 0.2)
        assert not rep.contains_quaternion_spectrum(far, tol=1e-7)
        assert qc.q_resolvent_margin(T, far) > 1e-7


def test_operator_calculus_extends_quaternion_calculus(rng):
    # left multiplication embeds the quaternions in B(R^4) as a unital
    # morphism, so the operator calculus of L_q is L of the value at q
    for scalar in (qc.Exp(), qc.Polynomial([0.5, -1.0, 0.0, 2.0])):
        for _ in range(5):
            q = random_quaternion(rng)
            T = qc.left_mult_matrix(q)
            got, _, _ = qc.op_calculus(qc.MatrixCoefficientFunction.from_scalar(scalar, 4), T)
            value = qc.as_quaternion(qc.eval_spectral(qc.ScalarStem(scalar), q))
            want = qc.left_mult_matrix(value)
            assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
