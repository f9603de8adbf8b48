"""Property tests of the quaternion algebra over finite bounded components,
of the operator calculus on real polynomials, on quaternionic-linear
operators and on left multiplications, and of the contour route against the
closed spectral form."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quatcalc as qc

from conftest import quaternionic_operator, right_mult_matrix

components = st.floats(min_value=-1e3, max_value=1e3)
quaternions = st.builds(qc.make_quaternion, components, components, components, components)
matrices = st.lists(components, min_size=8, max_size=8).map(
    lambda x: (np.array(x[:4]) + 1j * np.array(x[4:])).reshape(2, 2)
)


@given(quaternions, quaternions, quaternions)
def test_multiplication_is_associative(p, q, r):
    defect = ((p * q) * r - p * (q * r)).norm()
    assert defect <= 1e-12 * max(1.0, p.norm() * q.norm() * r.norm())


@given(quaternions, quaternions)
def test_norm_is_multiplicative(p, q):
    want = p.norm() * q.norm()
    assert abs((p * q).norm() - want) <= 1e-12 * max(1.0, want)


@given(matrices)
def test_skew_conjugate_is_an_involution(a):
    np.testing.assert_array_equal(qc.skew_conjugate(qc.skew_conjugate(a)), a)


@given(quaternions)
def test_skew_conjugate_fixes_quaternions(q):
    np.testing.assert_array_equal(qc.skew_conjugate(q.matrix()), q.matrix())


@given(quaternions)
def test_eigenvectors_satisfy_the_eigen_equation(q):
    sp = qc.spectrum(q)
    m = q.matrix()
    tol = 1e-12 * max(1.0, q.norm())
    assert np.linalg.norm(m @ sp.nu_plus - sp.s_plus * sp.nu_plus) <= tol
    assert np.linalg.norm(m @ sp.nu_minus - sp.s_minus * sp.nu_minus) <= tol


@given(quaternions)
def test_spectral_projections_resolve_the_identity(q):
    e_plus, e_minus = qc.spectral_projections(q)
    np.testing.assert_allclose(e_plus + e_minus, np.eye(2), rtol=0, atol=1e-12)


entries = st.floats(min_value=-1.0, max_value=1.0)
operator_polynomials = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        arrays(float, (n, n), elements=entries), arrays(float, (3, n, n), elements=entries)
    )
)


@settings(max_examples=40)
@given(operator_polynomials)
def test_operator_calculus_reproduces_real_polynomials(case):
    T, coeffs = case
    F = qc.MatrixCoefficientFunction.from_polynomial(list(coeffs))
    want = sum(A @ np.linalg.matrix_power(T, k) for k, A in enumerate(coeffs))
    got, _, _ = qc.op_calculus(F, T)
    assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


unit_floats = st.floats(min_value=-1.0, max_value=1.0)
unit_complex = st.builds(complex, unit_floats, unit_floats)
unit_quaternions = st.builds(qc.make_quaternion, unit_floats, unit_floats, unit_floats, unit_floats)
bodies = st.sampled_from([qc.Exp(), qc.Sin(), qc.Cos()])
affine_args = st.builds(
    qc.AffineArg,
    st.builds(complex, st.floats(0.4, 1.0), st.floats(-0.3, 0.3)),
    st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    bodies,
)
complex_polynomials = st.lists(unit_complex, min_size=1, max_size=3).map(qc.Polynomial)
stems = st.one_of(
    st.lists(unit_quaternions, min_size=1, max_size=11).map(qc.QuaternionPolynomial),
    bodies.map(qc.ScalarStem),
    st.builds(
        lambda a, p, b, r: qc.PairStem(qc.Sum(a, p), qc.Product(b, r)),
        affine_args, complex_polynomials, affine_args, complex_polynomials,
    ),
)
contour_quaternions = st.builds(
    qc.make_quaternion, *(st.floats(min_value=-3.0, max_value=3.0) for _ in range(4))
)

#: Largest integrand norm on the contour over the value's norm (at least 1)
#: at which double precision can meet the default 1e-10 tolerance.
MAX_AMPLIFICATION = 1e-10 / np.finfo(float).eps


@settings(max_examples=300)
@given(stems, contour_quaternions, st.sampled_from([0.25, 1.0, None]), st.integers(0, 2))
def test_contour_and_spectral_routes_agree_from_the_default_start(F, q, margin, order):
    sp = qc.spectrum(q)
    if margin is None:
        # one wide circle, of radius 2 t + 0.25 about the eigenvalues q0 +- i t
        margin = abs(sp.s_plus.imag) + 0.25
    gamma = qc.build_contour([sp.s_plus, sp.s_minus], margin)
    want = qc.eval_spectral(F, q, order)
    unit = np.exp(2j * np.pi * np.arange(64) / 64)
    on_contour = max(
        float(np.linalg.norm(F.jet(c.center + c.radius * unit, order)[order], axis=(1, 2)).max())
        for c in gamma.circles
    )
    assume(on_contour <= MAX_AMPLIFICATION * max(1.0, np.linalg.norm(want)))
    got, _ = qc.cauchy_transform(F, q, gamma, order=order)
    assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


quaternion_matrices = st.integers(1, 4).flatmap(
    lambda n: arrays(float, (n, n, 4), elements=entries)
)


@settings(max_examples=60)
@given(quaternion_matrices)
def test_quaternionic_linear_operators_keep_their_symmetry(A):
    # T = [left_mult_matrix(A_ij)] acts on H^n = R^(4n) and commutes with
    # right multiplication by every quaternion; so does exp(T), and each
    # eigenvalue of T appears with even multiplicity
    n = A.shape[0]
    T = quaternionic_operator(A)
    value, _, _ = qc.op_calculus(qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 4 * n), T)
    for b in (qc.J, qc.K, qc.L):
        R = np.kron(np.eye(n), right_mult_matrix(b))
        assert np.linalg.norm(value @ R - R @ value) <= 1e-10 * np.linalg.norm(value)
    assert all(m % 2 == 0 for _, m in qc.complex_spectrum(T).pairs)


closed_scalars = st.sampled_from([
    qc.Exp(), qc.Sin(), qc.Cos(), qc.Polynomial([0.5, -1.0, 0.25, 1.0]),
    qc.Product(qc.Exp(), qc.Sin()), qc.AffineArg(0.7, -0.2, qc.Exp()),
])


@settings(max_examples=54)
@given(closed_scalars, st.sampled_from([0.3, 1.0, 3.0]),
       st.lists(unit_quaternions, min_size=1, max_size=3))
def test_operator_calculus_of_left_multiplications_is_the_stem_calculus(f, scale, qs):
    # the projection property of the calculus: f(diag(L_q1, ..., L_qm)) is
    # diag(L_f(q1), ..., L_f(qm)), with f(q) the spectral calculus of the stem f I
    qs = [q * scale for q in qs]
    got, _, _ = qc.op_calculus(qc.MatrixCoefficientFunction.from_scalar(f, 4 * len(qs)),
                               qc.discrete_mult_op(qs))
    want = qc.discrete_mult_op(
        [qc.as_quaternion(qc.eval_spectral(qc.ScalarStem(f), q)) for q in qs]
    )
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))
