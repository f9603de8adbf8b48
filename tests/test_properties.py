"""Property tests of the quaternion algebra over finite bounded components,
and of the operator calculus on real polynomials."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quatcalc as qc

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
    got = qc.op_calculus(F, T)
    assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
