import numpy as np
import pytest

import quatcalc as qc
from quatcalc import I, J, K, L, quat_core

from conftest import random_quaternion


BASIS_MATRICES = {
    "I": np.eye(2),
    "J": np.array([[1j, 0], [0, -1j]]),
    "K": np.array([[0, 1], [-1, 0]], dtype=complex),
    "L": np.array([[0, 1j], [1j, 0]]),
}


def test_basis_matrix_views():
    np.testing.assert_array_equal(I.matrix(), BASIS_MATRICES["I"])
    np.testing.assert_array_equal(J.matrix(), BASIS_MATRICES["J"])
    np.testing.assert_array_equal(K.matrix(), BASIS_MATRICES["K"])
    np.testing.assert_array_equal(L.matrix(), BASIS_MATRICES["L"])


def test_make_quaternion_basis_images():
    assert qc.make_quaternion(1, 0, 0, 0) == I
    assert qc.make_quaternion(0, 1, 0, 0) == J
    assert (J * J) == -I
    assert (K * K) == -I
    assert (L * L) == -I


@pytest.mark.parametrize(
    "a,b,expected",
    [(J, K, L), (K, J, -L), (K, L, J), (L, K, -J), (L, J, K), (J, L, -K)],
)
def test_multiplication_table(a, b, expected):
    assert a * b == expected


def test_make_quaternion_rejects_nonfinite():
    with pytest.raises(qc.InvalidArgumentError):
        qc.make_quaternion(float("nan"), 0, 0, 0)
    with pytest.raises(qc.InvalidArgumentError):
        qc.Quaternion(complex(float("inf"), 0), 0)


def test_unit_law_and_inverse_example(rng):
    q = random_quaternion(rng)
    assert (q * I).isclose(q, 0.0)
    w = qc.make_quaternion(1, 1, 1, 1)
    inv = w.inverse()
    assert inv.isclose(w.star() * 0.25, 1e-15)
    assert (w * inv).isclose(I, 1e-12)
    assert (inv * w).isclose(I, 1e-12)


def test_inverse_of_zero_raises():
    with pytest.raises(qc.SingularElementError):
        qc.Quaternion(0, 0).inverse()


def test_real_scalar_action_only():
    q = qc.make_quaternion(1, 2, 3, 4)
    assert (2.0 * q).components == (2, 4, 6, 8)
    with pytest.raises(TypeError):
        (1 + 2j) * q


def test_product_matches_matrix_product(rng):
    for _ in range(200):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        np.testing.assert_allclose(
            (p * q).matrix(), p.matrix() @ q.matrix(), atol=1e-13
        )


def test_star_and_norm_identities(rng):
    for _ in range(300):
        q = random_quaternion(rng, scale=2.0)
        n2 = q.norm() ** 2
        np.testing.assert_allclose((q * q.star()).matrix(), n2 * np.eye(2), atol=1e-12 * max(1, n2))
        np.testing.assert_allclose((q.star() * q).matrix(), n2 * np.eye(2), atol=1e-12 * max(1, n2))
        assert abs(qc.mat_norm(q.matrix()) - q.norm()) <= 1e-12 * max(1.0, q.norm())


def test_power():
    q = qc.make_quaternion(0.3, -0.2, 0.5, 0.1)
    np.testing.assert_allclose((q ** 3).matrix(), np.linalg.matrix_power(q.matrix(), 3), atol=1e-14)
    assert (q ** 0) == I
    np.testing.assert_allclose(
        (q ** -2).matrix(), np.linalg.matrix_power(np.linalg.inv(q.matrix()), 2), atol=1e-12
    )


# ---------------------------------------------------------------------------
# skew complex conjugation


def test_skew_conjugate_unital_and_direct_formula():
    np.testing.assert_array_equal(qc.skew_conjugate(np.eye(2)), np.eye(2))
    a = np.diag([1j, 1j])
    np.testing.assert_array_equal(qc.skew_conjugate(a), np.diag([-1j, -1j]))
    assert qc.dist_to_quaternions(a) > 0.5


def test_skew_conjugate_fixes_quaternions(rng):
    for _ in range(100):
        m = random_quaternion(rng).matrix()
        np.testing.assert_array_equal(qc.skew_conjugate(m), m)


def _random_mat2(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


def test_skew_conjugate_algebra_properties(rng):
    for _ in range(200):
        a = _random_mat2(rng)
        b = _random_mat2(rng)
        sk = qc.skew_conjugate
        np.testing.assert_array_equal(sk(sk(a)), a)
        np.testing.assert_allclose(sk(a @ b), sk(a) @ sk(b), atol=1e-14)
        np.testing.assert_allclose(sk(1.7j * a), -1.7j * sk(a), atol=1e-15)
        assert abs(qc.mat_norm(sk(a)) - qc.mat_norm(a)) <= 1e-12


def test_split_h_ih_examples(rng):
    m = qc.make_quaternion(0.4, -1.0, 2.0, 0.3).matrix()
    b, c = qc.split_h_ih(m)
    np.testing.assert_allclose(b.matrix(), m, atol=1e-15)
    assert c.norm() <= 1e-15

    b, c = qc.split_h_ih(1j * J.matrix())
    assert b.norm() <= 1e-15
    assert c.isclose(J, 1e-15)

    for _ in range(100):
        a = _random_mat2(rng)
        b, c = qc.split_h_ih(a)
        np.testing.assert_allclose(b.matrix() + 1j * c.matrix(), a, atol=1e-14)


def test_as_quaternion_tolerance():
    q = qc.make_quaternion(1, 2, 3, 4)
    assert qc.as_quaternion(q.matrix()) == q
    with pytest.raises(qc.InvalidArgumentError):
        qc.as_quaternion(q.matrix() + np.diag([1e-3, 0]))


# ---------------------------------------------------------------------------
# spectrum and eigenvectors


def _quadratic_roots(q):
    # independent oracle: roots of s^2 - 2 s Re(z1) + |z1|^2 + |z2|^2 = 0
    z1, z2 = q.coords
    roots = np.roots([1.0, -2.0 * z1.real, abs(z1) ** 2 + abs(z2) ** 2])
    return sorted(roots, key=lambda s: s.imag)


def test_spectrum_slice_example():
    q = I * 0.5 + J * 2.0
    sp = qc.spectrum(q)
    assert sp.s_plus == 0.5 + 2j
    assert sp.s_minus == 0.5 - 2j
    np.testing.assert_array_equal(sp.nu_plus, [1, 0])
    np.testing.assert_array_equal(sp.nu_minus, [0, 1])


def test_spectrum_negative_slice_swaps_branch():
    q = I * 0.5 - J * 2.0
    sp = qc.spectrum(q)
    assert sp.s_plus == 0.5 + 2j
    np.testing.assert_array_equal(sp.nu_plus, [0, 1])


def test_spectrum_real_case():
    sp = qc.spectrum(I * 3.0)
    assert sp.s_plus == sp.s_minus == 3.0


def test_spectrum_derived_example():
    q = qc.Quaternion(1j, 1.0)
    sp = qc.spectrum(q)
    lo, hi = _quadratic_roots(q)
    assert abs(sp.s_plus - hi) < 1e-12
    assert abs(sp.s_minus - lo) < 1e-12
    assert abs(sp.s_plus - 1j * np.sqrt(2)) < 1e-12


def test_spectrum_satisfies_characteristic_equation(rng):
    for _ in range(500):
        q = random_quaternion(rng, scale=3.0)
        z1, z2 = q.coords
        for s in (qc.spectrum(q).s_plus, qc.spectrum(q).s_minus):
            res = s * s - 2 * s * z1.real + abs(z1) ** 2 + abs(z2) ** 2
            assert abs(res) <= 1e-10 * max(1.0, q.norm() ** 2)


def test_eigenvector_residuals(rng):
    for _ in range(300):
        q = random_quaternion(rng, scale=2.0)
        sp = qc.spectrum(q)
        m = q.matrix()
        assert np.linalg.norm(m @ sp.nu_plus - sp.s_plus * sp.nu_plus) <= 1e-12 * max(1, q.norm())
        assert np.linalg.norm(m @ sp.nu_minus - sp.s_minus * sp.nu_minus) <= 1e-12 * max(1, q.norm())
        assert abs(np.vdot(sp.nu_plus, sp.nu_minus)) <= 1e-13
        assert abs(np.linalg.norm(sp.nu_plus) - 1.0) <= 1e-13
        assert abs(np.linalg.norm(sp.nu_minus) - 1.0) <= 1e-13


def _nu_identity_defects(q):
    sp = qc.spectrum(q)
    nu_p, nu_m = sp.nu_plus, sp.nu_minus
    d1 = abs(abs(nu_m[0]) ** 2 - abs(nu_p[1]) ** 2)
    d2 = abs(abs(nu_m[1]) ** 2 - abs(nu_p[0]) ** 2)
    d3 = abs(nu_m[0] * np.conj(nu_m[1]) + nu_p[0] * np.conj(nu_p[1]))
    return max(d1, d2, d3)


def test_canonical_eigenvector_identities(rng):
    for _ in range(500):
        assert _nu_identity_defects(random_quaternion(rng, 2.0)) <= 1e-12
    # degenerate branches
    assert _nu_identity_defects(qc.Quaternion(1 + 2j, 0)) <= 1e-12
    assert _nu_identity_defects(qc.Quaternion(1 - 2j, 0)) <= 1e-12
    assert _nu_identity_defects(I * -4.0) <= 1e-12
    # near-degenerate: stable formulas keep the cross identity exact
    assert _nu_identity_defects(qc.Quaternion(1 + 1j, 1e-8)) <= 1e-12
    assert _nu_identity_defects(qc.Quaternion(1 - 1j, 1e-10)) <= 1e-12


def test_spectral_projections_examples(rng):
    ep, em = qc.spectral_projections(J)
    np.testing.assert_allclose(ep, np.diag([1, 0]), atol=1e-15)
    np.testing.assert_allclose(em, np.diag([0, 1]), atol=1e-15)

    q = I * 5.0
    ep, em = qc.spectral_projections(q)
    np.testing.assert_allclose(ep + em, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(5 * ep + 5 * em, q.matrix(), atol=1e-14)

    for _ in range(300):
        q = random_quaternion(rng, 2.0)
        sp = qc.spectrum(q)
        ep, em = qc.spectral_projections(q)
        np.testing.assert_allclose(ep + em, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(ep @ ep, ep, atol=1e-12)
        np.testing.assert_allclose(em @ em, em, atol=1e-12)
        np.testing.assert_allclose(
            sp.s_plus * ep + sp.s_minus * em, q.matrix(), atol=1e-12 * max(1, q.norm())
        )


# ---------------------------------------------------------------------------
# prescribed spectra and the axial form


def test_quaternions_with_spectrum_examples():
    assert qc.quaternions_with_spectrum(1j, 0) == J
    assert qc.quaternions_with_spectrum(1j, 1) == K

    q = qc.quaternions_with_spectrum(2 + 3j, 1 + 1j)
    sp = qc.spectrum(q)
    assert abs(sp.s_plus - (2 + 3j)) <= 1e-10
    assert abs(sp.s_minus - (2 - 3j)) <= 1e-10


def test_quaternions_with_spectrum_round_trip(rng):
    for _ in range(300):
        zeta = complex(rng.standard_normal(), rng.standard_normal())
        u = complex(rng.standard_normal(), rng.standard_normal())
        if abs(u) > abs(zeta.imag):
            u *= abs(zeta.imag) / abs(u) * rng.uniform()
        q = qc.quaternions_with_spectrum(zeta, u)
        sp = qc.spectrum(q)
        want = complex(zeta.real, abs(zeta.imag))
        assert abs(sp.s_plus - want) <= 1e-10 * max(1.0, abs(zeta))


def test_quaternions_with_spectrum_domain_error():
    with pytest.raises(qc.DomainError):
        qc.quaternions_with_spectrum(1j, 2.0)


def test_axial_decompose_examples():
    ax = qc.axial_decompose(I * 2.0 + K * 3.0)
    assert (ax.x, ax.y) == (2.0, 3.0)
    assert ax.s == K

    ax = qc.axial_decompose(J)
    assert (ax.x, ax.y) == (0.0, 1.0)
    assert ax.s == J

    ax = qc.axial_decompose(I * -1.5)
    assert ax.y == 0.0
    assert ax.s == J


def test_axial_decompose_reconstruction(rng):
    for _ in range(300):
        q = random_quaternion(rng, 2.0)
        ax = qc.axial_decompose(q)
        rebuilt = I * ax.x + ax.s * ax.y
        assert rebuilt.isclose(q, 1e-12)
        np.testing.assert_allclose((ax.s * ax.s).matrix(), -np.eye(2), atol=1e-12)
        sp = qc.spectrum(q)
        assert abs(sp.s_plus - complex(ax.x, ax.y)) <= 1e-12 * max(1.0, q.norm())


def test_split_spectrum_equals_spectrum_across_the_degenerate_band(rng):
    # imaginary coordinates from 1e-17 to 1e-11 about the threshold
    # 1e-14 * max(1, |q|), some zeroed, on a stack and one quaternion at a
    # time: x is exact, t within one rounding of spectrum's (np.hypot against
    # math.hypot) and zero exactly where spectrum's is
    zeroed = ([], [2, 3], [1, 2, 3], [1])
    qs = []
    for k in range(600):
        x = rng.standard_normal(4) * 10.0 ** rng.uniform(-1.0, 1.0)
        x[1:] *= 10.0 ** rng.uniform(-17.0, -11.0, 3)
        x[zeroed[k % 4]] = 0.0
        qs.append(qc.make_quaternion(*x))
    xs, ts, _, _ = quat_core._split(np.array([q.matrix() for q in qs]))
    for q, x, t in zip(qs, xs, ts):
        sp = qc.spectrum(q)
        assert x == sp.s_plus.real == sp.s_minus.real
        assert sp.s_minus.imag == -sp.s_plus.imag
        np.testing.assert_allclose(t, sp.s_plus.imag, rtol=3e-16, atol=0.0)
        assert quat_core._split(q)[:2] == (x, t)


def test_left_mult_matrix_action(rng):
    for _ in range(100):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        np.testing.assert_allclose(
            qc.left_mult_matrix(q) @ np.array(p.components),
            np.array((q * p).components),
            atol=1e-13,
        )
    eigs = np.linalg.eigvals(qc.left_mult_matrix(J))
    np.testing.assert_allclose(sorted(eigs.imag), [-1, -1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(eigs.real, 0, atol=1e-12)


def test_cvec_star():
    assert qc.cvec_star((1 + 2j, 3 - 1j)) == (1 - 2j, -3 + 1j)
    q = qc.make_quaternion(1, 2, 3, 4)
    assert qc.Quaternion(*qc.cvec_star(q.coords)) == q.star()


def test_canonical_eigenvector_representative(rng):
    # for the prescribed-spectrum family the canonical eigenvector has the
    # explicit form (u, i(y - w)) / sqrt(2 y (y - w)) with w = sqrt(y^2 - |u|^2)
    for _ in range(50):
        y = abs(rng.standard_normal()) + 0.1
        zeta = complex(rng.standard_normal(), y)
        u = complex(rng.standard_normal(), rng.standard_normal())
        u *= rng.uniform(0.1, 0.99) * y / abs(u)
        q = qc.quaternions_with_spectrum(zeta, u)
        w = np.sqrt(y * y - abs(u) ** 2)
        scale = np.sqrt(2.0 * y * (y - w))
        want = np.array([u, 1j * (y - w)]) / scale
        got = qc.spectrum(q).nu_plus
        assert np.linalg.norm(got - want) <= 1e-10


def test_eigenvalue_modulus_equals_norm(rng):
    # both eigenvalues of a quaternion sit on the circle of radius norm(q),
    # so the circularization of a disk about 0 is exactly a norm ball
    for _ in range(300):
        q = random_quaternion(rng, 2.0)
        sp = qc.spectrum(q)
        assert abs(abs(sp.s_plus) - q.norm()) <= 1e-12 * max(1.0, q.norm())
        assert abs(abs(sp.s_minus) - q.norm()) <= 1e-12 * max(1.0, q.norm())
