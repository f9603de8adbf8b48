import numpy as np
import pytest

import quatcalc as qc
from quatcalc import I, J, K, L

from conftest import random_hpoly, random_quaternion


def test_polynomial_eval_and_derivative():
    p = qc.Polynomial([1, 0, 3])  # 1 + 3 z^2
    assert p(2.0) == 13.0
    np.testing.assert_allclose(p(np.array([0, 1j])), [1, -2])
    dp = p.derivative()
    assert dp(2.0) == 12.0
    assert p.symmetric
    assert not qc.Polynomial([1j]).symmetric


def test_transcendental_derivatives():
    z = 0.3 + 0.7j
    assert abs(qc.Exp().derivative()(z) - np.exp(z)) < 1e-15
    assert abs(qc.Sin().derivative()(z) - np.cos(z)) < 1e-15
    assert abs(qc.Cos().derivative()(z) + np.sin(z)) < 1e-15


def test_affine_sum_product_symmetry():
    f = qc.AffineArg(2.0, -1.0, qc.Exp())  # exp(2z - 1)
    assert f.symmetric
    assert abs(f(0.5j) - np.exp(1j - 1)) < 1e-15
    assert abs(f.derivative()(0.2) - 2 * np.exp(-0.6)) < 1e-14
    assert not qc.AffineArg(1j, 0.0, qc.Exp()).symmetric

    g = qc.Sum(qc.Polynomial([0, 1]), qc.Cos())
    h = qc.Product(g, qc.Exp())
    assert h.symmetric
    z = 0.4 - 0.2j
    want = (z + np.cos(z)) * np.exp(z) * 1.0
    assert abs(h(z) - want) < 1e-14
    want_d = (1 - np.sin(z)) * np.exp(z) + (z + np.cos(z)) * np.exp(z)
    assert abs(h.derivative()(z) - want_d) < 1e-13


def _tree_size(f):
    parts = getattr(f, "parts", ())
    body = [f.body] if isinstance(f, qc.AffineArg) else []
    return 1 + sum(_tree_size(p) for p in (*parts, *body))


@pytest.mark.parametrize(
    "f, want",
    [
        (qc.Cos(), np.cos),
        (qc.AffineArg(2.0, 0.0, qc.Exp()), lambda z: 2.0**16 * np.exp(2.0 * z)),
    ],
)
def test_repeated_derivatives_stay_small(f, want):
    # the product rule's term for a constant factor is zero and is dropped,
    # so the tree grows linearly with the order instead of doubling
    for _ in range(16):
        f = f.derivative()
    assert _tree_size(f) < 200
    z = np.array([0.3 + 0.7j, -1.2 + 0.1j, 2.0])
    np.testing.assert_allclose(f(z), want(z), rtol=1e-13)


def test_opaque_spot_check():
    ok = qc.Opaque(lambda z: z ** 2 + 1, symmetric=True)
    assert ok.symmetric
    with pytest.raises(qc.ContractViolationError):
        qc.Opaque(lambda z: z + 1j, symmetric=True)


def test_star_value():
    f = qc.Polynomial([1j, 1])  # z + i
    assert abs(f.star_value(2.0) - (2 - 1j)) < 1e-15


# ---------------------------------------------------------------------------
# symmetric domains


def test_symmetric_domain_conjugation_closure():
    dom = qc.SymmetricDomain([(1 + 1j, 0.5)])
    assert len(dom.disks) == 2
    assert dom.contains(1 + 1.2j) and dom.contains(1 - 1.2j)
    assert not dom.contains(0.0)
    assert dom.clearance(1 + 1j) == 0.5


def test_symmetric_domain_needs_a_disk():
    with pytest.raises(qc.InvalidArgumentError):
        qc.SymmetricDomain([])


def test_symmetric_domain_drops_duplicates_in_linear_time():
    import time

    # 40,000 stored disks: a pairwise duplicate scan took 30 s on 2 vCPUs
    disks = [(0.001 * k + 0.001j, 5.0) for k in range(20_000)]
    start = time.perf_counter()
    dom = qc.SymmetricDomain(disks + disks[:3] + [(0.001 - 0.001j, 5.0)])
    assert time.perf_counter() - start < 5.0
    assert dom.disks[:4] == ((0.001j, 5.0), (-0.001j, 5.0), (0.001 + 0.001j, 5.0),
                             (0.001 - 0.001j, 5.0))
    assert len(dom.disks) == 40_000


def test_pair_stem_diagonal_example():
    F = qc.PairStem(qc.Polynomial([1j, 1]), qc.Polynomial([0]))
    z = 0.3 + 0.4j
    np.testing.assert_allclose(F(z), np.diag([z + 1j, z - 1j]), atol=1e-15)
    assert not F.f1.symmetric
    assert qc.verify_stem(F).passed


def test_pair_stem_constant_identity():
    F = qc.PairStem(qc.Polynomial([1]), qc.Polynomial([0]))
    np.testing.assert_array_equal(F(2.7), np.eye(2))
    assert qc.verify_stem(F).passed


def test_pair_stem_generic_passes():
    F = qc.PairStem(qc.Polynomial([0, 1]), qc.Polynomial([0, 0, 1]))
    samples = qc.conjugate_sample_pairs(pairs=50)
    assert len(samples) == 100
    assert qc.verify_stem(F, samples=samples).passed


def test_scalar_stem_requires_symmetry():
    with pytest.raises(qc.ContractViolationError):
        qc.ScalarStem(qc.Polynomial([1j, 1]))


def test_verify_stem_failure_witness():
    f = qc.Polynomial([1j, 1])
    F = qc.EntrywiseFunction([[f, qc.Polynomial([0])], [qc.Polynomial([0]), f]])
    report = qc.verify_stem(F)
    assert not report.passed
    # at real z the defect matrix is diag(2i, 2i), operator norm 2
    real_defect = qc.mat_norm(F(0.0) - qc.skew_conjugate(F(0.0)))
    assert abs(real_defect - 2.0) < 1e-14
    assert report.max_defect >= 2.0 - 1e-12


def test_verify_stem_quaternion_polynomial():
    F = qc.QuaternionPolynomial([J, K])
    assert qc.verify_stem(F).passed


def test_verify_stem_empty_samples():
    F = qc.QuaternionPolynomial([J])
    with pytest.raises(qc.InvalidArgumentError):
        qc.verify_stem(F, samples=[])


def test_stem_split_identity_and_constant():
    F = qc.ScalarStem(qc.Polynomial([1]))
    f1, f2 = qc.stem_split(F)
    np.testing.assert_allclose(f1(0.3 + 1j), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f2(0.3 + 1j), np.zeros((2, 2)), atol=1e-15)

    q0 = qc.make_quaternion(0.5, -1, 2, 0.25)
    G = qc.QuaternionPolynomial([q0])
    g1, g2 = qc.stem_split(G)
    np.testing.assert_allclose(g1(1.2j), q0.matrix(), atol=1e-15)
    np.testing.assert_allclose(g2(1.2j), np.zeros((2, 2)), atol=1e-15)


def test_stem_split_reconstruction(rng):
    F = qc.PairStem(qc.Polynomial([1j, 1]), qc.Polynomial([0.5, 0, -2j]))
    f1, f2 = qc.stem_split(F)
    for _ in range(50):
        z = complex(rng.standard_normal(), rng.standard_normal())
        a1, a2 = f1(z), f2(z)
        assert qc.dist_to_quaternions(a1) <= 1e-12
        assert qc.dist_to_quaternions(a2) <= 1e-12
        np.testing.assert_allclose(a1 + 1j * a2, F(z), atol=1e-12)


def test_stem_split_rejects_non_stem():
    f = qc.Polynomial([1j, 1])
    F = qc.EntrywiseFunction([[f, qc.Polynomial([0])], [qc.Polynomial([0]), f]])
    with pytest.raises(qc.ContractViolationError):
        qc.stem_split(F)


# ---------------------------------------------------------------------------
# spectral calculus


def test_eval_spectral_square_at_J():
    F = qc.ScalarStem(qc.Polynomial([0, 0, 1]))
    np.testing.assert_allclose(qc.eval_spectral(F, J), -np.eye(2), atol=1e-15)


def test_eval_spectral_non_stem_leaves_algebra():
    f = qc.Polynomial([1j, 1])
    F = qc.EntrywiseFunction([[f, qc.Polynomial([0])], [qc.Polynomial([0]), f]])
    value = qc.eval_spectral(F, K)
    # direct two-projection evaluation: F(i) = 2i*I on E+, F(-i) = 0 on E-
    expected = 2j * 0.5 * np.array([[1, -1j], [1j, 1]])
    np.testing.assert_allclose(value, expected, atol=1e-14)
    assert qc.eval_dist_to_quaternions(F, K) > 0.5


def test_eval_spectral_embedded_slice_formula(rng):
    f1 = qc.Polynomial([0.3, 1j, 1])
    f2 = qc.Polynomial([-1, 0.7j])
    F = qc.PairStem(f1, f2)
    for zeta in (0.8 + 1.3j, -0.5 - 0.9j, 1.1 + 0j):
        q = qc.Quaternion(zeta, 0.0)
        got = qc.eval_spectral(F, q)
        zc = np.conj(zeta)
        want = np.array(
            [
                [f1(zeta), f2(zc)],
                [-np.conj(f2(zc)), np.conj(f1(zeta))],
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_eval_spectral_real_point():
    F = qc.PairStem(qc.Polynomial([0, 1]), qc.Polynomial([2.0]))
    got = qc.eval_spectral(F, I * 1.5)
    np.testing.assert_allclose(got, F(1.5), atol=1e-14)


def test_eval_spectral_domain_error():
    dom = qc.SymmetricDomain.disk(0.0, 1.0)
    F = qc.ScalarStem(qc.Exp(), domain=dom)
    with pytest.raises(qc.DomainError):
        qc.eval_spectral(F, K * 3.0)


def test_hpoly_eval_examples(rng):
    a0 = random_quaternion(rng)
    assert qc.hpoly_eval([a0], random_quaternion(rng)) == a0
    assert qc.hpoly_eval([qc.Quaternion(0, 0), J], K) == L

    for _ in range(100):
        P = random_hpoly(rng, 5)
        q = random_quaternion(rng)
        got = qc.hpoly_eval(P.coeffs, q)
        want = qc.eval_spectral(P, q)
        assert np.linalg.norm(got.matrix() - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_zero_set_contains(rng):
    F = qc.ScalarStem(qc.Polynomial([1, 0, 1]))  # z^2 + 1
    s = qc.random_unit_imaginary(rng)
    assert qc.zero_set_contains(F, s, tol=1e-10)
    assert not qc.zero_set_contains(F, K * 2.0, tol=1e-10)
    np.testing.assert_allclose(qc.eval_spectral(F, K), np.zeros((2, 2)), atol=1e-14)
    # agreement with the calculus value at scaled tolerance
    for _ in range(100):
        q = random_quaternion(rng)
        inside = qc.zero_set_contains(F, q, tol=1e-8)
        value_small = np.linalg.norm(qc.eval_spectral(F, q)) <= 4e-8
        assert inside == value_small


# ---------------------------------------------------------------------------
# quaternion-valued criterion (both directions, module-sized versions)


def _random_stem(rng):
    if rng.uniform() < 0.5:
        return random_hpoly(rng, int(rng.integers(0, 6)))
    def poly():
        deg = int(rng.integers(0, 4))
        return qc.Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    return qc.PairStem(poly(), poly())


def test_stems_produce_quaternions(rng):
    for _ in range(30):
        F = _random_stem(rng)
        for _ in range(20):
            q = random_quaternion(rng, 2.0)
            assert qc.eval_dist_to_quaternions(F, q) <= 1e-10


def test_non_stems_produce_witnesses(rng):
    for _ in range(5):
        entries = [
            [qc.Polynomial(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(2)]
            for _ in range(2)
        ]
        F = qc.EntrywiseFunction(entries)
        report = qc.verify_stem(F)
        assert report.max_defect >= 1e-2
        witness = report.witness
        if abs(witness.imag) < 0.05:
            witness = complex(witness.real, 0.05)
        worst = 0.0
        for _ in range(100):
            u = complex(rng.standard_normal(), rng.standard_normal())
            if abs(u) > abs(witness.imag):
                u *= rng.uniform() * abs(witness.imag) / abs(u)
            q = qc.quaternions_with_spectrum(witness, u)
            worst = max(worst, qc.eval_dist_to_quaternions(F, q))
        assert worst >= 1e-4


def test_module_multiplicativity(rng):
    for _ in range(20):
        F = _random_stem(rng)
        f = qc.Polynomial(rng.standard_normal(3))
        Ff = qc.stem_scalar_mul(F, f)
        q = random_quaternion(rng, 1.5)
        left = qc.eval_spectral(Ff, q)
        right = qc.eval_spectral(F, q) @ qc.eval_spectral(qc.ScalarStem(f), q)
        np.testing.assert_allclose(left, right, atol=1e-10 * max(1, np.linalg.norm(left)))


def test_zero_free_inverse(rng):
    f = qc.Sum(qc.Product(qc.Polynomial([0, 1]), qc.Polynomial([0, 1])), qc.Polynomial([4.0]))
    # f = z^2 + 4, zero-free on spectra with |Im| != 2
    inv = qc.Opaque(lambda z: 1.0 / (z * z + 4.0), symmetric=True)
    for _ in range(50):
        q = random_quaternion(rng)
        if abs(qc.spectrum(q).s_plus.imag - 2.0) < 0.1:
            continue
        prod = qc.eval_spectral(qc.ScalarStem(f), q) @ qc.eval_spectral(qc.ScalarStem(inv), q)
        np.testing.assert_allclose(prod, np.eye(2), atol=1e-10)


def test_quaternion_valued_symmetric_functions(rng):
    # pointwise H-valued, conjugation-even map: values stay quaternions
    def fn(z):
        w = abs(z) ** 2 + 1j * z.real
        return qc.Quaternion(w, 0.5 * abs(z)).matrix()

    F = qc.CallableMatrixFunction(fn)
    for _ in range(50):
        q = random_quaternion(rng, 2.0)
        assert qc.eval_dist_to_quaternions(F, q) <= 1e-10


class _ReflectedRows(qc.MatrixFunction):
    """Row-swapped negation [[F21, F22], [-F11, -F12]] of a matrix function."""

    def __init__(self, base):
        self.base = base

    def __call__(self, z):
        v = self.base(z)
        out = np.empty_like(v)
        out[..., 0, 0] = v[..., 1, 0]
        out[..., 0, 1] = v[..., 1, 1]
        out[..., 1, 0] = -v[..., 0, 0]
        out[..., 1, 1] = -v[..., 0, 1]
        return out


def test_reflected_formulation_equivalence(rng):
    # the row-swapped negation is a stem function exactly when the original is
    for _ in range(10):
        F = _random_stem(rng)
        assert qc.verify_stem(_ReflectedRows(F)).passed
    for _ in range(5):
        entries = [
            [qc.Polynomial(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(2)]
            for _ in range(2)
        ]
        F = qc.EntrywiseFunction(entries)
        assert qc.verify_stem(F).passed == qc.verify_stem(_ReflectedRows(F)).passed
