import math
import warnings

import numpy as np
import pytest

import quatcalc as qc
from quatcalc import I, J, K

from conftest import random_hpoly, random_quaternion

BIG_DISK = qc.SymmetricDomain.disk(0.0, 20.0)


def small_cfg(rel_tol=1e-12, start=64, cap=2**14):
    return qc.QuadratureConfig(nodes_per_circle=start, max_nodes=cap, rel_tol=rel_tol)


def contour_for(q, margin=0.3, domain=BIG_DISK):
    sp = qc.spectrum(q)
    return qc.build_contour([sp.s_plus, sp.s_minus], domain, margin)


def test_quadrature_config_validation():
    with pytest.raises(qc.InvalidArgumentError):
        qc.QuadratureConfig(nodes_per_circle=100)
    with pytest.raises(qc.InvalidArgumentError):
        qc.QuadratureConfig(nodes_per_circle=8)
    with pytest.raises(qc.InvalidArgumentError):
        qc.QuadratureConfig(nodes_per_circle=1024, max_nodes=512)
    for rel_tol in (math.nan, math.inf, -1e-10):
        with pytest.raises(qc.InvalidArgumentError):
            qc.QuadratureConfig(rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# contour building


def test_build_contour_two_circles():
    gamma = qc.build_contour([1j, -1j], qc.SymmetricDomain.disk(0.0, 2.0), 0.25)
    centers = sorted(c.center.imag for c in gamma.circles)
    assert centers == [-1.0, 1.0]
    assert all(c.radius == 0.25 for c in gamma.circles)
    circles = set(gamma.circles)
    assert {qc.Circle(c.center.conjugate(), c.radius) for c in circles} == circles


def test_build_contour_real_point():
    gamma = qc.build_contour([3.0], qc.SymmetricDomain.disk(3.0, 2.0), 0.5)
    assert len(gamma.circles) == 1
    assert gamma.circles[0] == qc.Circle(3.0 + 0j, 0.5)


def test_build_contour_symmetric_family():
    gamma = qc.build_contour([1 + 1j, -1 + 1j], BIG_DISK, 0.3)
    centers = {c.center for c in gamma.circles}
    assert centers == {complex(c).conjugate() for c in centers}
    assert len(gamma.circles) == 4
    # pairwise disjoint closures
    circles = gamma.circles
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            gap = abs(circles[i].center - circles[j].center)
            assert gap > circles[i].radius + circles[j].radius


def test_build_contour_merges_overlaps():
    gamma = qc.build_contour([0.4j, -0.4j], BIG_DISK, 0.5)
    assert len(gamma.circles) == 1
    c = gamma.circles[0]
    assert c.center.imag == 0.0
    assert c.radius >= 0.9


def test_build_contour_clearance_error():
    with pytest.raises(qc.GeometryError):
        qc.build_contour([1j], qc.SymmetricDomain.disk(1j, 0.2), 0.25)


# ---------------------------------------------------------------------------
# transform values


def test_constant_reproduces_identity(rng):
    F = qc.ScalarStem(qc.Polynomial([1.0]))
    q = random_quaternion(rng)
    val = qc.cauchy_transform(F, q, contour_for(q), small_cfg())
    np.testing.assert_allclose(val, np.eye(2), atol=1e-12)


def test_coordinate_reproduces_argument(rng):
    F = qc.ScalarStem(qc.Polynomial([0.0, 1.0]))
    val = qc.cauchy_transform(F, J, contour_for(J), small_cfg())
    np.testing.assert_allclose(val, J.matrix(), atol=1e-12)


def test_exponential_against_series_oracle():
    y = 1.3
    q = J * y
    # oracle: partial sums of sum q^k / k! to 30 terms
    acc = np.zeros((2, 2), dtype=complex)
    power = I
    for k in range(30):
        acc += power.matrix() / math.factorial(k)
        power = power * q
    val = qc.cauchy_transform(qc.ScalarStem(qc.Exp()), q, contour_for(q), small_cfg())
    np.testing.assert_allclose(val, acc, atol=1e-12)
    np.testing.assert_allclose(val, np.cos(y) * np.eye(2) + np.sin(y) * J.matrix(), atol=1e-12)


def test_agreement_with_spectral_values(rng):
    stems = [
        random_hpoly(rng, 4),
        qc.ScalarStem(qc.Exp()),
        qc.ScalarStem(qc.Sin()),
        qc.PairStem(qc.Polynomial([1j, 0.5]), qc.Polynomial([0.0, 0.0, 1.0])),
    ]
    for F in stems:
        for _ in range(10):
            q = random_quaternion(rng)
            want = qc.eval_spectral(F, q)
            got = qc.cauchy_transform(F, q, contour_for(q), small_cfg())
            assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_polynomial_reproduction(rng):
    for _ in range(20):
        P = random_hpoly(rng, 6)
        q = random_quaternion(rng)
        want = qc.hpoly_eval(P.coeffs, q).matrix()
        got = qc.cauchy_transform(P, q, contour_for(q), small_cfg())
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_contour_independence(rng):
    F = qc.ScalarStem(qc.Exp())
    q = random_quaternion(rng)
    a = qc.cauchy_transform(F, q, contour_for(q, margin=0.2), small_cfg())
    b = qc.cauchy_transform(F, q, contour_for(q, margin=0.7), small_cfg())
    assert np.linalg.norm(a - b) <= 4e-12 * max(1.0, np.linalg.norm(a))


def test_geometric_convergence_on_exp():
    # spectrum close to the contour: each doubling gains at least 10x
    q = J * 0.9
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    F = qc.ScalarStem(qc.Exp())
    want = qc.eval_spectral(F, q)
    defects = []
    for n in (64, 128, 256):
        cfg = qc.QuadratureConfig(nodes_per_circle=n, max_nodes=n, rel_tol=1e-30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", qc.AccuracyWarning)
            got = qc.cauchy_transform(F, q, gamma, cfg)
        defects.append(np.linalg.norm(got - want))
    assert defects[1] <= defects[0] / 10.0
    assert defects[2] <= defects[1] / 10.0


def test_spectrum_on_contour_rejected():
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    with pytest.raises(qc.GeometryError):
        qc.cauchy_transform(qc.ScalarStem(qc.Exp()), J, gamma, small_cfg())
    with pytest.raises(qc.GeometryError):
        qc.cauchy_transform(qc.ScalarStem(qc.Exp()), J * 2.0, gamma, small_cfg())


def test_contour_outside_function_domain():
    dom = qc.SymmetricDomain.disk(0.0, 1.2)
    F = qc.ScalarStem(qc.Exp(), domain=dom)
    gamma = qc.Contour((qc.Circle(0j, 1.5),))
    with pytest.raises(qc.DomainError):
        qc.cauchy_transform(F, J * 0.5, gamma, small_cfg())


def test_non_convergence_warns():
    q = J * 0.999
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    cfg = qc.QuadratureConfig(nodes_per_circle=16, max_nodes=32, rel_tol=1e-14)
    with pytest.warns(qc.AccuracyWarning):
        _, diag = qc.cauchy_transform(
            qc.ScalarStem(qc.Exp()), q, gamma, cfg, return_diagnostics=True
        )
    assert not diag.converged
    assert diag.est_error > 0


# ---------------------------------------------------------------------------
# quadrature driver


class CountingStem(qc.ScalarStem):
    """Scalar stem that counts the points it is evaluated at."""

    def __init__(self, f):
        super().__init__(f)
        self.points = 0

    def __call__(self, z):
        self.points += np.size(z)
        return super().__call__(z)


def test_doubling_evaluates_each_node_once():
    F = CountingStem(qc.Exp())
    gamma = contour_for(J)
    _, diag = qc.cauchy_transform(F, J, gamma, qc.QuadratureConfig(), return_diagnostics=True)
    assert diag.converged and diag.nodes_per_circle == 2048
    assert F.points == 2048 * len(gamma.circles)


def _kahan_sum(values):
    total = np.zeros(values.shape[1:], dtype=values.dtype)
    comp = np.zeros_like(total)
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _recomputing_cauchy_transform(F, q, gamma, cfg):
    """Reference doubling loop that evaluates every node afresh at each level
    and sums them with a sequential Kahan loop."""
    sp = qc.spectrum(q)
    e_plus, e_minus = qc.spectral_projections(q)

    def total(nodes):
        acc = np.zeros((2, 2), dtype=complex)
        for c in gamma.circles:
            unit = np.exp(1j * 2.0 * np.pi * np.arange(nodes) / nodes)
            z = c.center + c.radius * unit
            resolvent = (
                (1.0 / (z - sp.s_plus))[:, None, None] * e_plus
                + (1.0 / (z - sp.s_minus))[:, None, None] * e_minus
            )
            acc = acc + _kahan_sum((F(z) @ resolvent) * ((c.radius / nodes) * unit)[:, None, None])
        return acc

    nodes = cfg.nodes_per_circle
    prev = total(nodes)
    while nodes * 2 <= cfg.max_nodes:
        nodes *= 2
        cur = total(nodes)
        diff = np.linalg.norm(cur - prev)
        prev = cur
        if diff <= cfg.rel_tol * max(1.0, np.linalg.norm(cur)):
            break
    return prev, nodes


def test_two_circle_value_matches_recomputing_driver(rng):
    q = qc.make_quaternion(0.3, 1.5, 0.2, 0.0)
    gamma = contour_for(q)
    assert len(gamma.circles) == 2
    cfg = qc.QuadratureConfig()
    for F in (qc.ScalarStem(qc.Exp()), qc.ScalarStem(qc.Sin()), random_hpoly(rng, 5)):
        want, want_nodes = _recomputing_cauchy_transform(F, q, gamma, cfg)
        got, diag = qc.cauchy_transform(F, q, gamma, cfg, return_diagnostics=True)
        assert diag.nodes_per_circle == want_nodes
        assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


def _ill_conditioned_parts(rng, n):
    big = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(0.0, 12.0, n // 2)
    parts = np.concatenate((big, -big)) + rng.standard_normal(n)
    return rng.permutation(parts)


@pytest.mark.parametrize("k", [4, 9, 13])
def test_compensated_sum_matches_fsum(rng, k):
    from quatcalc.contour_calc import _compensated_sum

    n = 2**k
    values = np.empty((n, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            values[:, i, j] = _ill_conditioned_parts(rng, n) + 1j * _ill_conditioned_parts(rng, n)
    got = _compensated_sum(values)
    eps = np.finfo(float).eps
    for i in range(2):
        for j in range(2):
            for part in (np.real, np.imag):
                p = part(values[:, i, j])
                exact = math.fsum(p)
                abs_sum = math.fsum(np.abs(p))
                assert abs_sum >= 1e6 * abs(exact)
                # the bound of a sequential Kahan sum ...
                assert abs(part(got[i, j]) - exact) <= 2.0 * eps * abs_sum
                # ... and of a sum in twice the working precision
                assert abs(part(got[i, j]) - exact) <= eps * abs(exact) + (n * eps) ** 2 * abs_sum


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_of_square_is_double(rng):
    F = qc.ScalarStem(qc.Polynomial([0, 0, 1]))
    q = random_quaternion(rng)
    got = qc.cauchy_derivative(F, 1, q, contour_for(q), small_cfg())
    np.testing.assert_allclose(got, 2.0 * q.matrix(), atol=1e-10 * max(1, q.norm()))


def test_zeroth_derivative_is_transform(rng):
    F = qc.ScalarStem(qc.Sin())
    q = random_quaternion(rng)
    a = qc.cauchy_derivative(F, 0, q, contour_for(q), small_cfg())
    b = qc.cauchy_transform(F, q, contour_for(q), small_cfg())
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_third_derivative_of_exp_at_zero():
    q = qc.Quaternion(0, 0)
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    got = qc.cauchy_derivative(qc.ScalarStem(qc.Exp()), 3, q, gamma, small_cfg())
    np.testing.assert_allclose(got, np.eye(2), atol=1e-11)


def test_hpoly_derivative_formula(rng):
    for _ in range(10):
        P = random_hpoly(rng, 5)
        q = random_quaternion(rng)
        want = qc.hpoly_eval(
            [a * float(k) for k, a in enumerate(P.coeffs) if k >= 1], q
        ).matrix()
        got = qc.cauchy_derivative(P, 1, q, contour_for(q), small_cfg())
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


# ---------------------------------------------------------------------------
# series evaluation


def test_series_exp_at_J():
    coeffs = [I * (1.0 / math.factorial(n)) for n in range(40)]
    got = qc.series_eval(coeffs, J, radius=math.inf)
    want = np.cos(1.0) * np.eye(2) + np.sin(1.0) * J.matrix()
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_series_constant():
    a0 = qc.make_quaternion(1, -2, 0.5, 0)
    np.testing.assert_array_equal(qc.series_eval([a0], K, radius=10.0), a0.matrix())


def test_series_geometric_inverse(rng):
    q = random_quaternion(rng)
    q = q * (0.5 / q.norm())
    coeffs = [I] * 200
    got = qc.series_eval(coeffs, q, radius=1.0)
    want = np.linalg.inv(np.eye(2) - q.matrix())
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_series_domain_error():
    with pytest.raises(qc.DomainError):
        qc.series_eval([I], J * 2.0, radius=1.0)


def test_series_matches_contour(rng):
    coeffs = [random_quaternion(rng, 0.5) for _ in range(7)]
    P = qc.QuaternionPolynomial(coeffs)
    q = random_quaternion(rng)
    got = qc.series_eval(coeffs, q, radius=math.inf)
    want = qc.cauchy_transform(P, q, contour_for(q), small_cfg())
    assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


# ---------------------------------------------------------------------------
# derivative bounds


def test_derivative_bound_formula_values():
    assert qc.derivative_bound(0, 1.0, 1.0, 0.5, 1.0, True) == 4.0
    assert qc.derivative_bound(1, 1.0, 2.0, 1.0, 3.0, False) == 0.75


def test_derivative_bound_dominates_measured_norms():
    # concentric disks in the upper half plane around 1.5i
    center = 1.5j
    r_inner, r_mid, r_outer = 0.25, 0.6, 1.2
    sup_f = math.exp(center.real + r_outer)  # sup |exp| on the outer circle
    F = qc.ScalarStem(qc.Exp())
    rng = np.random.default_rng(5)
    for n in range(5):
        bound = qc.derivative_bound(n, r_mid, r_outer - r_mid, r_mid - r_inner, sup_f, True)
        for _ in range(20):
            zeta = center + r_inner * 0.9 * math.sqrt(rng.uniform()) * np.exp(
                2j * np.pi * rng.uniform()
            )
            u = complex(rng.standard_normal(), rng.standard_normal())
            if abs(u) > abs(zeta.imag):
                u *= rng.uniform() * abs(zeta.imag) / abs(u)
            q = qc.quaternions_with_spectrum(zeta, u)
            G = F
            for _ in range(n):
                G = G.derivative()
            measured = qc.mat_norm(qc.eval_spectral(G, q))
            assert measured <= bound


# ---------------------------------------------------------------------------
# local series recomposition


def test_taylor_recompose_square_exact():
    F = qc.ScalarStem(qc.Polynomial([0, 0, 1]))
    q = qc.make_quaternion(0.2, 0.4, -0.1, 0.3)
    lam = 0.7 - 0.2j
    got = qc.taylor_recompose(F, q, lam, terms=3)
    np.testing.assert_allclose(got, lam * lam * np.eye(2), atol=1e-13)


def test_taylor_recompose_identity_single_term():
    F = qc.ScalarStem(qc.Polynomial([1.0]))
    got = qc.taylor_recompose(F, J, 0.5, terms=1)
    np.testing.assert_allclose(got, np.eye(2), atol=1e-15)


def test_taylor_recompose_exp():
    F = qc.ScalarStem(qc.Exp())
    q = J * 0.1
    lam = 0.2
    got = qc.taylor_recompose(F, q, lam, terms=40)
    np.testing.assert_allclose(got, F(lam), atol=1e-8)


class _ShiftedInverse(qc.AnalyticScalar):
    # k! / (2 - z)^(k+1): analytic off z = 2, symmetric, closed under d/dz
    def __init__(self, k=0):
        self.k = k

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return math.factorial(self.k) / (2.0 - z) ** (self.k + 1)

    def derivative(self):
        return _ShiftedInverse(self.k + 1)

    @property
    def symmetric(self):
        return True


def test_taylor_recompose_divergence_detected():
    F = qc.ScalarStem(_ShiftedInverse())
    with pytest.raises(qc.DomainError):
        qc.taylor_recompose(F, J * 0.1, 8.0, terms=200)


def test_enclosing_circles_invariants_fuzz(rng):
    for _ in range(100):
        pts = [complex(*rng.standard_normal(2)) for _ in range(int(rng.integers(1, 8)))]
        margin = float(rng.uniform(0.05, 0.8))
        circles = qc.enclosing_circles(pts, margin)
        # every point (and its mirror) keeps at least the requested clearance
        for p in pts + [p.conjugate() for p in pts]:
            assert max(c.radius - abs(p - c.center) for c in circles) >= margin * (1 - 1e-9)
        # disjoint closures
        for i in range(len(circles)):
            for j in range(i + 1, len(circles)):
                gap = abs(circles[i].center - circles[j].center)
                assert gap > circles[i].radius + circles[j].radius
        # conjugate symmetric as a set
        keyed = {
            (round(c.center.real, 9), round(c.center.imag, 9), round(c.radius, 9))
            for c in circles
        }
        assert keyed == {(x, -y, r) for x, y, r in keyed}


@pytest.mark.parametrize("margin", [0.0, -0.3, math.nan])
def test_enclosing_circles_rejects_bad_margin(margin):
    with pytest.raises(qc.InvalidArgumentError):
        qc.enclosing_circles([1j], margin)


def test_enclosing_circles_real_centers_variant(rng):
    for _ in range(50):
        pts = [complex(*rng.standard_normal(2)) for _ in range(int(rng.integers(1, 6)))]
        circles = qc.enclosing_circles(pts, 0.3, real_centers=True)
        assert all(c.center.imag == 0.0 for c in circles)
        for p in pts + [p.conjugate() for p in pts]:
            assert max(c.radius - abs(p - c.center) for c in circles) >= 0.3 * (1 - 1e-9)
