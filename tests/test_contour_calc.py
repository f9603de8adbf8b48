import itertools
import math

import numpy as np
import pytest

import quatcalc as qc
from quatcalc import I, J, K

from conftest import exp_sin_derivative, random_hpoly, random_quaternion


#: Tolerance of the value tests, which start at 64 nodes per circle and cap
#: at 2^14 (the ``small_nodes`` fixture).
SMALL_TOL = 1e-12


@pytest.fixture
def small_nodes(quadrature_nodes):
    quadrature_nodes(64, 2**14)


def contour_for(q, margin=0.3):
    sp = qc.spectrum(q)
    return qc.build_contour([sp.s_plus, sp.s_minus], margin)


def test_tolerance_validation():
    F = qc.ScalarStem(qc.Exp())
    for tol in (math.nan, math.inf, -1e-10):
        with pytest.raises(qc.InvalidArgumentError):
            qc.cauchy_transform(F, J, contour_for(J), tol=tol)


# ---------------------------------------------------------------------------
# contour building


def test_build_contour_two_circles():
    gamma = qc.build_contour([1j, -1j], 0.25)
    centers = sorted(c.center.imag for c in gamma.circles)
    assert centers == [-1.0, 1.0]
    assert all(c.radius == 0.25 for c in gamma.circles)
    circles = set(gamma.circles)
    assert {qc.Circle(c.center.conjugate(), c.radius) for c in circles} == circles


def test_build_contour_real_point():
    gamma = qc.build_contour([3.0], 0.5)
    assert len(gamma.circles) == 1
    assert gamma.circles[0] == qc.Circle(3.0 + 0j, 0.5)


def test_build_contour_symmetric_family():
    gamma = qc.build_contour([1 + 1j, -1 + 1j], 0.3)
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
    gamma = qc.build_contour([0.4j, -0.4j], 0.5)
    assert len(gamma.circles) == 1
    c = gamma.circles[0]
    assert c.center.imag == 0.0
    assert c.radius >= 0.9


def test_build_contour_clearance_error():
    # circles of radius 0.25 about +-i leave the disks of radius 0.2 about
    # +-i: the calculus, which knows the function's domain, rejects them
    F = qc.ScalarStem(qc.Exp(), domain=qc.SymmetricDomain.disk(1j, 0.2))
    with pytest.raises(qc.DomainError):
        qc.cauchy_transform(F, J, contour_for(J, margin=0.25))


# ---------------------------------------------------------------------------
# transform values


def test_constant_reproduces_identity(rng, small_nodes):
    F = qc.ScalarStem(qc.Polynomial([1.0]))
    q = random_quaternion(rng)
    val = qc.cauchy_transform(F, q, contour_for(q), SMALL_TOL)[0]
    np.testing.assert_allclose(val, np.eye(2), atol=1e-12)


def test_coordinate_reproduces_argument(rng, small_nodes):
    F = qc.ScalarStem(qc.Polynomial([0.0, 1.0]))
    val = qc.cauchy_transform(F, J, contour_for(J), SMALL_TOL)[0]
    np.testing.assert_allclose(val, J.matrix(), atol=1e-12)


def test_exponential_against_series_oracle(small_nodes):
    y = 1.3
    q = J * y
    # oracle: partial sums of sum q^k / k! to 30 terms
    acc = np.zeros((2, 2), dtype=complex)
    power = I
    for k in range(30):
        acc += power.matrix() / math.factorial(k)
        power = power * q
    val = qc.cauchy_transform(qc.ScalarStem(qc.Exp()), q, contour_for(q), SMALL_TOL)[0]
    np.testing.assert_allclose(val, acc, atol=1e-12)
    np.testing.assert_allclose(val, np.cos(y) * np.eye(2) + np.sin(y) * J.matrix(), atol=1e-12)


def test_agreement_with_spectral_values(rng, small_nodes):
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
            got = qc.cauchy_transform(F, q, contour_for(q), SMALL_TOL)[0]
            assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_polynomial_reproduction(rng, small_nodes):
    for _ in range(20):
        P = random_hpoly(rng, 6)
        q = random_quaternion(rng)
        want = qc.hpoly_eval(P.coeffs, q).matrix()
        got = qc.cauchy_transform(P, q, contour_for(q), SMALL_TOL)[0]
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_contour_independence(rng, small_nodes):
    F = qc.ScalarStem(qc.Exp())
    q = random_quaternion(rng)
    a = qc.cauchy_transform(F, q, contour_for(q, margin=0.2), SMALL_TOL)[0]
    b = qc.cauchy_transform(F, q, contour_for(q, margin=0.7), SMALL_TOL)[0]
    assert np.linalg.norm(a - b) <= 4e-12 * max(1.0, np.linalg.norm(a))


def test_geometric_convergence_on_exp(quadrature_nodes):
    # spectrum close to the contour: each doubling gains at least 10x; a
    # start at the cap stalls at once and carries its fixed-N value
    q = J * 0.9
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    F = qc.ScalarStem(qc.Exp())
    want = qc.eval_spectral(F, q)
    defects = []
    for n in (64, 128, 256):
        quadrature_nodes(n, n)
        with pytest.raises(qc.AccuracyError) as stall:
            qc.cauchy_transform(F, q, gamma, 1e-30)
        defects.append(np.linalg.norm(stall.value.value - want))
    assert defects[1] <= defects[0] / 10.0
    assert defects[2] <= defects[1] / 10.0


def test_spectrum_on_contour_rejected():
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    with pytest.raises(qc.GeometryError):
        qc.cauchy_transform(qc.ScalarStem(qc.Exp()), J, gamma)
    with pytest.raises(qc.GeometryError):
        qc.cauchy_transform(qc.ScalarStem(qc.Exp()), J * 2.0, gamma)


def test_contour_outside_function_domain():
    dom = qc.SymmetricDomain.disk(0.0, 1.2)
    F = qc.ScalarStem(qc.Exp(), domain=dom)
    gamma = qc.Contour((qc.Circle(0j, 1.5),))
    with pytest.raises(qc.DomainError):
        qc.cauchy_transform(F, J * 0.5, gamma)


def test_non_convergence_raises(quadrature_nodes):
    q = J * 0.999
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    quadrature_nodes(16, 32)
    with pytest.raises(qc.AccuracyError) as stall:
        qc.cauchy_transform(qc.ScalarStem(qc.Exp()), q, gamma, 1e-14)
    assert stall.value.diagnostics.est_error > 0


def test_tolerance_below_the_rounding_floor_stalls_early():
    # one merged circle of radius 24.25 around 0.5 +/- 12i carries exp up to
    # more than 1e10 times the value: rounding alone moves the sum by about
    # 1e-6 of it, so 1e-10 is out of reach and the driver says so once the
    # value has settled, not at the 2^18 node cap
    q = qc.make_quaternion(0.5, 12.0, 0.0, 0.0)
    gamma = contour_for(q, margin=12.25)
    assert len(gamma.circles) == 1
    with pytest.raises(qc.AccuracyError) as stall:
        qc.cauchy_transform(qc.ScalarStem(qc.Exp()), q, gamma)
    value, diag = stall.value.value, stall.value.diagnostics
    assert diag.nodes_per_circle <= 2**12
    assert diag.rounding_floor > 100 * 1e-10 * np.linalg.norm(value)


# ---------------------------------------------------------------------------
# quadrature driver


class CountingStem(qc.ScalarStem):
    """Scalar stem that counts the points it is evaluated at."""

    def __init__(self, f):
        super().__init__(f)
        self.calls = 0
        self.points = 0

    def __call__(self, z):
        self.calls += 1
        self.points += np.size(z)
        return super().__call__(z)


#: A start two doublings below the 2048 nodes the node-reuse tests count,
#: which the driver reaches at its first decision, the third level.
REUSE_START = 512


def test_doubling_evaluates_each_node_once(quadrature_nodes):
    quadrature_nodes(REUSE_START)
    F = CountingStem(qc.Exp())
    gamma = contour_for(J)
    _, diag = qc.cauchy_transform(F, J, gamma)
    assert diag.nodes_per_circle == 2048
    assert F.points == 2048 * len(gamma.circles)


@pytest.mark.parametrize("q, margin, circles, nodes, calls", [
    (qc.make_quaternion(0.3, 0.2, 0.0, 0.0), 0.5, 1, 64, 1),
    (J, 0.3, 2, 64, 1),
    (J * 0.3, 0.3, 1, 128, 2),
])
def test_one_call_of_f_per_level_batch(q, margin, circles, nodes, calls):
    # the first batch is the 64-node grid, which holds the 16- and 32-node
    # levels; each later doubling is one batch; every batch spans all circles
    F = CountingStem(qc.Exp())
    gamma = contour_for(q, margin)
    _, diag = qc.cauchy_transform(F, q, gamma)
    assert len(gamma.circles) == circles
    assert diag.nodes_per_circle == nodes
    assert F.calls == calls
    assert F.points == nodes * circles


def _pole_level_sums(asked):
    """Level sums of ``(1/2 pi i) integral of dz / (z - 0.72)`` on the
    circle of radius 0.9 about 0, whose trapezoid error is ``0.8^nodes``;
    records each request."""
    from quatcalc.contour_calc import _class_levels

    def level_sums(nodes, offset, levels):
        asked.append((nodes, offset, levels))
        z = 0.9 * np.exp(2j * np.pi * (np.arange(nodes) + offset) / nodes)
        terms = z / (z - 0.72)
        level = _class_levels(levels)[np.arange(nodes) % 2 ** (levels - 1)]
        return [(terms[level == j].sum(), float(np.abs(terms[level == j]).sum()))
                for j in range(levels)]

    return level_sums


def test_driver_asks_for_the_first_three_levels_in_one_batch(quadrature_nodes):
    from quatcalc.contour_calc import _class_levels, _trapezoid_doubling

    assert _class_levels(3).tolist() == [0, 2, 1, 2]
    asked = []
    value, diag = _trapezoid_doubling(_pole_level_sums(asked), 1e-10)
    assert asked == [(64, 0.0, 3), (64, 0.5, 1), (128, 0.5, 1)]
    assert diag.nodes_per_circle == 256
    assert abs(value - 1.0) <= 1e-12
    # below four times the start, the first batch is the cap's grid
    quadrature_nodes(16, 32)
    asked.clear()
    with pytest.raises(qc.AccuracyError) as stall:
        _trapezoid_doubling(_pole_level_sums(asked), 1e-10)
    assert asked == [(32, 0.0, 2)]
    assert stall.value.diagnostics.nodes_per_circle == 32


def _kahan_sum(values):
    total = np.zeros(values.shape[1:], dtype=values.dtype)
    comp = np.zeros_like(total)
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _recomputing_cauchy_transform(F, q, gamma, start):
    """Reference doubling loop that evaluates every node afresh at each level,
    sums them with a sequential Kahan loop, and stops by the driver's rule for
    integrands far above the rounding floor: from the third level on, once
    the last change is within the default tolerance and either half the
    change before it or that change is within tolerance too."""
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

    nodes = start
    values = [total(nodes)]
    while nodes * 2 <= 2**18:
        nodes *= 2
        values.append(total(nodes))
        if len(values) >= 3:
            before, last = (np.linalg.norm(b - a) for a, b in zip(values[-3:], values[-2:]))
            tol = 1e-10 * max(1.0, np.linalg.norm(values[-1]))
            if last <= tol and (last <= before / 2 or before <= tol):
                break
    return values[-1], nodes


def test_two_circle_value_matches_recomputing_driver(rng, quadrature_nodes):
    q = qc.make_quaternion(0.3, 1.5, 0.2, 0.0)
    gamma = contour_for(q)
    assert len(gamma.circles) == 2
    stems = (qc.ScalarStem(qc.Exp()), qc.ScalarStem(qc.Sin()), random_hpoly(rng, 5))
    for start, F in itertools.product((REUSE_START, 16), stems):
        quadrature_nodes(start)
        want, want_nodes = _recomputing_cauchy_transform(F, q, gamma, start)
        got, diag = qc.cauchy_transform(F, q, gamma)
        assert diag.nodes_per_circle == want_nodes
        assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


def _ill_conditioned_parts(rng, n):
    big = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(0.0, 12.0, n // 2)
    parts = np.concatenate((big, -big)) + rng.standard_normal(n)
    return rng.permutation(parts)


@pytest.mark.parametrize("k, classes", [(4, 1), (9, 1), (13, 1), (4, 4), (9, 4), (13, 4)],
                         ids=["4", "9", "13", "4-by-class", "9-by-class", "13-by-class"])
def test_compensated_sum_matches_fsum(rng, k, classes):
    # classes 4 is cauchy_transform's reshape to (-1, 4, 2, 2): one cascade
    # along axis 0 gives the sums of the four residue classes, each its own
    # ill-conditioned sum of n terms
    from quatcalc.contour_calc import _compensated_sum

    n = 2**k
    values = np.empty((n, classes, 2, 2), dtype=complex)
    for r, i, j in itertools.product(range(classes), range(2), range(2)):
        values[:, r, i, j] = _ill_conditioned_parts(rng, n) + 1j * _ill_conditioned_parts(rng, n)
    got = _compensated_sum(values)
    eps = np.finfo(float).eps
    for r, i, j in itertools.product(range(classes), range(2), range(2)):
        for part in (np.real, np.imag):
            p = part(values[:, r, i, j])
            exact = math.fsum(p)
            abs_sum = math.fsum(np.abs(p))
            assert abs_sum >= 1e6 * abs(exact)
            # the bound of a sequential Kahan sum ...
            assert abs(part(got[r, i, j]) - exact) <= 2.0 * eps * abs_sum
            # ... and of a sum in twice the working precision
            assert abs(part(got[r, i, j]) - exact) <= eps * abs(exact) + (n * eps) ** 2 * abs_sum


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_of_square_is_double(rng, small_nodes):
    F = qc.ScalarStem(qc.Polynomial([0, 0, 1]))
    q = random_quaternion(rng)
    got = qc.cauchy_transform(F, q, contour_for(q), SMALL_TOL, order=1)[0]
    np.testing.assert_allclose(got, 2.0 * q.matrix(), atol=1e-10 * max(1, q.norm()))


def test_zeroth_derivative_is_transform(rng, small_nodes):
    F = qc.ScalarStem(qc.Sin())
    q = random_quaternion(rng)
    a = qc.cauchy_transform(F, q, contour_for(q), SMALL_TOL, order=0)[0]
    b = qc.cauchy_transform(F, q, contour_for(q), SMALL_TOL)[0]
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_third_derivative_of_exp_at_zero(small_nodes):
    q = qc.Quaternion(0, 0)
    gamma = qc.Contour((qc.Circle(0j, 1.0),))
    got = qc.cauchy_transform(qc.ScalarStem(qc.Exp()), q, gamma, SMALL_TOL, order=3)[0]
    np.testing.assert_allclose(got, np.eye(2), atol=1e-11)


def test_hpoly_derivative_formula(rng, small_nodes):
    for _ in range(10):
        P = random_hpoly(rng, 5)
        q = random_quaternion(rng)
        want = qc.hpoly_eval(
            [a * float(k) for k, a in enumerate(P.coeffs) if k >= 1], q
        ).matrix()
        got = qc.cauchy_transform(P, q, contour_for(q), SMALL_TOL, order=1)[0]
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


EXP_SIN = qc.ScalarStem(qc.Product(qc.Exp(), qc.Sin()))
EXP_SIN_AT = qc.make_quaternion(0.5, 1.0, 0.0, 0.0)  # spectrum 0.5 +- i


@pytest.mark.parametrize("order", [30, 60, 100, 170])
def test_kernel_route_reaches_roundoff_when_the_radius_grows_with_the_order(order):
    # exp(z) sin(z) grows at rate sqrt(2): a radius near order / sqrt(2)
    # balances the kernel's k!/r^(k+1) against the function's growth
    sp = qc.spectrum(EXP_SIN_AT)
    gamma = qc.build_contour([sp.s_plus, sp.s_minus], order / math.sqrt(2.0))
    got, diag = qc.cauchy_transform(EXP_SIN, EXP_SIN_AT, gamma, order=order)
    want = np.diag([exp_sin_derivative(0.5 + 1j, order), exp_sin_derivative(0.5 - 1j, order)])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert diag.nodes_per_circle <= 256


def test_a_value_settled_short_of_the_tolerance_stalls():
    # on radius-1 circles the order-12 kernel lifts the rounding floor to
    # about 12 times the tolerance: the last two changes settle within half
    # the floor but above the tolerance, a value with digits missing
    sp = qc.spectrum(EXP_SIN_AT)
    gamma = qc.build_contour([sp.s_plus, sp.s_minus], 1.0)
    with pytest.raises(qc.AccuracyError, match="below the rounding floor") as stall:
        qc.cauchy_transform(EXP_SIN, EXP_SIN_AT, gamma, order=12)
    value, diag = stall.value.value, stall.value.diagnostics
    atol = 1e-10 * max(1.0, np.linalg.norm(value))
    assert diag.est_error > atol
    assert atol < diag.rounding_floor <= 100 * atol


def test_kernel_overflow_on_a_tight_contour_is_an_accuracy_error():
    sp = qc.spectrum(EXP_SIN_AT)
    gamma = qc.build_contour([sp.s_plus, sp.s_minus], 0.25)
    with pytest.raises(qc.AccuracyError, match="kernel overflows"):
        qc.cauchy_transform(EXP_SIN, EXP_SIN_AT, gamma, order=170)
    # a function that is not finite on the contour stays a numeric error
    far = qc.make_quaternion(800.0, 1.0, 0.0, 0.0)
    sp = qc.spectrum(far)
    gamma = qc.build_contour([sp.s_plus, sp.s_minus], 0.25)
    with pytest.raises(qc.NumericError), np.errstate(over="ignore", invalid="ignore"):
        qc.cauchy_transform(qc.ScalarStem(qc.Exp()), far, gamma, order=170)


def test_value_only_functions_differentiate_on_the_contour_only(rng, small_nodes):
    q = random_quaternion(rng)
    callable_exp = qc.CallableMatrixFunction(lambda z: np.exp(z) * np.eye(2))
    opaque_sin = qc.ScalarStem(qc.Opaque(np.sin, symmetric=True))
    for F, order, G in ((callable_exp, 2, qc.ScalarStem(qc.Exp())),
                        (opaque_sin, 1, qc.ScalarStem(qc.Cos()))):
        got = qc.cauchy_transform(F, q, contour_for(q), SMALL_TOL, order=order)[0]
        want = qc.eval_spectral(G, q)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))
        with pytest.raises(qc.InvalidArgumentError):
            qc.eval_spectral(F, q, order)


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


def test_series_matches_contour(rng, small_nodes):
    coeffs = [random_quaternion(rng, 0.5) for _ in range(7)]
    P = qc.QuaternionPolynomial(coeffs)
    q = random_quaternion(rng)
    got = qc.series_eval(coeffs, q, radius=math.inf)
    want = qc.cauchy_transform(P, q, contour_for(q), SMALL_TOL)[0]
    assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


# ---------------------------------------------------------------------------
# derivative bounds


def test_derivative_bound_formula_values():
    assert qc.cauchy_estimate(0, 1.0, 1.0, 0.5, 1.0, True) == 4.0
    assert qc.cauchy_estimate(1, 1.0, 2.0, 1.0, 3.0, False) == 0.75


def test_derivative_bound_dominates_measured_norms():
    # concentric disks in the upper half plane around 1.5i
    center = 1.5j
    r_inner, r_mid, r_outer = 0.25, 0.6, 1.2
    sup_f = math.exp(center.real + r_outer)  # sup |exp| on the outer circle
    F = qc.ScalarStem(qc.Exp())
    rng = np.random.default_rng(5)
    for n in range(5):
        bound = qc.cauchy_estimate(n, r_mid, r_outer - r_mid, r_mid - r_inner, sup_f, True)
        for _ in range(20):
            zeta = center + r_inner * 0.9 * math.sqrt(rng.uniform()) * np.exp(
                2j * np.pi * rng.uniform()
            )
            u = complex(rng.standard_normal(), rng.standard_normal())
            if abs(u) > abs(zeta.imag):
                u *= rng.uniform() * abs(zeta.imag) / abs(u)
            q = qc.quaternions_with_spectrum(zeta, u)
            measured = qc.mat_norm(qc.eval_spectral(F, q, n))
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


def test_taylor_recompose_exp_past_170_terms():
    # 1/n! is carried by running division, so no term needs 171! as a float
    F = qc.ScalarStem(qc.Exp())
    got = qc.taylor_recompose(F, J * 0.1, 0.3, terms=200)
    np.testing.assert_allclose(got, np.exp(0.3) * np.eye(2), atol=1e-13)


class _ShiftedInverse(qc.AnalyticScalar):
    # 1 / (2 - z), whose k-th derivative is k! / (2 - z)^(k+1): analytic off
    # z = 2 and symmetric.  The jet carries k! by running products, which
    # reach infinity quietly rather than raising on an integer k!.
    def jet(self, z, k, absolute=False):
        w = 1.0 / (2.0 - np.asarray(z, dtype=complex))
        out = [w]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, k + 1):
                out.append(out[-1] * (j * w))
        return np.abs(out) if absolute else np.array(out)

    @property
    def symmetric(self):
        return True


def test_taylor_recompose_divergence_detected():
    F = qc.ScalarStem(_ShiftedInverse())
    with pytest.raises(qc.DomainError):
        qc.taylor_recompose(F, J * 0.1, 8.0, terms=200)


def test_build_contour_invariants_fuzz(rng):
    for _ in range(100):
        pts = [complex(*rng.standard_normal(2)) for _ in range(int(rng.integers(1, 8)))]
        margin = float(rng.uniform(0.05, 0.8))
        circles = qc.build_contour(pts, margin).circles
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
def test_build_contour_rejects_bad_margin(margin):
    with pytest.raises(qc.InvalidArgumentError):
        qc.build_contour([1j], margin)


def test_build_contour_real_centers_variant(rng):
    for _ in range(50):
        pts = [complex(*rng.standard_normal(2)) for _ in range(int(rng.integers(1, 6)))]
        circles = qc.build_contour(pts, 0.3, real_centers=True).circles
        assert all(c.center.imag == 0.0 for c in circles)
        for p in pts + [p.conjugate() for p in pts]:
            assert max(c.radius - abs(p - c.center) for c in circles) >= 0.3 * (1 - 1e-9)
