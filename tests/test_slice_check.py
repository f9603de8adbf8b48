import math
import re
from functools import partial

import numpy as np
import pytest

import quatcalc as qc
from quatcalc import I, J, K, L
from quatcalc import slice_check
from quatcalc.slice_check import _NODES

from conftest import random_hpoly, random_quaternion

DISK2 = qc.SymmetricDomain.disk(0.0, 2.0)


def test_dbar_vanishes_on_square(rng):
    G = qc.quaternionwise(lambda q: (q * q).matrix())
    for _ in range(20):
        s = qc.random_unit_imaginary(rng)
        x, y = rng.standard_normal(), rng.standard_normal()
        assert np.linalg.norm(qc.dbar_s(G, x, y, s)) <= 1e-6


def test_dbar_of_star_is_identity(rng):
    G = qc.quaternionwise(lambda q: q.star())
    for _ in range(20):
        s = qc.random_unit_imaginary(rng)
        x, y = rng.standard_normal(), rng.standard_normal()
        np.testing.assert_allclose(qc.dbar_s(G, x, y, s), np.eye(2), atol=1e-9)


def test_dbar_of_constant_is_zero(rng):
    c = random_quaternion(rng)
    G = qc.quaternionwise(lambda q: c.matrix())
    s = qc.random_unit_imaginary(rng)
    np.testing.assert_array_equal(qc.dbar_s(G, 0.3, 0.4, s), np.zeros((2, 2)))


def test_dbar_requires_unit_imaginary():
    with pytest.raises(qc.InvalidArgumentError):
        qc.dbar_s(qc.quaternionwise(lambda q: q.matrix()), 0.0, 0.0, I)


def test_circle_rule_is_exact_disk_mean(rng):
    # smooth non-regular map (Re q)^3 * I: its operator value is 1.5 x^2 I,
    # whose mean over the disk of radius r about x is 1.5 (x^2 + r^2/4) I
    def G(q):
        return q.re ** 3 * np.eye(2)

    s = qc.random_unit_imaginary(rng)
    x, y = 0.7, 0.4
    for r in (0.25, 0.1, 1e-3):
        got = qc.dbar_s(qc.quaternionwise(G), x, y, s, radius=r)
        want = 1.5 * (x * x + r * r / 4.0) * np.eye(2)
        assert np.linalg.norm(got - want, 2) <= 1e-13


# ---------------------------------------------------------------------------
# regularity reports


def test_report_passes_for_stem_values(rng):
    F = random_hpoly(rng, 4, scale=0.5)
    G = partial(qc.eval_spectral, F)
    grid = qc.SliceSampleGrid.random(DISK2, 60, 5, seed=3)
    report = qc.slice_regularity_report(G, grid, tol=1e-5)
    assert report.passed, report.max_defect


def test_report_fails_for_star(rng):
    grid = qc.SliceSampleGrid.random(DISK2, 40, 4, seed=4)
    report = qc.slice_regularity_report(qc.quaternionwise(lambda q: q.star()), grid, tol=1e-5)
    assert not report.passed
    assert abs(report.max_defect - 1.0) <= 1e-3


def test_report_passes_for_resolvent_kernel(rng):
    zeta0 = 4.0 + 0.5j  # outside the slice disk of radius 2
    def G(q):
        return np.linalg.inv(zeta0 * np.eye(2) - q.matrix())

    grid = qc.SliceSampleGrid.random(DISK2, 60, 5, seed=5)
    report = qc.slice_regularity_report(qc.quaternionwise(G), grid, tol=1e-5)
    assert report.passed, report.max_defect


def test_report_passes_for_contour_values(rng, quadrature_nodes):
    F = qc.ScalarStem(qc.Exp())
    quadrature_nodes(64, 2**12)

    def G(q):
        sp = qc.spectrum(q)
        gamma = qc.build_contour([sp.s_plus, sp.s_minus], 1.0)
        return qc.cauchy_transform(F, q, gamma, 1e-12)[0]

    grid = qc.SliceSampleGrid.random(DISK2, 12, 3, seed=6)
    report = qc.slice_regularity_report(qc.quaternionwise(G), grid, tol=1e-5)
    assert report.passed, report.max_defect


def test_grid_validation():
    with pytest.raises(qc.InvalidArgumentError):
        qc.SliceSampleGrid([(0.0, 0.0, I)])


def test_report_checks_directions_only_when_the_grid_is_built(monkeypatch):
    checked = []
    check = slice_check._check_directions

    def counting_check(mats, message):
        checked.append(len(mats))
        check(mats, message)

    monkeypatch.setattr(slice_check, "_check_directions", counting_check)
    grid = qc.SliceSampleGrid.random(DISK2, 24, 3, seed=1)
    assert checked == [3]
    G = qc.quaternionwise(lambda q: q.star())
    assert qc.slice_regularity_report(G, grid).max_defect == pytest.approx(1.0, abs=1e-12)
    assert checked == [3]
    qc.dbar_s(G, grid.x, grid.y, grid.direction_matrices)
    assert checked == [3, 24]


def test_radius_that_rounds_away_rejected():
    # every difference of the rule would read zero and pass any map
    G = qc.quaternionwise(lambda q: q.star())
    for radius in (0.0, 1e-300):
        with pytest.raises(qc.InvalidArgumentError, match=r"rounds away at the point \(0\.5, 0\.25\)"):
            qc.dbar_s(G, 0.5, 0.25, J, radius=radius)
    for x, y in ((1e17, 0.0), (0.0, -1e17)):
        grid = qc.SliceSampleGrid([(0.3, 0.2, J), (x, y, K)])
        with pytest.raises(qc.InvalidArgumentError, match=re.escape(f"at the point ({x}, {y})")):
            qc.slice_regularity_report(G, grid)


def circle_nodes(x, y, r):
    """The slice coordinates of the circle rule's nodes about ``(x, y)``."""
    t = 2.0 * np.pi * np.arange(_NODES) / _NODES
    return [(x + r * c, y + r * sn) for c, sn in zip(np.cos(t), np.sin(t))]


def per_point_reference(g, grid):
    """Worst defect by the per-point loop: the full trapezoid sum of Green's
    formula over each point's circle, from values of the single-quaternion
    map ``g``, and one SVD per grid point.  Returns it with the largest entry
    of any value, for scaling tolerances."""
    r = grid.radius
    t = 2.0 * np.pi * np.arange(_NODES) / _NODES
    worst, scale = -1.0, 0.0
    for x, y, s in grid.points:
        S = s.matrix()
        total = np.zeros((2, 2), dtype=complex)
        for c, sn in zip(np.cos(t), np.sin(t)):
            v = g(I * (x + r * c) + s * (y + r * sn))
            v = v.matrix() if isinstance(v, qc.Quaternion) else np.asarray(v, dtype=complex)
            scale = max(scale, float(np.abs(v).max()))
            total += v @ (c * np.eye(2) + sn * S)
        worst = max(worst, float(np.linalg.norm(total / (_NODES * r), 2)))
    return worst, scale


def sequential_grid_reference(domain, n_points, n_directions, seed=0):
    """Grid points drawn one at a time."""
    rng = np.random.default_rng(seed)
    directions = [qc.random_unit_imaginary(rng) for _ in range(n_directions)]
    disks = domain.disks
    points = []
    while len(points) < n_points:
        c, r = disks[rng.integers(len(disks))]
        z = c + (0.8 * r) * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        points.append((float(z.real), float(z.imag), directions[len(points) % n_directions]))
    return points


def _stem_case(F):
    return partial(qc.eval_spectral, F), lambda q: qc.eval_spectral(F, q)


ZETA0 = 4.0 + 0.5j  # outside the slice disk of radius 2
REPORT_CASES = {
    "hpoly": lambda rng: _stem_case(random_hpoly(rng, 4, scale=0.5)),
    "exp": lambda rng: _stem_case(qc.ScalarStem(qc.Exp())),
    "pair": lambda rng: _stem_case(
        qc.PairStem(qc.Polynomial([0.4, 1j, 1.0]), qc.Polynomial([0.2, -0.5j]))
    ),
    "star": lambda rng: (lambda Q: np.conj(np.swapaxes(Q, -1, -2)), lambda q: q.star()),
    "resolvent": lambda rng: (
        lambda Q: np.linalg.inv(ZETA0 * np.eye(2) - Q),
        lambda q: np.linalg.inv(ZETA0 * np.eye(2) - q.matrix()),
    ),
}


def _edge_grid(rng):
    # circles across the real axis (|y| <= r and y = 0 exactly) and slices
    # through J and -J, whose points have z2 = 0
    s1, s2 = qc.random_unit_imaginary(rng), qc.random_unit_imaginary(rng)
    minus_j = qc.Quaternion(-1j, 0.0)
    return qc.SliceSampleGrid([
        (0.3, 0.0, J), (-0.7, 0.0, s1), (0.2, 0.5e-4, s1), (1.1, -1e-4, K),
        (0.0, 1e-4, J), (0.5, 2e-4, minus_j), (-1.2, 0.9, minus_j), (0.4, -0.6, s2),
        (0.0, 0.0, s2),
    ])


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_batched_report_matches_per_point_reference(rng, case):
    G, g = REPORT_CASES[case](rng)
    for grid in (qc.SliceSampleGrid.random(DISK2, 40, 4, seed=12), _edge_grid(rng)):
        report = qc.slice_regularity_report(G, grid, tol=1e-5)
        want, scale = per_point_reference(g, grid)
        assert abs(report.max_defect - want) <= 1e-10 * max(1.0, scale)
        assert report.passed == (want <= 1e-5)
        assert report.worst_point in grid.points
        if case == "star":
            assert abs(report.max_defect - 1.0) <= 1e-12
        else:
            assert report.passed, report.max_defect


def _projection_reference(F, q):
    # F(s+)E+ + F(s-)E- from the eigenvectors of spectrum()
    sp = qc.spectrum(q)
    e_plus, e_minus = qc.spectral_projections(q)
    return F(sp.s_plus) @ e_plus + F(sp.s_minus) @ e_minus


def test_stacked_eval_spectral_matches_projection_reference(rng):
    stems = [
        random_hpoly(rng, 4),
        qc.ScalarStem(qc.Exp()),
        qc.PairStem(qc.Polynomial([0.4, 1j, 1.0]), qc.Polynomial([0.2, -0.5j])),
        qc.EntrywiseFunction([[qc.Sin(), qc.Polynomial([1.0, 2j])],
                              [qc.Exp(), qc.Cos()]]),
    ]
    qs = [random_quaternion(rng) for _ in range(200)]
    for k in range(200):
        # near-real: imaginary components from 1e-18 to 1e-6; every third
        # has z2 = 0 exactly
        x = rng.standard_normal(4)
        x[1:] *= 10.0 ** rng.uniform(-18.0, -6.0, 3)
        if k % 3 == 0:
            x[2:] = 0.0
        qs.append(qc.make_quaternion(*x))
    qs += [qc.make_quaternion(0.7, 0.0, 0.0, 0.0), J, K * -2.0, I * 0.0]
    stack = np.array([q.matrix() for q in qs])
    for F in stems:
        got = qc.eval_spectral(F, stack)
        assert got.shape == stack.shape
        for q, value in zip(qs, got):
            want = _projection_reference(F, q)
            assert np.linalg.norm(value - want) <= 1e-14 * np.linalg.norm(want)
            assert np.linalg.norm(qc.eval_spectral(F, q) - want) <= 1e-14 * np.linalg.norm(want)
        np.testing.assert_array_equal(qc.eval_spectral(F, stack[0]), got[0])


def test_stacked_eval_spectral_domain_error():
    F = qc.ScalarStem(qc.Exp(), domain=qc.SymmetricDomain.disk(0.0, 1.0))
    inside = (J * 0.5).matrix()
    qc.eval_spectral(F, inside)
    for q in (J * 1.5, I * 1.2):
        with pytest.raises(qc.DomainError):
            qc.eval_spectral(F, q)
        with pytest.raises(qc.DomainError):
            qc.eval_spectral(F, np.array([inside, q.matrix()]))


@pytest.mark.parametrize(
    "disk, n_points, n_directions",
    [((0.0, 2.0), 24, 3), ((0.0, 1.5), 300, 10), ((0.5, 0.01), 7, 2), ((-1.0, 3e-4), 5, 1)],
)
def test_single_disk_grid_matches_sequential_draw(disk, n_points, n_directions):
    domain = qc.SymmetricDomain.disk(*disk)
    for seed in range(10):
        got = qc.SliceSampleGrid.random(domain, n_points, n_directions, seed=seed).points
        want = sequential_grid_reference(domain, n_points, n_directions, seed=seed)
        assert [(x, y, s.coords) for x, y, s in got] == [(x, y, s.coords) for x, y, s in want]


def test_multi_disk_grid_keeps_stencils_inside():
    # the stencil of each point is its circle of 16 nodes
    domain = qc.SymmetricDomain([(0.5 + 0.3j, 0.2), (-1.0, 0.5)])
    grid = qc.SliceSampleGrid.random(domain, 200, 3, seed=1)
    assert len(grid.points) == 200
    assert grid.radius == 0.2 / 8
    for x, y, _ in grid.points:
        for px, py in circle_nodes(x, y, grid.radius):
            assert domain.contains(complex(px, py))


def test_non_finite_stencil_value_raises():
    G = partial(qc.eval_spectral, qc.ScalarStem(qc.Exp()))
    with pytest.raises(qc.NumericError), np.errstate(over="ignore", invalid="ignore"):
        qc.dbar_s(G, [0.0, 800.0], [0.0, 1.0], J)


# ---------------------------------------------------------------------------
# slice splitting


def test_split_slice_constant_k():
    g, h = qc.split_slice(lambda q: K)
    q = I
    assert g(q).norm() <= 1e-15
    assert h(q) == J
    assert (g(q) + L * h(q)).isclose(K, 1e-15)


def test_split_slice_already_slice_valued():
    f = lambda q: qc.Quaternion(0.5 + 0.25j, 0.0)
    g, h = qc.split_slice(f)
    assert g(I) == qc.Quaternion(0.5 + 0.25j, 0.0)
    assert h(I).norm() == 0.0


def test_split_slice_constant_l():
    g, h = qc.split_slice(lambda q: L)
    assert g(I).norm() <= 1e-15
    assert h(I) == I


def test_split_slice_reconstruction(rng):
    F = random_hpoly(rng, 3)

    def f(q):
        return qc.as_quaternion(qc.eval_spectral(F, q))

    g, h = qc.split_slice(f)
    for _ in range(30):
        x, y = rng.standard_normal(2)
        q = I * x + J * y
        rebuilt = g(q) + L * h(q)
        assert rebuilt.isclose(f(q), 1e-14)
        # parts take values in the J slice
        assert abs(g(q).z2) == 0.0
        assert abs(h(q).z2) == 0.0


def test_split_parts_inherit_regularity(rng):
    F = random_hpoly(rng, 3, scale=0.5)

    def f(q):
        return qc.as_quaternion(qc.eval_spectral(F, q))

    g, h = qc.split_slice(f)
    for fn in (f, g, h):
        worst = 0.0
        for _ in range(25):
            x, y = 0.8 * rng.standard_normal(2)
            worst = max(worst, np.linalg.norm(qc.dbar_s(qc.quaternionwise(fn), x, y, J)))
        assert worst <= 2e-5


# ---------------------------------------------------------------------------
# circularization membership


def test_circularization_examples():
    assert qc.circularization_contains(DISK2, J)
    small = qc.SymmetricDomain([(1j, 0.5)])
    assert not qc.circularization_contains(small, K * 2.0)
    assert qc.circularization_contains(small, K)


def test_circularization_spectral_equals_axial(rng):
    for _ in range(10_000):
        q = random_quaternion(rng, 1.5)
        dom = qc.SymmetricDomain(
            [(complex(rng.standard_normal(), rng.standard_normal()), rng.uniform(0.3, 2.0))]
        )
        assert qc.circularization_contains(dom, q) == qc.circularization_contains_axial(dom, q)


def test_circularization_criteria_agree_near_the_real_axis():
    # both coordinates below the degenerate threshold 1e-14, their hypot above it
    q = qc.Quaternion(1.0 + 0.8e-14j, 0.8e-14)
    dom = qc.SymmetricDomain.disk(1.0, 1e-14)
    assert qc.circularization_contains(dom, q)
    assert qc.circularization_contains_axial(dom, q)


# ---------------------------------------------------------------------------
# reconstruction from one slice


def test_extend_from_slice_recovers_polynomial(rng):
    F = random_hpoly(rng, 5, scale=0.6)
    rebuilt = qc.extend_from_slice(partial(qc.eval_spectral, F), center=0.0, radius=1.0, degree=16)
    for _ in range(30):
        q = random_quaternion(rng)
        a = qc.eval_spectral(F, q)
        b = qc.eval_spectral(rebuilt, q)
        assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_extend_from_slice_matches_exp_on_disk(rng):
    F = qc.ScalarStem(qc.Exp())
    rebuilt = qc.extend_from_slice(partial(qc.eval_spectral, F), center=0.0, radius=1.0, degree=16)
    for _ in range(20):
        q = random_quaternion(rng, 0.3)
        a = qc.eval_spectral(F, q)
        b = qc.eval_spectral(rebuilt, q)
        assert np.linalg.norm(a - b) <= 1e-8


def test_extend_from_slice_calls_its_map_once_and_requires_quaternions():
    calls = []

    def G(Q):
        calls.append(Q.shape)
        return 1j * Q  # i q is not a quaternion unless q = 0

    with pytest.raises(qc.InvalidArgumentError, match="not a quaternion"):
        qc.extend_from_slice(G, degree=16)
    assert calls == [(68, 2, 2)]


def test_empty_grid_rejected():
    with pytest.raises(qc.InvalidArgumentError):
        qc.slice_regularity_report(qc.quaternionwise(lambda q: q.matrix()), qc.SliceSampleGrid([]))
    with pytest.raises(qc.InvalidArgumentError):
        qc.SliceSampleGrid.random(DISK2, 0, 3)
