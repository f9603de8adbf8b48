import math

import numpy as np
import pytest

import quatcalc as qc
from quatcalc import I, J, K, L

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


def test_dbar_stencil_domain_check():
    small = qc.SymmetricDomain.disk(0.0, 0.5)
    with pytest.raises(qc.DomainError):
        qc.dbar_s(qc.quaternionwise(lambda q: q.matrix()), 0.499, 0.0, J, h=1e-2, domain=small)


def test_finite_difference_error_is_second_order(rng):
    # smooth non-regular map (Re q)^3 * I; its stencil error is exactly h^2/2
    def G(q):
        return q.re ** 3 * np.eye(2)

    def exact(x):
        return 1.5 * x * x * np.eye(2)

    s = qc.random_unit_imaginary(rng)
    x, y = 0.7, 0.4
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        errs.append(np.linalg.norm(qc.dbar_s(qc.quaternionwise(G), x, y, s, h=h) - exact(x), 2))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


# ---------------------------------------------------------------------------
# regularity reports


def test_report_passes_for_stem_values(rng):
    F = random_hpoly(rng, 4, scale=0.5)
    G = qc.spectral_evaluator(F)
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


def test_report_passes_for_contour_values(rng):
    F = qc.ScalarStem(qc.Exp())
    dom = qc.SymmetricDomain.disk(0.0, 20.0)
    cfg = qc.QuadratureConfig(nodes_per_circle=64, max_nodes=2**12, rel_tol=1e-12)

    def G(q):
        sp = qc.spectrum(q)
        gamma = qc.build_contour([sp.s_plus, sp.s_minus], dom, 1.0)
        return qc.cauchy_transform(F, q, gamma, cfg)

    grid = qc.SliceSampleGrid.random(DISK2, 12, 3, seed=6)
    report = qc.slice_regularity_report(qc.quaternionwise(G), grid, tol=1e-5)
    assert report.passed, report.max_defect


def test_grid_validation():
    with pytest.raises(qc.InvalidArgumentError):
        qc.SliceSampleGrid([(0.0, 0.0, I)])
    for h in (math.nan, math.inf):
        with pytest.raises(qc.InvalidArgumentError):
            qc.SliceSampleGrid([(0.5, 0.25, J)], h=h)


@pytest.mark.parametrize("h", [0.0, -0.5, 1e-300])
def test_degenerate_finite_difference_step_rejected(h):
    # a zero step divides by zero, a negative one flips the stencil, and
    # 1e-300 rounds away at 0.5, where every difference would read zero
    with pytest.raises(qc.InvalidArgumentError):
        qc.SliceSampleGrid([(0.5, 0.25, J)], h=h)
    with pytest.raises(qc.InvalidArgumentError):
        qc.SliceSampleGrid.random(DISK2, 10, 2, h=h)


def per_point_reference(g, grid):
    """Worst defect by the per-point loop: four values of the single-quaternion
    map ``g`` and one SVD per grid point.  Returns it with the largest entry of
    any value, for scaling tolerances."""
    h = grid.h
    worst, scale = -1.0, 0.0
    for x, y, s in grid.points:
        vals = []
        for px, py in ((x + h, y), (x - h, y), (x, y + h), (x, y - h)):
            v = g(I * px + s * py)
            vals.append(v.matrix() if isinstance(v, qc.Quaternion) else np.asarray(v, dtype=complex))
        scale = max(scale, *(float(np.abs(v).max()) for v in vals))
        gx = (vals[0] - vals[1]) / (2.0 * h)
        gy = (vals[2] - vals[3]) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(0.5 * (gx + gy @ s.matrix()), 2)))
    return worst, scale


def sequential_grid_reference(domain, n_points, n_directions, h=1e-4, seed=0):
    """Grid points drawn one candidate at a time, each stencil checked by scalar
    membership."""
    rng = np.random.default_rng(seed)
    directions = [qc.random_unit_imaginary(rng) for _ in range(n_directions)]
    disks = domain.disks
    points = []
    while len(points) < n_points:
        c, r = disks[rng.integers(len(disks))]
        z = c + (0.8 * r) * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        x, y = float(z.real), float(z.imag)
        if all(domain.contains(complex(px, py))
               for px, py in ((x + h, y), (x - h, y), (x, y + h), (x, y - h))):
            points.append((x, y, directions[len(points) % n_directions]))
    return points


def _stem_case(F):
    return qc.spectral_evaluator(F), lambda q: qc.eval_spectral(F, q)


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
    # stencils across the real axis (|y| <= h and y = 0 exactly) and slices
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


def test_spectral_evaluator_matches_eval_spectral(rng):
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
        got = qc.spectral_evaluator(F)(stack)
        assert got.shape == stack.shape
        for q, value in zip(qs, got):
            want = qc.eval_spectral(F, q)
            assert np.linalg.norm(value - want) <= 1e-14 * np.linalg.norm(want)
        np.testing.assert_array_equal(qc.spectral_evaluator(F)(stack[0]), got[0])


def test_spectral_evaluator_domain_error():
    F = qc.ScalarStem(qc.Exp(), domain=qc.SymmetricDomain.disk(0.0, 1.0))
    G = qc.spectral_evaluator(F)
    inside = (J * 0.5).matrix()
    G(inside)
    for q in (J * 1.5, I * 1.2):
        with pytest.raises(qc.DomainError):
            qc.eval_spectral(F, q)
        with pytest.raises(qc.DomainError):
            G(np.array([inside, q.matrix()]))


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
    domain = qc.SymmetricDomain([(0.5 + 0.3j, 0.2), (-1.0, 0.5)])
    grid = qc.SliceSampleGrid.random(domain, 200, 3, seed=1)
    assert len(grid.points) == 200
    for x, y, _ in grid.points:
        for px, py in ((x + grid.h, y), (x - grid.h, y), (x, y + grid.h), (x, y - grid.h)):
            assert domain.contains(complex(px, py))


def test_too_small_domain_rejected():
    with pytest.raises(qc.InvalidArgumentError, match="domain too small"):
        qc.SliceSampleGrid.random(qc.SymmetricDomain.disk(0.0, 1e-4), 3, 1)


def test_non_finite_stencil_value_raises():
    G = qc.spectral_evaluator(qc.ScalarStem(qc.Exp()))
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


# ---------------------------------------------------------------------------
# reconstruction from one slice


def test_extend_from_slice_recovers_polynomial(rng):
    F = random_hpoly(rng, 5, scale=0.6)

    def f(q):
        return qc.as_quaternion(qc.eval_spectral(F, q))

    rebuilt = qc.extend_from_slice(f, center=0.0, radius=1.0, degree=16)
    for _ in range(30):
        q = random_quaternion(rng)
        a = qc.eval_spectral(F, q)
        b = qc.eval_spectral(rebuilt, q)
        assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_extend_from_slice_matches_exp_on_disk(rng):
    F = qc.ScalarStem(qc.Exp())

    def f(q):
        return qc.as_quaternion(qc.eval_spectral(F, q))

    rebuilt = qc.extend_from_slice(f, center=0.0, radius=1.0, degree=16)
    for _ in range(20):
        q = random_quaternion(rng, 0.3)
        a = qc.eval_spectral(F, q)
        b = qc.eval_spectral(rebuilt, q)
        assert np.linalg.norm(a - b) <= 1e-8


def test_empty_grid_rejected():
    with pytest.raises(qc.InvalidArgumentError):
        qc.slice_regularity_report(qc.quaternionwise(lambda q: q.matrix()), qc.SliceSampleGrid([]))
    with pytest.raises(qc.InvalidArgumentError):
        qc.SliceSampleGrid.random(DISK2, 0, 3)
