import math

import numpy as np
import pytest

import quatcalc as qc
from quatcalc import I, J, K, L

from conftest import random_hpoly, random_quaternion

DISK2 = qc.SymmetricDomain.disk(0.0, 2.0)


def test_dbar_vanishes_on_square(rng):
    G = lambda q: (q * q).matrix()
    for _ in range(20):
        s = qc.random_unit_imaginary(rng)
        x, y = rng.standard_normal(), rng.standard_normal()
        assert np.linalg.norm(qc.dbar_s(G, x, y, s)) <= 1e-6


def test_dbar_of_star_is_identity(rng):
    G = lambda q: q.star()
    for _ in range(20):
        s = qc.random_unit_imaginary(rng)
        x, y = rng.standard_normal(), rng.standard_normal()
        np.testing.assert_allclose(qc.dbar_s(G, x, y, s), np.eye(2), atol=1e-9)


def test_dbar_of_constant_is_zero(rng):
    c = random_quaternion(rng)
    G = lambda q: c.matrix()
    s = qc.random_unit_imaginary(rng)
    np.testing.assert_array_equal(qc.dbar_s(G, 0.3, 0.4, s), np.zeros((2, 2)))


def test_dbar_requires_unit_imaginary():
    with pytest.raises(qc.InvalidArgumentError):
        qc.dbar_s(lambda q: q.matrix(), 0.0, 0.0, I)


def test_dbar_stencil_domain_check():
    small = qc.SymmetricDomain.disk(0.0, 0.5)
    with pytest.raises(qc.DomainError):
        qc.dbar_s(lambda q: q.matrix(), 0.499, 0.0, J, h=1e-2, domain=small)


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
        errs.append(np.linalg.norm(qc.dbar_s(G, x, y, s, h=h) - exact(x), 2))
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
    report = qc.slice_regularity_report(lambda q: q.star(), grid, tol=1e-5)
    assert not report.passed
    assert abs(report.max_defect - 1.0) <= 1e-3


def test_report_passes_for_resolvent_kernel(rng):
    zeta0 = 4.0 + 0.5j  # outside the slice disk of radius 2
    def G(q):
        return np.linalg.inv(zeta0 * np.eye(2) - q.matrix())

    grid = qc.SliceSampleGrid.random(DISK2, 60, 5, seed=5)
    report = qc.slice_regularity_report(G, grid, tol=1e-5)
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
    report = qc.slice_regularity_report(G, grid, tol=1e-5)
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
            worst = max(worst, np.linalg.norm(qc.dbar_s(lambda q: fn(q).matrix(), x, y, J)))
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
        qc.slice_regularity_report(lambda q: q.matrix(), qc.SliceSampleGrid([]))
    with pytest.raises(qc.InvalidArgumentError):
        qc.SliceSampleGrid.random(DISK2, 0, 3)
