import numpy as np
import pytest

import quatcalc as qc
from quatcalc import joint_op
from quatcalc.real_op import smallest_singular_value

from conftest import random_commuting_pair


def rotation_pair(a1, b1, a2, b2):
    """Commuting 2x2 pair with complex joint eigenvalues (a1 +- i b1, a2 +- i b2)."""
    r1 = np.array([[a1, b1], [-b1, a1]])
    r2 = np.array([[a2, b2], [-b2, a2]])
    return qc.CommutingPair(r1, r2)


def test_commuting_pair_validation(rng):
    with pytest.raises(qc.InvalidArgumentError):
        qc.CommutingPair(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(qc.InvalidArgumentError):
        qc.CommutingPair(np.eye(2), np.eye(3))


def test_pair_q_matrix_assembly():
    p = qc.CommutingPair(np.zeros((1, 1)), np.zeros((1, 1)))
    np.testing.assert_array_equal(qc.pair_q_matrix(p), np.zeros((2, 2)))

    p = qc.CommutingPair(np.eye(2), np.zeros((2, 2)))
    np.testing.assert_array_equal(
        qc.pair_q_matrix(p),
        np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]),
    )

    t1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = qc.CommutingPair(t1, 2.0 * t1)
    q = qc.pair_q_matrix(p)
    np.testing.assert_array_equal(q[:2, :2], t1)
    np.testing.assert_array_equal(q[:2, 2:], 2 * t1)
    np.testing.assert_array_equal(q[2:, :2], -2 * t1)
    np.testing.assert_array_equal(q[2:, 2:], t1)


def test_joint_margin_scalar_pair():
    p = qc.CommutingPair(np.array([[1.0]]), np.array([[2.0]]))
    assert qc.joint_resolvent_margin(p, (1.0, 2.0)) <= 1e-14
    # at real points the pencil is |z1 - a|^2 + |z2 - b|^2
    for z in ((1.5, 2.0), (1.0, 0.0), (3.0 + 1j, 2.0)):
        want = abs(complex(z[0]) - 1.0) ** 2 + abs(complex(z[1]) - 2.0) ** 2
        got = qc.joint_resolvent_margin(p, z) * max(1.0, 1.0 + 4.0)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_joint_margin_conjugation_invariance(rng):
    pair, _ = random_commuting_pair(rng, 3)
    for _ in range(100):
        z = (
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        zc = (z[0].conjugate(), z[1].conjugate())
        assert qc.joint_resolvent_margin(pair, z) == qc.joint_resolvent_margin(pair, zc)


def test_membership_margin_star_invariance(rng):
    pair, _ = random_commuting_pair(rng, 3)
    for _ in range(100):
        z = (
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        zs = qc.cvec_star(z)
        assert qc.joint_membership_margin(pair, z) == qc.joint_membership_margin(pair, zs)


def test_membership_margin_sees_mirror_singularities():
    # single pencil is singular only at (0, b); the adjoint image (0, -b)
    # is resolvent for the pencil alone but not for the membership margin
    b = 1.5
    pair = qc.CommutingPair(np.array([[0.0]]), np.array([[b]]))
    assert qc.joint_resolvent_margin(pair, (0.0, b)) <= 1e-14
    assert qc.joint_resolvent_margin(pair, (0.0, -b)) > 0.1
    assert qc.joint_membership_margin(pair, (0.0, -b)) <= 1e-14
    assert qc.joint_membership_margin(pair, (0.0, b)) <= 1e-14


def test_block_pencil_equivalence(rng):
    threshold = 1e-10
    for trial in range(100):
        pair, (d1, d2) = random_commuting_pair(rng, 3)
        if trial % 4 == 0:
            z = (complex(d1[0]), complex(d2[0]))  # exactly singular
        else:
            z = (
                complex(rng.standard_normal(), rng.standard_normal()),
                complex(rng.standard_normal(), rng.standard_normal()),
            )
        scale = np.sqrt(joint_op._pair_scale(pair))
        m = qc.joint_resolvent_margin(pair, z)
        b = smallest_singular_value(qc.joint_block_pencil(pair, z)) / scale
        if m > 2 * threshold:
            assert b > 0.5 * threshold
        if m < 0.5 * threshold:
            assert b < 2 * threshold
        # the adjoint-invariant membership statement pairs both blocks with both pencils
        ms = qc.joint_membership_margin(pair, z)
        bs = min(
            b,
            smallest_singular_value(qc.joint_block_pencil(pair, qc.cvec_star(z)))
            / scale,
        )
        if ms > 2 * threshold:
            assert bs > 0.5 * threshold
        if ms < 0.5 * threshold:
            assert bs < 2 * threshold


# ---------------------------------------------------------------------------
# joint spectrum points


def test_joint_points_diagonal():
    pair = qc.CommutingPair(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    pts = qc.joint_spectrum_points(pair)
    assert len(pts) == 2
    assert abs(pts[0][0] - 1) + abs(pts[0][1] - 3) <= 1e-10
    assert abs(pts[1][0] - 2) + abs(pts[1][1] - 4) <= 1e-10


def test_joint_points_scalar_pair():
    pair = qc.CommutingPair(np.eye(3) * 2.0, np.eye(3) * -1.0)
    pts = qc.joint_spectrum_points(pair)
    assert len(pts) == 1
    assert abs(pts[0][0] - 2.0) + abs(pts[0][1] + 1.0) <= 1e-10


def test_joint_points_recover_construction(rng):
    for _ in range(20):
        pair, (d1, d2) = random_commuting_pair(rng, 4)
        pts = qc.joint_spectrum_points(pair)
        want = sorted(zip(d1, d2), key=lambda w: (w[0].real, w[1].real))
        got = sorted(pts, key=lambda w: (w[0].real, w[1].real))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g[0] - w[0]) + abs(g[1] - w[1]) <= 1e-8
        for p in pts:
            assert qc.joint_resolvent_margin(pair, p) <= 1e-8


def test_joint_points_complex_pair():
    pair = rotation_pair(1.0, 2.0, 0.5, -1.0)
    pts = qc.joint_spectrum_points(pair)
    assert len(pts) == 2
    vals = {(round(p[0].imag, 6), round(p[1].imag, 6)) for p in pts}
    assert vals == {(2.0, -1.0), (-2.0, 1.0)}


# ---------------------------------------------------------------------------
# surface calculus


def test_sphere_grid_validation():
    with pytest.raises(qc.InvalidArgumentError):
        qc.SphereGrid((0.0, 0.0), -1.0)
    with pytest.raises(qc.InvalidArgumentError):
        qc.SphereGrid((0.0, 0.0), 1.0, resolution=7)
    with pytest.raises(qc.InvalidArgumentError):
        qc.SphereGrid((0.0, 0.0), 1.0, resolution=2)


def test_constant_reproduction_scalar_pair():
    pair = qc.CommutingPair(np.array([[0.0]]), np.array([[0.0]]))
    grid = qc.SphereGrid((0.0, 0.0), 1.0, 16)
    one = qc.TwoVariablePolynomial([[1.0]])
    value = qc.martinelli_calculus(one, pair, grid)
    np.testing.assert_allclose(value, [[1.0]], atol=1e-12)


def test_monomials_reproduce_substitution(rng):
    pair, _ = random_commuting_pair(rng, 2)
    grid = qc.enclosing_sphere_grid(pair, resolution=32)
    cases = [
        ((0, 0), np.eye(2)),
        ((1, 0), pair.t1),
        ((0, 1), pair.t2),
        ((2, 0), pair.t1 @ pair.t1),
        ((1, 1), pair.t1 @ pair.t2),
    ]
    for (a, b), want in cases:
        got = qc.martinelli_calculus(qc.TwoVariablePolynomial.monomial(a, b), pair, grid)
        assert np.linalg.norm(got - want) <= 1e-4 * max(1.0, np.linalg.norm(want))


def test_complex_eigenvalue_pair(rng):
    pair = rotation_pair(0.7, 1.1, -0.4, 0.6)
    grid = qc.enclosing_sphere_grid(pair, resolution=48)
    got = qc.martinelli_calculus(qc.TwoVariablePolynomial.monomial(1, 1), pair, grid)
    want = pair.t1 @ pair.t2
    assert np.linalg.norm(got - want) <= 1e-6


def test_separable_function(rng):
    pair, _ = random_commuting_pair(rng, 2, scale=0.6)
    grid = qc.enclosing_sphere_grid(pair, resolution=48)
    f = qc.SeparableProduct(qc.Exp(), qc.Polynomial([1.0, 1.0]))
    got = qc.martinelli_calculus(f, pair, grid)
    # oracle by simultaneous diagonalization through the joint eigenvectors
    pts = qc.joint_spectrum_points(pair)
    import scipy.linalg

    want = scipy.linalg.expm(pair.t1) @ (np.eye(2) + pair.t2)
    assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))


def test_doubling_resolution_reduces_error(rng):
    pair, _ = random_commuting_pair(rng, 2)
    f = qc.TwoVariablePolynomial.monomial(1, 1)
    want = pair.t1 @ pair.t2
    grid = qc.enclosing_sphere_grid(pair, resolution=8)
    errs = []
    for g in (grid, grid.with_resolution(16)):
        errs.append(np.linalg.norm(qc.martinelli_calculus(f, pair, g, imag_tol=1.0) - want))
    assert errs[1] <= errs[0] / 4.0 or errs[1] <= 1e-10


def test_two_admissible_spheres_agree(rng):
    pair, _ = random_commuting_pair(rng, 2)
    f = qc.TwoVariablePolynomial.monomial(2, 0)
    g1 = qc.enclosing_sphere_grid(pair, resolution=48, margin=1.0)
    g2 = qc.enclosing_sphere_grid(pair, resolution=48, margin=1.8)
    a = qc.martinelli_calculus(f, pair, g1)
    b = qc.martinelli_calculus(f, pair, g2)
    assert np.linalg.norm(a - b) <= 2e-6 * max(1.0, np.linalg.norm(a))


def test_array_pencils_and_margins_match_scalar_calls(rng):
    pair, _ = random_commuting_pair(rng, 3)
    z1 = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    z2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    pencils = qc.joint_pencil(pair, (z1, z2))
    margins = qc.joint_resolvent_margin(pair, (z1, z2))
    assert pencils.shape == (2, 5, 3, 3)
    assert margins.shape == (2, 5)
    for i in range(2):
        for k in range(5):
            w = (complex(z1[i, k]), complex(z2[k]))
            np.testing.assert_allclose(pencils[i, k], qc.joint_pencil(pair, w), rtol=1e-15)
            assert abs(margins[i, k] - qc.joint_resolvent_margin(pair, w)) <= 1e-15 * max(
                1.0, margins[i, k]
            )
    assert isinstance(qc.joint_resolvent_margin(pair, (z1[0, 0], z2[0])), float)


def test_enclosure_sweep_matches_pointwise_loop(rng):
    pair, _ = random_commuting_pair(rng, 3)
    grid = qc.enclosing_sphere_grid(pair, resolution=16)
    c1, c2 = grid.center
    t_sq = pair.t1 @ pair.t1 + pair.t2 @ pair.t2
    scale = max(1.0, np.linalg.norm(pair.t1, 2) ** 2 + np.linalg.norm(pair.t2, 2) ** 2)
    want = np.inf
    count = 0
    for eta in np.arange(1, 8) * (np.pi / 16.0):
        for th1 in 2.0 * np.pi * np.arange(8) / 8:
            for th2 in 2.0 * np.pi * np.arange(8) / 8:
                z1 = c1 + grid.radius * np.cos(eta) * np.exp(1j * th1)
                z2 = c2 + grid.radius * np.sin(eta) * np.exp(1j * th2)
                pencil = (
                    t_sq
                    - 2.0 * z1.real * pair.t1
                    - 2.0 * z2.real * pair.t2
                    + (abs(z1) ** 2 + abs(z2) ** 2) * np.eye(3)
                )
                want = min(want, np.linalg.svd(pencil, compute_uv=False)[-1] / scale)
                count += 1
    assert count == 448
    got = joint_op._check_enclosure(pair, grid)
    assert abs(got - want) <= 1e-12 * want


def test_enclosure_sweep_rejects_singular_surface_without_spectrum(monkeypatch):
    # the pencil of this pair vanishes on the 2-sphere Re z = (c, 0),
    # |Im z| = c, which meets the unit sphere at the sweep node with
    # eta = pi/4, th1 = 0 and th2 = pi/2
    c = np.cos(np.pi / 4.0)
    pair = rotation_pair(c, 0.0, 0.0, c)
    grid = qc.SphereGrid((0.0, 0.0), 1.0, 16)
    f = qc.TwoVariablePolynomial([[1.0]])
    with pytest.raises(qc.GeometryError, match="reaches"):
        qc.martinelli_calculus(f, pair, grid)

    def no_points(*args, **kwargs):
        raise qc.NumericError("could not separate joint eigenvalues")

    monkeypatch.setattr(joint_op, "joint_spectrum_points", no_points)
    with pytest.raises(qc.GeometryError, match="nearly singular"):
        qc.martinelli_calculus(f, pair, grid)


def test_insufficient_enclosure_rejected():
    pair = qc.CommutingPair(np.diag([0.0, 4.0]), np.diag([0.0, 0.0]))
    grid = qc.SphereGrid((0.0, 0.0), 1.0, 16)
    with pytest.raises(qc.GeometryError):
        qc.martinelli_calculus(qc.TwoVariablePolynomial([[1.0]]), pair, grid)


def test_imaginary_residue_rejected(rng):
    pair, _ = random_commuting_pair(rng, 2)
    grid = qc.enclosing_sphere_grid(pair, resolution=16)
    f = qc.TwoVariablePolynomial([[0.0, 0.0], [1j, 0.0]])  # i * z1: breaks realness
    with pytest.raises(qc.AccuracyError):
        qc.martinelli_calculus(f, pair, grid, imag_tol=1e-6)


def test_block_pencil_matches_pair_matrix(rng):
    pair, _ = random_commuting_pair(rng, 3)
    n = pair.dim
    for _ in range(20):
        z1 = complex(rng.standard_normal(), rng.standard_normal())
        z2 = complex(rng.standard_normal(), rng.standard_normal())
        eye = np.eye(n, dtype=complex)
        q_block = np.block(
            [[z1 * eye, z2 * eye], [-z2.conjugate() * eye, z1.conjugate() * eye]]
        )
        np.testing.assert_allclose(
            qc.joint_block_pencil(pair, (z1, z2)),
            qc.pair_q_matrix(pair) - q_block,
            atol=1e-14,
        )


def test_surface_calculus_consistent_with_contour_calculus(rng):
    # a pair (T, 0) reduces the two-variable calculus of g(z1) to the
    # one-variable operator calculus of g
    for _ in range(5):
        pair, _ = random_commuting_pair(rng, 2)
        pair = qc.CommutingPair(pair.t1, np.zeros((2, 2)))
        f = qc.SeparableProduct(qc.Exp(), qc.Polynomial([1.0]))
        grid = qc.enclosing_sphere_grid(pair, resolution=48)
        got = qc.martinelli_calculus(f, pair, grid)
        want = qc.op_calculus(qc.MatrixCoefficientFunction.from_scalar(qc.Exp(), 2), pair.t1)
        assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))


def solve_twice_reference(f, pair, grid):
    """Complex surface sum by the per-node loop: two complex solves per node."""
    n = pair.dim
    c1, c2 = grid.center
    radius = grid.radius
    res = grid.resolution
    t1 = pair.t1.astype(complex)
    t2 = pair.t2.astype(complex)
    eye = np.eye(n)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(res)
    th = 2.0 * np.pi * np.arange(res) / res
    ee, a1, a2 = np.meshgrid((np.pi / 4.0) * (gl_nodes + 1.0), th, th, indexing="ij")
    ww = np.broadcast_to((np.pi / 4.0) * gl_weights[:, None, None], ee.shape).ravel()
    ww = ww * (2.0 * np.pi / res) ** 2
    ee, a1, a2 = ee.ravel(), a1.ravel(), a2.ravel()
    ce, se = np.cos(ee), np.sin(ee)
    u1, u2 = np.exp(1j * a1), np.exp(1j * a2)
    z1 = c1 + radius * ce * u1
    z2 = c2 + radius * se * u2
    acc = np.zeros((n, n), dtype=complex)
    for k in range(ee.size):
        pencil = qc.joint_pencil(pair, (z1[k], z2[k]))
        rhs = (z1[k].conjugate() * eye - t1) * (u1[k] * se[k] * ce[k] ** 2) + (
            z2[k].conjugate() * eye - t2
        ) * (u2[k] * se[k] ** 2 * ce[k])
        rhs = rhs * (complex(f(z1[k], z2[k])) * ww[k])
        acc += np.linalg.solve(pencil, np.linalg.solve(pencil, rhs))
    return acc * (radius**3 / (2.0 * np.pi**2))


def rotation_block_pair_3x3(rng):
    """Commuting 3x3 pair ``S D S^-1`` whose ``D`` has a 2x2 rotation block."""
    d1 = np.zeros((3, 3))
    d2 = np.zeros((3, 3))
    d1[:2, :2] = [[0.3, 0.5], [-0.5, 0.3]]
    d2[:2, :2] = [[-0.5, 0.4], [-0.4, -0.5]]
    d1[2, 2], d2[2, 2] = 0.4, 0.9
    S = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    inv = np.linalg.inv(S)
    return qc.CommutingPair(S @ d1 @ inv, S @ d2 @ inv)


@pytest.mark.parametrize("res", [8, 16])
def test_regrouped_quadrature_matches_solve_twice_reference(rng, res):
    pair = rotation_block_pair_3x3(rng)
    grid = qc.enclosing_sphere_grid(pair, resolution=res)
    symmetric = qc.SeparableProduct(qc.Exp(), qc.Polynomial([1.0, 0.5]))
    skewed = qc.TwoVariablePolynomial([[0.0, 0.0, 1.0], [1j, 0.0, 0.0]])  # i z1 + z2^2
    for f, imag_tol in ((symmetric, 1e-6), (skewed, 1.0)):
        want = solve_twice_reference(f, pair, grid)
        got, diag = qc.martinelli_calculus(
            f, pair, grid, imag_tol=imag_tol, return_diagnostics=True
        )
        scale = max(1.0, np.linalg.norm(want.real))
        want_defect = np.linalg.norm(want.imag)
        assert diag["nodes"] == res**3
        assert np.linalg.norm(got - want.real) <= 1e-12 * np.linalg.norm(want.real)
        # the defect is measured against the same scale as the imaginary-residue check
        assert abs(diag["imag_defect"] - want_defect) <= 1e-12 * max(want_defect, scale)
    # the last f, the skewed one, leaves a residue well above rounding
    assert want_defect > 1e-3 * scale


@pytest.mark.parametrize("rows_per_chunk", [1, 3])
def test_chunked_quadrature_matches_one_chunk(rng, monkeypatch, rows_per_chunk):
    pair = rotation_block_pair_3x3(rng)
    res = 16
    grid = qc.enclosing_sphere_grid(pair, resolution=res)
    f = qc.SeparableProduct(qc.Exp(), qc.Polynomial([1.0, 0.5]))
    assert joint_op._SURFACE_CHUNK >= res**3
    whole = qc.martinelli_calculus(f, pair, grid)
    monkeypatch.setattr(joint_op, "_SURFACE_CHUNK", rows_per_chunk * res * res)
    chunked = qc.martinelli_calculus(f, pair, grid)
    assert np.linalg.norm(chunked - whole) <= 1e-14 * np.linalg.norm(whole)


@pytest.mark.parametrize("with_spectrum", [True, False])
def test_jordan_block_pair_reproduces_substitution(monkeypatch, with_spectrum):
    t1 = np.array([[0.4, 1.0], [0.0, 0.4]])
    pair = qc.CommutingPair(t1, t1 @ t1)
    grid = qc.SphereGrid((0.4, 0.16), 1.5, 32)
    if not with_spectrum:
        # enclosure then rests on the 448-point singular-value sweep alone
        def no_points(*args, **kwargs):
            raise qc.NumericError("could not separate joint eigenvalues")

        monkeypatch.setattr(joint_op, "joint_spectrum_points", no_points)
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
        want = np.linalg.matrix_power(pair.t1, a) @ np.linalg.matrix_power(pair.t2, b)
        got = qc.martinelli_calculus(qc.TwoVariablePolynomial.monomial(a, b), pair, grid)
        assert np.linalg.norm(got - want) <= 1e-4 * max(1.0, np.linalg.norm(want))


def test_pair_keeps_read_only_copies_and_its_spectrum(monkeypatch):
    t1 = np.diag([1.0, 2.0])
    pair = qc.CommutingPair(t1, np.diag([3.0, 4.0]))
    t1[0, 0] = 5.0
    assert pair.t1[0, 0] == 1.0
    with pytest.raises(ValueError):
        pair.t2[0, 0] = 0.0

    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    first = qc.joint_spectrum_points(pair)
    first.clear()
    assert qc.joint_spectrum_points(pair) == qc.joint_spectrum_points(pair)
    assert len(qc.joint_spectrum_points(pair)) == 2
    assert len(calls) == 1


def test_pairs_compare_and_hash_by_identity():
    pair = qc.CommutingPair(np.eye(2), np.eye(2))
    twin = qc.CommutingPair(np.eye(2), np.eye(2))
    assert pair == pair
    assert not pair != pair
    assert (pair == twin) is False
    assert pair != twin
    assert hash(pair) == hash(pair) != hash(twin)
    seen = {pair: "first", twin: "second"}
    assert seen[pair] == "first" and seen[twin] == "second"
