"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are fixed here, not configurable.
"""

import math
import time
from contextlib import contextmanager
from functools import partial

import numpy as np

import quatcalc as qc
from quatcalc import I, J, K, L, joint_op, real_op

from conftest import random_commuting_pair, random_hpoly, random_quaternion, surface_value


@contextmanager
def criterion(num, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:2d} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"\ncriterion {num:2d} [{label}]: PASS ({elapsed:.1f}s)")


def _batch_quaternion_matrices(rng, count, scale=1.0):
    x = scale * rng.standard_normal((count, 4))
    z1 = x[:, 0] + 1j * x[:, 1]
    z2 = x[:, 2] + 1j * x[:, 3]
    mats = np.empty((count, 2, 2), dtype=complex)
    mats[:, 0, 0] = z1
    mats[:, 0, 1] = z2
    mats[:, 1, 0] = -z2.conj()
    mats[:, 1, 1] = z1.conj()
    return z1, z2, mats


def _op_norms(mats):
    return np.linalg.norm(mats, ord=2, axis=(-2, -1))


def test_criterion_01_algebra_suite():
    with criterion(1, "algebra suite, 1e4 samples"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        n = 10_000
        z1, z2, mats = _batch_quaternion_matrices(rng, n, scale=2.0)
        norms_sq = np.abs(z1) ** 2 + np.abs(z2) ** 2
        scale = np.maximum(1.0, norms_sq)

        stars = np.empty_like(mats)
        stars[:, 0, 0] = z1.conj()
        stars[:, 0, 1] = -z2
        stars[:, 1, 0] = z2.conj()
        stars[:, 1, 1] = z1
        prod = mats @ stars
        defect = prod - norms_sq[:, None, None] * np.eye(2)
        assert np.max(_op_norms(defect) / scale) <= 1e-12

        assert np.max(np.abs(_op_norms(mats) - np.sqrt(norms_sq)) / np.sqrt(scale)) <= 1e-12

        # skew conjugation on general 2x2 matrices
        a = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        b = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        sk = qc.skew_conjugate
        assert np.array_equal(sk(sk(a)), a)
        mult_defect = _op_norms(sk(a @ b) - sk(a) @ sk(b))
        assert np.max(mult_defect / np.maximum(1.0, _op_norms(a @ b))) <= 1e-12
        assert np.max(np.abs(_op_norms(sk(a)) - _op_norms(a)) / np.maximum(1.0, _op_norms(a))) <= 1e-12
        # quaternion matrices are exactly the fixed points
        assert np.array_equal(sk(mats), mats)

        assert time.perf_counter() - started < 5.0


def test_criterion_02_spectrum_suite():
    with criterion(2, "spectrum and eigenvector identities, 1e4 samples"):
        started = time.perf_counter()
        rng = np.random.default_rng(202)
        for k in range(10_000):
            if k % 10 == 8:
                q = qc.Quaternion(complex(*rng.standard_normal(2)), 0.0)  # z2 = 0 branch
            elif k % 10 == 9:
                q = qc.Quaternion(rng.standard_normal(), 0.0)  # real branch
            else:
                q = random_quaternion(rng, 2.0)
            sp = qc.spectrum(q)
            z1, z2 = q.coords
            scale = max(1.0, q.norm() ** 2)
            for s in (sp.s_plus, sp.s_minus):
                assert abs(s * s - 2 * s * z1.real + abs(z1) ** 2 + abs(z2) ** 2) <= 1e-10 * scale
            nu_p, nu_m = sp.nu_plus, sp.nu_minus
            assert abs(abs(nu_m[0]) ** 2 - abs(nu_p[1]) ** 2) <= 1e-12
            assert abs(abs(nu_m[1]) ** 2 - abs(nu_p[0]) ** 2) <= 1e-12
            assert abs(nu_m[0] * nu_m[1].conjugate() + nu_p[0] * nu_p[1].conjugate()) <= 1e-12

            zeta = complex(rng.standard_normal(), rng.standard_normal())
            u = complex(rng.standard_normal(), rng.standard_normal())
            if abs(u) > abs(zeta.imag):
                u *= rng.uniform() * abs(zeta.imag) / abs(u)
            r = qc.quaternions_with_spectrum(zeta, u)
            want = complex(zeta.real, abs(zeta.imag))
            assert abs(qc.spectrum(r).s_plus - want) <= 1e-10 * max(1.0, abs(zeta))
        assert time.perf_counter() - started < 5.0


def _random_stem(rng):
    if rng.uniform() < 0.5:
        return random_hpoly(rng, int(rng.integers(0, 6)))

    def poly(deg):
        return qc.Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))

    return qc.PairStem(poly(int(rng.integers(0, 5))), poly(int(rng.integers(0, 5))))


def test_criterion_03_quaternion_valued_criterion():
    with criterion(3, "stem criterion, both directions"):
        started = time.perf_counter()
        rng = np.random.default_rng(303)
        for _ in range(100):
            F = _random_stem(rng)
            for _ in range(100):
                q = random_quaternion(rng, 2.0)
                assert qc.dist_to_quaternions(qc.eval_spectral(F, q)) <= 1e-10

        produced = 0
        attempts = 0
        while produced < 20:
            attempts += 1
            assert attempts < 200
            entries = [
                [qc.Polynomial(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(2)]
                for _ in range(2)
            ]
            F = qc.EntrywiseFunction(entries)
            report = qc.verify_stem(F)
            if report.max_defect < 1e-2:
                continue
            produced += 1
            witness = report.witness
            if abs(witness.imag) < 0.05:
                witness = complex(witness.real, 0.05)
            worst = 0.0
            for _ in range(200):
                u = complex(rng.standard_normal(), rng.standard_normal())
                if abs(u) > abs(witness.imag):
                    u *= rng.uniform() * abs(witness.imag) / abs(u)
                q = qc.quaternions_with_spectrum(witness, u)
                worst = max(worst, qc.dist_to_quaternions(qc.eval_spectral(F, q)))
                if worst >= 1e-4:
                    break
            assert worst >= 1e-4
        assert time.perf_counter() - started < 30.0


def test_criterion_04_contour_matches_spectral(quadrature_nodes):
    with criterion(4, "contour versus spectral calculus"):
        started = time.perf_counter()
        rng = np.random.default_rng(404)
        quadrature_nodes(1024, 2**18)
        stems = [
            random_hpoly(rng, 6),
            random_hpoly(rng, 4),
            qc.ScalarStem(qc.Exp()),
            qc.ScalarStem(qc.Sin()),
        ]
        per_stem = 100
        for F in stems:
            for _ in range(per_stem):
                q = random_quaternion(rng)
                sp = qc.spectrum(q)
                gamma = qc.build_contour([sp.s_plus, sp.s_minus], 0.4)
                got, diag = qc.cauchy_transform(F, q, gamma, 1e-10)
                assert diag.nodes_per_circle <= 4096
                want = qc.eval_spectral(F, q)
                assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
        assert time.perf_counter() - started < 60.0


def test_criterion_05_polynomial_and_derivative_forms(quadrature_nodes):
    with criterion(5, "polynomial reproduction and derivative formula"):
        rng = np.random.default_rng(505)
        quadrature_nodes(256, 2**16)
        for _ in range(25):
            P = random_hpoly(rng, int(rng.integers(1, 7)))
            q = random_quaternion(rng)
            sp = qc.spectrum(q)
            gamma = qc.build_contour([sp.s_plus, sp.s_minus], 0.4)

            want = qc.hpoly_eval(P.coeffs, q).matrix()
            got, _ = qc.cauchy_transform(P, q, gamma, 1e-12)
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

            want_d = qc.hpoly_eval(
                [a * float(k) for k, a in enumerate(P.coeffs) if k >= 1], q
            ).matrix()
            got_d, _ = qc.cauchy_transform(P, q, gamma, 1e-12, order=1)
            assert np.linalg.norm(got_d - want_d) <= 1e-10 * max(1.0, np.linalg.norm(want_d))


def test_criterion_06_derivative_bounds():
    with criterion(6, "derivative bounds from disk geometry"):
        rng = np.random.default_rng(606)
        F = qc.ScalarStem(qc.Exp())
        # case 1: concentric disks in the upper half plane
        for center_im in (1.2, 2.0):
            for r_inner, r_mid, r_outer in ((0.2, 0.5, 0.9), (0.25, 0.45, 0.8)):
                assert center_im - r_outer > 0
                sup_f = math.exp(r_outer)  # max Re on the outer circle (center on iR)
                for n in range(5):
                    bound = qc.cauchy_estimate(
                        n, r_mid, r_outer - r_mid, r_mid - r_inner, sup_f, True
                    )
                    for _ in range(10):
                        zeta = complex(0, center_im) + r_inner * 0.95 * math.sqrt(
                            rng.uniform()
                        ) * np.exp(2j * np.pi * rng.uniform())
                        u = complex(rng.standard_normal(), rng.standard_normal())
                        if abs(u) > abs(zeta.imag):
                            u *= rng.uniform() * abs(zeta.imag) / abs(u)
                        q = qc.quaternions_with_spectrum(zeta, u)
                        assert qc.mat_norm(qc.eval_spectral(F, q, n)) <= bound
        # case 2: real-centered concentric disks
        for center in (0.0, 0.5):
            r_inner, r_mid, r_outer = 0.2, 0.5, 0.9
            sup_f = math.exp(center + r_outer)
            for n in range(5):
                bound = qc.cauchy_estimate(
                    n, r_mid, r_outer - r_mid, r_mid - r_inner, sup_f, False
                )
                for _ in range(10):
                    zeta = center + r_inner * 0.95 * math.sqrt(rng.uniform()) * np.exp(
                        2j * np.pi * rng.uniform()
                    )
                    u = complex(rng.standard_normal(), rng.standard_normal())
                    if abs(u) > abs(zeta.imag):
                        u *= rng.uniform() * abs(zeta.imag) / abs(u)
                    q = qc.quaternions_with_spectrum(zeta, u)
                    assert qc.mat_norm(qc.eval_spectral(F, q, n)) <= bound


def test_criterion_07_taylor_recomposition():
    with criterion(7, "local series recomposition"):
        F = qc.ScalarStem(qc.Exp())
        qs = [
            qc.Quaternion(0, 0),
            J * 0.1,
            K * 0.3,
            I * 0.2 + L * 0.1,
            qc.make_quaternion(0.1, -0.2, 0.15, 0.05),
        ]
        lams = [0.2, -0.4, 0.3 + 0.5j, 1.0]
        for q in qs:
            for lam in lams:
                got = qc.taylor_recompose(F, q, lam, terms=40)
                want = np.exp(lam) * np.eye(2)
                assert np.linalg.norm(got - want) <= 1e-8


def test_criterion_08_slice_regularity():
    with criterion(8, "slice regularity of calculus values"):
        started = time.perf_counter()
        rng = np.random.default_rng(808)
        domain = qc.SymmetricDomain.disk(0.0, 1.5)
        grid = qc.SliceSampleGrid.random(domain, 1000, 10, seed=88)
        functions = [
            partial(qc.eval_spectral, random_hpoly(rng, 3, scale=0.7)),
            partial(qc.eval_spectral, random_hpoly(rng, 5, scale=0.5)),
            partial(qc.eval_spectral, qc.ScalarStem(qc.Exp())),
            partial(qc.eval_spectral, qc.ScalarStem(qc.Sin())),
            partial(
                qc.eval_spectral,
                qc.PairStem(qc.Polynomial([0.4, 1j, 1.0]), qc.Polynomial([0.2, -0.5j])),
            ),
        ]
        assert len(grid.points) == 1000
        for G in functions:
            report = qc.slice_regularity_report(G, grid, tol=1e-5)
            assert report.passed, report.max_defect

        star_report = qc.slice_regularity_report(
            qc.quaternionwise(lambda q: q.star()), grid, tol=1e-5
        )
        assert abs(star_report.max_defect - 1.0) <= 1e-3
        assert time.perf_counter() - started < 30.0


def test_criterion_09_rotation_block_closed_form():
    with criterion(9, "closed form on rotation blocks"):
        rng = np.random.default_rng(909)
        a = np.array([[1, -1j], [1j, 1]], dtype=complex)
        b = np.array([[1, 1j], [-1j, 1]], dtype=complex)
        cases = [
            (qc.Polynomial([0, 0, 1]), lambda z: z * z),
            (qc.Exp(), np.exp),
            (qc.Sin(), np.sin),
        ]
        for _ in range(50):
            u, v = rng.standard_normal(2)
            T = np.array([[u, v], [-v, u]])
            for scalar, fn in cases:
                F = qc.MatrixCoefficientFunction.from_scalar(scalar, 2)
                got, _, _ = qc.op_calculus(F, T)
                want = (0.5 * fn(u + 1j * v) * a + 0.5 * fn(u - 1j * v) * b).real
                assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_criterion_10_operator_spectra():
    with criterion(10, "operator spectra against eigen oracles"):
        rng = np.random.default_rng(1010)
        for _ in range(20):
            av, bv = rng.standard_normal(2)
            rep = qc.complex_spectrum(np.diag([av, bv]))
            got = sorted(v.real for v in rep.eigenvalues)
            assert np.allclose(got, sorted([av, bv]), atol=1e-8)

            u, v = rng.standard_normal(2)
            rep = qc.complex_spectrum(np.array([[u, v], [-v, u]]))
            want = sorted([u + 1j * abs(v), u - 1j * abs(v)], key=lambda w: w.imag)
            got = sorted(rep.eigenvalues, key=lambda w: w.imag)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8

        rep = qc.complex_spectrum(qc.discrete_mult_op([J, K * 2.0]))
        want = [-2j, -1j, 1j, 2j]
        got = sorted(set(np.round(rep.eigenvalues, 9)), key=lambda w: w.imag)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8
        assert all(m == 2 for _, m in rep.pairs)


def test_criterion_11_block_pencil_equivalences():
    with criterion(11, "block operator equivalences"):
        rng = np.random.default_rng(1111)
        threshold = 1e-10

        for trial in range(500):
            n = int(rng.integers(2, 5))
            T = rng.standard_normal((n, n))
            if trial % 5 == 0:
                lam = complex(np.linalg.eigvals(T)[0])
                q = qc.quaternions_with_spectrum(lam, 0.5 * abs(lam.imag))
            else:
                q = random_quaternion(rng, 2.0)
            scale = max(1.0, qc.mat_norm(T))
            m = qc.q_resolvent_margin(T, q)
            b = min(
                real_op.smallest_singular_value(qc.q_block_pencil(T, q)),
                real_op.smallest_singular_value(qc.q_block_pencil(T, q.star())),
            ) / scale
            if m > 2 * threshold:
                assert b > 0.5 * threshold
            if m < 0.5 * threshold:
                assert b < 2 * threshold

        for trial in range(500):
            pair, (d1, d2) = random_commuting_pair(rng, int(rng.integers(2, 5)))
            if trial % 5 == 0:
                z = (complex(d1[0]), complex(d2[0]))
            else:
                z = (
                    complex(rng.standard_normal(), rng.standard_normal()),
                    complex(rng.standard_normal(), rng.standard_normal()),
                )
            scale = math.sqrt(joint_op._pair_scale(pair))
            m = qc.joint_resolvent_margin(pair, z)
            b = real_op.smallest_singular_value(qc.joint_block_pencil(pair, z)) / scale
            if m > 2 * threshold:
                assert b > 0.5 * threshold
            if m < 0.5 * threshold:
                assert b < 2 * threshold
            ms = qc.joint_membership_margin(pair, z)
            bs = min(
                b,
                real_op.smallest_singular_value(
                    qc.joint_block_pencil(pair, qc.cvec_star(z))
                )
                / scale,
            )
            if ms > 2 * threshold:
                assert bs > 0.5 * threshold
            if ms < 0.5 * threshold:
                assert bs < 2 * threshold


def test_criterion_12_martinelli_reproduction():
    with criterion(12, "surface calculus reproduces substitution"):
        suite_start = time.perf_counter()
        rng = np.random.default_rng(1212)
        monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
        for case in range(20):
            case_start = time.perf_counter()
            pair, _ = random_commuting_pair(rng, 2)
            grid = qc.enclosing_sphere_grid(pair, resolution=64)
            for a, b in monomials:
                f = qc.TwoVariablePolynomial.monomial(a, b)
                want = np.linalg.matrix_power(pair.t1, a) @ np.linalg.matrix_power(pair.t2, b)
                got, _ = qc.martinelli_calculus(f, pair, grid)
                assert np.linalg.norm(got - want) <= 1e-4 * max(1.0, np.linalg.norm(want))
            assert time.perf_counter() - case_start < 60.0

        # doubling the resolution gains at least 4x while above the floor
        for _ in range(3):
            pair, _ = random_commuting_pair(rng, 2)
            f = qc.TwoVariablePolynomial.monomial(1, 1)
            want = pair.t1 @ pair.t2
            grid = qc.enclosing_sphere_grid(pair, resolution=8)
            errs = []
            for g in (grid, grid.with_resolution(16)):
                got, _ = surface_value(f, pair, g)
                errs.append(np.linalg.norm(got - want))
            assert errs[1] <= errs[0] / 4.0 or errs[1] <= 1e-10
        assert time.perf_counter() - suite_start < 1800.0


def test_criterion_13_flat_invariance_family():
    with criterion(13, "flat invariance across the operator family"):
        rng = np.random.default_rng(1313)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            T = rng.standard_normal((n, n))
            kind = trial % 3
            if kind == 0:
                mats = [rng.standard_normal((n, n)) for _ in range(int(rng.integers(1, 5)))]
                F = qc.MatrixCoefficientFunction.from_polynomial(mats)
            elif kind == 1:
                F = qc.MatrixCoefficientFunction([(rng.standard_normal((n, n)), qc.Exp())])
            else:
                F = qc.MatrixCoefficientFunction(
                    [
                        (rng.standard_normal((n, n)), qc.Sin()),
                        (rng.standard_normal((n, n)), qc.Polynomial(rng.standard_normal(3))),
                    ]
                )
            value, _, flat_defect = qc.op_calculus(F, T)
            assert flat_defect <= 1e-8 * max(1.0, float(np.linalg.norm(value)))
