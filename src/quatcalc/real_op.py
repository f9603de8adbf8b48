"""Quaternionic spectrum and conjugation-compatible calculus for real matrices.

A real n x n matrix T acts on the complexification entrywise; the flat
conjugation of a complex operator is entrywise conjugation in the real
basis.  Membership of a quaternion q in the resolvent is decided by the
invertibility of the real pencil ``T^2 - 2 Re(q) T + norm(q)^2``, reported
as a normalized smallest singular value so callers pick their own
thresholds.  The analytic calculus integrates ``F(z)(z - T)^-1`` over
conjugate-symmetric circles and restricts to the real subspace after a
flat-invariance check.  By default the circles keep a clearance of
``max(1.0, 0.05 * spectral radius)`` from the spectrum, so F must be
analytic that far beyond it; the closed scalar family is entire.  It
solves ``(z - T)^-1`` only on the upper half of a real-centered circle
(the conjugates give the lower half, as T is real) and contracts the
resolvents with the scalar weights of F's terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour_calc import _check_enclosed, _class_levels, _trapezoid_doubling, build_contour
from .errors import (
    ContractViolationError,
    InvalidArgumentError,
    NumericError,
)
from .func_model import AnalyticScalar, Polynomial
from .quat_core import Quaternion, left_mult_matrix, mat_norm, spectrum

#: Conjugate-pairing (``complex_spectrum``) and flat-invariance (``op_calculus``)
#: tolerances, relative to the spectral radius and to the value's norm.
_PAIR_REL_TOL = 1e-8
_FLAT_REL_TOL = 1e-8

#: Least clearance of the default contour.  The trapezoid error on a circle
#: of radius ``rho + delta`` about a cluster of reach ``rho`` falls like
#: ``(rho / (rho + delta))^N``, so at ``delta >= rho`` it halves per node;
#: and about a k-fold eigenvalue the resolvent stays ``O(delta^-k)``.
_MIN_CLEARANCE = 1.0


def as_real_operator(T):
    """Validate and return a finite real square matrix as float array."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise InvalidArgumentError("expected a square matrix")
    if not np.all(np.isfinite(T)):
        raise InvalidArgumentError("non-finite matrix entry")
    return T


def complexify(T):
    """Extension of a real matrix to the complexified space (same entries)."""
    return as_real_operator(T).astype(complex)


def flat(S):
    """Conjugation of a complex operator by the canonical real-basis conjugation.

    In the standard basis this is entrywise conjugation; real operators are
    exactly its fixed points.
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidArgumentError("expected a square matrix")
    return S.conj()


def smallest_singular_value(M):
    return float(np.linalg.svd(np.asarray(M), compute_uv=False)[-1])


def q_resolvent_margin(T, q):
    """Normalized smallest singular value of ``T^2 - 2 Re(q) T + norm(q)^2 I``.

    Positive margins certify membership of ``q`` in the quaternionic
    resolvent; the value depends on ``q`` only through its spectrum.
    """
    T = as_real_operator(T)
    if not isinstance(q, Quaternion):
        raise InvalidArgumentError("expected a Quaternion")
    n = T.shape[0]
    pencil = T @ T - (2.0 * q.re) * T + (q.norm() ** 2) * np.eye(n)
    return smallest_singular_value(pencil) / max(1.0, mat_norm(T) ** 2)


def q_block_pencil(T, q):
    """The 2n x 2n block operator ``diag(T_C, T_C) - Q(z)`` for ``q = Q(z)``."""
    T = complexify(T)
    n = T.shape[0]
    eye = np.eye(n, dtype=complex)
    z1, z2 = q.coords
    return np.block(
        [[T - z1 * eye, -z2 * eye], [z2.conjugate() * eye, T - z1.conjugate() * eye]]
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the complexified operator with conjugate pairing.

    ``pairs`` lists ``(representative, multiplicity)`` with representatives
    in the closed upper half-plane; the circularization of the listed set is
    the quaternionic spectrum.
    """

    eigenvalues: np.ndarray
    pairs: tuple

    def contains_quaternion_spectrum(self, q, tol=1e-8):
        """Whether both eigenvalues of ``q`` match reported eigenvalues.

        This is the eigenvalue route to quaternionic spectrum membership;
        it agrees with a small ``q_resolvent_margin`` up to tolerance bands.
        """
        sp = spectrum(q)
        return all(
            float(np.min(np.abs(self.eigenvalues - s))) <= tol
            for s in (sp.s_plus, sp.s_minus)
        )


def _conjugate_pairs(eigs, tol):
    real = sorted(float(v.real) for v in eigs if abs(v.imag) <= tol)
    upper = sorted((v for v in eigs if v.imag > tol), key=lambda v: (v.real, v.imag))
    lower = sorted((v for v in eigs if v.imag < -tol), key=lambda v: (v.real, -v.imag))
    if len(upper) != len(lower):
        raise NumericError("complex eigenvalues failed to pair under conjugation")
    pairs = []
    for u, w in zip(upper, lower):
        if abs(u - w.conjugate()) > 2.0 * tol:
            raise NumericError("complex eigenvalues failed to pair under conjugation")
        pairs.append(complex((u.real + w.real) / 2.0, (u.imag - w.imag) / 2.0))
    reps = [complex(r) for r in real] + pairs
    # a cluster's members need not be neighbours in this order: another
    # eigenvalue's real part can fall within the cluster's rounding spread
    out = []
    for r in sorted(reps, key=lambda v: (v.real, v.imag)):
        near = next((k for k, (v, _) in enumerate(out) if abs(v - r) <= tol), None)
        if near is None:
            out.append((r, 1))
        else:
            out[near] = (out[near][0], out[near][1] + 1)
    return tuple(out)


def complex_spectrum(T):
    """Eigenvalues of the complexified operator, conjugate-paired.

    The spectrum is conjugate symmetric for real input; pairing failures
    beyond 1e-8 (relative to the spectral radius) raise NumericError.
    """
    T = as_real_operator(T)
    try:
        eigs = np.linalg.eigvals(T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed: {exc}") from exc
    eigs = np.sort_complex(eigs)
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
    return SpectrumReport(eigs, _conjugate_pairs(eigs, _PAIR_REL_TOL * scale))


# ---------------------------------------------------------------------------
# operator-valued functions with flat symmetry


class MatrixCoefficientFunction:
    """Analytic map ``F(z) = sum_j g_j(z) A_j`` into complex n x n matrices,
    with real coefficients ``A_j`` and symmetric scalars ``g_j``, so that
    ``F(conj z) = flat(F(z))``.

    Every flat-symmetric F has this form: the unit matrices ``E_ij`` with
    entries ``f_ij`` (``func_model.Opaque`` for a caller's callback).
    """

    def __init__(self, terms):
        terms = [(as_real_operator(A), g) for A, g in terms]
        if not terms:
            raise InvalidArgumentError("need at least one term")
        n = terms[0][0].shape[0]
        for A, g in terms:
            if A.shape[0] != n:
                raise InvalidArgumentError("coefficient dimensions differ")
            if not isinstance(g, AnalyticScalar) or not g.symmetric:
                raise ContractViolationError("scalar factors must be symmetric")
        self.terms = terms
        self.coeffs = np.array([A for A, _ in terms])
        self.dim = n

    @classmethod
    def from_polynomial(cls, coeff_matrices):
        """Polynomial ``sum A_k z^k`` with real matrix coefficients."""
        terms = []
        for k, A in enumerate(coeff_matrices):
            mono = np.zeros(k + 1)
            mono[k] = 1.0
            terms.append((A, Polynomial(mono)))
        return cls(terms)

    @classmethod
    def from_scalar(cls, f, dim):
        """Scalar symmetric function acting as ``f * identity``."""
        return cls([(np.eye(dim), f)])

    def __call__(self, z):
        return np.tensordot(self.weights(np.asarray(z, dtype=complex)), self.coeffs, axes=(0, 0))

    def weights(self, z):
        """Complex weights ``g`` of shape ``(J,) + z.shape`` with
        ``F(z) = sum_j g[j] A[j]`` for ``A = self.coeffs`` of shape ``(J, n, n)``."""
        return np.array(
            [np.broadcast_to(np.asarray(g(z), dtype=complex), z.shape) for _, g in self.terms]
        )


def operator_contour(eigenvalues):
    """Real-centered circles covering the eigenvalue clusters with clearance
    ``max(1.0, 0.05 * spectral radius)``.

    The disks these circles bound reach that far past the spectrum, so a
    function integrated on them must be analytic there.  The closed scalar
    family (polynomials, exp, sin, cos, and their affine changes, sums and
    products) is entire, as a stem with ``domain is None`` is taken to be;
    for any other function pass ``op_calculus(..., contour=...)``.
    """
    eigs = [complex(v) for v in eigenvalues]
    clearance = max(_MIN_CLEARANCE, 0.05 * max(abs(v) for v in eigs))
    return build_contour(eigs, clearance, real_centers=True)


def op_calculus(F, T, tol=1e-10, contour=None):
    """Analytic calculus ``F(T)`` for a flat-symmetric operator function.

    Integrates ``F(z)(z - T_C)^-1`` with node doubling to the relative
    tolerance ``tol`` over ``contour``, or by default over
    ``operator_contour``: real-centered circles at least 1.0 (and 5% of the
    spectral radius) clear of every eigenvalue, on whose disks F must be
    analytic.  Either contour must hold every eigenvalue strictly inside
    (GeometryError otherwise).  It checks flat invariance of the value to
    1e-8 times its scale, and returns the real restriction, its
    QuadratureDiagnostics and the flat defect.  A stall raises
    AccuracyError with the unchecked complex value on it; a non-finite
    quadrature total raises NumericError.

    With ``F = sum_j g_j A_j`` a level's node sum on a circle is
    ``sum_j A_j S_j``, ``S_j = sum_k w_k g_j(z_k) (z_k - T)^-1``.  F is
    evaluated at every node; the resolvent is solved at the nodes with angles
    in ``[0, pi]`` of a real-centered circle, whose mirrors ``conj z`` take
    its conjugate, and at every node of any other circle.  Each batch of
    the doubling driver takes one solve per circle, and each level of the
    batch one real matmul over its own nodes.
    """
    T = as_real_operator(T)
    n = T.shape[0]
    if F.dim != n:
        raise InvalidArgumentError(f"operator function dimension {F.dim} does not match matrix {n}")
    eigs = complex_spectrum(T).eigenvalues
    gamma = operator_contour(eigs) if contour is None else contour
    _check_enclosed(eigs, gamma.circles)

    eye = np.eye(n)
    # ||A_j R_k|| <= sqrt(||A_j||_1 ||A_j||_inf) ||R_k||: a bound on each
    # node's term that costs no product
    mags = np.abs(F.coeffs)
    a_norm = np.sqrt(mags.sum(axis=1).max(axis=1) * mags.sum(axis=2).max(axis=1))

    def circle_levels(circle, nodes, offset, levels):
        # R(conj z) = conj R(z) for R(z) = (z - T)^-1: the nodes with angles
        # in (pi, 2 pi) of a real-centered circle are the exact conjugates of
        # solved nodes, of the same level, and take no solve of their own
        folded = circle.center.imag == 0.0
        k = np.arange(nodes // 2 + int(offset == 0.0) if folded else nodes)
        level = _class_levels(levels)[k % 2 ** (levels - 1)]
        # each level's nodes contiguous, so that its contraction reads views
        k = k[np.argsort(level, kind="stable")]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(level))))
        solved = k.size
        unit = np.exp(2j * np.pi * (k + offset) / nodes)
        z, w = circle.center + circle.radius * unit, circle.radius * unit
        mirrored = folded & (k + offset > 0) & (2 * (k + offset) < nodes)
        g = F.weights(np.concatenate((z, z[mirrored].conj())))
        a = g[:, :solved] * w
        b = np.zeros_like(a)
        b[:, mirrored] = g[:, solved:] * w[mirrored].conj()
        pencil = np.repeat(-T[None].astype(complex), solved, axis=0)
        pencil.reshape(solved, -1)[:, :: n + 1] += z[:, None]
        R = np.linalg.solve(pencil, eye[None]).reshape(solved, n * n).view(float)
        # S_j = sum_k (a_jk R_k + b_jk conj R_k) = (a + b)_j Re R + i (a - b)_j Im R
        # by one real matmul over each level's nodes; the level's sum is
        # sum_j A_j S_j
        plus, minus = a + b, a - b
        coef = np.concatenate((plus.real, plus.imag, minus.real, minus.imag))
        weight = (np.abs(a) + np.abs(b)).T @ a_norm * np.sqrt(np.einsum("ij,ij->i", R, R))
        out = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pr, pi, mr, mi = (coef[:, lo:hi] @ R[lo:hi]).reshape(4, -1, n, n, 2)
            S = pr[..., 0] - mi[..., 1] + 1j * (pi[..., 0] + mr[..., 1])
            total = np.tensordot(F.coeffs, S, axes=([0, 2], [0, 1]))
            out.append((total, float(weight[lo:hi].sum())))
        return out

    def level_sums(nodes, offset, levels):
        per_circle = [circle_levels(c, nodes, offset, levels) for c in gamma.circles]
        return [(sum(s for s, _ in lv), sum(m for _, m in lv)) for lv in zip(*per_circle)]

    value, diag = _trapezoid_doubling(level_sums, tol)
    scale = max(1.0, float(np.linalg.norm(value)))
    flat_defect = float(np.linalg.norm(value - flat(value)))
    if flat_defect > _FLAT_REL_TOL * scale:
        raise ContractViolationError(
            f"result breaks flat invariance (defect {flat_defect:.3e}); "
            "input is outside the conjugation-symmetric class"
        )
    return value.real.copy(), diag, flat_defect


def discrete_mult_op(thetas):
    """Block-diagonal real operator of pointwise left multiplication.

    Each quaternion contributes its 4 x 4 left-multiplication block on the
    real coordinates along (I, J, K, L); the complex spectrum is the union
    of the quaternion spectra, each eigenvalue twice per block.
    """
    thetas = list(thetas)
    if not thetas:
        raise InvalidArgumentError("need at least one quaternion")
    if not all(isinstance(t, Quaternion) for t in thetas):
        raise InvalidArgumentError("entries must be Quaternions")
    m = len(thetas)
    out = np.zeros((4 * m, 4 * m))
    for i, t in enumerate(thetas):
        out[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = left_mult_matrix(t)
    return out
