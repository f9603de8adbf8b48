"""Quaternionic spectrum and conjugation-compatible calculus for real matrices.

A real n x n matrix T acts on the complexification entrywise; the flat
conjugation of a complex operator is entrywise conjugation in the real
basis.  Membership of a quaternion q in the resolvent is decided by the
invertibility of the real pencil ``T^2 - 2 Re(q) T + norm(q)^2``, reported
as a normalized smallest singular value so callers pick their own
thresholds.  The analytic calculus integrates ``F(z)(z - T)^-1`` over
conjugate-symmetric circles and restricts to the real subspace after a
flat-invariance check.  It solves ``(z - T)^-1`` only on the upper half of
a real-centered circle (the conjugates give the lower half, as T is real)
and contracts the resolvents with the scalar weights of F's terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour_calc import (
    Contour,
    _check_enclosed,
    _trapezoid_doubling,
    enclosing_circles,
)
from .errors import (
    ContractViolationError,
    InvalidArgumentError,
    NumericError,
)
from .func_model import AnalyticScalar, Polynomial
from .quat_core import Quaternion, left_mult_matrix, mat_norm, spectrum

_DEFAULT_EIG_CAP = 64

#: Conjugate-pairing (``complex_spectrum``) and flat-invariance (``op_calculus``)
#: tolerances, relative to the spectral radius and to the value's norm.
_PAIR_REL_TOL = 1e-8
_FLAT_REL_TOL = 1e-8


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
    out = []
    for r in sorted(reps, key=lambda v: (v.real, v.imag)):
        if out and abs(out[-1][0] - r) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((r, 1))
    return tuple(out)


def complex_spectrum(T, cap=_DEFAULT_EIG_CAP):
    """Eigenvalues of the complexified operator, conjugate-paired.

    The spectrum is conjugate symmetric for real input; pairing failures
    beyond 1e-8 (relative to the spectral radius) raise NumericError.
    """
    T = as_real_operator(T)
    if T.shape[0] > cap:
        raise InvalidArgumentError(f"dimension {T.shape[0]} exceeds the cap {cap}")
    try:
        eigs = np.linalg.eigvals(T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed: {exc}") from exc
    eigs = np.sort_complex(eigs)
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
    return SpectrumReport(eigs, _conjugate_pairs(eigs, _PAIR_REL_TOL * scale))


# ---------------------------------------------------------------------------
# operator-valued functions with flat symmetry


class OperatorFunction:
    """Analytic map into complex n x n matrices with ``F(conj z) = flat(F(z))``."""

    def __call__(self, z):
        raise NotImplementedError

    @property
    def dim(self):
        raise NotImplementedError

    def expand(self, z):
        """Real coefficients ``A`` of shape ``(J, n, n)`` and complex weights
        ``g`` of shape ``(J, m)`` with ``F(z[k]) = sum_j g[j, k] A[j]`` at the
        ``m`` points ``z``; by default the ``n^2`` unit matrices, weighted by
        the entries of ``F(z)``."""
        n = self.dim
        return np.eye(n * n).reshape(n * n, n, n), self(z).reshape(-1, n * n).T


class MatrixCoefficientFunction(OperatorFunction):
    """Sum of real matrix coefficients times symmetric scalar functions."""

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
        self._dim = n

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

    @property
    def dim(self):
        return self._dim

    def __call__(self, z):
        coeffs, g = self.expand(np.asarray(z, dtype=complex))
        return np.tensordot(g, coeffs, axes=(0, 0))

    def expand(self, z):
        weights = [np.broadcast_to(np.asarray(g(z), dtype=complex), z.shape) for _, g in self.terms]
        return np.array([A for A, _ in self.terms]), np.array(weights)


class OpaqueOperatorFunction(OperatorFunction):
    """Caller-supplied operator-valued map with asserted flat symmetry.

    The symmetry is spot-checked at 32 conjugate pairs on the contour before
    any integration uses it.
    """

    def __init__(self, fn, dim):
        self.fn = fn
        self._dim = int(dim)

    @property
    def dim(self):
        return self._dim

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if z.shape == ():
            return np.asarray(self.fn(complex(z)), dtype=complex)
        flat_vals = [np.asarray(self.fn(complex(w)), dtype=complex) for w in z.ravel()]
        return np.asarray(flat_vals).reshape(z.shape + (self._dim, self._dim))


def _spot_check_flat_symmetry(F, circles):
    c = circles[0]
    ang = 2.0 * np.pi * (np.arange(32) + 0.41) / 32.0
    z = c.center + c.radius * np.exp(1j * ang)
    vals = F(z)
    refl = F(z.conjugate())
    defect = float(np.max(np.abs(refl - vals.conj())))
    scale = max(1.0, float(np.max(np.abs(vals))))
    if defect > 1e-8 * scale:
        raise ContractViolationError(
            f"operator function breaks flat symmetry on the contour (defect {defect:.3e})"
        )


def operator_contour(T):
    """Real-centered circles covering the eigenvalue clusters of ``T`` with
    clearance ``max(0.1, 0.05 * spectral radius)``, checked to hold every
    eigenvalue strictly inside."""
    eigs = [complex(v) for v in complex_spectrum(T).eigenvalues]
    clearance = max(0.1, 0.05 * max(abs(v) for v in eigs))
    circles = enclosing_circles(eigs, clearance, real_centers=True)
    _check_enclosed(eigs, circles)
    return Contour(tuple(circles))


def op_calculus(F, T, cfg=None, contour=None, return_diagnostics=False):
    """Analytic calculus ``F(T)`` for a flat-symmetric operator function.

    Integrates ``F(z)(z - T_C)^-1`` over real-centered circles around the
    spectrum with node doubling, checks flat invariance of the value to
    1e-8 times its scale, and returns the real restriction.  A
    non-finite quadrature total raises NumericError.

    With ``F = sum_j g_j A_j`` (``F.expand``) a circle's node sum is
    ``sum_j A_j S_j``, ``S_j = sum_k w_k g_j(z_k) (z_k - T)^-1``.  F is
    evaluated at every node; the resolvent is solved at the nodes with angles
    in ``[0, pi]`` of a real-centered circle, whose mirrors ``conj z`` take
    its conjugate, and at every node of any other circle.
    """
    T = as_real_operator(T)
    n = T.shape[0]
    if F.dim != n:
        raise InvalidArgumentError("operator function dimension mismatch")
    if contour is None:
        gamma = operator_contour(T)
    else:
        gamma = contour
        _check_enclosed(complex_spectrum(T).eigenvalues, gamma.circles)
    if isinstance(F, OpaqueOperatorFunction):
        _spot_check_flat_symmetry(F, gamma.circles)

    eye = np.eye(n)

    def circle_sum(circle, nodes, offset):
        # R(conj z) = conj R(z) for R(z) = (z - T)^-1: the mirrored nodes are
        # the exact conjugates of solved nodes and take no solve of their own
        folded = circle.center.imag == 0.0
        solved = nodes // 2 + int(offset == 0.0) if folded else nodes
        unit = np.exp(2j * np.pi * (np.arange(solved) + offset) / nodes)
        z, w = circle.center + circle.radius * unit, circle.radius * unit
        mirrored = slice(int(offset == 0.0), nodes // 2 if folded else 0)
        coeffs, g = F.expand(np.concatenate((z, z[mirrored].conj())))
        a = g[:, :solved] * w
        b = np.zeros_like(a)
        b[:, mirrored] = g[:, solved:] * w[mirrored].conj()
        pencil = np.repeat(-T[None].astype(complex), solved, axis=0)
        pencil.reshape(solved, -1)[:, :: n + 1] += z[:, None]
        R = np.linalg.solve(pencil, eye[None]).reshape(solved, n * n)
        # S_j = sum_k (a_jk R_k + b_jk conj R_k) = (a + b)_j Re R + i (a - b)_j Im R
        # by one real matmul over the nodes; the circle's sum is sum_j A_j S_j
        plus, minus = a + b, a - b
        parts = np.concatenate((plus.real, plus.imag, minus.real, minus.imag)) @ R.view(float)
        pr, pi, mr, mi = parts.reshape(4, -1, n, n, 2)
        S = pr[..., 0] - mi[..., 1] + 1j * (pi[..., 0] + mr[..., 1])
        return np.tensordot(coeffs, S, axes=([0, 2], [0, 1]))

    value, diag = _trapezoid_doubling(circle_sum, gamma.circles, cfg)
    scale = max(1.0, float(np.linalg.norm(value)))
    flat_defect = float(np.linalg.norm(value - flat(value)))
    if flat_defect > _FLAT_REL_TOL * scale:
        raise ContractViolationError(
            f"result breaks flat invariance (defect {flat_defect:.3e}); "
            "input is outside the conjugation-symmetric class"
        )
    result = value.real.copy()
    if return_diagnostics:
        return result, diag, flat_defect
    return result


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
