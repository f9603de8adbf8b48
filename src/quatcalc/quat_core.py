"""Quaternions as 2x2 complex matrices: algebra, spectra, and projections.

A quaternion is stored by its C^2 coordinates ``(z1, z2)``; the matrix view
``[[z1, z2], [-conj(z2), conj(z1)]]`` is derived on demand, so membership in
the quaternion subalgebra holds by construction.  All values are immutable
and all operations are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, SingularElementError

#: Relative threshold below which a coordinate is treated as exactly zero.
DEGENERATE_REL_TOL = 1e-14

#: Relative tolerance for membership in the quaternion subalgebra.
H_MEMBERSHIP_REL_TOL = 1e-10


def _require_finite(*values):
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidArgumentError(f"non-finite value {v!r}")


class Quaternion:
    """Element of the quaternion algebra, identified by coordinates in C^2."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1, z2):
        _require_finite(z1, z2)
        object.__setattr__(self, "z1", complex(z1))
        object.__setattr__(self, "z2", complex(z2))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    @property
    def coords(self):
        return (self.z1, self.z2)

    @property
    def components(self):
        """Real components (x0, x1, x2, x3) along (I, J, K, L)."""
        return (self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)

    @property
    def re(self):
        """Real part, i.e. the coefficient of the identity."""
        return self.z1.real

    def matrix(self):
        """Matrix view ``[[z1, z2], [-conj(z2), conj(z1)]]``."""
        return np.array(
            [[self.z1, self.z2], [-self.z2.conjugate(), self.z1.conjugate()]]
        )

    def norm(self):
        """Euclidean coordinate norm, equal to the operator norm of the view."""
        return math.hypot(abs(self.z1), abs(self.z2))

    def star(self):
        """Adjoint involution, coordinates ``(conj(z1), -z2)``."""
        return Quaternion(self.z1.conjugate(), -self.z2)

    def inverse(self):
        n2 = abs(self.z1) ** 2 + abs(self.z2) ** 2
        if n2 == 0.0:
            raise SingularElementError("zero quaternion has no inverse")
        return Quaternion(self.z1.conjugate() / n2, -self.z2 / n2)

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.z1 - other.z1, self.z2 - other.z2)

    def __neg__(self):
        return Quaternion(-self.z1, -self.z2)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.z1 * other.z1 - self.z2 * other.z2.conjugate(),
                self.z1 * other.z2 + self.z2 * other.z1.conjugate(),
            )
        if isinstance(other, numbers.Real):
            return Quaternion(self.z1 * other, self.z2 * other)
        return NotImplemented

    def __rmul__(self, other):
        # The algebra is over R only; complex scalars would leave it.
        if isinstance(other, numbers.Real):
            return Quaternion(self.z1 * other, self.z2 * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return Quaternion(self.z1 / other, self.z2 / other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, numbers.Integral):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Quaternion(1.0, 0.0)
        base = self
        n = int(n)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        return self.norm()

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.z1 == other.z1 and self.z2 == other.z2

    def __hash__(self):
        return hash((self.z1, self.z2))

    def isclose(self, other, tol=1e-12):
        return (self - other).norm() <= tol * max(1.0, self.norm(), other.norm())

    def __repr__(self):
        x0, x1, x2, x3 = self.components
        return f"Quaternion({x0:g} {x1:+g}J {x2:+g}K {x3:+g}L)"


def make_quaternion(x0, x1, x2, x3):
    """Quaternion with real components (x0, x1, x2, x3) along (I, J, K, L)."""
    _require_finite(x0, x1, x2, x3)
    return Quaternion(complex(x0, x1), complex(x2, x3))


#: Basis elements of the quaternion algebra.
I = Quaternion(1.0, 0.0)
J = Quaternion(1j, 0.0)
K = Quaternion(0.0, 1.0)
L = Quaternion(0.0, 1j)


def skew_conjugate(a):
    """Skew complex conjugation ``[[a11,a12],[a21,a22]] -> [[c22,-c21],[-c12,c11]]``
    with ``c`` the entrywise conjugate; its fixed points are the quaternions.

    Accepts a single 2x2 matrix or a batch of shape (..., 2, 2).
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise InvalidArgumentError("expected a (..., 2, 2) array")
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1].conj()
    out[..., 0, 1] = -a[..., 1, 0].conj()
    out[..., 1, 0] = -a[..., 0, 1].conj()
    out[..., 1, 1] = a[..., 0, 0].conj()
    return out


def dist_to_quaternions(a):
    """Frobenius distance from a 2x2 matrix to the quaternion subalgebra.

    Computed as ``norm((a - skew_conjugate(a)) / 2)``, the exact projection
    distance along the direct-sum splitting of M2 into the quaternions plus
    ``i`` times the quaternions.
    """
    a = np.asarray(a, dtype=complex)
    half_defect = 0.5 * (a - skew_conjugate(a))
    return float(np.linalg.norm(half_defect))


def mat_norm(a):
    """Operator (spectral) norm of a real or complex matrix."""
    return float(np.linalg.norm(np.asarray(a), 2))


def split_h_ih(a):
    """Split a 2x2 matrix as ``b + i*c`` with quaternion parts ``b`` and ``c``."""
    a = np.asarray(a, dtype=complex)
    sk = skew_conjugate(a)
    b = 0.5 * (a + sk)
    c = -0.5j * (a - sk)
    return Quaternion(b[0, 0], b[0, 1]), Quaternion(c[0, 0], c[0, 1])


def as_quaternion(a):
    """Project a 2x2 matrix onto the quaternions, requiring it to be close.

    Raises InvalidArgumentError when the distance exceeds
    ``1e-10 * max(1, norm(a))``.
    """
    a = np.asarray(a, dtype=complex)
    tol = H_MEMBERSHIP_REL_TOL * max(1.0, float(np.linalg.norm(a)))
    if dist_to_quaternions(a) > tol:
        raise InvalidArgumentError("matrix is not a quaternion within tolerance")
    b, _ = split_h_ih(a)
    return b


@dataclass(frozen=True)
class SpectrumPair:
    """Spectrum of a quaternion with its canonical orthonormal eigenvectors.

    ``s_minus`` is the conjugate of ``s_plus`` and ``Im(s_plus) >= 0``.
    """

    s_plus: complex
    s_minus: complex
    nu_plus: np.ndarray
    nu_minus: np.ndarray


_E1 = np.array([1.0 + 0j, 0.0 + 0j])
_E2 = np.array([0.0 + 0j, 1.0 + 0j])


def spectrum(q):
    """Eigenvalues and canonical eigenvectors of the matrix view of ``q``.

    The eigenvalues are ``Re(z1) +/- i*sqrt(Im(z1)^2 + |z2|^2)``.  For
    ``z2 != 0`` the eigenvectors are proportional to ``(z2, s - z1)``; the
    difference ``s - z1`` is evaluated in a cancellation-free form so the
    eigenvector identities hold to machine precision even for tiny ``z2``.
    When ``z2 = 0`` the standard basis vectors are used, swapped if needed
    to keep the ``Im >= 0`` branch first.
    """
    if not isinstance(q, Quaternion):
        raise InvalidArgumentError("spectrum expects a Quaternion")
    z1, z2 = q.z1, q.z2
    x, y = z1.real, z1.imag
    a2 = abs(z2)
    scale = max(1.0, q.norm())
    eps = DEGENERATE_REL_TOL * scale

    if a2 <= eps:
        if abs(y) <= eps:
            s = complex(x, 0.0)
            return SpectrumPair(s, s, _E1.copy(), _E2.copy())
        if y > 0.0:
            return SpectrumPair(z1, z1.conjugate(), _E1.copy(), _E2.copy())
        return SpectrumPair(z1.conjugate(), z1, _E2.copy(), _E1.copy())

    t = math.hypot(y, a2)
    # t -/+ y without cancellation: (t - y)(t + y) = |z2|^2 exactly.
    if y >= 0.0:
        tp = t + y
        tm = (a2 * a2) / tp
    else:
        tm = t - y
        tp = (a2 * a2) / tm
    n_plus = math.hypot(a2, tm)
    n_minus = math.hypot(a2, tp)
    nu_plus = np.array([z2 / n_plus, complex(0.0, tm) / n_plus])
    nu_minus = np.array([z2 / n_minus, complex(0.0, -tp) / n_minus])
    return SpectrumPair(complex(x, t), complex(x, -t), nu_plus, nu_minus)


def spectral_projections(q):
    """Orthogonal rank-one projections onto the two eigenspaces of ``q``.

    Returns ``(E_plus, E_minus)`` with ``E_plus + E_minus = I`` and
    ``q = s_plus*E_plus + s_minus*E_minus``.
    """
    sp = spectrum(q)
    e_plus = np.outer(sp.nu_plus, sp.nu_plus.conj())
    e_minus = np.outer(sp.nu_minus, sp.nu_minus.conj())
    return e_plus, e_minus


def quaternions_with_spectrum(zeta, u):
    """A quaternion with spectrum ``{zeta, conj(zeta)}``, parametrized by ``u``.

    Requires ``|u| <= |Im zeta|``; ``u`` sweeps out the full solution set as
    it ranges over that disk.
    """
    zeta = complex(zeta)
    u = complex(u)
    _require_finite(zeta, u)
    y = abs(zeta.imag)
    if abs(u) > y * (1.0 + 1e-12) + 1e-300:
        raise DomainError(f"|u| = {abs(u):g} exceeds |Im zeta| = {y:g}")
    rad = max(y * y - abs(u) ** 2, 0.0)
    return Quaternion(complex(zeta.real, math.sqrt(rad)), u)


@dataclass(frozen=True)
class AxialForm:
    """Decomposition ``q = x*I + y*s`` with ``y >= 0`` and ``s^2 = -I``."""

    x: float
    y: float
    s: Quaternion


def axial_decompose(q):
    """Write ``q = x*I + y*s`` with unit purely imaginary ``s``.

    Real quaternions return ``y = 0`` with ``s = J`` by convention; the
    spectrum of ``q`` is ``{x +/- iy}`` either way.
    """
    if not isinstance(q, Quaternion):
        raise InvalidArgumentError("axial_decompose expects a Quaternion")
    x = q.z1.real
    y = math.hypot(q.z1.imag, abs(q.z2))
    if y <= DEGENERATE_REL_TOL * max(1.0, q.norm()):
        return AxialForm(x, 0.0, J)
    s = Quaternion(complex(0.0, q.z1.imag / y), q.z2 / y)
    return AxialForm(x, y, s)


def random_unit_imaginary(rng):
    """Uniformly random unit purely imaginary quaternion (a point of S)."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return make_quaternion(0.0, v[0], v[1], v[2])


def left_mult_matrix(q):
    """Real 4x4 matrix of left multiplication by ``q`` on the basis (I, J, K, L)."""
    x0, x1, x2, x3 = q.components
    return np.array(
        [
            [x0, -x1, -x2, -x3],
            [x1, x0, -x3, x2],
            [x2, x3, x0, -x1],
            [x3, -x2, x1, x0],
        ]
    )


def cvec_star(z):
    """Adjoint involution on C^2 coordinates: ``(z1, z2) -> (conj(z1), -z2)``."""
    z1, z2 = z
    return (complex(z1).conjugate(), -complex(z2))
