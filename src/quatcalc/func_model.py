"""Analytic scalar and 2x2-matrix function models with decidable symmetry.

Scalar functions live in a closed union (polynomials, exp/sin/cos, affine
precomposition, sums, products, plus an escape-hatch callback variant) so
that the conjugation symmetry ``f(conj z) == conj(f(z))`` is decidable
structurally.  Each evaluates through its jet, the derivatives ``f, ...,
f^(k)`` at a point (a callback's has order 0).  Matrix-valued functions on
them support the stem condition ``F(conj z) == skew_conjugate(F(z))`` and
the spectral calculus ``F(q) = F(s+)E+ + F(s-)E-``, at stacks alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    DomainError,
    InvalidArgumentError,
)
from .quat_core import (
    Quaternion,
    _combine,
    _norm_2x2,
    _split,
    skew_conjugate,
)

_IDENT2 = np.eye(2, dtype=complex)
_STEM_SPLIT_TOL = 1e-8
#: Conjugate pairs of ``conjugate_sample_pairs``, split evenly over its circles.
_SAMPLE_PAIRS = 64


# ---------------------------------------------------------------------------
# scalar functions


class AnalyticScalar:
    """Base class for analytic maps C -> C in the closed union."""

    #: optional SymmetricDomain; None means entire.
    domain = None

    def __call__(self, z):
        return self.jet(z, 0)[0]

    def jet(self, z, k, absolute=False):
        """Derivatives ``f(z), f'(z), ..., f^(k)(z)`` stacked on a new first
        axis.  With ``absolute`` the same recursions run on magnitudes (``|c|``
        and ``|z|`` in Horner's rule, ``|f^(j)|`` at the leaves): a bound on
        the terms each sum adds, whose rounding is of order eps times it."""
        raise NotImplementedError

    @property
    def symmetric(self):
        """Whether ``f(conj z) == conj(f(z))`` holds structurally."""
        raise NotImplementedError


def _horner_jet(coeffs, z, k, absolute):
    """Derivatives 0..k at ``z`` of ``sum coeffs[n] z^n`` by Horner's rule on
    the coefficients of each derivative; ``coeffs`` may carry trailing axes."""
    z = np.asarray(z, dtype=complex)
    if absolute:
        coeffs, z = np.abs(coeffs), np.abs(z)
    tail = coeffs.shape[1:]
    zz = z.reshape(z.shape + (1,) * len(tail))
    out = np.zeros((k + 1,) + z.shape + tail, dtype=coeffs.dtype)
    for j in range(min(k, len(coeffs) - 1) + 1):
        if j:  # the coefficients of the next derivative
            coeffs = coeffs[1:] * np.arange(1.0, len(coeffs)).reshape((-1,) + (1,) * len(tail))
        acc = np.full(z.shape + tail, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc = acc * zz + c
        out[j] = acc
    return out


def _cycle_jet(cycle, k, absolute):
    """Jet of a function whose derivatives repeat ``cycle``; order 0 is a view."""
    out = np.array([cycle[j % len(cycle)] for j in range(k + 1)]) if k else cycle[0][None]
    return np.abs(out) if absolute else out


def _leibniz(a, b):
    """Jet of a product from the jets of its two factors."""
    out = a * b  # row 0 is the product of the values; the rows above are replaced
    for j in range(1, len(out)):
        binom = np.array([math.comb(j, i) for i in range(j + 1)], dtype=float)
        out[j] = np.einsum("i,i...,i...->...", binom, a[: j + 1], b[j::-1])
    return out


class Polynomial(AnalyticScalar):
    """Polynomial with coefficients in ascending powers."""

    def __init__(self, coeffs):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InvalidArgumentError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidArgumentError("non-finite polynomial coefficient")
        self.coeffs = coeffs

    def jet(self, z, k, absolute=False):
        return _horner_jet(self.coeffs, z, k, absolute)

    @property
    def symmetric(self):
        return bool(np.all(self.coeffs.imag == 0.0))

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


class Exp(AnalyticScalar):
    symmetric = True

    def jet(self, z, k, absolute=False):
        return _cycle_jet((np.exp(z),), k, absolute)


class Sin(AnalyticScalar):
    symmetric = True

    def jet(self, z, k, absolute=False):
        s = np.sin(z)
        c = np.cos(z) if k else None  # order 0 needs no cos
        return _cycle_jet((s, c, -s, -c) if k else (s,), k, absolute)


class Cos(AnalyticScalar):
    symmetric = True

    def jet(self, z, k, absolute=False):
        c = np.cos(z)
        s = np.sin(z) if k else None  # order 0 needs no sin
        return _cycle_jet((c, -s, -c, s) if k else (c,), k, absolute)


class AffineArg(AnalyticScalar):
    """Precomposition ``z -> body(scale*z + shift)``."""

    def __init__(self, scale, shift, body):
        self.scale = complex(scale)
        self.shift = complex(shift)
        self.body = body

    def jet(self, z, k, absolute=False):
        out = self.body.jet(self.scale * np.asarray(z, dtype=complex) + self.shift, k, absolute)
        scale = abs(self.scale) if absolute else self.scale
        for j in range(1, k + 1):  # chain rule: the j-th derivative gains scale^j
            out[j] *= np.power(scale, j)
        return out

    @property
    def symmetric(self):
        return self.body.symmetric and self.scale.imag == 0.0 and self.shift.imag == 0.0


class Sum(AnalyticScalar):
    def __init__(self, *parts):
        if not parts:
            raise InvalidArgumentError("Sum needs at least one part")
        self.parts = tuple(parts)

    def jet(self, z, k, absolute=False):
        out = self.parts[0].jet(z, k, absolute)
        for p in self.parts[1:]:
            out = out + p.jet(z, k, absolute)
        return out

    @property
    def symmetric(self):
        return all(p.symmetric for p in self.parts)


class Product(AnalyticScalar):
    def __init__(self, *parts):
        if not parts:
            raise InvalidArgumentError("Product needs at least one part")
        self.parts = tuple(parts)

    def jet(self, z, k, absolute=False):
        out = self.parts[0].jet(z, k, absolute)
        for p in self.parts[1:]:
            out = _leibniz(out, p.jet(z, k, absolute))
        return out

    @property
    def symmetric(self):
        return all(p.symmetric for p in self.parts)


def _values_jet(fn, z, k, absolute, tail):
    """Order-0 jet of a function given by its values ``fn(w)`` only."""
    if k:
        raise InvalidArgumentError("a function given by values only has no derivatives")
    vals = [fn(complex(w)) for w in np.ravel(z)]
    vals = np.asarray(vals, dtype=complex).reshape((1,) + np.shape(z) + tail)
    return np.abs(vals) if absolute else vals


class Opaque(AnalyticScalar):
    """Caller-supplied analytic function with asserted symmetry, given by its
    values only: its jet has order 0.

    The symmetry assertion is spot-checked at 32 conjugate sample pairs on a
    circle of radius ``check_radius`` (skipped when ``check_radius`` is None,
    for functions not defined near the default circle).
    """

    def __init__(self, fn, symmetric=False, check_radius=1.0):
        self.fn = fn
        self._symmetric = bool(symmetric)
        if self._symmetric and check_radius is not None:
            ang = 2.0 * np.pi * (np.arange(32) + 0.37) / 32.0
            z = check_radius * np.exp(1j * ang)
            vals = np.asarray([fn(w) for w in z], dtype=complex)
            refl = np.asarray([np.conjugate(fn(np.conjugate(w))) for w in z], dtype=complex)
            defect = float(np.max(np.abs(vals - refl)))
            scale = max(1.0, float(np.max(np.abs(vals))))
            if defect > 1e-8 * scale:
                raise ContractViolationError(
                    f"asserted symmetry fails spot check (defect {defect:.3e})"
                )

    def jet(self, z, k, absolute=False):
        return _values_jet(self.fn, z, k, absolute, ())

    @property
    def symmetric(self):
        return self._symmetric


# ---------------------------------------------------------------------------
# conjugate-symmetric domains


class SymmetricDomain:
    """Finite union of open disks, closed under conjugation by construction.

    Every disk with non-real center is stored together with its mirror, so
    ``contains(z) == contains(conj(z))`` holds exactly.
    """

    def __init__(self, disks):
        stored = []
        for center, radius in disks:
            center = complex(center)
            radius = float(radius)
            if not (radius > 0.0 and math.isfinite(radius)):
                raise InvalidArgumentError("disk radius must be positive and finite")
            stored.append((center, radius))
            if center.imag != 0.0:
                stored.append((center.conjugate(), radius))
        if not stored:
            raise InvalidArgumentError("a domain needs at least one disk")
        self.disks = tuple(dict.fromkeys(stored))  # first of each duplicate, in order

    @classmethod
    def disk(cls, center, radius):
        return cls([(center, radius)])

    def contains(self, z):
        """Membership of ``z``; an array of points gives a boolean array."""
        if isinstance(z, np.ndarray):
            inside = np.zeros(z.shape, dtype=bool)
            for c, r in self.disks:
                inside |= np.abs(z - c) < r
            return inside
        z = complex(z)
        return any(abs(z - c) < r for c, r in self.disks)

    def clearance(self, z):
        """Largest ``m`` such that the disk of radius m around z fits in a
        single member disk (conservative for overlapping unions)."""
        z = complex(z)
        return max(r - abs(z - c) for c, r in self.disks)

    def __repr__(self):
        return f"SymmetricDomain({list(self.disks)!r})"


# ---------------------------------------------------------------------------
# matrix-valued functions


class MatrixFunction:
    """Base class for 2x2-matrix-valued functions of one complex variable."""

    domain = None

    def __call__(self, z):
        """Value at ``z``; arrays of shape (...) yield arrays (..., 2, 2)."""
        return self.jet(z, 0)[0]

    def jet(self, z, k, absolute=False):
        """Derivatives 0..k at ``z``, shape (k + 1,) + z.shape + (2, 2); see
        ``AnalyticScalar.jet`` for ``absolute``."""
        raise NotImplementedError


class ScalarStem(MatrixFunction):
    """Stem function ``f * I`` for a symmetric scalar ``f``."""

    def __init__(self, f, domain=None):
        if not f.symmetric:
            raise ContractViolationError("scalar must be symmetric to form f*I stem")
        self.f = f
        self.domain = domain

    def jet(self, z, k, absolute=False):
        val = np.asarray(self.f.jet(np.asarray(z, dtype=complex), k, absolute), dtype=complex)
        return val[..., None, None] * _IDENT2


class PairStem(MatrixFunction):
    """Stem function ``[[f1(z), f2(z)], [-f2*(z), f1*(z)]]`` with ``g* = conj . g . conj``."""

    def __init__(self, f1, f2, domain=None):
        self.f1 = f1
        self.f2 = f2
        self.domain = domain

    def jet(self, z, k, absolute=False):
        z = np.asarray(z, dtype=complex)
        out = np.empty((k + 1,) + z.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = self.f1.jet(z, k, absolute)
        out[..., 0, 1] = self.f2.jet(z, k, absolute)
        # the j-th derivative of g* is (g^(j))*
        out[..., 1, 0] = -np.conjugate(self.f2.jet(np.conjugate(z), k, absolute))
        out[..., 1, 1] = np.conjugate(self.f1.jet(np.conjugate(z), k, absolute))
        return out


class QuaternionPolynomial(MatrixFunction):
    """Polynomial with quaternion coefficients, a stem function for any coefficients."""

    def __init__(self, coeffs, domain=None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise InvalidArgumentError("need at least one coefficient")
        if not all(isinstance(a, Quaternion) for a in coeffs):
            raise InvalidArgumentError("coefficients must be Quaternions")
        self.coeffs = coeffs
        self.domain = domain
        self._matrices = np.array([a.matrix() for a in coeffs])

    def jet(self, z, k, absolute=False):
        return _horner_jet(self._matrices, z, k, absolute)


class EntrywiseFunction(MatrixFunction):
    """Matrix function given by four scalar entries; not necessarily a stem."""

    def __init__(self, entries, domain=None):
        entries = [[entries[0][0], entries[0][1]], [entries[1][0], entries[1][1]]]
        for row in entries:
            for f in row:
                if not isinstance(f, AnalyticScalar):
                    raise InvalidArgumentError("entries must be AnalyticScalar")
        self.entries = entries
        self.domain = domain

    def jet(self, z, k, absolute=False):
        z = np.asarray(z, dtype=complex)
        out = np.empty((k + 1,) + z.shape + (2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                out[..., i, j] = self.entries[i][j].jet(z, k, absolute)
        return out


class CallableMatrixFunction(MatrixFunction):
    """Arbitrary pointwise 2x2-matrix map, given by its values only: its jet
    has order 0, so only the contour calculus differentiates it."""

    def __init__(self, fn, domain=None):
        self.fn = fn
        self.domain = domain

    def jet(self, z, k, absolute=False):
        return _values_jet(self.fn, z, k, absolute, (2, 2))


def stem_scalar_mul(F, f):
    """Stem-preserving product ``z -> F(z) * f(z)`` for symmetric scalar ``f``."""
    if not f.symmetric:
        raise ContractViolationError("scalar factor must be symmetric")
    if isinstance(F, ScalarStem):
        return ScalarStem(Product(F.f, f), domain=F.domain)
    if isinstance(F, PairStem):
        return PairStem(Product(F.f1, f), Product(F.f2, f), domain=F.domain)
    if isinstance(F, EntrywiseFunction):
        return EntrywiseFunction(
            [[Product(g, f) for g in row] for row in F.entries], domain=F.domain
        )
    if isinstance(F, QuaternionPolynomial):
        entries = _hpoly_entries(F)
        return EntrywiseFunction(
            [[Product(g, f) for g in row] for row in entries], domain=F.domain
        )
    raise InvalidArgumentError(f"unsupported matrix function {type(F).__name__}")


def _hpoly_entries(F):
    rows = [[[], []], [[], []]]
    for a in F.coeffs:
        m = a.matrix()
        for i in range(2):
            for j in range(2):
                rows[i][j].append(m[i, j])
    return [[Polynomial(rows[i][j]) for j in range(2)] for i in range(2)]


# ---------------------------------------------------------------------------
# stem verification and splitting


@dataclass(frozen=True)
class StemReport:
    passed: bool
    max_defect: float
    witness: complex


def conjugate_sample_pairs(domain=None):
    """Deterministic conjugate-closed sample set on two circles per disk, one
    array in which each sample is followed by its conjugate.

    With no domain, circles of radius 0.5 and 1.5 about the origin are used.
    """
    if domain is None:
        bases = [(0j, 0.5), (0j, 1.5)]
    else:
        bases = []
        for c, r in domain.disks:
            bases.append((c, 0.35 * r))
            bases.append((c, 0.7 * r))
    per_circle = max(1, _SAMPLE_PAIRS // len(bases))
    unit = np.exp(1j * (2.0 * np.pi * (np.arange(per_circle) + 0.31) / per_circle))
    z = np.concatenate([c + r * unit for c, r in bases])
    return np.column_stack([z, z.conj()]).ravel()


def verify_stem(F, samples=None, tol=1e-10):
    """Check the stem condition ``F(conj z) == skew_conjugate(F(z))`` on samples.

    Returns a StemReport with the worst sample as witness.  The sample set
    must be non-empty and is expected to be conjugate-closed.
    """
    z = conjugate_sample_pairs(F.domain) if samples is None else np.asarray(samples, dtype=complex)
    if not z.size:
        raise InvalidArgumentError("empty sample set")
    defects = _norm_2x2(F(z.conjugate()) - skew_conjugate(F(z)))
    worst = int(np.argmax(defects))
    max_defect = float(defects[worst])
    return StemReport(max_defect <= tol, max_defect, complex(z[worst]))


def stem_split(F):
    """Split a stem function into its quaternion-valued parts ``F = F1 + i*F2``.

    Returns two pointwise evaluable maps; raises ContractViolationError when
    ``F`` fails the stem check, to 1e-8, on ``conjugate_sample_pairs(F.domain)``.
    """
    report = verify_stem(F, tol=_STEM_SPLIT_TOL)
    if not report.passed:
        raise ContractViolationError(
            f"not a stem function (defect {report.max_defect:.3e} at {report.witness})"
        )

    def part_one(z):
        a = F(z)
        return 0.5 * (a + skew_conjugate(a))

    def part_two(z):
        a = F(z)
        return -0.5j * (a - skew_conjugate(a))

    return part_one, part_two


# ---------------------------------------------------------------------------
# spectral functional calculus


def _spectrum_in_domain(F, q):
    """``s+-`` stacked on a new first axis, and ``a, b`` of ``quat_core._split``."""
    x, t, a, b = _split(q)
    s = x + np.multiply.outer([1j, -1j], t)
    if F.domain is not None and not np.all(F.domain.contains(s)):
        raise DomainError("spectrum of q is outside the function domain")
    return s, a, b


def spectral_jet(F, q, k):
    """Closed-form derivatives ``F^(j)(q) = F^(j)(s+)E+ + F^(j)(s-)E-`` for
    ``j = 0..k``, stacked on a new first axis, from one jet of ``F`` at ``s+-``.
    ``q`` is a Quaternion or a stack of matrix views (..., 2, 2); the result
    has shape ``(k + 1,)`` plus its shape."""
    s, a, b = _spectrum_in_domain(F, q)
    jets = F.jet(s, k)
    return _combine(jets[:, 0], jets[:, 1], a, b)


def eval_spectral(F, q, order=0):
    """Closed-form calculus ``F^(order)(q) = F^(order)(s+)E+ + F^(order)(s-)E-``
    on the spectrum of q, a Quaternion or a stack of matrix views (..., 2, 2).

    The result is a quaternion (to roundoff) exactly when ``F`` is a stem
    function; for other matrix functions it is a general 2x2 matrix.
    """
    return spectral_jet(F, q, order)[order]


def hpoly_eval(coeffs, q):
    """Left-coefficient evaluation ``sum a_n * q^n`` of a quaternion polynomial."""
    coeffs = list(coeffs)
    if not coeffs:
        raise InvalidArgumentError("need at least one coefficient")
    out = coeffs[-1]
    for a in coeffs[-2::-1]:
        out = out * q + a
    return out


def zero_set_contains(F, q, tol=1e-12):
    """Whether the spectrum of ``q`` lies in the zero set of ``F``.

    Equivalent (up to the projection norms, which are one) to the vanishing
    of the spectral calculus value at ``q``.
    """
    s, _, _ = _spectrum_in_domain(F, q)
    return bool(np.max(np.abs(F(s))) <= tol)
