"""Analytic scalar and 2x2-matrix function models with decidable symmetry.

Scalar functions live in a closed union (polynomials, exp/sin/cos, affine
precomposition, sums, products, plus an escape-hatch callback variant) so
that analytic derivatives and the conjugation symmetry ``f(conj z) ==
conj(f(z))`` are decidable structurally.  Matrix-valued functions built on
top of them support the stem condition ``F(conj z) == skew_conjugate(F(z))``
and the closed-form spectral calculus ``F(q) = F(s+)E+ + F(s-)E-``.
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
    dist_to_quaternions,
    skew_conjugate,
    spectral_projections,
    spectrum,
)

_IDENT2 = np.eye(2, dtype=complex)
_STEM_SPLIT_TOL = 1e-8


# ---------------------------------------------------------------------------
# scalar functions


class AnalyticScalar:
    """Base class for analytic maps C -> C in the closed union."""

    #: optional SymmetricDomain; None means entire.
    domain = None

    def __call__(self, z):
        raise NotImplementedError

    def derivative(self):
        raise NotImplementedError

    @property
    def symmetric(self):
        """Whether ``f(conj z) == conj(f(z))`` holds structurally."""
        raise NotImplementedError

    def star_value(self, z):
        """Value of the reflected function ``conj(f(conj z))``."""
        return np.conjugate(self(np.conjugate(z)))

    def __add__(self, other):
        if isinstance(other, AnalyticScalar):
            return Sum(self, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, AnalyticScalar):
            return Product(self, other)
        return NotImplemented


class Polynomial(AnalyticScalar):
    """Polynomial with coefficients in ascending powers."""

    def __init__(self, coeffs):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InvalidArgumentError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidArgumentError("non-finite polynomial coefficient")
        self.coeffs = coeffs

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out if out.shape else complex(out)

    def derivative(self):
        if self.coeffs.size == 1:
            return Polynomial([0.0])
        k = np.arange(1, self.coeffs.size)
        return Polynomial(self.coeffs[1:] * k)

    @property
    def symmetric(self):
        return bool(np.all(self.coeffs.imag == 0.0))

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


class Exp(AnalyticScalar):
    symmetric = True

    def __call__(self, z):
        return np.exp(z)

    def derivative(self):
        return Exp()


class Sin(AnalyticScalar):
    symmetric = True

    def __call__(self, z):
        return np.sin(z)

    def derivative(self):
        return Cos()


class Cos(AnalyticScalar):
    symmetric = True

    def __call__(self, z):
        return np.cos(z)

    def derivative(self):
        return Product(Polynomial([-1.0]), Sin())


class AffineArg(AnalyticScalar):
    """Precomposition ``z -> body(scale*z + shift)``."""

    def __init__(self, scale, shift, body):
        self.scale = complex(scale)
        self.shift = complex(shift)
        self.body = body

    def __call__(self, z):
        return self.body(self.scale * np.asarray(z, dtype=complex) + self.shift)

    def derivative(self):
        return Product(
            Polynomial([self.scale]), AffineArg(self.scale, self.shift, self.body.derivative())
        )

    @property
    def symmetric(self):
        return self.body.symmetric and self.scale.imag == 0.0 and self.shift.imag == 0.0


class Sum(AnalyticScalar):
    def __init__(self, *parts):
        if not parts:
            raise InvalidArgumentError("Sum needs at least one part")
        self.parts = tuple(parts)

    def __call__(self, z):
        out = self.parts[0](z)
        for p in self.parts[1:]:
            out = out + p(z)
        return out

    def derivative(self):
        return Sum(*(p.derivative() for p in self.parts))

    @property
    def symmetric(self):
        return all(p.symmetric for p in self.parts)


class Product(AnalyticScalar):
    def __init__(self, *parts):
        if not parts:
            raise InvalidArgumentError("Product needs at least one part")
        self.parts = tuple(parts)

    def __call__(self, z):
        out = self.parts[0](z)
        for p in self.parts[1:]:
            out = out * p(z)
        return out

    def derivative(self):
        # a constant factor's term is zero; kept, it doubles the tree at
        # every further derivative
        terms = []
        for i, p in enumerate(self.parts):
            dp = p.derivative()
            if isinstance(dp, Polynomial) and not np.any(dp.coeffs):
                continue
            factors = list(self.parts)
            factors[i] = dp
            terms.append(Product(*factors))
        return Sum(*terms) if terms else Polynomial([0.0])

    @property
    def symmetric(self):
        return all(p.symmetric for p in self.parts)


class Opaque(AnalyticScalar):
    """Caller-supplied analytic function with asserted symmetry.

    The symmetry assertion is spot-checked at 32 conjugate sample pairs on a
    circle of radius ``check_radius`` (skipped when ``check_radius`` is None,
    for functions not defined near the default circle).
    """

    def __init__(self, fn, derivative_fn=None, symmetric=False, check_radius=1.0):
        self.fn = fn
        self.derivative_fn = derivative_fn
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

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if z.shape == ():
            return complex(self.fn(complex(z)))
        return np.asarray([self.fn(complex(w)) for w in z.ravel()]).reshape(z.shape)

    def derivative(self):
        if self.derivative_fn is None:
            raise InvalidArgumentError("opaque function has no derivative callback")
        return Opaque(self.derivative_fn, symmetric=self._symmetric, check_radius=None)

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
        raise NotImplementedError

    def derivative(self):
        raise NotImplementedError


class ScalarStem(MatrixFunction):
    """Stem function ``f * I`` for a symmetric scalar ``f``."""

    def __init__(self, f, domain=None):
        if not f.symmetric:
            raise ContractViolationError("scalar must be symmetric to form f*I stem")
        self.f = f
        self.domain = domain

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        val = np.asarray(self.f(z), dtype=complex)
        return val[..., None, None] * _IDENT2

    def derivative(self):
        return ScalarStem(self.f.derivative(), domain=self.domain)


class PairStem(MatrixFunction):
    """Stem function ``[[f1(z), f2(z)], [-f2*(z), f1*(z)]]`` with ``g* = conj . g . conj``."""

    def __init__(self, f1, f2, domain=None):
        self.f1 = f1
        self.f2 = f2
        self.domain = domain

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        a = np.asarray(self.f1(z), dtype=complex)
        b = np.asarray(self.f2(z), dtype=complex)
        c = np.asarray(self.f2.star_value(z), dtype=complex)
        d = np.asarray(self.f1.star_value(z), dtype=complex)
        out = np.empty(z.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = a
        out[..., 0, 1] = b
        out[..., 1, 0] = -c
        out[..., 1, 1] = d
        return out

    def derivative(self):
        return PairStem(self.f1.derivative(), self.f2.derivative(), domain=self.domain)


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

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        zz = z[..., None, None]
        out = np.broadcast_to(self.coeffs[-1].matrix(), z.shape + (2, 2)).copy()
        for a in self.coeffs[-2::-1]:
            out = out * zz + a.matrix()
        return out

    def derivative(self):
        if len(self.coeffs) == 1:
            return QuaternionPolynomial([Quaternion(0.0, 0.0)], domain=self.domain)
        ks = [a * float(k) for k, a in enumerate(self.coeffs) if k >= 1]
        return QuaternionPolynomial(ks, domain=self.domain)


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

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape + (2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                out[..., i, j] = np.asarray(self.entries[i][j](z), dtype=complex)
        return out

    def derivative(self):
        return EntrywiseFunction(
            [[f.derivative() for f in row] for row in self.entries], domain=self.domain
        )


class CallableMatrixFunction(MatrixFunction):
    """Arbitrary pointwise 2x2-matrix map; evaluation only, no derivative."""

    def __init__(self, fn, domain=None):
        self.fn = fn
        self.domain = domain

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if z.shape == ():
            return np.asarray(self.fn(complex(z)), dtype=complex).reshape(2, 2)
        flat = [np.asarray(self.fn(complex(w)), dtype=complex) for w in z.ravel()]
        return np.asarray(flat).reshape(z.shape + (2, 2))


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


def conjugate_sample_pairs(domain=None, pairs=64):
    """Deterministic conjugate-closed sample set on two circles per disk.

    With no domain, circles of radius 0.5 and 1.5 about the origin are used.
    """
    if domain is None:
        bases = [(0j, 0.5), (0j, 1.5)]
    else:
        bases = []
        for c, r in domain.disks:
            bases.append((c, 0.35 * r))
            bases.append((c, 0.7 * r))
    per_circle = max(1, pairs // len(bases))
    samples = []
    for c, r in bases:
        ang = 2.0 * np.pi * (np.arange(per_circle) + 0.31) / per_circle
        for z in c + r * np.exp(1j * ang):
            samples.append(complex(z))
            samples.append(complex(z).conjugate())
    return samples


def verify_stem(F, samples=None, tol=1e-10):
    """Check the stem condition ``F(conj z) == skew_conjugate(F(z))`` on samples.

    Returns a StemReport with the worst sample as witness.  The sample set
    must be non-empty and is expected to be conjugate-closed.
    """
    if samples is None:
        samples = conjugate_sample_pairs(F.domain)
    samples = [complex(z) for z in samples]
    if not samples:
        raise InvalidArgumentError("empty sample set")
    z = np.asarray(samples, dtype=complex)
    defect_mats = F(z.conjugate()) - skew_conjugate(F(z))
    defects = np.linalg.norm(defect_mats, ord=2, axis=(-2, -1))
    worst = int(np.argmax(defects))
    max_defect = float(defects[worst])
    return StemReport(max_defect <= tol, max_defect, samples[worst])


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


def _check_spectrum_in_domain(F, q):
    if F.domain is not None:
        sp = spectrum(q)
        if not (F.domain.contains(sp.s_plus) and F.domain.contains(sp.s_minus)):
            raise DomainError("spectrum of q is outside the function domain")


def eval_spectral(F, q):
    """Closed-form calculus ``F(q) = F(s+)E+ + F(s-)E-`` on the spectrum of q.

    The result is a quaternion (to roundoff) exactly when ``F`` is a stem
    function; for other matrix functions it is a general 2x2 matrix.
    """
    _check_spectrum_in_domain(F, q)
    sp = spectrum(q)
    e_plus, e_minus = spectral_projections(q)
    return F(sp.s_plus) @ e_plus + F(sp.s_minus) @ e_minus


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
    _check_spectrum_in_domain(F, q)
    sp = spectrum(q)
    v_plus = np.max(np.abs(F(sp.s_plus)))
    v_minus = np.max(np.abs(F(sp.s_minus)))
    return bool(v_plus <= tol and v_minus <= tol)


def eval_dist_to_quaternions(F, q):
    """Distance of the spectral-calculus value to the quaternion subalgebra."""
    return dist_to_quaternions(eval_spectral(F, q))
