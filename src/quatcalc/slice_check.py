"""Numerical slice-regularity checks and slice-to-global reconstruction.

A map on quaternions is slice regular when the one-sided Cauchy-Riemann
operator ``(1/2)(d/dx + R_s d/dy)`` annihilates it on every slice
``x*I + y*s`` through a unit purely imaginary ``s`` (right multiplication).
Values produced by the spectral or contour calculus of stem functions pass
this check; the reverse construction fits a polynomial on one slice and
rebuilds the stem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, InvalidArgumentError
from .func_model import QuaternionPolynomial, eval_spectral
from .quat_core import (
    I,
    J,
    L,
    Quaternion,
    as_quaternion,
    axial_decompose,
    random_unit_imaginary,
    spectrum,
)


def _as_matrix(value):
    if isinstance(value, Quaternion):
        return value.matrix()
    return np.asarray(value, dtype=complex)


def _slice_point(x, y, s):
    return I * float(x) + s * float(y)


def dbar_s(G, x, y, s, h=1e-4, domain=None):
    """Central-difference slice Cauchy-Riemann operator at ``x*I + y*s``.

    Returns ``(1/2) [dG/dx + (dG/dy) s]`` with second-order stencils of
    width ``h``; ``s`` must be unit purely imaginary.  When a domain is
    given, all four stencil points must have their slice coordinate in it.
    """
    s_sq = (s * s).matrix()
    if np.linalg.norm(s_sq + np.eye(2)) > 1e-12:
        raise InvalidArgumentError("s must satisfy s*s = -I")
    if domain is not None:
        for zx, zy in ((x + h, y), (x - h, y), (x, y + h), (x, y - h)):
            if not domain.contains(complex(zx, zy)):
                raise DomainError("finite-difference stencil escapes the domain")
    gx = (_as_matrix(G(_slice_point(x + h, y, s))) - _as_matrix(G(_slice_point(x - h, y, s)))) / (
        2.0 * h
    )
    gy = (_as_matrix(G(_slice_point(x, y + h, s))) - _as_matrix(G(_slice_point(x, y - h, s)))) / (
        2.0 * h
    )
    return 0.5 * (gx + gy @ s.matrix())


@dataclass
class SliceSampleGrid:
    """Evaluation points ``(x, y, s)`` plus the finite-difference step."""

    points: list
    h: float = 1e-4

    def __post_init__(self):
        for x, y, s in self.points:
            if np.linalg.norm((s * s).matrix() + np.eye(2)) > 1e-12:
                raise InvalidArgumentError("grid direction must square to -I")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InvalidArgumentError("non-finite grid coordinate")

    @classmethod
    def random(cls, domain, n_points, n_directions, h=1e-4, seed=0):
        """Random grid with slice coordinates (including stencils) in the domain."""
        if n_points < 1 or n_directions < 1:
            raise InvalidArgumentError("need at least one point and one direction")
        rng = np.random.default_rng(seed)
        directions = [random_unit_imaginary(rng) for _ in range(n_directions)]
        points = []
        disks = domain.disks
        attempts = 0
        while len(points) < n_points:
            attempts += 1
            if attempts > 1000 * n_points:
                raise InvalidArgumentError("domain too small for the stencil width")
            c, r = disks[rng.integers(len(disks))]
            z = c + (0.8 * r) * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            x, y = float(z.real), float(z.imag)
            ok = all(
                domain.contains(complex(px, py))
                for px, py in ((x + h, y), (x - h, y), (x, y + h), (x, y - h))
            )
            if ok:
                points.append((x, y, directions[len(points) % n_directions]))
        return cls(points, h=h)


@dataclass
class SliceReport:
    max_defect: float
    passed: bool
    worst_point: tuple = field(default=None)


def slice_regularity_report(G, grid, tol=1e-5):
    """Worst slice Cauchy-Riemann defect of ``G`` over a sample grid."""
    if not grid.points:
        raise InvalidArgumentError("empty sample grid")
    worst = -1.0
    worst_point = None
    for x, y, s in grid.points:
        defect = float(np.linalg.norm(dbar_s(G, x, y, s, h=grid.h), 2))
        if defect > worst:
            worst = defect
            worst_point = (x, y, s)
    return SliceReport(worst, worst <= tol, worst_point)


def split_slice(f):
    """Split an H-valued map on the J-slice as ``f = g + L*h`` with g, h J-slice valued.

    Writing ``f = f0*I + f1*J + f2*K + f3*L`` pointwise, returns
    ``g = f0*I + f1*J`` and ``h = f3*I + f2*J``; the reconstruction
    ``g + L*h`` is exact.  Matrix-valued ``f`` is accepted when its values
    are quaternions within tolerance.
    """

    def value(q):
        v = f(q)
        return v if isinstance(v, Quaternion) else as_quaternion(v)

    def g(q):
        x0, x1, _, _ = value(q).components
        return Quaternion(complex(x0, x1), 0.0)

    def h(q):
        _, _, x2, x3 = value(q).components
        return Quaternion(complex(x3, x2), 0.0)

    return g, h


def circularization_contains(domain, q):
    """Membership of ``q`` in the circularization of a plane domain.

    True exactly when the spectrum of ``q`` lies in the domain; this agrees
    with the axial criterion ``x + iy`` in the domain for ``q = x*I + y*s``.
    """
    sp = spectrum(q)
    return domain.contains(sp.s_plus) and domain.contains(sp.s_minus)


def circularization_contains_axial(domain, q):
    """Axial-form membership criterion; equal to the spectral criterion."""
    ax = axial_decompose(q)
    return domain.contains(complex(ax.x, ax.y))


def _fft_poly_fit(values, center, radius, degree):
    """Coefficients (ascending, in z) of the degree-``degree`` interpolant of
    samples on a circle about a real center."""
    n = len(values)
    local = np.fft.fft(np.asarray(values, dtype=complex)) / n
    local = local[: degree + 1] / radius ** np.arange(degree + 1)
    # Horner recentering of sum local[m] * (z - center)^m into powers of z
    std = np.zeros(1, dtype=complex)
    for c in local[::-1]:
        std = npoly.polyadd(npoly.polymul(std, [-center, 1.0]), [c])
    out = np.zeros(degree + 1, dtype=complex)
    out[: min(std.size, degree + 1)] = std[: degree + 1]
    return out


def extend_from_slice(f, center=0.0, radius=1.0, degree=16):
    """Rebuild a stem polynomial from samples of a slice-regular map on the J-slice.

    Samples ``f`` at ``x*I + y*J`` points on a circle of the given (real)
    center and radius, splits off the two J-slice components, fits complex
    polynomials of the given degree by FFT interpolation, and reassembles
    the quaternion-coefficient polynomial whose extension restricts to ``f``.
    """
    center = float(center)
    g, h = split_slice(f)
    n = 4 * (degree + 1)
    zs = center + radius * np.exp(2j * np.pi * np.arange(n) / n)
    g_vals = []
    h_vals = []
    for z in zs:
        q = _slice_point(z.real, z.imag, J)
        g_vals.append(g(q).z1)
        h_vals.append(h(q).z1)
    g_coeffs = _fft_poly_fit(g_vals, center, radius, degree)
    h_coeffs = _fft_poly_fit(h_vals, center, radius, degree)
    quat_coeffs = [
        Quaternion(gc, 0.0) + L * Quaternion(hc, 0.0)
        for gc, hc in zip(g_coeffs, h_coeffs)
    ]
    return QuaternionPolynomial(quat_coeffs)


def spectral_evaluator(F):
    """Quaternion-to-matrix map ``q -> F(q)`` through the spectral calculus."""

    def G(q):
        return eval_spectral(F, q)

    return G
