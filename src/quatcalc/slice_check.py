"""Numerical slice-regularity checks and slice-to-global reconstruction.

A map on quaternions is slice regular when the one-sided Cauchy-Riemann
operator ``(1/2)(d/dx + R_s d/dy)`` annihilates it on every slice
``x*I + y*s`` through a unit purely imaginary ``s`` (right multiplication).
Values produced by the spectral or contour calculus of stem functions pass
this check; the reverse construction fits a polynomial on one slice and
rebuilds the stem.

The maps ``G`` under test act on stacks: they take quaternion matrix views
of shape (..., 2, 2) and return values of the same shape.  A check
evaluates ``G`` once on the stencil points of its whole sample grid;
``quaternionwise`` lifts a map on single quaternions to this contract.
A non-finite stencil result raises NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, InvalidArgumentError, NumericError
from .func_model import QuaternionPolynomial
from .quat_core import (
    DEGENERATE_REL_TOL,
    I,
    J,
    L,
    Quaternion,
    as_quaternion,
    axial_decompose,
    random_unit_imaginary,
    spectrum,
)

_IDENT2 = np.eye(2, dtype=complex)


def _as_matrix(value):
    if isinstance(value, Quaternion):
        return value.matrix()
    return np.asarray(value, dtype=complex)


def _slice_point(x, y, s):
    return I * float(x) + s * float(y)


def _check_directions(mats, message):
    if np.any(np.linalg.norm(mats @ mats + _IDENT2, axis=(-2, -1)) > 1e-12):
        raise InvalidArgumentError(message)


def quaternionwise(g):
    """Lift a map on single quaternions (Quaternion or 2x2 values) to stacks."""

    def G(Q):
        Q = np.asarray(Q, dtype=complex)
        values = [_as_matrix(g(Quaternion(m[0, 0], m[0, 1]))) for m in Q.reshape(-1, 2, 2)]
        return np.asarray(values, dtype=complex).reshape(Q.shape)

    return G


def dbar_s(G, x, y, s, h=1e-4):
    """Central-difference slice Cauchy-Riemann operator at ``x*I + y*s``.

    Returns ``(1/2) [dG/dx + (dG/dy) s]`` with second-order stencils of
    width ``h``.  ``x`` and ``y`` are numbers or arrays of one shape ``P``;
    ``s`` is a unit purely imaginary Quaternion or an array of matrix views
    of such, shape ``P + (2, 2)``; the result has shape ``P + (2, 2)``.
    ``G`` is called once, on the stack of all stencil points.
    """
    S = s.matrix() if isinstance(s, Quaternion) else np.asarray(s, dtype=complex)
    _check_directions(S, "s must satisfy s*s = -I")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px = np.stack([x + h, x - h, x, x])
    py = np.stack([y, y, y + h, y - h])
    values = G(px[..., None, None] * _IDENT2 + py[..., None, None] * S)
    gx = (values[0] - values[1]) / (2.0 * h)
    gy = (values[2] - values[3]) / (2.0 * h)
    out = 0.5 * (gx + gy @ S)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite result in the slice Cauchy-Riemann stencil")
    return out


@dataclass
class SliceSampleGrid:
    """Evaluation points ``(x, y, s)`` plus the finite-difference step.

    The step must be finite, positive and large enough that every stencil
    point ``x + h`` and ``y + h`` differs from its center in floating point;
    a step that rounds away makes every difference zero and passes any map.
    ``x``, ``y`` and ``direction_matrices`` (the matrix view of each point's
    ``s``) are the points as arrays.
    """

    points: list
    h: float = 1e-4
    x: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)
    direction_matrices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise InvalidArgumentError(
                f"finite-difference step must be finite and positive, got {self.h!r}"
            )
        self.points = list(self.points)
        index = {}
        for _, _, s in self.points:
            index.setdefault(s, len(index))
        mats = np.array([s.matrix() for s in index], dtype=complex).reshape(-1, 2, 2)
        _check_directions(mats, "grid direction must square to -I")
        xy = np.array([(x, y) for x, y, _ in self.points], dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(xy)):
            raise InvalidArgumentError("non-finite grid coordinate")
        rounded = np.flatnonzero(np.any(xy + self.h == xy, axis=1))
        if rounded.size:
            x, y = xy[rounded[0]]
            raise InvalidArgumentError(
                f"finite-difference step {self.h!r} rounds away at the point ({x!r}, {y!r})"
            )
        self.x, self.y = xy[:, 0], xy[:, 1]
        self.direction_matrices = mats[np.array([index[s] for _, _, s in self.points], dtype=int)]

    @classmethod
    def random(cls, domain, n_points, n_directions, h=1e-4, seed=0):
        """Random grid with slice coordinates (including stencils) in the domain.

        Candidates are drawn in bulk and kept in order; on a single disk
        they are the same points as drawn one at a time.  Raises when fewer
        than one candidate in 1000 fits.
        """
        if n_points < 1 or n_directions < 1:
            raise InvalidArgumentError("need at least one point and one direction")
        rng = np.random.default_rng(seed)
        directions = [random_unit_imaginary(rng) for _ in range(n_directions)]
        centers = np.array([c for c, _ in domain.disks])
        radii = np.array([r for _, r in domain.disks])
        xs, ys = [], []
        found = drawn = 0
        while found < n_points:
            if drawn >= 1000 * n_points:
                raise InvalidArgumentError("domain too small for the stencil width")
            m = min(1000 * n_points - drawn, max(2 * (n_points - found), 64))
            # a single disk draws no index, so its candidates are the ones a
            # one-at-a-time draw gives
            k = rng.integers(len(radii), size=m)
            u = rng.uniform(size=(m, 2))
            z = centers[k] + ((0.8 * radii[k]) * np.sqrt(u[:, 0])) * np.exp(2j * np.pi * u[:, 1])
            x, y = z.real, z.imag
            stencil = np.stack([x + h, x - h, x, x]) + 1j * np.stack([y, y, y + h, y - h])
            keep = np.flatnonzero(np.all(domain.contains(stencil), axis=0))[: n_points - found]
            xs.append(x[keep])
            ys.append(y[keep])
            found += keep.size
            drawn += m
        points = zip(
            np.concatenate(xs).tolist(),
            np.concatenate(ys).tolist(),
            (directions[k % n_directions] for k in range(n_points)),
        )
        return cls(list(points), h=h)


@dataclass
class SliceReport:
    max_defect: float
    passed: bool
    worst_point: tuple = field(default=None)


def slice_regularity_report(G, grid, tol=1e-5):
    """Worst slice Cauchy-Riemann defect of ``G`` over a sample grid.

    One ``dbar_s`` evaluation covers the grid; the defect at a point is the
    2-norm of its operator value, and the first maximum is the worst point.
    """
    if not grid.points:
        raise InvalidArgumentError("empty sample grid")
    defects = np.linalg.norm(
        dbar_s(G, grid.x, grid.y, grid.direction_matrices, h=grid.h), 2, axis=(-2, -1)
    )
    worst = int(np.argmax(defects))
    max_defect = float(defects[worst])
    return SliceReport(max_defect, max_defect <= tol, grid.points[worst])


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
    """Stacked map ``Q -> F(Q)`` through the closed-form spectral calculus.

    For quaternion matrix views ``Q`` of shape (..., 2, 2), with
    ``x = Re(z1)`` and ``t = |Im q|``, returns ``F(s+)E+ + F(s-)E-`` where
    ``s+- = x +- it``, ``E+- = (I -+ i S)/2`` and ``S = (Q - x I)/t``
    (``E+- = I/2`` where ``t = 0``).  Only components are divided by ``t``,
    never a difference of values.  Coordinates below ``DEGENERATE_REL_TOL``
    times ``max(1, |q|)`` count as zero, as in ``spectrum``.  Raises
    DomainError when some ``s+-`` leaves ``F.domain``.  ``eval_spectral`` is
    the single-quaternion form.
    """

    def G(Q):
        Q = np.asarray(Q, dtype=complex)
        z1, z2 = Q[..., 0, 0], Q[..., 0, 1]
        # the coordinates that spectrum() treats as exactly zero
        eps = DEGENERATE_REL_TOL * np.maximum(1.0, np.hypot(np.abs(z1), np.abs(z2)))
        flat = np.abs(z2) <= eps
        z2 = np.where(flat, 0.0, z2)
        y = np.where(flat & (np.abs(z1.imag) <= eps), 0.0, z1.imag)
        t = np.hypot(y, np.abs(z2))
        s = np.stack([z1.real + 1j * t, z1.real - 1j * t])
        if F.domain is not None and not np.all(F.domain.contains(s)):
            raise DomainError("spectrum of q is outside the function domain")
        safe_t = np.where(t > 0.0, t, 1.0)
        alpha = y / safe_t
        beta = z2 / safe_t
        proj = np.empty((2,) + Q.shape, dtype=complex)
        proj[0, ..., 0, 0] = proj[1, ..., 1, 1] = 0.5 * (1.0 + alpha)
        proj[0, ..., 1, 1] = proj[1, ..., 0, 0] = 0.5 * (1.0 - alpha)
        proj[0, ..., 0, 1] = -0.5j * beta
        proj[1, ..., 0, 1] = 0.5j * beta
        proj[0, ..., 1, 0] = 0.5j * beta.conj()
        proj[1, ..., 1, 0] = -0.5j * beta.conj()
        values = F(s) @ proj
        return values[0] + values[1]

    return G
