"""Numerical slice-regularity checks and slice-to-global reconstruction.

A map on quaternions is slice regular when the one-sided Cauchy-Riemann
operator ``(1/2)(d/dx + R_s d/dy)`` annihilates it on every slice
``x*I + y*s`` through a unit purely imaginary ``s`` (right multiplication).
Values produced by the spectral or contour calculus of stem functions pass
this check; the reverse construction fits a polynomial on one slice and
rebuilds the stem.

The maps ``G`` under test, and the one ``extend_from_slice`` samples, act
on stacks: they take quaternion matrix views of shape (..., 2, 2) and return
values of the same shape.  A check or a reconstruction calls ``G`` once, on
all its nodes; sample grids keep their points in arrays.
``eval_spectral`` takes stacks as they are, so ``functools.partial(
eval_spectral, F)`` is the spectral calculus of ``F`` in this form;
``quaternionwise`` lifts a map on single quaternions to it.  A non-finite
result raises NumericError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidArgumentError, NumericError
from .func_model import QuaternionPolynomial
from .quat_core import (
    H_MEMBERSHIP_REL_TOL,
    L,
    Quaternion,
    _norm_2x2,
    as_quaternion,
    axial_decompose,
    skew_conjugate,
    spectrum,
)

_IDENT2 = np.eye(2, dtype=complex)

#: Nodes and default radius of the circle rule in ``dbar_s``: it reaches
#: roundoff on the ``exp``, ``sin`` and ``exp(2z) sin(z)`` stems over the
#: disk of radius 2.
_NODES, _RADIUS = 16, 0.25


def _check_directions(mats, message):
    if np.any(np.linalg.norm(mats @ mats + _IDENT2, axis=(-2, -1)) > 1e-12):
        raise InvalidArgumentError(message)


def quaternionwise(g):
    """Lift a map on single quaternions (Quaternion or 2x2 values) to stacks."""

    def G(Q):
        Q = np.asarray(Q, dtype=complex)
        values = [g(Quaternion(*m[0])) for m in Q.reshape(-1, 2, 2)]
        values = [v.matrix() if isinstance(v, Quaternion) else v for v in values]
        return np.asarray(values, dtype=complex).reshape(Q.shape)

    return G


def dbar_s(G, x, y, s, radius=_RADIUS):
    """Mean of ``(1/2) [dG/dx + (dG/dy) s]`` over the disk of radius
    ``r = radius`` about ``p = x*I + y*s``.

    Green's formula and the N = 16 node trapezoid rule on the boundary give
    ``(1/(N r)) sum_{k<N/2} (G(p + r e_k) - G(p - r e_k)) (cos t_k + sin t_k s)``:
    a regular map aliases only at order ``r^N``, a constant reads exactly
    zero and a linear map its exact value.  ``x`` and ``y`` are numbers or
    arrays of one shape ``P``; ``s`` is a unit purely imaginary Quaternion
    or an array of matrix views of such, shape ``P + (2, 2)``, the shape of
    the result.  ``G`` is called once, on all circle nodes.  A radius that
    rounds away (``x + r == x``), where every difference would read zero,
    raises InvalidArgumentError.
    """
    S = s.matrix() if isinstance(s, Quaternion) else np.asarray(s, dtype=complex)
    _check_directions(S, "s must satisfy s*s = -I")
    return _circle_rule(G, x, y, S, radius)


def _circle_rule(G, x, y, S, radius):
    """``dbar_s`` for direction matrices ``S`` already known to square to -I."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rounded = np.flatnonzero((x + radius == x) | (y + radius == y))
    if rounded.size:
        px, py = float(x.flat[rounded[0]]), float(y.flat[rounded[0]])
        raise InvalidArgumentError(f"circle radius {radius} rounds away at the point ({px}, {py})")
    half = _NODES // 2
    # the first half of the nodes, per call: np.cos and np.sin run at import
    # would add 0.3 MB to the peak memory of every process
    t = 2.0 * np.pi * np.arange(half) / _NODES
    cos_sin = np.array([np.cos(t), np.sin(t)])
    dx, dy = radius * cos_sin.reshape((2, half) + (1,) * x.ndim)
    px = np.concatenate([x + dx, x - dx])
    py = np.concatenate([y + dy, y - dy])
    nodes = py[..., None, None] * S
    nodes[..., 0, 0] += px
    nodes[..., 1, 1] += px
    values = G(nodes)
    diff = values[:half] - values[half:]
    gx, gy = (cos_sin @ diff.reshape(half, -1)).reshape((2,) + diff.shape[1:])
    out = (gx + gy @ S) / (_NODES * radius)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite result in the slice Cauchy-Riemann circle rule")
    return out


class SliceSampleGrid:
    """Evaluation points ``x*I + y*s`` and the ``radius`` of their circles
    (0.25 unless ``random`` fits it to a domain), as arrays ``x``, ``y`` and
    ``direction_matrices`` (the matrix view of each ``s``).  The constructor
    takes ``(x, y, s)`` tuples and checks every direction.
    """

    radius = _RADIUS

    def __init__(self, points):
        points = list(points)
        xy = np.array([(x, y) for x, y, _ in points], dtype=float).reshape(-1, 2)
        mats = np.array([s.matrix() for _, _, s in points], dtype=complex).reshape(-1, 2, 2)
        _check_directions(mats, "grid direction must square to -I")
        self._store(xy[:, 0], xy[:, 1], mats)

    def _store(self, x, y, direction_matrices):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidArgumentError("non-finite grid coordinate")
        self.x, self.y, self.direction_matrices = x, y, direction_matrices

    @property
    def points(self):
        """The points as ``(x, y, s)`` tuples, with ``s`` a Quaternion."""
        directions = (Quaternion(*m[0]) for m in self.direction_matrices)
        return list(zip(self.x.tolist(), self.y.tolist(), directions))

    @classmethod
    def random(cls, domain, n_points, n_directions, seed=0):
        """Random grid whose circles lie inside the domain.

        Each point lies within ``0.8 R`` of its disk's center, and the circle
        radius is ``min(0.25, R_min / 8)`` for the smallest disk radius, so
        every circle stays inside its own disk.  Point ``k`` takes direction
        ``k mod n_directions``; the directions, and on one disk the points, are
        those of one-at-a-time draws (``quat_core.random_unit_imaginary``).
        """
        if n_points < 1 or n_directions < 1:
            raise InvalidArgumentError("need at least one point and one direction")
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n_directions, 3))
        # np.linalg.norm's rounding on one vector (a BLAS dot); its axis=1 form differs
        v /= np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
        # the coordinates of s = (0, v0, v1, v2), with make_quaternion's +0.0
        # real part (1j * v0 gives -0.0), and their matrix views
        z1, z2 = np.column_stack([np.zeros(n_directions), v]).view(complex).T
        mats = np.array([[z1, z2], [-z2.conj(), z1.conj()]]).transpose(2, 0, 1)
        _check_directions(mats, "grid direction must square to -I")
        centers = np.array([c for c, _ in domain.disks])
        radii = np.array([r for _, r in domain.disks])
        # a single disk draws no index, so its points are the ones a
        # one-at-a-time draw gives
        k = rng.integers(len(radii), size=n_points)
        u = rng.uniform(size=(n_points, 2))
        z = centers[k] + ((0.8 * radii[k]) * np.sqrt(u[:, 0])) * np.exp(2j * np.pi * u[:, 1])
        grid = cls.__new__(cls)
        grid._store(z.real, z.imag, mats[np.arange(n_points) % n_directions])
        grid.radius = min(_RADIUS, float(radii.min()) / 8.0)
        return grid


@dataclass
class SliceReport:
    max_defect: float
    passed: bool
    worst_point: tuple = field(default=None)


def slice_regularity_report(G, grid, tol=1e-5):
    """Worst slice Cauchy-Riemann defect of ``G`` over a sample grid.

    One ``dbar_s`` pass covers the grid, whose directions are checked once,
    when it is built; the defect at a point is the 2-norm of its operator
    value (in closed form, ``quat_core._norm_2x2``), an absolute measure,
    and the first maximum is the worst point.
    """
    if not grid.x.size:
        raise InvalidArgumentError("empty sample grid")
    defects = _norm_2x2(_circle_rule(G, grid.x, grid.y, grid.direction_matrices, grid.radius))
    worst = int(np.argmax(defects))
    max_defect = float(defects[worst])
    s = Quaternion(*grid.direction_matrices[worst, 0])
    point = (float(grid.x[worst]), float(grid.y[worst]), s)
    return SliceReport(max_defect, max_defect <= tol, point)


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


def extend_from_slice(G, center=0.0, radius=1.0, degree=16):
    """Rebuild a stem polynomial from samples of a slice-regular map on the J-slice.

    Calls the stack map ``G`` once, at ``4 (degree + 1)`` points ``x*I + y*J``
    on a circle of the given (real) center and radius, requires quaternion
    values (to ``as_quaternion``'s tolerance), fits complex polynomials of the
    given degree to their J-slice parts ``g, h`` (as in ``split_slice``) by FFT
    interpolation, and reassembles the quaternion-coefficient polynomial
    whose extension restricts to the map.
    """
    center = float(center)
    n = 4 * (degree + 1)
    zs = center + radius * np.exp(2j * np.pi * np.arange(n) / n)
    nodes = np.zeros((n, 2, 2), dtype=complex)
    nodes[:, 0, 0], nodes[:, 1, 1] = zs, zs.conj()
    values = np.asarray(G(nodes), dtype=complex)
    sk = skew_conjugate(values)
    tol = H_MEMBERSHIP_REL_TOL * np.maximum(1.0, np.linalg.norm(values, axis=(-2, -1)))
    if np.any(np.linalg.norm(0.5 * (values - sk), axis=(-2, -1)) > tol):
        raise InvalidArgumentError("slice value is not a quaternion within tolerance")
    # the projection's first row (z1, z2) = (x0 + i x1, x2 + i x3): g = z1, h = x3 + i x2
    z1, z2 = (0.5 * (values + sk))[:, 0].T
    g_coeffs = _fft_poly_fit(z1, center, radius, degree)
    h_coeffs = _fft_poly_fit(z2.imag + 1j * z2.real, center, radius, degree)
    coeffs = zip(g_coeffs, h_coeffs)
    return QuaternionPolynomial(Quaternion(g, 0.0) + L * Quaternion(h, 0.0) for g, h in coeffs)
