"""Numerical slice-regularity checks and slice-to-global reconstruction.

A map on quaternions is slice regular when the one-sided Cauchy-Riemann
operator ``(1/2)(d/dx + R_s d/dy)`` annihilates it on every slice
``x*I + y*s`` through a unit purely imaginary ``s`` (right multiplication).
Values produced by the spectral or contour calculus of stem functions pass
this check; the reverse construction fits a polynomial on one slice and
rebuilds the stem.

The maps ``G`` under test act on stacks: they take quaternion matrix views
of shape (..., 2, 2) and return values of the same shape.  A check
evaluates ``G`` once on the circle nodes of its whole sample grid.
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
    I,
    J,
    L,
    Quaternion,
    _norm_2x2,
    as_quaternion,
    axial_decompose,
    random_unit_imaginary,
    spectrum,
)

_IDENT2 = np.eye(2, dtype=complex)

#: Nodes and default radius of the circle rule in ``dbar_s``: it reaches
#: roundoff on the ``exp``, ``sin`` and ``exp(2z) sin(z)`` stems over the
#: disk of radius 2.
_NODES, _RADIUS = 16, 0.25


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


@dataclass
class SliceSampleGrid:
    """Evaluation points ``(x, y, s)`` and the ``radius`` of their circles
    (0.25 unless ``random`` fits it to a domain).

    ``x``, ``y`` and ``direction_matrices`` (the matrix view of each point's
    ``s``) are the points as arrays.
    """

    points: list
    radius: float = field(init=False, default=_RADIUS)
    x: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)
    direction_matrices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = list(self.points)
        index = {}
        for _, _, s in self.points:
            index.setdefault(s, len(index))
        mats = np.array([s.matrix() for s in index], dtype=complex).reshape(-1, 2, 2)
        _check_directions(mats, "grid direction must square to -I")
        xy = np.array([(x, y) for x, y, _ in self.points], dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(xy)):
            raise InvalidArgumentError("non-finite grid coordinate")
        self.x, self.y = xy[:, 0], xy[:, 1]
        self.direction_matrices = mats[np.array([index[s] for _, _, s in self.points], dtype=int)]

    @classmethod
    def random(cls, domain, n_points, n_directions, seed=0):
        """Random grid whose circles lie inside the domain.

        Each point lies within ``0.8 R`` of its disk's center, and the circle
        radius is ``min(0.25, R_min / 8)`` for the smallest disk radius, so
        every circle stays inside its own disk.  Points are drawn in bulk.
        """
        if n_points < 1 or n_directions < 1:
            raise InvalidArgumentError("need at least one point and one direction")
        rng = np.random.default_rng(seed)
        directions = [random_unit_imaginary(rng) for _ in range(n_directions)]
        centers = np.array([c for c, _ in domain.disks])
        radii = np.array([r for _, r in domain.disks])
        # a single disk draws no index, so its points are the ones a
        # one-at-a-time draw gives
        k = rng.integers(len(radii), size=n_points)
        u = rng.uniform(size=(n_points, 2))
        z = centers[k] + ((0.8 * radii[k]) * np.sqrt(u[:, 0])) * np.exp(2j * np.pi * u[:, 1])
        points = zip(
            z.real.tolist(),
            z.imag.tolist(),
            (directions[k % n_directions] for k in range(n_points)),
        )
        grid = cls(list(points))
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
    if not grid.points:
        raise InvalidArgumentError("empty sample grid")
    defects = _norm_2x2(_circle_rule(G, grid.x, grid.y, grid.direction_matrices, grid.radius))
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
