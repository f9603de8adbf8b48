"""Joint quaternionic spectrum of commuting real pairs and the two-variable
surface-integral calculus.

Membership of a point ``z = (z1, z2)`` in the joint resolvent is decided by
the real pencil ``L(z, T) = T1^2 + T2^2 - 2 Re(z1) T1 - 2 Re(z2) T2 +
(|z1|^2 + |z2|^2) I``; the block operator ``[[T1, T2], [-T2, T1]] - Q(z)``
is invertible exactly when ``L(z, T)`` is.  The calculus integrates
``f(z) L^-2`` against the two-variable Cauchy kernel over a Euclidean
3-sphere.

The sphere ``z1 = c1 + R cos(eta) e^(i th1), z2 = c2 + R sin(eta) e^(i th2)``
is swept by ``eta in [0, pi/2]`` and two full angles.  Pulling the kernel
back gives the density

    (R^3 / (2 pi^2)) * f(z) * L^-2 * [ (conj(z1) - T1) e^(i th1) sin(eta) cos(eta)^2
                                     + (conj(z2) - T2) e^(i th2) sin(eta)^2 cos(eta) ]

integrated with uniform trapezoid nodes in the two periodic angles (which
is spectrally accurate there) and Gauss-Legendre nodes in ``eta``, where
the integrand is analytic but not periodic, so plain trapezoid would drop
to second order.  With the node scalars ``b_k = f(z) w phi_k`` (``w`` the
weight, ``phi_k`` the bracket's factor of ``conj(z_k) - T_k``) and ``a =
conj(z1) b1 + conj(z2) b2``, the sum regroups as ``sum a L^-2 - (sum b1 L^-2)
T1 - (sum b2 L^-2) T2``.  ``L`` is real and sees a node only through ``Re z1``,
``Re z2`` and ``|z1|^2 + |z2|^2``, so the nodes at ``th`` and ``2 pi - th`` on
either periodic axis share their pencil (the center is real and the
resolution even): the scalars are folded onto the ``res/2 + 1`` distinct
angles per axis and each distinct pencil is solved once, in real arithmetic.
``f`` is still evaluated at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    GeometryError,
    InvalidArgumentError,
    NumericError,
)
from .func_model import AnalyticScalar
from .quat_core import cvec_star, mat_norm
from .real_op import as_real_operator

#: Residual bound, number of draws of ``mu`` and generator seed of
#: ``joint_spectrum_points``; smallest pencil margin of the enclosure sweep;
#: largest imaginary residue of a surface value, relative to its scale.
_JOINT_TOL = 1e-8
_JOINT_DRAWS = 8
_JOINT_SEED = 7
_MARGIN_FLOOR = 1e-10
_IMAG_REL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CommutingPair:
    """Pair of same-size commuting real matrices, held as read-only copies.

    Raises NumericError when a product of the pair overflows, as the pencil
    ``L`` would.  Keeps the spectral norms of ``T1`` and ``T2`` that scale
    its commutator check, and compares and hashes by identity, as each pair
    keeps its own spectrum."""

    t1: np.ndarray
    t2: np.ndarray
    #: The ``joint_spectrum_points`` result, once computed.
    _points: list = field(default_factory=list, init=False, repr=False, compare=False)
    _norms: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        t1 = as_real_operator(self.t1).copy()
        t2 = as_real_operator(self.t2).copy()
        t1.flags.writeable = t2.flags.writeable = False
        if t1.shape != t2.shape:
            raise InvalidArgumentError("pair members must have equal shape")
        with np.errstate(over="ignore", invalid="ignore"):
            commutator = t1 @ t2 - t2 @ t1
            finite = np.isfinite(commutator).all() and np.isfinite(t1 @ t1 + t2 @ t2).all()
        if not finite:
            raise NumericError("products of the pair overflow")
        norms = (mat_norm(t1), mat_norm(t2))
        if mat_norm(commutator) > 1e-12 * max(1.0, norms[0] * norms[1]):
            raise InvalidArgumentError("matrices do not commute within tolerance")
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        object.__setattr__(self, "_norms", norms)

    @property
    def dim(self):
        return self.t1.shape[0]


def pair_q_matrix(pair):
    """Block operator ``[[T1, T2], [-T2, T1]]`` on the doubled complexification."""
    t1 = pair.t1.astype(complex)
    t2 = pair.t2.astype(complex)
    return np.block([[t1, t2], [-t2, t1]])


def joint_pencil(pair, z):
    """The real pencil ``L(z, T)`` whose invertibility defines the joint resolvent.

    Either coordinate of ``z = (z1, z2)`` may be an array; the pencils then
    stack along the leading axes of their broadcast shape.
    """
    z1 = np.asarray(z[0], dtype=complex)[..., None, None]
    z2 = np.asarray(z[1], dtype=complex)[..., None, None]
    return (
        pair.t1 @ pair.t1
        + pair.t2 @ pair.t2
        - (2.0 * z1.real) * pair.t1
        - (2.0 * z2.real) * pair.t2
        + (np.abs(z1) ** 2 + np.abs(z2) ** 2) * np.eye(pair.dim)
    )


def _pair_scale(pair):
    return max(1.0, pair._norms[0] ** 2 + pair._norms[1] ** 2)


def joint_resolvent_margin(pair, z):
    """Normalized smallest singular value of the joint pencil at ``z``.

    Depends on ``z`` only through ``Re z1``, ``Re z2`` and ``|z1|^2 + |z2|^2``,
    so it is invariant under conjugating either coordinate.  Array
    coordinates give an array of margins; scalar ones give a float.
    """
    sv = np.linalg.svd(joint_pencil(pair, z), compute_uv=False)[..., -1] / _pair_scale(pair)
    return float(sv) if sv.ndim == 0 else sv


def joint_membership_margin(pair, z):
    """Margin for membership of ``Q(z)`` in the quaternionic joint resolvent.

    Takes the minimum of the pencil margins at ``z`` and at its adjoint
    image ``z* = (conj(z1), -z2)``: the block operators at ``z`` and ``z*``
    are both invertible exactly when both pencils are, and the resulting
    membership set is adjoint invariant.
    """
    return min(joint_resolvent_margin(pair, z), joint_resolvent_margin(pair, cvec_star(z)))


def joint_block_pencil(pair, z):
    """The 2n x 2n block operator ``[[T1, T2], [-T2, T1]] - Q(z)``."""
    z1, z2 = complex(z[0]), complex(z[1])
    q = np.array([[z1, z2], [-z2.conjugate(), z1.conjugate()]])
    return pair_q_matrix(pair) - np.kron(q, np.eye(pair.dim))


def joint_spectrum_points(pair):
    """Joint eigenvalue pairs of a simultaneously diagonalizable pair.

    Diagonalizes a random combination ``T1 + mu T2``, reads both eigenvalues
    off all shared eigenvectors at once by Rayleigh quotients, and verifies
    the residuals to 1e-8; a fresh ``mu`` is drawn on collisions, up to 8
    draws seeded with 7.  Returned points are sorted, each differs from all
    others, and each lies in the zero set of the joint resolvent margin.  A
    successful result is kept on the pair, so later calls return a copy.
    """
    if pair._points:
        return list(pair._points)
    rng = np.random.default_rng(_JOINT_SEED)
    t = np.stack([pair.t1, pair.t2])
    scale = max(1.0, *pair._norms)
    last_err = None
    for _ in range(_JOINT_DRAWS):
        mu = complex(rng.standard_normal(), rng.standard_normal())
        try:
            _, vecs = np.linalg.eig(t[0] + mu * t[1])
        except np.linalg.LinAlgError as exc:
            last_err = str(exc)
            continue
        nv = np.linalg.norm(vecs, axis=0)
        tv = t @ vecs
        lam = (vecs.conj() * tv).sum(axis=1) / (nv * nv)
        res = np.max(np.linalg.norm(tv - lam[:, None] * vecs, axis=1), axis=0) / (scale * nv)
        bad = np.flatnonzero(res > _JOINT_TOL)
        if bad.size:
            last_err = f"shared-eigenvector residual {res[bad[0]]:.3e}"
            continue
        unique = []
        points = zip(lam[0].tolist(), lam[1].tolist())
        for p in sorted(points, key=lambda w: (w[0].real, w[0].imag, w[1].real, w[1].imag)):
            if all(abs(p[0] - u[0]) + abs(p[1] - u[1]) > 10 * _JOINT_TOL * scale for u in unique):
                unique.append(p)
        margins = joint_resolvent_margin(pair, np.array(unique).T)
        for p, m in zip(unique, margins):
            if m > _JOINT_TOL:
                raise NumericError(f"candidate joint eigenvalue {p} misses the pencil zero set")
        pair._points.extend(unique)
        return list(unique)
    raise NumericError(f"could not separate joint eigenvalues: {last_err}")


# ---------------------------------------------------------------------------
# two-variable analytic functions


class TwoVariableFunction:
    """Analytic map C^2 -> C from a small closed family."""

    def __call__(self, z1, z2):
        raise NotImplementedError


class TwoVariablePolynomial(TwoVariableFunction):
    """Polynomial ``sum c[a, b] z1^a z2^b`` with coefficient grid ``c``."""

    def __init__(self, coeffs):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        if coeffs.ndim != 2 or coeffs.size == 0:
            raise InvalidArgumentError("coefficients must form a non-empty 2-D grid")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidArgumentError("non-finite coefficient")
        self.coeffs = coeffs

    @classmethod
    def monomial(cls, a, b):
        c = np.zeros((a + 1, b + 1), dtype=complex)
        c[a, b] = 1.0
        return cls(c)

    def __call__(self, z1, z2):
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        out = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for row in self.coeffs[::-1]:
            inner = np.zeros_like(out)
            for c in row[::-1]:
                inner = inner * z2 + c
            out = out * z1 + inner
        return out


class SeparableProduct(TwoVariableFunction):
    """Product ``g(z1) * h(z2)`` of one-variable closed-union scalars."""

    def __init__(self, g, h):
        if not isinstance(g, AnalyticScalar) or not isinstance(h, AnalyticScalar):
            raise InvalidArgumentError("factors must be AnalyticScalar")
        self.g = g
        self.h = h

    def __call__(self, z1, z2):
        return np.asarray(self.g(z1), dtype=complex) * np.asarray(self.h(z2), dtype=complex)


# ---------------------------------------------------------------------------
# surface grid and the integral


@dataclass(frozen=True)
class SphereGrid:
    """Product-angle grid on a Euclidean 3-sphere with a real center.

    ``resolution`` counts nodes per angle; even counts (>= 4) keep the
    periodic grids closed under the reflections that pair conjugate nodes.
    """

    center: tuple
    radius: float
    resolution: int = 48

    def __post_init__(self):
        c1, c2 = float(self.center[0]), float(self.center[1])
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise InvalidArgumentError("non-finite sphere center")
        object.__setattr__(self, "center", (c1, c2))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise InvalidArgumentError("sphere radius must be positive")
        if self.resolution < 4 or self.resolution % 2:
            raise InvalidArgumentError("resolution must be an even integer >= 4")

    def with_resolution(self, resolution):
        return SphereGrid(self.center, self.radius, resolution)


def _reach(p, center):
    """Farthest distance from ``center`` of the singular 2-sphere of the joint
    eigenvalue ``p = (a, b)``: centered at ``(Re a, Re b)``, radius ``|(Im a, Im b)|``."""
    return math.hypot(p[0].real - center[0], p[1].real - center[1]) + math.hypot(
        p[0].imag, p[1].imag
    )


def enclosing_sphere_grid(pair, resolution=48, margin=1.0):
    """Sphere grid enclosing the joint spectral set with the given margin.

    The singular set of the joint pencil is a union of 2-spheres, one per
    joint eigenvalue; the returned sphere covers all of them.  A margin
    that is not positive raises InvalidArgumentError.
    """
    if not margin > 0.0:
        raise InvalidArgumentError("margin must be positive")
    points = joint_spectrum_points(pair)
    c1 = (min(p[0].real for p in points) + max(p[0].real for p in points)) / 2.0
    c2 = (min(p[1].real for p in points) + max(p[1].real for p in points)) / 2.0
    reach = max(_reach(p, (c1, c2)) for p in points)
    return SphereGrid((c1, c2), reach + margin, resolution)


def _check_enclosure(pair, grid):
    try:
        points = joint_spectrum_points(pair)
    except NumericError:
        points = ()
    c1, c2 = grid.center
    for p in points:
        need = _reach(p, grid.center)
        if need >= grid.radius:
            raise GeometryError(
                f"joint spectral sphere of {p} reaches {need:g}, "
                f"outside the surface radius {grid.radius:g}"
            )
    # coarse singular-value sweep guards the defective / fallback cases
    coarse = 8
    eta = (np.arange(1, coarse) * (math.pi / 2.0)) / coarse
    th = 2.0 * np.pi * np.arange(coarse) / coarse
    ee, a1, a2 = np.meshgrid(eta, th, th, indexing="ij")
    z1 = c1 + grid.radius * np.cos(ee) * np.exp(1j * a1)
    z2 = c2 + grid.radius * np.sin(ee) * np.exp(1j * a2)
    worst = float(np.min(joint_resolvent_margin(pair, (z1, z2))))
    if worst < _MARGIN_FLOOR:
        raise GeometryError("joint pencil is nearly singular on the surface")
    return worst


def _fold(x):
    """Sum each node of the last two (periodic) axes with its mirror images
    ``2 pi - angle``; the unpaired angles ``0`` and ``pi`` are kept once."""
    h = x.shape[-1] // 2 + 1
    out = x[..., :h, :h].copy()
    out[..., 1:-1, :] += x[..., : h - 1 : -1, :h]
    out[..., :, 1:-1] += x[..., :h, : h - 1 : -1]
    out[..., 1:-1, 1:-1] += x[..., : h - 1 : -1, : h - 1 : -1]
    return out


#: Surface nodes per batch of ``eta`` rows; bounds the solver's working memory.
_SURFACE_CHUNK = 65536


def martinelli_calculus(f, pair, grid):
    """Two-variable calculus ``f(T1, T2)`` by surface quadrature.

    Evaluates ``f`` at every node of the sphere grid, solves each distinct
    real pencil once for its mirror class of nodes (see the module
    docstring), and returns the real restriction of the sum with the
    diagnostics ``{"nodes", "imag_defect", "min_margin"}``.  Polynomials
    reproduce ``sum c[a,b] T1^a T2^b`` up to grid error.  Raises
    GeometryError for insufficient enclosure, and AccuracyError, carrying
    the complex value and the diagnostics, when the imaginary residue
    exceeds 1e-6 relative to scale.
    """
    if not isinstance(f, TwoVariableFunction):
        raise InvalidArgumentError("f must be a TwoVariableFunction")
    min_margin = _check_enclosure(pair, grid)

    n = pair.dim
    c1, c2 = grid.center
    radius = grid.radius
    res = grid.resolution

    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(res)
    eta = (math.pi / 4.0) * (gl_nodes + 1.0)
    w_eta = (math.pi / 4.0) * gl_weights * (2.0 * math.pi / res) ** 2
    u = np.exp(2j * np.pi * np.arange(res) / res)
    half = res // 2 + 1  # the distinct angles 0 .. pi of each periodic axis

    rows = max(1, _SURFACE_CHUNK // (res * res))
    sums = np.zeros((6, n * n))  # Re and Im of sum (a, b1, b2) L^-2, in real matmuls
    for start in range(0, res, rows):
        sl = slice(start, start + rows)
        ce = np.cos(eta[sl])[:, None, None]
        se = np.sin(eta[sl])[:, None, None]
        z1 = c1 + radius * ce * u[:, None]
        z2 = c2 + radius * se * u
        cw = np.asarray(f(z1, z2), dtype=complex) * w_eta[sl][:, None, None]
        b1 = cw * (u[:, None] * se * ce * ce)
        b2 = cw * (u * se * se * ce)
        a = z1.conjugate() * b1 + z2.conjugate() * b2
        coeffs = _fold(np.stack(np.broadcast_arrays(a, b1, b2))).reshape(3, -1)

        inv = np.linalg.solve(joint_pencil(pair, (z1[:, :half], z2[..., :half])), np.eye(n))
        sums += np.concatenate([coeffs.real, coeffs.imag]) @ (inv @ inv).reshape(-1, n * n)

    s = (sums[:3] + 1j * sums[3:]).reshape(3, n, n)
    value = (s[0] - s[1] @ pair.t1 - s[2] @ pair.t2) * (radius**3 / (2.0 * math.pi**2))

    scale = max(1.0, float(np.linalg.norm(value.real)))
    imag_defect = float(np.linalg.norm(value.imag))
    diagnostics = {"nodes": res**3, "imag_defect": imag_defect, "min_margin": min_margin}
    if imag_defect > _IMAG_REL_TOL * scale:
        raise AccuracyError(
            f"imaginary residue {imag_defect:.3e} exceeds {_IMAG_REL_TOL:g} x scale; "
            "refine the grid or check the symmetry of f",
            value,
            diagnostics,
        )
    return value.real.copy(), diagnostics
