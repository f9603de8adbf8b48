"""Contour evaluation of matrix functions at quaternions.

The Cauchy-integral route ``(1/2 pi i) * integral of F(z) (zI - q)^-1 dz``
is discretized by the trapezoid rule on positively oriented circles, which
is spectrally accurate for analytic integrands on closed curves.  The
resolvent is evaluated in the closed spectral form ``(z - s+)^-1 E+ +
(z - s-)^-1 E-`` rather than by per-node inversion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyWarning,
    DomainError,
    GeometryError,
    InvalidArgumentError,
    NumericError,
)
from .func_model import eval_spectral
from .quat_core import Quaternion, spectral_projections, spectrum

_IDENT2 = np.eye(2, dtype=complex)

#: Truncation rule of ``series_eval`` and divergence rule of ``taylor_recompose``.
_SERIES_REL_FLOOR = 1e-16
_SERIES_STALL = 3
_TAYLOR_GROW_LIMIT = 5


@dataclass(frozen=True)
class Circle:
    """Positively oriented circle."""

    center: complex
    radius: float


@dataclass(frozen=True)
class Contour:
    """Finite union of disjoint positively oriented circles."""

    circles: tuple


@dataclass
class QuadratureConfig:
    """Node-doubling trapezoid configuration; node counts are powers of two."""

    nodes_per_circle: int = 1024
    max_nodes: int = 2**18
    rel_tol: float = 1e-10

    def __post_init__(self):
        for n in (self.nodes_per_circle, self.max_nodes):
            if n < 16 or n & (n - 1):
                raise InvalidArgumentError("node counts must be powers of two >= 16")
        if self.max_nodes < self.nodes_per_circle:
            raise InvalidArgumentError("max_nodes below starting node count")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0.0):
            raise InvalidArgumentError("rel_tol must be finite and non-negative")


@dataclass
class QuadratureDiagnostics:
    nodes_per_circle: int
    est_error: float
    converged: bool


def _compensated_sum(values):
    """Sum along axis 0 by a cascade of pairwise TwoSum steps whose exact
    rounding errors are added back at the end: as accurate as a sum in twice
    the working precision (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26,
    2005).  Deterministic order."""
    s = np.asarray(values)
    err = np.zeros(s.shape[1:], dtype=s.dtype)
    while s.shape[0] > 1:
        half = s.shape[0] // 2
        a, b = s[:half], s[half : 2 * half]
        t = a + b
        bb = t - a
        err += ((a - (t - bb)) + (b - bb)).sum(axis=0)
        s = np.concatenate((t, s[2 * half :])) if s.shape[0] % 2 else t
    return s[0] + err


def _trapezoid_doubling(circle_sum, circles, cfg=None):
    """Node-doubling trapezoid rule for ``(1/2 pi i)`` times a contour
    integral over circles; ``circle_sum(circle, nodes, offset)`` returns the
    sum of ``integrand(z) dz/dtheta`` over the angles ``2 pi (k + offset) /
    nodes`` of one circle, before the ``1/nodes`` weight.

    Each doubling evaluates only the new midpoints and adds them to the
    running node sum (Trefethen & Weideman, SIAM Review 56, 2014).  Doubling
    stops when two successive totals agree to ``cfg.rel_tol`` or at
    ``cfg.max_nodes`` (then an AccuracyWarning is issued).  Returns the value
    and its QuadratureDiagnostics; a non-finite total raises NumericError.
    """
    cfg = cfg if cfg is not None else QuadratureConfig()

    def level_sum(nodes, offset):
        return sum(circle_sum(c, nodes, offset) for c in circles)

    nodes = cfg.nodes_per_circle
    running = level_sum(nodes, 0.0)
    prev, diff = None, math.inf
    while True:
        cur = running / nodes
        if not np.all(np.isfinite(cur)):
            raise NumericError(f"quadrature total is not finite at {nodes} nodes/circle")
        if prev is not None:
            diff = float(np.linalg.norm(cur - prev))
            if diff <= cfg.rel_tol * max(1.0, float(np.linalg.norm(cur))):
                return cur, QuadratureDiagnostics(nodes, diff, True)
        if nodes * 2 > cfg.max_nodes:
            break
        prev = cur
        running = running + level_sum(nodes, 0.5)
        nodes *= 2
    warnings.warn(
        f"quadrature stalled at {nodes} nodes/circle (last change {diff:.3e})",
        AccuracyWarning,
        stacklevel=3,
    )
    return cur, QuadratureDiagnostics(nodes, diff, False)


def enclosing_circles(points, margin, real_centers=False):
    """Conjugate-symmetric disjoint circles enclosing points with clearance.

    Starts from one circle per (conjugate-symmetrized) point, centered at
    the point with radius ``margin``, or centered on the real axis when
    ``real_centers`` is set; overlapping clusters merge into a single
    real-centered circle keeping the same clearance.
    """
    if not margin > 0.0:
        raise InvalidArgumentError("margin must be positive")
    pts = []
    for p in points:
        p = complex(p)
        pts.append(p)
        if p.imag != 0.0:
            pts.append(p.conjugate())
    # one (circle, supporting points) pair per distinct point
    groups = []
    for p in dict.fromkeys(pts):
        if real_centers:
            groups.append(([p], Circle(complex(p.real, 0.0), abs(p.imag) + margin)))
        else:
            groups.append(([p], Circle(p, margin)))

    def overlap(c1, c2):
        return abs(c1.center - c2.center) <= (c1.radius + c2.radius) * (1.0 + 1e-12)

    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if overlap(groups[i][1], groups[j][1]):
                    cluster = groups[i][0] + groups[j][0]
                    center = complex((min(p.real for p in cluster) + max(p.real for p in cluster)) / 2.0)
                    radius = max(abs(p - center) for p in cluster) + margin
                    groups[i] = (cluster, Circle(center, radius))
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    return [c for _, c in groups]


def build_contour(spectra, domain, margin):
    """Conjugate-symmetric contour around spectral points inside a domain.

    Raises GeometryError when a point lacks clearance ``> margin`` inside the
    domain or a merged circle escapes it.
    """
    spectra = [complex(s) for s in spectra]
    if not spectra:
        raise InvalidArgumentError("no spectral points given")
    for s in spectra:
        if domain.clearance(s) <= margin:
            raise GeometryError(f"point {s} lacks clearance {margin} inside the domain")
    circles = enclosing_circles(spectra, margin)
    for c in circles:
        if domain.clearance(c.center) <= c.radius:
            raise GeometryError("enclosing circle escapes the domain")
    return Contour(tuple(circles))


def _check_enclosed(points, circles):
    for s in points:
        if max(c.radius - abs(complex(s) - c.center) for c in circles) <= 0.0:
            raise GeometryError(f"spectral point {s} is not strictly inside the contour")


def _check_contour_in_domain(F, gamma):
    if F.domain is None:
        return
    for c in gamma.circles:
        if F.domain.clearance(c.center) <= c.radius:
            raise DomainError("contour is not inside the function domain")


def cauchy_transform(F, q, gamma, cfg=None, return_diagnostics=False):
    """Contour-integral value of ``F`` at ``q``.

    Doubles the node count per circle until two successive totals agree to
    ``cfg.rel_tol`` or ``cfg.max_nodes`` is reached (then an AccuracyWarning
    is issued).  A non-finite total raises NumericError.  For stem functions
    the value coincides with the closed spectral form.
    """
    if not isinstance(q, Quaternion):
        raise InvalidArgumentError("cauchy_transform expects a Quaternion")
    sp = spectrum(q)
    _check_enclosed((sp.s_plus, sp.s_minus), gamma.circles)
    _check_contour_in_domain(F, gamma)
    e_plus, e_minus = spectral_projections(q)

    def circle_sum(c, nodes, offset):
        unit = np.exp(2j * np.pi * (np.arange(nodes) + offset) / nodes)
        z = c.center + c.radius * unit
        resolvent = (
            (1.0 / (z - sp.s_plus))[:, None, None] * e_plus
            + (1.0 / (z - sp.s_minus))[:, None, None] * e_minus
        )
        return _compensated_sum((F(z) @ resolvent) * (c.radius * unit)[:, None, None])

    value, diag = _trapezoid_doubling(circle_sum, gamma.circles, cfg)
    return (value, diag) if return_diagnostics else value


def cauchy_derivative(F, order, q, gamma, cfg=None, return_diagnostics=False):
    """Contour value of the order-th analytic derivative of ``F`` at ``q``."""
    if order < 0:
        raise InvalidArgumentError("derivative order must be >= 0")
    G = F
    for _ in range(order):
        G = G.derivative()
    return cauchy_transform(G, q, gamma, cfg, return_diagnostics)


def series_eval(coeffs, q, radius):
    """Sum ``a_n q^n`` for quaternion coefficients inside the convergence disk.

    Truncates after 3 consecutive terms fall below 1e-16 relative to the
    partial sum; requires ``norm(q) < radius``.
    """
    if q.norm() >= radius:
        raise DomainError(f"norm(q) = {q.norm():g} is not below the radius {radius:g}")
    total = np.zeros((2, 2), dtype=complex)
    power = Quaternion(1.0, 0.0)
    small = 0
    for a in coeffs:
        term = (a * power).matrix()
        total = total + term
        if np.linalg.norm(term) <= _SERIES_REL_FLOOR * np.linalg.norm(total):
            small += 1
            if small >= _SERIES_STALL:
                break
        else:
            small = 0
        power = power * q
    return total


def derivative_bound(order, r0, d, d0, sup_f, both_half_planes):
    """Bound on the norm of the order-th derivative value from disk geometry.

    ``r0`` is the radius of the middle circle, ``d`` its distance to the
    outer circle, ``d0`` its distance to the inner circle around the
    spectrum, and ``sup_f`` the sup of the function norm on the outer
    circle.  The two-half-planes configuration carries an extra factor 2
    relative to real-centered concentric disks.
    """
    if min(r0, d, d0) <= 0.0 or sup_f < 0.0:
        raise InvalidArgumentError("geometry values must be positive")
    factor = 2.0 if both_half_planes else 1.0
    return factor * math.factorial(order) * r0 * sup_f / (d ** (order + 1) * d0)


def taylor_recompose(F, q, lam, terms):
    """Partial sum of ``sum F_n(q)/n! (lam*I - q)^n`` with ``F_n`` the n-th
    derivative value at ``q``; converges to ``F(lam)`` for admissible pairs.

    Raises DomainError when the terms grow for 5 consecutive orders beyond
    the partial-sum scale.
    """
    if terms < 1:
        raise InvalidArgumentError("need at least one term")
    step = complex(lam) * _IDENT2 - q.matrix()
    # entire functions may grow until the term index passes norm(step)
    hump = 2.0 * (float(np.linalg.norm(step, 2)) + 1.0)
    acc = np.zeros((2, 2), dtype=complex)
    power = _IDENT2.copy()
    G = F
    prev_norm = math.inf
    grown = 0
    for n in range(terms):
        term = (eval_spectral(G, q) / math.factorial(n)) @ power
        acc = acc + term
        tn = float(np.linalg.norm(term))
        if tn > prev_norm:
            grown += 1
            if grown >= _TAYLOR_GROW_LIMIT and n > hump:
                raise DomainError("recomposition series is diverging")
        else:
            grown = 0
        prev_norm = tn
        power = power @ step
        G = G.derivative()
    return acc
