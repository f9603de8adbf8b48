"""Contour evaluation of matrix functions at quaternions.

The Cauchy-integral route ``(k!/2 pi i) * integral of F(z) (zI - q)^-(k+1) dz``
to the k-th derivative is discretized by the trapezoid rule on positively
oriented circles, spectrally accurate for analytic integrands on closed
curves.  The kernel takes the closed spectral form ``(z - s+)^-(k+1) E+ +
(z - s-)^-(k+1) E-``, so only values of ``F`` are needed, and each term
combines elementwise (``quat_core._combine``), with no matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    GeometryError,
    InvalidArgumentError,
    NumericError,
)
from .func_model import spectral_jet
from .quat_core import Quaternion, _combine, _split

_IDENT2 = np.eye(2, dtype=complex)

#: Truncation rule of ``series_eval`` and divergence rule of ``taylor_recompose``.
_SERIES_REL_FLOOR = 1e-16
_SERIES_STALL = 3
_TAYLOR_GROW_LIMIT = 5

#: Nodes per circle of ``_trapezoid_doubling``'s first level, and its cap;
#: both powers of two.  The trapezoid rule converges geometrically on
#: analytic integrands, so most integrals are exact to double precision
#: within a few doublings of the start.
_START_NODES = 16
_MAX_NODES = 2**18

#: Levels of ``_trapezoid_doubling``'s first batch: it decides nothing before
#: its third level, whose grid holds the first two.
_FIRST_LEVELS = 3

#: Stopping rule of ``_trapezoid_doubling``: the share of the previous change
#: that a settling change falls below, the share of the rounding floor within
#: which two successive changes count as rounding alone, and the factor by
#: which the floor may exceed the tolerance before the tolerance counts as
#: out of reach.
_GEOMETRIC_SHRINK = 0.5
_NOISE_SHARE = 0.5
_FLOOR_REACH = 100.0
_EPS = float(np.finfo(float).eps)


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
class QuadratureDiagnostics:
    """Outcome of ``_trapezoid_doubling``: the final node count per circle,
    the norm of the last change between levels, and the rounding floor (eps
    times the mean norm of the integrand's terms at the final level, in the
    units of ``est_error``)."""

    nodes_per_circle: int
    est_error: float
    rounding_floor: float


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


def _class_levels(levels):
    """Level of each residue class ``k mod 2^(levels - 1)`` of a batch of
    ``levels`` nested levels at offset 0: class 0 holds the first level's
    nodes, and a class of 2-adic valuation v the nodes new at level
    ``levels - 1 - v``.  Each level is closed under the mirror ``k -> -k``."""
    return np.array([0] + [levels - (r & -r).bit_length() for r in range(1, 2 ** (levels - 1))])


def _trapezoid_doubling(level_sums, tol):
    """Node-doubling trapezoid rule for ``(1/2 pi i)`` times a contour
    integral over circles.  ``level_sums(nodes, offset, levels)`` evaluates
    ``integrand(z) dz/dtheta`` at the angles ``2 pi (k + offset) / nodes``
    of every circle and returns, for each of the ``levels`` nested levels
    that grid holds (``_class_levels``), the sum of its terms before the
    ``1/nodes`` weight and a bound on the sum of their norms.

    The first batch is the grid of level ``_FIRST_LEVELS`` (or of the cap,
    if lower) at offset 0; each later doubling is one batch of the new
    midpoints at offset 1/2, added to the running node sums (Trefethen &
    Weideman, SIAM Review 56, 2014).  Eps times the mean norm of a level's
    terms is its rounding floor: the size of change that rounding alone can
    cause.  Every decision waits for three levels, so that two coarse
    levels agreeing by chance settle nothing.  Levels start at
    ``_START_NODES`` per circle.  With ``atol = tol * max(1, norm(value))``,
    from the third level on:

    - the tolerance is out of reach, a stall reported at once, when the
      floor exceeds ``100 atol`` and the last change is within 100 floors;
    - otherwise the value has converged when the last change is at most
      ``atol`` and either the change before it is too or the last is at
      most half of it (the geometric decay of the trapezoid error);
    - otherwise a value whose last two changes are both within half the
      floor has settled short of ``atol``: a stall.

    The next level passing ``_MAX_NODES``, or term norms that overflow, is a
    stall too.

    Returns the value and its QuadratureDiagnostics.  A stall raises
    AccuracyError carrying both; a non-finite total raises NumericError.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidArgumentError("tol must be finite and non-negative")
    nodes, levels = _START_NODES, 1
    while levels < _FIRST_LEVELS and nodes << levels <= _MAX_NODES:
        levels += 1
    batch = level_sums(nodes << (levels - 1), 0.0, levels)
    running, magnitude = batch.pop(0)
    prev, before, last, reason = None, math.inf, math.inf, ""
    while True:
        cur = running / nodes
        if not np.all(np.isfinite(cur)):
            raise NumericError(f"quadrature total is not finite at {nodes} nodes/circle")
        floor = _EPS * magnitude / nodes
        if floor == math.inf:  # the terms' norms overflow: no level settles
            break
        if prev is not None:
            before, last = last, float(np.linalg.norm(cur - prev))
        if before < math.inf:  # from the third level on
            atol = tol * max(1.0, float(np.linalg.norm(cur)))
            out_of_reach = floor > _FLOOR_REACH * atol and last <= _FLOOR_REACH * floor
            shrinking = before <= atol or last <= _GEOMETRIC_SHRINK * before
            if not out_of_reach and last <= atol and shrinking:
                return cur, QuadratureDiagnostics(nodes, last, floor)
            if out_of_reach or max(before, last) <= _NOISE_SHARE * floor:
                reason = ": the tolerance is below the rounding floor"
                break
        if nodes * 2 > _MAX_NODES:
            break
        prev = cur
        sums, mags = batch.pop(0) if batch else level_sums(nodes, 0.5, 1)[0]
        running, magnitude = running + sums, magnitude + mags
        nodes *= 2
    raise AccuracyError(
        f"quadrature stalled at {nodes} nodes/circle{reason} "
        f"(last change {last:.3e}, rounding floor {floor:.3e})",
        cur,
        QuadratureDiagnostics(nodes, last, floor),
    )


def build_contour(points, margin, real_centers=False):
    """Conjugate-symmetric disjoint circles enclosing points with clearance.

    Starts from one circle per (conjugate-symmetrized) point, centered at
    the point with radius ``margin``, or centered on the real axis when
    ``real_centers`` is set; overlapping clusters merge into a single
    real-centered circle keeping the same clearance.  Whether the circles
    fit a function's domain is checked where the function is integrated.
    """
    if not margin > 0.0:
        raise InvalidArgumentError("margin must be positive")
    pts = []
    for p in points:
        p = complex(p)
        pts.append(p)
        if p.imag != 0.0:
            pts.append(p.conjugate())
    if not pts:
        raise InvalidArgumentError("no points given")
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
    return Contour(tuple(c for _, c in groups))


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


def cauchy_transform(F, q, gamma, tol=1e-10, order=0):
    """Contour-integral value of the order-th derivative of ``F`` at ``q``,
    and its QuadratureDiagnostics.

    Integrates values of ``F`` against the kernel ``k! ((z - s+)^-(k+1) E+ +
    (z - s-)^-(k+1) E-)``, of size ``k!/r^(k+1)`` on circles of radius r
    about ``s+-``: the radius must grow with the order, to near ``k/rho``
    for an entire ``F`` of growth rate ``rho`` (Bornemann, Found. Comput.
    Math. 11, 2011).  A kernel that overflows where ``F`` is finite raises
    AccuracyError.  Nodes double per circle from 16, to 64 at least, under
    ``_trapezoid_doubling`` with relative tolerance ``tol``.  Each of its
    batches makes one call of ``F`` on the nodes of all circles, and one
    compensated sum of their terms by residue class.  A stall raises
    AccuracyError with the best-effort value and diagnostics on it, a
    non-finite total NumericError.  For stems it is the spectral value.
    """
    if not isinstance(q, Quaternion):
        raise InvalidArgumentError("cauchy_transform expects a Quaternion")
    if order < 0:
        raise InvalidArgumentError("derivative order must be >= 0")
    x, t, a, b = _split(q)
    s = np.array([[x + 1j * t], [x - 1j * t]])  # s+- as a column
    _check_enclosed(s.ravel(), gamma.circles)
    _check_contour_in_domain(F, gamma)
    # k! spread over the k + 1 factors, so that neither k! nor the power overflows alone
    spread = math.exp(math.lgamma(order + 1) / (order + 1))

    centers = np.array([c.center for c in gamma.circles])[:, None]
    radii = np.array([c.radius for c in gamma.circles])[:, None]

    def level_sums(nodes, offset, levels):
        # one F call and one cascade over every node of every circle: the
        # nodes' rows split into the residue classes of _class_levels
        w = radii * np.exp(2j * np.pi * (np.arange(nodes) + offset) / nodes)
        z, dz = (centers + w).ravel(), w.ravel()
        values = F(z)
        kernel = (spread / (z - s)) ** (order + 1)  # the scalar powers k+- at every node
        terms = _combine(*(values * (kernel * dz)[..., None, None]), a, b)
        level = _class_levels(levels)
        totals = _compensated_sum(terms.reshape(-1, level.size, 2, 2))
        if not np.isfinite(totals).all() and np.isfinite(values).all():
            if not np.isfinite(kernel).all():
                raise AccuracyError(f"the order-{order} kernel overflows: the contour is too tight")
        norms = np.linalg.norm(terms, axis=(1, 2)).reshape(-1, level.size).sum(axis=0)
        return [(totals[level == j].sum(axis=0), float(norms[level == j].sum()))
                for j in range(levels)]

    # overflow raises above or in the driver: numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        return _trapezoid_doubling(level_sums, tol)


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


def cauchy_estimate(order, r0, d, d0, sup_f, both_half_planes):
    """Cauchy's estimate of the order-th derivative value's norm from disk geometry.

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
    derivative value at ``q``, all from one ``spectral_jet``; converges to
    ``F(lam)`` for admissible pairs.

    Raises DomainError when the terms grow for 5 consecutive orders beyond
    the partial-sum scale.
    """
    if terms < 1:
        raise InvalidArgumentError("need at least one term")
    # orders past the point of divergence may overflow; they go unused
    with np.errstate(over="ignore", invalid="ignore"):
        derivatives = spectral_jet(F, q, terms - 1)
    step = complex(lam) * _IDENT2 - q.matrix()
    # entire functions may grow until the term index passes norm(step)
    hump = 2.0 * (float(np.linalg.norm(step, 2)) + 1.0)
    acc = np.zeros((2, 2), dtype=complex)
    power = _IDENT2.copy()
    prev_norm = math.inf
    grown = 0
    for n in range(terms):
        power = power / max(n, 1)  # (lam I - q)^n / n!, by running division
        term = derivatives[n] @ power
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
    return acc
