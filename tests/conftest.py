import numpy as np
import pytest
from hypothesis import settings

from quatcalc import (
    AccuracyError,
    AffineArg,
    CommutingPair,
    Cos,
    EntrywiseFunction,
    Exp,
    I,
    J,
    K,
    L,
    PairStem,
    Polynomial,
    Product,
    Quaternion,
    QuaternionPolynomial,
    ScalarStem,
    Sin,
    Sum,
    left_mult_matrix,
    make_quaternion,
    martinelli_calculus,
)

# Wall time varies too much between runs for a per-example deadline; fixed
# seeds keep property runs reproducible and write no example database.
settings.register_profile("quatcalc", deadline=None, derandomize=True, database=None)
settings.load_profile("quatcalc")


def random_quaternion(rng, scale=1.0):
    x = scale * rng.standard_normal(4)
    return make_quaternion(*x)


def random_hpoly(rng, degree, scale=1.0):
    return QuaternionPolynomial(
        [random_quaternion(rng, scale) for _ in range(degree + 1)]
    )


def derivative_tree(f):
    """The derivative of a closed-union scalar or of a stem, built as a new
    function tree: the reference that jets are checked against.  A product
    differentiates by the Leibniz rule, dropping the zero term of a constant
    factor, so the tree of a product of two non-constant factors doubles
    with each order."""
    if isinstance(f, Polynomial):
        if f.coeffs.size == 1:
            return Polynomial([0.0])
        return Polynomial(f.coeffs[1:] * np.arange(1, f.coeffs.size))
    if isinstance(f, Exp):
        return Exp()
    if isinstance(f, Sin):
        return Cos()
    if isinstance(f, Cos):
        return Product(Polynomial([-1.0]), Sin())
    if isinstance(f, AffineArg):
        return Product(Polynomial([f.scale]), AffineArg(f.scale, f.shift, derivative_tree(f.body)))
    if isinstance(f, Sum):
        return Sum(*(derivative_tree(p) for p in f.parts))
    if isinstance(f, Product):
        terms = []
        for i, p in enumerate(f.parts):
            dp = derivative_tree(p)
            if isinstance(dp, Polynomial) and not np.any(dp.coeffs):
                continue
            factors = list(f.parts)
            factors[i] = dp
            terms.append(Product(*factors))
        return Sum(*terms) if terms else Polynomial([0.0])
    if isinstance(f, ScalarStem):
        return ScalarStem(derivative_tree(f.f), domain=f.domain)
    if isinstance(f, PairStem):
        return PairStem(derivative_tree(f.f1), derivative_tree(f.f2), domain=f.domain)
    if isinstance(f, QuaternionPolynomial):
        if len(f.coeffs) == 1:
            return QuaternionPolynomial([Quaternion(0.0, 0.0)], domain=f.domain)
        return QuaternionPolynomial(
            [a * float(k) for k, a in enumerate(f.coeffs) if k >= 1], domain=f.domain
        )
    if isinstance(f, EntrywiseFunction):
        return EntrywiseFunction(
            [[derivative_tree(g) for g in row] for row in f.entries], domain=f.domain
        )
    raise TypeError(f"no derivative tree for {type(f).__name__}")


def exp_sin_derivative(z, k):
    """``(exp sin)^(k)(z)`` in closed form, from ``exp(z) sin(z) =
    (exp((1+i) z) - exp((1-i) z)) / 2i``."""
    return ((1 + 1j) ** k * np.exp((1 + 1j) * z) - (1 - 1j) ** k * np.exp((1 - 1j) * z)) / 2j


def random_commuting_pair(rng, n=2, scale=1.0):
    """Simultaneously diagonalizable real pair sharing a well-conditioned basis."""
    while True:
        S = rng.standard_normal((n, n))
        if abs(np.linalg.det(S)) > 0.2:
            break
    d1 = np.diag(scale * rng.standard_normal(n))
    d2 = np.diag(scale * rng.standard_normal(n))
    inv = np.linalg.inv(S)
    return CommutingPair(S @ d1 @ inv, S @ d2 @ inv), (np.diag(d1), np.diag(d2))


def surface_value(f, pair, grid):
    """Real value and diagnostics of ``martinelli_calculus``, also when its
    imaginary-residue check rejects the value (a coarse grid or a ``f`` that
    breaks realness)."""
    try:
        return martinelli_calculus(f, pair, grid)
    except AccuracyError as exc:
        return exc.value.real, exc.diagnostics


def quaternionic_operator(A):
    """Real ``4n x 4n`` matrix ``[left_mult_matrix(A_ij)]`` of ``A`` in H^(n x n),
    given as an ``(n, n, 4)`` array of components; it acts on H^n = R^(4n)."""
    n = A.shape[0]
    return np.block([[left_mult_matrix(make_quaternion(*A[i, j])) for j in range(n)]
                     for i in range(n)])


def right_mult_matrix(b):
    """Real 4x4 matrix of ``x -> x b`` on the basis (I, J, K, L)."""
    return np.array([(e * b).components for e in (I, J, K, L)]).T


def quat_close(p, q, tol=1e-12):
    return (p - q).norm() <= tol * max(1.0, p.norm(), q.norm())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def quadrature_nodes(monkeypatch):
    """Setter of the trapezoid driver's start and cap, in nodes per circle."""
    from quatcalc import contour_calc

    def set_nodes(start=16, cap=2**18):
        monkeypatch.setattr(contour_calc, "_START_NODES", start)
        monkeypatch.setattr(contour_calc, "_MAX_NODES", cap)

    return set_nodes
