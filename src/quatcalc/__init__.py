"""Matrix quaternions, stem functions, and analytic functional calculus.

Quaternions are represented as 2x2 complex matrices through their C^2
coordinates.  On top of the algebra sit a spectral and a contour-integral
functional calculus for matrix-valued analytic functions, slice-regularity
checks, the quaternionic spectrum of real matrices with its
conjugation-compatible calculus, and a two-variable surface-integral
calculus for commuting real pairs.
"""

from .errors import (
    AccuracyError,
    AccuracyWarning,
    ContractViolationError,
    DomainError,
    GeometryError,
    InvalidArgumentError,
    NumericError,
    SingularElementError,
)
from .quat_core import (
    I,
    J,
    K,
    L,
    AxialForm,
    Quaternion,
    SpectrumPair,
    as_quaternion,
    axial_decompose,
    cvec_star,
    dist_to_quaternions,
    left_mult_matrix,
    make_quaternion,
    mat_norm,
    quaternions_with_spectrum,
    random_unit_imaginary,
    skew_conjugate,
    spectral_projections,
    spectrum,
    split_h_ih,
)
from .func_model import (
    AffineArg,
    AnalyticScalar,
    CallableMatrixFunction,
    Cos,
    EntrywiseFunction,
    Exp,
    MatrixFunction,
    Opaque,
    PairStem,
    Polynomial,
    Product,
    QuaternionPolynomial,
    ScalarStem,
    Sin,
    StemReport,
    Sum,
    SymmetricDomain,
    conjugate_sample_pairs,
    eval_dist_to_quaternions,
    eval_spectral,
    hpoly_eval,
    stem_scalar_mul,
    stem_split,
    verify_stem,
    zero_set_contains,
)
from .contour_calc import (
    Circle,
    Contour,
    QuadratureConfig,
    QuadratureDiagnostics,
    build_contour,
    cauchy_derivative,
    cauchy_transform,
    derivative_bound,
    enclosing_circles,
    series_eval,
    taylor_recompose,
)
from .slice_check import (
    SliceReport,
    SliceSampleGrid,
    circularization_contains,
    circularization_contains_axial,
    dbar_s,
    extend_from_slice,
    quaternionwise,
    slice_regularity_report,
    spectral_evaluator,
    split_slice,
)
from .real_op import (
    MatrixCoefficientFunction,
    SpectrumReport,
    complex_spectrum,
    complexify,
    discrete_mult_op,
    flat,
    op_calculus,
    operator_contour,
    q_block_pencil,
    q_resolvent_margin,
)
from .joint_op import (
    CommutingPair,
    SeparableProduct,
    SphereGrid,
    TwoVariablePolynomial,
    enclosing_sphere_grid,
    joint_block_pencil,
    joint_membership_margin,
    joint_pencil,
    joint_resolvent_margin,
    joint_spectrum_points,
    martinelli_calculus,
    pair_q_matrix,
)

__version__ = "0.1.0"
