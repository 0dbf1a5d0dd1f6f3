"""Monotone matrix functions as Schur complements of affine PSD pencils.

The package realizes operator monotone / operator concave functions of
positive matrices as compressed shorted operators of pencils
``A0 (x) I + sum_i A_i (x) X_i`` with PSD coefficients, verifies their
order-theoretic properties by seeded randomized suites, and extends operator
means to finitely supported measures on PD matrices via Strassen monotone
couplings.
"""

from .jsonio import VERSION as __version__
from .numlin import (
    CommutationError,
    Contraction,
    DimensionMismatch,
    MatrixTuple,
    NotPositiveSemidefinite,
    SymMatrix,
    apply_scalar_function,
    loewner_leq,
    make_dominated_pair,
    psd_sqrt,
    random_commuting_tuple,
    random_contraction,
    random_isometry,
    random_pd,
)
from .shorted import (
    RangeConditionViolation,
    ShortedResult,
    SingularPivotComplement,
    block_schur_general,
    shorted_operator,
    variational_infimum,
)
from .pencil import (
    PencilDomainError,
    PencilRealization,
    assemble_pencil,
    eval_complex,
)
from .pencil import eval as eval_pencil
from .builders import (
    FunctionSpec,
    QuadratureScheme,
    build_realization,
    cauchy_atom,
    geometric_mean,
    loewner_quadrature,
    weighted_arithmetic,
    weighted_harmonic,
)
from .verify import (
    HullCertificate,
    SuiteConfig,
    VerificationReport,
    check_concave,
    check_free_axioms,
    check_herglotz,
    check_hypograph_saturation,
    check_jensen_isometry,
    check_monotone,
    check_monotone_scalar,
    comat_decompose,
    reconstruct_hull_certificate,
)
from .measures import (
    Coupling,
    DiscreteMeasure,
    MeanConvergenceError,
    StepRepresentation,
    UpperSetCertificate,
    brute_force_stochastic_leq,
    check_directsum_coupling,
    check_stochastic_monotone,
    couplings_sample,
    mean_of_measure,
    monotone_representation,
    power_mean,
    stochastic_leq,
)

__all__ = [name for name in dir() if not name.startswith("_")]
