"""Exact certification of rational-curve criteria from cubic intersection data.

Given the trilinear intersection numbers of a rank-b lattice, a c2 pairing
vector, and a distinguished divisor class asserted nef and non-ample, this
package decides — in exact rational arithmetic — which existence criterion
applies and emits a certificate with explicit witnesses and a replayable
trace, or a precise inconclusive/inconsistent report.
"""
from .certify import (
    Assumptions,
    Certificate,
    Check,
    Conclusion,
    Options,
    certify,
    replay,
    replay_check,
)
from .cubicchase import (
    ChaseEdge,
    ChaseTrace,
    Degeneracy,
    chase,
    inflection_test,
    is_singular_at,
    residual_on_tangent,
    ternary_singular_point,
    third_point_on_line,
)
from .cubicfactor import (
    FactorKind,
    Factorization,
    expand_cubic,
    factor_cubic,
    factor_over_Q,
    factor_quadratic_form,
)
from .exactmath import (
    Poly,
    canonical_vector,
    exact_divide,
    is_perfect_square,
    kernel_basis,
    primitive_vector,
    rational_roots,
)
from .nsring import (
    Divisor,
    IntersectionForm,
    LinearClass,
    nef_threshold,
    positivity_flags,
    validate_input,
)
from .quadpoints import (
    InsufficientPoints,
    IsotropyKind,
    IsotropyVerdict,
    QuadraticForm,
    ResidualPoint,
    hilbert_symbol,
    is_isotropic,
    isotropic_vector,
    sample_points,
    second_intersection,
)

__version__ = "0.1.0"

__all__ = [
    "Assumptions",
    "Certificate",
    "ChaseEdge",
    "ChaseTrace",
    "Check",
    "Conclusion",
    "Degeneracy",
    "Divisor",
    "FactorKind",
    "Factorization",
    "InsufficientPoints",
    "IntersectionForm",
    "IsotropyKind",
    "IsotropyVerdict",
    "LinearClass",
    "Options",
    "Poly",
    "QuadraticForm",
    "ResidualPoint",
    "canonical_vector",
    "certify",
    "chase",
    "exact_divide",
    "expand_cubic",
    "factor_cubic",
    "factor_over_Q",
    "factor_quadratic_form",
    "hilbert_symbol",
    "inflection_test",
    "is_isotropic",
    "is_perfect_square",
    "is_singular_at",
    "isotropic_vector",
    "kernel_basis",
    "nef_threshold",
    "positivity_flags",
    "primitive_vector",
    "rational_roots",
    "replay",
    "replay_check",
    "residual_on_tangent",
    "sample_points",
    "second_intersection",
    "ternary_singular_point",
    "third_point_on_line",
    "validate_input",
]
