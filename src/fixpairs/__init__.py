"""Symmetric fixed-point pairs of odd compact potential operators.

Critical points of the energy J(u) = 0.5 ||u||^2 - T(u) are the fixed
points of the potential operator A = T', since J' = I - A.  This package
discretizes H1_0(0,1) in an orthonormal sine basis, checks the existence
conditions for one and two pairs of fixed points with numeric margins,
finds the pairs by symmetric multi-start descent with deflation, and
cross-validates boundary value problems against a shooting oracle.
"""

__version__ = "0.1.0"

from .space import (
    GridSample,
    H1Vector,
    SpaceConfig,
    basis_vector,
    evaluate,
    inner,
    l2_norm_sq,
    project,
    sup_norm_bound,
    zero_vector,
)
from .operators import (
    GrowthCertificate,
    LinearOperatorSpec,
    OperatorDivergenceError,
    PotentialOperatorSpec,
    avez_potential,
    fd_gradient_check,
    functional_J,
    gradient_J,
    growth_fit,
    lower_bound_J,
)
from .hypotheses import (
    HypothesisReport,
    check_h1,
    check_h2,
    check_h2_prime,
    genus_of_sphere,
    quadratic_form_margin,
    span_form_probe,
)
from .solver import (
    CriticalPoint,
    SolveReport,
    SolverConfig,
    axis_seeds,
    circle_seeds,
    descend,
    find_pairs,
    ps_check,
)

__all__ = [
    "CriticalPoint",
    "GridSample",
    "GrowthCertificate",
    "H1Vector",
    "HypothesisReport",
    "LinearOperatorSpec",
    "OperatorDivergenceError",
    "PotentialOperatorSpec",
    "SolveReport",
    "SolverConfig",
    "SpaceConfig",
    "avez_potential",
    "axis_seeds",
    "basis_vector",
    "check_h1",
    "check_h2",
    "check_h2_prime",
    "circle_seeds",
    "descend",
    "evaluate",
    "fd_gradient_check",
    "find_pairs",
    "functional_J",
    "genus_of_sphere",
    "gradient_J",
    "growth_fit",
    "inner",
    "l2_norm_sq",
    "lower_bound_J",
    "project",
    "ps_check",
    "quadratic_form_margin",
    "span_form_probe",
    "sup_norm_bound",
    "zero_vector",
]
