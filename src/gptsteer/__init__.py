"""Steering certificates for general probabilistic theories.

Finite-dimensional ordered vector spaces with a chosen unit play the role
of state spaces; assemblages, steering tensor norms, robustness, witness
extraction, Choquet-order comparisons and bipartite unsteerability tests
all reduce to finite linear programs whose certificates are checked at
the tolerances of tolerances.py before they are returned.  Everything runs
on numpy alone: enumeration is batched, the simplex prices and ratio-tests
in loops and pivots by rank-1 row updates, the symmetry search works on
numpy rows, and a polytopic system's facets decide which of its points are
extreme.  GPTSTEER_GUARDS raises size guards.  perfbench/ is the benchmark.
"""

__version__ = "0.1.0"

from .errors import (
    GptSteerError,
    GuardExceeded,
    InvalidInput,
    MalformedProblem,
    MarginalNotInterior,
    NotASymmetry,
    NotDichotomic,
    NotInterior,
    NumericalFailure,
    SystemMismatch,
)
from .systems import (
    GptSystem,
    Measurement,
    ball,
    dichotomic_measurement,
    hypercube,
    simplex,
)
from .tensors import (
    DichotomicTensor,
    TensorElement,
    Witness,
    injective_norm_dichotomic,
    min_cone_member,
    projective_norm,
    projective_norm_dichotomic,
    steering_norm,
)
from .steering import (
    Assemblage,
    lhs_check,
    optimal_witness,
    robustness,
    steering_degree_estimate,
)
from .choquet import (
    SimpleMeasure,
    c_mu,
    c_mu_monte_carlo,
    choquet_below,
    choquet_below_dual_check,
    dichotomic_below_exact,
)
from .bipartite import (
    BipartiteState,
    conditional_assemblage,
    product_state,
    steerability_search,
    steering_map,
    unsteerable_dichotomic,
    unsteerable_sufficient,
)

__all__ = [
    "Assemblage",
    "BipartiteState",
    "DichotomicTensor",
    "GptSteerError",
    "GptSystem",
    "GuardExceeded",
    "InvalidInput",
    "MalformedProblem",
    "MarginalNotInterior",
    "Measurement",
    "NotASymmetry",
    "NotDichotomic",
    "NotInterior",
    "NumericalFailure",
    "SimpleMeasure",
    "SystemMismatch",
    "TensorElement",
    "Witness",
    "__version__",
    "ball",
    "c_mu",
    "c_mu_monte_carlo",
    "choquet_below",
    "choquet_below_dual_check",
    "conditional_assemblage",
    "dichotomic_below_exact",
    "dichotomic_measurement",
    "hypercube",
    "injective_norm_dichotomic",
    "lhs_check",
    "min_cone_member",
    "optimal_witness",
    "product_state",
    "projective_norm",
    "projective_norm_dichotomic",
    "robustness",
    "simplex",
    "steerability_search",
    "steering_degree_estimate",
    "steering_map",
    "steering_norm",
    "unsteerable_dichotomic",
    "unsteerable_sufficient",
]
