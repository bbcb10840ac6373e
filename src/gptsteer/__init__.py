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

Submodules load on first use: `import gptsteer` imports none of them, a
public name below imports its defining submodule when it is first read,
and each CLI verb loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, grouped by the submodule that defines it; the
# module-level __getattr__ (PEP 562) imports it from there on first read.
_EXPORTS = {
    "errors": (
        "GptSteerError", "GuardExceeded", "InvalidInput", "MalformedProblem",
        "MarginalNotInterior", "NotASymmetry", "NotDichotomic", "NotInterior",
        "NumericalFailure", "SystemMismatch"),
    "systems": (
        "GptSystem", "Measurement", "ball", "dichotomic_measurement",
        "hypercube", "simplex"),
    "tensors": (
        "DichotomicTensor", "TensorElement", "Witness",
        "injective_norm_dichotomic", "min_cone_member", "projective_norm",
        "projective_norm_dichotomic", "steering_norm"),
    "steering": (
        "Assemblage", "lhs_check", "optimal_witness", "robustness"),
    "choquet": (
        "SimpleMeasure", "c_mu", "c_mu_monte_carlo", "choquet_below",
        "choquet_below_dual_check", "dichotomic_below_exact",
        "universal_degree"),
    "bipartite": (
        "BipartiteState", "conditional_assemblage", "product_state",
        "steerability_search", "steering_map", "unsteerable_dichotomic",
        "unsteerable_sufficient"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
