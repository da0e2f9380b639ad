"""Exact-arithmetic toolkit for twisted Poisson-type algebras.

Finite-dimensional algebras are given by rational structure constants; all
identity checks, constructions, and worked-example replays are exact, with
counterexample witnesses on failure.

Importing the package loads no submodule: each public name below is imported
from its module on first attribute access (PEP 562), so a process pays only
for the modules it uses.
"""

import importlib

_EXPORTS = {
    "algebra": (
        "CheckReport",
        "HomAlgebra",
        "HomPoissonAlgebra",
        "Witness",
        "check_antisymmetry",
        "check_commutative",
        "check_hom_associative",
        "check_hom_jacobi",
        "check_hom_leibniz",
        "check_hom_poisson",
        "check_morphism",
        "check_multiplicative",
        "cyclic_associator_sum",
        "hom_associator",
        "hom_jacobian",
        "hom_leibniz_residual",
    ),
    "catalog": (
        "build_catalog",
        "heisenberg_morphism",
        "heisenberg_p31",
        "heisenberg_p32",
        "matrix_algebra",
        "sl2_linear_poisson",
    ),
    "constructions": (
        "BetaTwisting",
        "beta_twisting",
        "check_admissible",
        "check_hom_flexible",
        "commutator_poisson",
        "depolarize",
        "derived",
        "is_trivial_twisting",
        "nonrigidity_witness",
        "polarize",
        "tensor",
        "twist",
        "verify_isomorphism",
        "yau_twist",
    ),
    "errors": (
        "DimensionMismatch",
        "GeneratorMismatch",
        "HomPoissonError",
        "PreconditionError",
        "ResourceLimitError",
        "SingularMatrixError",
        "SpecFileError",
    ),
    "hompower": (
        "check_criterion_34",
        "check_nth_power_assoc",
        "generic_element",
        "hom_power",
        "hom_power_pair",
    ),
    "linalg": ("LinearMap", "Trilinear", "Vector", "rat"),
    "poisson_poly": (
        "LiePoissonStructure",
        "PoissonStructure",
        "Substitution",
        "SymplecticStructure",
        "check_poisson_substitution",
        "manifold_nonrigidity_check",
        "translation",
        "twisted_associator",
    ),
    "poly": ("Polynomial",),
    "specfile": ("emit_map", "emit_spec", "parse_map", "parse_spec"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
