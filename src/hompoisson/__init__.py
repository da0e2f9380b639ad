"""Exact-arithmetic toolkit for twisted Poisson-type algebras.

Finite-dimensional algebras are given by rational structure constants; all
identity checks, constructions, and worked-example replays are exact, with
counterexample witnesses on failure.
"""

from .algebra import (
    CheckReport,
    HomAlgebra,
    HomPoissonAlgebra,
    Witness,
    check_antisymmetry,
    check_commutative,
    check_hom_associative,
    check_hom_jacobi,
    check_hom_leibniz,
    check_hom_poisson,
    check_morphism,
    check_multiplicative,
    cyclic_associator_sum,
    hom_associator,
    hom_jacobian,
    hom_leibniz_residual,
)
from .catalog import (
    build_catalog,
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
    sl2_linear_poisson,
)
from .constructions import (
    BetaTwisting,
    beta_twisting,
    check_admissible,
    check_hom_flexible,
    commutator_poisson,
    depolarize,
    derived,
    is_trivial_twisting,
    nonrigidity_witness,
    polarize,
    tensor,
    twist,
    verify_isomorphism,
    yau_twist,
)
from .errors import (
    DimensionMismatch,
    GeneratorMismatch,
    HomPoissonError,
    PreconditionError,
    ResourceLimitError,
    SingularMatrixError,
    SpecFileError,
)
from .hompower import (
    check_criterion_34,
    check_nth_power_assoc,
    generic_element,
    hom_power,
    hom_power_pair,
)
from .linalg import LinearMap, Trilinear, Vector, rat
from .poisson_poly import (
    LiePoissonStructure,
    PoissonStructure,
    Substitution,
    SymplecticStructure,
    check_poisson_substitution,
    manifold_nonrigidity_check,
    translation,
    twisted_associator,
)
from .poly import Polynomial
from .specfile import emit_map, emit_spec, parse_map, parse_spec

__version__ = "0.1.0"
