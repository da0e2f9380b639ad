"""Algebra-producing constructions and the checks that certify them.

Covers: the commutator bracket on a twisted-associative algebra, twisting by
(weak) self-morphisms, derived sequences, tensor products of commutative
algebras, untwisted beta-twistings with triviality and isomorphism tests,
polarization/depolarization, and the admissibility and flexibility checks
that characterize when a single product encodes a full bracket/product pair.

Each new operation is one bilinear formula tabulated by ``algebra.tabulate``,
except beta(op(x, y)) (``Trilinear.map_outputs``) and the product of a tensor
product, the Kronecker product of the factors' products (``Trilinear.kron``).
Every beta-twisting (``yau_twist``, ``derived``, ``beta_twisting`` and
``nonrigidity_witness``) is built by ``twist``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import (
    CheckReport,
    HomAlgebra,
    HomPoissonAlgebra,
    _at,
    aggregate_report,
    antisymmetry,
    associator,
    check_commutative,
    check_hom_associative,
    check_morphism,
    check_multiplicative,
    commutativity,
    jacobian,
    make_report,
    sweep,
    tabulate,
)
from .errors import PreconditionError, SingularMatrixError
from .linalg import LinearMap, Vector

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# Commutator structure
# ---------------------------------------------------------------------------

def commutator_poisson(algebra: HomAlgebra) -> HomPoissonAlgebra:
    """Equip a twisted-associative algebra with its commutator bracket.

    The input must pass check_hom_associative; the result carries the same
    product and twisting map, with bracket xy - yx (``commutativity``).
    """
    report = check_hom_associative(algebra)
    if not report.passed:
        raise PreconditionError("commutator construction requires a twisted-associative input", report)
    bracket = tabulate(algebra.dim, commutativity, algebra.mu)
    return HomPoissonAlgebra(
        basis=algebra.basis,
        bracket=bracket,
        mu=algebra.mu,
        alpha=algebra.alpha,
        commutative=bracket.is_zero(),
    )


# ---------------------------------------------------------------------------
# Twistings
# ---------------------------------------------------------------------------

def twist(algebra: HomPoissonAlgebra, beta: LinearMap, force: bool = False) -> HomPoissonAlgebra:
    """Twist both operations and the twisting map by a self-weak-morphism.

    Produces (beta{,}, beta mu, beta alpha).  The weak-morphism precondition
    is validated eagerly; ``force=True`` constructs anyway (negative tests).
    """
    if not force:
        report = check_morphism(beta, algebra, algebra, weak=True)
        if not report.passed:
            raise PreconditionError("twisting map is not a weak self-morphism", report)
    return HomPoissonAlgebra(
        basis=algebra.basis,
        bracket=algebra.bracket.map_outputs(beta),
        mu=algebra.mu.map_outputs(beta),
        alpha=beta.compose(algebra.alpha),
        commutative=algebra.commutative,
    )


def derived(algebra: HomPoissonAlgebra, n: int) -> HomPoissonAlgebra:
    """n-th member of the derived sequence: operations composed with alpha^n,
    twisting map alpha^(n+1).  Requires a multiplicative input."""
    if n < 0:
        raise ValueError("derived sequence index must be >= 0")
    report = check_multiplicative(algebra)
    if not report.passed:
        raise PreconditionError("derived sequence requires a multiplicative algebra", report)
    return twist(algebra, algebra.alpha.power(n), force=True)


def yau_twist(algebra: HomPoissonAlgebra, beta: LinearMap) -> HomPoissonAlgebra:
    """Twist an untwisted algebra by a self-morphism, making beta the twisting map."""
    if not algebra.alpha.is_identity():
        raise PreconditionError("this twist applies to algebras with identity twisting map")
    return twist(algebra, beta)


@dataclass(frozen=True)
class BetaTwisting:
    """The untwisted triple (beta{,}, beta mu) built from a self-morphism.

    Unlike ``twist``, the result keeps the identity twisting map and carries
    no guarantee of satisfying any identity.
    """

    result: HomPoissonAlgebra


def beta_twisting(algebra: HomPoissonAlgebra, beta: LinearMap) -> BetaTwisting:
    # yau_twist refuses alpha != I, and with I as both twisting maps the weak-morphism
    # check of twist is the whole self-morphism condition: beta I = I beta always holds.
    return BetaTwisting(replace(yau_twist(algebra, beta), alpha=algebra.alpha))


def is_trivial_twisting(twisting: BetaTwisting) -> bool:
    return twisting.result.bracket.is_zero() and twisting.result.mu.is_zero()


def verify_isomorphism(f: LinearMap, source, target) -> CheckReport:
    """Certify that f is an isomorphism: invertible and a morphism both ways."""
    try:
        f_inv = f.invert()
    except SingularMatrixError:
        return aggregate_report("isomorphism", [
            make_report("isomorphism[invertible]", [((), f.kernel_vector())])])
    parts = [
        make_report("isomorphism[invertible]"),
        check_morphism(f, source, target),
        check_morphism(f_inv, target, source),
    ]
    return aggregate_report("isomorphism", parts)


def nonrigidity_witness(algebra: HomPoissonAlgebra, beta: LinearMap,
                        triple, op: str = "mu") -> Vector:
    """Associator of beta*mu (or Jacobian of beta*{,}) at the given element triple.

    A nonzero value certifies that the beta-twisting fails the corresponding
    untwisted identity, hence is neither trivial nor isomorphic to the base.
    """
    identity = {"mu": associator, "bracket": jacobian}.get(op)
    if identity is None:
        raise ValueError(f"op must be 'mu' or 'bracket', got {op!r}")
    t = getattr(twist(algebra, beta), op)
    x, y, z = triple
    return _at(identity, algebra.dim, (t, LinearMap.identity(algebra.dim)), (x, y, z))


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def tensor(a1: HomPoissonAlgebra, a2: HomPoissonAlgebra) -> HomPoissonAlgebra:
    """Tensor product of two commutative algebras.

    The product acts factorwise; the bracket is the derivation-style mix
    {x1,y1} (x) x2 y2 + x1 y1 (x) {x2,y2}.  The product basis is ordered with
    the second factor varying fastest: (i, j) -> i * dim2 + j.
    """
    for name, a in (("first", a1), ("second", a2)):
        if not a.commutative:
            raise PreconditionError(f"tensor product requires commutative factors; {name} factor is not flagged commutative")
        rep = check_commutative(a)
        if not rep.passed:
            raise PreconditionError(f"tensor product factor claims commutativity but fails it ({name})", rep)
    return HomPoissonAlgebra(
        basis=tuple(f"{b1}⊗{b2}" for b1 in a1.basis for b2 in a2.basis),
        bracket=tabulate(a1.dim * a2.dim, operation_sum, a1.bracket.kron(a2.mu), a1.mu.kron(a2.bracket)),
        mu=a1.mu.kron(a2.mu),
        alpha=a1.alpha.kron(a2.alpha),
        commutative=True,
    )


# ---------------------------------------------------------------------------
# Polarization / depolarization
# ---------------------------------------------------------------------------

def operation_sum(E, s, t, x, y):
    """s(x, y) + t(x, y)."""
    return E.op(s, x, y) + E.op(t, x, y)


def polarize(algebra: HomAlgebra) -> HomPoissonAlgebra:
    """Split one product into its antisymmetric and symmetric halves."""
    return HomPoissonAlgebra(
        basis=algebra.basis,
        bracket=tabulate(algebra.dim, lambda E, mu, x, y: _HALF * commutativity(E, mu, x, y), algebra.mu),
        mu=tabulate(algebra.dim, lambda E, mu, x, y: _HALF * antisymmetry(E, mu, x, y), algebra.mu),
        alpha=algebra.alpha,
        commutative=True,
    )


def depolarize(algebra: HomPoissonAlgebra) -> HomAlgebra:
    """Recombine bracket and product into the single product bracket + product."""
    return HomAlgebra(
        basis=algebra.basis,
        mu=tabulate(algebra.dim, operation_sum, algebra.bracket, algebra.mu),
        alpha=algebra.alpha,
    )


def admissibility(E, mu, alpha, x, y, z):
    """as(x,y,z) - 1/3 [(xz)a(y) - (zx)a(y) + (yz)a(x) - (yx)a(z)]."""
    def twisted(a, b, c):
        return E.op(mu, E.op(mu, a, b), E.ap(alpha, c))
    rhs = twisted(x, z, y) - twisted(z, x, y) + twisted(y, z, x) - twisted(y, x, z)
    return associator(E, mu, alpha, x, y, z) - _THIRD * rhs


def flexibility(E, mu, alpha, x, y, z):
    """as(x,y,z) + as(z,y,x)."""
    return associator(E, mu, alpha, x, y, z) + associator(E, mu, alpha, z, y, x)


def check_admissible(algebra) -> CheckReport:
    """Is the single product's twisted associator the prescribed 1/3-combination?

    Passing is equivalent to the polarization being a full bracket/product
    structure satisfying the whole identity suite.
    """
    return sweep("admissible", algebra.dim, 3, admissibility, algebra.mu, algebra.alpha)


def check_hom_flexible(algebra) -> CheckReport:
    """as(x,y,z) + as(z,y,x) = 0 on all basis triples."""
    return sweep("hom-flexible", algebra.dim, 3, flexibility, algebra.mu, algebra.alpha)
