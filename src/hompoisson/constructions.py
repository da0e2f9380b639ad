"""Algebra-producing constructions and the checks that certify them.

Covers: the commutator bracket on a twisted-associative algebra, twisting by
(weak) self-morphisms, derived sequences, tensor products of commutative
algebras, untwisted beta-twistings with triviality and isomorphism tests,
polarization/depolarization, and the admissibility and flexibility checks
that characterize when a single product encodes a full bracket/product pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    VECTORS,
    CheckReport,
    HomAlgebra,
    HomPoissonAlgebra,
    Witness,
    aggregate_report,
    associator,
    check_commutative,
    check_hom_associative,
    check_morphism,
    check_multiplicative,
    jacobian,
    make_report,
    sweep,
)
from .errors import PreconditionError, SingularMatrixError
from .linalg import LinearMap, Trilinear, Vector

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# Commutator structure
# ---------------------------------------------------------------------------

def commutator_poisson(algebra: HomAlgebra) -> HomPoissonAlgebra:
    """Equip a twisted-associative algebra with its commutator bracket.

    The input must pass check_hom_associative; the result carries the same
    product and twisting map, with bracket mu - mu^op.
    """
    report = check_hom_associative(algebra)
    if not report.passed:
        raise PreconditionError("commutator construction requires a twisted-associative input", report)
    return HomPoissonAlgebra(
        basis=algebra.basis,
        bracket=algebra.mu - algebra.mu.op(),
        mu=algebra.mu,
        alpha=algebra.alpha,
        commutative=algebra.mu.is_symmetric(),
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

    base: HomPoissonAlgebra
    beta: LinearMap
    result: HomPoissonAlgebra


def beta_twisting(algebra: HomPoissonAlgebra, beta: LinearMap) -> BetaTwisting:
    if not algebra.alpha.is_identity():
        raise PreconditionError("beta-twisting is defined for algebras with identity twisting map")
    report = check_morphism(beta, algebra, algebra)
    if not report.passed:
        raise PreconditionError("beta-twisting requires a self-morphism", report)
    result = HomPoissonAlgebra(
        basis=algebra.basis,
        bracket=algebra.bracket.map_outputs(beta),
        mu=algebra.mu.map_outputs(beta),
        alpha=LinearMap.identity(algebra.dim),
        commutative=algebra.commutative,
    )
    return BetaTwisting(algebra, beta, result)


def is_trivial_twisting(twisting: BetaTwisting) -> bool:
    return twisting.result.bracket.is_zero() and twisting.result.mu.is_zero()


def verify_isomorphism(f: LinearMap, source, target) -> CheckReport:
    """Certify that f is an isomorphism: invertible and a morphism both ways."""
    try:
        f_inv = f.invert()
    except SingularMatrixError:
        kernel = f.kernel_vector()
        wit = (Witness((), kernel),) if kernel is not None else ()
        inv_part = CheckReport("isomorphism[invertible]", False, wit)
        return aggregate_report("isomorphism", [inv_part])
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
    report = check_morphism(beta, algebra, algebra, weak=True)
    if not report.passed:
        raise PreconditionError("non-rigidity probe requires a (weak) self-morphism", report)
    x, y, z = triple
    identity = {"mu": associator, "bracket": jacobian}.get(op)
    if identity is None:
        raise ValueError(f"op must be 'mu' or 'bracket', got {op!r}")
    t = getattr(algebra, op).map_outputs(beta)
    return identity(VECTORS, t, LinearMap.identity(algebra.dim), x, y, z)


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
    d1, d2 = a1.dim, a2.dim
    dim = d1 * d2
    idx = lambda i, j: i * d2 + j

    basis = tuple(f"{b1}⊗{b2}" for b1 in a1.basis for b2 in a2.basis)

    alpha_rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(d1):
        for k in range(d1):
            e1 = a1.alpha.entry(i, k)
            if e1 == 0:
                continue
            for j in range(d2):
                for l in range(d2):
                    e2 = a2.alpha.entry(j, l)
                    if e2 != 0:
                        alpha_rows[idx(i, j)][idx(k, l)] = e1 * e2
    alpha = LinearMap(tuple(tuple(r) for r in alpha_rows))

    mu_entries: dict = {}
    for (i, k, p), q1 in a1.mu.items():
        for (j, l, r), q2 in a2.mu.items():
            key = (idx(i, j), idx(k, l), idx(p, r))
            mu_entries[key] = mu_entries.get(key, Fraction(0)) + q1 * q2

    br_entries: dict = {}
    for (i, k, p), qb in a1.bracket.items():
        for (j, l, r), qm in a2.mu.items():
            key = (idx(i, j), idx(k, l), idx(p, r))
            br_entries[key] = br_entries.get(key, Fraction(0)) + qb * qm
    for (i, k, p), qm in a1.mu.items():
        for (j, l, r), qb in a2.bracket.items():
            key = (idx(i, j), idx(k, l), idx(p, r))
            br_entries[key] = br_entries.get(key, Fraction(0)) + qm * qb

    return HomPoissonAlgebra(
        basis=basis,
        bracket=Trilinear(dim, br_entries),
        mu=Trilinear(dim, mu_entries),
        alpha=alpha,
        commutative=True,
    )


# ---------------------------------------------------------------------------
# Polarization / depolarization
# ---------------------------------------------------------------------------

def polarize(algebra: HomAlgebra) -> HomPoissonAlgebra:
    """Split one product into its antisymmetric and symmetric halves."""
    mu_op = algebra.mu.op()
    return HomPoissonAlgebra(
        basis=algebra.basis,
        bracket=(algebra.mu - mu_op).scale(_HALF),
        mu=(algebra.mu + mu_op).scale(_HALF),
        alpha=algebra.alpha,
        commutative=True,
    )


def depolarize(algebra: HomPoissonAlgebra) -> HomAlgebra:
    """Recombine bracket and product into the single product bracket + product."""
    return HomAlgebra(
        basis=algebra.basis,
        mu=algebra.bracket + algebra.mu,
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
