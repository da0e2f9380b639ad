"""Poisson brackets on polynomial algebras, and their twistings.

Realizes the infinite-dimensional examples at polynomial scale: the bracket
on a symmetric algebra induced by Lie structure constants, the canonical
bracket on even-dimensional coordinate space, substitution endomorphisms as
twisting maps, and the non-associativity / non-rigidity probes built from
them.  Everything stays exact: coefficients are rationals, points are
rational, and residuals are polynomials compared to literal zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .algebra import (
    CheckReport,
    HomPoissonAlgebra,
    Witness,
    associator,
    check_antisymmetry,
    check_hom_jacobi,
    make_report,
    morphism,
)
from .errors import GeneratorMismatch, PreconditionError
from .linalg import LinearMap, Trilinear, rat
from .poly import Polynomial

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Substitution endomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Substitution:
    """Algebra endomorphism of a polynomial ring, given by generator images."""

    images: Mapping[str, Polynomial]

    def __post_init__(self):
        object.__setattr__(self, "images", dict(self.images))

    @staticmethod
    def identity(generators) -> "Substitution":
        return Substitution({g: Polynomial.var(generators, g) for g in generators})

    @staticmethod
    def from_map(generators, mapping: Mapping[str, Polynomial]) -> "Substitution":
        """Images for the named generators; unnamed generators map to themselves."""
        images = {g: Polynomial.var(generators, g) for g in generators}
        images.update(mapping)
        return Substitution(images)

    def __call__(self, f: Polynomial) -> Polynomial:
        return f.substitute(self.images)

    def iterate(self, f: Polynomial, k: int) -> Polynomial:
        for _ in range(k):
            f = self(f)
        return f

    def is_linear(self) -> bool:
        """Degree <= 1 images with zero constant term."""
        return all(img.degree() <= 1 and img.constant_term() == 0
                   for img in self.images.values())

    def is_affine(self) -> bool:
        return all(img.degree() <= 1 for img in self.images.values())


def substitute(sub: Substitution, f: Polynomial) -> Polynomial:
    return sub(f)


# ---------------------------------------------------------------------------
# Bracket structures
# ---------------------------------------------------------------------------

class LiePoissonStructure:
    """Bracket on a polynomial ring induced by Lie structure constants.

    ``constants[(i, j, k)]`` is the e_k-coefficient of [e_i, e_j].  The
    constants are validated at construction: antisymmetry and the Jacobi
    identity must hold exactly.
    """

    def __init__(self, generators, constants: Mapping):
        self.generators = tuple(generators)
        self.n = len(self.generators)
        self.constants = Trilinear(self.n, constants)
        probe = HomPoissonAlgebra(
            basis=self.generators,
            bracket=self.constants,
            mu=Trilinear.zero(self.n),
            alpha=LinearMap.identity(self.n),
        )
        anti = check_antisymmetry(probe)
        if not anti.passed:
            raise PreconditionError("structure constants are not antisymmetric", anti)
        jac = check_hom_jacobi(probe)
        if not jac.passed:
            raise PreconditionError("structure constants fail the Jacobi identity", jac)

    def variable(self, name) -> Polynomial:
        return Polynomial.var(self.generators, name)

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return lie_poisson_bracket(self, f, g)


def lie_poisson_bracket(struct: LiePoissonStructure, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = 1/2 sum_{i,j,k} c_ij^k e_k (df/de_i dg/de_j - df/de_j dg/de_i).

    The full double sum over ordered (i, j) together with antisymmetric
    constants double-counts each unordered pair, which the global 1/2
    compensates; on generators the bracket returns the Lie bracket itself.
    """
    gens = struct.generators
    if f.generators != gens or g.generators != gens:
        raise GeneratorMismatch("polynomials must live on the structure's generators")
    df = [f.diff(name) for name in gens]
    dg = [g.diff(name) for name in gens]
    evars = Polynomial.variables(gens)
    acc = Polynomial.zero(gens)
    for (i, j, k), c in struct.constants.items():
        mixed = df[i] * dg[j] - df[j] * dg[i]
        if mixed.is_zero():
            continue
        acc = acc + (_HALF * c) * (evars[k] * mixed)
    return acc


class SymplecticStructure:
    """Canonical bracket on 2n coordinates x1..x2n, pairing x_i with x_{i+n}."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("half-dimension must be >= 1")
        self.n = n
        self.generators = tuple(f"x{i}" for i in range(1, 2 * n + 1))

    def variable(self, name) -> Polynomial:
        return Polynomial.var(self.generators, name)

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return symplectic_bracket(self, f, g)


def symplectic_bracket(struct: SymplecticStructure, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_i (df/dx_i dg/dx_{i+n} - df/dx_{i+n} dg/dx_i)."""
    gens = struct.generators
    if f.generators != gens or g.generators != gens:
        raise GeneratorMismatch("polynomials must live on the structure's generators")
    acc = Polynomial.zero(gens)
    for i in range(struct.n):
        a, b = gens[i], gens[i + struct.n]
        acc = acc + f.diff(a) * g.diff(b) - f.diff(b) * g.diff(a)
    return acc


# ---------------------------------------------------------------------------
# Substitutions as bracket morphisms
# ---------------------------------------------------------------------------

class POLYNOMIALS:
    """Evaluates an identity on polynomials: ``op(m, f, g)`` is the product
    or bracket ``m(f, g)`` and ``ap(sub, f)`` the substitution ``sub(f)``."""

    op = staticmethod(lambda m, f, g: m(f, g))
    ap = staticmethod(lambda sub, f: sub(f))


def _generator_pairs(identity: str, struct, sub: Substitution) -> CheckReport:
    """sub({x, y}) = {sub(x), sub(y)} on all pairs of generators."""
    gens = struct.generators
    witnesses = []
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            diff = morphism(POLYNOMIALS, sub, struct.bracket, struct.bracket,
                            struct.variable(gi), struct.variable(gj))
            if not diff.is_zero():
                witnesses.append(Witness((i, j), diff))
    return make_report(identity, witnesses)


def check_poisson_substitution(struct: LiePoissonStructure, sub: Substitution) -> CheckReport:
    """Does the substitution respect the induced bracket?

    Verified on generator pairs only, which suffices because the bracket is a
    biderivation and the substitution an algebra morphism; the images are
    required to be linear with zero constant term, the shape induced by a
    Lie-algebra self-map, so that argument applies.
    """
    if not sub.is_linear():
        raise PreconditionError("bracket-morphism check requires linear generator images")
    return _generator_pairs("poisson-substitution", struct, sub)


def check_symplectic_substitution(struct: SymplecticStructure, sub: Substitution) -> CheckReport:
    """Same generator-pair check for the canonical bracket; affine images allowed
    (translations are the motivating case)."""
    if not sub.is_affine():
        raise PreconditionError("bracket-morphism check requires degree <= 1 generator images")
    return _generator_pairs("symplectic-substitution", struct, sub)


# ---------------------------------------------------------------------------
# Twisted-product probes
# ---------------------------------------------------------------------------

def twisted_product(sub: Substitution, f: Polynomial, g: Polynomial) -> Polynomial:
    """The twisted product sub(f * g)."""
    return sub(f * g)


def twisted_associator(sub: Substitution, f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """Plain associator of the twisted product at (f, g, h).

    Nonzero output certifies that twisting the polynomial product by ``sub``
    destroys associativity.
    """
    return associator(POLYNOMIALS, lambda a, b: twisted_product(sub, a, b), lambda a: a, f, g, h)


class ManifoldProbe(NamedTuple):
    trace: Fraction
    determinant: Fraction
    non_rigid: bool


def manifold_nonrigidity_check(struct: SymplecticStructure, phi: Substitution,
                               f: Polynomial, point: Mapping[str, Fraction]) -> ManifoldProbe:
    """Pullback probe for non-rigidity of the canonical bracket.

    Evaluates f at the first three forward iterates of the point map realized
    by ``phi`` and reports the trace condition f(phi^2(x)) and the determinant
    condition f(phi^2(x))^2 - f(phi(x)) f(phi^3(x)); both nonzero certifies
    that the twisted product fails associativity at the probe point.
    """
    report = check_symplectic_substitution(struct, phi)
    if not report.passed:
        raise PreconditionError("probe map does not respect the canonical bracket", report)
    values = [phi.iterate(f, k).evaluate(point) for k in (1, 2, 3)]
    trace = values[1]
    deter = values[1] * values[1] - values[0] * values[2]
    return ManifoldProbe(trace, deter, trace != 0 and deter != 0)


def translation(struct: SymplecticStructure, constants) -> Substitution:
    """The substitution x_i -> x_i + c_i realizing a coordinate translation."""
    gens = struct.generators
    constants = [rat(c) for c in constants]
    if len(constants) != len(gens):
        raise GeneratorMismatch(f"expected {len(gens)} translation constants")
    images = {g: Polynomial.var(gens, g) + Polynomial.const(gens, c)
              for g, c in zip(gens, constants)}
    return Substitution(images)
