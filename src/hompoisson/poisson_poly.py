"""Poisson brackets on polynomial algebras, and their twistings.

Realizes the infinite-dimensional examples at polynomial scale: one
biderivation bracket fixed by its values on generator pairs, specialized to
the bracket on a symmetric algebra induced by Lie structure constants and to
the canonical bracket on even-dimensional coordinate space; substitution
endomorphisms as twisting maps, and the non-associativity / non-rigidity
probes built from them.  Everything stays exact: coefficients are rationals, points are
rational, and residuals are polynomials compared to literal zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .algebra import (
    CheckReport,
    HomPoissonAlgebra,
    associator,
    check_antisymmetry,
    check_hom_jacobi,
    make_report,
    morphism,
)
from .errors import GeneratorMismatch, PreconditionError
from .linalg import LinearMap, Trilinear, _basis_index, rat
from .poly import Polynomial, _distinct


# ---------------------------------------------------------------------------
# Substitution endomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Substitution:
    """Algebra endomorphism of a polynomial ring, given by generator images."""

    images: Mapping[str, Polynomial]

    def __post_init__(self):
        object.__setattr__(self, "images", dict(self.images))

    def __call__(self, f: Polynomial) -> Polynomial:
        return f.substitute(self.images)

    def iterate(self, f: Polynomial, k: int) -> Polynomial:
        for _ in range(k):
            f = self(f)
        return f


# ---------------------------------------------------------------------------
# Bracket structures
# ---------------------------------------------------------------------------

class PoissonStructure:
    """Poisson bracket on a polynomial ring, fixed by its values on generators.

    ``relations[(i, j)]`` is the polynomial {x_i, x_j}; pairs left out
    bracket to zero.  The bracket of two polynomials is the biderivation
    {f, g} = sum_{i,j} {x_i, x_j} df/dx_i dg/dx_j.  The generators must be
    distinct, each key a pair of generator indices, each value a rational or
    a polynomial on the generators, and the relations antisymmetric:
    {x_j, x_i} = -{x_i, x_j}, so {x_i, x_i} = 0.  Only ``LiePoissonStructure``
    checks the Jacobi identity, on its structure constants.
    """

    def __init__(self, generators, relations: Mapping):
        self.generators = gens = _distinct(generators)
        self.relations = dict(relations)
        for key, value in self.relations.items():
            try:
                if not (type(key) is tuple and len(key) == 2):
                    raise TypeError
                for i in key:
                    _basis_index(i, len(gens))
            except (TypeError, IndexError):
                raise ValueError(f"relation key {key!r} is not a pair of generator indices "
                                 f"in 0..{len(gens) - 1}") from None
            if isinstance(value, Polynomial):
                if value.generators != gens:
                    raise GeneratorMismatch(f"relation {key!r} lives on {value.generators}, not on {gens}")
            elif type(value) not in (int, Fraction):
                raise ValueError(f"relation {key!r} is {value!r}, neither a rational nor a Polynomial")
        for (i, j), value in self.relations.items():
            if self.relations.get((j, i), 0) != -value:
                raise ValueError(f"relation {(i, j)!r} is {value!r}, but relation {(j, i)!r} is not its negative")

    def variable(self, name) -> Polynomial:
        return Polynomial.var(self.generators, name)

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        gens = self.generators
        if f.generators != gens or g.generators != gens:
            raise GeneratorMismatch("polynomials must live on the structure's generators")
        df = [f.diff(name) for name in gens]
        dg = [g.diff(name) for name in gens]
        acc = Polynomial.zero(gens)
        for (i, j), rel in self.relations.items():
            if df[i] and dg[j]:
                acc = acc + rel * df[i] * dg[j]
        return acc


class LiePoissonStructure(PoissonStructure):
    """Bracket on a polynomial ring induced by Lie structure constants.

    ``constants[(i, j, k)]`` is the e_k-coefficient of [e_i, e_j], and
    {e_i, e_j} = sum_k c_ij^k e_k.  The constants are validated at
    construction: antisymmetry and the Jacobi identity must hold exactly;
    ``reports`` keeps both passed checks.
    """

    def __init__(self, generators, constants: Mapping):
        generators = tuple(generators)
        self.n = len(generators)
        self.constants = Trilinear(self.n, constants)
        probe = HomPoissonAlgebra(
            basis=generators,
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
        self.reports = (anti, jac)
        evars = Polynomial.variables(generators)
        relations: dict = {}
        for (i, j, k), c in self.constants.items():
            relations[i, j] = relations.get((i, j), 0) + c * evars[k]
        super().__init__(generators, relations)


class SymplecticStructure(PoissonStructure):
    """Canonical bracket on 2n coordinates x1..x2n, pairing x_i with x_{i+n}."""

    def __init__(self, n: int):
        if type(n) is not int:
            raise TypeError(f"half-dimension n={n!r} is not an int")
        if n < 1:
            raise ValueError("half-dimension must be >= 1")
        self.n = n
        generators = tuple(f"x{i}" for i in range(1, 2 * n + 1))
        one = Polynomial.const(generators, 1)
        relations = {}
        for i in range(n):
            relations[i, i + n] = one
            relations[i + n, i] = -one
        super().__init__(generators, relations)


# ---------------------------------------------------------------------------
# Substitutions as bracket morphisms
# ---------------------------------------------------------------------------

class POLYNOMIALS:
    """Evaluates an identity on polynomials: ``op(m, f, g)`` is the product
    or bracket ``m(f, g)`` and ``ap(sub, f)`` the substitution ``sub(f)``."""

    op = staticmethod(lambda m, f, g: m(f, g))
    ap = staticmethod(lambda sub, f: sub(f))


def check_poisson_substitution(struct: PoissonStructure, sub: Substitution) -> CheckReport:
    """Does the substitution respect the bracket?  sub({x, y}) = {sub(x), sub(y)}
    on all pairs of generators.

    Generator pairs decide it for any polynomial images: sub({f, g}) and
    {sub(f), sub(g)} are both biderivations along the algebra morphism sub
    that vanish on constants, so they agree everywhere once they agree on
    generators.
    """
    xs = Polynomial.variables(struct.generators)
    return make_report("poisson-substitution", (
        ((i, j), morphism(POLYNOMIALS, sub, struct.bracket, struct.bracket, xi, xj))
        for i, xi in enumerate(xs) for j, xj in enumerate(xs)))


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
    report = check_poisson_substitution(struct, phi)
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
