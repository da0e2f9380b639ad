"""Built-in example algebras and their parametrized twisting maps.

Every entry is built from structure constants spelled out here and passes its
advertised checks at build time (verified in the test suite and by the
``catalog`` CLI subcommand).  Each entry is one row of ``CATALOG``: its
builder, the names of the builder's parameters (their defaults are the
builder's own) and the checks it advertises.  The polynomial-ring entries import
``poisson_poly`` and ``poly`` on use, so building and checking a
finite-dimensional entry loads neither.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .algebra import (
    HomAlgebra,
    HomPoissonAlgebra,
    check_hom_associative,
    check_hom_poisson,
    check_multiplicative,
    make_report,
    morphism,
)
from .errors import HomPoissonError, ResourceLimitError
from .linalg import LinearMap, Trilinear, rat

# Desk-scale guards: the matrix algebra of size n has n^3 structure constants,
# and checking the symplectic space of half-dimension n forms (2n)^3 bracket
# terms; a size past this budget is refused before anything is built.
MAX_ENTRIES = 10 ** 6
# The advertised check of the matrix algebra of size n, a hom-associativity
# sweep, forms about 2n^4 products (n = 30: 1.6 * 10^6 in about 1 s); a size
# past this budget is refused before anything is built.
MAX_PRODUCTS = 2 * 10 ** 6

HEISENBERG_BASIS = ("X", "Y", "Z")

# [X,Y] = Z, Z central
HEISENBERG_BRACKET = {(0, 1, 2): 1, (1, 0, 2): -1}

SL2_BASIS = ("e", "f", "h")

# [h,e] = 2e, [h,f] = -2f, [e,f] = h
SL2_BRACKET = {
    (2, 0, 0): 2, (0, 2, 0): -2,
    (2, 1, 1): -2, (1, 2, 1): 2,
    (0, 1, 2): 1, (1, 0, 2): -1,
}


def heisenberg_p31(zeta=1) -> HomPoissonAlgebra:
    """Heisenberg bracket with commutative product XY = YX = zeta Z."""
    z = rat(zeta)
    mu = {(0, 1, 2): z, (1, 0, 2): z} if z != 0 else {}
    return HomPoissonAlgebra(
        basis=HEISENBERG_BASIS,
        bracket=Trilinear(3, HEISENBERG_BRACKET),
        mu=Trilinear(3, mu),
        alpha=LinearMap.identity(3),
        commutative=True,
    )


def heisenberg_p32() -> HomPoissonAlgebra:
    """Heisenberg bracket with commutative product X^2 = Z."""
    return HomPoissonAlgebra(
        basis=HEISENBERG_BASIS,
        bracket=Trilinear(3, HEISENBERG_BRACKET),
        mu=Trilinear(3, {(0, 0, 2): 1}),
        alpha=LinearMap.identity(3),
        commutative=True,
    )


def heisenberg_morphism(a11, a12, a21, a22, a31=0, a32=0) -> LinearMap:
    """The general bracket-morphism of the Heisenberg structure.

    X and Y map into the (X, Y, Z)-span through the six parameters; Z is
    forced onto b Z with b the determinant of the 2x2 (X, Y)-block.
    """
    a11, a12, a21, a22, a31, a32 = (rat(v) for v in (a11, a12, a21, a22, a31, a32))
    b = a11 * a22 - a21 * a12
    return LinearMap((
        (a11, a12, Fraction(0)),
        (a21, a22, Fraction(0)),
        (a31, a32, b),
    ))


def matrix_algebra(n: int = 2) -> HomAlgebra:
    """Full matrix algebra on the unit-matrix basis, identity twisting map.

    Basis names are ``E{i}{j}`` for n <= 9 and ``E{i}_{j}`` from n = 10 on.
    The product declares the automorphisms E_ij -> E_s(i)s(j) of the index
    transposition (0 1) and the n-cycle s(i) = i + 1 mod n, which generate
    every index permutation (see ``Trilinear.perms``).
    """
    if type(n) is not int:
        raise TypeError(f"matrix size n={n!r} is not an int")
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    if n ** 3 > MAX_ENTRIES:
        raise ResourceLimitError(f"matrix algebra n={n} has n^3 = {n ** 3} structure constants "
                                 f"(budget: {MAX_ENTRIES})")
    if 2 * n ** 4 > MAX_PRODUCTS:
        raise ResourceLimitError(f"matrix algebra n={n} has a hom-associativity check of 2n^4 = "
                                 f"{2 * n ** 4} products (budget: {MAX_PRODUCTS})")
    sep = "_" if n >= 10 else ""  # E111 would name both (1, 11) and (11, 1)
    basis = tuple(f"E{i}{sep}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    idx = lambda i, j: i * n + j  # 0-based
    entries = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                entries[(idx(a, b) * n * n + idx(b, c)) * n * n + idx(a, c)] = 1
    perms = tuple(dict.fromkeys(tuple(idx(s[i], s[j]) for i in range(n) for j in range(n))
                                for s in ((1, 0, *range(2, n)), (*range(1, n), 0)) if n > 1))
    return HomAlgebra(basis=basis, mu=Trilinear._of(n * n, entries, 1, perms=perms),
                      alpha=LinearMap.identity(n * n))


def conjugation_morphism(n: int = 2, top=Fraction(1, 2)) -> LinearMap:
    """Conjugation by diag(top, 1, ..., 1), ``top`` nonzero, as a map on the unit-matrix basis."""
    if type(n) is not int:
        raise TypeError(f"matrix size n={n!r} is not an int")
    top = rat(top)
    if top == 0:
        raise ValueError("conjugation parameter top must be nonzero")
    d = [top] + [Fraction(1)] * (n - 1)
    diag = []
    for i in range(n):
        for j in range(n):
            diag.append(d[i] / d[j])
    return LinearMap.diagonal(diag)


def sl2_linear_poisson() -> LiePoissonStructure:
    from .poisson_poly import LiePoissonStructure

    return LiePoissonStructure(SL2_BASIS, SL2_BRACKET)


def sl2_scaling(lam) -> Substitution:
    """e -> lam e, f -> lam^-1 f, h -> h; a bracket morphism for lam != 0."""
    from .poisson_poly import Substitution
    from .poly import Polynomial

    lam = rat(lam)
    if lam == 0:
        raise ValueError("scaling parameter must be nonzero")
    e, f, h = Polynomial.variables(SL2_BASIS)
    return Substitution({"e": lam * e, "f": (1 / lam) * f, "h": h})


def free_poly_shift() -> Substitution:
    """X -> 1 + X on the one-variable polynomial ring."""
    from .poisson_poly import Substitution
    from .poly import Polynomial

    x = Polynomial.var(("X",), "X")
    return Substitution({"X": x + 1})


def symplectic_space(n: int = 1) -> SymplecticStructure:
    from .poisson_poly import SymplecticStructure

    if type(n) is not int:
        raise TypeError(f"half-dimension n={n!r} is not an int")
    if n < 1:
        raise HomPoissonError(f"parameter n (half-dimension) must be >= 1, got {n}")
    if (2 * n) ** 3 > MAX_ENTRIES:
        raise ResourceLimitError(f"symplectic space n={n} has (2n)^3 = {(2 * n) ** 3} bracket terms "
                                 f"(budget: {MAX_ENTRIES})")
    return SymplecticStructure(n)


# name -> (builder, parameter names, advertised checks of the built entry)
CATALOG = {
    "heisenberg-p31": (heisenberg_p31, ("zeta",), lambda a: [check_hom_poisson(a), check_multiplicative(a)]),
    "heisenberg-p32": (heisenberg_p32, (), lambda a: [check_hom_poisson(a), check_multiplicative(a)]),
    "matrix": (matrix_algebra, ("n",), lambda a: [check_hom_associative(a)]),
    "sl2-linear-poisson": (sl2_linear_poisson, (), lambda s: list(s.reports)),
    "symplectic": (symplectic_space, ("n",), lambda s: [_canonical_relations_report(s)]),
    "free-poly": (free_poly_shift, (), lambda sub: [_shift_report(sub)]),
}


def build_catalog(name: str, params: dict | None = None):
    """Build a named catalog entry; unknown names and parameters are errors,
    and so are a ``bool`` value and a size ``n`` that is not an integer."""
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise HomPoissonError(f"unknown catalog entry {name!r} (known: {known})")
    builder, names, _ = CATALOG[name]
    params = dict(params or {})
    for key, value in params.items():
        if key not in names:
            raise HomPoissonError(f"catalog entry {name!r} takes no parameter {key!r}")
        if isinstance(value, bool):
            raise HomPoissonError(f"parameter {key} must be a number, got {value!r}")
    if "n" in params:
        n = rat(params["n"])
        if n.denominator != 1:
            raise HomPoissonError(f"parameter n must be an integer, got {n}")
        params["n"] = int(n)
    return builder(**params)


def entry_reports(name: str, obj) -> list:
    """The checks a built catalog entry advertises, as reports."""
    return CATALOG[name][2](obj)


def _canonical_relations_report(struct: SymplecticStructure):
    """{x_i, x_{i+n}} = 1 = -{x_{i+n}, x_i}, and every other generator pair
    brackets to 0."""
    from .poly import Polynomial

    n = struct.n
    xs = Polynomial.variables(struct.generators)
    return make_report("canonical-relations", (
        ((a, b), struct.bracket(xa, xb) - (1 if b == a + n else -1 if a == b + n else 0))
        for a, xa in enumerate(xs) for b, xb in enumerate(xs)))


def _shift_report(sub: Substitution):
    """Endomorphism property on sample inputs, and the orbit X -> X + k of
    the generator under iteration."""
    from .poisson_poly import POLYNOMIALS
    from .poly import Polynomial

    gens = next(iter(sub.images.values())).generators
    xs = Polynomial.variables(gens)
    f = xs[0] + 1
    g = xs[0] * xs[0] + 2
    cases = [((0,), morphism(POLYNOMIALS, sub, operator.mul, operator.mul, f, g))]
    x = xs[0]
    cases += [((k,), sub.iterate(x, k) - (x + k)) for k in (1, 2, 3)]
    return make_report("substitution-endomorphism", cases)
