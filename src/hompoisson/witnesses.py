"""Scripted replays of the worked examples, with machine-checked expectations.

Each function reproduces one case study end to end and returns a structured
result whose ``passed`` flag certifies that every expected value came out
exactly.  The CLI ``witness`` subcommand writes each result field by field,
under the first line of its class docstring; the acceptance tests assert
them.  Each replay imports the modules it runs, so a ``witness`` subcommand
loads only those.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .linalg import LinearMap, Vector, rat

GRID = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
# The fixed inputs of the replays below.
MATRIX_ENTRIES = (-2, -1, 0, 1, 2)
SL2_LAMBDAS = (2, 3, Fraction(1, 2), 0, 1)
R2N_CIS = (1, Fraction(3, 2), -2)
R2N_HALF_DIM = 2
RIGIDITY_ZETAS = (0, 1, Fraction(1, 2))
RIGIDITY_Z_COLUMNS = ((0, 0), (1, -2))


# ---------------------------------------------------------------------------
# Polynomial-ring shift: twisted product loses associativity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreePolyResult:
    """The shifted product's associator at (X, X, alpha(X)) is X + 2 by two routes."""

    residual: Polynomial
    direct: Polynomial
    passed: bool


def free_poly_witness() -> FreePolyResult:
    """Associator of the shifted product at (X, X, alpha(X)); must be X + 2.

    The same value is recomputed by direct expansion (2+X)^3 - (1+X)(2+X)(3+X)
    as an independent route.
    """
    from .catalog import free_poly_shift
    from .poisson_poly import twisted_associator
    from .poly import Polynomial

    sub = free_poly_shift()
    x = Polynomial.var(("X",), "X")
    residual = twisted_associator(sub, x, x, sub(x))
    direct = (x + 2) ** 3 - (x + 1) * (x + 2) * (x + 3)
    passed = residual == direct and not residual.is_zero()
    return FreePolyResult(residual, direct, passed)


# ---------------------------------------------------------------------------
# Matrix algebra: conjugation twist loses associativity (search witness)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixTwistResult:
    """The conjugation twist of 2x2 matrices is not associative, by two routes."""

    matrix: tuple          # the found 2x2 integer matrix, row-major; () if none
    residual: Vector       # structure-constant route
    oracle: tuple          # dense matrix-arithmetic route, row-major
    passed: bool


def _dense_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _dense_conj(d, m):
    n = len(m)
    return tuple(tuple(d[i] * m[i][j] / d[j] for j in range(n)) for i in range(n))


def matrix_twist_witness() -> MatrixTwistResult:
    """Search small integer 2x2 matrices for a nonzero twisted associator.

    The twisting map is conjugation by diag(1/2, 1).  The residual is computed
    both through the structure-constant machinery on the unit-matrix basis and
    through plain dense matrix arithmetic; both routes must agree.  When no
    matrix in the search range gives one, the result fails with an empty
    matrix and a zero residual.
    """
    from .catalog import conjugation_morphism, matrix_algebra
    from .constructions import commutator_poisson, nonrigidity_witness

    algebra = commutator_poisson(matrix_algebra(2))
    beta = conjugation_morphism(2)
    d = (Fraction(1, 2), Fraction(1))
    for entries in itertools.product(MATRIX_ENTRIES, repeat=4):
        m = (entries[0:2], entries[2:4])
        dense = tuple(tuple(Fraction(v) for v in row) for row in m)
        # dense route: mb(a, b) = conj(a b); associator at (X, X, conj(X))
        mb = lambda a, b: _dense_conj(d, _dense_mul(a, b))
        bx = _dense_conj(d, dense)
        oracle = tuple(
            tuple(l - r for l, r in zip(row_l, row_r))
            for row_l, row_r in zip(mb(mb(dense, dense), bx), mb(dense, mb(dense, bx)))
        )
        if all(v == 0 for row in oracle for v in row):
            continue
        vec = Vector.of(*[dense[i][j] for i in range(2) for j in range(2)])
        residual = nonrigidity_witness(algebra, beta, (vec, vec, beta.apply(vec)), op="mu")
        agreed = list(residual.entries) == [oracle[i][j] for i in range(2) for j in range(2)]
        return MatrixTwistResult(m, residual, oracle, agreed and not residual.is_zero())
    return MatrixTwistResult((), Vector.zero(4), (), False)


# ---------------------------------------------------------------------------
# sl2 linear bracket: scaled twist loses associativity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sl2Case:
    lam: Fraction
    residual: Polynomial
    expected: Polynomial
    morphism_verified: bool


@dataclass(frozen=True)
class Sl2Result:
    """The scaled sl2 twist has associator (lam^2 - lam) e h^2 at (e, h, h)."""

    cases: tuple
    passed: bool


def sl2_witness() -> Sl2Result:
    """Associator of the scaled twist at (e, h, h) must be (lam^2 - lam) e h^2.

    Nonzero exactly for lam outside {0, 1}.  For lam = 0 the inverse scaling
    of f does not exist, so f is fixed instead; the probe triple never
    involves f, and the bracket-morphism certificate is skipped.
    """
    from .catalog import sl2_linear_poisson, sl2_scaling
    from .poisson_poly import Substitution, check_poisson_substitution, twisted_associator

    struct = sl2_linear_poisson()
    e, f, h = (struct.variable(g) for g in struct.generators)
    cases = []
    ok = True
    for lam in SL2_LAMBDAS:
        lam = rat(lam)
        if lam != 0:
            sub = sl2_scaling(lam)
            verified = check_poisson_substitution(struct, sub).passed
        else:
            sub = Substitution({"e": 0 * e, "f": f, "h": h})
            verified = False
        residual = twisted_associator(sub, e, h, h)
        expected = (lam * lam - lam) * e * h * h
        case_ok = residual == expected and (residual.is_zero() == (lam in (0, 1)))
        if lam != 0:
            case_ok = case_ok and verified
        ok = ok and case_ok
        cases.append(Sl2Case(lam, residual, expected, verified))
    return Sl2Result(tuple(cases), ok)


# ---------------------------------------------------------------------------
# Even-dimensional coordinate space: translation probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslationCase:
    c_i: Fraction
    trace: Fraction
    determinant: Fraction
    non_rigid: bool
    orbit_ok: bool


@dataclass(frozen=True)
class TranslationResult:
    """Translations of R^2n have trace 2c_i, determinant c_i^2 and the expected orbit."""

    cases: tuple
    passed: bool


def r2n_witness() -> TranslationResult:
    """Translation by (c_i, ...) probed with f = x_1 at the origin.

    Expects trace 2 c_i and determinant condition c_i^2, and checks the orbit
    of the origin is (k c_1, ..., k c_2n) for k = 1..3.
    """
    from .catalog import symplectic_space
    from .poisson_poly import manifold_nonrigidity_check, translation

    struct = symplectic_space(R2N_HALF_DIM)
    gens = struct.generators
    f = struct.variable(gens[0])
    origin = {g: Fraction(0) for g in gens}
    cases = []
    ok = True
    for ci in R2N_CIS:
        ci = rat(ci)
        consts = [ci] + [Fraction(j + 2) for j in range(len(gens) - 1)]
        phi = translation(struct, consts)
        probe = manifold_nonrigidity_check(struct, phi, f, origin)
        orbit_ok = all(
            phi.iterate(struct.variable(g), k).evaluate(origin) == k * c
            for k in (1, 2, 3)
            for g, c in zip(gens, consts)
        )
        case_ok = (probe.trace == 2 * ci and probe.determinant == ci * ci
                   and probe.non_rigid and orbit_ok)
        ok = ok and case_ok
        cases.append(TranslationCase(ci, probe.trace, probe.determinant, probe.non_rigid, orbit_ok))
    return TranslationResult(tuple(cases), ok)


# ---------------------------------------------------------------------------
# Heisenberg products: every verified twisting is trivial or isomorphic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityCase:
    algebra: str
    trivial: int
    isomorphic: int
    skipped: int
    failures: tuple


@dataclass(frozen=True)
class RigidityResult:
    """Every verified twisting of the Heisenberg products is trivial or isomorphic."""

    cases: tuple
    passed: bool


def _classify_twistings(algebra, label: str, maps) -> RigidityCase:
    from .constructions import beta_twisting, is_trivial_twisting, verify_isomorphism

    trivial = isomorphic = skipped = 0
    failures = []
    for beta in maps:
        try:
            tw = beta_twisting(algebra, beta)
        except PreconditionError:
            skipped += 1
            continue
        if is_trivial_twisting(tw):
            trivial += 1
            continue
        b = beta.entry(2, 2)  # the forced Z -> b Z coefficient
        f = LinearMap.diagonal((1, 1, b))
        if verify_isomorphism(f, algebra, tw.result).passed:
            isomorphic += 1
        else:
            failures.append(tuple(tuple(row) for row in beta.rows))
    return RigidityCase(label, trivial, isomorphic, skipped, tuple(failures))


def general_heisenberg_maps():
    """All bracket morphisms over the grid on the 2x2 block, few Z-column choices."""
    from .catalog import heisenberg_morphism

    out = []
    for a, b, c, d in itertools.product(GRID, repeat=4):
        for u, v in RIGIDITY_Z_COLUMNS:
            out.append(heisenberg_morphism(a, b, c, d, u, v))
    return out


def heisenberg_rigidity_replay() -> RigidityResult:
    """Classify every verified twisting over the grid as trivial or isomorphic.

    Covers the XY-product algebras for each zeta and the X^2-product algebra;
    the isomorphism candidate is always X -> X, Y -> Y, Z -> b Z.  Any third
    outcome is recorded as a failure.
    """
    from .catalog import heisenberg_p31, heisenberg_p32

    cases = []
    maps = general_heisenberg_maps()
    for zeta in RIGIDITY_ZETAS:
        algebra = heisenberg_p31(zeta)
        cases.append(_classify_twistings(algebra, f"xy-product(zeta={rat(zeta)})", maps))
    cases.append(_classify_twistings(heisenberg_p32(), "x2-product", maps))
    passed = all(not case.failures for case in cases)
    return RigidityResult(tuple(cases), passed)
