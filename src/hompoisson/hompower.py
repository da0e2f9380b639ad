"""Twisted powers and power-associativity checks via generic elements.

Power identities are not multilinear, so basis sweeps do not decide them.
Instead an element with independent polynomial coordinates t_1..t_dim is
pushed through the power recursion; a residual that is the zero polynomial
vector proves the identity for every element over an infinite coefficient
field, exactly.
"""

from __future__ import annotations

from .algebra import VECTORS, CheckReport, check_multiplicative, commutativity, make_report
from .errors import PreconditionError, ResourceLimitError
from .linalg import LinearMap, Vector
from .poly import Polynomial

# Desk-scale guards: generic n-th powers in dimension d are polynomials of
# degree n in d variables; past these bounds the run is refused outright.
MAX_POWER = 8
MAX_DIM = 8


def generic_element(dim: int) -> Vector:
    """The vector of independent variables t1..t_dim: an element whose powers
    are polynomial identities in its coordinates."""
    return Vector(Polynomial.variables(tuple(f"t{i}" for i in range(1, dim + 1))))


def hom_power(algebra, x: Vector, n: int) -> Vector:
    """n-th twisted power: x^1 = x, x^n = x^(n-1) * alpha^(n-2)(x)."""
    if n < 1:
        raise ValueError("twisted powers start at exponent 1")
    if x.dim != algebra.dim:
        raise ValueError(f"element dim {x.dim} != algebra dim {algebra.dim}")
    table, _ = _power_table(algebra, x, n)
    return table[n]


def _power_table(algebra, v: Vector, n: int) -> tuple[list, list]:
    """Twisted powers v^1..v^n (index 0 unused) and the twisting-map powers
    alpha^0..alpha^(n-1) that they and the pair powers use.

    The table starts from [I, alpha] and composes each higher power once, so
    an n-th power check makes n - 2 compositions."""
    mu, alpha = algebra.mu, algebra.alpha
    alphas = [LinearMap.identity(algebra.dim), alpha]
    for _ in range(2, n):
        alphas.append(alphas[-1].compose(alpha))
    table = [None, v]
    for m in range(2, n + 1):
        table.append(mu.contract(table[-1], alphas[m - 2].apply(v)))
    return table, alphas


def hom_power_pair(algebra, x: Vector, i: int, j: int) -> Vector:
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j)."""
    if i < 1 or j < 1:
        raise ValueError("pair powers need positive exponents")
    return _pair(algebra, *_power_table(algebra, x, max(i, j)), i, j)


def _pair(algebra, table: list, alphas: list, i: int, j: int) -> Vector:
    """x^(i,j) from the tables of twisted powers of x and of alpha."""
    return algebra.mu.contract(alphas[j - 1].apply(table[i]), alphas[i - 1].apply(table[j]))


def _residuals(cases):
    """``(indices, lhs - rhs)`` for each ``(indices, lhs, rhs)`` whose sides differ:
    comparing two reduced polynomial vectors costs less than subtracting them."""
    return ((indices, lhs - rhs) for indices, lhs, rhs in cases if lhs != rhs)


def _guard(algebra, n: int) -> None:
    if n > MAX_POWER or algebra.dim > MAX_DIM:
        raise ResourceLimitError(
            f"generic power check refused for n={n}, dim={algebra.dim} "
            f"(limits: n <= {MAX_POWER}, dim <= {MAX_DIM})")


def check_nth_power_assoc(algebra, n: int) -> CheckReport:
    """x^n = x^(n-i,i) for all i, decided for all x by a generic element."""
    if n < 2:
        raise ValueError("power associativity is defined for n >= 2")
    _guard(algebra, n)
    table, alphas = _power_table(algebra, generic_element(algebra.dim), n)
    # i = 1 is skipped: x^(n-1,1) = x^(n-1) alpha^(n-2)(x) is the recursion defining x^n.
    return make_report(f"hom-power-associative[{n}]", _residuals(
        ((n, i), table[n], _pair(algebra, table, alphas, n - i, i)) for i in range(2, n)))


def check_criterion_34(algebra) -> CheckReport:
    """The two-identity criterion equivalent to full twisted power associativity.

    For a multiplicative algebra, x^2 alpha(x) = alpha(x) x^2 together with
    x^4 = alpha(x^2) alpha(x^2), both as generic-element polynomial
    identities, decide twisted power associativity for every n.
    """
    mult = check_multiplicative(algebra)
    if not mult.passed:
        raise PreconditionError("the two-identity criterion assumes a multiplicative algebra", mult)
    _guard(algebra, 4)
    mu, alpha = algebra.mu, algebra.alpha
    x = generic_element(algebra.dim)
    table, _ = _power_table(algebra, x, 4)
    ax2 = alpha.apply(table[2])
    return make_report("criterion-34", [
        ((3,), commutativity(VECTORS, mu, table[2], alpha.apply(x))),
        *_residuals([((4,), table[4], mu.contract(ax2, ax2))]),
    ])
