"""Twisted powers and power-associativity checks via generic elements.

Power identities are not multilinear, so basis sweeps do not decide them.
Instead an element with independent polynomial coordinates t_1..t_dim is
pushed through the power recursion; a residual that is the zero polynomial
vector proves the identity for every element over an infinite coefficient
field, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import CheckReport, Witness, check_multiplicative, make_report
from .errors import PreconditionError, ResourceLimitError
from .linalg import Vector
from .poly import Polynomial

# Desk-scale guards: generic n-th powers in dimension d are polynomials of
# degree n in d variables; past these bounds the run is refused outright.
MAX_POWER = 8
MAX_DIM = 8


@dataclass(frozen=True)
class GenericElement:
    """An element with algebraically independent polynomial coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_vector(self) -> Vector:
        return Vector(self.coords)


def generic_element(dim: int, prefix: str = "t") -> GenericElement:
    gens = tuple(f"{prefix}{i}" for i in range(1, dim + 1))
    return GenericElement(Polynomial.variables(gens))


def _as_vector(x) -> tuple[Vector, bool]:
    if isinstance(x, GenericElement):
        return x.as_vector(), True
    if isinstance(x, Vector):
        return x, False
    raise TypeError(f"expected Vector or GenericElement, got {type(x).__name__}")


def _wrap(v: Vector, generic: bool):
    return GenericElement(v.entries) if generic else v


def hom_power(algebra, x, n: int):
    """n-th twisted power: x^1 = x, x^n = x^(n-1) * alpha^(n-2)(x)."""
    if n < 1:
        raise ValueError("twisted powers start at exponent 1")
    v, generic = _as_vector(x)
    if v.dim != algebra.dim:
        raise ValueError(f"element dim {v.dim} != algebra dim {algebra.dim}")
    powers = _power_table(algebra, v, n)
    return _wrap(powers[n], generic)


def _power_table(algebra, v: Vector, n: int) -> list:
    """Twisted powers v^1..v^n (index 0 unused)."""
    mu, alpha = algebra.mu, algebra.alpha
    table = [None, v]
    current = v
    for m in range(2, n + 1):
        current = mu.contract(current, alpha.power(m - 2).apply(v))
        table.append(current)
    return table


def hom_power_pair(algebra, x, i: int, j: int):
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j)."""
    if i < 1 or j < 1:
        raise ValueError("pair powers need positive exponents")
    v, generic = _as_vector(x)
    return _wrap(_pair(algebra, _power_table(algebra, v, max(i, j)), i, j), generic)


def _pair(algebra, table: list, i: int, j: int) -> Vector:
    """x^(i,j) from a table of twisted powers of x."""
    alpha = algebra.alpha
    return algebra.mu.contract(alpha.power(j - 1).apply(table[i]), alpha.power(i - 1).apply(table[j]))


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
    x = generic_element(algebra.dim)
    v = x.as_vector()
    table = _power_table(algebra, v, n)
    witnesses = []
    for i in range(1, n):
        residual = table[n] - _pair(algebra, table, n - i, i)
        if not residual.is_zero():
            witnesses.append(Witness((n, i), residual))
    return make_report(f"hom-power-associative[{n}]", witnesses)


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
    x = generic_element(algebra.dim).as_vector()
    table = _power_table(algebra, x, 4)
    ax = alpha.apply(x)
    witnesses = []
    third = mu.contract(table[2], ax) - mu.contract(ax, table[2])
    if not third.is_zero():
        witnesses.append(Witness((3,), third))
    ax2 = alpha.apply(table[2])
    fourth = table[4] - mu.contract(ax2, ax2)
    if not fourth.is_zero():
        witnesses.append(Witness((4,), fourth))
    return make_report("criterion-34", witnesses)
