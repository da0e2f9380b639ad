"""Twisted powers and power-associativity checks via generic elements.

Power identities are not multilinear, so basis sweeps do not decide them.
Instead an element with independent polynomial coordinates t_1..t_dim is
pushed through the power recursion; a residual that is the zero polynomial
vector proves the identity for every element over an infinite coefficient
field, exactly.  The recursion runs through the evaluator on forms
(``algebra._Sweep``) with the generic element as its first argument, so each
product is pending until read.  The generic element is a unit form, built
once per dimension (``_generic``): coordinate n is the monomial t_(n+1) with
numerator 1, so ``linalg._contract`` reads it by its codes in x x and, with
alpha the identity, in every product of a power of x with x.  A given
vector (``hom_power``, ``hom_power_pair``) enters the kernel through
``linalg._forms_of``, which refuses an exponent that could pass the limit.  A
residual, stated through the evaluator, is formed as one pending sum into one
output: x^n is copied in and the products of the other side are added with
the factor -1 folded into the tensor coefficients.  Only a nonzero residual
is read back into polynomials, once per form, for its witnesses.

For a commutative product x^(n-i,i) = x^(i,n-i) and x^(1,n-1) = x^n, so an
n-th power check forms the residuals (n, i) for 2 <= i <= n/2 only: (n, i)
for i > n/2 is the residual of (n, n - i), and (n, n - 1) is zero, as is
criterion-34's x^2 alpha(x) - alpha(x) x^2.  Witnesses and their order are
those of the full check.
"""

from __future__ import annotations

from functools import cache

from .algebra import CheckReport, _Sweep, check_multiplicative, commutativity, make_report
from .errors import PreconditionError, ResourceLimitError
from .linalg import LinearMap, Vector, _Form, _formed, _forms_of, _vector_of
from .poly import Polynomial, _shifts

# Desk-scale guards: generic n-th powers in dimension d are polynomials of
# degree n in d variables; past these bounds the run is refused outright.
MAX_POWER = 8
MAX_DIM = 8


def _generators(dim: int) -> tuple:
    return tuple(f"t{i}" for i in range(1, dim + 1))


def generic_element(dim: int) -> Vector:
    """The vector of independent variables t1..t_dim: an element whose powers
    are polynomial identities in its coordinates."""
    return Vector(Polynomial.variables(_generators(dim)))


@cache
def _generic(dim: int) -> _Form:
    """The form of ``generic_element(dim)`` in slot 0, a unit form: column n
    holds numerator 1 at the packed key of t_(n+1).  Kept for every later
    check of the same dimension: the kernel and the evaluator only read it."""
    return _Form.unit({n: 1 << s for n, s in enumerate(_shifts(dim))}, 1)


def hom_power(algebra, x: Vector, n: int) -> Vector:
    """n-th twisted power: x^1 = x, x^n = x^(n-1) * alpha^(n-2)(x)."""
    if n < 1:
        raise ValueError("twisted powers start at exponent 1")
    (v,), generators = _forms_of((x,), algebra.dim, n)
    _, table, _ = _power_table(algebra, v, n)
    return _vector_of(table[n], algebra.dim, generators)


def _power_table(algebra, v: _Form, n: int) -> tuple:
    """The evaluator on forms, the forms of the twisted powers x^1..x^n
    (index 0 unused) of the form ``v`` of x, and ``twisted(k, i)``, the form
    of alpha^k(x^i).

    ``v`` takes slot 0, as ``tabulate``'s first argument, so every product
    of it is pending until read; each power and each alpha^k(x^i) is formed
    once (an image under a power of alpha equal to an earlier one is that
    image), and ``v`` itself is only read.  The powers of alpha start from
    [I, alpha], and each higher one is composed once, when first read: an
    n-th power check reads up to alpha^(n-2) and makes n - 3 compositions,
    and none when alpha is the identity."""
    E, mu, alpha = _Sweep(), algebra.mu, algebra.alpha
    alphas, table, images = [LinearMap.identity(algebra.dim), alpha], [None, v], {}

    def twisted(k: int, i: int) -> _Form:
        while len(alphas) <= k:
            alphas.append(alpha if alpha._identity else alphas[-1].compose(alpha))
        key = alphas[k], i
        if key not in images:
            images[key] = _formed(E.ap(alphas[k], table[i]))
        return images[key]

    for m in range(2, n + 1):
        table.append(_formed(E.op(mu, table[-1], twisted(m - 2, 1))))
    return E, table, twisted


def hom_power_pair(algebra, x: Vector, i: int, j: int) -> Vector:
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j)."""
    if i < 1 or j < 1:
        raise ValueError("pair powers need positive exponents")
    (v,), generators = _forms_of((x,), algebra.dim, i + j)
    E, _, twisted = _power_table(algebra, v, max(i, j))
    return _vector_of(_formed(E.op(algebra.mu, twisted(j - 1, i), twisted(i - 1, j))), algebra.dim, generators)


def _residuals(dim: int, generators: tuple, cases):
    """``(indices, residual vector)`` for each ``(indices, residual form)``
    that is not zero: only a witness is read back into polynomials, and a
    form that several cases share is read back once."""
    vectors: dict = {}  # form -> its vector
    for indices, r in cases:
        if not r.is_zero():
            if r not in vectors:
                vectors[r] = _vector_of(r, dim, generators)
            yield indices, vectors[r]


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
    E, table, twisted = _power_table(algebra, _generic(algebra.dim), n)
    generators, mu, mirrored = _generators(algebra.dim), algebra.mu, algebra.mu._commutative
    # x^(n-i,i) = alpha^(i-1)(x^(n-i)) alpha^(n-i-1)(x^i).  i = 1 is skipped:
    # x^(n-1,1) = x^(n-1) alpha^(n-2)(x) is the recursion defining x^n.  For a
    # commutative product so is i = n - 1, and (n, i) for i > n/2 is the
    # residual of (n, n - i), read back once.
    forms = {i: _formed(table[n] - E.op(mu, twisted(i - 1, n - i), twisted(n - i - 1, i)))
             for i in range(2, n // 2 + 1 if mirrored else n)}
    return make_report(f"hom-power-associative[{n}]", _residuals(algebra.dim, generators, (
        ((n, i), forms[min(i, n - i) if mirrored else i]) for i in range(2, n - 1 if mirrored else n))))


def check_criterion_34(algebra) -> CheckReport:
    """The two-identity criterion equivalent to full twisted power associativity.

    For a multiplicative algebra, x^2 alpha(x) = alpha(x) x^2 together with
    x^4 = alpha(x^2) alpha(x^2), both as generic-element polynomial
    identities, decide twisted power associativity for every n.
    """
    _guard(algebra, 4)
    mult = check_multiplicative(algebra)
    if not mult.passed:
        raise PreconditionError("the two-identity criterion assumes a multiplicative algebra", mult)
    mu, generators = algebra.mu, _generators(algebra.dim)
    E, table, twisted = _power_table(algebra, _generic(algebra.dim), 4)
    x2, ax, ax2 = table[2], twisted(1, 1), twisted(1, 2)
    # a commutative product has x^2 alpha(x) = alpha(x) x^2
    central = [] if mu._commutative else [((3,), _formed(commutativity(E, mu, x2, ax)))]
    return make_report("criterion-34", _residuals(algebra.dim, generators, [
        *central, ((4,), _formed(table[4] - E.op(mu, ax2, ax2)))]))
