"""Twisted powers and power-associativity checks via generic elements.

Power identities are not multilinear, so basis sweeps do not decide them.
Instead an element with independent polynomial coordinates t_1..t_dim is
pushed through the power recursion; a residual that is the zero polynomial
vector proves the identity for every element over an infinite coefficient
field, exactly.  The recursion runs on the contraction kernel of ``linalg``
through the evaluator on forms (``algebra._Sweep``), and each residual is
one ``linalg._sum`` into one output: x^n (or a first product) is copied in
and the products of the other side are added with the factor -1 folded into
the tensor coefficients.  Only a nonzero residual is read back into
polynomials, for its witness.

For a commutative product x^(n-i,i) = x^(i,n-i) and x^(1,n-1) = x^n, so an
n-th power check forms the residuals (n, i) for 2 <= i <= n/2 only: (n, i)
for i > n/2 is the residual of (n, n - i), and (n, n - 1) is zero, as is
criterion-34's x^2 alpha(x) - alpha(x) x^2.  Witnesses and their order are
those of the full check.
"""

from __future__ import annotations

from .algebra import CheckReport, _Sweep, check_multiplicative, make_report
from .errors import PreconditionError, ResourceLimitError
from .linalg import LinearMap, Vector, _add_into, _contract, _form_of, _sum, _vector_of
from .poly import Polynomial, _check_power

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
    _, table, _, generators = _power_table(algebra, x, n, n)
    return _vector_of(table[n], algebra.dim, generators)


def _power_table(algebra, x: Vector, n: int, degree: int) -> tuple:
    """The evaluator on forms, the forms of the twisted powers x^1..x^n
    (index 0 unused), the twisting-map powers alpha^0..alpha^(n-1) that they
    and the pair powers use, and the generator list of x.

    Forms check no exponent per product, so a power of x of ``degree``, whose
    exponents are at most ``degree`` times the largest in x, is refused past
    ``poly.MAX_EXPONENT`` before the first product.  The table starts from
    [I, alpha] and composes each higher power once, so an n-th power check
    makes n - 2 compositions, and none when alpha is the identity."""
    if x.dim != algebra.dim:
        raise ValueError(f"element dim {x.dim} != algebra dim {algebra.dim}")
    v, generators = _form_of(x)
    if generators is not None:
        _check_power((code for col in v.cols.values() for code in col), len(generators), degree)
    E, mu, alpha = _Sweep(), algebra.mu, algebra.alpha
    alphas = [LinearMap.identity(algebra.dim), alpha]
    for _ in range(2, n):
        alphas.append(alpha if alpha._identity else alphas[-1].compose(alpha))
    table = [None, v]
    for m in range(2, n + 1):
        table.append(E.op(mu, table[-1], E.ap(alphas[m - 2], v)))
    return E, table, alphas, generators


def hom_power_pair(algebra, x: Vector, i: int, j: int) -> Vector:
    """x^(i,j) = alpha^(j-1)(x^i) * alpha^(i-1)(x^j)."""
    if i < 1 or j < 1:
        raise ValueError("pair powers need positive exponents")
    E, table, alphas, generators = _power_table(algebra, x, max(i, j), i + j)
    return _vector_of(E.op(*_pair_operands(E, algebra, table, alphas, i, j)), algebra.dim, generators)


def _pair_operands(E, algebra, table: list, alphas: list, i: int, j: int) -> tuple:
    """``(mu, alpha^(j-1)(x^i), alpha^(i-1)(x^j))``, whose product is x^(i,j),
    from the tables of twisted powers of x and of alpha."""
    return algebra.mu, E.ap(alphas[j - 1], table[i]), E.ap(alphas[i - 1], table[j])


def _product(sign: int, t, a, b) -> tuple:
    """The ``_sum`` term of ``sign`` times t(a, b)."""
    return _contract, (t, a, b), sign, t.den * a.den * b.den


def _less(form, t, a, b):
    """``form`` - t(a, b) in one output: a copy of ``form`` and the products."""
    return _sum([(_add_into, (form,), 1, form.den), _product(-1, t, a, b)])


def _residuals(dim: int, generators: tuple, cases):
    """``(indices, residual vector)`` for each ``(indices, residual form)``
    that is not zero: only a witness is read back into polynomials."""
    return ((indices, _vector_of(r, dim, generators)) for indices, r in cases if not r.is_zero())


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
    E, table, alphas, generators = _power_table(algebra, generic_element(algebra.dim), n, n)
    mirrored = algebra.mu._commutative
    # i = 1 is skipped: x^(n-1,1) = x^(n-1) alpha^(n-2)(x) is the recursion
    # defining x^n.  For a commutative product so is i = n - 1, and (n, i)
    # for i > n/2 is the residual of (n, n - i).
    forms = {i: _less(table[n], *_pair_operands(E, algebra, table, alphas, n - i, i))
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
    mu, alpha = algebra.mu, algebra.alpha
    E, table, _, generators = _power_table(algebra, generic_element(algebra.dim), 4, 4)
    x2, ax, ax2 = table[2], E.ap(alpha, table[1]), E.ap(alpha, table[2])
    # a commutative product has x^2 alpha(x) = alpha(x) x^2
    central = [] if mu._commutative else [((3,), _sum([_product(1, mu, x2, ax), _product(-1, mu, ax, x2)]))]
    return make_report("criterion-34", _residuals(algebra.dim, generators, [
        *central, ((4,), _less(table[4], mu, ax2, ax2))]))
