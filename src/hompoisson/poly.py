"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored fraction-free: ``terms`` maps packed monomial keys to
nonzero Python ``int`` numerators over one positive ``int`` denominator
``den``, and the form is canonical (the gcd of ``den`` and every numerator is
1; the zero polynomial has ``den == 1``), so equal polynomials have equal
fields.

A packed key holds the exponent vector in one ``int``: each generator owns a
fixed field of ``FIELD_BITS`` bits, the first generator the most significant,
so integer order is lexicographic order on exponent vectors and the product
of two monomials is one integer addition.  The packed keys are the codes of
the contraction kernel in ``linalg``: a polynomial is a one-column form,
whose sums are the kernel's and whose products are ``_contract`` with the
product of Q; a scaling by a rational multiplies its own numerators.  The
top bit of every field is a guard that stays clear: an exponent is at most
``MAX_EXPONENT``, so the sum of two fields never carries into the next one,
and a product or constructor that would exceed ``MAX_EXPONENT`` raises
``ResourceLimitError``.  The guard bits and the term-count limit
``MAX_TERMS`` of a product are checked in one function, ``_of_products``,
which reads back every product of polynomials and of polynomial vectors.
Exponent tuples exist only where a monomial enters or leaves the kernel (the
constructor, ``substitute``, ``evaluate``, ``sorted_terms`` and the
display), and ``Fraction`` only where a coefficient leaves it.

Sums, products and derivatives run on integers only and reduce their result
once by a single gcd.  A constant polynomial equals its ``Fraction`` value
and hashes as it.  Display order is graded lexicographic, highest degree
first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd
from operator import countOf, or_
from typing import Iterable, Mapping

from .errors import GeneratorMismatch, ResourceLimitError
from .linalg import Trilinear, _add_into, _contract, _Form, _formed, _over_common_denominator, _sum, rat

MAX_TERMS = 10 ** 6
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1

_FIELD_MASK = (1 << FIELD_BITS) - 1
_ZERO = Fraction(0)
# the product of Q, with which the kernel contracts two polynomials' forms
_PRODUCT = Trilinear(1, {(0, 0, 0): 1})


@cache
def _shifts(width: int) -> tuple:
    """The bit offset of each generator's field, first generator highest."""
    return tuple(FIELD_BITS * (width - 1 - pos) for pos in range(width))


@cache
def _guard(width: int) -> int:
    """The guard bits of all fields; a valid key has none of them set."""
    return sum(1 << (s + FIELD_BITS - 1) for s in _shifts(width))


def _unpack(key: int, width: int) -> tuple:
    return tuple((key >> s) & _FIELD_MASK for s in _shifts(width))


def _of_products(generators: tuple, terms: dict, den: int) -> "Polynomial":
    """The polynomial ``terms`` / ``den`` of accumulated products: every key
    valid or the sum of two valid keys, a numerator possibly zero.  A sum of
    two valid keys shows an exponent past ``MAX_EXPONENT`` as a set guard bit,
    uncarried; such a key, or more than ``MAX_TERMS`` terms, raises
    ``ResourceLimitError``."""
    if reduce(or_, terms, 0) & _guard(len(generators)):
        raise ResourceLimitError(f"polynomial exponent exceeds {MAX_EXPONENT}")
    if len(terms) > MAX_TERMS and len(terms) - countOf(terms.values(), 0) > MAX_TERMS:
        raise ResourceLimitError(f"polynomial product exceeds {MAX_TERMS} terms")
    g = gcd(den, *terms.values()) if den != 1 else 1  # gcd ignores the zeros
    if g != 1 or 0 in terms.values():
        den //= g
        terms = {e: n // g for e, n in terms.items() if n}
    return _polynomial(generators, terms, den)


def _check_power(keys: Iterable, width: int, n: int) -> None:
    """Refuse an n-th power of a sum of the monomials ``keys`` (on ``width``
    generators) when an exponent of it would pass ``MAX_EXPONENT``."""
    top = max((max(_unpack(e, width), default=0) for e in keys), default=0)
    if top * n > MAX_EXPONENT:
        raise ResourceLimitError(
            f"power {n} of a polynomial with exponent {top} exceeds {MAX_EXPONENT}")


def _reduced(generators: tuple, terms: dict, den: int) -> "Polynomial":
    """The polynomial terms/den (nonzero numerators, den > 0) in canonical form."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: n // g for e, n in terms.items()}
    return _polynomial(generators, terms, den)


def _distinct(generators) -> tuple:
    """``generators`` as a tuple; a name listed twice raises ``GeneratorMismatch``."""
    generators = tuple(generators)
    if len(set(generators)) != len(generators):
        raise GeneratorMismatch(f"generator names repeat in {generators}")
    return generators


def _polynomial(generators: tuple, terms: dict, den: int) -> "Polynomial":
    """The polynomial with these fields, already canonical; every polynomial
    that ``_reduced`` and ``_of_products`` return is built here."""
    out = object.__new__(Polynomial)
    out.generators, out.terms, out.den = generators, terms, den
    return out


class Polynomial:
    """A polynomial over named generators: integer numerators ``terms`` keyed
    by packed exponents, over the common denominator ``den``, in lowest terms."""

    __slots__ = ("generators", "terms", "den")

    def __init__(self, generators, terms: Mapping | None = None):
        self.generators = _distinct(generators)
        coeffs: dict[int, Fraction] = {}
        if terms:
            width = len(self.generators)
            shifts = _shifts(width)
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != width or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo} for generators {self.generators}")
                if any(e > MAX_EXPONENT for e in expo):
                    raise ResourceLimitError(
                        f"exponent tuple {expo} exceeds the limit {MAX_EXPONENT}")
                q = rat(coeff)
                if q != 0:
                    coeffs[sum(e << s for e, s in zip(expo, shifts))] = q
        # Over the lcm of reduced denominators the numerators are already coprime
        # to it, so no further reduction is needed.
        numerators, self.den = _over_common_denominator(coeffs.values())
        self.terms = dict(zip(coeffs, numerators))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(generators) -> "Polynomial":
        return Polynomial(generators)

    @staticmethod
    def const(generators, value) -> "Polynomial":
        generators = tuple(generators)
        return Polynomial(generators, {(0,) * len(generators): rat(value)})

    @staticmethod
    def var(generators, name) -> "Polynomial":
        generators = _distinct(generators)
        if name not in generators:
            raise GeneratorMismatch(f"{name!r} is not among generators {generators}")
        key = sum(1 << s for g, s in zip(generators, _shifts(len(generators))) if g == name)
        return _reduced(generators, {key: 1}, 1)

    @staticmethod
    def variables(generators) -> tuple:
        """One variable polynomial per generator, in order."""
        generators = tuple(generators)
        return tuple(Polynomial.var(generators, g) for g in generators)

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.generators != self.generators:
                raise GeneratorMismatch(
                    f"generator lists differ: {self.generators} vs {other.generators}")
            return other
        if isinstance(other, (int, Fraction)):
            terms = {0: other.numerator} if other else {}
            return _reduced(self.generators, terms, other.denominator)
        return NotImplemented

    def _form(self) -> _Form:
        """The polynomial as a one-column form of the kernel."""
        return _Form({0: self.terms}, 0, self.den)

    def _combine(self, other, negate: bool):
        """self + other or self - other, by the kernel's sum of forms."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._form(), other._form()
        form = _formed(a - b if negate else a + b)
        return _reduced(self.generators, form.cols[0], form.den)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.generators, {e: -n for e, n in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial(self.generators)
            a = other.numerator
            terms = {e: a * n for e, n in self.terms.items()}
            return _reduced(self.generators, terms, self.den * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        form = _contract(_PRODUCT, self._form(), other._form())
        return _of_products(self.generators, form.cols[0], form.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        _check_power(self.terms, len(self.generators), n)
        result = Polynomial.const(self.generators, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return (self.generators == other.generators and self.den == other.den
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.den == other.denominator and self.terms == {0: other.numerator}
        return NotImplemented

    def __hash__(self):
        if not self.terms.keys() - {0}:  # a constant equals, so hashes as, its Fraction
            return hash(Fraction(self.terms.get(0, 0), self.den))
        return hash((self.generators, self.den, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and substitution -------------------------------------------

    def diff(self, name) -> "Polynomial":
        """Exact partial derivative with respect to one generator."""
        if name not in self.generators:
            raise GeneratorMismatch(f"{name!r} is not among generators {self.generators}")
        shift = _shifts(len(self.generators))[self.generators.index(name)]
        one = 1 << shift
        terms: dict[int, int] = {}
        for key, n in self.terms.items():
            e = (key >> shift) & _FIELD_MASK
            if e:
                terms[key - one] = e * n
        return _reduced(self.generators, terms, self.den)

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution of every generator; an algebra morphism.

        Each power of an image is computed once per call, and the terms are
        summed into one form by ``linalg._sum``."""
        for g in self.generators:
            if g not in images:
                raise GeneratorMismatch(f"no image given for generator {g!r}")
        target_gens = None
        for img in images.values():
            if target_gens is None:
                target_gens = img.generators
            elif img.generators != target_gens:
                raise GeneratorMismatch("substitution images use inconsistent generator lists")
        if target_gens is None:
            raise GeneratorMismatch("no image gives the target generator list")
        image_list = [images[g] for g in self.generators]
        width = len(self.generators)
        one = Polynomial.const(target_gens, 1)
        powers: dict = {}  # (generator position, exponent) -> that power of its image
        terms = []
        for key, n in self.terms.items():
            term = one
            for pos, e in enumerate(_unpack(key, width)):
                if e:
                    power = powers.get((pos, e))
                    if power is None:
                        power = powers[pos, e] = image_list[pos] ** e
                    term = power if term is one else term * power
            terms.append((_add_into, (term._form(),), n, self.den * term.den))
        form = _sum(terms)
        return _reduced(target_gens, form.cols.get(0, {}), form.den)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at a rational point given as {generator: value}."""
        values = []
        for g in self.generators:
            if g not in point:
                raise GeneratorMismatch(f"no value given for generator {g!r}")
            values.append(rat(point[g]))
        width = len(values)
        total = _ZERO
        for key, n in self.terms.items():
            term = Fraction(n)
            for v, e in zip(values, _unpack(key, width)):
                if e:
                    term *= v ** e
            total += term
        return total / self.den

    # -- display ---------------------------------------------------------------

    def sorted_terms(self):
        """(exponent, coefficient) pairs in graded lexicographic order, highest
        degree first."""
        width = len(self.generators)
        return sorted(((_unpack(e, width), Fraction(n, self.den)) for e, n in self.terms.items()),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for n, (expo, coeff) in enumerate(self.sorted_terms()):
            factors = []
            for g, e in zip(self.generators, expo):
                if e == 1:
                    factors.append(g)
                elif e > 1:
                    factors.append(f"{g}^{e}")
            mag = abs(coeff)
            if factors:
                body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if n == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"
