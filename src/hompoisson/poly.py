"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored fraction-free: ``terms`` maps packed monomial keys to
nonzero Python ``int`` numerators over one positive ``int`` denominator
``den``, and the form is canonical (the gcd of ``den`` and every numerator is
1; the zero polynomial has ``den == 1``), so equal polynomials have equal
fields.

A packed key holds the exponent vector in one ``int``: each generator owns a
fixed field of ``FIELD_BITS`` bits, the first generator the most significant,
so integer order is lexicographic order on exponent vectors and the product
of two monomials is one integer addition.  The packed keys are also the
codes of the contraction kernel in ``linalg`` when it runs on polynomial
vectors.  The top bit of every field is a guard that stays clear: an
exponent is at most ``MAX_EXPONENT``, so the sum of two fields never carries
into the next one, and a product or constructor that would exceed
``MAX_EXPONENT`` raises ``ResourceLimitError``.  The guard bits and the
term-count limit ``MAX_TERMS`` of a product are checked in one function,
``_of_products``, which both ``Polynomial.__mul__`` and the kernel's
read-back of polynomial vectors build their result with.  Exponent
tuples exist only where a monomial enters or leaves the kernel (the
constructor, ``coefficient``, ``degree``, ``substitute``, ``evaluate``,
``sorted_terms`` and the display), and ``Fraction`` only where a coefficient
leaves it.

Sums, products and derivatives run on integers only and reduce their result
once by a single gcd.  A constant polynomial equals its ``Fraction`` value
and hashes as it.  Display order is graded lexicographic, highest degree
first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping

from .errors import GeneratorMismatch, ResourceLimitError
from .linalg import rat

MAX_TERMS = 10 ** 6
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1

_FIELD_MASK = (1 << FIELD_BITS) - 1
_ZERO = Fraction(0)


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
    if 0 in terms.values():
        terms = {e: n for e, n in terms.items() if n}
    if len(terms) > MAX_TERMS:
        raise ResourceLimitError(f"polynomial product exceeds {MAX_TERMS} terms")
    return _reduced(generators, terms, den)


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
    out = object.__new__(Polynomial)
    out.generators = generators
    out.terms = terms
    out.den = den
    return out


class Polynomial:
    """A polynomial over named generators: integer numerators ``terms`` keyed
    by packed exponents, over the common denominator ``den``, in lowest terms."""

    __slots__ = ("generators", "terms", "den")

    def __init__(self, generators, terms: Mapping | None = None):
        self.generators = tuple(generators)
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
        den = lcm(*(q.denominator for q in coeffs.values()))
        self.terms = {e: q.numerator * (den // q.denominator) for e, q in coeffs.items()}
        self.den = den

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
        generators = tuple(generators)
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

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, sign * (den // other.den)
        terms = {e: n * s1 for e, n in self.terms.items()} if s1 != 1 else dict(self.terms)
        for expo, n in other.terms.items():
            v = terms.get(expo, 0) + n * s2
            if v:
                terms[expo] = v
            else:
                terms.pop(expo, None)
        return _reduced(self.generators, terms, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.generators, {e: -n for e, n in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial(self.generators)
            num, den = other.numerator, other.denominator
            return _reduced(self.generators, {e: n * num for e, n in self.terms.items()},
                            self.den * den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[int, int] = {}
        get = terms.get
        right = other.terms.items()
        for e1, n1 in self.terms.items():
            for e2, n2 in right:
                e = e1 + e2
                terms[e] = get(e, 0) + n1 * n2
        return _of_products(self.generators, terms, self.den * other.den)

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

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        width = len(self.generators)
        return max((sum(_unpack(e, width)) for e in self.terms), default=-1)

    def coefficient(self, expo) -> Fraction:
        """The coefficient of one exponent tuple; 0 for a tuple of the wrong
        length or with an exponent outside 0..MAX_EXPONENT."""
        expo = tuple(expo)
        width = len(self.generators)
        if len(expo) != width or any(not 0 <= e <= MAX_EXPONENT for e in expo):
            return _ZERO
        key = sum(e << s for e, s in zip(expo, _shifts(width)))
        return Fraction(self.terms.get(key, 0), self.den)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

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
        """Simultaneous substitution of every generator; an algebra morphism."""
        for g in self.generators:
            if g not in images:
                raise GeneratorMismatch(f"no image given for generator {g!r}")
        target_gens = None
        for img in images.values():
            if target_gens is None:
                target_gens = img.generators
            elif img.generators != target_gens:
                raise GeneratorMismatch("substitution images use inconsistent generator lists")
        assert target_gens is not None
        image_list = [images[g] for g in self.generators]
        width = len(self.generators)
        acc = Polynomial.zero(target_gens)
        for key, n in self.terms.items():
            term = Polynomial.const(target_gens, Fraction(n, self.den))
            for img, e in zip(image_list, _unpack(key, width)):
                if e:
                    term = term * img ** e
            acc = acc + term
        return acc

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
