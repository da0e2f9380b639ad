"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored fraction-free: ``terms`` maps exponent tuples (one
slot per named generator) to nonzero Python ``int`` numerators over one
positive ``int`` denominator ``den``, and the form is canonical (the gcd of
``den`` and every numerator is 1; the zero polynomial has ``den == 1``), so
equal polynomials have equal fields.  Sums, products and derivatives run on
integers only and reduce their result once by a single gcd; ``Fraction``
appears only where a coefficient leaves the kernel (``coefficient``,
``constant_term``, ``sorted_terms``, ``evaluate`` and the display).
Arithmetic is exact and unbounded-degree; a term-count guard refuses
pathologically large products.  Display order is graded lexicographic,
highest degree first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Mapping

from .errors import GeneratorMismatch, ResourceLimitError
from .linalg import rat

MAX_TERMS = 10 ** 6

_ZERO = Fraction(0)


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
    """A polynomial over named generators: integer numerators ``terms`` over
    the common denominator ``den``, in lowest terms."""

    __slots__ = ("generators", "terms", "den")

    def __init__(self, generators, terms: Mapping | None = None):
        self.generators = tuple(generators)
        coeffs: dict[tuple, Fraction] = {}
        if terms:
            width = len(self.generators)
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != width or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo} for generators {self.generators}")
                q = rat(coeff)
                if q != 0:
                    coeffs[expo] = q
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
        expo = tuple(1 if g == name else 0 for g in generators)
        return Polynomial(generators, {expo: 1})

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
            terms = {(0,) * len(self.generators): other.numerator} if other else {}
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
        terms: dict[tuple, int] = {}
        for e1, n1 in self.terms.items():
            for e2, n2 in other.terms.items():
                expo = tuple(map(add, e1, e2))
                v = terms.get(expo, 0) + n1 * n2
                if v:
                    terms[expo] = v
                else:
                    terms.pop(expo, None)
        if len(terms) > MAX_TERMS:
            raise ResourceLimitError(f"polynomial product exceeds {MAX_TERMS} terms")
        return _reduced(self.generators, terms, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
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
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, expo) -> Fraction:
        return Fraction(self.terms.get(tuple(expo), 0), self.den)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * len(self.generators))

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return (self.generators == other.generators and self.den == other.den
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return (self.den == other.denominator
                    and self.terms == {(0,) * len(self.generators): other.numerator})
        return NotImplemented

    def __hash__(self):
        return hash((self.generators, self.den, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and substitution -------------------------------------------

    def diff(self, name) -> "Polynomial":
        """Exact partial derivative with respect to one generator."""
        if name not in self.generators:
            raise GeneratorMismatch(f"{name!r} is not among generators {self.generators}")
        pos = self.generators.index(name)
        terms: dict[tuple, int] = {}
        for expo, n in self.terms.items():
            e = expo[pos]
            if e == 0:
                continue
            new = list(expo)
            new[pos] = e - 1
            terms[tuple(new)] = e * n
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
        acc = Polynomial.zero(target_gens)
        for expo, n in self.terms.items():
            term = Polynomial.const(target_gens, Fraction(n, self.den))
            for img, e in zip(image_list, expo):
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
        total = _ZERO
        for expo, n in self.terms.items():
            term = Fraction(n)
            for v, e in zip(values, expo):
                if e:
                    term *= v ** e
            total += term
        return total / self.den

    # -- display ---------------------------------------------------------------

    def sorted_terms(self):
        """(exponent, coefficient) pairs in graded lexicographic order, highest
        degree first."""
        return sorted(((e, Fraction(n, self.den)) for e, n in self.terms.items()),
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
