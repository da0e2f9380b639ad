"""Exact rational vectors, square matrices, and rank-3 structure-constant tensors.

Every scalar is an exact rational; there is no floating point anywhere in the
package.  ``LinearMap`` and ``Trilinear`` store ``int`` numerators over one
positive ``int`` denominator ``den``, in lowest terms (no prime divides
``den`` and every numerator), so equal values have equal fields and hashes.
Products (``compose``, ``kron``, ``map_outputs``) multiply numerators and
denominators and reduce once; ``invert`` and ``kernel_vector`` read the rows
of one elimination on ``int`` rows (``_eliminate``), made once per map.
``Fraction`` appears only in values read out (the dense ``LinearMap.rows``,
``entry``, ``column``, ``items``, ``pair_vector``, ``kernel_vector``) and in
``Vector`` entries.  Every tensor is built by one constructor,
``Trilinear._of``, on integer keys ``(i * dim + j) * dim + k``, which sort
in index order; only a tensor's cached opposite regroups rows already in
stored form.

One sparse kernel, ``_contract`` and ``_apply`` on ``_Form``s, forms every
product of a vector with a tensor or a map and every ``Polynomial`` sum and
product (of one-column forms), reading the stored form as it is.  A
sweep's basis arguments and the power checks' generic element are unit
forms, one code with numerator 1 per column (``_Form.units``), and
``_contract`` reads such an operand by its codes: a tensor entry meets it in
one lookup and no multiplication.  ``_contract`` runs from the operand with
fewer columns, through the tensor's cached opposite (``Trilinear._opposite``)
when that is the second, so it looks up only the tensor rows that operand
meets.  A sum is written one way, as a pending
sum (``_Pending``): ``+`` and ``-`` of forms, and scaling by a rational, only
combine its terms, each a kernel call
(``_contract``, ``_apply``, or ``_add_into`` for a form already formed)
with a signed rational scale.  It is formed once, where it is read
(``_formed``), by ``_sum``: it brings the terms to the lcm of their
denominators and runs each call into one output with its integer factor
folded into the tensor or map coefficient.  The evaluator on forms in
``algebra`` runs the kernel on forms whose codes number basis tuples, and on
given vectors.  Given vectors (of the element-level functions,
``hompower.hom_power`` and ``hom_power_pair``, ``Trilinear.contract`` and
``LinearMap.apply``) enter the kernel through ``_forms_of`` and, like
``poly``'s forms, are keyed by packed monomial keys;
``_vector_of`` reads the result back, where ``poly._of_products`` checks the
exponent guard and the term limit.

A square matrix stores the nonzeros of each column (``LinearMap.columns``),
and every product, application, inverse and identity test runs over them, so
a diagonal or permutation map costs its dimension, not its square or cube.
A tensor stores the nonzeros of each first index (``Trilinear.rows``), and
caches its opposite, the same entries by second index.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import DimensionMismatch, GeneratorMismatch, SingularMatrixError

_ZERO = Fraction(0)
_ONE = Fraction(1)
_DEN = itemgetter(3)  # the denominator of a term of ``_sum``


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Decimal notation is rejected: serialized rationals are always "p/q".
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValueError(f"decimal notation not allowed for exact rationals: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _over_common_denominator(values: Iterable) -> tuple:
    """``(numerators, den)``: the rationals ``values`` as an iterator of
    ``int`` numerators over ``den``, the least positive common denominator."""
    pairs = [q.as_integer_ratio() for q in values]
    den = lcm(*{d for _, d in pairs})
    return (n if den == d else n * (den // d) for n, d in pairs), den


def _basis_index(k: int, dim: int) -> int:
    if not 0 <= k < dim:
        raise IndexError(f"basis index {k} out of range for dim {dim}")
    return k


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vector:
    """Coordinate vector over a fixed basis.

    Entries are exact scalars; besides rationals, polynomial entries are
    allowed so the same arithmetic drives generic-element computations.
    """

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def zero(dim: int) -> "Vector":
        return Vector((_ZERO,) * dim)

    @staticmethod
    def unit(dim: int, i: int) -> "Vector":
        _basis_index(i, dim)
        return Vector(tuple(_ONE if j == i else _ZERO for j in range(dim)))

    @staticmethod
    def of(*entries) -> "Vector":
        """The vector of ``entries``, each but a ``Polynomial`` coerced by ``rat``."""
        return Vector(tuple(e if _is_polynomial(e) else rat(e) for e in entries))

    def __getitem__(self, i: int):
        return self.entries[i]

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-a for a in self.entries))

    def scale(self, c) -> "Vector":
        return Vector(tuple(c * a for a in self.entries))

    def __rmul__(self, c) -> "Vector":
        return self.scale(c)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.dim == other.dim and all(a == b for a, b in zip(self.entries, other.entries))

    def __hash__(self):
        return hash(self.entries)

    def _check_dim(self, other: "Vector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"vector dims differ: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


# ---------------------------------------------------------------------------
# Square matrices (linear self-maps)
# ---------------------------------------------------------------------------

class LinearMap:
    """Square matrix over the rationals; column j is the image of basis vector j.

    Entry (i, j) is the coefficient of basis vector i in the image of basis
    vector j (the usual matrix convention).  Stored as ``columns[j]``, the
    (i, numerator) pairs of the nonzeros of column j in ascending i, over
    ``den``; ``int_rows`` (the same by row) and the dense ``rows`` of
    ``Fraction`` entries are built on first read.
    """

    def __init__(self, rows):
        rows = tuple(tuple(map(rat, row)) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("linear map matrix must be square")
        lines = [[(j, q) for j, q in enumerate(row) if q] for row in rows]
        numerators, self.den = _over_common_denominator(q for line in lines for _, q in line)
        self.columns = _transpose([[(j, next(numerators)) for j, _ in line] for line in lines])

    @staticmethod
    def _of(columns: tuple, den: int) -> "LinearMap":
        """The map with these integer columns (nonzero numerators in ascending
        row order) over ``den``, reduced to lowest terms (no gcd at ``den`` 1)."""
        g = gcd(den, *(q for line in columns for _, q in line)) if den != 1 else 1
        m = object.__new__(LinearMap)
        m.columns = columns if g == 1 else tuple(tuple((i, q // g) for i, q in line) for line in columns)
        m.den = den // g
        return m

    @property
    def dim(self) -> int:
        return len(self.columns)

    @staticmethod
    def identity(dim: int) -> "LinearMap":
        return LinearMap._of(tuple(((i, 1),) for i in range(dim)), 1)

    @staticmethod
    def zero(dim: int) -> "LinearMap":
        return LinearMap._of(((),) * dim, 1)

    @staticmethod
    def diagonal(values: Iterable) -> "LinearMap":
        numerators, den = _over_common_denominator([rat(v) for v in values])
        return LinearMap._of(tuple(((i, q),) if q else () for i, q in enumerate(numerators)), den)

    @cached_property
    def int_rows(self) -> tuple:
        """``int_rows[i]``: the (j, numerator) pairs of row i in ascending j."""
        return _transpose(self.columns)

    @cached_property
    def rows(self) -> tuple:
        """The dense matrix: ``rows[i][j]`` is entry (i, j), zeros included."""
        n, den = self.dim, self.den
        return tuple(tuple(Fraction(row[j], den) if j in row else _ZERO for j in range(n))
                     for row in map(dict, self.int_rows))

    def entry(self, i: int, j: int) -> Fraction:
        i = _basis_index(i, self.dim)
        return next((Fraction(q, self.den) for k, q in self.columns[_basis_index(j, self.dim)] if k == i), _ZERO)

    def column(self, j: int) -> Vector:
        line = dict(self.columns[_basis_index(j, self.dim)])
        return Vector(tuple(Fraction(line[i], self.den) if i in line else _ZERO for i in range(self.dim)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.den == other.den and self.columns == other.columns

    def __hash__(self):
        return hash((self.den, self.columns))

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product; generic over the entry ring of ``v`` (see
        ``_vector_of``)."""
        (a,), generators = _forms_of((v,), self.dim)
        return _vector_of(_apply(self, a), self.dim, generators)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other): column j of the
        product is the sum of other[k][j] times column k of self.  A factor
        that is the identity returns the other one (maps are immutable)."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"map dims differ: {self.dim} vs {other.dim}")
        if other._identity:
            return self
        if self._identity:
            return other
        left = self.columns
        columns = []
        for line in other.columns:
            acc: dict = {}
            for k, b in line:
                for i, a in left[k]:
                    p = a * b
                    v = acc.get(i)
                    acc[i] = p if v is None else v + p
            columns.append(tuple(sorted((i, q) for i, q in acc.items() if q)))
        return LinearMap._of(tuple(columns), self.den * other.den)

    def kron(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product self (x) other on the product basis (i, j) ->
        i * other.dim + j, the second factor varying fastest; built from the
        nonzeros of both factors."""
        d2 = other.dim
        columns = tuple(tuple((i * d2 + j, a * b) for i, a in c1 for j, b in c2)
                        for c1 in self.columns for c2 in other.columns)
        return LinearMap._of(columns, self.den * other.den)

    def power(self, n: int) -> "LinearMap":
        if n < 0:
            raise ValueError("negative matrix powers not supported; call invert() explicitly")
        acc = self if n else LinearMap.identity(self.dim)
        for _ in range(n - 1):
            acc = acc.compose(self)
        return acc

    def is_identity(self) -> bool:
        return self._identity

    @cached_property
    def _identity(self) -> bool:
        """Whether the map is the identity, computed once per map."""
        return self.den == 1 and all(line == ((j, 1),) for j, line in enumerate(self.columns))

    @cached_property
    def _reduced(self) -> dict:
        """The row of each pivot column of [numerators | den * I], eliminated
        once (``_eliminate``) over the left block, which alone picks the
        pivots: ``invert`` reads the right half, ``kernel_vector`` the left."""
        n = self.dim
        return _eliminate([dict(line) | {n + i: self.den} for i, line in enumerate(self.int_rows)], n)

    def invert(self) -> "LinearMap":
        """Exact inverse: the right half of the reduced [numerators | den * I],
        each pivot row over its pivot, brought to the lcm of the pivots.

        Raises SingularMatrixError when a column has no pivot.
        """
        n, pivots = self.dim, self._reduced
        if len(pivots) < n:
            raise SingularMatrixError("matrix is not invertible")
        den = lcm(*(row[col] for col, row in pivots.items()))
        return LinearMap._of(_transpose([[(c - n, x * (den // row[col])) for c, x in row.items() if c >= n]
                                         for col, row in pivots.items()]), den)

    def kernel_vector(self) -> Vector | None:
        """A nonzero kernel vector, or None when the map is injective.

        The vector has 1 at the first column without a pivot and is read off
        the left half of the reduced rows there.
        """
        n, pivots = self.dim, self._reduced
        free = next((c for c in range(n) if c not in pivots), None)
        if free is None:
            return None
        coords = [_ZERO] * n
        coords[free] = _ONE
        for col, row in pivots.items():
            coords[col] = Fraction(-row.get(free, 0), row[col])
        return Vector(tuple(coords))

    def __repr__(self) -> str:
        return "LinearMap[" + "; ".join(" ".join(str(e) for e in row) for row in self.rows) + "]"


def _transpose(lines) -> tuple:
    """Sparse rows to sparse columns, or back: entry (i, j) of ``lines`` becomes (j, i)."""
    out: list = [[] for _ in lines]
    for i, line in enumerate(lines):
        for j, q in line:
            out[j].append((i, q))
    return tuple(map(tuple, out))


def _eliminate(rows: list, ncols: int) -> dict:
    """Gauss-Jordan elimination of sparse ``int`` rows ({column: nonzero
    value}) over their first ``ncols`` columns, in integers only: the pivot of
    a column is the first row not yet a pivot row that holds it, and each
    other row holding it becomes p * row - f * pivot row (p the pivot, f its
    own value there) over the gcd of its entries.  Returns the row of each
    pivot column; over its pivot it is the reduced row, which does not
    depend on the choice of pivots.  The dicts given are not changed."""
    rows, pivots, used = list(rows), {}, set()  # pivots: column -> index of its row
    for col in range(ncols):
        r = next((i for i, row in enumerate(rows) if col in row and i not in used), None)
        if r is None:
            continue
        used.add(r)
        pivot = rows[r]
        p = pivot[col]
        for i, row in enumerate(rows):
            f = row.get(col)
            if f is not None and i != r:
                row = {c: v for c in row.keys() | pivot.keys() if (v := p * row.get(c, 0) - f * pivot.get(c, 0))}
                g = gcd(*row.values())
                rows[i] = {c: x // g for c, x in row.items()} if g > 1 else row
        pivots[col] = r
    return {col: rows[r] for col, r in pivots.items()}


# ---------------------------------------------------------------------------
# Rank-3 structure-constant tensors
# ---------------------------------------------------------------------------

class Trilinear:
    """Structure constants of a bilinear operation on a based space.

    ``entry(i, j, k)`` is the coefficient of basis vector k in op(e_i, e_j).
    Stored sparsely, as catalog tensors have a handful of entries even in
    dimension 9 or 16: ``rows[i]`` holds the sorted (j, k, numerator) triples
    of the nonzero entries with first index i (no key for an index without
    one, keys ascending), and entry (i, j, k) is numerator / ``den``.

    ``perms`` holds basis permutations (``p[i]`` the image of basis vector
    i) declared as automorphisms of the operation, by ``catalog`` and
    ``algebra.tabulate`` only; a sweep uses those it certifies
    (``_automorphisms``, which ``tabulate`` fills from its operands'
    certificates).  They take no part in equality, hashing or ``repr``, and
    every other way of building a tensor declares none.
    """

    __slots__ = ("dim", "rows", "den", "perms", "__dict__")  # ``__dict__`` holds the cached properties

    def __init__(self, dim: int, entries: Mapping | Iterable = ()):
        if dim <= 0:
            raise ValueError("tensor dimension must be positive")
        data: dict[int, Fraction] = {}
        for (i, j, k), value in dict(entries).items():  # a repeated index keeps its last value
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise IndexError(f"tensor index {(i, j, k)} out of range for dim {dim}")
            data[(i * dim + j) * dim + k] = rat(value)
        numerators, den = _over_common_denominator(data.values())
        Trilinear._of(dim, dict(zip(data, numerators)), den, self)

    @staticmethod
    def _of(dim: int, data: dict, den: int, t: "Trilinear | None" = None, perms: tuple = ()) -> "Trilinear":
        """The one tensor constructor that normalises: entry (i, j, k) =
        ``data[(i * dim + j) * dim + k] / den`` (``int`` keys and numerators,
        indices in range), stored in ``t`` or a new tensor: zero numerators
        dropped, in index order (the order of the keys as integers), in
        lowest terms (no gcd at ``den`` 1), declaring ``perms``."""
        g = gcd(den, *data.values()) if den != 1 else 1
        rows: dict = {}
        last, square = None, dim * dim
        for key in sorted(data):
            if q := data[key]:
                i, jk = divmod(key, square)
                if i != last:  # sorted, the keys of one row are consecutive
                    row = rows[i] = []
                    last = i
                j, k = divmod(jk, dim)
                row.append((j, k, q if g == 1 else q // g))
        return Trilinear._stored(dim, {i: tuple(row) for i, row in rows.items()}, den // g, perms, t)

    @staticmethod
    def _stored(dim: int, rows: dict, den: int, perms: tuple = (), t: "Trilinear | None" = None) -> "Trilinear":
        """``t`` or a new tensor holding ``rows`` over ``den`` as they are:
        the step that ``_of`` and ``_opposite`` end in, given rows already
        in stored form."""
        t = object.__new__(Trilinear) if t is None else t
        t.dim, t.den, t.rows, t.perms = dim, den, rows, perms
        return t

    @staticmethod
    def zero(dim: int) -> "Trilinear":
        return Trilinear(dim)

    def items(self) -> tuple:
        """The ((i, j, k), value) pairs of the nonzero entries in index order,
        each value a ``Fraction``."""
        den = self.den
        return tuple(((i, j, k), Fraction(q, den)) for i, row in self.rows.items() for j, k, q in row)

    def entry(self, i: int, j: int, k: int) -> Fraction:
        row = self.rows.get(_basis_index(i, self.dim), ())
        jk = (_basis_index(j, self.dim), _basis_index(k, self.dim))
        return next((Fraction(q, self.den) for jj, kk, q in row if (jj, kk) == jk), _ZERO)

    def pair_vector(self, i: int, j: int) -> Vector:
        """op(e_i, e_j)."""
        j = _basis_index(j, self.dim)
        out = [_ZERO] * self.dim
        for jj, k, q in self.rows.get(_basis_index(i, self.dim), ()):
            if jj == j:
                out[k] = Fraction(q, self.den)
        return Vector(tuple(out))

    def is_zero(self) -> bool:
        return not self.rows

    @cached_property
    def _opposite(self) -> "Trilinear":
        """The tensor of the opposite operation, op'(x, y) = op(y, x): the same
        entries over the same ``den``, entry (i, j, k) stored as (j, i, k), so
        grouped by second index.  It declares no permutations.  Built once
        per tensor; ``_contract`` runs from its smaller operand through it.
        The stored rows are regrouped by second index in one pass: they are
        read in index order, so each new row is too, and the numerators
        stay in lowest terms over ``den``."""
        rows: dict = {}
        for i, row in self.rows.items():
            for j, k, q in row:
                rows.setdefault(j, []).append((i, k, q))
        return Trilinear._stored(self.dim, {j: tuple(rows[j]) for j in sorted(rows)}, self.den)

    @cached_property
    def _commutative(self) -> bool:
        """Whether op(x, y) = op(y, x): the tensor equals its opposite."""
        return self._opposite.rows == self.rows

    @cached_property
    def _automorphisms(self) -> tuple:
        """The declared ``perms`` certified on the stored form (``_certify``).
        Computed once per tensor, in O(nnz) per permutation;
        ``algebra.tabulate`` fills it on the tensors it builds."""
        return self._certify(self.perms)

    def _certify(self, perms: tuple, proven: tuple = ()) -> tuple:
        """The permutations of ``perms``, in their order, that are in
        ``proven`` or map each row onto the row of its image: every entry
        (j, k, q) of row i onto (p[j], p[k], q) of row p[i]."""
        rows, basis = self.rows, list(range(self.dim))
        return tuple(p for p in perms if p in proven or sorted(p) == basis and all(
            rows.get(p[i]) == tuple(sorted([(p[j], p[k], q) for j, k, q in row])) for i, row in rows.items()))

    def with_entry(self, i: int, j: int, k: int, value) -> "Trilinear":
        """Copy with one structure constant replaced (used to corrupt tensors
        in tests), declaring no permutations: the stored numerators brought
        to the common denominator, and a zero value removes the entry."""
        dim, (n, d) = self.dim, rat(value).as_integer_ratio()
        den = lcm(self.den, d)
        f = den // self.den
        data = {(a * dim + b) * dim + c: q * f for a, row in self.rows.items() for b, c, q in row}
        data[(_basis_index(i, dim) * dim + _basis_index(j, dim)) * dim + _basis_index(k, dim)] = n * (den // d)
        return Trilinear._of(dim, data, den)

    def kron(self, other: "Trilinear") -> "Trilinear":
        """Kronecker product: op(x1 (x) x2, y1 (x) y2) = self(x1, y1) (x)
        other(x2, y2) on the product basis (i, j) -> i * other.dim + j, the
        second factor varying fastest (as ``LinearMap.kron``)."""
        d2 = other.dim
        dim = self.dim * d2
        return Trilinear._of(dim, {
            ((i * d2 + j) * dim + k * d2 + l) * dim + p * d2 + r: q1 * q2
            for i, row1 in self.rows.items() for k, p, q1 in row1
            for j, row2 in other.rows.items() for l, r, q2 in row2}, self.den * other.den)

    def map_outputs(self, m: LinearMap) -> "Trilinear":
        """Post-compose with a linear map: structure constants of m(op(x, y))."""
        if m.dim != self.dim:
            raise DimensionMismatch(f"map dim {m.dim} vs tensor dim {self.dim}")
        data: dict = {}
        cols, dim = m.columns, self.dim
        for i, row in self.rows.items():
            for j, k, q in row:
                base = (i * dim + j) * dim
                for out_idx, coeff in cols[k]:
                    p = q * coeff
                    key = base + out_idx
                    v = data.get(key)
                    data[key] = p if v is None else v + p
        return Trilinear._of(dim, data, self.den * m.den)

    def contract(self, x: Vector, y: Vector) -> Vector:
        """Evaluate the bilinear operation: out_k = sum_ij x_i y_j c[i][j][k];
        generic over the entry ring of x and y (see ``_vector_of``)."""
        (a, b), generators = _forms_of((x, y), self.dim)
        return _vector_of(_contract(self, a, b), self.dim, generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trilinear):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.rows == other.rows

    def __hash__(self):
        return hash((self.dim, self.den, tuple(self.rows.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{ijk}: {q}" for ijk, q in self.items())
        return f"Trilinear(dim={self.dim}, {{{body}}})"


# ---------------------------------------------------------------------------
# Sparse forms: the one contraction kernel
# ---------------------------------------------------------------------------

class _Form:
    """A vector with coordinates sparse in codes: monomials packed into one
    ``int`` each, so that a product of monomials is a sum of codes.

    ``cols[n][code] / den`` is the coefficient of basis vector n at ``code``
    (``int`` numerators; a stored numerator may be zero).  In a sweep (see
    ``algebra``) a code is the mixed-radix number of the free basis indices,
    so sorted codes are in lexicographic order, and ``slots`` has bit s set
    when the form is linear in argument s: a form without bit 0 is the same
    in every block.  A unit form (``unit``), such as a sweep's basis
    argument or the power checks' generic element, holds one code with
    numerator 1 in each column, and ``units`` maps each column to that code
    (None on any other form), which ``_contract`` reads instead of the
    column.  Vectors and polynomials take ``poly``'s keys as codes."""

    __slots__ = ("cols", "slots", "den", "units")

    def __init__(self, cols: dict, slots: int = 0, den: int = 1, units: dict | None = None):
        self.cols = cols
        self.slots = slots
        self.den = den
        self.units = units

    @staticmethod
    def unit(units: dict, slots: int) -> "_Form":
        """The unit form whose column n holds numerator 1 at ``units[n]``."""
        return _Form({n: {code: 1} for n, code in units.items()}, slots, 1, units)

    def is_zero(self) -> bool:
        return not any(any(col.values()) for col in self.cols.values())

    def __add__(self, other):
        return _pending(self) + other

    def __sub__(self, other):
        return _pending(self) - other


class _Pending(tuple):
    """A sum of scaled kernel products not yet formed: the terms ``_sum``
    takes, each ``(fn, operands, num, den)``.  ``+``, ``-`` and scaling by a
    rational only combine terms; a form joins as a term of ``_add_into``.
    Its form has slot 0 set."""

    __slots__ = ()

    def form(self) -> _Form:
        if len(self) > 1:
            return _sum(self, 1)
        (fn, operands, num, den), = self  # one product, formed on its own
        form = fn(*operands, {}, num)
        form.den = den
        return form

    def __add__(self, other):
        return _Pending((*self, *_pending(other)))

    def __sub__(self, other):
        return _Pending((*self, *((fn, operands, -num, den) for fn, operands, num, den in _pending(other))))

    def __rmul__(self, c):
        a, b = c.numerator, c.denominator
        return _Pending((fn, operands, a * num, b * den) for fn, operands, num, den in self)


def _pending(value) -> _Pending:
    """``value`` as a pending sum: a form becomes one ``_add_into`` term."""
    return value if type(value) is _Pending else _Pending(((_add_into, (value,), 1, value.den),))


def _formed(value) -> _Form:
    """The form of ``value``, a form or a pending sum."""
    return value.form() if type(value) is _Pending else value


def _sum(terms, slots: int = 0) -> _Form:
    """The sum of ``terms``, each ``(fn, operands, num, den)`` for the
    numerators that ``fn(*operands)`` forms times ``num``, over ``den``, in
    one output over the lcm of the ``den``: each ``fn(*operands, out,
    factor)`` adds into it with its integer factor."""
    total = lcm(*map(_DEN, terms))
    out: dict = {}
    for fn, operands, num, den in terms:
        fn(*operands, out, num * (total // den))
    return _Form(out, slots, total)


def _add_into(a: _Form, out: dict, factor: int) -> None:
    """``factor`` times the numerators of ``a``, added into the columns
    ``out``: a column ``out`` lacks is copied, a factor of -1 subtracts, and
    an entry that cancels is dropped."""
    negate = factor == -1
    for n, col in a.cols.items():
        if factor != 1 and not negate:
            col = {code: factor * q for code, q in col.items()}
        acc = out.get(n)
        if acc is None:
            out[n] = {code: -q for code, q in col.items()} if negate else dict(col)
            continue
        for code, q in col.items():
            v = acc.get(code)
            if v is None:
                acc[code] = -q if negate else q
            elif v := v - q if negate else v + q:
                acc[code] = v
            else:
                del acc[code]


def _contract(t: Trilinear, a: _Form, b: _Form, out: dict | None = None, factor: int = 1) -> _Form:
    """t(a, b): the codes of a and b add (in a sweep their free slots are
    disjoint), and the numerators multiply over ``t.den * a.den * b.den``.
    With ``out``, the products times ``factor`` (folded into each tensor
    coefficient) are added into it.  The kernel runs from the operand with
    fewer columns: when that is ``b``, it forms t'(b, a) on the tensor's
    opposite t' (``Trilinear._opposite``), which has the same products,
    codes and denominator, so it looks up only the rows of ``b``'s columns.
    A unit operand is read by its codes (``_Form.units``), so a tensor entry
    meets it in one lookup: with both operands unit the entry is one
    product, its coefficient at ``ca + cb``; with a unit ``b`` the entry
    runs over the column of ``a`` at code ``cb``, with a unit ``a`` over the
    column of ``b`` at code ``ca``.  Otherwise a one-entry column of ``b``
    is unpacked once per tensor entry, whose product with it is taken once
    for the run over the column of ``a``."""
    out = {} if out is None else out
    if len(b.cols) < len(a.cols):
        t, a, b = t._opposite, b, a
    rows, bcols, aunits, bunits = t.rows, b.cols, a.units, b.units
    if aunits is not None and bunits is not None:
        for i, ca in aunits.items():
            for j, k, q in rows.get(i, ()):
                cb = bunits.get(j)
                if cb is None:
                    continue
                col = out.get(k)
                if col is None:
                    col = out[k] = {}
                q = q * factor
                code = ca + cb
                v = col.get(code)
                col[code] = q if v is None else v + q
    elif bunits is not None:
        for i, acol in a.cols.items():
            for j, k, q in rows.get(i, ()):
                cb = bunits.get(j)
                if cb is None:
                    continue
                col = out.get(k)
                if col is None:
                    col = out[k] = {}
                q = q * factor
                for ca, qa in acol.items():
                    code = ca + cb
                    p = q * qa
                    v = col.get(code)
                    col[code] = p if v is None else v + p
    elif aunits is not None:
        for i, ca in aunits.items():
            for j, k, q in rows.get(i, ()):
                bcol = bcols.get(j)
                if bcol is None:
                    continue
                col = out.get(k)
                if col is None:
                    col = out[k] = {}
                q = q * factor
                for cb, qb in bcol.items():
                    code = ca + cb
                    p = q * qb
                    v = col.get(code)
                    col[code] = p if v is None else v + p
    else:
        for i, acol in a.cols.items():
            for j, k, q in rows.get(i, ()):
                bcol = bcols.get(j)
                if bcol is None:
                    continue
                col = out.get(k)
                if col is None:
                    col = out[k] = {}
                q = q * factor
                if len(bcol) == 1:
                    (cb, qb), = bcol.items()
                    g = q * qb
                    for ca, qa in acol.items():
                        code = ca + cb
                        p = g * qa
                        v = col.get(code)
                        col[code] = p if v is None else v + p
                    continue
                for ca, qa in acol.items():
                    f = q * qa
                    for cb, qb in bcol.items():
                        code = ca + cb
                        p = f * qb
                        v = col.get(code)
                        col[code] = p if v is None else v + p
    return _Form(out, a.slots | b.slots, t.den * a.den * b.den)


def _apply(m: LinearMap, a: _Form, out: dict | None = None, factor: int = 1) -> _Form:
    """m(a) over ``m.den * a.den``; with ``out``, added into it times
    ``factor`` (folded into each map coefficient)."""
    out = {} if out is None else out
    columns = m.columns
    for j, acol in a.cols.items():
        for i, coeff in columns[j]:
            col = out.get(i)
            if col is None:
                col = out[i] = {}
            coeff = coeff * factor
            for code, q in acol.items():
                p = coeff * q
                v = col.get(code)
                col[code] = p if v is None else v + p
    return _Form(out, a.slots, m.den * a.den)


def _is_polynomial(e) -> bool:
    """Whether ``e`` is a ``Polynomial``.  ``poly`` imports this module, so it
    is looked up, not imported: no polynomial exists before it is loaded."""
    poly = sys.modules.get(f"{__package__}.poly")
    return poly is not None and isinstance(e, poly.Polynomial)


def _forms_of(vectors, dim: int, degree: int = 0) -> tuple:
    """``(forms, generators)``: the form of the s-th vector, of ``dim``, has
    slot s and column n its coordinate n over the lcm of their denominators,
    keyed as a polynomial's ``terms`` (a rational under key 0; a zero has no
    column); ``generators`` is the one generator list of the polynomial
    entries, or None.  A read-back's guard bit catches a sum of two keys
    only, so a product of ``degree`` (default: one of each vector) past two
    factors is refused before it is formed if its exponents could pass
    ``poly.MAX_EXPONENT``."""
    forms, generators = [], None
    for s, v in enumerate(vectors):
        if v.dim != dim:
            raise DimensionMismatch(f"element dim {v.dim} != dim {dim}")
        cols, dens = {}, {}
        for n, e in enumerate(v.entries):
            if isinstance(e, (int, Fraction)):
                if e:
                    cols[n], dens[n] = {0: e.numerator}, e.denominator
                continue
            if not _is_polynomial(e):
                raise TypeError(f"vector coordinate {n} is {e!r}, neither a rational nor a Polynomial")
            if not e:
                continue
            if generators is not None and e.generators != generators:
                raise GeneratorMismatch(f"generator lists differ: {generators} vs {e.generators}")
            generators, cols[n], dens[n] = e.generators, e.terms, e.den
        den = lcm(*dens.values())
        for n, d in dens.items():
            if d != den:
                cols[n] = {code: q * (den // d) for code, q in cols[n].items()}
        forms.append(_Form(cols, 1 << s, den))
    if generators is not None and (degree := degree or len(forms)) > 2:
        from .poly import _check_power

        _check_power((code for f in forms for col in f.cols.values() for code in col), len(generators), degree)
    return forms, generators


def _vector_of(form: _Form, dim: int, generators: tuple | None) -> Vector:
    """The vector of a form laid out as by ``_forms_of`` on ``generators``: a
    coordinate with no column (no product reached it) is ``Fraction(0)``, any
    other a ``Fraction``, or with ``generators`` a ``Polynomial`` built by
    ``poly._of_products``, which checks the exponent guard and term limit."""
    coords = [_ZERO] * dim
    den = form.den
    if generators is None:
        for n, col in form.cols.items():
            coords[n] = Fraction(col.get(0, 0), den)
    else:
        # imported on use: ``poly`` imports this module, and rationals need none of it
        from .poly import _of_products

        for n, col in form.cols.items():
            coords[n] = _of_products(generators, col, den)
    return Vector(tuple(coords))
