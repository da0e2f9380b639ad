"""Exact rational vectors, square matrices, and rank-3 structure-constant tensors.

Every scalar is an exact rational; there is no floating point anywhere in the
package.  ``LinearMap`` and ``Trilinear`` store ``int`` numerators over one
positive ``int`` denominator ``den``, in lowest terms (no prime divides
``den`` and every numerator), so equal values have equal fields and hashes.
Products (``compose``, ``kron``, ``map_outputs``) multiply numerators and
denominators and reduce once.  ``Fraction`` appears only in values read out
(the dense ``LinearMap.rows``, ``entry``, ``column``, ``items``,
``pair_vector``), in ``Vector`` entries, and in the division inside
``invert`` and ``kernel_vector``.

One sparse kernel, ``_contract`` and ``_apply`` on ``_Form``s, forms every
product of a vector with a tensor or a map, reading the stored form as it
is.  The sweep engine in ``algebra`` runs it on forms whose codes number
basis tuples; ``Trilinear.contract`` and ``LinearMap.apply`` pack vectors of
rationals or polynomials into forms keyed by ``poly``'s packed monomial keys
and read the result back, where ``poly._of_products`` checks the exponent
guard and the term limit.

A square matrix stores the nonzeros of each column (``LinearMap.columns``),
and every product, application, inverse and identity test runs over them, so
a diagonal or permutation map costs its dimension, not its square or cube.
A tensor stores the nonzeros of each first index (``Trilinear.rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping

from .errors import DimensionMismatch, GeneratorMismatch, SingularMatrixError

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        return Fraction(text)
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
        return Vector(tuple(rat(e) if isinstance(e, (int, str, Fraction)) else e for e in entries))

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
        if self.dim != v.dim:
            raise DimensionMismatch(f"map dim {self.dim} vs vector dim {v.dim}")
        form, generators = _form_of(v)
        return _vector_of(_apply(self, form), self.dim, generators)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other): column j of the
        product is the sum of other[k][j] times column k of self."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"map dims differ: {self.dim} vs {other.dim}")
        left = self.columns
        columns = []
        for line in other.columns:
            acc: dict = {}
            for k, b in line:
                for i, a in left[k]:
                    v = acc.get(i)
                    acc[i] = a * b if v is None else v + a * b
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
        return self.den == 1 and all(line == ((j, 1),) for j, line in enumerate(self.columns))

    def _rref(self) -> dict:
        """Reduced row echelon form of [numerators | den * I] by exact elimination.

        Rows are sparse, {column: nonzero value}, with the right block in
        columns n..2n-1.  ``holders[c]`` is kept as the set of rows with a
        nonzero in column c < n, so each pivot column finds its pivot (the
        first unused row holding it; with exact arithmetic no magnitude
        pivoting is needed) and the rows to clear from its nonzeros alone, and
        clearing touches only the columns where the pivot row is nonzero.
        Values are ``int`` until a pivot row is divided by its pivot.  Returns
        the reduced pivot row of each pivot column; those rows do not depend
        on the choice of pivots.
        """
        n = self.dim
        a = [dict(line) | {n + i: self.den} for i, line in enumerate(self.int_rows)]
        holders = [{i for i, _ in line} for line in self.columns]
        pivot_of_col: dict[int, int] = {}
        used: set = set()
        for col in range(n):
            candidates = holders[col] - used
            if not candidates:
                continue
            r = min(candidates)
            pivot = a[r]
            p = pivot[col]
            if p != 1:
                p = Fraction(p)
                pivot = a[r] = {c: x / p for c, x in pivot.items()}
            for i in holders[col] - {r}:
                row = a[i]
                f = row[col]
                for c, x in pivot.items():
                    v = row.get(c, 0) - f * x
                    if v:
                        row[c] = v
                        if c < n:
                            holders[c].add(i)
                    else:
                        del row[c]
                        if c < n:
                            holders[c].discard(i)
            pivot_of_col[col] = r
            used.add(r)
        return {col: a[r] for col, r in pivot_of_col.items()}

    def invert(self) -> "LinearMap":
        """Exact inverse: the right half of the reduced [numerators | den * I].

        Raises SingularMatrixError when a column has no pivot.
        """
        n = self.dim
        pivots = self._rref()
        if len(pivots) < n:
            raise SingularMatrixError("matrix is not invertible")
        rows = [sorted((c - n, x) for c, x in pivots[col].items() if c >= n) for col in range(n)]
        den = lcm(*(x.denominator for row in rows for _, x in row))
        rows = [[(j, x.numerator * (den // x.denominator)) for j, x in row] for row in rows]
        return LinearMap._of(_transpose(rows), den)

    def kernel_vector(self) -> Vector | None:
        """A nonzero kernel vector, or None when the map is injective.

        The vector has 1 at the first column without a pivot and is read off
        the reduced rows there.
        """
        n = self.dim
        pivots = self._rref()
        free = next((c for c in range(n) if c not in pivots), None)
        if free is None:
            return None
        coords = [_ZERO] * n
        coords[free] = _ONE
        for col, row in pivots.items():
            coords[col] = -Fraction(row.get(free, 0))
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
    """

    __slots__ = ("dim", "rows", "den")

    def __init__(self, dim: int, entries: Mapping | Iterable = ()):
        if dim <= 0:
            raise ValueError("tensor dimension must be positive")
        data: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), value in dict(entries).items():  # a repeated index keeps its last value
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise IndexError(f"tensor index {(i, j, k)} out of range for dim {dim}")
            data[(i, j, k)] = rat(value)
        numerators, den = _over_common_denominator(data.values())
        Trilinear._of(dim, dict(zip(data, numerators)), den, self)

    @staticmethod
    def _of(dim: int, data: dict, den: int, t: "Trilinear | None" = None) -> "Trilinear":
        """The tensor with entry (i, j, k) = ``data[i, j, k] / den`` (``int``
        numerators, indices in range), stored in ``t`` or a new tensor: zero
        numerators dropped, in index order, in lowest terms (no gcd at ``den`` 1)."""
        g = gcd(den, *data.values()) if den != 1 else 1
        rows: dict = {}
        for (i, j, k), q in sorted(data.items()):
            if q:
                rows.setdefault(i, []).append((j, k, q if g == 1 else q // g))
        t = object.__new__(Trilinear) if t is None else t
        t.dim, t.den, t.rows = dim, den // g, {i: tuple(row) for i, row in rows.items()}
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

    def with_entry(self, i: int, j: int, k: int, value) -> "Trilinear":
        """Copy with one structure constant replaced (used to corrupt tensors in tests)."""
        return Trilinear(self.dim, [*self.items(), ((i, j, k), value)])

    def kron(self, other: "Trilinear") -> "Trilinear":
        """Kronecker product: op(x1 (x) x2, y1 (x) y2) = self(x1, y1) (x)
        other(x2, y2) on the product basis (i, j) -> i * other.dim + j, the
        second factor varying fastest (as ``LinearMap.kron``)."""
        d2 = other.dim
        return Trilinear._of(self.dim * d2, {
            (i * d2 + j, k * d2 + l, p * d2 + r): q1 * q2
            for i, row1 in self.rows.items() for k, p, q1 in row1
            for j, row2 in other.rows.items() for l, r, q2 in row2}, self.den * other.den)

    def map_outputs(self, m: LinearMap) -> "Trilinear":
        """Post-compose with a linear map: structure constants of m(op(x, y))."""
        if m.dim != self.dim:
            raise DimensionMismatch(f"map dim {m.dim} vs tensor dim {self.dim}")
        data: dict = {}
        cols = m.columns
        for i, row in self.rows.items():
            for j, k, q in row:
                for out_idx, coeff in cols[k]:
                    key = (i, j, out_idx)
                    v = data.get(key)
                    data[key] = q * coeff if v is None else v + q * coeff
        return Trilinear._of(self.dim, data, self.den * m.den)

    def contract(self, x: Vector, y: Vector) -> Vector:
        """Evaluate the bilinear operation: out_k = sum_ij x_i y_j c[i][j][k];
        generic over the entry ring of x and y (see ``_vector_of``)."""
        if x.dim != self.dim or y.dim != self.dim:
            raise DimensionMismatch(
                f"tensor dim {self.dim} vs vectors {x.dim}, {y.dim}")
        a, generators = _form_of(x)
        b, generators = _form_of(y, generators)
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
    in every block.  A vector's form (``_form_of``) uses ``poly``'s keys."""

    __slots__ = ("cols", "slots", "den")

    def __init__(self, cols: dict, slots: int = 0, den: int = 1):
        self.cols = cols
        self.slots = slots
        self.den = den

    def is_zero(self) -> bool:
        return not any(any(col.values()) for col in self.cols.values())

    def _merge(self, other: "_Form", negate: bool) -> "_Form":
        """self + other or self - other over the lcm of their denominators,
        each side scaled to it only when its factor is not 1."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        if fa == 1:
            cols = {n: dict(col) for n, col in self.cols.items()}
        else:
            cols = {n: {code: fa * q for code, q in col.items()} for n, col in self.cols.items()}
        for n, col in other.cols.items():
            if fb != 1:
                col = {code: fb * q for code, q in col.items()}
            acc = cols.setdefault(n, {})
            for code, q in col.items():
                v = acc.get(code)
                if v is None:
                    if q:
                        acc[code] = -q if negate else q
                    continue
                total = v - q if negate else v + q
                if total:
                    acc[code] = total
                else:
                    del acc[code]
        return _Form(cols, self.slots | other.slots, den)

    def __add__(self, other: "_Form") -> "_Form":
        return self._merge(other, False)

    def __sub__(self, other: "_Form") -> "_Form":
        return self._merge(other, True)

    def __rmul__(self, c) -> "_Form":
        """The rational ``c`` times the form: numerators times its numerator
        (none when that is 1), the denominator times its denominator."""
        cols, a = self.cols, c.numerator
        if a != 1:
            cols = {n: {code: a * q for code, q in col.items()} for n, col in cols.items()}
        return _Form(cols, self.slots, self.den * c.denominator)


def _contract(t: Trilinear, a: _Form, b: _Form) -> _Form:
    """t(a, b): the codes of a and b add (in a sweep their free slots are
    disjoint), and the numerators multiply over ``t.den * a.den * b.den``.  A
    factor equal to 1 is not multiplied by: the other is taken as is."""
    out: dict = {}
    bcols = b.cols
    for i, acol in a.cols.items():
        for j, k, q in t.rows.get(i, ()):
            bcol = bcols.get(j)
            if bcol is None:
                continue
            col = out.setdefault(k, {})
            unit = q == 1
            for ca, qa in acol.items():
                f = qa if unit else q if qa == 1 else q * qa
                if f == 1:
                    for cb, qb in bcol.items():
                        code = ca + cb
                        v = col.get(code)
                        col[code] = qb if v is None else v + qb
                    continue
                for cb, qb in bcol.items():
                    code = ca + cb
                    p = f if qb == 1 else f * qb
                    v = col.get(code)
                    col[code] = p if v is None else v + p
    return _Form(out, a.slots | b.slots, t.den * a.den * b.den)


def _apply(m: LinearMap, a: _Form) -> _Form:
    """m(a) over ``m.den * a.den``, taking a numerator as is where the other
    factor is 1."""
    out: dict = {}
    columns = m.columns
    for j, acol in a.cols.items():
        for i, coeff in columns[j]:
            col = out.setdefault(i, {})
            if coeff == 1:
                for code, q in acol.items():
                    v = col.get(code)
                    col[code] = q if v is None else v + q
                continue
            for code, q in acol.items():
                p = coeff if q == 1 else coeff * q
                v = col.get(code)
                col[code] = p if v is None else v + p
    return _Form(out, a.slots, m.den * a.den)


def _form_of(v: Vector, generators: tuple | None = None) -> tuple:
    """``(form, generators)``: column n of the form is coordinate n of ``v``
    over the lcm of their denominators, keyed as a polynomial's ``terms`` (a
    rational under key 0; a zero has no column), and ``generators`` is the
    list of the polynomial entries, which must equal the one given."""
    cols, dens = {}, {}
    for n, e in enumerate(v.entries):
        if not e:
            continue
        if isinstance(e, (int, Fraction)):
            q, dens[n] = e.as_integer_ratio()
            cols[n] = {0: q}
            continue
        if generators is not None and e.generators != generators:
            raise GeneratorMismatch(f"generator lists differ: {generators} vs {e.generators}")
        generators, cols[n], dens[n] = e.generators, e.terms, e.den
    den = lcm(*dens.values())
    for n, d in dens.items():
        if d != den:
            cols[n] = {code: q * (den // d) for code, q in cols[n].items()}
    return _Form(cols, den=den), generators


def _vector_of(form: _Form, dim: int, generators: tuple | None) -> Vector:
    """The vector of a form laid out as by ``_form_of`` on ``generators``: a
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
