"""Exact rational vectors, square matrices, and rank-3 structure-constant tensors.

All public scalars are ``fractions.Fraction`` (arbitrary precision, always in
lowest terms with positive denominator), so every operation here is exact;
there is no floating point anywhere in the package.  The views read by the
sweep engine (``Trilinear.rows``, ``LinearMap.engine_columns``) hold ``int``
numerators over one positive ``int`` denominator per tensor or map instead
(``den``, the least common denominator of its entries, 1 when they are
integral); every other value, from ``entry``, ``items``, ``LinearMap.rows`` or
the ``sparse_*`` views, is a ``Fraction``.
Map products and ``Trilinear.map_outputs``, like the sweep engine, take a
factor as is where the other is 1 rather than multiplying by 1.
Vectors and tensor contractions also take sparse polynomial entries (see
``poly``), which is how universally quantified identities are decided with
generic elements; a contraction or map application sums the products of each
output coordinate in one fraction-free accumulation, and a map row with one
nonzero gives a scalar multiple of one coordinate.

Square matrices keep one sparse, canonical form, the nonzero entries of each
row and each column (``LinearMap.sparse_rows`` and ``sparse_columns``), for
equality and hashing, and run every product, application, inverse and
identity test over it, so a diagonal or permutation map costs its dimension,
not its square or cube.  The dense matrix ``LinearMap.rows`` is a view built
on demand, for serialisation and display.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping

from .errors import DimensionMismatch, SingularMatrixError

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
    """``(numerators, den)``: the rationals ``values`` as ``int`` numerators
    over ``den``, the least positive common denominator of them all."""
    pairs = [q.as_integer_ratio() for q in values]
    den = lcm(*{d for _, d in pairs})
    return [n if den == d else n * (den // d) for n, d in pairs], den


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
    vector j (the usual matrix convention).  The stored, canonical form is
    sparse: ``sparse_rows[i]`` holds the nonzero (j, value) pairs of row i and
    ``sparse_columns[j]`` the nonzero (i, value) pairs of column j, both in
    ascending index order.  Equality and hashing read it, and every product,
    application and identity test runs over it, so a diagonal or permutation
    map costs its dimension, not its square or cube; ``entry`` and ``column``
    read it too.  ``rows`` is the dense view, built on first read for output.
    """

    def __init__(self, rows):
        rows = tuple(tuple(map(rat, row)) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("linear map matrix must be square")
        self.sparse_rows = tuple(tuple((j, q) for j, q in enumerate(row) if q) for row in rows)
        self.sparse_columns = _transpose(self.sparse_rows)

    @staticmethod
    def _of_lines(rows: tuple, columns: tuple) -> "LinearMap":
        """The map with the given sparse rows and columns (nonzero rationals in
        ascending index order), built without re-coercing its entries."""
        m = object.__new__(LinearMap)
        m.sparse_rows, m.sparse_columns = rows, columns
        return m

    @property
    def dim(self) -> int:
        return len(self.sparse_rows)

    @staticmethod
    def identity(dim: int) -> "LinearMap":
        return LinearMap.diagonal([_ONE] * dim)

    @staticmethod
    def zero(dim: int) -> "LinearMap":
        return LinearMap._of_lines(((),) * dim, ((),) * dim)

    @staticmethod
    def diagonal(values: Iterable) -> "LinearMap":
        lines = tuple(((i, q),) if q else () for i, q in enumerate(rat(v) for v in values))
        return LinearMap._of_lines(lines, lines)

    @cached_property
    def rows(self) -> tuple:
        """The dense matrix: ``rows[i][j]`` is entry (i, j), zeros included."""
        n = self.dim
        return tuple(tuple(row.get(j, _ZERO) for j in range(n)) for row in map(dict, self.sparse_rows))

    def entry(self, i: int, j: int) -> Fraction:
        _basis_index(j, self.dim)
        return next((q for k, q in self.sparse_rows[_basis_index(i, self.dim)] if k == j), _ZERO)

    def column(self, j: int) -> Vector:
        line = dict(self.sparse_columns[_basis_index(j, self.dim)])
        return Vector(tuple(line.get(i, _ZERO) for i in range(self.dim)))

    @cached_property
    def engine_columns(self) -> tuple:
        """``(columns, den)``: ``sparse_columns`` with every value an ``int``
        numerator over the one denominator ``den``, the view the sweep engine
        reads."""
        nums, den = _over_common_denominator(q for line in self.sparse_columns for _, q in line)
        nums = iter(nums)
        return tuple(tuple((i, next(nums)) for i, _ in line) for line in self.sparse_columns), den

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.sparse_rows == other.sparse_rows

    def __hash__(self):
        return hash(self.sparse_rows)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product; generic over the entry ring of ``v``.

        A row with one nonzero (j, c) gives the scalar multiple c * v[j] (v[j]
        itself when c = 1); any other row is one ``poly.sum_of_products``
        accumulation over its nonzeros that meet a nonzero entry of ``v``.  A
        zero output coordinate is ``Fraction(0)``.
        """
        # imported on use: ``poly`` imports this module, and a process that
        # accumulates nothing (a basis sweep, a spec round trip) never loads it
        from . import poly

        if self.dim != v.dim:
            raise DimensionMismatch(f"map dim {self.dim} vs vector dim {v.dim}")
        x = v.entries
        out = []
        for line in self.sparse_rows:
            if len(line) == 1:
                (j, c), = line
                xj = x[j]
                out.append((xj if c == 1 else xj * c) if xj else _ZERO)
            else:
                triples = [(coeff, x[j], 1) for j, coeff in line if x[j]]
                out.append(poly.sum_of_products(triples) if triples else _ZERO)
        return Vector(tuple(out))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other): column j of the
        product is the sum of other[k][j] times column k of self."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"map dims differ: {self.dim} vs {other.dim}")
        left = self.sparse_columns
        columns = []
        for line in other.sparse_columns:
            acc: dict = {}
            for k, b in line:
                for i, a in left[k]:
                    p = a if b == 1 else b if a == 1 else a * b
                    acc[i] = acc[i] + p if i in acc else p
            columns.append(tuple(sorted((i, q) for i, q in acc.items() if q)))
        columns = tuple(columns)
        return LinearMap._of_lines(_transpose(columns), columns)

    def kron(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product self (x) other on the product basis (i, j) ->
        i * other.dim + j, the second factor varying fastest; built from the
        nonzeros of both factors."""
        d2 = other.dim
        columns = tuple(tuple((i * d2 + j, a * b) for i, a in c1 for j, b in c2)
                        for c1 in self.sparse_columns for c2 in other.sparse_columns)
        return LinearMap._of_lines(_transpose(columns), columns)

    def power(self, n: int) -> "LinearMap":
        if n < 0:
            raise ValueError("negative matrix powers not supported; call invert() explicitly")
        acc = self if n else LinearMap.identity(self.dim)
        for _ in range(n - 1):
            acc = acc.compose(self)
        return acc

    def is_identity(self) -> bool:
        return all(line == ((j, _ONE),) for j, line in enumerate(self.sparse_columns))

    def _rref(self) -> dict:
        """Reduced row echelon form of [self | I] by exact Gaussian elimination.

        Rows are sparse, {column: nonzero value}, with the identity block in
        columns n..2n-1.  ``holders[c]`` is kept as the set of rows with a
        nonzero in column c < n, so each pivot column finds its pivot (the
        first unused row holding it; with exact arithmetic no magnitude
        pivoting is needed) and the rows to clear from its nonzeros alone, and
        clearing touches only the columns where the pivot row is nonzero.
        Returns the reduced pivot row of each pivot column; those rows do not
        depend on the choice of pivots.
        """
        n = self.dim
        a = [dict(line) | {n + i: _ONE} for i, line in enumerate(self.sparse_rows)]
        holders = [{i for i, _ in line} for line in self.sparse_columns]
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
                pivot = a[r] = {c: x / p for c, x in pivot.items()}
            for i in holders[col] - {r}:
                row = a[i]
                f = row[col]
                for c, x in pivot.items():
                    v = row.get(c, _ZERO) - f * x
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
        """Exact inverse: the right half of the reduced [self | I].

        Raises SingularMatrixError when a column has no pivot.
        """
        n = self.dim
        pivots = self._rref()
        if len(pivots) < n:
            raise SingularMatrixError("matrix is not invertible")
        rows = tuple(tuple(sorted((c - n, x) for c, x in pivots[col].items() if c >= n)) for col in range(n))
        return LinearMap._of_lines(rows, _transpose(rows))

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
            coords[col] = -row.get(free, _ZERO)
        return Vector(tuple(coords))

    def __repr__(self) -> str:
        return "LinearMap[" + "; ".join(" ".join(str(e) for e in row) for row in self.rows) + "]"


def _transpose(lines: tuple) -> tuple:
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
    Stored sparsely as a map from (i, j, k) to nonzero rationals; catalog
    tensors have a handful of entries even in dimension 9 or 16.  The sweep
    engine reads ``rows``, the same entries grouped by first index as ``int``
    numerators over ``den``, built with the tensor.
    """

    __slots__ = ("dim", "_entries", "rows", "den")

    def __init__(self, dim: int, entries: Mapping | Iterable = ()):
        if dim <= 0:
            raise ValueError("tensor dimension must be positive")
        data: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), value in dict(entries).items():  # a repeated index keeps its last value
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise IndexError(f"tensor index {(i, j, k)} out of range for dim {dim}")
            q = rat(value)
            if q != 0:
                data[(i, j, k)] = q
        self._fill(dim, data)

    @staticmethod
    def _of(dim: int, data: dict) -> "Trilinear":
        """The tensor with these entries (in range, nonzero rationals), not coerced again."""
        t = object.__new__(Trilinear)
        t._fill(dim, data)
        return t

    def _fill(self, dim: int, data: dict) -> None:
        self.dim = dim
        self._entries = data
        # rows[i]: the (j, k, numerator) entries with first index i, read by
        # the sweep engine: entry (i, j, k) is numerator / den
        nums, self.den = _over_common_denominator(data.values())
        self.rows = rows = {}
        for (i, j, k), q in zip(data, nums):
            rows.setdefault(i, []).append((j, k, q))

    @staticmethod
    def zero(dim: int) -> "Trilinear":
        return Trilinear(dim)

    def items(self):
        return self._entries.items()

    def entry(self, i: int, j: int, k: int) -> Fraction:
        return self._entries.get((i, j, k), _ZERO)

    def pair_vector(self, i: int, j: int) -> Vector:
        """op(e_i, e_j)."""
        out = [_ZERO] * self.dim
        for jj, k, _ in self.rows.get(i, ()):
            if jj == j:
                out[k] = self._entries[i, j, k]
        return Vector(tuple(out))

    def is_zero(self) -> bool:
        return not self._entries

    def with_entry(self, i: int, j: int, k: int, value) -> "Trilinear":
        """Copy with one structure constant replaced (used to corrupt tensors in tests)."""
        return Trilinear(self.dim, [*self._entries.items(), ((i, j, k), value)])

    def kron(self, other: "Trilinear") -> "Trilinear":
        """Kronecker product: op(x1 (x) x2, y1 (x) y2) = self(x1, y1) (x)
        other(x2, y2) on the product basis (i, j) -> i * other.dim + j, the
        second factor varying fastest (as ``LinearMap.kron``)."""
        d2 = other.dim
        return Trilinear._of(self.dim * d2, {
            (i * d2 + j, k * d2 + l, p * d2 + r): q1 * q2
            for (i, k, p), q1 in self._entries.items()
            for (j, l, r), q2 in other._entries.items()})

    def map_outputs(self, m: LinearMap) -> "Trilinear":
        """Post-compose with a linear map: structure constants of m(op(x, y))."""
        if m.dim != self.dim:
            raise DimensionMismatch(f"map dim {m.dim} vs tensor dim {self.dim}")
        data: dict[tuple[int, int, int], Fraction] = {}
        cols = m.sparse_columns
        for (i, j, k), q in self._entries.items():
            for out_idx, coeff in cols[k]:
                key = (i, j, out_idx)
                p = q if coeff == 1 else coeff if q == 1 else coeff * q
                v = data.get(key)
                data[key] = p if v is None else v + p
        return Trilinear._of(self.dim, {key: q for key, q in data.items() if q})

    def contract(self, x: Vector, y: Vector) -> Vector:
        """Evaluate the bilinear operation: out_k = sum_ij x_i y_j c[i][j][k].

        Generic over the entry ring of x and y (rationals or polynomials): the
        (c[i][j][k], x_i, y_j) triples with nonzero x_i and y_j are grouped by
        k, and each group is summed in one accumulation by
        ``poly.sum_of_products``.
        """
        from . import poly  # imported on use, as in ``LinearMap.apply``

        if x.dim != self.dim or y.dim != self.dim:
            raise DimensionMismatch(
                f"tensor dim {self.dim} vs vectors {x.dim}, {y.dim}")
        xs, ys = x.entries, y.entries
        groups: dict[int, list] = {}
        for (i, j, k), q in self._entries.items():
            xi, yj = xs[i], ys[j]
            if xi and yj:
                groups.setdefault(k, []).append((q, xi, yj))
        out = [_ZERO] * self.dim
        for k, triples in groups.items():
            out[k] = poly.sum_of_products(triples)
        return Vector(tuple(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trilinear):
            return NotImplemented
        return self.dim == other.dim and self._entries == other._entries

    def __hash__(self):
        return hash((self.dim, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{ijk}: {q}" for ijk, q in sorted(self._entries.items()))
        return f"Trilinear(dim={self.dim}, {{{body}}})"
