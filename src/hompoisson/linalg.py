"""Exact rational vectors, square matrices, and rank-3 structure-constant tensors.

All scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator), so every operation here is exact; there is
no floating point anywhere in the package.  Vectors and tensor contractions
are deliberately generic over the scalar ring: entries may also be sparse
polynomials (see ``poly``), which is how universally quantified identities
are decided with generic elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import DimensionMismatch, SingularMatrixError

Q = Fraction

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


def rat_str(q: Fraction) -> str:
    """Canonical "p/q" (or "p") rendering."""
    return str(q)


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
        if not 0 <= i < dim:
            raise IndexError(f"basis index {i} out of range for dim {dim}")
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

@dataclass(frozen=True)
class LinearMap:
    """Square matrix over the rationals; column j is the image of basis vector j.

    ``rows[i][j]`` is the coefficient of basis vector i in the image of basis
    vector j (the usual matrix convention).
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(rat(e) for e in row) for row in self.rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("linear map matrix must be square")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(dim: int) -> "LinearMap":
        return LinearMap(tuple(tuple(_ONE if i == j else _ZERO for j in range(dim)) for i in range(dim)))

    @staticmethod
    def zero(dim: int) -> "LinearMap":
        return LinearMap(((_ZERO,) * dim,) * dim)

    @staticmethod
    def diagonal(values: Iterable) -> "LinearMap":
        vals = [rat(v) for v in values]
        n = len(vals)
        return LinearMap(tuple(tuple(vals[i] if i == j else _ZERO for j in range(n)) for i in range(n)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def column(self, j: int) -> Vector:
        return Vector(tuple(row[j] for row in self.rows))

    @cached_property
    def sparse_columns(self) -> tuple:
        """Column j as a tuple of its nonzero (i, value) pairs."""
        cols = []
        for j in range(self.dim):
            cols.append(tuple((i, self.rows[i][j]) for i in range(self.dim) if self.rows[i][j] != 0))
        return tuple(cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product; generic over the entry ring of ``v``."""
        if self.dim != v.dim:
            raise DimensionMismatch(f"map dim {self.dim} vs vector dim {v.dim}")
        out = []
        for row in self.rows:
            acc = None
            for coeff, x in zip(row, v.entries):
                if coeff == 0:
                    continue
                term = coeff * x
                acc = term if acc is None else acc + term
            out.append(_ZERO if acc is None else acc)
        return Vector(tuple(out))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other)."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"map dims differ: {self.dim} vs {other.dim}")
        n = self.dim
        ot = tuple(zip(*other.rows))  # columns of other
        return LinearMap(tuple(
            tuple(sum(self.rows[i][k] * ot[j][k] for k in range(n)) for j in range(n))
            for i in range(n)
        ))

    def power(self, n: int) -> "LinearMap":
        if n < 0:
            raise ValueError("negative matrix powers not supported; call invert() explicitly")
        acc = LinearMap.identity(self.dim)
        for _ in range(n):
            acc = acc.compose(self)
        return acc

    def is_identity(self) -> bool:
        return self == LinearMap.identity(self.dim)

    def invert(self) -> "LinearMap":
        """Exact inverse by rational Gaussian elimination.

        Pivots on the first nonzero entry in each column: with exact
        arithmetic no magnitude pivoting is needed.  Raises
        SingularMatrixError for singular input.
        """
        n = self.dim
        a = [list(row) for row in self.rows]
        inv = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot_row is None:
                raise SingularMatrixError("matrix is not invertible")
            if pivot_row != col:
                a[col], a[pivot_row] = a[pivot_row], a[col]
                inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
            p = a[col][col]
            if p != 1:
                a[col] = [x / p for x in a[col]]
                inv[col] = [x / p for x in inv[col]]
            for r in range(n):
                if r == col or a[r][col] == 0:
                    continue
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return LinearMap(tuple(tuple(row) for row in inv))

    def kernel_vector(self) -> Vector | None:
        """A nonzero kernel vector, or None when the map is injective."""
        n = self.dim
        a = [list(row) for row in self.rows]
        pivot_of_col: dict[int, int] = {}
        r = 0
        for col in range(n):
            pivot_row = next((i for i in range(r, n) if a[i][col] != 0), None)
            if pivot_row is None:
                continue
            a[r], a[pivot_row] = a[pivot_row], a[r]
            p = a[r][col]
            a[r] = [x / p for x in a[r]]
            for i in range(n):
                if i != r and a[i][col] != 0:
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivot_of_col[col] = r
            r += 1
        free = next((c for c in range(n) if c not in pivot_of_col), None)
        if free is None:
            return None
        coords = [_ZERO] * n
        coords[free] = _ONE
        for col, row in pivot_of_col.items():
            coords[col] = -a[row][free]
        return Vector(tuple(coords))

    def __repr__(self) -> str:
        return "LinearMap[" + "; ".join(" ".join(str(e) for e in row) for row in self.rows) + "]"


# ---------------------------------------------------------------------------
# Rank-3 structure-constant tensors
# ---------------------------------------------------------------------------

class Trilinear:
    """Structure constants of a bilinear operation on a based space.

    ``entry(i, j, k)`` is the coefficient of basis vector k in op(e_i, e_j).
    Stored sparsely as a map from (i, j, k) to nonzero rationals; catalog
    tensors have a handful of entries even in dimension 9 or 16.
    """

    __slots__ = ("dim", "_entries", "rows")

    def __init__(self, dim: int, entries: Mapping | Iterable = ()):
        if dim <= 0:
            raise ValueError("tensor dimension must be positive")
        self.dim = dim
        data: dict[tuple[int, int, int], Fraction] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j, k), value in items:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise IndexError(f"tensor index {(i, j, k)} out of range for dim {dim}")
            q = rat(value)
            if q != 0:
                data[(i, j, k)] = q
        self._entries = data
        # rows[i]: the (j, k, coefficient) entries with first index i
        rows: dict[int, list] = {}
        for (i, j, k), q in data.items():
            rows.setdefault(i, []).append((j, k, q))
        self.rows = rows

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
        for jj, k, q in self.rows.get(i, ()):
            if jj == j:
                out[k] = q
        return Vector(tuple(out))

    def is_zero(self) -> bool:
        return not self._entries

    def op(self) -> "Trilinear":
        """The opposite operation: inputs swapped."""
        return Trilinear(self.dim, {(j, i, k): q for (i, j, k), q in self._entries.items()})

    def __add__(self, other: "Trilinear") -> "Trilinear":
        self._check_dim(other)
        data = dict(self._entries)
        for key, q in other._entries.items():
            data[key] = data.get(key, _ZERO) + q
        return Trilinear(self.dim, data)

    def __sub__(self, other: "Trilinear") -> "Trilinear":
        self._check_dim(other)
        data = dict(self._entries)
        for key, q in other._entries.items():
            data[key] = data.get(key, _ZERO) - q
        return Trilinear(self.dim, data)

    def scale(self, c) -> "Trilinear":
        c = rat(c)
        return Trilinear(self.dim, {key: c * q for key, q in self._entries.items()})

    def with_entry(self, i: int, j: int, k: int, value) -> "Trilinear":
        """Copy with one structure constant replaced (used to corrupt tensors in tests)."""
        data = dict(self._entries)
        q = rat(value)
        if q == 0:
            data.pop((i, j, k), None)
        else:
            data[(i, j, k)] = q
        return Trilinear(self.dim, data)

    def map_outputs(self, m: LinearMap) -> "Trilinear":
        """Post-compose with a linear map: structure constants of m(op(x, y))."""
        if m.dim != self.dim:
            raise DimensionMismatch(f"map dim {m.dim} vs tensor dim {self.dim}")
        data: dict[tuple[int, int, int], Fraction] = {}
        cols = m.sparse_columns
        for (i, j, k), q in self._entries.items():
            for out_idx, coeff in cols[k]:
                key = (i, j, out_idx)
                data[key] = data.get(key, _ZERO) + coeff * q
        return Trilinear(self.dim, data)

    def contract(self, x: Vector, y: Vector) -> Vector:
        """Evaluate the bilinear operation: out_k = sum_ij x_i y_j c[i][j][k].

        Generic over the entry ring of x and y (rationals or polynomials).
        """
        if x.dim != self.dim or y.dim != self.dim:
            raise DimensionMismatch(
                f"tensor dim {self.dim} vs vectors {x.dim}, {y.dim}")
        out: list = [None] * self.dim
        for (i, j, k), q in self._entries.items():
            xi = x.entries[i]
            yj = y.entries[j]
            if xi == 0 or yj == 0:
                continue
            term = q * (xi * yj)
            out[k] = term if out[k] is None else out[k] + term
        return Vector(tuple(_ZERO if v is None else v for v in out))

    def is_symmetric(self) -> bool:
        return all(q == self.entry(j, i, k) for (i, j, k), q in self._entries.items())

    def is_antisymmetric(self) -> bool:
        return all(q == -self.entry(j, i, k) for (i, j, k), q in self._entries.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trilinear):
            return NotImplemented
        return self.dim == other.dim and self._entries == other._entries

    def __hash__(self):
        return hash((self.dim, frozenset(self._entries.items())))

    def _check_dim(self, other: "Trilinear") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"tensor dims differ: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        body = ", ".join(f"{ijk}: {q}" for ijk, q in sorted(self._entries.items()))
        return f"Trilinear(dim={self.dim}, {{{body}}})"
