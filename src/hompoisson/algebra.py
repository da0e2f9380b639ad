"""Twisted algebras given by structure constants, and their identity checkers.

A twisted algebra is a based vector space with one or two bilinear operations
(stored as rank-3 tensors) and a linear twisting map.  Each defining identity
is stated once, as a function of an evaluator that supplies the bilinear
operation and the linear map, and runs on one engine in two ways: on given
vectors (the element-level functions) and on all basis tuples (the
``check_*`` functions).  Every identity is multilinear in the algebra
arguments, so vanishing on all basis tuples is equivalent to vanishing
identically.  A check fixes the leading arguments to one basis vector at a
time and computes the residuals of the whole remaining slice of tuples by
sparse composition of the structure constants; it collects the first
``MAX_WITNESSES`` failing tuples in lexicographic order with their exact
residual vectors and returns a structured report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .linalg import LinearMap, Trilinear, Vector

MAX_WITNESSES = 10

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomAlgebra:
    """One bilinear product plus a linear twisting map."""

    basis: tuple
    mu: Trilinear
    alpha: LinearMap

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        _validate_based(self.basis, self.mu, self.alpha)

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class HomPoissonAlgebra:
    """A bracket and a product sharing one twisting map.

    ``commutative`` is a claim about the product, verified by
    ``check_commutative`` rather than enforced at construction, so
    commutative and non-commutative examples share one type.
    """

    basis: tuple
    bracket: Trilinear
    mu: Trilinear
    alpha: LinearMap
    commutative: bool = False

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        _validate_based(self.basis, self.mu, self.alpha)
        if self.bracket.dim != len(self.basis):
            raise DimensionMismatch(
                f"bracket dim {self.bracket.dim} != basis size {len(self.basis)}")

    @property
    def dim(self) -> int:
        return len(self.basis)


def _validate_based(basis, mu, alpha):
    dim = len(basis)
    if dim == 0:
        raise ValueError("algebra must have positive dimension")
    if len(set(basis)) != dim:
        raise ValueError("basis names must be unique")
    if mu.dim != dim:
        raise DimensionMismatch(f"product dim {mu.dim} != basis size {dim}")
    if alpha.dim != dim:
        raise DimensionMismatch(f"twisting map dim {alpha.dim} != basis size {dim}")


def jacobi_tensor(algebra) -> Trilinear:
    """The operation the Jacobi-type checks apply to: the bracket when the
    algebra has one, else its single product."""
    return algebra.bracket if isinstance(algebra, HomPoissonAlgebra) else algebra.mu


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """One failing basis tuple with its exact residual."""

    indices: tuple
    residual: object  # Vector, or a polynomial-valued residual

    def as_dict(self) -> dict:
        if isinstance(self.residual, Vector):
            res = [str(e) for e in self.residual.entries]
        else:
            res = str(self.residual)
        return {"indices": list(self.indices), "residual": res}


@dataclass(frozen=True)
class CheckReport:
    identity: str
    passed: bool
    witnesses: tuple = ()
    parts: tuple = ()

    def as_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "passed": self.passed,
            "witnesses": [w.as_dict() for w in self.witnesses],
        }
        if self.parts:
            d["parts"] = [p.as_dict() for p in self.parts]
        return d

    def flat(self) -> list:
        """Leaf reports (the parts of an aggregate, or the report itself)."""
        if self.parts:
            out = []
            for p in self.parts:
                out.extend(p.flat())
            return out
        return [self]


def make_report(identity: str, witnesses=(), parts=()) -> CheckReport:
    witnesses = tuple(witnesses)
    parts = tuple(parts)
    passed = not witnesses and all(p.passed for p in parts)
    return CheckReport(identity, passed, witnesses, parts)


def aggregate_report(identity: str, parts) -> CheckReport:
    parts = tuple(parts)
    witnesses = tuple(w for p in parts for w in p.witnesses)
    return CheckReport(identity, all(p.passed for p in parts), witnesses, parts)


# ---------------------------------------------------------------------------
# Defining identities
#
# Each identity is stated once, as a function of an evaluator ``E`` with a
# bilinear ``E.op(t, a, b)`` (the operation with structure constants ``t``)
# and a linear ``E.ap(m, a)``, followed by its operands and its algebra
# arguments.  ``VECTORS`` evaluates an identity on given vectors,
# ``poisson_poly.POLYNOMIALS`` on polynomials, and ``sweep`` on all basis
# tuples.
# ---------------------------------------------------------------------------

def associator(E, mu, alpha, x, y, z):
    """(xy)a(z) - a(x)(yz)."""
    return E.op(mu, E.op(mu, x, y), E.ap(alpha, z)) - E.op(mu, E.ap(alpha, x), E.op(mu, y, z))


def jacobian(E, t, alpha, x, y, z):
    """Cyclic sum (xy)a(z) + (zx)a(y) + (yz)a(x)."""
    return (E.op(t, E.op(t, x, y), E.ap(alpha, z))
            + E.op(t, E.op(t, z, x), E.ap(alpha, y))
            + E.op(t, E.op(t, y, z), E.ap(alpha, x)))


def leibniz(E, br, mu, alpha, x, y, z):
    """{a(x), yz} - {x,y}a(z) - a(y){x,z}."""
    return (E.op(br, E.ap(alpha, x), E.op(mu, y, z))
            - E.op(mu, E.op(br, x, y), E.ap(alpha, z))
            - E.op(mu, E.ap(alpha, y), E.op(br, x, z)))


def antisymmetry(E, t, x, y):
    """{x,y} + {y,x}."""
    return E.op(t, x, y) + E.op(t, y, x)


def commutativity(E, mu, x, y):
    """xy - yx."""
    return E.op(mu, x, y) - E.op(mu, y, x)


def morphism(E, f, source, target, x, y):
    """f(xy) - f(x)f(y), the product taken in source and in target."""
    return E.ap(f, E.op(source, x, y)) - E.op(target, E.ap(f, x), E.ap(f, y))


def intertwining(E, f, source_alpha, target_alpha, x):
    """f(a(x)) - a(f(x)), the twisting map taken in source and in target."""
    return E.ap(f, E.ap(source_alpha, x)) - E.ap(target_alpha, E.ap(f, x))


class VECTORS:
    """Evaluates an identity on given vectors (rational or polynomial entries)."""

    op = staticmethod(lambda t, a, b: t.contract(a, b))
    ap = staticmethod(lambda m, a: m.apply(a))


# ---------------------------------------------------------------------------
# Element-level operations
# ---------------------------------------------------------------------------

def hom_associator(algebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """(xy)a(z) - a(x)(yz) for the algebra's product and twisting map a."""
    return associator(VECTORS, algebra.mu, algebra.alpha, x, y, z)


def hom_jacobian(algebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """Cyclic sum (xy)a(z) + (zx)a(y) + (yz)a(x) of the Jacobi operation."""
    return jacobian(VECTORS, jacobi_tensor(algebra), algebra.alpha, x, y, z)


def cyclic_associator_sum(algebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """as(x,y,z) + as(z,x,y) + as(y,z,x)."""
    return (
        hom_associator(algebra, x, y, z)
        + hom_associator(algebra, z, x, y)
        + hom_associator(algebra, y, z, x)
    )


def hom_leibniz_residual(algebra: HomPoissonAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """{a(x), yz} - {x,y}a(z) - a(y){x,z}."""
    return leibniz(VECTORS, algebra.bracket, algebra.mu, algebra.alpha, x, y, z)


# ---------------------------------------------------------------------------
# Basis sweeps: identities on sparse forms
# ---------------------------------------------------------------------------

class _Form:
    """A multilinear map from a sweep's free basis slots to the space.

    ``cols[n][code]`` is the coefficient of basis vector n at the free basis
    indices whose mixed-radix number is ``code`` (so sorted codes are in
    lexicographic order); no stored coefficient is zero.  ``varies`` marks a
    form that changes from one slice of the sweep to the next.
    """

    __slots__ = ("cols", "varies")

    def __init__(self, cols: dict, varies: bool):
        self.cols = {n: nonzero for n, col in cols.items()
                     if (nonzero := {code: q for code, q in col.items() if q})}
        self.varies = varies

    def _merge(self, other: "_Form", negate: bool) -> "_Form":
        cols = {n: dict(col) for n, col in self.cols.items()}
        for n, col in other.cols.items():
            acc = cols.setdefault(n, {})
            for code, q in col.items():
                acc[code] = acc.get(code, _ZERO) + (-q if negate else q)
        return _Form(cols, self.varies or other.varies)

    def __add__(self, other: "_Form") -> "_Form":
        return self._merge(other, False)

    def __sub__(self, other: "_Form") -> "_Form":
        return self._merge(other, True)

    def __rmul__(self, c) -> "_Form":
        return _Form({n: {code: c * q for code, q in col.items()} for n, col in self.cols.items()},
                     self.varies)


def _contract(t: Trilinear, a: _Form, b: _Form) -> _Form:
    """t(a, b): the free slots of a and b are disjoint, so their codes add."""
    out: dict = {}
    bcols = b.cols
    for i, acol in a.cols.items():
        for j, k, q in t.rows.get(i, ()):
            bcol = bcols.get(j)
            if bcol is None:
                continue
            col = out.setdefault(k, {})
            for ca, qa in acol.items():
                f = q * qa
                for cb, qb in bcol.items():
                    code = ca + cb
                    col[code] = col.get(code, _ZERO) + f * qb
    return _Form(out, a.varies or b.varies)


def _apply(m: LinearMap, a: _Form) -> _Form:
    out: dict = {}
    columns = m.sparse_columns
    for j, acol in a.cols.items():
        for i, coeff in columns[j]:
            col = out.setdefault(i, {})
            for code, q in acol.items():
                col[code] = col.get(code, _ZERO) + coeff * q
    return _Form(out, a.varies)


class _Sweep:
    """Evaluator on forms.  Within one sweep it memoises the subterms that do
    not vary from slice to slice (those free of the fixed prefix); a memo
    entry is keyed by operand ids, so it holds its operands to keep those ids
    from being reused."""

    def __init__(self):
        self.memo: dict = {}

    def _memo(self, fn, operand, *forms) -> _Form:
        if any(f.varies for f in forms):
            return fn(operand, *forms)
        key = (fn, id(operand), *map(id, forms))
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = (operand, forms, fn(operand, *forms))
        return hit[2]

    def op(self, t: Trilinear, a: _Form, b: _Form) -> _Form:
        return self._memo(_contract, t, a, b)

    def ap(self, m: LinearMap, a: _Form) -> _Form:
        return self._memo(_apply, m, a)


def sweep(identity: str, dim: int, arity: int, residual, *operands) -> CheckReport:
    """Check ``residual(E, *operands, *args)`` on all basis tuples of ``arity``.

    Every argument but the last two is fixed to one basis vector at a time,
    in lexicographic order; the last two range over the whole basis at once,
    so each evaluation yields one slice of residuals by sparse composition,
    at a cost that follows the tensor nonzeros.  Stops at the
    ``MAX_WITNESSES``-th failing tuple.
    """
    free = min(arity, 2)
    E = _Sweep()
    args = [_Form({n: {n * dim ** (free - 1 - s): _ONE} for n in range(dim)}, False)
            for s in range(free)]
    witnesses = []
    for prefix in itertools.product(range(dim), repeat=arity - free):
        fixed = [_Form({i: {0: _ONE}}, True) for i in prefix]
        slice_ = {}
        for n, col in residual(E, *operands, *fixed, *args).cols.items():
            for code, q in col.items():
                slice_.setdefault(code, {})[n] = q
        for code in sorted(slice_):
            entries = slice_[code]
            indices = prefix + (divmod(code, dim) if free == 2 else (code,))
            witnesses.append(Witness(indices, Vector(tuple(entries.get(n, _ZERO) for n in range(dim)))))
            if len(witnesses) == MAX_WITNESSES:
                return make_report(identity, witnesses)
    return make_report(identity, witnesses)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_hom_associative(algebra) -> CheckReport:
    """Product associativity twisted by the algebra's map, on all basis triples."""
    return sweep("hom-associative", algebra.dim, 3, associator, algebra.mu, algebra.alpha)


def check_antisymmetry(algebra) -> CheckReport:
    """Bracket antisymmetry as a structure-constant condition."""
    return sweep("antisymmetry", algebra.dim, 2, antisymmetry, jacobi_tensor(algebra))


def check_commutative(algebra) -> CheckReport:
    """Product symmetry as a structure-constant condition."""
    return sweep("commutative", algebra.dim, 2, commutativity, algebra.mu)


def check_hom_jacobi(algebra) -> CheckReport:
    """Twisted Jacobi identity for the bracket, on all basis triples."""
    return sweep("hom-jacobi", algebra.dim, 3, jacobian, jacobi_tensor(algebra), algebra.alpha)


def check_hom_leibniz(algebra: HomPoissonAlgebra) -> CheckReport:
    """Twisted Leibniz compatibility between bracket and product."""
    return sweep("hom-leibniz", algebra.dim, 3, leibniz, algebra.bracket, algebra.mu, algebra.alpha)


def check_multiplicative(algebra) -> CheckReport:
    """The twisting map is a morphism of every operation the algebra carries."""
    ops = [("mu", algebra.mu)]
    if isinstance(algebra, HomPoissonAlgebra):
        ops.insert(0, ("bracket", algebra.bracket))
    return aggregate_report("multiplicative", [
        sweep(f"multiplicative[{name}]", algebra.dim, 2, morphism, algebra.alpha, t, t)
        for name, t in ops])


def check_morphism(f: LinearMap, source, target, weak: bool = False) -> CheckReport:
    """Does ``f`` intertwine the operations of ``source`` and ``target``?

    Checks f(op(x, y)) = op(f(x), f(y)) on all basis pairs for the product
    and, when both algebras carry one, the bracket.  Unless ``weak``, also
    requires f to commute with the twisting maps.
    """
    if source.dim != target.dim or f.dim != source.dim:
        raise DimensionMismatch("morphism check requires equal dimensions")
    ops = [("mu", source.mu, target.mu)]
    s_br = isinstance(source, HomPoissonAlgebra)
    t_br = isinstance(target, HomPoissonAlgebra)
    if s_br and t_br:
        ops.append(("bracket", source.bracket, target.bracket))
    elif s_br != t_br:
        raise ValueError("cannot compare a bracketed algebra with a single-product one")
    parts = [sweep(f"morphism[{name}]", source.dim, 2, morphism, f, ts, tt) for name, ts, tt in ops]
    if not weak:
        parts.append(sweep("morphism[twisting]", source.dim, 1, intertwining,
                           f, source.alpha, target.alpha))
    return aggregate_report("weak-morphism" if weak else "morphism", parts)


def check_hom_poisson(algebra: HomPoissonAlgebra) -> CheckReport:
    """The full defining suite: antisymmetry, twisted Jacobi, twisted
    associativity, twisted Leibniz, and product symmetry when claimed."""
    parts = [
        check_antisymmetry(algebra),
        check_hom_jacobi(algebra),
        check_hom_associative(algebra),
        check_hom_leibniz(algebra),
    ]
    if algebra.commutative:
        parts.append(check_commutative(algebra))
    return aggregate_report("hom-poisson", parts)
