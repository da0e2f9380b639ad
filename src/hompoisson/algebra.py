"""Twisted algebras given by structure constants, and their identity checkers.

A twisted algebra is a based vector space with one or two bilinear operations
(stored as rank-3 tensors) and a linear twisting map.  Each defining identity
is stated once, as a function of an evaluator that supplies the bilinear
operation and the linear map, and runs on three evaluators: ``VECTORS`` on
given vectors (the element-level functions, through ``Trilinear.contract``
and ``LinearMap.apply``), ``poisson_poly.POLYNOMIALS`` on polynomials, and
``_Sweep`` on forms: on all basis tuples (``sweep``, behind ``check_*``) or
pairs (``tabulate``), and on the generic element of ``hompower``.  Every
identity is multilinear in the algebra arguments, so vanishing on all basis
tuples is equivalent to vanishing identically.  A check lets its arguments
range over the basis at once and computes the residuals of all their tuples
by sparse composition of the structure constants.  A three-argument check
takes its first argument in doubling blocks of basis vectors (1, 2, 4, ...),
one evaluation per block, and stops after the block that holds the tenth
failing tuple.  ``tabulate`` builds an operation by reading the structure
constants off a bilinear formula.

An identity may declare exact symmetries of its arguments beside its
statement (``symmetric``): ``jacobian``, a cyclic sum, its two rotations, and
``constructions.flexibility`` the swap of x and z.  Such an identity is swept
on orbit representatives when its tensors have at least ``dim`` nonzeros
together (``_orbit_symmetries``): in a block from first index ``lo`` to
``hi`` with ``lo * (hi - lo) >= dim``, only the tuples whose arguments that a
symmetry moves to the front are ``lo`` or more are evaluated, and every other
failing tuple of the block is the image of one found in an earlier block,
with the same residual.  Witnesses, their order and the stop rule are the
same as for the full sweep.

Every report in the package, swept or not, is built by ``make_report`` under
one witness policy: residuals are read in lexicographic order of their
indices, the first ``MAX_WITNESSES`` that are not zero become the witnesses
with their exact values, reading stops there, and the check passes when
there are none.

The sweep engine (``_Sweep``, ``sweep``) runs the one contraction kernel of
``linalg`` (``_Form``, ``_contract``, ``_apply``), whose codes here number
basis tuples.  It computes on ``int`` only, in the stored form of maps and
tensors: every form holds ``int`` numerators over one positive ``int``
denominator ``den``, and ``Trilinear.rows`` and ``LinearMap.columns`` are
read as they are.  Products multiply numerators and denominators, and a sum
or difference brings its two terms to the lcm of their denominators.  A
numerator is zero exactly when its value is, so a sweep never reduces a
fraction; ``Fraction(numerator, den)`` is formed only in a witness residual,
and ``tabulate`` hands its numerators and denominator to the tensor it
builds.  Every accumulation stores the first contribution to an entry as it
is and adds only where a value is already held, and a difference of forms
subtracts rather than adding a negation.  A product with a factor equal to 1
is not formed: the other factor is taken as is.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, fields, is_dataclass

from .errors import DimensionMismatch
from .linalg import LinearMap, Trilinear, Vector, _Form, _apply, _contract, _vector_of

MAX_WITNESSES = 10


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

def as_data(value):
    """The JSON form of a report, a replay result or one of their values.

    A dataclass becomes an object of its fields in declaration order, leaving
    out a field that equals its declared default; a ``Vector`` becomes the
    list of its coordinate strings and a tuple a list; ``bool``, ``int``,
    ``str`` and ``None`` stay; any other value (``Fraction``, ``Polynomial``)
    becomes its ``str``.
    """
    if isinstance(value, Vector):
        return [str(e) for e in value.entries]
    if is_dataclass(value):
        return {f.name: as_data(getattr(value, f.name)) for f in fields(value)
                if f.default is MISSING or getattr(value, f.name) != f.default}
    if isinstance(value, tuple):
        return [as_data(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


@dataclass(frozen=True)
class Witness:
    """One failing basis tuple with its exact residual."""

    indices: tuple
    residual: object  # Vector, or a polynomial-valued residual

    def as_dict(self) -> dict:
        return as_data(self)


@dataclass(frozen=True)
class CheckReport:
    identity: str
    passed: bool
    witnesses: tuple
    parts: tuple = ()

    def as_dict(self) -> dict:
        return as_data(self)

    def flat(self) -> list:
        """Leaf reports (the parts of an aggregate, or the report itself)."""
        if self.parts:
            out = []
            for p in self.parts:
                out.extend(p.flat())
            return out
        return [self]


def make_report(identity: str, cases=()) -> CheckReport:
    """The report of one identity from its ``(indices, residual)`` cases,
    given in lexicographic order of the indices: the first ``MAX_WITNESSES``
    residuals that are not zero become the witnesses, and ``cases`` is read
    no further."""
    nonzero = ((indices, r) for indices, r in cases if not r.is_zero())
    witnesses = tuple(Witness(indices, r) for indices, r in itertools.islice(nonzero, MAX_WITNESSES))
    return CheckReport(identity, not witnesses, witnesses)


def aggregate_report(identity: str, parts) -> CheckReport:
    """The report of several parts: it passes when every part does, and its
    witnesses are the first ``MAX_WITNESSES`` of the parts' in part order."""
    parts = tuple(parts)
    witnesses = tuple(itertools.islice((w for p in parts for w in p.witnesses), MAX_WITNESSES))
    return CheckReport(identity, all(p.passed for p in parts), witnesses, parts)


# ---------------------------------------------------------------------------
# Defining identities
#
# Each identity is stated once, as a function of an evaluator ``E`` with a
# bilinear ``E.op(t, a, b)`` (the operation with structure constants ``t``)
# and a linear ``E.ap(m, a)``, followed by its operands and its algebra
# arguments.  ``VECTORS`` evaluates an identity on given vectors,
# ``poisson_poly.POLYNOMIALS`` on polynomials, ``sweep`` on all basis tuples,
# and ``tabulate`` reads structure constants off a bilinear formula.
# ---------------------------------------------------------------------------

def symmetric(*perms):
    """Declare the argument symmetries of a three-argument identity.

    Each ``p`` in ``perms`` states that residual(a0, a1, a2) equals
    residual(a_p[0], a_p[1], a_p[2]) exactly, whatever the operands.  With the
    identity permutation, ``perms`` must form a group, so that the images of
    a tuple are its whole orbit; ``sweep`` then evaluates orbit
    representatives only.
    """
    def declare(identity):
        identity.symmetries = perms
        return identity
    return declare


def associator(E, mu, alpha, x, y, z):
    """(xy)a(z) - a(x)(yz)."""
    return E.op(mu, E.op(mu, x, y), E.ap(alpha, z)) - E.op(mu, E.ap(alpha, x), E.op(mu, y, z))


@symmetric((1, 2, 0), (2, 0, 1))
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

class _Sweep:
    """Evaluator on forms.  Within one sweep it memoises the subterms that do
    not vary from block to block (those free of the first argument); outside
    a sweep (``_Sweep()``), every product of forms with no slots.

    When ``sweep`` evaluates orbit representatives, the arguments in the
    bitmask ``narrow`` take only the basis vectors from ``lo`` on.  The
    memoised subterms stay full-basis: where one meets the first argument it
    is read through a filter on the code digits of its narrowed arguments,
    which by multilinearity is the subterm of the narrowed arguments.
    """

    def __init__(self, dim: int = 0, arity: int = 0, narrow: int = 0):
        self.memo: dict = {}
        self.dim, self.narrow, self.lo = dim, narrow, 0
        self.places = [dim ** (arity - 1 - s) for s in range(arity)]
        self.narrowed: dict = {}  # form -> (lo, the form narrowed to lo)

    def _memo(self, fn, operand, *forms) -> _Form:
        if any(f.slots & 1 for f in forms):
            if self.lo:
                forms = [f if f.slots & 1 else self._narrowed(f) for f in forms]
            return fn(operand, *forms)
        key = (fn, id(operand), *forms)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = fn(operand, *forms)
        return hit

    def _narrowed(self, form: _Form) -> _Form:
        places = [p for s, p in enumerate(self.places) if form.slots & self.narrow & 1 << s]
        if not places:
            return form
        lo, narrowed = self.narrowed.get(form, (0, form))
        if lo != self.lo:
            lo, dim, cols = self.lo, self.dim, narrowed.cols
            for p in places:
                cols = {n: kept for n, col in cols.items()
                        if (kept := {code: q for code, q in col.items() if code // p % dim >= lo})}
            narrowed = _Form(cols, form.slots, form.den)
            self.narrowed[form] = (lo, narrowed)
        return narrowed

    def op(self, t: Trilinear, a: _Form, b: _Form) -> _Form:
        return self._memo(_contract, t, a, b)

    def ap(self, m: LinearMap, a: _Form) -> _Form:
        return self._memo(_apply, m, a)


def _orbit_symmetries(residual, dim: int, operands) -> tuple:
    """The argument permutations ``sweep`` reduces ``residual`` by: those
    declared with ``symmetric``, when the identity's tensors hold at least
    ``dim`` nonzeros together.  On sparser tensors the filters cost more than
    the products they skip: on tensor powers of Heisenberg algebras (dims 27
    and 81, 8 and 16 bracket nonzeros) a reduced hom-Jacobi sweep took 1.6 to
    2.1 times as long as the full one."""
    symmetries = getattr(residual, "symmetries", ())
    if symmetries and sum(sum(map(len, t.rows.values())) for t in operands if isinstance(t, Trilinear)) >= dim:
        return symmetries
    return ()


def sweep(identity: str, dim: int, arity: int, residual, *operands) -> CheckReport:
    """Check ``residual(E, *operands, *args)`` on all basis tuples of ``arity``.

    Every argument but the first ranges over the whole basis at once.  The
    first ranges over a block of basis vectors ``[lo, hi)``: the whole basis
    for arity 1 and 2, and blocks of 1, 2, 4, 8, ... vectors for arity 3, so
    a passing sweep makes ``dim.bit_length()`` evaluations.  Each evaluation
    yields the residuals of every tuple in its block by sparse composition,
    at a cost that follows the tensor nonzeros; subterms free of the first
    argument are computed once per sweep.  Blocks are evaluated only as
    ``make_report`` reads them, so the sweep stops after the block that holds
    the ``MAX_WITNESSES``-th failing tuple.

    An identity with declared argument symmetries (``_orbit_symmetries``) is
    evaluated on orbit representatives: in block ``[lo, hi)`` only on the
    tuples whose arguments that a symmetry moves to the front are ``lo`` or
    more.  Every other failing tuple of the block is the image of a failing
    tuple of an earlier block, with the same residual; the images of a
    block's failures are recorded when the next block is read.  A block is
    narrowed so only when ``lo * (hi - lo) >= dim``: the filter reads each
    entry of a memoised subterm once, and narrowing skips about ``lo / dim``
    of the products that entry forms with the ``hi - lo`` first arguments,
    so in the first small blocks it costs more than it saves.  Witnesses,
    their order and the stop rule are the same either way.
    """
    symmetries = _orbit_symmetries(residual, dim, operands)
    E = _Sweep(dim, arity, sum({1 << p[0] for p in symmetries}))
    rest = [_Form({n: {n * dim ** (arity - 1 - s): 1} for n in range(dim)}, 1 << s)
            for s in range(1, arity)]
    lead = dim ** (arity - 1)

    def cases():
        lo, size = 0, 1 if arity == 3 else dim
        found, images = [], {}  # failures of the block just read; first index -> {code: residual}
        while lo < dim:
            hi = min(lo + size, dim)
            for indices, r in found:
                for p in symmetries:
                    a, b, c = (indices[s] for s in p)
                    if a >= lo:
                        images.setdefault(a, {})[(a * dim + b) * dim + c] = r
            found.clear()
            E.lo = lo if symmetries and lo * (hi - lo) >= dim else 0
            first = _Form({n: {n * lead: 1} for n in range(lo, hi)}, 1)
            block, form = {}, residual(E, *operands, first, *rest)
            for n, col in form.cols.items():
                for code, q in col.items():
                    if q:
                        block.setdefault(code, {})[n] = q
            known = {}
            for n in range(lo, hi):
                known.update(images.pop(n, {}))
            for code in sorted(block.keys() | known.keys()):
                indices = _indices(code, dim, arity)
                r = known.get(code)
                if r is None:
                    cols = {n: {0: q} for n, q in block[code].items()}
                    r = _vector_of(_Form(cols, den=form.den), dim, None)
                    if symmetries:
                        found.append((indices, r))
                yield indices, r
            lo, size = hi, 2 * size

    return make_report(identity, cases())


def tabulate(dim: int, formula, *operands) -> Trilinear:
    """The structure constants of the bilinear ``formula(E, *operands, x, y)``,
    evaluated once on all basis pairs as ``sweep`` lays out arity 2: entry
    (i, j, k) is the coefficient of basis vector k at code ``i * dim + j``.
    The form's numerators and denominator become the tensor's as they are,
    reduced once to lowest terms."""
    x = _Form({n: {n * dim: 1} for n in range(dim)}, 1)
    y = _Form({n: {n: 1} for n in range(dim)}, 2)
    form = formula(_Sweep(), *operands, x, y)
    return Trilinear._of(dim, {(*divmod(code, dim), k): q for k, col in form.cols.items()
                               for code, q in col.items()}, form.den)


def _indices(code: int, dim: int, arity: int) -> tuple:
    """The basis tuple whose mixed-radix number in base ``dim`` is ``code``."""
    digits = []
    for _ in range(arity):
        code, digit = divmod(code, dim)
        digits.append(digit)
    return tuple(reversed(digits))


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
