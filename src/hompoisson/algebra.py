"""Twisted algebras given by structure constants, and their identity checkers.

A twisted algebra is a based vector space with one or two bilinear operations
(stored as rank-3 tensors) and a linear twisting map.  Each defining identity
is stated once, as a function of an evaluator that supplies the bilinear
operation and the linear map, and runs on two evaluators:
``poisson_poly.POLYNOMIALS`` on polynomials, and ``_Sweep`` on forms: on all
basis tuples (``sweep``, behind ``check_*``) or pairs (``tabulate``), on
given vectors (the element-level functions, by ``_at``), and on the generic
element of ``hompower``.  Every identity is multilinear in the algebra
arguments, so vanishing on all basis tuples is equivalent to vanishing
identically.  A check lets its arguments
range over the basis at once and computes the residuals of all their tuples
by sparse composition of the structure constants.  A three-argument check
takes its first argument in doubling blocks of basis vectors (1, 2, 4, ...),
one evaluation per block, and stops after the block that holds the tenth
failing tuple.  ``tabulate`` builds an operation by reading the structure
constants off a bilinear formula.

A sweep has one orbit path, on basis permutations.  A tensor may declare
some as automorphisms (``Trilinear.perms``): ``catalog.matrix_algebra``
does, and ``tabulate`` passes on what all its tensor operands declare, with
their certificate: a permutation certified on all its operands is not
checked again on the result.  Every sweep certifies them on its own
operands (``_certified``, cached per tensor), takes the first argument on
the least vector r of each orbit and the second on the least vector of
each orbit of r's stabiliser (``_arguments``), and reads every other
tuple's residual off one of those, since residual(g x, g y, g z) = g
residual(x, y, z).  A sweep with an undeclared tensor (from spec files,
``with_entry``, ``tensor`` or ``twist``) or a map operand other than the
identity runs in full, even for ``jacobian``, a cyclic sum, and
``constructions.flexibility``.  Witnesses, their order and the stop rule are
those of the full sweep.

Every report in the package, swept or not, is built by ``make_report`` under
one witness policy: residuals are read in lexicographic order of their
indices, the first ``MAX_WITNESSES`` that are not zero become the witnesses
with their exact values, reading stops there, and the check passes when
there are none.

The sweep engine (``_Sweep``, ``sweep``) runs the one contraction kernel of
``linalg`` (``_Form``, ``_contract``, ``_apply``), whose codes here number
basis tuples.  It computes on ``int`` only, in the stored form of maps and
tensors: every form holds ``int`` numerators over one positive ``int``
denominator ``den``, and ``Trilinear.rows`` and ``LinearMap.columns`` are read
as they are.  Products multiply numerators and denominators.  A product that
involves the first argument is left pending (``linalg._Pending``): it records
the kernel function, its operands and a signed rational scale, and ``+``,
``-`` and scaling by a rational only combine such records; every other product
is formed at once and memoised.  A pending sum is formed once, where the
sweep, ``tabulate``, ``_at``, a power check or an enclosing product reads it,
by ``linalg._sum``: over the lcm of its terms' denominators, each term runs
into one output with its integer factor folded into the tensor or map
coefficient.  The identity map is never applied: ``E.ap`` returns its operand.
The basis arguments of a sweep and of ``tabulate`` are unit forms
(``linalg._Form.unit``), whose codes ``_contract`` reads instead of their
columns, built once for each range and place (``_basis``); a unit form
stays one through ``E.ap`` of the identity.
A numerator is zero exactly when its value is, so a sweep never reduces a
fraction; ``Fraction(numerator, den)`` is formed only in a witness residual or
an element-level result, and ``tabulate`` hands its numerators and denominator
to the tensor it builds.  Every accumulation stores the first contribution to
an entry as it is and adds only where a value is already held.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush

from .errors import DimensionMismatch
from .linalg import _ZERO, LinearMap, Trilinear, Vector, _apply, _contract, _Form, _formed, _forms_of, _Pending, _vector_of

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


@dataclass(frozen=True)
class CheckReport:
    identity: str
    passed: bool
    witnesses: tuple
    parts: tuple = ()

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
# arguments.  ``_at`` evaluates an identity at given vectors,
# ``poisson_poly.POLYNOMIALS`` on polynomials, ``sweep`` on all basis tuples,
# and ``tabulate`` reads structure constants off a bilinear formula.
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


# ---------------------------------------------------------------------------
# Element-level operations
# ---------------------------------------------------------------------------

def _at(identity, dim: int, operands: tuple, vectors: tuple) -> Vector:
    """``identity(E, *operands, *vectors)`` at given vectors of ``dim``: one run
    on the evaluator on forms, the first vector in slot 0, so the residual is
    one pending sum, formed once and read back once."""
    forms, generators = _forms_of(vectors, dim)
    return _vector_of(_formed(identity(_Sweep(), *operands, *forms)), dim, generators)


def hom_associator(algebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """(xy)a(z) - a(x)(yz) for the algebra's product and twisting map a."""
    return _at(associator, algebra.dim, (algebra.mu, algebra.alpha), (x, y, z))


def hom_jacobian(algebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """Cyclic sum (xy)a(z) + (zx)a(y) + (yz)a(x) of the Jacobi operation."""
    return _at(jacobian, algebra.dim, (jacobi_tensor(algebra), algebra.alpha), (x, y, z))


def cyclic_associator_sum(algebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """as(x,y,z) + as(z,x,y) + as(y,z,x)."""
    def cyclic(E, mu, alpha, x, y, z):
        return (associator(E, mu, alpha, x, y, z) + associator(E, mu, alpha, z, x, y)
                + associator(E, mu, alpha, y, z, x))

    return _at(cyclic, algebra.dim, (algebra.mu, algebra.alpha), (x, y, z))


def hom_leibniz_residual(algebra: HomPoissonAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """{a(x), yz} - {x,y}a(z) - a(y){x,z}."""
    return _at(leibniz, algebra.dim, (algebra.bracket, algebra.mu, algebra.alpha), (x, y, z))


# ---------------------------------------------------------------------------
# Basis sweeps: identities on sparse forms
# ---------------------------------------------------------------------------

class _Sweep:
    """Evaluator on forms, with one memo rule: a product that involves the
    first argument (slot 0) is left pending, and every other product is
    formed at once and memoised on its operand forms, so blocks that share
    their later arguments share it.  The identity map returns its operand.
    Arguments are read as given: ``sweep`` picks the basis vectors of each
    (``_arguments``)."""

    def __init__(self):
        self.memo: dict = {}

    def _term(self, fn, operands: tuple, slots: int, den: int):
        """``fn(*operands)``, a tensor or map and its forms, over ``den``:
        pending when it involves the first argument, else memoised."""
        if slots & 1:
            return _Pending(((fn, operands, 1, den),))
        key = (fn, id(operands[0]), *operands[1:])
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = fn(*operands)
        return hit

    def op(self, t: Trilinear, a, b):
        if type(a) is _Pending:
            a = a.form()
        if type(b) is _Pending:
            b = b.form()
        return self._term(_contract, (t, a, b), a.slots | b.slots, t.den * a.den * b.den)

    def ap(self, m: LinearMap, a):
        if m._identity:
            return a
        if type(a) is _Pending:
            a = a.form()
        return self._term(_apply, (m, a), a.slots, m.den * a.den)


def _common(operands, attr: str) -> tuple:
    """The permutations that attribute ``attr`` of every tensor operand
    lists, in the first one's order; none without a tensor operand."""
    common = None
    for t in operands:
        if type(t) is Trilinear:
            own = getattr(t, attr)
            if not own:
                return ()
            common = own if common is None or common == own else tuple(p for p in common if p in own)
    return common or ()


def _certified(operands) -> tuple:
    """The basis permutations ``sweep`` reduces by: those that every tensor
    operand declares (``perms``) and certifies (``Trilinear._automorphisms``),
    when every map operand is the identity; none without a tensor operand."""
    if not _common(operands, "perms") or not all(m._identity for m in operands if type(m) is LinearMap):
        return ()
    return _common(operands, "_automorphisms")


def _orbits(gens: tuple, dim: int) -> dict:
    """The orbits on the basis of the group that ``gens`` generate: for the
    least vector r of each, a transversal, one group element g per vector
    g[r] of the orbit, in the order found, the identity first."""
    orbits, seen, identity = {}, set(), tuple(range(dim))
    for r in range(dim):
        if r not in seen:
            seen.add(r)
            found = [identity]
            for g in found:
                for p in gens:
                    if p[g[r]] not in seen:
                        seen.add(p[g[r]])
                        found.append(tuple(p[n] for n in g))
            orbits[r] = tuple(found)
    return orbits


def _stabiliser(perms: tuple, r: int, transversal: tuple) -> tuple:
    """Generators of the stabiliser G_r of r in the group that ``perms``
    generate, from the transversal of r's orbit (``_orbits``) by Schreier's
    lemma: u_{p(x)}^-1 p u_x for each generator p and each x of the orbit,
    u_x the element that maps r to x, repeats and the identity left out."""
    dim, inverses = len(transversal[0]), {}
    for u in transversal:
        inverse = [0] * dim
        for n, m in enumerate(u):
            inverse[m] = n
        inverses[u[r]] = inverse
    gens = dict.fromkeys(tuple(inverses[p[u[r]]][p[n]] for n in u) for u in transversal for p in perms)
    gens.pop(transversal[0], None)
    return tuple(gens)


@cache
def _arguments(perms: tuple, dim: int, arity: int) -> tuple:
    """``(blocks, images, orbits)``, the basis arguments of a sweep whose
    certified permutations are ``perms``, kept like ``_basis``.

    ``images`` maps the least vector r of each orbit to its transversal
    (``_orbits``).  For arity 2 and 3, ``orbits[r]`` holds the orbits of
    the stabiliser G_r of r, with their transversals, when G_r is not
    trivial; its generators come from Schreier's lemma (``_stabiliser``),
    and no group is enumerated.  ``blocks`` holds the ``(hi, args)`` of 1,
    2, 4, ... orbit minima (all of them below arity 3): ``args`` the unit
    forms of the sweep's arguments, the minima first; then the least vectors
    of their stabilisers' orbits, or the whole basis (``_basis``) where a
    stabiliser is trivial; then the whole basis.  ``hi`` is the next block's
    first minimum, or ``dim``."""
    places = [dim ** (arity - 1 - s) for s in range(arity)]
    images = _orbits(perms, dim)
    orbits = {r: _orbits(gens, dim) for r, transversal in images.items()
              if arity > 1 and perms and (gens := _stabiliser(perms, r, transversal))}
    minima, rest = (*images, dim), tuple(_basis(0, dim, places[s], s) for s in range(1, arity))
    blocks, start, size = [], 0, 1 if arity == 3 else dim
    while start < len(images):
        stop = min(start + size, len(images))
        block = minima[start:stop]
        args = (_Form.unit({r: r * places[0] for r in block}, 1), *rest)
        if all(r in orbits for r in block):
            second = sorted({s for r in block for s in orbits[r]})
            args = (args[0], _Form.unit({s: s * places[1] for s in second}, 2), *rest[1:])
        blocks.append((minima[stop], args))
        start, size = stop, 2 * size
    return tuple(blocks), images, orbits


def sweep(identity: str, dim: int, arity: int, residual, *operands) -> CheckReport:
    """Check ``residual(E, *operands, *args)`` on all basis tuples of ``arity``.

    Every argument but the first ranges over the whole basis at once.  The
    first ranges over a block of basis vectors ``[lo, hi)``: the whole basis
    for arity 1 and 2, and blocks of 1, 2, 4, 8, ... vectors for arity 3, so
    a passing sweep makes ``dim.bit_length()`` evaluations.  Each evaluation
    yields the residuals of every tuple in its block by sparse composition,
    at a cost that follows the tensor nonzeros; subterms free of the first
    argument are computed once for all blocks that share the later
    arguments.  Blocks are evaluated only as
    ``make_report`` reads them, so the sweep stops after the block that holds
    the ``MAX_WITNESSES``-th failing tuple.

    The one orbit path: with basis permutations certified on the operands
    (``_certified``), the first argument takes the least vector r of each
    orbit, in blocks of 1, 2, 4, ... of those, and the second argument the
    least vectors of the orbits of r's stabiliser G_r (``_arguments``).  A
    failure read at (r, s, z) owes its image (h r, h g s, h g z), with the
    residual permuted by h g, for h in r's transversal and g in the
    transversal of s's G_r-orbit.  A failure read at (r, y, z) with y not
    one of those least vectors is left out, as it is owed as an image.  Each
    block yields its own failures and the images owed up to the next
    representative.  With a trivial group the plan is the full sweep's, and
    the later arguments of every block are the same cached ``_basis`` forms.
    Undeclared tensors (from ``with_entry``, ``Trilinear(...)``, spec files,
    ``tensor`` or ``twist``) and map operands other than the identity are
    swept in full, whatever the identity's symmetry in its arguments:
    hom-Jacobi of the M_6 commutator algebra forms 448 products as built,
    and 16,020 rebuilt without declarations.
    """
    places, perms = [dim ** (arity - 1 - s) for s in range(arity)], _certified(operands)
    blocks, images, orbits = _arguments(perms, dim, arity)
    E = _Sweep()

    def cases():
        owed = {}  # code of an image past the tuples read -> (a residual, h, g)
        for hi, args in blocks:
            form = _formed(residual(E, *operands, *args))
            cols = [(n, col) for n, col in form.cols.items() if any(col.values())]
            failing = {code for _, col in cols for code, q in col.items() if q}
            if orbits:  # (r, y, ...) with y off the least vectors of G_r's orbits is owed
                failing = {c for c in failing if (stab := orbits.get(c // places[0])) is None
                           or c // places[1] % dim in stab}
            heap = sorted(failing.union(c for c in owed if c < hi * places[0]))
            while heap:
                code = heappop(heap)
                indices = _indices(code, dim, arity)
                if code in owed:  # h g moves coordinate n of the residual r to h[g[n]]
                    r, h, g = owed.pop(code)
                    r = Vector(tuple(e for _, e in sorted(zip((h[n] for n in g), r.entries))))
                else:
                    coords = [_ZERO] * dim
                    for n, col in cols:
                        if q := col.get(code):
                            coords[n] = Fraction(q, form.den)
                    r = Vector(tuple(coords))
                    if perms:  # every (h, g) but the first, (identity, identity), owes an image
                        hs, stab = images[indices[0]], orbits.get(indices[0])
                        gs = stab[indices[1]] if stab else hs[:1]
                        for h, g in itertools.islice(itertools.product(hs, gs), 1, None):
                            image = sum(h[g[i]] * place for i, place in zip(indices, places))
                            owed[image] = r, h, g
                            if image < hi * places[0]:
                                heappush(heap, image)
                yield indices, r

    return make_report(identity, cases())


def tabulate(dim: int, formula, *operands) -> Trilinear:
    """The structure constants of the bilinear ``formula(E, *operands, x, y)``,
    evaluated once on all basis pairs as ``sweep`` lays out arity 2: entry
    (i, j, k) is the coefficient of basis vector k at code ``i * dim + j``,
    so its key in ``Trilinear._of`` is ``code * dim + k``.  The form's
    numerators and denominator become the tensor's as they are, reduced
    once to lowest terms.  The tensor declares the basis permutations that
    every tensor operand declares, and carries their certificate
    (``Trilinear._automorphisms``): the formula applies only ``E.op`` and
    ``E.ap``, so a permutation certified on all its operands
    (``_certified``) is an automorphism of the result, and only the other
    declared ones are certified on it."""
    x, y = _basis(0, dim, dim, 0), _basis(0, dim, 1, 1)
    form = _formed(formula(_Sweep(), *operands, x, y))
    perms = _common(operands, "perms")
    t = Trilinear._of(dim, {code * dim + k: q for k, col in form.cols.items() for code, q in col.items()}, form.den,
                      perms=perms)
    if perms:
        t._automorphisms = t._certify(perms, _certified(operands))
    return t


@cache
def _basis(lo: int, hi: int, place: int, slot: int) -> _Form:
    """The unit form of basis vectors ``lo`` to ``hi - 1`` as argument
    ``slot``, basis vector n at code ``n * place``.  Kept for every later
    sweep of the same shape: the kernel and the evaluator only read a
    form's columns."""
    return _Form.unit({n: n * place for n in range(lo, hi)}, 1 << slot)


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
