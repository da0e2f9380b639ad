"""Cost regressions: how many map products the power checks and twists make,
how many polynomials a contraction reduces, how many additions a map
application makes, where vector, power and polynomial products and sums are
formed, how many numerator additions start from zero, how many numerator
additions and multiplications the kernel makes in all, how much ``Fraction``
arithmetic a sweep does, that a sweep forms no intermediate sum of forms and
a power residual is one sum, how many pair products a power check forms and
reads back, and how many powers a substitution takes.

The tests wrap ``LinearMap.compose``, the polynomial kernel's constructor
``poly._polynomial``, the form kernel (``linalg._contract``,
``linalg._apply``, the add-into routine ``linalg._add_into`` and the sum
``linalg._sum``), ``hompower``'s read-back ``_vector_of``, ``Polynomial``
multiplication and powers or ``Fraction`` arithmetic operators with a call
counter, or feed the kernel ``int`` numerators that record their
arithmetic.  A power check composes each power of the twisting map that it
reads once (alpha^2..alpha^(n-2) for an n-th power check: alpha^0 and
alpha^1 need no product, and an identity alpha none), a commutative product
forms and reads back each mirrored pair x^(n-i,i) = x^(i,n-i) once, a twist
composes the twisting maps once, a contraction of polynomial vectors reduces
each output coordinate once, a map whose rows have one nonzero each applies
with no addition, ``Trilinear.contract``, ``LinearMap.apply``, the power
checks and ``Polynomial`` sums and products form every product and sum in
the form kernel (a polynomial scales its own numerators by a rational), the
kernel (also where it adds a sum's terms into one output),
``LinearMap.compose`` and ``Trilinear.map_outputs`` store the first
contribution to an entry as it is.  The sweep engine computes on ``int``
numerators over one denominator per form, and maps and tensors store theirs
the same way, so a sweep does no ``Fraction`` arithmetic at all (it only
constructs the ``Fraction`` values of its witnesses), and neither do the
constructions built from map and tensor products and tabulated formulas.
"""

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from hompoisson import algebra as algebra_module
from hompoisson import hompower as hompower_module
from hompoisson import linalg, poly
from hompoisson.algebra import (
    HomAlgebra,
    check_hom_poisson,
    check_morphism,
    check_multiplicative,
    commutativity,
    cyclic_associator_sum,
    hom_associator,
    hom_jacobian,
    hom_leibniz_residual,
    tabulate,
)
from hompoisson.catalog import conjugation_morphism, heisenberg_morphism, heisenberg_p31, matrix_algebra
from hompoisson.constructions import (
    check_admissible,
    check_hom_flexible,
    commutator_poisson,
    depolarize,
    nonrigidity_witness,
    polarize,
    tensor,
    twist,
    verify_isomorphism,
)
from hompoisson.errors import PreconditionError
from hompoisson.hompower import (
    check_criterion_34,
    check_nth_power_assoc,
    generic_element,
    hom_power,
    hom_power_pair,
)
from hompoisson.linalg import LinearMap, Trilinear, Vector
from hompoisson.poly import Polynomial

from _oracles import RefPoly, random_tensor, sub


@pytest.fixture
def composes(monkeypatch):
    calls = []
    original = LinearMap.compose

    def counted(self, other):
        calls.append(self.dim)
        return original(self, other)

    monkeypatch.setattr(LinearMap, "compose", counted)
    return calls


def twisted_single():
    return depolarize(twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3)))


@pytest.mark.parametrize("n", range(3, 9))
def test_power_check_composes_each_power_once(composes, n):
    algebra = twisted_single()
    composes.clear()
    assert check_nth_power_assoc(algebra, n).passed
    assert len(composes) <= n - 2


def test_criterion_34_composes_at_most_twice(composes):
    algebra = twisted_single()
    composes.clear()
    assert check_criterion_34(algebra).passed
    assert len(composes) <= 2


# k[Z7], commutative and associative, and a copy with one more product that
# makes it not commutative; each with the identity, or Yau-twisted by the
# automorphism g_i -> g_2i
CYCLIC = Trilinear(7, {(i, j, (i + j) % 7): 1 for i in range(7) for j in range(7)})
DOUBLING = LinearMap(tuple(tuple(int(r == 2 * c % 7) for c in range(7)) for r in range(7)))


def cyclic_algebra(commutative: bool, alpha: LinearMap) -> HomAlgebra:
    mu = CYCLIC if commutative else CYCLIC.with_entry(0, 1, 2, 1)
    return HomAlgebra(basis=tuple(f"g{i}" for i in range(7)), mu=mu.map_outputs(alpha), alpha=alpha)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("commutative", [True, False])
def test_power_checks_form_each_residual_product_once(monkeypatch, composes, commutative, twisted):
    """Each power residual is formed by one ``linalg._sum`` into one output:
    one copy of x^n, the same in every residual of a check, and its pair
    product.  A commutative product forms the pairs x^(n-i,i) for
    2 <= i <= n/2 only (floor(n/2) - 1 products), any other one the n - 2
    pairs for 2 <= i < n; criterion-34 on a commutative product forms only
    alpha(x^2) alpha(x^2), the one product of its second residual.  Each
    image alpha^k(x^i) is applied once.  An n-th power check composes
    alpha^2..alpha^(n-2), criterion-34 alpha^2 only, and an identity
    twisting map is never composed or applied."""
    algebra = cyclic_algebra(commutative, DOUBLING if twisted else LinearMap.identity(7))
    sums, residuals, applied = [], [], []
    original_sum, original_residuals = linalg._sum, hompower_module._residuals
    original_apply = algebra_module._apply

    def apply(m, a, *args):
        applied.append((id(m), id(a)))
        return original_apply(m, a, *args)

    def summed(terms, *args):
        out = original_sum(terms, *args)
        sums.append((out, [(fn.__name__, operands) for fn, operands, _, _ in terms]))
        return out

    def read(dim, generators, cases):
        cases = list(cases)
        residuals.extend(r for _, r in cases)
        return original_residuals(dim, generators, cases)

    monkeypatch.setattr(linalg, "_sum", summed)
    monkeypatch.setattr(hompower_module, "_residuals", read)
    monkeypatch.setattr(algebra_module, "_apply", apply)

    def residual_terms():
        """The terms of the one sum that formed each distinct residual."""
        assert len(set(applied)) == len(applied) and (twisted or not applied)
        formed = {id(out): terms for out, terms in sums}
        terms = [formed[id(r)] for r in {id(r): r for r in residuals}.values()]
        sums.clear(), residuals.clear(), composes.clear(), applied.clear()
        return terms

    def products(terms):
        return sum(name == "_contract" for one in terms for name, _ in one)

    for n in (5, 6, 7):
        assert check_nth_power_assoc(algebra, n).passed == commutative
        assert composes == ([7] * (n - 3) if twisted else []), n
        terms = residual_terms()
        assert products(terms) == (n // 2 - 1 if commutative else n - 2), n
        assert all(len(one) == 2 and one[0][0] == "_add_into" for one in terms), n
        assert len({id(one[0][1][0]) for one in terms}) == 1, n  # the one x^n
    if twisted and not commutative:
        with pytest.raises(PreconditionError):
            check_criterion_34(algebra)
        return
    assert check_criterion_34(algebra).passed == commutative
    assert composes == ([7] if twisted else [])
    terms = residual_terms()
    assert products(terms) == (1 if commutative else 3)
    assert [name for name, _ in terms[-1]] == ["_add_into", "_contract"]


def test_mirrored_residuals_are_read_back_once(monkeypatch):
    """For a commutative product the residuals (n, i) and (n, n - i) share
    one form, and a failing one is read back into polynomials once: on
    k[x]/x^4 with an extra symmetric product, n = 7 fails at (7, 2)..(7, 5)
    with 2 read-backs, and the report is the same as with one per witness."""
    truncated = Trilinear(4, {(i, j, i + j): 1 for i in range(4) for j in range(4) if i + j < 4})
    algebra = HomAlgebra(("one", "x", "x2", "x3"), truncated.with_entry(1, 2, 0, 1).with_entry(2, 1, 0, 1),
                         LinearMap.identity(4))
    reads = []
    original = hompower_module._vector_of

    def counted(form, dim, generators):
        reads.append(form)
        return original(form, dim, generators)

    monkeypatch.setattr(hompower_module, "_vector_of", counted)
    report = check_nth_power_assoc(algebra, 7)
    assert [w.indices for w in report.witnesses] == [(7, 2), (7, 3), (7, 4), (7, 5)]
    assert len(reads) == len({id(form) for form in reads}) == 2
    # each witness equals its own read-back of the residual x^7 - x^(7-i,i)
    for w in report.witnesses:
        assert list(w.residual) == sub(hom_power(algebra, generic_element(4), 7), hom_power_pair(
            algebra, generic_element(4), 7 - w.indices[1], w.indices[1]))


def test_element_level_residual_is_read_back_once(monkeypatch):
    """An element-level identity is one pending sum, formed once, so a
    passing ``hom_jacobian`` on generic vectors reads back each output
    coordinate into a polynomial at most once (``poly._of_products``), not
    after every product."""
    algebra = twist(commutator_poisson(matrix_algebra(2)), conjugation_morphism(2))
    gens = Polynomial.variables(tuple(f"v{s}_{n}" for s in range(3) for n in range(4)))
    x, y, z = (Vector(gens[4 * s:4 * s + 4]) for s in range(3))
    reads = []
    original = poly._of_products

    def counted(*args):
        reads.append(args)
        return original(*args)

    monkeypatch.setattr(poly, "_of_products", counted)
    assert hom_jacobian(algebra, x, y, z).is_zero()
    assert 0 < len(reads) <= algebra.dim


def test_twist_of_a_dim_81_tensor_power_composes_once(composes):
    factors = [heisenberg_p31(z) for z in (1, 2, Fraction(1, 2), 3)]
    power = factors[0]
    for factor in factors[1:]:
        power = tensor(power, factor)
    assert power.dim == 81
    # X -> 2X, Y -> 3Y, Z -> 6Z on every factor is a morphism of the product
    beta = LinearMap.diagonal([2 ** s.count(0) * 3 ** s.count(1) * 6 ** s.count(2)
                               for s in itertools.product(range(3), repeat=4)])
    composes.clear()
    twisted = twist(power, beta)
    assert composes == [81]
    assert twisted.alpha == beta


@pytest.fixture
def reductions(monkeypatch):
    # every polynomial that a sum, a product or a read-back reduces is built
    # by ``_polynomial``, whichever of ``_reduced`` and ``_of_products`` reduced it
    calls = []
    original = poly._polynomial

    def counted(generators, terms, den):
        calls.append(len(terms))
        return original(generators, terms, den)

    monkeypatch.setattr(poly, "_polynomial", counted)
    return calls


@pytest.mark.parametrize("t", [
    matrix_algebra(3).mu,                      # 3 entries per output coordinate
    random_tensor(random.Random(4), 4, 0.8),   # about 13 per output coordinate
], ids=["mat3", "dense4"])
def test_contract_reduces_once_per_output_coordinate(reductions, t):
    x = generic_element(t.dim)
    y = Vector(tuple(Fraction(k + 1, 2) * v + k for k, v in enumerate(x.entries)))
    reductions.clear()
    out = t.contract(x, y)
    assert 0 < len(reductions) <= len({k for (_, _, k), _ in t.items()})
    assert out.entries == tuple(
        sum((q * x[i] * y[j] for (i, j, kk), q in t.items() if kk == k), Fraction(0))
        for k in range(t.dim))


def _tallied_form(a, tally):
    # a unit form stays one, so the kernel takes the same path on it
    return linalg._Form({n: {code: tally(q) for code, q in col.items()} for n, col in a.cols.items()},
                        a.slots, a.den, a.units)


def _tallied_polynomial(p, tally):
    # p is in lowest terms, so ``_reduced`` keeps its numerators as they are
    return poly._reduced(p.generators, {e: tally(n) for e, n in p.terms.items()}, p.den)


def _tallied_map(m, tally):
    # m is in lowest terms, so ``_of`` keeps its columns as they are
    return LinearMap._of(tuple(tuple((i, tally(q)) for i, q in line) for line in m.columns), m.den)


def _tallied_tensor(t, tally):
    # t is in lowest terms, so ``_of`` keeps its numerators as they are
    n = t.dim
    return Trilinear._of(n, {(i * n + j) * n + k: tally(q) for i, row in t.rows.items() for j, k, q in row}, t.den)


@pytest.fixture
def accumulations(monkeypatch):
    """Per call of ``linalg._apply``, the additions it makes onto a value it
    already holds: the map and the form reach it with ``int`` numerators that
    record the additions they take part in."""
    calls = []

    class Tally(int):
        def __add__(self, other):
            calls[-1].append((int(self), int(other)))
            return Tally(int(self) + int(other))

        def __mul__(self, other):
            return Tally(int(self) * int(other))

        __radd__, __rmul__ = __add__, __mul__

    original = linalg._apply

    def counted(m, a):
        calls.append([])
        return original(_tallied_map(m, Tally), _tallied_form(a, Tally))

    monkeypatch.setattr(linalg, "_apply", counted)
    return calls


@pytest.mark.parametrize("m", [
    LinearMap.diagonal([1, -1, Fraction(1, 2), 2, 0, 3, Fraction(-2, 3), 1]),
    LinearMap(tuple(tuple(Fraction(w) if j == (3 * i + 1) % 8 else Fraction(0) for j in range(8))
                    for i, w in enumerate((1, -1, 2, 1, Fraction(1, 2), -3, 1, 5)))),
], ids=["diagonal", "permutation"])
def test_one_term_rows_apply_without_accumulating(accumulations, m):
    x = generic_element(8)
    out = m.apply(x)
    assert accumulations == [[]]
    assert out.entries == tuple(
        sum((m.entry(i, j) * x[j] for j in range(8) if m.entry(i, j)), Fraction(0)) for i in range(8))


def test_vector_and_power_products_run_in_the_kernel(monkeypatch):
    """``Trilinear.contract``, ``LinearMap.apply``, both power checks and
    ``Polynomial`` ``*``, ``+``, ``-`` and ``**`` form every product and sum
    in the kernel: ``linalg._contract``, ``linalg._apply`` and the add-into
    routine ``linalg._add_into``; a polynomial times a rational scales its
    own numerators.  With the kernel wrapped where it is bound (``linalg``,
    where pending sums are formed, ``algebra`` for the evaluator on forms,
    ``poly`` for polynomial products; ``hompower`` binds none of it) and
    every other product of scalars refused (``Fraction`` multiplication, and
    ``Polynomial`` multiplication but in the polynomial cases), each gives
    the result it gave before, by calls of the kernel.  ``skewed`` has the
    identity as its twisting map, which is never applied."""
    single = twisted_single()
    skewed = HomAlgebra(basis=("X", "Y", "Z"), mu=Trilinear(3, {(0, 1, 2): 1, (1, 2, 0): 1}),
                        alpha=LinearMap.identity(3))
    x, y = generic_element(3), Vector.of(1, "1/2", -3)
    p = Polynomial(("x", "y"), {(1, 0): 1, (0, 1): Fraction(1, 2), (0, 0): -3})
    q = Polynomial(("x", "y"), {(1, 1): Fraction(2, 3), (0, 2): 1})
    cases = {
        "contract": (lambda: single.mu.contract(x, y), {"_contract"}),
        "contract of rationals": (lambda: single.mu.contract(y, y), {"_contract"}),
        "apply": (lambda: single.alpha.apply(x), {"_apply"}),
        "power check": (lambda: check_nth_power_assoc(skewed, 3), {"_contract", "_add_into"}),
        "criterion-34": (lambda: check_criterion_34(single), {"_contract", "_apply", "_add_into"}),
        "failing criterion-34": (lambda: check_criterion_34(skewed), {"_contract", "_add_into"}),
        "polynomial product": (lambda: p * q, {"_contract"}),
        "polynomial sum": (lambda: p + q, {"_add_into"}),
        "polynomial difference": (lambda: p - q, {"_add_into"}),
        "polynomial times a rational": (lambda: p * Fraction(-3, 4), set()),
        "polynomial power": (lambda: p ** 3, {"_contract"}),
    }
    expected = {name: run() for name, (run, _) in cases.items()}
    assert not expected["power check"].passed and not expected["failing criterion-34"].passed
    assert (algebra_module._contract, algebra_module._apply, poly._contract) == (
        linalg._contract, linalg._apply, linalg._contract)
    assert not any(hasattr(hompower_module, name) for name in ("_sum", "_add_into", "_contract", "_apply"))
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for module, names in ((linalg, ("_contract", "_apply", "_add_into")),
                          (algebra_module, ("_contract", "_apply")), (poly, ("_contract",))):
        for name in names:
            counted(module, name)

    def refuse(*args):
        raise AssertionError("a product formed outside the kernel")

    for name, (run, kernels) in cases.items():
        with monkeypatch.context() as refusals:
            for owner in (Fraction,) if name.startswith("polynomial") else (Polynomial, Fraction):
                refusals.setattr(owner, "__mul__", refuse)
                refusals.setattr(owner, "__rmul__", refuse)
            calls.clear()
            assert run() == expected[name], name
        assert set(calls) == kernels, name


def _tally_numerators(monkeypatch, with_map_products: bool, counts: Counter | None = None) -> list:
    """Feed every call of the kernel (``_contract`` where ``linalg``,
    ``algebra`` and ``poly`` bind it, ``_add_into`` where ``linalg`` and
    ``poly`` do, ``_apply`` where ``linalg`` and ``algebra`` do), of
    ``Polynomial`` multiplication (the polynomial, for a scaling by a
    rational), and with ``with_map_products`` of ``LinearMap.compose`` and
    ``Trilinear.map_outputs``, operands whose numerators are an ``int``
    subclass that records, as ``(function, a, b)``, each addition onto a
    plain ``int`` 0 during those calls, that is, a first contribution to an
    entry that was not stored as it is.

    With ``counts``, every addition (a subtraction is one) and every
    multiplication during those calls also adds one to ``counts["add"]`` or
    ``counts["mul"]``.  Results carry such numerators out (a tabulated tensor
    keeps them), so arithmetic outside the calls records nothing.  Returns
    the list of records."""
    log, active = [], []
    counts = Counter() if counts is None else counts

    class Tally(int):
        def __add__(self, other):
            if active:
                counts["add"] += 1
                if type(other) is int and other == 0:
                    log.append((active[-1], int(self), other))
            return Tally(int(self) + int(other))

        def __sub__(self, other):
            return self + -other

        def __rsub__(self, other):
            return -self + other

        def __neg__(self):
            return Tally(-int(self))

        def __mul__(self, other):
            if active:
                counts["mul"] += 1
            return Tally(int(self) * int(other))

        __radd__, __rmul__ = __add__, __mul__

    def tallied(owner, name, *converts):
        original = getattr(owner, name)

        def wrapper(*args):
            args = (*(convert(arg) for convert, arg in zip(converts, args)), *args[len(converts):])
            active.append(name)
            try:
                return original(*args)
            finally:
                active.pop()

        monkeypatch.setattr(owner, name, wrapper)

    form, map_, tensor_, polynomial = (partial(f, tally=Tally) for f in (
        _tallied_form, _tallied_map, _tallied_tensor, _tallied_polynomial))
    for module in (linalg, algebra_module, poly):
        tallied(module, "_contract", tensor_, form, form)
    for module in (linalg, poly):
        tallied(module, "_add_into", form)
    for module in (linalg, algebra_module):
        tallied(module, "_apply", map_, form)
    for name in ("__mul__", "__rmul__"):
        tallied(Polynomial, name, polynomial)
    if with_map_products:
        tallied(LinearMap, "compose", map_, map_)
        tallied(Trilinear, "map_outputs", tensor_, map_)
    return log


@pytest.fixture
def additions_of_zero(monkeypatch):
    """The additions onto 0 in the kernel, ``compose`` and ``map_outputs``."""
    return _tally_numerators(monkeypatch, with_map_products=True)


def _twist_and_its_checks():
    # twist runs compose and map_outputs on beta, which has ones on its
    # diagonal, and the checks sweep with _contract and _apply, each adding
    # into the one output of its identity with factors 1, -1 and the lcm
    # ratios of denominators 2 and 4 and of the 1/3 of admissibility.  The
    # identity map from the untwisted algebra to twisted is never applied,
    # so its intertwining adds the first argument's form (_add_into) to a
    # pending application of beta.  The untwisted algebra keeps the basis
    # permutations matrix_algebra declares, so its hom-Poisson and, after
    # depolarization, flexibility checks sweep on orbit representatives
    algebra = commutator_poisson(matrix_algebra(3))
    assert algebra_module._certified((algebra.bracket, algebra.mu, algebra.alpha))
    assert check_hom_poisson(algebra).passed
    assert check_hom_flexible(depolarize(algebra)).passed
    beta = conjugation_morphism(3)
    twisted = twist(algebra, beta)
    assert check_multiplicative(twisted).passed
    assert check_morphism(beta, twisted, twisted).passed
    assert not check_admissible(depolarize(twisted)).passed
    assert not check_morphism(LinearMap.identity(9), algebra, twisted).passed


def test_twist_and_its_checks_add_nothing_to_zero(additions_of_zero):
    _twist_and_its_checks()
    assert additions_of_zero == []


def test_polynomial_arithmetic_adds_nothing_to_zero(monkeypatch):
    # numerators 1 and others over denominators 1, 2 and 3, so the sums
    # scale one side or both
    log = _tally_numerators(monkeypatch, with_map_products=False)
    gens = ("x", "y")
    f = {(1, 0): 1, (0, 1): Fraction(1, 2), (0, 0): -3}
    g = {(1, 1): Fraction(2, 3), (0, 2): 1, (0, 0): 1}
    p, q = Polynomial(gens, f), Polynomial(gens, g)
    rp, rq = RefPoly(gens, f), RefPoly(gens, g)
    # p + 2p adds p with a factor of 1 (2p has denominator 1)
    results = [p * q, p + q, p - q, Fraction(3, 2) * p, p ** 3, (p - q) * p, p + 2 * p, Fraction(1, 3) * p]
    expected = [rp * rq, rp + rq, rp - rq, rp.scale(Fraction(3, 2)), rp.power(3), (rp - rq) * rp, rp.scale(3),
                rp.scale(Fraction(1, 3))]
    assert results == [Polynomial(gens, r.terms) for r in expected]
    assert log == []


def test_power_checks_add_nothing_to_zero(monkeypatch):
    # the twisting maps have numerators 1 and others over denominators 1, 2
    # and 3, so the residuals scale x^n or their products by lcm ratios;
    # commutative and not, passing and failing
    half = LinearMap.diagonal([1, Fraction(1, 2), Fraction(1, 4)])
    truncated = Trilinear(3, {(i, j, i + j): 1 for i in range(3) for j in range(3) if i + j < 3})
    algebras = [
        HomAlgebra(("a", "b", "c"), truncated.map_outputs(half), half),
        HomAlgebra(("a", "b", "c"), truncated.with_entry(1, 1, 0, Fraction(2, 3)), LinearMap.identity(3)),
        HomAlgebra(("a", "b", "c"), truncated.with_entry(0, 1, 0, Fraction(-1, 3)).map_outputs(half), half),
        twisted_single(),
    ]

    def reports():
        out = []
        for algebra in algebras:
            out.extend(check_nth_power_assoc(algebra, n) for n in range(3, 7))
            if check_multiplicative(algebra).passed:
                out.append(check_criterion_34(algebra))
        return out

    expected = reports()
    assert {r.passed for r in expected} == {True, False}
    log = _tally_numerators(monkeypatch, with_map_products=True)
    assert reports() == expected
    assert log == []


def test_kernel_arithmetic_counts(monkeypatch):
    """The numerator additions and multiplications the kernel makes for a
    hom-Poisson check of the mat4 commutator algebra, for a 5th power check
    of a Yau twist of mat2 and for tabulating the commutativity of mat2.
    Unpacking a one-entry operand column once and reading a unit operand by
    its codes change no value, so the additions are those of the plain
    kernel (2,500, 176 and 2).  Every product is formed, with a factor of 1
    too: a kernel call multiplies each tensor entry or map coefficient it
    reads by its factor once, and then by the operand numerators it meets,
    by a one-entry column of the second operand once per tensor entry, not
    once per entry of the first.  So the multiplications are 7,404, 430 and
    16.
    The check's sweeps pass a basis argument, a unit form, to every product
    they form, and some products take two; those of the tabulated
    commutator all take two.  The power check starts from the generic
    element as a unit form: x x takes two, and the products of twisted
    powers take none.  These counts are of the full sweeps, on a copy of
    the algebra whose tensors declare no basis permutation; with the
    permutations ``matrix_algebra`` declares, the sweeps take their first
    argument on the representatives E00 and E01 only, and their second on
    the least vectors of those representatives' stabiliser orbits, and make
    168 additions and 822 multiplications."""
    mat2, beta = matrix_algebra(2), conjugation_morphism(2)
    yau = HomAlgebra(mat2.basis, mat2.mu.map_outputs(beta), beta)
    declared = commutator_poisson(matrix_algebra(4))
    algebra = dataclasses.replace(declared, bracket=Trilinear(16, dict(declared.bracket.items())),
                                  mu=Trilinear(16, dict(declared.mu.items())))
    contract = algebra_module._contract
    counts, units = {}, {}
    for name, run in (("hom-poisson", lambda: check_hom_poisson(algebra).passed),
                      ("orbits", lambda: check_hom_poisson(declared).passed),
                      ("power", lambda: check_nth_power_assoc(yau, 5).passed),
                      ("tabulate", lambda: not tabulate(mat2.dim, commutativity, mat2.mu).is_zero())):
        counts[name], units[name] = Counter(), []

        def recorded(t, a, b, *rest, seen=units[name]):
            seen.append((a.units is not None) + (b.units is not None))
            return contract(t, a, b, *rest)

        with monkeypatch.context() as patches:
            # recorded inside the tallying wrapper, so it sees the tallied operands
            patches.setattr(algebra_module, "_contract", recorded)
            _tally_numerators(patches, with_map_products=False, counts=counts[name])
            assert run()
    assert {name: (c["add"], c["mul"]) for name, c in counts.items()} == {
        "hom-poisson": (2500, 7404), "orbits": (168, 822), "power": (176, 430), "tabulate": (2, 16)}
    assert (set(units["hom-poisson"]), set(units["tabulate"])) == ({1, 2}, {2})
    assert Counter(units["power"]) == {2: 1, 0: 6}


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                      "__rtruediv__", "__neg__")


@pytest.fixture
def fraction_arithmetic(monkeypatch):
    """The calls of ``Fraction`` arithmetic operators that compute a value.  A
    call that returns NotImplemented computes nothing: Python offers 1/3 times
    a sweep form to ``Fraction.__mul__`` first, which hands it on to the
    form."""
    calls = []

    def counted(name, original):
        def wrapper(*args):
            result = original(*args)
            if result is not NotImplemented:
                calls.append((name, *args))
            return result
        return wrapper

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    return calls


def test_sweeps_do_no_fraction_arithmetic(fraction_arithmetic):
    # conjugation by diag(1/2, 1, 1) gives beta, the twisted constants and the
    # twisting map denominators 2 and 4, and admissibility adds its 1/3
    beta = conjugation_morphism(3)
    twisted = twist(commutator_poisson(matrix_algebra(3)), beta)
    fraction_arithmetic.clear()
    assert check_multiplicative(twisted).passed
    assert check_morphism(beta, twisted, twisted).passed
    admissible = check_admissible(depolarize(twisted))
    assert not admissible.passed
    assert any(q.denominator > 1 for w in admissible.witnesses for q in w.residual.entries)
    assert fraction_arithmetic == []


def test_constructions_do_no_fraction_arithmetic(fraction_arithmetic):
    # twist runs map_outputs and compose, a power composes, a tensor product
    # runs both kron and tabulate, and polarize and depolarize tabulate, here
    # on denominators 2, 3 and 4
    beta = conjugation_morphism(3)
    algebra = commutator_poisson(matrix_algebra(3))
    factors = heisenberg_p31(Fraction(1, 2)), heisenberg_p31(Fraction(2, 3))
    fraction_arithmetic.clear()
    twisted = twist(algebra, beta, force=True)
    cube = beta.power(3)
    product = tensor(*factors)
    split = polarize(depolarize(twisted))
    assert fraction_arithmetic == []
    assert cube.entry(1, 1) == Fraction(1, 8) and twisted.alpha == beta
    assert product.mu.entry(0, 4, 8) == Fraction(1, 3) and split.alpha == beta


def test_inverses_certificates_and_element_residuals_do_no_fraction_arithmetic(fraction_arithmetic):
    """``invert`` and ``kernel_vector`` eliminate on ``int`` rows, and the
    element-level functions run on the evaluator on forms, so with rational
    inputs over denominators 2 to 5 none of them, nor an isomorphism
    certificate of an invertible or a singular candidate, does ``Fraction``
    arithmetic."""
    invertible = LinearMap([[1, Fraction(1, 2), 0], [0, 1, 3], [2, 0, Fraction(1, 5)]])
    singular = LinearMap([[1, Fraction(1, 2), 0], [2, 1, 0], [0, 0, Fraction(1, 3)]])
    heisenberg = heisenberg_p31(Fraction(1, 2))
    algebra = commutator_poisson(matrix_algebra(2))
    beta = conjugation_morphism(2)
    twisted = twist(algebra, beta)
    corrupt = dataclasses.replace(twisted, mu=twisted.mu.with_entry(0, 1, 2, Fraction(1, 3)),
                                  bracket=twisted.bracket.with_entry(1, 2, 0, Fraction(2, 5)))
    x, y, z = Vector.of("1/3", "1/2", "2/5", -1), Vector.of(1, "-1/2", 0, "3/5"), Vector.of("3/5", 2, "1/3", "1/4")
    fraction_arithmetic.clear()
    results = [invertible.invert(), singular.kernel_vector(),
               *(verify_isomorphism(f, heisenberg, heisenberg) for f in (invertible, singular)),
               *(f(corrupt, x, y, z)
                 for f in (hom_associator, hom_jacobian, hom_leibniz_residual, cyclic_associator_sum)),
               *(nonrigidity_witness(algebra, beta, (x, y, z), op=op) for op in ("mu", "bracket"))]
    assert fraction_arithmetic == []
    assert invertible.compose(results[0]).is_identity() and singular.apply(results[1]).is_zero()
    assert [r.passed for r in results[2:4]] == [False, False]
    assert all(not r.is_zero() for r in results[4:])


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("twisted", [False, True])
def test_sweeps_form_no_intermediate_sum(monkeypatch, twisted, corrupt):
    """A swept identity adds its signed products into one output, so neither
    a ``check_hom_poisson`` nor a ``check_hom_flexible`` sweep forms a sum of
    two forms (``_Form.__add__``, ``_Form.__sub__``)."""
    checked = commutator_poisson(matrix_algebra(3))
    if twisted:
        checked = twist(checked, conjugation_morphism(3))
    if corrupt:
        checked = dataclasses.replace(checked, mu=checked.mu.with_entry(0, 1, 2, Fraction(1, 3)))
    single = depolarize(checked)
    expected = check_hom_poisson(checked), check_hom_flexible(single)

    def refuse(*args):
        raise AssertionError("a sweep formed an intermediate sum of forms")

    monkeypatch.setattr(linalg._Form, "__add__", refuse)
    monkeypatch.setattr(linalg._Form, "__sub__", refuse)
    assert (check_hom_poisson(checked), check_hom_flexible(single)) == expected


def test_substitution_takes_each_power_of_an_image_once(monkeypatch):
    """``Polynomial.substitute`` computes each power of an image once per
    call, and equals the reference substitution."""
    gens = ("x", "y", "z")
    x, y, z = Polynomial.variables(gens)
    p = (x + y + z + 1) ** 6
    images = {"x": x + Fraction(1, 2), "y": y - z, "z": 3 * z}
    reference = RefPoly(gens, {e: c for e, c in p.sorted_terms()}).substitute(
        [RefPoly(gens, {e: c for e, c in img.sorted_terms()}) for img in images.values()])
    powers = []
    original = Polynomial.__pow__

    def counted(self, n):
        powers.append((self, n))
        return original(self, n)

    monkeypatch.setattr(Polynomial, "__pow__", counted)
    assert p.substitute(images) == Polynomial(gens, reference.terms)
    assert len(powers) == len(set(powers)) == 3 * 6


class _CountedRows(dict):
    """Tensor rows that log every ``get``, the lookup ``_contract`` makes per
    column of the operand it runs from."""

    def __init__(self, rows, log):
        super().__init__(rows)
        self.log = log

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)


def test_contract_looks_up_the_rows_of_the_smaller_operand_only():
    """A full-basis unit first operand against a block of one basis vector,
    as a sweep's later argument meets its first-argument block: the kernel
    runs from the block, through the tensor's opposite, and looks up one
    row, not one per column of the full operand (36 on M_6)."""
    mu = matrix_algebra(6).mu
    lookups = []
    opposite = mu._opposite
    mu.rows, opposite.rows = _CountedRows(mu.rows, lookups), _CountedRows(opposite.rows, lookups)
    full = linalg._Form.unit({n: n * 36 for n in range(36)}, 2)
    block = linalg._Form.unit({7: 0}, 1)
    form = linalg._contract(mu, full, block)
    assert lookups == [7]
    # E_a1 E_11 = E_a1, at the code of E_a1 in the full operand
    assert form.cols == {6 * a + 1: {(6 * a + 1) * 36: 1} for a in range(6)}
