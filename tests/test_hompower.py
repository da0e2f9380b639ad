import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson import algebra as algebra_module
from hompoisson import hompower as hompower_module
from hompoisson import linalg
from hompoisson.algebra import HomAlgebra, check_multiplicative
from hompoisson.catalog import (
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
)
from hompoisson.constructions import depolarize, tensor, twist
from hompoisson.errors import DimensionMismatch, PreconditionError, ResourceLimitError
from hompoisson.hompower import (
    check_criterion_34,
    check_nth_power_assoc,
    generic_element,
    hom_power,
    hom_power_pair,
)
from hompoisson.linalg import LinearMap, Trilinear, Vector
from hompoisson.poly import Polynomial

from _oracles import PowerOracle, random_map, random_rational, random_tensor, random_vector


def p32_single():
    # X^2 = Z as a single-product algebra with identity twist
    return HomAlgebra(basis=("X", "Y", "Z"), mu=Trilinear(3, {(0, 0, 2): 1}),
                      alpha=LinearMap.identity(3))


def depolarized_twisted_p31():
    return depolarize(twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3)))


MULTIPLICATIVE_SINGLES = [
    lambda: depolarize(heisenberg_p31(0)),
    lambda: depolarize(heisenberg_p31(1)),
    lambda: depolarize(heisenberg_p31(Fraction(1, 2))),
    lambda: depolarize(heisenberg_p32()),
    depolarized_twisted_p31,
    lambda: depolarize(twist(heisenberg_p32(), heisenberg_morphism(2, 0, 0, 2))),
]


def test_first_power_is_identity():
    alg = p32_single()
    x = Vector.of(1, 2, 3)
    assert hom_power(alg, x, 1) == x
    g = generic_element(3)
    assert hom_power(alg, g, 1) == g


def test_power_rejects_zero():
    with pytest.raises(ValueError):
        hom_power(p32_single(), Vector.of(1, 0, 0), 0)
    with pytest.raises(ValueError):
        check_nth_power_assoc(p32_single(), 1)
    # an element of the wrong dimension, as in ``Trilinear.contract``
    for run in (lambda: hom_power(p32_single(), Vector.of(1, 0), 2),
                lambda: hom_power_pair(p32_single(), Vector.of(1, 0, 0, 0), 1, 2)):
        with pytest.raises(DimensionMismatch, match="element dim"):
            run()


def test_p32_powers_of_x():
    alg = p32_single()
    x = Vector.unit(3, 0)
    assert hom_power(alg, x, 2) == Vector.unit(3, 2)   # X^2 = Z
    assert hom_power(alg, x, 3).is_zero()              # Z X = 0
    assert hom_power_pair(alg, x, 2, 2).is_zero()      # Z Z = 0 = X^4
    assert hom_power(alg, x, 4).is_zero()


def test_pair_power_conventions():
    alg = p32_single()
    rng = random.Random(1)
    for _ in range(5):
        x = random_vector(rng, 3)
        assert hom_power_pair(alg, x, 1, 1) == hom_power(alg, x, 2)
        for n in (3, 4, 5):
            assert hom_power_pair(alg, x, n - 1, 1) == hom_power(alg, x, n)


def test_identity_twist_reduces_to_right_powers():
    # with identity twisting map the recursion is plain right multiplication
    rng = random.Random(2)
    for builder in (lambda: matrix_algebra(2), lambda: depolarize(heisenberg_p31(1))):
        alg = builder()
        assert alg.alpha.is_identity()
        for _ in range(3):
            x = random_vector(rng, alg.dim)
            right = x
            for n in range(2, 7):
                right = alg.mu.contract(right, x)
                assert hom_power(alg, x, n) == right


def test_generic_element_coordinates_are_variables():
    g = generic_element(3)
    assert isinstance(g, Vector)
    names = [str(c) for c in g.entries]
    assert names == ["t1", "t2", "t3"]


@pytest.mark.parametrize("dim", range(1, hompower_module.MAX_DIM + 1))
def test_generic_form_is_the_unit_form_of_the_generic_element(dim):
    """The power checks start from one cached form per dimension: the form
    ``_forms_of`` makes of ``generic_element(dim)``, as a unit form in slot 0
    whose code in column n is the packed key of t_(n+1)."""
    (form,), generators = linalg._forms_of((generic_element(dim),), dim)
    g = hompower_module._generic(dim)
    assert (g.cols, g.den, g.slots) == (form.cols, form.den, 1)
    assert g.units == {n: code for n, col in g.cols.items() for code in col}
    assert all(col == {g.units[n]: 1} for n, col in g.cols.items()) and len(g.cols) == dim
    assert generators == tuple(f"t{i}" for i in range(1, dim + 1))
    assert hompower_module._generic(dim) is g


def test_power_checks_leave_the_generic_form_unchanged():
    """The checks only read the cached generic form, through every product
    path: x x with both operands unit, a power of x times x with the identity
    twist, images of x under a twist, and failing residuals read back."""
    rng = random.Random(30)
    algebras = [p32_single(), depolarized_twisted_p31()]
    for dim in (1, 2, 3, 4):
        for alpha in (LinearMap.identity(dim), random_map(rng, dim)):
            algebras.append(HomAlgebra(tuple(f"b{i}" for i in range(dim)), random_tensor(rng, dim), alpha))
    forms = {a.dim: hompower_module._generic(a.dim) for a in algebras}
    before = {dim: ({n: dict(col) for n, col in g.cols.items()}, dict(g.units), g.den, g.slots)
              for dim, g in forms.items()}
    reports = []
    for algebra in algebras:
        reports.extend(check_nth_power_assoc(algebra, n) for n in range(2, 7))
        if check_multiplicative(algebra).passed:
            reports.append(check_criterion_34(algebra))
    assert {r.passed for r in reports} == {True, False}
    for dim, g in forms.items():
        assert hompower_module._generic(dim) is g
        assert (g.cols, g.units, g.den, g.slots) == before[dim]


@pytest.mark.parametrize("builder", MULTIPLICATIVE_SINGLES)
def test_depolarized_catalog_is_power_associative(builder):
    alg = builder()
    assert check_multiplicative(alg).passed
    assert check_criterion_34(alg).passed
    for n in range(3, 7):
        assert check_nth_power_assoc(alg, n).passed


def test_second_power_always_passes():
    rng = random.Random(3)
    alg = HomAlgebra(basis=("a", "b", "c"), mu=random_tensor(rng, 3),
                     alpha=LinearMap.identity(3))
    assert check_nth_power_assoc(alg, 2).passed


def test_corrupted_tensor_fails_third_power():
    # x*x = y-ish tensor that is not flexible: residual appears at n = 3
    alg = HomAlgebra(basis=("X", "Y", "Z"),
                     mu=Trilinear(3, {(0, 1, 2): 1, (1, 2, 0): 1}),
                     alpha=LinearMap.identity(3))
    rep = check_nth_power_assoc(alg, 3)
    assert not rep.passed
    (witness,) = rep.witnesses
    # i = 1 is the defining recursion and never fails; the asymmetry shows at i = 2
    assert witness.indices == (3, 2)
    assert not witness.residual.is_zero()
    rep34 = check_criterion_34(alg)
    assert not rep34.passed


def test_over_limit_power_of_an_element_is_refused_before_multiplying(monkeypatch):
    """A twisted power or pair power of x whose exponents would pass the limit
    is refused from the exponents of x alone, before the kernel forms any
    product (forms carry no exponent check of their own)."""
    alg = p32_single()
    t = Polynomial.var(("s", "t"), "t")
    over = Vector((t ** 4096, Fraction(1), Fraction(0)))  # 8 * 4096 > MAX_EXPONENT
    at = Vector((t ** 4095, Fraction(1), Fraction(0)))    # 8 * 4095 <= MAX_EXPONENT

    def refuse(*args):
        raise AssertionError("multiplied before checking the exponent limit")

    with monkeypatch.context() as m:
        for module in (linalg, algebra_module):
            m.setattr(module, "_contract", refuse)
            m.setattr(module, "_apply", refuse)
        with pytest.raises(ResourceLimitError):
            hom_power(alg, over, 8)
        with pytest.raises(ResourceLimitError):
            hom_power_pair(alg, over, 4, 4)
    assert hom_power(alg, at, 2) == Vector((Fraction(0), Fraction(0), t ** 8190))
    assert hom_power(alg, at, 8).is_zero() and hom_power_pair(alg, at, 4, 4).is_zero()


def assert_witnesses_at(report, expected, values):
    """The witnesses of ``report`` evaluated at ``values`` equal the expected
    residuals {indices: vector} there, an unreported one is zero there, and a
    nonzero expected value means the report fails."""
    got = {w.indices: [q.evaluate(values) if isinstance(q, Polynomial) else q for q in w.residual.entries]
           for w in report.witnesses}
    assert set(got) <= set(expected)
    assert all(got.get(key, [0] * len(values)) == value for key, value in expected.items())
    if any(any(value) for value in expected.values()):
        assert not report.passed


def test_power_checks_match_the_bench_recursion():
    """Each witness (n, i) of the power checks, evaluated at a rational point,
    equals the benchmark oracle's residual of the twisted-power recursion."""
    rng = random.Random(34)
    criterion_runs = 0
    for _ in range(24):
        dim = rng.randint(1, 4)
        alpha = rng.choice((LinearMap.identity(dim), LinearMap.zero(dim), random_map(rng, dim)))
        algebra = HomAlgebra(tuple(f"b{i}" for i in range(dim)), random_tensor(rng, dim), alpha)
        point = [random_rational(rng) for _ in range(dim)]
        values = {f"t{i + 1}": q for i, q in enumerate(point)}
        oracle = PowerOracle(algebra.mu, algebra.alpha, point)
        for n in range(3, 6):
            assert_witnesses_at(check_nth_power_assoc(algebra, n),
                                {(n, i): value for i, value in oracle.power_residuals(n).items()}, values)
        if check_multiplicative(algebra).passed:
            assert_witnesses_at(check_criterion_34(algebra),
                                {(k,): value for k, value in oracle.criterion_residuals().items()}, values)
            criterion_runs += 1
        else:
            with pytest.raises(PreconditionError):
                check_criterion_34(algebra)
    assert criterion_runs


SCALES = tuple(map(Fraction, (2, 3, -2, Fraction(1, 2), Fraction(-1, 3))))
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def power_inputs(draw):
    """A product that is symmetric or not, with the identity or a diagonal
    twisting map, and a rational point.  ``random`` draws the product;
    ``truncated`` (k[x]/x^dim, commutative) and ``triangular`` (upper
    triangular 2x2 matrices, not commutative) are associative, Yau-twisted by
    a diagonal automorphism, and pass unless one more product is drawn,
    mirrored in its first two indices when ``symmetric``."""
    kind = draw(st.sampled_from(("random", "truncated", "triangular")))
    dim = 3 if kind == "triangular" else draw(st.integers(1, 4))
    symmetric = draw(st.booleans())
    cells = list(itertools.product(range(dim), repeat=3))
    if kind == "random":
        entries = {}
        for (i, j, k), q in draw(st.dictionaries(st.sampled_from(cells), rationals, max_size=2 * dim)).items():
            entries[i, j, k] = q
            if symmetric:
                entries[j, i, k] = q
        weights = draw(st.lists(st.integers(-1, 2), min_size=dim, max_size=dim))
    elif kind == "truncated":
        entries = {(i, j, i + j): 1 for i in range(dim) for j in range(dim) if i + j < dim}
        weights = range(dim)
    else:  # E11, E12, E22
        entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1}
        weights = (0, -1, 0)
    scale = draw(st.sampled_from(SCALES))
    alpha = (LinearMap.diagonal([scale ** w for w in weights]) if draw(st.booleans())
             else LinearMap.identity(dim))
    mu = Trilinear(dim, entries).map_outputs(alpha)
    if kind != "random" and draw(st.booleans()):
        (i, j, k), q = draw(st.sampled_from(cells)), draw(rationals)
        mu = mu.with_entry(i, j, k, q)
        if symmetric:
            mu = mu.with_entry(j, i, k, q)
    point = draw(st.lists(rationals, min_size=dim, max_size=dim))
    return HomAlgebra(tuple(f"b{i}" for i in range(dim)), mu, alpha), point


def assert_reference_witnesses(report, reference):
    """The witnesses of ``report`` are the nonzero ``(indices, residual)``
    of ``reference``, in its order."""
    expected = [(indices, r) for indices, r in reference if not r.is_zero()]
    assert [(w.indices, w.residual) for w in report.witnesses] == expected
    assert report.passed == (not expected)


@settings(max_examples=100, deadline=None)
@given(power_inputs())
def test_power_checks_match_the_references(drawn):
    """On symmetric and other products, passing and failing, the power checks
    for n = 3..7 and criterion-34 report the residuals of ``hom_power``,
    ``hom_power_pair`` and ``Vector`` arithmetic, which equal the benchmark
    oracle's at a rational point.  On a symmetric product the witnesses at
    (n, i) and (n, n - i) are equal and (n, n - 1) is none."""
    algebra, point = drawn
    mu, alpha = algebra.mu, algebra.alpha
    symmetric = all(mu.entry(j, i, k) == q for (i, j, k), q in mu.items())
    x = generic_element(algebra.dim)
    values = {f"t{i + 1}": q for i, q in enumerate(point)}
    oracle = PowerOracle(mu, alpha, point)
    for n in range(3, 8):
        report = check_nth_power_assoc(algebra, n)
        xn = hom_power(algebra, x, n)
        assert_reference_witnesses(report, [((n, i), xn - hom_power_pair(algebra, x, n - i, i)) for i in range(2, n)])
        assert_witnesses_at(report, {(n, i): value for i, value in oracle.power_residuals(n).items()}, values)
        if symmetric:
            got = {w.indices[1]: w.residual for w in report.witnesses}
            assert n - 1 not in got
            assert all(got[n - i] == r for i, r in got.items())
    if not check_multiplicative(algebra).passed:
        with pytest.raises(PreconditionError):
            check_criterion_34(algebra)
        return
    report = check_criterion_34(algebra)
    x2, ax = hom_power(algebra, x, 2), alpha.apply(x)
    ax2 = alpha.apply(x2)
    assert_reference_witnesses(report, [((3,), mu.contract(x2, ax) - mu.contract(ax, x2)),
                                        ((4,), hom_power(algebra, x, 4) - mu.contract(ax2, ax2))])
    assert_witnesses_at(report, {(k,): value for k, value in oracle.criterion_residuals().items()}, values)


def test_criterion_requires_multiplicative():
    alg = HomAlgebra(basis=("X", "Y", "Z"), mu=Trilinear(3, {(0, 0, 2): 1}),
                     alpha=LinearMap(((0, 0, 1), (0, 1, 0), (1, 0, 0))))
    assert not check_multiplicative(alg).passed
    with pytest.raises(PreconditionError):
        check_criterion_34(alg)


def test_resource_guards(monkeypatch):
    big = depolarize(tensor(heisenberg_p31(1), heisenberg_p31(1)))  # dim 9
    with pytest.raises(ResourceLimitError):
        check_nth_power_assoc(big, 3)
    with pytest.raises(ResourceLimitError):
        check_nth_power_assoc(p32_single(), 9)

    def refuse(*args):
        raise AssertionError("swept an algebra past the dim guard")

    # the dim guard runs before the multiplicativity sweeps
    monkeypatch.setattr(hompower_module, "check_multiplicative", refuse)
    with pytest.raises(ResourceLimitError):
        check_criterion_34(big)


def random_graded_algebra(rng):
    # weights (0, 1, 2) with products allowed only when weights add, and a
    # matching diagonal twist 2^weight: multiplicative by construction
    weights = (0, 1, 2)
    entries = {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if weights[i] + weights[j] == weights[k] and rng.random() < 0.7:
                    entries[(i, j, k)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return HomAlgebra(basis=("a", "b", "c"), mu=Trilinear(3, entries),
                      alpha=LinearMap.diagonal([2 ** w for w in weights]))


def test_criterion_equivalent_to_small_powers():
    # the two-identity criterion and n = 3..6 generic checks agree on catalog
    # depolarizations and on random multiplicative products
    cases = [b() for b in MULTIPLICATIVE_SINGLES]
    rng = random.Random(8)
    for _ in range(20):
        cases.append(HomAlgebra(basis=("a", "b", "c"), mu=random_tensor(rng, 3, fill=0.4),
                                alpha=LinearMap.identity(3)))
    for _ in range(10):
        cases.append(random_graded_algebra(rng))
    outcomes = set()
    for alg in cases:
        assert check_multiplicative(alg).passed
        crit = check_criterion_34(alg).passed
        powers = all(check_nth_power_assoc(alg, n).passed for n in range(3, 7))
        assert crit == powers
        outcomes.add(crit)
    assert outcomes == {True, False}  # both directions actually exercised


def test_flexibility_gives_central_square():
    # for admissible products the generic polynomial x^2 a(x) - a(x) x^2 is zero
    from hompoisson.constructions import check_admissible
    for builder in MULTIPLICATIVE_SINGLES:
        alg = builder()
        assert check_admissible(alg).passed
        x = generic_element(alg.dim)
        x2 = hom_power(alg, x, 2)
        ax = alg.alpha.apply(x)
        diff = alg.mu.contract(x2, ax) - alg.mu.contract(ax, x2)
        assert diff.is_zero()


def test_fourth_power_chain():
    # (x^2 a(x)) a^2(x) = (a(x) x^2) a^2(x) = a^2(x) (x^2 a(x)) = a^2(x) (a(x) x^2)
    for builder in MULTIPLICATIVE_SINGLES:
        alg = builder()
        mu, alpha = alg.mu, alg.alpha
        x = generic_element(alg.dim)
        x2 = mu.contract(x, x)
        ax, a2x = alpha.apply(x), alpha.power(2).apply(x)
        e1 = mu.contract(mu.contract(x2, ax), a2x)
        e2 = mu.contract(mu.contract(ax, x2), a2x)
        e3 = mu.contract(a2x, mu.contract(x2, ax))
        e4 = mu.contract(a2x, mu.contract(ax, x2))
        assert e1 == e2 == e3 == e4
