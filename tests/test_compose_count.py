"""Cost regressions: how many map products the power checks and twists make,
how many polynomials a contraction reduces, how many accumulations a map
application runs, how many rational additions start from zero, how many
rational multiplications are by one and how much ``Fraction`` arithmetic a
sweep does.

The tests wrap ``LinearMap.compose``, the polynomial kernel's reduction
``poly._reduced``, its accumulation ``poly.sum_of_products`` or ``Fraction``
arithmetic operators with a call counter.  A power check composes each power of the
twisting map once (alpha^2..alpha^(n-1) for an n-th power check: alpha^0 and
alpha^1 need no product), a twist composes the twisting maps once, a
contraction of polynomial vectors sums each output coordinate in one
accumulation, reduced once, a map whose rows have one nonzero each applies as
scalar multiples, with no accumulation, and the sweep engine and
``Trilinear.map_outputs`` store the first contribution to an entry as it is
and, with ``LinearMap.compose``, take a factor as is where the other is 1.
The sweep engine computes on ``int`` numerators over one denominator per
form, and maps and tensors store theirs the same way, so a sweep does no
``Fraction`` arithmetic at all (it only constructs the ``Fraction`` values of
its witnesses), and neither do the constructions built from map and tensor
products and tabulated formulas.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hompoisson import poly
from hompoisson.algebra import check_morphism, check_multiplicative
from hompoisson.catalog import conjugation_morphism, heisenberg_morphism, heisenberg_p31, matrix_algebra
from hompoisson.constructions import check_admissible, commutator_poisson, depolarize, polarize, tensor, twist
from hompoisson.hompower import check_criterion_34, check_nth_power_assoc, generic_element
from hompoisson.linalg import LinearMap, Vector

from _oracles import random_tensor


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
    calls = []
    original = poly._reduced

    def counted(generators, terms, den):
        calls.append(len(terms))
        return original(generators, terms, den)

    monkeypatch.setattr(poly, "_reduced", counted)
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
    assert len(reductions) <= len({k for (_, _, k), _ in t.items()})
    assert out.entries == tuple(
        sum((q * x[i] * y[j] for (i, j, kk), q in t.items() if kk == k), Fraction(0))
        for k in range(t.dim))



@pytest.fixture
def accumulations(monkeypatch):
    calls = []
    original = poly.sum_of_products

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(poly, "sum_of_products", counted)
    return calls


@pytest.mark.parametrize("m", [
    LinearMap.diagonal([1, -1, Fraction(1, 2), 2, 0, 3, Fraction(-2, 3), 1]),
    LinearMap(tuple(tuple(Fraction(w) if j == (3 * i + 1) % 8 else Fraction(0) for j in range(8))
                    for i, w in enumerate((1, -1, 2, 1, Fraction(1, 2), -3, 1, 5)))),
], ids=["diagonal", "permutation"])
def test_one_term_rows_apply_without_accumulating(accumulations, m):
    x = generic_element(8)
    out = m.apply(x)
    assert accumulations == []
    assert out.entries == tuple(
        sum((m.entry(i, j) * x[j] for j in range(8) if m.entry(i, j)), Fraction(0)) for i in range(8))


@pytest.fixture
def additions_of_zero(monkeypatch):
    calls = []
    add, radd = Fraction.__add__, Fraction.__radd__

    def counted(original):
        def wrapper(a, b):
            if a == 0 or b == 0:
                calls.append((a, b))
            return original(a, b)
        return wrapper

    monkeypatch.setattr(Fraction, "__add__", counted(add))
    monkeypatch.setattr(Fraction, "__radd__", counted(radd))
    return calls


def test_twist_and_its_checks_add_nothing_to_zero(additions_of_zero):
    # conjugation by diag(1/2, 1, 1) scales the unit matrices by 1/2 and 2,
    # so the twisted constants and every sweep run on Fractions
    algebra = commutator_poisson(matrix_algebra(3))
    beta = conjugation_morphism(3)
    additions_of_zero.clear()
    twisted = twist(algebra, beta)
    assert check_multiplicative(twisted).passed
    assert check_morphism(beta, twisted, twisted).passed
    assert additions_of_zero == []


@pytest.fixture
def multiplications_by_one(monkeypatch):
    calls = []
    mul, rmul = Fraction.__mul__, Fraction.__rmul__

    def counted(original):
        def wrapper(a, b):
            if a == 1 or b == 1:
                calls.append((a, b))
            return original(a, b)
        return wrapper

    monkeypatch.setattr(Fraction, "__mul__", counted(mul))
    monkeypatch.setattr(Fraction, "__rmul__", counted(rmul))
    return calls


def test_twist_and_its_checks_multiply_nothing_by_one(multiplications_by_one):
    # beta has ones on its diagonal and the twisting map is the identity, so
    # every sweep, the twisted constants and beta * alpha meet factors of 1
    algebra = commutator_poisson(matrix_algebra(3))
    beta = conjugation_morphism(3)
    multiplications_by_one.clear()
    twisted = twist(algebra, beta)
    assert check_multiplicative(twisted).passed
    assert check_morphism(beta, twisted, twisted).passed
    assert multiplications_by_one == []


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__")


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
    # on denominators 2, 3 and 4; invert and kernel_vector divide, and are
    # left out
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
