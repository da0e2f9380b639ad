"""Cost regressions: how many map products the power checks and twists make,
and how many polynomials a contraction reduces.

The tests wrap ``LinearMap.compose`` or the polynomial kernel's reduction
``poly._reduced`` with a call counter.  A power check composes each power of
the twisting map once (alpha^0..alpha^(n-1) for an n-th power check), a twist
composes the twisting maps once, and a contraction of polynomial vectors
sums each output coordinate in one accumulation, reduced once.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hompoisson import poly
from hompoisson.catalog import heisenberg_morphism, heisenberg_p31, matrix_algebra
from hompoisson.constructions import depolarize, tensor, twist
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
    assert len(composes) <= n - 1


def test_criterion_34_composes_at_most_three_times(composes):
    algebra = twisted_single()
    composes.clear()
    assert check_criterion_34(algebra).passed
    assert len(composes) <= 3


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

