import random
from fractions import Fraction

import pytest

from hompoisson.algebra import HomAlgebra, check_multiplicative
from hompoisson.catalog import (
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
)
from hompoisson.constructions import depolarize, tensor, twist
from hompoisson.errors import PreconditionError, ResourceLimitError
from hompoisson.hompower import (
    check_criterion_34,
    check_nth_power_assoc,
    generic_element,
    hom_power,
    hom_power_pair,
)
from hompoisson.linalg import LinearMap, Trilinear, Vector

from _oracles import random_tensor, random_vector


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


def test_criterion_requires_multiplicative():
    alg = HomAlgebra(basis=("X", "Y", "Z"), mu=Trilinear(3, {(0, 0, 2): 1}),
                     alpha=LinearMap(((0, 0, 1), (0, 1, 0), (1, 0, 0))))
    assert not check_multiplicative(alg).passed
    with pytest.raises(PreconditionError):
        check_criterion_34(alg)


def test_resource_guards():
    big = depolarize(tensor(heisenberg_p31(1), heisenberg_p31(1)))  # dim 9
    with pytest.raises(ResourceLimitError):
        check_nth_power_assoc(big, 3)
    with pytest.raises(ResourceLimitError):
        check_nth_power_assoc(p32_single(), 9)
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
