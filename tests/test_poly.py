import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson.errors import GeneratorMismatch
from hompoisson.poly import Polynomial

GENS = ("x", "y")


def rand_poly(rng, gens=GENS, degree=3):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        expo = tuple(rng.randint(0, degree) for _ in gens)
        terms[expo] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(gens, terms)


def test_one_is_neutral():
    rng = random.Random(0)
    one = Polynomial.const(GENS, 1)
    for _ in range(5):
        f = rand_poly(rng)
        assert f * one == f


def test_power_rule_derivative():
    e, h = Polynomial.variables(("e", "h"))
    assert (e * h * h).diff("h") == 2 * e * h
    assert Polynomial.const(("e", "h"), 5).diff("e").is_zero()


def test_cube_expansion():
    x = Polynomial.var(("X",), "X")
    # oracle: repeated multiplication
    cube = (x + 2) * (x + 2) * (x + 2)
    assert (x + 2) ** 3 == cube
    assert cube == Polynomial(("X",), {(3,): 1, (2,): 6, (1,): 12, (0,): 8})


def test_substitute_identity_and_shift():
    x = Polynomial.var(("X",), "X")
    f = x ** 2 + 3 * x - 1
    assert f.substitute({"X": x}) == f
    shift = {"X": x + 1}
    g = f
    for n in (1, 2, 3):
        g = g.substitute(shift)
    assert x.substitute(shift) == x + 1
    # iterating the shift on the generator gives X + n
    h = x
    for n in (1, 2, 3, 4):
        h = h.substitute(shift)
        assert h == x + n


def test_substitute_scaling():
    e, f, h = Polynomial.variables(("e", "f", "h"))
    images = {"e": 2 * e, "f": Fraction(1, 2) * f, "h": h}
    assert (e * h).substitute(images) == 2 * e * h


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_substitution_is_multiplicative(seed):
    rng = random.Random(seed)
    f, g = rand_poly(rng), rand_poly(rng)
    x, y = Polynomial.variables(GENS)
    images = {"x": x + y, "y": x * y - 2}
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    f, g, h = (rand_poly(rng) for _ in range(3))
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert (f - f).is_zero()


def test_evaluate():
    x, y = Polynomial.variables(GENS)
    f = x * x * y - Fraction(1, 2) * y
    assert f.evaluate({"x": 2, "y": Fraction(1, 3)}) == Fraction(4, 3) - Fraction(1, 6)
    with pytest.raises(GeneratorMismatch):
        f.evaluate({"x": 1})


def test_degree_and_zero():
    x, y = Polynomial.variables(GENS)
    assert (x * x * y).degree() == 3
    assert Polynomial.zero(GENS).degree() == -1
    assert Polynomial.zero(GENS) == 0
    assert (x - x) == 0
    assert x != 0
    assert Polynomial.const(GENS, 3) == 3


def test_generator_mismatch():
    x = Polynomial.var(("x",), "x")
    u = Polynomial.var(("u",), "u")
    with pytest.raises(GeneratorMismatch):
        _ = x + u
    with pytest.raises(GeneratorMismatch):
        x.diff("u")
    with pytest.raises(GeneratorMismatch):
        x.substitute({})


def test_str_formatting():
    x = Polynomial.var(("X",), "X")
    assert str(x + 2) == "X + 2"
    e, f, h = Polynomial.variables(("e", "f", "h"))
    assert str(2 * e * h * h) == "2*e*h^2"
    assert str(Polynomial.zero(("X",))) == "0"
    assert str(-x + 2) == "-X + 2"
    assert str(x * x - Fraction(1, 2)) == "X^2 - 1/2"


def test_sorted_terms_graded_lex():
    x, y = Polynomial.variables(GENS)
    f = 1 + x + y * y * y + x * y
    degrees = [sum(e) for e, _ in f.sorted_terms()]
    assert degrees == sorted(degrees, reverse=True)
