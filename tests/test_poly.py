import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson.errors import GeneratorMismatch
from hompoisson.poly import Polynomial

from _oracles import RefPoly

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


# ---------------------------------------------------------------------------
# The fraction-free kernel against the naive Fraction-dict reference
# ---------------------------------------------------------------------------

# numerator and denominator drawn as integers, so failures shrink quickly
coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
scalars = st.one_of(st.integers(-9, 9), coeffs)
NAMES = ("x", "y", "z", "w")


def term_dicts(n, max_size=5):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeffs, max_size=max_size)


def assert_canonical(p):
    """Integer numerators over one positive denominator, in lowest terms."""
    assert all(type(v) is int and v != 0 for v in p.terms.values())
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.terms.values()) == 1
    assert p.terms or p.den == 1


def check(p, ref):
    assert_canonical(p)
    assert p.sorted_terms() == ref.sorted_terms()
    assert str(p) == ref.render()
    rebuilt = Polynomial(p.generators, ref.terms)
    assert p == rebuilt and hash(p) == hash(rebuilt)


@st.composite
def pairs(draw):
    """Generators, and two polynomials with their references; the second
    negates a subset of the first's terms half the time, so sums cancel."""
    gens = NAMES[:draw(st.integers(1, 4))]
    f = draw(term_dicts(len(gens)))
    g = draw(term_dicts(len(gens)))
    if draw(st.booleans()):
        kept = {e: -q for e, q in f.items() if draw(st.booleans())}
        g = {**g, **kept} if draw(st.booleans()) else kept
    return gens, (Polynomial(gens, f), RefPoly(gens, f)), (Polynomial(gens, g), RefPoly(gens, g))


@settings(max_examples=150, deadline=None)
@given(pairs(), scalars, st.integers(0, 3), st.data())
def test_arithmetic_matches_reference(drawn, c, k, data):
    gens, (f, rf), (g, rg) = drawn
    const = RefPoly.const(gens, c)
    check(f, rf)
    check(g, rg)
    check(f + g, rf + rg)
    check(f - g, rf - rg)
    check(-f, -rf)
    check(f * g, rf * rg)
    check(c * f, rf.scale(Fraction(c)))
    check(f * c, rf.scale(Fraction(c)))
    check(f + c, rf + const)
    check(c - f, const - rf)
    check(f - c, rf - const)
    check(f ** k, rf.power(k))
    for pos, name in enumerate(gens):
        check(f.diff(name), rf.diff(pos))
    values = data.draw(st.lists(coeffs, min_size=len(gens), max_size=len(gens)), label="point")
    assert f.evaluate(dict(zip(gens, values))) == rf.evaluate(values)
    probe = data.draw(st.tuples(*[st.integers(0, 3)] * len(gens)), label="probe")
    for expo in list(rf.terms) + [probe]:
        assert f.coefficient(expo) == rf.coefficient(expo)
    assert f.constant_term() == rf.coefficient((0,) * len(gens))
    assert (f == g) == (rf.terms == rg.terms)
    assert (f == c) == (rf.terms == const.terms)
    assert f + g == g + f and hash(f + g) == hash(g + f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_matches_reference(data):
    gens = NAMES[:data.draw(st.integers(1, 4), label="n")]
    target = ("u", "v", "s")[:data.draw(st.integers(1, 3), label="m")]
    f = data.draw(term_dicts(len(gens)), label="f")
    images = [data.draw(term_dicts(len(target), max_size=3), label=f"image of {g}") for g in gens]
    result = Polynomial(gens, f).substitute({g: Polynomial(target, img) for g, img in zip(gens, images)})
    check(result, RefPoly(gens, f).substitute([RefPoly(target, img) for img in images]))


def test_equal_polynomials_along_different_denominators():
    x, y = Polynomial.variables(GENS)
    half = Fraction(1, 2) * x
    assert half.den == 2 and half * 2 == x and hash(half * 2) == hash(x)
    assert half != x and Polynomial.const(GENS, Fraction(1, 2)) != 1
    assert (Fraction(1, 3) * x + Fraction(1, 6) * y) * 6 == 2 * x + y
    assert half + half == x and hash(half + half) == hash(x)
    assert (Fraction(1, 2) * x * x).diff("x") == x
    assert Polynomial(GENS, {(1, 0): Fraction(2, 4), (0, 1): 0}) == half
    # cross terms cancel: (x/2 + y/3)(x/2 - y/3) = x^2/4 - y^2/9
    third = Fraction(1, 3) * y
    square = (half + third) * (half - third)
    assert square == Polynomial(GENS, {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)})
    assert square.den == 36
    for p in (half * 2, half + half, square, 6 * third):
        assert_canonical(p)


def test_cancellation_to_zero_resets_the_denominator():
    x, y = Polynomial.variables(GENS)
    third = Fraction(1, 3) * x + y
    zero = Polynomial.zero(GENS)
    for p in (third - third, third + (-third), 0 * third, third * Fraction(0),
              (third - third) * third, Polynomial(GENS, {(1, 1): 0})):
        assert p.is_zero() and p == 0 and p.terms == {} and p.den == 1
        assert p == zero and hash(p) == hash(zero)
        assert str(p) == "0" and p.coefficient((0, 0)) == 0
