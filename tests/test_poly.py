import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson import poly
from hompoisson.errors import GeneratorMismatch, ResourceLimitError
from hompoisson.linalg import Trilinear, Vector
from hompoisson.poisson_poly import PoissonStructure
from hompoisson.poly import FIELD_BITS, MAX_EXPONENT, Polynomial, _of_products, _shifts

from _oracles import RefPoly, assert_canonical

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
    assert sum((x * x * y - y).sorted_terms()[0][0]) == 3
    assert Polynomial.zero(GENS).sorted_terms() == []
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
    # no generators and no images: nothing gives the target generator list
    with pytest.raises(GeneratorMismatch):
        Polynomial.const((), 5).substitute({})


@pytest.mark.parametrize("build", [
    lambda: Polynomial.var(("x", "x"), "x"),
    lambda: Polynomial(("x", "x"), {(1, 0): 1}),
    lambda: PoissonStructure(("x", "x"), {}).variable("x"),
])
def test_repeated_generator_names_are_refused(build):
    # on ("x", "x"), var("x") would be x * x, and x^(1, 0) and x^(0, 1) unequal but both "x"
    with pytest.raises(GeneratorMismatch, match=r"repeat in \('x', 'x'\)"):
        build()


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
    assert dict(f.sorted_terms()) == rf.terms
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
        assert str(p) == "0" and p.sorted_terms() == []


# ---------------------------------------------------------------------------
# The exponent limit of the packed keys
# ---------------------------------------------------------------------------

def test_exponent_at_the_field_maximum_builds_and_displays():
    top = MAX_EXPONENT
    x, y = Polynomial.variables(GENS)
    corner = Polynomial(GENS, {(top, top): Fraction(-1, 2), (top, 0): 3, (0, top): 1})
    assert_canonical(corner)
    assert str(corner) == f"-1/2*x^{top}*y^{top} + 3*x^{top} + y^{top}"
    assert corner.sorted_terms()[0] == ((top, top), Fraction(-1, 2))
    assert dict(corner.sorted_terms()) == {(top, top): Fraction(-1, 2), (top, 0): 3, (0, top): 1}
    # reached by products and powers as well as by the constructor
    assert x ** top * y ** top == Polynomial(GENS, {(top, top): 1})
    assert (x ** (top - 1) * x) * y ** top == x ** top * y ** top
    assert str(y ** top) == f"y^{top}"
    assert (x ** top).diff("x") == top * x ** (top - 1)
    assert (x ** top * y).evaluate({"x": 1, "y": 2}) == 2


@pytest.mark.parametrize("name", GENS)
def test_exponent_past_the_field_maximum_is_refused(name):
    """Each field refuses on its own, the lowest (last generator) included:
    an overflow must not carry into the next generator's field."""
    v = Polynomial.var(GENS, name)
    top = v ** MAX_EXPONENT
    other = Polynomial.var(GENS, "x" if name == "y" else "y")
    with pytest.raises(ResourceLimitError):
        top * v
    with pytest.raises(ResourceLimitError):
        v * (top + other)
    with pytest.raises(ResourceLimitError):
        (top + 1) * (top - 1)
    with pytest.raises(ResourceLimitError):
        v ** (MAX_EXPONENT + 1)
    with pytest.raises(ResourceLimitError):
        (2 * v * other) ** (MAX_EXPONENT + 1)
    expo = tuple(MAX_EXPONENT + 1 if g == name else 0 for g in GENS)
    with pytest.raises(ResourceLimitError):
        Polynomial(GENS, {expo: 1})
    # a contraction multiplies its entries the same way
    t = Trilinear(1, {(0, 0, 0): 1})
    with pytest.raises(ResourceLimitError):
        t.contract(Vector((top,)), Vector((v,)))
    assert t.contract(Vector((top,)), Vector((other,))).entries == (top * other,)


def test_constants_hash_as_their_rational_values():
    """A constant polynomial equals its rational value and hashes as it, so a
    set or a dict key takes them as one, and so do vectors holding them."""
    three, zero = Polynomial.const(GENS, 3), Polynomial.zero(GENS)
    half = Polynomial.const(GENS, Fraction(-1, 2))
    assert three == Fraction(3) and hash(three) == hash(Fraction(3)) == hash(3)
    assert half == Fraction(-1, 2) and hash(half) == hash(Fraction(-1, 2))
    assert len({three, Fraction(3), 3}) == 1 and len({zero, Fraction(0), 0}) == 1
    assert Vector((Fraction(0),)) == Vector((zero,))
    assert len({Vector((Fraction(0),)), Vector((zero,))}) == 1
    assert len({Vector((three, half)), Vector.of(3, "-1/2")}) == 1
    x = Polynomial.var(GENS, "x")
    assert hash(x + 3) == hash(Polynomial.var(GENS, "x") + 3) and x + 3 != three


def test_over_limit_power_is_refused_before_multiplying(monkeypatch):
    """(v + 1) ** 32768 is refused from the exponents alone, without first
    squaring its way up to many-term polynomials."""
    v = Polynomial.var(GENS, "y")

    def refuse(*args):
        raise AssertionError("multiplied before checking the exponent limit")

    with monkeypatch.context() as m:
        m.setattr(Polynomial, "__mul__", refuse)
        m.setattr(Polynomial, "__rmul__", refuse)
        with pytest.raises(ResourceLimitError):
            (v + 1) ** (MAX_EXPONENT + 1)
    assert v ** MAX_EXPONENT == Polynomial(GENS, {(0, MAX_EXPONENT): 1})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, MAX_EXPONENT)] * 3), min_size=1, max_size=6, unique=True))
def test_packed_keys_order_as_exponent_tuples(expos):
    """The first generator is the most significant field, so integer order of
    the keys is lexicographic order of the exponent tuples."""
    gens = NAMES[:3]
    keys = {expo: next(iter(Polynomial(gens, {expo: 1}).terms)) for expo in expos}
    assert sorted(expos) == sorted(expos, key=keys.get)
    for expo in expos:
        assert Polynomial(gens, {expo: 1}).sorted_terms() == [(expo, 1)]


def test_exponent_tuple_outside_the_fields_is_refused():
    wide = 1 << FIELD_BITS  # packed without a range check, these would alias x or 1
    for expo in ((-1, 0), (0, -1), (1, -wide), (1,), (1, 2, 0), (), (0, 0, 0)):
        with pytest.raises(ValueError):
            Polynomial(GENS, {expo: 1})
    for expo in ((MAX_EXPONENT + 1, 0), (0, MAX_EXPONENT + 1), (0, wide)):
        with pytest.raises(ResourceLimitError):
            Polynomial(GENS, {expo: 1})


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_read_back_of_products_drops_zeros_and_common_factors(width, data):
    """A kernel output read back by ``_of_products`` holds stored zero
    numerators and numerators sharing a factor with the denominator; the
    polynomial it returns is canonical and equal to the one the constructor
    builds from the nonzero coefficients, and the output is not changed."""
    gens = NAMES[:width]
    numerators = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * width),
                                           st.sampled_from((0, 0, 1, -1, 2, -3, 4)), max_size=6), label="numerators")
    factor, den = data.draw(st.integers(1, 6), label="factor"), data.draw(st.integers(1, 5), label="den")
    terms = {sum(e << s for e, s in zip(expo, _shifts(width))): factor * n for expo, n in numerators.items()}
    stored = dict(terms)
    p = _of_products(gens, terms, factor * den)
    assert_canonical(p)
    expected = Polynomial(gens, {expo: Fraction(n, den) for expo, n in numerators.items()})
    assert (p.generators, p.terms, p.den) == (expected.generators, expected.terms, expected.den)
    assert terms == stored


def test_a_product_that_cancels_and_shares_a_factor_with_its_denominator(monkeypatch):
    """(x + y)/2 times (2x - 2y)/3: the cross terms cancel, left as a stored
    zero numerator, and the other numerators 2 and -2 share the factor 2 with
    the denominator 6.  The read-back drops the zero and divides by 2, and
    the product is the canonical (x^2 - y^2)/3."""
    x, y = Polynomial.variables(GENS)
    p, q = Fraction(1, 2) * (x + y), Fraction(2, 3) * (x - y)
    read = []

    def recorded(generators, terms, den):
        read.append((dict(terms), den))
        return _of_products(generators, terms, den)

    monkeypatch.setattr(poly, "_of_products", recorded)
    product = p * q
    (terms, den), = read
    assert sorted(terms.values()) == [-2, 0, 2] and den == 6
    assert_canonical(product)
    expected = RefPoly(GENS, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}) * RefPoly(
        GENS, {(1, 0): Fraction(2, 3), (0, 1): Fraction(-2, 3)})
    assert product == Polynomial(GENS, expected.terms) == Polynomial(GENS, {(2, 0): Fraction(1, 3),
                                                                            (0, 2): Fraction(-1, 3)})
    assert sorted(product.terms.values()) == [-1, 1] and product.den == 3


@pytest.mark.parametrize("call, error, message", [
    (lambda: Polynomial.var(("x", "y"), "z"), GeneratorMismatch, "'z' is not among generators ('x', 'y')"),
    (lambda: Polynomial.var(("x",), "x") ** -1, ValueError, "polynomial powers must be nonnegative integers"),
    (lambda: Polynomial.var(("x", "y"), "x").substitute(
        {"x": Polynomial.var(("u",), "u"), "y": Polynomial.var(("v",), "v")}),
     GeneratorMismatch, "substitution images use inconsistent generator lists"),
])
def test_input_guards(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
