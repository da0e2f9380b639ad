import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson.catalog import (
    free_poly_shift,
    heisenberg_linear_poisson,
    sl2_linear_poisson,
    sl2_scaling,
)
from hompoisson.errors import GeneratorMismatch, PreconditionError
from hompoisson.poisson_poly import (
    LiePoissonStructure,
    PoissonStructure,
    Substitution,
    SymplecticStructure,
    check_poisson_substitution,
    manifold_nonrigidity_check,
    translation,
    twisted_associator,
    twisted_product,
)
from hompoisson.poly import Polynomial


def rand_poly(rng, gens, degree=3):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        expo = [0] * len(gens)
        for _ in range(rng.randint(0, degree)):
            expo[rng.randrange(len(gens))] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(gens, terms)


# ---------------------------------------------------------------------------
# Structure constants induce the bracket on generators
# ---------------------------------------------------------------------------

def test_generator_brackets_equal_lie_brackets():
    for struct in (sl2_linear_poisson(), heisenberg_linear_poisson()):
        gens = struct.generators
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                got = struct.bracket(struct.variable(gi), struct.variable(gj))
                expected = Polynomial.zero(gens)
                for k, gk in enumerate(gens):
                    c = struct.constants.entry(i, j, k)
                    if c:
                        expected = expected + c * struct.variable(gk)
                assert got == expected


def test_sl2_bracket_values():
    s = sl2_linear_poisson()
    e, f, h = (s.variable(g) for g in s.generators)
    assert s.bracket(h, e) == 2 * e
    assert s.bracket(h, f) == -2 * f
    assert s.bracket(e, f) == h
    assert s.bracket(e, Polynomial.const(s.generators, 7)).is_zero()


def test_invalid_structure_constants_rejected():
    with pytest.raises(PreconditionError):
        LiePoissonStructure(("a", "b"), {(0, 1, 0): 1})  # not antisymmetric
    with pytest.raises(PreconditionError):
        # antisymmetric but fails Jacobi: [a,b]=a, [b,c]=b, [c,a]=c
        LiePoissonStructure(("a", "b", "c"), {
            (0, 1, 0): 1, (1, 0, 0): -1,
            (1, 2, 1): 1, (2, 1, 1): -1,
            (2, 0, 2): 1, (0, 2, 2): -1,
        })


def test_bracket_axioms_on_random_polynomials():
    rng = random.Random(5)
    for struct in (sl2_linear_poisson(), heisenberg_linear_poisson()):
        gens = struct.generators
        br = struct.bracket
        for _ in range(6):
            f, g, h = (rand_poly(rng, gens) for _ in range(3))
            assert (br(f, g) + br(g, f)).is_zero()
            jac = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
            assert jac.is_zero()
            leib = br(f * h, g) - br(f, g) * h - f * br(h, g)
            assert leib.is_zero()


def test_quadratic_relations_give_a_poisson_bracket():
    # {x, y} = xy on the plane: every antisymmetric biderivation in two
    # variables satisfies the Jacobi identity
    gens = ("x", "y")
    x, y = Polynomial.variables(gens)
    s = PoissonStructure(gens, {(0, 1): x * y, (1, 0): -(x * y)})
    assert s.bracket(x * x, y) == 2 * x * x * y
    rng = random.Random(8)
    for _ in range(4):
        f, g, h = (rand_poly(rng, gens) for _ in range(3))
        assert (s.bracket(f, g) + s.bracket(g, f)).is_zero()
        jac = s.bracket(f, s.bracket(g, h)) + s.bracket(g, s.bracket(h, f)) + s.bracket(h, s.bracket(f, g))
        assert jac.is_zero()


# ---------------------------------------------------------------------------
# Canonical bracket
# ---------------------------------------------------------------------------

def test_symplectic_pairings():
    for n in (1, 2, 3):
        s = SymplecticStructure(n)
        gens = s.generators
        var = lambda i: Polynomial.var(gens, gens[i])
        for i in range(n):
            for j in range(n):
                assert s.bracket(var(i), var(j + n)) == (1 if i == j else 0)
                assert s.bracket(var(i), var(j)).is_zero()
                assert s.bracket(var(i + n), var(j + n)).is_zero()


def test_symplectic_antisymmetry_and_leibniz():
    s = SymplecticStructure(2)
    rng = random.Random(6)
    for _ in range(6):
        f, g, h = (rand_poly(rng, s.generators) for _ in range(3))
        assert s.bracket(f, f).is_zero()
        assert (s.bracket(f, g) + s.bracket(g, f)).is_zero()
        leib = (s.bracket(f * h, g) - s.bracket(f, g) * h
                - f * s.bracket(h, g))
        assert leib.is_zero()


def test_bracket_generator_mismatch():
    s = SymplecticStructure(1)
    foreign = Polynomial.var(("q",), "q")
    for struct in (s, sl2_linear_poisson()):
        with pytest.raises(GeneratorMismatch):
            struct.bracket(foreign, foreign)


# ---------------------------------------------------------------------------
# Substitutions as bracket morphisms
# ---------------------------------------------------------------------------

def test_identity_substitution_is_morphism():
    s = sl2_linear_poisson()
    assert check_poisson_substitution(s, Substitution.identity(s.generators)).passed


def test_sl2_scaling_is_morphism():
    s = sl2_linear_poisson()
    for lam in (2, 3, Fraction(1, 2), -1):
        assert check_poisson_substitution(s, sl2_scaling(lam)).passed


def test_swap_e_f_is_not_morphism():
    s = sl2_linear_poisson()
    e, f, h = Polynomial.variables(s.generators)
    swap = Substitution({"e": f, "f": e, "h": h})
    rep = check_poisson_substitution(s, swap)
    assert not rep.passed
    # {h,e} = 2e maps to 2f, but {h,f} = -2f
    residuals = {w.indices: w.residual for w in rep.witnesses}
    assert residuals[(2, 0)] == 4 * f


def test_nonlinear_images_decided_on_generator_pairs():
    # the shear x2 -> x2 + x1^2 is a Poisson automorphism of R^2
    r2 = SymplecticStructure(1)
    x1, x2 = Polynomial.variables(r2.generators)
    assert check_poisson_substitution(r2, Substitution({"x1": x1, "x2": x2 + x1 * x1})).passed
    # {h, e} = 2e: e -> e^2 gives 2e^2 against {h, e^2} = 4e^2, and
    # e -> e + 1 gives 2e + 2 against {h, e + 1} = 2e
    s = sl2_linear_poisson()
    e, f, h = Polynomial.variables(s.generators)
    for image, residual in ((e * e, -2 * e * e), (e + 1, 2)):
        rep = check_poisson_substitution(s, Substitution({"e": image, "f": f, "h": h}))
        assert not rep.passed
        assert {w.indices: w.residual for w in rep.witnesses}[(2, 0)] == residual


def test_substitution_report_keeps_the_first_ten_failing_pairs():
    # a linear substitution of R^4 that breaks the bracket on 12 generator pairs
    r4 = SymplecticStructure(2)
    xs = Polynomial.variables(r4.generators)
    rows = ((1, 2, 0, 1), (0, 1, 3, 1), (2, 0, 1, 1), (1, 3, 1, 2))
    sub = Substitution({g: sum((c * x for c, x in zip(row, xs)), Polynomial.zero(r4.generators))
                        for g, row in zip(r4.generators, rows)})
    failing = {}
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            diff = sub(r4.bracket(xi, xj)) - r4.bracket(sub(xi), sub(xj))
            if not diff.is_zero():
                failing[i, j] = diff
    assert len(failing) == 12
    rep = check_poisson_substitution(r4, sub)
    assert not rep.passed
    assert [w.indices for w in rep.witnesses] == sorted(failing)[:10]
    assert all(w.residual == failing[w.indices] for w in rep.witnesses)


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
nonzero_rationals = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 2))


@st.composite
def quadratics(draw, gens, only=None):
    """A polynomial of degree <= 2, in the generator positions ``only`` if given."""
    positions = range(len(gens)) if only is None else only
    monomials = [()] + [(i,) for i in positions] + [(i, j) for i in positions for j in positions if i <= j]
    terms = {}
    for mono in draw(st.lists(st.sampled_from(monomials), max_size=3, unique=True)):
        expo = [0] * len(gens)
        for i in mono:
            expo[i] += 1
        terms[tuple(expo)] = draw(small_rationals)
    return Polynomial(gens, terms)


@st.composite
def known_morphisms(draw, struct):
    """A bracket morphism by construction: on R^2 a scaled, translated shear
    (x_a -> lam x_a + c, x_b -> (x_b + p(x_a)) / lam with {x_a, x_b} = +-1);
    on sl2 a scaling after the unipotent e -> e, h -> h - 2t e, f -> f + t h - t^2 e."""
    lam = draw(nonzero_rationals)
    if isinstance(struct, SymplecticStructure):
        a = draw(st.sampled_from((0, 1)))
        xa, xb = struct.variable(struct.generators[a]), struct.variable(struct.generators[1 - a])
        shear = draw(quadratics(struct.generators, only=(a,)))
        images = {struct.generators[a]: lam * xa + draw(small_rationals),
                  struct.generators[1 - a]: (1 / lam) * (xb + shear)}
        return Substitution(images)
    e, f, h = Polynomial.variables(struct.generators)
    t = draw(small_rationals)
    unipotent = Substitution({"e": e, "h": h - 2 * t * e, "f": f + t * h - t * t * e})
    return Substitution({g: sl2_scaling(lam)(img) for g, img in unipotent.images.items()})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_passing_substitutions_are_bracket_morphisms(data):
    """Any substitution with images of degree <= 2 that passes the generator-pair
    check respects the bracket on polynomial pairs; unperturbed members of the
    known-morphism families must pass."""
    struct = data.draw(st.sampled_from((SymplecticStructure(1), sl2_linear_poisson())), label="struct")
    gens = struct.generators
    sub = data.draw(known_morphisms(struct), label="known")
    perturbed = data.draw(st.booleans(), label="perturbed")
    if perturbed:
        images = dict(sub.images)
        g = data.draw(st.sampled_from(gens), label="at")
        images[g] = images[g] + data.draw(quadratics(gens), label="perturbation")
        sub = Substitution(images)
    report = check_poisson_substitution(struct, sub)
    assert report.passed or perturbed
    if report.passed:
        for _ in range(2):
            f, g = data.draw(quadratics(gens)), data.draw(quadratics(gens))
            assert sub(struct.bracket(f, g)) == struct.bracket(sub(f), sub(g))


# ---------------------------------------------------------------------------
# Twisted products
# ---------------------------------------------------------------------------

def test_twisted_product_identity_stays_associative():
    gens = ("X",)
    ident = Substitution.identity(gens)
    x = Polynomial.var(gens, "X")
    assert twisted_associator(ident, x, x + 1, x * x).is_zero()


def test_shift_twist_breaks_associativity():
    sub = free_poly_shift()
    x = Polynomial.var(("X",), "X")
    res = twisted_associator(sub, x, x, sub(x))
    assert res == x + 2
    # independent route: the fully expanded products
    assert twisted_product(sub, twisted_product(sub, x, x), sub(x)) == (x + 2) ** 3
    assert sub.iterate(x, 4) == x + 4


def test_sl2_scaling_twist_breaks_associativity():
    s = sl2_linear_poisson()
    e, f, h = (s.variable(g) for g in s.generators)
    for lam in (2, 3, Fraction(1, 2)):
        res = twisted_associator(sl2_scaling(lam), e, h, h)
        assert res == (lam * lam - lam) * e * h * h
        assert not res.is_zero()
    assert twisted_associator(sl2_scaling(1), e, h, h).is_zero()


def test_twisted_structure_satisfies_twisted_leibniz():
    # beta{,}, beta mu with twisting map beta: the twisted Leibniz identity
    # holds exactly on random inputs once beta is a verified bracket morphism
    s = sl2_linear_poisson()
    beta = sl2_scaling(2)
    assert check_poisson_substitution(s, beta).passed
    rng = random.Random(17)
    br = lambda a, b: beta(s.bracket(a, b))
    mul = lambda a, b: beta(a * b)
    for _ in range(5):
        f, g, h = (rand_poly(rng, s.generators, degree=2) for _ in range(3))
        lhs = br(beta(f), mul(g, h))
        rhs = mul(br(f, g), beta(h)) + mul(beta(g), br(f, h))
        assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# Translation probe
# ---------------------------------------------------------------------------

def test_translation_orbit_and_probe():
    s = SymplecticStructure(2)
    gens = s.generators
    phi = translation(s, (1, 2, 3, 4))
    origin = {g: 0 for g in gens}
    for k in (1, 2, 3):
        assert [phi.iterate(s.variable(g), k).evaluate(origin) for g in gens] == [k, 2 * k, 3 * k, 4 * k]
    probe = manifold_nonrigidity_check(s, phi, s.variable("x1"), origin)
    assert probe.trace == 2 and probe.determinant == 1 and probe.non_rigid


def test_probe_values_for_parameter_sweep():
    s = SymplecticStructure(2)
    origin = {g: 0 for g in s.generators}
    for ci in (1, Fraction(3, 2), -2):
        phi = translation(s, (ci, 1, 1, 1))
        probe = manifold_nonrigidity_check(s, phi, s.variable("x1"), origin)
        assert probe.trace == 2 * ci
        assert probe.determinant == ci * ci
        assert probe.non_rigid


def test_probe_rejects_non_bracket_morphism():
    s = SymplecticStructure(1)
    x1, x2 = Polynomial.variables(s.generators)
    stretch = Substitution({"x1": 2 * x1, "x2": x2})  # {2x1, x2} = 2 != 1
    assert not check_poisson_substitution(s, stretch).passed
    with pytest.raises(PreconditionError):
        manifold_nonrigidity_check(s, stretch, x1, {"x1": 0, "x2": 0})


def test_zero_translation_probe_is_degenerate():
    s = SymplecticStructure(1)
    phi = translation(s, (0, 0))
    probe = manifold_nonrigidity_check(s, phi, s.variable("x1"), {"x1": 0, "x2": 0})
    assert probe.trace == 0 and not probe.non_rigid


def test_shift_twist_is_not_admissible():
    # the single-product admissibility combination at (X, X, alpha(X)):
    # for the commutative shifted product it reduces to 4/3 * (X + 2) != 0
    sub = free_poly_shift()
    x = Polynomial.var(("X",), "X")
    m = lambda a, b: sub(a * b)
    z = sub(x)
    associator = m(m(x, x), z) - m(x, m(x, z))
    rhs = m(m(x, z), x) - m(m(z, x), x) + m(m(x, z), x) - m(m(x, x), z)
    residual = associator - Fraction(1, 3) * rhs
    assert residual == Fraction(4, 3) * (x + 2)
    assert not residual.is_zero()
