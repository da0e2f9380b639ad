"""The identity engine against the benchmark's dense oracle.

Every ``check_*`` report must equal the oracle's: leaf identity names and
order, pass flags, witness indices (the first ten failing basis tuples in
lexicographic order) and exact residuals.  Inputs are random algebras in
dims 1-6: direct sums of catalog pieces twisted by block-diagonal
self-morphisms (which pass), the same with corrupted structure constants,
and random sparse tensors with random twisting maps (which mostly fail).
The element-level functions are compared on random vectors.  Three-argument
sweeps take their first argument in doubling blocks of basis vectors; their
block counts are checked directly, and the oracle comparison also covers
algebras of dims 7-12 whose failures start only in late blocks.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson.algebra import (
    MAX_WITNESSES,
    HomAlgebra,
    HomPoissonAlgebra,
    associator,
    check_antisymmetry,
    check_commutative,
    check_hom_associative,
    check_hom_jacobi,
    check_hom_leibniz,
    check_hom_poisson,
    check_morphism,
    check_multiplicative,
    cyclic_associator_sum,
    hom_associator,
    hom_jacobian,
    hom_leibniz_residual,
    sweep,
)
from hompoisson.catalog import conjugation_morphism, heisenberg_morphism, heisenberg_p31, heisenberg_p32, matrix_algebra
from hompoisson.constructions import (
    check_admissible,
    check_hom_flexible,
    commutator_poisson,
    depolarize,
    nonrigidity_witness,
    twist,
)
from hompoisson.errors import PreconditionError
from hompoisson.linalg import LinearMap, Trilinear, Vector

from _oracles import (
    Dense,
    MorphismResiduals,
    Residuals,
    add,
    apply,
    dense_matrix,
    dense_tensor,
    evaluate,
    oracle_leaves,
    oracle_reports,
    random_map,
    random_rational,
    random_tensor,
    random_vector,
    report_leaves,
    unit,
)

SETTINGS = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _pieces(rng, integral):
    """Catalog pieces with a self-morphism each: (algebra, morphism); with
    ``integral``, every structure constant and map entry is an integer."""
    a = rng.choice((1, 2, -1) if integral else (1, 2, -1, Fraction(1, 2)))
    zeta = rng.choice((0, 1) if integral else (0, 1, Fraction(1, 2)))
    return [
        (heisenberg_p31(zeta), heisenberg_morphism(a, 0, 0, a)),
        (heisenberg_p32(), heisenberg_morphism(a, 0, 0, a)),
        (commutator_poisson(matrix_algebra(1)), LinearMap.identity(1)),
        (commutator_poisson(matrix_algebra(2)), conjugation_morphism(2, -1 if integral else a)),
        (None, None),  # a one-dimensional zero algebra
    ]


def _direct_sum(blocks):
    """Block-diagonal sum of (bracket, mu, alpha) blocks."""
    dim = sum(t.dim for t, _, _ in blocks)
    br, mu, rows = {}, {}, [[0] * dim for _ in range(dim)]
    off = 0
    for bracket, product, alpha in blocks:
        for src, dst in ((bracket, br), (product, mu)):
            for (i, j, k), q in src.items():
                dst[(i + off, j + off, k + off)] = q
        for i in range(alpha.dim):
            for j in range(alpha.dim):
                rows[i + off][j + off] = alpha.entry(i, j)
        off += bracket.dim
    return Trilinear(dim, br), Trilinear(dim, mu), LinearMap(tuple(map(tuple, rows)))


@st.composite
def algebras(draw):
    """(algebra, a self-map that is a morphism of the uncorrupted algebra).

    The "integral" kind has integer constants and maps, corrupted by up to two
    integers, so passing and failing sweeps also run on ints alone.
    """
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("structured", "corrupted", "random", "integral")))
    integral = kind == "integral"
    if kind == "random":
        dim = draw(st.integers(1, 6))
        alpha = draw(st.sampled_from((LinearMap.identity(dim), random_map(rng, dim))))
        algebra = HomPoissonAlgebra(tuple(f"b{i}" for i in range(dim)),
                                    random_tensor(rng, dim, rng.random() * 0.5),
                                    random_tensor(rng, dim, rng.random() * 0.5), alpha,
                                    commutative=draw(st.booleans()))
        return algebra, random_map(rng, dim)
    pieces, blocks, maps, dim = _pieces(rng, integral), [], [], 0
    for _ in range(draw(st.integers(1, 3))):  # the first piece always fits
        piece, beta = pieces[draw(st.integers(0, len(pieces) - 1))]
        if piece is None:
            weight = rng.randint(1, 3) if integral else random_rational(rng) or 1
            piece, beta = HomPoissonAlgebra(("o",), Trilinear(1), Trilinear(1), LinearMap.identity(1),
                                            True), LinearMap.diagonal([weight])
        if dim + piece.dim > 6:
            break
        dim += piece.dim
        blocks.append((piece.bracket, piece.mu, piece.alpha))
        maps.append((piece.bracket, piece.mu, beta))
    bracket, mu, alpha = _direct_sum(blocks)
    M = dense_tensor(mu)
    commutative = all(M[i][j] == M[j][i] for i in range(dim) for j in range(dim))
    base = HomPoissonAlgebra(tuple(f"b{i}" for i in range(dim)), bracket, mu, alpha, commutative)
    beta = _direct_sum(maps)[2]
    algebra = twist(base, beta) if draw(st.booleans()) else base
    if kind in ("corrupted", "integral"):
        values = (1, -2, 3, 0) if integral else (Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(0))
        for _ in range(draw(st.integers(0 if integral else 1, 2))):
            which = draw(st.sampled_from(("mu", "bracket")))
            i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
            value = draw(st.sampled_from(values))
            algebra = dataclasses.replace(algebra, **{which: getattr(algebra, which).with_entry(i, j, k, value)})
    return algebra, beta


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

SINGLE = {
    "antisymmetry": check_antisymmetry,
    "commutative": check_commutative,
    "hom-jacobi": check_hom_jacobi,
    "hom-associative": check_hom_associative,
    "hom-leibniz": check_hom_leibniz,
    "hom-poisson": check_hom_poisson,
    "multiplicative": check_multiplicative,
}


def _assert_matches(report, expected, identity):
    assert report.identity == identity
    assert report_leaves(report) == expected
    assert report.passed == all(passed for _, passed, _ in expected)
    # the engine computes with ints where it can; its residuals leave it as Fractions
    assert all(type(q) is Fraction for leaf in report.flat() for w in leaf.witnesses for q in w.residual.entries)


@SETTINGS
@given(algebras())
def test_algebra_checks_match_oracle(case):
    algebra, _ = case
    expected = oracle_reports(algebra)
    for name, check in SINGLE.items():
        _assert_matches(check(algebra), expected[name], name)


@SETTINGS
@given(algebras())
def test_single_product_checks_match_oracle(case):
    single = depolarize(case[0])
    expected = oracle_reports(single)
    _assert_matches(check_admissible(single), expected["admissible"], "admissible")
    _assert_matches(check_hom_flexible(single), expected["hom-flexible"], "hom-flexible")
    _assert_matches(check_hom_associative(single), expected["hom-associative"], "hom-associative")
    _assert_matches(check_multiplicative(single), expected["multiplicative"], "multiplicative")


@SETTINGS
@given(algebras(), st.sampled_from(("self", "retwisted", "single")), st.booleans())
def test_morphism_checks_match_oracle(case, target_kind, weak):
    source, f = case
    target = source
    if target_kind == "retwisted":
        target = dataclasses.replace(source, alpha=f.compose(source.alpha))
    elif target_kind == "single":
        source, target = depolarize(source), depolarize(target)
    residuals = MorphismResiduals(f, source, target)
    expected = oracle_leaves(residuals, residuals.identities(weak))
    report = check_morphism(f, source, target, weak=weak)
    _assert_matches(report, expected, "weak-morphism" if weak else "morphism")


# ---------------------------------------------------------------------------
# Blocks of first arguments
# ---------------------------------------------------------------------------

def _counted(residual):
    """``residual`` and a list that grows by one per evaluation (one per block)."""
    calls = []

    def counted(E, *args):
        calls.append(None)
        return residual(E, *args)
    return counted, calls


@pytest.mark.parametrize("algebra", [
    matrix_algebra(1),
    HomAlgebra(("e", "f"), Trilinear(2, {(0, 0, 0): 1, (1, 1, 1): 1}), LinearMap.identity(2)),
    matrix_algebra(3),
    matrix_algebra(6),
    matrix_algebra(9),
], ids=lambda a: f"dim{a.dim}")
def test_passing_sweep_evaluates_bit_length_blocks(algebra):
    counted, calls = _counted(associator)
    report = sweep("hom-associative", algebra.dim, 3, counted, algebra.mu, algebra.alpha)
    assert report.passed
    assert len(calls) == algebra.dim.bit_length()


def test_failures_at_first_index_0_evaluate_one_block():
    # every product is e0 and the map scales e_i by i + 1, so the associator
    # of (x, y, z) is (c_z - c_x) e0: twelve failures at x = e0 alone
    mu = Trilinear(4, {(i, j, 0): 1 for i in range(4) for j in range(4)})
    counted, calls = _counted(associator)
    report = sweep("hom-associative", 4, 3, counted, mu, LinearMap.diagonal([1, 2, 3, 4]))
    assert len(calls) == 1
    expected = [(0, j, k) for j in range(4) for k in range(1, 4)][:MAX_WITNESSES]
    assert [w.indices for w in report.witnesses] == expected
    assert [w.residual.entries for w in report.witnesses] == [(Fraction(k), 0, 0, 0) for _, _, k in expected]


@st.composite
def late_failures(draw):
    """(algebra, lead): a direct sum of dim 7-12 whose first ``lead`` basis
    vectors span Heisenberg and one-dimensional pieces, which pass every
    three-argument check (also after depolarization), and whose last three
    span a random algebra with a random map.  Products and the map respect
    the sum, so every failing triple lies in the random summand and starts at
    a first index of ``lead`` or more, past the first two blocks."""
    rng = draw(st.randoms(use_true_random=False))
    zeta = draw(st.sampled_from((0, 1, Fraction(1, 2))))
    pieces = [heisenberg_p31(zeta), heisenberg_p32(), commutator_poisson(matrix_algebra(1))]
    target, blocks, lead = draw(st.integers(4, 9)), [], 0
    while lead < target:
        piece = pieces[draw(st.integers(0, 1)) if lead + 3 <= 9 else 2]
        blocks.append((piece.bracket, piece.mu, piece.alpha))
        lead += piece.dim
    blocks.append((random_tensor(rng, 3), random_tensor(rng, 3), random_map(rng, 3)))
    bracket, mu, alpha = _direct_sum(blocks)
    return HomPoissonAlgebra(tuple(f"b{i}" for i in range(lead + 3)), bracket, mu, alpha), lead


@settings(max_examples=5, deadline=None)
@given(late_failures())
def test_late_block_failures_match_oracle(case):
    algebra, lead = case
    single = depolarize(algebra)
    checks = [
        (check_hom_jacobi(algebra), "hom-jacobi", algebra),
        (check_hom_associative(algebra), "hom-associative", algebra),
        (check_hom_leibniz(algebra), "hom-leibniz", algebra),
        (check_admissible(single), "admissible", single),
        (check_hom_flexible(single), "hom-flexible", single),
    ]
    for report, name, checked in checks:
        _assert_matches(report, oracle_leaves(Residuals.of(checked), [name]), name)
        assert all(w.indices[0] >= lead for w in report.witnesses)


# ---------------------------------------------------------------------------
# Element level
# ---------------------------------------------------------------------------

@SETTINGS
@given(algebras(), st.randoms(use_true_random=False))
def test_element_functions_match_oracle(case, rng):
    algebra, beta = case
    residuals = Residuals.of(algebra)
    x, y, z = (random_vector(rng, algebra.dim) for _ in range(3))
    e = [list(v.entries) for v in (x, y, z)]
    assert list(hom_associator(algebra, x, y, z).entries) == evaluate(residuals, "hom-associative", *e)
    assert list(hom_jacobian(algebra, x, y, z).entries) == evaluate(residuals, "hom-jacobi", *e)
    assert list(hom_leibniz_residual(algebra, x, y, z).entries) == evaluate(residuals, "hom-leibniz", *e)
    # as(x, y, z) + as(z, x, y) + as(y, z, x)
    cyclic = add(*(evaluate(residuals, "hom-associative", *e[s:], *e[:s]) for s in (0, 2, 1)))
    assert list(cyclic_associator_sum(algebra, x, y, z).entries) == cyclic

    # beta*op with the identity twisting map
    b = dense_matrix(beta)
    twisted = [Dense(algebra.dim, (((i, j, k), q) for (i, j), row in Dense.of(t).rows.items()
                                   for k, q in enumerate(apply(b, row))))
               for t in (algebra.mu, algebra.bracket)]
    ident = Residuals(twisted[0], [unit(algebra.dim, i) for i in range(algebra.dim)], twisted[1])
    expected = {"mu": evaluate(ident, "hom-associative", *e), "bracket": evaluate(ident, "hom-jacobi", *e)}
    weak_morphism = MorphismResiduals(beta, algebra, algebra).first_failure(weak=True) is None
    for name in ("mu", "bracket"):
        if weak_morphism:
            assert list(nonrigidity_witness(algebra, beta, (x, y, z), op=name).entries) == expected[name]
        else:
            with pytest.raises(PreconditionError):
                nonrigidity_witness(algebra, beta, (x, y, z), op=name)


def test_element_functions_accept_polynomial_entries():
    from hompoisson.poly import Polynomial
    s, t = Polynomial.variables(("s", "t"))
    algebra = twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))
    algebra = dataclasses.replace(algebra, mu=algebra.mu.with_entry(0, 0, 0, 1))
    residuals = Residuals.of(algebra)
    x, y, z = (s, t, s * t), (1 + s, t, Polynomial.const(("s", "t"), 2)), (t, s, s)
    vx, vy, vz = (Vector(v) for v in (x, y, z))
    assert list(hom_associator(algebra, vx, vy, vz).entries) == evaluate(residuals, "hom-associative", x, y, z)
    assert list(hom_jacobian(algebra, vx, vy, vz).entries) == evaluate(residuals, "hom-jacobi", x, y, z)
    assert list(hom_leibniz_residual(algebra, vx, vy, vz).entries) == evaluate(residuals, "hom-leibniz", x, y, z)
    assert not hom_associator(algebra, vx, vy, vz).is_zero()
