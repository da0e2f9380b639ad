"""The identity engine against the naive dense oracles.

Every ``check_*`` report must equal the oracle's: leaf identity names and
order, pass flags, witness indices (the first ten failing basis tuples in
lexicographic order) and exact residuals.  Inputs are random algebras in
dims 1-6: direct sums of catalog pieces twisted by block-diagonal
self-morphisms (which pass), the same with corrupted structure constants,
and random sparse tensors with random twisting maps (which mostly fail).
The element-level functions are compared on random vectors.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson.algebra import (
    HomPoissonAlgebra,
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
    ap,
    dense_matrix,
    dense_tensor,
    oracle_associator,
    oracle_jacobian,
    oracle_leibniz,
    oracle_morphism_report,
    oracle_reports,
    random_map,
    random_rational,
    random_tensor,
    random_vector,
    report_leaves,
)

SETTINGS = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _pieces(rng):
    """Catalog pieces with a self-morphism each: (algebra, morphism)."""
    a = rng.choice((1, 2, -1, Fraction(1, 2)))
    return [
        (heisenberg_p31(rng.choice((0, 1, Fraction(1, 2)))), heisenberg_morphism(a, 0, 0, a)),
        (heisenberg_p32(), heisenberg_morphism(a, 0, 0, a)),
        (commutator_poisson(matrix_algebra(1)), LinearMap.identity(1)),
        (commutator_poisson(matrix_algebra(2)), conjugation_morphism(2, a)),
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
    """(algebra, a self-map that is a morphism of the uncorrupted algebra)."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("structured", "corrupted", "random")))
    if kind == "random":
        dim = draw(st.integers(1, 6))
        alpha = draw(st.sampled_from((LinearMap.identity(dim), random_map(rng, dim))))
        algebra = HomPoissonAlgebra(tuple(f"b{i}" for i in range(dim)),
                                    random_tensor(rng, dim, rng.random() * 0.5),
                                    random_tensor(rng, dim, rng.random() * 0.5), alpha,
                                    commutative=draw(st.booleans()))
        return algebra, random_map(rng, dim)
    pieces, blocks, maps, dim = _pieces(rng), [], [], 0
    for _ in range(draw(st.integers(1, 3))):  # the first piece always fits
        piece, beta = pieces[draw(st.integers(0, len(pieces) - 1))]
        if piece is None:
            piece, beta = HomPoissonAlgebra(("o",), Trilinear(1), Trilinear(1), LinearMap.identity(1),
                                            True), LinearMap.diagonal([random_rational(rng) or 1])
        if dim + piece.dim > 6:
            break
        dim += piece.dim
        blocks.append((piece.bracket, piece.mu, piece.alpha))
        maps.append((piece.bracket, piece.mu, beta))
    bracket, mu, alpha = _direct_sum(blocks)
    commutative = mu.is_symmetric()
    base = HomPoissonAlgebra(tuple(f"b{i}" for i in range(dim)), bracket, mu, alpha, commutative)
    beta = _direct_sum(maps)[2]
    algebra = twist(base, beta) if draw(st.booleans()) else base
    if kind == "corrupted":
        for _ in range(draw(st.integers(1, 2))):
            which = draw(st.sampled_from(("mu", "bracket")))
            i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
            value = draw(st.sampled_from((Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(0))))
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
    expected = oracle_morphism_report(f, source, target, weak)
    report = check_morphism(f, source, target, weak=weak)
    _assert_matches(report, expected, "weak-morphism" if weak else "morphism")


# ---------------------------------------------------------------------------
# Element level
# ---------------------------------------------------------------------------

@SETTINGS
@given(algebras(), st.randoms(use_true_random=False))
def test_element_functions_match_oracle(case, rng):
    algebra, beta = case
    M, B, A = dense_tensor(algebra.mu), dense_tensor(algebra.bracket), dense_matrix(algebra.alpha)
    x, y, z = (random_vector(rng, algebra.dim) for _ in range(3))
    e = [list(v.entries) for v in (x, y, z)]
    assert list(hom_associator(algebra, x, y, z).entries) == oracle_associator(M, A, *e)
    assert list(hom_jacobian(algebra, x, y, z).entries) == oracle_jacobian(B, A, *e)
    assert list(hom_leibniz_residual(algebra, x, y, z).entries) == oracle_leibniz(B, M, A, *e)
    cyclic = [sum(col) for col in zip(oracle_associator(M, A, e[0], e[1], e[2]),
                                      oracle_associator(M, A, e[2], e[0], e[1]),
                                      oracle_associator(M, A, e[1], e[2], e[0]))]
    assert list(cyclic_associator_sum(algebra, x, y, z).entries) == cyclic

    # beta*op with the identity twisting map
    Bm = dense_matrix(beta)
    twisted = {name: [[ap(Bm, row) for row in plane] for plane in T] for name, T in (("mu", M), ("bracket", B))}
    ident = dense_matrix(LinearMap.identity(algebra.dim))
    expected = {"mu": oracle_associator(twisted["mu"], ident, *e),
                "bracket": oracle_jacobian(twisted["bracket"], ident, *e)}
    weak_morphism = all(passed for _, passed, _ in oracle_morphism_report(beta, algebra, algebra, weak=True))
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
    M, B, A = dense_tensor(algebra.mu), dense_tensor(algebra.bracket), dense_matrix(algebra.alpha)
    x, y, z = (s, t, s * t), (1 + s, t, Polynomial.const(("s", "t"), 2)), (t, s, s)
    vx, vy, vz = (Vector(v) for v in (x, y, z))
    assert list(hom_associator(algebra, vx, vy, vz).entries) == oracle_associator(M, A, x, y, z)
    assert list(hom_jacobian(algebra, vx, vy, vz).entries) == oracle_jacobian(B, A, x, y, z)
    assert list(hom_leibniz_residual(algebra, vx, vy, vz).entries) == oracle_leibniz(B, M, A, x, y, z)
    assert not hom_associator(algebra, vx, vy, vz).is_zero()
