import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from hompoisson.algebra import (
    HomAlgebra,
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
    aggregate_report,
    as_data,
    make_report,
)
from hompoisson.catalog import (
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
)
from hompoisson.constructions import commutator_poisson, tensor
from hompoisson.errors import DimensionMismatch
from hompoisson.linalg import LinearMap, Trilinear, Vector
from hompoisson.poly import Polynomial

from _oracles import (
    Residuals,
    evaluate,
    mat_add,
    mat_mul,
    mat_sub,
    random_tensor,
    random_vector,
    unit_matrix,
    vec_of_mat,
)


def zero_algebra(dim=3):
    return HomPoissonAlgebra(
        basis=tuple(f"b{i}" for i in range(dim)),
        bracket=Trilinear.zero(dim),
        mu=Trilinear.zero(dim),
        alpha=LinearMap.identity(dim),
        commutative=True,
    )


# The bad-bracket fixture: [X,Y] = Z and [Y,Z] = X with no compensating
# antisymmetric partners, identity twisting map.
def corrupted_bracket_algebra():
    return HomPoissonAlgebra(
        basis=("X", "Y", "Z"),
        bracket=Trilinear(3, {(0, 1, 2): 1, (1, 2, 0): 1}),
        mu=Trilinear.zero(3),
        alpha=LinearMap.identity(3),
    )


# ---------------------------------------------------------------------------
# Element-level operations
# ---------------------------------------------------------------------------

def test_associator_vanishes_for_matrix_algebra():
    alg = matrix_algebra(2)
    for i, j, k in itertools.product(range(4), repeat=3):
        res = hom_associator(alg, Vector.unit(4, i), Vector.unit(4, j), Vector.unit(4, k))
        assert res.is_zero()


def test_associator_on_xy_product_triple():
    p = heisenberg_p31(1)
    x, y, z = (Vector.unit(3, i) for i in range(3))
    assert hom_associator(p, x, y, z).is_zero()


def test_jacobian_zero_for_abelian_and_heisenberg():
    assert hom_jacobian(zero_algebra(), *(Vector.unit(3, i) for i in range(3))).is_zero()
    p = heisenberg_p31(0)
    assert hom_jacobian(p, *(Vector.unit(3, i) for i in range(3))).is_zero()


def test_jacobian_matrix_units_oracle():
    # commutator bracket of 2x2 unit matrices, checked against dense arithmetic
    alg = commutator_poisson(matrix_algebra(2))
    e11, e12, e21 = unit_matrix(2, 0, 0), unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)

    def comm(a, b):
        return mat_sub(mat_mul(a, b), mat_mul(b, a))

    # cyclic sum [[x,y],z] + [[z,x],y] + [[y,z],x]
    oracle = mat_add(mat_add(comm(comm(e11, e12), e21), comm(comm(e21, e11), e12)),
                     comm(comm(e12, e21), e11))
    assert all(v == 0 for row in oracle for v in row)
    got = hom_jacobian(alg, vec_of_mat(e11), vec_of_mat(e12), vec_of_mat(e21))
    assert got.is_zero()


def test_cyclic_sum_vanishes_for_associative():
    alg = matrix_algebra(2)
    rng = random.Random(3)
    for _ in range(5):
        x, y, z = (random_vector(rng, 4) for _ in range(3))
        assert cyclic_associator_sum(alg, x, y, z).is_zero()


def test_element_ops_match_dense_oracle_on_random_tensors():
    rng = random.Random(9)
    for _ in range(5):
        mu = random_tensor(rng, 3)
        alpha = LinearMap.identity(3)
        alg = HomAlgebra(basis=("a", "b", "c"), mu=mu, alpha=alpha)
        residuals = Residuals.of(alg)
        x, y, z = (random_vector(rng, 3) for _ in range(3))
        e = (x.entries, y.entries, z.entries)
        assert list(hom_associator(alg, x, y, z).entries) == evaluate(residuals, "hom-associative", *e)
        assert list(hom_jacobian(alg, x, y, z).entries) == evaluate(residuals, "hom-jacobi", *e)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def test_check_hom_associative():
    assert check_hom_associative(zero_algebra()).passed
    for zeta in (0, 1, Fraction(1, 2)):
        assert check_hom_associative(heisenberg_p31(zeta)).passed
    assert check_hom_associative(heisenberg_p32()).passed
    assert check_hom_associative(matrix_algebra(3)).passed


def test_check_antisymmetry():
    assert check_antisymmetry(zero_algebra()).passed
    assert check_antisymmetry(heisenberg_p31(1)).passed
    # a symmetric product tensor used as a bracket must fail
    p = heisenberg_p31(1)
    sym = HomPoissonAlgebra(basis=p.basis, bracket=p.mu, mu=p.mu, alpha=p.alpha)
    rep = check_antisymmetry(sym)
    assert not rep.passed and rep.witnesses


def test_check_hom_jacobi_finds_corruption():
    assert check_hom_jacobi(zero_algebra()).passed
    rep = check_hom_jacobi(corrupted_bracket_algebra())
    assert not rep.passed
    indices = {w.indices for w in rep.witnesses}
    assert (1, 2, 1) in indices  # [[Y,Z],Y] = [X,Y] = Z survives the cyclic sum


def test_twisted_bracket_still_jacobi():
    p = heisenberg_p31(1)
    beta = heisenberg_morphism(2, 0, 0, 3)
    from hompoisson.constructions import twist
    assert check_hom_jacobi(twist(p, beta)).passed


def test_check_hom_leibniz():
    assert check_hom_leibniz(zero_algebra()).passed
    assert check_hom_leibniz(commutator_poisson(matrix_algebra(2))).passed
    assert check_hom_leibniz(tensor(heisenberg_p31(1), heisenberg_p31(1))).passed


def test_check_multiplicative():
    p = heisenberg_p31(1)
    assert check_multiplicative(p).passed  # identity twisting map
    beta = heisenberg_morphism(2, 0, 0, 3)
    assert check_multiplicative(dataclasses.replace(p, alpha=beta)).passed
    swap = LinearMap(((0, 0, 1), (0, 1, 0), (1, 0, 0)))  # X <-> Z
    assert not check_multiplicative(dataclasses.replace(p, alpha=swap)).passed


def test_check_morphism_relations():
    p = heisenberg_p31(1)
    assert check_morphism(LinearMap.identity(3), p, p).passed
    # a12 * a21 != 0 violates the product compatibility when the product is nonzero
    bad = heisenberg_morphism(1, 1, 1, 1)
    rep = check_morphism(bad, p, p)
    assert not rep.passed
    # on the zero-product algebra the same map is fine
    assert check_morphism(bad, heisenberg_p31(0), heisenberg_p31(0)).passed


def test_check_morphism_p32_families():
    p32 = heisenberg_p32()
    alpha5 = heisenberg_morphism(2, 0, 0, 2)
    assert check_morphism(alpha5, p32, p32).passed
    alpha5_shifted = heisenberg_morphism(2, 0, 1, 2, 5, Fraction(-1, 2))
    assert check_morphism(alpha5_shifted, p32, p32).passed
    # a12 != 0 breaks Y^2 = 0 compatibility
    bad = heisenberg_morphism(2, 1, 0, 2)
    assert not check_morphism(bad, p32, p32).passed


def test_check_morphism_weak_vs_strict():
    p = heisenberg_p31(1)
    beta = heisenberg_morphism(2, 0, 0, 3)
    twisted = dataclasses.replace(p, alpha=beta)
    # identity map intertwines operations but not the twisting maps
    ident = LinearMap.identity(3)
    assert check_morphism(ident, p, twisted, weak=True).passed
    assert not check_morphism(ident, p, twisted).passed


def test_check_hom_poisson_aggregate():
    assert check_hom_poisson(zero_algebra()).passed
    m2 = commutator_poisson(matrix_algebra(2))
    rep = check_hom_poisson(m2)
    assert rep.passed and not m2.commutative
    names = [p.identity for p in rep.parts]
    assert names == ["antisymmetry", "hom-jacobi", "hom-associative", "hom-leibniz"]
    rep31 = check_hom_poisson(heisenberg_p31(1))
    assert [p.identity for p in rep31.parts][-1] == "commutative"
    # claimed commutativity that fails is reported
    lie = dataclasses.replace(corrupted_bracket_algebra(), commutative=True,
                              mu=Trilinear(3, {(0, 1, 2): 1}))
    rep = check_hom_poisson(lie)
    assert not rep.passed
    failing = {p.identity for p in rep.parts if not p.passed}
    assert "commutative" in failing


def test_commutative_check():
    assert check_commutative(heisenberg_p31(1)).passed
    m2 = commutator_poisson(matrix_algebra(2))
    assert not check_commutative(m2).passed


# ---------------------------------------------------------------------------
# Report mechanics
# ---------------------------------------------------------------------------

def test_witness_cap_and_invariant():
    # a fully symmetric nonzero bracket: every pair (i, j) is a witness
    dim = 3
    entries = {(i, j, 0): 1 for i in range(dim) for j in range(dim)}
    alg = HomPoissonAlgebra(basis=("a", "b", "c"), bracket=Trilinear(3, entries),
                            mu=Trilinear.zero(3), alpha=LinearMap.identity(3))
    rep = check_antisymmetry(alg)
    assert not rep.passed
    assert len(rep.witnesses) == 9  # all pairs fail, under the cap of 10
    rep2 = make_report("anything")
    assert rep2.passed and not rep2.witnesses
    # with 16 failing pairs the collection stops at the cap, in lex order
    wide = {(i, j, 0): 1 for i in range(4) for j in range(4)}
    alg4 = HomPoissonAlgebra(basis=("a", "b", "c", "d"), bracket=Trilinear(4, wide),
                             mu=Trilinear.zero(4), alpha=LinearMap.identity(4))
    rep4 = check_antisymmetry(alg4)
    assert len(rep4.witnesses) == 10
    assert [w.indices for w in rep4.witnesses] == sorted(w.indices for w in rep4.witnesses)


def test_make_report_stops_reading_at_the_cap():
    # zero residuals are skipped; the tenth nonzero one is the last read
    read = []

    def cases():
        for n in range(30):
            read.append(n)
            yield (n,), Vector.of(n % 2, 0)

    rep = make_report("lazy", cases())
    assert not rep.passed
    assert [w.indices for w in rep.witnesses] == [(n,) for n in range(1, 20, 2)]
    assert read[-1] == 19


def test_aggregate_keeps_the_first_ten_witnesses_in_part_order():
    parts = [make_report(f"part{p}", [((p, n), Vector.of(1)) for n in range(6)]) for p in range(3)]
    rep = aggregate_report("all", parts)
    assert not rep.passed and rep.parts == tuple(parts)
    assert [w.indices for w in rep.witnesses] == [(p, n) for p in range(2) for n in range(6)][:10]
    assert sum(len(leaf.witnesses) for leaf in rep.flat()) == 18


def test_report_as_dict_schema():
    rep = check_hom_jacobi(corrupted_bracket_algebra())
    data = as_data(rep)
    assert set(data) == {"identity", "passed", "witnesses"}
    w = data["witnesses"][0]
    assert set(w) == {"indices", "residual"}
    assert all(isinstance(s, str) for s in w["residual"])


def test_as_data_values():
    @dataclasses.dataclass(frozen=True)
    class Case:
        flag: bool
        count: int
        scale: Fraction
        poly: object
        vector: Vector
        rows: tuple
        note: str = "none"
        extra: tuple = ()

    x = Polynomial.var(("X",), "X")
    case = Case(True, 3, Fraction(1, 2), x + 2, Vector.of(1, Fraction(-3, 4)), ((1, 2), ()),
                extra=(None,))
    assert as_data(case) == {"flag": True, "count": 3, "scale": "1/2", "poly": "X + 2",
                             "vector": ["1", "-3/4"], "rows": [[1, 2], []], "extra": [None]}
    assert list(as_data(case)) == ["flag", "count", "scale", "poly", "vector", "rows", "extra"]
    assert as_data(Case(False, 0, Fraction(2), x, Vector.of(), ())) == {
        "flag": False, "count": 0, "scale": "2", "poly": "X", "vector": [], "rows": []}
    assert as_data(make_report("empty", [])) == {"identity": "empty", "passed": True, "witnesses": []}


# ---------------------------------------------------------------------------
# Multilinearity: basis sweeps decide element-level identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("builder", [
    lambda: heisenberg_p31(1),
    lambda: heisenberg_p32(),
    lambda: commutator_poisson(matrix_algebra(2)),
])
def test_basis_sufficiency_on_random_vectors(builder):
    alg = builder()
    assert check_hom_poisson(alg).passed
    rng = random.Random(21)
    for _ in range(5):
        x, y, z = (random_vector(rng, alg.dim) for _ in range(3))
        assert hom_jacobian(alg, x, y, z).is_zero()
        assert hom_associator(alg, x, y, z).is_zero()
        assert hom_leibniz_residual(alg, x, y, z).is_zero()


def test_commutative_product_triple_is_permutation_invariant():
    # (xy)a(z) invariant under all six permutations for commutative
    # twisted-associative products
    for alg in (heisenberg_p31(1), heisenberg_p32(),
                __import__("hompoisson.constructions", fromlist=["twist"]).twist(
                    heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))):
        mu, alpha = alg.mu, alg.alpha
        dim = alg.dim
        for i, j, k in itertools.product(range(dim), repeat=3):
            args = (Vector.unit(dim, i), Vector.unit(dim, j), Vector.unit(dim, k))
            ref = mu.contract(mu.contract(args[0], args[1]), alpha.apply(args[2]))
            for px, py, pz in itertools.permutations(args):
                assert mu.contract(mu.contract(px, py), alpha.apply(pz)) == ref


P31 = heisenberg_p31()


@pytest.mark.parametrize("call, error, message", [
    (lambda: HomAlgebra((), Trilinear(1), LinearMap.identity(1)), ValueError, "algebra must have positive dimension"),
    (lambda: HomAlgebra(("x", "x"), Trilinear(2), LinearMap.identity(2)), ValueError, "basis names must be unique"),
    (lambda: HomAlgebra(("x", "y"), Trilinear(3), LinearMap.identity(2)), DimensionMismatch,
     "product dim 3 != basis size 2"),
    (lambda: HomAlgebra(("x", "y"), Trilinear(2), LinearMap.identity(3)), DimensionMismatch,
     "twisting map dim 3 != basis size 2"),
    (lambda: HomPoissonAlgebra(("x", "y"), Trilinear(3), Trilinear(2), LinearMap.identity(2)), DimensionMismatch,
     "bracket dim 3 != basis size 2"),
    (lambda: check_morphism(LinearMap.identity(3), P31, matrix_algebra(2)), DimensionMismatch,
     "morphism check requires equal dimensions"),
    (lambda: check_morphism(LinearMap.identity(3), P31, HomAlgebra(P31.basis, P31.mu, P31.alpha)), ValueError,
     "cannot compare a bracketed algebra with a single-product one"),
])
def test_input_guards(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
