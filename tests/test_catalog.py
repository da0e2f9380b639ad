import itertools
import random
from fractions import Fraction

import pytest

from hompoisson import catalog
from hompoisson.algebra import HomAlgebra, HomPoissonAlgebra, check_morphism
from hompoisson.catalog import (
    CATALOG,
    build_catalog,
    entry_reports,
    heisenberg_linear_poisson,
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
    sl2_linear_poisson,
)
from hompoisson.errors import HomPoissonError, ResourceLimitError
from hompoisson.linalg import LinearMap, Vector
from hompoisson.poisson_poly import LiePoissonStructure, Substitution, SymplecticStructure

from _oracles import mat_mul, random_rational, unit_matrix, vec_of_mat


def test_every_entry_passes_advertised_checks():
    for name in CATALOG:
        obj = build_catalog(name)
        reports = entry_reports(name, obj)
        assert reports and all(r.passed for r in reports), name


def test_build_catalog_params_and_errors():
    p = build_catalog("heisenberg-p31", {"zeta": Fraction(1, 2)})
    assert p.mu.entry(0, 1, 2) == Fraction(1, 2)
    m = build_catalog("matrix", {"n": 3})
    assert m.dim == 9
    with pytest.raises(HomPoissonError):
        build_catalog("nope")
    with pytest.raises(HomPoissonError):
        build_catalog("heisenberg-p32", {"zeta": 1})
    with pytest.raises(HomPoissonError):
        build_catalog("matrix", {"n": Fraction(5, 2)})


def test_entry_kinds():
    assert isinstance(build_catalog("heisenberg-p31"), HomPoissonAlgebra)
    assert isinstance(build_catalog("heisenberg-p32"), HomPoissonAlgebra)
    assert isinstance(build_catalog("matrix"), HomAlgebra)
    assert isinstance(build_catalog("sl2-linear-poisson"), LiePoissonStructure)
    assert isinstance(build_catalog("symplectic", {"n": 2}), SymplecticStructure)
    assert isinstance(build_catalog("free-poly"), Substitution)


def test_p31_structure():
    p0 = heisenberg_p31(0)
    assert p0.mu.is_zero()
    assert p0.bracket.pair_vector(0, 1) == Vector.of(0, 0, 1)
    p = heisenberg_p31(1)
    assert p.mu.pair_vector(0, 1) == Vector.of(0, 0, 1)
    assert p.mu.pair_vector(1, 0) == Vector.of(0, 0, 1)
    assert p.mu.pair_vector(0, 0).is_zero()


def test_p32_structure():
    p = heisenberg_p32()
    assert p.mu.pair_vector(0, 0) == Vector.of(0, 0, 1)
    assert sum(1 for _ in p.mu.items()) == 1


def test_matrix_products_against_dense_oracle():
    for n in (2, 3):
        alg = matrix_algebra(n)
        for a, b in itertools.product(range(n), repeat=2):
            for c, d in itertools.product(range(n), repeat=2):
                left = vec_of_mat(mat_mul(unit_matrix(n, a, b), unit_matrix(n, c, d)))
                got = alg.mu.contract(vec_of_mat(unit_matrix(n, a, b)),
                                      vec_of_mat(unit_matrix(n, c, d)))
                assert got == left


def test_matrix_basis_names():
    assert matrix_algebra(2).basis == ("E11", "E12", "E21", "E22")
    assert matrix_algebra(9).basis[-1] == "E99"
    big = matrix_algebra(11)
    assert big.dim == 121 and len(set(big.basis)) == 121
    assert big.basis[:2] == ("E1_1", "E1_2") and "E1_11" in big.basis and "E11_1" in big.basis
    assert matrix_algebra(10).basis[-1] == "E10_10"


def test_matrix_size_is_refused_before_building(monkeypatch):
    # n^3 = 10^15 structure constants: refused at once, nothing is built
    with pytest.raises(ResourceLimitError, match=r"n\^3 = 1000000000000000 .*budget: 1000000"):
        matrix_algebra(10 ** 5)
    with pytest.raises(ValueError):
        matrix_algebra(0)
    monkeypatch.setattr(catalog, "MAX_ENTRIES", 8)
    assert matrix_algebra(2).dim == 4
    with pytest.raises(ResourceLimitError):
        matrix_algebra(3)


def test_heisenberg_morphism_is_bracket_morphism():
    lie = HomPoissonAlgebra(
        basis=("X", "Y", "Z"),
        bracket=heisenberg_p31(0).bracket,
        mu=heisenberg_p31(0).mu,
        alpha=LinearMap.identity(3),
    )
    rng = random.Random(13)
    for _ in range(25):
        params = [random_rational(rng) for _ in range(6)]
        m = heisenberg_morphism(*params)
        assert check_morphism(m, lie, lie).passed
    zero = heisenberg_morphism(0, 0, 0, 0, 0, 0)
    assert zero == LinearMap.zero(3)


def test_heisenberg_morphism_center_coefficient():
    m = heisenberg_morphism(2, 3, 4, 5, 6, 7)
    assert m.entry(2, 2) == 2 * 5 - 4 * 3
    assert m.column(0) == Vector.of(2, 4, 6)
    assert m.column(1) == Vector.of(3, 5, 7)


def test_lie_structures_validate():
    sl2 = sl2_linear_poisson()
    assert sl2.generators == ("e", "f", "h")
    hei = heisenberg_linear_poisson()
    assert hei.constants.entry(0, 1, 2) == 1
