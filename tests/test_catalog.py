import itertools
import random
import re
from fractions import Fraction

import pytest

from hompoisson import catalog
from hompoisson.algebra import HomAlgebra, HomPoissonAlgebra, check_morphism
from hompoisson.catalog import (
    CATALOG,
    HEISENBERG_BASIS,
    HEISENBERG_BRACKET,
    build_catalog,
    conjugation_morphism,
    entry_reports,
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
    sl2_linear_poisson,
    symplectic_space,
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
    # a bool is refused by name: n=True used to build the 1x1 algebra, zeta=True zeta = 1
    for name, key, value in (("matrix", "n", True), ("heisenberg-p31", "zeta", True), ("symplectic", "n", False)):
        with pytest.raises(HomPoissonError, match=re.escape(f"parameter {key} must be a number, got {value!r}")):
            build_catalog(name, {key: value})


def test_entry_kinds():
    assert isinstance(build_catalog("heisenberg-p31"), HomPoissonAlgebra)
    assert isinstance(build_catalog("heisenberg-p32"), HomPoissonAlgebra)
    assert isinstance(build_catalog("matrix"), HomAlgebra)
    assert isinstance(build_catalog("sl2-linear-poisson"), LiePoissonStructure)
    assert isinstance(build_catalog("symplectic", {"n": 2}), SymplecticStructure)
    assert isinstance(build_catalog("free-poly"), Substitution)


E = [Vector.unit(3, i) for i in range(3)]


def test_p31_structure():
    p0 = heisenberg_p31(0)
    assert p0.mu.is_zero()
    assert p0.bracket.contract(E[0], E[1]) == Vector.of(0, 0, 1)
    p = heisenberg_p31(1)
    assert p.mu.contract(E[0], E[1]) == Vector.of(0, 0, 1)
    assert p.mu.contract(E[1], E[0]) == Vector.of(0, 0, 1)
    assert p.mu.contract(E[0], E[0]).is_zero()


def test_p32_structure():
    p = heisenberg_p32()
    assert p.mu.contract(E[0], E[0]) == Vector.of(0, 0, 1)
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


def test_matrix_check_is_priced_before_it_runs(monkeypatch):
    # n = 60 is within the entry budget (216000 constants), but its
    # hom-associativity sweep would form 2n^4 = 25920000 products
    def unchecked(algebra):
        raise AssertionError(f"hom-associativity of dim {algebra.dim} checked")

    monkeypatch.setattr(catalog, "check_hom_associative", unchecked)
    with pytest.raises(ResourceLimitError, match=r"n=60 has .* 2n\^4 = 25920000 products \(budget: 2000000\)"):
        catalog.entry_reports("matrix", build_catalog("matrix", {"n": 60}))
    assert matrix_algebra(31).dim == 961  # 2n^4 = 1847042
    with pytest.raises(ResourceLimitError):
        matrix_algebra(32)


def test_symplectic_size_is_refused_before_building(monkeypatch):
    from hompoisson import poisson_poly

    # (2n)^3 = 8 * 10^18 bracket terms: refused at once, nothing is built
    def unbuilt(n):
        raise AssertionError(f"SymplecticStructure({n}) built")

    monkeypatch.setattr(poisson_poly, "SymplecticStructure", unbuilt)
    with pytest.raises(ResourceLimitError, match=r"n=1000000 has \(2n\)\^3 = 8000000000000000000 .*budget: 1000000"):
        build_catalog("symplectic", {"n": 10 ** 6})
    monkeypatch.undo()
    monkeypatch.setattr(catalog, "MAX_ENTRIES", 64)
    assert build_catalog("symplectic", {"n": 2}).n == 2
    with pytest.raises(ResourceLimitError):
        build_catalog("symplectic", {"n": 3})


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
    assert zero == LinearMap.diagonal([0] * 3)


def test_heisenberg_morphism_center_coefficient():
    m = heisenberg_morphism(2, 3, 4, 5, 6, 7)
    assert m.entry(2, 2) == 2 * 5 - 4 * 3
    assert m.apply(E[0]) == Vector.of(2, 4, 6)
    assert m.apply(E[1]) == Vector.of(3, 5, 7)


def test_lie_structures_validate():
    sl2 = sl2_linear_poisson()
    assert sl2.generators == ("e", "f", "h")
    hei = LiePoissonStructure(HEISENBERG_BASIS, HEISENBERG_BRACKET)
    assert hei.constants.entry(0, 1, 2) == 1


def test_conjugation_parameter_must_be_nonzero():
    with pytest.raises(ValueError, match="top must be nonzero"):
        conjugation_morphism(2, top=0)


@pytest.mark.parametrize("n", [0, -2])
def test_conjugation_size_must_be_positive(n):
    with pytest.raises(ValueError, match="at least one entry"):
        conjugation_morphism(n)


@pytest.mark.parametrize("n", [2.5, Fraction(3), True])
@pytest.mark.parametrize("builder", [matrix_algebra, conjugation_morphism])
def test_size_must_be_an_int(builder, n):
    with pytest.raises(TypeError, match=re.escape(f"matrix size n={n!r} is not an int")):
        builder(n)


def test_build_catalog_refuses_a_float_size():
    # it used to truncate 2.5 to 2 and build the 2x2 matrix algebra
    with pytest.raises(TypeError, match="cannot interpret 2.5 as an exact rational"):
        build_catalog("matrix", {"n": 2.5})


@pytest.mark.parametrize("n", [2.5, Fraction(2), True])
@pytest.mark.parametrize("builder", [symplectic_space, SymplecticStructure])
def test_symplectic_size_must_be_an_int(builder, n):
    # 2.5 used to die in a bare TypeError from ``range``
    with pytest.raises(TypeError, match=re.escape(f"half-dimension n={n!r} is not an int")):
        builder(n)
