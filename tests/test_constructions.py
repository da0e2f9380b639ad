import itertools
import random
from fractions import Fraction

import pytest

from hompoisson.algebra import (
    HomAlgebra,
    HomPoissonAlgebra,
    check_hom_poisson,
    check_morphism,
    check_multiplicative,
    cyclic_associator_sum,
    hom_jacobian,
    hom_leibniz_residual,
)
from hompoisson.catalog import (
    conjugation_morphism,
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
)
from hompoisson.constructions import (
    beta_twisting,
    check_admissible,
    check_hom_flexible,
    commutator_poisson,
    depolarize,
    derived,
    is_trivial_twisting,
    nonrigidity_witness,
    polarize,
    tensor,
    twist,
    verify_isomorphism,
    yau_twist,
)
from hompoisson.errors import PreconditionError, SingularMatrixError
from hompoisson.linalg import LinearMap, Trilinear, Vector
from hompoisson.witnesses import general_heisenberg_maps

from _oracles import (apply, dense_matrix, dense_tensor, mat_mul, mat_sub, random_map, random_tensor, unit_matrix,
                      vec_of_mat)


def nonassociative_algebra():
    # x*x = y, y*x = z with identity twist: (xx)x = z but x(xx) = 0
    return HomAlgebra(
        basis=("x", "y", "z"),
        mu=Trilinear(3, {(0, 0, 1): 1, (1, 0, 2): 1}),
        alpha=LinearMap.identity(3),
    )


CATALOG_COMMUTATIVE = [
    ("p31(0)", lambda: heisenberg_p31(0)),
    ("p31(1)", lambda: heisenberg_p31(1)),
    ("p31(1/2)", lambda: heisenberg_p31(Fraction(1, 2))),
    ("p32", lambda: heisenberg_p32()),
    ("p31(1) twisted", lambda: twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))),
    ("p32 twisted", lambda: twist(heisenberg_p32(), heisenberg_morphism(2, 0, 0, 2))),
    ("tensor", lambda: tensor(heisenberg_p31(1), heisenberg_p31(1))),
]


# ---------------------------------------------------------------------------
# Commutator structure
# ---------------------------------------------------------------------------

def test_commutator_zero_for_commutative():
    alg = commutator_poisson(
        HomAlgebra(basis=("u",), mu=Trilinear(1, {(0, 0, 0): 1}), alpha=LinearMap.identity(1)))
    assert alg.bracket.is_zero()
    assert alg.commutative


def test_commutator_matrix_units_oracle():
    alg = commutator_poisson(matrix_algebra(2))
    e11, e12 = unit_matrix(2, 0, 0), unit_matrix(2, 0, 1)
    oracle = mat_sub(mat_mul(e11, e12), mat_mul(e12, e11))
    assert alg.bracket.contract(vec_of_mat(e11), vec_of_mat(e12)) == vec_of_mat(oracle)
    assert vec_of_mat(oracle) == vec_of_mat(e12)


def test_commutator_m3_passes_suite():
    alg = commutator_poisson(matrix_algebra(3))
    assert check_hom_poisson(alg).passed
    assert not alg.commutative


def test_commutator_requires_associativity():
    with pytest.raises(PreconditionError) as exc:
        commutator_poisson(nonassociative_algebra())
    assert exc.value.report is not None and not exc.value.report.passed


# ---------------------------------------------------------------------------
# Twistings
# ---------------------------------------------------------------------------

def test_twist_by_identity_is_identity():
    p = heisenberg_p31(1)
    t = twist(p, LinearMap.identity(3))
    assert t.bracket == p.bracket and t.mu == p.mu and t.alpha == p.alpha


def test_twist_values_match_worked_examples():
    t = twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))
    assert t.mu.pair_vector(0, 1) == Vector.of(0, 0, 6)
    assert t.bracket.pair_vector(0, 1) == Vector.of(0, 0, 6)
    t2 = twist(heisenberg_p32(), heisenberg_morphism(2, 0, 0, 2))
    assert t2.mu.pair_vector(0, 0) == Vector.of(0, 0, 4)
    assert t2.bracket.pair_vector(0, 1) == Vector.of(0, 0, 4)


def test_twist_rejects_non_morphism():
    p = heisenberg_p31(1)
    bad = heisenberg_morphism(1, 1, 1, 1)
    with pytest.raises(PreconditionError):
        twist(p, bad)
    forced = twist(p, bad, force=True)
    assert isinstance(forced, HomPoissonAlgebra)


def test_twist_closure_and_multiplicativity():
    p = heisenberg_p31(1)
    beta = heisenberg_morphism(2, 0, 0, 3, 1, Fraction(-1, 2))
    t = twist(p, beta)
    assert check_hom_poisson(t).passed
    assert check_multiplicative(t).passed


def test_derived_sequence():
    t = twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))
    d0 = derived(t, 0)
    assert d0.bracket == t.bracket and d0.mu == t.mu and d0.alpha == t.alpha
    d1 = derived(t, 1)
    again = twist(t, t.alpha)
    assert d1.bracket == again.bracket and d1.mu == again.mu and d1.alpha == again.alpha
    d2 = derived(t, 2)
    a2 = t.alpha.power(2)
    assert d2.bracket == t.bracket.map_outputs(a2)
    assert d2.mu == t.mu.map_outputs(a2)
    assert d2.alpha == t.alpha.power(3)
    assert check_hom_poisson(d2).passed and check_multiplicative(d2).passed


def test_derived_requires_multiplicative():
    import dataclasses
    p = heisenberg_p31(1)
    swap = LinearMap(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    bad = dataclasses.replace(p, alpha=swap)
    with pytest.raises(PreconditionError):
        derived(bad, 1)


def test_yau_twist():
    p = heisenberg_p31(1)
    assert yau_twist(p, LinearMap.identity(3)).mu == p.mu
    zeroed = yau_twist(p, LinearMap.zero(3))
    assert zeroed.mu.is_zero() and zeroed.bracket.is_zero()
    t = yau_twist(p, heisenberg_morphism(2, 0, 0, 3))
    assert t.alpha == heisenberg_morphism(2, 0, 0, 3)
    assert check_multiplicative(t).passed
    with pytest.raises(PreconditionError):
        yau_twist(t, LinearMap.identity(3))  # twisting map is no longer the identity


def test_beta_twisting_triviality():
    p = heisenberg_p31(1)
    trivial = beta_twisting(p, LinearMap.zero(3))
    assert is_trivial_twisting(trivial)
    # a12 != 0 family kills the center, so both twisted tensors vanish
    alpha2 = heisenberg_morphism(0, 2, 0, 0)
    t = beta_twisting(p, alpha2)
    assert is_trivial_twisting(t)
    rich = beta_twisting(p, heisenberg_morphism(2, 0, 0, 3))
    assert not is_trivial_twisting(rich)
    assert rich.result.alpha.is_identity()


def _twisting_inputs():
    """Each input of the beta-twisting oracle test with the maps it is twisted by:
    the zero map, the identity and a seeded sample of the rigidity grid maps."""
    grid = random.Random(14).sample(general_heisenberg_maps(), 24)
    for algebra in (heisenberg_p31(0), heisenberg_p31(1), heisenberg_p31(Fraction(1, 2)), heisenberg_p32()):
        yield algebra, [LinearMap.zero(3), LinearMap.identity(3), *grid]
    matrix = commutator_poisson(matrix_algebra(2))
    yield matrix, [LinearMap.zero(4), LinearMap.identity(4), conjugation_morphism(2), LinearMap.diagonal([1, 2, 3, 4])]


def test_beta_twisting_matches_the_direct_construction():
    """beta_twisting refuses exactly the maps that are not self-morphisms, and
    otherwise its result is beta composed with each dense operation."""
    refused = built = 0
    for algebra, maps in _twisting_inputs():
        for beta in maps:
            if not check_morphism(beta, algebra, algebra).passed:
                with pytest.raises(PreconditionError):
                    beta_twisting(algebra, beta)
                refused += 1
                continue
            result = beta_twisting(algebra, beta).result
            b = dense_matrix(beta)
            for name in ("bracket", "mu"):
                expected = [[apply(b, col) for col in row] for row in dense_tensor(getattr(algebra, name))]
                assert dense_tensor(getattr(result, name)) == expected
            assert result.alpha.is_identity() and result.basis == algebra.basis
            assert result.commutative == algebra.commutative
            built += 1
    assert refused and built


def test_beta_twisting_sweeps_only_the_operations(monkeypatch):
    """With the identity as both twisting maps, beta_twisting checks the two
    operations and not the always-passing twisting-map condition."""
    import hompoisson.algebra as algebra_module
    swept = []
    real = algebra_module.sweep

    def counting(identity, *args):
        swept.append(identity)
        return real(identity, *args)

    monkeypatch.setattr(algebra_module, "sweep", counting)
    beta_twisting(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))
    assert swept == ["morphism[mu]", "morphism[bracket]"]
    swept.clear()
    with pytest.raises(PreconditionError) as err:
        beta_twisting(heisenberg_p31(1), LinearMap.diagonal([1, 2, 3]))
    assert err.value.report.identity == "weak-morphism"
    assert [leaf.identity for leaf in err.value.report.flat()] == swept == ["morphism[mu]", "morphism[bracket]"]


def test_beta_twisting_refuses_a_twisted_input():
    t = twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))
    with pytest.raises(PreconditionError):
        beta_twisting(t, LinearMap.identity(3))


def test_verify_isomorphism_scaled_center():
    p = heisenberg_p31(0)
    for b_map in (heisenberg_morphism(2, 0, 0, 3), heisenberg_morphism(1, 2, 3, 1)):
        t = beta_twisting(p, b_map)
        b = b_map.entry(2, 2)
        assert b != 0
        f = LinearMap.diagonal((1, 1, b))
        assert verify_isomorphism(f, p, t.result).passed


def test_verify_isomorphism_singular_fails_with_kernel():
    p = heisenberg_p31(0)
    f = LinearMap.diagonal((1, 1, 0))
    rep = verify_isomorphism(f, p, p)
    assert not rep.passed
    kernel = rep.parts[0].witnesses[0].residual
    assert f.apply(kernel).is_zero() and not kernel.is_zero()


@pytest.fixture
def eliminations(monkeypatch):
    """The ``ncols`` of each ``linalg._eliminate`` call, in order."""
    from hompoisson import linalg

    calls, eliminate = [], linalg._eliminate

    def counted(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    return calls


def test_one_elimination_per_map(eliminations):
    """A singular candidate is eliminated once: the failed inverse and the
    kernel-vector witness read the same reduced rows, and the report is the
    one two eliminations gave."""
    p = heisenberg_p31(1)
    rep = verify_isomorphism(LinearMap.diagonal((1, 1, 0)), p, p)
    assert len(eliminations) == 1
    assert rep.as_dict() == {
        "identity": "isomorphism", "passed": False,
        "witnesses": [{"indices": [], "residual": ["0", "0", "1"]}],
        "parts": [{"identity": "isomorphism[invertible]", "passed": False,
                   "witnesses": [{"indices": [], "residual": ["0", "0", "1"]}]}]}
    singular = LinearMap([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrixError):
        singular.invert()
    assert singular.kernel_vector() == Vector.of(-2, 1, 0)
    invertible = heisenberg_morphism(2, 0, 0, 3)
    assert invertible.invert().compose(invertible) == LinearMap.identity(3)
    assert invertible.kernel_vector() is None
    assert eliminations == [3, 3, 3]


def test_nonrigidity_witness_zero_for_identity_twist():
    p = commutator_poisson(matrix_algebra(2))
    x = vec_of_mat(unit_matrix(2, 0, 1))
    assert nonrigidity_witness(p, LinearMap.identity(4), (x, x, x), op="mu").is_zero()
    assert nonrigidity_witness(p, LinearMap.identity(4), (x, x, x), op="bracket").is_zero()


def test_nonrigidity_witness_conjugation():
    p = commutator_poisson(matrix_algebra(2))
    beta = conjugation_morphism(2)
    x = vec_of_mat(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    res = nonrigidity_witness(p, beta, (x, x, beta.apply(x)), op="mu")
    assert not res.is_zero()


def test_nonrigidity_witness_rejects_unknown_op_before_the_morphism_check():
    # beta is not a morphism, so checking it first would raise PreconditionError
    p = commutator_poisson(matrix_algebra(2))
    x = vec_of_mat(unit_matrix(2, 0, 1))
    with pytest.raises(ValueError, match="op must be 'mu' or 'bracket'") as err:
        nonrigidity_witness(p, LinearMap.diagonal([1, 2, 3, 4]), (x, x, x), op="bogus")
    assert type(err.value) is ValueError


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def unital_line():
    return HomPoissonAlgebra(
        basis=("u",), bracket=Trilinear.zero(1), mu=Trilinear(1, {(0, 0, 0): 1}),
        alpha=LinearMap.identity(1), commutative=True)


def test_tensor_with_unital_line_reproduces_factor():
    p = heisenberg_p31(1)
    t = tensor(p, unital_line())
    assert t.dim == 3
    assert t.mu == p.mu and t.bracket == p.bracket and t.alpha == p.alpha
    assert t.basis == ("X⊗u", "Y⊗u", "Z⊗u")


def test_tensor_nine_dimensional_suite():
    t = tensor(heisenberg_p31(1), heisenberg_p31(1))
    assert t.dim == 9
    assert check_hom_poisson(t).passed
    assert t.alpha.is_identity()


def test_tensor_bracket_oracle():
    p = heisenberg_p31(1)
    t = tensor(p, p)
    d2 = 3
    idx = lambda i, j: i * d2 + j
    xx = Vector.unit(9, idx(0, 0))
    yy = Vector.unit(9, idx(1, 1))
    got = t.bracket.contract(xx, yy)
    # oracle: {X,Y} (x) XY + XY (x) {X,Y} = Z (x) Z + Z (x) Z
    expected = [Fraction(0)] * 9
    zz = idx(2, 2)
    expected[zz] = Fraction(2)
    assert got == Vector(tuple(expected))


def test_tensor_rejects_non_commutative():
    m2 = commutator_poisson(matrix_algebra(2))
    with pytest.raises(PreconditionError):
        tensor(m2, heisenberg_p31(1))
    lying = HomPoissonAlgebra(basis=m2.basis, bracket=m2.bracket, mu=m2.mu,
                              alpha=m2.alpha, commutative=True)
    with pytest.raises(PreconditionError):
        tensor(lying, heisenberg_p31(1))


def test_tensor_of_twists():
    p = heisenberg_p31(1)
    t = twist(p, heisenberg_morphism(2, 0, 0, 3))
    prod = tensor(p, t)
    assert check_hom_poisson(prod).passed


def test_tensor_closure_over_catalog_pairs():
    factors = [heisenberg_p31(0), heisenberg_p31(1), heisenberg_p32(), unital_line()]
    for a, b in itertools.product(factors, repeat=2):
        assert check_hom_poisson(tensor(a, b)).passed


# ---------------------------------------------------------------------------
# Polarization / depolarization
# ---------------------------------------------------------------------------

def test_polarize_commutative_is_inert():
    alg = HomAlgebra(basis=("u",), mu=Trilinear(1, {(0, 0, 0): 1}), alpha=LinearMap.identity(1))
    p = polarize(alg)
    assert p.bracket.is_zero() and p.mu == alg.mu and p.commutative


def test_polarize_matrix_algebra_oracle():
    alg = matrix_algebra(2)
    p = polarize(alg)
    half = Fraction(1, 2)
    e11, e12 = unit_matrix(2, 0, 0), unit_matrix(2, 0, 1)

    def halves(a, b):
        prod, rev = mat_mul(a, b), mat_mul(b, a)
        anti = tuple(tuple(half * (x - y) for x, y in zip(r1, r2)) for r1, r2 in zip(prod, rev))
        sym = tuple(tuple(half * (x + y) for x, y in zip(r1, r2)) for r1, r2 in zip(prod, rev))
        return anti, sym

    anti, sym = halves(e11, e12)
    assert p.bracket.contract(vec_of_mat(e11), vec_of_mat(e12)) == vec_of_mat(anti)
    assert p.mu.contract(vec_of_mat(e11), vec_of_mat(e12)) == vec_of_mat(sym)


def test_depolarize_values():
    d = depolarize(heisenberg_p31(1))
    assert d.mu.pair_vector(0, 1) == Vector.of(0, 0, 2)
    assert d.mu.pair_vector(1, 0) == Vector.of(0, 0, 0)
    z = depolarize(HomPoissonAlgebra(basis=("u",), bracket=Trilinear.zero(1),
                                     mu=Trilinear(1, {(0, 0, 0): 1}),
                                     alpha=LinearMap.identity(1), commutative=True))
    assert z.mu == Trilinear(1, {(0, 0, 0): 1})


@pytest.mark.parametrize("name,builder", CATALOG_COMMUTATIVE)
def test_round_trips_exact(name, builder):
    alg = builder()
    assert polarize(depolarize(alg)) == alg
    single = depolarize(alg)
    assert depolarize(polarize(single)) == single


@pytest.mark.parametrize("name,builder", CATALOG_COMMUTATIVE)
def test_depolarizations_admissible_flexible_cyclic(name, builder):
    single = depolarize(builder())
    assert check_admissible(single).passed
    assert check_hom_flexible(single).passed
    for i, j, k in itertools.product(range(single.dim), repeat=3):
        args = tuple(Vector.unit(single.dim, n) for n in (i, j, k))
        assert cyclic_associator_sum(single, *args).is_zero()


def test_admissibility_iff_polarization_poisson():
    good = depolarize(heisenberg_p31(1))
    assert check_admissible(good).passed
    assert check_hom_poisson(polarize(good)).passed
    corrupted = HomAlgebra(basis=good.basis,
                           mu=good.mu.with_entry(0, 0, 1, Fraction(1)),
                           alpha=good.alpha)
    assert not check_admissible(corrupted).passed
    assert not check_hom_poisson(polarize(corrupted)).passed


def test_flexibility_failure_detected():
    rep = check_hom_flexible(nonassociative_algebra())
    assert not rep.passed and rep.witnesses


def test_polarize_depolarize_preserve_multiplicativity():
    t = twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))
    assert check_multiplicative(t).passed
    single = depolarize(t)
    assert check_multiplicative(single).passed
    assert check_multiplicative(polarize(single)).passed


# ---------------------------------------------------------------------------
# Unconditional polarization identities on random structure constants
# ---------------------------------------------------------------------------

def test_polarized_jacobian_six_term_identity_random():
    # 4 J_P(x,y,z) = as(x,y,z) + as(z,x,y) + as(y,z,x)
    #              - as(y,x,z) - as(z,y,x) - as(x,z,y)  for any product
    rng = random.Random(42)
    from hompoisson.algebra import hom_associator
    for _ in range(10):
        alg = HomAlgebra(basis=("a", "b", "c"), mu=random_tensor(rng, 3),
                         alpha=random_map(rng, 3))
        pol = polarize(alg)
        for _ in range(3):
            trip = tuple(Vector.unit(3, rng.randrange(3)) for _ in range(3))
            x, y, z = trip
            lhs = 4 * hom_jacobian(pol, x, y, z)
            rhs = (hom_associator(alg, x, y, z) + hom_associator(alg, z, x, y)
                   + hom_associator(alg, y, z, x) - hom_associator(alg, y, x, z)
                   - hom_associator(alg, z, y, x) - hom_associator(alg, x, z, y))
            assert lhs == rhs


def test_polarized_leibniz_six_term_identity_random():
    # 4 ({x,y} . a(z) + a(y) . {x,z} - {a(x), y . z})
    #   = as(x,y,z) + as(z,y,x) + as(x,z,y) + as(y,z,x) - as(y,x,z) - as(z,x,y)
    # The defect must be oriented as minus the Leibniz residual for the
    # six-term combination to balance; exact expansion fixes the sign.
    rng = random.Random(43)
    from hompoisson.algebra import hom_associator
    for _ in range(10):
        alg = HomAlgebra(basis=("a", "b", "c"), mu=random_tensor(rng, 3),
                         alpha=random_map(rng, 3))
        pol = polarize(alg)
        for _ in range(3):
            x, y, z = (Vector.unit(3, rng.randrange(3)) for _ in range(3))
            lhs = -4 * hom_leibniz_residual(pol, x, y, z)
            rhs = (hom_associator(alg, x, y, z) + hom_associator(alg, z, y, x)
                   + hom_associator(alg, x, z, y) + hom_associator(alg, y, z, x)
                   - hom_associator(alg, y, x, z) - hom_associator(alg, z, x, y))
            assert lhs == rhs
