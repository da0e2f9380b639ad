"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is literal zero: all arithmetic is exact rationals.
"""

import dataclasses
import functools
import itertools
import json
import random
from fractions import Fraction

from hompoisson.algebra import (
    HomAlgebra,
    check_hom_poisson,
    check_morphism,
    check_multiplicative,
    cyclic_associator_sum,
    hom_associator,
    hom_jacobian,
    hom_leibniz_residual,
)
from hompoisson.catalog import (
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
    sl2_linear_poisson,
    sl2_scaling,
    free_poly_shift,
)
from hompoisson.cli import run_command
from hompoisson.constructions import (
    check_admissible,
    check_hom_flexible,
    commutator_poisson,
    depolarize,
    polarize,
    tensor,
    twist,
)
from hompoisson.hompower import check_criterion_34, check_nth_power_assoc
from hompoisson.linalg import Vector
from hompoisson.poisson_poly import (
    Substitution,
    manifold_nonrigidity_check,
    translation,
    twisted_associator,
)
from hompoisson.poly import Polynomial
from hompoisson.specfile import emit_spec, parse_spec
from hompoisson.witnesses import (
    GRID,
    heisenberg_morphism_family,
    heisenberg_rigidity_replay,
)

from _oracles import random_map, random_tensor


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {title}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {title}")
        return run
    return wrap


# ---------------------------------------------------------------------------

@criterion(1, "commutator structure on matrix algebras passes the full suite")
def test_criterion_1_commutator_matrix():
    for n in (2, 3):
        algebra = commutator_poisson(matrix_algebra(n))
        report = check_hom_poisson(algebra)
        assert report.passed
        assert [p.identity for p in report.parts] == [
            "antisymmetry", "hom-jacobi", "hom-associative", "hom-leibniz"]
        assert not algebra.commutative


@criterion(2, "tensor products pass; a targeted corruption fails exactly one identity")
def test_criterion_2_tensor_products():
    p = heisenberg_p31(1)
    squared = tensor(p, p)
    assert squared.dim == 9
    assert check_hom_poisson(squared).passed

    twisted = twist(p, heisenberg_morphism(2, 0, 0, 3))
    mixed = tensor(p, twisted)
    assert mixed.dim == 9
    assert check_hom_poisson(mixed).passed

    # corrupt one structure constant: bracket(X(x)X, X(x)X) gains Z(x)Z.
    # Z(x)Z is central and annihilates products, so only antisymmetry breaks.
    i_xx, i_zz = 0, 8
    corrupt = dataclasses.replace(
        squared, bracket=squared.bracket.with_entry(i_xx, i_xx, i_zz, 1))
    report = check_hom_poisson(corrupt)
    assert not report.passed
    outcomes = {p.identity: p.passed for p in report.parts}
    assert outcomes == {"antisymmetry": False, "hom-jacobi": True,
                        "hom-associative": True, "hom-leibniz": True,
                        "commutative": True}
    anti = next(p for p in report.parts if p.identity == "antisymmetry")
    assert anti.witnesses and anti.witnesses[0].indices == (i_xx, i_xx)


@criterion(3, "every verified grid morphism twists to a multiplicative algebra")
def test_criterion_3_twist_closure():
    targets = {
        "alpha1": heisenberg_p31(1), "alpha2": heisenberg_p31(1),
        "alpha3": heisenberg_p31(1),
        "alpha4": heisenberg_p32(), "alpha5": heisenberg_p32(),
    }
    assert GRID == (Fraction(-2), Fraction(-1), Fraction(0),
                    Fraction(1, 2), Fraction(1), Fraction(2))
    for family, algebra in targets.items():
        verified = 0
        for beta in heisenberg_morphism_family(family):
            if not check_morphism(beta, algebra, algebra).passed:
                continue
            verified += 1
            twisted = twist(algebra, beta, force=True)
            assert check_hom_poisson(twisted).passed, (family, beta)
            assert check_multiplicative(twisted).passed, (family, beta)
        assert verified > 0, family


@criterion(4, "shifted polynomial product has associator residual exactly X + 2")
def test_criterion_4_free_poly_witness():
    sub = free_poly_shift()
    x = Polynomial.var(("X",), "X")
    residual = twisted_associator(sub, x, x, sub(x))
    assert residual == x + 2
    assert not residual.is_zero()


@criterion(5, "scaled twist associator equals (lam^2 - lam) e h^2, zero only at 0 and 1")
def test_criterion_5_sl2_witness():
    struct = sl2_linear_poisson()
    e, f, h = (struct.variable(g) for g in struct.generators)
    for lam in (2, 3, Fraction(1, 2), 0, 1):
        lam = Fraction(lam)
        if lam != 0:
            sub = sl2_scaling(lam)
        else:
            sub = Substitution({"e": 0 * e, "f": f, "h": h})
        residual = twisted_associator(sub, e, h, h)
        assert residual == (lam * lam - lam) * e * h * h
        assert residual.is_zero() == (lam in (0, 1))


@criterion(6, "translation probe reports trace 2c_i and determinant c_i^2")
def test_criterion_6_translation_probe():
    from hompoisson.poisson_poly import SymplecticStructure
    struct = SymplecticStructure(2)
    origin = {g: 0 for g in struct.generators}
    f = struct.variable("x1")
    for ci in (1, Fraction(3, 2), -2):
        ci = Fraction(ci)
        phi = translation(struct, (ci, 1, -1, Fraction(1, 2)))
        probe = manifold_nonrigidity_check(struct, phi, f, origin)
        assert probe.trace == 2 * ci
        assert probe.determinant == ci * ci
        assert probe.non_rigid


@criterion(7, "every grid twisting is trivial or isomorphic via Z -> bZ; no third outcome")
def test_criterion_7_rigidity_replay():
    result = heisenberg_rigidity_replay()
    assert result.passed
    assert len(result.cases) == 4  # three XY-product cases plus the X^2 product
    for case in result.cases:
        assert not case.failures
        assert case.trivial > 0 and case.isomorphic > 0


@criterion(8, "polarization bijection is exact; corruption breaks both sides together")
def test_criterion_8_polarization():
    catalog = [
        heisenberg_p31(0), heisenberg_p31(1), heisenberg_p31(Fraction(1, 2)),
        heisenberg_p32(),
        twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3)),
        twist(heisenberg_p32(), heisenberg_morphism(2, 0, 0, 2)),
        tensor(heisenberg_p31(1), heisenberg_p31(1)),
    ]
    for algebra in catalog:
        single = depolarize(algebra)
        assert polarize(single) == algebra
        assert depolarize(polarize(single)) == single
        assert check_admissible(single).passed
    single = depolarize(heisenberg_p31(1))
    corrupt = HomAlgebra(basis=single.basis,
                         mu=single.mu.with_entry(0, 0, 1, 1),
                         alpha=single.alpha)
    admissible = check_admissible(corrupt)
    poisson = check_hom_poisson(polarize(corrupt))
    assert not admissible.passed and not poisson.passed


@criterion(9, "six-term polarization identities hold on 50 random products")
def test_criterion_9_random_identities():
    rng = random.Random(2024)
    for _ in range(50):
        algebra = HomAlgebra(basis=("a", "b", "c"),
                             mu=random_tensor(rng, 3, fill=0.6),
                             alpha=random_map(rng, 3))
        pol = polarize(algebra)
        for i, j, k in itertools.product(range(3), repeat=3):
            x, y, z = (Vector.unit(3, n) for n in (i, j, k))
            a = lambda p, q, r: hom_associator(algebra, p, q, r)
            # polarized Jacobian identity, as displayed
            assert 4 * hom_jacobian(pol, x, y, z) == (
                a(x, y, z) + a(z, x, y) + a(y, z, x)
                - a(y, x, z) - a(z, y, x) - a(x, z, y))
            # polarized Leibniz identity; the defect is minus the residual
            # (sign fixed by exact expansion, see the decisions ledger)
            assert -4 * hom_leibniz_residual(pol, x, y, z) == (
                a(x, y, z) + a(z, y, x) + a(x, z, y)
                + a(y, z, x) - a(y, x, z) - a(z, x, y))
    # admissible inputs: flexibility and the vanishing cyclic associator sum
    for algebra in (depolarize(heisenberg_p31(1)), depolarize(heisenberg_p32()),
                    depolarize(twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3)))):
        assert check_admissible(algebra).passed
        assert check_hom_flexible(algebra).passed
        for i, j, k in itertools.product(range(3), repeat=3):
            x, y, z = (Vector.unit(3, n) for n in (i, j, k))
            assert cyclic_associator_sum(algebra, x, y, z).is_zero()


@criterion(10, "depolarized catalog algebras are power associative to n = 6")
def test_criterion_10_power_associativity():
    builders = [
        heisenberg_p31(0), heisenberg_p31(1), heisenberg_p31(Fraction(1, 2)),
        heisenberg_p32(),
        twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3)),
        twist(heisenberg_p32(), heisenberg_morphism(2, 0, 0, 2)),
    ]
    for algebra in builders:
        assert check_multiplicative(algebra).passed
        single = depolarize(algebra)
        assert check_multiplicative(single).passed
        assert check_criterion_34(single).passed
        for n in range(3, 7):
            assert check_nth_power_assoc(single, n).passed


@criterion(11, "file round-trips are tensor-exact and exit codes track reports")
def test_criterion_11_plumbing(tmp_path, capsys):
    for algebra in (heisenberg_p31(1),
                    twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3)),
                    commutator_poisson(matrix_algebra(2))):
        path = tmp_path / "a.json"
        emit_spec(algebra, path)
        back = parse_spec(path)
        assert back.mu == algebra.mu and back.bracket == algebra.bracket
        assert back.alpha == algebra.alpha and back.basis == algebra.basis

    good = tmp_path / "good.json"
    emit_spec(heisenberg_p31(1), good)
    assert run_command(["check", str(good), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True and all(r["passed"] for r in payload["reports"])

    bad_algebra = dataclasses.replace(
        heisenberg_p31(1),
        bracket=heisenberg_p31(1).bracket.with_entry(0, 0, 2, 1))
    bad = tmp_path / "bad.json"
    emit_spec(bad_algebra, bad)
    assert run_command(["check", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert any(not r["passed"] and r["witnesses"] for r in payload["reports"])

    assert run_command(["check", str(tmp_path / "absent.json")]) == 2
    assert run_command(["check"]) == 2
