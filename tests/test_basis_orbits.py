"""Sweeps on orbit representatives of declared basis permutations.

A tensor may declare basis permutations as automorphisms (``Trilinear.perms``:
``matrix_algebra`` does, and ``tabulate`` passes them on).  A sweep keeps the
ones it certifies on its own operands and takes its first argument on orbit
representatives only.  Every report must equal the report of the same
algebra with undeclared tensors, witnesses and residuals included, and the
dense oracle's.  Inputs are random algebras with a planted permutation
symmetry (invariant random tensors, and direct sums of two equal passing
pieces), catalog matrix algebras, corruptions that keep the symmetry of
some generators and break the others, and wrongly declared generators.
Which generators a sweep keeps is checked against a dense brute force.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hompoisson import algebra as algebra_module
from hompoisson.algebra import (
    HomAlgebra,
    HomPoissonAlgebra,
    antisymmetry,
    associator,
    check_hom_associative,
    check_hom_poisson,
    check_multiplicative,
    commutativity,
    sweep,
    tabulate,
)
from hompoisson.catalog import conjugation_morphism, heisenberg_p31, heisenberg_p32, matrix_algebra
from hompoisson.constructions import (
    check_admissible,
    check_hom_flexible,
    commutator_poisson,
    depolarize,
    operation_sum,
    polarize,
    twist,
)
from hompoisson.linalg import LinearMap, Trilinear
from hompoisson.specfile import emit_spec, parse_spec

from _oracles import oracle_reports, random_map, random_rational, report_leaves

# Derandomized, so the suite draws the same examples on every run, and not
# shrunk: a failing example is reported as drawn.
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))


# ---------------------------------------------------------------------------
# Declared and undeclared tensors, and a dense brute force
# ---------------------------------------------------------------------------

def declared(t, perms):
    """``t`` declaring the basis permutations ``perms``."""
    n = t.dim
    return Trilinear._of(n, {(i * n + j) * n + k: q for i, row in t.rows.items() for j, k, q in row}, t.den,
                         perms=tuple(perms))


def undeclared(algebra):
    """The algebra with every tensor rebuilt by ``Trilinear(...)``, which
    declares nothing."""
    names = ("bracket", "mu") if isinstance(algebra, HomPoissonAlgebra) else ("mu",)
    return dataclasses.replace(algebra, **{name: Trilinear(algebra.dim, dict(getattr(algebra, name).items()))
                                           for name in names})


def is_automorphism(p, t):
    """Whether ``p`` maps every structure constant of ``t`` onto itself,
    read entry by entry over the whole dense cube."""
    d = t.dim
    return all(t.entry(p[i], p[j], p[k]) == t.entry(i, j, k) for i, j, k in itertools.product(range(d), repeat=3))


def expected_kept(perms, operands):
    """The declared permutations a sweep on ``operands`` may keep: declared
    by every tensor operand and automorphisms of each, when every map is the
    identity."""
    tensors = [t for t in operands if isinstance(t, Trilinear)]
    maps = [m for m in operands if isinstance(m, LinearMap)]
    return [p for p in perms if tensors and all(p in t.perms and is_automorphism(p, t) for t in tensors)
            and all(m == LinearMap.identity(m.dim) for m in maps)]


def orbit(seed, perms):
    """The orbit of a tuple of basis indices under the group ``perms`` generate."""
    found = [seed]
    for x in found:
        for p in perms:
            y = tuple(p[i] for i in x)
            if y not in found:
                found.append(y)
    return found


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def planted_tensor(rng, dim, perms, orbits):
    """A random tensor invariant under ``perms``: one random value on each of
    ``orbits`` random orbits of index triples."""
    entries = {}
    for _ in range(orbits):
        q = random_rational(rng)
        for ijk in orbit(tuple(rng.randrange(dim) for _ in range(3)), perms):
            entries[ijk] = q
    return Trilinear(dim, entries)


def planted_map(rng, dim, perms):
    """The identity, or a random map commuting with ``perms``, with which a
    sweep still keeps no permutation."""
    if rng.random() < 0.3:
        return LinearMap.identity(dim)
    rows = [[0] * dim for _ in range(dim)]
    for _ in range(dim):
        q = random_rational(rng)
        for i, j in orbit((rng.randrange(dim), rng.randrange(dim)), perms):
            rows[i][j] = q
    return LinearMap(rows)


def direct_square(piece):
    """piece + piece, with the swap of the two summands and piece's own
    declared permutations on the first summand."""
    d = piece.dim
    br, mu = {}, {}
    rows = [[0] * 2 * d for _ in range(2 * d)]
    for off in (0, d):
        for src, dst in ((piece.bracket, br), (piece.mu, mu)):
            for (i, j, k), q in src.items():
                dst[(i + off, j + off, k + off)] = q
        for i in range(d):
            for j in range(d):
                rows[i + off][j + off] = piece.alpha.entry(i, j)
    swap = (*range(d, 2 * d), *range(d))
    perms = [swap] + [(*p, *range(d, 2 * d)) for p in piece.bracket.perms]
    return (HomPoissonAlgebra(tuple(f"b{i}" for i in range(2 * d)), Trilinear(2 * d, br), Trilinear(2 * d, mu),
                              LinearMap(rows)), perms)


@st.composite
def symmetric_algebras(draw):
    """(algebra, declared): an algebra whose tensors declare ``declared``.

    The planted kinds are invariant under every declared permutation until
    corrupted.  A corruption sets a new value on the orbit of one index triple
    under some of the generators, so those stay automorphisms and the others
    most likely do not.  Sometimes a random permutation, most likely no
    automorphism, is declared as well, or the twisting map is replaced by a
    random one."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("random", "square", "matrix")))
    if kind == "random":
        dim = draw(st.integers(2, 5))
        perms = [tuple(draw(st.permutations(range(dim)))) for _ in range(draw(st.integers(1, 2)))]
        algebra = HomPoissonAlgebra(tuple(f"b{i}" for i in range(dim)), planted_tensor(rng, dim, perms, dim),
                                    planted_tensor(rng, dim, perms, dim), planted_map(rng, dim, perms))
    elif kind == "square":
        zeta = draw(st.sampled_from((1, 2, Fraction(1, 2))))
        pieces = [heisenberg_p31(zeta), heisenberg_p32(), commutator_poisson(matrix_algebra(2)),
                  twist(commutator_poisson(matrix_algebra(2)), conjugation_morphism(2, -1))]
        algebra, perms = direct_square(draw(st.sampled_from(pieces)))
    else:
        algebra = commutator_poisson(matrix_algebra(draw(st.integers(1, 3))))
        perms = list(algebra.bracket.perms)
    if draw(st.booleans()) and perms:
        which = draw(st.sampled_from(("mu", "bracket")))
        keep = [p for p in perms if draw(st.booleans())]
        t = getattr(algebra, which)
        entries = dict(t.items())
        value = draw(st.sampled_from((Fraction(1), Fraction(-2), Fraction(1, 3))))
        for ijk in orbit(tuple(rng.randrange(t.dim) for _ in range(3)), keep):
            entries[ijk] = value
        algebra = dataclasses.replace(algebra, **{which: Trilinear(t.dim, entries)})
    if draw(st.booleans()):
        perms = perms + [tuple(draw(st.permutations(range(algebra.dim))))]
    if draw(st.integers(0, 4)) == 0:
        algebra = dataclasses.replace(algebra, alpha=random_map(rng, algebra.dim))
    algebra = dataclasses.replace(algebra, bracket=declared(algebra.bracket, perms),
                                  mu=declared(algebra.mu, perms))
    return algebra, perms


CHECKS = {
    "hom-poisson": check_hom_poisson,
    "multiplicative": check_multiplicative,
    "admissible": lambda a: check_admissible(depolarize(a)),
    "hom-flexible": lambda a: check_hom_flexible(depolarize(a)),
}


# ---------------------------------------------------------------------------
# Reports against the undeclared run and the oracle
# ---------------------------------------------------------------------------

@SETTINGS
@given(symmetric_algebras())
def test_orbit_sweeps_match_undeclared_sweeps_and_oracle(case):
    algebra, perms = case
    plain = undeclared(algebra)
    single = depolarize(algebra)
    assert single.mu.perms == tuple(perms)
    expected = oracle_reports(algebra)
    expected.update((name, leaves) for name, leaves in oracle_reports(single).items()
                    if name in ("admissible", "hom-flexible"))
    for name, check in CHECKS.items():
        report = check(algebra)
        assert report.as_dict() == check(plain).as_dict(), name
        assert report_leaves(report) == expected[name], name
    # the generators each sweep keeps are exactly those a dense brute force accepts
    for operands in ((algebra.bracket, algebra.alpha), (algebra.bracket, algebra.mu, algebra.alpha),
                     (algebra.bracket,), (algebra.mu,), (single.mu, single.alpha),
                     (algebra.alpha, algebra.mu, algebra.mu)):
        assert list(algebra_module._certified(operands)) == expected_kept(perms, operands)


def test_wrongly_declared_generators_are_refused():
    # the M3 product with one constant changed keeps neither generator, and
    # a twisting map other than the identity, here the conjugation by
    # diag(2, 1, 1), keeps none either
    mat = matrix_algebra(3)
    bad = declared(mat.mu.with_entry(0, 1, 1, 5), mat.mu.perms)
    assert bad._automorphisms == ()
    algebra = HomAlgebra(mat.basis, bad, LinearMap.identity(9))
    assert check_hom_associative(algebra).as_dict() == check_hom_associative(undeclared(algebra)).as_dict()
    twisted = HomAlgebra(mat.basis, mat.mu, conjugation_morphism(3, 2))
    assert algebra_module._certified((twisted.mu, twisted.alpha)) == ()
    assert check_hom_associative(twisted).as_dict() == check_hom_associative(undeclared(twisted)).as_dict()
    not_a_permutation = declared(mat.mu, [(0,) * 9, tuple(range(8))])
    assert not_a_permutation._automorphisms == ()


def test_a_sweep_without_a_tensor_keeps_no_generator():
    assert algebra_module._certified((LinearMap.identity(4),)) == ()


# ---------------------------------------------------------------------------
# What declares, and what the declaration leaves alone
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_matrix_algebra_declares_two_certified_generators(n):
    mu = matrix_algebra(n).mu
    assert len(mu.perms) == {1: 0, 2: 1}.get(n, 2)
    assert mu._automorphisms == mu.perms
    assert all(is_automorphism(p, mu) for p in mu.perms)
    # the index permutations leave the diagonal and the off-diagonal units,
    # whose least vectors E00 and E01 a sweep takes in blocks [E00], [E01]
    blocks, images = algebra_module._arguments(mu.perms, n * n, 3)[::2]
    assert tuple(images) == ((0, 1) if n > 1 else (0,))
    assert [(hi, tuple(first.units)) for hi, first in blocks] == [(1, (0,)), (n * n, (1,))][:len(images)]
    assert sorted(x for r in images for x, _ in images[r]) == sorted(set(range(n * n)) - set(images))
    for r in images:
        for x, g in images[r]:
            assert g[r] == x and sorted(g) == list(range(n * n))


def test_tabulate_passes_on_what_every_tensor_operand_declares():
    mat = matrix_algebra(3)
    algebra = commutator_poisson(mat)
    assert algebra.bracket.perms == mat.mu.perms
    assert depolarize(algebra).mu.perms == polarize(mat).mu.perms == mat.mu.perms
    one = declared(mat.mu, mat.mu.perms[1:])
    for operands in ((one, mat.mu), (mat.mu, one)):
        assert tabulate(9, operation_sum, *operands).perms == mat.mu.perms[1:]
    assert tabulate(9, antisymmetry, undeclared(mat).mu).perms == ()


@SETTINGS
@given(symmetric_algebras())
def test_tabulate_carries_the_certificate_a_fresh_certification_gives(case):
    """``tabulate`` fills the cached ``_automorphisms`` of the tensor it
    builds, taking the permutations certified on its operands as shown; the
    cache equals the certification of the same rows and ``perms`` rebuilt,
    on planted symmetries, corruptions, wrongly declared generators and
    random twisting maps (with which the operands certify nothing)."""
    algebra, _ = case
    single = depolarize(algebra)
    for t in (single.mu, polarize(single).bracket, polarize(single).mu, tabulate(algebra.dim, commutativity, single.mu),
              tabulate(algebra.dim, lambda E, m, s, x, y: E.ap(m, E.op(s, x, y)), algebra.alpha, algebra.bracket)):
        assert "_automorphisms" in vars(t) or not t.perms
        assert t._automorphisms == declared(t, t.perms)._automorphisms


def test_other_constructions_declare_nothing(tmp_path):
    algebra = commutator_poisson(matrix_algebra(3))
    assert algebra.mu.with_entry(0, 1, 1, 5).perms == ()
    assert Trilinear(9, dict(algebra.mu.items())).perms == ()
    assert twist(algebra, LinearMap.identity(9)).bracket.perms == ()
    assert algebra.mu.kron(algebra.mu).perms == ()
    path = tmp_path / "mat3.json"
    emit_spec(algebra, path)
    parsed = parse_spec(path)
    assert parsed.bracket.perms == parsed.mu.perms == ()
    assert parsed == algebra


def test_the_declaration_leaves_equality_hashing_repr_and_emit_alone(tmp_path):
    algebra = commutator_poisson(matrix_algebra(3))
    plain = undeclared(algebra)
    for t, u in ((algebra.mu, plain.mu), (algebra.bracket, plain.bracket)):
        assert t.perms and not u.perms
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
    assert algebra == plain and algebra_module.as_data(algebra) == algebra_module.as_data(plain)
    emit_spec(algebra, tmp_path / "declared.json")
    emit_spec(plain, tmp_path / "plain.json")
    assert (tmp_path / "declared.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


# ---------------------------------------------------------------------------
# Evaluations and witnesses on the orbit path
# ---------------------------------------------------------------------------

def _counted(residual):
    calls = []

    def counted(E, *args):
        calls.append(None)
        return residual(E, *args)
    return counted, calls


@pytest.mark.parametrize("n", [1, 3, 6])
def test_passing_orbit_sweep_evaluates_one_block_per_doubling_of_representatives(n):
    # the representatives E00 and E01 take blocks [E00] and [E01]
    mu = matrix_algebra(n).mu
    counted, calls = _counted(associator)
    assert sweep("hom-associative", n * n, 3, counted, mu, LinearMap.identity(n * n)).passed
    assert len(calls) == min(n, 2)


def test_failing_orbit_sweep_yields_images_in_lexicographic_order():
    # a product invariant under the 4-cycle, which leaves one orbit: every
    # failure past first index 0 is read off an image of one at index 0
    perms = [(1, 2, 3, 0)]
    t = declared(planted_tensor(random.Random(12), 4, perms, 2), perms)
    algebra = HomAlgebra(("a", "b", "c", "d"), t, LinearMap.identity(4))
    assert t._automorphisms == tuple(perms) and tuple(algebra_module._arguments(t._automorphisms, 4, 3)[2]) == (0,)
    report = check_hom_associative(algebra)
    assert report.as_dict() == check_hom_associative(undeclared(algebra)).as_dict()
    assert report_leaves(report) == oracle_reports(algebra)["hom-associative"]
    assert {w.indices[0] for w in report.witnesses} == {0, 1, 2} and len(report.witnesses) == 10
