"""Golden reports: every ``check_*`` report on a fixed list of algebras,
compared byte for byte with ``tests/golden/reports.json``, and the files
``emit_spec`` and ``emit_map`` write for the twist, derived, depolarize,
polarize, tensor and invert results of the same algebras, compared byte for
byte with ``tests/golden/emitted.json``.

The list holds the catalog entries, the commutator algebras of the matrix
entries, their depolarizations, one diagonal twist of each and one seeded
corruption of each (dims <= 9), followed by the reports built outside the
basis sweeps: substitution checks on the sl2 bracket, isomorphism
certificates for an invertible and a singular Heisenberg map, and the
power criterion on a multiplicative algebra that fails it, and last the
results of the polynomial witness replays (``free-poly``, ``matrix``,
``sl2`` and ``r2n``), whose residuals are polynomials.  The
``CROSS_BLOCK`` corruptions of the dim-9 matrix commutator algebra have more
than ``MAX_WITNESSES`` failing triples, with the tenth past the first block
of first arguments that ``algebra.sweep`` evaluates, so the witness cap cuts
them there.  A change that should leave every verdict,
witness, exact residual and emitted structure constant unchanged must leave
both files unchanged.  After a change that alters them on purpose,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
"""

import dataclasses
import json
import os
import itertools
import random
import tempfile
from fractions import Fraction

from hompoisson import witnesses
from hompoisson.algebra import (
    HomAlgebra,
    HomPoissonAlgebra,
    as_data,
    check_commutative,
    check_hom_associative,
    check_hom_poisson,
    check_morphism,
    check_multiplicative,
)
from hompoisson.catalog import (
    CATALOG,
    build_catalog,
    conjugation_morphism,
    entry_reports,
    heisenberg_morphism,
    heisenberg_p31,
    heisenberg_p32,
    matrix_algebra,
    sl2_linear_poisson,
    sl2_scaling,
)
from hompoisson.constructions import (
    check_admissible,
    check_hom_flexible,
    commutator_poisson,
    depolarize,
    derived,
    polarize,
    tensor,
    twist,
    verify_isomorphism,
)
from hompoisson.hompower import MAX_DIM, check_criterion_34, check_nth_power_assoc
from hompoisson.linalg import LinearMap, Trilinear
from hompoisson.poisson_poly import Substitution, check_poisson_substitution
from hompoisson.specfile import emit_map, emit_spec

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "reports.json")
EMITTED = os.path.join(GOLDEN_DIR, "emitted.json")
SEED = 20100521
CORRUPTIONS = (1, -2, Fraction(1, 3), 0)
# (operation, i, j, k, value): single entries of commutator_poisson(matrix_algebra(3))
# whose failing triples outnumber MAX_WITNESSES and reach later blocks of
# first arguments (the blocks of a dim-9 sweep are [0, 1), [1, 3), [3, 7), [7, 9))
CROSS_BLOCK = (
    ("bracket", 7, 7, 7, Fraction(1, 3)),
    ("bracket", 5, 7, 0, 1),
    ("mu", 7, 8, 4, 1),
    ("mu", 8, 8, 8, Fraction(1, 3)),
)


def _weights(dim: int) -> LinearMap:
    """A diagonal map with integral and fractional weights."""
    return LinearMap.diagonal([Fraction(1, 2) if i == 0 else i % 3 + 1 for i in range(dim)])


def _corrupt(algebra: HomPoissonAlgebra, rng: random.Random) -> HomPoissonAlgebra:
    dim = algebra.dim
    bracket, mu = algebra.bracket, algebra.mu
    for _ in range(2):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        value = rng.choice(CORRUPTIONS)
        if rng.random() < 0.5:
            bracket = bracket.with_entry(i, j, k, value)
        else:
            mu = mu.with_entry(i, j, k, value)
    return HomPoissonAlgebra(algebra.basis, bracket, mu, algebra.alpha, algebra.commutative)


def bases():
    """(label, algebra, multiplicative self-morphism) for each base algebra."""
    return [
        ("heisenberg-p31", heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3)),
        ("heisenberg-p31[zeta=1/2]", heisenberg_p31(Fraction(1, 2)), heisenberg_morphism(2, 0, 0, 3)),
        ("heisenberg-p32", heisenberg_p32(), heisenberg_morphism(2, 0, 0, 2)),
        ("matrix[n=2]", commutator_poisson(matrix_algebra(2)), conjugation_morphism(2)),
        ("matrix[n=3]", commutator_poisson(matrix_algebra(3)), conjugation_morphism(3)),
    ]


def cases():
    """(label, algebra) pairs: the base algebras and their variants."""
    rng = random.Random(SEED)
    base_algebras = [(label, algebra) for label, algebra, _ in bases()]
    out = []
    for label, algebra in base_algebras:
        twisted = twist(algebra, _weights(algebra.dim), force=True)
        corrupted = _corrupt(algebra, rng)
        for name, variant in ((label, algebra), (f"{label}/twisted", twisted),
                              (f"{label}/corrupted", corrupted)):
            out.append((name, variant))
            out.append((f"{name}/depolarized", depolarize(variant)))
    matrix3 = base_algebras[-1][1]
    for which, i, j, k, value in CROSS_BLOCK:
        variant = dataclasses.replace(matrix3, **{which: getattr(matrix3, which).with_entry(i, j, k, value)})
        name = f"matrix[n=3]/{which}[{i},{j},{k}]={value}"
        out.append((name, variant))
        out.append((f"{name}/depolarized", depolarize(variant)))
    return out


def _reports(algebra) -> list:
    reports = []
    if isinstance(algebra, HomPoissonAlgebra):
        reports += [check_hom_poisson(algebra), check_commutative(algebra)]
    else:
        reports += [check_hom_associative(algebra), check_admissible(algebra), check_hom_flexible(algebra)]
    multiplicative = check_multiplicative(algebra)
    reports += [multiplicative, check_morphism(_weights(algebra.dim), algebra, algebra)]
    if algebra.dim <= MAX_DIM and not isinstance(algebra, HomPoissonAlgebra):
        reports += [check_nth_power_assoc(algebra, n) for n in range(2, 6)]
        if multiplicative.passed:
            reports.append(check_criterion_34(algebra))
    return reports


def builder_reports():
    """(label, reports) pairs for the report builders outside the sweeps."""
    sl2 = sl2_linear_poisson()
    e, f, h = (sl2.variable(g) for g in sl2.generators)
    p31 = heisenberg_p31(1)
    non_flexible = HomAlgebra(basis=("X", "Y", "Z"), mu=Trilinear(3, {(0, 1, 2): 1, (1, 2, 0): 1}),
                              alpha=LinearMap.identity(3))
    return [
        ("poisson-substitution/sl2-scaling[lam=2]", [check_poisson_substitution(sl2, sl2_scaling(2))]),
        ("poisson-substitution/sl2-swap-e-f",
         [check_poisson_substitution(sl2, Substitution({"e": f, "f": e, "h": h}))]),
        ("poisson-substitution/sl2-e-squared",
         [check_poisson_substitution(sl2, Substitution({"e": e * e, "f": f, "h": h}))]),
        ("isomorphism/heisenberg-p31-invertible",
         [verify_isomorphism(heisenberg_morphism(1, 1, 0, 1), p31, p31),
          verify_isomorphism(heisenberg_morphism(2, 0, 0, 3, 1, -2), heisenberg_p31(0), heisenberg_p31(0))]),
        ("isomorphism/heisenberg-p31-singular", [verify_isomorphism(heisenberg_morphism(1, 2, 2, 4), p31, p31)]),
        ("criterion-34/non-flexible", [check_criterion_34(non_flexible)]),
    ]


def witness_replays():
    """(label, [result]) for each witness replay that computes polynomials."""
    return [(f"witness/{name}", [getattr(witnesses, replay)()]) for name, replay in (
        ("free-poly", "free_poly_witness"), ("matrix", "matrix_twist_witness"),
        ("sl2", "sl2_witness"), ("r2n", "r2n_witness"))]


def golden() -> str:
    """The reports and replay results as JSON, one line each."""
    labelled = [(f"catalog/{name}", entry_reports(name, build_catalog(name))) for name in sorted(CATALOG)]
    labelled += [(label, _reports(algebra)) for label, algebra in cases()]
    labelled += builder_reports() + witness_replays()
    return "".join(json.dumps([label, as_data(r)], separators=(",", ":")) + "\n"
                   for label, reports in labelled for r in reports)


def constructed():
    """(label, algebra or map) for each construction result that is emitted.

    Each base algebra is twisted by its diagonal weights and by its
    multiplicative self-morphism beta; the beta-twisting gives a derived
    algebra and a depolarization that is polarized again, and the
    corruptions are depolarized and polarized too.  The maps are inverses
    and powers of the twisting maps, and the tensor products pair the
    commutative bases and their beta-twistings.
    """
    out, commutative = [], []
    for label, algebra, beta in bases():
        weights = _weights(algebra.dim)
        twisted = twist(algebra, beta)
        single = depolarize(twisted)
        out += [
            (f"{label}/twist[weights]", twist(algebra, weights, force=True)),
            (f"{label}/twist[beta]", twisted),
            (f"{label}/twist[beta]/derived[2]", derived(twisted, 2)),
            (f"{label}/depolarize", depolarize(algebra)),
            (f"{label}/twist[beta]/depolarize", single),
            (f"{label}/twist[beta]/depolarize/polarize", polarize(single)),
            (f"{label}/weights/invert", weights.invert()),
            (f"{label}/beta/invert", beta.invert()),
            (f"{label}/beta^3/invert", beta.power(3).invert()),
            (f"{label}/beta*weights", beta.compose(weights)),
        ]
        if algebra.commutative:
            commutative += [(label, algebra), (f"{label}/twist[beta]", twisted)]
    for label, algebra in cases():
        if label.endswith("/corrupted"):
            single = depolarize(algebra)
            out += [(f"{label}/depolarize", single), (f"{label}/depolarize/polarize", polarize(single))]
    for (l1, a1), (l2, a2) in itertools.combinations(commutative, 2):
        out.append((f"tensor[{l1}, {l2}]", tensor(a1, a2)))
    return out


def emitted() -> str:
    """The emitted files, one JSON line [label, file text] per result."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        for label, value in constructed():
            (emit_map if isinstance(value, LinearMap) else emit_spec)(value, path)
            with open(path, "rb") as fh:
                lines.append(json.dumps([label, fh.read().decode("utf-8")]) + "\n")
    return "".join(lines)


def test_reports_match_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = fh.read()
    assert golden() == expected


def test_emitted_files_match_golden_file():
    with open(EMITTED, encoding="utf-8") as fh:
        expected = fh.read()
    assert emitted() == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for path, build in ((GOLDEN, golden), (EMITTED, emitted)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(build())
