"""morphism-scan: many tiny morphism classifications on the Heisenberg algebras.

A seeded sample of ``heisenberg_morphism`` maps, with entries from a rational
pool that contains the rigidity replay's ``GRID``, is classified against the
four Heisenberg algebras (zeta in {0, 1, 1/2} and ``heisenberg_p32``):
``check_morphism`` -> ``beta_twisting`` -> ``is_trivial_twisting`` ->
``verify_isomorphism``.  One job is one (algebra, map) pair.  At dim 3 the cost
is per call, not per tuple: this is the loop behind ``hompoisson witness
heisenberg-rigidity``.
"""

from __future__ import annotations

from fractions import Fraction

import oracle
from harness import Job

EXTRA = (Fraction(3), Fraction(-1, 2), Fraction(1, 3), Fraction(-3, 2), Fraction(2, 3))
# Zero patterns of the 2x2 block (a11, a12, a21, a22): the paper's families
# alpha1..alpha5 and the general map, so every algebra sees morphisms.
PATTERNS = ("a00d", "ab00", "00cd", "a0ca", "abcd")
MAPS = 250
SMOKE_MAPS = 10
# Jobs run map by map (four algebras each), so every 100 consecutive jobs are
# alike; the tail is taken per 100 jobs rather than over a whole round of
# 1000, where the 11th slowest job would be a host stall, not the program.
TAIL_WINDOW = 100


def build(lib, rng, smoke=False):
    """The four algebras and the seeded maps (timed as set-up)."""
    cat = lib.catalog
    pool = tuple(lib.witnesses.GRID) + EXTRA
    nonzero = tuple(v for v in pool if v != 0)
    algebras = [(f"p31(zeta={z})", cat.heisenberg_p31(z)) for z in (0, 1, Fraction(1, 2))]
    algebras.append(("p32", cat.heisenberg_p32()))
    maps = []
    count = SMOKE_MAPS if smoke else MAPS
    patterns = [PATTERNS[i % len(PATTERNS)] for i in range(count)]  # equal shares
    rng.shuffle(patterns)
    for pattern in patterns:
        a = rng.choice(nonzero)
        block = {"a00d": (a, 0, 0, rng.choice(pool)),
                 "ab00": (a, rng.choice(nonzero), 0, 0),
                 "00cd": (0, 0, rng.choice(nonzero), rng.choice(pool)),
                 "a0ca": (a, 0, rng.choice(nonzero), a),
                 "abcd": tuple(rng.choice(pool) for _ in range(4))}[pattern]
        u, v = rng.choice(pool), rng.choice(pool)
        maps.append((pattern, cat.heisenberg_morphism(*block, u, v)))
    return algebras, maps


def classify(lib, algebra, beta):
    """The rigidity replay's classification of one twisting map."""
    con, alg = lib.constructions, lib.algebra
    report = alg.check_morphism(beta, algebra, algebra)
    if not report.passed:
        return "skip", report
    tw = con.beta_twisting(algebra, beta)
    if con.is_trivial_twisting(tw):
        return "trivial", None
    f = lib.linalg.LinearMap.diagonal((1, 1, beta.entry(2, 2)))
    iso = con.verify_isomorphism(f, algebra, tw.result)
    return ("isomorphic" if iso.passed else "unclassified"), iso


def _expected(algebra, beta):
    """Dense classification: skip, trivial or isomorphic (the paper's claim)."""
    mor = oracle.MorphismResiduals(beta, algebra, algebra)
    if mor.first_failure(weak=False) is not None:
        return "skip", mor
    b = oracle.dense_map(beta)
    ops = [oracle.Dense.of(algebra.mu), oracle.Dense.of(algebra.bracket)]
    twisted_zero = all(oracle.is_zero(oracle.apply(b, row)) for op in ops for row in op.rows.values())
    return ("trivial" if twisted_zero else "isomorphic"), mor


def expect(lib, built):
    algebras, maps = built
    jobs = []
    LinearMap = lib.linalg.LinearMap
    counts = {}
    for m, (pattern, beta) in enumerate(maps):
        for label, algebra in algebras:
            want, mor = _expected(algebra, beta)
            counts.setdefault(label, {"skip": 0, "trivial": 0, "isomorphic": 0})[want] += 1

            def make(algebra=algebra, beta=beta):
                fresh = LinearMap(beta.rows)
                return lambda: classify(lib, algebra, fresh)

            def judge(result, want=want, mor=mor):
                outcome, report = result
                if outcome != want:
                    return "wrong-verdict", f"{outcome}, expected {want}"
                if outcome == "skip":
                    why = oracle.verify_report(report, mor, expect_pass=False)
                    if why is not None:
                        return "wrong-verdict", why
                return None

            jobs.append(Job(f"{label}/map{m}:{pattern}", make, judge))
    total = len(maps)
    return jobs, {
        "maps": total,
        "algebras": [label for label, _ in algebras],
        "morphism_share": {label: 1 - c["skip"] / total for label, c in counts.items()},
        "expected_outcomes": counts,
        "pattern_share": {p: sum(pat == p for pat, _ in maps) / total for p in PATTERNS},
    }
