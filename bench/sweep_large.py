"""sweep-large: a few large basis sweeps, clean and with one corrupted constant
(seeded value, at a position fixed per input).

Inputs are tensor powers of ``heisenberg_p31`` (dims 27 and 81, seeded zeta)
and ``commutator_poisson(matrix_algebra(n))`` for n = 4..6 (dims 16-36).  At
dim 81 a triple sweep visits 531k tuples for 26 tensor nonzeros, so the
``algebra`` sweeps and ``linalg`` helpers do nearly all the work.  Passing
jobs run the full sweep; failing jobs take the witness path.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import oracle
from harness import Job

ZETAS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3, 2), Fraction(-2, 3))
# Diagonal twisting weights are distinct primes, so a product of weights
# equals another only when the index multisets agree: whether a corrupted
# constant breaks multiplicativity then depends on its position alone, not
# on the seed.
SCALES = tuple(Fraction(p) for p in (2, 3, 5, 7, 11, 13, 17, 19))
VALUES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(2, 3))
CANDIDATES = 8
CHECKS = ("hom_poisson", "multiplicative", "admissible", "flexible")


@dataclasses.dataclass
class Input:
    label: str
    algebra: object
    beta: object
    candidates: list  # (tensor, (i, j, k), values to try in order)


def build(lib, rng, smoke=False):
    """Construct the seeded inputs through the library (timed as set-up)."""
    cat, con, LinearMap = lib.catalog, lib.constructions, lib.linalg.LinearMap
    inputs = []
    factors = [cat.heisenberg_p31(rng.choice(ZETAS)) for _ in range(4)]
    power = factors[0]
    powers = (2, 3) if smoke else (3, 4)
    for k in range(2, max(powers) + 1):
        power = con.tensor(power, factors[k - 1])
        if k in powers:
            primes = rng.sample(SCALES, 2 * k)
            weights = list(zip(primes[::2], primes[1::2]))
            diag = []
            for combo in itertools.product(range(3), repeat=k):
                q = Fraction(1)
                for (a, d), slot in zip(weights, combo):
                    q *= (a, d, a * d)[slot]
                diag.append(q)
            inputs.append(Input(f"heis^{k}", power, LinearMap.diagonal(diag), []))
    for n in ((2, 3) if smoke else (4, 5, 6)):
        algebra = con.commutator_poisson(cat.matrix_algebra(n))
        d = rng.sample(SCALES, n)
        conj = LinearMap.diagonal([d[i] / d[j] for i in range(n) for j in range(n)])
        inputs.append(Input(f"mat{n}", algebra, conj, []))
    for inp in inputs:
        a = inp.algebra
        # Where the corruption sits sets how far a failing sweep runs before
        # its tenth witness, so positions come from a fixed stream (the same
        # for every seed) and only the corrupted value from the seed; seeds
        # then vary the arithmetic, not the amount of work.  Every value is
        # tried at a position (in seeded order) before the next position.
        where = random.Random(f"sweep-large:corruption:{inp.label}")
        # the corrupted output e_k multiplies something, so associators see it
        active = sorted({i for (i, _, _), _ in a.mu.items()} | {j for (_, j, _), _ in a.mu.items()}
                        | {i for (i, _, _), _ in a.bracket.items()})
        for _ in range(CANDIDATES):
            which = where.choice(("mu", "bracket"))
            t = getattr(a, which)
            while True:
                i, j, k = where.randrange(a.dim), where.randrange(a.dim), where.choice(active)
                if i != j and t.entry(i, j, k) == 0:
                    break
            inp.candidates.append((which, (i, j, k), rng.sample(VALUES, len(VALUES))))
    return inputs


def _jobs_for(lib, inp, algebra, expect, tag):
    """The four jobs on one algebra; ``expect[check]`` is (passes, certificate, oracle)."""
    con, alg, LinearMap = lib.constructions, lib.algebra, lib.linalg.LinearMap
    PreconditionError = lib.errors.PreconditionError
    beta = inp.beta

    def twisted_multiplicative(b):
        try:
            twisted = con.twist(algebra, b)
        except PreconditionError as exc:
            return exc.report
        return alg.check_multiplicative(twisted)

    calls = {
        "hom_poisson": lambda: (lambda: alg.check_hom_poisson(algebra)),
        "multiplicative": lambda: (lambda b=LinearMap(beta.rows): twisted_multiplicative(b)),
        "admissible": lambda: (lambda: con.check_admissible(con.depolarize(algebra))),
        "flexible": lambda: (lambda: con.check_hom_flexible(con.depolarize(algebra))),
    }
    jobs = []
    for check in CHECKS:
        def judge(report, check=check, expected=expect[check]):
            expect_pass, certificate, residuals = expected
            if check == "multiplicative" and report.identity != (
                    "multiplicative" if expect_pass else "weak-morphism"):
                return "wrong-verdict", f"unexpected report {report.identity}"
            why = oracle.verify_report(report, residuals, expect_pass, certificate)
            return None if why is None else ("wrong-verdict", why)

        jobs.append(Job(f"{inp.label}/{tag}/{check}", calls[check], judge))
    return jobs


def _near(algebra, i, j, k):
    """Tuples through the corrupted product e_i e_j: the search space for
    certificates (a corruption is accepted only if it fails inside it).

    Triples that put e_i, e_j next to each other come first, then all triples
    over the indices whose products touch e_i, e_j or e_k.
    """
    entries = list(algebra.mu.items()) + list(algebra.bracket.items())
    spot = sorted({i, j, k})
    touch = set(spot)
    for (x, y, z), _ in entries:
        if z in (i, j) or x == k or y == k:
            touch.update((x, y))
    touch = sorted(touch)

    def candidates(arity):
        if arity < 3:
            return itertools.product(spot, repeat=arity)
        out = dict.fromkeys(itertools.product(spot, repeat=3))
        for z in range(algebra.dim):
            for t in ((i, j, z), (z, i, j), (i, z, j), (j, i, z), (z, j, i), (j, z, i)):
                out[t] = None
        out.update(dict.fromkeys(itertools.product(touch, repeat=3)))
        return list(out)
    return candidates


def expect(lib, inputs):
    """Fix each job's expected verdict with the dense oracle; return the jobs.

    Clean inputs pass every check by the paper's theorems, except that the
    depolarized commutator algebra of a matrix algebra is not admissible (its
    product is not commutative); that failure is certified by the oracle.  A
    corruption candidate is accepted only when the oracle finds a nonzero
    residual for all four checks among tuples drawn from its indices.
    """
    jobs = []
    props = []
    expected_fail = 0
    for inp in inputs:
        a = inp.algebra
        clean = {c: (True, None, None) for c in CHECKS}
        if not a.commutative:
            dep = oracle.Residuals.depolarized(a)
            small = range(min(a.dim, 4))
            cert = oracle.find_failure(dep, ["admissible"],
                                       lambda arity: itertools.product(small, repeat=arity))
            if cert is None:
                raise RuntimeError(f"{inp.label}: no certified admissibility failure")
            clean["admissible"] = (False, cert, dep)
        jobs += _jobs_for(lib, inp, a, clean, "clean")

        for which, (i, j, k), value in ((w, ijk, v) for w, ijk, vs in inp.candidates for v in vs):
            bad = dataclasses.replace(a, **{which: getattr(a, which).with_entry(i, j, k, value)})
            cands = _near(a, i, j, k)
            res = oracle.Residuals.of(bad)
            dep = oracle.Residuals.depolarized(bad)
            mor = oracle.MorphismResiduals(inp.beta, bad, bad)
            hp_ids = ["antisymmetry", "hom-jacobi", "hom-associative", "hom-leibniz"] + (
                ["commutative"] if bad.commutative else [])
            corrupt = {
                "hom_poisson": (False, oracle.find_failure(res, hp_ids, cands), res),
                "multiplicative": (False, oracle.find_failure(mor, mor.identities(weak=True), cands), mor),
                "admissible": (False, oracle.find_failure(dep, ["admissible"], cands), dep),
                "flexible": (False, oracle.find_failure(dep, ["hom-flexible"], cands), dep),
            }
            if all(cert for _, cert, _ in corrupt.values()):
                jobs += _jobs_for(lib, inp, bad, corrupt, "corrupt")
                break
        else:
            raise RuntimeError(f"{inp.label}: no corruption candidate breaks all four checks")
        expected_fail += sum(not e[0] for e in list(clean.values()) + list(corrupt.values()))
        nnz = len(a.mu.items()) + len(a.bracket.items())
        props.append({"input": inp.label, "dim": a.dim, "mu_nnz": len(a.mu.items()),
                      "bracket_nnz": len(a.bracket.items()), "nnz_per_triple": nnz / a.dim ** 3,
                      "corrupted": {"tensor": which, "index": [i, j, k], "value": str(value)}})
    return jobs, {
        "inputs": props,
        "corrupted_job_share": sum("/corrupt/" in j.label for j in jobs) / len(jobs),
        "expected_fail_share": expected_fail / len(jobs),
    }
