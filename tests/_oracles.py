"""Independent oracles for the test suite.

The defining identities are restated once outside the library, in the
benchmark's dense oracle ``bench/oracle.py``; the tests load it by file path
and compare every checker report and element-level residual against it.
What the benchmark does not need lives here: dense matrix arithmetic for the
unit-matrix algebras, dense views of tensors and maps, seeded random
generators for structure constants, and a naive reference polynomial.
"""

from fractions import Fraction
import importlib.util
import itertools
import math
import random
from pathlib import Path

from hompoisson.linalg import LinearMap, Trilinear, Vector
from hompoisson.poly import FIELD_BITS, MAX_EXPONENT


# ---------------------------------------------------------------------------
# Dense matrix arithmetic for the n x n matrix algebra on unit matrices
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def dense_kron(a, b):
    """Kronecker product of dense matrices on the basis (i, j) -> i * len(b) + j."""
    n1, n2 = len(a), len(b)
    return tuple(tuple(a[i][k] * b[j][l] for k in range(n1) for l in range(n2))
                 for i in range(n1) for j in range(n2))


def dense_tensor_kron(a, b):
    """Kronecker product of dense rank-3 arrays on the basis (i, j) -> i * len(b) + j."""
    n2 = len(b)
    d = len(a) * n2
    return [[[a[i // n2][j // n2][k // n2] * b[i % n2][j % n2][k % n2] for k in range(d)]
             for j in range(d)] for i in range(d)]


def dense_inverse(a):
    """Inverse of a dense matrix by Gauss-Jordan elimination of [a | I], or
    None when a is singular."""
    n = len(a)
    m = [[Fraction(q) for q in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def vec_of_mat(m):
    n = len(m)
    return Vector(tuple(Fraction(m[i][j]) for i in range(n) for j in range(n)))


def unit_matrix(n, i, j):
    return tuple(tuple(Fraction(1) if (r, c) == (i, j) else Fraction(0) for c in range(n)) for r in range(n))


# ---------------------------------------------------------------------------
# The benchmark's dense oracle, and the reports the checkers must produce
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """``bench/<name>.py`` loaded by file path as the private module
    ``_bench_<name>``, so the import does not depend on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_oracle = load_bench("oracle")
Dense, MorphismResiduals, PowerOracle, Residuals = (_oracle.Dense, _oracle.MorphismResiduals, _oracle.PowerOracle,
                                                    _oracle.Residuals)
add, apply, scale, sub, unit = _oracle.add, _oracle.apply, _oracle.scale, _oracle.sub, _oracle.unit

WITNESS_CAP = 10


def dense_tensor(t: Trilinear):
    d = t.dim
    return [[[t.entry(i, j, k) for k in range(d)] for j in range(d)] for i in range(d)]


def dense_matrix(m: LinearMap):
    return [[m.entry(i, j) for j in range(m.dim)] for i in range(m.dim)]


def arity(identity):
    """The number of basis vectors a leaf identity takes."""
    if identity == "morphism[twisting]":
        return 1
    binary = identity in ("antisymmetry", "commutative") or identity.startswith(("multiplicative[", "morphism["))
    return 2 if binary else 3


def oracle_leaves(residuals, identities):
    """Expected leaves (identity, passed, [(indices, residual)]) of the named
    identities: each residual of a bench ``Residuals`` or ``MorphismResiduals``
    on every basis tuple in lexicographic order, keeping the first ten nonzero
    ones."""
    leaves = []
    for identity in identities:
        witnesses = []
        for idx in itertools.product(range(residuals.dim), repeat=arity(identity)):
            res = residuals.residual(identity, idx)
            if any(res):
                witnesses.append((idx, res))
                if len(witnesses) == WITNESS_CAP:
                    break
        leaves.append((identity, not witnesses, witnesses))
    return leaves


def oracle_reports(algebra):
    """Expected leaves of every single-algebra check, keyed by check name."""
    names = {name: [name] for name in
             ("antisymmetry", "commutative", "hom-jacobi", "hom-associative", "admissible", "hom-flexible")}
    names["multiplicative"] = ["multiplicative[mu]"]
    if hasattr(algebra, "bracket"):
        names["multiplicative"].insert(0, "multiplicative[bracket]")
        names["hom-leibniz"] = ["hom-leibniz"]
        names["hom-poisson"] = (["antisymmetry", "hom-jacobi", "hom-associative", "hom-leibniz"]
                                + ["commutative"] * algebra.commutative)
    identities = dict.fromkeys(identity for leaves in names.values() for identity in leaves)
    leaves = {leaf[0]: leaf for leaf in oracle_leaves(Residuals.of(algebra), identities)}
    return {check: [leaves[identity] for identity in identities] for check, identities in names.items()}


def evaluate(residuals, identity, *args):
    """The identity at element arguments, by multilinearity: the sum over
    basis tuples of the product of their coordinates times the residual."""
    supports = ([(i, a) for i, a in enumerate(v) if a] for v in args)
    return add([Fraction(0)] * residuals.dim, *(
        scale(math.prod(a for _, a in picked), residuals.residual(identity, tuple(i for i, _ in picked)))
        for picked in itertools.product(*supports)))


def report_leaves(report):
    """A checker's report in the oracle's shape."""
    return [(leaf.identity, leaf.passed, [(w.indices, list(w.residual.entries)) for w in leaf.witnesses])
            for leaf in report.flat()]


# ---------------------------------------------------------------------------
# Seeded random rationals, tensors, algebras
# ---------------------------------------------------------------------------

def random_rational(rng: random.Random, num=4, den=3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_vector(rng, dim) -> Vector:
    return Vector(tuple(random_rational(rng) for _ in range(dim)))


def random_tensor(rng, dim, fill=0.5) -> Trilinear:
    entries = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if rng.random() < fill:
                    entries[(i, j, k)] = random_rational(rng)
    return Trilinear(dim, entries)


def random_map(rng, dim) -> LinearMap:
    return LinearMap(tuple(tuple(random_rational(rng) for _ in range(dim)) for _ in range(dim)))


# ---------------------------------------------------------------------------
# Reference polynomials: a plain dict of exponent tuples to nonzero Fractions,
# with schoolbook arithmetic and no common denominator
# ---------------------------------------------------------------------------

class RefPoly:
    """Naive polynomial over named generators, independent of ``poly``."""

    def __init__(self, gens, terms=()):
        self.gens = tuple(gens)
        self.terms = {}
        for expo, q in dict(terms).items():
            self._accumulate(tuple(expo), Fraction(q))

    def _accumulate(self, expo, q):
        v = self.terms.get(expo, Fraction(0)) + q
        if v:
            self.terms[expo] = v
        else:
            self.terms.pop(expo, None)

    @classmethod
    def const(cls, gens, c):
        return cls(gens, {(0,) * len(gens): c})

    def __add__(self, other):
        out = RefPoly(self.gens, self.terms)
        for expo, q in other.terms.items():
            out._accumulate(expo, q)
        return out

    def __neg__(self):
        return RefPoly(self.gens, {e: -q for e, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = RefPoly(self.gens)
        for e1, q1 in self.terms.items():
            for e2, q2 in other.terms.items():
                out._accumulate(tuple(a + b for a, b in zip(e1, e2)), q1 * q2)
        return out

    def scale(self, c):
        return RefPoly(self.gens, {e: c * q for e, q in self.terms.items()})

    def power(self, k):
        out = RefPoly.const(self.gens, 1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, pos):
        out = RefPoly(self.gens)
        for expo, q in self.terms.items():
            if expo[pos]:
                shifted = expo[:pos] + (expo[pos] - 1,) + expo[pos + 1:]
                out._accumulate(shifted, expo[pos] * q)
        return out

    def substitute(self, images):
        """images: one RefPoly per generator, all on one target generator list."""
        out = RefPoly(images[0].gens)
        for expo, q in self.terms.items():
            term = RefPoly.const(out.gens, q)
            for img, e in zip(images, expo):
                term = term * img.power(e)
            out = out + term
        return out

    def evaluate(self, values):
        total = Fraction(0)
        for expo, q in self.terms.items():
            for v, e in zip(values, expo):
                q *= Fraction(v) ** e
            total += q
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def render(self):
        """Graded-lex display: sign-separated terms, coefficient prefixes
        "c*" omitted for magnitude 1, exponents as "g^e"."""
        parts = []
        for expo, q in self.sorted_terms():
            factors = [g if e == 1 else f"{g}^{e}" for g, e in zip(self.gens, expo) if e]
            mag = abs(q)
            body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
            sign = "-" if q < 0 else "+"
            parts.append((sign, body))
        if not parts:
            return "0"
        first = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return " ".join([first] + [f"{s} {b}" for s, b in parts[1:]])


def ref_contract(t: Trilinear, x, y):
    """out_k = sum over every (i, j) of T[i][j][k] x_i y_j, on RefPoly entries."""
    T = dense_tensor(t)
    d = t.dim
    out = []
    for k in range(d):
        acc = RefPoly(x[0].gens)
        for i in range(d):
            for j in range(d):
                acc = acc + (x[i] * y[j]).scale(T[i][j][k])
        out.append(acc)
    return out


def ref_apply(M, x):
    """Dense matrix M times a vector of RefPoly entries."""
    out = []
    for row in M:
        acc = RefPoly(x[0].gens)
        for q, v in zip(row, x):
            acc = acc + v.scale(q)
        out.append(acc)
    return out


def assert_canonical(p):
    """Integer numerators over one positive denominator, in lowest terms, keyed
    by packed exponents whose fields (FIELD_BITS each, one per generator) are
    all at most MAX_EXPONENT."""
    width = len(p.generators)
    assert all(type(v) is int and v != 0 for v in p.terms.values())
    assert type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.terms.values()) == 1
    assert p.terms or p.den == 1
    for key in p.terms:
        assert type(key) is int and 0 <= key < 1 << (FIELD_BITS * width)
        assert all((key >> (FIELD_BITS * s)) % (1 << FIELD_BITS) <= MAX_EXPONENT for s in range(width))
