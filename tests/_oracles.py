"""Independent oracles for the test suite.

Everything here recomputes expected values through routes that do not share
code with the library paths under test: dense matrix arithmetic for the
unit-matrix algebras, naive dense tensor loops for identity residuals, and
seeded random generators for structure constants.
"""

from fractions import Fraction
import itertools
import random
from math import gcd

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


def mat_of_vec(v, n):
    """Coordinates on the E11, E12, ..., Enn basis back to a dense matrix."""
    return tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))


def vec_of_mat(m):
    n = len(m)
    return Vector(tuple(Fraction(m[i][j]) for i in range(n) for j in range(n)))


def unit_matrix(n, i, j):
    return tuple(tuple(Fraction(1) if (r, c) == (i, j) else Fraction(0) for c in range(n)) for r in range(n))


def basis(dim, i):
    return [Fraction(1) if j == i else Fraction(0) for j in range(dim)]


# ---------------------------------------------------------------------------
# Naive dense oracles (no sparse shortcuts, no shared helpers) for every
# defining identity, and the reports the checkers must produce: each residual
# is evaluated on every basis tuple in lexicographic order, keeping the first
# ten nonzero ones.
# ---------------------------------------------------------------------------

WITNESS_CAP = 10


def dense_tensor(t: Trilinear):
    d = t.dim
    return [[[t.entry(i, j, k) for k in range(d)] for j in range(d)] for i in range(d)]


def dense_matrix(m: LinearMap):
    return [[m.entry(i, j) for j in range(m.dim)] for i in range(m.dim)]


def op(T, x, y):
    """out_k = sum_ij x_i y_j T[i][j][k], skipping zero coordinates and entries."""
    d = len(T)
    out = [Fraction(0)] * d
    for i in range(d):
        if x[i] == 0:
            continue
        for j in range(d):
            if y[j] == 0:
                continue
            c = x[i] * y[j]
            row = T[i][j]
            for k in range(d):
                if row[k] != 0:
                    out[k] += c * row[k]
    return out


def ap(M, x):
    """out_i = sum_j M[i][j] x_j, skipping zero coordinates and entries."""
    d = len(x)
    out = [Fraction(0)] * d
    for j in range(d):
        if x[j] == 0:
            continue
        for i in range(d):
            if M[i][j] != 0:
                out[i] += M[i][j] * x[j]
    return out


def add(*vs):
    return [sum(col) for col in zip(*vs)]


def sub(v, w):
    return [a - b for a, b in zip(v, w)]


def scale(c, v):
    return [c * a for a in v]


def oracle_associator(M, A, x, y, z):
    """(xy)a(z) - a(x)(yz)"""
    return sub(op(M, op(M, x, y), ap(A, z)), op(M, ap(A, x), op(M, y, z)))


def oracle_jacobian(B, A, x, y, z):
    """[[x,y],a(z)] + [[z,x],a(y)] + [[y,z],a(x)]"""
    return add(op(B, op(B, x, y), ap(A, z)), op(B, op(B, z, x), ap(A, y)),
               op(B, op(B, y, z), ap(A, x)))


def oracle_leibniz(B, M, A, x, y, z):
    """[a(x), yz] - [x,y]a(z) - a(y)[x,z]"""
    return sub(sub(op(B, ap(A, x), op(M, y, z)), op(M, op(B, x, y), ap(A, z))),
               op(M, ap(A, y), op(B, x, z)))


def oracle_antisymmetry(B, x, y):
    return add(op(B, x, y), op(B, y, x))


def oracle_commutative(M, x, y):
    return sub(op(M, x, y), op(M, y, x))


def oracle_multiplicative(T, A, x, y):
    """a(xy) - a(x)a(y)"""
    return sub(ap(A, op(T, x, y)), op(T, ap(A, x), ap(A, y)))


def oracle_morphism(F, S, T, x, y):
    """f(xy) in the source against f(x)f(y) in the target"""
    return sub(ap(F, op(S, x, y)), op(T, ap(F, x), ap(F, y)))


def oracle_twisting(F, A_s, A_t, x):
    """f a_s = a_t f on x"""
    return sub(ap(F, ap(A_s, x)), ap(A_t, ap(F, x)))


def oracle_admissible(M, A, x, y, z):
    """as(x,y,z) = 1/3 [(xz)a(y) - (zx)a(y) + (yz)a(x) - (yx)a(z)]"""
    def prod(a, b, c):
        return op(M, op(M, a, b), ap(A, c))
    rhs = sub(add(sub(prod(x, z, y), prod(z, x, y)), prod(y, z, x)), prod(y, x, z))
    return sub(oracle_associator(M, A, x, y, z), scale(Fraction(1, 3), rhs))


def oracle_flexible(M, A, x, y, z):
    """as(x,y,z) + as(z,y,x)"""
    return add(oracle_associator(M, A, x, y, z), oracle_associator(M, A, z, y, x))


def dense_contract(t: Trilinear, x, y):
    return op(dense_tensor(t), x, y)


def dense_hom_associator(mu, alpha, x, y, z):
    return oracle_associator(dense_tensor(mu), dense_matrix(alpha), x, y, z)


def dense_hom_jacobian(t, alpha, x, y, z):
    return oracle_jacobian(dense_tensor(t), dense_matrix(alpha), x, y, z)


def oracle_leaf(identity, dim, arity, residual):
    """(identity, passed, [(indices, residual)]) over all basis tuples."""
    witnesses = []
    for idx in itertools.product(range(dim), repeat=arity):
        res = residual(*(basis(dim, i) for i in idx))
        if any(v != 0 for v in res):
            witnesses.append((idx, res))
            if len(witnesses) == WITNESS_CAP:
                break
    return (identity, not witnesses, witnesses)


def oracle_reports(algebra):
    """Expected leaves of every single-algebra check, keyed by check name."""
    d = algebra.dim
    M, A = dense_tensor(algebra.mu), dense_matrix(algebra.alpha)
    bracketed = hasattr(algebra, "bracket")
    B = dense_tensor(algebra.bracket) if bracketed else M
    leaf = lambda name, arity, fn: oracle_leaf(name, d, arity, fn)
    out = {
        "antisymmetry": [leaf("antisymmetry", 2, lambda x, y: oracle_antisymmetry(B, x, y))],
        "commutative": [leaf("commutative", 2, lambda x, y: oracle_commutative(M, x, y))],
        "hom-jacobi": [leaf("hom-jacobi", 3, lambda x, y, z: oracle_jacobian(B, A, x, y, z))],
        "hom-associative": [leaf("hom-associative", 3, lambda x, y, z: oracle_associator(M, A, x, y, z))],
        "admissible": [leaf("admissible", 3, lambda x, y, z: oracle_admissible(M, A, x, y, z))],
        "hom-flexible": [leaf("hom-flexible", 3, lambda x, y, z: oracle_flexible(M, A, x, y, z))],
        "multiplicative": ([leaf("multiplicative[bracket]", 2, lambda x, y: oracle_multiplicative(B, A, x, y))]
                           if bracketed else [])
        + [leaf("multiplicative[mu]", 2, lambda x, y: oracle_multiplicative(M, A, x, y))],
    }
    if bracketed:
        out["hom-leibniz"] = [leaf("hom-leibniz", 3, lambda x, y, z: oracle_leibniz(B, M, A, x, y, z))]
        out["hom-poisson"] = (out["antisymmetry"] + out["hom-jacobi"] + out["hom-associative"]
                              + out["hom-leibniz"] + (out["commutative"] if algebra.commutative else []))
    return out


def oracle_morphism_report(f, source, target, weak):
    """Expected leaves of check_morphism(f, source, target, weak)."""
    d = source.dim
    F = dense_matrix(f)
    pairs = [("mu", source.mu, target.mu)]
    if hasattr(source, "bracket"):
        pairs.append(("bracket", source.bracket, target.bracket))
    leaves = []
    for name, s, t in pairs:
        S, T = dense_tensor(s), dense_tensor(t)
        leaves.append(oracle_leaf(f"morphism[{name}]", d, 2, lambda x, y: oracle_morphism(F, S, T, x, y)))
    if not weak:
        A_s, A_t = dense_matrix(source.alpha), dense_matrix(target.alpha)
        leaves.append(oracle_leaf("morphism[twisting]", d, 1, lambda x: oracle_twisting(F, A_s, A_t, x)))
    return leaves


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

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

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
    assert gcd(p.den, *p.terms.values()) == 1
    assert p.terms or p.den == 1
    for key in p.terms:
        assert type(key) is int and 0 <= key < 1 << (FIELD_BITS * width)
        assert all((key >> (FIELD_BITS * s)) % (1 << FIELD_BITS) <= MAX_EXPONENT for s in range(width))
