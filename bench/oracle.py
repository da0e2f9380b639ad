"""Independent dense recomputation of identity residuals and power recursions.

Nothing here calls the library's checkers, sweeps, sparse helpers or
``Trilinear.contract``: tensors are read once through ``items()`` into plain
dictionaries of dense output rows, maps through ``rows``, and every identity is
written out again from its definition.  The benchmark uses these routes to fix
expected verdicts and to recompute every witness residual a job reports.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
THIRD = Fraction(1, 3)


class Dense:
    """A bilinear operation as {(i, j): dense output row}."""

    def __init__(self, dim, entries):
        self.dim = dim
        self.rows = {}
        for (i, j, k), q in entries:
            row = self.rows.setdefault((i, j), [ZERO] * dim)
            row[k] += q

    @classmethod
    def of(cls, trilinear):
        return cls(trilinear.dim, trilinear.items())

    def plus(self, other):
        out = Dense(self.dim, ())
        for src in (self, other):
            for key, row in src.rows.items():
                acc = out.rows.setdefault(key, [ZERO] * self.dim)
                for k, q in enumerate(row):
                    acc[k] += q
        return out

    def __call__(self, x, y):
        out = [ZERO] * self.dim
        xs = [(i, a) for i, a in enumerate(x) if a]
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in xs:
            for j, b in ys:
                row = self.rows.get((i, j))
                if row is None:
                    continue
                ab = a * b
                for k, q in enumerate(row):
                    if q:
                        out[k] += ab * q
        return out


def dense_map(linear_map):
    return [list(r) for r in linear_map.rows]


def apply(m, x):
    return [sum((a * b for a, b in zip(row, x) if a and b), ZERO) for row in m]


def unit(dim, i):
    v = [ZERO] * dim
    v[i] = Fraction(1)
    return v


def add(*vs):
    return [sum(col, ZERO) for col in zip(*vs)]


def sub(x, y):
    return [a - b for a, b in zip(x, y)]


def scale(c, x):
    return [c * a for a in x]


def is_zero(x):
    return not any(x)


# ---------------------------------------------------------------------------
# Identity residuals at basis tuples, from the definitions
# ---------------------------------------------------------------------------

class Residuals:
    """Residuals of every basis-sweep identity for one algebra.

    ``bracket`` is None for single-product algebras; the Jacobi-type
    identities then use the product, as the library does.  Operations are
    ``Dense`` objects, the twisting map a list of rows.
    """

    def __init__(self, mu, alpha_rows, bracket=None):
        self.mu = mu
        self.br = bracket
        self.alpha = [list(r) for r in alpha_rows]
        self.dim = mu.dim
        self._acols = [apply(self.alpha, unit(self.dim, k)) for k in range(self.dim)]

    @classmethod
    def of(cls, algebra):
        bracket = getattr(algebra, "bracket", None)
        return cls(Dense.of(algebra.mu), algebra.alpha.rows,
                   Dense.of(bracket) if bracket is not None else None)

    @classmethod
    def depolarized(cls, algebra):
        """The single product bracket + mu, as ``depolarize`` defines it."""
        return cls(Dense.of(algebra.bracket).plus(Dense.of(algebra.mu)), algebra.alpha.rows)

    def e(self, i):
        return unit(self.dim, i)

    def ae(self, i):
        return self._acols[i]

    def jac_op(self):
        return self.br if self.br is not None else self.mu

    def associator(self, i, j, k):
        m, e = self.mu, self.e
        return sub(m(m(e(i), e(j)), self.ae(k)), m(self.ae(i), m(e(j), e(k))))

    def residual(self, identity, idx):
        e, ae, mu = self.e, self.ae, self.mu
        if identity == "antisymmetry":
            t = self.jac_op()
            i, j = idx
            return add(t(e(i), e(j)), t(e(j), e(i)))
        if identity == "commutative":
            i, j = idx
            return sub(mu(e(i), e(j)), mu(e(j), e(i)))
        if identity == "hom-jacobi":
            t = self.jac_op()
            i, j, k = idx
            return add(t(t(e(i), e(j)), ae(k)), t(t(e(k), e(i)), ae(j)), t(t(e(j), e(k)), ae(i)))
        if identity == "hom-associative":
            return self.associator(*idx)
        if identity == "hom-leibniz":
            br = self.br
            i, j, k = idx
            return sub(sub(br(ae(i), mu(e(j), e(k))), mu(br(e(i), e(j)), ae(k))),
                       mu(ae(j), br(e(i), e(k))))
        if identity.startswith("multiplicative["):
            t = self.br if identity == "multiplicative[bracket]" else mu
            i, j = idx
            return sub(apply(self.alpha, t(e(i), e(j))), t(ae(i), ae(j)))
        if identity == "admissible":
            i, j, k = idx
            rhs = add(mu(mu(e(i), e(k)), ae(j)), scale(-1, mu(mu(e(k), e(i)), ae(j))),
                      mu(mu(e(j), e(k)), ae(i)), scale(-1, mu(mu(e(j), e(i)), ae(k))))
            return sub(self.associator(i, j, k), scale(THIRD, rhs))
        if identity == "hom-flexible":
            i, j, k = idx
            return add(self.associator(i, j, k), self.associator(k, j, i))
        raise KeyError(identity)


class MorphismResiduals:
    """Residuals of f(op_s(x, y)) - op_t(f x, f y) and f a_s - a_t f."""

    def __init__(self, f, source, target):
        self.f = dense_map(f)
        self.dim = f.dim
        self.ops = {"morphism[mu]": (Dense.of(source.mu), Dense.of(target.mu))}
        if hasattr(source, "bracket") and hasattr(target, "bracket"):
            self.ops["morphism[bracket]"] = (Dense.of(source.bracket), Dense.of(target.bracket))
        self.sa = dense_map(source.alpha)
        self.ta = dense_map(target.alpha)
        self._fcols = [apply(self.f, unit(self.dim, k)) for k in range(self.dim)]

    def residual(self, identity, idx):
        if identity == "morphism[twisting]":
            (j,) = idx
            x = unit(self.dim, j)
            return sub(apply(self.f, apply(self.sa, x)), apply(self.ta, apply(self.f, x)))
        s, t = self.ops[identity]
        i, j = idx
        fi, fj = self._fcols[i], self._fcols[j]
        return sub(apply(self.f, s(unit(self.dim, i), unit(self.dim, j))), t(fi, fj))

    def identities(self, weak):
        names = list(self.ops)
        return names if weak else names + ["morphism[twisting]"]

    def first_failure(self, weak):
        for name in self.identities(weak):
            arity = 1 if name == "morphism[twisting]" else 2
            for idx in _tuples(self.dim, arity):
                if not is_zero(self.residual(name, idx)):
                    return name, idx
        return None


def _tuples(dim, arity):
    if arity == 1:
        return ((i,) for i in range(dim))
    if arity == 2:
        return ((i, j) for i in range(dim) for j in range(dim))
    return ((i, j, k) for i in range(dim) for j in range(dim) for k in range(dim))


# ---------------------------------------------------------------------------
# Report verification
# ---------------------------------------------------------------------------

def verify_report(report, oracle, expect_pass, certificate=None, max_witnesses=10):
    """Return None when a check report agrees with the oracle, else a reason.

    Every witness residual is recomputed; witnesses must be nonzero, in
    strictly increasing lexicographic order and at most ``max_witnesses`` per
    leaf.  ``certificate`` is an (identity, tuple) the oracle found nonzero:
    that leaf must fail and either list the tuple or be full of earlier ones.
    """
    if report.passed != expect_pass:
        return f"verdict {'pass' if report.passed else 'fail'}, expected {'pass' if expect_pass else 'fail'}"
    leaves = {leaf.identity: leaf for leaf in report.flat()}
    for leaf in leaves.values():
        if leaf.passed != (not leaf.witnesses):
            return f"{leaf.identity}: passed flag disagrees with its witnesses"
        if len(leaf.witnesses) > max_witnesses:
            return f"{leaf.identity}: {len(leaf.witnesses)} witnesses"
        previous = None
        for w in leaf.witnesses:
            idx = tuple(w.indices)
            if previous is not None and idx <= previous:
                return f"{leaf.identity}: witnesses out of order at {idx}"
            previous = idx
            expected = oracle.residual(leaf.identity, idx)
            if is_zero(expected):
                return f"{leaf.identity}{idx}: reported residual but oracle gives zero"
            if list(w.residual.entries) != expected:
                return f"{leaf.identity}{idx}: residual differs from the dense route"
    if certificate is not None:
        identity, idx = certificate
        leaf = leaves.get(identity)
        if leaf is None or leaf.passed:
            return f"{identity}: oracle-certified failure at {idx} not reported"
        found = [tuple(w.indices) for w in leaf.witnesses]
        if idx not in found and not (len(found) == max_witnesses and found[-1] < idx):
            return f"{identity}{idx}: oracle-certified witness missing"
    return None


def find_failure(oracle, identities, candidates):
    """First (identity, tuple) among the candidates with a nonzero residual."""
    for identity in identities:
        arity = 2 if identity in ("antisymmetry", "commutative") or identity.startswith(
            ("multiplicative[", "morphism[")) else 3
        for idx in candidates(arity):
            if not is_zero(oracle.residual(identity, idx)):
                return identity, idx
    return None


# ---------------------------------------------------------------------------
# Power recursion on a concrete point
# ---------------------------------------------------------------------------

class PowerOracle:
    """Twisted powers x^1 = x, x^m = x^(m-1) a^(m-2)(x) at a rational point."""

    def __init__(self, mu, alpha, point):
        self.mu = Dense.of(mu)
        self.alpha = dense_map(alpha)
        self.point = list(point)

    def alpha_pow(self, m, x):
        for _ in range(m):
            x = apply(self.alpha, x)
        return x

    def table(self, n):
        x = self.point
        out = [None, x]
        for m in range(2, n + 1):
            out.append(self.mu(out[-1], self.alpha_pow(m - 2, x)))
        return out

    def power_residuals(self, n):
        """{i: x^n - a^(i-1)(x^(n-i)) a^(n-i-1)(x^i)} for i = 1..n-1."""
        t = self.table(n)
        return {i: sub(t[n], self.mu(self.alpha_pow(i - 1, t[n - i]), self.alpha_pow(n - i - 1, t[i])))
                for i in range(1, n)}

    def criterion_residuals(self):
        """{3: x^2 a(x) - a(x) x^2, 4: x^4 - a(x^2) a(x^2)}."""
        t = self.table(4)
        ax = apply(self.alpha, t[1])
        ax2 = apply(self.alpha, t[2])
        return {3: sub(self.mu(t[2], ax), self.mu(ax, t[2])), 4: sub(t[4], self.mu(ax2, ax2))}
