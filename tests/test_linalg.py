import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from hompoisson.algebra import HomAlgebra, HomPoissonAlgebra, hom_associator, tabulate
from hompoisson.constructions import commutator_poisson, depolarize, polarize, tensor
from hompoisson.errors import DimensionMismatch, GeneratorMismatch, SingularMatrixError
from hompoisson.hompower import generic_element
from hompoisson.linalg import LinearMap, Trilinear, Vector, _apply, _contract, _eliminate, _Form, _ScaledForm, rat
from hompoisson.poly import Polynomial

from _oracles import (Dense, RefPoly, add, apply, assert_canonical, dense_inverse, dense_kron, dense_matrix,
                      dense_tensor, dense_tensor_kron, mat_mul, random_map, random_tensor, ref_apply, ref_contract,
                      scale, sub, unit)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def small_matrix(dim):
    return st.lists(st.lists(rationals, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        rat("0.5")
    with pytest.raises(ValueError):
        rat("1e3")
    with pytest.raises(TypeError):
        rat(0.5)


def test_apply_identity_and_diagonal():
    ident = LinearMap.identity(2)
    assert ident.apply(Vector.of(1, 2)) == Vector.of(1, 2)
    halver = LinearMap.diagonal(["1/2", 1])
    assert halver.apply(Vector.of(2, 2)) == Vector.of(1, 2)


def test_apply_heisenberg_twist_scales_center():
    # b = a11 * a22 along the forced Z -> bZ column
    from hompoisson.catalog import heisenberg_morphism
    m = heisenberg_morphism(2, 0, 0, 3)
    assert m.apply(Vector.of(0, 0, 1)) == Vector.of(0, 0, 6)


def test_compose_and_power():
    rng = random.Random(7)
    m = random_map(rng, 3)
    assert LinearMap.identity(3).compose(m) == m
    assert m.compose(LinearMap.identity(3)) == m
    d = LinearMap.diagonal(["1/2", 1, 1])
    assert d.power(2) == LinearMap.diagonal(["1/4", 1, 1])
    assert d.power(0) == LinearMap.identity(3)
    from hompoisson.catalog import heisenberg_morphism
    sq = heisenberg_morphism(2, 0, 0, 3).power(2)
    assert sq.apply(Vector.of(0, 0, 1)) == Vector.of(0, 0, 36)


def test_invert_diagonal_and_identity():
    assert LinearMap.identity(4).invert() == LinearMap.identity(4)
    d = LinearMap.diagonal(["1/2", 1, 1])
    assert d.invert() == LinearMap.diagonal([2, 1, 1])


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        LinearMap.diagonal([0] * 3).invert()
    m = LinearMap(((1, 2), (2, 4)))
    with pytest.raises(SingularMatrixError):
        m.invert()
    k = m.kernel_vector()
    assert k is not None and not k.is_zero()
    assert m.apply(k).is_zero()
    assert LinearMap.identity(3).kernel_vector() is None


@settings(max_examples=40, deadline=None)
@given(small_matrix(3))
def test_invert_then_compose_is_identity(rows):
    m = LinearMap(tuple(tuple(r) for r in rows))
    try:
        inv = m.invert()
    except SingularMatrixError:
        assert m.kernel_vector() is not None
        return
    assert m.compose(inv) == LinearMap.identity(3)
    assert inv.compose(m) == LinearMap.identity(3)


def test_results_stay_in_lowest_terms():
    m = LinearMap((("2/4", "6/8"), ("-10/4", "3/9")))
    for row in m.invert().rows:
        for q in row:
            assert q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1


def test_contract_zero_and_catalog_products():
    from hompoisson.catalog import heisenberg_p31
    p = heisenberg_p31(1)
    ex, ey = Vector.unit(3, 0), Vector.unit(3, 1)
    assert p.bracket.contract(Vector.zero(3), ey).is_zero()
    assert p.bracket.contract(ex, ey) == Vector.unit(3, 2)
    zeta = Fraction(1, 2)
    from hompoisson.catalog import heisenberg_p31 as build
    q = build(zeta)
    assert q.mu.contract(ex, ey) == Vector.of(0, 0, zeta)
    assert q.mu.contract(ey, ex) == Vector.of(0, 0, zeta)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), rationals, rationals, st.integers(0, 7))
def test_contract_is_bilinear(i, j, a, b, seed):
    rng = random.Random(seed)
    from _oracles import random_tensor, random_vector
    t = random_tensor(rng, 3)
    x, xp = Vector.unit(3, i), Vector.unit(3, j)
    y = random_vector(rng, 3)
    combo = t.contract(Vector(add(scale(a, x), scale(b, xp))), y)
    split = add(scale(a, t.contract(x, y)), scale(b, t.contract(xp, y)))
    assert list(combo) == split


def test_contract_matches_dense_oracle():
    rng = random.Random(11)
    from _oracles import random_tensor, random_vector
    for _ in range(10):
        t = random_tensor(rng, 3)
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        assert list(t.contract(x, y).entries) == Dense.of(t)(x.entries, y.entries)


def test_repeated_index_keeps_last_value():
    """A later value for the same index replaces the earlier one, and a later
    zero removes it, as ``with_entry`` does."""
    assert Trilinear(1, [((0, 0, 0), 1), ((0, 0, 0), 2)]) == Trilinear(1, {(0, 0, 0): 2})
    cleared = Trilinear(1, [((0, 0, 0), 1), ((0, 0, 0), 0)])
    assert cleared.is_zero() and cleared.rows == {} and cleared == Trilinear.zero(1)
    assert Trilinear(1, [((0, 0, 0), 0), ((0, 0, 0), "1/2")]).entry(0, 0, 0) == Fraction(1, 2)
    t = Trilinear(2, {(0, 1, 0): Fraction(1, 2), (1, 0, 1): -1})
    assert t.with_entry(0, 1, 0, 0) == Trilinear(2, {(1, 0, 1): -1})
    assert t.with_entry(0, 1, 0, 3) == Trilinear(2, {(0, 1, 0): 3, (1, 0, 1): -1})
    # the stored numerators are brought to the new common denominator, and reduced again
    third = t.with_entry(1, 1, 0, Fraction(-1, 3))
    assert third.den == 6
    assert third == Trilinear(2, {(0, 1, 0): Fraction(1, 2), (1, 0, 1): -1, (1, 1, 0): Fraction(-1, 3)})
    assert third.with_entry(1, 1, 0, 0) == t and third.with_entry(0, 1, 0, 0).with_entry(1, 1, 0, 0).den == 1


# integral and fractional constants, zeros included
constants = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def arrays(draw, n, symmetric=False, partner=None, sign=-1):
    """A dense n x n x n array of constants.  ``symmetric`` mirrors each
    T[i][j] to T[j][i]; with a ``partner`` array, drawn cells hold ``sign``
    times its value there, so a sum with it (or with its negation) cancels."""
    T = [[[draw(constants) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        if partner is not None and draw(st.booleans()):
            T[i][j][k] = sign * partner[i][j][k]
        if symmetric and j < i:
            T[i][j][k] = T[j][i][k]
    return T


def tensor_of(T):
    n = len(T)
    return Trilinear(n, {(i, j, k): T[i][j][k] for i, j, k in itertools.product(range(n), repeat=3)})


def table(n, value):
    """The dense array whose (i, j) fibre is value(e_i, e_j), from the oracles."""
    return [[value(unit(n, i), unit(n, j)) for j in range(n)] for i in range(n)]


def dense_op(T):
    """The bench oracle's operation with the dense n x n x n array T."""
    n = len(T)
    return Dense(n, (((i, j, k), T[i][j][k]) for i, j, k in itertools.product(range(n), repeat=3)))


def assert_lowest_terms(numerators, den, values):
    """The stored ``int`` numerators over ``den`` reproduce ``values``, and
    ``den`` is their least positive common denominator: a common denominator
    is least exactly when it shares no factor with all the numerators (1 when
    every value is integral)."""
    assert type(den) is int and den > 0 and all(type(q) is int for q in numerators)
    assert [Fraction(q, den) for q in numerators] == list(values)
    assert math.gcd(den, *numerators) == 1
    assert (den == 1) == all(q.denominator == 1 for q in values)


def assert_stored_form(t, expected):
    """t equals the dense array, stores its nonzero entries as sorted int
    numerators over its least common denominator in ``rows`` and reads them
    as Fraction everywhere else, and has the fields and hash of the tensor
    rebuilt from its entries."""
    dense = dense_tensor(t)
    assert dense == expected
    assert all(type(q) is Fraction for plane in dense for fibre in plane for q in fibre)
    assert all(q != 0 and type(q) is Fraction for _, q in t.items())
    stored = [(i, j, k, q) for i, row in t.rows.items() for j, k, q in row]
    assert stored == sorted(stored) and all(t.rows.values())
    public = [(i, j, k, q) for (i, j, k), q in t.items()]
    assert [ijkq[:3] for ijkq in stored] == [ijkq[:3] for ijkq in public]
    assert_lowest_terms([q for *_, q in stored], t.den, [q for *_, q in public])
    assert_same_fields(t, Trilinear(t.dim, dict(t.items())))


def assert_same_fields(a, b):
    """a and b are equal maps or equal tensors with equal fields and hashes."""
    assert a == b and hash(a) == hash(b)
    names = ("columns", "den") if isinstance(a, LinearMap) else ("dim", "rows", "den")
    assert [getattr(a, name) for name in names] == [getattr(b, name) for name in names]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tabulated_tensors_match_dense_oracle(data):
    """The commutator bracket, the polarized halves, the depolarized sum, the
    tensor bracket and ``map_outputs`` against the dense oracles."""
    n = data.draw(st.integers(1, 3), label="dim")
    names = tuple(f"b{i}" for i in range(n))
    M = data.draw(arrays(n, symmetric=data.draw(st.booleans(), label="symmetric mu")), label="mu")
    B = data.draw(arrays(n, partner=M), label="bracket")
    mu, ident = tensor_of(M), LinearMap.identity(n)
    mu_op = dense_op(M)

    def bracket_of(x, y):
        return sub(mu_op(x, y), mu_op(y, x))

    # a zero twisting map makes every product hom-associative
    c = commutator_poisson(HomAlgebra(names, mu, LinearMap.diagonal([0] * n)))
    assert_stored_form(c.bracket, table(n, bracket_of))
    symmetric = all(M[i][j] == M[j][i] for i in range(n) for j in range(n))
    assert c.commutative == c.bracket.is_zero() == symmetric

    p = polarize(HomAlgebra(names, mu, ident))
    half = Fraction(1, 2)
    assert_stored_form(p.bracket, table(n, lambda x, y: scale(half, bracket_of(x, y))))
    assert_stored_form(p.mu, table(n, lambda x, y: scale(half, add(mu_op(x, y), mu_op(y, x)))))

    d = depolarize(HomPoissonAlgebra(names, tensor_of(B), mu, ident))
    assert_stored_form(d.mu, table(n, dense_op(B).plus(mu_op)))

    beta = [[data.draw(constants, label="beta") for _ in range(n)] for _ in range(n)]
    P = M
    if n > 1 and data.draw(st.booleans(), label="cancel through beta"):
        # beta(e_0) = beta(e_1) and every output has opposite e_0, e_1 parts
        for row in beta:
            row[1] = row[0]
        P = [[[fibre[0], -fibre[0], *fibre[2:]] for fibre in plane] for plane in M]
    product = dense_op(P)
    twisted = table(n, lambda x, y: apply(beta, product(x, y)))
    assert_stored_form(tensor_of(P).map_outputs(LinearMap(beta)), twisted)
    # the same formula tabulated, where the engine's accumulation reaches zero
    assert_stored_form(tabulate(n, lambda E, m, t, x, y: E.ap(m, E.op(t, x, y)), LinearMap(beta), tensor_of(P)),
                       twisted)

    factors = []
    for sign in (-1, 1):
        m = data.draw(st.integers(1, 3), label="factor dim")
        Mf = data.draw(arrays(m, symmetric=True), label="factor mu")
        Bf = data.draw(arrays(m, partner=Mf, sign=sign), label="factor bracket")
        factors.append((Mf, Bf, HomPoissonAlgebra(tuple(f"b{i}" for i in range(m)), tensor_of(Bf), tensor_of(Mf),
                                                  LinearMap.identity(m), commutative=True)))
    (M1, B1, a1), (M2, B2, a2) = factors
    BM, MB = dense_tensor_kron(B1, M2), dense_tensor_kron(M1, B2)
    assert_stored_form(tensor(a1, a2).bracket, table(len(BM), dense_op(BM).plus(dense_op(MB))))


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        LinearMap.identity(2).apply(Vector.of(1, 2, 3))
    with pytest.raises(DimensionMismatch):
        LinearMap.identity(2).compose(LinearMap.identity(3))
    with pytest.raises(DimensionMismatch):
        Trilinear.zero(2).contract(Vector.of(1, 2, 3), Vector.of(1, 2, 3))
    with pytest.raises(IndexError):
        Trilinear(2, {(0, 0, 2): 1})
    # a map has dimension at least 1, as a tensor does
    for empty in ((), [], iter(())):
        with pytest.raises(DimensionMismatch, match="must not be empty"):
            LinearMap(empty)
        with pytest.raises(DimensionMismatch, match="at least one entry"):
            LinearMap.diagonal(empty)


# ---------------------------------------------------------------------------
# Sparse map operations against the dense oracles, on maps of every sparsity
# ---------------------------------------------------------------------------

MAP_KINDS = ("zero", "diagonal", "permutation", "signed", "singular", "dense")
# numerator and denominator drawn as integers, so failures shrink quickly
entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
nonzero_entries = entries.filter(lambda q: q != 0)
sparse_entries = st.one_of(st.just(Fraction(0)), entries)
# the coefficients of one-term rows whose images are x_j itself, -x_j and x_j / 2
one_term_coeffs = st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2)))


def dense_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


@st.composite
def dense_rows(draw, n, kinds=MAP_KINDS):
    """The dense rows of an n x n map of one of the given kinds."""
    kind = draw(st.sampled_from(kinds))
    rows = [[Fraction(0)] * n for _ in range(n)]
    if kind == "diagonal":
        for i, q in enumerate(draw(st.lists(sparse_entries, min_size=n, max_size=n))):
            rows[i][i] = q
    elif kind in ("permutation", "signed"):
        perm = draw(st.permutations(range(n)))
        weights = nonzero_entries if kind == "permutation" else one_term_coeffs
        for i, q in enumerate(draw(st.lists(weights, min_size=n, max_size=n))):
            rows[i][perm[i]] = q
    elif kind == "singular":
        rows = draw(st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=n, max_size=n))
        # the last row is a multiple of the first (zero when n = 1)
        c = draw(entries)
        rows[-1] = [c * q for q in rows[0]] if n > 1 else [Fraction(0)]
    elif kind == "dense":
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return tuple(tuple(r) for r in rows)


def maps(n, kinds=MAP_KINDS):
    return dense_rows(n, kinds).map(LinearMap)


@st.composite
def poly_vectors(draw, n):
    """Vectors whose entries are affine polynomials a*t_i + b (or zero)."""
    gens = Polynomial.variables([f"t{i}" for i in range(1, n + 1)])
    coords = []
    for _ in range(n):
        i, a, b = draw(st.integers(0, n - 1)), draw(sparse_entries), draw(sparse_entries)
        coords.append(a * gens[i] + b)
    return Vector(tuple(coords))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_power_and_identity_match_dense_oracle(data):
    n = data.draw(st.integers(1, 9), label="dim")
    m, other = data.draw(maps(n), label="m"), data.draw(maps(n), label="other")
    a, b = dense_matrix(m), dense_matrix(other)
    ident = dense_identity(n)
    product = m.compose(other)
    assert product.rows == mat_mul(a, b)
    assert_same_fields(product, LinearMap(mat_mul(a, b)))
    k = data.draw(st.integers(0, 4), label="power")
    expected = ident
    for _ in range(k):
        expected = mat_mul(expected, a)
    assert m.power(k).rows == expected
    assert m.is_identity() == (m.rows == ident)
    assert product.is_identity() == (mat_mul(a, b) == ident)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kron_matches_dense_oracle(data):
    kinds = ("zero", "diagonal", "permutation", "dense")
    n1, n2 = data.draw(st.integers(1, 4), label="dim1"), data.draw(st.integers(1, 4), label="dim2")
    m1, m2 = data.draw(maps(n1, kinds), label="m1"), data.draw(maps(n2, kinds), label="m2")
    expected = LinearMap(dense_kron(dense_matrix(m1), dense_matrix(m2)))
    product = m1.kron(m2)
    assert product.rows == expected.rows
    assert_same_fields(product, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from((0.0, 0.3, 1.0)), st.integers(0, 2 ** 16))
def test_trilinear_kron_matches_dense_oracle(d1, d2, fill, seed):
    rng = random.Random(seed)
    t1, t2 = random_tensor(rng, d1, fill), random_tensor(rng, d2, fill)
    expected = dense_tensor_kron(dense_tensor(t1), dense_tensor(t2))
    assert_stored_form(t1.kron(t2), expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_dense_oracle(data):
    n = data.draw(st.integers(1, 9), label="dim")
    m = data.draw(maps(n), label="m")
    a = dense_matrix(m)
    x = data.draw(st.lists(entries, min_size=n, max_size=n), label="x")
    assert list(m.apply(Vector(tuple(x))).entries) == apply(a, x)
    px = data.draw(poly_vectors(n), label="px")
    assert list(m.apply(px).entries) == apply(a, list(px.entries))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invert_and_kernel_match_dense_oracle(data):
    n = data.draw(st.integers(1, 9), label="dim")
    m = data.draw(maps(n), label="m")
    a = dense_matrix(m)
    try:
        inv = m.invert()
    except SingularMatrixError:
        kernel = m.kernel_vector()
        assert kernel is not None and not kernel.is_zero()
        assert all(q == 0 for q in apply(a, list(kernel.entries)))
    else:
        assert mat_mul(a, dense_matrix(inv)) == dense_identity(n) == mat_mul(dense_matrix(inv), a)
        assert_same_fields(inv, LinearMap(inv.rows))
        assert m.kernel_vector() is None


BUILDS = ("rows", "diagonal", "identity", "zero", "compose", "power", "kron", "invert")


@st.composite
def built_maps(draw):
    """A map built one of the ways the library builds maps, with the dense
    matrix of the same map computed independently of the library."""
    how = draw(st.sampled_from(BUILDS))
    n = draw(st.integers(1, 6))
    if how == "rows":
        a = draw(dense_rows(n))
        return how, LinearMap(a), a
    if how == "diagonal":
        values = draw(st.lists(st.one_of(one_term_coeffs, sparse_entries), min_size=n, max_size=n))
        a = tuple(tuple(values[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))
        return how, LinearMap.diagonal(values), a
    if how == "identity":
        return how, LinearMap.identity(n), dense_identity(n)
    if how == "zero":
        return how, LinearMap.diagonal([0] * n), tuple((Fraction(0),) * n for _ in range(n))
    if how == "compose":
        a, b = draw(dense_rows(n)), draw(dense_rows(n))
        return how, LinearMap(a).compose(LinearMap(b)), mat_mul(a, b)
    if how == "power":
        a, k = draw(dense_rows(n)), draw(st.integers(0, 4))
        expected = dense_identity(n)
        for _ in range(k):
            expected = mat_mul(expected, a)
        return how, LinearMap(a).power(k), expected
    if how == "kron":
        n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        a, b = draw(dense_rows(n1)), draw(dense_rows(n2))
        return how, LinearMap(a).kron(LinearMap(b)), dense_kron(a, b)
    a = draw(dense_rows(n, ("diagonal", "permutation", "signed", "dense")))
    inverse = dense_inverse(a)
    assume(inverse is not None)
    return how, LinearMap(a).invert(), inverse


def check_apply(m, a, x):
    """m applied to x equals the dense product, entry types included: a zero
    is Fraction(0), and an entry a polynomial reached is a polynomial."""
    out = m.apply(Vector(tuple(x))).entries
    expected = apply(a, x)
    assert list(out) == expected
    assert [type(e) for e in out] == [type(e) for e in expected]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_stored_form_matches_dense_oracle_however_built(data):
    """The stored form of a map built any way agrees with the dense matrix:
    its integer columns over ``den`` are in lowest terms and reproduce every
    nonzero entry, and the dense view, entries, columns, application, fields
    and hash agree with the oracle and with the map rebuilt from its dense
    rows."""
    how, m, a = data.draw(built_maps(), label="map")
    n = len(a)
    assert m.dim == n
    stored = [(i, j, q) for j, line in enumerate(m.columns) for i, q in line]
    assert all(list(line) == sorted(line) for line in m.columns)
    expected = [(i, j, a[i][j]) for j in range(n) for i in range(n) if a[i][j]]
    assert [ijq[:2] for ijq in stored] == [ijq[:2] for ijq in expected]
    assert_lowest_terms([q for *_, q in stored], m.den, [q for *_, q in expected])
    assert m.int_rows == tuple(tuple((j, q) for i2, j, q in sorted(stored) if i2 == i) for i in range(n))
    assert m.rows == a
    assert all(type(q) is Fraction for row in m.rows for q in row)
    assert [[m.entry(i, j) for j in range(n)] for i in range(n)] == [list(row) for row in a]
    assert [m.apply(Vector.unit(n, j)) for j in range(n)] == [Vector(tuple(row[j] for row in a)) for j in range(n)]
    assert_same_fields(m, LinearMap(m.rows))
    check_apply(m, a, data.draw(st.lists(sparse_entries, min_size=n, max_size=n), label="x"))
    # generic coordinates, some replaced by the rational or the polynomial zero
    generic = generic_element(n).entries
    zeros = (Fraction(0), Polynomial.zero(generic[0].generators))
    zeroed = data.draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(zeros)), label="zeroed")
    check_apply(m, a, [zeroed.get(i, t) for i, t in enumerate(generic)])


def test_invert_and_kernel_at_dim_81():
    """Dim-81 diagonal and weighted permutation maps, invertible and with one
    zero weight, against the dense oracle and their closed-form inverses."""
    n = 81
    rng = random.Random(81)
    perm = list(range(n))
    rng.shuffle(perm)
    weights = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4)) for _ in range(n)]
    probes = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(3)]
    for where in (perm, list(range(n))):
        # column j has the weight w_j in row where[j]
        a = [[Fraction(0)] * n for _ in range(n)]
        expected = [[Fraction(0)] * n for _ in range(n)]
        for j, (i, w) in enumerate(zip(where, weights)):
            a[i][j] = w
            expected[j][i] = 1 / w
        m = LinearMap(tuple(map(tuple, a)))
        inv = m.invert()
        assert inv.rows == tuple(map(tuple, expected))
        assert_same_fields(inv, LinearMap(inv.rows))
        for x in probes:
            assert apply(a, apply(dense_matrix(inv), x)) == x
        assert m.kernel_vector() is None
        # zero the weight of column 40: the kernel vector is the unit vector there
        a[where[40]][40] = Fraction(0)
        singular = LinearMap(tuple(map(tuple, a)))
        with pytest.raises(SingularMatrixError):
            singular.invert()
        kernel = singular.kernel_vector()
        assert kernel == Vector.unit(n, 40)
        assert all(q == 0 for q in apply(a, list(kernel.entries)))
    # the same diagonal built sparsely: its inverse is the entrywise reciprocal
    assert LinearMap.diagonal(weights).invert() == LinearMap.diagonal([1 / w for w in weights])


def test_entry_and_column_read_the_sparse_form():
    """Entries, and columns read as the images of unit vectors, of a dim-729
    diagonal and of a dense map equal the dense oracle without building the
    dense view; an entry index outside 0..dim-1 raises IndexError."""
    rng = random.Random(729)
    values = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(729)]
    a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(5)]
    cases = [(LinearMap.diagonal(values), lambda i, j: values[i] if i == j else Fraction(0), range(0, 729, 91)),
             (LinearMap(a), lambda i, j: a[i][j], range(5))]
    for m, oracle, sample in cases:
        n = m.dim
        for i in sample:
            assert [m.entry(i, j) for j in range(n)] == [oracle(i, j) for j in range(n)]
            assert m.apply(Vector.unit(n, i)) == Vector(tuple(oracle(k, i) for k in range(n)))
        assert all(type(m.entry(i, i)) is Fraction for i in sample)
        for bad in ((n, 0), (0, n), (-1, 0), (0, -1)):
            with pytest.raises(IndexError):
                m.entry(*bad)
        assert "rows" not in vars(m)


def test_stored_form_holds_int_numerators_over_one_denominator():
    """Maps and tensors store int numerators over their least common
    denominator, and the sweep engine reads them as they are; every value
    read out is a Fraction."""
    m = LinearMap(((2, "1/2"), (0, "-1/3")))
    assert m.den == 6 and m.columns == (((0, 12),), ((0, 3), (1, -2)))
    assert m.int_rows == (((0, 12), (1, 3)), ((1, -2),))
    assert_lowest_terms([q for line in m.columns for _, q in line], m.den,
                        [Fraction(2), Fraction(1, 2), Fraction(-1, 3)])
    integral, zero = LinearMap(((2, 4), (0, -1))), LinearMap.diagonal([0, 0])
    assert integral.den == 1 and integral.columns == (((0, 2),), ((0, 4), (1, -1)))
    assert zero.den == 1 and zero.columns == ((), ())
    t = Trilinear(2, {(0, 1, 0): 3, (0, 1, 1): "2/3", (1, 0, 0): Fraction(4, 2), (1, 1, 1): "-5/4"})
    assert t.den == 12 and t.rows == {0: ((1, 0, 36), (1, 1, 8)), 1: ((0, 0, 24), (1, 1, -15))}
    assert_lowest_terms([q for row in t.rows.values() for _, _, q in row], t.den, [q for _, q in t.items()])
    assert Trilinear(2, {(0, 1, 0): 3, (1, 0, 0): Fraction(4, 2)}).den == 1 and Trilinear.zero(2).den == 1
    assert all(type(q) is Fraction for _, q in t.items())
    assert all(type(q) is Fraction for row in m.rows for q in row)
    e0, e1 = Vector.unit(2, 0), Vector.unit(2, 1)
    assert t.contract(e0, e1) == Vector.of(3, "2/3")
    assert all(type(q) is Fraction for q in t.contract(e0, e1).entries + t.contract(e1, e0).entries)
    assert type(t.entry(1, 0, 0)) is Fraction and type(m.entry(0, 0)) is Fraction
    assert type(m.apply(e1).entries[1]) is Fraction


def test_equal_values_have_equal_fields_however_built():
    """Products that reduce, down to values of 1, store the same fields as
    the same values given directly."""
    half_three, two_third = LinearMap.diagonal((Fraction(1, 2), 3)), LinearMap.diagonal((2, Fraction(1, 3)))
    product = half_three.compose(two_third)
    assert product.is_identity() and product.den == 1
    for m in (product, two_third.compose(half_three), LinearMap(((1, 0), (0, 1))),
              LinearMap.diagonal((1, 1)), two_third.invert().compose(half_three.invert())):
        assert_same_fields(m, LinearMap.identity(2))
    assert_same_fields(two_third.invert(), half_three)
    assert_same_fields(LinearMap.diagonal((Fraction(1, 2),)).kron(LinearMap.diagonal((2, 4))),
                       LinearMap.diagonal((1, 2)))
    t = Trilinear(2, {(0, 1, 0): Fraction(1, 2), (1, 1, 1): 3})
    ones = Trilinear(2, {(0, 1, 0): 1, (1, 1, 1): 1})
    assert_same_fields(t.map_outputs(two_third), ones)
    assert_same_fields(tabulate(2, lambda E, m, s, x, y: E.ap(m, E.op(s, x, y)), two_third, t), ones)
    half, scaled = Trilinear(1, {(0, 0, 0): Fraction(1, 2)}), Trilinear(2, {(0, 1, 0): 1, (1, 1, 1): 6})
    assert_same_fields(half.kron(scaled), t)
    assert_same_fields(ones.map_outputs(half_three), t)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from((0.3, 1.0)), st.integers(0, 2 ** 16), st.data())
def test_tensors_round_trip_to_equal_fields(n, fill, seed, data):
    """A tensor pushed through an invertible map and back, or tabulated
    again, stores the fields of the tensor itself."""
    t = random_tensor(random.Random(seed), n, fill)
    m = data.draw(maps(n, ("diagonal", "permutation", "dense")), label="m")
    assume(m.kernel_vector() is None)
    assert_same_fields(t.map_outputs(m).map_outputs(m.invert()), t)
    assert_same_fields(tabulate(n, lambda E, s, x, y: E.op(s, x, y), t), t)
    a, T = dense_matrix(m), dense_tensor(t)
    assert_stored_form(t.map_outputs(m), [[apply(a, T[i][j]) for j in range(n)] for i in range(n)])


def test_tensor_indices_are_range_checked():
    """The ``Trilinear`` constructor, ``entry`` and ``with_entry`` raise
    IndexError for an index outside 0..dim-1, as ``LinearMap.entry`` and
    ``Vector.unit`` do, and TypeError for an index that is not an ``int``
    (a float, a ``Fraction`` or a ``bool``); the constructor refuses a
    dimension that is not an ``int`` the same way."""
    from hompoisson.catalog import heisenberg_p31
    mu = heisenberg_p31(1).mu
    assert mu.entry(0, 1, 2) == 1
    for bad in ((5, 0, 0), (-1, 0, 2), (0, 3, 0), (0, -1, 2), (0, 1, 3), (0, 1, -1)):
        with pytest.raises(IndexError):
            mu.entry(*bad)
        with pytest.raises(IndexError):
            mu.with_entry(*bad, 1)
        with pytest.raises(IndexError):
            Trilinear(3, {bad: 1})
    for bad in ((0.5, 0, 0), (0, 1.0, 2), (0, 1, Fraction(2)), (Fraction(1, 2), 0, 0), (True, 0, 0), (0, False, 2)):
        with pytest.raises(TypeError, match="basis index .* is not an int"):
            mu.entry(*bad)
        with pytest.raises(TypeError, match="basis index .* is not an int"):
            mu.with_entry(*bad, 1)
        with pytest.raises(TypeError, match="basis index .* is not an int"):
            Trilinear(3, {bad: 1})
    for dim in (2.0, Fraction(2), True):
        with pytest.raises(TypeError, match="tensor dimension"):
            Trilinear(dim, {(0, 0, 0): 1})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_vector_is_first_free_column_vector(data):
    """The kernel vector is 1 at the first column that depends on the earlier
    ones, 0 at every later column; sympy's nullspace lists that vector first."""
    import sympy
    n = data.draw(st.integers(1, 6), label="dim")
    m = data.draw(maps(n), label="m")
    null = sympy.Matrix([[sympy.Rational(q.numerator, q.denominator) for q in row] for row in m.rows]).nullspace()
    kernel = m.kernel_vector()
    if not null:
        assert kernel is None
    else:
        assert list(kernel.entries) == [Fraction(int(q.p), int(q.q)) for q in null[0]]


@st.composite
def int_rows(draw):
    """Sparse ``int`` rows over ``ncols`` columns, as many as ``ncols`` or
    more or fewer, rows of zeros and none at all among them; a drawn
    combination of two rows keeps the rank below the number of rows."""
    ncols = draw(st.integers(1, 6), label="ncols")
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-6, 6).filter(bool), max_size=ncols)
    rows = draw(st.lists(row, max_size=8), label="rows")
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        combination = {c: v for c in range(ncols) if (v := a * rows[0].get(c, 0) + b * rows[1].get(c, 0))}
        rows.insert(draw(st.integers(0, len(rows))), combination)
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(int_rows())
def test_elimination_matches_sympy_rref(case):
    """The pivot columns are sympy's, as many as the rank; each returned row
    is ``int`` throughout, and over its pivot it is sympy's reduced row.  The
    rows given are left as they were."""
    import sympy
    rows, ncols = case
    given_rows = [dict(row) for row in rows]
    pivots = _eliminate(rows, ncols)
    assert rows == given_rows
    matrix = sympy.Matrix(len(rows), ncols, lambda i, c: rows[i].get(c, 0))
    reduced, columns = matrix.rref()
    assert tuple(pivots) == columns and len(pivots) == matrix.rank()
    for k, (col, row) in enumerate(pivots.items()):
        assert all(type(c) is int and type(x) is int and x for c, x in row.items())
        assert ([Fraction(row.get(c, 0), row[col]) for c in range(ncols)]
                == [Fraction(int(q.p), int(q.q)) for q in reduced.row(k)])


def test_vector_entries_are_rational_or_polynomial():
    """``Vector.of`` coerces every entry but a polynomial by ``rat``, so it
    refuses a float; a vector built directly with an entry that is neither
    rational nor a polynomial is refused, naming the coordinate, where a
    product reads it."""
    t = Polynomial.var(("t",), "t")
    assert Vector.of(t, "1/2", 3, Fraction(2, 3)).entries == (t, Fraction(1, 2), Fraction(3), Fraction(2, 3))
    with pytest.raises(TypeError):
        Vector.of(1, 0.5)
    single = HomAlgebra(("a", "b"), Trilinear(2, {(0, 1, 1): 1}), LinearMap.diagonal([1, 2]))
    for bad in (0.5, 0.0, "1/2", None):
        v = Vector((Fraction(1), bad))
        for run in (lambda: single.mu.contract(v, v), lambda: single.alpha.apply(v),
                    lambda: hom_associator(single, v, v, v)):
            with pytest.raises(TypeError, match="coordinate 1"):
                run()


def test_compose_is_self_after_other():
    shear = LinearMap(((1, 1), (0, 1)))
    flip = LinearMap(((0, 1), (1, 0)))
    assert shear.compose(flip).rows == mat_mul(dense_matrix(shear), dense_matrix(flip))
    assert shear.compose(flip) != flip.compose(shear)
    v = Vector.of(2, 5)
    assert shear.compose(flip).apply(v) == shear.apply(flip.apply(v)) == Vector.of(7, 2)
    # entries that cancel leave no explicit zeros behind
    unshear = LinearMap(((1, -1), (0, 1)))
    assert shear.compose(unshear).columns == (((0, 1),), ((1, 1),)) and shear.compose(unshear).den == 1
    assert shear.compose(unshear).is_identity()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_with_the_identity_returns_the_other_factor(data):
    n = data.draw(st.integers(1, 6), label="dim")
    m = data.draw(maps(n), label="m")
    full = LinearMap(mat_mul(dense_matrix(m), dense_identity(n)))
    for ident in (LinearMap.identity(n), LinearMap(dense_identity(n))):
        # of two identities, the first is returned
        assert m.compose(ident) is m and ident.compose(m) is (ident if m.is_identity() else m)
        assert m.compose(ident) == full and ident.compose(m) == full
    with pytest.raises(DimensionMismatch):
        LinearMap.identity(n + 1).compose(m)
    with pytest.raises(DimensionMismatch):
        m.compose(LinearMap.identity(n + 1))


# ---------------------------------------------------------------------------
# The contraction kernel on sparse forms against a triple loop
# ---------------------------------------------------------------------------

KDIM = 3
# numerators with stored zeros and, often, units of both signs
kernel_numerators = st.sampled_from((0, 1, 1, -1, -1, 2, -3))


@st.composite
def kernel_columns(draw, codes=4, sizes=(None, 0, 1, 1, 2, 3)):
    """Sparse columns {n: {code: numerator}}, codes below ``codes``, each of
    one of ``sizes`` entries (None: absent), with stored zero numerators."""
    columns = {}
    for n in range(KDIM):
        size = draw(st.sampled_from(sizes))
        if size is not None:
            columns[n] = draw(st.dictionaries(st.integers(0, codes - 1), kernel_numerators, min_size=size,
                                              max_size=size))
    return columns


@st.composite
def unit_forms(draw, slot, indices=st.lists(st.integers(0, KDIM - 1), unique=True)):
    """A unit form of argument ``slot`` on the columns ``indices`` draws: one
    code per column, with numerator 1 (``_Form.units``) or, half the time,
    a scaled unit form with any nonzero numerator (``_ScaledForm``)."""
    codes = {n: draw(st.integers(0, 3)) for n in draw(indices)}
    if draw(st.booleans()):
        form = _Form.unit(codes, 1 << slot)
    else:
        scaled = {n: (code, draw(kernel_numerators.filter(bool))) for n, code in codes.items()}
        form = _ScaledForm({n: {code: q} for n, (code, q) in scaled.items()}, 1 << slot, 1, scaled)
    form.den = draw(st.integers(1, 4))
    return form


@st.composite
def kernel_forms(draw, slot):
    """A form of argument ``slot``: sparse columns, or a unit or scaled unit
    form.  Sparse columns are drawn three times in five, so that both
    operands are sparse, the only case that reaches the general path, in
    about a third of the examples, and both are scaled in about one in
    twenty-five."""
    if draw(st.sampled_from(("columns", "columns", "columns", "unit", "unit"))) == "columns":
        return _Form(draw(kernel_columns()), 1 << slot, draw(st.integers(1, 4)))
    return draw(unit_forms(slot))


def form_state(f):
    """A copy of everything a form holds, to show that the kernel reads it only."""
    return {n: dict(col) for n, col in f.cols.items()}, f.units and dict(f.units), f.scaled and dict(f.scaled)


@st.composite
def kernel_tensors(draw):
    keys = st.tuples(*(st.integers(0, KDIM - 1),) * 3)
    data = draw(st.dictionaries(keys, kernel_numerators.filter(bool), min_size=4, max_size=16))
    return Trilinear._of(KDIM, {(i * KDIM + j) * KDIM + k: q for (i, j, k), q in data.items()},
                         draw(st.integers(1, 4)))


def reference_contract(t, a, b, out, factor):
    """The columns of ``out`` plus ``factor`` times t(a, b), by a plain triple
    loop: an output column for every tensor entry whose operand columns are
    both present, an entry for every code a product reaches."""
    out = {k: dict(col) for k, col in out.items()}
    for i, row in t.rows.items():
        for j, k, q in row:
            if i in a.cols and j in b.cols:
                col = out.setdefault(k, {})
                for ca, qa in a.cols[i].items():
                    for cb, qb in b.cols[j].items():
                        col[ca + cb] = col.get(ca + cb, 0) + factor * q * qa * qb
    return out


@settings(max_examples=600, deadline=None)
# a pre-filled output holds many of the codes the products reach (0 to 6)
@given(kernel_tensors(), kernel_forms(0), kernel_forms(1), st.none() | kernel_columns(7, (None, 2, 4, 7)),
       st.sampled_from((1, -1, 3)))
def test_contract_matches_triple_loop(t, a, b, out, factor):
    operands = [form_state(f) for f in (a, b)]
    expected = reference_contract(t, a, b, out or {}, factor)
    form = _contract(t, a, b, out, factor)
    assert form.cols == expected
    if out is not None:
        assert form.cols is out
    assert (form.slots, form.den) == (a.slots | b.slots, t.den * a.den * b.den)
    # the operands are read only: a sweep reuses memoised forms across blocks
    assert [form_state(a), form_state(b)] == operands


@st.composite
def sized_kernel_forms(draw, slot, unit, size):
    """A form of argument ``slot`` with ``size`` columns: a unit or scaled
    unit form, or sparse columns of 0 to 3 entries with stored zero
    numerators."""
    indices = st.lists(st.integers(0, KDIM - 1), min_size=size, max_size=size, unique=True)
    if unit:
        return draw(unit_forms(slot, indices))
    form = _Form({n: draw(st.dictionaries(st.integers(0, 3), kernel_numerators, max_size=3)) for n in draw(indices)},
                 1 << slot)
    form.den = draw(st.integers(1, 4))
    return form


@pytest.mark.parametrize("a_unit, b_unit, swapped, into_out",
                         list(itertools.product((False, True), repeat=4)))
# not shrunk: a failing example is reported as drawn, at once for all 16 cases
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_contract_from_either_operand_matches_triple_loop(a_unit, b_unit, swapped, into_out, data):
    """Each of the kernel paths, with ``b`` the operand of fewer columns
    (run through the tensor's opposite) and without, alone and into an
    output: every case is drawn, and the tensor's opposite is built exactly
    when ``b`` has fewer columns.  A unit operand is plain or scaled, so
    two unit operands take the path of two plain, of two scaled, or of one
    of them."""
    t = data.draw(kernel_tensors())
    na = data.draw(st.integers(1 if swapped else 0, KDIM))
    nb = data.draw(st.integers(0, na - 1) if swapped else st.integers(na, KDIM))
    a, b = data.draw(sized_kernel_forms(0, a_unit, na)), data.draw(sized_kernel_forms(1, b_unit, nb))
    out = data.draw(kernel_columns(7, (None, 2, 4, 7))) if into_out else None
    factor = data.draw(st.sampled_from((1, -1, 3)))
    assert (len(b.cols) < len(a.cols)) == swapped
    assert tuple(f.units is not None or f.scaled is not None for f in (a, b)) == (a_unit, b_unit)
    operands = [form_state(f) for f in (a, b)]
    expected = reference_contract(t, a, b, out or {}, factor)
    form = _contract(t, a, b, out, factor)
    assert ("_opposite" in vars(t)) == swapped
    assert form.cols == expected
    if into_out:
        assert form.cols is out
    assert (form.slots, form.den) == (a.slots | b.slots, t.den * a.den * b.den)
    assert [form_state(a), form_state(b)] == operands


@settings(max_examples=100, deadline=None)
@given(kernel_tensors(), st.booleans())
def test_opposite_and_commutative_match_the_dense_transpose(t, symmetric):
    """``_opposite`` holds entry (i, j, k) at (j, i, k) over the same
    denominator and declares nothing; it is its own inverse; and
    ``_commutative`` agrees with a dense symmetry test.  Half the tensors
    are made symmetric by adding their opposite."""
    n = KDIM
    if symmetric:
        dense = dense_tensor(t)
        t = Trilinear(n, {(i, j, k): dense[i][j][k] + dense[j][i][k]
                          for i in range(n) for j in range(n) for k in range(n)})
    dense, opposite = dense_tensor(t), t._opposite
    assert dense_tensor(opposite) == [[[dense[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]
    assert opposite.den == t.den and opposite.perms == ()
    assert opposite._opposite.rows == t.rows
    symmetric_dense = all(dense[i][j][k] == dense[j][i][k] for i in range(n) for j in range(n) for k in range(n))
    assert t._commutative == symmetric_dense
    if symmetric:
        assert t._commutative


@settings(max_examples=100, deadline=None)
@given(kernel_tensors(), st.booleans())
def test_opposite_regroups_to_the_tensor_of_swapped_keys(t, declares):
    """``_opposite`` regroups the stored rows, with no sort or gcd: its rows,
    in their order, and ``den`` are those of the tensor ``_of`` builds from
    the swapped keys, and it declares nothing, also when ``t`` declares a
    permutation.  Drawn tensors have ``den`` 1 to 4 in lowest terms."""
    n = KDIM
    if declares:
        t = Trilinear._of(n, {(i * n + j) * n + k: q for i, row in t.rows.items() for j, k, q in row}, t.den,
                          perms=((2, 0, 1),))
    swapped = Trilinear._of(n, {(j * n + i) * n + k: q for i, row in t.rows.items() for j, k, q in row}, t.den)
    opposite = t._opposite
    assert list(opposite.rows.items()) == list(swapped.rows.items())
    assert (opposite.dim, opposite.den, opposite.perms) == (n, swapped.den, ())


@st.composite
def kernel_maps(draw):
    """A map of ``KDIM``: columns of 0 to ``KDIM`` nonzero numerators, units
    of both signs among them, or one nonzero per column, in a diagonal, a
    permutation or a scaled permutation, or in a near miss of those, with a
    repeated row or a zero column."""
    nonzero = kernel_numerators.filter(bool)
    kind = draw(st.sampled_from(("columns", "columns", "diagonal", "permutation", "scaled", "repeated row",
                                 "zero column")))
    if kind == "columns":
        columns = tuple(tuple(sorted(draw(st.dictionaries(st.integers(0, KDIM - 1), nonzero, max_size=KDIM)).items()))
                        for _ in range(KDIM))
    else:
        rows = list(range(KDIM)) if kind == "diagonal" else draw(st.permutations(range(KDIM)))
        j, other = draw(st.lists(st.integers(0, KDIM - 1), min_size=2, max_size=2, unique=True))
        if kind == "repeated row":
            rows[j] = rows[other]
        columns = [((i, 1 if kind == "permutation" else draw(nonzero)),) for i in rows]
        if kind == "zero column":
            columns[j] = ()
        columns = tuple(columns)
    return LinearMap._of(columns, draw(st.integers(1, 4)))


def reference_apply(m, a, out, factor):
    """The columns of ``out`` plus ``factor`` times m(a), by a plain double
    loop: an output column for every map entry whose operand column is
    present, an entry for every code of that column."""
    out = {i: dict(col) for i, col in out.items()}
    for j, line in enumerate(m.columns):
        if j in a.cols:
            for i, coeff in line:
                col = out.setdefault(i, {})
                for code, q in a.cols[j].items():
                    col[code] = col.get(code, 0) + factor * coeff * q
    return out


FULL_UNIT = _Form.unit({0: 0, 1: 1, 2: 3}, 1)


@settings(max_examples=400, deadline=None)
# unit forms drawn more often than in kernel_forms: they alone can be relabelled
@given(kernel_maps(), kernel_forms(0) | unit_forms(0), st.none() | kernel_columns(7, (None, 2, 4, 7)),
       st.sampled_from((1, -1, 3)))
# on every column: a scaled permutation, and near misses with two nonzeros
# in a column, a repeated row and a zero column
@example(LinearMap._of((((2, -3),), ((0, 2),), ((1, 1),)), 2), FULL_UNIT, None, 3)
@example(LinearMap._of((((0, 1), (1, 2)), ((2, 1),), ((1, 1),)), 1), FULL_UNIT, None, 1)
@example(LinearMap._of((((0, 2),), ((0, 1),), ((1, 1),)), 1), FULL_UNIT, None, 1)
@example(LinearMap._of((((1, 2),), (), ((0, 1),)), 1), FULL_UNIT, None, 1)
def test_apply_matches_double_loop(m, a, out, factor):
    """Without ``out``, a map relabels a unit form to a scaled unit form when
    it maps the form's columns to one nonzero each, in distinct rows; any
    other application, of a scaled unit form too, is a general form.  A
    near miss relabels only a form that avoids its repeated row's columns
    or its zero column."""
    operand = form_state(a)
    expected = reference_apply(m, a, out or {}, factor)
    form = _apply(m, a, out, factor)
    assert form.cols == expected
    if out is not None:
        assert form.cols is out
    assert (form.slots, form.den) == (a.slots, m.den * a.den)
    images = [[i for i, row in enumerate(dense_matrix(m)) if row[j]] for j in a.cols]
    relabels = all(len(rows) == 1 for rows in images) and len({rows[0] for rows in images}) == len(images)
    assert (form.scaled is not None) == (relabels and out is None and a.units is not None)
    assert form.units is None
    if form.scaled is not None:
        assert form.cols == {n: {code: q} for n, (code, q) in form.scaled.items()}
    # the operand is read only: a sweep reuses memoised forms across blocks
    assert form_state(a) == operand


# ---------------------------------------------------------------------------
# Contraction and application on polynomial vectors against RefPoly
# ---------------------------------------------------------------------------

PGENS = ("t1", "t2", "t3")
# numerator and denominator drawn as integers: mixed denominators, some zeros
poly_coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def poly_entries(draw):
    """An entry and its RefPoly: a zero or nonzero rational, the zero
    polynomial, or a polynomial with up to four terms."""
    kind = draw(st.sampled_from(("zero", "rational", "zero-poly", "poly")))
    if kind == "zero":
        return Fraction(0), RefPoly(PGENS)
    if kind == "rational":
        q = draw(poly_coeffs)
        return q, RefPoly.const(PGENS, q)
    terms = {} if kind == "zero-poly" else draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(PGENS)), poly_coeffs, min_size=1, max_size=4))
    return Polynomial(PGENS, terms), RefPoly(PGENS, terms)


@st.composite
def cancelling_tensors(draw, n):
    """A tensor whose entries come in part with a swapped, negated partner, so
    that contracting a vector with itself cancels those outputs to zero."""
    cells = st.tuples(*[st.integers(0, n - 1)] * 3)
    data = draw(st.dictionaries(cells, poly_coeffs, max_size=2 * n * n))
    for (i, j, k), q in list(data.items()):
        if draw(st.booleans()):
            data[(j, i, k)] = -q
    return Trilinear(n, data)


def check_entries(got, ref):
    """Polynomial entries canonical and equal to the reference; an entry that
    no polynomial reached is a Fraction equal to the constant reference."""
    assert len(got.entries) == len(ref)
    for g, r in zip(got.entries, ref):
        if isinstance(g, Polynomial):
            assert_canonical(g)
            assert g.generators == PGENS
            assert g.sorted_terms() == r.sorted_terms()
            assert str(g) == r.render()
        else:
            assert type(g) is Fraction
            assert ({(0,) * len(PGENS): g} if g else {}) == r.terms


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_contract_and_apply_on_polynomial_vectors_match_reference(data):
    n = data.draw(st.integers(1, 4), label="dim")
    t = data.draw(cancelling_tensors(n), label="tensor")
    x = data.draw(st.lists(poly_entries(), min_size=n, max_size=n), label="x")
    y = x if data.draw(st.booleans(), label="y is x") else data.draw(
        st.lists(poly_entries(), min_size=n, max_size=n), label="y")
    vx, rx = Vector(tuple(e for e, _ in x)), [r for _, r in x]
    vy, ry = Vector(tuple(e for e, _ in y)), [r for _, r in y]
    out, ref = t.contract(vx, vy), ref_contract(t, rx, ry)
    check_entries(out, ref)
    m = data.draw(maps(n), label="m")
    image, ref_image = m.apply(out), ref_apply(dense_matrix(m), ref)
    check_entries(image, ref_image)
    check_entries(t.contract(image, vy), ref_contract(t, ref_image, ry))
    check_entries(m.apply(vx), ref_apply(dense_matrix(m), rx))


def test_contract_output_that_cancels_is_the_zero_polynomial():
    t1, t2, _ = Polynomial.variables(PGENS)
    t = Trilinear(2, {(0, 1, 0): Fraction(1, 2), (1, 0, 0): Fraction(-1, 2), (0, 0, 1): 3})
    x = Vector((Fraction(1, 3) * t1 + 2, Fraction(2, 5) * t2 * t2))
    out = t.contract(x, Vector((Fraction(0), x[1])))
    # out_0 = x_0 x_1 / 2 - 0: a polynomial; out_1 has no nonzero triple: Fraction 0
    assert out.entries[0] == Fraction(1, 2) * x[0] * x[1] and type(out.entries[1]) is Fraction
    zero = t.contract(x, x).entries[0]
    assert type(zero) is Polynomial and zero.terms == {} and zero.den == 1
    assert zero == Polynomial.zero(PGENS) and hash(zero) == hash(Polynomial.zero(PGENS))
    assert t.contract(x, x).entries[1] == 3 * x[0] * x[0]
    with pytest.raises(GeneratorMismatch):
        t.contract(x, Vector((Polynomial.var(("s",), "s"), x[1])))
    # rationals only: the output stays a Fraction
    assert t.contract(Vector.of(1, "1/2"), Vector.of("2/3", 3)).entries == (Fraction(4, 3), Fraction(2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: LinearMap(((1, 2), (3,))), DimensionMismatch, "linear map matrix must be square"),
    (lambda: LinearMap.identity(2).power(-1), ValueError,
     "negative matrix powers not supported; call invert() explicitly"),
    (lambda: Trilinear(0), ValueError, "tensor dimension must be positive"),
    (lambda: Trilinear(3).map_outputs(LinearMap.identity(2)), DimensionMismatch, "map dim 2 vs tensor dim 3"),
])
def test_input_guards(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
