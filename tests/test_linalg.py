import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson.errors import DimensionMismatch, SingularMatrixError
from hompoisson.linalg import LinearMap, Trilinear, Vector, rat
from hompoisson.poly import Polynomial

from _oracles import ap, dense_contract, dense_kron, dense_matrix, mat_mul, random_map

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
        LinearMap.zero(3).invert()
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
    assert q.mu.contract(ex, ey) == zeta * Vector.unit(3, 2)
    assert q.mu.contract(ey, ex) == zeta * Vector.unit(3, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), rationals, rationals, st.integers(0, 7))
def test_contract_is_bilinear(i, j, a, b, seed):
    rng = random.Random(seed)
    from _oracles import random_tensor, random_vector
    t = random_tensor(rng, 3)
    x, xp = Vector.unit(3, i), Vector.unit(3, j)
    y = random_vector(rng, 3)
    combo = t.contract(a * x + b * xp, y)
    split = a * t.contract(x, y) + b * t.contract(xp, y)
    assert combo == split


def test_contract_matches_dense_oracle():
    rng = random.Random(11)
    from _oracles import random_tensor, random_vector
    for _ in range(10):
        t = random_tensor(rng, 3)
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        assert list(t.contract(x, y).entries) == dense_contract(t, x.entries, y.entries)


def test_trilinear_algebra_ops():
    t = Trilinear(2, {(0, 1, 0): Fraction(1, 2), (1, 0, 1): -1})
    assert t.op() == Trilinear(2, {(1, 0, 0): Fraction(1, 2), (0, 1, 1): -1})
    assert (t + t.op()).is_symmetric()
    assert (t - t.op()).is_antisymmetric()
    assert t.scale(2).entry(0, 1, 0) == 1
    doubler = LinearMap.diagonal([2, 2])
    assert t.map_outputs(doubler).entry(0, 1, 0) == 1
    assert t.with_entry(0, 1, 0, 0).entry(0, 1, 0) == 0


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        LinearMap.identity(2).apply(Vector.of(1, 2, 3))
    with pytest.raises(DimensionMismatch):
        LinearMap.identity(2).compose(LinearMap.identity(3))
    with pytest.raises(DimensionMismatch):
        Trilinear.zero(2).contract(Vector.of(1, 2, 3), Vector.of(1, 2, 3))
    with pytest.raises(DimensionMismatch):
        Vector.of(1) + Vector.of(1, 2)
    with pytest.raises(IndexError):
        Trilinear(2, {(0, 0, 2): 1})


# ---------------------------------------------------------------------------
# Sparse map operations against the dense oracles, on maps of every sparsity
# ---------------------------------------------------------------------------

MAP_KINDS = ("zero", "diagonal", "permutation", "singular", "dense")
# numerator and denominator drawn as integers, so failures shrink quickly
entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
nonzero_entries = entries.filter(lambda q: q != 0)
sparse_entries = st.one_of(st.just(Fraction(0)), entries)


def dense_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


@st.composite
def maps(draw, n, kinds=MAP_KINDS):
    kind = draw(st.sampled_from(kinds))
    rows = [[Fraction(0)] * n for _ in range(n)]
    if kind == "diagonal":
        for i, q in enumerate(draw(st.lists(sparse_entries, min_size=n, max_size=n))):
            rows[i][i] = q
    elif kind == "permutation":
        perm = draw(st.permutations(range(n)))
        for i, q in enumerate(draw(st.lists(nonzero_entries, min_size=n, max_size=n))):
            rows[i][perm[i]] = q
    elif kind == "singular":
        rows = draw(st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=n, max_size=n))
        # the last row is a multiple of the first (zero when n = 1)
        c = draw(entries)
        rows[-1] = [c * q for q in rows[0]] if n > 1 else [Fraction(0)]
    elif kind == "dense":
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return LinearMap(tuple(tuple(r) for r in rows))


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
    assert product.sparse_columns == LinearMap(mat_mul(a, b)).sparse_columns
    assert product.sparse_rows == LinearMap(mat_mul(a, b)).sparse_rows
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
    assert product.sparse_rows == expected.sparse_rows
    assert product.sparse_columns == expected.sparse_columns
    assert hash(product) == hash(expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_dense_oracle(data):
    n = data.draw(st.integers(1, 9), label="dim")
    m = data.draw(maps(n), label="m")
    a = dense_matrix(m)
    x = data.draw(st.lists(entries, min_size=n, max_size=n), label="x")
    assert list(m.apply(Vector(tuple(x))).entries) == ap(a, x)
    px = data.draw(poly_vectors(n), label="px")
    assert list(m.apply(px).entries) == ap(a, list(px.entries))


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
        assert all(q == 0 for q in ap(a, list(kernel.entries)))
    else:
        assert mat_mul(a, dense_matrix(inv)) == dense_identity(n) == mat_mul(dense_matrix(inv), a)
        assert m.kernel_vector() is None


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


def test_compose_is_self_after_other():
    shear = LinearMap(((1, 1), (0, 1)))
    flip = LinearMap(((0, 1), (1, 0)))
    assert shear.compose(flip).rows == mat_mul(dense_matrix(shear), dense_matrix(flip))
    assert shear.compose(flip) != flip.compose(shear)
    v = Vector.of(2, 5)
    assert shear.compose(flip).apply(v) == shear.apply(flip.apply(v)) == Vector.of(7, 2)
    # entries that cancel leave no explicit zeros behind
    unshear = LinearMap(((1, -1), (0, 1)))
    assert shear.compose(unshear).sparse_columns == (((0, Fraction(1)),), ((1, Fraction(1)),))
    assert shear.compose(unshear).is_identity()
