import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_trace import linalg, monodromy
from casimir_trace.errors import InvariantError

F = Fraction


def dense_rref(rows):
    """Dense Gauss-Jordan over Fraction, every entry of every row updated:
    the oracle for the integer eliminations, which never divide in Q."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def dense_nullspace(rows, ncols):
    r, pivots = dense_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F(0)] * ncols
        v[free] = F(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -r[prow][free]
        basis.append(v)
    return basis


INT_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))  # about two thirds zero


@st.composite
def int_matrices(draw, square=False):
    """Mostly-zero integer matrices, some with a common factor in a row."""
    nrows = draw(st.integers(1, 7))
    ncols = nrows if square else draw(st.integers(1, 7))
    cells = draw(st.lists(INT_ENTRY, min_size=nrows * ncols, max_size=nrows * ncols))
    factors = draw(st.lists(st.sampled_from((1, 1, 2, -3)), min_size=nrows, max_size=nrows))
    return [[factors[i] * cells[i * ncols + j] for j in range(ncols)] for i in range(nrows)]


@st.composite
def sparse_columns(draw):
    """(nrows, columns) of a mostly-zero integer matrix as {row: entry}
    columns, with zero, repeated and multiple columns mixed in."""
    rows = draw(int_matrices())
    cols = [{r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]
    extra = draw(st.lists(st.tuples(st.integers(0, len(cols) - 1), st.sampled_from((0, 1, -2))),
                          max_size=3))
    cols += [{r: k * x for r, x in cols[j].items() if k} for j, k in extra]
    return len(rows), draw(st.permutations(cols))


@given(sparse_columns())
@settings(max_examples=300, deadline=None)
def test_rank_int_is_the_pivot_count_of_the_matrix_and_its_transpose(shape):
    nrows, cols = shape
    before = [dict(c) for c in cols]
    dense = [[c.get(r, 0) for c in cols] for r in range(nrows)]
    rank = len(dense_rref(dense)[1])
    assert linalg.rank_int(cols) == rank
    assert cols == before
    rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
    assert linalg.rank_int(rows) == rank


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_nullspace_int_is_the_canonical_basis_made_primitive(rows):
    ncols = len(rows[0])
    before = [list(r) for r in rows]
    canonical = dense_nullspace(rows, ncols)
    basis = linalg.nullspace_int(rows, ncols)
    assert rows == before
    assert len(basis) == len(canonical)
    for v, u in zip(basis, canonical):
        assert all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        # v = k u with k > 0, k read off the first nonzero entries
        k = F(next(x for x in v if x)) / next(x for x in u if x)
        assert k > 0 and [F(x) for x in v] == [k * x for x in u]


@given(int_matrices(square=True))
@settings(max_examples=300, deadline=None)
def test_inverse_int_is_the_inverse_over_its_least_denominator(a):
    n = len(a)
    r, pivots = dense_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        with pytest.raises(InvariantError):
            linalg.inverse_int(a)
        return
    inv = [row[n:] for row in r[:n]]
    d, b = linalg.inverse_int(a)
    assert d > 0 and all(type(x) is int for row in b for x in row)
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a] == \
        [[d * (i == j) for j in range(n)] for i in range(n)]
    assert d == math.lcm(*(x.denominator for row in inv for x in row))


def test_integer_routines_on_singular_and_empty_input():
    assert linalg.rank_int([]) == 0
    assert linalg.rank_int([{}, {0: 0}, {2: 3}, {2: -6}]) == 1
    with pytest.raises(InvariantError):
        linalg.inverse_int([[2, 4], [-1, -2]])
    assert linalg.nullspace_int([[2, 4], [-1, -2]], 2) == [[-2, 1]]
    assert linalg.nullspace_int([], 2) == [[1, 0], [0, 1]]
    assert linalg.nullspace_int([[0, 0, 6]], 3) == [[1, 0, 0], [0, 1, 0]]
    assert linalg.nullspace_int([[0, 0, 0], [0, 0, 0]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


SMALL = st.integers(-4, 4)


@given(SMALL, SMALL, SMALL, SMALL, SMALL, SMALL)
@settings(max_examples=300, deadline=None)
def test_eigvec_2x2_is_the_first_canonical_nullspace_vector(lam, u, v, k, m, shift):
    """Integer 2 x 2 matrices with rational eigenvalues are exactly lam I + N
    with N = (u, v)^T (k, m) singular: eigenvalues lam and lam + uk + vm."""
    a = [[F(lam + u * k), F(u * m)], [F(v * k), F(lam + v * m)]]
    for c in (F(lam), F(lam + u * k + v * m)):
        got = monodromy._eigvec_2x2(a, c)
        assert all(type(x) is Fraction for x in got)
        assert list(got) == dense_nullspace([[a[0][0] - c, a[0][1]], [a[1][0], a[1][1] - c]], 2)[0]
    # a value that is no eigenvalue has no eigenvector
    c = F(lam + shift, 2)
    if (a[0][0] - c) * (a[1][1] - c) != a[0][1] * a[1][0]:
        with pytest.raises(InvariantError):
            monodromy._eigvec_2x2(a, c)
