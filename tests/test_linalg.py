import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_trace import linalg
from casimir_trace.errors import InvariantError

F = Fraction


def dense_rref(rows):
    """Dense Gauss-Jordan over Fraction, every entry of every row updated:
    the oracle for linalg.rref."""
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


NONZERO = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 5))
ENTRY = st.one_of(st.just(F(0)), st.just(F(0)), NONZERO)  # about two thirds zero


@st.composite
def sparse_matrices(draw, square=False):
    """Mostly-zero rational matrices, with whole zero rows and columns."""
    nrows = draw(st.integers(1, 7))
    ncols = nrows if square else draw(st.integers(1, 7))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    cells = draw(st.lists(ENTRY, min_size=nrows * ncols, max_size=nrows * ncols))
    return [[F(0) if i in zero_rows or j in zero_cols else cells[i * ncols + j]
             for j in range(ncols)] for i in range(nrows)]


def _all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_rref_matches_dense_elimination(rows):
    before = [list(r) for r in rows]
    got = linalg.rref(rows)
    assert got == dense_rref(rows)
    assert _all_fractions(got[0])
    assert rows == before  # the input is not touched


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_matches_dense_elimination(rows):
    ncols = len(rows[0])
    basis = linalg.nullspace(rows, ncols)
    assert basis == dense_nullspace(rows, ncols)
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


@given(sparse_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_mat_inverse_matches_dense_elimination(a):
    n = len(a)
    aug = [list(row) + [F(i == j) for j in range(n)] for i, row in enumerate(a)]
    r, pivots = dense_rref(aug)
    if pivots[:n] != list(range(n)):
        with pytest.raises(InvariantError):
            linalg.mat_inverse(a)
        return
    inv = linalg.mat_inverse(a)
    assert inv == [row[n:] for row in r[:n]]
    assert linalg.mat_mul(a, inv) == linalg.mat_identity(n)


def test_rref_of_no_rows_and_of_a_zero_matrix():
    assert linalg.rref([]) == ([], [])
    zero = [[F(0)] * 3 for _ in range(2)]
    assert linalg.rref(zero) == (zero, [])
    assert linalg.nullspace(zero, 3) == linalg.mat_identity(3)


INT_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))  # about two thirds zero


@st.composite
def int_matrices(draw, square=False):
    """Mostly-zero integer matrices, some with a common factor in a row."""
    nrows = draw(st.integers(1, 7))
    ncols = nrows if square else draw(st.integers(1, 7))
    cells = draw(st.lists(INT_ENTRY, min_size=nrows * ncols, max_size=nrows * ncols))
    factors = draw(st.lists(st.sampled_from((1, 1, 2, -3)), min_size=nrows, max_size=nrows))
    return [[factors[i] * cells[i * ncols + j] for j in range(ncols)] for i in range(nrows)]


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_nullspace_int_is_the_canonical_basis_made_primitive(rows):
    ncols = len(rows[0])
    before = [list(r) for r in rows]
    canonical = linalg.nullspace([[F(x) for x in r] for r in rows], ncols)
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
    try:
        inv = linalg.mat_inverse([[F(x) for x in r] for r in a])
    except InvariantError:
        with pytest.raises(InvariantError):
            linalg.inverse_int(a)
        return
    d, b = linalg.inverse_int(a)
    assert d > 0 and all(type(x) is int for row in b for x in row)
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a] == \
        [[d * (i == j) for j in range(n)] for i in range(n)]
    assert d == math.lcm(*(x.denominator for row in inv for x in row))


def test_integer_routines_on_singular_and_empty_input():
    with pytest.raises(InvariantError):
        linalg.inverse_int([[2, 4], [-1, -2]])
    assert linalg.nullspace_int([[2, 4], [-1, -2]], 2) == [[-2, 1]]
    assert linalg.nullspace_int([], 2) == [[1, 0], [0, 1]]
    assert linalg.nullspace_int([[0, 0, 6]], 3) == [[1, 0, 0], [0, 1, 0]]
