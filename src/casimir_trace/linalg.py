"""Small exact linear algebra over the integers and rationals.

Only what the representation and monodromy layers need: fraction-free
integer rank, reduced echelon form, nullspaces, inverses, and dense
matrix products over Fraction.  Matrices are stored dense but are mostly
zero (kappa and its powers, and the identity block of an inverse), so
rref and mat_mul spend Fraction arithmetic only on nonzero entries:
elimination runs over the pivot row's support.  The heavy modular work
lives in the modular kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, InvariantError


def rank_int(rows: list[list[int]], ncols: int | None = None) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return 0
    if ncols is None:
        ncols = len(m[0])
    rank = 0
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
        pivot_row = m[row][col:ncols]
        pval = pivot_row[0]
        for r in range(row + 1, nrows):
            rval = m[r][col]
            if rval:
                new = [a * pval - rval * b for a, b in zip(m[r][col:ncols], pivot_row)]
                # keep entries small; content removal is safe for rank
                g = math.gcd(*new)
                m[r][col:ncols] = [a // g for a in new] if g > 1 else new
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column list (Fraction arithmetic)."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
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
        prow = m[row]
        # rows at and below `row` vanish left of col, so the pivot row's
        # support lies in [col, ncols); zero entries need no arithmetic
        inv = 1 / prow[col]
        support = []
        for c in range(col, ncols):
            if prow[c]:
                prow[c] *= inv
                support.append((c, prow[c]))
        for r in range(nrows):
            other = m[r]
            factor = other[col]
            if r != row and factor:
                for c, x in support:
                    other[c] -= factor * x
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Canonical nullspace basis (one vector per free column of the RREF)."""
    if not rows:
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    r, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -r[prow][free]
        basis.append(v)
    return basis


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    if a and b and len(a[0]) != len(b):
        raise DomainError("matrix shapes do not compose")
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(p):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def mat_identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def mat_inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise InvariantError("matrix is singular; no inverse")
    return [row[n:] for row in r[:n]]
