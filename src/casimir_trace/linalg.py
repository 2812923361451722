"""Small exact linear algebra over the integers, fraction-free.

Only what the representation and monodromy layers need: integer rank,
and primitive integer nullspaces and inverses.  The flat section is built
on integers: nullspace_int and inverse_int share one fraction-free
Gauss-Jordan elimination that keeps every row primitive, and give a
primitive integer nullspace basis and S^-1 as (d, B) with S B = d I.
The 2 x 2 Jordan forms need none of it: they are closed-form in
monodromy.  Matrices are stored dense but are mostly zero (kappa and its
powers, and the identity block of an inverse), so the eliminations spend
arithmetic mostly on nonzero entries: Gauss-Jordan runs over the pivot
row's support, and scales a whole row only when the pivot does not divide
the entry it clears.  No module of the package calls the modular kernel:
kappa's spectra and Jordan blocks come from the Verma flag walk in
monodromy, which ranks exactly with rank_int.

rank_int keeps its own forward elimination, although the number of
_gauss_jordan_int's pivots is the same rank: on the 112 rank calls that
spectral's collision blocks make on six spaces (up to n = 484, from
M10 x M10 x P at weight -30) and check_multiplicities makes, rank_int took
0.15-0.16 s of CPU and counting the pivots 0.75-0.78 s (2 vCPUs, pure
Python).  Ranking needs no cleared rows above the pivot and no
primitive rows, only the zeros below it.
"""

from __future__ import annotations

import math

from .errors import InvariantError


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


def _gauss_jordan_int(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan over Z, pivoting in the first ncols columns
    only: (m, pivots) with every pivot positive, every pivot column zero
    outside its pivot row and every row primitive (content 1), so row
    r / m[r][pivots[r]] is row r of the reduced echelon form over Q.

    A row r is cleared at column col as (p/g) r - (f/g) p_row, g = gcd(p, f),
    then divided by its content; that division keeps the entries small and
    is what makes each row primitive."""
    m = []
    for r in rows:
        g = math.gcd(*r)
        m.append([a // g for a in r] if g > 1 else list(r))
    nrows = len(m)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        # the smallest pivot keeps the row multipliers small
        cands = [(abs(m[r][col]), r) for r in range(row, nrows) if m[r][col]]
        if not cands:
            continue
        piv = min(cands)[1]
        m[row], m[piv] = m[piv], m[row]
        prow = m[row]
        if prow[col] < 0:
            prow = m[row] = [-x for x in prow]
        p = prow[col]
        support = [(c, prow[c]) for c in range(col, len(prow)) if prow[c]]
        for r in range(nrows):
            other = m[r]
            f = other[col]
            if r != row and f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    other = [a * x for x in other]
                for c, x in support:
                    other[c] -= b * x
                g = math.gcd(*other)
                m[r] = [x // g for x in other] if g > 1 else other
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def nullspace_int(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Primitive integer nullspace basis of an integer matrix: one vector per
    free column, each the positive multiple of the canonical vector of the
    reduced echelon form over Q (1 at its free column, 0 at the others) with
    content 1."""
    m, pivots = _gauss_jordan_int(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        # canonical vector: 1 at free, -m[r][free] / m[r][pcol] at each pivot
        lcd = math.lcm(*(m[r][pcol] for r, pcol in enumerate(pivots) if m[r][free]))
        v = [0] * ncols
        v[free] = lcd
        for r, pcol in enumerate(pivots):
            if m[r][free]:
                v[pcol] = -m[r][free] * lcd // m[r][pcol]
        g = math.gcd(*v)
        basis.append([x // g for x in v] if g > 1 else v)
    return basis


def inverse_int(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(d, B) with a B = d I for a nonsingular integer matrix a: d > 0 is the
    least common denominator of a^-1 and B = d a^-1."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, pivots = _gauss_jordan_int(aug, n)
    if pivots != list(range(n)):
        raise InvariantError("matrix is singular; no inverse")
    # row i is (p e_i | r_i) with content 1, so r_i / p is in lowest terms
    d = math.lcm(*(m[i][i] for i in range(n)))
    return d, [[x * (d // m[i][i]) for x in m[i][n:]] for i in range(n)]
