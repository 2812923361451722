"""Small exact linear algebra over the integers, fraction-free.

Only what the representation and monodromy layers need: integer rank,
and primitive integer nullspaces and inverses.  rank_int takes the matrix
as the sparse {row: entry} columns its callers build (e on a weight space,
and the powers of kappa_v - v at a collision of the Verma flag walk), and
keeps one reduced column per leading row.  The flat section is built on
integers: nullspace_int and inverse_int share one fraction-free
Gauss-Jordan elimination on dense rows that keeps every row primitive, and
give a primitive integer nullspace basis and S^-1 as (d, B) with S B = d I.
The 2 x 2 Jordan forms need none of it: they are closed-form in
monodromy.  Those rows are mostly zero (kappa and its powers, and the
identity block of an inverse), so Gauss-Jordan runs over the pivot row's
support, and scales a whole row only when the pivot does not divide the
entry it clears.  No module of the package calls the modular kernel:
kappa's spectra and Jordan blocks come from the Verma flag walk in
monodromy, which ranks exactly with rank_int.

rank_int keeps its own elimination, although the number of
_gauss_jordan_int's pivots is the same rank: on the 135 rank calls that
spectral makes on six collision-heavy spaces (M10 x M10 x P at weights -30
and -20, P x P x P at -16 and -14, P x P at -40, (P x P)^6 at -22; up to
n = 484) and that check_multiplicities makes, rank_int took 0.036-0.039 s
of CPU and counting the pivots on the same matrices as dense rows
2.3-2.5 s (2 vCPUs, pure Python).  Ranking needs no cleared entries above
the pivot, no primitive rows and no dense copy.
"""

from __future__ import annotations

import math

from .errors import InvariantError


def rank_int(cols: list[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse {row: entry} columns.

    Fraction-free column elimination keyed by leading row: each column is
    reduced by the kept column with its leading (smallest) row until it
    leads at a row no kept column leads at, and is kept there, or it
    reduces to zero.  Kept columns lead at distinct rows, so they are
    independent and their number is the rank."""
    kept: dict[int, dict[int, int]] = {}
    for col in cols:
        v = {r: x for r, x in col.items() if x}
        while v:
            lead = min(v)
            pivot = kept.get(lead)
            if pivot is None:
                kept[lead] = v
                break
            g = math.gcd(pivot[lead], v[lead])
            a, b = pivot[lead] // g, v[lead] // g
            if a != 1:
                v = {r: a * x for r, x in v.items()}
            for r, x in pivot.items():
                s = v.get(r, 0) - b * x
                if s:
                    v[r] = s
                else:
                    del v[r]
            # keep entries small; content removal is safe for rank
            g = math.gcd(*v.values())
            if g > 1:
                v = {r: x // g for r, x in v.items()}
    return len(kept)


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
