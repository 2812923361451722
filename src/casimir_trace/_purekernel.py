"""Modular linear-algebra primitives over Z/m, in pure Python.

m is a product of distinct odd primes below 2^61 (one prime is the special
case).  Since Z/m is isomorphic to the product of the Z/p, one pass modulo m
gives the result modulo every prime factor at once, provided every pivot is
a unit modulo m: a unit is nonzero modulo every p, so each step is a
similarity (charpoly) or row operation (rank) modulo every p.  A pivot that
is nonzero but not a unit raises NonUnitPivot with g = gcd(pivot, m), a
proper divisor of m; the caller then splits m = g * (m // g) and recomputes
modulo each factor ("dynamic evaluation").  Entries are reduced mod m on
entry.
"""

from __future__ import annotations

import math
from operator import mul

NAME = "pure"


class NonUnitPivot(ArithmeticError):
    """A pivot was a zero divisor modulo m; ``g`` = gcd(pivot, m)."""

    def __init__(self, g: int):
        super().__init__(f"pivot shares the factor {g} with the modulus")
        self.g = g


def _inverse(x: int, m: int) -> int:
    try:
        return pow(x, -1, m)
    except ValueError:
        raise NonUnitPivot(math.gcd(x, m)) from None


def charpoly_mod(flat: list[int], n: int, m: int) -> list[int]:
    """Characteristic polynomial det(xI - A) mod m, coefficients ascending.

    Hessenberg reduction by similarity (Cohen, Alg. 2.2.9), then the
    standard leading-minor recurrence; O(n^3) ring operations.  Sums of
    products are reduced once, not per term, which matters when m spans
    many primes."""
    h = [[flat[i * n + j] % m for j in range(n)] for i in range(n)]
    for col in range(n - 2):
        piv = None
        for r in range(col + 1, n):
            if h[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != col + 1:
            h[piv], h[col + 1] = h[col + 1], h[piv]
            for row in h:
                row[piv], row[col + 1] = row[col + 1], row[piv]
        inv = _inverse(h[col + 1][col], m)
        # L H L^-1 with L = I - t e_(col+1)^T: first every row r -= t_r row
        # col+1 (which no row operation changes), then column col+1 +=
        # sum_r t_r column r
        prow = h[col + 1]
        cols = [c for c in range(col, n) if prow[c]]
        vals = [prow[c] for c in cols]
        rs, ts = [], []
        for r in range(col + 2, n):
            t = h[r][col] * inv % m
            if t:
                hrow = h[r]
                for c, b in zip(cols, vals):
                    hrow[c] = (hrow[c] - t * b) % m
                rs.append(r)
                ts.append(t)
        if rs:
            for row in h:
                row[col + 1] = (row[col + 1] + sum(map(mul, ts, map(row.__getitem__, rs)))) % m
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        # polys[k] = (x - h[k-1][k-1]) polys[k-1] - sum_i b_i polys[i-1]
        prev = polys[k - 1]
        a = h[k - 1][k - 1]
        acc = [a * c for c in prev]
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * h[i][i - 1] % m
            if not prod:
                break
            b = h[i - 1][k - 1] * prod % m
            if b:
                acc[:i] = [u + b * v for u, v in zip(acc, polys[i - 1])]
        acc.append(0)
        polys.append([(c - d) % m for c, d in zip([0] + prev, acc)])
    return polys[n]


def rank_mod(flat: list[int], nrows: int, ncols: int, m: int) -> int:
    """Rank mod m, the same modulo every prime factor of m."""
    a = [[flat[i * ncols + j] % m for j in range(ncols)] for i in range(nrows)]
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = _inverse(a[rank][col], m)
        prow = a[rank]
        cols = [c for c in range(col, ncols) if prow[c]]
        vals = [prow[c] for c in cols]
        for r in range(rank + 1, nrows):
            t = a[r][col] * inv % m
            if t:
                ar = a[r]
                for c, y in zip(cols, vals):
                    ar[c] = (ar[c] - t * y) % m
        rank += 1
        if rank == nrows:
            break
    return rank


def matmul_mod(a: list[int], b: list[int], n: int, m: int) -> list[int]:
    out = []
    for i in range(n):
        acc = [0] * n
        for k, x in enumerate(a[i * n : (i + 1) * n]):
            if x:
                acc = [u + x * v for u, v in zip(acc, b[k * n : (k + 1) * n])]
        out += [u % m for u in acc]
    return out
