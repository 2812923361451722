"""Certified integer spectra on top of one modular kernel (_purekernel).

One modulus, many primes: Z/M is isomorphic to the product of the Z/p_i for
M = p_1 ... p_k, so a single Hessenberg reduction or elimination modulo M
yields every residue at once, as long as every pivot is a unit modulo M.
A pivot that is a nonzero zero divisor shares a proper factor g with M; the
computation then splits M = g * (M / g) and recurses on both factors, so the
per-prime computation is just the fully split case.  Every pivot used is a
unit modulo each prime, so each residue is the one a per-prime run gives.

The spectrum is never searched for: the caller predicts it (for kappa, from
the character; see monodromy) and integer_spectrum proves the prediction by
comparing det(xI - A) with prod (x - c)^m modulo enough primes.  First it
checks that the multiplicities add up to n and that every predicted c lies
in the Gershgorin window [-R, R].  Then the coefficient of x^(n-k) in
either polynomial is +-e_k of n numbers of absolute value at most R, hence
at most C(n,k) R^k <= (1+R)^n in absolute value: for the characteristic
polynomial because every complex eigenvalue lies in the window, for the
prediction because of the window check.  Two such polynomials that agree
modulo M > 2 (1+R)^n are equal over Z.  Without the window check a
predicted eigenvalue c + M would pass for c.  Two proof levels, reported
via the ``exact`` flag:

* dimension <= EXACT_DIM_MAX: the comparison runs modulo primes whose
  product exceeds 8 (1+R)^n, taken MODULUS_PRIMES at a time, so equality
  holds over Z and the spectrum is proven.
* above the threshold: the comparison runs modulo the product of three
  fixed 61-bit primes, backed by exact Newton checks (sum of m c = tr A,
  sum of m c^2 = tr A^2 over Z).  A wrong prediction would need
  simultaneous coincidences modulo three independent ~2^61 primes.
"""

from __future__ import annotations

import math

from . import _purekernel
from ._purekernel import NonUnitPivot
from .errors import InvariantError

PRIMES61 = (
    2305843009213693951, 2305843009213693921, 2305843009213693907, 2305843009213693723,
    2305843009213693693, 2305843009213693669, 2305843009213693613, 2305843009213693561,
    2305843009213693549, 2305843009213693487, 2305843009213693421, 2305843009213693373,
    2305843009213693277, 2305843009213693193, 2305843009213693153, 2305843009213693133,
    2305843009213693123, 2305843009213693109, 2305843009213693093, 2305843009213693013,
    2305843009213692967, 2305843009213692937, 2305843009213692799, 2305843009213692757,
    2305843009213692737, 2305843009213692671, 2305843009213692653, 2305843009213692601,
    2305843009213692581, 2305843009213692527, 2305843009213692463, 2305843009213692427,
    2305843009213692419, 2305843009213692409, 2305843009213692343, 2305843009213692331,
    2305843009213692283, 2305843009213692211, 2305843009213692199, 2305843009213692139,
    2305843009213692107, 2305843009213692103, 2305843009213692097, 2305843009213692089,
    2305843009213692083, 2305843009213692043, 2305843009213692031, 2305843009213692029,
    2305843009213692007, 2305843009213691993, 2305843009213691929, 2305843009213691869,
    2305843009213691837, 2305843009213691819, 2305843009213691767, 2305843009213691581,
    2305843009213691579, 2305843009213691569, 2305843009213691567, 2305843009213691551,
    2305843009213691413, 2305843009213691401, 2305843009213691357, 2305843009213691347,
    2305843009213691287, 2305843009213691257, 2305843009213691041, 2305843009213691033,
    2305843009213690937, 2305843009213690907, 2305843009213690883, 2305843009213690873,
    2305843009213690871, 2305843009213690847, 2305843009213690813, 2305843009213690801,
    2305843009213690799, 2305843009213690769, 2305843009213690657, 2305843009213690627,
    2305843009213690621, 2305843009213690591, 2305843009213690589, 2305843009213690579,
    2305843009213690543, 2305843009213690511, 2305843009213690487, 2305843009213690327,
    2305843009213690283, 2305843009213690159, 2305843009213690153, 2305843009213690117,
    2305843009213690087, 2305843009213690057, 2305843009213690039, 2305843009213690021,
    2305843009213690019, 2305843009213689949, 2305843009213689937, 2305843009213689877,
    2305843009213689833, 2305843009213689811, 2305843009213689767, 2305843009213689733,
    2305843009213689709, 2305843009213689601, 2305843009213689593, 2305843009213689559,
    2305843009213689521, 2305843009213689509, 2305843009213689493, 2305843009213689487,
    2305843009213689479, 2305843009213689427, 2305843009213689377, 2305843009213689353,
    2305843009213689293, 2305843009213689229, 2305843009213689223, 2305843009213689203,
    2305843009213689163, 2305843009213689157, 2305843009213689133, 2305843009213689089,
    2305843009213689067, 2305843009213688983, 2305843009213688909, 2305843009213688873,
)


EXACT_DIM_MAX = 240
CERTIFYING_PRIMES = PRIMES61[:3]
CERTIFYING_MODULUS = math.prod(CERTIFYING_PRIMES)

# The one modular kernel; backend_name() reports its NAME.
BACKEND = _purekernel


def backend_name() -> str:
    return BACKEND.NAME


def _crt_join(low: list[int], a: int, high: list[int], b: int) -> list[int]:
    """The x in [0, ab) with x = low mod a and x = high mod b, for coprime a, b."""
    inv = pow(a, -1, b)
    return [x + a * ((y - x) * inv % b) for x, y in zip(low, high)]


def _charpoly_mod(flat: list[int], n: int, m: int) -> list[int]:
    """det(xI - A) mod m, m a product of distinct table primes, in one pass
    unless a pivot is a zero divisor; then m splits at the gcd and the two
    halves rejoin by CRT."""
    try:
        return BACKEND.charpoly_mod(flat, n, m)
    except NonUnitPivot as split:
        a, b = split.g, m // split.g
        return _crt_join(_charpoly_mod(flat, n, a), a, _charpoly_mod(flat, n, b), b)


# Primes per modulus.  A ring operation costs a fixed interpreter overhead
# plus a bigint part quadratic in the modulus length, so the time per prime
# falls and then rises with the number of primes in one modulus.  Measured
# on kappa matrices: 9 to 11 primes cost the same as one modulus or as
# moduli of 8 (n = 52 to 60); at n = 221, 34 primes took 14.0 s in moduli of
# 24, 10.4 s in moduli of 12 and 9.6 s in moduli of 8.
MODULUS_PRIMES = 12


def _exact_moduli(n: int, radius: int) -> list[int]:
    """Moduli of at most MODULUS_PRIMES table primes whose product exceeds
    8 (1 + radius)^n: two coefficients within the Gershgorin bound
    (1 + radius)^n differ by less than a quarter of that."""
    bits = 2 + math.ceil(n * math.log2(1 + radius))
    primes = []
    modulus = 1
    for p in PRIMES61:
        primes.append(p)
        modulus *= p
        if modulus.bit_length() > bits + 1:
            break
    else:
        raise InvariantError(f"prime table exhausted at dimension {n}, Gershgorin radius {radius}")
    return [math.prod(primes[i : i + MODULUS_PRIMES]) for i in range(0, len(primes), MODULUS_PRIMES)]


def gershgorin_radius(flat: list[int], n: int) -> int:
    """Every eigenvalue lies in [-R, R] for both the row and column bound;
    the smaller of the two maxima is still valid."""
    rowmax = max(sum(abs(flat[i * n + j]) for j in range(n)) for i in range(n))
    colmax = max(sum(abs(flat[i * n + j]) for i in range(n)) for j in range(n))
    return min(rowmax, colmax)


def _predicted_charpoly(eigs: list[tuple[int, int]]) -> list[int]:
    """prod (x - c)^m over Z, coefficients ascending."""
    poly = [1]
    for c, m in eigs:
        factor = [math.comb(m, k) * (-c) ** (m - k) for k in range(m + 1)]
        out = [0] * (len(poly) + m)
        for i, a in enumerate(poly):
            if a:
                for k, b in enumerate(factor):
                    out[i + k] += a * b
        poly = out
    return poly


def trace_of(flat: list[int], n: int) -> int:
    return sum(flat[i * n + i] for i in range(n))


def trace_of_square(flat: list[int], n: int) -> int:
    total = 0
    for i in range(n):
        base = i * n
        for j in range(n):
            x = flat[base + j]
            if x:
                total += x * flat[j * n + i]
    return total


def integer_spectrum(
    flat: list[int], n: int, predicted: list[tuple[int, int]]
) -> tuple[list[tuple[int, int]], bool]:
    """Proves that det(xI - A) = prod (x - c)^m over the predicted (c, m).

    Returns (the predicted pairs sorted, exact), where ``exact`` records the
    proof level (True: equal over Z; False: triple-prime certificate).
    Raises InvariantError when the matrix does not have the predicted
    spectrum."""
    eigs = sorted(predicted)
    if any(m < 1 for _, m in eigs) or sum(m for _, m in eigs) != n:
        raise InvariantError(f"predicted multiplicities {eigs} do not make up dimension {n}")
    if n == 0:
        return [], True
    radius = gershgorin_radius(flat, n)
    outside = [c for c, _ in eigs if abs(c) > radius]
    if outside:
        raise InvariantError(
            f"predicted eigenvalues {outside} lie outside the Gershgorin radius {radius}")
    if n <= EXACT_DIM_MAX:
        moduli, exact = _exact_moduli(n, radius), True
    else:
        if sum(m * c for c, m in eigs) != trace_of(flat, n):
            raise InvariantError("Newton check failed: eigenvalue sum != trace")
        if sum(m * c * c for c, m in eigs) != trace_of_square(flat, n):
            raise InvariantError("Newton check failed: second power sum != tr(A^2)")
        moduli, exact = [CERTIFYING_MODULUS], False
    target = _predicted_charpoly(eigs)
    for m in moduli:
        if _charpoly_mod(flat, n, m) != [c % m for c in target]:
            raise InvariantError(
                f"characteristic polynomial differs from the predicted one modulo a "
                f"{m.bit_length()}-bit modulus (dimension {n})")
    return eigs, exact


def _nullities(flat: list[int], n: int, m: int) -> set[int]:
    try:
        return {n - BACKEND.rank_mod(flat, n, n, m)}
    except NonUnitPivot as split:
        return _nullities(flat, n, split.g) | _nullities(flat, n, m // split.g)


def nullity_mod(flat: list[int], n: int, c: int, s: int, m: int) -> set[int]:
    """Nullities of (A - cI)^s modulo the prime factors of m, as a set: one
    value unless the primes disagree."""
    base = list(flat)
    for i in range(n):
        base[i * n + i] -= c
    power = base
    for _ in range(s - 1):
        power = BACKEND.matmul_mod(power, base, n, m)
    return _nullities(power, n, m)
