"""Certified integer spectra on top of one modular kernel (_purekernel).

One modulus, many primes: Z/M is isomorphic to the product of the Z/p_i for
M = p_1 ... p_k, so a single Hessenberg reduction or elimination modulo M
yields every residue at once, as long as every pivot is a unit modulo M.
A pivot that is a nonzero zero divisor shares a proper factor g with M; the
computation then splits M = g * (M / g) and recurses on both factors, so the
per-prime computation is just the fully split case.  Every pivot used is a
unit modulo each prime, so each residue is the one a per-prime run gives.

Two proof levels, reported via the ``exact`` flag:

* dimension <= EXACT_DIM_MAX: the characteristic polynomial is exactly
  reconstructed modulo enough primes to cover the Gershgorin bound
  (1 + R)^n on its coefficients, taken MODULUS_PRIMES at a time and joined
  by CRT, then lifted symmetrically; integer roots are then proven by
  synthetic division over Z with full deflation.
* above the threshold: the spectrum is computed modulo the product of three
  fixed 61-bit primes, reduced modulo each, and certified by cross-prime
  agreement, full splitting mod every prime, and exact Newton checks (sum
  of roots = tr A, sum of squares = tr A^2 over Z).  A wrong answer would
  need simultaneous coincidences modulo three independent ~2^61 primes.
"""

from __future__ import annotations

import math
import os

from . import _purekernel
from ._purekernel import NonUnitPivot
from .errors import InvariantError, UnsupportedInputError

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


EXACT_DIM_MAX = int(os.environ.get("CASIMIR_TRACE_EXACT_DIM", "240"))
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


def charpoly_int(flat: list[int], n: int) -> list[int]:
    """Exact characteristic polynomial det(xI - A), coefficients ascending.

    Every eigenvalue has |lambda| <= R = gershgorin_radius, so the
    coefficient of x^(n-k), +-e_k(lambda), is at most C(n,k) R^k <= (1+R)^n
    in absolute value; the modulus exceeds twice that, and the residue
    lifts symmetrically."""
    radius = gershgorin_radius(flat, n) if n else 0
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
    residue, done = [0] * (n + 1), 1
    for i in range(0, len(primes), MODULUS_PRIMES):
        m = math.prod(primes[i : i + MODULUS_PRIMES])
        residue = _crt_join(residue, done, _charpoly_mod(flat, n, m), m)
        done *= m
    return [c - modulus if 2 * c > modulus else c for c in residue]


def gershgorin_radius(flat: list[int], n: int) -> int:
    """Every eigenvalue lies in [-R, R] for both the row and column bound;
    the smaller of the two maxima is still valid."""
    rowmax = max(sum(abs(flat[i * n + j]) for j in range(n)) for i in range(n))
    colmax = max(sum(abs(flat[i * n + j]) for i in range(n)) for j in range(n))
    return min(rowmax, colmax)


def _int_roots_window_mod(cp: list[int], p: int, radius: int) -> list[tuple[int, int]]:
    """Roots of cp mod p among integers in [-radius, radius], with
    multiplicities found by repeated synthetic division mod p."""
    out = []
    work = [c % p for c in cp]
    for c in range(-radius, radius + 1):
        cm = c % p
        # Horner evaluation
        acc = 0
        for coeff in reversed(work):
            acc = (acc * cm + coeff) % p
        if acc:
            continue
        mult = 0
        while len(work) > 1:
            # divide by (x - c): synthetic division, remainder must vanish
            q = [0] * (len(work) - 1)
            carry = 0
            for k in range(len(work) - 1, 0, -1):
                carry = (work[k] + carry * cm) % p
                q[k - 1] = carry
            rem = (work[0] + carry * cm) % p
            if rem:
                break
            work = q
            mult += 1
        if mult:
            out.append((c, mult))
    return out


def _int_roots_exact(cp: list[int], candidates: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Proven integer roots of an exact monic polynomial, plus the deflated
    cofactor (which has no integer roots among the candidates)."""
    out = []
    work = list(cp)
    for c in candidates:
        mult = 0
        while len(work) > 1:
            q = [0] * (len(work) - 1)
            carry = 0
            for k in range(len(work) - 1, 0, -1):
                carry = work[k] + carry * c
                q[k - 1] = carry
            rem = work[0] + carry * c
            if rem:
                break
            work = q
            mult += 1
        if mult:
            out.append((c, mult))
    return out, work


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


def integer_spectrum(flat: list[int], n: int) -> tuple[list[tuple[int, int]], bool]:
    """Eigenvalues with algebraic multiplicities, all proven integers.

    Returns (sorted [(value, multiplicity)], exact) where ``exact`` records
    the proof level (True: exact deflation over Z; False: triple-prime
    certificate).  Raises UnsupportedInputError if the spectrum is not
    integral."""
    if n == 0:
        return [], True
    radius = gershgorin_radius(flat, n)
    if n <= EXACT_DIM_MAX:
        cp = charpoly_int(flat, n)
        # cheap prescan mod one prime narrows the exact divisions
        p0 = PRIMES61[0]
        cand = [c for c, _ in _int_roots_window_mod([x % p0 for x in cp], p0, radius)]
        eigs, cofactor = _int_roots_exact(cp, cand)
        if sum(m for _, m in eigs) != n or cofactor != [1]:
            raise UnsupportedInputError(
                f"matrix has a non-integer eigenvalue (dimension {n}, "
                f"{sum(m for _, m in eigs)} integer roots found)")
        return sorted(eigs), True
    cp_m = _charpoly_mod(flat, n, CERTIFYING_MODULUS)
    results = []
    for p in CERTIFYING_PRIMES:
        cp_p = [c % p for c in cp_m]
        roots = sorted(_int_roots_window_mod(cp_p, p, radius))
        if sum(m for _, m in roots) != n:
            raise UnsupportedInputError(
                f"characteristic polynomial does not split over the integer "
                f"window mod {p} (dimension {n})")
        results.append(roots)
    if not (results[0] == results[1] == results[2]):
        raise InvariantError("certifying primes disagree on the spectrum")
    eigs = results[0]
    if sum(m * c for c, m in eigs) != trace_of(flat, n):
        raise InvariantError("Newton check failed: eigenvalue sum != trace")
    if sum(m * c * c for c, m in eigs) != trace_of_square(flat, n):
        raise InvariantError("Newton check failed: second power sum != tr(A^2)")
    return eigs, False


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
