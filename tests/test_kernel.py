import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_trace import _purekernel, kernel, monodromy, rep
from casimir_trace.errors import InvariantError
from casimir_trace.kernel import (
    CERTIFYING_MODULUS,
    CERTIFYING_PRIMES,
    PRIMES61,
    _charpoly_mod,
    gershgorin_radius,
    integer_spectrum,
    nullity_mod,
    trace_of,
    trace_of_square,
)


def naive_charpoly(a):
    # det(xI - A) by Leibniz expansion; entries are (x - a_ii) on the
    # diagonal, constants -a_ij elsewhere
    from itertools import permutations

    n = len(a)
    coeffs = [0] * (n + 1)

    def sign(perm):
        s = 1
        seen = [False] * len(perm)
        for i in range(len(perm)):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                s = -s
        return s

    for perm in permutations(range(n)):
        poly = [sign(perm)]
        for i in range(n):
            j = perm[i]
            if i == j:
                shifted = [0] + poly
                for t in range(len(poly)):
                    shifted[t] -= a[i][i] * poly[t]
                poly = shifted
            else:
                poly = [(-a[i][j]) * c for c in poly]
        for t, c in enumerate(poly):
            coeffs[t] += c
    return coeffs


def test_naive_charpoly_sanity():
    # 2x2 known: det(xI - [[1,2],[3,4]]) = x^2 - 5x - 2
    assert naive_charpoly([[1, 2], [3, 4]]) == [-2, -5, 1]


@pytest.mark.parametrize("backend", [kernel.BACKEND], ids=lambda b: b.NAME)
def test_charpoly_mod_against_naive(backend):
    p = PRIMES61[0]
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        a = [[rng.randrange(-30, 31) for _ in range(n)] for _ in range(n)]
        want = [c % p for c in naive_charpoly(a)]
        flat = [e for row in a for e in row]
        got = backend.charpoly_mod(flat, n, p)
        assert got == want


def test_composite_modulus_reduces_to_each_prime():
    rng = random.Random(11)
    n = 40
    flat = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n * n)]
    # rank 25 over Q, and modulo each prime
    left = [rng.randrange(-9, 10) for _ in range(n * 25)]
    right = [rng.randrange(-9, 10) for _ in range(25 * n)]
    low_rank = [sum(left[i * 25 + k] * right[k * n + j] for k in range(25))
                for i in range(n) for j in range(n)]
    cp = _purekernel.charpoly_mod(flat, n, CERTIFYING_MODULUS)
    for p in CERTIFYING_PRIMES:
        assert [c % p for c in cp] == _purekernel.charpoly_mod(flat, n, p)
        for a in (flat, low_rank):
            assert _purekernel.rank_mod(a, n, n, CERTIFYING_MODULUS) == _purekernel.rank_mod(a, n, n, p)
    assert _purekernel.rank_mod(low_rank, n, n, CERTIFYING_MODULUS) == 25


def _per_prime_nullities(flat, n, c, s):
    return {v for p in CERTIFYING_PRIMES for v in nullity_mod(flat, n, c, s, p)}


def test_non_unit_pivots_split_the_modulus():
    p0, p1 = PRIMES61[:2]
    # the only pivot of [[0, 1], [p0, 0]] vanishes modulo p0 alone
    with pytest.raises(_purekernel.NonUnitPivot) as split:
        _purekernel.rank_mod([0, 1, p0, 0], 2, 2, CERTIFYING_MODULUS)
    assert split.value.g == p0
    assert naive_charpoly([[0, 1], [p0, 0]]) == [-p0, 0, 1]
    assert _charpoly_mod([0, 1, p0, 0], 2, CERTIFYING_MODULUS) == [
        c % CERTIFYING_MODULUS for c in (-p0, 0, 1)]
    assert nullity_mod([0, 1, p0, 0], 2, 0, 1, CERTIFYING_MODULUS) == {0, 1}
    assert _per_prime_nullities([0, 1, p0, 0], 2, 0, 1) == {0, 1}

    rng = random.Random(5)
    entries = (0, p0, p1, p0 * p1, 1, -3, 7)
    splits = 0
    for _ in range(300):
        a = [[rng.choice(entries) for _ in range(4)] for _ in range(4)]
        flat = [e for row in a for e in row]
        assert _charpoly_mod(flat, 4, CERTIFYING_MODULUS) == [
            c % CERTIFYING_MODULUS for c in naive_charpoly(a)]
        for c, s in ((0, 1), (0, 2), (1, 1), (-3, 2)):
            assert nullity_mod(flat, 4, c, s, CERTIFYING_MODULUS) == _per_prime_nullities(flat, 4, c, s)
        try:
            _purekernel.charpoly_mod(flat, 4, p0 * p1 * CERTIFYING_PRIMES[2])
        except _purekernel.NonUnitPivot:
            splits += 1
    assert splits > 0  # the cases reach the splitting path


@given(st.integers(1, 5), st.sampled_from([1, 50, 10 ** 6, 10 ** 60]), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_charpoly_mod_matches_leibniz_within_gershgorin_bound(n, bound, seed):
    rng = random.Random(seed)
    a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    flat = [e for row in a for e in row]
    coeffs = naive_charpoly(a)
    radius = gershgorin_radius(flat, n)
    limit = (1 + radius) ** n
    assert all(abs(c) <= limit for c in coeffs)
    # the exact proof level compares modulo these moduli; together they
    # separate any two polynomials within the bound
    moduli = kernel._exact_moduli(n, radius)
    assert math.prod(moduli) > 2 * limit
    for m in moduli:
        assert _charpoly_mod(flat, n, m) == [c % m for c in coeffs]


def test_spectral_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, casimir_trace\n"
            "from casimir_trace import monodromy, rep, verify\n"
            "monodromy.spectral(rep.BigP(), -6)\n"
            "assert verify.zeta_mellin_check().status == 'pass'\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_charpoly_mod_big_companion_coefficients():
    # companion-style matrix with known characteristic polynomial
    # x^3 - 10^12 x - 7
    a = [[0, 0, 7], [1, 0, 10 ** 12], [0, 1, 0]]
    flat = [e for row in a for e in row]
    assert naive_charpoly(a) == [-7, -(10 ** 12), 0, 1]
    for m in (PRIMES61[0], CERTIFYING_MODULUS, math.prod(PRIMES61[:12])):
        assert _charpoly_mod(flat, 3, m) == [c % m for c in (-7, -(10 ** 12), 0, 1)]


def test_prime_table_is_prime_and_61_bit():
    def is_prime(n):
        # deterministic Miller-Rabin for n < 3.3e24
        if n < 2:
            return False
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            if a % n == 0:
                continue
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    assert len(PRIMES61) == len(set(PRIMES61)) == 128
    for p in PRIMES61:
        assert p.bit_length() == 61
        assert is_prime(p)
    assert CERTIFYING_PRIMES == PRIMES61[:3]


def test_integer_spectrum_diagonalizable():
    a = [-8, 0, 0, 0, -8, 0, 0, 0, -2]
    eig, exact = integer_spectrum(a, 3, [(-2, 1), (-8, 2)])
    assert eig == [(-8, 2), (-2, 1)]
    assert exact


def test_integer_spectrum_kappa_block():
    n, flat = rep.kappa_flat(rep.BigP(), -6)
    eig, exact = integer_spectrum(flat, n, [(-18, 2)])
    assert eig == [(-18, 2)]
    assert exact


def test_integer_spectrum_rejects_irrational():
    # x^2 - 2: eigenvalues +-sqrt(2), so no integer prediction holds
    for a in range(-3, 4):
        for b in range(a, 4):
            with pytest.raises(InvariantError):
                integer_spectrum([0, 2, 1, 0], 2, [(a, 1), (b, 1)])
        with pytest.raises(InvariantError):
            integer_spectrum([0, 2, 1, 0], 2, [(a, 2)])


def test_certified_path_matches_exact_path(monkeypatch):
    expr = rep.Tensor((rep.BigP(), rep.BigP()))
    n, flat = rep.kappa_flat(expr, -12)
    predicted = monodromy._predicted_spectrum(rep.tensor_branches(expr), -12)
    eig_exact, exact = integer_spectrum(flat, n, predicted)
    assert exact
    monkeypatch.setattr(kernel, "EXACT_DIM_MAX", 1)
    eig_cert, exact2 = integer_spectrum(flat, n, predicted)
    assert not exact2
    assert eig_cert == eig_exact


# kappa on P x M0 at weight -8 (n = 9) has the spectrum
# (-32, 3), (-28, 2), (-20, 2), (-8, 2); each prediction below is wrong
WRONG_PREDICTIONS = {
    "moved": [(-32, 3), (-28, 2), (-20, 2), (-6, 2)],
    "swapped": [(-32, 2), (-28, 3), (-20, 2), (-8, 2)],
    "too-many": [(-32, 3), (-28, 2), (-20, 2), (-8, 3)],
    "too-few": [(-32, 3), (-28, 2), (-20, 2)],
}


@pytest.mark.parametrize("certified", [False, True], ids=["exact", "certified"])
@pytest.mark.parametrize("wrong", sorted(WRONG_PREDICTIONS))
def test_integer_spectrum_rejects_wrong_predictions(monkeypatch, certified, wrong):
    n, flat = rep.kappa_flat(rep.Tensor((rep.BigP(), rep.Verma(0))), -8)
    right = [(-32, 3), (-28, 2), (-20, 2), (-8, 2)]
    if certified:
        monkeypatch.setattr(kernel, "EXACT_DIM_MAX", 1)
    assert integer_spectrum(flat, n, right) == (right, not certified)
    with pytest.raises(InvariantError):
        integer_spectrum(flat, n, WRONG_PREDICTIONS[wrong])


@pytest.mark.parametrize("certified", [False, True], ids=["exact", "certified"])
def test_integer_spectrum_rejects_newton_blind_prediction(monkeypatch, certified):
    # triangular with eigenvalues 0, 3, 3; the prediction 1, 1, 4 has the
    # same sum and sum of squares and lies inside the Gershgorin radius 5,
    # so only the charpoly comparison rejects it
    flat = [0, 0, 5, 0, 3, 0, 0, 0, 3]
    assert gershgorin_radius(flat, 3) == 5
    if certified:
        monkeypatch.setattr(kernel, "EXACT_DIM_MAX", 1)
    assert integer_spectrum(flat, 3, [(3, 2), (0, 1)]) == ([(0, 1), (3, 2)], not certified)
    with pytest.raises(InvariantError):
        integer_spectrum(flat, 3, [(1, 2), (4, 1)])


def test_integer_spectrum_checks_the_gershgorin_window():
    # x - (5 + p0) agrees with x - 5 modulo p0, the one prime that n = 1
    # needs; only the window check rejects it
    with pytest.raises(InvariantError):
        integer_spectrum([5], 1, [(5 + PRIMES61[0], 1)])
    assert integer_spectrum([5], 1, [(5, 1)]) == ([(5, 1)], True)


def test_newton_traces():
    assert trace_of([1, 2, 3, 4], 2) == 5
    assert trace_of_square([1, 2, 3, 4], 2) == 1 + 2 * 3 + 3 * 2 + 16


@given(st.integers(min_value=1, max_value=5), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_charpoly_crt_consistency(n, seed):
    rng = random.Random(seed)
    a = [[rng.randrange(-50, 51) for _ in range(n)] for _ in range(n)]
    flat = [e for row in a for e in row]
    residues = _charpoly_mod(flat, n, CERTIFYING_MODULUS)
    # one pass modulo p1 p2 p3 reduces to each prime's own result
    for p in CERTIFYING_PRIMES:
        assert [c % p for c in residues] == _purekernel.charpoly_mod(flat, n, p)
    # coefficients are far below the modulus here, so they lift symmetrically
    coeffs = [c - CERTIFYING_MODULUS if 2 * c > CERTIFYING_MODULUS else c for c in residues]
    assert coeffs[-1] == 1  # monic
    assert coeffs[n - 1] == -trace_of(flat, n)
    # evaluate at a few integers against naive determinant of (xI - A)
    from fractions import Fraction

    for x in (0, 1, -2):
        val = 0
        for t, c in enumerate(coeffs):
            val += c * x ** t
        m = [[Fraction(x * (i == j) - a[i][j]) for j in range(n)] for i in range(n)]
        # determinant via row echelon: product of pivots with sign tracked
        det = _det(m)
        assert val == det


def _det(m):
    from fractions import Fraction

    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det
