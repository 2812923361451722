"""Closed-form generating series: theta constants, partial thetas,
partial Appell-Lerch sums, the two-variable cone sum, and the
multiplicity coefficients a_{k,p} extracted from characters.

Everything here is generated directly from the defining sums with
provable cutoffs; nothing consults the representation layer.  That
independence is the point: these are the comparison targets for the
trace computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UnsupportedInputError
from .series import BiSeries, QSeries, Rat, as_frac, geometric

# kind -> (the constant term, the coefficient of q^(lk^2) x^(lk) for k >= 1)
PARTIAL_THETAS = {"L0": (1, 0), "M0": (1, 1), "Mminus2": (0, 1), "P": (1, 2)}


@dataclass(frozen=True)
class AppellLerchParams:
    """Numerator weights (alpha_i + beta_i q^(l(2n+1))) and pole order p."""

    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    p: int
    loops: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "betas", tuple(self.betas))
        if self.p < 1:
            raise DomainError(f"p must be a positive integer, got {self.p}")
        if len(self.alphas) != self.p + 1 or len(self.betas) != self.p + 1:
            raise DomainError(
                f"need exactly p+1 = {self.p + 1} alpha and beta entries, "
                f"got {len(self.alphas)} and {len(self.betas)}"
            )
        for i, (a, b) in enumerate(zip(self.alphas, self.betas)):
            if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
                raise DomainError(f"alpha_{i}, beta_{i} must be non-negative integers")
            if a + b < 1:
                raise DomainError(f"alpha_{i} + beta_{i} must be >= 1 (zero factor excluded)")
        if self.loops < 1:
            raise DomainError(f"loop count must be >= 1, got {self.loops}")


@dataclass(frozen=True)
class ConeWindow:
    """Finite window onto the cone sum: q-exponent in [q_min, q_max], v2 <= x2_max."""

    q_min: int
    q_max: int
    x2_max: int

    def __post_init__(self):
        if not (self.q_min <= 0 <= self.q_max):
            raise DomainError(f"window must satisfy q_min <= 0 <= q_max, got [{self.q_min}, {self.q_max}]")
        if self.x2_max < 0:
            raise DomainError(f"x2_max must be non-negative, got {self.x2_max}")


@dataclass(frozen=True)
class ConeSeries:
    """Finite polynomial in q, x1, x2 (integer exponents; x1 may be negative),
    complete within its window."""

    window: ConeWindow
    terms: tuple[tuple[tuple[int, int, int], int], ...]  # ((qexp, x1exp, x2exp), coeff)

    def to_obj(self) -> dict:
        return {
            "variables": ["q", "x1", "x2"],
            "window": {"q_min": self.window.q_min, "q_max": self.window.q_max, "x2_max": self.window.x2_max},
            "terms": [[str(q), str(x1), str(x2), str(c)] for (q, x1, x2), c in self.terms],
        }


def jacobi_theta(l: int, order: Rat) -> QSeries:
    """Sum over all integers k of q^(l k^2), truncated below ``order``: the
    P partial theta 1 + 2 sum_{k>=1} q^(lk^2) x^(lk) at x = 1."""
    return partial_theta("P", l, order).at_x_one()


def partial_theta(kind: str, l: int, order: Rat) -> BiSeries:
    """One of the four bigraded partial theta series
    c_0 + c sum_{k>=1} q^(lk^2) x^(lk), with (c_0, c) = PARTIAL_THETAS[kind]:
    'L0' -> 1; 'M0' -> the sum over k>=0; 'Mminus2' -> the sum over k>=1;
    'P' -> 1 + twice the k>=1 sum.
    """
    if l < 1:
        raise DomainError(f"loop count must be >= 1, got {l}")
    if kind not in PARTIAL_THETAS:
        raise DomainError(f"unknown partial theta kind {kind!r}; expected one of {tuple(PARTIAL_THETAS)}")
    const, coeff = PARTIAL_THETAS[kind]
    order = as_frac(order)
    terms = {}
    k = 0
    while l * k * k < order:
        terms[(l * k * k, l * k)] = coeff if k else const
        k += 1
    return BiSeries(terms, order)


def partial_appell_lerch(params: AppellLerchParams, order: Rat) -> QSeries:
    """sum_{n>=0} q^(ln^2) prod_i (alpha_i + beta_i q^(l(2n+1))) / (1-q^(l(2n+1)))^p.

    Each pole is expanded geometrically; the n-loop stops once l n^2 >= order,
    which is exhaustive because every later summand starts at a larger exponent.
    """
    order = as_frac(order)
    l = params.loops
    total = QSeries.zero(order)
    n = 0
    while l * n * n < order:
        head = Fraction(l * n * n)
        m = l * (2 * n + 1)
        work_order = order - head  # room left above q^(ln^2)
        summand = QSeries.one(work_order)
        for a, b in zip(params.alphas, params.betas):
            factor = QSeries.monomial(0, a, work_order) + QSeries.monomial(m, b, work_order)
            summand = summand * factor
        summand = summand * geometric(m, work_order) ** params.p
        total = total + summand.shift(head)
        n += 1
    return total


# Largest cone window appell_lerch_cone takes, in points (v1, v2) visited.
# On a 2-vCPU x86 VM under CPython 3.11, 10^6 points take 1.9 s and 255 MB
# peak in appell_lerch_cone alone, and 4.7 s and 635 MB through
# `closed-form --format json` (3.0 s and 325 MB in plain text); 2 * 10^6
# take 10 s and 1.2 GB in JSON, so memory binds before time does.
CONE_POINTS_MAX = 1_000_000


def appell_lerch_cone(window: ConeWindow) -> ConeSeries:
    """Windowed cone sum: q^(v.Bv) x1^(v1) x2^(v2) over v2 >= 0, with
    v.Bv = v1^2 + 2 v1 v2 constrained to [q_min, q_max] and v2 <= x2_max.

    For fixed v2, v.Bv = (v1+v2)^2 - v2^2, so v1 runs over the finitely
    many integers with (v1+v2)^2 <= q_max + v2^2: at most
    (x2_max + 1)(2 isqrt(q_max + x2_max^2) + 1) points in all.  Windows
    with more than CONE_POINTS_MAX are refused before any is visited.
    """
    points = (window.x2_max + 1) * (2 * math.isqrt(window.q_max + window.x2_max ** 2) + 1)
    if points > CONE_POINTS_MAX:
        raise UnsupportedInputError(
            f"cone window visits up to {points} points; the cap is {CONE_POINTS_MAX}")
    terms: dict[tuple[int, int, int], int] = {}
    for v2 in range(window.x2_max + 1):
        r = math.isqrt(window.q_max + v2 * v2)  # the largest |v1 + v2| allowed
        for s in range(-r, r + 1):  # s = v1 + v2
            v1 = s - v2
            qe = s * s - v2 * v2
            if window.q_min <= qe <= window.q_max:
                key = (qe, v1, v2)
                terms[key] = terms.get(key, 0) + 1
    ordered = tuple(sorted(terms.items()))
    return ConeSeries(window=window, terms=ordered)


def verma_multiplicities(params: AppellLerchParams, K: int) -> list[int]:
    """Coefficients a_0..a_K of prod_i (alpha_i + beta_i y) / (1-y)^p, read
    off params (its loop count plays no part).

    These count highest-weight vectors of weight -2k in the corresponding
    tensor product; they stabilize once k exceeds the numerator degree.
    """
    if K < 0:
        raise DomainError(f"K must be non-negative, got {K}")
    num = [1]
    for a, b in zip(params.alphas, params.betas):
        nxt = [0] * (len(num) + 1)
        for i, c in enumerate(num):
            nxt[i] += a * c
            nxt[i + 1] += b * c
        num = nxt
    coeffs = num[: K + 1] + [0] * max(0, K + 1 - len(num))
    for _ in range(params.p):  # dividing by (1-y) = running prefix sums
        acc = 0
        for k in range(K + 1):
            acc += coeffs[k]
            coeffs[k] = acc
    if any(c < 0 for c in coeffs):
        raise DomainError("negative multiplicity; parameters outside the admissible family")
    return coeffs
