"""Sparse exact power series in q, q^(1/2) allowed, with a hard order contract.

A QSeries stores finitely many (exponent, coefficient) pairs with rational
exponents whose denominators divide 2, plus an ``order`` N: coefficients at
exponents < N are exact, nothing is claimed at or beyond N.  Asking a
question that needs coefficients >= N raises PrecisionError instead of
answering wrong.  BiSeries adds a non-negative integer x-grading on top of
the q-grading, keyed by (exponent, x-degree); its ``order`` bounds the
q-exponent only.  MuPoly is a dense polynomial in a nilpotent marker mu.

The contract is coded in two places, one for each direction:

- building: QSeries and BiSeries share one constructor loop
  (``_Truncated.__init__``).  It makes exact rationals, allows exponent
  denominators 1 or 2 only, refuses terms at or past the order, sums
  repeated keys and drops zero sums; BiSeries adds only its x-degree check.
  Arithmetic hands it raw terms and lets it merge them.
- comparing: ``series_diff_witness`` is the one routine that filters terms
  by order.  It returns the first key, in sorted order, at which two series
  of one kind differ below a given order, with both coefficients, and
  raises PrecisionError when that order is past either series' order.
  ``series_eq`` and ``biseries_eq`` ask whether it finds nothing.

All coefficients are fractions.Fraction; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DomainError, PrecisionError

Rat = Union[int, Fraction]

_ZERO = Fraction(0)


def as_frac(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise DomainError(f"expected an exact rational, got {type(x).__name__}")


def rat_str(r: Fraction) -> str:
    """Coefficient rendering: denominator always shown ('1/1', '-3/2')."""
    r = as_frac(r)
    return f"{r.numerator}/{r.denominator}"


def exp_str(r: Fraction) -> str:
    """Exponent rendering: integers bare, halves as 'n/2'."""
    r = as_frac(r)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def _check_exponent(e: Fraction) -> None:
    if e.denominator not in (1, 2):
        raise DomainError(f"exponent {e} has denominator {e.denominator}; only 1 or 2 allowed")


class _Truncated:
    """``terms`` maps each key to a nonzero Fraction, and every key's
    q-exponent is below ``order``.  Subclasses say what a key is through
    ``_split(key) -> (canonical key, q-exponent)``."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping | Iterable[tuple] = (), order: Rat = 0):
        order = as_frac(order)
        split = self._split
        canon: dict = {}
        for key, c in terms.items() if isinstance(terms, Mapping) else terms:
            key, e = split(key)
            _check_exponent(e)
            if e >= order:
                raise DomainError(f"term q^{e} at or beyond order {order}")
            c = as_frac(c)
            if c:
                old = canon.get(key)
                s = c if old is None else old + c
                if s:
                    canon[key] = s
                else:
                    del canon[key]
        self.terms = canon
        self.order = order

    def items(self) -> list:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))


class QSeries(_Truncated):
    """Truncated sparse series sum c_e q^e, exact below ``order``."""

    __slots__ = ()

    @staticmethod
    def _split(e: Rat) -> tuple[Fraction, Fraction]:
        e = as_frac(e)
        return e, e

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, order: Rat) -> "QSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: Rat) -> "QSeries":
        return cls.monomial(0, 1, order)

    @classmethod
    def monomial(cls, exponent: Rat, coeff: Rat, order: Rat) -> "QSeries":
        exponent = as_frac(exponent)
        order = as_frac(order)
        if exponent >= order:
            # a monomial past the window is just the zero series at that order
            return cls((), order)
        return cls({exponent: coeff}, order)

    # -- introspection -------------------------------------------------
    def coeff(self, exponent: Rat) -> Fraction:
        e = as_frac(exponent)
        if e >= self.order:
            raise PrecisionError(f"coefficient of q^{e} not determined at order {self.order}")
        return self.terms.get(e, Fraction(0))

    def min_exponent(self) -> Fraction:
        """Smallest stored exponent; 0 for the zero series."""
        return min(self.terms) if self.terms else Fraction(0)

    def __repr__(self) -> str:
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e, c in self.items():
                mono = "1" if e == 0 else ("q" if e == 1 else f"q^{exp_str(e)}")
                if e != 0 and c == 1:
                    parts.append(mono)
                elif e != 0 and c == -1:
                    parts.append(f"-{mono}")
                elif e == 0:
                    parts.append(str(c))
                else:
                    parts.append(f"{c}*{mono}")
            body = " + ".join(parts).replace("+ -", "- ")
        return f"<{body} + O(q^{exp_str(self.order)})>"

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return QSeries([(e, c) for s in (self, other) for e, c in s.terms.items() if e < order],
                       order)

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        # Laurent-safe order: a term of the partner at negative exponent m
        # drags products from beyond our window down below it.
        ma = min(self.min_exponent(), Fraction(0))
        mb = min(other.min_exponent(), Fraction(0))
        order = min(self.order, other.order, self.order + mb, other.order + ma)
        return QSeries([(e, ca * cb) for ea, ca in self.terms.items()
                        for eb, cb in other.terms.items() if (e := ea + eb) < order], order)

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int) or n < 0:
            raise DomainError("series powers take non-negative integer exponents")
        result = QSeries.one(self.order)
        for _ in range(n):
            result = result * self
        return result

    def shift(self, exponent: Rat) -> "QSeries":
        """Multiply by q^exponent; order shifts along."""
        d = as_frac(exponent)
        _check_exponent(d)
        return QSeries({e + d: c for e, c in self.terms.items()}, self.order + d)

    def substitute_power(self, l: int) -> "QSeries":
        """q -> q^l (l >= 1): exponents and order scale by l."""
        if l < 1:
            raise DomainError("substitution power must be >= 1")
        return QSeries({e * l: c for e, c in self.terms.items()}, self.order * l)

    # -- serialization -------------------------------------------------
    def to_obj(self) -> dict:
        return {
            "variable": "q",
            "order": exp_str(self.order),
            "terms": [[exp_str(e), rat_str(c)] for e, c in self.items()],
        }


def series_diff_witness(a: _Truncated, b: _Truncated, order: Rat) -> tuple | None:
    """The first key below ``order``, in sorted order, at which two series of
    one kind differ, as (key, coefficient in a, coefficient in b); None if
    they agree below ``order``.  A key is an exponent for QSeries and an
    (exponent, x-degree) pair for BiSeries.

    Raises PrecisionError when ``order`` is past either series' order; a
    truncated series never silently passes for a longer one.
    """
    if type(a) is not type(b):
        raise DomainError(f"cannot compare a {type(a).__name__} with a {type(b).__name__}")
    order = as_frac(order)
    if order > a.order or order > b.order:
        raise PrecisionError(
            f"equality to order {order} needs orders >= {order}; "
            f"have {a.order} and {b.order}"
        )
    ta, tb = a.terms, b.terms
    differ = [key for key in ta.keys() | tb.keys()
              if ta.get(key, _ZERO) != tb.get(key, _ZERO) and a._split(key)[1] < order]
    if not differ:
        return None
    key = min(differ)
    return key, ta.get(key, _ZERO), tb.get(key, _ZERO)


def series_eq(a: QSeries, b: QSeries, order: Rat) -> bool:
    """Exact term-by-term equality below ``order`` (series_diff_witness)."""
    return series_diff_witness(a, b, order) is None


def geometric(step: Rat, order: Rat) -> QSeries:
    """1/(1 - q^step) expanded to ``order``; step must be positive."""
    step = as_frac(step)
    order = as_frac(order)
    if step <= 0:
        raise DomainError("geometric series needs a positive exponent step")
    _check_exponent(step)
    terms = {}
    e = Fraction(0)
    while e < order:
        terms[e] = Fraction(1)
        e += step
    return QSeries(terms, order)


class BiSeries(_Truncated):
    """Series in q (denominators dividing 2) and x (non-negative integers).

    The order contract applies to the q-grading only: exact at every
    bidegree (e, k) with e < order.  x-degrees are unbounded but finite.
    """

    __slots__ = ()

    @staticmethod
    def _split(key: tuple[Rat, int]) -> tuple[tuple[Fraction, int], Fraction]:
        e, k = key
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"x-exponent must be a non-negative integer, got {k}")
        e = as_frac(e)
        return (e, k), e

    def __repr__(self) -> str:
        parts = [f"{rat_str(c)}*q^{exp_str(e)}*x^{k}" for (e, k), c in self.items()]
        return f"<{' + '.join(parts) or '0'} + O(q^{exp_str(self.order)})>"

    def at_x_one(self) -> QSeries:
        """Forget the x-grading (set x = 1)."""
        return QSeries([(e, c) for (e, _k), c in self.terms.items()], self.order)

    def to_obj(self) -> dict:
        return {
            "variables": ["q", "x"],
            "q_order": exp_str(self.order),
            "terms": [[exp_str(e), str(k), rat_str(c)] for (e, k), c in self.items()],
        }


def biseries_eq(a: BiSeries, b: BiSeries, order: Rat) -> bool:
    """Bidegree-exact equality below ``order`` in the q-grading
    (series_diff_witness)."""
    return series_diff_witness(a, b, order) is None


class MuPoly:
    """Dense polynomial in the nilpotent marker mu; exact, no truncation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [as_frac(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _canonical(cls, coeffs: tuple[Fraction, ...]) -> "MuPoly":
        """From coefficients already canonical: Fractions with no trailing
        zero.  Nothing is checked; other callers use MuPoly(...)."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MuPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "<0>"
        parts = [f"{c}*mu^{k}" if k else str(c) for k, c in enumerate(self.coeffs) if c]
        return f"<{' + '.join(parts)}>"

    def __add__(self, other: "MuPoly") -> "MuPoly":
        if not isinstance(other, MuPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return MuPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __mul__(self, other: "MuPoly") -> "MuPoly":
        if not isinstance(other, MuPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return MuPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return MuPoly(out)
