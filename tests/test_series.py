from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_trace.errors import DomainError, PrecisionError
from casimir_trace.series import (
    BiSeries,
    MuPoly,
    QSeries,
    as_frac,
    biseries_eq,
    geometric,
    series_diff_witness,
    series_eq,
)

F = Fraction


def qs(pairs, order):
    return QSeries({as_frac(e): as_frac(c) for e, c in pairs.items()}, as_frac(order))


def test_add_merges_and_drops_zeros():
    a = qs({0: 1, 1: 1}, 10)
    b = qs({0: -1, 2: 1}, 10)
    assert (a + b).items() == [(F(1), F(1)), (F(2), F(1))]


def test_theta_shape_addition():
    # 1 + 2q + 2q^4 + 2q^9 assembled from symmetric halves
    half = qs({1: 1, 4: 1, 9: 1}, 10)
    s = qs({0: 1}, 10) + half + half
    assert s.items() == [(F(0), F(1)), (F(1), F(2)), (F(4), F(2)), (F(9), F(2))]


def test_mul_truncates_at_common_order():
    a = qs({0: 1, 1: 2, 2: 1}, 4)
    b = qs({0: 1, 1: 1, 2: 1, 3: 1}, 4)
    c = a * b
    assert c.order == F(4)
    assert c.items() == [(F(0), F(1)), (F(1), F(3)), (F(2), F(4)), (F(3), F(4))]


def test_mul_order_with_laurent_factor():
    # one factor starting at q^-1 costs one order of precision
    a = qs({-1: 1}, 5)
    b = qs({0: 1, 1: 1}, 5)
    c = a * b
    assert c.order == F(4)
    assert c.coeff(F(-1)) == 1
    assert c.coeff(F(0)) == 1


def test_coeff_beyond_order_raises():
    a = qs({0: 1}, 3)
    assert a.coeff(F(2)) == 0
    with pytest.raises(PrecisionError):
        a.coeff(F(3))


def test_truncate_cannot_extend():
    a = qs({0: 1}, 3)
    assert a.truncate(F(2)).order == F(2)
    with pytest.raises(PrecisionError):
        a.truncate(F(5))


def test_series_eq_respects_order():
    a = qs({0: 1, 5: 7}, 6)
    b = qs({0: 1}, 6)
    assert not series_eq(a, b, F(6))
    assert series_eq(a, b, F(5))
    with pytest.raises(PrecisionError):
        series_eq(a, b, F(7))


def test_diff_witness_reports_first_mismatch():
    a = qs({0: 1, 2: 3}, 6)
    b = qs({0: 1, 2: 4, 3: 1}, 6)
    assert series_diff_witness(a, b, F(6)) == (F(2), F(3), F(4))


def test_geometric_series():
    g = geometric(F(3), F(10))
    assert g.items() == [(F(0), F(1)), (F(3), F(1)), (F(6), F(1)), (F(9), F(1))]
    with pytest.raises(DomainError):
        geometric(F(0), F(5))


def test_monomial_beyond_order_is_zero():
    m = QSeries.monomial(F(7), F(1), F(5))
    assert m.is_zero()


def test_substitute_power_scales_exponents_and_order():
    a = qs({0: 1, 1: 2, 3: 1}, 4)
    b = a.substitute_power(2)
    assert b.order == F(8)
    assert b.items() == [(F(0), F(1)), (F(2), F(2)), (F(6), F(1))]


def test_half_integer_exponents_allowed_denominator_3_rejected():
    s = qs({F(1, 2): 1}, 3)
    assert s.coeff(F(1, 2)) == 1
    with pytest.raises(DomainError):
        qs({F(1, 3): 1}, 3)


def test_json_shape():
    s = qs({0: 1, F(1, 2): 3}, 5)
    assert s.to_obj() == {
        "variable": "q",
        "order": "5",
        "terms": [["0", "1/1"], ["1/2", "3/1"]],
    }


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=0, max_value=12).map(F)


@st.composite
def qseries(draw, order=F(12)):
    n = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n):
        terms[draw(exps)] = F(draw(coeffs))
    return QSeries({e: c for e, c in terms.items() if e < order and c}, order)


@given(qseries(), qseries(), qseries())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert series_eq(a + b, b + a, F(12))
    assert series_eq((a + b) + c, a + (b + c), F(12))
    assert series_eq(a * b, b * a, (a * b).order)
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert series_eq(lhs, rhs, min(lhs.order, rhs.order))
    d = a * (b + c)
    assert series_eq(d, a * b + a * c, d.order)


@given(qseries())
@settings(max_examples=60, deadline=None)
def test_canonical_no_zero_coefficients(a):
    assert all(c != 0 for _, c in a.items())
    assert all(e < a.order for e, _ in a.items())


@given(qseries(), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_truncation_coherence(a, k):
    # truncating after arithmetic equals truncating before
    cut = F(k)
    if cut > a.order:
        return
    b = a + a
    assert series_eq(b.truncate(cut), a.truncate(cut) + a.truncate(cut), cut)


def test_biseries_roundtrip_and_specialize():
    b = BiSeries({(F(0), 0): F(1), (F(1), 1): F(1), (F(4), 2): F(1)}, F(9))
    assert b.to_obj()["terms"] == [["0", "0", "1/1"], ["1", "1", "1/1"], ["4", "2", "1/1"]]
    s = b.at_x_one()
    assert s.items() == [(F(0), F(1)), (F(1), F(1)), (F(4), F(1))]
    assert biseries_eq(b, b, F(9))


def test_mupoly_arithmetic():
    one = MuPoly((F(1),))
    mu = MuPoly((F(0), F(1)))
    p = (one + mu) * (one + mu)
    assert p.to_list() == ["1/1", "2/1", "1/1"]
    assert (p - p).is_zero()
    assert MuPoly((F(0), F(0))).degree() == -1  # zero strips to nothing
    assert p.constant_term() == 1
    assert not p.is_constant()
