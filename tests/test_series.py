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


def test_diff_witness_reaches_the_last_exponent_below_order():
    a = qs({0: 1, F(11, 2): 1}, 6)
    b = qs({0: 1}, F(13, 2))
    assert series_diff_witness(a, b, F(6)) == (F(11, 2), F(1), F(0))
    assert series_diff_witness(a, b, F(11, 2)) is None
    x = BiSeries({(F(0), 0): F(1), (F(11, 2), 3): F(2)}, F(6))
    y = BiSeries({(F(0), 0): F(1), (F(11, 2), 1): F(2)}, F(6))
    assert series_diff_witness(x, y, F(6)) == ((F(11, 2), 1), F(0), F(2))
    assert not series_eq(x, y, F(6)) and series_eq(x, y, F(11, 2))


def test_diff_witness_refuses_two_kinds():
    with pytest.raises(DomainError):
        series_diff_witness(qs({0: 1}, 3), BiSeries({(F(0), 0): F(1)}, F(3)), F(3))


def test_geometric_series():
    g = geometric(F(3), F(10))
    assert g.items() == [(F(0), F(1)), (F(3), F(1)), (F(6), F(1)), (F(9), F(1))]
    with pytest.raises(DomainError):
        geometric(F(0), F(5))


def test_monomial_beyond_order_is_zero():
    m = QSeries.monomial(F(7), F(1), F(5))
    assert m.terms == {} and m.order == F(5)


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


def _cut(s, order):
    """s with its order lowered to ``order``, from its terms."""
    return QSeries({e: c for e, c in s.terms.items() if e < order}, order)


@given(qseries(), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_truncation_coherence(a, k):
    # truncating after arithmetic equals truncating before
    cut = F(k)
    if cut > a.order:
        return
    b = a + a
    assert series_eq(_cut(b, cut), _cut(a, cut) + _cut(a, cut), cut)


def test_biseries_roundtrip_and_specialize():
    b = BiSeries({(F(0), 0): F(1), (F(1), 1): F(1), (F(4), 2): F(1)}, F(9))
    assert b.to_obj()["terms"] == [["0", "0", "1/1"], ["1", "1", "1/1"], ["4", "2", "1/1"]]
    s = b.at_x_one()
    assert s.items() == [(F(0), F(1)), (F(1), F(1)), (F(4), F(1))]
    assert series_eq(b, b, F(9))


def test_mupoly_arithmetic():
    one = MuPoly((F(1),))
    mu = MuPoly((F(0), F(1)))
    p = (one + mu) * (one + mu)
    assert p.coeffs == (F(1), F(2), F(1))
    assert (p + MuPoly((F(-1), F(-2), F(-1)))).is_zero()
    assert MuPoly((F(0), F(0))).coeffs == ()  # zero strips to nothing
    assert p.constant_term() == 1
    assert not p.is_constant()


halves = st.integers(min_value=-4, max_value=24).map(lambda k: F(k, 2))


@st.composite
def series_pairs(draw):
    """Two series of one kind, b often a with a few keys changed, and an
    order that may lie past either; with the kind's key -> q-exponent."""
    kind = draw(st.sampled_from((QSeries, BiSeries)))
    q = (lambda key: key) if kind is QSeries else (lambda key: key[0])

    def key_below(order):
        e = F(draw(st.integers(min_value=-4, max_value=int(2 * order) - 1)), 2)
        return e if kind is QSeries else (e, draw(st.integers(min_value=0, max_value=2)))

    order_a, order_b = draw(halves.filter(lambda o: o > -2)), draw(halves.filter(lambda o: o > -2))
    terms_a = {key_below(order_a): F(draw(coeffs)) for _ in range(draw(st.integers(0, 8)))}
    if draw(st.booleans()):
        terms_b = {k: c for k, c in terms_a.items() if q(k) < order_b}
    else:
        terms_b = {}
    for _ in range(draw(st.integers(0, 2))):
        terms_b[key_below(order_b)] = F(draw(coeffs))
    order = draw(halves.filter(lambda o: o > -3))
    return kind(terms_a, order_a), kind(terms_b, order_b), order, q


@given(series_pairs())
@settings(max_examples=300, deadline=None)
def test_diff_witness_is_the_first_difference_below_order(pair):
    a, b, order, q = pair
    if order > min(a.order, b.order):
        with pytest.raises(PrecisionError):
            series_diff_witness(a, b, order)
        with pytest.raises(PrecisionError):
            series_eq(a, b, order)
        return
    below_a = {k: c for k, c in a.items() if q(k) < order}
    below_b = {k: c for k, c in b.items() if q(k) < order}
    w = series_diff_witness(a, b, order)
    assert (w is None) == (below_a == below_b) == series_eq(a, b, order)
    if w is not None:
        key, ca, cb = w
        assert q(key) < order and ca != cb
        assert (ca, cb) == (below_a.get(key, 0), below_b.get(key, 0))
        assert all(below_a.get(k, 0) == below_b.get(k, 0)
                   for k in below_a.keys() | below_b.keys() if k < key)
