import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_trace import closed_forms
from casimir_trace.closed_forms import (
    AppellLerchParams,
    ConeWindow,
    appell_lerch_cone,
    jacobi_theta,
    partial_appell_lerch,
    partial_theta,
    verma_multiplicities,
)
from casimir_trace.errors import DomainError, UnsupportedInputError

F = Fraction


def coeffs(series, upto):
    return [series.coeff(F(e)) for e in range(upto)]


def test_jacobi_theta_l1():
    t = jacobi_theta(1, F(5))
    assert t.items() == [(F(0), F(1)), (F(1), F(2)), (F(4), F(2))]


def test_jacobi_theta_l2():
    t = jacobi_theta(2, F(9))
    assert t.items() == [(F(0), F(1)), (F(2), F(2)), (F(8), F(2))]


@pytest.mark.parametrize("l", [1, 2, 3, 5])
def test_jacobi_theta_is_the_sum_over_all_integers(l):
    # sum over k in Z of q^(l k^2) below each half-step order, |k| <= 6
    # covering every exponent below 30
    for twice in range(-4, 60):
        order = F(twice, 2)
        want = {}
        for k in range(-6, 7):
            if l * k * k < order:
                want[F(l * k * k)] = want.get(F(l * k * k), 0) + 1
        t = jacobi_theta(l, order)
        assert t.order == order
        assert dict(t.items()) == want


def test_partial_theta_L0_is_one():
    t = partial_theta("L0", 1, F(10))
    assert t.items() == [((F(0), 0), F(1))]


def test_partial_theta_M0():
    t = partial_theta("M0", 1, F(10))
    assert t.items() == [
        ((F(0), 0), F(1)),
        ((F(1), 1), F(1)),
        ((F(4), 2), F(1)),
        ((F(9), 3), F(1)),
    ]


def test_partial_theta_Mminus2_l2():
    t = partial_theta("Mminus2", 2, F(10))
    assert t.items() == [((F(2), 2), F(1)), ((F(8), 4), F(1))]


def test_partial_theta_P_counts_both_signs():
    t = partial_theta("P", 1, F(10)).at_x_one()
    assert t.items() == [(F(0), F(1)), (F(1), F(2)), (F(4), F(2)), (F(9), F(2))]


def test_partial_theta_unknown_kind():
    with pytest.raises(DomainError):
        partial_theta("M2", 1, F(5))


# the values of k each kind sums q^(lk^2) x^(l|k|) over; P counts both signs
PARTIAL_THETA_RANGES = {"L0": range(0, 1), "M0": range(0, 9), "Mminus2": range(1, 9),
                        "P": range(-8, 9)}


@given(st.sampled_from(sorted(PARTIAL_THETA_RANGES)), st.integers(1, 3),
       st.integers(-4, 60).map(lambda n: F(n, 2)))
@settings(max_examples=120, deadline=None)
def test_partial_theta_is_its_defining_sum(kind, l, order):
    want = {}
    for k in PARTIAL_THETA_RANGES[kind]:  # l k^2 < order <= 30 needs |k| <= 5
        if l * k * k < order:
            key = (F(l * k * k), l * abs(k))
            want[key] = want.get(key, 0) + 1
    got = partial_theta(kind, l, order)
    assert got.order == order
    assert got.terms == want


# the three fixed Appell-Lerch rows
def test_appell_lerch_m0_m0():
    p = AppellLerchParams((1, 1), (0, 0), 1, 1)
    s = partial_appell_lerch(p, F(5))
    assert coeffs(s, 5) == [1, 2, 1, 1, 3]


def test_appell_lerch_m0_p():
    p = AppellLerchParams((1, 1), (0, 1), 1, 1)
    s = partial_appell_lerch(p, F(4))
    assert coeffs(s, 4) == [1, 3, 2, 2]


def test_appell_lerch_p_p():
    p = AppellLerchParams((1, 1), (1, 1), 1, 1)
    s = partial_appell_lerch(p, F(4))
    assert coeffs(s, 4) == [1, 4, 4, 4]


def test_appell_lerch_coefficient_oracle():
    # coefficient of q^4 for (1,1),(0,0),p=1 by direct enumeration of
    # n^2 + (2n+1)k = 4: (n,k) = (0,4) and (2,0) and (1,... 1+3k=4 -> k=1)
    hits = 0
    for n in range(5):
        for k in range(5):
            if n * n + (2 * n + 1) * k == 4:
                hits += 1
    p = AppellLerchParams((1, 1), (0, 0), 1, 1)
    assert partial_appell_lerch(p, F(5)).coeff(F(4)) == hits == 3


def test_appell_lerch_param_validation():
    with pytest.raises(DomainError):
        AppellLerchParams((1,), (0,), 1, 1)  # p+1 = 2 entries needed
    with pytest.raises(DomainError):
        AppellLerchParams((0, 1), (0, 0), 1, 1)  # empty factor
    with pytest.raises(DomainError):
        AppellLerchParams((1, 1), (0, 0), 1, 0)  # l >= 1


def test_cone_window_narrow():
    cone = appell_lerch_cone(ConeWindow(0, 4, 0))
    assert dict(cone.terms) == {
        (0, 0, 0): 1,
        (1, -1, 0): 1,
        (1, 1, 0): 1,
        (4, -2, 0): 1,
        (4, 2, 0): 1,
    }


def test_cone_refuses_a_window_just_above_the_cap(monkeypatch):
    # x2_max = 0: the bound is 2 isqrt(q_max) + 1 points, here one above the
    # cap; the only isqrt taken is the bound's, so no row is enumerated
    r = closed_forms.CONE_POINTS_MAX // 2
    assert 2 * (r - 1) + 1 <= closed_forms.CONE_POINTS_MAX < 2 * r + 1
    calls = []
    isqrt = math.isqrt
    monkeypatch.setattr(closed_forms.math, "isqrt", lambda x: calls.append(x) or isqrt(x))
    with pytest.raises(UnsupportedInputError, match=f"up to {2 * r + 1} points"):
        appell_lerch_cone(ConeWindow(0, r * r, 0))
    assert calls == [r * r]


def test_cone_cap_counts_every_point_of_the_window(monkeypatch):
    # (x2_max + 1)(2 isqrt(q_max + x2_max^2) + 1) = 3 * 7 for this window:
    # taken at that cap, refused one below it
    window = ConeWindow(-4, 5, 2)
    monkeypatch.setattr(closed_forms, "CONE_POINTS_MAX", 21)
    assert appell_lerch_cone(window).terms
    monkeypatch.setattr(closed_forms, "CONE_POINTS_MAX", 20)
    with pytest.raises(UnsupportedInputError, match="up to 21 points"):
        appell_lerch_cone(window)


def test_cone_window_matches_rational_form():
    # sum_{v2 >= 0} q^(v1^2 + 2 v1 v2) x1^v1 x2^v2 inside the window against
    # brute-force enumeration over a large exponent box
    window = ConeWindow(-4, 4, 2)
    cone = appell_lerch_cone(window)
    expected = {}
    for v1 in range(-40, 41):
        for v2 in range(0, 41):
            qe = v1 * v1 + 2 * v1 * v2
            if window.q_min <= qe <= window.q_max and v2 <= window.x2_max:
                key = (qe, v1, v2)
                expected[key] = expected.get(key, 0) + 1
    assert dict(cone.terms) == expected


def test_verma_multiplicities_fixed_row():
    assert verma_multiplicities(AppellLerchParams((2, 3), (1, 1), 1), 6) == [6, 11, 12, 12, 12, 12, 12]


def test_verma_multiplicities_p2():
    # (1+y)^2 / (1-y)^2 = 1 + 4y + 8y^2 + 12y^3 + ...
    got = verma_multiplicities(AppellLerchParams((1, 1, 1), (1, 1, 0), 2), 4)
    num = [1, 2, 1]  # (1+y)^2, the third factor contributes a constant
    acc = []
    for k in range(5):
        total = 0
        for j, c in enumerate(num):
            if j <= k:
                total += c * (k - j + 1)
        acc.append(total)
    assert got == acc


def test_verma_multiplicities_validation():
    # the shape is refused where the parameters are built, K where it is read
    with pytest.raises(DomainError):
        verma_multiplicities(AppellLerchParams((1,), (0, 0), 1), 3)
    with pytest.raises(DomainError):
        verma_multiplicities(AppellLerchParams((0, 1), (0, 0), 1), 3)
    with pytest.raises(DomainError, match="K must be non-negative"):
        verma_multiplicities(AppellLerchParams((1, 1), (0, 0), 1), -1)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=20))
@settings(max_examples=40, deadline=None)
def test_theta_coefficients_are_0_1_2(l, order):
    t = jacobi_theta(l, F(order))
    for e, c in t.items():
        assert c in (F(1), F(2))
        # exponent must be l times a perfect square
        k = int((e / l) ** 0.5 + 0.5)
        assert F(l * k * k) == e


@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=3)
    .filter(lambda fs: all(a + b >= 1 for a, b in fs)),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=30, deadline=None)
def test_appell_lerch_q_to_ql_law(factors, l):
    alphas = tuple(a for a, _ in factors)
    betas = tuple(b for _, b in factors)
    p = len(factors) - 1
    base = partial_appell_lerch(AppellLerchParams(alphas, betas, p, 1), F(8))
    scaled = partial_appell_lerch(AppellLerchParams(alphas, betas, p, l), F(8 * l))
    assert base.substitute_power(l) == scaled


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=4)
    .filter(lambda fs: all(a + b >= 1 for a, b in fs)),
)
@settings(max_examples=40, deadline=None)
def test_multiplicities_nonnegative_and_stable(factors):
    alphas = tuple(a for a, _ in factors)
    betas = tuple(b for _, b in factors)
    p = len(factors) - 1
    ms = verma_multiplicities(AppellLerchParams(alphas, betas, p), 12)
    assert all(m >= 0 for m in ms)
    if p == 1:
        # eventually constant at prod(alpha_i + beta_i)
        target = 1
        for a, b in factors:
            target *= a + b
        assert ms[-1] == target
