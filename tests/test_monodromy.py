from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casimir_trace import monodromy, rep
from casimir_trace.cli import parse_rep
from casimir_trace.errors import DomainError, UnsupportedInputError
from casimir_trace.monodromy import (
    flat_sections,
    jordan_2x2,
    monodromy_matrix,
    spectral,
    spectral_components,
    trace_deformed,
    trace_series,
    trace_via_decomposition,
)
from casimir_trace.series import QSeries, series_eq

F = Fraction
M0 = rep.Verma(0)
Mm2 = rep.Verma(-2)
P = rep.BigP()


def items(s):
    return [(e, c) for e, c in s.items()]


def test_spectral_P_jordan_type():
    for k in (1, 2, 3, 7):
        sd = spectral(P, -2 * k)
        assert sd.eigen == ((-2 * k * k, 2, 2),)
        assert sd.exact


def test_spectral_tensor_m0m0():
    sd = spectral(rep.Tensor((M0, M0)), -4)
    # flag pieces M_0 (depth 2) and M_-2 (depth 1) both hit -8; the -8
    # eigenspace is honest (kernel of A+8I is 2-dim), the weight space splits
    assert sd.eigen == ((-8, 2, 1), (-4, 1, 1))


def test_trace_verma():
    s = trace_series(M0, 1, F(5))
    assert items(s) == [(F(0), F(1)), (F(1), F(1)), (F(4), F(1))]


def test_trace_pxp():
    s = trace_series(rep.Tensor((P, P)), 1, F(4))
    assert items(s) == [(F(0), F(1)), (F(1), F(4)), (F(2), F(4)), (F(3), F(4))]


def test_trace_m0xm0():
    s = trace_series(rep.Tensor((M0, M0)), 1, F(5))
    assert items(s) == [(F(0), F(1)), (F(1), F(2)), (F(2), F(1)), (F(3), F(1)), (F(4), F(3))]


def test_trace_half_integer_exponents():
    # kappa on M(-1) at depth j is -(2j^2 + 2j + 1): exponents j^2 + j + 1/2
    s = trace_series(rep.Verma(-1), 1, F(4))
    assert s.coeff(F(1, 2)) == 1
    assert s.coeff(F(5, 2)) == 1  # j = 1
    assert s.coeff(F(0)) == 0
    assert s.coeff(F(1)) == 0


def test_trace_distribute_agreement():
    expr = rep.Tensor((rep.DirectSum((M0, Mm2)), P))
    a = trace_series(expr, 1, F(12), route="spectral")
    b = trace_series(expr, 1, F(12), route="whole")
    assert series_eq(a, b, F(12))


def test_trace_mixed_parity_sum():
    # direct sum with odd and even tops together
    expr = rep.DirectSum((M0, rep.Verma(-1)))
    got = trace_series(expr, 1, F(4), route="whole")
    want = trace_series(M0, 1, F(4)) + trace_series(rep.Verma(-1), 1, F(4))
    assert series_eq(got, want, F(4))


def test_trace_q_to_ql():
    base = trace_series(rep.Tensor((M0, P)), 1, F(6))
    for l in (2, 3):
        scaled = trace_series(rep.Tensor((M0, P)), l, F(6 * l))
        assert series_eq(base.substitute_power(l), scaled, F(6 * l))


def test_trace_rejects_bad_loops():
    with pytest.raises(DomainError):
        trace_series(M0, 0, F(5))


def test_trace_rejects_unknown_route():
    with pytest.raises(DomainError):
        trace_series(M0, 1, F(5), route="matrix")
    with pytest.raises(DomainError):
        trace_deformed(M0, 1, F(5), route="whole")


def test_branch_spectrum_cache_is_bounded():
    maxsize = monodromy._branch_spectrum.cache_info().maxsize
    assert maxsize is not None and maxsize >= 1000


def _deformed_or_unsupported(expr, l, order, route):
    try:
        return trace_deformed(expr, l, order, route=route)
    except UnsupportedInputError:
        return "unsupported"


def _assert_routes_agree(expr, l, order):
    want = trace_series(expr, l, order, route="spectral")
    got = trace_series(expr, l, order, route="character")
    assert got.order == want.order and got.items() == want.items()
    want_d = _deformed_or_unsupported(expr, l, order, "spectral")
    assert _deformed_or_unsupported(expr, l, order, "character") == want_d


@pytest.mark.parametrize("text, l, order", [
    ("L3 x L2", 1, F(8)),            # finite: signed flag multiplicities cancel
    ("M3 + L2 x P", 1, F(8)),        # branch tops of both parities
    ("M2 x P", 1, F(8)),             # positive top: Laurent terms
    ("M-1 x M-1", 1, F(8)),          # odd top weights: half-integer exponents
    ("(M0 + M-2)^2 x P", 2, F(15, 2)),
    ("P x M-4", 2, F(8)),
])
def test_character_route_matches_spectral_named(text, l, order):
    _assert_routes_agree(parse_rep(text), l, order)


ATOM = st.one_of(st.integers(-4, 3).map(rep.Verma), st.integers(0, 3).map(rep.Irr),
                 st.just(P))
FACTOR = st.one_of(
    ATOM,
    st.lists(ATOM, min_size=2, max_size=2).map(lambda ps: rep.DirectSum(tuple(ps))),
    ATOM.map(lambda a: rep.Power(a, 2)),
)
TENSOR = st.lists(FACTOR, min_size=1, max_size=3).map(
    lambda ps: ps[0] if len(ps) == 1 else rep.Tensor(tuple(ps)))
EXPR = st.one_of(TENSOR, st.lists(TENSOR, min_size=2, max_size=2).map(
    lambda ps: rep.DirectSum(tuple(ps))))


def _largest_space(expr, l, order) -> int:
    """Largest branch weight space the spectral route factors: its cost."""
    largest = 0
    for key in rep.tensor_branches(expr):
        depths = monodromy._branch_depth_jobs(key, l, order)
        if depths:
            dims = rep.character(rep.branch_expr(key), depths[-1]).values()
            largest = max(largest, *dims)
    return largest


@given(EXPR, st.sampled_from((1, 2)), st.integers(1, 16).map(lambda k: F(k, 2)))
@settings(max_examples=200, deadline=None)
def test_character_route_matches_spectral(expr, l, order):
    assume(_largest_space(expr, l, order) <= 66)
    _assert_routes_agree(expr, l, order)


def test_monodromy_matrix_v_jordan():
    # on P(-2): M = q^1 (I - mu N) with N the nilpotent part
    mm = monodromy_matrix(P, -2, 1)
    tr = mm.trace()
    assert tr.terms == {F(1): monodromy.MuPoly((F(2),))}
    # entries carry mu-linear parts that cancel in the trace
    e00 = mm.entries[0][0]
    assert not e00.mu_free()


def test_monodromy_power_law():
    m1 = monodromy_matrix(rep.Tensor((M0, M0)), -4, 1)
    m2 = monodromy_matrix(rep.Tensor((M0, M0)), -4, 2)
    prod = m1.matmul(m1)
    assert prod.loops == 2
    assert prod.entries == m2.entries


def test_monodromy_trace_matches_series():
    expr = rep.Tensor((M0, M0))
    order = F(6)
    total = QSeries.zero(order)
    w = 0
    while True:
        d = F(-w, 2)
        # all eigenvalues at depth d are <= -d, exponent >= d; stop past order
        if d >= order:
            break
        mm = monodromy_matrix(expr, w, 1)
        total = total + mm.trace().as_qseries(order)
        w -= 2
    assert series_eq(total, trace_series(expr, 1, order), order)


def test_trace_deformed_matches_partial_theta():
    from casimir_trace.closed_forms import partial_theta

    for kind, expr in (("M0", M0), ("Mminus2", Mm2), ("P", P)):
        got = trace_deformed(expr, 1, F(9))
        want = partial_theta(kind, 1, F(9))
        assert got.terms == want.terms


def test_trace_deformed_rejects_positive_or_odd_top():
    with pytest.raises(UnsupportedInputError):
        trace_deformed(rep.Verma(-1), 1, F(4))
    with pytest.raises(UnsupportedInputError):
        trace_deformed(rep.Irr(2), 1, F(4))


def test_trace_via_decomposition_matches():
    for alphas, betas, p in (((1, 1), (0, 0), 1), ((1, 1), (1, 1), 1), ((2, 1), (1, 2), 1)):
        expr_parts = []
        for a, b in zip(alphas, betas):
            terms = [rep.Power(M0, a)] if a else []
            if b:
                terms.append(rep.Power(Mm2, b))
            expr_parts.append(terms[0] if len(terms) == 1 else rep.DirectSum(tuple(terms)))
        expr = rep.Tensor(tuple(expr_parts))
        direct = trace_series(expr, 1, F(8))
        fast = trace_via_decomposition(alphas, betas, p, 1, F(8))
        assert series_eq(direct, fast, F(8))


def test_jordan_2x2_defective():
    j, s = jordan_2x2(((-12, 2), (-8, -4)))
    assert j == ((F(-8), F(2)), (F(0), F(-8)))
    # A S == S J
    a = ((-12, 2), (-8, -4))
    for i in range(2):
        for k in range(2):
            lhs = sum(a[i][m] * s[m][k] for m in range(2))
            rhs = sum(s[i][m] * j[m][k] for m in range(2))
            assert lhs == rhs


def test_jordan_2x2_distinct_eigenvalues():
    j, s = jordan_2x2(((1, 0), (0, 5)))
    assert j == ((F(1), F(0)), (F(0), F(5)))
    j2, _ = jordan_2x2(((0, 1), (6, 1)))  # x^2 - x - 6 = (x-3)(x+2)
    assert j2 == ((F(-2), F(0)), (F(0), F(3)))


def test_jordan_2x2_rejects_irrational():
    with pytest.raises(UnsupportedInputError):
        jordan_2x2(((0, 2), (1, 0)))
    with pytest.raises(DomainError):
        jordan_2x2(((1,),))


def test_flat_sections_ode_and_consistency():
    for expr, w in ((P, -2), (P, -6), (rep.Tensor((M0, M0)), -4), (rep.Tensor((M0, P)), -6)):
        fs = flat_sections(expr, w)
        assert fs.check_ode()
        mm = monodromy_matrix(expr, w, 1)
        assert fs.check_monodromy(mm)


def test_flat_sections_projections_sum_to_identity():
    fs = flat_sections(rep.Tensor((M0, M0)), -6)
    n = len(fs.labels)
    total = [[F(0)] * n for _ in range(n)]
    for c, j, mat in fs.terms:
        if j == 0:
            for i in range(n):
                for k in range(n):
                    total[i][k] += mat[i][k]
    assert total == [[F(1) if i == k else F(0) for k in range(n)] for i in range(n)]


def test_spectral_components_block_structure():
    _basis, comp = spectral_components(rep.Tensor((M0, M0)), -4)
    assert comp.dimension == 3
    got = sorted({(c, m) for c, m, _chain in comp.blocks})
    assert got == [(-8, 2), (-4, 1)]


@given(st.sampled_from([M0, Mm2, P, rep.Tensor((M0, Mm2)), rep.Tensor((P, Irr := rep.Irr(1)))]),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_power_law_random(expr, l1, l2):
    top = rep.top_weight(expr)
    w = top - 2 * 2
    if len(rep.weight_space(expr, w)) == 0:
        return
    a = monodromy_matrix(expr, w, l1)
    b = monodromy_matrix(expr, w, l2)
    ab = a.matmul(b)
    direct = monodromy_matrix(expr, w, l1 + l2)
    assert ab.entries == direct.entries
