from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casimir_trace import kernel, monodromy, rep
from casimir_trace.cli import parse_rep
from casimir_trace.errors import DomainError, InvariantError, UnsupportedInputError
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
    a = trace_series(expr, 1, F(12))
    b = _whole_kappa_trace(expr, 1, F(12))
    assert series_eq(a, b, F(12))


def test_trace_mixed_parity_sum():
    # direct sum with odd and even tops together
    expr = rep.DirectSum((M0, rep.Verma(-1)))
    want = trace_series(M0, 1, F(4)) + trace_series(rep.Verma(-1), 1, F(4))
    assert series_eq(_whole_kappa_trace(expr, 1, F(4)), want, F(4))
    assert series_eq(trace_series(expr, 1, F(4)), want, F(4))


def test_trace_q_to_ql():
    base = trace_series(rep.Tensor((M0, P)), 1, F(6))
    for l in (2, 3):
        scaled = trace_series(rep.Tensor((M0, P)), l, F(6 * l))
        assert series_eq(base.substitute_power(l), scaled, F(6 * l))


def test_trace_rejects_bad_loops():
    with pytest.raises(DomainError):
        trace_series(M0, 0, F(5))


def test_branch_spectrum_cache_is_bounded():
    maxsize = monodromy._branch_spectrum.cache_info().maxsize
    assert maxsize is not None and maxsize >= 1000


@pytest.mark.parametrize("text, l, order", [
    ("L3 x L2", 1, F(8)),            # finite: signed flag multiplicities cancel
    ("M3 + L2 x P", 1, F(8)),        # branch tops of both parities
    ("M2 x P", 1, F(8)),             # positive top: Laurent terms
    ("M-1 x M-1", 1, F(8)),          # odd top weights: half-integer exponents
    ("(M0 + M-2)^2 x P", 2, F(15, 2)),
    ("P x M-4", 2, F(8)),
])
def test_character_route_matches_spectral_named(text, l, order):
    # every branch spectrum the trace reads off the character is kappa's
    monodromy.prove_spectra(parse_rep(text), l, order)


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
    """Largest branch weight space prove_spectra factors: its cost."""
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
    monodromy.prove_spectra(expr, l, order)


@given(EXPR, st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_character_counts_weight_spaces(expr, depth):
    top = rep.top_weight(expr)
    ch = rep.character(expr, depth)
    weights = range(top - 2 * depth, top + 1)
    assert set(ch) <= set(weights) and all(ch.values())
    for w in weights:
        assert ch.get(w, 0) == len(rep.weight_space(expr, w))


@pytest.mark.parametrize("text, l, order", [
    ("M3 + L2 x P", 1, F(8)),
    ("(M0 + M-2)^2 x P", 2, F(15, 2)),
])
def test_prove_spectra_visits_what_the_trace_reads(text, l, order, monkeypatch):
    expr = parse_rep(text)
    read, proven = set(), set()
    character_spectra = monodromy._character_spectra

    def reading(key, depths):
        top = sum(t[1] for t in key)
        read.update((key, top - 2 * d) for d in depths)
        return character_spectra(key, depths)

    monkeypatch.setattr(monodromy, "_character_spectra", reading)
    trace_series(expr, l, order)
    read_by_trace = set(read)
    monkeypatch.setattr(monodromy, "_branch_spectrum", lambda key, w: proven.add((key, w)))
    monodromy.prove_spectra(expr, l, order)
    # the walk itself reads no character; each proof predicts its own
    assert read == read_by_trace
    assert proven == read and read


def test_prove_spectra_rejects_a_wrong_character(monkeypatch):
    character_spectra = monodromy._character_spectra

    def shifted(key, depths):
        spectra = character_spectra(key, depths)
        return [[(c + 2, m) for c, m in s] for s in spectra]

    monodromy._branch_spectrum.cache_clear()
    monkeypatch.setattr(monodromy, "_character_spectra", shifted)
    try:
        with pytest.raises(InvariantError):
            monodromy.prove_spectra(rep.Tensor((M0, P)), 1, F(6))
    finally:
        monodromy._branch_spectrum.cache_clear()


def test_spectral_is_not_exact_when_blocks_come_from_the_certificate():
    # n = 102 > EXACT_BLOCKS_MAX: the spectrum is exact, but the block size
    # of the eigenvalue -50 (multiplicity 6) comes from nullities modulo
    # p1 p2 p3
    sd = spectral(rep.Tensor((P, P, P)), -10)
    assert sd.dimension == 102 > monodromy.EXACT_BLOCKS_MAX
    assert sd.eigen[0] == (-50, 6, 2)
    assert not sd.exact
    (key,) = rep.tensor_branches(rep.Tensor((P, P, P)))
    assert monodromy._branch_spectrum(key, -10)[1]


def test_spectral_sums_branches():
    # six copies of one 44-dimensional branch, each exact
    sd = spectral(parse_rep("(P x P)^6"), -22)
    one = spectral(parse_rep("P x P"), -22)
    assert (sd.dimension, one.dimension) == (264, 44)
    assert sd.eigen == tuple((c, 6 * m, b) for c, m, b in one.eigen)
    assert sd.exact and one.exact
    with pytest.raises(DomainError):
        spectral(parse_rep("M0 + M-2"), 1)


def _whole_kappa_spectrum(expr, w):
    """kappa on the undistributed expression, with its spectrum proven
    against the character's prediction: (n, entries, spectrum, exact)."""
    n, flat = rep.kappa_flat(expr, w)
    predicted = monodromy._predicted_spectrum(rep.tensor_branches(expr), w)
    eigs, exact = kernel.integer_spectrum(flat, n, predicted)
    return n, flat, eigs, exact


def _whole_kappa_spectral(expr, w):
    """SpectralData from kappa on the undistributed expression."""
    n, flat, eigs, exact = _whole_kappa_spectrum(expr, w)
    triples = []
    for c, m in eigs:
        b, proven = monodromy._block_size(flat, n, c, m, exact)
        triples.append((c, m, b))
        exact = exact and proven
    return n, tuple(triples), exact


def _whole_kappa_trace(expr, l, order):
    """Graded trace summed from the proven kappa spectra of the undistributed
    expression, weight by weight in steps of 1, down to trace_series's
    cutoff."""
    top = rep.top_weight(expr)
    out = {}
    w = top
    while w >= 0 or l * monodromy._exponent_floor(top, w) < order:
        if rep.weight_space(expr, w):
            for c, m in _whole_kappa_spectrum(expr, w)[2]:
                assert F(-c, 2) >= monodromy._exponent_floor(top, w)
                e = F(-l * c, 2)
                if e < order:
                    out[e] = out.get(e, F(0)) + m
        w -= 1
    return QSeries(out, order)


@given(EXPR, st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_spectral_branchwise_matches_whole_kappa(expr, depth):
    w = rep.top_weight(expr) - depth
    assume(0 < len(rep.weight_space(expr, w)) <= 66)
    sd = spectral(expr, w)
    assert (sd.dimension, sd.eigen, sd.exact) == _whole_kappa_spectral(expr, w)


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


@pytest.mark.parametrize("wrong", [
    [(-6, 2), (-4, 1)],  # one eigenvalue shifted
    [(-8, 1), (-4, 2)],  # multiplicities swapped
    [(-8, 3)],           # two eigenvalues merged
    [(-8, 2)],           # one eigenvalue dropped
    [(-8, 1), (-4, 1)],  # a multiplicity short, though the nullspaces fill the space
])
def test_spectral_components_rejects_a_wrong_prediction(wrong, monkeypatch):
    expr = rep.Tensor((M0, M0))
    assert monodromy._predicted_spectrum(rep.tensor_branches(expr), -4) == [(-8, 2), (-4, 1)]
    # an earlier test may have cached this space, which would skip the prediction
    spectral_components.cache_clear()
    monkeypatch.setattr(monodromy, "_predicted_spectrum", lambda branches, w: wrong)
    try:
        with pytest.raises(InvariantError):
            spectral_components(expr, -4)
    finally:
        spectral_components.cache_clear()


def test_spectral_components_cache_returns_what_a_cold_call_does():
    spaces = [(P, -6), (rep.Tensor((M0, M0)), -4), (rep.Tensor((M0, P)), -6),
              (rep.DirectSum((M0, rep.Verma(-1))), -3)]

    def outputs(expr, w, cold):
        out = []
        for l in (1, 2, 3, None):  # None: the flat section
            if cold:
                spectral_components.cache_clear()
            got = flat_sections(expr, w) if l is None else monodromy_matrix(expr, w, l)
            out.append(got.to_obj())
        return out

    for expr, w in spaces:
        cold = outputs(expr, w, cold=True)
        spectral_components.cache_clear()
        assert outputs(expr, w, cold=False) == cold
        info = spectral_components.cache_info()
        assert (info.misses, info.hits) == (1, 3)
    basis, comp = spectral_components(P, -6)
    assert isinstance(basis, tuple) and isinstance(comp.terms, tuple)
    assert 0 < spectral_components.cache_info().maxsize <= 16


def test_spectral_components_refuses_a_space_above_the_budget(monkeypatch):
    # M0 x P has dimension 2k + 1 at weight -2k: one above the budget here
    expr, w = rep.Tensor((M0, P)), -monodromy.COMPONENTS_DIM_MAX
    n = sum(m for _c, m in monodromy._predicted_spectrum(rep.tensor_branches(expr), w))
    assert n == monodromy.COMPONENTS_DIM_MAX + 1

    def no_matrix(*args):
        raise AssertionError("the refusal must come before any matrix is built")

    monkeypatch.setattr(monodromy, "weight_space", no_matrix)
    monkeypatch.setattr(monodromy, "kappa_flat", no_matrix)
    with pytest.raises(UnsupportedInputError, match="limited to dimension"):
        flat_sections(expr, w)
    with pytest.raises(UnsupportedInputError):
        monodromy_matrix(expr, w, 1)


def _mul(a, b):
    return [[sum(a[i][t] * b[t][k] for t in range(len(b))) for k in range(len(b[0]))]
            for i in range(len(a))]


@given(EXPR, st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_spectral_components_decompose_kappa(expr, depth):
    w = rep.top_weight(expr) - depth
    assume(0 < len(rep.weight_space(expr, w)) <= 12)
    _basis, comp = spectral_components(expr, w)
    kappa = rep.kappa_matrix(expr, w).entries
    n = len(kappa)
    assert comp.kappa == kappa and comp.dimension == n
    table = {(c, j): mat for c, j, mat in comp.terms}
    zero = [[0] * n for _ in range(n)]
    # kappa = sum_c (c A_c0 + A_c1)
    total = [[sum(c * table[c, 0][i][k] + table.get((c, 1), zero)[i][k]
                  for c, _m, _b in comp.blocks) for k in range(n)] for i in range(n)]
    assert total == [list(row) for row in kappa]
    # the A_c0 are orthogonal idempotents
    for c, _m, _b in comp.blocks:
        for c2, _m2, _b2 in comp.blocks:
            want = table[c, 0] if c == c2 else zero
            assert _mul(table[c, 0], table[c2, 0]) == [list(row) for row in want]
    # A_c(j+1) = (kappa - c) A_cj, down to zero past the last term
    for (c, j), mat in table.items():
        shifted = [[kappa[i][k] - (c if i == k else 0) for k in range(n)] for i in range(n)]
        want = table.get((c, j + 1), zero)
        assert _mul(shifted, mat) == [list(row) for row in want]


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
