import dataclasses
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casimir_trace import linalg, monodromy, rep
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
from casimir_trace.series import MuPoly, QSeries, series_eq

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
        assert sd.to_obj()["exact"] is True


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


def _section_spectrum(expr, w):
    """kappa's spectrum on the weight-w space as sorted (c, m, b), proven by
    the route that does not walk: spectral_components finds the generalized
    eigenspaces as integer nullspaces of kappa's powers and proves them
    complete by the flat section's ODE.  m is the trace of the projection
    A_c0 and b the length of c's chain A_c0, A_c1, ..."""
    fs = spectral_components(expr, w)
    blocks = Counter(c for c, _j, _mat in fs.terms)
    return tuple(sorted((c, sum(mat[i][i] for i in range(fs.dimension)), blocks[c])
                        for c, j, mat in fs.terms if j == 0))


@given(EXPR, st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_verma_flag_walk_matches_the_flat_section(expr, depth):
    for key in sorted(rep.tensor_branches(expr)):
        w = sum(t[1] for t in key) - 2 * depth
        n = len(rep.weight_space(rep.branch_expr(key), w))
        if 0 < n <= 40:
            assert monodromy._branch_spectrum(key, w) == _section_spectrum(rep.branch_expr(key), w)


@pytest.mark.parametrize("key", [(("L", 2), ("L", 3)), (("L", 1), ("L", 1), ("L", 4)),
                                 (("L", 0),)])
def test_finite_branch_spectrum_at_negative_weights(key, monkeypatch):
    top = sum(t[1] for t in key)
    monodromy._branch_spectrum.cache_clear()
    for w in range(top, -top - 1, -2):
        assert monodromy._branch_spectrum(key, w) == _section_spectrum(rep.branch_expr(key), w)
    # below the bottom weight the space is zero
    assert monodromy._branch_spectrum(key, -top - 2) == ()
    character_spectra = monodromy._character_spectra
    monkeypatch.setattr(monodromy, "_character_spectra", lambda key, depths: [
        [(c + 2, m) for c, m in s] for s in character_spectra(key, depths)])
    monodromy._branch_spectrum.cache_clear()
    try:
        with pytest.raises(InvariantError, match="the walk gives"):
            monodromy._branch_spectrum(key, -top)
    finally:
        monodromy._branch_spectrum.cache_clear()


def test_spectral_walks_down_iteratively(monkeypatch):
    # 1000 levels below the top, more than Python's default recursion limit
    monodromy._WALKS.clear()
    monodromy._branch_spectrum.cache_clear()
    assert spectral(P, -2000).eigen == ((-2 * 1000 ** 2, 2, 2),)


def test_walk_cache_is_bounded_and_continues_one_walk(monkeypatch):
    monodromy._WALKS.clear()
    monodromy._branch_spectrum.cache_clear()
    starts = []
    start_walk = monodromy._start_walk
    monkeypatch.setattr(monodromy, "_start_walk",
                        lambda key, sign: starts.append((key, sign)) or start_walk(key, sign))
    # consecutive depths of one branch continue one walk
    expr = rep.Tensor((M0, P))
    monodromy.prove_spectra(expr, 1, F(12))
    (key,) = rep.tensor_branches(expr)
    assert starts == [(key, 1)] and monodromy._WALKS[key].weight < -10
    # a branch of finite irreducibles walks down to weight 0, then once up
    # from the bottom through its negative weights
    starts.clear()
    finite = (("L", 2), ("L", 2))
    monodromy.prove_spectra(rep.branch_expr(finite), 1, F(12))
    assert starts == [(finite, 1), (finite, -1)]
    # the cache keeps the most recent walks, at most WALKS_MAX of them
    keys = [(("M", -lam),) for lam in range(monodromy.WALKS_MAX + 3)]
    for k in keys:
        monodromy._branch_spectrum(k, k[0][1] - 4)
    assert list(monodromy._WALKS) == keys[-monodromy.WALKS_MAX:]
    monodromy._WALKS.clear()
    monodromy._branch_spectrum.cache_clear()


def _bump_e(action_columns, into=None):
    """action_columns with one entry of e raised by 1: on every level, or
    only from W_(into - 2) into W_into."""
    def bumped(gen, expr, src, tgt):
        cols = action_columns(gen, expr, src, tgt)
        if gen == "e" and cols and tgt and (
                into is None or rep.index_weight(expr, src[0]) == into - 2):
            cols[0] = {**cols[0], 0: cols[0].get(0, 0) + 1}
        return cols
    return bumped


def _bump_e_into_minus_4(action_columns):
    # only the look-ahead of the asked level -4 reads e from W_-6: the walk
    # never steps past -4
    return _bump_e(action_columns, into=-4)


@pytest.mark.parametrize("name, bump, message", [
    ("action_columns", _bump_e, r"\[e, f\] != h"),
    ("action_columns", _bump_e_into_minus_4, r"\[e, f\] != h on the weight -4 space"),
])
def test_walk_checks_the_matrices_it_reads(name, bump, message, monkeypatch):
    monkeypatch.setattr(monodromy, name, bump(getattr(monodromy, name)))
    monodromy._WALKS.clear()
    monodromy._branch_spectrum.cache_clear()
    try:
        with pytest.raises(InvariantError, match=message):
            monodromy._branch_spectrum((("L", 1), ("M", -1)), -4)
    finally:
        monodromy._WALKS.clear()
        monodromy._branch_spectrum.cache_clear()


@given(EXPR, st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_walk_operator_is_kappa_flat(expr, depth):
    # the dense kappa as an oracle for the walk's operator at each asked
    # level: kappa_flat = 2 step back + sign w entry by entry
    for key in sorted(rep.tensor_branches(expr)):
        branch = rep.branch_expr(key)
        w = sum(t[1] for t in key) - 2 * depth
        if not 0 < len(rep.weight_space(branch, w)) <= 40:
            continue
        monodromy._branch_spectrum.__wrapped__(key, w)  # past the cache: walks to w
        walk = monodromy._WALKS[key]
        assert walk.weight == w and walk.ahead is not None
        n, flat = rep.kappa_flat(branch, w, walk.basis)
        want = [0] * (n * n)
        for j, col in enumerate(monodromy._times(walk.back, walk.step)):
            for r, x in col.items():
                want[r * n + j] = 2 * x
            want[j * n + j] += walk.sign * w
        assert flat == want


def test_finite_walk_stops_where_f_may_not_be_injective():
    # L2 x L2 holds L0: at weight 0 kappa has the eigenvalue 0, f kills it
    walk = monodromy._start_walk((("L", 2), ("L", 2)), 1)
    monodromy._step(walk)
    monodromy._step(walk)
    assert walk.weight == 0 and walk.spectrum == {0: 1, 4: 1, 12: 1}
    with pytest.raises(InvariantError, match="injectivity"):
        monodromy._step(walk)


def test_walk_refuses_a_basis_that_hides_injectivity(monkeypatch):
    # M0 x L1 has a Verma flag, but with the finite leg first f keeps the
    # first index on u(-1), so its leading entries no longer prove f injective
    key = (("L", 1), ("M", 0))
    monkeypatch.setattr(monodromy, "branch_expr",
                        lambda key: rep.Tensor(tuple(rep._atom_from_key(k) for k in key)))
    monodromy._WALKS.clear()
    monodromy._branch_spectrum.cache_clear()
    try:
        with pytest.raises(InvariantError, match="leading entry"):
            monodromy._branch_spectrum(key, -3)
    finally:
        monodromy._branch_spectrum.cache_clear()


def test_spectral_builds_no_kappa_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("spectral reads kappa off the walk's sparse e and f")

    monkeypatch.setattr(rep, "kappa_flat", no_matrix)
    monodromy._WALKS.clear()
    monodromy._branch_spectrum.cache_clear()
    # one branch, an eigenvalue of multiplicity 4 with a block of size 2
    assert spectral(parse_rep("P x P"), -14).eigen[0] == (-98, 4, 2)


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


# spectral as computed with block sizes from the triple-prime certificate
# above dimension 80, before blocks came from the walk
CERTIFIED_SPECTRA = {
    ("P x P x P", -10): (102, ((-50, 6, 2), (-46, 12, 1), (-38, 20, 1), (-26, 28, 1),
                               (-10, 36, 1))),
    ("P x P x P", -14): (198, ((-98, 6, 2), (-94, 12, 1), (-86, 20, 1), (-74, 28, 1),
                               (-58, 36, 1), (-38, 44, 1), (-14, 52, 1))),
    ("P x P x P", -16): (258, ((-128, 6, 2), (-124, 12, 1), (-116, 20, 1), (-104, 28, 1),
                               (-88, 36, 1), (-68, 44, 1), (-44, 52, 1), (-16, 60, 1))),
    ("M10 x M10 x P", -30): (676, tuple((c, 44, 2) for c in (
        -450, -446, -438, -426, -410, -390, -366, -338, -306, -270, -230)) + (
        (-186, 45, 1), (-138, 47, 1), (-86, 49, 1), (-30, 51, 1))),
}


def test_spectral_is_exact_where_blocks_came_from_the_certificate():
    # above dimension 80 the blocks came from nullities modulo p1 p2 p3;
    # the walk gives the same blocks, proven over Q
    for (text, w), want in CERTIFIED_SPECTRA.items():
        sd = spectral(parse_rep(text), w)
        assert (sd.dimension, sd.eigen) == want
        assert sd.to_obj()["exact"] is True


def test_spectral_sums_branches():
    # six copies of one 44-dimensional branch, each exact
    sd = spectral(parse_rep("(P x P)^6"), -22)
    one = spectral(parse_rep("P x P"), -22)
    assert (sd.dimension, one.dimension) == (264, 44)
    assert sd.eigen == tuple((c, 6 * m, b) for c, m, b in one.eigen)
    assert sd.to_obj()["exact"] is True and one.to_obj()["exact"] is True
    with pytest.raises(DomainError):
        spectral(parse_rep("M0 + M-2"), 1)


def _block_size(kappa, c, m):
    """Largest Jordan block of c: the smallest s with nullity((kappa - c)^s)
    = m, by the Gauss-Jordan nullspace of the powers of the whole matrix,
    given by its rows (neither the walk nor the rank it uses)."""
    n = len(kappa)
    for s, power in zip(range(1, m + 1), monodromy._int_powers_minus_c(kappa, c)):
        if len(linalg.nullspace_int(power, n)) == m:
            return s
    raise AssertionError(f"generalized eigenspace of {c} never reached multiplicity {m}")


def _whole_kappa_trace(expr, l, order):
    """Graded trace summed from the flat-section spectra of the undistributed
    expression, weight by weight in steps of 1, down to trace_series's
    cutoff."""
    top = rep.top_weight(expr)
    out = {}
    w = top
    while w >= 0 or l * monodromy._exponent_floor(top, w) < order:
        if rep.weight_space(expr, w):
            for c, m, _b in _section_spectrum(expr, w):
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
    assert (sd.dimension, sd.eigen) == (len(rep.weight_space(expr, w)), _section_spectrum(expr, w))


@given(EXPR)
@settings(max_examples=100, deadline=None)
def test_walk_blocks_match_exact_ranks(expr):
    # every weight down to 24 below the top where the branch space has
    # n <= 40: the blocks the walk inherits or decides at a collision are
    # those of the powers of kappa_flat
    for key in sorted(rep.tensor_branches(expr)):
        branch = rep.branch_expr(key)
        top = sum(t[1] for t in key)
        for w in range(top, top - 25, -2):
            if 0 < len(rep.weight_space(branch, w)) <= 40:
                kappa = rep.kappa_matrix(branch, w).entries
                got = monodromy._branch_spectrum(key, w)
                assert got == tuple((c, m, _block_size(kappa, c, m)) for c, m, _b in got)


def test_collisions_both_keep_and_grow_blocks(monkeypatch):
    # at weight -2 fresh flag pieces meet the carried eigenvalue -2 with a
    # block of size 1: on M0 x M0 it stays 1, on P x P it grows to 2, and
    # the rank at the collision is what tells them apart
    decided = []
    collision_block = monodromy._collision_block

    def spy(step, back, carried, m):
        b = collision_block(step, back, carried, m)
        decided.append((len(back), carried, m, b))
        return b

    monkeypatch.setattr(monodromy, "_collision_block", spy)
    monodromy._WALKS.clear()
    monodromy._branch_spectrum.cache_clear()
    try:
        assert spectral(parse_rep("M0 x M0"), -2).eigen == ((-2, 2, 1),)
        assert spectral(parse_rep("P x P"), -2).eigen == ((-2, 4, 2),)
    finally:
        monodromy._WALKS.clear()
        monodromy._branch_spectrum.cache_clear()
    assert decided == [(2, 1, 2, 1), (4, 1, 4, 2)]


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


def _per_entry_expansion(fs, l):
    """sum_c q^(-lc/2) sum_j (-l mu)^j / j! A_cj entry by entry: one product
    per nonzero entry of every term, keyed by q exponent, with QMu and MuPoly
    normalising what they are given."""
    chains = Counter(c for c, _j, _mat in fs.terms)
    n = fs.dimension
    cells = [[{} for _ in range(n)] for _ in range(n)]
    for c, j, mat in fs.terms:
        qe = F(-l * c, 2)
        coef = F((-l) ** j, math.factorial(j))
        for i, row in enumerate(mat):
            for k, v in enumerate(row):
                if v:
                    cells[i][k].setdefault(qe, [0] * chains[c])[j] = coef * v
    return tuple(tuple(monodromy.QMu({e: MuPoly(cs) for e, cs in cell.items()}) for cell in row)
                 for row in cells)


@given(EXPR, st.integers(0, 12), st.sampled_from((1, 2, 3)))
@settings(max_examples=100, deadline=None)
def test_monodromy_matrix_matches_a_per_entry_expansion(expr, depth, l):
    w = rep.top_weight(expr) - depth
    assume(0 < len(rep.weight_space(expr, w)) <= 24)
    mono = monodromy_matrix(expr, w, l)
    assert mono.entries == _per_entry_expansion(flat_sections(expr, w), l)
    # the parts are canonical, as QMu(...) and MuPoly(...) would leave them:
    # Fraction keys and coefficients, no zero polynomial, no trailing zero
    for row in mono.entries:
        for entry in row:
            for e, p in entry.terms.items():
                assert type(e) is F and type(p) is MuPoly
                assert p.coeffs and p.coeffs[-1]
                assert all(type(x) is F for x in p.coeffs)


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
        total = total + QSeries({e: p.constant_term() for e, p in mm.trace().terms.items()
                                 if e < order}, order)
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


@pytest.mark.parametrize("mat, s", [
    # (A - c) with p != 0 for both eigenvalues
    (((1, 2), (3, 6)), ((F(-2), F(1, 3)), (F(1), F(1)))),
    # p = 0, r != 0 at c = 2
    (((2, 0), (4, 7)), ((F(-5, 4), F(0)), (F(1), F(1)))),
    # first column of A - c zero at c = 3
    (((3, 1), (0, 5)), ((F(1), F(1, 2)), (F(0), F(1)))),
])
def test_jordan_2x2_similarity_is_the_canonical_eigenvector_pair(mat, s):
    j, got = jordan_2x2(mat)
    assert got == s
    assert all(type(x) is Fraction for row in got for x in row)
    assert j[0][1] == j[1][0] == 0


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


def _bump(mono, i, k, e, s, delta):
    """mono with delta added to the q^e mu^s coefficient of entry (i, k)."""
    terms = dict(mono.entries[i][k].terms)
    coeffs = list(terms.get(e, monodromy.MuPoly()).coeffs)
    coeffs += [F(0)] * (s + 1 - len(coeffs))
    coeffs[s] += delta
    terms[e] = monodromy.MuPoly(coeffs)
    rows = [list(row) for row in mono.entries]
    rows[i][k] = monodromy.QMu(terms)
    return dataclasses.replace(mono, entries=tuple(map(tuple, rows)))


@pytest.mark.parametrize("expr, w", [(rep.Tensor((M0, P)), -6), (rep.Tensor((P, M0)), -8),
                                     (rep.Tensor((P, rep.Irr(1))), -9)])
def test_checks_reject_a_mutated_section_or_matrix(expr, w):
    fs = flat_sections(expr, w)
    mono = monodromy_matrix(expr, w, 1)
    assert fs.check_ode() and fs.check_monodromy(mono)
    n = fs.dimension
    table = {(c, j): mat for c, j, mat in fs.terms}
    (c, _one), = [key for key in table if key[1] == 1]
    other = next(c2 for c2, _j in table if c2 != c)
    # one monodromy entry perturbed: an existing q-power, a mu term, a q-power mono lacks
    for e, s in ((F(-c, 2), 0), (F(-other, 2), 1), (F(1, 4), 0)):
        assert not fs.check_monodromy(_bump(mono, n - 1, 0, e, s, F(1, 3)))
    # one chain term A_c1 dropped
    dropped = dataclasses.replace(fs, terms=tuple(t for t in fs.terms if t[:2] != (c, 1)))
    assert not dropped.check_ode() and not dropped.check_monodromy(mono)
    # two eigenvalues' projections swapped
    swap = {(c, 0): table[other, 0], (other, 0): table[c, 0]}
    swapped = dataclasses.replace(
        fs, terms=tuple((c2, j, swap.get((c2, j), mat)) for c2, j, mat in fs.terms))
    assert not swapped.check_ode() and not swapped.check_monodromy(mono)
    # one entry of the last row bumped, in a chain term and in a projection:
    # every row of both identities is read.  With the matching entry of mono
    # bumped too, the two agree entry by entry, and only the ODE fails.
    for key in ((c, 1), (other, 0)):
        last = [list(row) for row in table[key]]
        last[n - 1][n - 1] += F(1, 3)
        bumped = dataclasses.replace(fs, terms=tuple(
            (c2, j, tuple(map(tuple, last)) if (c2, j) == key else mat)
            for c2, j, mat in fs.terms))
        assert not bumped.check_ode()
        c2, j = key
        both = _bump(mono, n - 1, n - 1, F(-c2, 2), j, (-1) ** j * F(1, 3))
        assert not bumped.check_monodromy(both)
    # every term of one eigenvalue dropped: the ODE holds, the projections miss I
    partial = dataclasses.replace(fs, terms=tuple(t for t in fs.terms if t[0] != other))
    assert not partial.check_ode()
    # a (c, j) stored twice, and a term one row short: rejected, not raised
    twice = dataclasses.replace(fs, terms=fs.terms + fs.terms[:1])
    assert not twice.check_ode() and not twice.check_monodromy(mono)
    (c0, j0, mat0), *rest = fs.terms
    short = dataclasses.replace(fs, terms=((c0, j0, mat0[:-1]), *rest))
    assert not short.check_ode() and not short.check_monodromy(mono)
    # chains with a gap: a zero term past the end of a chain of length 1,
    # and A_c1 stored as j = 2; both identities hold term by term, but the
    # entry-by-entry comparison needs whole chains
    lone = next(c2 for c2, k in _chains(fs).items() if k == 1)
    zero = tuple((F(0),) * n for _ in range(n))
    padded = dataclasses.replace(fs, terms=fs.terms + ((lone, 3, zero),))
    assert not padded.check_ode() and not padded.check_monodromy(mono)
    relabelled = dataclasses.replace(
        fs, terms=tuple((c2, 2 if (c2, j) == (c, 1) else j, mat) for c2, j, mat in fs.terms))
    assert not relabelled.check_ode() and not relabelled.check_monodromy(mono)


@given(EXPR, st.integers(0, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_check_monodromy_accepts_the_matrix_and_rejects_one_perturbed_entry(expr, depth, data):
    w = rep.top_weight(expr) - depth
    assume(0 < len(rep.weight_space(expr, w)) <= 12)
    fs = flat_sections(expr, w)
    assert fs.check_monodromy(monodromy_matrix(expr, w, 1))
    n = fs.dimension
    i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    # the q-powers of the section's eigenvalues, and one no eigenvalue gives
    e = data.draw(st.sampled_from(sorted({F(-c, 2) for c, _j, _m in fs.terms}) + [F(1, 4)]))
    s = data.draw(st.integers(0, 2))
    delta = data.draw(st.sampled_from((F(1), F(-2), F(1, 3))))
    assert not fs.check_monodromy(_bump(monodromy_matrix(expr, w, 1), i, k, e, s, delta))
    with pytest.raises(DomainError):
        fs.check_monodromy(monodromy_matrix(expr, w, data.draw(st.integers(2, 3))))


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


def _chains(fs):
    """{c: chain length}: the number of terms A_cj of each eigenvalue."""
    return Counter(c for c, _j, _mat in fs.terms)


def test_spectral_components_block_structure():
    expr = rep.Tensor((M0, M0))
    fs = spectral_components(expr, -4)
    assert fs is flat_sections(expr, -4)
    assert fs.dimension == 3 and fs.weight == -4
    assert fs.labels == rep.kappa_matrix(expr, -4).labels
    # one term per step of each chain, as long as the eigenvalue's largest block
    eigen = spectral(expr, -4).eigen
    assert eigen == ((-8, 2, 1), (-4, 1, 1))
    assert _chains(fs) == {c: b for c, _m, b in eigen}


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
    fs = spectral_components(P, -6)
    assert all(isinstance(part, tuple) for part in (fs.labels, fs.terms, fs.kappa))
    assert 0 < spectral_components.cache_info().maxsize <= 16


def test_spectral_components_refuses_a_space_above_the_budget(monkeypatch):
    # M0 x P has dimension 2k + 1 at weight -2k: one above the budget here
    expr, w = rep.Tensor((M0, P)), -monodromy.COMPONENTS_DIM_MAX
    n = sum(m for _c, m in monodromy._predicted_spectrum(rep.tensor_branches(expr), w))
    assert n == monodromy.COMPONENTS_DIM_MAX + 1

    def no_matrix(*args):
        raise AssertionError("the refusal must come before any matrix is built")

    monkeypatch.setattr(monodromy, "weight_space", no_matrix)
    monkeypatch.setattr(rep, "kappa_flat", no_matrix)
    monkeypatch.setattr(monodromy, "kappa_matrix", no_matrix)
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
    fs = spectral_components(expr, w)
    kappa = rep.kappa_matrix(expr, w).entries
    n = len(kappa)
    assert fs.kappa == kappa and fs.dimension == n
    table = {(c, j): mat for c, j, mat in fs.terms}
    zero = [[0] * n for _ in range(n)]
    # the blocks are spectral's, and each chain is as long as its largest block
    eigen = spectral(expr, w).eigen
    assert _chains(fs) == {c: b for c, _m, b in eigen}
    # kappa = sum_c (c A_c0 + A_c1)
    total = [[sum(c * table[c, 0][i][k] + table.get((c, 1), zero)[i][k]
                  for c, _m, _b in eigen) for k in range(n)] for i in range(n)]
    assert total == [list(row) for row in kappa]
    # the A_c0 are orthogonal idempotents
    for c, _m, _b in eigen:
        for c2, _m2, _b2 in eigen:
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
