import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_trace import rep
from casimir_trace.errors import DomainError
from casimir_trace.rep import (
    BigP,
    DirectSum,
    Irr,
    Power,
    Tensor,
    Verma,
    act,
    act_combo,
    character,
    format_index,
    hwv_count,
    kappa_image,
    kappa_matrix,
    singular_count,
    tensor_branches,
    top_weight,
    weight_space,
)
from test_cli import EXPR as CLI_EXPR
from test_monodromy import EXPR as MONODROMY_EXPR

M0 = Verma(0)
Mm2 = Verma(-2)
P = BigP()


def test_verma_actions():
    # e f^k v = k(lam - k + 1) f^(k-1) v with lam = 0
    assert act("e", M0, 1) == {}
    assert act("e", M0, 2) == {1: -2}
    assert act("f", M0, 2) == {3: 1}
    assert act("h", M0, 3) == {3: -6}


def test_irr_truncates():
    L1 = Irr(1)
    assert act("f", L1, 0) == {1: 1}
    assert act("f", L1, 1) == {}
    assert act("e", L1, 1) == {0: 1}


def test_top_weights():
    assert top_weight(M0) == 0
    assert top_weight(P) == 0
    assert top_weight(Tensor((Mm2, Irr(3)))) == 1
    assert top_weight(DirectSum((M0, Irr(2)))) == 2


def test_weight_space_of_P_at_minus2():
    ws = weight_space(P, -2)
    labels = [format_index(P, i) for i in ws]
    assert labels == ["f v(-1) ⊗ u(+1)", "v(-1) ⊗ u(-1)"]


def test_kappa_matrix_P():
    wm = kappa_matrix(P, -2)
    assert wm.entries == ((-4, 2), (-2, 0))
    wm4 = kappa_matrix(P, -4)
    # Jordan type (-2k^2, block 2) at k = 2: trace -16, det 64
    a, b = wm4.entries
    assert a[0] + b[1] == -16
    assert a[0] * b[1] - a[1] * b[0] == 64


def test_kappa_matrix_verma():
    assert kappa_matrix(M0, -4).entries == ((-8,),)
    assert kappa_matrix(Verma(3), 3).entries == ((3,),)


def test_kappa_empty_space():
    with pytest.raises(DomainError):
        kappa_matrix(M0, 1)  # odd weight never occurs in M0


def test_character_P():
    ch = character(P, 3)
    assert ch == {0: 1, -2: 2, -4: 2, -6: 2}


def test_character_tensor_is_convolution():
    chA = character(M0, 6)
    chB = character(Mm2, 6)
    chT = character(Tensor((M0, Mm2)), 6)
    top = -2
    for w, d in chT.items():
        conv = 0
        for w1, d1 in chA.items():
            d2 = chB.get(w - w1)
            if d2:
                conv += d1 * d2
        # only compare layers where both inputs are complete
        if w > top - 2 * 6 + 12:
            continue
        assert conv == d


def test_weight_space_of_mixed_parity_tensor_leg():
    # (M1 + M2) x M0 has weights of both parities below its top 2; a leg
    # of mixed parity must not be walked in steps of 2 from its top
    expr = Tensor((DirectSum((Verma(1), Verma(2))), M0))
    for w in range(2, -8, -1):
        want = sum(len(weight_space(Tensor((Verma(lam), M0)), w)) for lam in (1, 2))
        assert len(weight_space(expr, w)) == want
        assert len(weight_space(Tensor((M0, expr.parts[0])), w)) == want
    assert len(weight_space(expr, 1)) == 1


def test_branches_of_bigp_and_power():
    b = tensor_branches(P)
    assert b == {(("L", 1), ("M", -1)): 1}
    b2 = tensor_branches(Power(DirectSum((M0, Mm2)), 2))
    assert b2 == {(("M", 0),): 2, (("M", -2),): 2}
    b3 = tensor_branches(Tensor((DirectSum((M0, Mm2)), M0)))
    assert b3 == {(("M", 0), ("M", 0)): 1, (("M", -2), ("M", 0)): 1}


def test_hwv_against_flag_multiplicities():
    T = Tensor((M0, M0))
    assert [hwv_count(T, -2 * k) for k in range(5)] == [1, 1, 1, 1, 1]
    assert hwv_count(P, -2) == 1
    assert hwv_count(M0, -2) == 0
    # raw singular vectors differ at -2: f v inside M0 is singular
    assert singular_count(T, -2) == 2
    assert singular_count(M0, -2) == 1
    assert singular_count(P, -2) == 1


EXPRS = st.sampled_from([
    M0,
    Mm2,
    Verma(-1),
    Verma(3),
    Irr(1),
    Irr(2),
    P,
    Tensor((M0, Mm2)),
    Tensor((P, Irr(1))),
    DirectSum((M0, Irr(3))),
    Power(DirectSum((M0, Mm2)), 2),
    Tensor((DirectSum((M0, Mm2)), P)),
])


@given(EXPRS, st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=150, deadline=None)
def test_commutator_relations(expr, depth, data):
    w = top_weight(expr) - depth
    basis = weight_space(expr, w)
    if not basis:
        return
    idx = data.draw(st.sampled_from(basis))
    vec = {idx: 1}

    def comm(a, b):
        lhs = act_combo(a, expr, act_combo(b, expr, vec))
        rhs = act_combo(b, expr, act_combo(a, expr, vec))
        return {k: lhs.get(k, 0) - rhs.get(k, 0) for k in set(lhs) | set(rhs)}

    ef = {k: v for k, v in comm("e", "f").items() if v}
    assert ef == {k: v for k, v in act("h", expr, idx).items() if v} or ef == act_combo("h", expr, vec)
    he = {k: v for k, v in comm("h", "e").items() if v}
    assert he == {k: 2 * v for k, v in act_combo("e", expr, vec).items()}
    hf = {k: v for k, v in comm("h", "f").items() if v}
    assert hf == {k: -2 * v for k, v in act_combo("f", expr, vec).items()}


@given(EXPRS, st.integers(min_value=0, max_value=6))
@settings(max_examples=100, deadline=None)
def test_kappa_preserves_weight(expr, depth):
    w = top_weight(expr) - depth
    for idx in weight_space(expr, w):
        for target in kappa_image(expr, idx):
            assert rep.index_weight(expr, target) == w


def test_canonical_order_is_stable():
    T = Tensor((P, P))
    ws1 = weight_space(T, -4)
    ws2 = weight_space(T, -4)
    assert ws1 == ws2
    assert len(ws1) == 8


def desugar(expr):
    """The expression with P spelled as M(-1) x L(1) and M^k as k summands."""
    if isinstance(expr, BigP):
        return Tensor((Verma(-1), Irr(1)))
    if isinstance(expr, Power):
        return DirectSum((desugar(expr.base),) * expr.mult)
    if isinstance(expr, (DirectSum, Tensor)):
        return type(expr)(tuple(desugar(p) for p in expr.parts))
    return expr


@given(st.one_of(EXPRS, MONODROMY_EXPR, CLI_EXPR))
@settings(max_examples=200, deadline=None)
def test_p_and_powers_read_as_what_they_denote(expr):
    plain = desugar(expr)
    assert tensor_branches(expr) == tensor_branches(plain)
    assert top_weight(expr) == top_weight(plain)
    assert rep.bottom_weight(expr) == rep.bottom_weight(plain)
    assert character(expr, 3) == character(plain, 3)
    top = top_weight(expr)
    for w in range(top, top - 4, -1):
        basis = weight_space(expr, w)
        assert basis == weight_space(plain, w)
        if basis:
            got, want = kappa_matrix(expr, w), kappa_matrix(plain, w)
            assert (got.labels, got.entries) == (want.labels, want.entries)


def test_p_and_powers_keep_their_own_equality():
    assert P != Tensor((Verma(-1), Irr(1)))
    assert Power(M0, 2) != DirectSum((M0, M0))
    assert Power(M0, 2) == Power(M0, 2) and Power(M0, 2) != Power(M0, 3)
    assert hash(Power(M0, 2)) == hash(Power(Verma(0), 2))
    assert repr(Power(M0, 2)) == "Power(base=Verma(lam=0), mult=2)"
    assert repr(P) == "BigP()"
    assert len({P, Tensor((Verma(-1), Irr(1))), Power(M0, 2), DirectSum((M0, M0))}) == 4
