"""The character oracle against the paper's closed forms.

    python3 -m pytest perfbench/test_oracle.py -q

The closed forms in casimir_trace.closed_forms are generated from their
defining sums and never consult the representation layer, so they are an
independent reference for the oracle.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from casimir_trace import (  # noqa: E402
    AppellLerchParams,
    jacobi_theta,
    parse_rep,
    partial_appell_lerch,
    partial_theta,
)

P = ("P",)
M0, M_2 = ("M", 0), ("M", -2)
ORDER = 40


def _terms(series) -> dict:
    return {e: c for e, c in series.items() if c}


def _biterms(series) -> dict:
    return {k: c for k, c in series.items() if c}


@pytest.mark.parametrize("l", [1, 2, 3])
def test_p_is_the_theta_constant(l):
    assert oracle.trace(P, l, ORDER) == _terms(jacobi_theta(l, ORDER))


@pytest.mark.parametrize("kind, expr", [("L0", ("L", 0)), ("M0", M0), ("Mminus2", M_2), ("P", P)])
@pytest.mark.parametrize("l", [1, 2])
def test_partial_thetas(kind, expr, l):
    want = partial_theta(kind, l, ORDER)
    assert oracle.trace_deformed(expr, l, ORDER) == _biterms(want)
    assert oracle.trace(expr, l, ORDER) == _terms(want.at_x_one())


@pytest.mark.parametrize("expr, alphas, betas", [
    (("x", M0, M0), (1, 1), (0, 0)),
    (("x", M0, P), (1, 1), (0, 1)),
    (("x", P, P), (1, 1), (1, 1)),
])
@pytest.mark.parametrize("l", [1, 2])
def test_partial_appell_lerch(expr, alphas, betas, l):
    want = partial_appell_lerch(AppellLerchParams(alphas, betas, 1, l), ORDER)
    assert oracle.trace(expr, l, ORDER) == _terms(want)


@pytest.mark.parametrize("expr", [
    ("x", P, P, P), ("x", ("M", -3), ("L", 2), P), ("x", ("M", 2), P), ("x", ("L", 3), ("L", 2)),
    ("+", ("M", -1), ("L", 3)), ("x", ("^", ("+", M0, M_2), 2), P),
])
def test_cutoff_drops_nothing(expr):
    """Walking far deeper than the proven cutoff adds no term below the order."""
    deep = oracle.trace(expr, 1, 20)
    assert oracle.trace(expr, 1, 8) == {e: c for e, c in deep.items() if e < 8}


def test_weight_trace_sums_to_the_trace():
    expr = ("x", M0, P)
    total: dict = {}
    for d in range(12):
        for e, c in oracle.weight_trace(expr, -2 * d, 1).items():
            total[e] = total.get(e, 0) + c
    assert {e: c for e, c in total.items() if e < 6 and c} == oracle.trace(expr, 1, 6)


def test_spectrum_of_p_is_one_double_eigenvalue():
    for k in range(1, 20):
        assert oracle.spectrum(P, -2 * k) == {-2 * k * k: 2}
        assert oracle.dimension(P, -2 * k) == 2


@pytest.mark.parametrize("expr", [
    ("x", ("^", ("+", M0, M_2), 2), P), ("^", ("x", P, P), 6), ("+", ("M", -1), ("L", 3)),
    ("x", ("M", -3), ("L", 2), P), ("^", P, 2),
])
@pytest.mark.parametrize("compact", [False, True])
def test_render_parses_back(expr, compact):
    text = oracle.render(expr, compact)
    assert oracle.render(_from_rep(parse_rep(text))) == oracle.render(expr)


def _from_rep(module):
    kind = type(module).__name__
    if kind == "Verma":
        return ("M", module.lam)
    if kind == "Irr":
        return ("L", module.n)
    if kind == "BigP":
        return P
    if kind == "Power":
        return ("^", _from_rep(module.base), module.mult)
    head = "+" if kind == "DirectSum" else "x"
    return (head,) + tuple(_from_rep(p) for p in module.parts)


def test_half_integer_exponents_for_odd_tops():
    assert Fraction(1, 2) in oracle.trace(("x", ("M", -3), ("L", 2), P), 1, 4)
