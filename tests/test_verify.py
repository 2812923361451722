import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_trace import rep, verify
from casimir_trace.closed_forms import AppellLerchParams
from casimir_trace.errors import DomainError, UnsupportedInputError
from casimir_trace.series import BiSeries, QSeries, as_frac
from casimir_trace.verify import (
    CHECKS,
    ZetaCheckParams,
    check_multiplicities,
    check_partial_thetas,
    check_table1,
    check_table2,
    check_theorem1,
    conjecture_pair,
    run_checks,
    zeta_mellin_check,
)


def test_theorem1_passes():
    r = check_theorem1(k_max=30)
    assert r.status == "pass"
    assert r.witness is None


def test_theorem1_perturbation_is_caught(monkeypatch):
    # flip one matrix entry; the harness must localize the failure
    kappa_matrix = verify.rep.kappa_matrix

    def perturbed(expr, w):
        wm = kappa_matrix(expr, w)
        if w != -2 * 17:
            return wm
        (a, b), row = wm.entries
        return dataclasses.replace(wm, entries=((a, b + 1), row))

    monkeypatch.setattr(verify.rep, "kappa_matrix", perturbed)
    r = check_theorem1(k_max=30)
    assert r.status == "fail"
    assert "k=17" in r.witness


def test_table1_small_orders():
    for l in (1, 2):
        r = check_table1(l, order=as_frac(16))
        assert r.status == "pass", r.witness


def test_table2_named_rows_only():
    r = check_table2(order=as_frac(12), samples=0)
    assert r.status == "pass", r.witness


def test_partial_thetas():
    r = check_partial_thetas(1, order=as_frac(16))
    assert r.status == "pass", r.witness


def test_partial_thetas_checks_x_one_against_trace_series(monkeypatch):
    # the bigraded check passes, so only the x = 1 step can see a Table 1
    # trace with its last term dropped
    trace_series = verify.monodromy.trace_series

    def drop_last(expr, l, order):
        s = trace_series(expr, l, order)
        return QSeries({e: c for e, c in s.terms.items() if e != max(s.terms)}, s.order)

    monkeypatch.setattr(verify.monodromy, "trace_series", drop_last)
    r = check_partial_thetas(1, order=as_frac(16))
    assert r.status == "fail"
    assert r.witness == ("kind L0: x=1 specialization disagrees with Table 1: "
                         "coefficient of q^0 differs: 1 vs 0")


def test_multiplicities_check():
    r = check_multiplicities(samples=3, k_max=6)
    assert r.status == "pass", r.witness


def test_conjecture_pair_shapes():
    f, fp = conjecture_pair((0,), (0,), (1,))
    # F = P, F' = M0 + M-2
    assert f == rep.BigP()
    assert fp == rep.DirectSum((rep.Verma(0), rep.Verma(-2)))


# two or three tensor factors, each of (a, b, g) copies of M0, M(-2), P
abg_factors = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
                       .filter(any), min_size=2, max_size=3)


@given(abg_factors)
@settings(max_examples=60, deadline=None)
def test_reader_inverts_conjecture_pair(factors):
    alphas, betas, gammas = zip(*factors)
    f, fp = conjecture_pair(alphas, betas, gammas)
    want = AppellLerchParams(tuple(a + g for a, _b, g in factors),
                             tuple(b + g for _a, b, g in factors), len(factors) - 1, 2)
    assert verify._appell_lerch_params(f, 2) == want
    assert verify._appell_lerch_params(fp, 2) == want


@given(abg_factors, st.data())
@settings(max_examples=30, deadline=None)
def test_reader_refuses_what_it_cannot_read(factors, data):
    f, _fp = conjecture_pair(*zip(*factors))
    i = data.draw(st.integers(0, len(factors) - 1))
    with pytest.raises(UnsupportedInputError):
        verify._appell_lerch_params(f.parts[i])  # one factor: the closed form needs p >= 1
    for bad in (rep.Verma(1), rep.Irr(1)):
        parts = list(f.parts)
        parts[i] = rep.DirectSum((parts[i], bad))
        with pytest.raises(UnsupportedInputError):
            verify._appell_lerch_params(rep.Tensor(tuple(parts)))


def test_conjecture_single_config():
    r = verify.test_conjecture1((0,), (0,), (1,), 1, as_frac(16))
    assert r.status == "pass", r.witness


def test_conjecture_gamma_zero_is_trivial():
    r = verify.test_conjecture1((1, 1), (1, 0), (0, 0), 1, as_frac(10))
    assert r.status == "pass"


def test_conjecture_rejects_empty_slot():
    with pytest.raises(DomainError):
        verify.test_conjecture1((0,), (0,), (0,), 1, as_frac(10))


def test_zeta_params_validation():
    with pytest.raises(DomainError):
        ZetaCheckParams(s=1.0)
    with pytest.raises(DomainError):
        ZetaCheckParams(t_min=0.0)
    with pytest.raises(DomainError):
        ZetaCheckParams(loops=0)
    with pytest.raises(DomainError):
        ZetaCheckParams(nodes=1)


def test_zeta_check_passes_at_defaults():
    r = zeta_mellin_check(ZetaCheckParams(s=2.0, loops=1))
    assert r.status == "pass"
    assert math.isclose(r.extras["reference"], math.pi / 24, rel_tol=1e-12)


def test_zeta_check_reports_inconclusive_when_budget_blows():
    # huge cut at the bottom of the window makes the bound exceed any
    # reasonable tolerance; the check must refuse to claim failure
    r = zeta_mellin_check(ZetaCheckParams(s=2.0, loops=1, t_min=1e-2, tol=1e-6))
    assert r.status == "inconclusive"
    assert "budget" in (r.witness or "")


def _per_term_sums(p):
    """The per-term route that _term_sums replaces, kept as its oracle:
    term n integrated on its own window [t_min/n^2, t_up(n)] at its own
    rate 4 pi l n^2, 2 n_max quadratures in all."""
    s, l = p.s, p.loops
    total_fine = total_coarse = cut_bound = 0.0
    for n in range(1, p.n_max + 1):
        c = 4.0 * math.pi * l * n * n
        a = p.t_min / (n * n)
        t_up = min(p.t_max, 120.0 / c)
        if t_up > a:
            total_fine += verify._gl_term_integral(c, a, t_up, s, p.nodes)
            total_coarse += verify._gl_term_integral(c, a, t_up, s, max(2, p.nodes // 2))
        if t_up < p.t_max:
            cut_bound += 2.0 * max(t_up, 1.0) ** (s / 2.0 - 1.0) * math.exp(-c * t_up) / c
    return total_fine, total_coarse, cut_bound


def _floats(obj, prefix=""):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _floats(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


# t_max = 1 and 0.05 lie below 120/(4 pi l), so the t_max cap binds for small n
ZETA_GRID = list(itertools.product(
    (1.5, 2.0, 3.0, 4.0, 7.5), (1, 2, 3), (12.0, 1.0, 0.05), (1e-9, 1e-3), (1, 7, 200), (4, 24)))


def test_zeta_windows_match_the_per_term_route(monkeypatch):
    assert len(ZETA_GRID) == 540
    for s, l, t_max, t_min, n_max, nodes in ZETA_GRID:
        p = ZetaCheckParams(s=s, loops=l, t_min=t_min, t_max=t_max, n_max=n_max, nodes=nodes)
        got = zeta_mellin_check(p)
        with monkeypatch.context() as m:
            m.setattr(verify, "_term_sums", _per_term_sums)
            want = zeta_mellin_check(p)
        assert got.status == want.status, p
        tol = 1e-13 * abs(got.extras["measured"])
        want_floats = dict(_floats(want.extras))
        for key, value in _floats(got.extras):
            assert abs(value - want_floats[key]) <= tol, (p, key, value, want_floats[key])


def test_zeta_budget_bounds_the_error_where_t_max_ends_a_window():
    # t_max = 1, 0.2 and 0.05 lie below 120/(4 pi l): the mass above t_max
    # of the terms whose window t_max ends enters window_above
    grid = itertools.product((1.5, 2.0, 3.0, 4.0, 7.5), (1, 2, 3), (12.0, 1.0, 0.2, 0.05),
                             (1e-9, 1e-3), (1, 7, 200), (4, 24))
    for s, l, t_max, t_min, n_max, nodes in grid:
        p = ZetaCheckParams(s=s, loops=l, t_min=t_min, t_max=t_max, n_max=n_max, nodes=nodes)
        r = zeta_mellin_check(p)
        assert r.extras["abs_error"] <= r.extras["error_budget"], p
        assert r.status != "fail", p
    # the window [t_min, 0.05] misses most of the n = 1 term: not a failure
    r = zeta_mellin_check(ZetaCheckParams(t_max=0.05))
    assert r.status == "inconclusive" and r.extras["budget_parts"]["window_above"] > 0.04


def test_zeta_check_integrates_one_window_at_defaults(monkeypatch):
    calls = []
    integral = verify._gl_term_integral

    def counted(*args):
        calls.append(args)
        return integral(*args)

    monkeypatch.setattr(verify, "_gl_term_integral", counted)
    assert zeta_mellin_check().status == "pass"
    assert len(calls) == 2  # the fine and the coarse rule; 400 per term before
    calls.clear()
    run_checks(["zeta"])
    assert len(calls) == 6


def _refuse_work(monkeypatch):
    def work(*_args):
        raise AssertionError("the size guard let work start")

    for name in ("_leggauss", "_gl_term_integral", "_term_sums"):
        monkeypatch.setattr(verify, name, work)


@pytest.mark.parametrize("field, cap", [("nodes", verify.ZETA_NODES_MAX),
                                        ("n_max", verify.ZETA_N_MAX)])
def test_zeta_size_guard_just_above_each_cap(monkeypatch, field, cap):
    _refuse_work(monkeypatch)
    verify._zeta_size_guard(ZetaCheckParams(**{field: cap}))
    with pytest.raises(UnsupportedInputError, match=field):
        zeta_mellin_check(ZetaCheckParams(**{field: cap + 1}))


def test_zeta_size_guard_bounds_the_quadrature_work(monkeypatch):
    # t_max far below 120/(4 pi): every term has a window of its own
    def params(n_max):
        return ZetaCheckParams(t_min=1e-13, t_max=1e-12, n_max=n_max)

    per_window = verify._zeta_evals_bound(params(1))
    n_max = verify.ZETA_EVALS_MAX // per_window + 1
    assert verify._zeta_evals_bound(params(n_max - 1)) <= verify.ZETA_EVALS_MAX
    _refuse_work(monkeypatch)
    verify._zeta_size_guard(params(n_max - 1))
    with pytest.raises(UnsupportedInputError, match="integrand evaluations"):
        zeta_mellin_check(params(n_max))


def test_zeta_evals_bound_takes_a_t_max_near_the_float_minimum():
    # 120/(4 pi t_max) overflows to inf here: every term has a window of its own
    p = ZetaCheckParams(t_min=2.5e-308, t_max=3e-308)
    assert 120.0 / (4.0 * math.pi) / p.t_max == math.inf
    assert verify._zeta_evals_bound(p) == p.n_max * verify._zeta_evals_bound(
        dataclasses.replace(p, n_max=1))


def test_zeta_evals_bound_covers_the_quadratures(monkeypatch):
    evals = []
    integral = verify._gl_term_integral

    def counted(c, a, b, s, nodes):
        lo, panels = a, 0
        while lo < b:
            lo, panels = min(lo * 4.0, b), panels + 1
        evals.append(panels * nodes)
        return integral(c, a, b, s, nodes)

    monkeypatch.setattr(verify, "_gl_term_integral", counted)
    for kw in ({}, {"t_max": 0.05, "n_max": 7}, {"t_min": 1e-3, "t_max": 1.0, "loops": 3},
               {"t_min": 5e-324}):  # 120/(4 pi t_min) overflows a float
        evals.clear()
        p = ZetaCheckParams(**kw)
        zeta_mellin_check(p)
        assert 0 < sum(evals) <= verify._zeta_evals_bound(p)


def test_zeta_tail_formula():
    # sum_{n>N} n^-2 for N=50 against zeta(2) minus the head
    tail, rem = verify._euler_maclaurin_tail(2.0, 50)
    direct = math.pi ** 2 / 6 - sum(1.0 / (n * n) for n in range(1, 51))
    assert abs(tail - direct) < 1e-12
    assert rem < 1e-9


def test_run_checks_unknown_name():
    with pytest.raises(DomainError):
        run_checks(["theorems"], seed=1)


def test_run_checks_subset():
    reports = run_checks(["theorem1", "partial-thetas"], seed=1)
    names = {r.name for r in reports}
    assert "theorem1" in names
    assert any(n.startswith("partial-thetas") for n in names)
    assert all(r.status == "pass" for r in reports)


def test_checks_registry_complete():
    assert set(CHECKS) == {
        "theorem1",
        "table1",
        "table2",
        "partial-thetas",
        "multiplicities",
        "conjecture1",
        "zeta",
    }


def test_witness_series_localizes():
    a = QSeries({as_frac(0): as_frac(1)}, as_frac(5))
    b = QSeries({as_frac(0): as_frac(1), as_frac(3): as_frac(2)}, as_frac(5))
    w = verify._witness("here", a, b, as_frac(5))
    assert w == "here: coefficient of q^3 differs: 0 vs 2"
    assert verify._witness("here", a, b, as_frac(3)) is None


def test_witness_biseries_localizes():
    a = BiSeries({(0, 0): 1, (Fraction(1, 2), 2): Fraction(3, 2)}, 5)
    b = BiSeries({(0, 0): 1}, 5)
    w = verify._witness("kind P", a, b, 5)
    assert w == "kind P: coefficient of q^1/2 x^2 differs: 3/2 vs 0"
