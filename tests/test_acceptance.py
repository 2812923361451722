"""End-to-end acceptance battery.

Each test runs one numbered criterion, prints exactly one
``ACCEPTANCE n: PASS/FAIL (...s)`` line (outside pytest capture, so the
lines show in any run mode), and enforces a wall-clock budget.
"""

import random
import time
from fractions import Fraction

import mpmath as mp

from casimir_trace import monodromy, rep, series, verify
from casimir_trace.series import MuPoly, series_eq
from casimir_trace.verify import DEFAULT_SEED, ZetaCheckParams


def _finish(n: int, ok: bool, t0: float, budget: float, capsys, detail: str = ""):
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)", flush=True)
    assert ok, detail or f"criterion {n} failed"
    assert dt < budget, f"criterion {n} took {dt:.2f}s, budget {budget:.0f}s"


def test_acceptance_1_theorem1(capsys):
    t0 = time.perf_counter()
    r = verify.check_theorem1(k_max=100)
    _finish(1, r.status == "pass", t0, 5.0, capsys, str(r.witness))


def test_acceptance_2_table1(capsys):
    t0 = time.perf_counter()
    reports = [verify.check_table1(l, order=40) for l in (1, 2, 3)]
    bad = [r for r in reports if r.status != "pass"]
    _finish(2, not bad, t0, 10.0, capsys, "; ".join(str(r.witness) for r in bad))


def test_acceptance_3_table2(capsys):
    t0 = time.perf_counter()
    r = verify.check_table2(l=1, order=30, samples=5, sample_order=15, seed=DEFAULT_SEED)
    _finish(3, r.status == "pass", t0, 120.0, capsys, str(r.witness))


def test_acceptance_4_partial_thetas(capsys):
    t0 = time.perf_counter()
    reports = [verify.check_partial_thetas(l, order=25) for l in (1, 2)]
    bad = [r for r in reports if r.status != "pass"]
    _finish(4, not bad, t0, 30.0, capsys, "; ".join(str(r.witness) for r in bad))


def test_acceptance_5_multiplicities(capsys):
    t0 = time.perf_counter()
    r = verify.check_multiplicities(seed=DEFAULT_SEED, samples=5, k_max=10)
    _finish(5, r.status == "pass", t0, 60.0, capsys, str(r.witness))


def test_acceptance_6_conjecture1(capsys):
    t0 = time.perf_counter()
    reports = verify.conjecture_suite(seed=DEFAULT_SEED, samples=5,
                                      order_named=25, order_random=15)
    bad = [r for r in reports if r.status != "pass"]
    _finish(6, not bad, t0, 180.0, capsys, "; ".join(str(r.witness) for r in bad))


def test_acceptance_7_zeta(capsys):
    t0 = time.perf_counter()
    points = {(2, 1): mp.pi / 24, (4, 1): mp.pi ** 2 / 1440, (2, 2): mp.pi / 48}
    ok = True
    detail = ""
    # independent oracle first: one mpmath quadrature per point of the M(-2)
    # trace (theta_3(q) - 1)/2 at q = e^(-4 pi l t), weighted by t^(s/2-1);
    # below x = 4 l t = 1, where jtheta rejects |q| near 1, Jacobi's
    # theta_3(e^(-pi x)) = x^(-1/2) theta_3(e^(-pi/x)).  Nothing is shared
    # with the implementation under test.
    for (s, l), ref in points.items():
        with mp.workdps(30):
            a = mp.mpf(s) / 2 - 1

            def trace_m2(t, a=a, l=l):
                x = 4 * l * t
                if x < 1:
                    theta = mp.jtheta(3, 0, mp.exp(-mp.pi / x)) / mp.sqrt(x)
                else:
                    theta = mp.jtheta(3, 0, mp.exp(-mp.pi * x))
                return t ** a * (theta - 1) / 2
            oracle = mp.quad(trace_m2, [0, mp.mpf(1) / (4 * l), 1, mp.inf])
            off = abs(oracle - ref)
        if off > 1e-12:
            ok, detail = False, f"oracle disagrees with reference at s={s}, l={l}"
            break
    if ok:
        for (s, l) in points:
            r = verify.zeta_mellin_check(ZetaCheckParams(s=float(s), loops=l))
            # against this test's own reference, not the reported abs_error
            off = abs(abs(r.extras["measured"]) - float(points[s, l]))
            if r.status != "pass" or off > 1e-6:
                ok, detail = False, f"s={s}, l={l}: {r.witness} ({r.extras})"
                break
    _finish(7, ok, t0, 10.0, capsys, detail)


# --- criterion 8: randomized invariants, six families ----------------------

POOL = [
    rep.Verma(0), rep.Verma(-2), rep.Verma(-1), rep.Verma(2), rep.Verma(-5),
    rep.Irr(0), rep.Irr(1), rep.Irr(3), rep.BigP(),
    rep.Tensor((rep.Verma(0), rep.Verma(0))),
    rep.Tensor((rep.Verma(0), rep.Verma(-2))),
    rep.Tensor((rep.BigP(), rep.Irr(1))),
    rep.Tensor((rep.Verma(0), rep.Irr(2))),
    rep.Tensor((rep.BigP(), rep.Verma(0))),
    rep.DirectSum((rep.Verma(0), rep.Verma(-2))),
    rep.DirectSum((rep.BigP(), rep.Verma(0))),
    rep.DirectSum((rep.Verma(-1), rep.Irr(3))),
    rep.Power(rep.Verma(0), 2),
    rep.Power(rep.BigP(), 2),
    rep.Power(rep.DirectSum((rep.Verma(0), rep.Verma(-2))), 2),
]

CASES = 1000


def _draw_space(rng, depth: int = 4):
    while True:
        expr = rng.choice(POOL)
        w = rep.top_weight(expr) - 2 * rng.randint(0, depth)
        basis = rep.weight_space(expr, w)
        if basis:
            return expr, w, basis


def _nonzero(vec: dict) -> dict:
    return {k: v for k, v in vec.items() if v}


def _family_commutators(rng) -> str | None:
    expr, w, basis = _draw_space(rng)
    idx = rng.choice(basis)
    ef = rep.act_combo("e", expr, rep.act("f", expr, idx))
    fe = rep.act_combo("f", expr, rep.act("e", expr, idx))
    diff = dict(ef)
    for k, v in fe.items():
        diff[k] = diff.get(k, 0) - v
    if _nonzero(diff) != _nonzero({idx: w}):
        return f"[e,f] != h on {rep.format_index(expr, idx)} in {expr} at w={w}"
    if _nonzero(rep.act("h", expr, idx)) != _nonzero({idx: w}):
        return f"h is not the weight on {rep.format_index(expr, idx)} in {expr}"
    return None


def _family_kappa_weight(rng) -> str | None:
    expr, w, basis = _draw_space(rng)
    idx = rng.choice(basis)
    img = rep.kappa_image(expr, idx)
    for out in img:
        if rep.index_weight(expr, out) != w:
            return f"kappa moved {rep.format_index(expr, idx)} off weight {w} in {expr}"
    ef = rep.act_combo("e", expr, rep.act("f", expr, idx))
    fe = rep.act_combo("f", expr, rep.act("e", expr, idx))
    combo = dict(ef)
    for k, v in fe.items():
        combo[k] = combo.get(k, 0) + v
    if _nonzero(img) != _nonzero(combo):
        return f"kappa != ef + fe on {rep.format_index(expr, idx)} in {expr}"
    return None


def _family_mu_free_trace(rng) -> str | None:
    expr, w, _basis = _draw_space(rng, depth=3)
    l = rng.randint(1, 3)
    m = monodromy.monodromy_matrix(expr, w, l)
    tr = m.trace()  # raises InvariantError on any mu term
    sd = monodromy.spectral(expr, w)
    expected = monodromy.QMu(
        {Fraction(-l * c, 2): MuPoly((mult,)) for c, mult, *_ in sd.eigen})
    if tr != expected:
        return f"trace disagrees with the spectrum for {expr} at w={w}, l={l}"
    return None


def _family_power_law(rng) -> str | None:
    expr, w, _basis = _draw_space(rng, depth=3)
    l1, l2 = rng.randint(1, 3), rng.randint(1, 3)
    a = monodromy.monodromy_matrix(expr, w, l1)
    b = monodromy.monodromy_matrix(expr, w, l2)
    c = monodromy.monodromy_matrix(expr, w, l1 + l2)
    prod = a.matmul(b)
    if prod.entries != c.entries or prod.loops != c.loops:
        return f"M({l1})M({l2}) != M({l1 + l2}) for {expr} at w={w}"
    return None


def _family_flat_sections(rng) -> str | None:
    expr, w, _basis = _draw_space(rng, depth=3)
    fs = monodromy.flat_sections(expr, w)  # raises InvariantError if the ODE fails
    if not fs.check_ode():
        return f"flat section ODE fails for {expr} at w={w}"
    if not fs.check_monodromy(monodromy.monodromy_matrix(expr, w, 1)):
        return f"section/monodromy consistency fails for {expr} at w={w}"
    return None


def _family_q_power_law(rng) -> str | None:
    expr = rng.choice(POOL)
    l = rng.randint(2, 3)
    order = rng.randint(3, 5)
    base = monodromy.trace_series(expr, 1, order)
    direct = monodromy.trace_series(expr, l, l * order)
    if not series_eq(base.substitute_power(l), direct, l * order):
        return f"trace(q^{l}) law fails for {expr} at order {order}"
    return None


def test_acceptance_8_invariants(capsys):
    t0 = time.perf_counter()
    families = [
        ("commutators", _family_commutators),
        ("kappa-weight", _family_kappa_weight),
        ("mu-free-trace", _family_mu_free_trace),
        ("power-law", _family_power_law),
        ("flat-sections", _family_flat_sections),
        ("q-power-law", _family_q_power_law),
    ]
    ok = True
    detail = ""
    for i, (label, fam) in enumerate(families):
        rng = random.Random(DEFAULT_SEED + i)
        for _ in range(CASES):
            witness = fam(rng)
            if witness:
                ok, detail = False, f"{label}: {witness}"
                break
        if not ok:
            break
    _finish(8, ok, t0, 120.0, capsys, detail)
