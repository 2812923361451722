"""Oracle harness: every theorem/table reproduced by two independent
computation routes, conjecture evidence, and the zeta Mellin check.

Each check returns a CheckReport instead of raising: failures carry a
localized witness (where, expected, got).  Randomized configurations are
drawn from a seeded RNG and the seed is recorded, so every report is
reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import closed_forms, monodromy, rep
from .closed_forms import AppellLerchParams, partial_appell_lerch, partial_theta
from .errors import DomainError
from .series import (
    BiSeries,
    QSeries,
    biseries_eq,
    exp_str,
    series_diff_witness,
    series_eq,
)

DEFAULT_SEED = 20240817


@dataclass
class CheckReport:
    name: str
    status: str  # pass | fail | inconclusive
    covered: str
    witness: str | None = None
    seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj = {
            "name": self.name,
            "status": self.status,
            "covered": self.covered,
            "witness": self.witness,
            "seconds": round(self.seconds, 4),
        }
        if self.extras:
            obj["extras"] = self.extras
        return obj


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.seconds = time.perf_counter() - t0
        return report

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _witness_series(where: str, a: QSeries, b: QSeries, order) -> str | None:
    w = series_diff_witness(a, b, order)
    if w is None:
        return None
    e, ca, cb = w
    return f"{where}: coefficient of q^{exp_str(e)} differs: {ca} vs {cb}"


def _witness_biseries(where: str, a: BiSeries, b: BiSeries, order) -> str | None:
    keys = sorted(set(a.terms) | set(b.terms))
    for key in keys:
        if key[0] >= order:
            continue
        ca = a.terms.get(key, Fraction(0))
        cb = b.terms.get(key, Fraction(0))
        if ca != cb:
            return (
                f"{where}: coefficient of q^{exp_str(key[0])} x^{key[1]} "
                f"differs: {ca} vs {cb}"
            )
    return None


# ---------------------------------------------------------------------------
# Theorem 1: Jordan type of kappa on the weight spaces of P


@_timed
def check_theorem1(k_max: int = 100, _perturb=None) -> CheckReport:
    """kappa on P(-2k) in the canonical basis, its Jordan form, and the
    stated chain vector, exactly for k = 1..k_max."""
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    name = "theorem1"
    covered = f"k=1..{k_max}"
    big_p = rep.BigP()
    for k in range(1, k_max + 1):
        wm = rep.kappa_matrix(big_p, -2 * k)
        entries = [list(row) for row in wm.entries]
        if _perturb is not None:
            entries = _perturb(k, entries)
        expected = [[-2 * k * (k + 1), 2], [-2 * k * k, -2 * k * (k - 1)]]
        for i in range(2):
            for j in range(2):
                if entries[i][j] != expected[i][j]:
                    return CheckReport(
                        name, "fail", covered,
                        witness=(f"k={k}: kappa entry [{i}][{j}] is "
                                 f"{entries[i][j]}, expected {expected[i][j]}"))
        jmat, _s = monodromy.jordan_2x2(entries)
        jexp = ((Fraction(-2 * k * k), Fraction(2)), (Fraction(0), Fraction(-2 * k * k)))
        if jmat != jexp:
            return CheckReport(
                name, "fail", covered,
                witness=f"k={k}: Jordan form {jmat}, expected {jexp}")
        # the stated chain vector f^k v (x) u(+1) + k f^(k-1) v (x) u(-1)
        # is a genuine eigenvector for -2k^2
        vec = {(k, 0): 1, (k - 1, 1): k}
        image = {}
        for idx, coeff in vec.items():
            for i2, c in rep.kappa_image(big_p, idx).items():
                image[i2] = image.get(i2, 0) + coeff * c
        expected_img = {idx: -2 * k * k * coeff for idx, coeff in vec.items()}
        image = {i: c for i, c in image.items() if c}
        expected_img = {i: c for i, c in expected_img.items() if c}
        if image != expected_img:
            return CheckReport(
                name, "fail", covered,
                witness=f"k={k}: chain vector is not an eigenvector: kappa v = {image}")
    return CheckReport(name, "pass", covered)


# ---------------------------------------------------------------------------
# Table 1: one-module traces against their closed forms


TABLE1_ROWS = (
    ("L0", rep.Irr(0)),
    ("M0", rep.Verma(0)),
    ("Mminus2", rep.Verma(-2)),
    ("P", rep.BigP()),
)


@_timed
def check_table1(l: int = 1, order=40) -> CheckReport:
    """trace_series vs closed form for the four rows, plus the flat-section
    and monodromy consistency identities on sampled weight spaces."""
    name = f"table1[l={l}]"
    covered = f"l={l}, order<{order}, rows L0,M0,Mminus2,P"
    for kind, expr in TABLE1_ROWS:
        monodromy.prove_spectra(expr, l, order)
        got = monodromy.trace_series(expr, l, order)
        want = partial_theta(kind, l, order).at_x_one()
        if not series_eq(got, want, order):
            return CheckReport(
                name, "fail", covered,
                witness=_witness_series(f"row {kind}", got, want, order))
        top = rep.top_weight(expr)
        for d in range(4):
            w = top - 2 * d
            if not rep.weight_space(expr, w):
                continue
            fs = monodromy.flat_sections(expr, w)  # raises if the ODE fails
            mono = monodromy.monodromy_matrix(expr, w, 1)
            if not fs.check_monodromy(mono):
                return CheckReport(
                    name, "fail", covered,
                    witness=f"row {kind}, weight {w}: flat section vs monodromy mismatch")
    return CheckReport(name, "pass", covered)


# ---------------------------------------------------------------------------
# Table 2: tensor products, three independent routes


TABLE2_ROWS = (
    ("M0xM0", rep.Tensor((rep.Verma(0), rep.Verma(0))), (1, 1), (0, 0)),
    ("M0xP", rep.Tensor((rep.Verma(0), rep.BigP())), (1, 1), (0, 1)),
    ("PxP", rep.Tensor((rep.BigP(), rep.BigP())), (1, 1), (1, 1)),
)


def _sum_factor(a: int, b: int, g: int = 0) -> rep.ModuleExpr:
    """alpha copies of M0, beta of M(-2), gamma of P as one direct sum."""
    parts: list[rep.ModuleExpr] = []
    if a:
        parts.append(rep.Power(rep.Verma(0), a) if a > 1 else rep.Verma(0))
    if b:
        parts.append(rep.Power(rep.Verma(-2), b) if b > 1 else rep.Verma(-2))
    if g:
        parts.append(rep.Power(rep.BigP(), g) if g > 1 else rep.BigP())
    if not parts:
        raise DomainError("empty direct-sum factor")
    return parts[0] if len(parts) == 1 else rep.DirectSum(tuple(parts))


def _three_routes(expr, alphas, betas, p, l, order) -> str | None:
    """Pairwise-compare the spectral trace, the Verma-constituent route, and
    the closed form; returns a witness string or None.  The spectral trace
    reads kappa's spectra off the character, and prove_spectra first proves
    each of them against its kappa matrix (raising InvariantError if one
    fails)."""
    monodromy.prove_spectra(expr, l, order)
    t_spec = monodromy.trace_series(expr, l, order)
    t_dec = monodromy.trace_via_decomposition(alphas, betas, p, l, order)
    t_cf = partial_appell_lerch(AppellLerchParams(alphas, betas, p, l), order)
    for la, ra, a, b in (
        ("spectral", "decomposition", t_spec, t_dec),
        ("decomposition", "closed-form", t_dec, t_cf),
        ("spectral", "closed-form", t_spec, t_cf),
    ):
        if not series_eq(a, b, order):
            return _witness_series(f"{la} vs {ra}", a, b, order)
    return None


@_timed
def compare_routes(name: str, expr, alphas, betas, p: int, l: int, order) -> CheckReport:
    """The route comparison of Table 2 on one tensor product of direct sums
    of M0, M(-2) and P, whose factors carry alphas M0 and betas M(-2) pieces
    once P is resolved."""
    witness = _three_routes(expr, alphas, betas, p, l, order)
    return CheckReport(
        name, "fail" if witness else "pass",
        f"l={l}, order<{order}, routes spectral/character/decomposition/closed-form",
        witness=witness,
        extras={"alphas": list(alphas), "betas": list(betas), "p": p},
    )


def random_table2_config(rng: random.Random, max_mult: int = 2):
    p = rng.randint(1, 2)
    alphas, betas = [], []
    for _ in range(p + 1):
        while True:
            a = rng.randint(0, max_mult)
            b = rng.randint(0, max_mult)
            if a + b >= 1:
                break
        alphas.append(a)
        betas.append(b)
    expr = rep.Tensor(tuple(_sum_factor(a, b) for a, b in zip(alphas, betas)))
    return tuple(alphas), tuple(betas), p, expr


@_timed
def check_table2(l: int = 1, order=30, samples: int = 5, sample_order=15,
                 seed: int = DEFAULT_SEED) -> CheckReport:
    name = f"table2[l={l}]"
    covered = (f"l={l}, named rows to order {order}, "
               f"{samples} seeded configs to order {sample_order} (seed {seed})")
    for row, expr, alphas, betas in TABLE2_ROWS:
        w = _three_routes(expr, alphas, betas, 1, l, order)
        if w:
            return CheckReport(name, "fail", covered, witness=f"row {row}: {w}")
    rng = random.Random(seed)
    configs = []
    for i in range(samples):
        alphas, betas, p, expr = random_table2_config(rng)
        configs.append({"alphas": list(alphas), "betas": list(betas), "p": p})
        w = _three_routes(expr, alphas, betas, p, l, sample_order)
        if w:
            return CheckReport(
                name, "fail", covered, witness=f"config {i} {configs[-1]}: {w}",
                extras={"configs": configs})
    return CheckReport(name, "pass", covered, extras={"configs": configs})


# ---------------------------------------------------------------------------
# partial thetas: deformed traces in both gradings


@_timed
def check_partial_thetas(l: int = 1, order=25) -> CheckReport:
    name = f"partial-thetas[l={l}]"
    covered = f"l={l}, q-order<{order}, all four kinds, bidegree-exact"
    for kind, expr in TABLE1_ROWS:
        monodromy.prove_spectra(expr, l, order)
        got = monodromy.trace_deformed(expr, l, order)
        want = partial_theta(kind, l, order)
        if not biseries_eq(got, want, order):
            return CheckReport(
                name, "fail", covered,
                witness=_witness_biseries(f"kind {kind}", got, want, order))
        # specializing x = 1 must recover the Table 1 series
        if not series_eq(got.at_x_one(), partial_theta(kind, l, order).at_x_one(), order):
            return CheckReport(
                name, "fail", covered,
                witness=f"kind {kind}: x=1 specialization disagrees with Table 1")
    return CheckReport(name, "pass", covered)


# ---------------------------------------------------------------------------
# multiplicities: singular vectors against character coefficients


@_timed
def check_multiplicities(seed: int = DEFAULT_SEED, samples: int = 5,
                         k_max: int = 10) -> CheckReport:
    name = "multiplicities"
    covered = f"{samples} seeded configs (seed {seed}), k=0..{k_max}"
    rng = random.Random(seed)
    configs = []
    for i in range(samples):
        alphas, betas, p, expr = random_table2_config(rng)
        configs.append({"alphas": list(alphas), "betas": list(betas), "p": p})
        expected = closed_forms.verma_multiplicities(alphas, betas, p, k_max)
        for k in range(k_max + 1):
            got = rep.hwv_count(expr, -2 * k)
            if got != expected[k]:
                return CheckReport(
                    name, "fail", covered,
                    witness=(f"config {i} {configs[-1]}: hwv_count at weight {-2 * k} "
                             f"is {got}, expected {expected[k]}"),
                    extras={"configs": configs})
            # singular vectors agree with the flag count except at -2, where
            # every M_0 flag top contributes its own f v
            sing = rep.singular_count(expr, -2 * k)
            want = expected[k] + (expected[0] if k == 1 else 0)
            if sing != want:
                return CheckReport(
                    name, "fail", covered,
                    witness=(f"config {i} {configs[-1]}: singular_count at weight "
                             f"{-2 * k} is {sing}, expected {want}"),
                    extras={"configs": configs})
    return CheckReport(name, "pass", covered, extras={"configs": configs})


# ---------------------------------------------------------------------------
# Conjecture 1


def conjecture_pair(alphas, betas, gammas) -> tuple[rep.ModuleExpr, rep.ModuleExpr]:
    """F = (x)_i (M0^a + M(-2)^b + P^g) and its P-resolved partner
    F' = (x)_i (M0^(a+g) + M(-2)^(b+g))."""
    if not (len(alphas) == len(betas) == len(gammas)) or not alphas:
        raise DomainError("alphas, betas, gammas must share a positive length")
    left = tuple(_sum_factor(a, b, g) for a, b, g in zip(alphas, betas, gammas))
    right = tuple(_sum_factor(a + g, b + g) for a, b, g in zip(alphas, betas, gammas))
    f = left[0] if len(left) == 1 else rep.Tensor(left)
    fp = right[0] if len(right) == 1 else rep.Tensor(right)
    return f, fp


@_timed
def test_conjecture1(alphas, betas, gammas, l: int = 1, order=25) -> CheckReport:
    """Exact term comparison of trace_series over F and F' below ``order``,
    every branch spectrum of both proven against kappa first."""
    alphas, betas, gammas = tuple(alphas), tuple(betas), tuple(gammas)
    name = "conjecture1"
    covered = f"alphas={list(alphas)} betas={list(betas)} gammas={list(gammas)} l={l} order<{order}"
    f, fp = conjecture_pair(alphas, betas, gammas)
    monodromy.prove_spectra(f, l, order)
    monodromy.prove_spectra(fp, l, order)
    a = monodromy.trace_series(f, l, order)
    b = monodromy.trace_series(fp, l, order)
    if not series_eq(a, b, order):
        return CheckReport(
            name, "fail", covered,
            witness=_witness_series("trace(F) vs trace(F')", a, b, order))
    return CheckReport(name, "pass", covered)


def random_conjecture_config(rng: random.Random, max_mult: int = 2):
    p = rng.randint(1, 2)
    alphas, betas, gammas = [], [], []
    for _ in range(p + 1):
        while True:
            a = rng.randint(0, max_mult)
            b = rng.randint(0, max_mult)
            g = rng.randint(0, max_mult)
            if a + b + g >= 1:
                break
        alphas.append(a)
        betas.append(b)
        gammas.append(g)
    if not any(gammas):
        gammas[rng.randrange(len(gammas))] = 1  # keep the comparison non-trivial
    return tuple(alphas), tuple(betas), tuple(gammas), p


def conjecture_suite(seed: int = DEFAULT_SEED, samples: int = 5,
                     order_named=25, order_random=15) -> list[CheckReport]:
    """The two closed-form-anchored cases plus seeded random configurations."""
    reports = [
        test_conjecture1((0,), (0,), (1,), 1, order_named),          # P vs M0 + M(-2)
        test_conjecture1((1, 0), (0, 0), (0, 1), 1, order_named),    # M0 x P vs M0 x (M0 + M(-2))
    ]
    rng = random.Random(seed)
    for _ in range(samples):
        alphas, betas, gammas, _p = random_conjecture_config(rng)
        reports.append(test_conjecture1(alphas, betas, gammas, 1, order_random))
    return reports


# ---------------------------------------------------------------------------
# zeta Mellin check


@dataclass(frozen=True)
class ZetaCheckParams:
    """Window and budget for the contour integral with hbar = i t.

    The integrand of term n is t^(s/2-1) e^(-4 pi l n^2 t); each term gets
    its own geometrically refined window [t_min/n^2, t_max] so the mass
    below the cut stays provably under the tolerance."""

    s: float = 2.0
    loops: int = 1
    t_min: float = 1e-9
    t_max: float = 12.0
    n_max: int = 200
    nodes: int = 24
    tol: float = 1e-6

    def __post_init__(self):
        if self.s <= 1:
            raise DomainError("the identity needs s > 1 for absolute convergence")
        if not (0 < self.t_min < self.t_max):
            raise DomainError("need 0 < t_min < t_max")
        if self.loops < 1:
            raise DomainError("loop count must be >= 1")
        if self.n_max < 1 or self.nodes < 2:
            raise DomainError("n_max >= 1 and nodes >= 2 required")
        if self.tol <= 0:
            raise DomainError("tolerance must be positive")


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=16)
def _leggauss(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from Tricomi's estimates of its roots, then, as
    numpy's leggauss does, the rule is made exactly symmetric and its
    weights scaled to sum to 2."""
    n = nodes
    xs, ws = [], []
    for i in range(n, 0, -1):
        x = (1 - 1 / (8 * n ** 2) + 1 / (8 * n ** 3)) * math.cos(math.pi * (4 * i - 1) / (4 * n + 2))
        for _ in range(50):
            p, dp = _legendre(n, x)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        dp = _legendre(n, x)[1]
        xs.append(x)
        ws.append(2.0 / ((1.0 - x * x) * dp * dp))
    xs = [(a - b) / 2 for a, b in zip(xs, reversed(xs))]
    ws = [(a + b) / 2 for a, b in zip(ws, reversed(ws))]
    total = math.fsum(ws)
    return tuple(xs), tuple(2.0 * w / total for w in ws)


def _gl_term_integral(c: float, a: float, b: float, s: float, nodes: int) -> float:
    """integral of t^(s/2-1) e^(-c t) over [a, b]: geometric panels, fixed
    Gauss-Legendre rule per panel."""
    rule = list(zip(*_leggauss(nodes)))
    power = s / 2.0 - 1.0
    exp = math.exp
    total = 0.0
    lo = a
    ratio = 4.0
    while lo < b:
        hi = min(lo * ratio, b)
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        total += half * math.fsum(
            w * (mid + half * x) ** power * exp(-c * (mid + half * x)) for x, w in rule)
        lo = hi
    return total


def _euler_maclaurin_tail(s: float, n_max: int) -> tuple[float, float]:
    """sum_{n > n_max} n^(-s) with a remainder bound.

    sum_{n > N} f(n) = int_N^inf f - f(N)/2 - B_2/2! f'(N) + B_4/4! f'''(N) + ...
    for f(x) = x^(-s); the first omitted term bounds the remainder."""
    n = float(n_max)
    tail = n ** (1 - s) / (s - 1) - 0.5 * n ** (-s) + s * n ** (-s - 1) / 12.0
    correction = s * (s + 1) * (s + 2) * n ** (-s - 3) / 720.0
    tail -= correction
    return tail, abs(correction)


@_timed
def zeta_mellin_check(params: ZetaCheckParams | None = None, **kwargs) -> CheckReport:
    """|integral over i R_+ of (dhbar/hbar) chi(q, l, M(-2)) hbar^(s/2)|
    against Gamma(s/2) (4 pi l)^(-s/2) zeta(s), modulus only.

    Every truncation gets an explicit bound; quadrature error is estimated
    by halving the node count.  Budget above tolerance -> inconclusive."""
    import mpmath

    p = params or ZetaCheckParams(**kwargs)
    name = f"zeta[s={p.s:g},l={p.loops}]"
    covered = (f"s={p.s:g} l={p.loops} window=[{p.t_min:g},{p.t_max:g}] "
               f"terms<=n_max={p.n_max} nodes={p.nodes}")
    s, l = p.s, p.loops
    total_fine = 0.0
    total_coarse = 0.0
    cut_bound = 0.0
    for n in range(1, p.n_max + 1):
        c = 4.0 * math.pi * l * n * n
        a = p.t_min / (n * n)
        # beyond t_up the factor e^(-ct) is below e^-120; bound and skip
        t_up = min(p.t_max, 120.0 / c)
        if t_up > a:
            total_fine += _gl_term_integral(c, a, t_up, s, p.nodes)
            total_coarse += _gl_term_integral(c, a, t_up, s, max(2, p.nodes // 2))
        if t_up < p.t_max:
            cut_bound += 2.0 * max(t_up, 1.0) ** (s / 2.0 - 1.0) * math.exp(-c * t_up) / c
    # mass below the per-term cuts: integrand <= t^(s/2-1)
    below_bound = (2.0 / s) * p.t_min ** (s / 2.0) * float(mpmath.zeta(s))
    # n > n_max tail via the classical per-term Gamma integral
    tail_sum, tail_rem = _euler_maclaurin_tail(s, p.n_max)
    gamma_factor = math.gamma(s / 2.0) * (4.0 * math.pi * l) ** (-s / 2.0)
    tail = gamma_factor * tail_sum
    measured = total_fine + tail
    quad_est = abs(total_fine - total_coarse)
    budget = quad_est + below_bound + cut_bound + gamma_factor * tail_rem + 1e-14
    reference = gamma_factor * float(mpmath.zeta(s))
    err = abs(abs(measured) - reference)
    extras = {
        "measured": measured,
        "reference": reference,
        "abs_error": err,
        "error_budget": budget,
        "budget_parts": {
            "quadrature": quad_est,
            "window_below": below_bound,
            "window_above": cut_bound,
            "n_tail_remainder": gamma_factor * tail_rem,
        },
    }
    if budget > p.tol:
        return CheckReport(
            name, "inconclusive", covered,
            witness=f"error budget {budget:.3e} exceeds tolerance {p.tol:.3e}",
            extras=extras)
    if err <= p.tol:
        return CheckReport(name, "pass", covered, extras=extras)
    return CheckReport(
        name, "fail", covered,
        witness=f"|integral| = {abs(measured):.12f} vs reference {reference:.12f} "
                f"(error {err:.3e} > tol {p.tol:.3e})",
        extras=extras)


# ---------------------------------------------------------------------------
# runner


def _run_theorem1(seed):
    return [check_theorem1(100)]


def _run_table1(seed):
    return [check_table1(l, 40) for l in (1, 2, 3)]


def _run_table2(seed):
    return [check_table2(1, 30, 5, 15, seed)]


def _run_partial_thetas(seed):
    return [check_partial_thetas(l, 25) for l in (1, 2)]


def _run_multiplicities(seed):
    return [check_multiplicities(seed, 5, 10)]


def _run_conjecture1(seed):
    return conjecture_suite(seed, 5, 25, 15)


def _run_zeta(seed):
    return [
        zeta_mellin_check(ZetaCheckParams(s=2.0, loops=1)),
        zeta_mellin_check(ZetaCheckParams(s=4.0, loops=1)),
        zeta_mellin_check(ZetaCheckParams(s=2.0, loops=2)),
    ]


CHECKS = {
    "theorem1": _run_theorem1,
    "table1": _run_table1,
    "table2": _run_table2,
    "partial-thetas": _run_partial_thetas,
    "multiplicities": _run_multiplicities,
    "conjecture1": _run_conjecture1,
    "zeta": _run_zeta,
}


def run_checks(names=None, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run named checks (all by default), in order."""
    names = list(names) if names else list(CHECKS)
    for n in names:
        if n not in CHECKS:
            raise DomainError(f"unknown check {n!r}; available: {', '.join(CHECKS)}")
    return [r for n in names for r in CHECKS[n](seed)]
