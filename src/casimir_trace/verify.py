"""Oracle harness: every theorem/table reproduced by two independent
computation routes, conjecture evidence, and the zeta Mellin check.

Each check returns a CheckReport instead of raising: failures carry a
localized witness (where, expected, got).  ``CHECKS`` maps each check's
name to the reports it runs for a seed.  Randomized configurations are
drawn by one seeded drawer, ``_draw``, and the seed is recorded, so every
report is reproducible bit for bit.

The route comparison of Table 2 reads its Appell-Lerch parameters off the
expression itself (``_appell_lerch_params``, the inverse of
``conjecture_pair``), as the one AppellLerchParams that the decomposition
route and the closed form both take, so no caller states them next to it.
The spectral route never reads them: a wrong reading fails the comparison.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import closed_forms, monodromy, rep
from .closed_forms import AppellLerchParams, partial_appell_lerch, partial_theta
from .errors import DomainError, UnsupportedInputError
from .series import QSeries, exp_str, series_diff_witness

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


def _witness(where: str, a, b, order) -> str | None:
    """Where two series of one kind (QSeries or BiSeries) first differ below
    ``order``, or None where they agree (series_diff_witness)."""
    w = series_diff_witness(a, b, order)
    if w is None:
        return None
    key, ca, cb = w
    mono = f"q^{exp_str(key)}" if isinstance(a, QSeries) else f"q^{exp_str(key[0])} x^{key[1]}"
    return f"{where}: coefficient of {mono} differs: {ca} vs {cb}"


# ---------------------------------------------------------------------------
# Theorem 1: Jordan type of kappa on the weight spaces of P


@_timed
def check_theorem1(k_max: int = 100) -> CheckReport:
    """kappa on P(-2k) in the canonical basis, its Jordan form, and the
    stated chain vector, exactly for k = 1..k_max."""
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    name = "theorem1"
    covered = f"k=1..{k_max}"
    big_p = rep.BigP()
    for k in range(1, k_max + 1):
        wm = rep.kappa_matrix(big_p, -2 * k)
        entries = wm.entries
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
        image = rep.kappa_image(big_p, vec)
        if image != {idx: -2 * k * k * coeff for idx, coeff in vec.items()}:
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
        witness = _witness(f"row {kind}", got, partial_theta(kind, l, order).at_x_one(), order)
        if witness:
            return CheckReport(name, "fail", covered, witness=witness)
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
    ("M0xM0", rep.Tensor((rep.Verma(0), rep.Verma(0)))),
    ("M0xP", rep.Tensor((rep.Verma(0), rep.BigP()))),
    ("PxP", rep.Tensor((rep.BigP(), rep.BigP()))),
)

# every seeded multiplicity is drawn from 0..MAX_MULT
MAX_MULT = 2


def _sum_factor(a: int, b: int, g: int = 0) -> rep.ModuleExpr:
    """alpha copies of M0, beta of M(-2), gamma of P as one direct sum."""
    parts = [rep.Power(atom, k) if k > 1 else atom
             for atom, k in ((rep.Verma(0), a), (rep.Verma(-2), b), (rep.BigP(), g)) if k]
    if not parts:
        raise DomainError("empty direct-sum factor")
    return parts[0] if len(parts) == 1 else rep.DirectSum(tuple(parts))


def _factor_counts(factor: rep.ModuleExpr) -> tuple[int, int, int]:
    """How many M0, M(-2), P summands a tensor factor carries."""
    if isinstance(factor, rep.Verma):
        if factor.lam == 0:
            return (1, 0, 0)
        if factor.lam == -2:
            return (0, 1, 0)
        raise UnsupportedInputError(
            f"compare handles factors built from M0, M-2, P; found M{factor.lam}")
    if isinstance(factor, rep.BigP):
        return (0, 0, 1)
    if isinstance(factor, (rep.DirectSum, rep.Power)):
        a = b = g = 0
        for p in factor.parts:
            da, db, dg = _factor_counts(p)
            a, b, g = a + da, b + db, g + dg
        return (a, b, g)
    raise UnsupportedInputError(
        "compare handles tensor products of direct sums of M0, M-2, P")


def _appell_lerch_params(expr, l: int = 1) -> AppellLerchParams:
    """The Appell-Lerch parameters of a tensor product of direct sums of M0,
    M(-2) and P at l loops: its (alphas, betas) once each P is resolved into
    M0 + M(-2), the inverse of _sum_factor and conjecture_pair, and p one
    less than the number of factors.  Anything else is refused."""
    factors = expr.parts if isinstance(expr, rep.Tensor) else (expr,)
    counts = [_factor_counts(f) for f in factors]
    if len(counts) < 2:
        raise UnsupportedInputError(
            "compare needs at least two tensor factors (the closed form has p >= 1)")
    return AppellLerchParams(tuple(a + g for a, _b, g in counts),
                             tuple(b + g for _a, b, g in counts), len(counts) - 1, l)


def _three_routes(expr, params: AppellLerchParams, order) -> str | None:
    """Pairwise-compare the spectral trace, the Verma-constituent route, and
    the closed form at params.loops loops; returns a witness string or None.
    The spectral trace reads kappa's spectra off the character, and
    prove_spectra first proves each of them against its kappa matrix
    (raising InvariantError if one fails).  Only the last two routes read
    params, which _appell_lerch_params reads off ``expr``, so a wrong
    reading fails the comparison."""
    l = params.loops
    monodromy.prove_spectra(expr, l, order)
    t_spec = monodromy.trace_series(expr, l, order)
    t_dec = monodromy.trace_via_decomposition(params, order)
    t_cf = partial_appell_lerch(params, order)
    for la, ra, a, b in (
        ("spectral", "decomposition", t_spec, t_dec),
        ("decomposition", "closed-form", t_dec, t_cf),
        ("spectral", "closed-form", t_spec, t_cf),
    ):
        witness = _witness(f"{la} vs {ra}", a, b, order)
        if witness:
            return witness
    return None


@_timed
def compare_routes(name: str, expr, l: int, order) -> CheckReport:
    """The route comparison of Table 2 on one tensor product of direct sums
    of M0, M(-2) and P."""
    params = _appell_lerch_params(expr, l)
    witness = _three_routes(expr, params, order)
    return CheckReport(
        name, "fail" if witness else "pass",
        f"l={l}, order<{order}, routes spectral/decomposition/closed-form",
        witness=witness,
        extras={"alphas": list(params.alphas), "betas": list(params.betas), "p": params.p},
    )


def _draw(rng: random.Random, width: int) -> tuple[tuple[int, ...], ...]:
    """p in {1, 2}, then p + 1 factors of ``width`` multiplicities each,
    redrawn while a factor is all zero; returned one tuple per position
    (alphas, betas[, gammas]).  Every seeded config is drawn here, in this
    order, so a seed names the same configs in every check."""
    factors = []
    for _ in range(rng.randint(1, 2) + 1):
        factor = (0,) * width
        while not any(factor):
            factor = tuple(rng.randint(0, MAX_MULT) for _ in range(width))
        factors.append(factor)
    return tuple(zip(*factors))


def _seeded_tensors(seed: int, samples: int):
    """(config, expr) for each seeded tensor product of M0^a + M(-2)^b
    factors; config is {"alphas", "betas", "p"} as the reports record it."""
    rng = random.Random(seed)
    for _ in range(samples):
        alphas, betas = _draw(rng, 2)
        config = {"alphas": list(alphas), "betas": list(betas), "p": len(alphas) - 1}
        yield config, rep.Tensor(tuple(map(_sum_factor, alphas, betas)))


@_timed
def check_table2(l: int = 1, order=30, samples: int = 5, sample_order=15,
                 seed: int = DEFAULT_SEED) -> CheckReport:
    name = f"table2[l={l}]"
    covered = (f"l={l}, named rows to order {order}, "
               f"{samples} seeded configs to order {sample_order} (seed {seed})")
    for row, expr in TABLE2_ROWS:
        w = _three_routes(expr, _appell_lerch_params(expr, l), order)
        if w:
            return CheckReport(name, "fail", covered, witness=f"row {row}: {w}")
    configs = []
    for i, (config, expr) in enumerate(_seeded_tensors(seed, samples)):
        configs.append(config)
        w = _three_routes(expr, _appell_lerch_params(expr, l), sample_order)
        if w:
            return CheckReport(
                name, "fail", covered, witness=f"config {i} {config}: {w}",
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
        # specializing x = 1 must recover the Table 1 series, as the other
        # trace driver computes it
        witness = (_witness(f"kind {kind}", got, partial_theta(kind, l, order), order)
                   or _witness(f"kind {kind}: x=1 specialization disagrees with Table 1",
                               got.at_x_one(), monodromy.trace_series(expr, l, order), order))
        if witness:
            return CheckReport(name, "fail", covered, witness=witness)
    return CheckReport(name, "pass", covered)


# ---------------------------------------------------------------------------
# multiplicities: singular vectors against character coefficients


@_timed
def check_multiplicities(seed: int = DEFAULT_SEED, samples: int = 5,
                         k_max: int = 10) -> CheckReport:
    name = "multiplicities"
    covered = f"{samples} seeded configs (seed {seed}), k=0..{k_max}"
    configs = []
    for i, (config, expr) in enumerate(_seeded_tensors(seed, samples)):
        configs.append(config)
        expected = closed_forms.verma_multiplicities(
            AppellLerchParams(config["alphas"], config["betas"], config["p"]), k_max)
        for k in range(k_max + 1):
            # singular vectors agree with the flag count except at -2, where
            # every M_0 flag top contributes its own f v
            for count, want in ((rep.hwv_count, expected[k]),
                                (rep.singular_count, expected[k] + (expected[0] if k == 1 else 0))):
                got = count(expr, -2 * k)
                if got != want:
                    return CheckReport(
                        name, "fail", covered,
                        witness=(f"config {i} {config}: {count.__name__} at weight "
                                 f"{-2 * k} is {got}, expected {want}"),
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
    witness = _witness("trace(F) vs trace(F')", a, b, order)
    return CheckReport(name, "fail" if witness else "pass", covered, witness=witness)


def conjecture_suite(seed: int = DEFAULT_SEED, samples: int = 5,
                     order_named=25, order_random=15) -> list[CheckReport]:
    """The two closed-form-anchored cases plus seeded random configurations."""
    reports = [
        test_conjecture1((0,), (0,), (1,), 1, order_named),          # P vs M0 + M(-2)
        test_conjecture1((1, 0), (0, 0), (0, 1), 1, order_named),    # M0 x P vs M0 x (M0 + M(-2))
    ]
    rng = random.Random(seed)
    for _ in range(samples):
        alphas, betas, gammas = _draw(rng, 3)
        if not any(gammas):  # keep the comparison non-trivial
            gammas = list(gammas)
            gammas[rng.randrange(len(gammas))] = 1
        reports.append(test_conjecture1(alphas, betas, gammas, 1, order_random))
    return reports


# ---------------------------------------------------------------------------
# zeta Mellin check


@dataclass(frozen=True)
class ZetaCheckParams:
    """Window and budget for the contour integral with hbar = i t.

    The integrand of term n is t^(s/2-1) e^(-4 pi l n^2 t) on the window
    [t_min/n^2, min(t_max, 120/(4 pi l n^2))], so the mass below the cut
    stays provably under the tolerance.  With t = u/n^2 that window is
    [t_min, U_n]/n^2, U_n = min(n^2 t_max, 120/(4 pi l)), and the term is
    n^(-s) times one integral over [t_min, U_n]: the check integrates once
    per distinct U_n, not once per term (``_term_sums``)."""

    s: float = 2.0
    loops: int = 1
    t_min: float = 1e-9
    t_max: float = 12.0
    n_max: int = 200
    nodes: int = 24
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.tol)):
            raise DomainError(f"s and the tolerance must be finite, got s={self.s}, tol={self.tol}")
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


# size caps of zeta_mellin_check, each at about 10 s of CPU on one core of
# a 2-vCPU x86 machine under CPython 3.11: _leggauss is O(nodes^2) (9.1 s
# at 4000 nodes), the per-term loop O(n_max) (11.0 s at 10^7 terms with
# one window), and the quadratures O(_zeta_evals_bound) (7.4 s at 5.1e7)
ZETA_NODES_MAX = 4000
ZETA_N_MAX = 10_000_000
ZETA_EVALS_MAX = 70_000_000
# inputs the check cannot compute with in floats: Gamma(s/2) of the
# reference overflows past s = 343.2, and 4 pi l must be a float.  A window
# that ends below the smallest normal float (sys.float_info.min) lies in
# subnormal floats, whose relative precision shrinks with their size, so its
# quadrature nodes cannot be placed.
ZETA_S_MAX = 340
ZETA_LOOPS_MAX = int(sys.float_info.max / (4.0 * math.pi))


def _zeta_evals_bound(p: ZetaCheckParams) -> int:
    """An upper bound on the integrand evaluations of ``_term_sums``: one
    window per n with n^2 t_max below the cap 120/(4 pi l), plus the cap,
    at most n_max in all, each of at most ceil(log_4(cap/t_min)) panels
    of a fine and a coarse rule."""
    cap = 120.0 / (4.0 * math.pi * p.loops)
    if cap <= p.t_min:
        return 0
    ratio = cap / p.t_max  # inf for t_max near the float minimum
    windows = p.n_max if ratio >= p.n_max ** 2 else math.isqrt(int(ratio)) + 1
    panels = math.ceil((math.log(cap) - math.log(p.t_min)) / math.log(4))
    return windows * panels * (p.nodes + max(2, p.nodes // 2))


def _zeta_size_guard(p: ZetaCheckParams) -> None:
    """Refuse, before any work, a check that floats cannot compute or that
    would run well past 10 s."""
    if p.s > ZETA_S_MAX:
        raise UnsupportedInputError(
            f"zeta check: s {p.s:g} is above {ZETA_S_MAX}, near where Gamma(s/2) overflows")
    if p.loops > ZETA_LOOPS_MAX:
        raise UnsupportedInputError("zeta check: the loop count puts 4 pi l past the float range")
    if p.t_max < sys.float_info.min:
        raise UnsupportedInputError(
            f"zeta check: t_max {p.t_max:g} is below the smallest normal float "
            f"{sys.float_info.min:g}, too coarse for quadrature nodes")
    for what, value, cap in (("nodes", p.nodes, ZETA_NODES_MAX),
                             ("n_max", p.n_max, ZETA_N_MAX),
                             ("integrand evaluations", _zeta_evals_bound(p), ZETA_EVALS_MAX)):
        if value > cap:
            raise UnsupportedInputError(
                f"zeta check: {what} {value} is above the cap {cap} (about 10 s of work)")


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


def _term_sums(p: ZetaCheckParams) -> tuple[float, float, float]:
    """The fine and coarse quadratures of terms n = 1..n_max, summed, and
    the bound on the mass that the cuts above the windows drop.

    Term n integrates t^(s/2-1) e^(-4 pi l n^2 t) over [t_min/n^2, t_up(n)],
    t_up(n) = min(t_max, 120/(4 pi l n^2)).  With t = u/n^2 it is n^(-s)
    times I(U_n), the integral of u^(s/2-1) e^(-4 pi l u) over [t_min, U_n],
    U_n = n^2 t_up(n) = min(n^2 t_max, 120/(4 pi l)); the geometric panels
    map node for node, so the fine and coarse rules scale alike.  I is
    integrated once per distinct U_n: the t_max cap binds only for small n,
    and at the defaults (t_max > 120/(4 pi)) never."""
    s, l = p.s, p.loops
    c1 = 4.0 * math.pi * l
    cap = 120.0 / c1
    rules = {}  # U -> (fine, coarse) rules for I(U)
    total_fine = 0.0
    total_coarse = 0.0
    cut_bound = 0.0
    for n in range(1, p.n_max + 1):
        c = 4.0 * math.pi * l * n * n
        # beyond t_up the factor e^(-ct) is below e^-120; bound and skip
        t_up = min(p.t_max, 120.0 / c)
        u = min(n * n * p.t_max, cap)
        if u > p.t_min:
            if u not in rules:
                rules[u] = (_gl_term_integral(c1, p.t_min, u, s, p.nodes),
                            _gl_term_integral(c1, p.t_min, u, s, max(2, p.nodes // 2)))
            fine, coarse = rules[u]
            scale = n ** -s
            total_fine += scale * fine
            total_coarse += scale * coarse
        if t_up < p.t_max:
            cut_bound += 2.0 * max(t_up, 1.0) ** (s / 2.0 - 1.0) * math.exp(-c * t_up) / c
    return total_fine, total_coarse, cut_bound


@_timed
def zeta_mellin_check(params: ZetaCheckParams | None = None) -> CheckReport:
    """|integral over i R_+ of (dhbar/hbar) chi(q, l, M(-2)) hbar^(s/2)|
    against Gamma(s/2) (4 pi l)^(-s/2) zeta(s), modulus only.

    Term n of the trace's Mellin sum is n^(-s) times the n = 1 integral
    up to U_n = min(n^2 t_max, 120/(4 pi l)) (``_term_sums``), so the
    quadratures run once per distinct U_n, once at the defaults.  Every
    truncation gets an explicit bound, the mass above a window's end
    whether 120/(4 pi l n^2) or t_max ends it; quadrature error is
    estimated by halving the node count.  Budget above tolerance ->
    inconclusive.  Inputs past the size caps raise UnsupportedInputError
    before any work."""
    p = params or ZetaCheckParams()
    _zeta_size_guard(p)
    import mpmath

    name = f"zeta[s={p.s:g},l={p.loops}]"
    covered = (f"s={p.s:g} l={p.loops} window=[{p.t_min:g},{p.t_max:g}] "
               f"terms<=n_max={p.n_max} nodes={p.nodes}")
    s, l = p.s, p.loops
    total_fine, total_coarse, cut_bound = _term_sums(p)
    # mass above t_max where t_max ends the window: term n, for n^2 t_max
    # below 120/(4 pi l), drops n^(-s) (4 pi l)^(-s/2) Gamma(s/2, 4 pi l n^2 t_max).
    # Gamma(s/2, x) falls as x grows, so each run n..n + n//64 is bounded by
    # its first term's Gamma: one incomplete gamma per term up to n = 63, then
    # about 64 per e-fold of n.  Each takes up to 0.25 ms; 875000 terms take
    # 650 of them and 0.3 s in all, where one per term would take 220 s
    c1 = 4.0 * math.pi * l
    n = 1
    while n <= p.n_max and n * n * p.t_max < 120.0 / c1:
        run = range(n, min(n + n // 64, p.n_max) + 1)
        gamma = float(mpmath.gammainc(s / 2.0, c1 * n * n * p.t_max))
        cut_bound += c1 ** (-s / 2.0) * gamma * math.fsum(m ** -s for m in run)
        n = run.stop
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


# each check's name and the reports it runs for a seed
CHECKS = {
    "theorem1": lambda seed: [check_theorem1(100)],
    "table1": lambda seed: [check_table1(l, 40) for l in (1, 2, 3)],
    "table2": lambda seed: [check_table2(1, 30, 5, 15, seed)],
    "partial-thetas": lambda seed: [check_partial_thetas(l, 25) for l in (1, 2)],
    "multiplicities": lambda seed: [check_multiplicities(seed, 5, 10)],
    "conjecture1": lambda seed: conjecture_suite(seed, 5, 25, 15),
    "zeta": lambda seed: [zeta_mellin_check(ZetaCheckParams(s=s, loops=l))
                          for s, l in ((2.0, 1), (4.0, 1), (2.0, 2))],
}


def run_checks(names=None, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run named checks (all by default), in order."""
    names = list(names) if names else list(CHECKS)
    for n in names:
        if n not in CHECKS:
            raise DomainError(f"unknown check {n!r}; available: {', '.join(CHECKS)}")
    return [r for n in names for r in CHECKS[n](seed)]
