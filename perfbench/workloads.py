"""The three workloads: seeded operations on casimir_trace and their checks.

An operation is one ``cli.main(argv)`` call or one library call through a
name in ``casimir_trace.__all__``.  Its check runs after it, off the clock,
and compares the output with the character oracle (oracle.py) or with a
property the paper states; a check returns None or a description of the
mismatch.  Inputs come from the seed alone, and every seed draws operations
of the same sizes, so run times compare across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

P = ("P",)


def M(lam: int):
    return ("M", lam)


def L(n: int):
    return ("L", n)


def tensor(*parts):
    return ("x",) + parts


def dsum(*parts):
    return ("+",) + parts


def power(base, k: int):
    return base if k == 1 else ("^", base, k)


@dataclass
class Op:
    name: str
    call: Callable  # (casimir_trace module) -> result
    check: Callable  # (casimir_trace module, result) -> None | str


# ---------------------------------------------------------------------------
# command-line operations


def _run_cli(ct, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = ct.main(argv)
    return rc, out.getvalue()


def _cli_op(argv: list[str], check_json) -> Op:
    def check(ct, result):
        rc, out = result
        if rc != 0:
            return f"exit code {rc}"
        return check_json(ct, json.loads(out))

    return Op(" ".join(argv), lambda ct: _run_cli(ct, argv), check)


def _diff(got: dict, want: dict) -> str | None:
    if got == want:
        return None
    for key in sorted(set(got) | set(want)):
        if got.get(key, 0) != want.get(key, 0):
            return f"term {key}: program {got.get(key, 0)}, oracle {want.get(key, 0)}"
    return "term sets differ"


def _qseries_terms(obj) -> dict:
    return {Fraction(e): Fraction(c) for e, c in obj["terms"] if Fraction(c)}


def _library_terms(series) -> dict:
    return {e: c for e, c in series.items() if c}


def trace_op(expr, l: int, order: int, compact: bool) -> Op:
    def check(_ct, obj):
        if Fraction(obj["order"]) != order:
            return f"order {obj['order']}, asked for {order}"
        return _diff(_qseries_terms(obj), oracle.trace(expr, l, order))

    return _cli_op(["trace", "--rep", oracle.render(expr, compact), "--loops", str(l),
                    "--order", str(order), "--format", "json"], check)


def deformed_op(expr, l: int, order: int, compact: bool) -> Op:
    def check(_ct, obj):
        got = {(Fraction(e), int(x)): Fraction(c) for e, x, c in obj["terms"] if Fraction(c)}
        return _diff(got, oracle.trace_deformed(expr, l, order))

    return _cli_op(["trace-deformed", "--rep", oracle.render(expr, compact), "--loops", str(l),
                    "--order", str(order), "--format", "json"], check)


def spectral_op(expr, w: int, compact: bool, blocks: dict | None = None) -> Op:
    """``blocks`` maps eigenvalues to their known largest Jordan block."""
    def check(_ct, obj):
        if obj["dimension"] != oracle.dimension(expr, w):
            return f"dimension {obj['dimension']}, character says {oracle.dimension(expr, w)}"
        got = {e["value"]: e["multiplicity"] for e in obj["eigen"]}
        bad = _diff(got, oracle.spectrum(expr, w))
        if bad:
            return bad
        for e in obj["eigen"]:
            if not 1 <= e["max_block"] <= e["multiplicity"]:
                return f"eigenvalue {e['value']}: block {e['max_block']} outside 1..{e['multiplicity']}"
            if blocks and e["max_block"] != blocks.get(e["value"], e["max_block"]):
                return f"eigenvalue {e['value']}: block {e['max_block']}, expected {blocks[e['value']]}"
        return None

    return _cli_op(["spectral", "--rep", oracle.render(expr, compact), "--weight", str(w),
                    "--format", "json"], check)


def _library_trace_check(ct, expr, l: int, order: int) -> str | None:
    """The program's own trace of ``expr`` against the oracle.  It reads
    branch spectra the operation has just computed."""
    got = _library_terms(ct.trace_series(ct.parse_rep(oracle.render(expr)), l, order))
    return _diff(got, oracle.trace(expr, l, order))


def compare_op(factors, l: int, order: int, compact: bool) -> Op:
    expr = tensor(*factors)

    def check(ct, obj):
        if obj["status"] != "pass":
            return f"status {obj['status']}: {obj.get('witness')}"
        return _library_trace_check(ct, expr, l, order)

    return _cli_op(["compare", "--rep", oracle.render(expr, compact), "--loops", str(l),
                    "--order", str(order), "--format", "json"], check)


def _sum_factor(a: int, b: int, g: int):
    parts = [power(atom, k) for atom, k in ((M(0), a), (M(-2), b), (P, g)) if k]
    return parts[0] if len(parts) == 1 else dsum(*parts)


def conjecture_op(alphas, betas, gammas, order: int) -> Op:
    """F = x_i (M0^a + M-2^b + P^g) against F' = x_i (M0^(a+g) + M-2^(b+g))."""
    left = [_sum_factor(a, b, g) for a, b, g in zip(alphas, betas, gammas)]
    right = [_sum_factor(a + g, b + g, 0) for a, b, g in zip(alphas, betas, gammas)]
    f = left[0] if len(left) == 1 else tensor(*left)
    fp = right[0] if len(right) == 1 else tensor(*right)

    def check(ct, obj):
        if obj["status"] != "pass":
            return f"status {obj['status']}: {obj.get('witness')}"
        return _library_trace_check(ct, f, 1, order) or _library_trace_check(ct, fp, 1, order)

    argv = ["conjecture"]
    for flag, values in (("--alphas", alphas), ("--betas", betas), ("--gammas", gammas)):
        argv += [flag, ",".join(map(str, values))]
    return _cli_op(argv + ["--order", str(order), "--format", "json"], check)


# Gamma(s/2) (4 pi l)^(-s/2) zeta(s) at the three points the battery checks
ZETA_REFERENCE = {
    "zeta[s=2,l=1]": math.pi / 24,
    "zeta[s=4,l=1]": math.pi ** 2 / 1440,
    "zeta[s=2,l=2]": math.pi / 48,
}


def zeta_op() -> Op:
    def check(_ct, reports):
        names = {r["name"] for r in reports}
        if names != set(ZETA_REFERENCE):
            return f"checks {sorted(names)}, expected {sorted(ZETA_REFERENCE)}"
        for r in reports:
            if r["status"] != "pass":
                return f"{r['name']}: status {r['status']}"
            err = abs(abs(r["extras"]["measured"]) - ZETA_REFERENCE[r["name"]])
            if err > 1e-6:
                return f"{r['name']}: off the reference by {err:.3e}"
        return None

    return _cli_op(["verify", "--checks", "zeta", "--format", "json"], check)


# ---------------------------------------------------------------------------
# library operations


def _mono_trace(matrix) -> dict:
    return {e: p.constant_term() for e, p in matrix.trace().terms.items() if p.constant_term()}


def monodromy_ops(ct, expr, w: int, loops: int) -> list[Op]:
    """M(1), M(loops), M(1 + loops) and the flat section on one weight space;
    the last matrix is checked by the power law M(1) M(loops) = M(1 + loops)."""
    label = f"{oracle.render(expr)} @ {w}"
    module = ct.parse_rep(oracle.render(expr))
    made: dict[int, object] = {}

    def matrix_op(l: int) -> Op:
        def call(ct):
            made[l] = ct.monodromy_matrix(module, w, l)
            return made[l]

        def check(_ct, m):
            bad = _diff(_mono_trace(m), oracle.weight_trace(expr, w, l))
            if bad or l != 1 + loops:
                return bad
            if made[1].matmul(made[loops]).entries != m.entries:
                return f"M(1) M({loops}) != M({1 + loops})"
            return None

        return Op(f"monodromy_matrix {label} l={l}", call, check)

    def sections_check(ct, fs):
        if not fs.check_ode():
            return "flat section fails its ODE"
        if not fs.check_monodromy(made[1]):
            return "flat section disagrees with the one-loop monodromy"
        return None

    ops = [matrix_op(l) for l in (1, loops, 1 + loops)]
    ops.append(Op(f"flat_sections {label}",
                  lambda ct: ct.flat_sections(module, w), sections_check))
    return ops


def kappa_op(ct, expr, w: int) -> Op:
    """Dimension, trace and trace of the square against the character."""
    def check(_ct, wm):
        n = oracle.dimension(expr, w)
        if wm.dimension != n:
            return f"dimension {wm.dimension}, character says {n}"
        spec = oracle.spectrum(expr, w)
        a = wm.entries
        if sum(a[i][i] for i in range(n)) != sum(m * c for c, m in spec.items()):
            return "trace differs from the sum of eigenvalues"
        tr2 = sum(a[i][j] * a[j][i] for i in range(n) for j in range(n))
        if tr2 != sum(m * c * c for c, m in spec.items()):
            return "trace of the square differs from the sum of squared eigenvalues"
        return None

    module = ct.parse_rep(oracle.render(expr))
    return Op(f"kappa_matrix {oracle.render(expr)} @ {w}",
              lambda ct: ct.kappa_matrix(module, w), check)


def jordan_ops(ct, k: int) -> list[Op]:
    """Theorem 1: kappa on P at weight -2k is [[-2k(k+1), 2], [-2k^2, -2k(k-1)]]
    with Jordan form [[-2k^2, 2], [0, -2k^2]]."""
    want_a = ((-2 * k * (k + 1), 2), (-2 * k * k, -2 * k * (k - 1)))
    want_j = ((-2 * k * k, 2), (0, -2 * k * k))
    got: dict[str, object] = {}
    big_p = ct.BigP()

    def kappa_call(ct):
        got["wm"] = ct.kappa_matrix(big_p, -2 * k)
        return got["wm"]

    def kappa_check(_ct, wm):
        return None if wm.entries == want_a else f"kappa on P at {-2 * k}: {wm.entries}"

    def jordan_check(_ct, result):
        j, s = result
        if j != want_j:
            return f"Jordan form at {-2 * k}: {j}"
        a_s = [[sum(want_a[i][t] * s[t][c] for t in range(2)) for c in range(2)] for i in range(2)]
        s_j = [[sum(s[i][t] * j[t][c] for t in range(2)) for c in range(2)] for i in range(2)]
        det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
        return None if a_s == s_j and det else f"A S != S J at {-2 * k}"

    return [
        Op(f"kappa_matrix P @ {-2 * k}", kappa_call, kappa_check),
        Op(f"jordan_2x2 P @ {-2 * k}", lambda ct: ct.jordan_2x2(got["wm"].entries), jordan_check),
    ]


# ---------------------------------------------------------------------------
# workloads


def _distinct_branches(exprs) -> None:
    """Trace operations of trace-cli must not share a branch, so the branch
    spectrum cache gives nothing."""
    seen: set = set()
    for expr in exprs:
        keys = set(oracle.branches(expr))
        if keys & seen:
            raise ValueError(f"{oracle.render(expr)} shares a branch with an earlier operation")
        seen |= keys


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """A seeded composition of ``total`` into ``parts`` non-negative integers."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def trace_cli(rng: random.Random, _ct) -> list[Op]:
    compact = rng.random() < 0.5
    a, b = [-x for x in _split(rng, 5, 2)]
    vermas_p = [M(a), P, M(b)]
    rng.shuffle(vermas_p)
    deformed = [M(-2 * x) for x in _split(rng, 4, 3)]
    spectral_legs = [M(-x) for x in _split(rng, 3, 3)]
    traces = [
        (tensor(P, P), 12),
        (tensor(P, P, P), 5),
        (tensor(M(-3), L(2), P), 10),
        (tensor(M(2), P), 12),
        (tensor(power(dsum(M(0), M(-2)), 2), P), 12),
        (tensor(L(4), M(-1), M(-1)), 10),
        (tensor(*vermas_p), 8),
    ]
    deformed_traces = [(tensor(P, M(-4)), 12), (tensor(P, P, M(-2)), 6), (tensor(*deformed), 12)]
    _distinct_branches([e for e, _ in traces + deformed_traces])
    ops = [trace_op(e, 1, order, compact) for e, order in traces]
    ops += [deformed_op(e, 1, order, compact) for e, order in deformed_traces]
    ops += [
        spectral_op(tensor(P, P, P), -8, compact),                   # n = 66, exact
        spectral_op(power(tensor(P, P), 6), -22, compact),           # n = 264, certified
        spectral_op(tensor(*spectral_legs), -15, compact),           # n = 28, exact
    ]
    return ops


def oracle_battery(rng: random.Random, _ct) -> list[Op]:
    compact = rng.random() < 0.5
    k = rng.randint(5, 60)
    a1, g1, b2, g2 = (rng.randint(1, 2) for _ in range(4))
    named = [dsum(M(0), P), dsum(M(-2), P)]
    return [
        compare_op(named, 1, 12, compact),
        compare_op(named, 2, 24, compact),                           # reuses the spectra above
        compare_op([power(M(0), a1), power(P, g1), power(M(-2), b2)], 1, 8, compact),
        conjecture_op((a1, 0), (0, b2), (g1, g2), 16),
        conjecture_op((0,), (0,), (1,), 25),                         # P against M0 + M-2
        spectral_op(P, -2 * k, compact, blocks={-2 * k * k: 2}),
        *(spectral_op(tensor(P, P), w, compact) for w in (-12, -14, -16, -18)),
        *(spectral_op(tensor(P, M(0)), w, compact) for w in (-16, -24)),
        zeta_op(),
    ]


# weight spaces of dimension 2 to 16 on modules of the acceptance pool
SPACES = [
    (tensor(M(0), M(0)), -14),
    (tensor(P, L(1)), -9),
    (tensor(M(0), L(2)), -8),
    (tensor(P, M(0)), -8),
    (power(P, 2), -8),
    (power(dsum(M(0), M(-2)), 2), -6),
    (tensor(M(0), M(-2)), -16),
    (tensor(P, P), -6),
    (dsum(M(-1), L(3)), -3),
    (dsum(P, M(0)), -10),
    (tensor(P, M(-2)), -10),
    (tensor(M(0), M(0), M(0)), -4),
]


def exact_monodromy(rng: random.Random, ct) -> list[Op]:
    ops: list[Op] = []
    for expr, w in SPACES:
        ops.append(kappa_op(ct, expr, w))
        ops += monodromy_ops(ct, expr, w, rng.randint(1, 3))
    for k in sorted(rng.sample(range(1, 200), 3)):
        ops += jordan_ops(ct, k)
    return ops


WORKLOADS = {
    "trace-cli": trace_cli,
    "oracle-battery": oracle_battery,
    "exact-monodromy": exact_monodromy,
}


def build(workload: str, seed: int, ct) -> list[Op]:
    """The operations of one round; ``ct`` is the imported casimir_trace,
    used to parse the inputs of library calls before any timing starts."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), ct)
