"""Command-line front end: module-expression parser, subcommand dispatch,
bit-stable output in plain, JSON, or CSV form.

Grammar for --rep (whitespace insignificant):

    expr   := term ('+' term)*          direct sum
    term   := factor ('x' factor)*      tensor product
    factor := atom ('^' nat)?           direct-sum multiplicity
    atom   := 'M' int | 'L' nat | 'P' | '(' expr ')'

Exit codes: 0 success, 1 check failure, 2 usage or parse error,
3 unsupported input, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import closed_forms, monodromy, rep, verify
from .closed_forms import AppellLerchParams, ConeWindow
from .errors import (
    DomainError,
    InvariantError,
    ParseError,
    PrecisionError,
    UnsupportedInputError,
)
from .series import BiSeries, QSeries, as_frac, exp_str, rat_str

# ---------------------------------------------------------------------------
# expression parser


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+x^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch == "M":
                j = i + 1
                if j < n and t[j] == "-":
                    j += 1
                k = j
                while k < n and t[k].isdigit():
                    k += 1
                if k == j:
                    raise ParseError("expected an integer after 'M'", i, self.text)
                self.tokens.append(("ATOM_M", int(t[i + 1 : k]), i))
                i = k
                continue
            if ch == "L":
                k = i + 1
                while k < n and t[k].isdigit():
                    k += 1
                if k == i + 1:
                    raise ParseError("expected a non-negative integer after 'L'", i, self.text)
                self.tokens.append(("ATOM_L", int(t[i + 1 : k]), i))
                i = k
                continue
            if ch == "P":
                self.tokens.append(("ATOM_P", None, i))
                i += 1
                continue
            if ch.isdigit():
                k = i
                while k < n and t[k].isdigit():
                    k += 1
                self.tokens.append(("NAT", int(t[i:k]), i))
                i = k
                continue
            raise ParseError(f"unexpected character {ch!r}", i, self.text)
        self.tokens.append(("END", None, n))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _Lexer(text).tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]}", tok[2], self.text)
        self.i += 1
        return tok

    def parse(self) -> rep.ModuleExpr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(
                f"expected '+', 'x', '^', or end of input, found {tok[0]}", tok[2], self.text)
        return e

    def expr(self) -> rep.ModuleExpr:
        parts = [self.term()]
        while self.peek()[0] == "+":
            self.take("+")
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else rep.DirectSum(tuple(parts))

    def term(self) -> rep.ModuleExpr:
        parts = [self.factor()]
        while self.peek()[0] == "x":
            self.take("x")
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else rep.Tensor(tuple(parts))

    def factor(self) -> rep.ModuleExpr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            tok = self.peek()
            if tok[0] != "NAT":
                raise ParseError("expected a positive integer after '^'", tok[2], self.text)
            self.take("NAT")
            if tok[1] < 1:
                raise ParseError("multiplicity must be >= 1", tok[2], self.text)
            return rep.Power(base, tok[1])
        return base

    def atom(self) -> rep.ModuleExpr:
        tok = self.peek()
        if tok[0] == "ATOM_M":
            self.take("ATOM_M")
            return rep.Verma(tok[1])
        if tok[0] == "ATOM_L":
            self.take("ATOM_L")
            return rep.Irr(tok[1])
        if tok[0] == "ATOM_P":
            self.take("ATOM_P")
            return rep.BigP()
        if tok[0] == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        raise ParseError(
            f"expected an atom 'M<int>', 'L<nat>', 'P', or '(', found {tok[0]}",
            tok[2], self.text)


def parse_rep(text: str) -> rep.ModuleExpr:
    """Parse the module-expression grammar; errors carry the column."""
    return _Parser(text).parse()


def pretty(expr: rep.ModuleExpr) -> str:
    """Canonical rendering; parse(pretty(e)) == e."""
    if isinstance(expr, rep.Verma):
        return f"M{expr.lam}"
    if isinstance(expr, rep.Irr):
        return f"L{expr.n}"
    if isinstance(expr, rep.BigP):
        return "P"
    if isinstance(expr, rep.DirectSum):
        return " + ".join(pretty(p) for p in expr.parts)
    if isinstance(expr, rep.Tensor):
        rendered = []
        for p in expr.parts:
            s = pretty(p)
            rendered.append(f"({s})" if isinstance(p, rep.DirectSum) else s)
        return " x ".join(rendered)
    if isinstance(expr, rep.Power):
        s = pretty(expr.base)
        if not isinstance(expr.base, (rep.Verma, rep.Irr, rep.BigP)):
            s = f"({s})"
        return f"{s}^{expr.mult}"
    raise DomainError(f"not a module expression: {expr!r}")


# ---------------------------------------------------------------------------
# output helpers


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _coeff_plain(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _emit_qseries(s: QSeries, fmt: str) -> None:
    if fmt == "json":
        _emit_json(s.to_obj())
    elif fmt == "csv":
        sys.stdout.write("exponent,numerator,denominator\n")
        for e, c in s.items():
            sys.stdout.write(f"{exp_str(e)},{c.numerator},{c.denominator}\n")
    else:
        sys.stdout.write(f"# q-series, exact below order {exp_str(s.order)}\n")
        for e, c in s.items():
            sys.stdout.write(f"q^{exp_str(e)}\t{_coeff_plain(c)}\n")


def _emit_biseries(s: BiSeries, fmt: str) -> None:
    if fmt == "json":
        _emit_json(s.to_obj())
    elif fmt == "csv":
        sys.stdout.write("q_exponent,x_exponent,numerator,denominator\n")
        for (e, k), c in s.items():
            sys.stdout.write(f"{exp_str(e)},{k},{c.numerator},{c.denominator}\n")
    else:
        sys.stdout.write(f"# (q,x)-series, exact below q-order {exp_str(s.q_order)}\n")
        for (e, k), c in s.items():
            sys.stdout.write(f"q^{exp_str(e)} x^{k}\t{_coeff_plain(c)}\n")


def _emit_report(report: verify.CheckReport, fmt: str) -> None:
    if fmt == "json":
        _emit_json(report.to_obj())
    else:
        line = f"{report.status.upper()} {report.name} ({report.covered}) [{report.seconds:.2f}s]"
        if report.witness:
            line += f"\n  witness: {report.witness}"
        sys.stdout.write(line + "\n")


def _report_exit(report: verify.CheckReport, allow_inconclusive: bool) -> int:
    if report.status == "pass":
        return 0
    if report.status == "inconclusive" and allow_inconclusive:
        return 0
    return 1


# ---------------------------------------------------------------------------
# subcommands


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}")


def _parse_order(text) -> object:
    try:
        from fractions import Fraction

        return as_frac(Fraction(str(text)))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"expected a rational order like 20 or 7/2, got {text!r}")


def _cmd_trace(args) -> int:
    expr = parse_rep(args.rep)
    series = monodromy.trace_series(expr, args.loops, _parse_order(args.order))
    _emit_qseries(series, args.format)
    return 0


def _cmd_trace_deformed(args) -> int:
    expr = parse_rep(args.rep)
    series = monodromy.trace_deformed(expr, args.loops, _parse_order(args.order))
    _emit_biseries(series, args.format)
    return 0


def _cmd_closed_form(args) -> int:
    if args.family == "jacobi-theta":
        _emit_qseries(closed_forms.jacobi_theta(args.loops, _parse_order(args.order)), args.format)
        return 0
    if args.family == "partial-theta":
        if not args.kind:
            raise DomainError("--kind is required for --family partial-theta")
        kind = {"M-2": "Mminus2"}.get(args.kind, args.kind)
        _emit_biseries(closed_forms.partial_theta(kind, args.loops, _parse_order(args.order)), args.format)
        return 0
    if args.family == "appell-lerch-partial":
        params = _appell_params(args)
        _emit_qseries(closed_forms.partial_appell_lerch(params, _parse_order(args.order)), args.format)
        return 0
    window = ConeWindow(args.qmin, args.qmax, args.x2max)
    cone = closed_forms.appell_lerch_cone(window)
    if args.format == "json":
        _emit_json(cone.to_obj())
    elif args.format == "csv":
        sys.stdout.write("q_exponent,x1_exponent,x2_exponent,coefficient\n")
        for (qe, x1, x2), c in cone.terms:
            sys.stdout.write(f"{qe},{x1},{x2},{c}\n")
    else:
        sys.stdout.write(
            f"# cone sum, window q in [{window.q_min},{window.q_max}], x2 <= {window.x2_max}\n")
        for (qe, x1, x2), c in cone.terms:
            sys.stdout.write(f"q^{qe} x1^{x1} x2^{x2}\t{c}\n")
    return 0


def _appell_params(args) -> AppellLerchParams:
    if args.alphas is None or args.betas is None:
        raise DomainError("--alphas and --betas are required here")
    alphas = _int_list(args.alphas)
    betas = _int_list(args.betas)
    p = args.p if args.p is not None else len(alphas) - 1
    if p != len(alphas) - 1:
        raise DomainError(f"--p {p} conflicts with {len(alphas)} alpha entries (need p+1)")
    return AppellLerchParams(alphas, betas, p, args.loops)


def _cmd_character(args) -> int:
    expr = parse_rep(args.rep)
    ch = rep.character(expr, args.order)
    if args.format == "json":
        _emit_json({"depth": args.order, "dimensions": {str(w): d for w, d in sorted(ch.items(), reverse=True)}})
    elif args.format == "csv":
        sys.stdout.write("weight,dimension\n")
        for w, d in sorted(ch.items(), reverse=True):
            sys.stdout.write(f"{w},{d}\n")
    else:
        top = rep.top_weight(expr)
        if len({w % 2 for w in ch}) > 1:  # branch tops of both parities
            layers = f"weights {top} down to {top - 2 * args.order}"
        else:
            layers = f"top {args.order + 1} layers"
        sys.stdout.write(f"# weight-space dimensions, {layers}\n")
        for w, d in sorted(ch.items(), reverse=True):
            sys.stdout.write(f"{w}\t{d}\n")
    return 0


def _cmd_spectral(args) -> int:
    expr = parse_rep(args.rep)
    data = monodromy.spectral(expr, args.weight)
    if args.format == "json":
        _emit_json(data.to_obj())
    elif args.format == "csv":
        sys.stdout.write("eigenvalue,multiplicity,max_block\n")
        for c, m, b in data.eigen:
            sys.stdout.write(f"{c},{m},{b}\n")
    else:
        sys.stdout.write(
            f"# kappa spectrum at weight {data.weight}, dimension {data.dimension}\n")
        for c, m, b in data.eigen:
            sys.stdout.write(f"value {c}\tmultiplicity {m}\tmax block {b}\n")
    return 0


def _cmd_jordan(args) -> int:
    expr = parse_rep(args.rep)
    wm = rep.kappa_matrix(expr, args.weight)
    if wm.dimension == 1:
        j = ((as_frac(wm.entries[0][0]),),)
        s = ((as_frac(1),),)
    elif wm.dimension == 2:
        j, s = monodromy.jordan_2x2(wm.entries)
    else:
        raise UnsupportedInputError(
            f"jordan is defined for 1x1 and 2x2 weight spaces; dimension is {wm.dimension}")
    obj = {
        "weight": wm.weight,
        "basis": list(wm.labels),
        "jordan": [[rat_str(x) for x in row] for row in j],
        "basis_change": [[rat_str(x) for x in row] for row in s],
    }
    if args.format == "json":
        _emit_json(obj)
    else:
        sys.stdout.write(f"# Jordan form at weight {wm.weight} (A = S J S^-1)\n")
        sys.stdout.write("J = " + " ; ".join(" ".join(_coeff_plain(x) for x in row) for row in j) + "\n")
        sys.stdout.write("S = " + " ; ".join(" ".join(_coeff_plain(x) for x in row) for row in s) + "\n")
    return 0


def _cmd_flat_section(args) -> int:
    expr = parse_rep(args.rep)
    fs = monodromy.flat_sections(expr, args.weight)
    if args.format == "json":
        _emit_json(fs.to_obj())
    else:
        sys.stdout.write(f"# flat section at weight {fs.weight}; terms (c, j) with matrices\n")
        for c, j, mat in fs.terms:
            sys.stdout.write(f"c={c} j={j}: " + " ; ".join(
                " ".join(_coeff_plain(x) for x in row) for row in mat) + "\n")
    return 0


def _cmd_multiplicities(args) -> int:
    if args.alphas is None or args.betas is None:
        raise DomainError("--alphas and --betas are required")
    alphas = _int_list(args.alphas)
    betas = _int_list(args.betas)
    p = args.p if args.p is not None else len(alphas) - 1
    coeffs = closed_forms.verma_multiplicities(alphas, betas, p, int(args.order))
    if args.format == "json":
        _emit_json({"p": p, "coefficients": coeffs})
    elif args.format == "csv":
        sys.stdout.write("k,a_k\n")
        for k, a in enumerate(coeffs):
            sys.stdout.write(f"{k},{a}\n")
    else:
        sys.stdout.write(f"# multiplicity coefficients a_k, k = 0..{int(args.order)}\n")
        for k, a in enumerate(coeffs):
            sys.stdout.write(f"a_{k}\t{a}\n")
    return 0


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
    if isinstance(factor, rep.DirectSum):
        a = b = g = 0
        for p in factor.parts:
            da, db, dg = _factor_counts(p)
            a, b, g = a + da, b + db, g + dg
        return (a, b, g)
    if isinstance(factor, rep.Power):
        a, b, g = _factor_counts(factor.base)
        return (a * factor.mult, b * factor.mult, g * factor.mult)
    raise UnsupportedInputError(
        "compare handles tensor products of direct sums of M0, M-2, P")


def _cmd_compare(args) -> int:
    expr = parse_rep(args.rep)
    factors = expr.parts if isinstance(expr, rep.Tensor) else (expr,)
    counts = [_factor_counts(f) for f in factors]
    if len(counts) < 2:
        raise UnsupportedInputError(
            "compare needs at least two tensor factors (the closed form has p >= 1)")
    alphas = tuple(a + g for a, b, g in counts)
    betas = tuple(b + g for a, b, g in counts)
    p = len(counts) - 1
    report = verify.compare_routes(f"compare[{pretty(expr)}]", expr, alphas, betas, p,
                                   args.loops, _parse_order(args.order))
    _emit_report(report, args.format)
    return 0 if report.status == "pass" else 1


def _cmd_conjecture(args) -> int:
    if args.alphas is None or args.betas is None or args.gammas is None:
        raise DomainError("--alphas, --betas, --gammas are required")
    alphas = _int_list(args.alphas)
    betas = _int_list(args.betas)
    gammas = _int_list(args.gammas)
    if args.p is not None and args.p != len(alphas) - 1:
        raise DomainError(f"--p {args.p} conflicts with {len(alphas)} alpha entries")
    report = verify.test_conjecture1(alphas, betas, gammas, args.loops, _parse_order(args.order))
    _emit_report(report, args.format)
    return 0 if report.status == "pass" else 1


def _cmd_zeta_check(args) -> int:
    params = verify.ZetaCheckParams(
        s=args.s, loops=args.loops, t_min=args.t_min, t_max=args.t_max,
        n_max=args.n_max, nodes=args.nodes, tol=args.tol)
    report = verify.zeta_mellin_check(params)
    _emit_report(report, args.format)
    return _report_exit(report, args.allow_inconclusive)


def _cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks else None
    reports = verify.run_checks(names, seed=args.seed)
    if args.format == "json":
        _emit_json([r.to_obj() for r in reports])
    else:
        for r in reports:
            _emit_report(r, "plain")
    ok = all(
        r.status == "pass" or (r.status == "inconclusive" and args.allow_inconclusive)
        for r in reports)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument surface


def _build_parser() -> argparse.ArgumentParser:
    # no prefix matching anywhere, so that an option removed later is refused
    # instead of being taken for one it prefixes (verify --all is not
    # --allow-inconclusive)
    parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    top = parser(
        prog="casimir-trace",
        description="Exact monodromy traces of the Casimir connection and their closed forms")
    sub = top.add_subparsers(dest="command", required=True, parser_class=parser)

    # each subcommand offers only the formats it prints
    plain_json = ("plain", "json")
    all_formats = plain_json + ("csv",)

    def common(p, weight=False, formats=all_formats):
        p.add_argument("--rep", required=True, help="module expression, e.g. '(M0 + M-2)^2 x P'")
        if weight:
            p.add_argument("--weight", type=int, required=True, help="weight of the target space")
        else:
            p.add_argument("--loops", type=int, default=1, help="loop count l >= 1 (default 1)")
            p.add_argument("--order", default="20", help="series order N (rational, default 20)")
        p.add_argument("--format", choices=formats, default="plain")

    p = sub.add_parser("trace", help="graded monodromy trace of a module expression")
    common(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("trace-deformed", help="bigraded (q, x) monodromy trace")
    common(p)
    p.set_defaults(fn=_cmd_trace_deformed)

    p = sub.add_parser("closed-form", help="closed-form comparison series")
    p.add_argument("--family", required=True,
                   choices=("jacobi-theta", "partial-theta", "appell-lerch-partial", "appell-lerch-cone"))
    p.add_argument("--kind", choices=("L0", "M0", "Mminus2", "M-2", "P"),
                   help="partial-theta kind")
    p.add_argument("--alphas", help="comma list, e.g. 1,1")
    p.add_argument("--betas", help="comma list, e.g. 0,1")
    p.add_argument("--p", type=int, help="pole order (defaults to len(alphas)-1)")
    p.add_argument("--qmin", type=int, default=-4, help="cone window: lowest q exponent")
    p.add_argument("--qmax", type=int, default=4, help="cone window: highest q exponent")
    p.add_argument("--x2max", type=int, default=2, help="cone window: highest x2 exponent")
    p.add_argument("--loops", type=int, default=1)
    p.add_argument("--order", default="20")
    p.add_argument("--format", choices=all_formats, default="plain")
    p.set_defaults(fn=_cmd_closed_form)

    p = sub.add_parser("character", help="weight-space dimensions down to a depth")
    p.add_argument("--rep", required=True, help="module expression, e.g. '(M0 + M-2)^2 x P'")
    p.add_argument("--order", type=int, default=20,
                   help="depth d: weights from top - 2d to top (default 20)")
    p.add_argument("--format", choices=all_formats, default="plain")
    p.set_defaults(fn=_cmd_character)

    p = sub.add_parser("spectral", help="certified kappa spectrum on one weight space")
    common(p, weight=True)
    p.set_defaults(fn=_cmd_spectral)

    p = sub.add_parser("jordan", help="Jordan form of kappa on a small weight space")
    common(p, weight=True, formats=plain_json)
    p.set_defaults(fn=_cmd_jordan)

    p = sub.add_parser("flat-section", help="fundamental flat section on one weight space")
    common(p, weight=True, formats=plain_json)
    p.set_defaults(fn=_cmd_flat_section)

    p = sub.add_parser("multiplicities", help="Verma multiplicity coefficients a_k")
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--order", default="10", help="largest k to report")
    p.add_argument("--format", choices=all_formats, default="plain")
    p.set_defaults(fn=_cmd_multiplicities)

    p = sub.add_parser("compare", help="three-route equality check for one expression")
    common(p, formats=plain_json)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("conjecture", help="trace equality for one conjecture configuration")
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--gammas", required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--loops", type=int, default=1)
    p.add_argument("--order", default="20")
    p.add_argument("--format", choices=plain_json, default="plain")
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("zeta-check", help="numerical Mellin-transform identity check")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--loops", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--t-min", type=float, default=1e-9)
    p.add_argument("--t-max", type=float, default=12.0)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--allow-inconclusive", action="store_true")
    p.add_argument("--format", choices=plain_json, default="plain")
    p.set_defaults(fn=_cmd_zeta_check)

    p = sub.add_parser("verify", help="run the named oracle checks (default: all)")
    p.add_argument("--checks", help=f"comma list from: {', '.join(verify.CHECKS)}")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--allow-inconclusive", action="store_true")
    p.add_argument("--format", choices=plain_json, default="plain")
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PrecisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedInputError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
