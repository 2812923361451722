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
import re
import sys
from fractions import Fraction

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


# One match per token after optional whitespace.  The group that matched
# names the token kind; the last three are the errors.  Numbers are decimal
# digits (\d), the characters int() reads, so a superscript is unexpected.
_TOKEN = re.compile(r"""\s*(?:
    (?P<ATOM_M>M-?\d+) | (?P<ATOM_L>L\d+) | (?P<ATOM_P>P) | (?P<NAT>\d+) | (?P<OP>[+x^()])
  | (?P<M>M) | (?P<L>L) | (?P<BAD>\S))""", re.X)
_ERRORS = {"M": "expected an integer after 'M'",
           "L": "expected a non-negative integer after 'L'"}


def _scan(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, position) for every token, then END at len(text)."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok, i = m[kind], m.start(kind)
        if kind in _ERRORS:
            raise ParseError(_ERRORS[kind], i, text)
        if kind == "BAD":
            raise ParseError(f"unexpected character {tok!r}", i, text)
        if kind == "OP":
            tokens.append((tok, tok, i))
        else:
            tokens.append((kind, None if kind == "ATOM_P" else int(tok.lstrip("ML")), i))
    tokens.append(("END", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
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


def _table(fmt: str, to_obj, rows, title: str, header: str, plain_row, csv_row=None) -> None:
    """Print one result in the asked format, building only that one: the
    JSON of ``to_obj()``, or one line per row of ``rows()``, under ``# title``
    as ``plain_row(*row)`` or under the CSV ``header`` as the fields of
    ``csv_row(*row)`` (the row itself by default) joined by commas."""
    if fmt == "json":
        _emit_json(to_obj())
    elif fmt == "csv":
        sys.stdout.write("".join([header + "\n"] + [
            ",".join(map(str, csv_row(*row) if csv_row else row)) + "\n" for row in rows()]))
    else:
        sys.stdout.write("".join([f"# {title}\n"] + [plain_row(*row) + "\n" for row in rows()]))


def _emit_qseries(s: QSeries, fmt: str) -> None:
    _table(fmt, s.to_obj, s.items, f"q-series, exact below order {exp_str(s.order)}",
           "exponent,numerator,denominator", lambda e, c: f"q^{exp_str(e)}\t{c}",
           lambda e, c: (exp_str(e), c.numerator, c.denominator))


def _emit_biseries(s: BiSeries, fmt: str) -> None:
    _table(fmt, s.to_obj, s.items, f"(q,x)-series, exact below q-order {exp_str(s.order)}",
           "q_exponent,x_exponent,numerator,denominator",
           lambda ek, c: f"q^{exp_str(ek[0])} x^{ek[1]}\t{c}",
           lambda ek, c: (exp_str(ek[0]), ek[1], c.numerator, c.denominator))


def _emit_report(report: verify.CheckReport, fmt: str) -> None:
    if fmt == "json":
        _emit_json(report.to_obj())
    else:
        line = f"{report.status.upper()} {report.name} ({report.covered}) [{report.seconds:.2f}s]"
        if report.witness:
            line += f"\n  witness: {report.witness}"
        sys.stdout.write(line + "\n")


def _report_exit(reports, allow_inconclusive: bool = False) -> int:
    """0 if every report passed (or is inconclusive, where that is allowed), else 1."""
    ok = ("pass", "inconclusive") if allow_inconclusive else ("pass",)
    return 0 if all(r.status in ok for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommands


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}")


def _appell_lerch_options(args, loops: int = 1) -> AppellLerchParams:
    """--alphas and --betas at ``loops`` loops; p is one less than the
    number of alphas."""
    alphas = _int_list(args.alphas)
    return AppellLerchParams(alphas, _int_list(args.betas), len(alphas) - 1, loops)


def _parse_order(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"expected a rational order like 20 or 7/2, got {text!r}")


def _cmd_trace(args) -> int:
    expr = parse_rep(args.rep)
    _emit_qseries(monodromy.trace_series(expr, args.loops, _parse_order(args.order)), args.format)
    return 0


def _cmd_trace_deformed(args) -> int:
    expr = parse_rep(args.rep)
    _emit_biseries(monodromy.trace_deformed(expr, args.loops, _parse_order(args.order)), args.format)
    return 0


# The closed-form options each family reads, and the defaults of those with
# one; an option given to a family that does not read it is refused.
_SERIES_FAMILIES = ("jacobi-theta", "partial-theta", "appell-lerch-partial")
_CLOSED_FORM_READERS = {
    "kind": ("partial-theta",),
    "alphas": ("appell-lerch-partial",),
    "betas": ("appell-lerch-partial",),
    "qmin": ("appell-lerch-cone",),
    "qmax": ("appell-lerch-cone",),
    "x2max": ("appell-lerch-cone",),
    "loops": _SERIES_FAMILIES,
    "order": _SERIES_FAMILIES,
}
_CLOSED_FORM_DEFAULTS = {"qmin": -4, "qmax": 4, "x2max": 2, "loops": 1, "order": "20"}


def _cmd_closed_form(args) -> int:
    for name, families in _CLOSED_FORM_READERS.items():
        if getattr(args, name) is None:
            setattr(args, name, _CLOSED_FORM_DEFAULTS.get(name))
        elif args.family not in families:
            raise DomainError(f"--{name} does not apply to --family {args.family}")
    if args.family == "jacobi-theta":
        _emit_qseries(closed_forms.jacobi_theta(args.loops, _parse_order(args.order)), args.format)
    elif args.family == "partial-theta":
        if not args.kind:
            raise DomainError("--kind is required for --family partial-theta")
        kind = {"M-2": "Mminus2"}.get(args.kind, args.kind)
        _emit_biseries(closed_forms.partial_theta(kind, args.loops, _parse_order(args.order)), args.format)
    elif args.family == "appell-lerch-partial":
        if args.alphas is None or args.betas is None:
            raise DomainError("--alphas and --betas are required here")
        params = _appell_lerch_options(args, args.loops)
        _emit_qseries(closed_forms.partial_appell_lerch(params, _parse_order(args.order)), args.format)
    else:
        w = ConeWindow(args.qmin, args.qmax, args.x2max)
        cone = closed_forms.appell_lerch_cone(w)
        _table(args.format, cone.to_obj, lambda: cone.terms,
               f"cone sum, window q in [{w.q_min},{w.q_max}], x2 <= {w.x2_max}",
               "q_exponent,x1_exponent,x2_exponent,coefficient",
               lambda e, c: f"q^{e[0]} x1^{e[1]} x2^{e[2]}\t{c}", lambda e, c: (*e, c))
    return 0


def _cmd_character(args) -> int:
    expr = parse_rep(args.rep)
    ch = sorted(rep.character(expr, args.order).items(), reverse=True)
    if len({w % 2 for w, _d in ch}) > 1:  # branch tops of both parities
        top = rep.top_weight(expr)
        layers = f"weights {top} down to {top - 2 * args.order}"
    else:
        layers = f"top {args.order + 1} layers"
    _table(args.format, lambda: {"depth": args.order, "dimensions": {str(w): d for w, d in ch}},
           lambda: ch, f"weight-space dimensions, {layers}", "weight,dimension",
           lambda w, d: f"{w}\t{d}")
    return 0


def _cmd_spectral(args) -> int:
    data = monodromy.spectral(parse_rep(args.rep), args.weight)
    _table(args.format, data.to_obj, lambda: data.eigen,
           f"kappa spectrum at weight {data.weight}, dimension {data.dimension}",
           "eigenvalue,multiplicity,max_block",
           lambda c, m, b: f"value {c}\tmultiplicity {m}\tmax block {b}")
    return 0


def _matrix_plain(mat) -> str:
    return " ; ".join(" ".join(map(str, row)) for row in mat)


def _cmd_jordan(args) -> int:
    expr = parse_rep(args.rep)
    n = len(rep.weight_space(expr, args.weight))  # refused before kappa is built
    if n > 2:
        raise UnsupportedInputError(
            f"jordan is defined for 1x1 and 2x2 weight spaces; dimension is {n}")
    wm = rep.kappa_matrix(expr, args.weight)
    if wm.dimension == 1:
        j = ((as_frac(wm.entries[0][0]),),)
        s = ((as_frac(1),),)
    else:
        j, s = monodromy.jordan_2x2(wm.entries)
    if args.format == "json":
        _emit_json({
            "weight": wm.weight,
            "basis": list(wm.labels),
            "jordan": [[rat_str(x) for x in row] for row in j],
            "basis_change": [[rat_str(x) for x in row] for row in s],
        })
    else:
        sys.stdout.write(f"# Jordan form at weight {wm.weight} (A = S J S^-1)\n"
                         f"J = {_matrix_plain(j)}\nS = {_matrix_plain(s)}\n")
    return 0


def _cmd_flat_section(args) -> int:
    fs = monodromy.flat_sections(parse_rep(args.rep), args.weight)
    if args.format == "json":
        _emit_json(fs.to_obj())
    else:
        sys.stdout.write(f"# flat section at weight {fs.weight}; terms (c, j) with matrices\n")
        for c, j, mat in fs.terms:
            sys.stdout.write(f"c={c} j={j}: {_matrix_plain(mat)}\n")
    return 0


def _cmd_multiplicities(args) -> int:
    params = _appell_lerch_options(args)
    coeffs = closed_forms.verma_multiplicities(params, args.order)
    _table(args.format, lambda: {"p": params.p, "coefficients": coeffs}, lambda: enumerate(coeffs),
           f"multiplicity coefficients a_k, k = 0..{args.order}", "k,a_k",
           lambda k, a: f"a_{k}\t{a}")
    return 0


def _cmd_compare(args) -> int:
    expr = parse_rep(args.rep)
    report = verify.compare_routes(f"compare[{pretty(expr)}]", expr, args.loops,
                                   _parse_order(args.order))
    _emit_report(report, args.format)
    return _report_exit([report])


def _cmd_conjecture(args) -> int:
    report = verify.test_conjecture1(_int_list(args.alphas), _int_list(args.betas),
                                     _int_list(args.gammas), args.loops, _parse_order(args.order))
    _emit_report(report, args.format)
    return _report_exit([report])


def _cmd_zeta_check(args) -> int:
    params = verify.ZetaCheckParams(
        s=args.s, loops=args.loops, t_min=args.t_min, t_max=args.t_max,
        n_max=args.n_max, nodes=args.nodes, tol=args.tol)
    report = verify.zeta_mellin_check(params)
    _emit_report(report, args.format)
    return _report_exit([report], args.allow_inconclusive)


def _cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks else None
    reports = verify.run_checks(names, seed=args.seed)
    if args.format == "json":
        _emit_json([r.to_obj() for r in reports])
    else:
        for r in reports:
            _emit_report(r, "plain")
    return _report_exit(reports, args.allow_inconclusive)


# ---------------------------------------------------------------------------
# argument surface


# built once per process: parse_args leaves the parser as it was
@functools.cache
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
    p.add_argument("--qmin", type=int, help="cone window: lowest q exponent")
    p.add_argument("--qmax", type=int, help="cone window: highest q exponent")
    p.add_argument("--x2max", type=int, help="cone window: highest x2 exponent")
    p.add_argument("--loops", type=int)
    p.add_argument("--order")
    p.add_argument("--format", choices=all_formats, default="plain")
    p.set_defaults(fn=_cmd_closed_form)

    p = sub.add_parser("character", help="weight-space dimensions down to a depth")
    p.add_argument("--rep", required=True, help="module expression, e.g. '(M0 + M-2)^2 x P'")
    p.add_argument("--order", type=int, default=20,
                   help="depth d: weights from top - 2d to top (default 20)")
    p.add_argument("--format", choices=all_formats, default="plain")
    p.set_defaults(fn=_cmd_character)

    p = sub.add_parser("spectral", help="exact kappa spectrum on one weight space")
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
    p.add_argument("--order", type=int, default=10, help="largest k to report")
    p.add_argument("--format", choices=all_formats, default="plain")
    p.set_defaults(fn=_cmd_multiplicities)

    p = sub.add_parser("compare", help="three-route equality check for one expression")
    common(p, formats=plain_json)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("conjecture", help="trace equality for one conjecture configuration")
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--gammas", required=True)
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
