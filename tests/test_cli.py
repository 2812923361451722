import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_trace import rep, verify
from casimir_trace.cli import main, parse_rep, pretty
from casimir_trace.errors import ParseError


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parse_atoms():
    assert parse_rep("M0") == rep.Verma(0)
    assert parse_rep("M-2") == rep.Verma(-2)
    assert parse_rep("M-13") == rep.Verma(-13)
    assert parse_rep("L3") == rep.Irr(3)
    assert parse_rep("P") == rep.BigP()


def test_parse_precedence():
    # ^ binds tighter than x, x tighter than +
    e = parse_rep("M0 + M-2 x P")
    assert e == rep.DirectSum((rep.Verma(0), rep.Tensor((rep.Verma(-2), rep.BigP()))))
    e2 = parse_rep("(M0 + M-2)^2 x P")
    assert e2 == rep.Tensor((rep.Power(rep.DirectSum((rep.Verma(0), rep.Verma(-2))), 2), rep.BigP()))
    e3 = parse_rep("M0 x M0")
    assert e3 == rep.Tensor((rep.Verma(0), rep.Verma(0)))


def test_parse_whitespace_insensitive():
    assert parse_rep("M0xM-2") == parse_rep("M0 x M-2")
    assert parse_rep("  ( P )  ") == rep.BigP()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_rep("M0 +")
    assert "column 5" in str(ei.value)
    with pytest.raises(ParseError):
        parse_rep("M0 ++ P")
    with pytest.raises(ParseError):
        parse_rep("Q0")
    with pytest.raises(ParseError):
        parse_rep("M0 x")
    with pytest.raises(ParseError):
        parse_rep("(M0")
    with pytest.raises(ParseError):
        parse_rep("L-1")
    with pytest.raises(ParseError):
        parse_rep("M0 ^ 0")
    with pytest.raises(ParseError):
        parse_rep("M0 P")


# Trees in parser-canonical shape: a DirectSum appears below another node only
# where pretty prints parentheses (Tensor factor, Power base), never directly
# under a DirectSum (pretty flattens nested sums; same module either way).
LEAF = st.one_of(
    st.integers(-9, 9).map(rep.Verma),
    st.integers(0, 5).map(rep.Irr),
    st.just(rep.BigP()),
)
PAREN_SUM = st.deferred(lambda: st.lists(SUMMAND, min_size=2, max_size=2).map(lambda ps: rep.DirectSum(tuple(ps))))
FACTOR = st.one_of(
    LEAF,
    PAREN_SUM,
    st.tuples(st.one_of(LEAF, PAREN_SUM), st.integers(1, 3)).map(lambda t: rep.Power(*t)),
)
TENSOR = st.lists(FACTOR, min_size=2, max_size=3).map(lambda ps: rep.Tensor(tuple(ps)))
SUMMAND = st.one_of(
    LEAF,
    st.tuples(st.one_of(LEAF, PAREN_SUM, TENSOR), st.integers(1, 3)).map(lambda t: rep.Power(*t)),
    TENSOR,
)
EXPR = st.one_of(
    SUMMAND,
    PAREN_SUM,
    st.lists(SUMMAND, min_size=2, max_size=3).map(lambda ps: rep.DirectSum(tuple(ps))),
)


@given(EXPR)
@settings(max_examples=200, deadline=None)
def test_pretty_parse_roundtrip(expr):
    assert parse_rep(pretty(expr)) == expr


def test_pretty_flattens_nested_sum():
    nested = rep.DirectSum((rep.BigP(), rep.DirectSum((rep.Verma(0), rep.Verma(0)))))
    text = pretty(nested)
    assert text == "P + M0 + M0"
    flat = parse_rep(text)
    assert flat == rep.DirectSum((rep.BigP(), rep.Verma(0), rep.Verma(0)))
    assert pretty(flat) == text


def test_frozen_trace_json():
    code, out, err = run(["trace", "--rep", "M0", "--loops", "1", "--order", "5", "--format", "json"])
    assert code == 0
    assert out == '{"variable":"q","order":"5","terms":[["0","1/1"],["1","1/1"],["4","1/1"]]}\n'


def test_byte_determinism():
    argv = ["verify", "--checks", "theorem1", "--format", "json"]
    a = run(argv)
    b = run(argv)
    assert a[0] == b[0] == 0
    ja, jb = json.loads(a[1]), json.loads(b[1])
    for r in (ja, jb):
        for item in r:
            item.pop("seconds")
    assert ja == jb
    c = run(["trace", "--rep", "P x P", "--order", "6", "--format", "json"])
    d = run(["trace", "--rep", "P x P", "--order", "6", "--format", "json"])
    assert c == d


@pytest.mark.parametrize("text, message", [
    ("M²", "expected an integer after 'M' (column 1"),
    ("L²", "expected a non-negative integer after 'L' (column 1"),
    ("P^²", "unexpected character '²' (column 3"),
])
def test_superscript_digits_are_a_parse_error(text, message):
    # numbers are decimal digits, the characters int() reads
    code, out, err = run(["character", "--rep", text, "--order", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: " + message)


def test_other_decimal_digits_parse():
    assert parse_rep("M\u0663 x P") == parse_rep("M3 x P")  # ARABIC-INDIC DIGIT THREE


def test_exit_code_parse_error():
    code, out, err = run(["trace", "--rep", "M0 +", "--order", "4"])
    assert code == 2
    assert "column 5" in err


def test_exit_code_usage_error():
    code, _, err = run(["trace", "--rep", "M0", "--order", "x"])
    assert code == 2
    code2, _, _ = run(["trace", "--rep", "M0", "--loops", "0"])
    assert code2 == 2
    code3, _, _ = run(["nonsense"])
    assert code3 == 2


def test_parser_is_built_once_and_still_reports_to_the_redirected_stderr():
    from casimir_trace import cli

    cli._build_parser.cache_clear()
    assert run(["character", "--rep", "P", "--order", "2"])[0] == 0
    code, out, err = run(["character", "--rep", "P", "--bogus"])
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --bogus" in err


def test_exit_code_unsupported():
    code, _, err = run(["trace-deformed", "--rep", "L2", "--order", "4"])
    assert code == 3
    code2, _, err2 = run(["jordan", "--rep", "P x P", "--weight", "-4"])
    assert code2 == 3
    code3, _, _ = run(["compare", "--rep", "M0 x L1", "--order", "4"])
    assert code3 == 3
    code4, _, _ = run(["compare", "--rep", "M0", "--order", "4"])
    assert code4 == 3


def test_exit_code_check_failure():
    code, out, _ = run(["zeta-check", "--s", "2", "--t-min", "0.01"])
    assert code == 1  # inconclusive without the flag
    code2, _, _ = run(["zeta-check", "--s", "2", "--t-min", "0.01", "--allow-inconclusive"])
    assert code2 == 0


@pytest.mark.parametrize("option, cap", [("--nodes", verify.ZETA_NODES_MAX),
                                         ("--n-max", verify.ZETA_N_MAX)])
def test_zeta_check_refuses_past_its_size_caps(option, cap):
    code, out, err = run(["zeta-check", option, str(cap + 1)])
    assert (code, out) == (3, "")
    assert "above the cap" in err


@pytest.mark.parametrize("argv", [
    ["jordan", "--rep", "P", "--weight", "-2"],
    ["flat-section", "--rep", "P", "--weight", "-2"],
    ["compare", "--rep", "(M0 + P) x (M-2 + P)", "--order", "4"],
    ["conjecture", "--alphas", "1", "--betas", "1", "--gammas", "1", "--order", "4"],
    ["zeta-check", "--s", "2"],
    ["verify", "--checks", "zeta"],
], ids=lambda argv: argv[0])
def test_csv_is_refused_where_not_implemented(argv):
    code, out, err = run(argv + ["--format", "csv"])
    assert code == 2
    assert out == ""
    assert "invalid choice: 'csv'" in err


def test_trace_csv_shape():
    code, out, _ = run(["trace", "--rep", "M0", "--order", "5", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exponent,numerator,denominator"
    assert lines[1] == "0,1,1"
    assert lines[-1] == "4,1,1"


def test_trace_deformed_json():
    code, out, _ = run(["trace-deformed", "--rep", "M0", "--order", "5", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["variables"] == ["q", "x"]
    assert ["1", "1", "1/1"] in obj["terms"]


def test_jordan_1x1_passthrough():
    code, out, _ = run(["jordan", "--rep", "M0", "--weight", "-4", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["jordan"] == [["-8/1"]]
    assert obj["basis_change"] == [["1/1"]]


def test_jordan_2x2_cli():
    code, out, _ = run(["jordan", "--rep", "P", "--weight", "-2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["jordan"] == [["-2/1", "2/1"], ["0/1", "-2/1"]]


def test_spectral_json():
    code, out, _ = run(["spectral", "--rep", "P", "--weight", "-6", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["eigen"] == [{"value": -18, "multiplicity": 2, "max_block": 2}]


def test_closed_form_partial_theta_cli():
    code, out, _ = run(["closed-form", "--family", "partial-theta", "--kind", "M-2",
                        "--loops", "2", "--order", "10", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [["2", "2", "1/1"], ["8", "4", "1/1"]]


def test_compare_cli_matches_routes():
    code, out, _ = run(["compare", "--rep", "M0 x P", "--order", "10", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert obj["extras"]["alphas"] == [1, 1]
    assert obj["extras"]["betas"] == [0, 1]


def test_conjecture_cli():
    code, out, _ = run(["conjecture", "--alphas", "1,0", "--betas", "0,0",
                        "--gammas", "0,1", "--order", "12", "--format", "json"])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_multiplicities_cli():
    code, out, _ = run(["multiplicities", "--alphas", "2,3", "--betas", "1,1",
                        "--order", "6", "--format", "json"])
    assert code == 0
    assert json.loads(out)["coefficients"] == [6, 11, 12, 12, 12, 12, 12]


def test_character_plain():
    code, out, _ = run(["character", "--rep", "P", "--order", "2"])
    assert code == 0
    assert "0\t1" in out and "-2\t2" in out


def test_character_lists_both_parities():
    # branch tops 0 and 1: every weight from 1 down to 1 - 2*2 is populated
    code, out, _ = run(["character", "--rep", "M0 + M1", "--order", "2"])
    assert code == 0
    assert out.splitlines() == ["# weight-space dimensions, weights 1 down to -3",
                                "1\t1", "0\t1", "-1\t1", "-2\t1", "-3\t1"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--all"], "unrecognized arguments: --all"),   # not --allow-inconclusive
    (["character", "--rep", "P", "--loops", "7"], "unrecognized arguments: --loops 7"),
    (["character", "--rep", "P", "--order", "7/2"], "invalid int value: '7/2'"),
    (["zeta-check", "--allow"], "unrecognized arguments: --allow"),  # no prefix matching
    (["spectral", "--rep", "P", "--weight", "-2", "--loops", "2"],
     "unrecognized arguments: --loops 2"),
    (["jordan", "--rep", "P", "--weight", "-2", "--order", "5"],
     "unrecognized arguments: --order 5"),
    (["flat-section", "--rep", "P", "--weight", "-2", "--loops", "2", "--order", "5"],
     "unrecognized arguments: --loops 2 --order 5"),
    (["multiplicities", "--alphas", "2,3", "--betas", "1,1", "--order", "abc"],
     "invalid int value: 'abc'"),
    # p is the number of --alphas entries minus one; there is no --p
    (["multiplicities", "--alphas", "2,3", "--betas", "1,1", "--p", "1"],
     "unrecognized arguments: --p 1"),
    (["closed-form", "--family", "appell-lerch-partial", "--alphas", "1,1", "--betas", "0,1",
      "--p", "1"], "unrecognized arguments: --p 1"),
    (["conjecture", "--alphas", "1,0", "--betas", "0,0", "--gammas", "0,1", "--p", "1"],
     "unrecognized arguments: --p 1"),
])
def test_removed_flags_are_refused(argv, message):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, option", [
    (["closed-form", "--family", "jacobi-theta", "--kind", "P", "--qmin", "3", "--order", "5"],
     "--kind"),
    (["closed-form", "--family", "appell-lerch-partial", "--alphas", "1,1", "--betas", "0,1",
      "--kind", "P"], "--kind"),
    (["closed-form", "--family", "partial-theta", "--kind", "P", "--alphas", "1,1"], "--alphas"),
    (["closed-form", "--family", "jacobi-theta", "--betas", "0,1"], "--betas"),
    # the cone window's own default, given to another family
    (["closed-form", "--family", "partial-theta", "--kind", "P", "--qmin", "-4"], "--qmin"),
    (["closed-form", "--family", "appell-lerch-partial", "--alphas", "1,1", "--betas", "0,1",
      "--qmax", "6"], "--qmax"),
    (["closed-form", "--family", "jacobi-theta", "--x2max", "2"], "--x2max"),
    (["closed-form", "--family", "appell-lerch-cone", "--loops", "5", "--order", "3"], "--loops"),
    (["closed-form", "--family", "appell-lerch-cone", "--order", "3"], "--order"),
])
def test_closed_form_refuses_options_its_family_ignores(argv, option):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert f"{option} does not apply to --family {argv[2]}" in err


def test_module_entry_point_runs_once():
    # importing the package must not load the cli module ahead of runpy
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "casimir_trace.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
