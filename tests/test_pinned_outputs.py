"""Flat sections and monodromy matrices pinned byte for byte.

Each digest is the SHA-256 of, joined by NUL: the compact JSON of
flat_sections(expr, w).to_obj(), of monodromy_matrix(expr, w, l).to_obj()
for l = 1, 2, 3, and the stdout of ``flat-section --format json`` and
``--format plain``.  The spaces are those the exact-monodromy benchmark
workload decomposes, P at -2 to -8, and three larger spaces (n = 24, 32
and 66) where the nullspace bases and denominators are no longer small.
A change to how the decomposition is built or stored must leave every
digest as it is.

The stdout of ``verify --checks table1 --format json`` is pinned the same
way, with each report's wall-clock ``seconds`` masked; that check runs
check_monodromy on the first weight spaces of every table-1 row."""

import hashlib
import io
import json
import re
from contextlib import redirect_stdout

import pytest

from casimir_trace import monodromy
from casimir_trace.cli import main, parse_rep

PINNED = [
    ("M0 x M0", -14, "7645cdfe4cf0321864a59193f4ccfc3c640634c03905d22fca3cfb96c097c350"),
    ("P x L1", -9, "8fb05656eece9b1cfad572a12035e6f06e7fe309b9d27d9f15121d15801f4802"),
    ("M0 x L2", -8, "2b6556391280432bd1dbc0956fc672829a876c7c92a629d6ff3a5f20953079f4"),
    ("P x M0", -8, "00b278258150af28d7acb2d3671f8b7e746d0c8636ab6f080958228daf896b39"),
    ("P^2", -8, "1e0a4ffe196ab3b8a2433c76c888bc53c74a21944ee95cb0524435d89e654222"),
    ("(M0 + M-2)^2", -6, "6ff2bd34a13b3ef3b5ebe7b837c038f38b15a0598e405a0d2bdf6eb77316e05f"),
    ("M0 x M-2", -16, "bd17514d7e296f7b4125994b1f96686229059e4a2f8d2e1496e826a7fbc5736b"),
    ("P x P", -6, "dc57865b610972ce9d0e94bbd6f6a65df16d00aa270c33b59aece2e71f6f48c3"),
    ("M-1 + L3", -3, "ea89bf83686e950a12f45a26560131424a0f618787cf22d00b916979666e7ae5"),
    ("P + M0", -10, "52c83d6dcc23c6f639d2f27c58fd317d100257f328ee3f57ac1cecc8e6e3d6e1"),
    ("P x M-2", -10, "c285488f11a82cfa80b2302fd412c3fbf5b0a4d15c11f15a5dfb470812b82a93"),
    ("M0 x M0 x M0", -4, "44b85b32044672c01cecfad6e9284e045e5beaf22e8e32103215208329a351bd"),
    ("P", -2, "7f500a011ceb3a342bbc747becbf8bc5f4e0960726b8ab2f5f7377486a6d0c16"),
    ("P", -4, "60cb9aaedf62756041cdf9fcac84068bae2812235e3d6d2f3fe425818e14a85a"),
    ("P", -6, "23b3298cf45845c75b1e3b3672d66a8e5f4b3c58069242f7806e8aa2faceb1af"),
    ("P", -8, "5b087fb276769baca420567bf90ff95e8760716f61e89cea3dbcbf7fdf63d4c7"),
    ("P x P", -12, "930c86f3bf29278f2352177d68c5963d8d24045dc6d6ee426138e04819adbaa6"),
    ("P x P", -16, "8722bc96ce4776db80d74825bf61f7924c8f203b4879a584a5a52f920986f502"),
    ("P x P x P", -8, "d0cce5368b2716a8c21f02b034b88b0f63ee33cc5db83c95b414829ff5854c1f"),
]


def _digest(text: str, w: int) -> str:
    expr = parse_rep(text)
    parts = [json.dumps(monodromy.flat_sections(expr, w).to_obj(), separators=(",", ":"))]
    parts += [json.dumps(monodromy.monodromy_matrix(expr, w, l).to_obj(), separators=(",", ":"))
              for l in (1, 2, 3)]
    for fmt in ("json", "plain"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["flat-section", "--rep", text, "--weight", str(w), "--format", fmt]) == 0
        parts.append(out.getvalue())
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("text, w, digest", PINNED)
def test_flat_sections_and_monodromy_are_pinned(text, w, digest):
    assert _digest(text, w) == digest


TABLE1 = "233e6d856c09dcda247c9569709bdd7ce50a1ca48f1b02fce61eeb5f811e7d61"


def test_verify_table1_is_pinned():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify", "--checks", "table1", "--format", "json"]) == 0
    masked = re.sub(r'"seconds":[^,}]*', '"seconds":null', out.getvalue())
    assert hashlib.sha256(masked.encode()).hexdigest() == TABLE1
