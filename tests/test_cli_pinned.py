"""Every subcommand's stdout and exit code pinned byte for byte.

Each digest is the SHA-256 of, for every argv of its subcommand's corpus in
order and joined by NUL: the argv, the exit code and the stdout of
``cli.main(argv)``, with the wall-clock seconds of check reports masked.
The corpus runs every subcommand in every format it offers and sets every
option to a non-default value at least once; it also pins the exit codes
of a few refused inputs.  A change to the command line that is meant to
keep its output must leave every digest as it is."""

import hashlib
import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from casimir_trace.cli import main

CORPUS = {
    "trace": [
        ["trace", "--rep", "P x P", "--order", "8"],
        ["trace", "--rep", "(M0 + M-2)^2 x P", "--loops", "2", "--order", "9", "--format", "json"],
        ["trace", "--rep", "M-1 + L3", "--loops", "3", "--order", "15/2", "--format", "csv"],
        ["trace", "--rep", "M0 +", "--order", "4"],
        ["trace", "--rep", "M0", "--order", "1/0"],
    ],
    "trace-deformed": [
        ["trace-deformed", "--rep", "M0 x P", "--order", "6"],
        ["trace-deformed", "--rep", "P", "--loops", "2", "--order", "9", "--format", "json"],
        ["trace-deformed", "--rep", "M-2 + M0", "--order", "7/2", "--format", "csv"],
        ["trace-deformed", "--rep", "L2", "--order", "4"],
    ],
    "closed-form": [
        *(["closed-form", "--family", "jacobi-theta", "--loops", "2", "--order", "30",
           "--format", fmt] for fmt in ("plain", "json", "csv")),
        *(["closed-form", "--family", "partial-theta", "--kind", kind, "--order", "12",
           "--format", fmt]
          for kind, fmt in (("L0", "plain"), ("M0", "json"), ("Mminus2", "csv"),
                            ("M-2", "plain"), ("P", "json"))),
        ["closed-form", "--family", "partial-theta", "--kind", "P", "--loops", "3"],
        *(["closed-form", "--family", "appell-lerch-partial", "--alphas", alphas,
           "--betas", betas, "--format", fmt]
          for alphas, betas, fmt in (("1,1", "0,1", "plain"), ("2,3", "1,1", "json"),
                                     ("1,0,2", "0,1,1", "csv"))),
        ["closed-form", "--family", "appell-lerch-partial", "--alphas", "1,1", "--betas", "0,1",
         "--loops", "2", "--order", "11"],
        ["closed-form", "--family", "appell-lerch-cone"],
        *(["closed-form", "--family", "appell-lerch-cone", "--qmin", "-2", "--qmax", "6",
           "--x2max", "3", "--format", fmt] for fmt in ("plain", "json", "csv")),
        ["closed-form", "--family", "partial-theta"],
        ["closed-form", "--family", "appell-lerch-partial", "--alphas", "1,1"],
    ],
    "character": [
        ["character", "--rep", "P"],
        ["character", "--rep", "M0 + M1", "--order", "3", "--format", "json"],
        ["character", "--rep", "P x L1", "--order", "4", "--format", "csv"],
        ["character", "--rep", "M0 + M1", "--order", "2"],
    ],
    "spectral": [
        ["spectral", "--rep", "P x P", "--weight", "-8"],
        ["spectral", "--rep", "M-1 + L3", "--weight", "-3", "--format", "json"],
        ["spectral", "--rep", "M0 x M0", "--weight", "-6", "--format", "csv"],
        ["spectral", "--rep", "L3 x L1", "--weight", "2"],
        ["spectral", "--rep", "L3", "--weight", "5"],
    ],
    "jordan": [
        ["jordan", "--rep", "M0", "--weight", "-4"],
        ["jordan", "--rep", "P", "--weight", "-2", "--format", "json"],
        ["jordan", "--rep", "P", "--weight", "-4"],
        ["jordan", "--rep", "P x P", "--weight", "-4", "--format", "json"],
    ],
    "flat-section": [
        ["flat-section", "--rep", "P x M0", "--weight", "-4"],
        ["flat-section", "--rep", "M0 x M0", "--weight", "-2", "--format", "json"],
    ],
    "multiplicities": [
        ["multiplicities", "--alphas", "2,3", "--betas", "1,1"],
        ["multiplicities", "--alphas", "1,2,1", "--betas", "0,1,2", "--order", "6", "--format", "json"],
        ["multiplicities", "--alphas", "1,1", "--betas", "0,1", "--order", "4", "--format", "csv"],
        ["multiplicities", "--alphas", "1", "--betas", "0"],
        ["multiplicities", "--alphas", "2,x", "--betas", "1,1"],
    ],
    "compare": [
        ["compare", "--rep", "(M0 + P) x (M-2 + P)", "--order", "8"],
        ["compare", "--rep", "M0 x P", "--loops", "2", "--order", "10", "--format", "json"],
        ["compare", "--rep", "M0 x L1", "--order", "4"],
    ],
    "conjecture": [
        ["conjecture", "--alphas", "0,2", "--betas", "2,2", "--gammas", "0,1", "--order", "10"],
        ["conjecture", "--alphas", "1,0", "--betas", "0,0", "--gammas", "0,1", "--loops", "2",
         "--order", "8", "--format", "json"],
        ["conjecture", "--alphas", "1", "--betas", "1", "--gammas", "1,0"],
    ],
    "zeta-check": [
        ["zeta-check"],
        ["zeta-check", "--s", "4", "--loops", "2", "--format", "json"],
        ["zeta-check", "--s", "3", "--t-max", "10", "--n-max", "150", "--nodes", "20",
         "--tol", "1e-4", "--format", "json"],
        ["zeta-check", "--s", "2", "--t-min", "0.01"],
        ["zeta-check", "--s", "2", "--t-min", "0.01", "--allow-inconclusive", "--format", "json"],
    ],
    "verify": [
        ["verify"],
        ["verify", "--checks", "table2,multiplicities", "--seed", "7", "--format", "json"],
        ["verify", "--checks", "zeta,theorem1", "--allow-inconclusive"],
        ["verify", "--checks", "nope"],
    ],
}

DIGESTS = {
    "trace": "f8c6bd1b8c7d78a3ad3f9705c81efd24982379cb521527182455069d11632526",
    "trace-deformed": "64f84d9c40e38ead01d4a1272e974ae7e5e25380f21e69ab41f81ba7499d7f07",
    "closed-form": "85b749372c68394a1bb9927c16715cb8bb0812aa2311cfbf62bb59631acb4c4c",
    "character": "08f4bdfebdd3fbb9fd640bfab05a961fe4b78a7c5e99cf5c0c3e45af1c85e364",
    "spectral": "a39d83ce81da359c6eb1b1bfd8f48fcb5396a3b0979fa9b6c4e0ec56e38adab3",
    "jordan": "0b248d88884d45234812044b5354370c266a3786ce1eb807a0cee3b431a3b6c4",
    "flat-section": "0bdd2d3dc507b5a7c52f24b699b90133d912ff744338db9560c172444e2639c2",
    "multiplicities": "22fc14c9b368b15e3a5a93e4e01fc81c6c4ab9a2c36d076b43aef2fee5a130c5",
    "compare": "e764ce09f0c3675df38e1b8e7046358fb2944a99bedc4b6faca99d7fa18cd19b",
    "conjecture": "ccbdd1f9c934e98ec06a8514468731c80a368040dd52e374dfb136027028b4a1",
    "zeta-check": "4b5b130d328ac848957c658c5135fbc4183daf91dde747f40cd6127026911f8d",
    "verify": "da680cc5819d41ac7c85a97af8e1fae5f4f810f2542cd89aa8378560ad34be3a",
}


def _digest(argvs) -> str:
    parts = []
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        stdout = re.sub(r'"seconds":[^,}]*', '"seconds":null', out.getvalue())
        stdout = re.sub(r"\[\d+\.\d\ds\]", "[seconds]", stdout)
        parts += [" ".join(argv), str(code), stdout]
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("command", CORPUS)
def test_cli_output_is_pinned(command):
    assert _digest(CORPUS[command]) == DIGESTS[command]
