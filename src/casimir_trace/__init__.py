"""Exact monodromy traces of the sl(2) Casimir connection.

The package computes, in exact rational arithmetic, graded traces of the
monodromy of the (truncated) Casimir connection on lowest-weight modules,
and compares them against classical q-series: theta constants, partial
theta functions, and partial Appell-Lerch sums.

Quick start::

    from casimir_trace import parse_rep, trace_series
    s = trace_series(parse_rep("M0 x M0"), loops=1, order=10)
    print(s)
"""

from .closed_forms import (
    AppellLerchParams,
    ConeWindow,
    appell_lerch_cone,
    jacobi_theta,
    partial_appell_lerch,
    partial_theta,
    verma_multiplicities,
)
from .errors import (
    DomainError,
    InvariantError,
    ParseError,
    PrecisionError,
    UnsupportedInputError,
)
from .kernel import backend_name
from .monodromy import (
    MonodromyMatrix,
    flat_sections,
    jordan_2x2,
    monodromy_matrix,
    spectral,
    trace_deformed,
    trace_series,
    trace_via_decomposition,
)
from .rep import (
    BigP,
    DirectSum,
    Irr,
    Power,
    Tensor,
    Verma,
    character,
    hwv_count,
    kappa_matrix,
    weight_space,
)
from .series import BiSeries, QSeries, series_eq
from .verify import (
    CheckReport,
    ZetaCheckParams,
    run_checks,
    test_conjecture1,
    zeta_mellin_check,
)

__version__ = "0.1.0"

# The command-line names load on first use, so that ``python -m
# casimir_trace.cli`` does not find the module already imported by the
# package and run a second copy of it.
_CLI_NAMES = ("main", "parse_rep", "pretty")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AppellLerchParams",
    "BiSeries",
    "BigP",
    "CheckReport",
    "ConeWindow",
    "DirectSum",
    "DomainError",
    "InvariantError",
    "Irr",
    "MonodromyMatrix",
    "ParseError",
    "Power",
    "PrecisionError",
    "QSeries",
    "Tensor",
    "UnsupportedInputError",
    "Verma",
    "ZetaCheckParams",
    "appell_lerch_cone",
    "backend_name",
    "character",
    "flat_sections",
    "hwv_count",
    "jacobi_theta",
    "jordan_2x2",
    "kappa_matrix",
    "main",
    "monodromy_matrix",
    "parse_rep",
    "partial_appell_lerch",
    "partial_theta",
    "pretty",
    "run_checks",
    "series_eq",
    "spectral",
    "test_conjecture1",
    "trace_deformed",
    "trace_series",
    "trace_via_decomposition",
    "verma_multiplicities",
    "weight_space",
    "zeta_mellin_check",
]
