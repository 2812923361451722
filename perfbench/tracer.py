"""Spans around calls into casimir_trace, installed from outside the package.

Each target is a module attribute (a function, or a method reached through
its class).  ``install`` replaces the attribute with a timing wrapper in
every loaded casimir_trace module that holds the same object, so copies a
module imported by name (``from .rep import kappa_flat``) are wrapped too.
A target that a later version no longer has is listed in ``absent`` and
skipped.

Durations are CPU time of the process, as in worker.py.  A span's self
time is its duration minus the time of the wrapped calls
nested in it.  ``layer_s`` sums, per layer, the spans whose parent span
belongs to another layer, so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "casimir_trace"

# (layer, module, dotted attribute, span name)
TARGETS = [
    ("cli", "cli", "main", "cli.main"),
    ("kernel", "kernel", "integer_spectrum", "kernel.integer_spectrum"),
    ("kernel", "kernel", "nullity_mod", "kernel.nullity_mod"),
    ("kernel", "<backend>", "charpoly_mod", "kernel.charpoly_mod"),
    ("rep", "rep", "weight_space", "rep.weight_space"),
    ("rep", "rep", "kappa_flat", "rep.kappa_flat"),
    ("monodromy", "monodromy", "trace_series", "monodromy.trace_series"),
    ("monodromy", "monodromy", "trace_deformed", "monodromy.trace_deformed"),
    ("monodromy", "monodromy", "_branch_spectrum", "monodromy.branch_spectrum"),
    ("monodromy", "monodromy", "spectral", "monodromy.spectral"),
    ("monodromy", "monodromy", "spectral_components", "monodromy.spectral_components"),
    ("monodromy", "monodromy", "monodromy_matrix", "monodromy.monodromy_matrix"),
    ("monodromy", "monodromy", "flat_sections", "monodromy.flat_sections"),
    ("monodromy", "monodromy", "FlatSectionExpr.check_ode", "monodromy.check_ode"),
    ("monodromy", "monodromy", "FlatSectionExpr.check_monodromy", "monodromy.check_monodromy"),
    ("monodromy", "monodromy", "trace_via_decomposition", "monodromy.trace_via_decomposition"),
    ("verify", "verify", "zeta_mellin_check", "verify.zeta_mellin_check"),
    # spans with no metric of their own keep their work out of cli.self_s
    ("verify", "verify", "test_conjecture1", "verify.test_conjecture1"),
    ("verify", "verify", "_three_routes", "verify.three_routes"),
] + [
    ("linalg", "linalg", name, f"linalg.{name}")
    for name in ("rank_int", "rref", "nullspace", "mat_mul", "mat_identity",
                 "mat_inverse", "mat_sub_scalar", "mat_from_int")
] + [
    ("closed_forms", "closed_forms", name, f"closed_forms.{name}")
    for name in ("jacobi_theta", "partial_theta", "partial_appell_lerch",
                 "appell_lerch_cone", "verma_multiplicities")
]


class Tracer:
    """Span totals and counters for one process; ``enabled`` is switched
    off while the benchmark checks outputs."""

    def __init__(self):
        self.enabled = True
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [layer, child seconds]

    def wrap(self, layer: str, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [layer, 0.0]
            self._stack.append(frame)
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.process_time() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if parent is None or parent[0] != layer:
                    self.layer_s[layer] += dt
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced


def _charpoly_ops(tracer: Tracer, args, _result) -> None:
    n = args[1]
    tracer.counts["charpoly_mod_ops"] += n ** 3


def _spectrum_level(tracer: Tracer, _args, result) -> None:
    tracer.counts["exact_spectra" if result[1] else "certified_spectra"] += 1


def _max_dim(tracer: Tracer, _args, result) -> None:
    tracer.counts["max_dim"] = max(tracer.counts["max_dim"], result[0])


HOOKS = {
    "kernel.charpoly_mod": _charpoly_ops,
    "kernel.integer_spectrum": _spectrum_level,
    "rep.kappa_flat": _max_dim,
}


def _resolve(module: str):
    if module == "<backend>":
        kernel = importlib.import_module(f"{PACKAGE}.kernel")
        return getattr(kernel, "BACKEND", None)
    try:
        return importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; record the names that do not."""
    for layer, module, attr, name in TARGETS:
        owner = _resolve(module)
        *path, last = attr.split(".")
        for step in path:
            owner = getattr(owner, step, None)
        orig = getattr(owner, last, None) if owner is not None else None
        if orig is None:
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(layer, name, orig, HOOKS.get(name))
        setattr(owner, last, wrapped)
        if path:
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """The per-layer metrics of one traced round; None marks a metric whose
    wrapped names this version of the program does not have."""
    def missing(spans):
        return all(s in tracer.absent for s in spans)

    def summed(table, *spans):
        return None if missing(spans) else sum(table[s] for s in spans)

    def count(key, span):
        return None if missing([span]) else tracer.counts[key]

    def layer(name):
        spans = [t[3] for t in TARGETS if t[0] == name]
        return None if missing(spans) else tracer.layer_s[name]

    linalg = [t[3] for t in TARGETS if t[0] == "linalg"]
    return {
        "kernel.charpoly_mod_calls": summed(tracer.calls, "kernel.charpoly_mod"),
        "kernel.charpoly_mod_s": summed(tracer.total_s, "kernel.charpoly_mod"),
        "kernel.charpoly_mod_ops": count("charpoly_mod_ops", "kernel.charpoly_mod"),
        "kernel.integer_spectrum_calls": summed(tracer.calls, "kernel.integer_spectrum"),
        "kernel.integer_spectrum_self_s": summed(tracer.self_s, "kernel.integer_spectrum"),
        "kernel.exact_spectra": count("exact_spectra", "kernel.integer_spectrum"),
        "kernel.certified_spectra": count("certified_spectra", "kernel.integer_spectrum"),
        "kernel.nullity_mod_s": summed(tracer.total_s, "kernel.nullity_mod"),
        "rep.weight_space_calls": summed(tracer.calls, "rep.weight_space"),
        "rep.weight_space_s": summed(tracer.total_s, "rep.weight_space"),
        "rep.kappa_flat_calls": summed(tracer.calls, "rep.kappa_flat"),
        "rep.kappa_flat_s": summed(tracer.total_s, "rep.kappa_flat"),
        "rep.max_dim": count("max_dim", "rep.kappa_flat"),
        "monodromy.trace_self_s": summed(
            tracer.self_s, "monodromy.trace_series", "monodromy.trace_deformed",
            "monodromy.branch_spectrum"),
        "monodromy.spectral_components_self_s": summed(
            tracer.self_s, "monodromy.spectral_components"),
        "monodromy.matrix_and_sections_self_s": summed(
            tracer.self_s, "monodromy.monodromy_matrix", "monodromy.flat_sections"),
        "monodromy.checks_s": summed(
            tracer.total_s, "monodromy.check_ode", "monodromy.check_monodromy"),
        "linalg.calls": summed(tracer.calls, *linalg),
        "linalg.s": layer("linalg"),
        "closed_forms.s": layer("closed_forms"),
        "monodromy.decomposition_s": summed(tracer.total_s, "monodromy.trace_via_decomposition"),
        "verify.zeta_s": summed(tracer.total_s, "verify.zeta_mellin_check"),
        "cli.self_s": summed(tracer.self_s, "cli.main"),
    }
