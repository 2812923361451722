"""Benchmark of casimir_trace: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload trace-cli --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Each round of the workload's operations
runs in its own fresh, single-threaded process (worker.py) with every
CASIMIR_TRACE_* variable unset, so the process-global branch-spectrum cache
starts empty and the default backend and thresholds apply.  Rounds repeat
until --seconds have passed; a round always runs to its end.

--trace 0 reports the end-to-end metrics: setup_s, run_s, op_p50_s and
peak_rss_mb; times are CPU seconds scaled to a reference machine speed,
measured by a calibration loop around each operation (worker.py).  --trace 1 alternates traced and untraced rounds and reports the
per-layer metrics of the traced ones, with trace.overhead_s, the difference
in run time between them.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5  # extra set-up-only processes per run, for a steadier setup_s
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernel.charpoly_mod_calls": "count",
    "kernel.charpoly_mod_s": "s",
    "kernel.charpoly_mod_ops": "ops",
    "kernel.integer_spectrum_calls": "count",
    "kernel.integer_spectrum_self_s": "s",
    "kernel.exact_spectra": "count",
    "kernel.certified_spectra": "count",
    "kernel.nullity_mod_s": "s",
    "rep.weight_space_calls": "count",
    "rep.weight_space_s": "s",
    "rep.kappa_flat_calls": "count",
    "rep.kappa_flat_s": "s",
    "rep.max_dim": "rows",
    "monodromy.trace_self_s": "s",
    "monodromy.spectral_components_self_s": "s",
    "monodromy.matrix_and_sections_self_s": "s",
    "monodromy.checks_s": "s",
    "linalg.calls": "count",
    "linalg.s": "s",
    "closed_forms.s": "s",
    "monodromy.decomposition_s": "s",
    "verify.zeta_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CASIMIR_TRACE_")}
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str]) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)] + args, cwd=ROOT, env=_worker_env(),
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    setups = [_worker(["--setup-only", "1"])["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < (2 if traced else 1) or time.perf_counter() < deadline:
        trace_this = traced and len(rounds) % 2 == 0
        r = _worker(["--workload", workload, "--seed", str(seed),
                     "--trace", "1" if trace_this else "0"])
        r["traced"] = trace_this
        rounds.append(r)
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    attempted = sum(len(r["op_s"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    run_s = [sum(r["op_s"]) for r in plain]
    print(f"{workload} seed {seed}: {len(rounds)} rounds of {len(rounds[0]['op_s'])} operations, "
          f"backend {rounds[0]['backend']}, round run_s {[round(x, 3) for x in run_s]}, "
          f"unscaled CPU s {[round(sum(r['op_cpu_s']), 3) for r in plain]}",
          file=sys.stderr)
    if not traced:
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "run_s": statistics.median(run_s),
            "op_p50_s": statistics.median(t for r in plain for t in r["op_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    else:
        layered = [r for r in rounds if r["traced"]]
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            values = [r["layers"][name] for r in layered]
            if None in values:
                print(f"absent: {name}", file=sys.stderr)
            else:
                metrics[name] = statistics.median(values)
        if layered[0]["absent"]:
            print(f"wrapped names the program lacks: {layered[0]['absent']}", file=sys.stderr)
        metrics["trace.overhead_s"] = (
            statistics.median(sum(r["op_s"]) for r in layered) - statistics.median(run_s))
        units = PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "casimir_trace" / "__init__.py").is_file():
        print(f"no casimir_trace sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
