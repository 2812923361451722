"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
    python3 perfbench/worker.py --setup-only 1

Times the set-up (from the start of the process to importing casimir_trace
from ./src and building the command-line parser), then each operation of the
round, checking each output off the clock.  Times are the CPU time of this
process: the program is single-threaded and does no I/O, so that is the wall
time it takes on an idle core, without the cycles other tenants of a shared
machine take from it.

A shared machine also changes speed: the same CPU-bound code runs up to 1.6
times slower for stretches of seconds to minutes, as other tenants load the
host.  So a fixed piece of pure-Python work (``calibrate``) is timed right
before and right after each operation and around the set-up, and every
reported time is the measured CPU time scaled by CALIBRATION_REF_S over the
mean time of that work there: seconds on a machine on which it takes
CALIBRATION_REF_S.  It calls nothing of casimir_trace, so a change to the
program moves only the measured time, not the scale.  The unscaled CPU times
are reported too.

With --trace 1 it first wraps the package's functions (tracer.py) and reports
their spans, in unscaled CPU seconds.  The last line of standard output is
one JSON object; run.py reads it.
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CALIBRATION_REF_S = 0.0014  # about its median on the reference machine (README.md)
_CAL_MATRIX = [[(31 * i + 17 * j) % 1000 for j in range(16)] for i in range(16)]


def calibrate() -> float:
    """CPU seconds of a fixed mix of pure-Python work of the kinds the program
    does (integer arithmetic, Fraction arithmetic, a matrix product mod p):
    the machine's speed right now."""
    t0 = time.process_time()
    x = 0
    for i in range(6000):
        x += i * i % 7
    s = Fraction(0)
    for i in range(1, 121):
        s += Fraction(i % 5 + 1, i % 97 + 1)
    m = _CAL_MATRIX
    [[sum(a * b for a, b in zip(row, col)) % 1_000_003 for col in zip(*m)] for row in m]
    return time.process_time() - t0


def scaled(cpu_s: float, *calibrations_s: float) -> float:
    """``cpu_s`` at the machine speed on which ``calibrate`` takes CALIBRATION_REF_S."""
    return cpu_s * CALIBRATION_REF_S * len(calibrations_s) / sum(calibrations_s)


def _set_up():
    """Import the program from this checkout and make it ready to run."""
    sys.path.insert(0, str(SRC))
    import contextlib
    import io

    import casimir_trace

    if not Path(casimir_trace.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"casimir_trace imported from {casimir_trace.__file__}, not {SRC}")
    with contextlib.redirect_stdout(io.StringIO()):
        casimir_trace.main(["--help"])  # builds the parser
    return casimir_trace


def main(argv: list[str]) -> int:
    before = calibrate()
    ct = _set_up()
    setup_s = scaled(time.process_time() - before, before, calibrate())

    import gc
    import json
    import resource

    import tracer as tracing
    import workloads

    opts = dict(zip(argv[::2], argv[1::2]))
    result = {"setup_s": setup_s, "backend": ct.backend_name()}
    if opts.get("--setup-only") != "1":
        ops = workloads.build(opts["--workload"], int(opts["--seed"]), ct)
        tracer = None
        if opts.get("--trace") == "1":
            tracer = tracing.Tracer()
            tracing.install(tracer)
        times, cpu_times, failures = [], [], []
        for op in ops:
            # the checks are the benchmark's own garbage: collect it off the
            # clock, so no operation pays for the check before it
            gc.collect()
            before = calibrate()
            t0 = time.process_time()
            try:
                value, error = op.call(ct), None
            except Exception as exc:  # the operation failed; record it and go on
                value, error = None, exc
            cpu_times.append(time.process_time() - t0)
            times.append(scaled(cpu_times[-1], before, calibrate()))
            if error is not None:
                failures.append(f"{op.name}: {type(error).__name__}: {error}")
                continue
            if tracer is not None:
                tracer.enabled = False
            try:
                bad = op.check(ct, value)
            except Exception as exc:  # a check that raises is a failed check
                bad = f"check raised {type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.enabled = True
            if bad:
                failures.append(f"{op.name}: {bad}")
        result.update(op_s=times, op_cpu_s=cpu_times, failures=failures)
        if tracer is not None:
            result.update(layers=tracing.layer_metrics(tracer), absent=tracer.absent)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
