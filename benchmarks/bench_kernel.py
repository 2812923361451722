"""Compare the compiled and pure-Python kernels on representative work.

Times modular characteristic polynomials on the actual matrices the trace
pipeline produces (kappa on weight spaces of tensor powers of P), then a
full graded trace end to end.  The pure backend is skipped on matrices
where a single run would take minutes.

Run:  python benchmarks/bench_kernel.py [--order 12] [--deep]
"""

from __future__ import annotations

import argparse
import time

from casimir_trace import kernel, rep
from casimir_trace.monodromy import trace_series
from casimir_trace.series import as_frac

PURE_DIM_LIMIT = 260


def _timeit(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_charpoly(expr, w, label):
    n, flat = rep.kappa_flat(expr, w)
    p = kernel.PRIMES61[0]
    results = {}
    for name in ("compiled", "pure"):
        try:
            backend = kernel.get_backend(name)
        except Exception:
            print(f"  {label:30s} {name:8s}: unavailable", flush=True)
            continue
        if name == "pure" and n > PURE_DIM_LIMIT:
            print(f"  {label:30s} {name:8s}: skipped (n={n})", flush=True)
            continue
        repeat = 3 if n <= 120 else 1
        results[name] = _timeit(lambda: backend.charpoly_mod(flat[:], n, p), repeat)
        print(f"  {label:30s} {name:8s}: {results[name] * 1e3:9.2f} ms  (n={n})", flush=True)
    if "compiled" in results and "pure" in results and results["compiled"] > 0:
        print(f"  {label:30s} speedup : {results['pure'] / results['compiled']:.1f}x", flush=True)


def bench_trace(order):
    from casimir_trace import monodromy

    expr = rep.Tensor((rep.BigP(), rep.BigP()))
    for name in ("compiled", "pure"):
        try:
            backend = kernel.get_backend(name)
        except Exception:
            print(f"  trace(P x P): {name} unavailable", flush=True)
            continue
        old = kernel.BACKEND
        kernel.BACKEND = backend
        monodromy._branch_spectrum.cache_clear()
        try:
            t = _timeit(lambda: trace_series(expr, 1, as_frac(order), route="spectral"),
                        repeat=1)
        finally:
            kernel.BACKEND = old
            monodromy._branch_spectrum.cache_clear()
        print(f"  trace(P x P) to order {order:3d}   {name:8s}: {t:7.3f} s", flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=12, help="end-to-end trace order")
    ap.add_argument("--deep", action="store_true",
                    help="include a dimension-786 matrix (compiled only)")
    args = ap.parse_args()

    print(f"active backend: {kernel.backend_name()}", flush=True)
    print("\ncharacteristic polynomial mod a 61-bit prime:", flush=True)
    p2 = rep.Tensor((rep.BigP(), rep.BigP()))
    p3 = rep.Tensor((rep.BigP(), rep.BigP(), rep.BigP()))
    bench_charpoly(p2, -40, "kappa(P^x2, w=-40)")
    bench_charpoly(p3, -8, "kappa(P^x3, w=-8)")
    bench_charpoly(p3, -14, "kappa(P^x3, w=-14)")
    if args.deep:
        bench_charpoly(p3, -28, "kappa(P^x3, w=-28)")

    print("\nend-to-end graded trace:", flush=True)
    bench_trace(args.order)


if __name__ == "__main__":
    main()
