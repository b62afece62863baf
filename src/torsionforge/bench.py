"""Benchmark: construction-time scaling of the Hadamard triangulations
(the doubling ratio should sit near 4, matching quadratic growth).
"""

from __future__ import annotations

import gc
import time

from .hmt_builder import build_hmt
from .valid_sequences import valid_sequence


def _time_best_of(fn, repeats: int) -> float:
    best = None
    enabled = gc.isenabled()
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        best = dt if best is None else min(best, dt)
    return best


def construction_timings(max_n: int, repeats: int = 3) -> list[tuple[int, float]]:
    """Best-of-k wall time of valid_sequence(n) + build_hmt(n) for doubling n."""
    out = []
    n = 2
    while n <= max_n:
        reps = repeats if n <= 256 else max(1, repeats - 1)

        def job(n=n):
            valid_sequence(n)
            build_hmt(n)

        out.append((n, _time_best_of(job, reps)))
        n *= 2
    return out


def scaling_report(max_n: int = 512, repeats: int = 3) -> dict:
    """Doubling ratios t(2n)/t(n); the headline average skips the smallest
    sizes, where per-call overhead swamps the quadratic term, and is None
    when ``max_n`` is below 64."""
    timings = construction_timings(max_n, repeats)
    ratios = []
    for (n_prev, t_prev), (n, t) in zip(timings, timings[1:]):
        ratios.append((n, t / t_prev if t_prev > 0 else float("nan")))
    meaningful = [r for n, r in ratios if n >= 64]
    avg = sum(meaningful) / len(meaningful) if meaningful else None
    return {
        "timings": timings,
        "ratios": ratios,
        "average_ratio": avg,
        "quadratic_band": (3.0, 5.5),
        "in_band": bool(meaningful) and 3.0 <= avg <= 5.5,
    }


def format_scaling_report(rep: dict) -> str:
    lines = ["construction scaling (valid sequence + triangulation)"]
    lines.append(f"{'n':>6} {'seconds':>12} {'t(n)/t(n/2)':>12}")
    ratio_by_n = dict(rep["ratios"])
    for n, t in rep["timings"]:
        r = ratio_by_n.get(n)
        lines.append(f"{n:>6} {t:>12.6f} {r:>12.2f}" if r is not None else f"{n:>6} {t:>12.6f} {'-':>12}")
    lo, hi = rep["quadratic_band"]
    if rep["average_ratio"] is None:
        lines.append("average ratio (n >= 64): none measured, as the largest n is below 64")
    else:
        lines.append(
            f"average ratio (n >= 64): {rep['average_ratio']:.2f}  "
            f"(quadratic scaling expects roughly {lo}..{hi})"
        )
    return "\n".join(lines)
