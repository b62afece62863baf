"""Benchmarks: construction-time scaling of the Hadamard triangulations
(the doubling ratio should sit near 4, matching quadratic growth) and a
comparison of the int64 Smith kernel with the big-int path on their
boundary matrices.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from . import _kernels
from .exactmat import _smith_exact
from .hmt_builder import build_hmt
from .homology import boundary_matrices
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
    sizes, where per-call overhead swamps the quadratic term."""
    timings = construction_timings(max_n, repeats)
    ratios = []
    for (n_prev, t_prev), (n, t) in zip(timings, timings[1:]):
        ratios.append((n, t / t_prev if t_prev > 0 else float("nan")))
    meaningful = [r for n, r in ratios if n >= 64]
    avg = sum(meaningful) / len(meaningful) if meaningful else float("nan")
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
    lines.append(
        f"average ratio (n >= 64): {rep['average_ratio']:.2f}  "
        f"(quadratic scaling expects roughly {lo}..{hi})"
    )
    return "\n".join(lines)


def kernel_comparison(sizes=(4, 8, 16), include_python: bool = True) -> list[dict]:
    """Time the int64 numpy kernel and the big-int path on the triangle
    boundary matrix of HMT(n).

    The exact big-int path is skipped above n=8; it exists for correctness,
    not speed.
    """
    rows = []
    for n in sizes:
        _, d2 = boundary_matrices(build_hmt(n))
        arr = np.array(d2.to_rows(), dtype=np.int64)
        entry: dict = {"n": n, "shape": (d2.rows, d2.cols)}
        t0 = time.perf_counter()
        _kernels.smith_diagonal_int64(arr)
        entry["numpy"] = time.perf_counter() - t0
        if include_python and n <= 8:
            t0 = time.perf_counter()
            _smith_exact(d2, transforms=False)
            entry["python"] = time.perf_counter() - t0
        rows.append(entry)
    return rows


def format_kernel_comparison(rows: list[dict]) -> str:
    lines = ["smith kernel backends on HMT triangle boundaries"]
    lines.append(f"{'n':>4} {'shape':>12} {'numpy':>10} {'python':>10}")
    for r in rows:
        shape = f"{r['shape'][0]}x{r['shape'][1]}"

        def cell(key):
            return f"{r[key]:>10.4f}" if key in r else f"{'-':>10}"

        lines.append(f"{r['n']:>4} {shape:>12} {cell('numpy')} {cell('python')}")
    return "\n".join(lines)
