"""Benchmark of the torsionforge CLI: four workloads, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hmt-certify --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.
``--trace 0`` reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb), ``--trace 1`` the per-layer metrics.  ``--workload all``
runs every workload in turn and prints one result line for each.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 11
# Leaves room under the 180 s a run may take for set-up and the checks.
WORKER_DEADLINE_S = 150


def program_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> float:
    """Median time from a fresh interpreter until torsionforge.cli is imported.

    One unmeasured import first compiles the bytecode of a fresh checkout.
    """
    cmd = [sys.executable, "-c", "import torsionforge.cli"]
    subprocess.run(cmd, env=env, check=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def environment(backend: str) -> dict:
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": has_numba,
        "kernel_backend": backend,
        "cpu_count": os.cpu_count(),
    }


def check_outputs(ops: list[workloads.Operation], outputs: list[list[dict]]) -> list[str]:
    """Problems found in any distinct output of any operation."""
    problems = []
    for op, seen in zip(ops, outputs):
        for o in seen:
            try:
                found = op.check(o["rcs"], o["outs"])
            except Exception:
                found = ["check raised: " + traceback.format_exc(limit=2)]
            problems.extend(f"{op.name}: {p}" for p in found)
    return problems


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = program_env(root)
    ops = workloads.operations(workload, seed)
    setup_s = None if trace else measure_setup(env)
    spec = {"root": root, "seconds": seconds, "trace": trace, "ops": [op.spec() for op in ops]}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, env=env,
        timeout=WORKER_DEADLINE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout)
    for e in res["errors"]:
        print(f"{workload}: {e}", file=sys.stderr)
    problems = check_outputs(ops, res["outputs"])
    for p in problems[:20]:
        print(f"{workload}: check failed: {p}", file=sys.stderr)

    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in res["layers"].items()}
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans_{workload}_seed{seed}.json"), "w") as fh:
            json.dump(res["spans"], fh)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"workload": workload, "seed": seed, "rounds": res["rounds"],
                      "env": environment(res["backend"])}))
    return {"correct": not problems, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("certified_ratio"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "torsionforge", "cli.py")):
        print(f"no torsionforge source under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
