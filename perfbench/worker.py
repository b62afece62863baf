"""Runs one workload's operations in-process through ``torsionforge.cli.main``,
round after round, as a closed loop with one client.

``run.py`` starts this file in a fresh interpreter, so the peak resident
memory it reports is that of the workload alone.  It reads a JSON spec on
stdin and prints one JSON result on stdout.  Each CLI call gets its stdin
and stdout as in-memory text.  An operation that overruns its limit is
interrupted by SIGALRM, counted as failed, and counted at its limit in the
round's wall time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import spans

# A run measures at least this many rounds, so even a workload whose round
# outlasts --seconds reports a median over rounds, not a single round.
MIN_ROUNDS = 3


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException, so no ``except Exception`` in
    the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_steps(cli, steps: list[list[str]], stdin: str) -> tuple[list[int], list[str]]:
    rcs, outs = [], []
    text = stdin
    for argv in steps:
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        finally:
            sys.stdin = saved
        text = out.getvalue()
        rcs.append(rc)
        outs.append(text)
    return rcs, outs


def run_round(cli, ops: list[dict], distinct: list[list], errors: list[str],
              tracer: spans.Tracer | None) -> dict:
    """One pass over every operation; returns wall and CPU time and failures."""
    wall = 0.0
    failed = 0
    cpu0 = time.process_time()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        outcome = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, op["limit_s"])
            try:
                outcome = run_steps(cli, op["steps"], op["stdin"])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall += time.perf_counter() - t0
        except OpTimeout:
            wall += op["limit_s"]
            failed += 1
            errors.append(f"{op['name']}: over the {op['limit_s']} s limit")
        except (Exception, SystemExit):
            wall += time.perf_counter() - t0
            failed += 1
            errors.append(f"{op['name']}: {traceback.format_exc()}")
        if outcome is not None and outcome not in distinct[i]:
            distinct[i].append(outcome)
    return {"wall_s": wall, "cpu_s": time.process_time() - cpu0, "failed": failed}


def main() -> int:
    spec = json.load(sys.stdin)
    root = spec["root"]
    from torsionforge import _kernels, cli

    src = os.path.join(root, "src", "torsionforge")
    if os.path.dirname(os.path.abspath(cli.__file__)) != src:
        print(f"torsionforge was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    ops = spec["ops"]
    distinct: list[list] = [[] for _ in ops]
    errors: list[str] = []
    tracer = spans.Tracer() if spec["trace"] else None
    plain, traced, layers = [], [], []
    last_spans: list = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        # With tracing, rounds alternate untraced and traced, so the
        # overhead is measured under the same conditions.
        use_trace = tracer is not None and len(plain) > len(traced)
        gc.collect()
        if use_trace:
            tracer.install()
            try:
                r = run_round(cli, ops, distinct, errors, tracer)
            finally:
                tracer.uninstall()
            last_spans = tracer.take()
            layers.append(spans.layer_metrics(last_spans))
            traced.append(r)
        else:
            r = run_round(cli, ops, distinct, errors, None)
            plain.append(r)
        if peak_rss_mb is None:
            # Later rounds reuse a heap that the seeded operations before
            # them fragmented, so only the first round's peak is the same
            # from seed to seed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        done = (time.perf_counter() - start >= spec["seconds"]
                and len(plain) + len(traced) >= MIN_ROUNDS)
        if done and (tracer is None or traced):
            break

    rounds = plain + traced
    result = {
        "backend": _kernels.backend_name(),
        "rounds": len(rounds),
        "attempted": len(rounds) * len(ops),
        "failed": sum(r["failed"] for r in rounds),
        "errors": errors[:20],
        "outputs": [[{"rcs": rcs, "outs": outs} for rcs, outs in d] for d in distinct],
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = spans.median_metrics(layers)
        result["layers"]["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - result["wall_s"])
        result["spans"] = spans.span_records(last_spans)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
