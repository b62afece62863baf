"""Spans around the public functions of torsionforge, installed from outside
the program, and the per-layer metrics computed from them.

Installing a tracer replaces every reference that a torsionforge module
holds to each traced function (``smith_normal_form`` is bound by name in
``homology``, ``disc_complex`` and ``cli``, for instance) with a wrapper that
records a span: name, start, end, parent, thread and operation id.  A span's
self time is its duration minus the time its child spans cover in the same
thread; spans made in the ``certify`` thread pool have no parent there.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function) of every traced layer.  The metric prefix drops the
# leading underscore of ``_kernels``, since metric names start with a letter.
LAYERS = (
    ("valid_sequences", "valid_sequence"),
    ("hadamard", "walsh"),
    ("hmt_builder", "build_hmt"),
    ("hmt_builder", "hmt_certificate"),
    ("triangulation", "triangulate_generic"),
    ("triangulation", "validate_complex"),
    ("homology", "boundary_matrices"),
    ("homology", "simplicial_homology"),
    ("exactmat", "smith_normal_form"),
    ("exactmat", "group_from_factors"),
    ("_kernels", "smith_diagonal_int64"),
    ("fileio", "write_facets"),
    ("fileio", "write_sequence"),
    ("fileio", "read_complex"),
    ("fileio", "read_matrix"),
    ("cli", "main"),
)

BOUNDARY = "homology.boundary_matrices"
SNF = "exactmat.smith_normal_form"
KERNEL = "kernels.smith_diagonal_int64"
VALIDATE = "triangulation.validate_complex"


def layer_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    op: int
    start: float
    end: float = 0.0  # when the traced call returned
    stop: float = 0.0  # after the wrapper's own counting; children cover start..stop
    outcome: str = "raised"  # "ok", "none" (returned None) or "raised"
    counts: dict = field(default_factory=dict)


def _boundary_counts(result) -> dict:
    d1, d2 = result
    dense = d1.rows * d1.cols + d2.rows * d2.cols
    zeros = d1.entries.count(0) + d2.entries.count(0)
    return {"dense_entries": dense, "nnz": dense - zeros}


def _snf_counts(result) -> dict:
    return {"max_factor_bits": max((f.bit_length() for f in result.invariant_factors), default=0)}


_COUNTERS = {BOUNDARY: _boundary_counts, SNF: _snf_counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int):
        """Start operation ``op``; a stack left open by an interrupted
        operation is dropped."""
        self.op = op
        self._local.stack = []

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, stack[-1].id if stack else None,
                        threading.get_ident(), self.op, time.perf_counter())
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.end = time.perf_counter()
                span.outcome = "none" if result is None else "ok"
                if counter is not None:
                    span.counts = counter(result)
                return result
            finally:
                if span.end == 0.0:
                    span.end = time.perf_counter()
                span.stop = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every layer in every loaded torsionforge module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "torsionforge" or n.startswith("torsionforge."))]
        for module, func in LAYERS:
            orig = getattr(sys.modules[f"torsionforge.{module}"], func)
            wrapper = self._wrap(layer_name(module, func), orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.stop - s.start)
    out: dict[str, float] = {}
    for module, func in LAYERS:
        out[f"{layer_name(module, func)}.self_s"] = 0.0
    for key in (f"{VALIDATE}.calls", f"{BOUNDARY}.dense_entries", f"{BOUNDARY}.nnz",
                f"{SNF}.calls", f"{SNF}.max_factor_bits", f"{KERNEL}.calls",
                f"{KERNEL}.bailouts", f"{KERNEL}.bailout_s"):
        out[key] = 0
    certified = 0
    for s in spans:
        out[f"{s.name}.self_s"] += (s.end - s.start) - covered.get(s.id, 0.0)
        if s.name in (VALIDATE, SNF, KERNEL):
            out[f"{s.name}.calls"] += 1
        if s.name == BOUNDARY and s.counts:
            out[f"{BOUNDARY}.dense_entries"] += s.counts["dense_entries"]
            out[f"{BOUNDARY}.nnz"] += s.counts["nnz"]
        if s.name == SNF and s.counts:
            out[f"{SNF}.max_factor_bits"] = max(out[f"{SNF}.max_factor_bits"],
                                                s.counts["max_factor_bits"])
        if s.name == KERNEL:
            if s.outcome == "none":
                out[f"{KERNEL}.bailouts"] += 1
                out[f"{KERNEL}.bailout_s"] += s.end - s.start
            elif s.outcome == "ok":
                certified += 1
    calls = out[f"{KERNEL}.calls"]
    out[f"{KERNEL}.certified_ratio"] = certified / calls if calls else 0.0
    return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced rounds; median_low keeps counts whole."""
    return {key: statistics.median_low(r[key] for r in rounds) for key in rounds[0]}


def span_records(spans: list[Span]) -> list[dict]:
    return [{"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread, "op": s.op,
             "start": s.start, "end": s.end, "outcome": s.outcome, **s.counts} for s in spans]
