"""The four workloads: the torsionforge CLI operations each one runs, made
from a seed, and the check that each operation's output must pass.

An operation is a short pipeline of CLI calls: the first call reads
``stdin``, every later call reads the previous call's stdout.  Every round
of a workload runs the same operations in the same order.

Print the operations of a workload (argv and input text) with
``python3 perfbench/workloads.py --workload speyer-homology --seed 3``.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from typing import Callable

import checks

# Every operation gets this wall-time limit, so a run always ends.
DEFAULT_LIMIT_S = 30.0

# k = 2^61 - 1 does not finish today (int64 bail-out after ~18 s, a big-int
# restart, then trial division of a 61-bit prime).  Its limit falls inside
# the d1 kernel call, which runs from about 1 s to 3.5 s, so the operation
# always stops in that call and its trace counts repeat; a fix that makes
# the operation take well under a second passes it.
BIG_K = 2**61 - 1
BIG_K_LIMIT_S = 2.0

# (bit length, number of one bits) of the seeded Speyer k values.  The
# bit length and the popcount fix the complex's size, which sets the cost,
# so only the positions of the one bits come from the seed.  The 32-bit k
# exceeds 2^31 - 1, so the int64 kernel bails out and the big-int path runs.
SPEYER_BANDS = ((8, 4), (12, 6), (16, 8), (20, 10), (24, 12), (28, 14), (32, 8))

CERTIFY_ORDERS = (4, 8, 16)
HMT_BUILD_ORDERS = (256, 512)
VALID_SEQ_ORDER = 1024

WALSH_ORDER = 256
ENTRY_RANGE = (-9, 9)
RANDOM_SQUARE = (100, 100)
# The big-int time of a random square varies by about 20% from one matrix
# to the next; three per round keep that from setting the run-to-run spread.
RANDOM_SQUARES = 3
RANDOM_WIDE = (60, 80)
TRANSFORMS_SHAPE = (30, 30)

WORKLOADS = ("hmt-certify", "speyer-homology", "hmt-build", "dense-snf")


@dataclass(frozen=True)
class Operation:
    name: str
    steps: tuple[tuple[str, ...], ...]
    check: Callable[[list[int], list[str]], list[str]]
    stdin: str = ""
    limit_s: float = DEFAULT_LIMIT_S

    def spec(self) -> dict:
        """The part the worker process needs: no check, no parent-side data."""
        return {"name": self.name, "steps": [list(s) for s in self.steps],
                "stdin": self.stdin, "limit_s": self.limit_s}


def walsh_rows(n: int) -> list[list[int]]:
    """Order-n Walsh matrix from the sign rule (-1)^popcount(i & j)."""
    return [[-1 if (i & j).bit_count() & 1 else 1 for j in range(n)] for i in range(n)]


def random_rows(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    lo, hi = ENTRY_RANGE
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def matrix_text(rows: list[list[int]]) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(str(x) for x in r) for r in rows)
    return "\n".join(lines) + "\n"


def speyer_k(rng: random.Random, bits: int, ones: int) -> int:
    """A k of exactly ``bits`` bits with exactly ``ones`` one bits."""
    low = rng.sample(range(bits - 1), ones - 1)
    return (1 << (bits - 1)) | sum(1 << p for p in low)


def _certify_ops(rng: random.Random) -> list[Operation]:
    argv = ["certify"]
    for n in CERTIFY_ORDERS:
        argv += ["--n", str(n)]
    return [Operation("certify", (tuple(argv),),
                      lambda rcs, outs: checks.check_certify(CERTIFY_ORDERS, rcs[0], outs[0]))]


def _speyer_op(k: int, limit_s: float) -> Operation:
    return Operation(
        f"speyer k={k}",
        (("build-speyer", "--k", str(k)), ("homology",)),
        lambda rcs, outs: checks.check_speyer(k, rcs, outs[0], outs[1]),
        limit_s=limit_s,
    )


def _speyer_ops(rng: random.Random) -> list[Operation]:
    # k = 2^61 - 1 goes first: its dense boundaries set the peak memory, and
    # the allocator state the seeded operations leave would make it vary.
    ops = [_speyer_op(BIG_K, BIG_K_LIMIT_S)]
    ops += [_speyer_op(speyer_k(rng, bits, ones), DEFAULT_LIMIT_S) for bits, ones in SPEYER_BANDS]
    return ops


def _hmt_build_ops(rng: random.Random) -> list[Operation]:
    ops = [
        Operation(f"build-hmt n={n}", (("build-hmt", "--n", str(n)),),
                  lambda rcs, outs, n=n: checks.check_hmt_facets(n, rcs[0], outs[0]))
        for n in HMT_BUILD_ORDERS
    ]
    n = VALID_SEQ_ORDER
    ops.append(Operation(f"valid-seq n={n}", (("valid-seq", "--n", str(n)),),
                         lambda rcs, outs: checks.check_valid_sequence(n, rcs[0], outs[0])))
    return ops


def _snf_op(name: str, rows: list[list[int]], transforms: bool = False,
            walsh_order: int | None = None) -> Operation:
    argv = ("snf", "--transforms") if transforms else ("snf",)
    return Operation(
        name, (argv,),
        lambda rcs, outs: checks.check_snf(rows, rcs[0], outs[0], transforms, walsh_order),
        stdin=matrix_text(rows),
    )


def _dense_ops(rng: random.Random) -> list[Operation]:
    return [
        _snf_op(f"walsh({WALSH_ORDER})", walsh_rows(WALSH_ORDER), walsh_order=WALSH_ORDER),
        *(_snf_op("random {}x{} #{}".format(*RANDOM_SQUARE, i + 1), random_rows(rng, *RANDOM_SQUARE))
          for i in range(RANDOM_SQUARES)),
        _snf_op("random {}x{}".format(*RANDOM_WIDE), random_rows(rng, *RANDOM_WIDE)),
        _snf_op("transforms {}x{}".format(*TRANSFORMS_SHAPE),
                random_rows(rng, *TRANSFORMS_SHAPE), transforms=True),
    ]


_BUILDERS = {
    "hmt-certify": _certify_ops,
    "speyer-homology": _speyer_ops,
    "hmt-build": _hmt_build_ops,
    "dense-snf": _dense_ops,
}


def operations(workload: str, seed: int) -> list[Operation]:
    """The operations of one round; the same seed gives the same operations."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def main() -> None:
    p = argparse.ArgumentParser(description="Print a workload's operations as JSON lines.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    for op in operations(args.workload, args.seed):
        print(json.dumps(op.spec()))


if __name__ == "__main__":
    main()
