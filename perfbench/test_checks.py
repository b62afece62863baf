"""Tests of the benchmark's own checkers: real torsionforge outputs on small
inputs must pass, and each corrupted output must be rejected.

Run from the root of the checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import os
import random
import sys

import pytest
import sympy
from sympy import GF
from sympy.polys.matrices import DomainMatrix

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from torsionforge import cli  # noqa: E402
from worker import run_steps  # noqa: E402


def run(*steps, stdin=""):
    return run_steps(cli, [list(s) for s in steps], stdin)


def test_speyer_rejects_wrong_torsion():
    k = workloads.speyer_k(random.Random(5), 12, 6)
    rcs, (facets, hom) = run(("build-speyer", "--k", str(k)), ("homology",))
    assert checks.check_speyer(k, rcs, facets, hom) == []
    bad = hom.replace(f"invariant_factors=[{k}]", f"invariant_factors=[{k + 1}]")
    bad = bad.replace(f"group=Z_{k}", f"group=Z_{k + 1}")
    assert bad != hom
    assert checks.check_speyer(k, rcs, facets, bad)


def test_speyer_rejects_wrong_vertex_count():
    k = 11
    rcs, (facets, hom) = run(("build-speyer", "--k", str(k)), ("homology",))
    assert checks.check_speyer(k, rcs, facets, hom) == []
    assert checks.speyer_vertex_count(11) == 29
    assert checks.check_speyer(13, rcs, facets, hom)


def test_facets_reject_dropped_line():
    rcs, (text,) = run(("build-hmt", "--n", "8"))
    assert checks.check_hmt_facets(8, rcs[0], text) == []
    lines = text.splitlines(keepends=True)
    del lines[len(lines) // 2]
    assert checks.check_hmt_facets(8, rcs[0], "".join(lines))


def test_valid_sequence_rejects_bad_ordering():
    rcs, (text,) = run(("valid-seq", "--n", "16"))
    assert checks.check_valid_sequence(16, rcs[0], text) == []
    lines = text.splitlines(keepends=True)
    lines[3] = " ".join(reversed(lines[3].split())) + "\n"
    assert checks.check_valid_sequence(16, rcs[0], "".join(lines))


def test_certify_rejects_doubled_factor():
    rcs, (text,) = run(("certify", "--n", "4", "--n", "8"))
    assert checks.check_certify((4, 8), rcs[0], text) == []
    bad = text.replace('"4"', '"8"', 1)
    assert bad != text
    assert checks.check_certify((4, 8), rcs[0], bad)


@pytest.mark.parametrize("shape", [(12, 12), (8, 11)])
def test_snf_rejects_doubled_factor(shape):
    rows = workloads.random_rows(random.Random(3), *shape)
    rcs, (text,) = run(("snf",), stdin=workloads.matrix_text(rows))
    assert checks.check_snf(rows, rcs[0], text, False, None) == []
    head, rest = text.split("\n", 1)
    factors = head.split()[1:]
    factors[-1] = str(2 * int(factors[-1]))
    bad = " ".join(["invariant_factors:"] + factors) + "\n" + rest
    assert checks.check_snf(rows, rcs[0], bad, False, None)


def test_walsh_snf_closed_form():
    rows = workloads.walsh_rows(16)
    rcs, (text,) = run(("snf",), stdin=workloads.matrix_text(rows))
    assert checks.check_snf(rows, rcs[0], text, False, 16) == []
    bad = text.replace(" 16\n", " 32\n", 1)
    assert bad != text
    assert checks.check_snf(rows, rcs[0], bad, False, 16)


def test_transforms_reject_wrong_product():
    rows = workloads.random_rows(random.Random(4), 6, 6)
    rcs, (text,) = run(("snf", "--transforms"), stdin=workloads.matrix_text(rows))
    assert checks.check_snf(rows, rcs[0], text, True, None) == []
    lines = text.splitlines()
    t_row = lines.index("T:") + 2
    entries = lines[t_row].split()
    entries[0] = str(int(entries[0]) + 1)
    lines[t_row] = " ".join(entries)
    assert "S*A*T != M" in checks.check_snf(rows, rcs[0], "\n".join(lines) + "\n", True, None)


@pytest.mark.parametrize("seed", range(5))
def test_own_elimination_matches_sympy(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if seed == 0:
        rows.append(list(rows[0]))  # force a rank deficit
    mat = sympy.Matrix(rows)
    rank, det = checks.rank_det(rows)
    assert rank == mat.rank()
    if mat.is_square:
        assert det == mat.det()
    for p in checks.MOD_PRIMES:
        gf = GF(p)
        over_gf = DomainMatrix([[gf(x) for x in r] for r in rows], (len(rows), n), gf)
        assert checks.rank_mod_p(rows, p) == over_gf.rank()
