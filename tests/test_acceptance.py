"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see them).  Values are asserted exactly;
stated runtimes are expectations and are printed, not asserted.
"""

import random
import time

import pytest

from torsionforge import _kernels
from torsionforge.disc_complex import cellular_homology, from_matrix
from torsionforge.exactmat import group_from_factors, int_matrix, smith_normal_form
from torsionforge.hadamard import hadamard_snf_closed_form, walsh
from torsionforge.hmt_builder import build_hmt, hmt_face_vector, hmt_torsion_group
from torsionforge.homology import boundary_matrices, simplicial_homology
from torsionforge.speyer import _speyer_spec, build_speyer_complex
from torsionforge.triangulation import triangulate_generic, validate_complex
from torsionforge.valid_sequences import ValidSequence, check_valid, valid_sequence

from .oracles import det_bareiss, face_vector, word_matrix
from .test_triangulation import claimed
from .test_valid_sequences import H4_SEQUENCE, H8_SEQUENCE


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return ok


def test_criterion_1_face_vector_closed_form():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 4, 8, 16, 32):
        fv = face_vector(build_hmt(n))
        ok = ok and fv == hmt_face_vector(n) == (5 * n - 1, 3 * n * n + 9 * n - 6, 3 * n * n + 4 * n - 4)
    elapsed = time.perf_counter() - t0
    assert report(1, "face vectors n=2..32", ok, f"{elapsed:.2f}s, expected < 1s")


def test_criterion_2_torsion_closed_form():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 4, 8, 16):
        hom = simplicial_homology(build_hmt(n))
        ok = ok and str(hom.h0) == "Z" and hom.h2.is_trivial
        ok = ok and hom.h1 == hmt_torsion_group(n)
        ok = ok and hom.h1.free_rank == 0 and hom.h1.torsion_order == n ** (n // 2)
    elapsed = time.perf_counter() - t0
    assert report(2, "torsion groups n=2..16", ok, f"{elapsed:.2f}s, expected < 5min")


def test_criterion_2_torsion_closed_form_n32():
    t0 = time.perf_counter()
    hom = simplicial_homology(build_hmt(32))
    ok = hom.h1 == hmt_torsion_group(32) and hom.h1.torsion_order == 32**16
    ok = ok and str(hom.h0) == "Z" and hom.h2.is_trivial
    assert report(2, "torsion group n=32", ok, f"{time.perf_counter() - t0:.1f}s")


def test_criterion_3_snf_closed_form():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 4, 8, 16, 32, 64):
        # the dense sweep, and smith_normal_form by the Walsh route
        ok = ok and _kernels.smith_diagonal_int64(walsh(n)) == list(hadamard_snf_closed_form(n))
        ok = ok and smith_normal_form(walsh(n)).invariant_factors == hadamard_snf_closed_form(n)
    elapsed = time.perf_counter() - t0
    assert report(3, "walsh SNF closed form n=1..64", ok, f"{elapsed:.2f}s, expected < 1min")


def test_criterion_4_hadamard_bound():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 4, 8, 16, 32):
        ok = ok and abs(det_bareiss(walsh(n))) == n ** (n // 2)
    elapsed = time.perf_counter() - t0
    assert report(4, "hadamard determinant bound n<=32", ok, f"{elapsed:.2f}s, expected < 10s")


def test_criterion_5_speyer_reproduction():
    t0 = time.perf_counter()
    k11 = build_speyer_complex(11)
    hom = simplicial_homology(k11)
    ok = face_vector(k11)[0] == 29
    ok = ok and hom.h1 == group_from_factors([11]) and str(hom.h0) == "Z" and hom.h2.is_trivial
    dets_ok = all(det_bareiss(word_matrix(_speyer_spec(k))) == k for k in range(2, 513))
    elapsed = time.perf_counter() - t0
    assert report(
        5,
        "speyer K(11) and det(M(k))=k for k<=512",
        ok and dets_ok,
        f"{elapsed:.2f}s, expected < 1s",
    )


def test_criterion_6_valid_sequences():
    t0 = time.perf_counter()
    ok = True
    n = 1
    while n <= 256:
        ok = ok and check_valid(valid_sequence(n), walsh(n)).ok
        n *= 2
    ok = ok and valid_sequence(4) == ValidSequence(H4_SEQUENCE)
    ok = ok and valid_sequence(8) == ValidSequence(H8_SEQUENCE)
    elapsed = time.perf_counter() - t0
    assert report(6, "valid sequences n<=256, verbatim n=4,8", ok, f"{elapsed:.2f}s")


def test_criterion_7_homology_route_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(0xACCE7)
    checked = 0
    ok = True
    while checked < 200:
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        if not all(any(row) for row in rows):
            continue
        if not all(any(row[j] for row in rows) for j in range(c)):
            continue
        m = int_matrix(rows)
        expected = cellular_homology(m)
        for ordering in ("grouped", "interleaved"):
            got = simplicial_homology(triangulate_generic(from_matrix(m, ordering)))
            ok = ok and got.as_tuple() == expected
        checked += 1
    elapsed = time.perf_counter() - t0
    assert report(7, "200 random matrices, both orderings", ok, f"{elapsed:.2f}s, expected < 30s")


def test_criterion_8_structural_invariants():
    t0 = time.perf_counter()
    complexes = [build_hmt(n) for n in (2, 4, 8, 16)]
    complexes += [build_speyer_complex(k) for k in (2, 11, 37, 64)]
    rng = random.Random(88)
    while len(complexes) < 28:
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        if not all(any(row) for row in rows) or not all(any(row[j] for row in rows) for j in range(c)):
            continue
        complexes.append(triangulate_generic(from_matrix(int_matrix(rows))))

    ok = True
    for k in complexes:
        validate_complex(k)  # raises on an invalid complex
        d1, d2 = boundary_matrices(k)
        composed = d2 @ d1
        ok = ok and not composed.any()
        f0, f1, f2 = face_vector(k)
        hom = simplicial_homology(k)
        ok = ok and f0 - f1 + f2 == hom.h0.free_rank - hom.h1.free_rank + hom.h2.free_rank
        ok = ok and f0 >= 4 and f1 >= 6 and f2 >= 4
        owners = {}
        for e, owner in claimed(k):
            ok = ok and owners.setdefault(e, owner) == owner
    elapsed = time.perf_counter() - t0
    assert report(8, "d°d=0, euler-poincare, validator, shields", ok, f"{elapsed:.2f}s")
