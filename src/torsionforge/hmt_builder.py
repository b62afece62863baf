"""The HMT(n) triangulations: linear-size complexes over the order-n Walsh
matrix whose first homology is pure 2-power torsion of order n^(n/2).

Construction, for n = 2^k >= 2: two subdivided cycles per matrix column
(a positive copy with vertices v, a negative copy with vertices w), one
disc per matrix row whose boundary follows the canonical valid sequence
(picking the v- or w-copy by entry sign), each base-vertex visit shielded
by a triangle, a single center vertex coned over the 2n boundary
subdivision vertices, and a four-triangle digon joining the two copies of
every column.  Column 1 has no negative entries, so its digon and both w
vertices are dropped (pass keep_first_digon=True to retain them), giving
5n-1 vertices.
"""

from __future__ import annotations

import time

from .exactmat import group_from_factors
from .hadamard import hadamard_snf_closed_form, is_power_of_two, walsh
from .homology import simplicial_homology
from .triangulation import ComplexBuilder, SimplicialComplex2, euler_characteristic, face_vector
from .valid_sequences import valid_sequence


def hmt_face_vector(n: int) -> tuple[int, int, int]:
    """(5n-1, 3n^2+9n-6, 3n^2+4n-4), the face counts of the reduced build."""
    return (5 * n - 1, 3 * n * n + 9 * n - 6, 3 * n * n + 4 * n - 4)


def hmt_torsion_group(n: int):
    """Expected H1: the nontrivial invariant factors of the Walsh matrix."""
    return group_from_factors([f for f in hadamard_snf_closed_form(n) if f > 1], 0)


def _vertex_ids(n: int, keep_first_digon: bool):
    """Deterministic id map: 0, cycle copies by (column, v1, v2, w1, w2),
    centers last; the w slots of column 1 are compacted away by default."""
    v1 = {}
    v2 = {}
    w1 = {}
    w2 = {}
    shift = 0 if keep_first_digon else 2
    for j in range(1, n + 1):
        base = 4 * (j - 1)
        if j == 1 and not keep_first_digon:
            v1[j], v2[j] = 1, 2
            continue
        v1[j] = base + 1 - shift
        v2[j] = base + 2 - shift
        w1[j] = base + 3 - shift
        w2[j] = base + 4 - shift
    c0 = 4 * n - shift
    centers = {i: c0 + i for i in range(1, n + 1)}
    return v1, v2, w1, w2, centers


def build_hmt(n: int, keep_first_digon: bool = False) -> SimplicialComplex2:
    """Build HMT(n) for n = 2^k, k >= 1.

    n = 1 is rejected: with a single all-positive disc the complex
    degenerates to a triangle and needs none of this machinery.
    """
    if n == 1:
        raise ValueError(
            "n=1 is excluded: its single all-positive disc triangulates as one "
            "triangle with a subdivided boundary; this family needs a power of two >= 2"
        )
    if not isinstance(n, int) or not is_power_of_two(n) or n < 2:
        raise ValueError(f"order must be a power of two >= 2, got {n}")
    h = walsh(n)
    seq = valid_sequence(n)

    v1, v2, w1, w2, centers = _vertex_ids(n, keep_first_digon)
    b = ComplexBuilder()
    b.vertex(0, "0")
    for j in range(1, n + 1):
        b.vertex(v1[j], f"v{j}.1")
        b.vertex(v2[j], f"v{j}.2")
        if j in w1:
            b.vertex(w1[j], f"w{j}.1")
            b.vertex(w2[j], f"w{j}.2")
    for i in range(1, n + 1):
        b.vertex(centers[i], f"c{i}")

    for i in range(1, n + 1):
        owner = f"disc{i}"
        row = h.row(i - 1)
        perm = seq.perms[i - 1]
        ring: list[int] = []
        for j in perm:
            if row[j - 1] > 0:
                ring.extend((v1[j], v2[j]))
            else:
                ring.extend((w1[j], w2[j]))
        # one shield triangle per base-vertex visit; its far edge is the
        # diagonal whose uniqueness the valid sequence guarantees
        for p in range(n):
            second = ring[2 * p + 1]
            first_next = ring[(2 * p + 2) % (2 * n)]
            b.triangle(0, second, first_next)
            b.claim_interior(second, first_next, owner)
        c = centers[i]
        for t in range(2 * n):
            u, w = ring[t], ring[(t + 1) % (2 * n)]
            b.triangle(c, u, w)
            b.claim_interior(c, u, owner)
            b.claim_interior(c, w, owner)

    for j in range(1 if keep_first_digon else 2, n + 1):
        owner = f"digon{j}"
        a1, a2, b1, b2 = v1[j], v2[j], w1[j], w2[j]
        b.triangle(0, a1, b2)
        b.triangle(a1, a2, b2)
        b.triangle(a2, b1, b2)
        b.triangle(0, a2, b1)
        b.claim_interior(a1, b2, owner)
        b.claim_interior(a2, b2, owner)
        b.claim_interior(a2, b1, owner)

    return b.finish()


def hmt_certificate(n: int, keep_first_digon: bool = False) -> dict:
    """Build HMT(n), compute homology, and compare everything against the
    closed forms.  Returns a JSON-ready report; 'passed' is True only if
    every check holds.  The complex is validated once, when
    :func:`torsionforge.homology.simplicial_homology` assembles its sparse
    boundaries, which raises ValueError on an invalid one."""
    t0 = time.perf_counter()
    complex_ = build_hmt(n, keep_first_digon)
    discrepancies: list[str] = []

    fv = face_vector(complex_).as_tuple()
    if not keep_first_digon:
        expected_fv = hmt_face_vector(n)
        if fv != expected_fv:
            discrepancies.append(f"face vector {fv} != expected {expected_fv}")

    chi = euler_characteristic(complex_)
    if chi != 1:
        discrepancies.append(f"euler characteristic {chi} != 1")

    hom = simplicial_homology(complex_)
    if str(hom.h0) != "Z":
        discrepancies.append(f"H0 = {hom.h0} != Z")
    if not hom.h2.is_trivial:
        discrepancies.append(f"H2 = {hom.h2} != 0")
    expected_h1 = hmt_torsion_group(n)
    if hom.h1 != expected_h1:
        discrepancies.append(f"H1 = {hom.h1} != expected {expected_h1}")
    expected_order = n ** (n // 2)
    if hom.h1.free_rank != 0 or hom.h1.torsion_order != expected_order:
        discrepancies.append(f"|H1| = {hom.h1.torsion_order} != {expected_order}")

    elapsed = time.perf_counter() - t0
    return {
        "n": n,
        "passed": not discrepancies,
        "face_vector": list(fv),
        "h0": str(hom.h0),
        "h1_invariant_factors": [str(f) for f in hom.h1.invariant_factors],
        "h1_primary": [str(f) for f in hom.h1.primary_decomposition],
        "h1_order": str(hom.h1.torsion_order),
        "h2": str(hom.h2),
        "chi": chi,
        "elapsed": round(elapsed, 6),
        "discrepancies": discrepancies,
    }
