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

import numpy as np

from .exactmat import group_from_factors
from .hadamard import _require_power_of_two, hadamard_snf_closed_form, walsh
from .homology import simplicial_homology
from .triangulation import SimplicialComplex2
from .valid_sequences import valid_sequence


def hmt_face_vector(n: int) -> tuple[int, int, int]:
    """(5n-1, 3n^2+9n-6, 3n^2+4n-4), the face counts of the reduced build."""
    return (5 * n - 1, 3 * n * n + 9 * n - 6, 3 * n * n + 4 * n - 4)


def hmt_torsion_group(n: int):
    """Expected H1: the nontrivial invariant factors of the Walsh matrix."""
    return group_from_factors(hadamard_snf_closed_form(n), 0)


def _fill(out: np.ndarray, *columns) -> None:
    """Write the broadcast columns into the last axis of ``out``."""
    for i, c in enumerate(columns):
        out[..., i] = c


def build_hmt(n: int, keep_first_digon: bool = False) -> SimplicialComplex2:
    """Build HMT(n) for n = 2^k, k >= 1.

    n = 1 is rejected: with a single all-positive disc the complex
    degenerates to a triangle and needs none of this machinery.

    Vertex ids: 0, then column by column v_j.1, v_j.2, w_j.1, w_j.2 (the
    w pair only in columns with a digon), then c_1..c_n.  So one table of
    v_j.1 per column fixes every id: v_j.2 is 1 more, w_j.1 and w_j.2 are
    2 and 3 more, and the centers follow the last column's four ids.

    Every index array is computed at once.  Disc i walks the ring of its
    ordering: column j contributes its v pair, or its w pair where
    walsh(n)[i-1, j-1] is negative.  Each base-vertex visit gets a shield
    triangle (0, ring[2p+1], ring[2p+2]), whose far edge is the diagonal
    that the valid sequence keeps unique; the center c_i fans over the
    ring; and each digon column j contributes four triangles.
    """
    if _require_power_of_two(n) == 0:
        raise ValueError(
            "n=1 is excluded: its single all-positive disc triangulates as one "
            "triangle with a subdivided boundary; this family needs a power of two >= 2"
        )
    col = valid_sequence(n).perms - 1  # 0-based column of each ring step
    negative = np.take_along_axis(walsh(n) < 0, col, axis=1)
    columns = np.arange(1 if keep_first_digon else 2, n + 1)  # 1-based columns with a digon
    v = 4 * np.arange(n, dtype=np.int64) + 1  # id of v_j.1
    v[1:] -= 2 * (columns[0] - 1)  # less column 1's w pair when it is dropped
    first = v[col] + 2 * negative
    ring = np.empty((n, 2 * n + 1), dtype=np.int64)
    ring[:, 0:-1:2] = first
    ring[:, 1:-1:2] = first + 1
    ring[:, -1] = ring[:, 0]
    disc = np.arange(n)[:, None]
    centers = v[-1] + 4 + disc

    # triangles, claims and owner are each filled in place: shields, fans,
    # digons.  They are int32, whose ids the constructor takes as its vertex
    # indices without a copy, as they run from 0.
    s, d = n * n, len(columns)
    triangles = np.empty((3 * s + 4 * d, 3), dtype=np.int32)
    claims = np.empty((3 * s + 3 * d, 2), dtype=np.int32)
    owner = np.empty(3 * s + 3 * d, dtype=np.int32)
    _fill(triangles[:s].reshape(n, n, 3), 0, ring[:, 1:-1:2], ring[:, 2::2])
    _fill(triangles[s : 3 * s].reshape(n, 2 * n, 3), centers, ring[:, :-1], ring[:, 1:])
    _fill(claims[:s].reshape(n, n, 2), ring[:, 1:-1:2], ring[:, 2::2])
    _fill(claims[s : 3 * s].reshape(n, 2 * n, 2), centers, ring[:, :-1])
    owner[:s].reshape(n, n)[:] = disc
    owner[s : 3 * s].reshape(n, 2 * n)[:] = disc

    a1 = v[columns - 1]
    a2, b1, b2 = a1 + 1, a1 + 2, a1 + 3
    _fill(triangles[3 * s :].reshape(d, 12), 0, a1, b2, a1, a2, b2, a2, b1, b2, 0, a2, b1)
    _fill(claims[3 * s :].reshape(d, 6), a1, b2, a2, b2, a2, b1)
    owner[3 * s :].reshape(d, 3)[:] = n + np.arange(d)[:, None]

    owners = tuple(f"disc{i}" for i in range(1, n + 1)) + tuple(f"digon{j}" for j in columns.tolist())
    labels = {0: "0"}
    for j, a in enumerate(v.tolist(), start=1):
        labels.update({a: f"v{j}.1", a + 1: f"v{j}.2"})
    for j, b in zip(columns.tolist(), b1.tolist()):
        labels.update({b: f"w{j}.1", b + 1: f"w{j}.2"})
    labels.update({c: f"c{i}" for i, c in enumerate(centers.ravel().tolist(), start=1)})
    # the constructor's peak comes on top of whatever is still alive here
    del ring, col, negative, first, centers, a1, a2, b1, b2
    return SimplicialComplex2(labels, triangles, claims, owner, owners)


def hmt_certificate(n: int) -> dict:
    """Build HMT(n), compute homology, and compare everything against the
    closed forms.  Returns a JSON-ready report; 'passed' is True only if
    every check holds.  The complex is checked once, by its constructor,
    and its sides are sorted once, by the one call of
    :func:`torsionforge.triangulation.validate_complex` that gives homology
    its boundary index, whose sizes are the face vector."""
    t0 = time.perf_counter()
    hom = simplicial_homology(build_hmt(n))
    discrepancies: list[str] = []

    fv = hom.face_vector
    expected_fv = hmt_face_vector(n)
    if fv != expected_fv:
        discrepancies.append(f"face vector {fv} != expected {expected_fv}")

    chi = fv[0] - fv[1] + fv[2]
    if chi != 1:
        discrepancies.append(f"euler characteristic {chi} != 1")

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
