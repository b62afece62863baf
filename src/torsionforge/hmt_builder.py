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
from .hadamard import hadamard_snf_closed_form
from .homology import simplicial_homology
from .triangulation import SimplicialComplex2, euler_characteristic, face_vector
from .valid_sequences import valid_sequence


def hmt_face_vector(n: int) -> tuple[int, int, int]:
    """(5n-1, 3n^2+9n-6, 3n^2+4n-4), the face counts of the reduced build."""
    return (5 * n - 1, 3 * n * n + 9 * n - 6, 3 * n * n + 4 * n - 4)


def hmt_torsion_group(n: int):
    """Expected H1: the nontrivial invariant factors of the Walsh matrix."""
    return group_from_factors(hadamard_snf_closed_form(n), 0)


def _labels(n: int, keep_first_digon: bool) -> dict[int, str]:
    """Deterministic id map: 0, cycle copies by (column, v1, v2, w1, w2),
    centers last; the w slots of column 1 are compacted away by default."""
    shift = 0 if keep_first_digon else 2
    labels = {0: "0", 1: "v1.1", 2: "v1.2"}
    if keep_first_digon:
        labels.update({3: "w1.1", 4: "w1.2"})
    for j in range(2, n + 1):
        base = 4 * (j - 1) - shift
        labels.update({base + 1: f"v{j}.1", base + 2: f"v{j}.2", base + 3: f"w{j}.1", base + 4: f"w{j}.2"})
    c0 = 4 * n - shift
    labels.update({c0 + i: f"c{i}" for i in range(1, n + 1)})
    return labels


def _rows(*columns) -> np.ndarray:
    """One row per position of the broadcast columns, in row-major order."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, len(columns))


def build_hmt(n: int, keep_first_digon: bool = False) -> SimplicialComplex2:
    """Build HMT(n) for n = 2^k, k >= 1.

    n = 1 is rejected: with a single all-positive disc the complex
    degenerates to a triangle and needs none of this machinery.

    Every index array is computed at once.  Disc i walks the ring of its
    ordering: column j contributes its v pair, or its w pair where the Walsh
    entry (-1)^popcount((i-1) & (j-1)) is negative.  Each base-vertex visit
    gets a shield triangle (0, ring[2p+1], ring[2p+2]), whose far edge is
    the diagonal that the valid sequence keeps unique; the center c_i fans
    over the ring; and each digon column j contributes four triangles.
    """
    if n == 1:
        raise ValueError(
            "n=1 is excluded: its single all-positive disc triangulates as one "
            "triangle with a subdivided boundary; this family needs a power of two >= 2"
        )
    col = valid_sequence(n).perms - 1  # 0-based column of each ring step; rejects other orders
    shift = 0 if keep_first_digon else 2
    disc = np.arange(n)[:, None]
    # parity of the k = log2(n) bits of (i-1) & (j-1)
    common = disc & col
    negative = np.zeros_like(common)
    for bit in range(n.bit_length() - 1):
        negative ^= (common >> bit) & 1
    # column j's pair starts at 4(j-1)+1, less the compaction shift past column 1
    first = 4 * col + 1 + 2 * negative - shift * (col > 0)
    ring = np.empty((n, 2 * n + 1), dtype=np.int64)
    ring[:, 0:-1:2] = first
    ring[:, 1:-1:2] = first + 1
    ring[:, -1] = ring[:, 0]
    centers = 4 * n - shift + 1 + disc

    discs = disc.ravel()
    triangles = [_rows(0, ring[:, 1:-1:2], ring[:, 2::2]), _rows(centers, ring[:, :-1], ring[:, 1:])]
    claims = [_rows(ring[:, 1:-1:2], ring[:, 2::2]), _rows(centers, ring[:, :-1])]
    owner = [np.repeat(discs, n), np.repeat(discs, 2 * n)]

    columns = np.arange(1 if keep_first_digon else 2, n + 1)
    a1 = 4 * (columns - 1) + 1 - shift
    a2, b1, b2 = a1 + 1, a1 + 2, a1 + 3
    triangles.append(_rows(0, a1, b2, a1, a2, b2, a2, b1, b2, 0, a2, b1).reshape(-1, 3))
    claims.append(_rows(a1, b2, a2, b2, a2, b1).reshape(-1, 2))
    owner.append(np.repeat(n + np.arange(len(columns)), 3))

    owners = tuple(f"disc{i}" for i in range(1, n + 1)) + tuple(f"digon{j}" for j in columns.tolist())
    # the constructor's peak comes on top of whatever is still alive here
    triangles, claims, owner = np.concatenate(triangles), np.concatenate(claims), np.concatenate(owner)
    del ring, col, common, negative, first, centers, a1, a2, b1, b2
    return SimplicialComplex2(_labels(n, keep_first_digon), triangles, claims, owner, owners)


def hmt_certificate(n: int) -> dict:
    """Build HMT(n), compute homology, and compare everything against the
    closed forms.  Returns a JSON-ready report; 'passed' is True only if
    every check holds.  The complex is checked once, by its constructor;
    :func:`torsionforge.homology.simplicial_homology` then calls
    :func:`torsionforge.triangulation.validate_complex` once for its
    boundary index."""
    t0 = time.perf_counter()
    complex_ = build_hmt(n)
    discrepancies: list[str] = []

    fv = face_vector(complex_).as_tuple()
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
