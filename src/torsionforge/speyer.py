"""Speyer's torsion family: a small integer matrix M(k) with determinant k
read off the binary expansion of k, and its triangulated disc complex.
The torsion of the complex has order k on O(log k) vertices.
"""

from __future__ import annotations

import numpy as np

from .disc_complex import from_matrix
from .triangulation import SimplicialComplex2, triangulate_generic


# Largest bit length of k that :func:`speyer_matrix` accepts.  The matrix
# is dense, so its triangulation costs time and memory quadratic in the
# bit length: `torsionforge build-speyer` took 0.35 s and 94 MB peak RSS at
# 2048 bits and 1.1 s and 287 MB at 4096 bits (bound lifted) in a fresh
# process on a 2-vCPU Xeon, and `build-speyer --k 2^2047 | homology`
# finished in 0.5 s.
MAX_SPEYER_BITS = 2048


def speyer_matrix(k: int) -> np.ndarray:
    """(m+1) x (m+1) int64 matrix with det k, for 2 <= k < 2^MAX_SPEYER_BITS
    with m = floor(log2 k).

    The first row alternates the signs of the binary digits of k (leading
    digit first); each lower row carries a 2 on the diagonal and a 1 just
    left of it, so ``speyer_matrix(11)`` is
    ``[[1, 0, 1, -1], [1, 2, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2]]``.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if k.bit_length() > MAX_SPEYER_BITS:
        raise ValueError(f"k has {k.bit_length()} bits, more than the {MAX_SPEYER_BITS} allowed")
    digits = [int(c) for c in bin(k)[2:]]
    out = np.eye(len(digits), k=-1, dtype=np.int64) + 2 * np.eye(len(digits), dtype=np.int64)
    out[0] = [(-1) ** i * d for i, d in enumerate(digits)]
    return out


def build_speyer_complex(k: int) -> SimplicialComplex2:
    """Triangulation of the disc complex of M(k), grouped edge-word order.

    Vertex count is at most 9*floor(log2 k) + 6; first homology has order k.
    """
    return triangulate_generic(from_matrix(speyer_matrix(k), "grouped"))
