"""Speyer's torsion family, defined once by the boundary words of its
discs: they realize a small integer matrix M(k) with determinant k, read
off the binary expansion of k, and triangulate in time linear in its bit
length to a complex whose torsion has order k on O(log k) vertices.
"""

from __future__ import annotations

from .disc_complex import DiscComplexSpec
from .triangulation import SimplicialComplex2, triangulate_generic

# Largest bit length of k accepted.  The build is linear in it (0.13 s
# and 49 MB at 2048 bits, 0.24 s at 8192 with the bound lifted); the bound
# protects `homology`, which factors k: at 2048 bits it took 0.24 s after
# `build-speyer --k 2^2047`, but 34 s to exhaust its rho budget and exit 2
# on 2^2047 + 12345 (fresh processes, 2-vCPU Xeon).
MAX_SPEYER_BITS = 2048


def _speyer_spec(k: int) -> DiscComplexSpec:
    """The grouped boundary words of M(k), for 2 <= k < 2^MAX_SPEYER_BITS:
    +j or -j in the first word for each one digit of k in column j (1-based
    from the leading digit), + for odd j, and (i-1, i, i) for disc i > 1."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be of type int, got {k!r} of type {type(k).__name__}")
    if k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if k.bit_length() > MAX_SPEYER_BITS:
        raise ValueError(f"k has {k.bit_length()} bits, more than the {MAX_SPEYER_BITS} allowed")
    digits = bin(k)[2:]
    first = tuple(j if j % 2 else -j for j, d in enumerate(digits, start=1) if d == "1")
    return DiscComplexSpec(len(digits), (first, *((i - 1, i, i) for i in range(2, len(digits) + 1))))


def build_speyer_complex(k: int) -> SimplicialComplex2:
    """Triangulation of the disc complex of M(k), straight from its words:
    at most 9*floor(log2 k) + 6 vertices, first homology of order k."""
    return triangulate_generic(_speyer_spec(k))
