"""Checks of torsionforge outputs, computed apart from the program.

Nothing here imports torsionforge or reads a stored copy of earlier output:
expected values come from closed forms, from sympy's factorint, from the
binary digits of k, and from this file's own fraction-free elimination,
modular rank and sequence checker.  Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json
import re
from math import comb, gcd, prod

import numpy as np
import sympy

MOD_PRIMES = (2, 3, 5, 7)


def walsh_factors(n: int) -> list[int]:
    """Invariant factors of the order-n Walsh matrix: 2^j, C(log2 n, j) times."""
    k = n.bit_length() - 1
    return [2**j for j in range(k + 1) for _ in range(comb(k, j))]


def rank_det(rows: list[list[int]]) -> tuple[int, int]:
    """Rational rank and determinant (0 unless square and nonsingular) by
    fraction-free elimination; every division is exact."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    prev, sign, r = 1, 1, 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        ar = a[r]
        p = ar[c]
        for i in range(r + 1, m):
            ai = a[i]
            q = ai[c]
            for j in range(c + 1, n):
                ai[j] = (ai[j] * p - q * ar[j]) // prev
            ai[c] = 0
        prev = p
        r += 1
    det = sign * prev if m == n == r else 0
    return r, det


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) for a small prime p."""
    a = np.array(rows, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        below = r + 1 + np.nonzero(a[r + 1 :, c])[0]
        a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
    return r


def matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def parse_facets(text: str) -> tuple[list[tuple[int, int, int]], list[str]]:
    """Triangles of a facet file, with problems for any line that is not an
    ascending triple or breaks the sorted, duplicate-free order."""
    tris, problems = [], []
    prev = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if len(parts) != 3:
            problems.append(f"facet line {lineno}: {line!r} is not three ids")
            continue
        t = (int(parts[0]), int(parts[1]), int(parts[2]))
        if not 0 <= t[0] < t[1] < t[2]:
            problems.append(f"facet line {lineno}: {t} is not ascending")
        if prev is not None and t <= prev:
            problems.append(f"facet line {lineno}: {t} is not after {prev}")
        prev = t
        tris.append(t)
    if not text.endswith("\n"):
        problems.append("facet text does not end with a newline")
    return tris, problems


def face_vector(tris: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    verts = {v for t in tris for v in t}
    edges = {e for a, b, c in tris for e in ((a, b), (a, c), (b, c))}
    return len(verts), len(edges), len(tris)


def check_certify(ns, rc: int, text: str) -> list[str]:
    problems = [] if rc == 0 else [f"certify exited {rc}"]
    certs = json.loads(text)
    if len(ns) == 1:
        certs = [certs]
    if [c["n"] for c in certs] != list(ns):
        return problems + [f"certificates for {[c['n'] for c in certs]}, expected {list(ns)}"]
    for n, cert in zip(ns, certs):
        fv = [5 * n - 1, 3 * n * n + 9 * n - 6, 3 * n * n + 4 * n - 4]
        expected = walsh_factors(n)[1:]
        found = {
            "passed": cert["passed"],
            "face_vector": cert["face_vector"],
            "chi": cert["chi"],
            "h0": cert["h0"],
            "h2": cert["h2"],
            "h1_invariant_factors": [int(f) for f in cert["h1_invariant_factors"]],
            "h1_primary": sorted(int(f) for f in cert["h1_primary"]),
            "h1_order": int(cert["h1_order"]),
        }
        want = {
            "passed": True,
            "face_vector": fv,
            "chi": fv[0] - fv[1] + fv[2],
            "h0": "Z",
            "h2": "0",
            "h1_invariant_factors": expected,
            "h1_primary": expected,
            "h1_order": n ** (n // 2),
        }
        if want["chi"] != 1 or prod(expected) != n ** (n // 2):
            problems.append(f"n={n}: closed forms disagree with each other")
        problems.extend(f"n={n}: {key} = {found[key]!r}, expected {want[key]!r}"
                        for key in want if found[key] != want[key])
    return problems


_GROUP_LINE = re.compile(
    r"^(H[012]): free_rank=(\d+) invariant_factors=\[([\d,]*)\] primary=\[([\d,]*)\] group=(.+)$"
)


def parse_homology(text: str) -> dict[str, tuple[int, list[int], list[int], str]]:
    out = {}
    for line in text.splitlines():
        m = _GROUP_LINE.match(line)
        if m is None:
            raise ValueError(f"unparsable homology line {line!r}")
        ints = [[int(x) for x in g.split(",") if x] for g in (m.group(3), m.group(4))]
        out[m.group(1)] = (int(m.group(2)), ints[0], ints[1], m.group(5))
    return out


def speyer_vertex_count(k: int) -> int:
    """1 + 2n + sum ceil(3 s_i / 2) for M(k): n = bit length of k columns,
    a first row of popcount(k) letters and n - 1 rows of three letters."""
    n = k.bit_length()
    words = [k.bit_count()] + [3] * (n - 1)
    return 1 + 2 * n + sum((3 * s + 1) // 2 for s in words)


def check_speyer(k: int, rcs: list[int], facets: str, homology: str) -> list[str]:
    problems = [f"step {i + 1} exited {rc}" for i, rc in enumerate(rcs) if rc != 0]
    tris, facet_problems = parse_facets(facets)
    problems.extend(facet_problems[:5])
    fv = face_vector(tris)
    if fv[0] != speyer_vertex_count(k):
        problems.append(f"{fv[0]} vertices, expected {speyer_vertex_count(k)}")
    if fv[0] - fv[1] + fv[2] != 1:
        problems.append(f"euler characteristic {fv[0] - fv[1] + fv[2]} != 1")
    primary = sorted(p**e for p, e in sympy.factorint(k).items())
    want = {
        "H0": (1, [], [], "Z"),
        "H1": (0, [k], primary, f"Z_{k}"),
        "H2": (0, [], [], "0"),
    }
    found = parse_homology(homology)
    if sorted(found) != sorted(want):
        return problems + [f"homology lines {sorted(found)}"]
    for h in want:
        fr, inv, pri, group = found[h]
        if (fr, inv, sorted(pri), group) != want[h]:
            problems.append(f"{h} = {found[h]}, expected {want[h]}")
    return problems


def check_hmt_facets(n: int, rc: int, text: str) -> list[str]:
    problems = [] if rc == 0 else [f"build-hmt exited {rc}"]
    tris, facet_problems = parse_facets(text)
    problems.extend(facet_problems[:5])
    fv = face_vector(tris)
    want = (5 * n - 1, 3 * n * n + 9 * n - 6, 3 * n * n + 4 * n - 4)
    if fv != want:
        problems.append(f"face vector {fv}, expected {want}")
    if fv[0] - fv[1] + fv[2] != 1:
        problems.append(f"euler characteristic {fv[0] - fv[1] + fv[2]} != 1")
    used = {v for t in tris for v in t}
    if used != set(range(5 * n - 1)):
        problems.append(f"vertex ids are not exactly 0..{5 * n - 2}")
    return problems


def check_valid_sequence(n: int, rc: int, text: str) -> list[str]:
    """Conditions 1 and 2 against the sign rule (-1)^popcount(i & j), O(n^2)."""
    problems = [] if rc == 0 else [f"valid-seq exited {rc}"]
    perms = [[int(x) for x in line.split()] for line in text.splitlines()]
    if len(perms) != n:
        return problems + [f"{len(perms)} orderings, expected {n}"]
    labels = list(range(1, n + 1))
    seen = set()
    for i, p in enumerate(perms):
        if sorted(p) != labels or p[0] != 1:
            problems.append(f"condition 1: ordering {i + 1} is not a permutation of 1..{n} from 1")
            continue
        for t in range(n):
            a, b = p[t], p[(t + 1) % n]
            sa = (i & (a - 1)).bit_count() & 1
            sb = (i & (b - 1)).bit_count() & 1
            key = ((a * (n + 1) + b) * 2 + sa) * 2 + sb
            if key in seen:
                problems.append(f"condition 2: pair ({a},{b}) with signs ({sa},{sb}) repeats in ordering {i + 1}")
            seen.add(key)
    return problems[:5]


def _parse_matrix(lines: list[str], at: int) -> tuple[list[list[int]], int]:
    rows, cols = (int(x) for x in lines[at].split())
    body = [[int(x) for x in lines[at + 1 + i].split()] for i in range(rows)]
    if any(len(r) != cols for r in body):
        raise ValueError(f"ragged {rows}x{cols} matrix")
    return body, at + 1 + rows


def check_snf(rows: list[list[int]], rc: int, text: str, transforms: bool,
              walsh_order: int | None) -> list[str]:
    problems = [] if rc == 0 else [f"snf exited {rc}"]
    lines = text.splitlines()
    if not lines[0].startswith("invariant_factors:") or not lines[1].startswith("rank: "):
        return problems + ["output lacks the invariant_factors and rank lines"]
    factors = [int(x) for x in lines[0].split()[1:]]
    rank = int(lines[1].split()[1])
    m, n = len(rows), len(rows[0])

    if len(factors) != rank:
        problems.append(f"{len(factors)} factors but rank {rank}")
    if any(f <= 0 for f in factors):
        problems.append("a factor is not positive")
    elif any(b % a for a, b in zip(factors, factors[1:])):
        problems.append("factors are not chain-divisible")
    g = 0
    for r in rows:
        for x in r:
            g = gcd(g, x)
    if factors and factors[0] != g:
        problems.append(f"first factor {factors[0]} != gcd of entries {g}")

    if walsh_order is not None:
        # H H^T = n I gives full rank and |det| = n^(n/2) without elimination.
        a = np.array(rows, dtype=np.int64)
        if not np.array_equal(a @ a.T, walsh_order * np.eye(walsh_order, dtype=np.int64)):
            problems.append("input is not a Hadamard matrix")
        true_rank, det = walsh_order, walsh_order ** (walsh_order // 2)
        if factors != walsh_factors(walsh_order):
            problems.append("factors differ from the closed form 2^j x C(log2 n, j)")
    else:
        true_rank, det = rank_det(rows)
    if rank != true_rank:
        problems.append(f"rank {rank}, expected {true_rank}")
    if m == n and det and prod(factors) != abs(det):
        problems.append("product of factors != |det|")
    for p in MOD_PRIMES:
        divisible = sum(1 for f in factors if f % p == 0)
        if divisible != true_rank - rank_mod_p(rows, p):
            problems.append(f"{divisible} factors divisible by {p}, expected rank - rank mod {p}")

    if transforms:
        try:
            mats = {}
            at = 2
            for name in ("S", "A", "T"):
                if lines[at] != f"{name}:":
                    raise ValueError(f"expected '{name}:' at line {at + 1}")
                mats[name], at = _parse_matrix(lines, at + 1)
        except (IndexError, ValueError) as e:
            return problems + [f"bad transforms: {e}"]
        s, a, t = mats["S"], mats["A"], mats["T"]
        if matmul(matmul(s, a), t) != rows:
            problems.append("S*A*T != M")
        diag = [a[i][i] for i in range(min(m, n))]
        off = any(a[i][j] for i in range(m) for j in range(n) if i != j)
        if off or [d for d in diag if d] != factors or any(d < 0 for d in diag):
            problems.append("A is not the diagonal of the invariant factors")
        for name, mat in (("S", s), ("T", t)):
            if abs(rank_det(mat)[1]) != 1:
                problems.append(f"det {name} is not +-1")
    return problems
