"""Text formats: matrices ("rows cols" header then entries, or a JSON
object with a "rows" field), valid sequences (one ordering per line), and
the canonical facet format (one ascending triangle per line, lines sorted,
newline-terminated) that makes golden files bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .exactmat import int_matrix
from .triangulation import SimplicialComplex2, _index_in, _sorted_unique
from .valid_sequences import ValidSequence

# Vertex ids are stored as int64.
_MAX_ID = 2**63 - 1


class FileFormatError(ValueError):
    """Malformed input file; carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, col {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _token_lines(text: str) -> dict[int, list[tuple[str, int, int]]]:
    """The (token, line, col) triples of each non-blank line, by line."""
    lines: dict[int, list[tuple[str, int, int]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        col = 1
        for tok in line.split():
            col = line.index(tok, col - 1) + 1
            lines.setdefault(lineno, []).append((tok, lineno, col))
            col += len(tok)
    return lines


def _parse_int(tok: str, line: int, col: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FileFormatError(f"expected an integer, got {tok!r}", line, col) from None


def read_matrix(text: str) -> np.ndarray:
    """The matrix of a text or JSON matrix file, as :func:`int_matrix`
    makes it: int64 when every entry fits, otherwise Python ints."""
    if text.lstrip().startswith("{"):
        return _read_matrix_json(text)
    tokens = text.split()
    try:
        values = np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens))
    except (ValueError, OverflowError):
        return _read_matrix_with_positions(text)
    if len(values) >= 2 and min(values[:2]) >= 1 and len(values) == int(values[0]) * int(values[1]) + 2:
        return values[2:].reshape(int(values[0]), int(values[1]))
    return _read_matrix_with_positions(text)


def _read_matrix_with_positions(text: str) -> np.ndarray:
    """The token-by-token parse that reports the line and column where a
    matrix file is malformed; :func:`read_matrix` runs it on text its int64
    pass rejects, so it also builds matrices with entries past int64."""
    toks = [tok for line in _token_lines(text).values() for tok in line]
    if len(toks) < 2:
        raise FileFormatError("matrix file needs a 'rows cols' header", 1, 1)
    rows = _parse_int(*toks[0])
    cols = _parse_int(*toks[1])
    if rows < 1 or cols < 1:
        raise FileFormatError(f"matrix dimensions {rows}x{cols} must be positive", toks[0][1], toks[0][2])
    need = rows * cols
    body = toks[2:]
    if len(body) < need:
        raise FileFormatError(f"expected {need} entries, file has {len(body)}", toks[-1][1], toks[-1][2])
    if len(body) > need:
        extra = body[need]
        raise FileFormatError("unexpected extra token after matrix entries", extra[1], extra[2])
    entries = [_parse_int(*t) for t in body]
    return int_matrix(entries[i * cols : (i + 1) * cols] for i in range(rows))


def _read_matrix_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"bad JSON: {e.msg}", e.lineno, e.colno) from None
    if not isinstance(obj, dict) or "rows" not in obj:
        raise FileFormatError('matrix object needs a "rows" field')
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise FileFormatError('"rows" must be a non-empty list of integer lists')
    try:
        return int_matrix(rows)
    except ValueError as e:
        raise FileFormatError(str(e)) from None


def write_matrix(m: np.ndarray) -> str:
    """The ``rows cols`` header, then each row through one format string."""
    rows, cols = m.shape
    line = " ".join(["%d"] * cols) + "\n"
    return f"{rows} {cols}\n" + "".join([line % tuple(row) for row in m.tolist()])


def _int_table(text: str) -> np.ndarray | None:
    """The non-blank lines of ``text`` as the rows of an int64 array; None
    when there are none, they differ in length or a token is not an int64."""
    widths = [len(toks) for toks in map(str.split, text.splitlines()) if toks]
    if len(set(widths)) != 1:
        return None
    try:
        values = np.fromiter(map(int, text.split()), dtype=np.int64, count=len(widths) * widths[0])
    except (ValueError, OverflowError):
        return None
    return values.reshape(len(widths), widths[0])


def read_sequence(text: str) -> ValidSequence:
    """One ordering per non-blank line, parsed in one pass; text that pass
    rejects is scanned again for the line and column of the fault."""
    perms = _int_table(text)
    if perms is not None and perms.shape[0] == perms.shape[1]:
        return ValidSequence(perms)
    lines = _token_lines(text)
    for tok in (t for toks in lines.values() for t in toks):
        if not -_MAX_ID - 1 <= _parse_int(*tok) <= _MAX_ID:
            raise FileFormatError(f"label {tok[0]} does not fit in 64 bits", tok[1], tok[2])
    for line, toks in lines.items():
        if len(toks) != len(lines):
            raise FileFormatError(f"ordering has {len(toks)} labels, expected {len(lines)}", line, 1)
    raise FileFormatError("empty sequence file", 1, 1)


def _format_rows(rows: np.ndarray, ids: np.ndarray) -> str:
    """The rows of an int64 array as lines of space-separated decimals,
    given the ascending distinct ``ids`` that hold every entry.  Each id is
    formatted once into one byte table of NUL-padded words, a whole number
    of uint64 wide: ending in a space in its first half and in a newline
    in its second.  The text is that table gathered by the rows' index,
    with the last column's offset into the second half, less its NULs."""
    idx = _index_in(ids, rows)
    words = [str(v) for v in ids.tolist()]
    width = 8 * (max(map(len, words), default=0) // 8 + 1)
    table = np.array([w + " " for w in words] + [w + "\n" for w in words], dtype=f"S{width}")
    idx[:, -1] += len(words)
    text = table.view(np.uint64).reshape(-1, width // 8).take(idx, axis=0)
    del idx
    text = text.tobytes()
    text = text.translate(None, b"\0")
    return text.decode("ascii")


def write_sequence(seq: ValidSequence) -> str:
    """One line per ordering."""
    return _format_rows(seq.perms, _sorted_unique(seq.perms))


def read_facets(text: str) -> SimplicialComplex2:
    """The complex of a facet file, parsed in one pass; text that pass
    rejects is scanned again for the first malformed line.  A repeated line
    is a duplicate triangle, which :class:`SimplicialComplex2` rejects."""
    tri = _int_table(text)
    if tri is not None and tri.shape[1] == 3 and ((0 <= tri[:, 0]) & (tri[:, 0] < tri[:, 1]) & (tri[:, 1] < tri[:, 2])).all():
        return SimplicialComplex2({v: str(v) for v in _sorted_unique(tri).tolist()}, tri)
    for lineno, toks in _token_lines(text).items():
        if len(toks) != 3:
            raise FileFormatError(f"facet line needs 3 vertex ids, got {len(toks)}", lineno, 1)
        a, b, c = [_parse_int(*t) for t in toks]
        if not a < b < c:
            raise FileFormatError(f"vertex ids must be strictly ascending, got {a} {b} {c}", lineno, 1)
        if a < 0:
            raise FileFormatError(f"negative vertex id {a}", lineno, 1)
        if c > _MAX_ID:
            raise FileFormatError(f"vertex id {c} exceeds {_MAX_ID}", lineno, 1)
    raise FileFormatError("facet file contains no triangles", 1, 1)


def write_facets(k: SimplicialComplex2) -> str:
    """One line per triangle, from the canonical (sorted) triangle array
    and one byte table of its labels: the constructor puts every label in
    a triangle and every vertex among the labels."""
    return _format_rows(k.triangles, np.array(sorted(k.labels), dtype=np.int64))


def complex_to_json(k: SimplicialComplex2) -> str:
    obj = {
        "vertices": [[v, k.labels[v]] for v in sorted(k.labels)],
        "edges": k.edges.tolist(),
        "triangles": k.triangles.tolist(),
    }
    return json.dumps(obj, indent=1) + "\n"


def _json_id(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"non-integer vertex id {x!r}")
    return x


def _id_table(rows, width: int, what: str) -> np.ndarray:
    table = [[_json_id(x) for x in r] for r in rows]
    if any(len(r) != width for r in table):
        raise ValueError(f"every {what} needs {width} vertex ids")
    return np.array(table, dtype=np.int64).reshape(-1, width)


def complex_from_json(text: str) -> SimplicialComplex2:
    """The complex of a JSON object.  Vertex ids must be JSON integers,
    each vertex listed once; the triangles must make a valid complex, and
    the edges, in any order, must be exactly the sides of the triangles.
    A listed edge that is not a side, a side that is not listed and an edge
    listed twice raise FileFormatError naming the first such edge."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"bad JSON: {e.msg}", e.lineno, e.colno) from None
    try:
        labels = {}
        for v, label in obj["vertices"]:
            v = _json_id(v)
            if v in labels:
                raise ValueError(f"repeated vertex id {v}")
            if not -_MAX_ID - 1 <= v <= _MAX_ID:
                raise ValueError(f"vertex id {v} does not fit in 64 bits")
            labels[v] = str(label)
        edges = _id_table(obj["edges"], 2, "edge")
        triangles = _id_table(obj["triangles"], 3, "triangle")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FileFormatError(f"bad complex object: {e}") from None
    k = SimplicialComplex2(labels, triangles)
    _check_edges(edges, k.edges)
    return k


def _check_edges(given: np.ndarray, sides: np.ndarray):
    """Raise FileFormatError unless the rows of ``given`` are, each in some
    vertex order, the rows of the canonical edge array ``sides``.  Once
    ``given`` is in canonical order too, the first row where the two
    differ names the fault."""
    given = np.sort(given, axis=1)
    given = given[np.lexsort(given.T[::-1])]
    if np.array_equal(given, sides):
        return
    n = min(len(given), len(sides))
    differ = np.flatnonzero((given[:n] != sides[:n]).any(axis=1))
    i = differ[0] if differ.size else n
    if i < len(sides) and (i == len(given) or sides[i].tolist() < given[i].tolist()):
        raise FileFormatError(f"edge list misses triangle side {tuple(sides[i].tolist())}")
    edge = tuple(given[i].tolist())
    if i and np.array_equal(given[i], given[i - 1]):
        raise FileFormatError(f"edge {edge} is listed twice")
    raise FileFormatError(f"edge {edge} is not a side of any triangle")


def read_complex(text: str) -> SimplicialComplex2:
    """Facet format by default; a leading '{' switches to the JSON form."""
    if text.lstrip().startswith("{"):
        return complex_from_json(text)
    return read_facets(text)

