"""Command-line front end.

Exit codes: 0 success/pass, 1 verification failure, 2 input error (an
order too large to allocate is one).
Readers default to stdin, writers to stdout, so stages pipe together:
``torsionforge build-speyer --k 11 | torsionforge homology``.
``main`` may be called repeatedly in one process and builds its parser once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fileio
from .disc_complex import ORDERINGS, from_matrix
from .exactmat import smith_normal_form
from .hadamard import augment, walsh
from .hmt_builder import build_hmt, hmt_certificate
from .homology import simplicial_homology
from .speyer import build_speyer_complex
from .triangulation import triangulate_generic
from .valid_sequences import check_valid, valid_sequence

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _complex_text(k, fmt: str) -> str:
    return fileio.complex_to_json(k) if fmt == "json" else fileio.write_facets(k)


def _cmd_walsh(args) -> int:
    m = walsh(args.n)
    if args.augment:
        m = augment(m)
    _write_output(args.output, fileio.write_matrix(m))
    return EXIT_OK


def _cmd_valid_seq(args) -> int:
    if (args.check is None) != (args.matrix is None):
        raise ValueError("--check and --matrix must be given together")
    if args.check is not None:
        seq = fileio.read_sequence(_read_input(args.check))
        m = fileio.read_matrix(_read_input(args.matrix))
        report = check_valid(seq, m)
        if report.ok:
            _write_output(args.output, "ok\n")
            return EXIT_OK
        text = f"violation: condition {report.condition}: {report.detail}\n"
        if report.violation:
            text += "quadruple: {} {} {} {}\n".format(*report.violation)
        _write_output(args.output, text)
        return EXIT_VERIFICATION
    if args.n is None:
        raise ValueError("either --n or --check/--matrix is required")
    _write_output(args.output, fileio.write_sequence(valid_sequence(args.n)))
    return EXIT_OK


def _cmd_build_hmt(args) -> int:
    k = build_hmt(args.n, keep_first_digon=args.keep_first_digon)
    _write_output(args.output, _complex_text(k, args.format))
    return EXIT_OK


def _cmd_build_speyer(args) -> int:
    k = build_speyer_complex(args.k)
    _write_output(args.output, _complex_text(k, args.format))
    return EXIT_OK


def _cmd_triangulate(args) -> int:
    m = fileio.read_matrix(_read_input(args.matrix))
    k = triangulate_generic(from_matrix(m, args.ordering))
    _write_output(args.output, _complex_text(k, args.format))
    return EXIT_OK


def _group_line(name, g) -> str:
    inv = ",".join(str(f) for f in g.invariant_factors)
    pri = ",".join(str(f) for f in g.primary_decomposition)
    return f"{name}: free_rank={g.free_rank} invariant_factors=[{inv}] primary=[{pri}] group={g}"


def _cmd_homology(args) -> int:
    hom = simplicial_homology(fileio.read_complex(_read_input(args.complex)))
    text = "\n".join(
        (_group_line("H0", hom.h0), _group_line("H1", hom.h1), _group_line("H2", hom.h2))
    )
    _write_output(args.output, text + "\n")
    return EXIT_OK


def _cmd_snf(args) -> int:
    m = fileio.read_matrix(_read_input(args.matrix))
    res = smith_normal_form(m, transforms=args.transforms)
    lines = [
        "invariant_factors: " + " ".join(str(f) for f in res.invariant_factors),
        f"rank: {res.rank}",
    ]
    text = "\n".join(lines) + "\n"
    if args.transforms:
        for name, mat in (("S", res.s), ("A", res.a), ("T", res.t)):
            text += f"{name}:\n" + fileio.write_matrix(mat)
    _write_output(args.output, text)
    return EXIT_OK


def _cmd_certify(args) -> int:
    certs = [hmt_certificate(n) for n in args.n]
    payload = certs[0] if len(certs) == 1 else certs
    _write_output(args.output, json.dumps(payload, indent=1) + "\n")
    for cert in certs:
        status = "PASS" if cert["passed"] else "FAIL"
        print(f"certify n={cert['n']}: {status} ({cert['elapsed']}s)", file=sys.stderr)
    return EXIT_OK if all(c["passed"] for c in certs) else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torsionforge",
        description="Build 2-dimensional simplicial complexes with large torsion "
        "from integer matrices and certify them by exact homology.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("-o", "--output", default=None, help="output file (default: stdout)")

    sp = sub.add_parser("walsh", help="emit the order-n Walsh matrix")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--augment", action="store_true", help="emit the digon-augmented 2n x 2n matrix")
    add_output(sp)
    sp.set_defaults(func=_cmd_walsh)

    sp = sub.add_parser("valid-seq", help="emit or check a valid sequence")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--check", metavar="FILE", default=None, help="sequence file to check")
    sp.add_argument("--matrix", metavar="FILE", default=None, help="matrix file to check against")
    add_output(sp)
    sp.set_defaults(func=_cmd_valid_seq)

    sp = sub.add_parser("build-hmt", help="build the Hadamard triangulation HMT(n)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--keep-first-digon", action="store_true",
                    help="keep the redundant first digon (5n+1 vertices instead of 5n-1)")
    sp.add_argument("--format", choices=("facets", "json"), default="facets")
    add_output(sp)
    sp.set_defaults(func=_cmd_build_hmt)

    sp = sub.add_parser("build-speyer", help="build the determinant-k complex K(k)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--format", choices=("facets", "json"), default="facets")
    add_output(sp)
    sp.set_defaults(func=_cmd_build_speyer)

    sp = sub.add_parser("triangulate", help="triangulate the disc complex of a matrix")
    sp.add_argument("--matrix", metavar="FILE", default=None, help="matrix file (default: stdin)")
    sp.add_argument("--ordering", choices=ORDERINGS, default="grouped")
    sp.add_argument("--format", choices=("facets", "json"), default="facets")
    add_output(sp)
    sp.set_defaults(func=_cmd_triangulate)

    sp = sub.add_parser("homology", help="integer homology of a complex file")
    sp.add_argument("--complex", metavar="FILE", default=None, help="facet/json file (default: stdin)")
    add_output(sp)
    sp.set_defaults(func=_cmd_homology)

    sp = sub.add_parser("snf", help="Smith normal form of a matrix file")
    sp.add_argument("--matrix", metavar="FILE", default=None, help="matrix file (default: stdin)")
    sp.add_argument("--transforms", action="store_true", help="also emit unimodular S, A, T")
    add_output(sp)
    sp.set_defaults(func=_cmd_snf)

    sp = sub.add_parser("certify", help="build HMT(n) and verify every closed form")
    sp.add_argument("--n", type=int, action="append", required=True,
                    help="order to certify; repeat for several")
    add_output(sp)
    sp.set_defaults(func=_cmd_certify)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's own parser, not one that build_parser() handed to a caller, so
    # changing such a parser cannot change how main parses.  Reuse is safe
    # because a parse leaves no state on the parser: argparse looks up
    # sys.stdout and sys.stderr when it prints, and --n's append action
    # copies its default.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (fileio.FileFormatError, ValueError, MemoryError, OSError) as e:
        # a bare MemoryError has no message of its own
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
