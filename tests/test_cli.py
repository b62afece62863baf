import contextlib
import hashlib
import io
import json
import re
import time

import numpy as np
import pytest

from torsionforge import cli
from torsionforge.cli import build_parser, main
from torsionforge.exactmat import int_matrix
from torsionforge.fileio import read_matrix, write_matrix
from torsionforge.hadamard import walsh
from torsionforge.speyer import MAX_SPEYER_BITS


# input and full `snf --transforms` stdout; S and T depend on the exact
# pivot order.  On the three "promote" inputs a sweep that reduces before it
# promotes the smallest entry of the pivot column or row gives other S and T.
SNF_TRANSFORMS_GOLDEN = {
    # random.Random(5), entries in [-9, 9]
    "seeded5": ([[-1, 2, 7, -9, 5], [-2, -8, -4, -6, 2], [6, -2, 3, 8, -6], [9, -2, -9, -3, 4], [-1, -4, 3, -4, -7]], """\
invariant_factors: 1 1 1 1 87640
rank: 5
S:
5 5
-1 0 0 0 0
-2 -18 -492 -32286710 -8804803
6 45 1214 79665919 21725432
9 54 1428 93709775 25555286
-1 -4 -107 -7021928 -1914927
A:
5 5
1 0 0 0 0
0 1 0 0 0
0 0 1 0 0
0 0 0 1 0
0 0 0 0 87640
T:
5 5
1 -2 -7 9 -5
0 -6 1 -28 1
0 -1150 0 1 -2360
0 -23900 0 0 1314501
0 1 0 0 -55
"""),
    "walsh4": (walsh(4).tolist(), """\
invariant_factors: 1 2 2 4
rank: 4
S:
4 4
1 0 0 0
1 -1 0 0
1 0 -1 0
1 -1 -1 1
A:
4 4
1 0 0 0
0 2 0 0
0 0 2 0
0 0 0 4
T:
4 4
1 1 1 1
0 1 0 1
0 0 1 1
0 0 0 1
"""),
    "promote2x3": ([[9, -8, -4], [-7, -5, 4]], """\
invariant_factors: 1 1
rank: 2
S:
2 2
-3 -2
5 3
A:
2 3
1 0 0
0 1 0
T:
3 3
13 -34 -4
-24 55 8
-3 7 1
"""),
    "promote2x4": ([[-4, 2, 4, 2], [5, -8, -8, -7]], """\
invariant_factors: 1 2
rank: 2
S:
2 2
0 1
1 -5
A:
2 4
1 0 0 0
0 2 0 0
T:
4 4
-15 2 12 3
-2 1 2 1
0 0 1 0
1 0 0 0
"""),
    "promote3x3": ([[4, -3, 5], [-8, 2, -9], [-4, 4, 0]], """\
invariant_factors: 1 1 84
rank: 3
S:
3 3
-3 -34 -2
2 17 1
4 52 3
A:
3 3
1 0 0
0 1 0
0 0 84
T:
3 3
-12 1 -13
-4 0 1
1 0 0
"""),
}


# matrix files with entries past int64 and their `snf --transforms` stdout;
# `snf` prints its first two lines.  Left to numpy's dtype inference, the
# first file reads as float64 and the second as uint64.
SNF_BIG_INT_GOLDEN = {
    "float64-trap": ("2 2\n-1 9223372036854775808\n3 5\n", """\
invariant_factors: 1 27670116110564327429
rank: 2
S:
2 2
-1 0
3 1
A:
2 2
1 0
0 27670116110564327429
T:
2 2
1 -9223372036854775808
0 1
"""),
    "uint64-trap": ("2 3\n9223372036854775813 6 4\n2 18446744073709551615 8\n", """\
invariant_factors: 1 3
rank: 2
S:
2 2
9223372036854775813 4611686018427387906
2 1
A:
2 3
1 0 0
0 3 0
T:
3 3
1 -85070591730234615898125453986933768184 -36893488147419103244
0 56713727820156410604899217349192362661 24595658764946068832
0 19242157653267353598420212030506507896 8344955652392416211
"""),
    "json-past-int64": ('{"rows": [[1180591620717411303424, 6], [10, -36893488147419103232]]}\n', """\
invariant_factors: 2 21778071482940061661655974875633165533214
rank: 2
S:
2 2
3 1
-18446744073709551616 -6148914691236517205
A:
2 2
2 0
0 21778071482940061661655974875633165533214
T:
2 2
-3629678580490010276745897209152625704965 1
1 0
"""),
}

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWalsh:
    def test_emits_matrix(self, capsys):
        code, out, _ = run(capsys, "walsh", "--n", "4")
        assert code == 0
        assert np.array_equal(read_matrix(out), walsh(4))

    def test_augment_flag(self, capsys):
        code, out, _ = run(capsys, "walsh", "--n", "2", "--augment")
        assert code == 0
        assert read_matrix(out).tolist() == [
            [1, 0, 1, 0],
            [1, 0, 0, 1],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ]

    def test_bad_order_is_input_error(self, capsys):
        code, _, err = run(capsys, "walsh", "--n", "3")
        assert code == 2
        assert "power of two" in err

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 8.00 TiB"), "error: Unable to allocate 8.00 TiB\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
    )
    def test_out_of_memory_is_input_error(self, exc, message, capsys, monkeypatch):
        # stands in for an order too large to allocate, without allocating
        def walsh(n):
            raise exc

        monkeypatch.setattr(cli, "walsh", walsh)
        code, out, err = run(capsys, "walsh", "--n", "1048576")
        assert (code, out, err) == (2, "", message)


class TestValidSeq:
    def test_generate(self, capsys):
        code, out, _ = run(capsys, "valid-seq", "--n", "4")
        assert code == 0
        assert out == "1 2 3 4\n1 2 3 4\n1 4 3 2\n1 4 3 2\n"

    def test_check_ok(self, capsys, tmp_path):
        seqfile = tmp_path / "seq.txt"
        matfile = tmp_path / "mat.txt"
        run(capsys, "valid-seq", "--n", "8", "-o", str(seqfile))
        run(capsys, "walsh", "--n", "8", "-o", str(matfile))
        code, out, _ = run(capsys, "valid-seq", "--check", str(seqfile), "--matrix", str(matfile))
        assert code == 0
        assert out == "ok\n"

    def test_check_violation_exits_one(self, capsys, tmp_path):
        seqfile = tmp_path / "seq.txt"
        matfile = tmp_path / "mat.txt"
        seqfile.write_text("1 2 3 4\n1 2 3 4\n1 2 3 4\n1 2 3 4\n")
        matfile.write_text(write_matrix(walsh(4)))
        code, out, _ = run(capsys, "valid-seq", "--check", str(seqfile), "--matrix", str(matfile))
        assert code == 1
        assert "condition 2" in out
        assert "quadruple: 1 1 3 1" in out

    def test_label_past_64_bits_is_input_error(self, capsys, tmp_path):
        seqfile = tmp_path / "seq.txt"
        matfile = tmp_path / "mat.txt"
        seqfile.write_text("1 2\n1 99999999999999999999\n")
        matfile.write_text(write_matrix(walsh(2)))
        code, out, err = run(capsys, "valid-seq", "--check", str(seqfile), "--matrix", str(matfile))
        assert code == 2 and out == ""
        assert "line 2, col 3: label 99999999999999999999 does not fit in 64 bits" in err

    def test_check_needs_both_files(self, capsys, tmp_path):
        seqfile = tmp_path / "seq.txt"
        seqfile.write_text("1\n")
        code, _, err = run(capsys, "valid-seq", "--check", str(seqfile))
        assert code == 2


class TestPipelines:
    def test_speyer_to_homology(self, capsys, monkeypatch):
        code, facets, _ = run(capsys, "build-speyer", "--k", "11")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(facets))
        code, out, _ = run(capsys, "homology")
        assert code == 0
        assert "H1: free_rank=0 invariant_factors=[11] primary=[11] group=Z_11" in out

    @staticmethod
    def speyer_homology(capsys, monkeypatch, k):
        """stdout of `build-speyer --k k | homology`, after checking both
        stages succeed within 5 s."""
        t0 = time.perf_counter()
        code, facets, _ = run(capsys, "build-speyer", "--k", str(k))
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(facets))
        code, out, _ = run(capsys, "homology")
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        return out

    def test_speyer_61_bit_prime(self, capsys, monkeypatch):
        k = 2**61 - 1
        assert f"group=Z_{k}\n" in self.speyer_homology(capsys, monkeypatch, k)

    def test_speyer_64_bit_semiprime(self, capsys, monkeypatch):
        k = 4294967291 * 4294967279
        h1 = f"H1: free_rank=0 invariant_factors=[{k}] primary=[4294967279,4294967291] group=Z_{k}\n"
        assert h1 in self.speyer_homology(capsys, monkeypatch, k)

    def test_speyer_unfactorable_order_is_input_error(self, capsys, monkeypatch):
        k = (2**61 - 1) * (2**64 - 59)
        t0 = time.perf_counter()
        code, facets, _ = run(capsys, "build-speyer", "--k", str(k))
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(facets))
        code, out, err = run(capsys, "homology")
        assert time.perf_counter() - t0 < 10.0
        assert code == 2 and out == ""
        assert f"error: cannot factor {k}:" in err

    def test_speyer_uncertifiable_prime_is_input_error(self, capsys, monkeypatch):
        k = 2**127 - 1  # prime, but above the Miller-Rabin certainty bound
        t0 = time.perf_counter()
        code, facets, _ = run(capsys, "build-speyer", "--k", str(k))
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(facets))
        code, out, err = run(capsys, "homology")
        assert time.perf_counter() - t0 < 10.0
        assert code == 2 and out == ""
        assert f"error: cannot factor {k}: " in err and "certified prime" in err

    def test_triangulate_matrix_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 2\n"))
        code, facets, _ = run(capsys, "triangulate", "--ordering", "interleaved")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(facets))
        code, out, _ = run(capsys, "homology")
        assert code == 0
        assert "H1: free_rank=1 invariant_factors=[2] primary=[2] group=Z x Z_2" in out

    def test_build_hmt_json_format(self, capsys):
        code, out, _ = run(capsys, "build-hmt", "--n", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["vertices"]) == 9
        assert len(obj["triangles"]) == 16

    def test_hmt_homology_pipe(self, capsys, monkeypatch):
        code, facets, _ = run(capsys, "build-hmt", "--n", "4")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(facets))
        code, out, _ = run(capsys, "homology")
        assert code == 0
        assert "group=Z_2 x Z_2 x Z_4" in out

    @pytest.mark.parametrize(
        "text",
        [
            "0 1 18446744073709551616\n",
            json.dumps({"vertices": [[0, "a"], [1, "b"], [2**63, "c"]], "edges": [], "triangles": []}),
            json.dumps({"vertices": [[-(2**63) - 1, "a"]], "edges": [], "triangles": []}),
        ],
        ids=["facets", "json", "json-negative"],
    )
    def test_vertex_id_past_64_bits_is_input_error(self, text, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run(capsys, "homology")
        assert code == 2
        assert "vertex id" in err

    def test_speyer_k_past_bit_bound_is_input_error(self, capsys):
        k = 2**MAX_SPEYER_BITS  # the first k past the bound
        t0 = time.perf_counter()
        code, out, err = run(capsys, "build-speyer", "--k", str(k))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert f"error: k has {MAX_SPEYER_BITS + 1} bits, more than the {MAX_SPEYER_BITS} allowed" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["edges"].pop(5), "edge list misses triangle side (0, 6)"),
            (lambda obj: obj["edges"].append([7, 0]), "edge (0, 7) is not a side of any triangle"),
            (lambda obj: obj["edges"].append([3, 3]), "edge (3, 3) is not a side of any triangle"),
            (lambda obj: obj["edges"].append([2, 40]), "edge (2, 40) is not a side of any triangle"),
            (lambda obj: obj["edges"].append([4, 1]), "edge (1, 4) is listed twice"),
            (lambda obj: obj["vertices"].append([40, "stray"]), "vertex 40 lies in no triangle"),
        ],
        ids=["missing", "extra", "loop", "unknown-vertex", "duplicate", "stray-vertex"],
    )
    def test_json_edges_must_be_the_triangle_sides(self, edit, message, capsys, monkeypatch):
        code, text, _ = run(capsys, "build-hmt", "--n", "2", "--format", "json")
        assert code == 0
        obj = json.loads(text)
        edit(obj)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run(capsys, "homology")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_repeated_facet_line_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2\n0 1 3\n0 1 2\n"))
        code, out, err = run(capsys, "homology")
        assert code == 2 and out == ""
        assert "error: duplicate triangle (0, 1, 2)" in err

    @pytest.mark.parametrize(
        "vertices, triangles",
        [
            ([[0, "a"], [1, "b"], [2, "c"]], [[0.9, 1.2, 2.7]]),
            ([[0, "a"], [1, "b"], [2, "c"], [1, "d"]], [[0, 1, 2]]),
        ],
        ids=["float-id", "repeated-id"],
    )
    def test_bad_json_vertex_id_is_input_error(self, vertices, triangles, capsys, monkeypatch):
        text = json.dumps({"vertices": vertices, "edges": [], "triangles": triangles})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "homology")
        assert code == 2 and not out
        assert "bad complex object:" in err

    def test_snf_on_walsh_file(self, capsys, tmp_path):
        matfile = tmp_path / "w8.txt"
        run(capsys, "walsh", "--n", "8", "-o", str(matfile))
        code, out, _ = run(capsys, "snf", "--matrix", str(matfile))
        assert code == 0
        assert "invariant_factors: 1 2 2 2 4 4 4 8" in out
        assert "rank: 8" in out

    def test_snf_transforms(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n2 4\n6 8\n"))
        code, out, _ = run(capsys, "snf", "--transforms")
        assert code == 0
        assert "S:" in out and "A:" in out and "T:" in out
        m = int_matrix([[2, 4], [6, 8]])
        blocks = {}
        for name in ("S", "A", "T"):
            start = out.index(f"{name}:\n") + len(name) + 2
            rest = out[start:]
            blocks[name] = read_matrix("\n".join(rest.splitlines()[:3]))
        assert np.array_equal(blocks["S"] @ blocks["A"] @ blocks["T"], m)

    @pytest.mark.parametrize("name", sorted(SNF_TRANSFORMS_GOLDEN))
    def test_snf_transforms_golden(self, name, capsys, monkeypatch):
        rows, golden = SNF_TRANSFORMS_GOLDEN[name]
        monkeypatch.setattr("sys.stdin", io.StringIO(write_matrix(int_matrix(rows))))
        code, out, _ = run(capsys, "snf", "--transforms")
        assert code == 0
        assert out == golden

    @pytest.mark.parametrize("transforms", [False, True], ids=["snf", "transforms"])
    @pytest.mark.parametrize("name", sorted(SNF_BIG_INT_GOLDEN))
    def test_snf_big_int_golden(self, name, transforms, capsys, tmp_path):
        text, golden = SNF_BIG_INT_GOLDEN[name]
        matfile = tmp_path / "m.txt"
        matfile.write_text(text)
        argv = ["snf", "--matrix", str(matfile)] + ["--transforms"] * transforms
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (golden if transforms else "".join(golden.splitlines(keepends=True)[:2]))

    def test_triangulate_rejects_huge_word_quickly(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n1000000000000\n"))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "triangulate")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert "error: matrix needs 1000000000000 boundary letters" in err

    def test_malformed_matrix_reports_position(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n1 oops\n3 4\n"))
        code, _, err = run(capsys, "snf")
        assert code == 2
        assert "line 2" in err and "col 3" in err


class TestGoldenOutput:
    """SHA-256 of stdout, as produced by the per-face builder and writer
    that the array construction replaced."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("build-hmt --n 2", "e763114a2d5730f8b576a4c3c5256695857db13528d7e3d6f54cf068a8f0fe12"),
            ("build-hmt --n 4", "a844cdc9c5777effe2c8d1b52a045306b73421a2d53c82270f0a35306a2c4f95"),
            ("build-hmt --n 64", "1a929b7f70dbe3e9f7d8ea7326bf068d0d25b1477237dec280aa8141d254b80b"),
            ("build-hmt --n 128", "80ea09f9fa58944463c0850c4e8f1f328d14dfc8b8a6f2bbc792fd1051b4f018"),
            ("build-hmt --n 256", "edde9b4e880937a4bd01ac71231098e1ee3d17fd9e2ddc15d92c5de27c88ad94"),
            ("build-hmt --n 512", "dd3b3087fd865b1ceae22383f591b570ffe7835d2a6cd94d99a2db9627344029"),
            ("build-hmt --n 512 --keep-first-digon", "4859f16d8f45b317aa5fd860f6897fc392130d9e3bd9bdf8c8d987705aa2eefe"),
            ("build-hmt --n 64 --keep-first-digon", "5c798052c80c64aed4d341ba917efd127d3dc954ad1cf9c1a18ebc0fd63148bc"),
            ("build-hmt --n 16 --format json", "2fd9efc14d902041a75a287be46a8745f272c5973bfc52d5901821ae0b9a988a"),
            ("build-hmt --n 64 --format json", "57ca4b812ae799fdde7a9f26ff6c93915d72fd585cefcf36d79dd68809b2092e"),
            ("build-speyer --k 2305843009213693951", "99480e2cd5575f495ea4da6064b05901d977fb6a21ed7c445b15f26b3442b792"),
            ("valid-seq --n 2", "d5356822c2f6c1ec347bc90581c63154e2c59f7b82589fb0e7e52b4984d51d09"),
            ("valid-seq --n 64", "e8cf4f123c94ca3e78023bd0718fb984540e751f0d9403c71c1e328910259e15"),
            ("valid-seq --n 1024", "f8e469b3a331e289d559966c500a62cd03ecf92a0e43b1231b0f204b847939bb"),
        ],
    )
    def test_digest(self, argv, digest, capsys):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGoldenCertificate:
    """SHA-256 of certify's stdout with its one 'elapsed' value set to 0,
    as produced when the face vector was counted apart from homology."""

    @pytest.mark.parametrize(
        "n, digest",
        [
            (2, "6dd47fde340f215b31043932b2cb0a643ba81dc5721487e5ef6b6d5e89988516"),
            (4, "5b42ea76503cab4ec8adba9627f9503bc285d272d04a1f17e0bfeff062d531ad"),
            (8, "517e0f561cd97ae92eedd28220262c760873058ed3b5148523f06d8041238247"),
            (16, "bfa92d2054a7794aa998225f84b10236282d383c19556fd55d969b9bca04c61c"),
            (64, "10399d4fc6dabd02574cad52858f74f250f37b95a6c86daededaac2bf9e5a559"),
            (256, "932fb31e405afc719b606fc53b6f50b4e421c467a27e1a5737fe89ac32094a15"),
        ],
    )
    def test_digest(self, n, digest, capsys):
        code, out, _ = run(capsys, "certify", "--n", str(n))
        assert code == 0
        out, masked = re.subn(r'"elapsed": [^,]*,', '"elapsed": 0,', out)
        assert masked == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCertify:
    def test_pass(self, capsys):
        code, out, err = run(capsys, "certify", "--n", "2")
        assert code == 0
        cert = json.loads(out)
        assert cert["passed"] is True and cert["n"] == 2
        assert "PASS" in err

    def test_multiple_orders(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "2", "--n", "4")
        assert code == 0
        certs = json.loads(out)
        assert [c["n"] for c in certs] == [2, 4]
        assert all(c["passed"] for c in certs)

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "certify", "--n", "5")
        assert code == 2


class TestBench:
    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestParserReuse:
    """main builds its parser once per process; every call parses afresh."""

    @staticmethod
    def warm_up():
        # Makes sure the parser exists, built while stdout and stderr were
        # other streams than the ones the test then captures.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["walsh", "--n", "2"]) == 0

    def test_parser_is_built_at_most_once(self, capsys, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for argv in (["walsh", "--n", "2"], ["certify", "--n", "2"], ["valid-seq", "--n", "4"]) * 2:
            assert main(argv) == 0
        capsys.readouterr()
        assert len(built) <= 1

    def test_build_parser_returns_a_fresh_parser(self, capsys):
        self.warm_up()
        changed = build_parser()
        assert changed is not build_parser()
        changed.prog = "changed"
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: torsionforge ")

    def test_repeated_option_does_not_carry_over(self, capsys):
        assert run(capsys, "certify", "--n", "4")[0] == 0
        code, out, _ = run(capsys, "certify", "--n", "8")
        assert code == 0
        cert = json.loads(out)
        assert isinstance(cert, dict) and cert["n"] == 8

    def test_usage_error_then_valid_call(self, capsys):
        self.warm_up()
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        code, out, err = run(capsys, "walsh", "--n", "2")
        assert code == 0
        assert out == write_matrix(walsh(2)) and err == ""

    def test_help_twice(self, capsys):
        self.warm_up()
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            texts.append(captured.out)
        assert texts[0].startswith("usage: torsionforge ")
        assert texts[0] == texts[1]


class TestRoundTrip:
    def test_facets_export_import_identity(self, capsys, tmp_path, monkeypatch):
        code, first, _ = run(capsys, "build-hmt", "--n", "4")
        monkeypatch.setattr("sys.stdin", io.StringIO(first))
        # re-reading and re-writing the facet file must be byte-identical
        from torsionforge.fileio import read_facets, write_facets

        assert write_facets(read_facets(first)) == first
