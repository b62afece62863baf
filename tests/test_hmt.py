import json
import sys

import numpy as np
import pytest

from torsionforge import hmt_builder, triangulation
from torsionforge.cli import main
from torsionforge.disc_complex import cellular_homology
from torsionforge.exactmat import group_from_factors
from torsionforge.fileio import write_facets
from torsionforge.hadamard import augment, walsh
from torsionforge.hmt_builder import (
    build_hmt,
    hmt_certificate,
    hmt_face_vector,
    hmt_torsion_group,
)
from torsionforge.homology import simplicial_homology
from torsionforge.triangulation import validate_complex

from .oracles import euler_characteristic, face_vector, hmt_facets, hmt_reference
from .test_triangulation import claimed, complex_from_triangles, tetrahedron

HMT2_FACETS = """0 1 4
0 1 6
0 2 3
0 2 5
0 3 6
0 4 5
1 2 7
1 2 8
1 4 7
1 6 8
2 3 7
2 5 8
3 4 6
3 4 7
4 5 6
5 6 8
"""

HMT2_LABELS = {
    0: "0",
    1: "v1.1",
    2: "v1.2",
    3: "v2.1",
    4: "v2.2",
    5: "w2.1",
    6: "w2.2",
    7: "c1",
    8: "c2",
}


def reduced_augmented_matrix(n: int) -> np.ndarray:
    """Augmented Walsh matrix without the never-used first negative cycle:
    drop the first digon row and the column of that cycle."""
    full = augment(walsh(n))
    return np.delete(np.delete(full, n, axis=0), 1, axis=1)


class TestBuild:
    def test_facets_golden_n2(self):
        k = build_hmt(2)
        assert write_facets(k) == HMT2_FACETS

    def test_vertex_id_map_n2(self):
        assert build_hmt(2).labels == HMT2_LABELS

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_face_vector_formula(self, n):
        fv = face_vector(build_hmt(n))
        assert fv == hmt_face_vector(n)
        assert fv == (5 * n - 1, 3 * n * n + 9 * n - 6, 3 * n * n + 4 * n - 4)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_validates_and_chi_is_one(self, n):
        k = build_hmt(n)
        validate_complex(k)  # raises on an invalid complex
        assert euler_characteristic(k) == 1

    @pytest.mark.parametrize("bad", [1, 3, 0, 12, -4])
    def test_rejects_bad_orders(self, bad):
        with pytest.raises(ValueError, match="power of two"):
            build_hmt(bad)

    @pytest.mark.parametrize(
        "bad, kind", [(np.int64(4), "int64"), (True, "bool"), (1.0, "float"), ("4", "str")]
    )
    def test_rejects_non_int_orders_by_type(self, bad, kind):
        # True and 1.0 equal 1, but their fault is the type, not the n = 1 case
        with pytest.raises(ValueError, match=f"order must be a power of two of type int, got .* of type {kind}$"):
            build_hmt(bad)

    def test_builds_without_numpy_2_bit_count(self, monkeypatch):
        # numpy 1.x has no bitwise_count; the Walsh signs must not need it
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert [tuple(t) for t in build_hmt(16).triangles.tolist()] == hmt_facets(16, False)

    @pytest.mark.parametrize("keep_first_digon", [False, True])
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_matches_face_by_face_reference(self, n, keep_first_digon):
        k = build_hmt(n, keep_first_digon)
        assert [tuple(t) for t in k.triangles.tolist()] == hmt_facets(n, keep_first_digon)

    @pytest.mark.parametrize("keep_first_digon", [False, True])
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_ids_claims_and_owners_match_the_reference_builder(self, n, keep_first_digon):
        k, ref = build_hmt(n, keep_first_digon), hmt_reference(n, keep_first_digon)
        assert k.labels == ref.labels
        assert np.array_equal(k.claims, ref.claims)
        assert np.array_equal(k.claim_owner, ref.claim_owner)
        assert k.owners == ref.owners

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_keep_first_digon_variant(self, n):
        k = build_hmt(n, keep_first_digon=True)
        f0, _, f2 = face_vector(k)
        assert f0 == 5 * n + 1
        assert f2 == 3 * n * n + 4 * n
        validate_complex(k)  # raises on an invalid complex


class TestStructure:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_shield_diagonals_unique_and_doubly_incident(self, n):
        k = build_hmt(n)
        owners = {}
        for e, owner in claimed(k):
            assert e not in owners or owners[e] == owner
            owners[e] = owner
        incidence = {}
        for t in k.triangles.tolist():
            for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                incidence[e] = incidence.get(e, 0) + 1
        centers = {v for v, lab in k.labels.items() if lab.startswith("c")}
        diagonals = [
            e
            for e, owner in claimed(k)
            if owner.startswith("disc") and e[0] != 0 and not (set(e) & centers)
        ]
        assert len(diagonals) == n * n  # one per base-vertex visit per disc
        assert len(set(diagonals)) == n * n
        for e in diagonals:
            assert incidence[e] == 2

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_digon_edges_disjoint_from_disc_interiors(self, n):
        k = build_hmt(n)
        disc_edges = {e for e, o in claimed(k) if o.startswith("disc")}
        digon_edges = {e for e, o in claimed(k) if o.startswith("digon")}
        assert not disc_edges & digon_edges
        assert len(digon_edges) == 3 * (n - 1)


class TestHomology:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512])
    def test_torsion_matches_closed_form(self, n):
        hom = simplicial_homology(build_hmt(n))
        assert str(hom.h0) == "Z"
        assert hom.h2.is_trivial
        assert hom.h1 == hmt_torsion_group(n)
        assert hom.h1.torsion_order == n ** (n // 2)

    def test_small_values(self):
        assert str(hmt_torsion_group(2)) == "Z_2"
        assert str(hmt_torsion_group(4)) == "Z_2 x Z_2 x Z_4"
        assert hmt_torsion_group(8).primary_decomposition == (2, 2, 2, 4, 4, 4, 8)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_matches_cellular_homology_of_reduced_matrix(self, n):
        expected = cellular_homology(reduced_augmented_matrix(n))
        assert simplicial_homology(build_hmt(n)).as_tuple() == expected

    @pytest.mark.parametrize("n", [2, 4])
    def test_first_digon_does_not_change_homology(self, n):
        reduced = simplicial_homology(build_hmt(n))
        full = simplicial_homology(build_hmt(n, keep_first_digon=True))
        assert reduced.as_tuple() == full.as_tuple()
        # and both agree with the cellular homology of the full augmented matrix
        assert full.as_tuple() == cellular_homology(augment(walsh(n)))


def two_spheres():
    """Two disjoint tetrahedron surfaces, on which every check of a
    certificate fails."""
    tris = tetrahedron().triangles.tolist()
    return complex_from_triangles(tris + [[v + 4 for v in t] for t in tris])


class TestCertificateFailures:
    """A failed check puts one message in 'discrepancies', in the order of
    the checks, clears 'passed' and makes certify exit 1."""

    WRONG_CLOSED_FORMS = [
        "face vector (19, 78, 60) != expected (19, 78, 61)",
        "H1 = Z_2 x Z_2 x Z_4 != expected Z_2 x Z_4",
    ]
    WRONG_COMPLEX = [
        "face vector (8, 12, 8) != expected (19, 78, 60)",
        "euler characteristic 4 != 1",
        "H0 = Z^2 != Z",
        "H2 = Z^2 != 0",
        "H1 = 0 != expected Z_2 x Z_2 x Z_4",
        "|H1| = 1 != 16",
    ]

    @pytest.fixture(params=["wrong-closed-forms", "wrong-complex"])
    def expected(self, request, monkeypatch):
        if request.param == "wrong-complex":
            monkeypatch.setattr(hmt_builder, "build_hmt", lambda n: two_spheres())
            return self.WRONG_COMPLEX
        fv = hmt_face_vector(4)
        monkeypatch.setattr(hmt_builder, "hmt_face_vector", lambda n: fv[:2] + (fv[2] + 1,))
        monkeypatch.setattr(hmt_builder, "hmt_torsion_group", lambda n: group_from_factors((2, 4), 0))
        return self.WRONG_CLOSED_FORMS

    def test_messages_in_order(self, expected):
        cert = hmt_certificate(4)
        assert cert["passed"] is False
        assert cert["discrepancies"] == expected

    def test_certify_fails(self, expected, capsys):
        assert main(["certify", "--n", "4"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["discrepancies"] == expected
        assert err.startswith("certify n=4: FAIL (")


class TestCertificate:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_passes(self, n):
        cert = hmt_certificate(n)
        assert cert["passed"] is True
        assert cert["discrepancies"] == []
        assert cert["face_vector"] == list(hmt_face_vector(n))
        assert cert["chi"] == 1
        assert cert["h0"] == "Z"
        assert cert["h2"] == "0"
        assert cert["h1_order"] == str(n ** (n // 2))
        assert cert["elapsed"] >= 0
        json.dumps(cert)  # must be serializable as-is

    def test_validates_once(self, monkeypatch):
        calls = []

        def counting(k):
            calls.append(k)
            return validate_complex(k)

        for name, mod in list(sys.modules.items()):
            if name.startswith("torsionforge") and getattr(mod, "validate_complex", None) is validate_complex:
                monkeypatch.setattr(mod, "validate_complex", counting)
        hmt_certificate(4)
        assert len(calls) == 1

    def test_sorts_the_sides_once(self, monkeypatch):
        side_keys, calls = triangulation._side_keys, []

        def counting(k):
            calls.append(k)
            return side_keys(k)

        monkeypatch.setattr(triangulation, "_side_keys", counting)
        hmt_certificate(4)
        assert len(calls) == 1

    def test_fields_are_decimal_strings(self):
        cert = hmt_certificate(4)
        assert cert["h1_invariant_factors"] == ["2", "2", "4"]
        assert cert["h1_primary"] == ["2", "2", "4"]
