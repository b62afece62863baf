"""The package's public names, pinned so that any change to them is a
deliberate edit here."""

import torsionforge


def test_public_names_are_pinned():
    assert torsionforge.__all__ == [
        "AbelianGroup",
        "DiscComplexSpec",
        "HomologyResult",
        "SimplicialComplex2",
        "SnfResult",
        "ValidSequence",
        "ValidityReport",
        "augment",
        "boundary_matrices",
        "build_hmt",
        "build_speyer_complex",
        "cellular_homology",
        "check_valid",
        "free_group",
        "from_matrix",
        "group_from_factors",
        "hadamard_snf_closed_form",
        "hmt_certificate",
        "hmt_face_vector",
        "hmt_torsion_group",
        "int_matrix",
        "simplicial_homology",
        "smith_normal_form",
        "triangulate_generic",
        "valid_sequence",
        "validate_complex",
        "walsh",
    ]
    assert torsionforge.__all__ == sorted(torsionforge.__all__)
    for name in torsionforge.__all__:
        assert getattr(torsionforge, name, None) is not None, name
