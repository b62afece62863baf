"""torsionforge: 2-dimensional simplicial complexes with large torsion in
first homology, built from integer matrices and certified by exact
Smith-normal-form homology."""

from .disc_complex import DiscComplexSpec, cellular_homology, from_matrix
from .exactmat import (
    AbelianGroup,
    SnfResult,
    free_group,
    group_from_factors,
    int_matrix,
    smith_normal_form,
)
from .hadamard import augment, hadamard_snf_closed_form, walsh
from .hmt_builder import build_hmt, hmt_certificate, hmt_face_vector, hmt_torsion_group
from .homology import HomologyResult, boundary_matrices, simplicial_homology
from .speyer import build_speyer_complex
from .triangulation import (
    SimplicialComplex2,
    triangulate_generic,
    validate_complex,
)
from .valid_sequences import ValidSequence, ValidityReport, check_valid, valid_sequence

__version__ = "0.1.0"

__all__ = [
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
