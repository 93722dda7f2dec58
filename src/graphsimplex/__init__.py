"""Weighted graphs, Laplacians, effective resistances and the geometry of
the hyperacute simplices they correspond to."""

from .config import DEFAULT, Tolerances
from .graphs import (
    LaplacianMatrix,
    ValidationReport,
    WeightedGraph,
    build_laplacian,
    graph_from_laplacian,
    laplacian_pseudoinverse,
    parse_graph,
    spanning_tree_count,
    validate_laplacian,
)
from .linalg import (
    EigenDecomposition,
    eigh,
    pinv_kernel_u,
)
from .resistance import (
    FiedlerBlocks,
    IdentityResidual,
    MetricReport,
    check_metric,
    effective_resistance,
    fiedler_blocks,
    inverse_resistance_matrix,
    resistance_matrix,
    verify_fiedler_identity,
    verify_identity_general,
)
from .schur import (
    PreservationReport,
    QuotientReport,
    check_quotient,
    check_resistance_preservation,
    kron_reduce_single,
    schur_complement,
    schur_via_pinv,
)
from .simplex import (
    AngleClassification,
    CircumsphereReport,
    GramPair,
    SimplexEmbedding,
    canonical_gram,
    cayley_menger_volume,
    circumsphere_check,
    dihedral_angles,
    embed_from_laplacian,
    face_distance,
    face_gram,
    gram_pair_from_laplacian,
    gram_pair_from_pinv,
    is_hyperacute,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
