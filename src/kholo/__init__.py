"""kholo: exact reconstruction, elimination, fibers and routing over Q(i).

The toolkit recovers a holomorphic polynomial from its real part without
integration, eliminates annihilators of the real and imaginary parts into an
annihilator of the function itself, computes discriminant loci with exact
fiber counts off the locus, and routes barycentric paths through simplicial
complexes around marked low-dimensional subcomplexes.  All arithmetic is
exact over the Gaussian rationals.
"""

__version__ = "0.1.0"

from kholo.branches import (
    BranchReport,
    covering_check,
    discriminant,
    distinct_root_count_exact,
    fiber_count,
    locus_membership,
)
from kholo.cartan import (
    CartanReport,
    RestrictionCheck,
    build_g,
    check_pluriharmonic,
    reconstruct_from_real_part,
    restrict_g_identity,
    verify_g_holomorphic,
)
from kholo.eliminate import (
    AnnihilatorPair,
    EliminationReport,
    eliminate_annihilator,
    search_basepoint,
    sylvester_matrix,
    sylvester_resultant,
    verify_annihilator,
)
from kholo.errors import KholoError
from kholo.exprio import parse_gaussian, parse_poly, print_poly
from kholo.polynomials import (
    LinearSubst,
    SparsePoly,
    VarSpace,
    split_real_imag,
    wirtinger,
)
from kholo.rationals import COEFF_BACKEND, GaussianRational, Rational
from kholo.simplicial import (
    PLPath,
    SimplicialComplex,
    Subcomplex,
    facet_adjacency,
    route_path,
    verify_avoidance,
)

__all__ = [
    "AnnihilatorPair",
    "BranchReport",
    "CartanReport",
    "COEFF_BACKEND",
    "EliminationReport",
    "GaussianRational",
    "KholoError",
    "LinearSubst",
    "PLPath",
    "Rational",
    "RestrictionCheck",
    "SimplicialComplex",
    "SparsePoly",
    "Subcomplex",
    "VarSpace",
    "build_g",
    "check_pluriharmonic",
    "covering_check",
    "discriminant",
    "distinct_root_count_exact",
    "eliminate_annihilator",
    "facet_adjacency",
    "fiber_count",
    "locus_membership",
    "parse_gaussian",
    "parse_poly",
    "print_poly",
    "reconstruct_from_real_part",
    "restrict_g_identity",
    "route_path",
    "search_basepoint",
    "split_real_imag",
    "sylvester_matrix",
    "sylvester_resultant",
    "verify_annihilator",
    "verify_avoidance",
    "verify_g_holomorphic",
    "wirtinger",
]
