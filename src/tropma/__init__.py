"""Exact Monge-Ampere measures of toric metrics on tropical abelian varieties.

The package computes, in exact rational arithmetic, the combinatorial side of
non-archimedean toric metrics on subvarieties of abelian varieties: periodic
convex functions with quadratic cocycles on R^n modulo a lattice, transversal
piecewise-linear approximations, real Monge-Ampere measures, and skeleton-level
measure and degree formulas.
"""

from .polyhedra import (AffineLatticeFrame, AmbientLattice, FrameMismatchError,
                        Polytope, affine_data, faces, hull, intersect,
                        lattice_volume)
from .cocycle import Cocycle, UnpolarizedError
from .plfunc import (AffinePiece, CellWalkError, CertificateError, PeriodicDecomposition,
                     PeriodicPLFunction, TransversalityReport, certify_linearity_tiling,
                     check_cocycle_rule, check_periodic, check_transversal, evaluate,
                     linearity_cells, translate_piece)
from .approx import (ApproxCertificate, ApproxRequest, StageErrors, approximate,
                     barycentric_strictify, perturb_generic, tangent_pl)
from .ma import (Measure, Subdifferential, ma_pl, ma_quadratic_restricted,
                 pushforward, subdifferential, total_mass)
from .skeleton import (SkeletonFace, SkeletonSpec, assemble_measure,
                       canonical_subset, check_nondegenerate, face_measure,
                       vertex_degree)

__all__ = [
    "AffineLatticeFrame", "AmbientLattice", "FrameMismatchError", "Polytope",
    "affine_data", "faces", "hull", "intersect", "lattice_volume",
    "Cocycle", "UnpolarizedError",
    "AffinePiece", "CellWalkError", "CertificateError", "PeriodicDecomposition",
    "PeriodicPLFunction", "TransversalityReport", "certify_linearity_tiling",
    "check_cocycle_rule", "check_periodic", "check_transversal", "evaluate",
    "linearity_cells", "translate_piece",
    "ApproxCertificate", "ApproxRequest", "StageErrors", "approximate",
    "barycentric_strictify", "perturb_generic", "tangent_pl",
    "Measure", "Subdifferential", "ma_pl", "ma_quadratic_restricted",
    "pushforward", "subdifferential", "total_mass",
    "SkeletonFace", "SkeletonSpec", "assemble_measure", "canonical_subset",
    "check_nondegenerate", "face_measure", "vertex_degree",
]

__version__ = "0.1.0"
