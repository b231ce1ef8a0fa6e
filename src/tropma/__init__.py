"""Exact Monge-Ampere measures of toric metrics on tropical abelian varieties.

The package computes, in exact rational arithmetic, the combinatorial side of
non-archimedean toric metrics on subvarieties of abelian varieties: periodic
convex functions with quadratic cocycles on R^n modulo a lattice, transversal
piecewise-linear approximations, real Monge-Ampere measures, and skeleton-level
measure and degree formulas.

The public names below are imported from their modules on first access
(PEP 562), so that importing the package, as every `python -m tropma.cli`
call does, loads no module that the call does not use.
"""

import importlib

_EXPORTS = {
    "polyhedra": ("AffineLatticeFrame", "AmbientLattice", "FrameMismatchError", "Polytope",
                  "faces", "hull", "intersect", "lattice_volume"),
    "cocycle": ("Cocycle", "UnpolarizedError"),
    "plfunc": ("AffinePiece", "CellWalkError", "CertificateError", "PeriodicDecomposition",
               "PeriodicPLFunction", "TransversalityReport", "certify_linearity_tiling",
               "check_cocycle_rule", "check_periodic", "check_transversal", "evaluate",
               "linearity_cells", "translate_piece"),
    "approx": ("ApproxCertificate", "ApproxRequest", "StageErrors", "approximate",
               "barycentric_strictify", "perturb_generic", "tangent_pl"),
    "ma": ("Measure", "Subdifferential", "ma_pl", "ma_quadratic_restricted",
           "pushforward", "subdifferential", "total_mass"),
    "skeleton": ("SkeletonFace", "SkeletonSpec", "assemble_measure", "canonical_subset",
                 "check_nondegenerate", "face_measure", "vertex_degree"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
