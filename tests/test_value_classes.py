"""The contract of tropma's frozen value classes (`tropma.value.Value`).

For every value class: equal fields give equal objects with equal hashes,
attributes cannot be assigned, and the constructor validates with the
messages it always had.  Also: the package's public names resolve on first
access, through `getattr` and through `from tropma import *`.
"""

import importlib
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import tropma
from tropma.approx import ApproxCertificate, ApproxRequest, StageErrors
from tropma.cocycle import Cocycle
from tropma.ma import Atom, LebesguePiece, Measure, Subdifferential
from tropma.envelope import AffinePiece, TranslatedPiece
from tropma.plfunc import PeriodicDecomposition, TransversalityReport, TransversalityRow
from tropma.polyhedra import AffineLatticeFrame, AmbientLattice, FrameMismatchError, hull
from tropma.skeleton import Gluing, SkeletonFace, SkeletonSpec
from tropma.value import Value

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
PERIODS = ((F(1), F(0)), (F(0), F(1)))
B = ((F(1), F(0)), (F(0), F(1)))
Z0 = (F(1, 2), F(1, 2))


def frame2():
    return AffineLatticeFrame((F(0), F(0)), ((F(1), F(0)), (F(0), F(1))))


def cocycle():
    return Cocycle(AmbientLattice(2), PERIODS, B, Z0)


def face(face_id="top", **changes):
    fields = dict(id=face_id, carrier=hull(SQUARE), frame=frame2(), e=0, deg_h=F(1),
                  f_aff_linear=((F(1), F(0)), (F(0), F(1))), f_aff_offset=(F(1, 7), F(2, 9)),
                  abelian_nondegenerate=True)
    fields.update(changes)
    return SkeletonFace(**fields)


def piece():
    return AffinePiece((F(1), F(2)), F(3))


def row():
    return TransversalityRow(hull([(0, 0), (1, 0)]), hull(SQUARE), (F(1), F(0)), 1, 1, True, True)


# each builds a fresh instance, from fresh field values, every time it is called
MAKERS = {
    AmbientLattice: lambda: AmbientLattice(2),
    AffineLatticeFrame: frame2,
    Cocycle: cocycle,
    Atom: lambda: Atom((F(1), F(0)), F(3, 2), "top"),
    LebesguePiece: lambda: LebesguePiece(hull(SQUARE), frame2(), F(2), "top"),
    Measure: lambda: Measure((Atom((F(1), F(0)), F(3, 2)),),
                             (LebesguePiece(hull(SQUARE), frame2(), F(2)),)),
    Subdifferential: lambda: Subdifferential((F(0), F(0)), hull(SQUARE)),
    AffinePiece: piece,
    TranslatedPiece: lambda: TranslatedPiece(piece(), 0, (1, 0)),
    PeriodicDecomposition: lambda: PeriodicDecomposition(cocycle(), (hull(SQUARE),)),
    TransversalityRow: row,
    TransversalityReport: lambda: TransversalityReport(True, (), (row(),), True),
    ApproxRequest: lambda: ApproxRequest(cocycle=cocycle(), eps=F(1, 4), rng_seed=3),
    StageErrors: lambda: StageErrors(F(1, 16), None, F(1, 32)),
    ApproxCertificate: lambda: ApproxCertificate(F(1, 8), True, None, True, 2,
                                                 StageErrors(F(1, 16)), 4),
    SkeletonFace: face,
    Gluing: lambda: Gluing("top", "top", B, Z0),
    SkeletonSpec: lambda: SkeletonSpec(cocycle(), 2, (face(),)),
}


def test_every_value_class_is_covered():
    classes = set()
    for name in ("approx", "cocycle", "envelope", "ma", "plfunc", "polyhedra", "skeleton"):
        module = importlib.import_module(f"tropma.{name}")
        classes |= {v for v in vars(module).values()
                    if isinstance(v, type) and issubclass(v, Value) and v is not Value}
    assert classes == set(MAKERS) and len(classes) == 18


def test_no_module_imports_dataclasses():
    src = Path(tropma.__file__).parent
    for path in src.glob("*.py"):
        assert not re.search(r"^\s*(from|import) dataclasses", path.read_text(), re.M), path.name


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda c: c.__name__)
class TestContract:
    def test_equal_fields_equal_objects(self, cls):
        a, b = MAKERS[cls](), MAKERS[cls]()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_not_equal_to_another_class(self, cls):
        a = MAKERS[cls]()
        assert a != tuple(getattr(a, name) for name in a._fields)
        assert a != object()

    def test_assignment_raises(self, cls):
        a = MAKERS[cls]()
        name = a._fields[0]
        before = getattr(a, name)
        with pytest.raises(AttributeError, match="frozen"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="frozen"):
            a.new_attribute = 1
        with pytest.raises(AttributeError, match="frozen"):
            delattr(a, name)
        assert getattr(a, name) is before

    def test_repr_names_the_fields(self, cls):
        a = MAKERS[cls]()
        text = repr(a)
        assert text.startswith(f"{cls.__name__}(")
        assert [f"{name}=" in text for name in a._fields] == [True] * len(a._fields)


def test_every_compared_field_counts():
    assert Atom((F(0),), F(1), "a") != Atom((F(0),), F(1), "b")
    assert StageErrors(F(1)) != StageErrors(None, F(1))
    assert AmbientLattice(2) != AmbientLattice(3)
    assert face() != face(abelian_nondegenerate=False)
    assert TranslatedPiece(piece(), 0, (1, 0)) != TranslatedPiece(piece(), 0, (0, 1))


def test_repr_matches_the_field_values():
    assert repr(StageErrors(F(1, 2))) == \
        "StageErrors(tangent=Fraction(1, 2), strictify=None, perturb=None)"
    assert repr(AmbientLattice(3)) == "AmbientLattice(n=3)"


def test_hash_is_that_of_the_compared_fields():
    # the same values dataclasses gave, so that nothing hash-ordered moves
    p = piece()
    assert hash(p) == hash((p.m, p.c))
    t = TranslatedPiece(p, 0, (1, 0))
    assert hash(t) == hash((p, 0, (1, 0)))


def test_replace_on_the_certificate():
    cert = MAKERS[ApproxCertificate]()
    stages = StageErrors(F(1, 16), None, F(1, 64))
    new = cert.replace(sup_error_bound=F(5, 64), stage_errors=stages, mesh_k=8)
    assert (new.sup_error_bound, new.stage_errors, new.mesh_k) == (F(5, 64), stages, 8)
    assert (new.strictly_convex, new.transversal, new.periodic, new.retries_used) == \
        (cert.strictly_convex, cert.transversal, cert.periodic, cert.retries_used)
    assert (cert.sup_error_bound, cert.mesh_k) == (F(1, 8), 4)
    assert cert.replace() == cert and cert.replace() is not cert
    with pytest.raises(TypeError):
        cert.replace(no_such_field=1)


def test_default_stage_errors():
    cert = ApproxCertificate(F(1, 8), True, None, True, 0)
    assert cert.stage_errors == StageErrors() and cert.mesh_k is None
    assert vars(cert.stage_errors) == {"tangent": None, "strictify": None, "perturb": None}


def test_cocycle_cached_data_does_not_count_in_comparison():
    a, b = cocycle(), cocycle()
    a.linear_covector()
    assert a == b and hash(a) == hash(b)


CO = dict(ambient=AmbientLattice(2), periods=PERIODS, b=B, z0=Z0)


@pytest.mark.parametrize("build, message", [
    (lambda: AmbientLattice(0), "ambient dimension must be >= 1"),
    (lambda: AffineLatticeFrame((F(0), F(0)), ((F(1), F(1)), (F(2), F(2)))),
     "frame basis vectors are linearly dependent"),
    (lambda: Cocycle(**{**CO, "periods": PERIODS[:1]}),
     "period basis must consist of n vectors in Q^n"),
    (lambda: Cocycle(**{**CO, "b": B[:1]}), "b must be an n x n matrix"),
    (lambda: Cocycle(**{**CO, "z0": Z0[:1]}), "one base constant per period basis vector"),
    (lambda: Cocycle(**{**CO, "b": ((F(2), F(1)), (F(0), F(2)))}), "b must be symmetric"),
    (lambda: Cocycle(**{**CO, "periods": ((F(1), F(1)), (F(2), F(2)))}),
     "period vectors are linearly dependent"),
    (lambda: Cocycle(**{**CO, "b": ((F(1, 2), F(0)), (F(0), F(1)))}),
     "integrality violated: b(.,λ) must lie in M = Z^n"),
    (lambda: Cocycle(**{**CO, "b": ((F(-1), F(0)), (F(0), F(1)))}),
     "polarized cocycle requires positive definite b"),
    (lambda: Atom((F(0),), F(-1)), "atom masses must be nonnegative"),
    (lambda: LebesguePiece(hull(SQUARE), frame2(), F(-1)), "densities must be nonnegative"),
    (lambda: PeriodicDecomposition(cocycle(), (hull([(0, 0), (1, 0)]),)),
     "cells must be full-dimensional in the ambient space"),
    (lambda: ApproxRequest(eps=F(1, 4)),
     "request needs exactly one target: a cocycle or a function"),
    (lambda: ApproxRequest(cocycle=cocycle(), eps=F(0)), "epsilon must be positive"),
    (lambda: ApproxRequest(cocycle=cocycle(), max_retries=0), "max_retries must be >= 1"),
    (lambda: ApproxRequest(cocycle=cocycle(), sigma=("nope",)),
     "sigma entries must be polytopes"),
    (lambda: face(e=-1), "stratum dimension must be nonnegative"),
    (lambda: face(deg_h=F(-1)), "deg_H must be nonnegative"),
    (lambda: face(frame=AffineLatticeFrame((F(0), F(0)), ((F(1), F(0)),))),
     "frame must span the carrier's affine hull"),
    (lambda: face(f_aff_linear=((F(1),), (F(0),))),
     "f_aff linear part must have one column per frame vector"),
    (lambda: face(f_aff_linear=((F(1, 2), F(0)), (F(0), F(1)))),
     "f_aff must map the frame lattice into N (integer matrix)"),
    (lambda: SkeletonSpec(cocycle(), 2, (face(), face())), "face ids must be unique"),
    (lambda: SkeletonSpec(cocycle(), 1, (face(),)), "face top: dim(carrier) + e exceeds d"),
    (lambda: SkeletonSpec(cocycle(), 2, (face(f_aff_linear=((F(1), F(0)),)),)),
     "face top: f_aff must land in N_R (n rows)"),
    (lambda: SkeletonSpec(cocycle(), 2, (face(f_aff_offset=(F(1, 2),)),)),
     "face top: f_aff offset must lie in N_R (2 entries, got 1)"),
    (lambda: SkeletonSpec(cocycle(), 2, (face(boundary_ids=("edge",)),)),
     "face top: unknown boundary id 'edge'"),
    (lambda: SkeletonSpec(cocycle(), 2, (face(),), (Gluing("top", "edge", B, Z0),)),
     "gluing references an unknown face id"),
])
def test_constructor_validation(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def test_face_carrier_off_the_frame():
    frame = AffineLatticeFrame((F(0), F(0), F(0)), ((F(1), F(0), F(0)), (F(0), F(1), F(0))))
    with pytest.raises(FrameMismatchError):
        face(carrier=hull([(0, 0, 0), (1, 0, 0), (0, 1, 1)]), frame=frame,
             f_aff_linear=((F(1), F(0)), (F(0), F(1))))


def test_public_names_resolve_through_getattr():
    assert len(tropma.__all__) == len(set(tropma.__all__)) == 44
    for name in tropma.__all__:
        value = getattr(tropma, name)
        module = tropma._MODULE_OF[name]
        assert value is getattr(getattr(tropma, module), name)
    assert set(tropma.__all__) <= set(dir(tropma))
    with pytest.raises(AttributeError, match="no_such_name"):
        tropma.no_such_name


def test_public_names_resolve_through_star_import():
    namespace = {}
    exec("from tropma import *", namespace)
    assert set(tropma.__all__) <= set(namespace)
    assert namespace["SkeletonSpec"] is SkeletonSpec
    assert namespace["CellWalkError"] is tropma.plfunc.CellWalkError


def test_errors_are_re_exported_as_the_same_classes():
    from tropma import approx, errors, plfunc
    assert plfunc.CellWalkError is errors.CellWalkError is tropma.CellWalkError
    assert plfunc.CertificateError is errors.CertificateError
    assert approx.PerturbationError is errors.PerturbationError
    assert approx.StrictificationError is errors.StrictificationError
