"""Skeleton faces of a polystable alteration and their measure formulas.

A skeleton spec is the combinatorial shadow of a strictly polystable
alteration: canonical faces given as lattice polytopes in chart spaces, the
dimension of the corresponding stratum, the degree of its closure on the
abelian part, and the affine linearization into N_R.  The measure of a face is

    (d!/e!) * deg_H * MA(metric ∘ f_aff | relint)

with MA taken on the face's lattice frame; degenerate faces carry nothing.
The subtlety the data model keeps explicit: whether the abelian-part map
preserves dimension is not computable from the combinatorics, so it enters
as the per-face flag `abelian_nondegenerate`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Union

from . import linalg
from .cocycle import Cocycle
from .envelope import PeriodicPLFunction, _EnvelopeScan
from .linalg import Mat, Vec, vec, vsub
from .polyhedra import AffineLatticeFrame, Polytope, _reduced, bbox, envelope_atoms, hull
from .value import Value, setfield

if TYPE_CHECKING:       # `degree` runs none of `ma`, so the measures import it where used
    from .ma import Measure

Metric = Union[str, PeriodicPLFunction]


class SkeletonFace(Value):
    """One canonical face: carrier polytope, stratum data and linearization."""

    _fields = ("id", "carrier", "frame", "e", "deg_h", "f_aff_linear", "f_aff_offset",
               "abelian_nondegenerate", "boundary_ids")

    def __init__(self, id: str, carrier: Polytope, frame: AffineLatticeFrame,
                 e: int,                  # dimension of the corresponding stratum
                 deg_h: Fraction,         # degree of the stratum closure on the abelian part
                 f_aff_linear: Mat,       # n x frame.dim, integer, on frame coordinates
                 f_aff_offset: Vec,       # rational offset in N_Q
                 abelian_nondegenerate: bool, boundary_ids: tuple[str, ...] = ()):
        if e < 0:
            raise ValueError("stratum dimension must be nonnegative")
        if deg_h < 0:
            raise ValueError("deg_H must be nonnegative")
        if frame.dim != carrier.dim:
            raise ValueError("frame must span the carrier's affine hull")
        for v in carrier.vertices:
            frame.coordinates(v)
        for row in f_aff_linear:
            if len(row) != frame.dim:
                raise ValueError("f_aff linear part must have one column per frame vector")
            if any(x.denominator != 1 for x in row):
                raise ValueError("f_aff must map the frame lattice into N (integer matrix)")
        setfield(self, "id", id)
        setfield(self, "carrier", carrier)
        setfield(self, "frame", frame)
        setfield(self, "e", e)
        setfield(self, "deg_h", deg_h)
        setfield(self, "f_aff_linear", f_aff_linear)
        setfield(self, "f_aff_offset", f_aff_offset)
        setfield(self, "abelian_nondegenerate", abelian_nondegenerate)
        setfield(self, "boundary_ids", boundary_ids)

    def f_aff(self, y: Sequence[Fraction]) -> Vec:
        """Image in N_R of a point given in frame coordinates."""
        return linalg.vadd(linalg.matvec(self.f_aff_linear, vec(y)), self.f_aff_offset)

    def chart_to_tropical(self, x: Sequence[Fraction]) -> Vec:
        return self.f_aff(self.frame.coordinates(x))


class Gluing(Value):
    """Chart-affine identification of face_b's carrier onto face_a's."""

    _fields = ("face_a", "face_b", "linear", "offset")

    def __init__(self, face_a: str, face_b: str, linear: Mat, offset: Vec):
        setfield(self, "face_a", face_a)
        setfield(self, "face_b", face_b)
        setfield(self, "linear", linear)
        setfield(self, "offset", offset)


class SkeletonSpec(Value):
    _fields = ("cocycle", "d", "faces", "gluing")

    def __init__(self, cocycle: Cocycle, d: int, faces: tuple[SkeletonFace, ...],
                 gluing: tuple[Gluing, ...] = ()):
        ids = {f.id for f in faces}
        if len(ids) != len(faces):
            raise ValueError("face ids must be unique")
        n = cocycle.n
        for f in faces:
            if f.carrier.dim + f.e > d:
                raise ValueError(f"face {f.id}: dim(carrier) + e exceeds d")
            if len(f.f_aff_linear) != n:
                raise ValueError(f"face {f.id}: f_aff must land in N_R (n rows)")
            if len(f.f_aff_offset) != n:
                raise ValueError(f"face {f.id}: f_aff offset must lie in N_R "
                                 f"({n} entries, got {len(f.f_aff_offset)})")
            for bid in f.boundary_ids:
                if bid not in ids:
                    raise ValueError(f"face {f.id}: unknown boundary id {bid!r}")
        for g in gluing:
            if g.face_a not in ids or g.face_b not in ids:
                raise ValueError("gluing references an unknown face id")
        setfield(self, "cocycle", cocycle)
        setfield(self, "d", d)
        setfield(self, "faces", faces)
        setfield(self, "gluing", gluing)

    def face(self, face_id: str) -> SkeletonFace:
        for f in self.faces:
            if f.id == face_id:
                return f
        raise KeyError(face_id)


def check_nondegenerate(spec: SkeletonSpec, face: SkeletonFace) -> bool:
    """Tropical linearization preserves dimension and the abelian flag is set."""
    if not face.abelian_nondegenerate:
        return False
    if face.carrier.dim == 0:
        return True
    return linalg.rank(face.f_aff_linear) == face.carrier.dim


def _scale(spec: SkeletonSpec, face: SkeletonFace) -> Fraction:
    return Fraction(math.factorial(spec.d), math.factorial(face.e)) * face.deg_h


def _image_box(face: SkeletonFace) -> tuple[Vec, Vec]:
    """Bounding box of the carrier's tropical image f_aff(carrier)."""
    return bbox(face.chart_to_tropical(v) for v in face.carrier.vertices)


def _pullback_pieces(scan: _EnvelopeScan, face: SkeletonFace
                     ) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """metric ∘ f_aff on frame coordinates as integer rows over one common
    denominator D: (D, [D·(m·L, m·t + c)]), one per entry (m, c) of the
    metric's scan, in the scan's order.

    The scan holds every translate that attains the metric on its box, so
    where the carrier's image lies in that box the max of the rows is the
    pullback exactly, and the rows attaining it at y are the entries
    attaining the metric at f_aff(y).
    """
    *t, dt = _reduced(face.f_aff_offset)
    cols = [[int(x) * dt for x in col] for col in zip(*face.f_aff_linear)]
    return scan.den * dt, [(tuple(sum(map(operator.mul, m, col)) for col in cols),
                            sum(map(operator.mul, m, t), c * dt)) for m, c in scan._ints]


def _scan_faces(spec: SkeletonSpec, metric: Metric) -> None:
    """Request the metric's envelope scan once, for the union of the image
    boxes of the nondegenerate faces; each face's pullback then reads it
    instead of growing it face by face."""
    if isinstance(metric, str):
        return
    boxes = [_image_box(f) for f in spec.faces if check_nondegenerate(spec, f)]
    if boxes:
        metric.scan_for(*bbox([x for box in boxes for x in box]))


def _pullback_atoms(face: SkeletonFace, metric: PeriodicPLFunction
                    ) -> list[tuple[Vec, Fraction, list[tuple[int, ...]]]]:
    """(y, mass, tie slopes) at each atom of MA(metric∘f_aff) in the
    carrier's relative interior, y in frame coordinates, sorted by y.

    The atoms are those of one lifted clip of the pullback's rows
    (`_pullback_pieces`) over the carrier's box (`envelope_atoms`) that lie
    in the relative interior, where no box facet is tight.  An atom's ids are
    the metric's argmax set at f_aff(y): its mass is the volume of their
    pulled-back slopes, on frame coordinates of the saturated frame a lattice
    volume, and its tie slopes are their metric slopes over the scan's
    denominator.  Only `degree` reads the tie dimension off them (`_tie_dim`).
    """
    scan = metric.scan_for(*_image_box(face))
    den, rows = _pullback_pieces(scan, face)
    carr_y = hull([face.frame.coordinates(v) for v in face.carrier.vertices])
    return [(y, mass, [scan._ints[i][0] for i in ids])
            for y, mass, ids in envelope_atoms(rows, den, *carr_y.bbox())
            if carr_y.contains_relint(y)]


def _tie_dim(n: int, slopes: Sequence[Sequence[int]]) -> int:
    """n − rank{m_j − m_i}: the dimension of the face of the metric's complex
    where the translates with these slopes all tie."""
    return n - linalg.rank([vsub(m, slopes[0]) for m in slopes[1:]])


def face_measure(spec: SkeletonSpec, face: SkeletonFace, metric: Metric) -> Measure:
    """(d!/e!)·deg_H times the MA measure of the metric pulled to the carrier.

    The canonical metric gives one constant-density Lebesgue piece on the
    carrier; a PL metric gives atoms at the pullback complex's vertices inside
    the relative interior.  Degenerate faces give the zero measure.
    """
    from .ma import Atom, Measure, ma_quadratic_restricted
    if not check_nondegenerate(spec, face):
        return Measure()
    scale = _scale(spec, face)
    if isinstance(metric, str):
        if metric != "canonical":
            raise ValueError("metric must be 'canonical' or a PL function")
        mu = ma_quadratic_restricted(spec.cocycle, face.f_aff_linear,
                                     face.f_aff_offset, face.carrier, face.frame)
        return mu.scaled(scale, label=face.id)
    return Measure(atoms=tuple(Atom(face.frame.embed(y), scale * mass, label=face.id)
                               for y, mass, _ in _pullback_atoms(face, metric)))


def face_measures(spec: SkeletonSpec, metric: Metric) -> list[tuple[SkeletonFace, Measure]]:
    """(face, face measure) for every face in id order, on one metric scan."""
    _scan_faces(spec, metric)
    return [(face, face_measure(spec, face, metric))
            for face in sorted(spec.faces, key=lambda f: f.id)]


def assemble_measure(spec: SkeletonSpec, metric: Metric) -> Measure:
    """Sum of the face measures; relative interiors partition the skeleton."""
    from .ma import Measure
    out = Measure()
    for _, mu in face_measures(spec, metric):
        out = out + mu
    return out


def _degree(spec: SkeletonSpec, face: SkeletonFace, metric: PeriodicPLFunction,
            mass: Fraction, slopes: Sequence[Sequence[int]]) -> Fraction:
    """(d!/e!)·deg_H·mass at a pullback vertex whose metric face, where its
    tie slopes tie, has codimension dim(carrier), the transversal case."""
    if metric.n - _tie_dim(metric.n, slopes) != face.carrier.dim:
        raise ValueError("non-transversal vertex")
    return _scale(spec, face) * mass


def face_degrees(spec: SkeletonSpec, face: SkeletonFace, metric: PeriodicPLFunction
                 ) -> list[tuple[Vec, Fraction]]:
    """(vertex, degree) at every pullback vertex in the face's relative
    interior, off one clip of the face's pullback."""
    return [(face.frame.embed(y), _degree(spec, face, metric, mass, slopes))
            for y, mass, slopes in _pullback_atoms(face, metric)]


def skeleton_degrees(spec: SkeletonSpec, metric: PeriodicPLFunction
                     ) -> list[tuple[SkeletonFace, Vec, Fraction]]:
    """(face, vertex, degree) over the nondegenerate faces in id order."""
    faces = [f for f in sorted(spec.faces, key=lambda f: f.id) if check_nondegenerate(spec, f)]
    _scan_faces(spec, metric)
    return [(face, xi, deg) for face in faces for xi, deg in face_degrees(spec, face, metric)]


def vertex_degree(spec: SkeletonSpec, face: SkeletonFace,
                  metric: PeriodicPLFunction, xi: Sequence) -> Fraction:
    """Degree of the component at a pullback vertex, (d!/e!)·deg_H·atom mass,
    read off the face's pullback atoms (`_pullback_atoms`).

    xi must lie in the carrier's relative interior, be a vertex of the
    pullback complex, and be transversal: the face of the metric's complex
    through f_aff(xi) has codimension dim(carrier).
    """
    xi = vec(xi)
    if not face.carrier.contains_relint(xi):
        raise ValueError("xi must lie in the relative interior of the carrier")
    y = face.frame.coordinates(xi)
    for at, mass, slopes in _pullback_atoms(face, metric):
        if at == y:
            return _degree(spec, face, metric, mass, slopes)
    raise ValueError("xi is not a vertex of the pullback complex")
