"""Real Monge-Ampere measures of PL and restricted quadratic functions.

Measures are finite lists of Dirac atoms and constant-density Lebesgue pieces
on polytopes, all with exact rational data.  The normalization is Alexandrov's
throughout: a PL atom's mass is the lattice volume of the subdifferential
(dual polytope) at the vertex, and the smooth density of a quadratic pullback
is the determinant of its Hessian with respect to the lattice frame, with no
factorial prefactor; the d!/e! factors of the skeleton formulas are applied
explicitly by the callers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .cocycle import Cocycle, UnpolarizedError
from .envelope import PeriodicPLFunction, _fundamental_bbox
from .errors import CertificateError
from .linalg import Mat, Vec, dot, vec
from .polyhedra import (AffineLatticeFrame, Polytope, envelope_atoms, envelope_clip, graph_point,
                        hull, lattice_volume)
from .value import Value, setfield


class Atom(Value):
    _fields = ("at", "mass", "label")

    def __init__(self, at: Vec, mass: Fraction, label: str = ""):
        if mass < 0:
            raise ValueError("atom masses must be nonnegative")
        setfield(self, "at", at)
        setfield(self, "mass", mass)
        setfield(self, "label", label)


class LebesguePiece(Value):
    _fields = ("support", "frame", "density", "label")

    def __init__(self, support: Polytope, frame: AffineLatticeFrame, density: Fraction,
                 label: str = ""):
        if density < 0:
            raise ValueError("densities must be nonnegative")
        setfield(self, "support", support)
        setfield(self, "frame", frame)
        setfield(self, "density", density)
        setfield(self, "label", label)


class Measure(Value):
    _fields = ("atoms", "lebesgue_pieces")

    def __init__(self, atoms: tuple[Atom, ...] = (),
                 lebesgue_pieces: tuple[LebesguePiece, ...] = ()):
        setfield(self, "atoms", atoms)
        setfield(self, "lebesgue_pieces", lebesgue_pieces)

    def scaled(self, factor: Fraction, label: Optional[str] = None) -> "Measure":
        return Measure(
            tuple(Atom(a.at, a.mass * factor, label if label is not None else a.label)
                  for a in self.atoms),
            tuple(LebesguePiece(p.support, p.frame, p.density * factor,
                                label if label is not None else p.label)
                  for p in self.lebesgue_pieces))

    def __add__(self, other: "Measure") -> "Measure":
        return Measure(self.atoms + other.atoms,
                       self.lebesgue_pieces + other.lebesgue_pieces)


def total_mass(mu: Measure) -> Fraction:
    total = sum((a.mass for a in mu.atoms), Fraction(0))
    for p in mu.lebesgue_pieces:
        total += p.density * lattice_volume(p.support, p.frame)
    return total


class Subdifferential(Value):
    """The dual polytope {u : f(ω) - f(at) >= <ω - at, u>} at a point."""

    _fields = ("at", "dual")

    def __init__(self, at: Vec, dual: Polytope):
        setfield(self, "at", at)
        setfield(self, "dual", dual)


def subdifferential(f: PeriodicPLFunction, xi: Sequence) -> Subdifferential:
    """Subdifferential of a convex PL function: hull of the argmax slopes.

    The construction is certified against the defining inequality at the
    vertices of the cells adjacent to xi: the vertices of one lifted clip of
    f's graph over xi ± 1 (`envelope_clip`) that are tight with an argmax
    translate, where f(w) is the vertex's lifted coordinate.  The inequality
    is affine on each of those cells, so it then holds on a neighbourhood of
    xi, and by convexity everywhere.
    """
    xi = vec(xi)
    box_lo = tuple(x - 1 for x in xi)
    box_hi = tuple(x + 1 for x in xi)
    scan = f.scan_for(box_lo, box_hi)
    fxi, arg_idx = scan.eval(xi)
    dual = hull(sorted({scan.entries[i].piece.m for i in arg_idx}))
    for x, tight in zip(*envelope_clip(scan._ints, box_lo, box_hi)):
        if tight.isdisjoint(arg_idx):
            continue
        fw = Fraction(x[-2], scan.den * x[-1])
        w = graph_point(x)
        for u in dual.vertices:
            if fw - fxi < dot(linalg.vsub(w, xi), u):
                raise CertificateError("subdifferential certificate failed")
    return Subdifferential(xi, dual)


def ma_pl(f: PeriodicPLFunction, region: Optional[Polytope] = None) -> Measure:
    """Monge-Ampere measure of a convex PL function: atoms at complex vertices,
    read off one lifted clip of f's graph over a box (`envelope_atoms`).

    With region=None the box is the fundamental parallelepiped's, and one
    atom per Λ-orbit of vertices is kept: its representative in the half-open
    parallelepiped.  The total mass is then checked against det(b)·covol(Λ),
    the volume of M_R/bΛ that the subdifferentials over a fundamental domain
    tile, since ∂f(ω+λ) = ∂f(ω) + bλ; a mismatch raises CertificateError.
    With an explicit region the box is the region's, and the atoms are the
    complex vertices in the (closed) region.
    """
    c = f.cocycle
    if c is None:
        raise ValueError("ma needs a periodic function: the input has no cocycle")
    if region is not None and region.ambient_dim != f.n:
        raise ValueError(f"the region lies in R^{region.ambient_dim} but the function "
                         f"in R^{f.n}")
    lo, hi = _fundamental_bbox(c) if region is None else region.bbox()
    scan = f.scan_for(lo, hi)
    keep = region.contains if region is not None else lambda y: c.canonicalize(y)[0] == y
    atoms = tuple(Atom(y, mass) for y, mass, _ in envelope_atoms(scan._ints, scan.den, lo, hi)
                  if keep(y))
    if region is None and sum(a.mass for a in atoms) != linalg.det(c.b) * c.covolume():
        raise CertificateError("MA mass over a fundamental domain is not det(b)·covol(Λ)")
    return Measure(atoms=atoms)


def ma_quadratic_restricted(c: Cocycle, linear: Mat, offset: Sequence,
                            support: Polytope, frame: AffineLatticeFrame) -> Measure:
    """MA measure of the canonical quadratic pulled back along an affine map.

    `linear` has n rows and frame.dim columns and acts on frame coordinates of
    the support's chart; the density is det(LᵀbL), the pullback Hessian with
    respect to the lattice-normalized frame.  A rank-deficient map gives a
    zero-density piece.
    """
    if not c.polarized:
        raise UnpolarizedError("unpolarized cocycle has no canonical convex function")
    k = frame.dim
    if support.dim != k:
        raise ValueError("frame must span the affine hull of the support")
    for v in support.vertices:
        frame.coordinates(v)
    cols = [tuple(row[j] for row in linear) for j in range(k)]
    hess = [[c.bilinear(cols[i], cols[j]) for j in range(k)] for i in range(k)]
    density = linalg.det(hess) if k else Fraction(1)
    if density < 0:
        raise CertificateError("pullback Hessian of a polarized form must be PSD")
    return Measure(lebesgue_pieces=(LebesguePiece(support, frame, density),))


def pushforward(mu: Measure,
                maps: Sequence[tuple[Polytope, Mat, Vec, AffineLatticeFrame]]) -> Measure:
    """Push a measure forward along piecewise affine chart maps.

    Each map is (source_support, linear, offset, target_frame) acting on chart
    coordinates.  Atoms map to atoms (masses summed on collisions); Lebesgue
    pieces rescale their density by the lattice index of the frame map, so
    total mass is preserved exactly.  Uncovered atoms or pieces raise.
    """
    uncovered = []
    atom_acc: dict[Vec, Fraction] = {}
    for a in mu.atoms:
        img = None
        for src, lin, off, _tf in maps:
            if src.contains(a.at):
                img = linalg.vadd(linalg.matvec(lin, a.at), vec(off))
                break
        if img is None:
            uncovered.append(f"atom at {a.at}")
            continue
        atom_acc[img] = atom_acc.get(img, Fraction(0)) + a.mass

    piece_acc: dict[tuple, tuple[Polytope, AffineLatticeFrame, Fraction]] = {}
    for p in mu.lebesgue_pieces:
        placed = False
        for src, lin, off, tframe in maps:
            if all(src.contains(v) for v in p.support.vertices):
                if tframe.dim != p.frame.dim:
                    raise ValueError("target frame dimension must match the piece frame")
                img_support = hull([linalg.vadd(linalg.matvec(lin, v), vec(off))
                                    for v in p.support.vertices])
                img_dirs = [linalg.matvec(lin, b) for b in p.frame.basis]
                coords = [tframe.coordinates(linalg.vadd(d, tframe.basepoint))
                          for d in img_dirs]
                jac = abs(linalg.det(coords)) if coords else Fraction(1)
                if jac == 0:
                    raise ValueError("map is not injective on a piece's support")
                key = (img_support.vertices, tframe.basepoint, tframe.basis)
                prev = piece_acc.get(key)
                dens = p.density / jac
                if prev is not None:
                    piece_acc[key] = (prev[0], prev[1], prev[2] + dens)
                else:
                    piece_acc[key] = (img_support, tframe, dens)
                placed = True
                break
        if not placed:
            uncovered.append(f"piece on {p.support.vertices}")
    if uncovered:
        raise ValueError("pushforward does not cover: " + "; ".join(uncovered))

    atoms = tuple(Atom(at, m) for at, m in sorted(atom_acc.items()))
    pieces = tuple(LebesguePiece(s, fr, d) for s, fr, d in
                   (piece_acc[k] for k in sorted(piece_acc)))
    return Measure(atoms=atoms, lebesgue_pieces=pieces)
