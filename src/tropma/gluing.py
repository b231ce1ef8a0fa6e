"""Glued canonical subsets: face measures pushed onto component root charts.

The gluing identifications of a skeleton spec form a graph on its faces; each
connected component gets one root chart, every face's chart map onto it is
found by a walk of the graph, and the canonical face measures are pushed
along those maps and merged where faces are identified.  No CLI command runs
this, so it is kept apart from `skeleton`, which the measure commands load.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .linalg import Mat, Vec, dot, vec
from .ma import Atom, LebesguePiece, Measure, pushforward
from .polyhedra import AffineLatticeFrame, Polytope, lattice_volume
from .skeleton import SkeletonFace, SkeletonSpec, check_nondegenerate, face_measure


def canonical_subset(spec: SkeletonSpec) -> tuple[list[str], Measure]:
    """Non-degenerate faces and their glued canonical measure.

    Face measures are pushed along the gluing identifications onto component
    root charts, summing where faces are identified; each f_aff is injective
    on its face by the non-degeneracy rank condition, so the face-to-image map
    is finite-to-one at the data level.  Gluing maps that disagree at carrier
    vertices raise.
    """
    nd = [f for f in spec.faces if check_nondegenerate(spec, f)]
    nd_ids = [f.id for f in sorted(nd, key=lambda f: f.id)]

    chart_maps, roots = _component_chart_maps(spec)
    acc: dict[str, Measure] = {}
    for face in sorted(nd, key=lambda f: f.id):
        mu = face_measure(spec, face, "canonical")
        lin, off = chart_maps[face.id]
        tframe = AffineLatticeFrame(
            linalg.vadd(linalg.matvec(lin, face.frame.basepoint), off),
            tuple(linalg.matvec(lin, b) for b in face.frame.basis))
        mu2 = pushforward(mu, [(face.carrier, lin, off, tframe)])
        root = roots[face.id]
        acc[root] = acc.get(root, Measure()) + mu2

    merged = Measure()
    for root in sorted(acc):
        merged = merged + _merge_overlaps(acc[root])
    return nd_ids, merged


def _merge_overlaps(mu: Measure) -> Measure:
    """Sum masses of atoms at identical points and densities on identical
    supports; piece densities are re-expressed in the support's own saturated
    frame (an exact, mass-preserving conversion) so identified carriers merge."""
    atom_acc: dict[Vec, Fraction] = {}
    for a in mu.atoms:
        atom_acc[a.at] = atom_acc.get(a.at, Fraction(0)) + a.mass
    piece_acc: dict[tuple, tuple[Polytope, AffineLatticeFrame, Fraction]] = {}
    for p in mu.lebesgue_pieces:
        canon_frame = p.support.frame()
        vol_old = lattice_volume(p.support, p.frame)
        vol_new = lattice_volume(p.support, canon_frame)
        density = p.density * vol_old / vol_new if vol_new else p.density
        key = p.support.vertices
        prev = piece_acc.get(key)
        if prev is None:
            piece_acc[key] = (p.support, canon_frame, density)
        else:
            piece_acc[key] = (prev[0], prev[1], prev[2] + density)
    return Measure(tuple(Atom(at, m) for at, m in sorted(atom_acc.items())),
                   tuple(LebesguePiece(s, fr, d) for s, fr, d in
                         (piece_acc[k] for k in sorted(piece_acc))))


def _gluing_graph(spec: SkeletonSpec):
    """Adjacency lists; an entry (y, L, t) at node x maps y's chart into x's."""
    adj: dict[str, list[tuple[str, Mat, Vec]]] = {f.id: [] for f in spec.faces}
    for g in spec.gluing:
        adj[g.face_a].append((g.face_b, g.linear, vec(g.offset)))
        inv = _invert_on_carrier(spec.face(g.face_a), spec.face(g.face_b),
                                 g.linear, vec(g.offset))
        adj[g.face_b].append((g.face_a, inv[0], inv[1]))
    return adj


def _invert_on_carrier(face_a: SkeletonFace, face_b: SkeletonFace,
                       lin: Mat, off: Vec) -> tuple[Mat, Vec]:
    """Chart-affine inverse of x_a = lin·x_b + off on face_a's carrier hull.

    The map restricts to a bijection of the carriers, so on frame coordinates
    it is an invertible k x k map K; the inverse chart map is assembled as
    F_b K⁻¹ P_a with P_a a left inverse of face_a's frame columns.
    """
    fa, fb = face_a.frame, face_b.frame
    ra = len(fa.basepoint)
    rb = len(fb.basepoint)
    k = fb.dim
    if k == 0:
        zero = tuple(tuple(Fraction(0) for _ in range(ra)) for _ in range(rb))
        return zero, fb.basepoint
    gram = [[dot(fa.basis[i], fa.basis[j]) for j in range(k)] for i in range(k)]
    pmat = linalg.matmul(linalg.inverse(gram), fa.basis)          # k x ra
    fb_cols = linalg.transpose(fb.basis)                          # rb x k
    kmat = linalg.matmul(linalg.matmul(pmat, lin), fb_cols)       # k x k
    kinv = linalg.inverse(kmat)
    s = linalg.matvec(pmat, linalg.vsub(
        linalg.vadd(linalg.matvec(lin, fb.basepoint), off), fa.basepoint))
    lin_out = linalg.matmul(linalg.matmul(fb_cols, kinv), pmat)   # rb x ra
    off_out = linalg.vsub(
        linalg.vsub(fb.basepoint, linalg.matvec(lin_out, fa.basepoint)),
        linalg.matvec(fb_cols, linalg.matvec(kinv, s)))
    return lin_out, off_out


def _component_chart_maps(spec: SkeletonSpec):
    """BFS over the gluing graph: per face, the chart map onto its root."""
    adj = _gluing_graph(spec)
    maps: dict[str, tuple[Mat, Vec]] = {}
    roots: dict[str, str] = {}
    for f in sorted(spec.faces, key=lambda x: x.id):
        if f.id in maps:
            continue
        r = len(f.carrier.vertices[0])
        ident = tuple(tuple(Fraction(1 if i == j else 0) for j in range(r))
                      for i in range(r))
        maps[f.id] = (ident, tuple(Fraction(0) for _ in range(r)))
        roots[f.id] = f.id
        queue = [f.id]
        while queue:
            cur = queue.pop()
            lin_c, off_c = maps[cur]
            for nxt, lin_e, off_e in adj[cur]:
                lin_n = linalg.matmul(lin_c, lin_e)
                off_n = linalg.vadd(linalg.matvec(lin_c, off_e), off_c)
                if nxt in maps:
                    lin_o, off_o = maps[nxt]
                    for v in spec.face(nxt).carrier.vertices:
                        a = linalg.vadd(linalg.matvec(lin_n, v), off_n)
                        b = linalg.vadd(linalg.matvec(lin_o, v), off_o)
                        if a != b:
                            raise ValueError("inconsistent gluing")
                    continue
                maps[nxt] = (lin_n, off_n)
                roots[nxt] = f.id
                queue.append(nxt)
    return maps, roots
