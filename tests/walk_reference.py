"""The per-cell certificates that the lifted clip replaced, kept as references.

`reference_cells` is the Λ-class walk of `linearity_cells` before the lifted
clip: one translate per class of representatives is certified by clipping
the box by the rows of its 32 nearest entries and growing them until every
vertex passes the envelope certificate, then shifted to its canonical
translate.  `reference_pullback_atoms` certifies every pullback piece over the
carrier's padded box, and `reference_subdifferential` certifies the argmax
translates' cells around the point.  `reference_pullback_pieces`,
`reference_vertex_degree` and `reference_tie_face_dim` are the pullback and
degree before one clip of the pullback read both: the metric's scan re-pruned
to the face's image box into deduplicated Fraction pieces, the atom mass from
a max over those pieces at the vertex, and the tie rank from a scan lookup.
`reference_ma_pl` gathers the vertices of the cells of linearity and scores
each through `evaluate`.  The tests compare the lifted clip with them.
"""

from __future__ import annotations

import heapq
import operator
from fractions import Fraction

from tropma import linalg
from tropma.errors import CellWalkError, CertificateError
from tropma.linalg import dot, vec, vsub
from tropma.ma import Atom, Measure
from tropma.envelope import (AffinePiece, PeriodicPLFunction, _fundamental_bbox, _grid_points,
                             _int_argmax, _may_attain, _scaled_int, evaluate)
from tropma.plfunc import (PeriodicDecomposition, _CollarTooSmall, _cell_from_ties,
                           _default_collar, _translates_meeting, linearity_cells)
from tropma.polyhedra import _rational, _reduced, box_corners, clip, hull, volume
from tropma.skeleton import _image_box, _scale


def certified_cell(scan, ei, box_lo, box_hi, incidence=False):
    """The vertices of {ω in box : entry ei attains the envelope}, or None when
    it is not full-dimensional; with `incidence`, (vertices, the argmax entry
    indices at each vertex).  The rows start from the 32 entries nearest to
    ei by slope and grow by the entries beating ei at a vertex."""
    n = len(box_lo)
    ints = scan._ints
    me, ce = ints[ei]
    corners = box_corners(box_lo, box_hi)
    pts = [_reduced(x) for x in corners]
    tight = [frozenset(-2 * i - 1 - (v == lo) for i, (v, lo) in enumerate(zip(x, box_lo)))
             for x in corners]
    new = nearest_indices(scan, ei, 32)
    cons = set(new)
    while True:
        pts, tight = clip(pts, tight, [(j, [a - b for a, b in zip(ints[j][0], me)], ce - ints[j][1])
                                       for j in new])
        if linalg.rank(pts) <= n:
            return None
        args = [_int_argmax(ints, x[:-1], x[-1])[1] for x in pts]
        new = sorted({i for arg in args if ei not in arg for i in arg} - cons)
        if not new:
            pts = [_rational(x) for x in pts]
            return (pts, args) if incidence else pts
        cons.update(new)


def touches_box(pts, box_lo, box_hi):
    return any(v[i] == box_lo[i] or v[i] == box_hi[i]
               for v in pts for i in range(len(box_lo)))


def nearest_indices(scan, ei, count):
    """The `count` entries other than ei nearest to it by the L∞ distance of
    their integer slopes, ties by index."""
    ints = scan._ints
    me = ints[ei][0]
    return heapq.nsmallest(count, (i for i in range(len(ints)) if i != ei),
                           key=lambda i: max(map(abs, map(operator.sub, ints[i][0], me))))


def walk_cells(f, dom, flo, fhi, collar):
    """One certified cell per Λ-class of representatives, walked from dom."""
    c = f.cocycle
    box_lo = tuple(a - collar for a in flo)
    box_hi = tuple(b + collar for b in fhi)
    scan = f.scan_for(box_lo, box_hi)
    entries = scan.entries
    entry_index = {(e.rep_index, e.k): i for i, e in enumerate(entries)}

    _, seed = scan.eval(dom.barycenter())
    queue = list(seed)
    enqueued = set(seed)
    done = set()
    canonical = {}

    while queue:
        ei = queue.pop()
        e = entries[ei]
        if e.rep_index in done:
            continue
        got = certified_cell(scan, ei, box_lo, box_hi, incidence=True)
        if got is None:
            continue
        pts, args = got
        if touches_box(pts, box_lo, box_hi):
            raise _CollarTooSmall()
        cell = _cell_from_ties(scan, ei, pts, args)
        _, kshift = c.canonicalize(cell.barycenter())
        ccell = cell.translate(tuple(-x for x in c.lattice_vector(kshift))) \
            if any(kshift) else cell
        ci = entry_index.get((e.rep_index, tuple(a - b for a, b in zip(e.k, kshift))))
        clo, chi = ccell.bbox()
        if ci is None or any(a < b for a, b in zip(clo, box_lo)) or \
                any(a > b for a, b in zip(chi, box_hi)):
            raise _CollarTooSmall()

        ties = [set(scan.eval(u)[1]) for u in ccell.vertices]
        tie, neighbors = set.intersection(*ties), set.union(*ties)
        if not tie or ci not in tie:
            raise CellWalkError("cell certificate failed")
        piece = min((entries[i].piece for i in tie), key=lambda p: (p.m, p.c))
        canonical[ccell.vertices] = (ccell, piece, len(tie) == 1)
        done.update(entries[i].rep_index for i in tie)

        for i in neighbors:
            if i not in enqueued and entries[i].rep_index not in done:
                enqueued.add(i)
                queue.append(i)

    walked = [canonical[key] for key in sorted(canonical)]
    strict = done == set(range(len(f.pieces))) and all(unique for _, _, unique in walked)
    return (PeriodicDecomposition(c, tuple(cell for cell, _, _ in walked)),
            dict(enumerate(piece for _, piece, _ in walked)), strict)


def reference_cells(f):
    """The walk's collar loop: two cell widths first, then grown on a restart.
    Returns (decomposition, cell_to_piece, strict, restarts)."""
    c = f.cocycle
    flo, fhi = _fundamental_bbox(c)
    collar = _default_collar(f)
    width = max(b - a for a, b in zip(flo, fhi))
    for restarts in range(8):
        try:
            return (*walk_cells(f, c.fundamental_domain(), flo, fhi, collar), restarts)
        except _CollarTooSmall:
            collar = min(collar * 2, collar + width)
    raise CellWalkError("cell walk failed to stabilize")


def reference_pullback_atoms(face, pieces):
    """Atoms (frame coordinates, dual volume) of the pullback in relint: the
    vertices of its certified cells over the carrier's padded box."""
    h = PeriodicPLFunction(None, tuple(pieces))
    carr_y = hull([face.frame.coordinates(v) for v in face.carrier.vertices])
    lo, hi = carr_y.bbox()
    pad = max(x - y for x, y in zip(hi, lo)) / 4 + Fraction(1, 97)
    box_lo = tuple(x - pad for x in lo)
    box_hi = tuple(x + pad for x in hi)
    scan = h.scan_for(box_lo, box_hi)
    candidates = set()
    for i in range(len(scan.entries)):
        pts = certified_cell(scan, i, box_lo, box_hi)
        if pts is not None:
            candidates.update(pts)
    out = []
    for y in sorted(candidates):
        if carr_y.contains_relint(y):
            _, arg = scan.eval(y)
            vol = volume(sorted({h.pieces[i].m for i in arg}))
            if vol:
                out.append((y, vol))
    return out


def reference_subdifferential(f, xi):
    """The dual at xi, certified at the vertices of the argmax translates'
    cells in the box xi ± (max |xi_i| + 1)."""
    pad = max((abs(x) for x in xi), default=Fraction(1)) + 1
    box_lo = tuple(x - pad for x in xi)
    box_hi = tuple(x + pad for x in xi)
    scan = f.scan_for(box_lo, box_hi)
    _, arg_idx = scan.eval(xi)
    dual = hull(sorted({scan.entries[i].piece.m for i in arg_idx}))
    for i in arg_idx:
        pts = certified_cell(scan, i, box_lo, box_hi)
        if pts is None:
            continue
        fxi = scan.entries[i].piece.value(xi)
        for w in pts:
            fw, _ = scan.eval(w)
            for u in dual.vertices:
                if fw - fxi < dot(vsub(w, xi), u):
                    raise CertificateError("subdifferential certificate failed")
    return dual


def reference_ma_pl(f, region=None):
    """The atoms at the canonical vertices of the cells of linearity (region
    None) or at the vertices of their translates in the region, each scored
    through `evaluate`, with the fundamental domain's mass check."""
    c = f.cocycle
    decomp, _, _ = linearity_cells(f)
    points = set()
    if region is None:
        for cell in decomp.cells:
            points.update(c.canonicalize(v)[0] for v in cell.vertices)
    else:
        for _, _, t in _translates_meeting(decomp, *region.bbox()):
            points.update(v for v in t.vertices if region.contains(v))
    atoms = []
    for xi in sorted(points):
        mass = volume(sorted({e.piece.m for e in evaluate(f, xi)[1]}))
        if mass > 0:
            atoms.append(Atom(xi, mass))
    if region is None and sum(a.mass for a in atoms) != linalg.det(c.b) * c.covolume():
        raise CertificateError("MA mass over a fundamental domain is not det(b)·covol(Λ)")
    return Measure(atoms=tuple(atoms))


def reference_entries_on(scan, lo, hi):
    """The scan's entries that can attain the envelope on the box [lo, hi]
    inside the scan's box, by the scan's own pruning rule: the minorants are
    the first argmax entries at the grid points of [lo, hi]."""
    assert scan.covers(lo, hi)
    corners = box_corners(lo, hi)
    dw = linalg.common_denominator(x for w in corners for x in w)
    ws = [tuple(_scaled_int(x, dw) for x in w) for w in corners]
    vals = [[sum(a * b for a, b in zip(m, w)) + ci * dw for w in ws]
            for m, ci in scan._ints]
    floors = [vals[i] for i in sorted({scan.eval(gp)[1][0] for gp in _grid_points(lo, hi)})]
    return [e for e, v in zip(scan.entries, vals) if _may_attain(v, floors)]


def reference_pullback_pieces(metric, face):
    """The distinct pieces of metric ∘ f_aff on frame coordinates, from the
    metric's scan re-pruned to the carrier's image box, sorted."""
    box = _image_box(face)
    k = face.frame.dim
    seen = {}
    for e in reference_entries_on(metric.scan_for(*box), *box):
        m = e.piece.m
        slope = tuple(sum(m[i] * face.f_aff_linear[i][j] for i in range(len(m)))
                      for j in range(k))
        const = dot(m, face.f_aff_offset) + e.piece.c
        seen[(slope, const)] = AffinePiece(slope, const)
    return sorted(seen.values(), key=lambda p: (p.m, p.c))


def reference_tie_face_dim(metric, x):
    """n − rank{m_j − m_i} over the scan's translates attaining the metric at x."""
    scan = metric.scan_for(x, x)
    ms = [scan.entries[i].piece.m for i in scan.eval(x)[1]]
    return metric.n - linalg.rank([vsub(m, ms[0]) for m in ms[1:]])


def reference_vertex_degree(spec, face, metric, xi, pieces=None):
    """(d!/e!)·deg_H times the volume of the slopes of the pullback pieces
    attaining the max at xi, with the errors of `skeleton.vertex_degree`;
    `pieces` are `reference_pullback_pieces`, built here when not given."""
    xi = vec(xi)
    if not face.carrier.contains_relint(xi):
        raise ValueError("xi must lie in the relative interior of the carrier")
    y = face.frame.coordinates(xi)
    if pieces is None:
        pieces = reference_pullback_pieces(metric, face)
    vals = [p.value(y) for p in pieces]
    top = max(vals)
    vol = volume(sorted({p.m for p, v in zip(pieces, vals) if v == top}))
    if not vol:
        raise ValueError("xi is not a vertex of the pullback complex")
    if metric.n - reference_tie_face_dim(metric, face.f_aff(y)) != face.carrier.dim:
        raise ValueError("non-transversal vertex")
    return _scale(spec, face) * vol
