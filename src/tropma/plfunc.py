"""Periodic decompositions, cells of linearity and their certificates.

The functions themselves and their envelope scan live in `envelope`, which
every command runs; this module holds what only some commands run: the cells
of linearity read off an exact clip of the envelope's epigraph, and the
periodicity, tiling, cocycle-rule and Σ-transversality certificates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from . import linalg
from .cocycle import Cocycle
from .envelope import (AffinePiece, PeriodicPLFunction, _candidate_ks, _cocycle_quadratic_data,
                       _default_collar, _EnvelopeScan, _enumerate_entries, _fundamental_bbox,
                       evaluate, translate_piece)
from .errors import CellWalkError, CertificateError  # CertificateError: re-exported
from .linalg import Vec, dot, vadd, vsub
from .polyhedra import (Polytope, _canon_ineq, _cap_vertices, _faces, _int_halfspace,
                        _integer_points, boxes_meet, clip, envelope_clip, faces,
                        from_incidence, graph_point, volume)
from .value import Value, setfield

# _candidate_ks and _enumerate_entries are re-exported, so that the scan's
# layers keep the names bench/tracer.py wraps.


# ---------------------------------------------------------------------------
# decompositions


class PeriodicDecomposition(Value):
    """Representatives of the maximal cells of a Λ-periodic decomposition."""

    _fields = ("cocycle", "cells")

    def __init__(self, cocycle: Cocycle, cells: tuple[Polytope, ...]):
        n = cocycle.n
        for cell in cells:
            if cell.ambient_dim != n or cell.dim != n:
                raise ValueError("cells must be full-dimensional in the ambient space")
        setfield(self, "cocycle", cocycle)
        setfield(self, "cells", cells)


def _shifts_meeting(d: PeriodicDecomposition, lo: Vec, hi: Vec) -> list[tuple[int, tuple]]:
    """All (cell_index, k) whose translate by λ_k has a bbox meeting the box
    [lo, hi], in order of cell and then of k, on integers over one common
    denominator.  k ranges over the lattice coordinates of the shifts that
    carry the cell's bbox onto the box, widened by one."""
    c = d.cocycle
    n = c.n
    pden, pinv = _integer_points(_cocycle_quadratic_data(c).period_inv)
    den, (lo, hi, *pts) = _integer_points(
        [lo, hi, *c.periods, *(x for cell in d.cells for x in cell.bbox())])
    lams, scale = pts[:n], pden * den
    out = []
    for ci in range(len(d.cells)):
        clo, chi = pts[n + 2 * ci], pts[n + 2 * ci + 1]
        dlo, dhi = vsub(lo, chi), vsub(hi, clo)
        ranges = []
        for row in pinv:    # the least and greatest lattice coordinate on [dlo, dhi]
            low = sum(m * (a if m > 0 else b) for m, a, b in zip(row, dlo, dhi))
            high = sum(m * (b if m > 0 else a) for m, a, b in zip(row, dlo, dhi))
            ranges.append(range(-(-low // scale) - 1, high // scale + 2))
        for k in itertools.product(*ranges):
            t = [sum(ki * lam[j] for ki, lam in zip(k, lams)) for j in range(n)]
            if boxes_meet(vadd(clo, t), vadd(chi, t), lo, hi):
                out.append((ci, k))
    return out


def _translates_meeting(d: PeriodicDecomposition, lo: Vec, hi: Vec):
    """All (cell_index, k, translated cell) whose bbox meets the box [lo, hi]."""
    return [(ci, k, d.cells[ci].translate(d.cocycle.lattice_vector(k)))
            for ci, k in _shifts_meeting(d, lo, hi)]


@functools.lru_cache(maxsize=65536)
def _ring2d(p: Polytope) -> list[Vec]:
    """Vertices of a 2-d polytope in counterclockwise order; cached by vertices."""
    return [p.vertices[i] for i in _ccw(_integer_points(p.vertices)[1])]


def _ccw(pts: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of the vertices of a polygon, given as integer points, in
    counterclockwise order by angle around their barycenter, starting at
    angle 0; two or fewer points keep their order."""
    m = len(pts)
    if m <= 2:
        return list(range(m))
    sx, sy = sum(x for x, _ in pts), sum(y for _, y in pts)
    rel = [(m * x - sx, m * y - sy) for x, y in pts]
    half = [0 if (dy, dx) > (0, 0) else 1 for dx, dy in rel]

    def cmp(i, j):
        if half[i] != half[j]:
            return half[i] - half[j]
        cr = rel[i][0] * rel[j][1] - rel[i][1] * rel[j][0]
        return (cr < 0) - (cr > 0)

    return sorted(range(m), key=functools.cmp_to_key(cmp))


def _dim_of_points(pts: Sequence[Vec]) -> int:
    if not pts:
        return -1
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    return linalg.rank(diffs) if diffs else 0


def check_periodic(d: PeriodicDecomposition) -> bool:
    """Validate Λ-periodicity of the decomposition given by representatives.

    Checks that the translates tile a fundamental domain exactly (volumes sum
    to the covolume, interiors pairwise disjoint) and that any two meeting
    translates intersect in a common face, so the decomposition descends to
    the torus.
    """
    c = d.cocycle
    n = c.n
    dom = c.fundamental_domain()
    lo, hi = dom.bbox()
    covol = c.covolume()

    total = Fraction(0)
    for _, _, t in _translates_meeting(d, lo, hi):
        total += volume(_cap_vertices(t, dom))
    if total != covol:
        return False

    # Any intersecting pair in the full complex is a lattice translate of a
    # pair meeting an inflated fundamental box, provided the collar exceeds
    # the largest cell width; checking those pairs checks them all.
    collar = max(b - a for cell in d.cells for a, b in zip(*cell.bbox()))
    blo = tuple(a - collar for a in lo)
    bhi = tuple(b + collar for b in hi)
    near = [t for _, _, t in _translates_meeting(d, blo, bhi)]
    for i, t1 in enumerate(near):
        for j in range(i + 1, len(near)):
            if boxes_meet(*t1.bbox(), *near[j].bbox()) and not _pair_compatible(t1, near[j], n):
                return False
    return True


def certify_linearity_tiling(f: PeriodicPLFunction, decomp: PeriodicDecomposition,
                             cell_pieces) -> tuple[bool, str]:
    """Certify that decomp's cells are exactly the cells of linearity of f mod Λ.

    Returns (ok, reason); the reason names the check that failed.  Three exact
    checks on data the cell walk has already computed:

    - vertex: f = p_i at every vertex of cell C_i, where p_i = cell_pieces[i];
    - class: each p_i is a cocycle translate of a representative of f, and no
      two p_i lie in the same Λ-class (`_class_key`);
    - volume: Σ vol(C_i) = covol(Λ).

    Proof sketch.  p_i is a translate, so p_i <= f everywhere; f is convex and
    equals p_i at the vertices of C_i, so f <= p_i on C_i, hence C_i lies in the
    linearity region R_i = {f = p_i}, which is convex.  The regions of distinct
    affine functions have disjoint interiors, translating a piece by λ ≠ 0
    changes its slope by b·λ ≠ 0, and the translates of all regions cover the
    space; so the regions of the Λ-classes attaining on an open set tile a
    fundamental domain modulo Λ, with total volume covol(Λ).  The classes of
    the p_i are distinct, so Σ vol(C_i) <= Σ vol(R_i) <= covol(Λ), and equality
    forces C_i = R_i (closed convex sets of equal finite volume) and every
    attaining class to be present.  The cells are then the domains of
    linearity of a max of affine functions, a regular subdivision, which meets
    face to face (De Loera–Rambau–Santos, Triangulations, 2010, ch. 2): the
    decomposition is Λ-periodic and descends to the torus, which is what
    `check_periodic` verifies pairwise for decompositions of unknown origin.
    """
    c = f.cocycle
    for i, cell in enumerate(decomp.cells):
        p = cell_pieces[i]
        for v in cell.vertices:
            if evaluate(f, v)[0] != p.value(v):
                return False, f"vertex check: f differs from the piece of cell {i} at {v}"
    reps = {_class_key(c, p) for p in f.pieces}
    seen = set()
    for i in range(len(decomp.cells)):
        key = _class_key(c, cell_pieces[i])
        if key not in reps:
            return False, f"class check: the piece of cell {i} is not a translate of a piece"
        if key in seen:
            return False, f"class check: cell {i} repeats the Λ-class of another cell"
        seen.add(key)
    if sum(volume(cell.vertices, cell.inequalities) for cell in decomp.cells) != c.covolume():
        return False, "volume check: the cell volumes do not sum to covol(Λ)"
    return True, ""


def _class_key(c: Cocycle, p: AffinePiece) -> tuple[Vec, Fraction]:
    """(m, c) of the translate of p whose slope has coordinates in [0, 1)^n on
    the basis (b·λ_i) of bΛ.  Translating by k adds k to those coordinates, so
    two pieces share the key exactly when they are translates of each other."""
    t = linalg.solve(linalg.transpose(_cocycle_quadratic_data(c).pb), p.m)
    q = translate_piece(c, p, tuple(-linalg.floor_frac(x) for x in t))
    return q.m, q.c


def _pair_compatible(t1: Polytope, t2: Polytope, n: int) -> bool:
    """Interiors disjoint and, if the cells meet, they meet in a common face."""
    if t1.vertices == t2.vertices:
        return False
    cap = _cap_vertices(t1, t2)
    if not cap:
        return True
    if _dim_of_points(cap) == n:
        return False
    return _is_face_of_vs(cap, t1) and _is_face_of_vs(cap, t2)


def _is_face_of_vs(cap_vs: Sequence[Vec], p: Polytope) -> bool:
    """Whether the polytope with vertex set cap_vs is a face of p."""
    if not all(p.contains(v) for v in cap_vs):
        return False
    tight = [(a, c) for a, c in p.inequalities
             if all(dot(a, v) == c for v in cap_vs)]
    gen = sorted(v for v in p.vertices
                 if all(dot(a, v) == c for a, c in tight))
    return gen == sorted(cap_vs)


# ---------------------------------------------------------------------------
# linearity cells


class _CollarTooSmall(Exception):
    pass


def _certified_cell(clipped, ei: int):
    """Entry ei's cell in a lifted clip (`envelope_clip`) as (vertices, the
    tight set of each), or None below rank n + 1.  The cell is the projection
    of the face of the graph on which ei attains: its vertices are the
    clipped vertices tight with ei."""
    pts, tight = clipped
    on = [v for v, t in enumerate(tight) if ei in t]
    n = len(pts[0]) - 2
    if len(on) <= n or linalg.rank([pts[v] for v in on]) <= n:
        return None
    return [graph_point(pts[v]) for v in on], [tight[v] for v in on]


def linearity_cells(f: PeriodicPLFunction):
    """Maximal cells of linearity, as canonical representatives modulo Λ.

    Returns (decomposition, cell_to_piece, strictly_convex), read off one
    lifted clip of the envelope's graph over the fundamental box widened by a
    collar (`_walk_cells`): first 5/9 of the working scan's two cell widths,
    so that a tangent mesh's cells, one width across, end inside the box
    rather than on its facets; on a restart the working scan's collar, then
    grown.  A cell that several translates tie on gets the lexicographically
    least piece.
    """
    if f._cells_cache is not None and f._cells_cache[2] is not None:
        return f._cells_cache
    c = f.cocycle
    if c is None:
        raise ValueError("linearity_cells needs a periodic function")
    flo, fhi = _fundamental_bbox(c)
    collar = _default_collar(f)
    width = max(b - a for a, b in zip(flo, fhi))
    for attempt in range(9):
        try:
            result = _walk_cells(f, flo, fhi, collar * 5 / 9 if attempt == 0 else collar)
            break
        except _CollarTooSmall:
            if attempt:
                collar = min(collar * 2, collar + width)
    else:
        raise CellWalkError("cell walk failed to stabilize; is b positive definite?")
    f._cells_cache = result
    return result


def _walk_cells(f: PeriodicPLFunction, flo: Vec, fhi: Vec, collar: Fraction):
    """One collar step of `linearity_cells`: one cell per Λ-class, read off
    the lifted clip over the box [flo - collar, fhi + collar].

    The clip (`envelope_clip`) runs on f's scan, which covers the working
    box and grows with the box.  By the cocycle rule the cell of the
    translate (p, k) is the cell of (p, 0) shifted by λ_k, so one translate
    of each representative's cell that touches no box facet, a whole cell of
    f, is shifted to its canonical translate, whose barycenter lies in the
    half-open fundamental parallelepiped.  Every class that attains meets the
    fundamental domain, inside the box, in a full-dimensional set, so a
    representative whose cells of rank n + 1 all touch a box facet raises
    _CollarTooSmall.
    A cell is built from the tight sets at its vertices (`_cell_from_ties`);
    its tie is the entries tight at all of them.
    """
    c = f.cocycle
    n = c.n
    box_lo = tuple(a - collar for a in flo)
    box_hi = tuple(b + collar for b in fhi)
    f.working_scan()
    scan = f.scan_for(box_lo, box_hi)
    clipped = pts, tight = envelope_clip(scan._ints, box_lo, box_hi)
    at: dict[int, list[int]] = {}
    for v, t in enumerate(tight):
        for j in t:
            at.setdefault(j, []).append(v)
    entries = scan.entries
    canonical: dict[tuple, tuple[Polytope, AffinePiece, bool]] = {}
    done: set[int] = set()
    cut: set[int] = set()
    for ei in sorted(j for j in at if j >= 0):
        on = at[ei]
        if entries[ei].rep_index in done:
            continue
        if any(j < 0 for v in on for j in tight[v]):
            if len(on) > n and linalg.rank([pts[v] for v in on]) > n:
                cut.add(entries[ei].rep_index)
            continue
        got = _certified_cell(clipped, ei)
        if got is None:
            continue
        cell = _cell_from_ties(scan, ei, *got)
        _, kshift = c.canonicalize(cell.barycenter())
        if any(kshift):
            cell = cell.translate(tuple(-x for x in c.lattice_vector(kshift)))
        tie = [entries[i] for i in frozenset.intersection(*got[1])]
        piece = min((translate_piece(c, f.pieces[e.rep_index],
                                     tuple(map(operator.sub, e.k, kshift))) for e in tie),
                    key=lambda p: (p.m, p.c))
        canonical[cell.vertices] = (cell, piece, len(tie) == 1)
        done.update(e.rep_index for e in tie)
    if cut - done:
        raise _CollarTooSmall()

    walked = [canonical[key] for key in sorted(canonical)]
    strict = done == set(range(len(f.pieces))) and all(unique for _, _, unique in walked)
    return (PeriodicDecomposition(c, tuple(cell for cell, _, _ in walked)),
            dict(enumerate(piece for _, piece, _ in walked)), strict)


def _cell_from_ties(scan: _EnvelopeScan, ei: int, pts: Sequence[Vec], args) -> Polytope:
    """conv(pts), the cell of entry ei, from the tight sets it is given.

    args[i] is the argmax set at pts[i].  Entry j ties with ei exactly on the
    hyperplane (m_j - m_e)·ω = c_e - c_j, and p_j <= p_e on the cell, so the
    points where j ties but not everywhere are a proper face with that
    inequality.  The cell does not touch the clipped box, so every facet is
    among them (`from_incidence` keeps the maximal ones).
    """
    me = scan.entries[ei].piece
    ties: dict[frozenset, int] = {}
    for j in set().union(*args):
        on = frozenset(i for i, arg in enumerate(args) if j in arg)
        if len(on) < len(pts):
            ties.setdefault(on, j)
    supports = []
    for on, j in ties.items():
        q = scan.entries[j].piece
        supports.append((_canon_ineq(vsub(q.m, me.m), me.c - q.c), on))
    return from_incidence(pts, supports)


# ---------------------------------------------------------------------------
# cocycle rule check


def check_cocycle_rule(f: PeriodicPLFunction, samples: int = 3) -> bool:
    """Validate that the envelope satisfies f(ω+λ) = f(ω) + z_λ(ω).

    Three layers: the translate operation must compose correctly on the
    representatives (round trips return the original piece), the rule must
    hold numerically at sample points, and any cached cell decomposition must
    reproduce the envelope at its cell vertices (this is what fails when the
    cocycle constants are altered after the cells were computed).
    """
    c = f.cocycle
    if c is None:
        return False
    n = c.n
    for p in f.pieces:
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            back = translate_piece(c, translate_piece(c, p, e),
                                   tuple(-x for x in e))
            if (back.m, back.c) != (p.m, p.c):
                return False

    if f._cells_cache is not None:
        decomp, cell_pieces, _ = f._cells_cache
        for idx, cell in enumerate(decomp.cells):
            piece = cell_pieces[idx]
            for u in cell.vertices:
                val, _ = evaluate(f, u)
                if val != piece.value(u):
                    return False

    base = [Fraction(1, 7), Fraction(2, 7), Fraction(5, 7)][:samples]
    pts = []
    for tt in itertools.product(base, repeat=n):
        w = [Fraction(0)] * n
        for ti, lam in zip(tt, c.periods):
            w = [x + ti * y for x, y in zip(w, lam)]
        pts.append(tuple(w))
    lams = [k for k in itertools.product((-1, 0, 1), repeat=n) if any(k)]
    for w in pts:
        v0, _ = evaluate(f, w)
        for k in lams:
            lam = c.lattice_vector(k)
            v1, _ = evaluate(f, linalg.vadd(w, lam))
            if v1 != v0 + c.z_value(k, w):
                return False
    return True


# ---------------------------------------------------------------------------
# transversality


class TransversalityRow(Value):
    _fields = ("sigma", "cell", "intersection_dim", "expected", "definition_ok",
               "criterion_ok")

    def __init__(self, sigma: Polytope, cell: Polytope,
                 intersection_dim: int,   # -1 when empty
                 expected: int,           # D(σ, Δ) = dim σ + dim Δ - n
                 definition_ok: bool, criterion_ok: bool):
        setfield(self, "sigma", sigma)
        setfield(self, "cell", cell)
        setfield(self, "intersection_dim", intersection_dim)
        setfield(self, "expected", expected)
        setfield(self, "definition_ok", definition_ok)
        setfield(self, "criterion_ok", criterion_ok)


class TransversalityReport(Value):
    _fields = ("ok", "violations", "rows", "criterion_ok")

    def __init__(self, ok: bool, violations: tuple[tuple[Polytope, Polytope, int, int], ...],
                 rows: tuple[TransversalityRow, ...], criterion_ok: bool):
        setfield(self, "ok", ok)
        setfield(self, "violations", violations)
        setfield(self, "rows", rows)
        setfield(self, "criterion_ok", criterion_ok)

    @property
    def lemma_consistent(self) -> bool:
        """The sufficiency criterion never passes while the definition fails."""
        return self.ok or not self.criterion_ok


@functools.lru_cache(maxsize=16)
def _closure_under_faces(sigma: tuple[Polytope, ...]) -> tuple[Polytope, ...]:
    """The faces of the polytopes of Σ, each once, in vertex order.  Cached:
    each perturbation draw closes the same Σ for genericity and transversality."""
    out = {ff.vertices: ff for s in sigma for ff in faces(s)}
    return tuple(out[k] for k in sorted(out))


def _face_orbits(d: PeriodicDecomposition, extra: Sequence[Vec]):
    """(den, periods, extra, cells, bases) on integers, all times the common
    denominator den of the periods, the cell vertices and the points `extra`.
    cells[ci] is (bbox of cell ci, [(orbit, bbox, offset) per face]), a face
    (`faces`) being its Λ-orbit's base shifted by offset, and bases[orbit] is
    (face, vertices, k0, tight) of the orbit's first face, lying at λ_k0 from
    the translate whose least vertex in lattice coordinates lies in the
    half-open fundamental parallelepiped, which keys the orbit; tight holds
    the ids of its cell's inequalities that each vertex lies on.  A bbox is
    (lows, highs)."""
    c = d.cocycle
    n = c.n
    pden, pinv = _integer_points(_cocycle_quadratic_data(c).period_inv)
    den, pts = _integer_points([*c.periods, *extra,
                                *(v for cell in d.cells for v in cell.vertices)])
    lams, extra, pts = pts[:n], pts[n:n + len(extra)], iter(pts[n + len(extra):])
    orbits: dict[tuple, int] = {}
    bases, cells = [], []
    for cell in d.cells:
        verts = [next(pts) for _ in cell.vertices]
        lat = [tuple(sum(a * b for a, b in zip(row, v)) for row in pinv) for v in verts]
        cells.append((_int_box(verts), []))
        for idx, ff, tight in _faces(cell):
            ps = sorted(lat[i] for i in idx)
            k0 = tuple(x // (pden * den) for x in ps[0])
            rep = tuple(tuple(x - pden * den * k for x, k in zip(p, k0)) for p in ps)
            if rep not in orbits:
                orbits[rep] = len(bases)
                bases.append((ff, [verts[i] for i in idx], k0, tight))
            orbit = orbits[rep]
            mu = [a - b for a, b in zip(k0, bases[orbit][2])]
            off = tuple(sum(m * lam[j] for m, lam in zip(mu, lams)) for j in range(n))
            cells[-1][1].append((orbit, _int_box([verts[i] for i in idx]), off))
    return den, lams, extra, cells, bases


def _int_box(pts: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    cols = list(zip(*pts))
    return [min(x) for x in cols], [max(x) for x in cols]


def _translator(p: Polytope, verts: Sequence[tuple[int, ...]], den: int):
    """t -> p.translate(t/den) for integer t, with p's vertices given times
    den: a halfspace a·x <= c is A·x <= C on integers with A = s·a, and its
    constant moves to (C·den + A·t)/(s·den)."""
    hs = [(a, _int_halfspace(a, c, 1), math.lcm(c.denominator, *(x.denominator for x in a)) * den)
          for a, c in p.equations + p.inequalities]
    ne = len(p.equations)

    def at(t: Sequence[int]) -> Polytope:
        moved = tuple((a, Fraction(big_c * den + sum(x * y for x, y in zip(big_a, t)), sd))
                      for a, (big_a, big_c), sd in hs)
        return Polytope(p.ambient_dim,
                        tuple(tuple(Fraction(x + y, den) for x, y in zip(v, t)) for v in verts),
                        moved[:ne], moved[ne:], p.dim, _validate=False)
    return at


def _criterion_forms(srows, frows, den: int, expected: int):
    """The sufficiency criterion on (σ, ff + t/den) as integer forms (B, W):
    it holds at the shift t when B != <W, t> for some form.  srows and frows
    are the equations A·x = C of σ and ff on integers, n - dim of each and
    independent.  Both cases read the left nullspace Y of the stacked
    normals.  D >= 0: the linear hulls span R^n exactly when their normal
    spaces meet only in 0, that is when Y is empty, which no shift changes.
    D < 0: the affine hulls are disjoint, that is the stacked equations of
    σ - t/den and ff have no solution; by the Fredholm alternative some y in
    Y has y·rhs_t != 0, where den·y·rhs_t = den·y·C - <W, t> for
    W = Σ_{i in σ} y_i A_i.
    """
    rows = srows + frows
    ys = _left_nullspace(tuple(a for a, _ in rows))
    if expected >= 0:
        return [] if ys else [(1, ())]
    return [(den * sum(yi * cc for yi, (_, cc) in zip(y, rows)),
             [sum(yi * a[j] for yi, (a, _) in zip(y, srows)) for j in range(len(rows[0][0]))])
            for y in ys]


@functools.lru_cache(maxsize=4096)
def _left_nullspace(rows: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    return linalg.int_nullspace(list(zip(*rows)), len(rows))


def check_transversal(d: PeriodicDecomposition, sigma: Sequence[Polytope]
                      ) -> TransversalityReport:
    """Check Σ-transversality of the decomposition directly and by criterion.

    For every σ (closed under faces) and every face Δ of a cell translate
    near σ, the definition requires dim(σ ∩ Δ) = dim σ + dim Δ - n whenever
    the intersection is nonempty.  The sufficiency criterion is evaluated on
    the same pairs: linear hulls must span when D(σ,Δ) >= 0 and affine hulls
    must be disjoint when D(σ,Δ) < 0.

    The faces of the canonical cells are computed once, and the rest runs on
    integers over one common denominator (`_face_orbits`).  A face of a
    translate is its Λ-orbit's base Δ shifted by λ, and the pair (σ, Δ + λ)
    is checked as (σ - λ, Δ).  The criterion is set up once per (σ, orbit)
    (`_criterion_forms`), after which a face costs one integer dot per form.
    A face whose bbox misses σ's does not meet it; otherwise the
    intersection is Δ's vertices, with their incidence in Δ's cell, clipped
    by the rows of σ - λ (`clip`), and its dimension is one less than the
    rank of its homogeneous points.  Each row holds Δ + λ, built once per
    orbit and shift (`_translator`).
    """
    n = d.cocycle.n
    sigmas = _closure_under_faces(tuple(sigma))
    den, lams, pts, cells, bases = _face_orbits(d, [v for s in sigmas for v in s.vertices])
    movers = [_translator(ff, verts, den) for ff, verts, _, _ in bases]
    feqs = [[_int_halfspace(a, cc, 1) for a, cc in ff.equations] for ff, _, _, _ in bases]
    homs = [[tuple(x // math.gcd(*v, den) for x in (*v, den)) for v in verts]
            for _, verts, _, _ in bases]
    near = []       # (bbox, shift, faces) of each cell translate over Σ's box
    if sigmas:
        lo = tuple(min(col) for col in zip(*(s.bbox()[0] for s in sigmas)))
        hi = tuple(max(col) for col in zip(*(s.bbox()[1] for s in sigmas)))
        for ci, k in _shifts_meeting(d, lo, hi):
            (clo, chi), fs = cells[ci]
            t = [sum(ki * lam[j] for ki, lam in zip(k, lams)) for j in range(n)]
            near.append((vadd(clo, t), vadd(chi, t), t, fs))
    rows, shifted, pts = [], {}, iter(pts)
    for s in sigmas:
        slo, shi = _int_box([next(pts) for _ in s.vertices])
        srows = [_int_halfspace(a, cc, 1) for a, cc in s.equations]
        cuts = [([den * x for x in a], den * cc, a) for a, cc in
                (_int_halfspace(*h, 1) for h in s.halfspaces)]
        criteria, seen = {}, set()
        for clo, chi, shift, fs in near:
            if not boxes_meet(clo, chi, slo, shi):
                continue
            back_lo, back_hi = vsub(slo, shift), vsub(shi, shift)    # σ's box, moved by -shift
            for orbit, (flo, fhi), off in fs:
                t = vadd(shift, off)
                if (orbit, t) in seen:
                    continue
                seen.add((orbit, t))
                ff = bases[orbit][0]
                cell = shifted.get((orbit, t)) or shifted.setdefault((orbit, t), movers[orbit](t))
                expected = s.dim + ff.dim - n
                if not boxes_meet(flo, fhi, back_lo, back_hi):
                    idim = -1
                else:               # σ - t/den = {den·a·x <= den·c - a·t}
                    got, _ = clip(homs[orbit], bases[orbit][3], [
                        (-1 - j, da, dc - sum(map(operator.mul, a, t)))
                        for j, (da, dc, a) in enumerate(cuts)])
                    idim = linalg.rank(got) - 1
                if orbit not in criteria:
                    criteria[orbit] = _criterion_forms(srows, feqs[orbit], den, expected)
                crit_ok = any(b != sum(x * y for x, y in zip(w, t)) for b, w in criteria[orbit])
                rows.append(TransversalityRow(s, cell, idim, expected, idim in (-1, expected),
                                              crit_ok))
    violations = tuple((r.sigma, r.cell, r.intersection_dim, r.expected)
                       for r in rows if not r.definition_ok)
    return TransversalityReport(not violations, violations, tuple(rows),
                                all(r.criterion_ok for r in rows))
