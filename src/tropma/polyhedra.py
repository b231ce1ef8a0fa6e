"""Exact rational polytopes with lattice structure.

Polytopes carry both representations: an irredundant vertex list and a
halfspace description (facet inequalities plus affine-hull equations), both
over the rationals and both validated against each other at construction.
Lower-dimensional polytopes are first-class; their affine hulls carry the
lattice structure induced by the ambient lattice Z^n, computed by saturation.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import linalg
from .linalg import Vec, dot, vec, vsub
from .value import Value, setfield


class FrameMismatchError(ValueError):
    pass


class AmbientLattice(Value):
    """The lattice N = Z^n with its dual M, identified via the standard basis."""

    _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        setfield(self, "n", n)


class AffineLatticeFrame(Value):
    """An affine chart of a polytope's hull: basepoint plus a lattice basis.

    The basis must generate the full lattice (linear hull) ∩ Z^n, not a proper
    sublattice; this is what makes lattice volumes well defined.
    """

    _fields = ("basepoint", "basis")

    def __init__(self, basepoint: Vec, basis: tuple[Vec, ...]):
        if basis and linalg.rank(basis) != len(basis):
            raise ValueError("frame basis vectors are linearly dependent")
        setfield(self, "basepoint", basepoint)
        setfield(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, point: Sequence[Fraction]) -> Vec:
        """Frame coordinates of an ambient point on the frame's affine hull."""
        d = vsub(point, self.basepoint)
        if not self.basis:
            if any(x != 0 for x in d):
                raise FrameMismatchError("frame mismatch")
            return ()
        cols = linalg.transpose(self.basis)
        y = linalg.solve(cols, d)
        if y is None:
            raise FrameMismatchError("frame mismatch")
        return y

    def embed(self, coords: Sequence[Fraction]) -> Vec:
        x = list(self.basepoint)
        for c, b in zip(coords, self.basis):
            x = [xi + c * bi for xi, bi in zip(x, b)]
        return tuple(x)

    def is_saturated(self) -> bool:
        """True iff the basis generates span ∩ Z^n (no proper sublattice)."""
        if not self.basis:
            return True
        if any(x.denominator != 1 for b in self.basis for x in b):
            return False
        sat = linalg.lattice_basis_of_span(self.basis, len(self.basepoint))
        coords = [linalg.solve(linalg.transpose(sat), b) for b in self.basis]
        if any(c is None for c in coords):
            return False
        d = linalg.det(coords)
        return abs(d) == 1


Halfspace = tuple[Vec, Fraction]  # (a, c) meaning <a, x> <= c


def _canon_ineq(a: Sequence[Fraction], c: Fraction) -> Halfspace:
    den = math.lcm(c.denominator, *(x.denominator for x in a))
    ints = [int(x * den) for x in a]
    ci = int(c * den)
    g = math.gcd(ci, *ints)
    if g > 1:
        ints = [v // g for v in ints]
        ci //= g
    return tuple(Fraction(v) for v in ints), Fraction(ci)


class Polytope:
    """A bounded rational polytope with exact V- and H-representations."""

    __slots__ = ("ambient_dim", "vertices", "equations", "inequalities", "dim",
                 "_bbox", "_frame")

    def __init__(self, ambient_dim: int, vertices: tuple[Vec, ...],
                 equations: tuple[Halfspace, ...], inequalities: tuple[Halfspace, ...],
                 dim: int, _validate: bool = True):
        self.ambient_dim = ambient_dim
        self.vertices = vertices
        self.equations = equations
        self.inequalities = inequalities
        self.dim = dim
        self._bbox: Optional[tuple[Vec, Vec]] = None
        self._frame: Optional[AffineLatticeFrame] = None
        if _validate:
            self._check_consistency()

    def _check_consistency(self, rows=None):
        """Every vertex satisfies every equation and inequality, and each
        inequality is tight on at least dim vertices; on integers: the
        vertices are scaled once to a common denominator, each halfspace once
        to an integer row.  `rows` passes (vertices, equations, inequalities)
        in, already scaled, where the caller has them (`faces`)."""
        if rows is None:
            den, verts = _integer_points(self.vertices)
            rows = (verts, [_int_halfspace(a, c, den) for a, c in self.equations],
                    [_int_halfspace(a, c, den) for a, c in self.inequalities])
        verts, eqs, ineqs = rows
        for v in verts:
            for a, c in eqs:
                if sum(x * y for x, y in zip(a, v)) != c:
                    raise ValueError("vertex violates an affine-hull equation")
            for a, c in ineqs:
                if sum(x * y for x, y in zip(a, v)) > c:
                    raise ValueError("vertex violates a halfspace")
        if self.dim >= 1:
            for a, c in ineqs:
                tight = sum(1 for v in verts if sum(x * y for x, y in zip(a, v)) == c)
                if tight < self.dim:
                    raise ValueError("halfspace not tight on a facet")

    @property
    def halfspaces(self) -> list[Halfspace]:
        """All halfspaces, with affine-hull equations expanded into pairs."""
        hs = list(self.inequalities)
        for a, c in self.equations:
            hs.append((a, c))
            hs.append((tuple(-x for x in a), -c))
        return hs

    def bbox(self) -> tuple[Vec, Vec]:
        if self._bbox is None:
            self._bbox = bbox(self.vertices)
        return self._bbox

    def contains(self, x: Sequence[Fraction]) -> bool:
        return (all(dot(a, x) == c for a, c in self.equations)
                and all(dot(a, x) <= c for a, c in self.inequalities))

    def contains_relint(self, x: Sequence[Fraction]) -> bool:
        return (all(dot(a, x) == c for a, c in self.equations)
                and all(dot(a, x) < c for a, c in self.inequalities))

    def translate(self, t: Sequence[Fraction]) -> "Polytope":
        t = vec(t)
        return Polytope(
            self.ambient_dim,
            tuple(sorted(linalg.vadd(v, t) for v in self.vertices)),
            tuple((a, c + dot(a, t)) for a, c in self.equations),
            tuple((a, c + dot(a, t)) for a, c in self.inequalities),
            self.dim, _validate=False)

    def barycenter(self) -> Vec:
        k = Fraction(1, len(self.vertices))
        acc = [Fraction(0)] * self.ambient_dim
        for v in self.vertices:
            acc = [x + y for x, y in zip(acc, v)]
        return tuple(k * x for x in acc)

    def frame(self) -> AffineLatticeFrame:
        if self._frame is None:
            base = self.vertices[0]
            diffs = [vsub(v, base) for v in self.vertices[1:]]
            basis = linalg.lattice_basis_of_span(diffs, self.ambient_dim)
            self._frame = AffineLatticeFrame(base, tuple(basis))
        return self._frame

    def _face_vertex_sets(self) -> dict[frozenset, int]:
        """All nonempty faces as vertex-index sets, mapped to their dimension."""
        return {frozenset(idx): face.dim for idx, face, _ in _faces(self)}

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, ambient={self.ambient_dim})"


def hull(points: Iterable[Sequence]) -> Polytope:
    """Convex hull of rational points, with irredundant V-rep and exact H-rep.

    The facets are found on integers in coordinates of the affine hull, as
    the vertices of the polar (`_facets`, one `clip`), and a point is a
    vertex when the facets through it meet in that point alone.
    """
    pts = list(dict.fromkeys(vec(p) for p in points))
    if not pts:
        raise ValueError("hull of an empty point set")
    n = len(pts[0])
    base = pts[0]
    den, ints = _integer_points(pts)
    eqs = tuple((tuple(map(Fraction, a)), Fraction(c)) for a, c in _equations(ints, den, n))
    d = n - len(eqs)
    if d == 0:
        return Polytope(n, (base,), eqs, (), 0, _validate=False)

    # a basis of the hull's directions: the echelon rows of the differences
    diffs = [[x - y for x, y in zip(p, ints[0])] for p in ints[1:]]
    linalg._eliminate(diffs, full=False)
    basis = tuple(tuple(map(Fraction, row)) for row in diffs[:d])
    cols = linalg.transpose(basis)
    den, coords = _integer_points([linalg.solve(cols, vsub(p, base)) for p in pts])
    facets = []
    for a, c, on in _facets(coords, d):
        u = linalg.solve(basis, a)  # rows are basis vectors: <u, basis_i> = a_i
        facets.append((_canon_ineq(u, dot(u, base) + Fraction(c, den)), on))
    return from_incidence(pts, facets, eqs, d)


def from_incidence(pts: Sequence[Vec], supports: Sequence[tuple[Halfspace, frozenset]],
                   equations: tuple[Halfspace, ...] = (), dim: Optional[int] = None
                   ) -> Polytope:
    """conv(pts) from proper faces given as (inequality, indices of the points
    on it), among them every facet with its inequality in canonical form.
    The facets are the maximal faces, and a point is a vertex when the facets
    through it meet in it alone, which drops points inside an edge or a
    facet.  Shared by `hull` and by `linearity_cells`, which reads the
    incidence off the lifted clip (`envelope_clip`).
    """
    facets = [(ineq, on) for ineq, on in supports if not any(on < other for _, other in supports)]
    every = frozenset(range(len(pts)))
    verts = [p for i, p in enumerate(pts)
             if every.intersection(*(on for _, on in facets if i in on)) == {i}]
    n = len(pts[0])
    return Polytope(n, tuple(sorted(verts)), equations,
                    tuple(sorted({ineq for ineq, _ in facets})), n if dim is None else dim)


def boxes_meet(lo1: Sequence, hi1: Sequence, lo2: Sequence, hi2: Sequence) -> bool:
    """Whether the boxes [lo1, hi1] and [lo2, hi2] intersect."""
    return all(a <= d and c <= b for a, b, c, d in zip(lo1, hi1, lo2, hi2))


def intersect(p: Polytope, q: Polytope) -> Optional[Polytope]:
    """Intersection of two polytopes; None when empty."""
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    verts = _cap_vertices(p, q)
    return hull(verts) if verts else None


def _cap_vertices(p: Polytope, q: Polytope) -> list[Vec]:
    """The sorted vertices of p ∩ q, [] when it is empty, with no hull: p's
    vertices, with p's own incidence (its equations and inequalities as
    ids), clipped by q's halfspaces (`clip`)."""
    if not boxes_meet(*p.bbox(), *q.bbox()):
        return []
    pts = [_reduced(v) for v in p.vertices]
    own = [_int_halfspace(a, c, 1) for a, c in p.equations + p.inequalities]
    ne = len(p.equations)
    tight = [frozenset(j for j, (a, c) in enumerate(own)
                       if j < ne or sum(map(operator.mul, a, x)) == c * x[-1]) for x in pts]
    rows = [(-1 - j, *_int_halfspace(a, c, 1)) for j, (a, c) in enumerate(q.halfspaces)]
    pts, _ = clip(pts, tight, rows)
    return sorted(_rational(x) for x in pts)


def _rational(x: Sequence[int]) -> Vec:
    """The rational point X/W of a homogeneous integer point (X, W)."""
    return tuple(Fraction(v, x[-1]) for v in x[:-1])


def _reduced(point: Sequence[Fraction]) -> tuple[int, ...]:
    """A rational point as the reduced homogeneous integer point (X, W), W > 0."""
    w = math.lcm(*(x.denominator for x in point))
    return (*(x.numerator * (w // x.denominator) for x in point), w)


def clip(points: Sequence[tuple[int, ...]], tight: Sequence[frozenset],
         rows: Iterable[tuple]) -> tuple[list[tuple[int, ...]], list[frozenset]]:
    """Clip a polytope by integer rows, one double-description step per row
    (Motzkin et al. 1953; Fukuda–Prodon 1996), exactly on Python ints.

    The points are the polytope's vertices as reduced homogeneous integer
    points (X_1, ..., X_n, W), W > 0, standing for X/W, and tight[i] holds
    the ids of the constraints points[i] lies on: all of the polytope's own,
    an equation counting as one id.  A row (id, a, c) means a·x <= c.  The
    points with s = a·X - c·W <= 0 stay, those with s = 0 gaining the id, and
    each edge (p, q) with s_p < 0 < s_q gives the reduced crossing point
    s_q·p - s_p·q, tight on T_p ∩ T_q and the id.  Two vertices span an edge
    when their common tight set Z has at least n - 1 ids and no third vertex
    lies on all of Z: Z cuts out the least face holding both, and it is an
    edge when they are its only vertices.  Returns (vertices, tight sets),
    ([], []) when the polytope is empty.  On a polar simplex clipped by one
    row per point, it also finds `hull`'s facets (`_facets`).
    """
    pts, tight = list(points), list(tight)
    need = len(pts[0]) - 2 if pts else 0
    for key, a, c in rows:
        vals = [sum(map(operator.mul, a, x), -c * x[-1]) for x in pts]
        if max(vals, default=0) <= 0:
            if 0 in vals:
                tight = [t | {key} if s == 0 else t for t, s in zip(tight, vals)]
            continue
        kept, kept_tight, out = [], [], []
        for j, s in enumerate(vals):
            if s > 0:
                out.append(j)
            else:
                kept.append(pts[j])
                kept_tight.append(tight[j] | {key} if s == 0 else tight[j])
        on: dict = {}
        for i, t in enumerate(tight):
            for k in t:
                on.setdefault(k, []).append(i)
        every = range(len(pts))
        for j in out:
            tq, sj = tight[j], vals[j]
            # a point sharing `need` ids with tq is on one of any len(tq) - need + 1 of them
            near = sorted(tq, key=lambda k: len(on[k]))[:len(tq) - need + 1]
            for i in sorted(set().union(*(on[k] for k in near))) if need else every:
                si = vals[i]
                z = tight[i] & tq
                if si >= 0 or len(z) < need or \
                        sum(z <= tight[v] for v in (min((on[k] for k in z), key=len)
                                                    if z else every)) > 2:
                    continue
                x = [sj * u - si * v for u, v in zip(pts[i], pts[j])]
                g = math.gcd(*x)
                kept.append(tuple(v // g for v in x))
                kept_tight.append(z | {key})
        pts, tight = kept, kept_tight
        if not pts:
            break
    return pts, tight


def bbox(points: Iterable[Sequence]) -> tuple[tuple, tuple]:
    """(lo, hi), the coordinatewise min and max of the points; the box of a
    union of boxes is the bbox of their corners."""
    cols = list(zip(*points))
    return tuple(min(col) for col in cols), tuple(max(col) for col in cols)


def box_corners(lo: Vec, hi: Vec) -> list[Vec]:
    """The distinct corners of the box [lo, hi]."""
    return list(dict.fromkeys(tuple(pair[b] for pair, b in zip(zip(lo, hi), bits))
                              for bits in itertools.product((0, 1), repeat=len(lo))))


def envelope_clip(ints: Sequence[tuple[Sequence[int], int]], box_lo: Vec, box_hi: Vec
                  ) -> tuple[list[tuple[int, ...]], list[frozenset]]:
    """The vertices of the graph of F = max_i (m_i·y + c_i) over the box, for
    integer entries (m_i, c_i), with their tight sets: box × [s_lo, s_hi]
    clipped (`clip`) by the rows m_i·y - s <= -c_i (id i).  s_hi exceeds F at
    the box's corners and s_lo is below entry 0 there, so the vertices off
    the s_hi facet are those of the complex F induces, cut by the box.  Each
    is the reduced homogeneous point (Y, S, W) of (y, F(y)), and its tight
    set holds its argmax set and the box facets it lies on (y_i <= hi_i is id
    -2i-1, y_i >= lo_i id -2i-2).  The rows go largest at the box's centre
    first; every 32 rows, those that can no longer cut go (`_rows_reaching`).
    """
    n = len(box_lo)
    ys = box_corners(box_lo, box_hi)
    den, corners = _integer_points(ys)
    top_id, bottom_id = -2 * n - 1, -2 * n - 2
    top = max(sum(map(operator.mul, m, x), c * den) for x in corners for m, c in ints) + den
    m0, c0 = ints[0]
    bottom = min(sum(map(operator.mul, m0, x), c0 * den) for x in corners) - den
    pts, tight = [], []
    for x, y in zip(corners, ys):
        box = frozenset(-2 * i - 1 - (v == lo) for i, (v, lo) in enumerate(zip(y, box_lo)))
        for s, key in ((top, top_id), (bottom, bottom_id)):
            g = math.gcd(*x, s, den)
            pts.append((*(v // g for v in x), s // g, den // g))
            tight.append(box | {key})
    centre = [sum(col) for col in zip(*corners)]
    order = sorted(range(len(ints)), key=lambda i: -sum(map(operator.mul, ints[i][0], centre))
                   - ints[i][1] * den * len(corners))
    rows = [(i, (*ints[i][0], -1), -ints[i][1]) for i in order]
    bound = max(sum(map(abs, a)) + abs(c) for _, a, c in rows)
    while rows:
        pts, tight = clip(pts, tight, rows[:32])
        rows = _rows_reaching(pts, rows[32:], bound)
    keep = [i for i, t in enumerate(tight) if top_id not in t]
    return [pts[i] for i in keep], [tight[i] for i in keep]


def envelope_atoms(ints: Sequence[tuple[Sequence[int], int]], den: int, box_lo: Vec,
                   box_hi: Vec) -> list[tuple[Vec, Fraction, list[int]]]:
    """The Monge-Ampère atoms (y, mass, argmax ids) of F = max_i (m_i·y + c_i)
    on the box, sorted, for integer entries (den·m_i, den·c_i): the vertices
    of one `envelope_clip` whose mass is positive.  A vertex's entry ids
    (those >= 0) are its argmax set, so its mass is the `volume` of the hull
    of their slopes m_i, that of the integer slopes over den^n: zero unless
    that dual is full-dimensional, i.e. unless y is a vertex of the complex F
    induces.  A full-dimensional dual's saturated frame is a basis of Z^n, so
    this is its lattice volume.
    """
    out = []
    for x, tight in zip(*envelope_clip(ints, box_lo, box_hi)):
        ids = sorted(i for i in tight if i >= 0)
        mass = volume(sorted({ints[i][0] for i in ids})) / den ** len(box_lo)
        if mass:
            out.append((graph_point(x), mass, ids))
    return sorted(out)


def _rows_reaching(points: Sequence[tuple[int, ...]], rows: Sequence[tuple], bound: int
                   ) -> list[tuple]:
    """The rows (id, a, c) with v = a·X - c·W >= 0 at some point (X, W); a
    row negative at every vertex stays so on every polytope clipped out of
    this one.  Each coordinate is packed into one integer Σ_j x_j·2^(w·j), so
    a row's packed value is Σ_j v_j·2^(w·j); bound >= Σ|a| + |c| keeps
    |v_j| < 2^(w-2), so after adding 2^(w-1) to every slot the top bit of
    slot j is set exactly when v_j >= 0.
    """
    w = (bound * max(abs(v) for x in points for v in x)).bit_length() + 2
    cols = [sum(v << (w * j) for j, v in enumerate(col)) for col in zip(*points)]
    half = ((1 << (w * len(points))) - 1) // ((1 << w) - 1) << (w - 1)
    return [r for r in rows if (sum(map(operator.mul, r[1], cols), half - r[2] * cols[-1]) & half)]


def graph_point(x: Sequence[int]) -> Vec:
    """The point y of a homogeneous graph vertex (Y, S, W) of `envelope_clip`."""
    return tuple(Fraction(v, x[-1]) for v in x[:-2])


def faces(p: Polytope) -> list[Polytope]:
    """All nonempty faces of p, including p itself, each exactly once.

    Each face is read off p's own incidence, with no hull, on integers: p's
    vertices are scaled once to a common denominator and its inequalities to
    integer rows.  A face's equations are those `hull` gives its affine hull
    (`_equations`), and its facets are its maximal proper meets with the
    facets of p, each with the first inequality of p that cuts it out.  Each
    face is checked on the same integer rows.
    """
    return [face for _, face, _ in _faces(p)]


def _equations(pts: Sequence[tuple[int, ...]], den: int, n: int
               ) -> list[tuple[tuple[int, ...], int]]:
    """The equations of the affine hull of the points pts/den in R^n, sorted,
    as `hull` gives them, on integers: per vector w of the integer nullspace
    of the differences, (den·w, w·pts[0]) made primitive with its first
    nonzero entry positive."""
    first = pts[0]
    eqs = []
    for w in linalg.int_nullspace([[x - y for x, y in zip(p, first)] for p in pts[1:]], n):
        a = [den * x for x in w]
        c = sum(x * y for x, y in zip(w, first))
        g = math.gcd(c, *a) * (-1 if next(x for x in a if x) < 0 else 1)
        eqs.append((tuple(x // g for x in a), c // g))
    return sorted(eqs)


def _faces(p: Polytope) -> list[tuple[list[int], Polytope, list[frozenset]]]:
    """`faces` with the indices in p.vertices of each face's vertices, and
    each of those vertices' incidence: the indices of p's inequalities it
    lies on."""
    n = p.ambient_dim
    den, verts = _integer_points(p.vertices)
    rows = [_int_halfspace(a, c, den) for a, c in p.inequalities]
    tight, found = _face_lattice(verts, rows)
    incidence = [frozenset(j for j, on in enumerate(tight) if i in on) for i in range(len(verts))]
    out = []
    for fset in sorted(found, key=lambda s: (len(s), sorted(s))):
        idx = sorted(fset, key=verts.__getitem__)
        eqs = _equations([verts[i] for i in idx], den, n)
        meets = {}
        for j, on in enumerate(tight):
            cap = fset & on
            if cap and cap != fset:
                meets.setdefault(cap, j)
        cut = sorted((j for cap, j in meets.items() if not any(cap < other for other in meets)),
                     key=p.inequalities.__getitem__)
        face = Polytope(n, tuple(p.vertices[i] for i in idx),
                        tuple((tuple(map(Fraction, a)), Fraction(c)) for a, c in eqs),
                        tuple(p.inequalities[j] for j in cut), n - len(eqs), _validate=False)
        face._check_consistency(([verts[i] for i in idx], [(a, c * den) for a, c in eqs],
                                 [rows[j] for j in cut]))
        out.append((idx, face, [incidence[i] for i in idx]))
    return out


def _face_lattice(verts: Sequence[tuple[int, ...]], rows: Sequence[tuple[tuple[int, ...], int]]
                  ) -> tuple[list[frozenset], set[frozenset]]:
    """(tight, found) for integer points and inequality rows: tight[j] holds
    the points on row j, and found the point sets of all nonempty faces,
    which are the meets of the proper tight sets, with the whole set."""
    every = frozenset(range(len(verts)))
    tight = [frozenset(i for i, v in enumerate(verts) if sum(x * y for x, y in zip(a, v)) == c)
             for a, c in rows]
    facets = [t for t in tight if t and t != every]
    found = {every}
    frontier = {every}
    while frontier:
        nxt = set()
        for fset in frontier:
            for ft in facets:
                cap = fset & ft
                if cap and cap not in found:
                    found.add(cap)
                    nxt.add(cap)
        frontier = nxt
    return tight, found


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a small square integer matrix: written out up to 3×3,
    the simplices of the n <= 3 volumes and the minors of `_facets`' polar
    simplex, else by cofactor expansion."""
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if not rows:
        return 1
    rest = rows[1:]
    return sum((-a if j % 2 else a) * _int_det([r[:j] + r[j + 1:] for r in rest])
               for j, a in enumerate(rows[0]) if a)


def _integer_points(points: Sequence[Sequence[Fraction]]) -> tuple[int, list[tuple[int, ...]]]:
    """(D, the points scaled by D) for the least common denominator D."""
    den = math.lcm(*(x.denominator for p in points for x in p))
    return den, [tuple(x.numerator * (den // x.denominator) for x in p) for p in points]


def _int_halfspace(a: Sequence[Fraction], c: Fraction, den: int) -> tuple[tuple[int, ...], int]:
    """(A, C) with A·x <= C at x = X/den exactly when a·X/den <= c, on integers:
    the halfspace scaled by the least common denominator of its entries."""
    s = math.lcm(c.denominator, *(x.denominator for x in a))
    return (tuple(x.numerator * (s // x.denominator) for x in a),
            c.numerator * (s // c.denominator) * den)


def _facets(pts: list[tuple[int, ...]], d: int) -> list[tuple[tuple[int, ...], int, frozenset]]:
    """The facets of conv(pts) ⊂ R^d for distinct integer points, as (a, c, on):
    a·x <= c at every point, with equality exactly at the indices in `on`.
    [] when the hull is lower-dimensional.

    The facets are the vertices of the polar (Ziegler, Lectures on Polytopes,
    §2.3), found by one `clip`.  One pass of fraction-free elimination on
    the differences from pts[0] picks the first d + 1 affinely independent
    points S.  Centred on their barycenter and scaled by d + 1, a point p is
    q = (d + 1)·p - ΣS, and the polar of conv(S), {a : a·q_s <= 1, s in S},
    is a simplex: its vertex i is the facet of conv(S) missing point i, tight
    on the rest of S.  Clipping it by the row a·q <= 1 of every other point
    leaves the polar of the hull: a vertex (X, W) is the facet
    (d + 1)·X·p <= W + X·ΣS, and its tight set is the points on it.
    """
    simplex, echelon = [0], []
    for i, p in enumerate(pts):
        v = [x - y for x, y in zip(p, pts[0])]
        for k, r in echelon:
            v = [r[k] * x - v[k] * y for x, y in zip(v, r)]
        if any(v):
            echelon.append((next(k for k, x in enumerate(v) if x), v))
            simplex.append(i)
            if len(simplex) > d:
                break
    else:
        return []
    total = [sum(col) for col in zip(*(pts[i] for i in simplex))]
    q = [tuple((d + 1) * x - t for x, t in zip(p, total)) for p in pts]
    ids = frozenset(simplex)
    polar = []
    for i in simplex:  # X·q_j = W for j != i: the signed maximal minors of the rows (q_j, -1)
        rows = [(*q[j], -1) for j in simplex if j != i]
        minors = (_int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d + 1))
        x = [-m if j % 2 else m for j, m in enumerate(minors)]
        g = math.gcd(*x) * (1 if x[-1] > 0 else -1)
        polar.append(tuple(v // g for v in x))
    verts, tight = clip(polar, [ids - {i} for i in simplex],
                        [(j, p, 1) for j, p in enumerate(q) if j not in ids])
    return [(tuple((d + 1) * x for x in v[:-1]), v[-1] + sum(map(operator.mul, v, total)), on)
            for v, on in zip(verts, tight)]


def _pulled_simplices(face: frozenset, facets: list[frozenset]) -> Iterable[list[int]]:
    """The simplices of the pulling triangulation of a face, as index lists.

    The face is coned from its least point over each of its own facets that
    misses that point, recursively (Büeler–Enge–Fukuda 2000); the facets of
    a face are the maximal proper nonempty meets of it with the facets of the
    hull.  Any point of a convex set can be pulled, vertex or not.
    """
    if len(face) == 1:
        yield list(face)
        return
    v = min(face)
    meets = {face & f for f in facets} - {face, frozenset()}
    for sub in meets:
        if v not in sub and not any(sub < other for other in meets):
            for simplex in _pulled_simplices(sub, facets):
                yield [v] + simplex


def volume(points: Sequence[Sequence]) -> Fraction:
    """Euclidean volume of conv(points) in R^d; 0 when the hull is empty or
    lower-dimensional, and 1 for a point of R^0.

    The points are scaled once to integers over a common denominator D; the
    volume is Σ |det(v_1 - v_0, ..., v_d - v_0)| over the simplices of a
    pulling triangulation, divided by d!·D^d: d + 1 points are their own
    simplex, and otherwise the facets, as the points on each, come from
    `_facets`.  No Fraction arithmetic is done.  On a full-dimensional
    polytope in frame coordinates of a saturated frame this is the lattice
    volume.
    """
    if not points:
        return Fraction(0)
    d = len(points[0])
    if d == 0:
        return Fraction(1)
    den, pts = _integer_points(points)
    pts = list(dict.fromkeys(pts))
    if len(pts) == d + 1:  # a simplex, or flat with determinant 0
        simplices = [range(d + 1)]
    else:
        facets = [on for _, _, on in _facets(pts, d)]
        simplices = _pulled_simplices(frozenset(range(len(pts))), facets) if facets else []
    total = 0
    for simplex in simplices:
        v0 = pts[simplex[0]]
        total += abs(_int_det([tuple(x - y for x, y in zip(pts[i], v0))
                               for i in simplex[1:]]))
    return Fraction(total, math.factorial(d) * den ** d)


def lattice_volume(p: Polytope, frame: AffineLatticeFrame) -> Fraction:
    """Lebesgue volume of p in frame coordinates (frame lattice has covolume 1):
    the kernel `volume` on the frame coordinates of p's vertices.

    A 0-dimensional polytope has volume 1 (counting measure), so Dirac masses
    compose uniformly with densities downstream.
    """
    if frame.dim != p.dim:
        raise FrameMismatchError("frame mismatch")
    return volume([frame.coordinates(v) for v in p.vertices])


def clip_polygon(poly: list[Vec], halfplanes: Sequence[Halfspace]) -> list[Vec]:
    """Clip a counterclockwise 2-d polygon by halfplanes a.x <= c, exactly
    (Sutherland–Hodgman on Fractions): the possibly degenerate clipped ring,
    with repeated points dropped, and empty when the intersection is."""
    ring = [vec(p) for p in poly]
    for a, c in halfplanes:
        if not ring:
            break
        vals = [dot(a, p) - c for p in ring]
        nxt: list[Vec] = []
        for i, (p, sp) in enumerate(zip(ring, vals)):
            q, sq = ring[(i + 1) % len(ring)], vals[(i + 1) % len(ring)]
            if sp <= 0:
                nxt.append(p)
            if sp * sq < 0:
                nxt.append(tuple(x + sp / (sp - sq) * (y - x) for x, y in zip(p, q)))
        ring = []
        for p in nxt:
            if not ring or p != ring[-1]:
                ring.append(p)
        if len(ring) > 1 and ring[0] == ring[-1]:
            ring.pop()
    return ring
