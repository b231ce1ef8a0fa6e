"""The integer volume kernel and the integer 2-D cell certificate against the
Fraction code they replaced.

`polyhedra.volume` sums a pulling triangulation with integer determinants.
The flag-chain volume it replaced (one simplex per flag of faces, spanned by
the face barycenters, with Fraction determinants) is kept here as the
reference, and so is the old dual volume at a point: Fraction hull, then its
saturated frame, then flag chains.  `_certified_cell` reads a cell off the
lifted integer clip of the envelope's graph (`polyhedra.envelope_clip`) and
returns exactly the cell's vertices; the 2-D Fraction certificate (Fraction
ring clip, rank test, Fraction argmax) is the second reference.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_clip_kernel import reference_clip
from test_strict_skip import polarized_cocycles
from walk_reference import nearest_indices

from tropma import PeriodicPLFunction, linearity_cells, tangent_pl
from tropma.linalg import det, rank, vsub
from tropma.ma import ma_pl
from tropma.plfunc import AffinePiece, _certified_cell, _default_collar, _fundamental_bbox, evaluate
from tropma.polyhedra import (AffineLatticeFrame, FrameMismatchError, envelope_clip, hull,
                              lattice_volume, volume)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
SLOW = settings(max_examples=6, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def flag_chain_volume(p, frame):
    """Lebesgue volume of p in frame coordinates by barycentric flag chains."""
    if frame.dim != p.dim:
        raise FrameMismatchError("frame mismatch")
    coords = {i: frame.coordinates(v) for i, v in enumerate(p.vertices)}
    k = p.dim
    if k == 0:
        return F(1)
    by_dim = {}
    for fset, d in p._face_vertex_sets().items():
        by_dim.setdefault(d, []).append(fset)

    def bary(fset):
        pts = [coords[i] for i in fset]
        return tuple(sum(col, F(0)) / len(pts) for col in zip(*pts))

    def chains(fset, d):
        if d == 0:
            yield [fset]
            return
        for sub in by_dim.get(d - 1, []):
            if sub < fset:
                for ch in chains(sub, d - 1):
                    yield ch + [fset]

    total = F(0)
    for chain in chains(frozenset(range(len(p.vertices))), k):
        b0 = bary(chain[0])
        total += abs(det([vsub(bary(f), b0) for f in chain[1:]]))
    return total / math.factorial(k)


def std_frame(d):
    return AffineLatticeFrame(tuple(F(0) for _ in range(d)),
                              tuple(tuple(F(int(i == j)) for j in range(d)) for i in range(d)))


def reference_dual_volume(slopes, n):
    """The old dual volume at a point: hull, saturated frame, flag chains."""
    dual = hull(slopes)
    return flag_chain_volume(dual, dual.frame()) if dual.dim == n else F(0)


@st.composite
def point_sets(draw):
    """Rational points in R^d, d = 1, 2, 3: random, or on a line or a plane
    through a rational point, with repeats."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "line", "plane"]))
    point = st.tuples(*[rationals] * d)
    if kind == "random" or (kind == "plane" and d < 3):
        pts = draw(st.lists(point, min_size=1, max_size=9))
    else:
        base = draw(point)
        dirs = draw(st.lists(point, min_size=1, max_size=1 if kind == "line" else 2,
                             unique=True))
        coeffs = st.lists(rationals, min_size=len(dirs), max_size=len(dirs))
        pts = [tuple(b + sum(t * v[i] for t, v in zip(ts, dirs)) for i, b in enumerate(base))
               for ts in draw(st.lists(coeffs, min_size=1, max_size=8))]
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=3))
    return pts + [pts[i] for i in repeats]


@SETTINGS
@given(point_sets())
def test_volume_matches_flag_chains(pts):
    d = len(pts[0])
    p = hull(pts)
    want = flag_chain_volume(p, std_frame(d)) if p.dim == d else F(0)
    assert volume(pts) == want
    assert volume(list(reversed(pts))) == want
    if p.dim == d:
        # a full-dimensional polytope's saturated frame is a basis of Z^d
        assert volume(pts) == flag_chain_volume(p, p.frame()) == lattice_volume(p, p.frame())
        assert volume(pts) > 0


@st.composite
def flat_polytopes(draw):
    """A k-dimensional polytope in R^n, k < n <= 3, spanned by integer
    directions from a rational base point, so its frame is saturated."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(0, n - 1))
    ints = st.integers(-3, 3)
    dirs = draw(st.lists(st.tuples(*[ints] * n), min_size=k, max_size=k))
    if rank(dirs) < k:
        dirs = [tuple(int(i == j) for i in range(n)) for j in range(k)]
    base = draw(st.tuples(*[rationals] * n))
    coeffs = st.lists(rationals, min_size=k, max_size=k)
    pts = [tuple(b + sum(t * v[i] for t, v in zip(ts, dirs)) for i, b in enumerate(base))
           for ts in draw(st.lists(coeffs, min_size=k + 1, max_size=k + 5))]
    return hull(pts)


@SETTINGS
@given(flat_polytopes())
def test_lattice_volume_of_flat_polytopes_matches_flag_chains(p):
    frame = p.frame()
    assert frame.is_saturated()
    assert lattice_volume(p, frame) == flag_chain_volume(p, frame)
    assert volume(p.vertices) == 0


def test_lattice_volume_keeps_its_contract():
    seg = hull([(0, 0), (2, 2)])
    assert lattice_volume(seg, seg.frame()) == 2
    assert lattice_volume(hull([(F(1, 3), 5)]), hull([(F(1, 3), 5)]).frame()) == 1
    with pytest.raises(FrameMismatchError):
        lattice_volume(seg, std_frame(2))
    off = AffineLatticeFrame((F(0), F(1)), ((F(1), F(1)),))
    with pytest.raises(FrameMismatchError):
        lattice_volume(seg, off)


def test_volume_small_cases():
    assert volume([]) == 0
    assert volume([()]) == 1
    assert volume([(F(1, 2),), (F(7, 3),), (F(1, 2),)]) == F(11, 6)
    assert volume([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))]) == 1
    # a triangle with points inside and on its edges
    assert volume([(0, 0), (4, 0), (0, 4), (2, 0), (1, 1), (2, 2)]) == 8
    assert volume([(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, F(1, 5))]) == F(1, 180)
    assert volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0


# -- dual volumes at the vertices of random polarized functions -----------------------


@SLOW
@given(polarized_cocycles(), st.integers(1, 2),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_atom_masses_match_the_hull_frame_dual_volume(c, k, shifts):
    # ma_pl's atoms are exactly the canonical cell vertices whose dual has
    # positive hull-frame volume, with that volume as mass
    base = tangent_pl(c, k).pieces
    pieces = [AffinePiece(p.m, p.c + F(s, 64)) for p, s in zip(base, shifts)]
    f = PeriodicPLFunction(c, pieces + list(base[len(shifts):]))
    decomp, _, _ = linearity_cells(f)
    points = {c.canonicalize(v)[0] for cell in decomp.cells for v in cell.vertices}
    points |= {cell.barycenter() for cell in decomp.cells}
    want = []
    for xi in sorted(points):
        slopes = sorted({e.piece.m for e in evaluate(f, xi)[1]})
        mass = reference_dual_volume(slopes, 2)
        if mass:
            want.append((xi, mass))
    assert [(a.at, a.mass) for a in ma_pl(f).atoms] == want


# -- the 2-D cell certificate ------------------------------------------------------


def fraction_certified_cell(scan, ei, box_lo, box_hi, init=()):
    """The Fraction certificate: Fraction clip of the box, rank test, and the
    argmax at each ring point from the entries' Fraction values."""
    me = scan.entries[ei].piece
    cons = set(i for i in init if i != ei)
    box = [(box_lo[0], box_lo[1]), (box_hi[0], box_lo[1]),
           (box_hi[0], box_hi[1]), (box_lo[0], box_hi[1])]
    while True:
        halfplanes = [(vsub(scan.entries[i].piece.m, me.m), me.c - scan.entries[i].piece.c)
                      for i in cons]
        pts = list(dict.fromkeys(reference_clip(box, halfplanes)))
        if not pts or rank([vsub(p, pts[0]) for p in pts[1:]]) < 2:
            return None
        bad = set()
        for u in pts:
            vals = [e.piece.value(u) for e in scan.entries]
            top = max(vals)
            arg = [i for i, v in enumerate(vals) if v == top]
            if ei not in arg:
                bad.update(arg)
        bad -= cons
        if not bad:
            return pts
        cons |= bad


@SLOW
@given(polarized_cocycles(), st.integers(1, 3),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_integer_certificate_matches_fraction_certificate(c, k, shifts):
    base = tangent_pl(c, k).pieces
    pieces = [AffinePiece(p.m, p.c + F(s, 64)) for p, s in zip(base, shifts)]
    f = PeriodicPLFunction(c, pieces + list(base[len(shifts):]))
    flo, fhi = _fundamental_bbox(c)
    collar = _default_collar(f)
    box_lo = tuple(a - collar for a in flo)
    box_hi = tuple(b + collar for b in fhi)
    scan = f.scan_for(box_lo, box_hi)
    # the entries attaining at the domain's barycenter, their nearest
    # neighbours (cells and entries that attain nowhere) and the far ends
    seed = scan.eval(c.fundamental_domain().barycenter())[1]
    far = list(range(len(scan.entries)))
    chosen = dict.fromkeys([*seed, *nearest_indices(scan, seed[0], 8), far[0], far[-1]])
    clipped = envelope_clip(scan._ints, box_lo, box_hi)
    cells = 0
    for ei in chosen:
        cell = _certified_cell(clipped, ei)
        got = None if cell is None else cell[0]
        seeded = fraction_certified_cell(scan, ei, box_lo, box_hi, nearest_indices(scan, ei, 32))
        unseeded = fraction_certified_cell(scan, ei, box_lo, box_hi)
        assert (got is None) == (seeded is None) == (unseeded is None)
        if got is not None:
            # the Fraction ring may keep extra collinear boundary points,
            # which depend on the constraint set; the integer clip returns
            # exactly the vertices
            assert sorted(got) == list(hull(seeded).vertices) == list(hull(unseeded).vertices)
            cells += 1
    assert cells > 0


def test_a_piece_attaining_on_an_edge_only_has_no_cell(two_tate):
    # the average of two adjacent tangent pieces attains the envelope exactly
    # on their common edge, so its region is a segment: both certificates
    # must reject it as lower-dimensional
    base = tangent_pl(two_tate, 2).pieces
    p, q = base[0], base[1]
    # the tangent points of p and q on the mesh (1/2)Λ
    tp, tq = (F(0), F(0)), tuple(x / 2 for x in two_tate.periods[1])
    mid = tuple((a + b) / 2 for a, b in zip(tp, tq))
    avg = AffinePiece(tuple((a + b) / 2 for a, b in zip(p.m, q.m)), (p.c + q.c) / 2)
    f = PeriodicPLFunction(two_tate, list(base) + [avg])
    box_lo, box_hi = (F(-1), F(-1)), (F(2), F(2))
    scan = f.scan_for(box_lo, box_hi)
    touching = [i for i in scan.eval(mid)[1] if scan.entries[i].rep_index == len(base)]
    assert touching
    clipped = envelope_clip(scan._ints, box_lo, box_hi)
    for ei in touching:
        assert _certified_cell(clipped, ei) is None
        for init in ((), nearest_indices(scan, ei, 32)):
            assert fraction_certified_cell(scan, ei, box_lo, box_hi, init) is None
