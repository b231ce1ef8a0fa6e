"""The cells of the lifted clip against the walks it replaced.

`linearity_cells` reads the cells off one lifted clip of the envelope's graph
and keeps those with a canonical barycenter.  Two walks are kept as
references: the Λ-class walk it replaced, which certified one translate per
class of representatives (`walk_reference.reference_cells`), and the older
walk that certified every translate it met and kept the cells meeting the
fundamental domain.  Over random polarized cocycles all must give the same
cells, the same cell pieces and the same strict flag.
"""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_strict_skip import polarized_cocycles
from walk_reference import certified_cell, reference_cells, touches_box

import tropma.plfunc as pl
from tropma import Cocycle, PeriodicPLFunction, jsonio, tangent_pl
from tropma.linalg import dot
from tropma.plfunc import (AffinePiece, CellWalkError, PeriodicDecomposition, _CollarTooSmall,
                           _default_collar, _fundamental_bbox, _ring2d, linearity_cells,
                           translate_piece)
from tropma.ma import ma_pl
from tropma.polyhedra import clip_polygon, hull, volume

SETTINGS = settings(max_examples=5, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _cell_halfplanes(pts):
    ring = _ring2d(hull(pts))
    out = []
    for i in range(len(ring)):
        p, q = ring[i], ring[(i + 1) % len(ring)]
        a = (q[1] - p[1], -(q[0] - p[0]))
        out.append((a, dot(a, p)))
    return out


def reference_walk(f, dom, flo, fhi, collar):
    """Certify every translate met from dom; keep the cells meeting dom."""
    c = f.cocycle
    box_lo = tuple(a - collar for a in flo)
    box_hi = tuple(b + collar for b in fhi)
    scan = f.scan_for(box_lo, box_hi)
    entries = scan.entries
    dom_ring = _ring2d(dom)
    _, seed = scan.eval(dom.barycenter())
    queue = list(seed)
    enqueued = set(seed)
    canonical = {}
    while queue:
        ei = queue.pop()
        pts = certified_cell(scan, ei, box_lo, box_hi)
        if pts is None:
            continue
        meets_dom = bool(clip_polygon(dom_ring, _cell_halfplanes(pts)))
        if touches_box(pts, box_lo, box_hi):
            if meets_dom:
                raise _CollarTooSmall()
            continue
        if not meets_dom:
            continue
        tie = None
        neighbors = set()
        for u in pts:
            _, arg = scan.eval(u)
            tie = set(arg) if tie is None else tie & set(arg)
            neighbors |= set(arg)
        if not tie or ei not in tie:
            raise CellWalkError("cell certificate failed")
        cell = hull(pts)
        _, kshift = c.canonicalize(cell.barycenter())
        lam = c.lattice_vector(kshift)
        ccell = cell.translate(tuple(-x for x in lam)) if any(kshift) else cell
        if ccell.vertices not in canonical:
            cpieces = []
            reps = set()
            for ti in tie:
                e = entries[ti]
                kk = tuple(a - b for a, b in zip(e.k, kshift))
                cp = translate_piece(c, f.pieces[e.rep_index], kk)
                cpieces.append((cp.m, cp.c, cp))
                reps.add(e.rep_index)
            cpieces.sort(key=lambda t: (t[0], t[1]))
            canonical[ccell.vertices] = (ccell, cpieces[0][2], len(tie) == 1, reps)
        for i in neighbors:
            if i not in enqueued:
                enqueued.add(i)
                queue.append(i)
    keys = sorted(canonical)
    covered = set().union(*(canonical[k][3] for k in keys))
    strict = all(canonical[k][2] for k in keys) and covered == set(range(len(f.pieces)))
    return (PeriodicDecomposition(c, tuple(canonical[k][0] for k in keys)),
            dict(enumerate(canonical[k][1] for k in keys)), strict)


def per_translate_cells(f):
    """The collar loop around the per-translate walk."""
    c = f.cocycle
    flo, fhi = _fundamental_bbox(c)
    collar = _default_collar(f)
    width = max(b - a for a, b in zip(flo, fhi))
    for _ in range(8):
        try:
            return reference_walk(f, c.fundamental_domain(), flo, fhi, collar)
        except _CollarTooSmall:
            collar = min(collar * 2, collar + width)
    raise CellWalkError("cell walk failed to stabilize")


def assert_same_walk(c, pieces):
    got = linearity_cells(PeriodicPLFunction(c, pieces))
    for want in (per_translate_cells(PeriodicPLFunction(c, pieces)),
                 reference_cells(PeriodicPLFunction(c, pieces))):
        assert got[0].cells == want[0].cells
        assert got[1] == want[1]
        assert got[2] == want[2]
    return got


@SETTINGS
@given(polarized_cocycles(), st.integers(1, 3))
def test_class_walk_matches_per_translate_walk(c, k):
    assert assert_same_walk(c, tangent_pl(c, k).pieces)[2]


@SETTINGS
@given(polarized_cocycles(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_class_walk_matches_on_perturbed_and_non_strict(c, shifts):
    base = tangent_pl(c, 2).pieces
    perturbed = [AffinePiece(p.m, p.c + F(s, 64)) for p, s in zip(base, shifts)]
    assert_same_walk(c, perturbed)
    assert not assert_same_walk(c, list(base) + [base[0]])[2]
    # a piece that never attains the envelope leaves a representative uncovered
    sunk = AffinePiece(base[0].m, base[0].c - 1)
    assert not assert_same_walk(c, list(base) + [sunk])[2]


def test_one_certificate_per_piece_when_strict(two_tate, monkeypatch):
    calls = []
    original = pl._certified_cell

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    pieces = {k: tangent_pl(two_tate, k).pieces for k in (1, 2, 3)}
    monkeypatch.setattr(pl, "_certified_cell", counting)
    for k in (1, 2, 3):
        calls.clear()
        f = PeriodicPLFunction(two_tate, pieces[k])
        decomp, _, strict = linearity_cells(f)
        assert strict and len(decomp.cells) == k * k
        assert len(calls) == k * k


def test_a_function_read_from_json_gets_the_same_cells(two_tate):
    # the clip reads only the scan's integer entries, which the JSON round trip keeps
    f = tangent_pl(two_tate, 3)
    g = jsonio.dec_function(jsonio.loads(jsonio.dumps(jsonio.enc_function(f))))
    got, want = linearity_cells(g), linearity_cells(PeriodicPLFunction(f.cocycle, f.pieces))
    assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]


def test_first_collar_restarts(monkeypatch):
    # the first collar is 5/9 of two cell widths: no tangent mesh below
    # restarts, where the two-width walk restarted skew3 once at mesh 2
    restarts = []
    original = pl._walk_cells

    def counting(*args):
        try:
            return original(*args)
        except _CollarTooSmall:
            restarts.append(1)
            raise

    monkeypatch.setattr(pl, "_walk_cells", counting)
    i2, i3 = [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cases = [(Cocycle.make(i2, i2, [F(1, 2)] * 2), (1, 2, 3), (0, 0, 0)),
             (Cocycle.make(i2, [[2, 1], [1, 2]], [1, 1]), (1, 2, 3), (0, 0, 0)),
             (Cocycle.make(i3, i3, [F(1, 2)] * 3), (1, 2), (0, 0)),
             (Cocycle.make(i3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], [1, 1, 1]), (1, 2), (0, 0))]
    for c, ks, most in cases:
        for k, bound in zip(ks, most):
            restarts.clear()
            decomp = linearity_cells(tangent_pl(c, k))[0]
            assert len(decomp.cells) == k ** c.n
            assert len(restarts) <= bound


I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("b,z0,mass", [(I3, [F(1, 2)] * 3, 1),
                                       ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], [1, 1, 1], 4)],
                         ids=["id3", "skew3"])
def test_mesh_two_cells_in_a_threefold(b, z0, mass):
    # the n = 3 walk runs the same integer clip as the 2-D one: 8 strict
    # cells tiling a fundamental domain, and the masses det(b)·covol(Λ)
    c = Cocycle.make(I3, b, z0)
    f = tangent_pl(c, 2)
    decomp, pieces, strict = linearity_cells(f)
    assert strict and len(decomp.cells) == 8 and len(set(pieces.values())) == 8
    assert sum(volume(cell.vertices) for cell in decomp.cells) == c.covolume()
    assert sum(a.mass for a in ma_pl(f).atoms) == mass
