"""The perturbation certificates on canonical cells against the code they replaced.

`approx._sup_diff` reads the sup error off the canonical cell vertices of the
two functions; the common refinement it replaced (every pair of cell
translates over a fundamental box, intersected) is kept here as the
reference.  `plfunc.check_transversal` works on canonical faces and shifts σ, on
integers; the reference rebuilds the faces of every translate, shifted, and
tests each pair with the Fraction criterion on saturated frames, in the order
the check gives its rows.  Each cell is built
from the tight sets of its vertices in the lifted clip (`plfunc._cell_from_ties`),
which must equal `hull` of those vertices field by field.
"""

import random
from fractions import Fraction as F
from types import SimpleNamespace

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from test_clip_kernel import vertices_of_hrep
from test_strict_skip import polarized_cocycles

from tropma import Cocycle, PeriodicPLFunction, linearity_cells, tangent_pl
from tropma import linalg
from tropma.approx import _max_above, _sup_diff
from tropma.plfunc import (AffinePiece, _cell_from_ties, _certified_cell,
                           _closure_under_faces, _default_collar, _dim_of_points,
                           _fundamental_bbox, _ring2d, _shifts_meeting,
                           _translates_meeting, check_transversal, evaluate,
                           translate_piece)
from tropma.polyhedra import (Polytope, _canon_ineq, clip_polygon, envelope_clip, hull,
                              intersect)

# Every example still runs and is checked; only a failure's report goes
# unshrunk, since shrinking these examples takes minutes.
SLOW = settings(max_examples=6, deadline=None, derandomize=True, database=None,
                phases=(Phase.explicit, Phase.generate),
                suppress_health_check=[HealthCheck.too_slow])


# -- the references ------------------------------------------------------------


def reference_sup_diff(fa, fb):
    """sup |fa - fb| over the common refinement of the two cell complexes."""
    c = fa.cocycle
    lo, hi = _fundamental_bbox(c)

    def pieces_over(f):
        d, pmap, _ = linearity_cells(f)
        out = []
        for ci, k, t in _translates_meeting(d, lo, hi):
            out.append((t, translate_piece(c, pmap[ci], k)))
        return out

    best = F(0)
    tb = pieces_over(fb)
    for cell_a, piece_a in pieces_over(fa):
        for cell_b, piece_b in tb:
            if c.n == 2:
                pts = clip_polygon(_ring2d(cell_a), cell_b.inequalities)
            else:
                cap = intersect(cell_a, cell_b)
                pts = cap.vertices if cap is not None else ()
            for v in pts:
                best = max(best, abs(piece_a.value(v) - piece_b.value(v)))
    return best


def _canon_eq(a, c):
    a2, c2 = _canon_ineq(a, c)
    lead = next((x for x in a2 if x != 0), F(1))
    return (tuple(-x for x in a2), -c2) if lead < 0 else (a2, c2)


def reference_faces(p):
    """Every face of p: p's equations plus its tight inequalities, canonical,
    and every other inequality of p; in the order of `faces`."""
    out = []
    for fset, d in sorted(p._face_vertex_sets().items(),
                          key=lambda item: (len(item[0]), sorted(item[0]))):
        if len(fset) == len(p.vertices):
            out.append(p)
            continue
        tight = [_canon_eq(a, c) for a, c in p.inequalities
                 if all(linalg.dot(a, p.vertices[i]) == c for i in fset)]
        loose = [(a, c) for a, c in p.inequalities
                 if not all(linalg.dot(a, p.vertices[i]) == c for i in fset)]
        out.append(Polytope(p.ambient_dim, tuple(sorted(p.vertices[i] for i in fset)),
                            p.equations + tuple(tight), tuple(loose), d, _validate=False))
    return out


def reference_shift(p, lam):
    return Polytope(p.ambient_dim, tuple(sorted(linalg.vadd(v, lam) for v in p.vertices)),
                    tuple(_canon_eq(a, c + linalg.dot(a, lam)) for a, c in p.equations),
                    tuple((a, c + linalg.dot(a, lam)) for a, c in p.inequalities),
                    p.dim, _validate=False)


def reference_intersection_dim(p, q):
    lo_p, hi_p = p.bbox()
    lo_q, hi_q = q.bbox()
    if any(a > b for a, b in zip(lo_p, hi_q)) or any(a > b for a, b in zip(lo_q, hi_p)):
        return -1
    if p.ambient_dim == 2 and p.dim == 2 and q.dim == 2:
        return _dim_of_points(sorted(set(clip_polygon(_ring2d(p), q.inequalities))))
    eqs = list(dict.fromkeys(list(p.equations) + list(q.equations)))
    ineqs = list(dict.fromkeys(list(p.inequalities) + list(q.inequalities)))
    return _dim_of_points(vertices_of_hrep(eqs, ineqs, p.ambient_dim))


def reference_criterion(sigma, cell, n, expected):
    if expected >= 0:
        return linalg.rank(list(sigma.frame().basis) + list(cell.frame().basis)) == n
    rows = [a for a, _ in sigma.equations] + [a for a, _ in cell.equations]
    rhs = [cc for _, cc in sigma.equations] + [cc for _, cc in cell.equations]
    return bool(rows) and linalg.solve(rows, rhs) is None


def reference_rows(d, sigma):
    """(rows, violations) of the translate-by-translate check, rows as tuples."""
    n = d.cocycle.n
    rows, violations = [], []
    for s in _closure_under_faces(tuple(sigma)):
        seen = set()
        for ci, k in _shifts_meeting(d, *s.bbox()):
            for ff in reference_faces(d.cells[ci]):
                ff = reference_shift(ff, d.cocycle.lattice_vector(k))
                if ff.vertices in seen:
                    continue
                seen.add(ff.vertices)
                expected = s.dim + ff.dim - n
                idim = reference_intersection_dim(s, ff)
                def_ok = idim == -1 or idim == expected
                rows.append((s.vertices, ff.vertices, idim, expected, def_ok,
                             reference_criterion(s, ff, n, expected)))
                if not def_ok:
                    violations.append((s.vertices, ff.vertices, idim, expected))
    return rows, violations


def report_rows(report):
    rows = [(r.sigma.vertices, r.cell.vertices, r.intersection_dim, r.expected,
             r.definition_ok, r.criterion_ok) for r in report.rows]
    violations = [(s.vertices, cell.vertices, got, want)
                  for s, cell, got, want in report.violations]
    return rows, violations


# -- inputs ----------------------------------------------------------------------


def perturbed(f, seed, grain=256):
    """A draw as `perturb_generic` makes it: every slope and constant moved."""
    rng = random.Random(seed)
    pieces = [AffinePiece(tuple(x + F(rng.randint(-4, 4), grain) for x in p.m),
                          p.c + F(rng.randint(-4, 4), grain)) for p in f.pieces]
    return PeriodicPLFunction(f.cocycle, pieces)


def random_sigma(rng, lo, hi):
    def rnd():
        return F(rng.randint(12 * lo, 12 * hi), 12)
    return [hull([(rnd(), rnd()) for _ in range(rng.randint(1, 3))])]


def walked(f):
    """f, or None when the draw has no strictly convex certified walk."""
    try:
        return f if linearity_cells(f)[2] else None
    except Exception:
        return None


# -- sup error from vertices ------------------------------------------------------


@SLOW
@given(polarized_cocycles(), st.integers(1, 2), st.integers(0, 10 ** 6))
def test_sup_from_vertices_matches_the_common_refinement(c, k, seed):
    f = tangent_pl(c, k)
    g = walked(perturbed(f, seed))
    if g is None:
        return
    h = walked(perturbed(f, seed + 1, grain=64))
    assert _sup_diff(f, g) == reference_sup_diff(f, g)
    assert _sup_diff(g, f) == reference_sup_diff(f, g)
    if h is not None:
        assert _sup_diff(g, h) == reference_sup_diff(g, h)


def test_sup_needs_both_functions_vertices(two_tate):
    # over these draws the sup is reached on f's cell vertices for some and
    # only on the draw's cell vertices for others
    f = tangent_pl(two_tate, 2)
    on_f = set()
    for seed in range(6):
        g = walked(perturbed(f, seed))
        want = reference_sup_diff(f, g)
        assert _sup_diff(f, g) == want
        on_f.add(_max_above(f, lambda v: evaluate(g, v)[0]) == want)
    assert on_f == {True, False}


# -- transversality on canonical faces --------------------------------------------


@SLOW
@given(polarized_cocycles(), st.integers(1, 2), st.integers(0, 10 ** 6))
def test_transversality_rows_match_the_translate_check(c, k, seed):
    f = tangent_pl(c, k)
    rng = random.Random(seed)
    decomps = [linearity_cells(f)[0]]     # not generic: violations occur
    g = walked(perturbed(f, seed))
    if g is not None:
        decomps.append(linearity_cells(g)[0])
    lo, hi = _fundamental_bbox(c)
    span = (int(min(lo)) - 1, int(max(hi)) + 1)
    for d in decomps:
        sigmas = [random_sigma(rng, *span) for _ in range(3)]
        sigmas.append([hull([(0, 0), (1, 0), (0, 1)])])
        for sigma in sigmas:
            assert_rows_match(d, sigma)


def assert_rows_match(d, sigma):
    """Rows, violations, `ok` and `criterion_ok` equal the reference's, rows
    and violations in the same order."""
    report = check_transversal(d, sigma)
    rows, violations = report_rows(report)
    want_rows, want_violations = reference_rows(d, sigma)
    assert rows == want_rows
    assert violations == want_violations
    assert report.ok == all(r[4] for r in want_rows)
    assert report.criterion_ok == all(r[5] for r in want_rows)


def test_transversality_rows_match_the_translate_check_in_3d():
    # id3 at mesh 1, one cube cell, against a small Σ: a tetrahedron with its
    # faces, a skew triangle, and two points
    c = Cocycle.make(*([[1, 0, 0], [0, 1, 0], [0, 0, 1]],) * 2, [F(1, 2)] * 3)
    d = linearity_cells(tangent_pl(c, 1))[0]
    for sigma in ([hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])],
                  [hull([(F(1, 3), F(-1, 2), F(1, 5)), (F(3, 2), F(1, 2), 0),
                         (0, F(5, 4), F(2, 3))])],
                  [hull([(F(1, 2), F(1, 2), F(1, 2))]), hull([(F(1, 4), 0, F(-1, 2))])]):
        assert_rows_match(d, sigma)


def test_row_cells_are_translated_faces(two_tate):
    # a row's cell is a face Δ + λ of a translate, with equations that cut out
    # its affine hull
    d = linearity_cells(perturbed(tangent_pl(two_tate, 2), 3))[0]
    report = check_transversal(d, [hull([(F(1, 3), F(-1, 2)), (F(5, 2), F(7, 3))])])
    faces = {ff.vertices: ff.dim for ci, k in _shifts_meeting(d, (-3, -3), (4, 4))
             for ff in (reference_shift(g, d.cocycle.lattice_vector(k))
                        for g in reference_faces(d.cells[ci]))}
    assert report.rows
    for row in report.rows:
        cell = row.cell
        assert faces[cell.vertices] == cell.dim
        assert all(linalg.dot(a, v) == c for a, c in cell.equations for v in cell.vertices)
        assert linalg.rank([a for a, _ in cell.equations]) == 2 - cell.dim


# -- cells from the certificate's incidence --------------------------------------


def assert_same_polytope(p, q):
    assert (p.ambient_dim, p.vertices, p.equations, p.inequalities, p.dim) == \
        (q.ambient_dim, q.vertices, q.equations, q.inequalities, q.dim)


@SLOW
@given(polarized_cocycles(), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_incidence_cells_equal_the_hull_of_their_points(c, k, seed):
    for f in (tangent_pl(c, k), perturbed(tangent_pl(c, k), seed)):
        flo, fhi = _fundamental_bbox(c)
        collar = _default_collar(f)
        box_lo = tuple(a - collar for a in flo)
        box_hi = tuple(b + collar for b in fhi)
        scan = f.scan_for(box_lo, box_hi)
        clipped = envelope_clip(scan._ints, box_lo, box_hi)
        for ei in range(0, len(scan.entries), 4):
            got = _certified_cell(clipped, ei)
            if got is None:
                continue
            pts, args = got
            if any(j < 0 for arg in args for j in arg):     # on a box facet
                continue
            assert_same_polytope(_cell_from_ties(scan, ei, pts, args), hull(pts))


def test_incidence_cell_drops_a_point_inside_an_edge():
    # entry 0 is 0; entries 1-4 cut out the square [-1, 1]^2; (1, 0) lies on
    # the edge x = 1 only, and entry 5 = x + y - 2 touches the corner (1, 1)
    pieces = [((0, 0), 0), ((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1),
              ((1, 1), -2)]
    scan = SimpleNamespace(entries=[SimpleNamespace(piece=AffinePiece(tuple(map(F, m)), F(c)))
                                    for m, c in pieces])
    pts = [(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(0)), (F(1), F(1)), (F(-1), F(1))]
    args = [[0, 2, 4], [0, 1, 4], [0, 1], [0, 1, 3, 5], [0, 2, 3]]
    cell = _cell_from_ties(scan, 0, pts, args)
    assert_same_polytope(cell, hull(pts))
    assert len(cell.vertices) == 4 and len(cell.inequalities) == 4
