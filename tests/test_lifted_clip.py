"""One lifted clip of the envelope's graph against the per-cell certificates.

`polyhedra.envelope_clip` clips box × [s_lo, s_hi] by one row per entry in
dimension n + 1; the vertices off the top facet are the graph's vertices, and
a vertex's tight set is its argmax set with the box facets it lies on.  Three
callers read it: `linearity_cells`, `skeleton._pullback_atoms` and
`ma.subdifferential`.  Each is compared with the code it replaced
(`walk_reference`) over random polarized cocycles in n = 2 and n = 3, tangent
and perturbed; the pullback on random 1- and 2-D faces with integral
linearizations, its atoms' tie ranks and degrees and both errors of
`vertex_degree` included.  `ma_pl` reads its atoms off the same clip
(`polyhedra.envelope_atoms`) and is compared with the atoms of the cell
vertices, scored through `evaluate`, in n = 1 to 3.  The kernel itself is compared with a brute-force argmax and
with the union of the old per-entry certificates, and the collar restart is
pinned on a box that cuts a canonical cell.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st
from test_scan_kernel import cocycles
from walk_reference import (certified_cell, reference_cells, reference_ma_pl,
                            reference_pullback_atoms, reference_pullback_pieces,
                            reference_subdifferential, reference_tie_face_dim,
                            reference_vertex_degree)

import tropma.plfunc as pl
from tropma import Cocycle, PeriodicPLFunction, linalg, tangent_pl
from tropma.ma import ma_pl, subdifferential
from tropma.envelope import AffinePiece, _fundamental_bbox, _int_argmax
from tropma.plfunc import _certified_cell, _CollarTooSmall, linearity_cells
from tropma.polyhedra import AffineLatticeFrame, envelope_clip, graph_point, hull
from tropma.skeleton import (SkeletonFace, SkeletonSpec, _pullback_atoms, _tie_dim,
                             face_degrees, vertex_degree)

# Every example still runs and is checked; only a failure's report goes
# unshrunk, since shrinking these examples takes minutes.
SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate),
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

small_q = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


def perturbed(pieces, seed, grain=64):
    """Every slope and constant moved by a small random multiple of 1/grain."""
    rng = random.Random(seed)
    return [AffinePiece(tuple(x + F(rng.randint(-2, 2), grain) for x in p.m),
                        p.c + F(rng.randint(-2, 2), grain)) for p in pieces]


@st.composite
def functions(draw, dims=(2, 3)):
    """A random polarized cocycle in one of `dims` and a tangent mesh of it,
    perturbed or not.  In n = 3 the periods are the standard basis and the
    mesh is 1, which keeps the walk of the reference affordable."""
    n = draw(st.sampled_from(dims))
    if n < 3:
        c = draw(cocycles().filter(lambda c: c.n == n))
    else:
        low = [[1 if i == j else (draw(st.integers(-1, 1)) if j < i else 0) for j in range(3)]
               for i in range(3)]
        b = [[sum(low[i][t] * low[j][t] for t in range(3)) for j in range(3)] for i in range(3)]
        c = Cocycle.make([[int(i == j) for j in range(3)] for i in range(3)], b,
                         [draw(small_q) for _ in range(3)])
    pieces = tangent_pl(c, draw(st.integers(1, 3 if n < 3 else 1))).pieces
    if draw(st.booleans()):
        pieces = perturbed(pieces, draw(st.integers(0, 10 ** 6)))
    return c, pieces


# -- the kernel ----------------------------------------------------------------------


@st.composite
def envelopes(draw):
    """Random integer entries over a random box in dimension 1 to 3."""
    n = draw(st.integers(1, 3))
    ints = [(tuple(draw(st.integers(-4, 4)) for _ in range(n)), draw(st.integers(-6, 6)))
            for _ in range(draw(st.integers(1, 7)))]
    lo = tuple(draw(small_q) for _ in range(n))
    hi = tuple(a + draw(st.integers(1, 6)) * F(1, 3) for a in lo)
    return ints, lo, hi


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(envelopes())
def test_graph_vertices_carry_their_argmax_sets(data):
    # each vertex lies on the graph, its entry ids are the argmax set, its
    # negative ids the box facets it lies on, and there is no other id
    ints, lo, hi = data
    n = len(lo)
    pts, tight = envelope_clip(ints, lo, hi)
    assert pts and len(set(pts)) == len(pts)
    for x, t in zip(pts, tight):
        y = graph_point(x)
        best, arg = _int_argmax(ints, x[:n], x[-1])
        assert x[n] == best
        assert all(a <= v <= b for v, a, b in zip(y, lo, hi))
        facets = {-2 * i - 1 for i in range(n) if y[i] == hi[i]} | \
            {-2 * i - 2 for i in range(n) if y[i] == lo[i]}
        assert t == frozenset(arg) | facets


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(envelopes())
def test_graph_vertices_are_the_certified_cells_vertices(data):
    # every vertex of the graph over the box is a vertex of some entry's cell
    # in the box, as the per-entry certificate finds them, and conversely
    ints, lo, hi = data
    scan = PeriodicPLFunction(None, [AffinePiece(tuple(map(F, m)), F(c)) for m, c in ints]) \
        .scan_for(lo, hi)
    want = set()
    for ei in range(len(ints)):
        want.update(certified_cell(scan, ei, lo, hi) or ())
    assert {graph_point(x) for x in envelope_clip(scan._ints, lo, hi)[0]} == want


# -- periodic cells ------------------------------------------------------------------


def assert_same_cells(c, pieces):
    got = linearity_cells(PeriodicPLFunction(c, pieces))
    want = reference_cells(PeriodicPLFunction(c, pieces))
    assert got[0].cells == want[0].cells
    assert got[1] == want[1]
    assert got[2] == want[2]


@SETTINGS
@given(functions(dims=(2,)))
def test_cells_match_the_walk_in_2d(data):
    assert_same_cells(*data)


@settings(SETTINGS, max_examples=5)
@given(functions(dims=(3,)))
def test_cells_match_the_walk_in_3d(data):
    assert_same_cells(*data)


@pytest.mark.parametrize("k,draw", [(1, True), (2, False)])
def test_cells_match_the_walk_on_the_skew_threefold(k, draw):
    i3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    c = Cocycle.make(i3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], [1, 1, 1])
    pieces = tangent_pl(c, k).pieces
    assert_same_cells(c, perturbed(pieces, k) if draw else pieces)


def test_a_piece_attaining_on_an_edge_only_has_no_cell(two_tate):
    # the average of two adjacent tangent pieces attains the envelope exactly
    # on their common edge: its clipped vertices have rank n, so it has no
    # cell, and the cells are those of the tangent pieces
    base = tangent_pl(two_tate, 2).pieces
    avg = AffinePiece(tuple((a + b) / 2 for a, b in zip(base[0].m, base[1].m)),
                      (base[0].c + base[1].c) / 2)
    f = PeriodicPLFunction(two_tate, list(base) + [avg])
    box = (F(-1), F(-1)), (F(2), F(2))
    scan = f.scan_for(*box)
    clipped = envelope_clip(scan._ints, *box)
    edge = [i for i, e in enumerate(scan.entries)
            if e.rep_index == len(base) and any(i in t for t in clipped[1])]
    assert edge and all(_certified_cell(clipped, ei) is None for ei in edge)
    decomp, cell_pieces, strict = linearity_cells(f)
    assert decomp.cells == linearity_cells(tangent_pl(two_tate, 2))[0].cells
    assert avg not in cell_pieces.values() and not strict


def test_a_box_cutting_every_translate_restarts(two_tate):
    # at mesh 1 the cells are the unit squares centred on Z^2; a collar of
    # 1/4 cuts every one of them, so the step restarts, and one of 1/2 + 1/97
    # holds the whole square around 0
    f = tangent_pl(two_tate, 1)
    flo, fhi = _fundamental_bbox(two_tate)
    with pytest.raises(_CollarTooSmall):
        pl._walk_cells(f, flo, fhi, F(1, 4))
    decomp = pl._walk_cells(f, flo, fhi, F(1, 2) + F(1, 97))[0]
    assert decomp.cells == linearity_cells(PeriodicPLFunction(two_tate, f.pieces))[0].cells


@pytest.mark.parametrize("k", [1, 2])
def test_restarts_are_counted_and_pinned(k, monkeypatch):
    # b = [[10, 3], [3, 1]] has det 1 and long thin cells: every translate of
    # a cell is cut by the first two collars, so the step restarts twice, and
    # the cells are the walk's
    restarts = []
    original = pl._walk_cells

    def counting(*args):
        try:
            return original(*args)
        except _CollarTooSmall:
            restarts.append(1)
            raise

    monkeypatch.setattr(pl, "_walk_cells", counting)
    c = Cocycle.make([[1, 0], [0, 1]], [[10, 3], [3, 1]], [0, 0])
    pieces = tangent_pl(c, k).pieces
    restarts.clear()
    got = linearity_cells(PeriodicPLFunction(c, pieces))
    assert len(restarts) == 2
    want = reference_cells(PeriodicPLFunction(c, pieces))
    assert got[0].cells == want[0].cells and got[1] == want[1] and got[2] == want[2]


# -- pullback atoms ------------------------------------------------------------------


@st.composite
def faces(draw, n):
    """A segment, or a small square or triangle, at the origin of its chart,
    mapped by a random integral linearization of full rank at a random
    offset."""
    k = draw(st.integers(1, 2))
    size = draw(st.sampled_from([F(1, 2), F(1), F(3, 2)]))
    if k == 1:
        corners = [(0,), (size,)]
    else:
        corners = [(0, 0), (size, 0), (0, size)] + ([(size, size)] if draw(st.booleans()) else [])
    frame = AffineLatticeFrame((F(0),) * k, tuple(tuple(F(int(i == j)) for j in range(k))
                                                  for i in range(k)))
    cols = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    assume(linalg.rank(cols) == k)
    lin = tuple(tuple(F(cols[j][i]) for j in range(k)) for i in range(n))
    return SkeletonFace("f", hull(corners), frame, 0, F(1), lin,
                        tuple(draw(small_q) for _ in range(n)), True)


@SETTINGS
@given(functions(), st.data())
def test_pullback_atoms_match_the_certified_cells(data, draw):
    c, pieces = data
    face = draw.draw(faces(c.n))
    metric = PeriodicPLFunction(c, pieces)
    assert [(y, mass) for y, mass, _ in _pullback_atoms(face, metric)] == \
        reference_pullback_atoms(face, reference_pullback_pieces(metric, face))


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


@settings(SETTINGS, max_examples=25)
@given(functions(), st.data())
def test_degrees_and_tie_ranks_match_the_reference(data, draw):
    # at each atom the clip's tie rank is the scan lookup's and the degree (or
    # the non-transversal error) the per-vertex max's; at a relative-interior
    # point off the atoms both raise that it is not a vertex
    c, pieces = data
    face = draw.draw(faces(c.n))
    spec = SkeletonSpec(c, 2, (face,))
    metric = PeriodicPLFunction(c, pieces)
    atoms = _pullback_atoms(face, metric)
    for y, _, slopes in atoms:
        assert _tie_dim(metric.n, slopes) == reference_tie_face_dim(metric, face.f_aff(y))
    vertices = [face.frame.embed(y) for y, _, _ in atoms]
    off = tuple((3 * a + 4 * b) / 7 for a, b in zip(face.carrier.barycenter(),
                                                    face.carrier.vertices[0]))
    pulled = reference_pullback_pieces(metric, face)
    for xi in vertices + [face.carrier.barycenter(), off]:
        assert outcome(vertex_degree, spec, face, metric, xi) == \
            outcome(reference_vertex_degree, spec, face, metric, xi, pulled)
    assert outcome(face_degrees, spec, face, metric) == outcome(
        lambda: [(xi, reference_vertex_degree(spec, face, metric, xi, pulled))
                 for xi in vertices])


# -- Monge-Ampere atoms --------------------------------------------------------------


@st.composite
def regions(draw, n):
    """None, or a random region near the fundamental domain: a simplex or
    a segment, whose vertices are random or quarter-integer points, so that
    complex vertices fall on its boundary as well as inside."""
    if draw(st.booleans()):
        return None
    q = st.builds(F, st.integers(-2, 6), st.sampled_from([4, 3]))
    count = draw(st.sampled_from([2, n + 1]))
    return hull([tuple(draw(q) for _ in range(n)) for _ in range(count)])


@SETTINGS
@given(functions(dims=(1, 2)), st.data())
def test_atoms_match_the_cell_vertices(data, draw):
    c, pieces = data
    region = draw.draw(regions(c.n))
    assert ma_pl(PeriodicPLFunction(c, pieces), region) == \
        reference_ma_pl(PeriodicPLFunction(c, pieces), region)


@settings(SETTINGS, max_examples=5)
@given(functions(dims=(3,)), st.data())
def test_atoms_match_the_cell_vertices_in_3d(data, draw):
    c, pieces = data
    region = draw.draw(regions(3))
    assert ma_pl(PeriodicPLFunction(c, pieces), region) == \
        reference_ma_pl(PeriodicPLFunction(c, pieces), region)


@pytest.mark.parametrize("periods, b", [([[1, 0], [1, 2]], [[1, 0], [0, 1]]),
                                        ([[2, 1], [0, 1]], [[2, 1], [1, 2]])])
def test_atoms_match_with_skew_periods(periods, b):
    c = Cocycle.make(periods, b, [F(1, 3), F(1, 2)])
    for k in (2, 3):
        pieces = tangent_pl(c, k).pieces
        for region in (None, c.fundamental_domain()):
            for ps in (pieces, perturbed(pieces, k)):
                got = ma_pl(PeriodicPLFunction(c, ps), region)
                assert got == reference_ma_pl(PeriodicPLFunction(c, ps), region)


def test_a_closed_region_keeps_the_vertices_on_its_boundary(two_tate):
    # at mesh 2 the complex of b = I is the grid of quarter-odd lines, so the
    # square [1/4, 3/4]² has a vertex at each corner and none inside; the
    # half-open domain holds the four of one fundamental domain
    f = tangent_pl(two_tate, 2)
    square = hull([(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)),
                   (F(3, 4), F(3, 4))])
    corners = [a.at for a in ma_pl(f, square).atoms]
    assert corners == sorted(square.vertices)
    assert [a.at for a in ma_pl(f).atoms] == corners
    assert all(a.mass == F(1, 4) for a in ma_pl(f, square).atoms)


# -- subdifferentials ----------------------------------------------------------------


@SETTINGS
@given(functions(), st.integers(0, 10 ** 6))
def test_subdifferentials_match_the_certified_cells(data, seed):
    c, pieces = data
    f = PeriodicPLFunction(c, pieces)
    rng = random.Random(seed)
    points = [a.at for a in ma_pl(f).atoms]
    points = rng.sample(points, min(len(points), 2 if c.n == 2 else 1))
    if c.n == 2:
        points.append(tuple(F(rng.randint(0, 12), 12) for _ in range(2)))
        # a vertex two periods away: the clip's box around it keeps its size
        points.append(tuple(x + 2 * a + 2 * b for x, a, b in zip(points[0], *c.periods)))
    for xi in points:
        assert subdifferential(f, xi).dual == reference_subdifferential(f, xi)
