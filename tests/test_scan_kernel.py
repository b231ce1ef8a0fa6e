"""The integer kernel of the envelope scan against the plain Fraction code.

`_enumerate_entries` enumerates its candidates from the exact integer points of
ellipsoids, scores them by the integer form of their values and derives the
kept translates on integers; `_point_envelope_entry` returns the first
translate in (rep, k) order attaining the envelope at a point.  Both are
compared here with a direct Fraction implementation of the bounding-box
enumeration they replaced, translates included, over random small polarized
cocycles (skew b included) in dimensions 1 to 3.  `_candidate_ks` is compared
with a brute-force scan of the ellipsoids' bounding boxes.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_int_kernels import reference_translate

from tropma import linalg, tangent_pl
from tropma.cocycle import Cocycle
from tropma.linalg import dot, vec, vsub
from tropma.envelope import (AffinePiece, PeriodicPLFunction, TranslatedPiece, _candidate_ks,
                             _enumerate_entries, _fundamental_bbox, _point_envelope_entry)
from tropma.plfunc import _walk_box
from tropma.polyhedra import box_corners as _box_corners

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

small_q = st.builds(F, st.integers(-2, 2), st.integers(1, 4))


@st.composite
def cocycles(draw):
    """Integral positive definite b = L·Lᵀ, an integral period basis, rational z0."""
    n = draw(st.integers(1, 3))
    low = [[draw(st.integers(1, 2)) if i == j else
            (draw(st.integers(-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    b = [[sum(low[i][t] * low[j][t] for t in range(n)) for j in range(n)] for i in range(n)]
    periods = [[draw(st.integers(1, 2)) if i == j else
                (draw(st.integers(-1, 1)) if j > i else 0) for j in range(n)]
               for i in range(n)]
    z0 = [draw(small_q) for _ in range(n)]
    return Cocycle.make(periods, b, z0)


@st.composite
def functions_and_boxes(draw):
    c = draw(cocycles())
    n = c.n
    pieces = [AffinePiece(tuple(draw(small_q) for _ in range(n)), draw(small_q))
              for _ in range(draw(st.integers(1, 3)))]
    lo = tuple(draw(small_q) / 2 for _ in range(n))
    hi = tuple(a + draw(st.integers(1, 4)) * F(1, 4) for a in lo)
    return PeriodicPLFunction(c, pieces), lo, hi


@st.composite
def meshes_and_wide_boxes(draw):
    """The tangent mesh with k = 4 of a cocycle in dimension 2, on a box
    like the cell walk's (`_walk_box`): its fundamental box, at least one
    period across, widened by a collar of 1/4 to 1 drawn for each side on its
    own, so off-centre."""
    c = draw(cocycles().filter(lambda c: c.n == 2))
    lo, hi = _fundamental_bbox(c)
    return (tangent_pl(c, 4),
            tuple(a - draw(st.integers(1, 4)) * F(1, 4) for a in lo),
            tuple(b + draw(st.integers(1, 4)) * F(1, 4) for b in hi))


# -- the plain Fraction rules -------------------------------------------------


def reference_candidates(f, points, t0):
    c = f.cocycle
    big_b = linalg.matmul(linalg.matmul(c.periods, c.b), linalg.transpose(c.periods))
    big_b_inv = linalg.inverse(big_b)
    ell = c.linear_part_on_basis()
    found = set()
    hmap = {}
    for pi, p in enumerate(f.pieces):
        for xi, x in enumerate(points):
            h = linalg.vadd(linalg.matvec(c.periods, vsub(linalg.matvec(c.b, x), p.m)), ell)
            base = p.value(x)
            hmap[(pi, xi)] = (h, base)
            k0 = linalg.matvec(big_b_inv, h)
            big_r = dot(h, k0) / 2 + base - t0
            if big_r < 0:
                continue
            ranges = []
            for i in range(c.n):
                s = linalg.ceil_sqrt(2 * big_r * big_b_inv[i][i])
                ranges.append(range(linalg.ceil_frac(k0[i]) - s,
                                    linalg.floor_frac(k0[i]) + s + 1))
            found.update((pi, k) for k in itertools.product(*ranges))
    return found, hmap, big_b


def reference_point_entry(f, x):
    """Translate every candidate; the first strict maximum at x as (rep, k)."""
    t0 = max(p.value(x) for p in f.pieces)
    cand, _, _ = reference_candidates(f, [x], t0)
    best_val = best = None
    for pi, k in sorted(cand):
        v = reference_translate(f.cocycle, f.pieces[pi], k).value(x)
        if best_val is None or v > best_val:
            best_val, best = v, (pi, k)
    return best


def reference_entries(f, lo, hi, t0_row=True):
    """The kept translates: those at least each minorant at some corner of
    the box, the constant t0 counting as a minorant unless t0_row is false."""
    c = f.cocycle
    n = c.n
    corners = _box_corners(lo, hi)
    t0 = max(min(p.value(x) for x in corners) for p in f.pieces)
    cand, hmap, big_b = reference_candidates(f, corners, t0)
    grid = 3 if n <= 2 else 2
    gridpts = [tuple(a + (b - a) * F(2 * s + 1, 2 * grid) for a, b, s in zip(lo, hi, steps))
               for steps in itertools.product(range(grid), repeat=n)]
    minorants = [reference_translate(c, f.pieces[pi], k)
                 for pi, k in (reference_point_entry(f, gp) for gp in gridpts)]
    mvals = [[g.value(x) for x in corners] for g in minorants]
    if t0_row:
        mvals.append([t0] * len(corners))
    out = []
    for pi, k in sorted(cand):
        kf = vec(k)
        quad = dot(kf, linalg.matvec(big_b, kf)) / 2
        vals = [hmap[(pi, xi)][1] + dot(hmap[(pi, xi)][0], kf) - quad
                for xi in range(len(corners))]
        if all(any(v >= mv for v, mv in zip(vals, row)) for row in mvals):
            out.append(TranslatedPiece(reference_translate(c, f.pieces[pi], k), pi, k))
    return out


# -- properties ------------------------------------------------------------------


@SETTINGS
@given(functions_and_boxes())
def test_entries_match_fraction_pruning(data):
    f, lo, hi = data
    corners = _box_corners(lo, hi)
    t0 = max(min(p.value(x) for x in corners) for p in f.pieces)
    # the Fraction reference takes about a second per thousand candidates
    assume(len(reference_candidates(f, corners, t0)[0]) <= 1500)
    got = _enumerate_entries(f, lo, hi)
    want = reference_entries(f, lo, hi)
    assert [(e.rep_index, e.k, e.piece.m, e.piece.c) for e in got] == \
        [(e.rep_index, e.k, e.piece.m, e.piece.c) for e in want]
    # the integer form the scan compares with: least common denominator and numerators
    den = linalg.common_denominator([x for e in want for x in e.piece.m] +
                                    [e.piece.c for e in want])
    assert got.den == den
    assert got.ints == [(tuple(int(x * den) for x in e.piece.m), int(e.piece.c * den))
                        for e in want]


def test_entries_match_fraction_pruning_on_wide_boxes():
    # on boxes a period or more across, some translate that every grid
    # minorant keeps falls below t0 at every corner, so the comparison tells
    # the t0 corner rule from a bounding-box filter
    pruned = []

    @settings(SETTINGS, max_examples=10)
    @given(meshes_and_wide_boxes())
    def check(data):
        test_entries_match_fraction_pruning.hypothesis.inner_test(data)
        pruned.append(len(reference_entries(*data, t0_row=False)) >
                      len(reference_entries(*data)))

    check()
    assert any(pruned)


def assert_entries_reach_t0(f, lo, hi):
    # F >= t0 = max_p min_box p on the box, so a translate that attains there
    # is >= t0 at some corner; the scan keeps no other
    corners = _box_corners(lo, hi)
    t0 = max(min(p.value(x) for x in corners) for p in f.pieces)
    for e in _enumerate_entries(f, lo, hi):
        assert any(e.piece.value(x) >= t0 for x in corners), (e.rep_index, e.k)


@SETTINGS
@given(functions_and_boxes())
def test_every_entry_reaches_t0_at_a_corner(data):
    assert_entries_reach_t0(*data)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [((1, 0), (0, 1)), ((2, 1), (1, 2))], ids=["id2", "skew2"])
def test_every_walked_entry_reaches_t0_at_a_corner(b, k):
    # the tangent meshes on their walk boxes, where the bounding boxes of the
    # ellipsoids {value >= t0} hold translates below t0 at every corner
    c = Cocycle.make([[1, 0], [0, 1]], b, [F(1, 2), F(1, 2)] if b[0][1] == 0 else [1, 1])
    f = tangent_pl(c, k)
    for step in (0, 1):
        assert_entries_reach_t0(f, *_walk_box(f, step))


@SETTINGS
@given(functions_and_boxes(), st.lists(st.sampled_from([F(0), F(1, 2), F(-1, 2), F(1, 3)]),
                                       min_size=3, max_size=3), st.booleans())
def test_point_entry_is_first_maximum(data, ts, tangent):
    # points at half periods and the tangent piece at 0 make translates tie
    f, _, _ = data
    c = f.cocycle
    if tangent:
        f = PeriodicPLFunction(c, [AffinePiece(c.linear_covector(), F(0)), *f.pieces])
    x = tuple(sum((t * lam[j] for t, lam in zip(ts, c.periods)), F(0)) for j in range(c.n))
    t0 = max(p.value(x) for p in f.pieces)
    assume(len(reference_candidates(f, [x], t0)[0]) <= 1500)
    assert _point_envelope_entry(f, x) == reference_point_entry(f, x)


@SETTINGS
@given(functions_and_boxes(), st.lists(small_q, min_size=8, max_size=8))
def test_candidates_are_the_ellipsoid_points(data, offsets):
    # every translate reaching its point's threshold, and no other, by brute force
    # over the bounding box of each (piece, point) ellipsoid
    f, lo, hi = data
    corners = _box_corners(lo, hi)
    t0 = max(min(p.value(x) for x in corners) for p in f.pieces)
    thresholds = [t0 + d / 4 for d, _ in zip(offsets, corners)]
    boxes = set()
    for x, t in zip(corners, thresholds):
        boxes |= reference_candidates(f, [x], t)[0]
    assume(len(boxes) <= 1500)
    want = set()
    for pi, k in boxes:
        piece = reference_translate(f.cocycle, f.pieces[pi], k)
        if any(piece.value(x) >= t for x, t in zip(corners, thresholds)):
            want.add((pi, k))
    got, forms = _candidate_ks(f, corners, thresholds)
    assert got == want and forms is None
