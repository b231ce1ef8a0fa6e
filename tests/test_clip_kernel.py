"""The integer clip and the ring clip against the Fraction code they replaced.

`polyhedra.clip` is one double-description step per row on homogeneous
integer points with their incidence; the lifted clip of every cell
(`envelope_clip`) runs on it, and it caps pairs of polytopes (`intersect`)
and checks Σ-transversality.  `vertices_of_hrep`,
which solved every n-subset of the constraints by Cramer's rule, is kept
here as its reference: on seeded random bounded integer systems in n = 2
and 3 the two give the same vertex sets, clipping by A then B is clipping
by A + B, and every returned tight set is the incidence recomputed
directly from the rows.

`clip_polygon`, which no code of the package calls any more, clips a ring by
Sutherland–Hodgman on Fractions; the Fraction clip kept here must give the
same ring, point for point and in the same order.
"""

import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropma import linalg
from tropma.linalg import dot
from tropma.plfunc import _ring2d
from tropma.polyhedra import (_cap_vertices, _int_det, _int_halfspace, _rational, _reduced, clip,
                              clip_polygon, faces, hull)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


def reference_clip(poly, halfplanes):
    """The Fraction clip: keep inside points, add edge crossings, drop repeats."""
    cur = list(poly)
    for a, c in halfplanes:
        if not cur:
            return []
        nxt = []
        vals = [dot(a, p) for p in cur]
        m = len(cur)
        for i in range(m):
            p, vp = cur[i], vals[i]
            q, vq = cur[(i + 1) % m], vals[(i + 1) % m]
            if vp <= c:
                nxt.append(p)
            if (vp < c < vq) or (vq < c < vp):
                t = (c - vp) / (vq - vp)
                nxt.append(tuple(pi + t * (qi - pi) for pi, qi in zip(p, q)))
        dedup = []
        for pt in nxt:
            if not dedup or pt != dedup[-1]:
                dedup.append(pt)
        if len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        cur = dedup
    return cur


@st.composite
def rings(draw):
    """A counterclockwise convex ring of 3 or more rational points."""
    pts = draw(st.lists(st.tuples(rationals, rationals), min_size=3, max_size=8))
    p = hull(pts)
    if p.dim < 2:
        return [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    return _ring2d(p)


@st.composite
def special_halfplanes(draw, ring):
    """Halfplanes through a vertex, parallel to an edge, emptying the ring,
    random ones, and duplicates of those."""
    m = len(ring)
    out = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["vertex", "parallel", "empty", "random", "duplicate"]))
        a = (draw(rationals), draw(rationals))
        if kind == "vertex":
            v = ring[draw(st.integers(0, m - 1))]
            out.append((a, dot(a, v)))
        elif kind == "parallel":
            i = draw(st.integers(0, m - 1))
            p, q = ring[i], ring[(i + 1) % m]
            normal = (q[1] - p[1], p[0] - q[0])
            sign = draw(st.sampled_from([1, -1]))
            normal = (sign * normal[0], sign * normal[1])
            out.append((normal, dot(normal, p) + draw(rationals) / 4))
        elif kind == "empty":
            if a == (0, 0):
                a = (F(1), F(0))
            out.append((a, min(dot(a, v) for v in ring) - F(1, 3)))
        elif kind == "duplicate" and out:
            out.append(out[draw(st.integers(0, len(out) - 1))])
        else:
            out.append((a, draw(rationals)))
    return out


@st.composite
def clip_cases(draw):
    ring = draw(rings())
    return ring, draw(special_halfplanes(ring))


@SETTINGS
@given(clip_cases())
def test_integer_clip_matches_fraction_clip(case):
    ring, halfplanes = case
    assert clip_polygon(ring, halfplanes) == reference_clip(ring, halfplanes)


@SETTINGS
@given(clip_cases())
def test_each_halfplane_alone_matches(case):
    ring, halfplanes = case
    for hp in halfplanes:
        assert clip_polygon(ring, [hp]) == reference_clip(ring, [hp])



# -- the n-dimensional clip ---------------------------------------------------------


def vertices_of_hrep(equations, inequalities, n):
    """All vertices of a bounded {x : eqs hold, ineqs hold}; [] if infeasible.

    In coordinates of the equations' solution space, each basis of f
    inequalities is solved by Cramer's rule on integers,
    y = (det of the rows with column j replaced by the right-hand side) / det,
    and kept when it satisfies every inequality.  Callers pass bounded
    systems; on an unbounded one only the vertices are returned.
    """
    if equations:
        a_rows = [a for a, _ in equations]
        b_vals = [c for _, c in equations]
        x0 = linalg.solve(a_rows, b_vals)
        if x0 is None:
            return []
        kern = linalg.nullspace(a_rows, n)
    else:
        x0 = tuple(F(0) for _ in range(n))
        kern = [tuple(F(1 if i == j else 0) for j in range(n)) for i in range(n)]
    f = len(kern)

    red = []
    for a, c in inequalities:
        ar = tuple(dot(a, k) for k in kern)
        cr = c - dot(a, x0)
        if all(x == 0 for x in ar):
            if cr < 0:
                return []
            continue
        red.append((ar, cr))

    ints = [_int_halfspace(a, c, 1) for a, c in red]
    ys = set()
    for combo in itertools.combinations(ints, f):
        d = _int_det([a for a, _ in combo])
        if not d:
            continue
        nums = [_int_det([a[:j] + (c,) + a[j + 1:] for a, c in combo]) for j in range(f)]
        if d < 0:
            d, nums = -d, [-x for x in nums]
        if all(sum(x * y for x, y in zip(a, nums)) <= c * d for a, c in ints):
            ys.add(tuple(F(x, d) for x in nums))

    out = []
    for y in ys:
        x = list(x0)
        for yi, k in zip(y, kern):
            x = [xi + yi * ki for xi, ki in zip(x, k)]
        out.append(tuple(x))
    return sorted(set(out))


def box(n, r):
    """The cube [-r, r]^n: its corners with their facet ids, and its facet rows."""
    rows = [(-1 - 2 * i - s, tuple((1 - 2 * s) * (i == j) for j in range(n)), r)
            for i in range(n) for s in (0, 1)]
    corners = list(itertools.product((-r, r), repeat=n))
    tight = [frozenset(key for key, a, c in rows if sum(map(operator.mul, a, x)) == c)
             for x in corners]
    return [_reduced([F(v) for v in x]) for x in corners], tight, rows


def random_rows(rng, n, count):
    """Integer rows (id, a, c), with the degenerate kinds mixed in: rows
    through lattice points (often through vertices), a row and its opposite
    (an equation, which leaves a lower-dimensional polytope), scaled copies of
    an earlier row (the same hyperplane under a second id), and rows that cut
    everything away."""
    rows = []
    for key in range(count):
        kind = rng.choice(["random", "random", "point", "point", "opposite", "copy", "empty"])
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(a):
            a = (1,) + a[1:]
        if kind == "point":
            c = sum(x * rng.randint(-2, 2) for x in a)
        elif kind == "opposite" and rows:
            _, b, d = rng.choice(rows)
            a, c = tuple(-x for x in b), -d
        elif kind == "copy" and rows:
            _, b, d = rng.choice(rows)
            a, c = tuple(2 * x for x in b), 2 * d
        elif kind == "empty" and rng.random() < 0.3:
            c = -sum(abs(x) for x in a) * 4
        else:
            c = rng.randint(-6, 6)
        rows.append((key, a, c))
    return rows


def incidence(pts, rows):
    """The ids of the rows each homogeneous point lies on, recomputed directly."""
    return [frozenset(key for key, a, c in rows if sum(x * y for x, y in zip(a, p)) == c * p[-1])
            for p in pts]


def reference(rows, n):
    return vertices_of_hrep([], [(tuple(map(F, a)), F(c)) for _, a, c in rows], n)


@pytest.mark.parametrize("n", [2, 3])
def test_clip_matches_the_vertices_of_the_system(n):
    for seed in range(80):
        rng = random.Random(1000 * n + seed)
        pts, tight, box_rows = box(n, rng.randint(2, 4))
        rows = random_rows(rng, n, rng.randint(1, 9))
        got, got_tight = clip(pts, tight, rows)
        assert sorted(map(_rational, got)) == reference(box_rows + rows, n), seed
        # reduced homogeneous points, W > 0, each once, with their full incidence
        assert all(p[-1] > 0 and math.gcd(*p) == 1 for p in got), seed
        assert len(set(got)) == len(got), seed
        assert got_tight == incidence(got, box_rows + rows), seed


@pytest.mark.parametrize("n", [2, 3])
def test_clipping_by_a_then_b_is_clipping_by_both(n):
    for seed in range(80):
        rng = random.Random(1000 * n + seed)
        pts, tight, _ = box(n, rng.randint(2, 4))
        rows = random_rows(rng, n, rng.randint(2, 9))
        cut = rng.randint(1, len(rows) - 1)
        both = clip(pts, tight, rows)
        once = clip(*clip(pts, tight, rows[:cut]), rows[cut:])
        assert sorted(zip(*both)) == sorted(zip(*once)), seed


def lattice_polytopes(rng, n, count):
    """Hulls of random small lattice point sets, full-dimensional or not."""
    return [hull([tuple(F(rng.randint(-2, 2)) for _ in range(n))
                  for _ in range(rng.randint(1, 7))]) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3])
def test_cap_of_faces_matches_the_vertices_of_both_systems(n):
    # p ranges over every face of random lattice polytopes, clipped with its
    # own incidence (its equations as ids) by q: a random polytope, a face of
    # the same polytope, p shifted inside its own affine hull, or the polytope
    # shifted
    rng = random.Random(n)
    checked = 0
    for big in lattice_polytopes(rng, n, 12):
        fs = faces(big)
        for p in fs:
            shift = tuple(F(rng.randint(-2, 2), 3) for _ in range(n))
            other = rng.choice(p.vertices)
            along = tuple((x - y) / 3 for x, y in zip(other, p.vertices[0]))
            for q in (lattice_polytopes(rng, n, 1)[0], rng.choice(fs), p.translate(along),
                      big.translate(shift)):
                want = vertices_of_hrep(list(dict.fromkeys(p.equations + q.equations)),
                                        list(dict.fromkeys(p.inequalities + q.inequalities)), n)
                assert _cap_vertices(p, q) == want
                checked += 1
    assert checked > 100
