"""The integer polygon clip against the plain Fraction clip.

`clip_polygon` converts its ring to homogeneous integer points and its
halfplanes to integer rows, and `clip_homogeneous` does the clip on Python
ints.  The Fraction clip it replaced is kept here as the reference; the two
must give the same ring, point for point and in the same order.
"""

from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropma.linalg import dot
from tropma.plfunc import _ring2d
from tropma.polyhedra import clip_homogeneous, clip_polygon, homogeneous, hull

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


def test_homogeneous_points_are_reduced():
    assert homogeneous((F(1, 2), F(1, 3))) == (3, 2, 6)
    assert homogeneous((F(-2, 4), F(0))) == (-1, 0, 2)
    assert homogeneous((F(3), F(-5))) == (3, -5, 1)


def test_clip_homogeneous_crossing_is_reduced():
    # the unit square cut by x <= 1/2 on integers: (1/2, 0) is (1, 0, 2)
    square = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    assert clip_homogeneous(square, [(2, 0, 1)]) == [(0, 0, 1), (1, 0, 2), (1, 2, 2), (0, 1, 1)]
    assert clip_homogeneous(square, [(1, 0, -1)]) == []
