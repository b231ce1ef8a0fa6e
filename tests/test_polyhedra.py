import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropma import AffineLatticeFrame, FrameMismatchError, faces, hull, intersect, lattice_volume
from tropma.linalg import dot, nullspace, rank, solve, vsub
from tropma.polyhedra import volume


def brute_facets(points):
    """Oracle: the hyperplanes through d of the points, for every d-subset,
    with all points on one side, normalized; empty when the points span less
    than R^d."""
    pts = list(dict.fromkeys(tuple(map(F, p)) for p in points))
    d = len(pts[0])
    if rank([vsub(p, pts[0]) for p in pts[1:]]) < d:
        return set()
    out = set()
    for combo in itertools.combinations(pts, d):
        normals = nullspace([vsub(p, combo[0]) for p in combo[1:]], d)
        if len(normals) != 1:
            continue
        a = normals[0]
        c = dot(a, combo[0])
        vals = [dot(a, x) - c for x in pts]
        if all(v <= 0 for v in vals):
            out.add(_normalize(a, c))
        if all(v >= 0 for v in vals):
            out.add(_normalize(tuple(-x for x in a), -c))
    return out


def brute_volume(points):
    """Oracle: Lasserre's recursion vol(P) = (1/d) Σ_F c_F/|a_F,k|·vol(π_k F)
    over the oracle's facets a_F·x <= c_F, π_k dropping a coordinate k with
    a_F,k != 0; 0 when the points span less than R^d, 1 in R^0."""
    pts = list(dict.fromkeys(tuple(map(F, p)) for p in points))
    d = len(pts[0])
    if d == 0:
        return F(1)
    total = F(0)
    for a, c in brute_facets(pts):
        k = next(j for j, x in enumerate(a) if x)
        facet = [p[:k] + p[k + 1:] for p in pts if dot(a, p) == c]
        total += F(c, abs(a[k])) * brute_volume(facet)
    return total / d


def _normalize(a, c):
    import math
    den = math.lcm(c.denominator, *(x.denominator for x in a))
    ints = [int(x * den) for x in a]
    ci = int(c * den)
    g = math.gcd(ci, *ints)
    return tuple(v // g for v in ints), ci // g


class TestHull:
    def test_interior_point_dropped(self):
        p = hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))])
        assert p.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
        assert p.dim == 2

    def test_single_point(self):
        p = hull([(0, 0)])
        assert p.dim == 0
        assert p.vertices == ((F(0), F(0)),)

    def test_scaled_square_against_facet_oracle(self):
        pts = [(0, 0), (2, 0), (0, 2), (2, 2)]
        p = hull(pts)
        assert len(p.inequalities) == 4
        got = {_normalize(a, c) for a, c in p.inequalities}
        assert got == brute_facets(pts)

    def test_vertices_satisfy_halfspaces_tightly(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        for a, c in p.inequalities:
            assert all(dot(a, v) <= c for v in p.vertices)
            tight = sum(1 for v in p.vertices if dot(a, v) == c)
            assert tight >= p.dim


@st.composite
def point_sets(draw):
    """Small point sets in R^d, d = 1..4, with duplicates, midpoints (inside
    an edge when the two are its ends), averages of d points (inside a facet
    when they span one) and the barycenter, shuffled; a third of those with
    d >= 2 are flattened onto a hyperplane, so of lower dimension."""
    d = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    pts = [tuple(map(F, p)) for p in
           draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))]
    picks = st.lists(st.integers(0, 99), min_size=max(d, 2), max_size=max(d, 2))
    for kind, idx in draw(st.lists(st.tuples(st.sampled_from("dmab"), picks), max_size=4)):
        chosen = pts if kind == "b" else \
            [pts[i % len(pts)] for i in idx[:{"d": 1, "m": 2, "a": d}[kind]]]
        pts.append(tuple(sum(col) / len(chosen) for col in zip(*chosen)))
    if d >= 2 and draw(st.integers(0, 2)) == 0:
        pts = [(*p[:-1], sum(p[:-1]) - 1) for p in pts]
    return draw(st.permutations(pts))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_facets_and_volume_match_the_brute_force_oracle(pts):
    d = len(pts[0])
    want = brute_facets(pts)
    p = hull(pts)
    if p.dim == d:
        assert {_normalize(a, c) for a, c in p.inequalities} == want
    else:
        assert not want
    assert volume(pts) == brute_volume(pts)


class TestIntersect:
    def test_boxes(self):
        a = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        b = hull([(F(1, 2), 0), (F(3, 2), 0), (F(1, 2), 1), (F(3, 2), 1)])
        cap = intersect(a, b)
        assert cap.vertices == hull([(F(1, 2), 0), (1, 0), (F(1, 2), 1), (1, 1)]).vertices

    def test_empty(self):
        assert intersect(hull([(0,), (1,)]), hull([(2,), (3,)])) is None

    def test_triangle_with_diagonal_segment(self):
        tri = hull([(0, 0), (2, 0), (0, 2)])
        seg = hull([(0, 0), (2, 2)])
        cap = intersect(tri, seg)
        assert cap.vertices == ((F(0), F(0)), (F(1), F(1)))

    def test_commutative_and_idempotent(self):
        rng = random.Random(5)
        for _ in range(10):
            pts_a = [(F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
                     for _ in range(4)]
            pts_b = [(F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
                     for _ in range(4)]
            a, b = hull(pts_a), hull(pts_b)
            ab = intersect(a, b)
            ba = intersect(b, a)
            assert (ab is None) == (ba is None)
            if ab is not None:
                assert ab.vertices == ba.vertices
            assert intersect(a, a).vertices == a.vertices


class TestAffineData:
    def test_segment_primitive_direction(self):
        p = hull([(0, 0), (2, 2)])
        d, fr = p.dim, p.frame()
        assert d == 1
        assert fr.basis == ((F(1), F(1)),)

    def test_point(self):
        p = hull([(3, 4)])
        d, fr = p.dim, p.frame()
        assert d == 0 and fr.basis == ()

    def test_triangle_in_plane_z0(self):
        p = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0)])
        d, fr = p.dim, p.frame()
        assert d == 2
        # oracle: the basis must generate exactly span ∩ Z^3
        for v in fr.basis:
            assert all(x.denominator == 1 for x in v)
        for cand in itertools.product(range(-2, 3), repeat=3):
            if cand[2] != 0 or not any(cand):
                continue
            coords = solve(tuple(zip(*fr.basis)), tuple(map(F, cand)))
            assert coords is not None
            assert all(x.denominator == 1 for x in coords)

    def test_skew_segment_saturation(self):
        p = hull([(0, 0), (4, 6)])
        d, fr = p.dim, p.frame()
        assert d == 1
        assert fr.basis == ((F(2), F(3)),)


class TestLatticeVolume:
    def test_unit_square(self, std_frame_2d):
        assert lattice_volume(hull([(0, 0), (1, 0), (0, 1), (1, 1)]),
                              std_frame_2d) == 1

    def test_segment_two_steps(self):
        seg = hull([(0, 0), (2, 2)])
        assert lattice_volume(seg, seg.frame()) == 2

    def test_simplex_determinant_oracle(self, std_frame_2d):
        # oracle: vol = |det[[2,0],[0,2]]| / 2!
        from tropma.linalg import det
        expected = abs(det(((F(2), F(0)), (F(0), F(2))))) / 2
        assert lattice_volume(hull([(0, 0), (2, 0), (0, 2)]), std_frame_2d) == expected == 2

    def test_point_counting_convention(self):
        p = hull([(5, 7)])
        assert lattice_volume(p, p.frame()) == 1

    def test_unimodular_invariance(self, std_frame_2d):
        rng = random.Random(11)
        p = hull([(0, 0), (3, 1), (1, 2), (2, 3)])
        base = lattice_volume(p, std_frame_2d)
        for _ in range(6):
            # random unimodular: product of elementary shears
            u = ((1, 0), (0, 1))
            for _ in range(3):
                s = rng.randint(-2, 2)
                if rng.random() < 0.5:
                    u = ((u[0][0] + s * u[1][0], u[0][1] + s * u[1][1]), u[1])
                else:
                    u = (u[0], (u[1][0] + s * u[0][0], u[1][1] + s * u[0][1]))
            t = (rng.randint(-3, 3), rng.randint(-3, 3))
            img = hull([(u[0][0] * x + u[0][1] * y + t[0],
                         u[1][0] * x + u[1][1] * y + t[1]) for x, y in p.vertices])
            assert lattice_volume(img, std_frame_2d) == base

    def test_frame_mismatch(self, std_frame_2d):
        seg = hull([(0, 0), (2, 2)])
        with pytest.raises(FrameMismatchError, match="frame mismatch"):
            lattice_volume(seg, std_frame_2d)


def oracle_faces_by_tight_sets(p):
    """Oracle: faces = distinct tight-vertex sets of halfspace subsets."""
    found = {frozenset(range(len(p.vertices)))}
    facets = []
    for a, c in p.inequalities:
        facets.append(frozenset(i for i, v in enumerate(p.vertices) if dot(a, v) == c))
    for r in range(1, len(facets) + 1):
        for combo in itertools.combinations(facets, r):
            cap = frozenset.intersection(*combo)
            if cap:
                found.add(cap)
    return found


class TestFaces:
    def test_segment(self):
        assert len(faces(hull([(0,), (1,)]))) == 3

    def test_square(self, unit_square):
        assert len(faces(unit_square)) == 9

    def test_cube_against_oracle(self):
        cube = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        fs = faces(cube)
        assert len(fs) == 27
        assert len(fs) == len(oracle_faces_by_tight_sets(cube))

    def test_closed_under_intersection(self, unit_square):
        fs = faces(unit_square)
        keys = {f.vertices for f in fs}
        for f1, f2 in itertools.combinations(fs, 2):
            cap = intersect(f1, f2)
            if cap is not None:
                assert cap.vertices in keys
