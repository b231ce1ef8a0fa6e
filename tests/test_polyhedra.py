import itertools
import random
from fractions import Fraction as F

import pytest

from tropma import AffineLatticeFrame, FrameMismatchError, faces, hull, intersect, lattice_volume
from tropma.linalg import dot, rank, solve, vsub


def brute_facets_2d(points):
    """Oracle: facet lines through point pairs with all points on one side."""
    pts = [tuple(map(F, p)) for p in points]
    out = set()
    for p, q in itertools.combinations(pts, 2):
        a = (q[1] - p[1], -(q[0] - p[0]))
        if a == (0, 0):
            continue
        c = dot(a, p)
        vals = [dot(a, x) - c for x in pts]
        if all(v <= 0 for v in vals):
            out.add(_normalize(a, c))
        if all(v >= 0 for v in vals):
            out.add(_normalize(tuple(-x for x in a), -c))
    return out


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
        assert got == brute_facets_2d(pts)

    def test_vertices_satisfy_halfspaces_tightly(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        for a, c in p.inequalities:
            assert all(dot(a, v) <= c for v in p.vertices)
            tight = sum(1 for v in p.vertices if dot(a, v) == c)
            assert tight >= p.dim


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
