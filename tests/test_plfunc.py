import itertools
import random
from fractions import Fraction as F

import pytest

from tropma import (AffinePiece, Cocycle, PeriodicDecomposition,
                    PeriodicPLFunction, UnpolarizedError, check_cocycle_rule,
                    check_periodic, check_transversal, evaluate, hull,
                    linearity_cells, translate_piece)
from tropma.approx import tangent_pl


def oracle_tate_envelope(omega, z1=F(1, 2), b=F(1), span=12):
    """Oracle: finite max over translates j in [-span, span] of the k=1 family."""
    best = None
    for j in range(-span, span + 1):
        zj = j * z1 + F(j * (j - 1), 2) * b
        val = j * b * omega + zj - b * j * j
        best = val if best is None or val > best else best
    return best


class TestTranslatePiece:
    def test_zero_is_identity(self, tate):
        p = AffinePiece((F(3, 7),), F(-2, 5))
        assert translate_piece(tate, p, (0,)) is p

    def test_tate_formula(self, tate):
        p = AffinePiece((F(0),), F(0))
        q = translate_piece(tate, p, (1,))
        assert q.m == (F(1),) and q.c == F(-1, 2)

    def test_composition_law(self, two_tate):
        rng = random.Random(9)
        p = AffinePiece((F(1, 3), F(-2, 5)), F(7, 11))
        for _ in range(20):
            lam = tuple(rng.randint(-3, 3) for _ in range(2))
            nu = tuple(rng.randint(-3, 3) for _ in range(2))
            two_step = translate_piece(two_tate, translate_piece(two_tate, p, lam), nu)
            one_step = translate_piece(two_tate, p,
                                       tuple(a + b for a, b in zip(lam, nu)))
            assert (two_step.m, two_step.c) == (one_step.m, one_step.c)

    def test_cocycle_rule_for_pieces(self, tate):
        p = AffinePiece((F(2, 3),), F(1, 5))
        q = translate_piece(tate, p, (1,))
        for w in (F(0), F(1, 3), F(-7, 5)):
            assert q.value((w + 1,)) == p.value((w,)) + tate.z_value((1,), (w,))


class TestEvaluate:
    def test_tie_at_half(self, tate):
        f = PeriodicPLFunction(tate, [AffinePiece((F(0),), F(0))])
        val, arg = evaluate(f, (F(1, 2),))
        assert val == 0 == oracle_tate_envelope(F(1, 2))
        got = sorted((e.piece.m, e.piece.c) for e in arg)
        assert got == [((F(0),), F(0)), ((F(1),), F(-1, 2))]

    def test_unique_at_zero(self, tate):
        f = PeriodicPLFunction(tate, [AffinePiece((F(0),), F(0))])
        val, arg = evaluate(f, (F(0),))
        assert val == 0 and len(arg) == 1

    def test_tangent_envelope_far_out(self, tate):
        f = PeriodicPLFunction(tate, [AffinePiece((F(0),), F(0))])
        val, arg = evaluate(f, (F(2),))
        assert val == 2 == oracle_tate_envelope(F(2)) == tate.canonical_value((2,))
        assert [(e.piece.m, e.piece.c) for e in arg] == [((F(2),), F(-2))]

    def test_matches_oracle_on_grid(self, tate):
        f = PeriodicPLFunction(tate, [AffinePiece((F(0),), F(0))])
        for num in range(-21, 22):
            w = F(num, 7)
            assert evaluate(f, (w,))[0] == oracle_tate_envelope(w)

    def test_envelope_convexity(self, two_tate):
        f = tangent_pl(two_tate, 2)
        rng = random.Random(4)
        for _ in range(15):
            w1 = tuple(F(rng.randint(-20, 20), 9) for _ in range(2))
            w2 = tuple(F(rng.randint(-20, 20), 9) for _ in range(2))
            t = F(rng.randint(1, 6), 7)
            mid = tuple(t * a + (1 - t) * b for a, b in zip(w1, w2))
            v_mid = evaluate(f, mid)[0]
            assert v_mid <= t * evaluate(f, w1)[0] + (1 - t) * evaluate(f, w2)[0]

    def test_cocycle_rule_exactness(self, two_tate):
        f = tangent_pl(two_tate, 2)
        w = (F(2, 7), F(-3, 11))
        v0 = evaluate(f, w)[0]
        for k in itertools.product((-1, 0, 1), repeat=2):
            lam = two_tate.lattice_vector(k)
            shifted = tuple(a + b for a, b in zip(w, lam))
            assert evaluate(f, shifted)[0] == v0 + two_tate.z_value(k, w)

    def test_unpolarized_diverges(self):
        c = Cocycle.make([[1]], [[-1]], [0], polarized=False)
        f = PeriodicPLFunction(c, [AffinePiece((F(0),), F(0))])
        with pytest.raises(UnpolarizedError, match="envelope diverges"):
            evaluate(f, (F(0),))


class TestCheckCocycleRule:
    def test_holds_by_construction(self, tate):
        assert check_cocycle_rule(tangent_pl(tate, 1))
        assert check_cocycle_rule(tangent_pl(tate, 3))

    def test_canonical_sampled_at_half_integers(self, tate):
        f = tangent_pl(tate, 2)  # tangents at (1/2)Z
        assert check_cocycle_rule(f)

    def test_corrupted_clone_fails(self, tate):
        f = tangent_pl(tate, 1)
        decomp, cmap, _ = linearity_cells(f)
        bad = Cocycle.make([[1]], [[1]], [F(1, 2) + F(1, 7)])
        clone = PeriodicPLFunction(bad, f.pieces)
        # the decomposition cached for the uncorrupted cocycle, now stale
        clone._cells_cache = (PeriodicDecomposition(bad, decomp.cells), cmap, None)
        assert not check_cocycle_rule(clone)


class TestLinearityCells:
    def test_tate_tangent_cells(self, tate):
        decomp, cmap, strict = linearity_cells(tangent_pl(tate, 1))
        assert strict
        assert [c.vertices for c in decomp.cells] == [((F(-1, 2),), (F(1, 2),))]
        assert cmap[0].m == (F(0),) and cmap[0].c == F(0)

    def test_duplicated_piece_not_strict(self, tate):
        f = PeriodicPLFunction(tate, [AffinePiece((F(0),), F(0)),
                                      AffinePiece((F(0),), F(0))])
        _, _, strict = linearity_cells(f)
        assert not strict

    def test_voronoi_cells_2d(self, two_tate):
        decomp, _, strict = linearity_cells(tangent_pl(two_tate, 1))
        assert strict
        # oracle: the b=I Voronoi cell of the origin tangent is the centered unit square
        assert [c.vertices for c in decomp.cells] == [
            hull([(F(-1, 2), F(-1, 2)), (F(1, 2), F(-1, 2)),
                  (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))]).vertices]

    def test_output_passes_check_periodic(self, two_tate):
        decomp, _, _ = linearity_cells(tangent_pl(two_tate, 2))
        assert check_periodic(decomp)

    def test_piece_attains_envelope_at_cell_vertices(self, two_tate):
        f = tangent_pl(two_tate, 2)
        decomp, cmap, _ = linearity_cells(f)
        for idx, cell in enumerate(decomp.cells):
            for v in cell.vertices:
                assert evaluate(f, v)[0] == cmap[idx].value(v)


class TestCheckPeriodic:
    def test_unit_square_tiling(self, two_tate, unit_square):
        assert check_periodic(PeriodicDecomposition(two_tate, (unit_square,)))

    def test_overlapping_interval_fails(self, tate):
        d = PeriodicDecomposition(tate, (hull([(0,), (2,)]),))
        assert not check_periodic(d)

    def test_voronoi_tiling(self, two_tate):
        cell = hull([(F(-1, 2), F(-1, 2)), (F(1, 2), F(-1, 2)),
                     (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))])
        assert check_periodic(PeriodicDecomposition(two_tate, (cell,)))

    def test_gap_fails(self):
        c = Cocycle.make([[2]], [[1]], [1])
        d = PeriodicDecomposition(c, (hull([(0,), (1,)]),))
        assert not check_periodic(d)

    def test_non_face_to_face_fails(self, two_tate):
        # two half-squares tiling, but shifted so edges meet off-face
        a = hull([(0, 0), (1, 0), (0, F(1, 2)), (1, F(1, 2))])
        b = hull([(0, F(1, 2)), (F(1, 2), F(1, 2)), (0, F(3, 2)), (F(1, 2), F(3, 2))])
        c = hull([(F(1, 2), F(1, 2)), (1, F(1, 2)), (F(1, 2), F(3, 2)), (1, F(3, 2))])
        d = PeriodicDecomposition(two_tate, (a, b, c))
        assert not check_periodic(d)


class TestCheckTransversal:
    def test_interior_point_ok(self, two_tate, unit_square):
        d = PeriodicDecomposition(two_tate, (unit_square,))
        report = check_transversal(d, [hull([(F(1, 3), F(1, 3))])])
        assert report.ok and not report.violations

    def test_segment_inside_wall_violates(self, two_tate, unit_square):
        d = PeriodicDecomposition(two_tate, (unit_square,))
        seg = hull([(0, 0), (0, F(1, 2))])
        report = check_transversal(d, [seg])
        assert not report.ok
        dims = {(s.dim, cell.dim, got, want) for s, cell, got, want in report.violations}
        assert (1, 1, 1, 0) in dims

    def test_generic_segment_ok(self, two_tate, unit_square):
        d = PeriodicDecomposition(two_tate, (unit_square,))
        seg = hull([(F(1, 5), F(1, 7)), (F(4, 5), F(1, 7))])
        report = check_transversal(d, [seg])
        assert report.ok

    def test_lemma_consistency(self, two_tate, unit_square):
        d = PeriodicDecomposition(two_tate, (unit_square,))
        for sigma in ([hull([(F(1, 3), F(1, 3))])],
                      [hull([(0, 0), (0, F(1, 2))])],
                      [hull([(F(1, 5), F(1, 7)), (F(4, 5), F(1, 7))])]):
            report = check_transversal(d, sigma)
            assert report.lemma_consistent
            assert not report.criterion_ok or report.ok
