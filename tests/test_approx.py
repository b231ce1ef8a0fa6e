import random
from fractions import Fraction as F

import pytest

from tropma import (AffinePiece, CellWalkError, PeriodicPLFunction, approximate,
                    barycentric_strictify, check_cocycle_rule, check_periodic,
                    check_transversal, evaluate, faces, hull, linearity_cells,
                    perturb_generic, tangent_pl)
from tropma.approx import (ApproxRequest, PerturbationError,
                           StrictificationError, _sup_diff, genericity_conditions,
                           tangent_gap)
from tropma.jsonio import enc_function


def strictified(f, delta):
    """barycentric_strictify(f, delta), with its certified sup error checked
    against the top-face drop: f - g is affine on each barycentric simplex and
    largest at a cell barycenter."""
    g = barycentric_strictify(f, delta)
    drops = {evaluate(f, b)[0] - evaluate(g, b)[0]
             for b in (cell.barycenter() for cell in linearity_cells(f)[0].cells)}
    assert len(drops) == 1 and 0 < min(drops) <= delta
    assert _sup_diff(f, g) == min(drops)
    return g


def simplex_sigma():
    return (hull([(0, 0), (1, 0), (0, 1)]),)


@pytest.fixture(scope="module")
def tate_run(tate):
    return approximate(ApproxRequest(cocycle=tate, eps=F(1, 4), rng_seed=7))


@pytest.fixture(scope="module")
def two_tate_run(two_tate):
    req = ApproxRequest(cocycle=two_tate, eps=F(1, 4), rng_seed=3,
                        sigma=simplex_sigma())
    return approximate(req)


class TestTangentPL:
    def test_tate_k1(self, tate):
        f = tangent_pl(tate, 1)
        assert [(p.m, p.c) for p in f.pieces] == [((F(0),), F(0))]
        assert [c.vertices for c in f.cells.cells] == [((F(-1, 2),), (F(1, 2),))]
        assert tangent_gap(f) == F(1, 8)

    def test_tate_k2_gap(self, tate):
        assert tangent_gap(tangent_pl(tate, 2)) == F(1, 32)

    def test_gap_scales_inverse_square(self, tate):
        g1 = tangent_gap(tangent_pl(tate, 1))
        for k in (2, 3, 5):
            assert tangent_gap(tangent_pl(tate, k)) == g1 / (k * k)

    def test_two_dim_corner_gap(self, two_tate):
        assert tangent_gap(tangent_pl(two_tate, 1)) == F(1, 4)

    def test_envelope_below_quadratic(self, tate):
        f = tangent_pl(tate, 3)
        rng = random.Random(2)
        for _ in range(30):
            w = (F(rng.randint(-30, 30), 11),)
            gap = tate.canonical_value(w) - evaluate(f, w)[0]
            assert 0 <= gap <= F(1, 72)


class TestBarycentricStrictify:
    def test_already_strict_stays_within_delta(self, tate):
        f = tangent_pl(tate, 1)
        g = strictified(f, F(1, 10))
        _, _, strict = linearity_cells(g)
        assert strict
        rng = random.Random(6)
        for _ in range(25):
            w = (F(rng.randint(-30, 30), 13),)
            diff = evaluate(f, w)[0] - evaluate(g, w)[0]
            assert 0 <= diff <= F(1, 10)

    def test_tate_k1_gains_midpoint_vertices(self, tate):
        # the cell [-1/2, 1/2] splits at its midpoint; the walk keeps the
        # canonical translates of the halves
        g = strictified(tangent_pl(tate, 1), F(1, 12))
        decomp, _, strict = linearity_cells(g)
        assert strict
        assert sorted(c.vertices for c in decomp.cells) == [
            ((F(0),), (F(1, 2),)), ((F(1, 2),), (F(1),))]

    def test_duplicated_piece_tie_broken(self, tate):
        f = PeriodicPLFunction(tate, [AffinePiece((F(0),), F(0)),
                                      AffinePiece((F(0),), F(0))])
        assert not linearity_cells(f)[2]
        g = strictified(f, F(1, 8))
        assert linearity_cells(g)[2]

    def test_cocycle_rule_preserved(self, two_tate):
        g = strictified(tangent_pl(two_tate, 1), F(1, 12))
        assert check_cocycle_rule(g)

    def test_rejects_nonpositive_delta(self, tate):
        with pytest.raises(ValueError, match="delta"):
            barycentric_strictify(tangent_pl(tate, 1), F(0))

    def test_exhausted_retries_raise(self, tate, monkeypatch):
        import tropma.approx as ax
        monkeypatch.setattr(ax, "_build_barycentric", lambda *a, **k: None)
        with pytest.raises(StrictificationError, match="strictification failed"):
            barycentric_strictify(tangent_pl(tate, 1), F(1, 12))


class TestPerturbGeneric:
    def test_empty_sigma_first_draw(self, tate):
        f = strictified(tangent_pl(tate, 2), F(1, 12))
        out, cert = perturb_generic(f, (), F(1, 12), seed=1, max_retries=50)
        assert cert.retries_used == 0
        assert cert.strictly_convex and cert.periodic
        assert cert.sup_error_bound < F(1, 12)

    def test_sigma_point_at_origin_cleared(self, tate):
        # the strictified complex has a vertex at 0; perturbation must move it
        f = strictified(tangent_pl(tate, 1), F(1, 12))
        decomp0, _, _ = linearity_cells(f)
        assert any(v == (F(0),) for c in decomp0.cells for v in c.vertices)
        origin = hull([(0,)])
        out, cert = perturb_generic(f, (origin,), F(1, 12), seed=2, max_retries=50)
        decomp, _, _ = linearity_cells(out)
        assert all(v != (F(0),) for c in decomp.cells for v in c.vertices)
        assert cert.transversal.ok

    def test_diagonal_segment_2d(self, two_tate):
        f = strictified(tangent_pl(two_tate, 1), F(1, 12))
        seg = hull([(0, 0), (1, 1)])
        out, cert = perturb_generic(f, (seg,), F(1, 12), seed=4, max_retries=50)
        assert cert.transversal.ok
        for row in cert.transversal.rows:
            if row.intersection_dim >= 0:
                assert row.intersection_dim == row.expected

    def test_requires_strict_input(self, tate):
        f = PeriodicPLFunction(tate, [AffinePiece((F(0),), F(0)),
                                      AffinePiece((F(0),), F(0))])
        with pytest.raises(ValueError, match="strictly convex"):
            perturb_generic(f, (), F(1, 4), seed=0, max_retries=5)

    @pytest.mark.parametrize("failure, outcome", [
        (CellWalkError("cell walk failed to stabilize"), PerturbationError),
        (RuntimeError("not a cell-walk failure"), RuntimeError)])
    def test_only_cell_walk_failures_are_retried(self, tate, monkeypatch, failure,
                                                 outcome):
        import tropma.approx as ax
        f = tangent_pl(tate, 2)
        real = ax.linearity_cells

        def failing_on_draws(g):
            if g is not f:
                raise failure
            return real(g)

        monkeypatch.setattr(ax, "linearity_cells", failing_on_draws)
        with pytest.raises(outcome) as info:
            perturb_generic(f, (), F(1, 12), seed=0, max_retries=2)
        assert info.type is outcome
        if outcome is PerturbationError:
            assert info.value.last_failure == "cell extraction"

    def test_retries_exhausted(self, tate, monkeypatch):
        import tropma.approx as ax
        monkeypatch.setattr(ax, "_rand_frac", lambda rng, r, grain=4096: F(0))
        f = strictified(tangent_pl(tate, 1), F(1, 12))
        origin = hull([(0,)])  # unperturbed complex has a vertex at 0
        with pytest.raises(PerturbationError, match="retries exhausted.*condition II"):
            perturb_generic(f, (origin,), F(1, 12), seed=0, max_retries=3)


class TestGenericityConditions:
    def test_equal_slopes_fail_condition_one(self):
        sigma = (hull([(0,), (1,)]),)  # dim n: no hyperplane normals
        pieces = [AffinePiece((F(1, 3),), F(0)), AffinePiece((F(1, 3),), F(1, 5))]
        ok, why = genericity_conditions(pieces, sigma, 1)
        assert not ok and "condition I" in why

    def test_generic_slopes_pass(self):
        sigma = (hull([(0,), (1,)]),)
        pieces = [AffinePiece((F(1, 3),), F(0)), AffinePiece((F(2, 7),), F(1, 5))]
        ok, _ = genericity_conditions(pieces, sigma, 1)
        assert ok

    def test_condition_two_detects_forced_tie(self):
        # σ is the origin in R^1: #I=1, pairs give p=1, so #I+p = n+1 = 2;
        # two pieces tying exactly at 0 solve the system, failing condition II
        sigma = (hull([(0,)]),)
        pieces = [AffinePiece((F(1),), F(0)), AffinePiece((F(2),), F(0))]
        ok, why = genericity_conditions(pieces, sigma, 1)
        assert not ok and "condition II" in why


class TestApproximate:
    def test_tate_stage_arithmetic(self, tate, tate_run):
        f, decomp, cert = tate_run
        # eps/2 = 1/8: the k=1 gap 1/8 fits, so stage 1 is the one-piece
        # envelope; it is certified strict, so strictification is skipped and
        # the perturbation gets the remaining 1/8
        assert cert.mesh_k == 1 and len(f.pieces) == 1
        assert cert.stage_errors.tangent == F(1, 8)
        assert cert.stage_errors.strictify is None
        assert 0 < cert.stage_errors.perturb < F(1, 8)
        assert cert.sup_error_bound == F(1, 8) + cert.stage_errors.perturb
        assert cert.sup_error_bound <= F(1, 4)
        assert cert.strictly_convex and cert.periodic

    def test_soundness_at_random_points(self, tate, tate_run):
        f, _, cert = tate_run
        rng = random.Random(0)
        for _ in range(200):
            w = (F(rng.randint(-400, 400), rng.randint(97, 101)),)
            assert abs(tate.canonical_value(w) - evaluate(f, w)[0]) <= cert.sup_error_bound

    def test_output_validates(self, tate_run):
        f, decomp, _ = tate_run
        assert check_cocycle_rule(f)
        assert check_periodic(decomp)

    def test_two_tate_with_simplex_sigma(self, two_tate, two_tate_run):
        f, decomp, cert = two_tate_run
        assert cert.sup_error_bound <= F(1, 4)
        assert cert.transversal is not None and cert.transversal.ok
        report = check_transversal(decomp, simplex_sigma())
        assert report.ok and report.lemma_consistent

    def test_two_tate_soundness(self, two_tate, two_tate_run):
        f, _, cert = two_tate_run
        rng = random.Random(1)
        for _ in range(200):
            w = tuple(F(rng.randint(-200, 200), 89) for _ in range(2))
            assert abs(two_tate.canonical_value(w) - evaluate(f, w)[0]) \
                <= cert.sup_error_bound

    def test_deterministic(self, tate, tate_run):
        f1, _, cert1 = tate_run
        f2, _, cert2 = approximate(ApproxRequest(cocycle=tate, eps=F(1, 4), rng_seed=7))
        assert enc_function(f1) == enc_function(f2)
        assert cert1.sup_error_bound == cert2.sup_error_bound

    def test_pl_function_target(self, tate):
        target = tangent_pl(tate, 2)
        req = ApproxRequest(function=target, eps=F(1, 8), rng_seed=5)
        f, decomp, cert = approximate(req)
        assert cert.sup_error_bound <= F(1, 8)
        assert cert.mesh_k is None and cert.stage_errors.tangent is None
        assert cert.stage_errors.strictify is None  # the target is certified strict
        rng = random.Random(7)
        for _ in range(50):
            w = (F(rng.randint(-50, 50), 23),)
            assert abs(evaluate(target, w)[0] - evaluate(f, w)[0]) <= cert.sup_error_bound

    def test_request_validation(self, tate):
        with pytest.raises(ValueError, match="positive"):
            ApproxRequest(cocycle=tate, eps=F(0))
        with pytest.raises(ValueError, match="exactly one target"):
            ApproxRequest(eps=F(1, 4))
        with pytest.raises(ValueError, match="polytopes"):
            ApproxRequest(cocycle=tate, eps=F(1, 4), sigma=("nope",))
