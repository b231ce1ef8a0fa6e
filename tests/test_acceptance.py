"""Acceptance suite: empirical exit criteria, exact where the math is exact.

Each test prints one PASS line on success (run with -s to see them inline);
tolerances are pinned in the assertions themselves.
"""

import random
import time
from fractions import Fraction as F

import pytest

from tropma import (AffineLatticeFrame, Cocycle, PeriodicDecomposition,
                    PeriodicPLFunction, approximate, assemble_measure,
                    barycentric_strictify, check_cocycle_rule, check_periodic,
                    check_transversal, evaluate, faces, hull, linearity_cells,
                    ma_pl, perturb_generic, pushforward, tangent_pl,
                    total_mass, vertex_degree)
from tropma.approx import ApproxRequest
from tropma.linalg import mat, vec
from tropma.ma import Atom, LebesguePiece, Measure
from tropma.skeleton import SkeletonFace, SkeletonSpec

FR1 = AffineLatticeFrame((F(0),), ((F(1),),))
FR2 = AffineLatticeFrame((F(0), F(0)), ((F(1), F(0)), (F(0), F(1))))


def _report(name, detail=""):
    print(f"[PASS] {name}" + (f"  ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def tate_spec(tate):
    face = SkeletonFace("top", hull([(0,), (1,)]), FR1, 0, F(1),
                        mat([[1]]), vec([0]), True)
    return SkeletonSpec(tate, 1, (face,)), face


@pytest.fixture(scope="module")
def product_spec(two_tate):
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    top = SkeletonFace("top", sq, FR2, 0, F(1),
                       mat([[1, 0], [0, 1]]), vec([0, 0]), True)
    return SkeletonSpec(two_tate, 2, (top,)), top


def test_criterion_1_tate_canonical_mass(tate_spec):
    spec, _ = tate_spec
    t0 = time.monotonic()
    total = total_mass(assemble_measure(spec, "canonical"))
    elapsed = time.monotonic() - t0
    assert total == 1
    assert elapsed < 1.0
    _report("criterion 1: Tate canonical mass = 1", f"{elapsed:.3f}s")


def test_criterion_2_product_mass(product_spec):
    spec, _ = product_spec
    t0 = time.monotonic()
    total = total_mass(assemble_measure(spec, "canonical"))
    elapsed = time.monotonic() - t0
    assert total == 2  # d! * det(b) * covol
    assert elapsed < 1.0
    _report("criterion 2: product-of-Tate-curves mass = 2", f"{elapsed:.3f}s")


def test_criterion_3_mass_invariance(tate, two_tate, tate_spec, product_spec):
    t0 = time.monotonic()
    for cocycle, (spec, _) in ((tate, tate_spec), (two_tate, product_spec)):
        want = total_mass(assemble_measure(spec, "canonical"))
        for k in (1, 2, 3, 5):
            got = total_mass(assemble_measure(spec, tangent_pl(cocycle, k)))
            assert got == want
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("criterion 3: mass invariance across k in {1,2,3,5}", f"{elapsed:.1f}s")


def _soundness_check(cocycle, f, bound, rng):
    for _ in range(200):
        w = tuple(F(rng.randint(-300, 300), rng.choice((89, 97, 101)))
                  for _ in range(cocycle.n))
        assert abs(cocycle.canonical_value(w) - evaluate(f, w)[0]) <= bound


def test_criterion_4_approximation_soundness(tate, two_tate):
    simplex_faces = tuple(faces(hull([(0, 0), (1, 0), (0, 1)])))
    worst = 0.0
    for cocycle, sigma in ((tate, ()), (two_tate, simplex_faces)):
        for eps in (F(1, 4), F(1, 64)):
            for seed in range(10):
                t0 = time.monotonic()
                f, decomp, cert = approximate(ApproxRequest(
                    cocycle=cocycle, eps=eps, rng_seed=seed, sigma=sigma,
                    max_retries=50))
                elapsed = time.monotonic() - t0
                worst = max(worst, elapsed)
                assert elapsed < 30.0
                assert cert.retries_used <= 50
                assert cert.sup_error_bound <= eps
                assert cert.strictly_convex and cert.periodic
                if sigma:
                    assert cert.transversal is not None and cert.transversal.ok
                if seed == 0:
                    _soundness_check(cocycle, f, cert.sup_error_bound,
                                     random.Random(13))
                    assert check_periodic(decomp)
                    if sigma:
                        assert check_transversal(decomp, sigma).ok
    _report("criterion 4: approximation soundness over 10 seeds x 2 eps x 2 cocycles",
            f"worst run {worst:.1f}s")


def _random_strict_function(cocycle, k, seed):
    """A random strictly convex periodic PL function with k^2 pieces."""
    from tropma.approx import _rand_frac
    from tropma.plfunc import AffinePiece
    base = tangent_pl(cocycle, k)
    rng = random.Random(seed)
    for _ in range(20):
        pieces = []
        for p in base.pieces:
            dm = tuple(x + _rand_frac(rng, F(1, 40)) for x in p.m)
            pieces.append(AffinePiece(dm, p.c + _rand_frac(rng, F(1, 40))))
        f = PeriodicPLFunction(cocycle, pieces)
        if linearity_cells(f)[2]:
            return f
    raise AssertionError("could not draw a strictly convex function")


def test_criterion_5_subdifferential_oracle():
    from tropma.sampling import sampled_subdifferential_volume
    t0 = time.monotonic()
    forms = [((1, 0), (0, 1)), ((2, 1), (1, 2)), ((1, 0), (0, 2))]
    checked_atoms = 0
    for i in range(25):
        c = Cocycle.make([[1, 0], [0, 1]], forms[i % 3], [F(1, 2), F(1, 2)])
        f = _random_strict_function(c, 2 if i % 2 else 3, seed=100 + i)
        assert len(f.pieces) <= 12
        mu = ma_pl(f)
        assert mu.atoms
        for a in mu.atoms:
            est = sampled_subdifferential_volume(f, a.at, 100_000, seed=i)
            assert abs(est - float(a.mass)) <= 0.02 * float(a.mass)
            checked_atoms += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("criterion 5: sampling oracle within 2% per atom",
            f"{checked_atoms} atoms, {elapsed:.1f}s")


def test_criterion_6_degree_formula(two_tate, product_spec):
    spec, top = product_spec
    f = tangent_pl(two_tate, 1)
    degree_sum = vertex_degree(spec, top, f, (F(1, 2), F(1, 2)))
    total = total_mass(assemble_measure(spec, f))
    assert degree_sum == total == 2
    _report("criterion 6: degree formula sum = assembled mass = 2")


def test_criterion_7_pushforward_conservation():
    rng = random.Random(23)
    box = hull([(-12, -12), (12, -12), (-12, 12), (12, 12)])
    for trial in range(20):
        atoms = tuple(Atom((F(rng.randint(-20, 20), 4), F(rng.randint(-20, 20), 4)),
                           F(rng.randint(1, 12), 5)) for _ in range(rng.randint(1, 5)))
        pieces = []
        for _ in range(rng.randint(1, 3)):
            x0 = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
            pieces.append(LebesguePiece(
                hull([x0, (x0[0] + 2, x0[1]), (x0[0], x0[1] + 1)]),
                FR2, F(rng.randint(1, 7), 3)))
        mu = Measure(atoms=atoms, lebesgue_pieces=tuple(pieces))
        lin = ((1, 0), (0, 1))
        for _ in range(3):
            s = rng.randint(-2, 2)
            if rng.random() < 0.5:
                lin = ((lin[0][0] + s * lin[1][0], lin[0][1] + s * lin[1][1]), lin[1])
            else:
                lin = (lin[0], (lin[1][0] + s * lin[0][0], lin[1][1] + s * lin[0][1]))
        off = vec([rng.randint(-5, 5), rng.randint(-5, 5)])
        out = pushforward(mu, [(box, mat(lin), off, FR2)])
        assert total_mass(out) == total_mass(mu)
    _report("criterion 7: 20 randomized pushforwards conserve mass exactly")


def test_criterion_8_transversality_cross_validation():
    rng = random.Random(31)
    forms = [((1, 0), (0, 1)), ((2, 1), (1, 2))]
    decomps = []
    for i in range(10):
        c = Cocycle.make([[1, 0], [0, 1]], forms[i % 2], [F(1, 2), F(1, 2)])
        f, _ = perturb_generic(tangent_pl(c, 1 + i % 2), (), F(1, 8),
                               seed=200 + i, max_retries=50)
        decomps.append(linearity_cells(f)[0])
    rows_checked = 0
    for i in range(50):
        d = decomps[i % 10]

        def rnd():
            return F(rng.randint(-6, 18), 12)

        kind = i % 3
        if kind == 0:
            sigma = [hull([(rnd(), rnd())])]
        elif kind == 1:
            sigma = [hull([(rnd(), rnd()), (rnd(), rnd())])]
        else:
            sigma = [hull([(rnd(), rnd()), (rnd(), rnd()), (rnd(), rnd())])]
        report = check_transversal(d, sigma)
        assert report.lemma_consistent
        for row in report.rows:
            rows_checked += 1
            assert not (row.criterion_ok and not row.definition_ok)
    _report("criterion 8: no criterion-pass/definition-fail row",
            f"{rows_checked} rows over 50 instances")


def test_criterion_9_negative_controls(tate, two_tate):
    # corrupting z_1(0) by 1/7 breaks the cocycle-rule consistency check
    f = tangent_pl(tate, 1)
    decomp, cmap, _ = linearity_cells(f)
    assert check_cocycle_rule(f)
    bad = Cocycle.make([[1]], [[1]], [F(1, 2) + F(1, 7)])
    clone = PeriodicPLFunction(bad, f.pieces)
    # the decomposition cached for the uncorrupted cocycle, now stale
    clone._cells_cache = (PeriodicDecomposition(bad, decomp.cells), cmap, None)
    assert not check_cocycle_rule(clone)

    # skipping the perturbation stage leaves a cell vertex on Σ
    f2 = barycentric_strictify(tangent_pl(two_tate, 1), F(1, 12))
    decomp2, _, _ = linearity_cells(f2)
    vertex = decomp2.cells[0].vertices[0]
    sigma = (hull([vertex]),)
    assert not check_transversal(decomp2, sigma).ok
    f3, cert = perturb_generic(f2, sigma, F(1, 12), seed=9, max_retries=50)
    assert cert.transversal.ok
    _report("criterion 9: negative controls fail as required")
