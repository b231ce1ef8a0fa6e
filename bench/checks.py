"""Independent correctness checks of tropma's CLI outputs.

Every expected value is recomputed here from the generated inputs with the
benchmark's own exact arithmetic (bench/exact.py), never read from a stored
copy of an earlier output and never from tropma's evaluator.  Each check
returns None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from exact import Cocycle, convex_area, det, envelope, matmul, matvec, q, solve, transpose

CHECK_POINTS = 8


def expected_ma_total(cocycle: dict) -> Fraction:
    """Total MA mass of any Λ-periodic convex function per fundamental domain."""
    c = Cocycle(cocycle)
    return det(c.b) * c.covolume()


def expected_skeleton_total(spec: dict) -> Fraction:
    """Σ over nondegenerate faces of (d!/e!)·deg_H·det(LᵀbL)·vol(carrier)."""
    b = [[q(x) for x in r] for r in spec["cocycle"]["b"]]
    d = int(spec["d"])
    total = Fraction(0)
    for face in spec["faces"]:
        lin = [[q(x) for x in r] for r in face["f_aff"]["L"]]
        k = len(face["frame"]["basis"])
        if not face["abelian_nondegenerate"]:
            continue
        if k and det(matmul(transpose(lin), lin)) == 0:
            continue                                  # linearization drops rank
        hess = matmul(matmul(transpose(lin), b), lin)
        density = det(hess) if k else Fraction(1)
        scale = Fraction(math.factorial(d), math.factorial(int(face["e"]))) * q(face["degH"])
        total += scale * density * _volume(face["carrier"]["vertices"], face["frame"])
    return total


def _frame_coords(point, frame: dict) -> list[Fraction]:
    base = [q(x) for x in frame["basepoint"]]
    basis = [[q(x) for x in v] for v in frame["basis"]]
    diff = [q(x) - y for x, y in zip(point, base)]
    # the basis spans the point's affine hull, so the normal equations have
    # the exact frame coordinates as their unique solution
    gram = matmul(basis, transpose(basis))
    return solve(gram, matvec(basis, diff))


def _volume(vertices, frame: dict) -> Fraction:
    """Lebesgue volume in frame coordinates, for carriers of dimension <= 2."""
    k = len(frame["basis"])
    coords = [_frame_coords(v, frame) for v in vertices]
    if k == 0:
        return Fraction(1)
    if k == 1:
        xs = [y[0] for y in coords]
        return max(xs) - min(xs)
    if k == 2:
        return convex_area(coords)
    raise ValueError("carriers of dimension > 2 are not generated by this benchmark")


def measure_total(measure: dict) -> Fraction:
    """Atom masses plus density·volume of each Lebesgue piece, recomputed."""
    total = Fraction(0)
    for a in measure.get("atoms", []):
        total += q(a["mass"])
    for p in measure.get("pieces", []):
        total += q(p["density"]) * _volume(p["support"]["vertices"], p["frame"])
    return total


def _measure_problem(measure: dict, want: Fraction) -> str | None:
    if any(q(a["mass"]) <= 0 for a in measure.get("atoms", [])):
        return "an atom has nonpositive mass"
    got = measure_total(measure)
    if got != want:
        return f"total mass {got} != expected {want}"
    if q(measure["total"]) != got:
        return f"reported total {measure['total']} != sum of its parts {got}"
    return None


def check_ma_total(measure: dict, function: dict) -> str | None:
    return _measure_problem(measure, expected_ma_total(function["cocycle"]))


def check_skeleton_total(measure: dict, spec: dict) -> str | None:
    return _measure_problem(measure, expected_skeleton_total(spec))


def check_mass_check(report: dict, spec: dict) -> str | None:
    want = expected_skeleton_total(spec)
    if report.get("equal") is not True:
        return "mass-check did not report equal: true"
    for name, total in report["totals"].items():
        if q(total) != want:
            return f"mass-check total of {name} is {total}, expected {want}"
    return None


def check_degree_total(report: dict, spec: dict) -> str | None:
    want = expected_skeleton_total(spec)
    degrees = [q(r["degree"]) for r in report["degrees"]]
    if any(x <= 0 for x in degrees):
        return "a vertex degree is nonpositive"
    if sum(degrees, Fraction(0)) != q(report["total"]):
        return "degree total is not the sum of its rows"
    if q(report["total"]) != want:
        return f"degree total {report['total']} != expected {want}"
    return None


def _rationals(v):
    return [_rationals(x) for x in v] if isinstance(v, list) else q(v)


def tangent_points(c: Cocycle, pieces) -> list[list[Fraction]]:
    """For each piece, the point where ∇q equals its slope: q - piece is least there."""
    return [solve(c.b, [x - e for x, e in zip(m, c.ell)]) for m, _ in pieces]


def check_approximation(artifact: dict, request: dict, eps: Fraction, ma_measure: dict,
                        seed: int) -> str | None:
    """Certificate, sup distance to the canonical quadratic, and total MA mass.

    |q - f| must not exceed the certified bound, with f a brute-force max over
    lattice translates, at every vertex of the artifact's cells (where q - f
    peaks on a cell), at the tangent point of every piece (where f - q peaks)
    and at seeded random rational points.
    """
    cert = artifact["certificate"]
    bound = q(cert["sup_error_bound"])
    if not bound <= eps:
        return f"certified bound {bound} exceeds eps {eps}"
    if cert["strictly_convex"] is not True or cert["periodic"] is not True:
        return "certificate is not strictly convex and periodic"
    trans = cert["transversal"]
    if request.get("sigma") and (trans is None or trans["ok"] is not True):
        return "certificate is not transversal to sigma"
    function = artifact["function"]
    for key in ("periods", "b", "z0"):
        if _rationals(function["cocycle"][key]) != _rationals(request["cocycle"][key]):
            return f"approximant cocycle {key} differs from the request"
    c = Cocycle(function["cocycle"])
    pieces = [([q(x) for x in p["m"]], q(p["c"])) for p in function["pieces"]]
    rng = random.Random(seed)
    points = tangent_points(c, pieces)
    points += sorted({tuple(q(x) for x in v) for cell in artifact["decomposition"]["cells"]
                      for v in cell["vertices"]})
    points += [[Fraction(rng.randint(-150, 300), rng.choice((89, 97, 101))) for _ in range(c.n)]
               for _ in range(CHECK_POINTS)]
    for w in points:
        err = abs(c.canonical(w) - envelope(c, pieces, w))
        if err > bound:
            return f"|q - f| = {err} > bound {bound} at {[str(x) for x in w]}"
    return _measure_problem(ma_measure, expected_ma_total(function["cocycle"]))
