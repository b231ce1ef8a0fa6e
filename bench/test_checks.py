"""Controls for the benchmark's own checks: right outputs pass, altered ones fail.

    python3 -m pytest -q bench/test_checks.py

These need no tropma: the outputs are built with bench/exact.py.
"""

import copy
import json
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
from exact import Cocycle, enc, envelope, tangent_pieces  # noqa: E402

ID2 = gen.COCYCLES["id2"]


def _ma_measure(masses):
    atoms = [{"at": [enc(F(i, 7)), 0], "mass": enc(m)} for i, m in enumerate(masses)]
    return {"atoms": atoms, "pieces": [], "total": enc(sum(masses, F(0)))}


def _approximant(mesh=2, bound=F(1, 16)):
    """Tangent envelope of q for b = I at mesh 2 and its square cells.

    The sup distance to q is 1/16, reached at the cell corners.
    """
    pieces = [{"m": [enc(x) for x in m], "c": enc(c)}
              for m, c in tangent_pieces(Cocycle(ID2), mesh)]
    cert = {"sup_error_bound": enc(bound), "strictly_convex": True, "periodic": True,
            "transversal": {"ok": True, "criterion_ok": True, "violations": []},
            "retries_used": 0}
    cells = [{"vertices": [[enc(F(2 * i + a, 4)), enc(F(2 * j + b, 4))]
                           for a in (-1, 1) for b in (-1, 1)]}
             for i in range(mesh) for j in range(mesh)]
    return {"function": {"cocycle": ID2, "pieces": pieces}, "certificate": cert,
            "decomposition": {"cocycle": ID2, "cells": cells}}


REQUEST = {"cocycle": ID2, "sigma": [{"vertices": v} for v in gen.SIMPLEX_FACES]}
MA_OK = _ma_measure([F(1, 4)] * 4)


def test_envelope_matches_the_tangent_gap():
    c = Cocycle(ID2)
    pieces = tangent_pieces(c, 2)
    assert envelope(c, pieces, [F(1, 2), F(-3, 2)]) == c.canonical([F(1, 2), F(-3, 2)])
    # the Voronoi vertex (1/4, 1/4) of the mesh (1/2)Z^2 sits b(v,v)/2 = 1/16 below q
    w = [F(1, 4), F(9, 4)]
    assert c.canonical(w) - envelope(c, pieces, w) == F(1, 16)


def test_approximation_accepts_a_sound_approximant():
    assert checks.check_approximation(_approximant(), REQUEST, F(1, 8), MA_OK, seed=3) is None


def test_approximation_rejects_a_piece_raised_by_more_than_eps():
    eps = F(1, 8)
    bad = copy.deepcopy(_approximant())
    piece = bad["function"]["pieces"][1]
    piece["c"] = enc(F(piece["c"]) + eps + F(1, 1000))
    assert "|q - f|" in checks.check_approximation(bad, REQUEST, eps, MA_OK, seed=3)


def test_approximation_rejects_a_bound_above_eps_or_a_failed_certificate():
    assert "exceeds eps" in checks.check_approximation(
        _approximant(bound=F(1, 4)), REQUEST, F(1, 8), MA_OK, seed=3)
    bad = _approximant()
    bad["certificate"]["transversal"]["ok"] = False
    assert "transversal" in checks.check_approximation(bad, REQUEST, F(1, 8), MA_OK, seed=3)


def test_approximation_rejects_an_understated_bound():
    # the true sup distance is 1/16; a certificate claiming 1/20 must fail
    assert "|q - f|" in checks.check_approximation(
        _approximant(bound=F(1, 20)), REQUEST, F(1, 8), MA_OK, seed=3)


def test_ma_total_rejects_one_changed_atom():
    function = {"cocycle": ID2, "pieces": []}
    assert checks.check_ma_total(MA_OK, function) is None
    bad = copy.deepcopy(MA_OK)
    bad["atoms"][2]["mass"] = "1/5"
    assert "total mass" in checks.check_ma_total(bad, function)
    bad["total"] = enc(F(1, 4) * 3 + F(1, 5))
    assert "total mass" in checks.check_ma_total(bad, function)
    assert "total mass" in checks.check_approximation(_approximant(), REQUEST, F(1, 8), bad,
                                                       seed=3)


def _spec(workload, name, tmp_path):
    gen.generate(workload, 5, str(tmp_path))
    return json.loads((tmp_path / f"skeleton_{name}.json").read_text())


def test_expected_skeleton_totals(tmp_path):
    # (d!/e!)·det(LᵀbL)·vol: 2·1 and 2·3 in the plane; 2·3 and 2·(3+3+4) in R^3
    assert checks.expected_skeleton_total(_spec("measure-2d", "id2", tmp_path)) == 2
    assert checks.expected_skeleton_total(_spec("measure-2d", "skew2", tmp_path)) == 6
    assert checks.expected_skeleton_total(_spec("restrict-3d", "id3", tmp_path)) == 6
    assert checks.expected_skeleton_total(_spec("restrict-3d", "skew3", tmp_path)) == 20


def test_skeleton_checks_reject_one_changed_mass(tmp_path):
    spec = _spec("measure-2d", "skew2", tmp_path)
    good = _ma_measure([F(3, 25)] * 50)
    assert checks.check_skeleton_total(good, spec) is None
    bad = copy.deepcopy(good)
    bad["atoms"][0]["mass"] = "1/8"
    assert checks.check_skeleton_total(bad, spec) is not None
    canonical = {"atoms": [], "total": 6, "pieces": [{
        "support": {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
        "frame": {"basepoint": [0, 0], "basis": [[1, 0], [0, 1]]}, "density": 6}]}
    assert checks.check_skeleton_total(canonical, spec) is None
    canonical["pieces"][0]["density"] = 5
    assert checks.check_skeleton_total(canonical, spec) is not None
    report = {"degrees": [{"degree": "3/25"}] * 50, "total": 6}
    assert checks.check_degree_total(report, spec) is None
    report["degrees"] = report["degrees"][:-1]
    assert checks.check_degree_total(report, spec) is not None
    assert checks.check_mass_check({"equal": True, "totals": {"canonical": 6, "f": 6}},
                                   spec) is None
    assert checks.check_mass_check({"equal": True, "totals": {"canonical": 6, "f": 5}},
                                   spec) is not None


def test_generator_is_a_function_of_the_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for workload in gen.WORKLOADS:
        gen.generate(workload, 7, str(a))
        gen.generate(workload, 7, str(b))
        gen.generate(workload, 8, str(c))
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
        assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)
