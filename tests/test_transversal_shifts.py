"""`check_transversal` asks for shifts per σ and builds no polytope per row.

For each σ of the closure of Σ, the check reads the cell shifts whose bbox
meets σ's own (`_shifts_meeting`), so polytopes of Σ that lie far apart cost
no more than each alone.  A row holds its canonical face Δ and shift λ, and
builds Δ + λ only when `cell` is read.  Checked against the
translate-by-translate reference of `test_canonical_certificates` on the
seed-4 `approx-canonical` bench draw and on a Σ whose two polytopes lie 300
periods apart.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from test_canonical_certificates import (reference_faces, reference_rows, reference_shift,
                                         report_rows)
from test_golden_approx import COCYCLES
from test_golden_workloads import run_request

import tropma.approx as approx
import tropma.plfunc as plfunc
from tropma import Cocycle, cli, linalg, linearity_cells, tangent_pl
from tropma.plfunc import _closure_under_faces, check_transversal
from tropma.polyhedra import Polytope, hull

FAR_SIGMA = [[[0, 0], [1, 0]], [[300, 300]]]


def checked_draws(monkeypatch, run):
    """The (decomposition, Σ) of every `check_transversal` call that run() makes."""
    seen = []
    real = approx.check_transversal

    def recording(d, sigma):
        seen.append((d, sigma))
        return real(d, sigma)

    with monkeypatch.context() as m:
        m.setattr(approx, "check_transversal", recording)
        run()
    return seen


def same_affine_hull(p, q):
    """p and q have the same vertices and dimension, and their equations cut
    out the same affine hull."""
    rows = [(*a, c) for a, c in p.equations]
    both = rows + [(*a, c) for a, c in q.equations]
    return (p.vertices, p.dim) == (q.vertices, q.dim) and \
        linalg.rank(rows) == linalg.rank(both) == p.ambient_dim - p.dim


def test_rows_build_no_polytope(monkeypatch, tmp_path):
    (d, sigma), = checked_draws(
        monkeypatch, lambda: run_request("approx-canonical", 0, str(tmp_path)))
    wide = (*sigma, hull([(F(-3, 2), F(-3, 2)), (F(5, 2), F(-1, 2)), (F(1, 2), F(5, 2))]))
    built = []
    real_init = Polytope.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    reports = []
    for s in (sigma, wide):
        _closure_under_faces(tuple(s))     # Σ's own faces, cached, are built here
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(Polytope, "__init__", counting)
            report = check_transversal(d, s)
        reports.append((report, len(built)))
        assert report_rows(report) == reference_rows(d, s)
    (small, n_small), (big, n_big) = reports
    assert len(big.rows) > len(small.rows)
    assert n_small == n_big
    # a row's cell is the reference's translated face
    want = {ff.vertices: ff for s in _closure_under_faces(wide)
            for ci, k in plfunc._shifts_meeting(d, *s.bbox())
            for ff in (reference_shift(g, d.cocycle.lattice_vector(k))
                       for g in reference_faces(d.cells[ci]))}
    for row in big.rows:
        assert same_affine_hull(row.cell, want[row.cell.vertices])


def test_shifts_are_read_per_sigma(monkeypatch):
    c = Cocycle.make([[1, 0], [0, 1]], [[1, 0], [0, 1]], [F(1, 2), F(1, 2)])
    d = linearity_cells(tangent_pl(c, 2))[0]
    boxes = []
    real = plfunc._shifts_meeting

    def recording(d, lo, hi):
        boxes.append((lo, hi))
        return real(d, lo, hi)

    monkeypatch.setattr(plfunc, "_shifts_meeting", recording)
    for vertices in (FAR_SIGMA, [[[0, 0], [1, 0], [0, 1]]]):
        sigma = [hull(v) for v in vertices]
        boxes.clear()
        check_transversal(d, sigma)
        assert boxes == [s.bbox() for s in _closure_under_faces(tuple(sigma))]


def test_far_sigma(monkeypatch, tmp_path):
    # Σ = a simplex edge and a point 300 periods away, on id2 at ε = 1/4,
    # seed 1: the check reads a few shifts per σ, not every shift over a box
    # 300 periods wide
    req = tmp_path / "far.json"
    req.write_text(json.dumps({"cocycle": COCYCLES["id2"], "eps": "1/4",
                               "sigma": [{"vertices": v} for v in FAR_SIGMA]}))
    out = tmp_path / "out.json"
    draws = checked_draws(monkeypatch, lambda: cli.main(
        ["approximate", "--in", str(req), "--seed", "1", "--out", str(out)]))
    assert draws
    real = plfunc._shifts_meeting
    for d, sigma in draws:
        shifts = []

        def recording(*args):
            shifts.append(real(*args))
            return shifts[-1]

        with monkeypatch.context() as m:
            m.setattr(plfunc, "_shifts_meeting", recording)
            report = check_transversal(d, sigma)
        # one box over all of Σ holds some 90000 translates of each cell
        assert len(shifts) == len(_closure_under_faces(tuple(sigma)))
        assert sum(map(len, shifts)) <= 100
        assert report_rows(report) == reference_rows(d, sigma)
    src = Path(__file__).resolve().parents[1] / "src"
    p = subprocess.run([sys.executable, "-m", "tropma.cli", "approximate", "--in", str(req),
                        "--seed", "1"], capture_output=True, timeout=10,
                       env={**os.environ, "PYTHONPATH": str(src)})
    assert p.returncode == 0, p.stderr
    assert p.stdout.decode("utf-8") == out.read_text(encoding="utf-8")


def test_a_sigma_spanning_a_million_periods_is_refused(tmp_path):
    # Σ = the edge from (0, 0) to (10^6, 0): its box spans some 3·10^6
    # translates of each cell, so `approximate` exits 1 with the JSON error
    # that names MAX_CELL_SHIFTS, before listing any of them
    req = tmp_path / "far.json"
    req.write_text(json.dumps({"cocycle": COCYCLES["id2"], "eps": "1/4",
                               "sigma": [{"vertices": [[0, 0], [10 ** 6, 0]]}]}))
    src = Path(__file__).resolve().parents[1] / "src"
    t = time.monotonic()
    p = subprocess.run([sys.executable, "-m", "tropma.cli", "approximate", "--in", str(req),
                        "--seed", "1"], capture_output=True, timeout=10,
                       env={**os.environ, "PYTHONPATH": str(src)})
    assert time.monotonic() - t < 2
    assert p.returncode == 1, p.stderr
    error = json.loads(p.stdout)["error"]
    assert error["kind"] == "validation"
    assert f"MAX_CELL_SHIFTS = {plfunc.MAX_CELL_SHIFTS}" in error["message"]
