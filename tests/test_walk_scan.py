"""One envelope scan per function, built for the box its cell walk clips.

A periodic function's scan is certified on its box only, so `eval` refuses a
point outside it, also under `python -O`.  Strictification reads its targets
off one scan that covers them and the first box of its candidate's cell walk,
so an accepted candidate is walked on that scan; and `approximate` on a
canonical target builds one scan per walked function, for exactly the box its
walk clips first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import tropma.approx as ax
import tropma.envelope as envelope
import tropma.plfunc as pl
from tropma.approx import ApproxRequest, approximate, barycentric_strictify, tangent_pl
from tropma.cocycle import Cocycle
from tropma.envelope import PeriodicPLFunction
from tropma.errors import CertificateError
from tropma.polyhedra import hull

I2 = [[1, 0], [0, 1]]
ID2 = Cocycle.make(I2, I2, [F(1, 2)] * 2)
SKEW2 = Cocycle.make(I2, [[2, 1], [1, 2]], [1, 1])
SIMPLEX_FACES = [[(0, 0)], [(1, 0)], [(0, 1)], [(0, 0), (1, 0)], [(0, 0), (0, 1)],
                 [(1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]]


@pytest.fixture()
def off_box(monkeypatch):
    """The points each scan was read at outside its box, on a cache miss."""
    reads = []
    original = envelope._EnvelopeScan.eval

    def recording(self, point):
        if point not in self._cache and not self.covers(point, point):
            reads.append(point)
        return original(self, point)

    monkeypatch.setattr(envelope._EnvelopeScan, "eval", recording)
    return reads


def test_a_periodic_scan_refuses_a_point_outside_its_box():
    f = PeriodicPLFunction(ID2, tangent_pl(ID2, 2).pieces)
    scan = f.scan_for((F(0), F(0)), (F(1), F(1)))
    assert scan.eval((F(1), F(1)))[0] == f.value((F(1), F(1)))
    with pytest.raises(CertificateError):
        scan.eval((F(1), F(1) + F(1, 1000)))
    # a function with no cocycle keeps every piece, so its scan holds everywhere
    g = PeriodicPLFunction(None, f.pieces)
    assert g.scan_for((F(0), F(0)), (F(0), F(0))).eval((F(5), F(-3)))[0] == \
        max(p.value((F(5), F(-3))) for p in f.pieces)


def test_the_box_check_runs_under_python_O():
    code = ("from fractions import Fraction as F\n"
            "from tropma.cocycle import Cocycle\n"
            "from tropma.envelope import AffinePiece, PeriodicPLFunction\n"
            "from tropma.errors import CertificateError\n"
            "c = Cocycle.make([[1, 0], [0, 1]], [[1, 0], [0, 1]], [F(1, 2)] * 2)\n"
            "f = PeriodicPLFunction(c, [AffinePiece((F(0), F(0)), F(0))])\n"
            "scan = f.scan_for((F(0), F(0)), (F(1), F(1)))\n"
            "try:\n"
            "    scan.eval((F(2), F(0)))\n"
            "except CertificateError:\n"
            "    print('refused')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "refused\n"


@pytest.mark.parametrize("b,k", [([[10, 3], [3, 1]], 1), ([[10, 3], [3, 1]], 2),
                                 ([[10, 3], [3, 1]], 3), ([[3, 1], [1, 1]], 2),
                                 ([[3, 1], [1, 1]], 3)],
                         ids=["thin-1", "thin-2", "thin-3", "skew-2", "skew-3"])
def test_strictification_reads_every_target_inside_its_scan(b, k, off_box):
    # the cells of these forms reach past the candidate's first walk box, so
    # a scan of that box alone would be read off its box at some targets
    f = tangent_pl(Cocycle.make(I2, b, [0, 0]), k)
    g = barycentric_strictify(f, F(1, 8))
    assert off_box == []
    assert len(g.pieces) > len(f.pieces) and pl.linearity_cells(g)[2]


# the approximate requests of bench/gen.py's approx-canonical workload at seed 4
@pytest.mark.parametrize("c,seed", [(ID2, 506909419), (ID2, 651328766),
                                    (SKEW2, 221547363), (SKEW2, 850528596)],
                         ids=["id2-0", "id2-1", "skew2-0", "skew2-1"])
def test_approximate_builds_one_scan_per_walk_on_its_first_box(c, seed, builds, monkeypatch):
    # tangent_pl(c, 1), tangent_pl(c, 2) and the accepted draw: each walk
    # clips its first box, on the one scan built for that box
    walks = []
    walk = pl._walk_cells

    def recording(f, box_lo, box_hi):
        walks.append((f, box_lo, box_hi))
        return walk(f, box_lo, box_hi)

    monkeypatch.setattr(pl, "_walk_cells", recording)
    sigma = tuple(hull(v) for v in SIMPLEX_FACES)
    _, _, cert = approximate(ApproxRequest(cocycle=c, sigma=sigma, eps=F(1, 4), rng_seed=seed))
    assert cert.ok and cert.retries_used == 0 and cert.mesh_k == 2
    assert len(builds) == 3
    for f, lo, hi in builds:
        first = next(box for g, *box in walks if g is f)
        assert [lo, hi] == first == list(pl._walk_box(f))


def test_the_accepted_strictification_is_walked_on_its_own_scan(builds, monkeypatch):
    base = tangent_pl(ID2, 2)
    target = PeriodicPLFunction(ID2, list(base.pieces) + [base.pieces[0]])
    assert not pl.linearity_cells(target)[2]
    accepted = []
    build = ax._build_barycentric

    def recording(*args):
        g = build(*args)
        if g is not None:
            accepted.append((g, g._scan))
        return g

    monkeypatch.setattr(ax, "_build_barycentric", recording)
    approximate(ApproxRequest(function=target, eps=F(1, 4), rng_seed=0))
    [(g, scan)] = accepted
    assert g.cells is not None and g._scan is scan
    assert [f for f, _, _ in builds].count(g) == 1
