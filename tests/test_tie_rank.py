"""`degree` reads the face dimension of the metric's complex off its tie set.

`skeleton._pullback_atoms` gives, at each pullback vertex, n − rank{m_j − m_i}
over the translates tied in its tight set.  On a one-point face at x that is
the dimension of the metric's face through x.  The translate lookup that
the tie rank replaced (the first walked cell translate containing the point, and its face
cut out by the inequalities tight there) is kept here as the reference.  With
no cell walk, `degree` on an n = 3 metric fits tier-1.
"""

import itertools
import json
import time
from fractions import Fraction as F

import pytest

from tropma import Cocycle, PeriodicPLFunction, cli, jsonio, linearity_cells, tangent_pl
from tropma import plfunc
from tropma.approx import perturb_generic
from tropma.linalg import dot
from tropma.plfunc import AffinePiece, _dim_of_points, _translates_meeting
from tropma.polyhedra import AffineLatticeFrame, faces, hull
from tropma.skeleton import SkeletonFace, _pullback_atoms

I2 = [[1, 0], [0, 1]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
ID2 = Cocycle.make(I2, I2, [F(1, 2)] * 2)
SKEW2 = Cocycle.make(I2, [[2, 1], [1, 2]], [1, 1])
ID3 = Cocycle.make(I3, I3, [F(1, 2)] * 3)
SKEW3 = Cocycle.make(I3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], [1, 1, 1])


def translate_face_dim(metric, x):
    """Dimension of the face of the metric's walked complex whose relint
    contains x, read off the first cell translate that contains x."""
    for _, _, t in _translates_meeting(linearity_cells(metric)[0], x, x):
        if t.contains(x):
            tight = [(a, c) for a, c in t.inequalities if dot(a, x) == c]
            return _dim_of_points([v for v in t.vertices
                                   if all(dot(a, v) == c for a, c in tight)])
    raise AssertionError("x is not covered by the walked cells")


def clip_face_dim(metric, x):
    """The tie dimension of the one atom of a one-point face mapped to x."""
    point = SkeletonFace("x", hull([(F(0),)]), AffineLatticeFrame((F(0),), ()), 0, F(1),
                         ((),) * len(x), x, True)
    [(_, mass, dim)] = _pullback_atoms(point, metric)
    assert mass == 1
    return dim


COCYCLES = {"id2": ID2, "skew2": SKEW2, "id3": ID3}
CASES = [(name, k, draw) for name in ("id2", "skew2") for k in (1, 2, 3)
         for draw in (False, True)] + [("id3", 1, False)]


@pytest.mark.parametrize("name,k,draw", CASES,
                         ids=[f"{n}-k{k}{'-draw' if d else ''}" for n, k, d in CASES])
def test_tie_rank_matches_the_translate_lookup(name, k, draw):
    # at every vertex and face barycenter of the walked cells the clip's tie
    # rank gives the face's own dimension, as the translate lookup does
    metric = tangent_pl(COCYCLES[name], k)
    if draw:
        metric, _ = perturb_generic(metric, (), F(1, 8), seed=k, max_retries=50)
    cells = linearity_cells(metric)[0].cells
    points = [(face.barycenter(), face.dim) for cell in cells for face in faces(cell)]
    assert len(points) > len(cells)
    for x, dim in points:
        assert clip_face_dim(metric, x) == translate_face_dim(metric, x) == dim


def tangent_metric(c, k):
    """tangent_pl's pieces, with no cell walk."""
    pieces = []
    for j in itertools.product(range(k), repeat=c.n):
        w0 = tuple(F(x, k) for x in j)
        m = c.canonical_gradient(w0)
        pieces.append(AffinePiece(m, c.canonical_value(w0) - dot(m, w0)))
    return PeriodicPLFunction(c, pieces)


def square(fid, x0, axes, t):
    """A unit-square carrier at chart position x0, mapped onto a coordinate
    plane of N_R at offset t."""
    lin = [[int(r == axes[0]), int(r == axes[1])] for r in range(3)]
    return {"id": fid, "carrier": {"vertices": [[x0, 0], [x0 + 1, 0], [x0, 1], [x0 + 1, 1]]},
            "frame": {"basepoint": [x0, 0], "basis": [[1, 0], [0, 1]]},
            "e": 0, "degH": 1, "f_aff": {"L": lin, "t": t},
            "abelian_nondegenerate": True, "boundary": []}


def surface_in_a_threefold(c, tmp_path):
    """Spec and metric files: three coordinate-plane squares at generic
    offsets, and the mesh-2 tangent metric."""
    offsets = [["131/1009", "137/1013", "139/1019"], ["141/1009", "149/1013", "151/1019"],
               ["157/1009", "163/1013", "167/1019"]]
    faces_ = [square(f"sq{i}{j}", 2 * a, (i, j), offsets[a])
              for a, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)])]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cocycle": jsonio.enc_cocycle(c), "d": 2, "faces": faces_}))
    metric = tmp_path / "metric.json"
    metric.write_text(jsonio.dumps(jsonio.enc_function(tangent_metric(c, 2))))
    return spec, metric


@pytest.mark.parametrize("c", [ID3, SKEW3], ids=["id3", "skew3"])
def test_degree_on_a_surface_in_a_threefold(c, tmp_path, capsys):
    # the degrees sum to the PL skeleton measure
    spec, metric = surface_in_a_threefold(c, tmp_path)
    reports = {}
    for command in ("degree", "skeleton-measure"):
        t0 = time.monotonic()
        assert cli.main([command, "--in", str(spec), "--metric", str(metric)]) == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"{command} took {elapsed:.1f} s"
        reports[command] = json.loads(capsys.readouterr().out)
    degrees, measure = reports["degree"], reports["skeleton-measure"]
    assert len(degrees["degrees"]) == len(measure["atoms"]) > 0
    assert degrees["total"] == measure["total"]


def test_degree_builds_no_pullback_scan(tmp_path, capsys, monkeypatch):
    # a face's atoms and degrees come from one lifted clip of its pullback
    # rows, so `degree` builds no envelope scan of a pullback
    built = []
    original = plfunc._EnvelopeScan.__init__

    def counting(self, f, lo, hi):
        if f.cocycle is None:
            built.append(f)
        original(self, f, lo, hi)

    monkeypatch.setattr(plfunc._EnvelopeScan, "__init__", counting)
    spec, metric = surface_in_a_threefold(SKEW3, tmp_path)
    assert cli.main(["degree", "--in", str(spec), "--metric", str(metric)]) == 0
    rows = json.loads(capsys.readouterr().out)["degrees"]
    assert len(rows) > 3
    assert built == []
