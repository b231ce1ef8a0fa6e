"""One envelope scan per call for the skeleton commands.

`skeleton-measure`, `mass-check` and `degree` request the metric's envelope
scan once, for the union of the nondegenerate faces' image boxes, and each
face's pullback reads every entry of it.  Counting tests check the single
build; a property checks that the shared scan gives the atoms of a fresh scan
per face; and an n = 3 `skeleton-measure` and `degree` give the
same bytes under `python -O`.
"""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import tropma.envelope as envelope
from tropma import cli, jsonio
from tropma.cocycle import Cocycle
from tropma.linalg import dot
from tropma.envelope import AffinePiece, PeriodicPLFunction
from tropma.polyhedra import AffineLatticeFrame, hull
from tropma.skeleton import SkeletonFace, SkeletonSpec, _pullback_atoms, _scan_faces, _tie_dim

ID2 = {"n": 2, "periods": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]], "z0": ["1/2", "1/2"]}
ID3 = {"n": 3, "periods": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
       "b": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "z0": ["1/2", "1/2", "1/2"]}


def _tangent_function(c: Cocycle, k: int) -> dict:
    """The tangent planes of the canonical quadratic at the mesh (1/k)Λ, as JSON."""
    pieces = []
    for j in itertools.product(range(k), repeat=c.n):
        w = tuple(sum((F(ji, k) * lam[i] for ji, lam in zip(j, c.periods)), F(0))
                  for i in range(c.n))
        m = c.canonical_gradient(w)
        pieces.append(AffinePiece(m, c.canonical_value(w) - dot(m, w)))
    return jsonio.enc_function(PeriodicPLFunction(c, pieces))


def _square(fid, n, axes, offset):
    """A unit-square face mapped onto the coordinate plane of `axes`."""
    return {"id": fid,
            "carrier": {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
            "frame": {"basepoint": [0, 0], "basis": [[1, 0], [0, 1]]},
            "e": 0, "degH": 1,
            "f_aff": {"L": [[int(i == axes[0]), int(i == axes[1])] for i in range(n)],
                      "t": offset},
            "abelian_nondegenerate": True, "boundary": []}


@pytest.fixture()
def two_faces(tmp_path):
    """A 2-D skeleton whose second face's image box leaves the first one's."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cocycle": ID2, "d": 2, "faces": [
        _square("a", 2, (0, 1), ["1/7", "2/9"]), _square("b", 2, (0, 1), ["5/7", "4/9"])]}))
    metric = tmp_path / "f.json"
    metric.write_text(jsonio.dumps(_tangent_function(jsonio.dec_cocycle(ID2), 2)))
    return str(spec), str(metric)


@pytest.fixture()
def builds(monkeypatch):
    calls = []
    original = envelope._enumerate_entries

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(envelope, "_enumerate_entries", counting)
    return calls


@pytest.mark.parametrize("argv", [
    ["skeleton-measure", "--metric", "{f}"],
    ["mass-check", "--metric", "canonical", "--metric", "{f}"],
    ["degree", "--metric", "{f}"]])
def test_one_scan_build_per_metric(two_faces, builds, capsys, argv):
    spec, metric = two_faces
    args = [argv[0], "--in", spec] + [a.format(f=metric) for a in argv[1:]]
    assert cli.main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(builds) == 1
    if argv[0] == "skeleton-measure":
        assert sum(F(a["mass"]) for a in out["atoms"]) == 4
    elif argv[0] == "mass-check":
        assert out["equal"] is True
    else:
        assert F(out["total"]) == 4


# -- the shared scan against a fresh scan per face ---------------------------------

small_q = st.builds(F, st.integers(-2, 2), st.integers(1, 4))


@st.composite
def skeletons(draw):
    """A random polarized cocycle in n = 2 or 3, a few pieces, and two 2-D faces
    mapped by random integral rank-2 linearizations at random offsets."""
    n = draw(st.integers(2, 3))
    low = [[draw(st.integers(1, 2)) if i == j else
            (draw(st.integers(-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    b = [[sum(low[i][t] * low[j][t] for t in range(n)) for j in range(n)] for i in range(n)]
    periods = [[draw(st.integers(1, 2)) if i == j else
                (draw(st.integers(-1, 1)) if j > i else 0) for j in range(n)]
               for i in range(n)]
    c = Cocycle.make(periods, b, [draw(small_q) for _ in range(n)])
    pieces = [AffinePiece(tuple(draw(small_q) for _ in range(n)), draw(small_q))
              for _ in range(draw(st.integers(1, 3)))]
    carrier = hull([(0, 0), (F(1, 2), 0), (0, F(1, 2)), (F(1, 2), F(1, 2))])
    frame = AffineLatticeFrame((F(0), F(0)), ((F(1), F(0)), (F(0), F(1))))
    faces = []
    for fid in ("a", "b"):
        cols = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                             min_size=2, max_size=2))
        lin = tuple(tuple(F(cols[j][i]) for j in range(2)) for i in range(n))
        assume(any(cols[0][i] * cols[1][j] != cols[0][j] * cols[1][i]
                   for i in range(n) for j in range(n)))
        faces.append(SkeletonFace(fid, carrier, frame, 0, F(1), lin,
                                  tuple(draw(small_q) for _ in range(n)), True))
    return SkeletonSpec(c, 2, tuple(faces)), pieces


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(skeletons())
def test_shared_scan_gives_the_atoms_of_a_fresh_scan(data):
    spec, pieces = data
    c = spec.cocycle
    shared = PeriodicPLFunction(c, pieces)
    _scan_faces(spec, shared)
    scan = shared._scan
    # the tie slopes are over each scan's own denominator; their tie
    # dimension is what the atom carries
    def atoms(f, face):
        return [(y, mass, _tie_dim(c.n, slopes)) for y, mass, slopes in _pullback_atoms(face, f)]

    for face in spec.faces:
        assert atoms(shared, face) == atoms(PeriodicPLFunction(c, pieces), face)
    assert shared._scan is scan


# -- python -O -----------------------------------------------------------------------


def test_optimized_python_gives_the_same_n3_skeleton_measure(tmp_path):
    # the n = 3 scan and the pullback's lifted clip are explicit checks, so -O
    # changes neither the measure nor the degrees
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cocycle": ID3, "d": 2, "faces": [
        _square("sq01", 3, (0, 1), ["1/8", "1/7", "1/9"]),
        _square("sq02", 3, (0, 2), ["1/6", "1/5", "2/11"]),
        _square("sq12", 3, (1, 2), ["2/9", "3/13", "2/7"])]}))
    metric = tmp_path / "f.json"
    metric.write_text(jsonio.dumps(_tangent_function(jsonio.dec_cocycle(ID3), 2)))
    src = Path(__file__).resolve().parents[1] / "src"
    outs = {}
    for command in ("skeleton-measure", "degree"):
        for flags in ([], ["-O"]):
            p = subprocess.run([sys.executable, *flags, "-m", "tropma.cli", command,
                                "--in", str(spec), "--metric", str(metric)],
                               capture_output=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": str(src)})
            assert p.returncode == 0, p.stderr
            outs.setdefault(command, []).append(p.stdout)
        assert outs[command][0] == outs[command][1]
    # three unit squares in coordinate planes of b = I: mass 2!·1·1 each
    measure, degrees = (json.loads(outs[c][0]) for c in ("skeleton-measure", "degree"))
    assert sum(F(a["mass"]) for a in measure["atoms"]) == 6
    assert F(degrees["total"]) == 6 and len(degrees["degrees"]) == len(measure["atoms"])
