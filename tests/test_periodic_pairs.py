"""`check_periodic` tests each meeting pair (C_i, C_j + λ) once, from a canonical cell.

The reference is the earlier pairwise stage: every translate whose bbox meets
the fundamental box widened by the widest cell (the collar), and every pair
among them.  Both must give the same verdict on the golden decompositions, on
hand-made tilings and non-tilings, and on golden 2-D decompositions with one
cell moved by a small rational vector, which keeps the volume so that only
the pairwise stage can refuse.
"""

import functools
import json
import os
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_golden_approx import GOLDEN

from tropma import Cocycle, hull, jsonio
from tropma.envelope import _fundamental_bbox
from tropma.plfunc import PeriodicDecomposition, _pair_compatible, _translates_meeting, check_periodic
from tropma.polyhedra import boxes_meet, volume

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate))

Z2 = Cocycle.make([[1, 0], [0, 1]], [[1, 0], [0, 1]], [F(1, 2), F(1, 2)])


def reference_check_periodic(d: PeriodicDecomposition) -> bool:
    """The volume stage, then every pair of translates meeting the fundamental
    box widened by a collar of the widest cell."""
    c = d.cocycle
    if sum(volume(cell.vertices) for cell in d.cells) != c.covolume():
        return False
    lo, hi = _fundamental_bbox(c)
    collar = max(b - a for cell in d.cells for a, b in zip(*cell.bbox()))
    near = [t for _, _, t in _translates_meeting(d, tuple(a - collar for a in lo),
                                                 tuple(b + collar for b in hi))]
    for i, t1 in enumerate(near):
        for t2 in near[i + 1:]:
            if boxes_meet(*t1.bbox(), *t2.bbox()) and not _pair_compatible(t1, t2, c.n):
                return False
    return True


def golden_json(name: str) -> dict:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def golden_decomposition(name: str) -> PeriodicDecomposition:
    return jsonio.dec_decomposition(golden_json(name)["decomposition"])


GOLDEN_DECOMPOSITIONS = sorted(g for g in os.listdir(GOLDEN) if "decomposition" in golden_json(g))
GOLDEN_2D = [g for g in GOLDEN_DECOMPOSITIONS
             if golden_json(g)["decomposition"]["cocycle"]["n"] == 2]


def cells(*polygons):
    return PeriodicDecomposition(Z2, tuple(hull(p) for p in polygons))


HALF = F(1, 2)
HAND_MADE = {
    # the upper row of bricks is offset by half a brick: edges meet off-face
    "brick wall": (cells([(0, 0), (1, 0), (1, HALF), (0, HALF)],
                         [(HALF, HALF), (F(3, 2), HALF), (F(3, 2), 1), (HALF, 1)]), False),
    "overlapping triangles": (cells([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (1, 1)]), False),
    "a cell listed twice": (cells([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]), False),
    "one cell moved by (2, -1)": (cells([(0, 0), (1, 0), (0, 1)], [(3, -1), (3, 0), (2, 0)]),
                                  True),
    # its translate by (0, 1) meets it in half an edge: only j == i sees it
    "parallelogram": (cells([(0, 0), (1, 0), (F(3, 2), 1), (HALF, 1)]), False),
}


def test_the_goldens_are_the_ten_approximate_artifacts():
    assert len(GOLDEN_DECOMPOSITIONS) == 10 and len(GOLDEN_2D) == 8


@pytest.mark.parametrize("name", GOLDEN_DECOMPOSITIONS)
def test_golden_decompositions(name):
    d = golden_decomposition(name)
    assert check_periodic(d) is reference_check_periodic(d) is True


@pytest.mark.parametrize("case", HAND_MADE)
def test_hand_made(case):
    d, verdict = HAND_MADE[case]
    assert check_periodic(d) is reference_check_periodic(d) is verdict


@SETTINGS
@given(name=st.sampled_from(GOLDEN_2D), data=st.data())
def test_one_cell_moved(name, data):
    # an integer part in {-1, 0, 1} and a fraction of denominator at most 8
    # per coordinate, so some shifts are lattice vectors and keep a tiling
    d = golden_decomposition(name)
    i = data.draw(st.integers(0, len(d.cells) - 1), label="cell")
    v = tuple(data.draw(st.integers(-1, 1)) + F(data.draw(st.integers(0, q - 1)), q)
              for q in data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)), label="dens"))
    moved = PeriodicDecomposition(d.cocycle, tuple(
        cell.translate(v) if j == i else cell for j, cell in enumerate(d.cells)))
    assert check_periodic(moved) is reference_check_periodic(moved)
