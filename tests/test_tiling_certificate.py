"""The tiling certificate of `perturb_generic` against the pairwise check.

`certify_linearity_tiling` proves that a decomposition is exactly the cells
of linearity of f modulo Λ from three checks: f equals each cell's piece at
the cell's vertices, the cell pieces are translates of f's pieces in pairwise
distinct Λ-classes, and the cell volumes sum to covol(Λ).  On cell-walk
outputs it must agree with `check_periodic`, which is kept as the reference,
and each hand-made mutant of a walk output must fail the check named here.
"""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from test_strict_skip import polarized_cocycles

import tropma.approx as ax
from tropma import Cocycle, linalg, perturb_generic, tangent_pl
from tropma.plfunc import (AffinePiece, PeriodicDecomposition, _class_key, _ring2d,
                           certify_linearity_tiling, check_periodic, linearity_cells,
                           translate_piece)
from tropma.polyhedra import clip_polygon, hull

SETTINGS = settings(max_examples=5, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _agree(f):
    decomp, pieces, _ = linearity_cells(f)
    ok, why = certify_linearity_tiling(f, decomp, pieces)
    assert ok == check_periodic(decomp), why
    return ok


@SETTINGS
@given(polarized_cocycles())
def test_certificate_agrees_with_check_periodic_on_walk_outputs(c):
    for k in (1, 2):
        assert _agree(tangent_pl(c, k))
    f2, cert = perturb_generic(tangent_pl(c, 2), (), F(1, 8), 0, 50)
    assert cert.periodic and _agree(f2)


@SETTINGS
@given(polarized_cocycles())
def test_class_key_is_constant_on_classes(c):
    pieces = tangent_pl(c, 2).pieces
    keys = [_class_key(c, p) for p in pieces]
    assert len(set(keys)) == len(pieces)
    for p, key in zip(pieces, keys):
        for k in ((1, 0), (0, -1), (2, 3)):
            assert _class_key(c, translate_piece(c, p, k)) == key


def _half(cell):
    """One half of a 2-D cell, cut by the vertical line through its barycenter."""
    bx = cell.barycenter()[0]
    return hull(clip_polygon(_ring2d(cell), [((F(1), F(0)), bx)]))


def _mutants(cells, pieces):
    return {
        "dropped cell": (cells[1:], pieces[1:], "volume"),
        "cell replaced by a copy of another": (
            (cells[1],) + cells[1:], (pieces[1],) + pieces[1:], "class"),
        "cell cut in half": ((_half(cells[0]),) + cells[1:], pieces, "volume"),
        "cell shifted off the lattice": (
            (cells[0].translate((F(1, 7), F(1, 5))),) + cells[1:], pieces, "vertex"),
        "appended duplicate": (cells + cells[:1], pieces + pieces[:1], "class"),
    }


SKEW2 = Cocycle.make([[1, 0], [0, 1]], [[2, 1], [1, 2]], [1, 1])


@pytest.mark.parametrize("name", ["dropped cell", "cell replaced by a copy of another",
                                  "cell cut in half", "cell shifted off the lattice",
                                  "appended duplicate"])
@pytest.mark.parametrize("k", [2, 3])
def test_mutants_fail_the_named_check(name, k):
    f = tangent_pl(SKEW2, k)
    decomp, cell_pieces, _ = linearity_cells(f)
    pieces = tuple(cell_pieces[i] for i in range(len(decomp.cells)))
    cells, mpieces, check = _mutants(decomp.cells, pieces)[name]
    mutant = PeriodicDecomposition(SKEW2, cells)
    ok, why = certify_linearity_tiling(f, mutant, dict(enumerate(mpieces)))
    assert not ok and why.startswith(check + " check"), why
    # the pairwise reference rejects every one of these mutants too
    assert not check_periodic(mutant)


def test_chord_over_merged_cells_fails_the_class_check(two_tate):
    # For b = I the k = 2 cells are squares.  Two neighbours in x merge into a
    # rectangle on whose corners f is affine: the chord through them passes
    # the vertex check and, the other cells kept, the volume check; it is no
    # translate of a piece of f, which only the class check sees.
    f = tangent_pl(two_tate, 2)
    decomp, cell_pieces, _ = linearity_cells(f)
    at = {cell.barycenter(): i for i, cell in enumerate(decomp.cells)}
    a, b = at[(F(0), F(0))], at[(F(1, 2), F(0))]
    rect = hull(decomp.cells[a].vertices + decomp.cells[b].vertices)
    assert len(rect.vertices) == 4
    corners = rect.vertices[:3]
    sol = linalg.solve([list(v) + [F(1)] for v in corners], [f.value(v) for v in corners])
    chord = AffinePiece(tuple(sol[:2]), sol[2])
    assert all(chord.value(v) == f.value(v) for v in rect.vertices)
    rest = [i for i in range(len(decomp.cells)) if i not in (a, b)]
    cells = (rect,) + tuple(decomp.cells[i] for i in rest)
    mutant = PeriodicDecomposition(two_tate, cells)
    ok, why = certify_linearity_tiling(
        f, mutant, dict(enumerate([chord] + [cell_pieces[i] for i in rest])))
    assert not ok and why.startswith("class check"), why
    assert not check_periodic(mutant)


def test_perturb_generic_does_not_run_the_pairwise_pass(two_tate, monkeypatch):
    def pairwise(*args):
        raise AssertionError("check_periodic called")

    # patched in approx too, in case approx imports the name again
    monkeypatch.setattr(ax, "check_periodic", pairwise, raising=False)
    monkeypatch.setattr("tropma.plfunc.check_periodic", pairwise)
    _, cert = perturb_generic(tangent_pl(two_tate, 2), (), F(1, 8), 0, 50)
    assert cert.periodic
