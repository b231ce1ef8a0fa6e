"""`polyhedra.faces` on integers against the Fraction construction it replaced.

The reference below is the Fraction code: tight sets by Fraction dot
products, closed under intersection, each face's equations from a Fraction
nullspace of its vertex differences made canonical by `_canon_eq`, and a face
polytope validated by its constructor.  The integer `faces` must give the
same faces, field by field and in the same order, and must still validate
every face it builds.
"""

import random
from fractions import Fraction as F

import pytest

from tropma import Cocycle, PeriodicPLFunction, linearity_cells, tangent_pl
from tropma import linalg
from tropma.plfunc import AffinePiece
from tropma.polyhedra import Polytope, _canon_ineq, faces, hull


def _canon_eq(a, c):
    a2, c2 = _canon_ineq(a, c)
    lead = next((x for x in a2 if x != 0), F(1))
    return (tuple(-x for x in a2), -c2) if lead < 0 else (a2, c2)


def reference_faces(p):
    tight = [(ineq, frozenset(i for i, v in enumerate(p.vertices)
                              if linalg.dot(ineq[0], v) == ineq[1]))
             for ineq in p.inequalities]
    every = frozenset(range(len(p.vertices)))
    found = {every}
    while True:
        more = {fset & on for fset in found for _, on in tight if on != every} - {frozenset()}
        if more <= found:
            break
        found |= more
    out = []
    for fset in sorted(found, key=lambda s: (len(s), sorted(s))):
        verts = tuple(sorted(p.vertices[i] for i in fset))
        diffs = [linalg.vsub(v, verts[0]) for v in verts[1:]]
        d = linalg.rank(diffs) if diffs else 0
        eqs = tuple(sorted(_canon_eq(w, linalg.dot(w, verts[0]))
                           for w in linalg.nullspace(diffs, p.ambient_dim)))
        meets = {}
        for ineq, on in tight:
            cap = fset & on
            if cap and cap != fset:
                meets.setdefault(cap, ineq)
        ineqs = {ineq for cap, ineq in meets.items() if not any(cap < other for other in meets)}
        out.append(Polytope(p.ambient_dim, verts, eqs, tuple(sorted(ineqs)), d))
    return out


def fields(p):
    return (p.ambient_dim, p.vertices, p.equations, p.inequalities, p.dim)


def random_hulls(seed, count):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 2 + i % 2
        pts = [tuple(F(rng.randint(-20, 20), rng.choice([1, 2, 3, 5, 7])) for _ in range(n))
               for _ in range(rng.randint(1, 9))]
        out.append(hull(pts))
    return out


def walked_cells():
    i2, i3 = [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cells = []
    for c in (Cocycle.make(i2, i2, [F(1, 2)] * 2), Cocycle.make(i2, [[2, 1], [1, 2]], [1, 1])):
        for k in (1, 2, 3):
            f = tangent_pl(c, k)
            rng = random.Random(k)
            g = PeriodicPLFunction(c, [
                AffinePiece(tuple(x + F(rng.randint(-4, 4), 256) for x in p.m),
                            p.c + F(rng.randint(-4, 4), 256)) for p in f.pieces])
            cells += linearity_cells(f)[0].cells + linearity_cells(g)[0].cells
    cells += linearity_cells(tangent_pl(Cocycle.make(i3, i3, [F(1, 2)] * 3), 1))[0].cells
    return cells


def test_faces_equal_the_fraction_reference():
    polys = random_hulls(1, 120) + walked_cells()
    assert {p.ambient_dim for p in polys} == {2, 3}
    count = 0
    for p in polys:
        got = faces(p)
        assert [fields(f) for f in got] == [fields(f) for f in reference_faces(p)]
        count += len(got)
    assert count > 1500


def test_every_face_is_validated(monkeypatch):
    checked = set()
    check = Polytope._check_consistency

    def recording(self, *args):
        check(self, *args)
        checked.add(id(self))

    monkeypatch.setattr(Polytope, "_check_consistency", recording)
    for p in random_hulls(2, 20) + [hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])]:
        got = faces(p)
        assert got and all(id(f) in checked for f in got)


def test_an_inconsistent_polytope_fails_its_faces_check():
    # the unit square's vertices with x + y <= 1 in place of x <= 1: (1, 1)
    # violates it, and every face lying on it is checked against it
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    bad = tuple(sorted([((F(1), F(1)), F(1))] + [h for h in sq.inequalities
                                                  if h != ((F(1), F(0)), F(1))]))
    p = Polytope(2, sq.vertices, (), bad, 2, _validate=False)
    with pytest.raises(ValueError):
        faces(p)
