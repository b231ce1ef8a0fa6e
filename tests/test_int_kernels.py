"""The integer kernels of `linalg` and `translate_piece` against the Fraction code.

`rank`, `solve`, `det`, `nullspace` and `inverse` eliminate on Python ints and
`translate_piece` translates on the cocycle's integer data.  The plain Fraction
routines they replaced are kept here as references (the reduced row echelon
form is unique, so the results must be the same Fractions), and compared with
them over random rational matrices and random polarized cocycles in
dimensions 1 to 3.  `polyhedra._int_det`, written out up to 3×3, is compared
with the Fraction determinant on the same matrices scaled to integers.
"""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tropma import linalg
from tropma.cocycle import Cocycle
from tropma.linalg import dot, matvec, vadd
from tropma.plfunc import AffinePiece, translate_piece
from tropma.polyhedra import _int_det

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# -- the Fraction references ------------------------------------------------------


def ref_rref(rows):
    """Reduced row echelon form over Fractions; returns (matrix, pivot columns)."""
    m = [list(map(F, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F(1) / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def ref_rank(rows):
    return len(ref_rref(rows)[1]) if rows else 0


def ref_det(m):
    n = len(m)
    a = [list(map(F, r)) for r in m]
    result = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            result = -result
        result *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def ref_inverse(m):
    n = len(m)
    aug = [list(map(F, row)) + [F(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = ref_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def ref_solve(a, b):
    ncols = len(a[0]) if a else len(b)
    red, pivots = ref_rref([list(row) + [bi] for row, bi in zip(a, b)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return tuple(x)


def ref_nullspace(rows, ncols=None):
    if not rows:
        n = ncols or 0
        return [tuple(F(1 if i == j else 0) for j in range(n)) for i in range(n)]
    n = len(rows[0])
    red, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = [F(0)] * n
        x[f] = F(1)
        for r, c in enumerate(pivots):
            x[c] = -red[r][f]
        basis.append(tuple(x))
    return basis


def reference_translate(c, p, k):
    """The cocycle translate by the Fraction formula
    m' = m + b·λ, c' = c - <m, λ> + z_λ(0) - b(λ, λ)."""
    k = tuple(int(x) for x in k)
    if all(x == 0 for x in k):
        return p
    lam = c.lattice_vector(k)
    m2 = vadd(p.m, matvec(c.b, lam))
    c2 = p.c - dot(p.m, lam) + c.constant_at(k) - c.bilinear(lam, lam)
    return AffinePiece(m2, c2)


# -- strategies ----------------------------------------------------------------------

entry = st.one_of(st.builds(F, st.integers(-6, 6), st.integers(1, 6)), st.integers(-3, 3))


@st.composite
def matrices(draw, square=False):
    """Random rational rows, often made singular by a zero, repeated or combined row."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    kind = draw(st.sampled_from(["random", "zero row", "duplicate", "combination"]))
    i = draw(st.integers(0, nrows - 1))
    j = draw(st.integers(0, nrows - 1))
    if kind == "zero row":
        rows[i] = [0] * ncols
    elif kind == "duplicate":
        rows[i] = list(rows[j])
    elif kind == "combination" and nrows >= 3:
        s, t = draw(entry), draw(entry)
        rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[(j + 1) % nrows])]
    return rows


def _check_rhs(draw, rows):
    """A right-hand side that is consistent half the time."""
    if draw(st.booleans()):
        x0 = [draw(entry) for _ in rows[0]]
        return [sum((F(a) * b for a, b in zip(row, x0)), F(0)) for row in rows]
    return [draw(entry) for _ in rows]


@st.composite
def systems(draw):
    rows = draw(matrices())
    return rows, _check_rhs(draw, rows)


WIDE = [[1, 2, 3, 4], [2, 4, 6, 8]]
TALL = [[1, 2], [F(1, 2), 1], [3, F(-1, 3)], [0, 0]]
DUPLICATE = [[F(1, 2), F(2, 3), 1], [F(1, 2), F(2, 3), 1], [0, 1, F(5, 7)]]


def _fractions(xs):
    return all(type(x) is F for x in xs)


# -- linalg --------------------------------------------------------------------------


@SETTINGS
@given(matrices())
@example(WIDE)
@example(TALL)
@example(DUPLICATE)
@example([[0, 0, 0]])
def test_rank_and_nullspace_match(rows):
    assert linalg.rank(rows) == ref_rank(rows)
    got = linalg.nullspace(rows, len(rows[0]))
    assert got == ref_nullspace(rows, len(rows[0]))
    assert all(_fractions(v) for v in got)


@SETTINGS
@given(systems())
@example((WIDE, [1, 2]))
@example((WIDE, [1, 3]))
@example((TALL, [1, F(1, 2), 0, 0]))
@example((DUPLICATE, [1, 2, 3]))
def test_solve_matches(system):
    rows, rhs = system
    got = linalg.solve(rows, rhs)
    assert got == ref_solve(rows, rhs)
    assert got is None or _fractions(got)


@SETTINGS
@given(matrices(square=True))
@example(DUPLICATE)
@example([[0, 1], [1, 0]])
@example([[2, 3], [4, 6]])
@example([[F(1, 2), F(1, 3), 0], [0, 0, F(-2, 5)], [F(3, 4), 1, 1]])
def test_det_and_inverse_match(rows):
    d = linalg.det(rows)
    assert type(d) is F and d == ref_det(rows)
    if d == 0:
        with pytest.raises(ValueError):
            linalg.inverse(rows)
        with pytest.raises(ValueError):
            ref_inverse(rows)
    else:
        got = linalg.inverse(rows)
        assert got == ref_inverse(rows)
        assert all(_fractions(r) for r in got)


@SETTINGS
@given(matrices(square=True))
@example([[0, 1], [1, 0]])
@example([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
def test_integer_det_matches(rows):
    ints = [tuple(int(F(x) * linalg.common_denominator(map(F, r))) for x in r) for r in rows]
    assert _int_det(ints) == ref_det(ints)


def test_empty_inputs():
    assert linalg.rank([]) == ref_rank([]) == 0
    assert linalg.solve([], []) == ref_solve([], []) == ()
    assert linalg.det([]) == ref_det([]) == 1
    assert linalg.inverse([]) == ref_inverse([]) == ()
    assert linalg.nullspace([], 2) == ref_nullspace([], 2)
    assert linalg.solve([[0, 0]], [1]) is None
    assert linalg.solve([[0, 0]], [0]) == (0, 0)


# -- translate_piece ------------------------------------------------------------------

small_q = st.builds(F, st.integers(-5, 5), st.integers(1, 6))


@st.composite
def polarized_cocycles(draw):
    """Rational periods λ = P/d with an integral P, and b = d·L·Lᵀ, so b·λ ∈ Z^n."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    low = [[draw(st.integers(1, 2)) if i == j else
            (draw(st.integers(-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    b = [[d * sum(low[i][t] * low[j][t] for t in range(n)) for j in range(n)]
         for i in range(n)]
    periods = [[F(draw(st.integers(1, 3)) if i == j else
                  (draw(st.integers(-2, 2)) if j > i else 0), d) for j in range(n)]
               for i in range(n)]
    return Cocycle.make(periods, b, [draw(small_q) for _ in range(n)])


@st.composite
def translates(draw):
    c = draw(polarized_cocycles())
    n = c.n
    p = AffinePiece(tuple(draw(small_q) for _ in range(n)), draw(small_q))
    k = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    return c, p, k


@SETTINGS
@given(translates())
@example((Cocycle.make([[1]], [[1]], [F(1, 2)]), AffinePiece((F(0),), F(0)), (-2,)))
@example((Cocycle.make([[1, 0], [0, 1]], [[2, 1], [1, 2]], [1, 1]),
          AffinePiece((F(1, 3), F(-1, 2)), F(1, 5)), (0, 0)))
@example((Cocycle.make([[1, 0], [0, 1]], [[2, 1], [1, 2]], [1, 1]),
          AffinePiece((F(1, 3), F(-1, 2)), F(1, 5)), (-1, 2)))
def test_translate_matches_fraction_formula(data):
    c, p, k = data
    got = translate_piece(c, p, k)
    want = reference_translate(c, p, k)
    assert (got.m, got.c) == (want.m, want.c)
    assert _fractions(got.m) and type(got.c) is F


def test_translate_by_zero_is_the_piece():
    c = Cocycle.make([[1, 0], [0, 1]], [[2, 1], [1, 2]], [1, 1])
    p = AffinePiece((F(1, 3), F(0)), F(1, 2))
    assert translate_piece(c, p, (0, 0)) is p


def test_translate_of_an_unpolarized_cocycle():
    # B = periods·b·periodsᵀ is singular here, which the cached data allows
    c = Cocycle.make([[1, 0], [0, 1]], [[0, 0], [0, 0]], [F(1, 2), 0], polarized=False)
    p = AffinePiece((F(1, 3), F(2)), F(1, 2))
    for k in ((1, 0), (-2, 3)):
        got, want = translate_piece(c, p, k), reference_translate(c, p, k)
        assert (got.m, got.c) == (want.m, want.c)
