"""Exact linear algebra over the rationals.

Everything in this module operates on tuples of `fractions.Fraction` (vectors)
and tuples of such tuples (matrices, row-major); ints are accepted as entries.
No floating point is used; results are exact.  The routines are written for
the small dimensions that polyhedral computations in this package need
(n <= ~8), not for bulk numerics.

Elimination is fraction-free.  `rank`, `solve`, `nullspace` and `inverse`
scale each row once to a primitive integer row and row-reduce on Python ints,
dividing each new row by its gcd (`_eliminate`); `det` is Bareiss's
elimination (Math. Comp. 22, 1968).  Fractions are built only for the values
returned, and they are exactly the ones a Fraction elimination gives, since
the reduced row echelon form is unique.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def matvec(m: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, x) for row in m)


def transpose(m: Sequence[Sequence[Fraction]]) -> Mat:
    return tuple(tuple(col) for col in zip(*m))


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row scaled once by a positive rational to a primitive integer row."""
    out = []
    for r in rows:
        den = math.lcm(*(x.denominator for x in r))
        ints = [x.numerator * (den // x.denominator) for x in r]
        g = math.gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _eliminate(m: list[list[int]], full: bool) -> list[int]:
    """Row-reduce integer rows in place; returns the pivot columns.

    Pivot row r ends with its leading entry in column pivots[r] and zeros
    below it; with `full` it also has zeros above, so m[r][j] / m[r][pivots[r]]
    is the reduced row echelon form, which is unique.  Each new row is an
    integer combination of two rows divided by its gcd, so the entries stay
    small and no Fraction is built.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(0 if full else r + 1, nrows):
            a = m[i][c]
            if i == r or not a:
                continue
            g = math.gcd(p, a)
            pg, ag = p // g, a // g
            row = [pg * x - ag * y for x, y in zip(m[i], prow)]
            g = math.gcd(*row)
            if g > 1:
                row = [v // g for v in row]
            m[i] = row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    return len(_eliminate(_int_rows(rows), full=False))


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22, 1968).

    Row i is scaled by the lcm d_i of its denominators; every division by the
    previous pivot is then exact, and the last pivot is the determinant of the
    scaled matrix, d_1···d_n times the determinant of m.
    """
    n = len(m)
    a = []
    den = 1
    for r in m:
        d = math.lcm(*(x.denominator for x in r))
        a.append([x.numerator * (d // x.denominator) for x in r])
        den *= d
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        p, prow = a[c][c], a[c]
        for i in range(c + 1, n):
            ai, aic = a[i], a[i][c]
            for j in range(c + 1, n):
                ai[j] = (p * ai[j] - aic * prow[j]) // prev
        prev = p
    return Fraction(sign * prev, den)


def inverse(m: Sequence[Sequence[Fraction]]) -> Mat:
    n = len(m)
    aug = _int_rows([list(row) + [1 if i == j else 0 for j in range(n)]
                     for i, row in enumerate(m)])
    pivots = _eliminate(aug, full=True)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(aug))


def solve(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """Solve a x = b.  Returns one solution as a Vec, or None if inconsistent.

    Free variables are 0, so the solution is the one the reduced row echelon
    form of [a | b] gives.
    """
    ncols = len(a[0]) if a else len(b)
    aug = _int_rows([list(row) + [bi] for row, bi in zip(a, b)])
    pivots = _eliminate(aug, full=True)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(aug, pivots):
        x[c] = Fraction(row[-1], row[c])
    return tuple(x)


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[Vec]:
    """Basis of {x : rows @ x = 0} over the rationals, one vector per free
    column f, with x_f = 1: `int_nullspace` divided by its x_f, which is the
    vector's last nonzero entry, since a pivot column precedes the free
    columns its row reaches."""
    if not rows:
        n = ncols if ncols is not None else 0
        return [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
    out = []
    for w in int_nullspace(_int_rows(rows), len(rows[0])):
        big = next(x for x in reversed(w) if x)
        out.append(tuple(Fraction(x, big) for x in w))
    return out


def int_nullspace(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Basis of {x : rows @ x = 0} for integer rows, on integers: per free
    column f the vector with x_f = L, the lcm of the pivots, zeros at the
    other free columns, and the pivot entries the reduced row echelon form
    gives."""
    m = [list(r) for r in rows]
    pivots = _eliminate(m, full=True) if m else []
    big = math.lcm(*(row[c] for row, c in zip(m, pivots)))
    basis = []
    for f in range(n):
        if f not in pivots:
            x = [0] * n
            x[f] = big
            for row, c in zip(m, pivots):
                x[c] = -row[f] * (big // row[c])
            basis.append(x)
    return basis


def integer_kernel(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Basis of {x in Z^n : rows @ x = 0} via unimodular column reduction."""
    m = len(rows)
    cols = [([rows[i][j] for i in range(m)], [1 if t == j else 0 for t in range(n)])
            for j in range(n)]
    fixed = 0
    for r in range(m):
        while True:
            active = [j for j in range(fixed, n) if cols[j][0][r] != 0]
            if not active:
                break
            j0 = min(active, key=lambda j: abs(cols[j][0][r]))
            if cols[j0][0][r] < 0:
                cols[j0] = ([-v for v in cols[j0][0]], [-v for v in cols[j0][1]])
            if len(active) == 1:
                cols[fixed], cols[j0] = cols[j0], cols[fixed]
                fixed += 1
                break
            p = cols[j0][0][r]
            for j in active:
                if j == j0:
                    continue
                q = cols[j][0][r] // p
                if q:
                    cols[j] = ([a - q * b for a, b in zip(cols[j][0], cols[j0][0])],
                               [a - q * b for a, b in zip(cols[j][1], cols[j0][1])])
    return [tuple(u) for _, u in cols[fixed:]]


def lattice_basis_of_span(vectors: Sequence[Sequence[Fraction]], n: int) -> list[Vec]:
    """Z-basis of span_Q(vectors) intersected with Z^n.

    The span is a rational subspace, so the intersection is a full-rank lattice
    in it; the basis is computed from an integer kernel of the annihilator.
    """
    vs = [v for v in vectors if any(x != 0 for x in v)]
    if not vs:
        return []
    ann = nullspace(vs, n)
    if not ann:
        return [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
    kern = integer_kernel(_int_rows(ann), n)
    out = []
    for k in kern:
        lead = next((v for v in k if v != 0), 1)
        if lead < 0:
            k = tuple(-v for v in k)
        out.append(tuple(Fraction(v) for v in k))
    return out


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def ceil_sqrt(x: Fraction) -> int:
    """Smallest integer s >= 0 with s*s >= x."""
    if x <= 0:
        return 0
    c = ceil_frac(x)
    s = math.isqrt(c)
    while s * s < x:
        s += 1
    return s


def common_denominator(xs: Iterable[Fraction]) -> int:
    d = 1
    for x in xs:
        d = math.lcm(d, x.denominator)
    return d
