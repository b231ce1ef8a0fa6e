"""Exact rational arithmetic for the benchmark, written apart from tropma.

The input generator and the correctness checks use only this module, so a
fault in tropma's own linear algebra or envelope code cannot make a wrong
output look right.  A cocycle here is the plain JSON dict of the exchange
format: periods (rows λ_i), the form b and the base constants z0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def q(v) -> Fraction:
    """A rational from its JSON form (int or "p/q" string)."""
    if isinstance(v, bool) or isinstance(v, float):
        raise ValueError(f"not an exact rational: {v!r}")
    return Fraction(v)


def enc(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def det(rows) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def solve(rows, rhs) -> list[Fraction]:
    """The unique solution of a square nonsingular system."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(v)] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def matvec(m, v) -> list[Fraction]:
    return [sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in m]


def dot(u, v) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(u, v)), Fraction(0))


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = transpose(b)
    return [[dot(r, c) for c in bt] for r in a]


class Cocycle:
    """Periods, form and base constants, with the canonical quadratic q."""

    def __init__(self, d: dict):
        self.n = int(d["n"])
        self.periods = [[q(x) for x in r] for r in d["periods"]]
        self.b = [[q(x) for x in r] for r in d["b"]]
        self.z0 = [q(x) for x in d["z0"]]
        lin = [z - dot(lam, matvec(self.b, lam)) / 2
               for z, lam in zip(self.z0, self.periods)]
        self.ell = solve(self.periods, lin)
        # B = periods·b·periodsᵀ: a translate's value is -kᵀBk/2 + <h,k> + const in k
        self.big_b = matmul(matmul(self.periods, self.b), transpose(self.periods))
        self.big_b_inv = [solve(self.big_b, [Fraction(int(i == j)) for i in range(self.n)])
                          for j in range(self.n)]

    def covolume(self) -> Fraction:
        return abs(det(self.periods))

    def bil(self, x, y) -> Fraction:
        return dot(x, matvec(self.b, y))

    def canonical(self, w) -> Fraction:
        return self.bil(w, w) / 2 + dot(self.ell, w)

    def gradient(self, w) -> list[Fraction]:
        return [g + e for g, e in zip(matvec(self.b, w), self.ell)]


def tangent_pieces(c: Cocycle, k: int) -> list[tuple[list[Fraction], Fraction]]:
    """Tangent planes (m, c) of the canonical quadratic at the mesh (1/k)Λ."""
    out = []
    for j in itertools.product(range(k), repeat=c.n):
        w = [sum((Fraction(ji, k) * lam[i] for ji, lam in zip(j, c.periods)), Fraction(0))
             for i in range(c.n)]
        m = c.gradient(w)
        out.append((m, c.canonical(w) - dot(m, w)))
    return out


def _ceil_sqrt(x: Fraction) -> int:
    """Smallest integer s >= 0 with s*s >= x."""
    if x <= 0:
        return 0
    s = math.isqrt(math.ceil(x))
    while s * s < x:
        s += 1
    return s


def envelope(c: Cocycle, pieces, w) -> Fraction:
    """max over pieces p and k in Z^n of the translate of p by λ_k at w.

    The translate of (m, c0) by λ is m + bλ, c0 - <m,λ> + z_λ(0) - b(λ,λ); at a
    fixed point its value is a concave quadratic in k with Hessian -B,
    B = periods·b·periodsᵀ.  Every k that can reach the best value found at
    the rounded maximisers lies in an ellipsoid around the real maximiser,
    and the integer points of its bounding box are all tried, so the window
    always holds the maximiser in its interior.
    """
    n = c.n
    w = [Fraction(x) for x in w]
    bw = matvec(c.b, w)
    per_piece = []
    for m, c0 in pieces:
        # value(k) = base + <h, k> - kᵀBk/2
        base = dot(m, w) + c0
        h = [dot(lam, [x - y + e for x, y, e in zip(bw, m, c.ell)]) for lam in c.periods]
        per_piece.append((base, h, matvec(c.big_b_inv, h)))

    # the same values times a common denominator, in integers
    den = math.lcm(*(x.denominator for base, h, _ in per_piece for x in (base, *h)),
                   *(Fraction(x, 2).denominator for row in c.big_b for x in row))
    half_b = [[int(x * den / 2) for x in row] for row in c.big_b]

    def value(base, h, k):
        quad = sum(half_b[i][j] * k[i] * k[j] for i in range(n) for j in range(n))
        return base + sum(hi * ki for hi, ki in zip(h, k)) - quad

    ints = [(int(base * den), [int(x * den) for x in h]) for base, h, _ in per_piece]
    best = max(value(*iv, [round(x) for x in kc]) for iv, (_, _, kc) in zip(ints, per_piece))
    for iv, (base, h, kc) in zip(ints, per_piece):
        top = base + dot(h, kc) / 2            # value at the real maximiser
        if top * den < best:
            continue
        r2 = 2 * (top - Fraction(best, den))
        ranges = []
        for i in range(n):
            s = _ceil_sqrt(r2 * c.big_b_inv[i][i])     # s >= the ellipsoid's half-width
            ranges.append(range(math.ceil(kc[i] - s), math.floor(kc[i] + s) + 1))
        for k in itertools.product(*ranges):
            best = max(best, value(*iv, k))
    return Fraction(best, den)


def convex_area(points) -> Fraction:
    """Area of the convex hull of 2-D points in their own coordinates."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) < 3:
        return Fraction(0)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    ring = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        ring += part[:-1]
    s = sum((ring[i][0] * ring[i - 1][1] - ring[i - 1][0] * ring[i][1]
             for i in range(len(ring))), Fraction(0))
    return abs(s) / 2
