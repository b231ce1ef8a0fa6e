"""The envelope core: periodic PL functions and their certified scan.

A function is stored as a finite list of representative affine pieces together
with a cocycle; the actual function is the sup of all lattice translates of the
representatives, where translating a piece by λ twists it by the cocycle:

    m_{Δ+λ} = m_Δ + b(·,λ),   c_{Δ+λ} = c_Δ - <m_Δ,λ> + z_λ(0) - b(λ,λ).

Because z_λ(0) grows like b(λ,λ)/2, a translate's value decays quadratically
in λ and the sup is a finite max locally.  The envelope scan of a box
enumerates the translates that can attain there from an explicit ellipsoid
bound, on integers over one common denominator; evaluation, MA atoms and
skeleton pullbacks all read it.  Every command runs this module, so it holds
nothing else: cells of linearity and the certificates are in `plfunc`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import linalg
from .cocycle import Cocycle, UnpolarizedError
from .errors import CertificateError
from .linalg import Mat, Vec, dot, vec
from .polyhedra import _integer_points, _reduced, bbox, box_corners
from .value import Value, setfield

if TYPE_CHECKING:
    from .plfunc import PeriodicDecomposition

class AffinePiece(Value):
    """An affine function ω ↦ <m, ω> + c."""

    _fields = ("m", "c")

    def __init__(self, m: Vec, c: Fraction):
        setfield(self, "m", m)
        setfield(self, "c", c)

    def value(self, omega: Sequence[Fraction]) -> Fraction:
        return dot(self.m, omega) + self.c


class TranslatedPiece(Value):
    """A lattice translate of a representative piece."""

    _fields = ("piece", "rep_index", "k")

    def __init__(self, piece: AffinePiece, rep_index: int, k: tuple[int, ...]):
        setfield(self, "piece", piece)
        setfield(self, "rep_index", rep_index)
        setfield(self, "k", k)


def translate_piece(c: Cocycle, p: AffinePiece, k: Sequence[int]) -> AffinePiece:
    """Cocycle translate of a piece by the lattice element with coordinates k.

    Computed on integers from the cocycle's cached data (`_QuadraticData`):
    the slope moves by the integer vector Σ k_i·b·λ_i and the constant by
    -<g, k> - kᵀBk/2.
    """
    k = tuple(int(x) for x in k)
    if all(x == 0 for x in k):
        return p
    q = _cocycle_quadratic_data(c)
    scale = _translate_scale(q, (p,))
    m_int, c_int = _translate_ints(q, _piece_ints(q, p, scale), scale, k,
                                   _quad_form(q.b_int, k))
    return AffinePiece(tuple(Fraction(v, scale) for v in m_int), Fraction(c_int, scale))


class PeriodicPLFunction:
    """Sup envelope of the cocycle translates of finitely many affine pieces.

    Instances are immutable by convention; the cell decomposition is derived
    data computed on demand and cached (linearity_cells populates it).
    """

    def __init__(self, cocycle: Optional[Cocycle], pieces: Sequence[AffinePiece]):
        if not pieces:
            raise ValueError("a PL function needs at least one piece")
        self.cocycle = cocycle
        self.pieces: tuple[AffinePiece, ...] = tuple(pieces)
        self._cells_cache: Optional[tuple] = None
        self._scan: Optional[_EnvelopeScan] = None

    @property
    def n(self) -> int:
        if self.cocycle is not None:
            return self.cocycle.n
        return len(self.pieces[0].m)

    @property
    def cells(self) -> Optional["PeriodicDecomposition"]:
        return self._cells_cache[0] if self._cells_cache else None

    def scan_for(self, lo: Vec, hi: Vec) -> "_EnvelopeScan":
        """A certified finite competitor family valid on the box [lo, hi].

        The last scan is reused while its box covers [lo, hi]; otherwise one
        scan is built for the union of the two boxes and replaces it.  A
        caller with several boxes requests their union once and reads every
        box off it.
        """
        if self._scan is not None and self._scan.covers(lo, hi):
            return self._scan
        if self._scan is not None:
            lo, hi = bbox((lo, hi, self._scan.lo, self._scan.hi))
        self._scan = _EnvelopeScan(self, lo, hi)
        return self._scan

    def value(self, omega: Sequence[Fraction]) -> Fraction:
        return evaluate(self, omega)[0]


class _EnvelopeScan:
    """All translates that can reach the envelope somewhere on a fixed box.

    The entries are the translates that `_enumerate_entries` cannot rule out
    on the box, a superset of every argmax set there, so the max over the
    entries equals the envelope exactly anywhere in the box, ties included.
    The per-entry data is integerized over a common denominator so the hot
    comparison loop runs on Python ints; `_enumerate_entries` builds it from
    the same integers it scores the translates with.
    """

    def __init__(self, f: PeriodicPLFunction, lo: Vec, hi: Vec):
        self.f = f
        self.lo = lo
        self.hi = hi
        self._cache: dict[Vec, tuple[Fraction, tuple[int, ...]]] = {}
        c = f.cocycle
        if c is None:
            self.entries = [TranslatedPiece(p, i, ()) for i, p in enumerate(f.pieces)]
            self.den, self._ints = integer_pieces(f.pieces)
        else:
            if not c.polarized:
                raise UnpolarizedError("envelope diverges")
            self.entries = _enumerate_entries(f, lo, hi)
            self.den, self._ints = self.entries.den, self.entries.ints

    def covers(self, lo: Vec, hi: Vec) -> bool:
        return all(a <= b for a, b in zip(self.lo, lo)) and \
            all(a >= b for a, b in zip(self.hi, hi))

    def eval(self, point: Vec) -> tuple[Fraction, tuple[int, ...]]:
        """Exact envelope value and the indices of all entries attaining it;
        a periodic function's entries hold on the box only, so not outside."""
        hit = self._cache.get(point)
        if hit is not None:
            return hit
        if self.f.cocycle is not None and not self.covers(point, point):
            raise CertificateError(f"envelope scan read at {point}, outside its box")
        *w, dw = _reduced(point)
        best, arg = _int_argmax(self._ints, w, dw)
        out = (Fraction(best, self.den * dw), tuple(arg))
        self._cache[point] = out
        return out


def integer_pieces(pieces: Sequence[AffinePiece]) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(den, [(den·m, den·c) per piece]) for the least common denominator den."""
    den, pts = _integer_points([(*p.m, p.c) for p in pieces])
    return den, [(p[:-1], p[-1]) for p in pts]


def _int_argmax(ints, w: Sequence[int], dw: int) -> tuple[int, list[int]]:
    """The largest m·w + c·dw over the integer entries (m, c), and the indices
    attaining it: the envelope at the point w/dw, scaled by den·dw."""
    best = None
    arg: list[int] = []
    if len(w) == 2:
        w0, w1 = w
        for i, (mi, ci) in enumerate(ints):
            v = mi[0] * w0 + mi[1] * w1 + ci * dw
            if best is None or v > best:
                best, arg = v, [i]
            elif v == best:
                arg.append(i)
    else:
        for i, (mi, ci) in enumerate(ints):
            v = sum(map(operator.mul, mi, w), ci * dw)
            if best is None or v > best:
                best, arg = v, [i]
            elif v == best:
                arg.append(i)
    return best, arg


def _grid_points(lo: Vec, hi: Vec) -> list[Vec]:
    """The interior grid at which the scan takes its exact envelope minorants."""
    grid = 3 if len(lo) <= 2 else 2
    return [tuple(a + (b - a) * Fraction(2 * s + 1, 2 * grid) for a, b, s in zip(lo, hi, steps))
            for steps in itertools.product(range(grid), repeat=len(lo))]


def _may_attain(vals: Sequence[int], floors: Sequence[Sequence[int]]) -> bool:
    """The scan's pruning rule: a translate with values vals at the corners of a
    box can attain the envelope on the box unless one exact minorant (a row of
    floors, its values at the same corners) beats it at every corner."""
    return all(any(v >= mv for v, mv in zip(vals, row)) for row in floors)


class _QuadraticData(NamedTuple):
    """Per-cocycle data of the translates, over Python ints.

    The translate of a piece p by lattice coordinates k has the slope
    m_p + pbᵀk and the constant c_p - <g_p, k> - kᵀBk/2, with pb = periods·b,
    B = periods·b·periodsᵀ and g_p = periods·m_p - ℓ, where ℓ is the
    cocycle's linear part on the period basis.  Its value at x is
    p(x) + <h, k> - kᵀBk/2 with h = pb·x - g_p.  pb is kept over ints, since
    b·λ ∈ Z^n; B = b_int / b_den, periods = lam_int / lam_den (from
    `Cocycle.integer_periods`) and ℓ = ell_int / ell_den.  tails[i] is the
    determinant and adjugate of the trailing block b_int[i:, i:], which the
    ellipsoid enumeration reads (`_ellipsoid_points`), and period_inv maps x to
    its lattice coordinates.
    """

    tails: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
    pb: tuple[tuple[int, ...], ...]
    b_den: int
    b_int: tuple[tuple[int, ...], ...]
    lam_den: int
    lam_int: tuple[tuple[int, ...], ...]
    ell_den: int
    ell_int: tuple[int, ...]
    period_inv: Mat


@functools.lru_cache(maxsize=64)
def _cocycle_quadratic_data(c: Cocycle) -> _QuadraticData:
    pb = linalg.matmul(c.periods, c.b)
    big_b = linalg.matmul(pb, linalg.transpose(c.periods))
    ell = c.linear_part_on_basis()
    b_den = linalg.common_denominator(x for row in big_b for x in row)
    b_int = tuple(tuple(_scaled_int(x, b_den) for x in row) for row in big_b)
    lam_den, lam_int = c.integer_periods()
    ell_den = linalg.common_denominator(ell)
    return _QuadraticData(_trailing_adjugates(b_int),
                          tuple(tuple(int(x) for x in row) for row in pb),
                          b_den, b_int, lam_den, lam_int,
                          ell_den, tuple(_scaled_int(x, ell_den) for x in ell),
                          linalg.inverse(c.period_columns()))


def _trailing_adjugates(m: Sequence[Sequence[int]]):
    """(det, adjugate) of each trailing principal block m[i:, i:], over ints.
    A singular block (from an unpolarized b, which no scan enumerates) has
    adjugate None."""
    out = []
    for i in range(len(m)):
        block = [row[i:] for row in m[i:]]
        d = int(linalg.det(block))
        out.append((d, tuple(tuple(int(x * d) for x in row)
                             for row in linalg.inverse(block)) if d else None))
    return tuple(out)


def _scaled_int(x: Fraction, den: int) -> int:
    """x·den for a den that x's denominator divides."""
    return x.numerator * (den // x.denominator)


def _quad_form(q_int: Sequence[Sequence[int]], k: Sequence[int]) -> int:
    """kᵀQk over Python ints."""
    return sum(ki * sum(a * kj for a, kj in zip(row, k)) for ki, row in zip(k, q_int) if ki)


def _translate_scale(q: _QuadraticData, pieces: Sequence[AffinePiece]) -> int:
    """A scale s that makes s·m_p, s·c_p, s·g_p and s·B/2 integral for every
    piece, so that every translate of the pieces is integral at scale s."""
    dm = linalg.common_denominator(x for p in pieces for x in p.m)
    dc = linalg.common_denominator(p.c for p in pieces)
    return math.lcm(dm * q.lam_den, dc, q.ell_den, 2 * q.b_den)


def _piece_ints(q: _QuadraticData, p: AffinePiece, scale: int):
    """(s·m_p, s·c_p, s·g_p) at a scale s from `_translate_scale`."""
    m_int = tuple(_scaled_int(x, scale) for x in p.m)
    ell_scale = scale // q.ell_den
    g_int = tuple(sum(a * b for a, b in zip(row, m_int)) // q.lam_den - e * ell_scale
                  for row, e in zip(q.lam_int, q.ell_int))
    return m_int, _scaled_int(p.c, scale), g_int


def _translate_ints(q: _QuadraticData, rep, scale: int, k: Sequence[int],
                    quad: int) -> tuple[tuple[int, ...], int]:
    """(s·m', s·c') of the translate by k of the piece with `_piece_ints` rep,
    given quad = kᵀ·b_int·k."""
    m_int, c_int, g_int = rep
    shift = [scale * sum(ki * row[j] for ki, row in zip(k, q.pb) if ki)
             for j in range(len(m_int))]
    m2 = tuple(a + b for a, b in zip(m_int, shift))
    c2 = c_int - sum(g * ki for g, ki in zip(g_int, k)) - scale // (2 * q.b_den) * quad
    return m2, c2


class _Forms(NamedTuple):
    """Values of all translates at a list of points, over Python ints.

    scale times the value at points[j] of the translate of piece p by k is
    base[p][j] + <h[p][j], k> - t·kᵀ·b_int·k.
    """

    scale: int
    t: int
    h: list[list[tuple[int, ...]]]
    base: list[list[int]]

    def value(self, pi: int, j: int, k: Sequence[int], quad: int) -> int:
        """The scaled value of the translate (pi, k) at points[j], given
        quad = kᵀ·b_int·k."""
        return self.base[pi][j] + sum(a * b for a, b in zip(self.h[pi][j], k)) - self.t * quad


def _point_forms(f: PeriodicPLFunction, q: _QuadraticData, points: Sequence[Vec]) -> _Forms:
    """The `_Forms` of f's pieces at the points, at scale s·dw for the
    `_translate_scale` s and the common denominator dw of the points."""
    s = _translate_scale(q, f.pieces)
    dw, ws = _integer_points(points)
    pbw = [tuple(sum(a * b for a, b in zip(row, w)) for row in q.pb) for w in ws]
    hs, bases = [], []
    for m_int, c_int, g_int in (_piece_ints(q, p, s) for p in f.pieces):
        hs.append([tuple(s * a - dw * g for a, g in zip(bw, g_int)) for bw in pbw])
        bases.append([sum(a * b for a, b in zip(m_int, w)) + c_int * dw for w in ws])
    return _Forms(s * dw, s // (2 * q.b_den) * dw, hs, bases)


def _ellipsoid_points(q: _QuadraticData, t: int, h: Sequence[int], r: int):
    """The integer k with t·kᵀ·b_int·k - <h, k> <= r, in lexicographic order.

    Fincke–Pohst enumeration (Math. Comp. 44, 1985), one coordinate at a
    time.  With k_1..k_{i-1} fixed the condition on the rest has the same form
    on the trailing block b_int[i:, i:], and k_i ranges over the projection of
    that ellipsoid onto its first axis: |2tD·k_i - u| <= √(N·A_00), where D and
    A are the block's determinant and adjugate, u = (A·h)_0 and
    N = 4tD·r + hᵀAh (N < 0: empty).  The bounds come from isqrt, and the last
    coordinate's range is exact, so exactly the points of the ellipsoid are
    yielded.
    """
    b_int, tails, n = q.b_int, q.tails, len(h)

    def walk(i, h, r, prefix):
        d, adj = tails[i]
        ah = [sum(a * x for a, x in zip(row, h)) for row in adj]
        big_n = 4 * t * d * r + sum(a * x for a, x in zip(ah, h))
        if big_n < 0:
            return
        s = math.isqrt(big_n * adj[0][0])
        den = 2 * t * d
        u = ah[0]
        qii, row = b_int[i][i], b_int[i][i + 1:]
        for v in range(-((s - u) // den), (u + s) // den + 1):
            if i == n - 1:
                yield prefix + (v,)
            else:
                yield from walk(i + 1, [x - 2 * t * v * a for x, a in zip(h[1:], row)],
                                r - t * qii * v * v + h[0] * v, prefix + (v,))

    yield from walk(0, h, r, ())


def _candidate_ks(f: PeriodicPLFunction, points: Sequence[Vec],
                  thresholds: Sequence[Fraction], keep_h: bool = False):
    """Translates (rep, k) whose value at some points[j] is >= thresholds[j].

    For each representative p and point x, the translates with value >= T at
    x are the integer points of the ellipsoid kᵀBk/2 - <h,k> <= p(x) - T; they
    are enumerated exactly (`_ellipsoid_points`) on the integer forms of the
    values (`_point_forms`).  Returns (candidates, forms): with keep_h the
    `_Forms` of the points, else None.
    """
    q = _cocycle_quadratic_data(f.cocycle)
    forms = _point_forms(f, q, points)
    bounds = [-((-x.numerator * forms.scale) // x.denominator) for x in thresholds]
    found: set[tuple[int, tuple[int, ...]]] = set()
    for pi, (hs, bases) in enumerate(zip(forms.h, forms.base)):
        for h, base, bound in zip(hs, bases, bounds):
            found.update((pi, k) for k in _ellipsoid_points(q, forms.t, h, base - bound))
    return found, (forms if keep_h else None)


def _point_envelope_entry(f: PeriodicPLFunction, x: Vec) -> tuple[int, tuple[int, ...]]:
    """(rep, k) of the first translate in (rep, k) order attaining the envelope at x.

    Each representative's ellipsoid is enumerated at the best value found so
    far, which starts at max_p p(x) (the translates by k = 0), so only the
    translates that can tie or beat it are scored, on integers.
    """
    q = _cocycle_quadratic_data(f.cocycle)
    forms = _point_forms(f, q, [x])
    best = max(row[0] for row in forms.base)
    winner = None
    for pi, ((h,), (base,)) in enumerate(zip(forms.h, forms.base)):
        for k in _ellipsoid_points(q, forms.t, h, base - best):
            v = forms.value(pi, 0, k, _quad_form(q.b_int, k))
            if winner is None or v > best:
                best, winner = v, (pi, k)
    return winner


class _Entries(list):
    """Scan entries (TranslatedPiece) with their pieces over Python ints:
    ints[i] = (den·m, den·c) of entry i, for the least common denominator den."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den
        self.ints: list[tuple[tuple[int, ...], int]] = []


def _enumerate_entries(f: PeriodicPLFunction, lo: Vec, hi: Vec) -> _Entries:
    """All translates that can attain the envelope somewhere on the box.

    Exact envelope minorants come first: the translate attaining the envelope
    at each point of an interior grid (`_point_envelope_entry`) bounds the
    envelope from below everywhere.  A translate that attains somewhere on
    the box is at least each minorant at some corner, in particular at least
    the minorant g largest at the box's centre; the candidates are the
    integer points of the ellipsoids {value at corner x_j >= g(x_j)}
    (`_candidate_ks`).  The pruning rule (`_may_attain`) then keeps those
    that no minorant beats at every corner.

    One minorant is the constant t0 = max_p min_box p: every piece p is a
    translate (by k = 0), so F >= p >= min_box p on the box.  It is exact as
    a row: a translate that attains at y in the box has value(y) = F(y) >= t0,
    and an affine function takes its maximum over a box at a corner, so its
    value is >= t0 at some corner.  The kept entries are a superset of every
    argmax set over the box, so evaluation results do not depend on the
    pruning.  All comparisons run on integer forms of the values at the
    corners, and the kept translates' slopes and constants are derived on
    integers too (`_translate_ints`).
    """
    c = f.cocycle
    q = _cocycle_quadratic_data(c)
    corners = box_corners(lo, hi)
    minorants = sorted({_point_envelope_entry(f, gp) for gp in _grid_points(lo, hi)})
    centre = tuple((a + b) / 2 for a, b in zip(lo, hi))
    top = max((translate_piece(c, f.pieces[pi], k) for pi, k in minorants),
              key=lambda p: p.value(centre))
    cand, forms = _candidate_ks(f, corners, [top.value(x) for x in corners], True)

    js = range(len(corners))
    floors = [[forms.value(pi, j, k, _quad_form(q.b_int, k)) for j in js]
              for pi, k in minorants]
    floors.append([max(min(row) for row in forms.base)] * len(corners))

    scale = _translate_scale(q, f.pieces)
    reps = [_piece_ints(q, p, scale) for p in f.pieces]
    kept = []
    for pi, k in sorted(cand):
        raw = _quad_form(q.b_int, k)
        if _may_attain([forms.value(pi, j, k, raw) for j in js], floors):
            kept.append((pi, k, *_translate_ints(q, reps[pi], scale, k, raw)))

    # reduce scale to the least common denominator of all kept slopes and constants
    g = math.gcd(scale, *(v for _, _, m_int, c_int in kept for v in (*m_int, c_int)))
    den = scale // g
    out = _Entries(den)
    for pi, k, m_int, c_int in kept:
        m_int = tuple(v // g for v in m_int)
        c_int //= g
        out.ints.append((m_int, c_int))
        piece = AffinePiece(tuple(Fraction(v, den) for v in m_int), Fraction(c_int, den))
        out.append(TranslatedPiece(piece, pi, k))
    return out


def evaluate(f: PeriodicPLFunction, omega: Sequence) -> tuple[Fraction, list[TranslatedPiece]]:
    """Exact sup over all translates at ω, with the full set of argmax pieces."""
    w = vec(omega)
    scan = f.scan_for(*bbox((w,) if f.cocycle is None else (*_fundamental_bbox(f.cocycle), w)))
    val, arg = scan.eval(w)
    return val, [scan.entries[i] for i in arg]


def _fundamental_bbox(c: Cocycle) -> tuple[Vec, Vec]:
    return bbox(c.fundamental_corners())
