"""Transversal piecewise-linear approximation of cocycle-rule convex functions.

The pipeline realizes the constructive approximation in three certified
stages: a tangent envelope of the canonical quadratic on a refined lattice
mesh (replacing the abstract uniform-approximation input), a barycentric
strictification that breaks flat ties by lowering face barycenters, and a
random rational perturbation accepted only when exact certificates hold:
certified sup error, strict convexity, periodicity of the cell complex
(certified from the draw's own cells by `certify_linearity_tiling`: vertex
values, distinct Λ-classes and total volume, with no pairwise pass) and
transversality against the prescribed polytopes.  Strictification runs only
when the cell walk does not already certify the stage-1 function as strictly
convex; tangent envelopes are certified strict, so canonical targets skip it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .cocycle import Cocycle
from .envelope import (AffinePiece, PeriodicPLFunction, _fundamental_bbox, _int_argmax,
                       evaluate)
from .errors import CellWalkError, PerturbationError, StrictificationError
from .linalg import Vec, dot, vsub
from .plfunc import (PeriodicDecomposition, TransversalityReport, _closure_under_faces,
                     _walk_box, certify_linearity_tiling, check_transversal, linearity_cells)
from .polyhedra import Polytope, _reduced, bbox
from .value import Value, setfield


class ApproxRequest(Value):
    """Target (canonical cocycle or PL function), Σ, tolerance and seeding."""

    _fields = ("cocycle", "function", "sigma", "eps", "rng_seed", "max_retries")

    def __init__(self, cocycle: Optional[Cocycle] = None,
                 function: Optional[PeriodicPLFunction] = None,
                 sigma: tuple[Polytope, ...] = (), eps: Fraction = Fraction(1, 4),
                 rng_seed: int = 0, max_retries: int = 50):
        if (cocycle is None) == (function is None):
            raise ValueError("request needs exactly one target: a cocycle or a function")
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        for s in sigma:
            if not isinstance(s, Polytope):
                raise ValueError("sigma entries must be polytopes")
        setfield(self, "cocycle", cocycle)
        setfield(self, "function", function)
        setfield(self, "sigma", sigma)
        setfield(self, "eps", eps)
        setfield(self, "rng_seed", rng_seed)
        setfield(self, "max_retries", max_retries)


class StageErrors(Value):
    """Certified sup error of each stage; None for a stage that did not run."""

    _fields = ("tangent", "strictify", "perturb")

    def __init__(self, tangent: Optional[Fraction] = None,
                 strictify: Optional[Fraction] = None, perturb: Optional[Fraction] = None):
        setfield(self, "tangent", tangent)
        setfield(self, "strictify", strictify)
        setfield(self, "perturb", perturb)


class ApproxCertificate(Value):
    _fields = ("sup_error_bound", "strictly_convex", "transversal", "periodic",
               "retries_used", "stage_errors", "mesh_k")

    def __init__(self, sup_error_bound: Fraction, strictly_convex: bool,
                 transversal: Optional[TransversalityReport], periodic: bool,
                 retries_used: int, stage_errors: StageErrors = StageErrors(),
                 mesh_k: Optional[int] = None):
        setfield(self, "sup_error_bound", sup_error_bound)
        setfield(self, "strictly_convex", strictly_convex)
        setfield(self, "transversal", transversal)
        setfield(self, "periodic", periodic)
        setfield(self, "retries_used", retries_used)
        setfield(self, "stage_errors", stage_errors)
        setfield(self, "mesh_k", mesh_k)

    @property
    def ok(self) -> bool:
        return (self.strictly_convex and self.periodic
                and (self.transversal is None or self.transversal.ok))


# ---------------------------------------------------------------------------
# stage 1: tangent envelopes of the canonical quadratic

# The largest tangent mesh refinement: tangent_pl(c, k) builds k^n pieces, and
# a tiny epsilon would otherwise ask for a mesh that is never finished.
MAX_MESH_K = 32


def tangent_pl(c: Cocycle, k: int) -> PeriodicPLFunction:
    """Envelope of the tangents of the canonical quadratic at (1/k)Λ.

    Tangent pieces translate to tangent pieces under the cocycle action, so
    the envelope satisfies the cocycle rule by construction; its cells are the
    b-metric Voronoi regions of the mesh and the sup error against the
    quadratic is the largest corner gap, exactly 1/k^2 times the k=1 gap.
    """
    if k < 1:
        raise ValueError("mesh refinement k must be >= 1")
    if k > MAX_MESH_K:
        raise ValueError(f"tangent mesh k = {k} exceeds the limit {MAX_MESH_K}")
    pieces = []
    for j in itertools.product(range(k), repeat=c.n):
        w0 = [Fraction(0)] * c.n
        for ji, lam in zip(j, c.periods):
            if ji:
                w0 = [x + Fraction(ji, k) * y for x, y in zip(w0, lam)]
        w0 = tuple(w0)
        m = c.canonical_gradient(w0)
        pieces.append(AffinePiece(m, c.canonical_value(w0) - dot(m, w0)))
    f = PeriodicPLFunction(c, pieces)
    linearity_cells(f)
    return f


def tangent_gap(f: PeriodicPLFunction) -> Fraction:
    """Exact sup of (canonical quadratic - envelope) over a fundamental domain.
    Both obey the cocycle rule, and the quadratic minus a cell's piece is
    convex, so the sup is at a canonical cell vertex (`_max_above`)."""
    return _max_above(f, f.cocycle.canonical_value)


def _max_above(f: PeriodicPLFunction, g) -> Fraction:
    """max (g - f) over the vertices of f's canonical cells, for g a function
    of a point; at a vertex f is its cell's piece, certified by the walk."""
    decomp, pieces, _ = linearity_cells(f)
    return max(g(v) - pieces[i].value(v)
               for i, cell in enumerate(decomp.cells) for v in cell.vertices)


# ---------------------------------------------------------------------------
# stage 2: barycentric strictification


def _face_barycenter(cell: Polytope, fset: frozenset) -> Vec:
    pts = [cell.vertices[i] for i in sorted(fset)]
    s = [sum(col, Fraction(0)) for col in zip(*pts)]
    return tuple(x / len(pts) for x in s)


def _flag_chains(by_dim: dict[int, list[frozenset]], top: frozenset, k: int):
    def descend(fset: frozenset, d: int):
        if d == 0:
            yield [fset]
            return
        for sub in by_dim.get(d - 1, []):
            if sub < fset:
                for ch in descend(sub, d - 1):
                    yield ch + [fset]
    return descend(top, k)


def barycentric_strictify(f: PeriodicPLFunction, delta: Fraction) -> PeriodicPLFunction:
    """Strictly convex PL function within delta of f, on the barycentric cells.

    Face barycenters are lowered by dimension-graded offsets (top faces get
    the largest drop) and the simplexwise interpolant is re-read as a sup of
    affine pieces.  The result is accepted only when the envelope reproduces
    every intended vertex value and each barycentric simplex has a unique
    winning piece; otherwise the offset and its grading shrink and the
    construction retries.  The result's cells are walked like any function's
    (`linearity_cells`).  f − g is affine on each barycentric simplex and
    largest at a cell barycenter, so sup |f − g| is the top-face drop.

    The first offset is at most the margin by which each cell's piece wins
    at its own barycenter (`_min_winning_gap`), the scale of the cells'
    bending: a larger budget does no extra work, and drops far beyond that
    scale would inflate the envelope scan of every attempt.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    c = f.cocycle
    if c is None:
        raise ValueError("strictification needs a periodic function")
    decomp, cell_pieces, _ = linearity_cells(f)

    delta_t = min(delta, _min_winning_gap(f))
    ratio = 4
    for _attempt in range(10):
        g = _build_barycentric(f, decomp, cell_pieces, delta_t, ratio)
        if g is not None:
            return g
        delta_t = delta_t / 2
        ratio = ratio * 4
    raise StrictificationError("strictification failed")


def _build_barycentric(f: PeriodicPLFunction, decomp: PeriodicDecomposition,
                       cell_pieces, delta_t: Fraction, ratio: int):
    """One strictification attempt g, or None when g's envelope misses a
    target value or a simplex has no unique winner.  g's one scan covers each
    point read here and g's first walk box, so an accepted g is walked on it."""
    c = f.cocycle
    n = c.n

    def drop(d: int) -> Fraction:
        return Fraction(0) if d == 0 else delta_t / ratio ** (n - d)

    pieces: list[AffinePiece] = []
    centers: list[Vec] = []
    targets: dict[Vec, Fraction] = {}

    for idx, cell in enumerate(decomp.cells):
        p = cell_pieces[idx]
        face_dims = cell._face_vertex_sets()
        by_dim: dict[int, list[frozenset]] = {}
        for fset, d in face_dims.items():
            by_dim.setdefault(d, []).append(fset)
        barys = {fset: _face_barycenter(cell, fset) for fset in face_dims}
        vals = {}
        for fset, d in face_dims.items():
            b = barys[fset]
            v = p.value(b) - drop(d)
            vals[fset] = v
            prev = targets.get(b)
            if prev is not None and prev != v:
                return None
            targets[b] = v
        top = frozenset(range(len(cell.vertices)))
        for chain in _flag_chains(by_dim, top, n):
            pts = [barys[fs] for fs in chain]
            rows = [list(pt) + [Fraction(1)] for pt in pts]
            rhs = [vals[fs] for fs in chain]
            sol = linalg.solve(rows, rhs)
            if sol is None:
                raise StrictificationError("barycentric simplex is degenerate")
            m, cc = sol[:-1], sol[-1]
            pieces.append(AffinePiece(tuple(m), cc))
            centers.append(tuple(sum(col, Fraction(0)) / len(pts) for col in zip(*pts)))

    g = PeriodicPLFunction(c, pieces)
    scan = g.scan_for(*bbox((*_walk_box(g), *targets, *centers)))

    seen: set[tuple] = set()
    for e in scan.entries:
        key = (e.piece.m, e.piece.c)
        if key in seen:
            return None
        seen.add(key)
    for point, val in targets.items():
        got, _ = scan.eval(point)
        if got != val:
            return None
    for piece, center in zip(pieces, centers):
        val, arg = scan.eval(center)
        if len(arg) != 1 or val != piece.value(center):
            return None
    return g


# ---------------------------------------------------------------------------
# stage 3: generic perturbation


def genericity_conditions(pieces: Sequence[AffinePiece], sigma: Sequence[Polytope],
                          n: int, tuples: Optional[Sequence[tuple[int, ...]]] = None
                          ) -> tuple[bool, str]:
    """The two genericity conditions on slope differences against Σ's hulls.

    For hyperplane normals (a_i)_{i in I_σ} cutting out the affine hull of σ
    and distinct pieces Δ_0..Δ_p: when #I + p <= n the slope differences
    joined with the normals must be linearly independent; when #I + p = n+1
    the corresponding inhomogeneous system must be unsolvable.  `tuples`
    restricts which index tuples are examined (defaults to all of size <= n+2,
    which is only sensible for small piece lists).
    """
    sigmas = _closure_under_faces(tuple(sigma))
    if tuples is None:
        tuples = [t for size in range(2, n + 3)
                  for t in itertools.combinations(range(len(pieces)), size)]
    for s in sigmas:
        normals = [a for a, _ in s.equations]
        offs = [cc for _, cc in s.equations]
        ni = len(normals)
        for t in tuples:
            p = len(t) - 1
            if p < 1:
                continue
            base = pieces[t[0]]
            diffs = [vsub(pieces[i].m, base.m) for i in t[1:]]
            if ni + p <= n:
                if linalg.rank(diffs + normals) != ni + p:
                    return False, f"condition I fails (p={p}, #I={ni})"
            elif ni + p == n + 1:
                rows = diffs + normals
                rhs = [pieces[i].c - base.c for i in t[1:]] + offs
                if linalg.solve(rows, rhs) is not None:
                    return False, f"condition II fails (p={p}, #I={ni})"
    return True, ""


def _sup_diff(fa: PeriodicPLFunction, fb: PeriodicPLFunction) -> Fraction:
    """Exact sup |fa - fb|: the larger of max (fb - fa) over the vertices of
    fa's canonical cells and max (fa - fb) over those of fb's.

    Proof.  On a cell C of fa, fa is an affine p, and fb - p is a max of
    affine functions, hence convex, so max_C (fb - fa) is attained at a
    vertex of C.  Both functions obey the same cocycle rule, so fb - fa is
    Λ-periodic, and the translates of the canonical cells cover R^n: the max
    of fb - fa over R^n is its max over the canonical cells' vertices.  The
    same holds for fa - fb on the cells of fb, and sup |fa - fb| is the larger
    of the two maxima, which is >= 0.
    """
    return max(_max_above(fa, lambda v: evaluate(fb, v)[0]),
               _max_above(fb, lambda v: evaluate(fa, v)[0]))


def _min_winning_gap(f: PeriodicPLFunction) -> Fraction:
    """Smallest margin by which a cell's piece wins at its own barycenter,
    over the entries of the scan f's cells were walked on: each canonical
    barycenter lies in the fundamental box, which that scan covers."""
    decomp, _, _ = linearity_cells(f)
    scan = f.scan_for(*_fundamental_bbox(f.cocycle))
    gaps = []
    for cell in decomp.cells:
        center = cell.barycenter()
        val, arg = scan.eval(center)
        rest = [e for i, e in enumerate(scan._ints) if i not in arg]
        if rest:
            *w, dw = _reduced(center)
            second, _ = _int_argmax(rest, w, dw)
            gaps.append(val - Fraction(second, scan.den * dw))
    return min(gaps, default=Fraction(1))


def _rand_frac(rng: random.Random, radius: Fraction, grain: int = 4096) -> Fraction:
    return Fraction(rng.randint(-grain, grain), grain) * radius


def perturb_generic(f: PeriodicPLFunction, sigma: Sequence[Polytope], eps: Fraction,
                    seed: int, max_retries: int
                    ) -> tuple[PeriodicPLFunction, ApproxCertificate]:
    """Draw rational perturbations of the representatives until all exact
    acceptance certificates hold: certified sup error below eps, strict
    convexity, Λ-periodicity, the genericity conditions and Σ-transversality.

    Λ-periodicity is `certify_linearity_tiling` on the draw's walked cells
    (vertex, class and volume checks on data the walk has cached); the
    pairwise pass of `check_periodic` is not needed for cells of linearity.

    Draw boxes shrink by halves across retries; everything about a draw is a
    deterministic function of (f, sigma, eps, seed).
    """
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    c = f.cocycle
    n = c.n
    decomp0, _, strict0 = linearity_cells(f)
    if not strict0:
        raise ValueError("perturbation requires a strictly convex input")

    lo, hi = _fundamental_bbox(c)
    scale = max(max(abs(a), abs(b)) for a, b in zip(lo, hi)) + 1
    span = n * scale + 1
    gap = _min_winning_gap(f)
    radius = min(eps / (8 * span), gap / (8 * span))

    rng = random.Random(seed)
    sigma = tuple(sigma)
    last_failure = "no draws attempted"
    for attempt in range(max_retries):
        r = radius / (2 ** attempt)
        pieces = []
        for p in f.pieces:
            dm = tuple(x + _rand_frac(rng, r) for x in p.m)
            dc = p.c + _rand_frac(rng, r)
            pieces.append(AffinePiece(dm, dc))
        f2 = PeriodicPLFunction(c, pieces)
        try:
            decomp2, map2, strict2 = linearity_cells(f2)
        except CellWalkError:
            last_failure = "cell extraction"
            continue
        if not strict2:
            last_failure = "strict convexity"
            continue
        err = _sup_diff(f, f2)
        if err >= eps:
            last_failure = "certified error bound"
            continue
        tiles, why = certify_linearity_tiling(f2, decomp2, map2)
        if not tiles:
            last_failure = f"periodicity ({why})"
            continue
        transversal = None
        if sigma:
            tuples = _adjacent_tuples(f2, decomp2, n)
            gen_ok, why = genericity_conditions(f2.pieces, sigma, n, tuples)
            if not gen_ok:
                last_failure = f"genericity ({why})"
                continue
            transversal = check_transversal(decomp2, sigma)
            if not transversal.ok:
                last_failure = "transversality"
                continue
        cert = ApproxCertificate(err, True, transversal, True, attempt,
                                 StageErrors(perturb=err))
        return f2, cert
    raise PerturbationError(last_failure)


def _adjacent_tuples(f2: PeriodicPLFunction, decomp2: PeriodicDecomposition,
                     n: int) -> list[tuple[int, ...]]:
    """Index tuples of representatives whose cells meet at a complex vertex."""
    tuples: set[tuple[int, ...]] = set()
    for cell in decomp2.cells:
        for u in cell.vertices:
            _, arg = evaluate(f2, u)
            reps = sorted({e.rep_index for e in arg})
            for size in range(2, min(len(reps), n + 2) + 1):
                tuples.update(itertools.combinations(reps, size))
    if len(f2.pieces) <= 48:
        tuples.update(itertools.combinations(range(len(f2.pieces)), 2))
    return sorted(tuples)


# ---------------------------------------------------------------------------
# the full pipeline


def approximate(req: ApproxRequest
                ) -> tuple[PeriodicPLFunction, PeriodicDecomposition, ApproxCertificate]:
    """Tangent envelope (if the target is canonical) -> strictify -> perturb.

    The tangent mesh is the coarsest whose gap fits eps/2.  Strictification
    runs only when the cell walk does not certify the stage-1 function as
    strictly convex: it then gets half of what stage 1 left, its error is the
    certified `_sup_diff`, and the perturbation gets the other half;
    otherwise the perturbation gets all of it.
    The certificate's bound is the exact sum of the certified stage errors,
    hence < eps.
    """
    k = None
    if req.cocycle is not None:
        c = req.cocycle
        half = req.eps / 2
        f1 = tangent_pl(c, 1)
        gap1 = tangent_gap(f1)
        k = max(1, linalg.ceil_sqrt(gap1 / half))
        while gap1 > k * k * half:
            k += 1
        if k > 1:
            f1 = tangent_pl(c, k)
        stage1 = tangent_gap(f1)
    else:
        f1 = req.function
        stage1 = None

    rest = req.eps if stage1 is None else req.eps - stage1
    stage2 = None
    if not linearity_cells(f1)[2]:
        rest = rest / 2
        f2 = barycentric_strictify(f1, rest)
        stage2 = _sup_diff(f1, f2)
        f1 = f2

    f3, cert = perturb_generic(f1, req.sigma, rest, req.rng_seed, req.max_retries)
    decomp3, _, _ = linearity_cells(f3)
    stages = StageErrors(stage1, stage2, cert.sup_error_bound)
    total = sum(e for e in (stage1, stage2, cert.sup_error_bound) if e is not None)
    cert = cert.replace(sup_error_bound=total, stage_errors=stages, mesh_k=k)
    return f3, decomp3, cert
