"""Monte Carlo cross-checks for exact quantities.

The estimators here use floating point and randomness on purpose: they are
statistical oracles for validating the exact computations, not part of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .envelope import PeriodicPLFunction, translate_piece
from .linalg import vec
from .ma import subdifferential
from .plfunc import _translates_meeting, linearity_cells


def _adjacent_cells(f: PeriodicPLFunction, xi):
    """Cells of the (cached) decomposition containing xi, with their pieces."""
    c = f.cocycle
    decomp, cmap, _ = linearity_cells(f)
    out = []
    for ci, k, t in _translates_meeting(decomp, xi, xi):
        if t.contains(xi):
            out.append((t, translate_piece(c, cmap[ci], k)))
    return out


def sampled_subdifferential_volume(f: PeriodicPLFunction, xi: Sequence,
                                   n_samples: int = 100_000, seed: int = 0) -> float:
    """Membership-sampling estimate of the dual-polytope volume at a vertex.

    Draws u uniformly in the bounding box of the slopes adjacent to xi and
    tests f(w) - f(xi) >= <w - xi, u> at every vertex of every adjacent cell,
    which characterizes membership in the subdifferential for convex PL f.
    Returns hit fraction times box volume.
    """
    xi = vec(xi)
    adjacent = _adjacent_cells(f, xi)
    if not adjacent:
        raise ValueError("xi is not covered by the cell decomposition")
    fxi = adjacent[0][1].value(xi)

    slopes = np.array(sorted({tuple(map(float, piece.m)) for _, piece in adjacent}))
    lo = slopes.min(axis=0)
    hi = slopes.max(axis=0)
    box_vol = float(np.prod(hi - lo))
    if box_vol == 0.0:
        return 0.0

    test_pts = []
    gaps = []
    for cell, piece in adjacent:
        for w in cell.vertices:
            test_pts.append([float(a - b) for a, b in zip(w, xi)])
            gaps.append(float(piece.value(w) - fxi))
    w_mat = np.array(test_pts)
    g_vec = np.array(gaps)

    rng = np.random.default_rng(seed)
    u = rng.uniform(lo, hi, size=(n_samples, len(lo)))
    hits = np.all(u @ w_mat.T <= g_vec[None, :] + 1e-12, axis=1)
    return float(hits.mean()) * box_vol


def exact_subdifferential_volume(f: PeriodicPLFunction, xi: Sequence) -> Fraction:
    """Exact companion of the sampled estimate: the volume of the certified
    subdifferential, zero when it is lower-dimensional."""
    from .polyhedra import volume
    return volume(subdifferential(f, xi).dual.vertices)
