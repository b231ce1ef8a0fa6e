"""Deterministic SVG rendering of 2-d decompositions, Σ overlays and measures.

Output is a pure function of the input objects: coordinates are emitted at a
fixed precision of 1e-6 (the only place floating point appears on the way
out), colors and ordering are fixed, so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .envelope import _fundamental_bbox
from .ma import Measure, total_mass
from .plfunc import PeriodicDecomposition, _ring2d, _translates_meeting
from .polyhedra import Polytope

_W = 640


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class _View:
    def __init__(self, lo, hi, size=_W):
        self.lo = [float(a) for a in lo]
        self.hi = [float(b) for b in hi]
        span = max(self.hi[0] - self.lo[0], self.hi[1] - self.lo[1], 1e-9)
        self.scale = (size - 40) / span
        self.size = size

    def pt(self, p) -> str:
        x = 20 + (float(p[0]) - self.lo[0]) * self.scale
        y = self.size - 20 - (float(p[1]) - self.lo[1]) * self.scale
        return f"{_fmt(x)},{_fmt(y)}"


def render(decomposition: Optional[PeriodicDecomposition] = None,
           sigma: Sequence[Polytope] = (),
           measure: Optional[Measure] = None,
           size: int = _W) -> str:
    """Render cells over one fundamental domain with Σ and measure overlays.

    Cell edges in gray, Σ in blue, Lebesgue pieces shaded by relative density,
    atoms as red discs with area proportional to mass.
    """
    lo = hi = None
    if decomposition is not None:
        if decomposition.cocycle.n != 2:
            raise ValueError("plot supports 2-D only")
        lo, hi = _fundamental_bbox(decomposition.cocycle)
    boxes = []
    for s in sigma:
        boxes.append(s.bbox())
    if measure is not None:
        for a in measure.atoms:
            boxes.append((a.at, a.at))
        for p in measure.lebesgue_pieces:
            boxes.append(p.support.bbox())
    for blo, bhi in boxes:
        if len(blo) != 2:
            raise ValueError("plot supports 2-D only")
        lo = blo if lo is None else tuple(min(a, b) for a, b in zip(lo, blo))
        hi = bhi if hi is None else tuple(max(a, b) for a, b in zip(hi, bhi))
    if lo is None:
        raise ValueError("nothing to plot")
    pad = max(Fraction(1, 10), *(b - a for a, b in zip(lo, hi))) / 10
    lo = tuple(a - pad for a in lo)
    hi = tuple(b + pad for b in hi)
    view = _View(lo, hi, size)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']

    if measure is not None and measure.lebesgue_pieces:
        dmax = max(p.density for p in measure.lebesgue_pieces)
        for p in measure.lebesgue_pieces:
            if p.support.ambient_dim != 2 or p.support.dim < 2:
                continue
            shade = 235 - int(120 * float(p.density / dmax)) if dmax else 235
            ring = " ".join(view.pt(v) for v in _ring2d(p.support))
            parts.append(f'<polygon points="{ring}" fill="rgb({shade},{shade},255)" '
                         f'stroke="none"/>')

    if decomposition is not None:
        for _, _, cell in sorted(_translates_meeting(decomposition, lo, hi),
                                 key=lambda t: (t[0], t[1])):
            ring = " ".join(view.pt(v) for v in _ring2d(cell))
            parts.append(f'<polygon points="{ring}" fill="none" stroke="gray" '
                         f'stroke-width="1"/>')

    for s in sigma:
        vs = _ring2d(s) if s.dim == 2 else list(s.vertices)
        if s.dim == 0:
            parts.append(f'<circle cx="{view.pt(vs[0]).split(",")[0]}" '
                         f'cy="{view.pt(vs[0]).split(",")[1]}" r="3" fill="blue"/>')
        elif s.dim == 1:
            parts.append(f'<polyline points="{" ".join(view.pt(v) for v in vs)}" '
                         f'fill="none" stroke="blue" stroke-width="2"/>')
        else:
            parts.append(f'<polygon points="{" ".join(view.pt(v) for v in vs)}" '
                         f'fill="none" stroke="blue" stroke-width="2"/>')

    if measure is not None and measure.atoms:
        mtot = total_mass(measure)
        for a in sorted(measure.atoms, key=lambda a: a.at):
            frac = float(a.mass / mtot) if mtot else 0.0
            r = 3 + 12 * math.sqrt(frac)
            x, y = view.pt(a.at).split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="{_fmt(r)}" fill="red" '
                         f'fill-opacity="0.7"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
