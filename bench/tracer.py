"""In-process spans and counters around tropma's layer boundaries.

The traced run imports tropma, installs the wrappers listed in LAYERS and
calls `tropma.cli.main` directly.  A wrapper with a time metric records a
span (name, start, end, parent) and adds the span's self time (its duration
minus its child spans) to that metric; a wrapper with only counters adds to
them and records no span.  A function imported into another module is
wrapped there too.  A name that no longer exists is reported as missing and
its metrics as absent; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _n(key):
    return lambda result, args, kwargs: {key: len(result)}


def _candidates(result, args, kwargs):
    # only the scan's own candidate set, not the point minorants it builds
    keep = kwargs.get("keep_h", args[3] if len(args) > 3 else False)
    return {"plfunc.scan_candidates": len(result[0])} if keep else {}


def _tuples(result, args, kwargs):
    tuples = kwargs.get("tuples", args[3] if len(args) > 3 else None)
    return {"approx.genericity_tuples": len(tuples)} if tuples is not None else {}


# (module, attribute, time metric or None, call counter or None, result counters)
LAYERS = [
    ("tropma.jsonio", "loads", "jsonio.decode_s", None, None),
    ("tropma.jsonio", "dec_cocycle", "jsonio.decode_s", None, None),
    ("tropma.jsonio", "dec_function", "jsonio.decode_s", None, None),
    ("tropma.jsonio", "dec_skeleton", "jsonio.decode_s", None, None),
    ("tropma.jsonio", "dec_request", "jsonio.decode_s", None, None),
    ("tropma.jsonio", "dec_measure", "jsonio.decode_s", None, None),
    ("tropma.jsonio", "enc_function", "jsonio.encode_s", None, None),
    ("tropma.jsonio", "enc_decomposition", "jsonio.encode_s", None, None),
    ("tropma.jsonio", "enc_certificate", "jsonio.encode_s", None, None),
    ("tropma.jsonio", "enc_measure", "jsonio.encode_s", None, None),
    ("tropma.jsonio", "dumps", "jsonio.encode_s", None, _n("jsonio.bytes_out")),
    ("tropma.plfunc", "_enumerate_entries", "plfunc.scan_s", "plfunc.scan_builds",
     _n("plfunc.scan_entries")),
    ("tropma.plfunc", "_candidate_ks", "plfunc.scan_s", None, _candidates),
    ("tropma.plfunc", "linearity_cells", "plfunc.cells_s", None, None),
    ("tropma.plfunc", "_walk_cells", "plfunc.cells_s", "plfunc.cell_walks",
     lambda r, a, k: {"plfunc.cells": len(r[0].cells)}),
    ("tropma.plfunc", "_certified_cell", None, "plfunc.cell_certs", None),
    ("tropma.plfunc", "_EnvelopeScan.eval", None, "plfunc.evals", None),
    ("tropma.plfunc", "check_periodic", "plfunc.periodic_s", None, None),
    ("tropma.plfunc", "check_transversal", "plfunc.transversal_s", None, None),
    ("tropma.approx", "tangent_pl", "approx.tangent_s", None,
     lambda r, a, k: {"approx.tangent_pieces": len(r.pieces)}),
    ("tropma.approx", "barycentric_strictify", "approx.strictify_s", None,
     lambda r, a, k: {"approx.strictify_pieces": len(r.pieces)}),
    ("tropma.approx", "_build_barycentric", None, "approx.strictify_attempts", None),
    ("tropma.approx", "perturb_generic", "approx.perturb_s", None,
     lambda r, a, k: {"approx.perturb_draws": r[1].retries_used + 1}),
    ("tropma.approx", "_sup_diff", "approx.sup_diff_s", None, None),
    ("tropma.approx", "genericity_conditions", "approx.genericity_s", None, _tuples),
    ("tropma.approx", "approximate", None, None,
     lambda r, a, k: {"approx.output_pieces": len(r[0].pieces)}),
    ("tropma.ma", "ma_pl", "ma.atoms_s", None, lambda r, a, k: {"ma.atoms": len(r.atoms)}),
    ("tropma.polyhedra", "lattice_volume", "polyhedra.volume_s", "polyhedra.volume_calls", None),
    ("tropma.polyhedra", "hull", None, "polyhedra.hull_calls", None),
    ("tropma.polyhedra", "clip_polygon", None, "polyhedra.clip_calls", None),
    ("tropma.skeleton", "_pullback_pieces", "skeleton.pullback_s", None,
     _n("skeleton.pullback_pieces")),
    ("tropma.skeleton", "_pullback_atoms", "skeleton.pullback_s", None, None),
    ("tropma.skeleton", "vertex_degree", "skeleton.degree_s", "skeleton.degree_vertices", None),
    ("tropma.linalg", "solve", None, "linalg.solve_calls", None),
    ("tropma.linalg", "rank", None, "linalg.rank_calls", None),
    ("tropma.linalg", "det", None, "linalg.det_calls", None),
    ("tropma.cocycle", "Cocycle.constant_at", None, "cocycle.constant_at_calls", None),
]

# exceptions that a wrapped function raises as part of normal control flow
RESTART = {"_walk_cells": "plfunc.collar_restarts"}


class Tracer:
    """Installs the wrappers, keeps spans in memory and sums them per round."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.stack: list[list] = []          # [span index, child seconds]
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}    # metric -> missing name
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for modname, attr, metric, counter, extract in LAYERS:
            try:
                module = importlib.import_module(modname)
                owner, name = module, attr
                if "." in attr:
                    cls, name = attr.split(".")
                    owner = getattr(module, cls)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                for m in (metric, counter):
                    if m:
                        self.missing[m] = f"{modname}.{attr}"
                continue
            wrapper = self._wrap(original, f"{modname}.{attr}", metric, counter, extract,
                                 RESTART.get(name))
            owners = [owner]
            if owner is module:
                owners += [m for n, m in sys.modules.items()
                           if n.startswith("tropma.") and m is not module
                           and getattr(m, name, None) is original]
            for o in owners:
                self._patched.append((o, name, original))
                setattr(o, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def span(self, name: str, metric: str, fn, *args, **kwargs):
        """Call fn inside a span whose self time is added to `metric`."""
        stack, spans = self.stack, self.spans
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1][0] if stack else None])
        stack.append([idx, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, child = stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.times[metric] += dur - child
            spans[idx][1] = start
            spans[idx][2] = end

    def _wrap(self, fn, name, metric, counter, extract, restart):
        counts = self.counts

        if metric is None and extract is None:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return count_only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            try:
                if metric:
                    result = self.span(name, metric, fn, *args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            except Exception as e:
                if restart and type(e).__name__ == "_CollarTooSmall":
                    counts[restart] += 1
                raise
            if extract:
                for key, value in extract(result, args, kwargs).items():
                    counts[key] += value
            return result
        return wrapper

    def take_round(self) -> tuple[dict, dict, int]:
        """Per-round totals since the last call, and the number of spans."""
        times, counts = dict(self.times), dict(self.counts)
        self.times.clear()
        self.counts.clear()
        return times, counts, len(self.spans)
