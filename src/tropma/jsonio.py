"""JSON encoding and decoding of all exchange formats.

Rational numbers cross the boundary as exact strings "p/q" (plain integers are
accepted as shorthand); floats are rejected on input and never produced on
output, so round trips are lossless.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .cocycle import Cocycle
from .envelope import AffinePiece, PeriodicPLFunction
from .linalg import Mat, Vec
from .polyhedra import AffineLatticeFrame, Polytope, hull

if TYPE_CHECKING:
    from .approx import ApproxCertificate, ApproxRequest
    from .ma import Measure
    from .plfunc import PeriodicDecomposition, TransversalityReport
    from .skeleton import SkeletonSpec

# The codecs of requests, measures, skeleton specs and decompositions import
# `approx`, `ma`, `skeleton` and `plfunc` when they run, so that a command
# loads only its own modules.


class FormatError(ValueError):
    pass


# An exact rational literal: an integer or p/q, and nothing else that
# Fraction() reads (no decimal point, exponent, sign '+', underscore or space).
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def enc_q(x: Fraction) -> Any:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dec_q(v: Any) -> Fraction:
    if isinstance(v, bool):
        raise FormatError(f"expected a rational, got bool {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        raise FormatError(f"floats are not accepted as exact rationals: {v!r}")
    if isinstance(v, str):
        if _RATIONAL.fullmatch(v) is None:
            raise FormatError(f"bad rational literal {v!r}: expected an integer or p/q")
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad rational literal {v!r}: {e}") from e
    raise FormatError(f"expected a rational, got {type(v).__name__}")


def dec_int(v: Any, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"{what} must be a JSON integer, got {v!r}")
    return v


def dec_bool(v: Any, what: str) -> bool:
    if not isinstance(v, bool):
        raise FormatError(f"{what} must be JSON true or false, got {v!r}")
    return v


def dec_list(d: dict, key: str, what: str, default=None) -> list:
    """d[key] as a JSON list; a missing key gives default, or an error if None."""
    if key not in d and default is not None:
        return default
    v = dec_field(d, key, what)
    if not isinstance(v, list):
        raise FormatError(f"{what} field {key!r} must be a list, got {type(v).__name__}")
    return v


def dec_object(v: Any, what: str) -> dict:
    if not isinstance(v, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(v).__name__}")
    return v


def dec_field(d: dict, key: str, what: str) -> Any:
    """d[key], or an error naming the field when it is missing."""
    if key not in d:
        raise FormatError(f"{what} is missing {key!r}")
    return d[key]


def enc_vec(v: Vec) -> list:
    return [enc_q(x) for x in v]


def dec_vec(v: Any) -> Vec:
    if not isinstance(v, list):
        raise FormatError("expected a list of rationals")
    return tuple(dec_q(x) for x in v)


def enc_mat(m: Mat) -> list:
    return [enc_vec(r) for r in m]


def dec_mat(m: Any) -> Mat:
    if not isinstance(m, list):
        raise FormatError("expected a list of rows")
    return tuple(dec_vec(r) for r in m)


# -- polytopes and frames ----------------------------------------------------

def enc_polytope(p: Polytope) -> dict:
    return {"vertices": [enc_vec(v) for v in p.vertices]}


def dec_polytope(d: Any) -> Polytope:
    if not isinstance(d, dict) or "vertices" not in d:
        raise FormatError("a polytope is encoded as {\"vertices\": [[...]]}")
    verts = [dec_vec(v) for v in d["vertices"]]
    if not verts:
        raise FormatError("a polytope needs at least one vertex")
    if len({len(v) for v in verts}) != 1:
        raise FormatError("polytope vertices must all have the same dimension")
    return hull(verts)


def enc_frame(fr: AffineLatticeFrame) -> dict:
    return {"basepoint": enc_vec(fr.basepoint), "basis": enc_mat(fr.basis)}


def dec_frame(d: Any) -> AffineLatticeFrame:
    if not isinstance(d, dict):
        raise FormatError("a frame is encoded as {\"basepoint\", \"basis\"}")
    return AffineLatticeFrame(dec_vec(dec_field(d, "basepoint", "frame")),
                              tuple(dec_vec(b) for b in dec_list(d, "basis", "frame", [])))


# -- cocycles and functions ---------------------------------------------------

def enc_cocycle(c: Cocycle) -> dict:
    return {"n": c.n, "periods": enc_mat(c.periods), "b": enc_mat(c.b),
            "z0": enc_vec(c.z0), "polarized": c.polarized}


def dec_cocycle(d: Any) -> Cocycle:
    if not isinstance(d, dict):
        raise FormatError("a cocycle is encoded as an object")
    for key in ("n", "periods", "b", "z0"):
        if key not in d:
            raise FormatError(f"cocycle is missing {key!r}")
    n = dec_int(d["n"], "cocycle field 'n'")
    if n < 1:
        raise FormatError("cocycle field 'n' must be a positive integer")
    c = Cocycle.make(dec_mat(d["periods"]), dec_mat(d["b"]), dec_vec(d["z0"]),
                     dec_bool(d.get("polarized", True), "cocycle field 'polarized'"))
    if c.n != n:
        raise FormatError("cocycle field 'n' does not match the period count")
    return c


def enc_function(f: PeriodicPLFunction) -> dict:
    out = {"pieces": [{"m": enc_vec(p.m), "c": enc_q(p.c)} for p in f.pieces]}
    if f.cocycle is not None:
        out["cocycle"] = enc_cocycle(f.cocycle)
    return out


def dec_function(d: Any) -> PeriodicPLFunction:
    if not isinstance(d, dict) or "pieces" not in d:
        raise FormatError("a function is encoded as {\"cocycle\", \"pieces\"}")
    pieces = []
    for p in dec_list(d, "pieces", "function"):
        if not isinstance(p, dict):
            raise FormatError("a piece is encoded as {\"m\", \"c\"}")
        pieces.append(AffinePiece(dec_vec(dec_field(p, "m", "piece")),
                                  dec_q(dec_field(p, "c", "piece"))))
    c = dec_cocycle(d["cocycle"]) if "cocycle" in d else None
    dims = {len(p.m) for p in pieces}
    if len(dims) > 1 or (c is not None and dims and dims != {c.n}):
        raise FormatError("piece slopes must all have one dimension, the cocycle's")
    return PeriodicPLFunction(c, pieces)


def enc_decomposition(dec: PeriodicDecomposition) -> dict:
    return {"cocycle": enc_cocycle(dec.cocycle),
            "cells": [enc_polytope(c) for c in dec.cells]}


def dec_decomposition(d: Any, cocycle: Cocycle | None = None) -> PeriodicDecomposition:
    from .plfunc import PeriodicDecomposition
    if not isinstance(d, dict) or "cells" not in d:
        raise FormatError("a decomposition is encoded as {\"cells\": [...]}")
    c = cocycle if cocycle is not None else dec_cocycle(dec_field(d, "cocycle", "decomposition"))
    return PeriodicDecomposition(c, tuple(dec_polytope(x)
                                          for x in dec_list(d, "cells", "decomposition")))


# -- measures ------------------------------------------------------------------

def enc_measure(mu: Measure) -> dict:
    from .ma import total_mass
    out = {
        "atoms": [{"at": enc_vec(a.at), "mass": enc_q(a.mass),
                   **({"label": a.label} if a.label else {})}
                  for a in mu.atoms],
        "pieces": [{"support": enc_polytope(p.support), "frame": enc_frame(p.frame),
                    "density": enc_q(p.density),
                    **({"label": p.label} if p.label else {})}
                   for p in mu.lebesgue_pieces],
        "total": enc_q(total_mass(mu)),
    }
    return out


def dec_measure(d: Any) -> Measure:
    from .ma import Atom, LebesguePiece, Measure, total_mass
    if not isinstance(d, dict):
        raise FormatError("a measure is encoded as an object")
    atoms = []
    for a in dec_list(d, "atoms", "measure", []):
        a = dec_object(a, "measure atom")
        atoms.append(Atom(dec_vec(dec_field(a, "at", "measure atom")),
                          dec_q(dec_field(a, "mass", "measure atom")), a.get("label", "")))
    pieces = []
    for p in dec_list(d, "pieces", "measure", []):
        p = dec_object(p, "measure piece")
        pieces.append(LebesguePiece(dec_polytope(dec_field(p, "support", "measure piece")),
                                    dec_frame(dec_field(p, "frame", "measure piece")),
                                    dec_q(dec_field(p, "density", "measure piece")),
                                    p.get("label", "")))
    mu = Measure(tuple(atoms), tuple(pieces))
    if "total" in d and dec_q(d["total"]) != total_mass(mu):
        raise FormatError("measure total does not match its contents")
    return mu


# -- skeleton specs -------------------------------------------------------------

def enc_skeleton(spec: SkeletonSpec) -> dict:
    return {
        "cocycle": enc_cocycle(spec.cocycle),
        "d": spec.d,
        "faces": [{
            "id": f.id,
            "carrier": enc_polytope(f.carrier),
            "frame": enc_frame(f.frame),
            "e": f.e,
            "degH": enc_q(f.deg_h),
            "f_aff": {"L": enc_mat(f.f_aff_linear), "t": enc_vec(f.f_aff_offset)},
            "abelian_nondegenerate": f.abelian_nondegenerate,
            "boundary": list(f.boundary_ids),
        } for f in spec.faces],
        "gluing": [{"a": g.face_a, "b": g.face_b,
                    "L": enc_mat(g.linear), "t": enc_vec(g.offset)}
                   for g in spec.gluing],
    }


def dec_skeleton(d: Any) -> SkeletonSpec:
    from .skeleton import Gluing, SkeletonFace, SkeletonSpec
    if not isinstance(d, dict):
        raise FormatError("a skeleton spec is encoded as an object")
    for key in ("cocycle", "d", "faces"):
        if key not in d:
            raise FormatError(f"skeleton spec is missing {key!r}")
    faces = []
    for fd in dec_list(d, "faces", "skeleton spec"):
        fd = dec_object(fd, "skeleton face")
        fa = dec_object(fd.get("f_aff", {}), "face field 'f_aff'")
        faces.append(SkeletonFace(
            id=str(dec_field(fd, "id", "skeleton face")),
            carrier=dec_polytope(dec_field(fd, "carrier", "skeleton face")),
            frame=dec_frame(dec_field(fd, "frame", "skeleton face")),
            e=dec_int(dec_field(fd, "e", "skeleton face"), "face field 'e'"),
            deg_h=dec_q(dec_field(fd, "degH", "skeleton face")),
            f_aff_linear=dec_mat(dec_field(fa, "L", "face field 'f_aff'")),
            f_aff_offset=dec_vec(dec_field(fa, "t", "face field 'f_aff'")),
            abelian_nondegenerate=dec_bool(dec_field(fd, "abelian_nondegenerate", "skeleton face"),
                                           "face field 'abelian_nondegenerate'"),
            boundary_ids=tuple(dec_list(fd, "boundary", "skeleton face", [])),
        ))
    gluing = []
    for g in dec_list(d, "gluing", "skeleton spec", []):
        g = dec_object(g, "skeleton gluing")
        gluing.append(Gluing(str(dec_field(g, "a", "skeleton gluing")),
                             str(dec_field(g, "b", "skeleton gluing")),
                             dec_mat(dec_field(g, "L", "skeleton gluing")),
                             dec_vec(dec_field(g, "t", "skeleton gluing"))))
    return SkeletonSpec(dec_cocycle(d["cocycle"]), dec_int(d["d"], "skeleton field 'd'"),
                        tuple(faces), tuple(gluing))


# -- approximation requests and certificates ------------------------------------

def dec_request(d: Any, eps=None, seed=None, max_retries=None) -> ApproxRequest:
    from .approx import ApproxRequest
    if not isinstance(d, dict):
        raise FormatError("an approximation request is encoded as an object")
    cocycle = None
    function = None
    if "pieces" in d:
        function = dec_function(d)
    elif "cocycle" in d:
        cocycle = dec_cocycle(d["cocycle"])
    elif "periods" in d:
        cocycle = dec_cocycle(d)
    else:
        raise FormatError("request needs a 'cocycle' or a 'function' target")
    sigma = tuple(dec_polytope(s) for s in dec_list(d, "sigma", "request", []))
    n = cocycle.n if cocycle is not None else function.n
    if any(s.ambient_dim != n for s in sigma):
        raise FormatError(f"sigma polytopes must lie in the target's dimension {n}")
    eps = eps if eps is not None else dec_q(d.get("eps", "1/4"))
    seed = seed if seed is not None else dec_int(d.get("seed", 0), "request field 'seed'")
    max_retries = (max_retries if max_retries is not None
                   else dec_int(d.get("max_retries", 50), "request field 'max_retries'"))
    return ApproxRequest(cocycle=cocycle, function=function, sigma=sigma,
                         eps=eps, rng_seed=seed, max_retries=max_retries)


def enc_transversality(report: TransversalityReport | None) -> Any:
    if report is None:
        return None
    return {
        "ok": report.ok,
        "criterion_ok": report.criterion_ok,
        "violations": [{
            "sigma": enc_polytope(s), "cell": enc_polytope(cc),
            "dim": dim, "expected": exp,
        } for s, cc, dim, exp in report.violations],
    }


def enc_certificate(cert: ApproxCertificate) -> dict:
    return {
        "sup_error_bound": enc_q(cert.sup_error_bound),
        "strictly_convex": cert.strictly_convex,
        "periodic": cert.periodic,
        "transversal": enc_transversality(cert.transversal),
        "retries_used": cert.retries_used,
        "stage_errors": {name: None if err is None else enc_q(err)
                         for name, err in vars(cert.stage_errors).items()},
        "mesh_k": cert.mesh_k,
    }


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"malformed JSON: {e}") from e
