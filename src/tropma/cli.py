"""Command-line front end: JSON in, exact JSON (or SVG) out.

Every command is deterministic given its input bytes and flags.  All numbers
in JSON artifacts are exact rational strings; the one timing line of
`approximate` is diagnostic only and goes to stderr so artifacts stay
byte-reproducible.  Exit codes:
0 success, 1 input or validation error, 2 algorithmic failure (perturbation
retries exhausted, strictification failure, a failed cell walk or certificate,
or a failed mass check).  A malformed flag is an input error like any other.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from . import jsonio
from .errors import CellWalkError, CertificateError, PerturbationError, StrictificationError
from .jsonio import FormatError

# Each command imports the modules it runs, so that a call loads and compiles
# only those: `approximate` loads no `ma` or `skeleton`, and the measure
# commands load no `approx`.


def _read(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return jsonio.loads(fh.read())


def _write(path, text: str):
    if path:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    else:
        sys.stdout.write(text)


def _fail(kind: str, message: str, code: int) -> int:
    sys.stdout.write(jsonio.dumps({"error": {"kind": kind, "message": message}}))
    return code


def _metric_from_path(path: str):
    if path == "canonical":
        return "canonical"
    return jsonio.dec_function(_read(path))


def _function_pieces(pieces) -> bool:
    """Whether a 'pieces' value is read as affine pieces rather than measure
    pieces; a value of the wrong shape is, so that decoding names the fault."""
    return (not isinstance(pieces, list) or not pieces or not isinstance(pieces[0], dict)
            or "m" in pieces[0])


def _looks_like_measure(data) -> bool:
    if not isinstance(data, dict):
        return False
    if "atoms" in data:
        return True
    pieces = data.get("pieces")
    return isinstance(pieces, list) and bool(pieces) and isinstance(pieces[0], dict) \
        and "support" in pieces[0]


def cmd_validate(args) -> int:
    from .plfunc import check_cocycle_rule, check_periodic
    data = _read(args.infile)
    kind = args.kind
    if kind == "auto":
        if isinstance(data, dict) and "faces" in data:
            kind = "skeleton"
        elif isinstance(data, dict) and "cells" in data:
            kind = "decomposition"
        elif isinstance(data, dict) and "atoms" in data:
            kind = "measure"
        elif isinstance(data, dict) and "pieces" in data and _function_pieces(data["pieces"]):
            kind = "function"
        elif isinstance(data, dict) and "pieces" in data:
            kind = "measure"
        elif isinstance(data, dict) and "periods" in data:
            kind = "cocycle"
        else:
            raise FormatError("cannot infer the kind of this input")
    report = {"kind": kind, "valid": True}
    if kind == "cocycle":
        jsonio.dec_cocycle(data)
    elif kind == "function":
        f = jsonio.dec_function(data)
        report["cocycle_rule"] = check_cocycle_rule(f) if f.cocycle else None
    elif kind == "decomposition":
        d = jsonio.dec_decomposition(data)
        report["periodic"] = check_periodic(d)
        report["valid"] = report["periodic"]
    elif kind == "skeleton":
        jsonio.dec_skeleton(data)
    elif kind == "measure":
        jsonio.dec_measure(data)
    else:
        raise FormatError(f"unknown kind {kind!r}")
    _write(args.out, jsonio.dumps(report))
    return 0 if report["valid"] else 1


def cmd_approximate(args) -> int:
    from .approx import approximate
    data = _read(args.infile)
    eps = jsonio.dec_q(args.eps) if args.eps is not None else None
    if eps is not None and eps <= 0:
        return _fail("validation", "epsilon must be positive", 1)
    req = jsonio.dec_request(data, eps=eps, seed=args.seed)
    t0 = time.monotonic()
    f, decomp, cert = approximate(req)
    print(f"approximate: {time.monotonic() - t0:.3f}s "
          f"(retries {cert.retries_used})", file=sys.stderr)
    out = {
        "function": jsonio.enc_function(f),
        "decomposition": jsonio.enc_decomposition(decomp),
        "certificate": jsonio.enc_certificate(cert),
    }
    _write(args.out, jsonio.dumps(out))
    return 0


def cmd_ma(args) -> int:
    from .ma import ma_pl
    if args.k < 1:
        return _fail("validation", "--k must be >= 1", 1)
    if args.region and args.fundamental:
        return _fail("validation", "--region and --fundamental exclude each other", 1)
    data = jsonio.dec_object(_read(args.infile), "the input of ma")
    if "pieces" in data:
        f = jsonio.dec_function(data)
    else:
        from .approx import tangent_pl
        c = jsonio.dec_cocycle(data if "periods" in data
                               else jsonio.dec_field(data, "cocycle", "the input of ma"))
        f = tangent_pl(c, args.k)
    region = None
    if args.region:
        region = jsonio.dec_polytope(_read(args.region))
    mu = ma_pl(f, region)
    _write(args.out, jsonio.dumps(jsonio.enc_measure(mu)))
    return 0


def cmd_skeleton_measure(args) -> int:
    from .skeleton import assemble_measure
    spec = jsonio.dec_skeleton(_read(args.infile))
    metric = _metric_from_path(args.metric or "canonical")
    mu = assemble_measure(spec, metric)
    _write(args.out, jsonio.dumps(jsonio.enc_measure(mu)))
    return 0


def cmd_degree(args) -> int:
    from .skeleton import skeleton_degrees
    spec = jsonio.dec_skeleton(_read(args.infile))
    metric = _metric_from_path(args.metric)
    if metric == "canonical":
        return _fail("validation", "degree needs a PL metric file", 1)
    rows = []
    total = Fraction(0)
    for face, xi, deg in skeleton_degrees(spec, metric):
        rows.append({"face": face.id, "at": jsonio.enc_vec(xi), "degree": jsonio.enc_q(deg)})
        total += deg
    _write(args.out, jsonio.dumps({"degrees": rows, "total": jsonio.enc_q(total)}))
    return 0


def cmd_mass_check(args) -> int:
    from .ma import total_mass
    from .skeleton import face_measures
    spec = jsonio.dec_skeleton(_read(args.infile))
    metrics = args.metric or ["canonical"]
    totals = {}
    per_face = {}
    for mpath in metrics:
        data = _read(mpath) if mpath != "canonical" else None
        if data is not None and _looks_like_measure(data):
            mu = jsonio.dec_measure(data)
            totals[mpath] = total_mass(mu)
            continue
        metric = "canonical" if mpath == "canonical" else jsonio.dec_function(data)
        table = {face.id: total_mass(mu) for face, mu in face_measures(spec, metric)}
        per_face[mpath] = {k: jsonio.enc_q(v) for k, v in table.items()}
        totals[mpath] = sum(table.values(), Fraction(0))
    values = list(totals.values())
    equal = all(v == values[0] for v in values)
    report = {
        "totals": {k: jsonio.enc_q(v) for k, v in totals.items()},
        "per_face": per_face,
        "equal": equal,
    }
    _write(args.out, jsonio.dumps(report))
    return 0 if equal else 2


def cmd_plot(args) -> int:
    from .plfunc import linearity_cells
    from .svgplot import render
    data = jsonio.dec_object(_read(args.infile), "the input of plot")
    decomp = None
    sigma = ()
    measure = None
    if "cells" in data:
        decomp = jsonio.dec_decomposition(data)
    elif data.get("pieces") and _function_pieces(data["pieces"]):
        f = jsonio.dec_function(data)
        if f.cocycle is None or f.cocycle.n != 2:
            return _fail("validation", "plot supports 2-D only", 1)
        decomp = linearity_cells(f)[0]
    if "sigma" in data:
        sigma = tuple(jsonio.dec_polytope(s)
                      for s in jsonio.dec_list(data, "sigma", "the input of plot"))
    if "measure" in data:
        measure = jsonio.dec_measure(data["measure"])
    elif "atoms" in data and "cells" not in data and decomp is None:
        measure = jsonio.dec_measure(data)
    try:
        svg = render(decomp, sigma, measure)
    except ValueError as e:
        return _fail("validation", str(e), 1)
    _write(args.out, svg)
    return 0


class _Flag:
    """One flag of a command, read into args.<dest>.

    type is str or int for a flag that takes a value, or bool for a switch,
    which is False unless given.  A repeatable flag collects its values in a
    list, None when absent; choices, when set, are the only values accepted.
    """

    __slots__ = ("names", "help", "dest", "type", "default", "required", "repeat", "choices")

    def __init__(self, names, help, dest=None, type=str, default=None, required=False,
                 repeat=False, choices=None):
        self.names = names
        self.help = help
        self.dest = dest or names[-1].lstrip("-")
        self.type = type
        self.default = False if type is bool else default
        self.required = required
        self.repeat = repeat
        self.choices = choices


_IN = _Flag(("--in",), "input JSON file", dest="infile", required=True)
_OUT = _Flag(("--out",), "output file (stdout if empty)", default="")

# command -> (handler, help, flags), in the order the help lists them
COMMANDS = {
    "validate": (cmd_validate, "parse and validate an input file", (
        _IN, _OUT,
        _Flag(("--kind",), "the kind of the input, inferred by default", default="auto",
              choices=("auto", "cocycle", "function", "decomposition", "skeleton", "measure")))),
    "approximate": (cmd_approximate, "transversal PL approximation pipeline", (
        _IN, _OUT,
        _Flag(("--eps",), "tolerance as an exact rational, e.g. 1/4"),
        _Flag(("--seed",), "seed of the perturbation draws", type=int))),
    "ma": (cmd_ma, "Monge-Ampere measure of a PL function", (
        _IN, _OUT,
        _Flag(("--k",), "tangent mesh refinement when the input is a cocycle", type=int,
              default=1),
        _Flag(("--region",), "polytope JSON restricting the atoms"),
        _Flag(("--fundamental",), "report one atom per lattice orbit (half-open domain)",
              type=bool))),
    "skeleton-measure": (cmd_skeleton_measure, "assemble the measure of a skeleton spec", (
        _IN, _OUT,
        _Flag(("--metric",), "'canonical' or a path to a function JSON", default="canonical"))),
    "degree": (cmd_degree, "vertex degrees of a PL metric on a skeleton", (
        _IN, _OUT, _Flag(("--metric",), "path to a function JSON", required=True))),
    "mass-check": (cmd_mass_check, "compare total masses across metrics", (
        _IN, _OUT,
        _Flag(("--metric",), "'canonical' or a function/measure JSON path (repeatable)",
              repeat=True))),
    "plot": (cmd_plot, "deterministic SVG of 2-D data", (_IN, _OUT)),
}


def _plain(argv: list):
    """The namespace argparse reads from an argv in the canonical form, else None.

    In the canonical form the command comes first, then each flag by its full
    name, with its value after '=' or as the next argument.  No value starts
    with '-' (argparse reads '--in=--' as an empty list), only a repeatable
    flag is given twice, a switch takes no '=', each value passes its flag's
    type and choices, and every required flag is given.  Every call the
    benchmark and the docs make has this form, so none imports argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, flags = COMMANDS[argv[0]]
    by_name = {f.names[-1]: f for f in flags}
    args = SimpleNamespace(command=argv[0], func=func, **{f.dest: f.default for f in flags})
    seen = set()
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        flag = by_name.get(name)
        if flag is None or flag in seen and not flag.repeat or flag.type is bool and eq:
            return None
        if flag.type is bool:
            value = True
        else:
            value = value if eq else next(rest, "-")    # a missing value fails the '-' rule
            if value.startswith("-") or flag.choices and value not in flag.choices:
                return None
            if flag.type is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            if flag.repeat:
                value = (getattr(args, flag.dest) or []) + [value]
        seen.add(flag)
        setattr(args, flag.dest, value)
    return args if all(f in seen for f in flags if f.required) else None


def _argparse(argv: list):
    """argv read by an argparse parser built from COMMANDS; a usage error is a
    FormatError with argparse's message, and --help prints argparse's help."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise FormatError(f"{self.prog}: {message}")

    top = Parser(prog="tropma", usage="tropma <command> [flags]",
                 description="Exact Monge-Ampere measures of toric metrics on tropical "
                             "abelian varieties")
    sub = top.add_subparsers(dest="command", required=True, prog="tropma")
    for command, (func, text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=text, description=text)
        for f in flags:
            kw = ({"action": "store_true"} if f.type is bool else {"action": "append"} if f.repeat
                  else {"type": f.type, "default": f.default, "required": f.required,
                        "choices": f.choices})
            p.add_argument(*f.names, dest=f.dest, help=f.help, **kw)
        p.set_defaults(func=func)
    return top.parse_args(argv)


def parse_args(argv: list):
    """The command's handler and flag values as attributes of one namespace:
    command, func and one attribute per flag of the command."""
    return _plain(argv) or _argparse(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except (PerturbationError, StrictificationError, CellWalkError, CertificateError) as e:
        return _fail("algorithmic", str(e), 2)
    except (FormatError, ValueError, KeyError, OSError) as e:
        return _fail("validation", str(e), 1)


if __name__ == "__main__":
    sys.exit(main())
