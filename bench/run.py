"""Closed-loop benchmark of the tropma CLI, one named workload per run.

    python3 bench/run.py --workload measure-2d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One client sends one request at a
time; with --trace 0 each request is a `python -m tropma.cli` subprocess run
against the checkout's src/, so at most one core is busy.  A round is one pass
over the workload's request list, and rounds repeat while another one fits in
--seconds.  Every output is checked afterwards (bench/checks.py) outside the
timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: round_ref (a round's CLI calls, each
timed in units of a fixed reference computation timed right after it; see
in_reference_units), peak_rss_mb and setup_s (set-up seconds scaled to a
nominal machine speed; see nominal_seconds).  The plain seconds per round and
per command are printed on the lines above.
--trace 1 calls tropma.cli.main in-process instead, alternating a plain round
and a round with the layer wrappers of bench/tracer.py installed, and reports
the per-layer metrics (per-round self times and counts, medians over traced
rounds) and the tracing overhead.  Spans are written to bench/work/ as JSON
lines when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
from exact import solve  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
HARD_LIMIT_S = 165          # every call is killed past this point of the run
COMMANDS = ("approximate", "ma", "skeleton-measure", "mass-check", "degree")

END_TO_END = {"round_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
REFERENCE_SYSTEMS = 300
REFERENCE_SHARE = 0.2
REFERENCE_NOMINAL_S = 0.05


@functools.lru_cache(maxsize=1)
def _reference_problem():
    rng = random.Random(0)
    return [([[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3)]
              for _ in range(3)], [Fraction(rng.randint(-99, 99), 97) for _ in range(3)])
            for _ in range(REFERENCE_SYSTEMS)]


def reference_seconds() -> float:
    """Wall seconds of a fixed exact computation that does not use tropma.

    It solves REFERENCE_SYSTEMS rational 3x3 systems by Fraction elimination,
    the kind of arithmetic tropma spends its time in.  Timed between the CLI
    calls, it lets a round's call seconds be expressed in reference units
    (`round_ref`), which cancels much of the drift in the speed of a shared
    machine, since the drift moves both alike.
    """
    systems = _reference_problem()
    t = time.perf_counter()
    for rows, rhs in systems:
        solve(rows, rhs)
    return time.perf_counter() - t


def nominal_seconds(seconds: float) -> float:
    """Seconds measured just now, scaled to the speed at which the reference
    takes REFERENCE_NOMINAL_S: seconds × REFERENCE_NOMINAL_S / (reference
    seconds timed right after).  Plain set-up seconds moved by up to 53%
    between two sets of ten runs while the machine slowed down; scaled, they
    follow the work done in set-up instead.
    """
    refs = [reference_seconds() for _ in range(3)]
    return seconds * REFERENCE_NOMINAL_S / statistics.fmean(refs)


def per_layer_units() -> dict[str, str]:
    units = {"cli.startup_s": "s", "cli.self_s": "s"}
    units.update({f"cmd.{c.replace('-', '_')}_s": "s" for c in COMMANDS})
    for _, _, metric, counter, _ in LAYERS:
        if metric:
            units[metric] = "s"
        if counter:
            units[counter] = "count"
    for name in ("plfunc.scan_candidates", "plfunc.scan_entries", "plfunc.cells",
                 "plfunc.collar_restarts", "approx.tangent_pieces", "approx.strictify_pieces",
                 "approx.perturb_draws", "approx.genericity_tuples", "approx.output_pieces",
                 "ma.atoms", "skeleton.pullback_pieces"):
        units[name] = "count"
    units["jsonio.bytes_out"] = "B"
    units["plfunc.scan_kept_ratio"] = "ratio"
    units.update({"trace.round_s": "s", "trace.plain_round_s": "s",
                  "trace.overhead_share": "ratio", "trace.spans": "count"})
    return units


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.t0 = time.perf_counter()
        self.dir = WORK / f"{workload}-s{seed}"
        self.inputs = self.dir / "inputs"
        self.outputs = self.dir / "outputs"
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.log: list[dict] = []           # one entry per call, written to calls.jsonl
        self._checked: dict[tuple, str | None] = {}

    # -- set-up -----------------------------------------------------------

    def setup(self) -> tuple[list, list[float], list[float]]:
        """Generate the inputs and warm the interpreter, SETUP_REPEATS times.

        Returns the request list, each set-up's seconds scaled to the nominal
        machine speed (see `nominal_seconds`), and each warm-up's plain seconds.
        """
        scaled, startups = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            shutil.rmtree(self.dir, ignore_errors=True)
            requests = gen.generate(self.workload, self.seed, str(self.inputs))
            self.outputs.mkdir(parents=True)
            s = time.perf_counter()
            p = subprocess.run([sys.executable, "-c",
                                "import tropma.cli; print(tropma.cli.__file__)"],
                               env=self.env, capture_output=True, text=True, timeout=60)
            startups.append(time.perf_counter() - s)
            scaled.append(nominal_seconds(time.perf_counter() - t))
            where = Path(p.stdout.strip() or ".").resolve()
            if p.returncode != 0 or SRC.resolve() not in where.parents:
                raise SystemExit(f"tropma does not import from {SRC}: {p.stderr.strip()}")
        return requests, scaled, startups

    # -- calls ------------------------------------------------------------

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t0)

    def call(self, argv: list[str], out: Path) -> tuple[float, int]:
        """One CLI subprocess: wall seconds and exit code (-9 when killed)."""
        with open(out, "wb") as fout:
            t = time.perf_counter()
            p = subprocess.Popen([sys.executable, "-m", "tropma.cli", *argv], cwd=self.inputs,
                                 env=self.env, stdout=fout, stderr=subprocess.DEVNULL)
            try:
                rc = p.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
                rc = -9
            return time.perf_counter() - t, rc

    def call_inprocess(self, argv: list[str], out: Path, tracer: Tracer | None) -> tuple[float, int]:
        """tropma.cli.main in this process, with fresh module caches."""
        import tropma.cli
        _clear_caches()
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.inputs)
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    rc = tropma.cli.main(argv)
                else:
                    rc = tracer.span(f"cli.{argv[0]}", "cli.self_s", tropma.cli.main, argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:                      # a crash is a failed operation
            rc = 70
            self.problems.append(f"{argv[0]} raised {type(e).__name__}: {e}")
        finally:
            elapsed = time.perf_counter() - t
            os.chdir(cwd)
        out.write_text(buf.getvalue(), encoding="utf-8")
        return elapsed, rc

    def round(self, requests: list, index: int, runner, reference=None) -> dict:
        """One pass over the request list.

        Returns the round's wall seconds (`wall`, reference samples included),
        the seconds spent in calls (`calls`) and per command (`per_cmd`), and
        the results.  With a reference timer, it is timed after each call until
        its samples add up to REFERENCE_SHARE of the call's seconds; every call
        goes to `self.log` with its samples.
        """
        start = time.perf_counter()
        per_cmd: dict[str, float] = {}
        results = []
        for i, req in enumerate(requests):
            out = self.outputs / f"r{index}_{i}.json"
            seconds, rc = runner([req["command"], *req["args"]], out)
            after: list[float] = []
            while reference and (not after or sum(after) < REFERENCE_SHARE * seconds):
                after.append(reference())
            self.log.append({"round": index, "command": req["command"], "args": req["args"],
                             "seconds": seconds, "rc": rc, "reference_after": after})
            per_cmd[req["command"]] = per_cmd.get(req["command"], 0.0) + seconds
            results.append((req, out, rc))
            self.attempted += 1
        return {"wall": time.perf_counter() - start, "calls": sum(per_cmd.values()),
                "per_cmd": per_cmd, "results": results}

    # -- checks -------------------------------------------------------------

    def check_all(self, results: list) -> None:
        """Count failed operations and record every wrong output."""
        for req, out, rc in results:
            if rc != 0:
                self.failed += 1
                self.problems.append(f"{req['command']} {' '.join(req['args'])} exited {rc}")
                continue
            data = out.read_bytes()
            key = (json.dumps(req, sort_keys=True), hashlib.sha256(data).hexdigest())
            if key not in self._checked:
                self._checked[key] = self.check(req, data)
            problem = self._checked[key]
            if problem is not None:
                self.failed += 1
                self.problems.append(f"wrong output of {req['command']} "
                                     f"{' '.join(req['args'])}: {problem}")

    def check(self, req: dict, data: bytes) -> str | None:
        try:
            out = json.loads(data)
        except json.JSONDecodeError as e:
            return f"output is not JSON ({e})"
        kind = req["check"]
        try:
            if kind == "approximation":
                return self.check_approximation(req, out)
            if kind == "ma_total":
                return checks.check_ma_total(out, self.load(req["function"]))
            spec = self.load(req["spec"])
            return {"skeleton_total": checks.check_skeleton_total,
                    "mass_check": checks.check_mass_check,
                    "degree_total": checks.check_degree_total}[kind](out, spec)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            return f"malformed output ({type(e).__name__}: {e})"

    def check_approximation(self, req: dict, out: dict) -> str | None:
        path = self.outputs / f"approximant_{len(self._checked)}.json"
        path.write_text(json.dumps(out["function"]), encoding="utf-8")
        measure = self.outputs / f"approximant_{len(self._checked)}_ma.json"
        _, rc = self.call(["ma", "--in", str(path), "--fundamental"], measure)
        if rc != 0:
            return f"ma of the approximant exited {rc}"
        args = req["args"]
        eps = Fraction(args[args.index("--eps") + 1])
        seed = int(args[args.index("--seed") + 1])
        return checks.check_approximation(out, self.load(args[args.index("--in") + 1]), eps,
                                          json.loads(measure.read_bytes()), seed)

    def load(self, name: str):
        return json.loads((self.inputs / name).read_text(encoding="utf-8"))

    def keep_going(self, spent: float, one: float) -> bool:
        return spent + one <= self.seconds and self.remaining() > 3 * one


def _clear_caches() -> None:
    """Empty tropma's module-level caches, as a fresh CLI process would have them."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("tropma"):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(run: Run, requests: list) -> dict:
    rounds = []
    spent = 0.0
    results = []
    while True:
        r = run.round(requests, len(rounds), run.call, reference_seconds)
        rounds.append(r)
        results += r.pop("results")
        spent += r["wall"]
        if not run.keep_going(spent, statistics.median(x["wall"] for x in rounds)):
            break
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run.check_all(results)
    print(f"{len(rounds)} rounds; medians over rounds:")
    print(f"  round_s {statistics.median(r['calls'] for r in rounds):.4f} s")
    for cmd in COMMANDS:
        values = [r["per_cmd"][cmd] for r in rounds if cmd in r["per_cmd"]]
        if values:
            print(f"  {cmd.replace('-', '_')}_s {statistics.median(values):.4f} s")
    pieces = _approx_pieces(results)
    if pieces:
        print(f"  approx_pieces {pieces} pieces")
    print(f"  round_ref {in_reference_units(run.log):.4f} ref")
    return {"round_ref": in_reference_units(run.log), "peak_rss_mb": peak}


def in_reference_units(log: list[dict]) -> float:
    """A round in reference units: the sum over the requests of the median,
    over the rounds, of the call's seconds divided by the mean reference
    sample taken right after it.

    Over ten seeds its spread was 3-11%, against 16-19% for the plain
    seconds: the reference slows down with the machine, and the median drops
    a round that a burst of load hit.
    """
    per_request: dict[str, list[float]] = {}
    for e in log:
        key = json.dumps([e["command"], e["args"]])
        per_request.setdefault(key, []).append(e["seconds"] / statistics.fmean(e["reference_after"]))
    return sum(statistics.median(v) for v in per_request.values())


def _approx_pieces(results: list) -> int:
    """Total affine pieces in the first round's certified approximants."""
    total = 0
    for req, out, rc in results:
        if req["command"] == "approximate" and rc == 0 and out.name.startswith("r0_"):
            total += len(json.loads(out.read_bytes())["function"]["pieces"])
    return total


def run_traced(run: Run, requests: list) -> tuple[dict, Tracer]:
    sys.path.insert(0, str(SRC))
    import tropma.cli  # noqa: F401  (loads every module the wrappers patch)
    tracer = Tracer()
    plain, traced, rows = [], [], []
    results = []

    def traced_call(argv, out):
        return run.call_inprocess(argv, out, tracer)

    spent = 0.0
    while True:
        r = run.round(requests, 2 * len(plain),
                      lambda argv, out: run.call_inprocess(argv, out, None), reference_seconds)
        plain.append(r)
        results += r.pop("results")
        tracer.install()
        try:
            spans_before = len(tracer.spans)
            r = run.round(requests, 2 * len(traced) + 1, traced_call, reference_seconds)
        finally:
            tracer.uninstall()
        times, counts, nspans = tracer.take_round()
        traced.append(r)
        results += r.pop("results")
        row = {**times, **counts, "trace.spans": nspans - spans_before}
        row.update({f"cmd.{c.replace('-', '_')}_s": s for c, s in r["per_cmd"].items()})
        rows.append(row)
        spent += plain[-1]["wall"] + traced[-1]["wall"]
        if not run.keep_going(spent, plain[-1]["wall"] + traced[-1]["wall"]):
            break
    run.check_all(results)

    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        values = [row.get(name, 0) for row in rows]
        metrics[name] = statistics.median(values)
    cand = metrics["plfunc.scan_candidates"]
    metrics["plfunc.scan_kept_ratio"] = metrics["plfunc.scan_entries"] / cand if cand else 0.0
    metrics["trace.round_s"] = statistics.median(r["calls"] for r in traced)
    metrics["trace.plain_round_s"] = statistics.median(r["calls"] for r in plain)
    # compared in reference units, so that drift in machine speed cancels
    metrics["trace.overhead_share"] = (
        in_reference_units([e for e in run.log if e["round"] % 2 == 1])
        / in_reference_units([e for e in run.log if e["round"] % 2 == 0]) - 1)
    print(f"{len(traced)} traced rounds, {len(plain)} plain in-process rounds; "
          f"tracing overhead {100 * metrics['trace.overhead_share']:.1f}%")
    return metrics, tracer


def write_spans(path: Path, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tropma" / "cli.py").is_file():
        print(f"no tropma sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    requests, setups, startups = run.setup()
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} calls per round; "
          f"setup {statistics.median(setups):.3f} s at nominal speed "
          f"(median of {SETUP_REPEATS})")
    if args.trace:
        values, tracer = run_traced(run, requests)
        values["cli.startup_s"] = statistics.median(startups)
        units = per_layer_units()
        metrics = {}
        for name, unit in units.items():
            metrics[name] = _metric(values[name], unit)
            if name in tracer.missing:
                metrics[name]["absent"] = f"{tracer.missing[name]} not found"
                print(f"  absent: {name} ({tracer.missing[name]} not found)")
        write_spans(run.dir.parent / f"trace-{args.workload}-s{args.seed}.jsonl", tracer)
    else:
        values = run_plain(run, requests)
        values["setup_s"] = statistics.median(setups)
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    with open(run.dir / "calls.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(entry) + "\n" for entry in run.log)
    for p in run.problems:
        print(f"  problem: {p}")
    correct = not any(p.startswith("wrong output") for p in run.problems)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
