"""Every benchmark request at seed 4 writes the committed golden bytes.

`bench/gen.py` writes the inputs of the three workloads (approx-canonical,
measure-2d, restrict-3d) at seed 4 into a temporary directory, and each
request of its round runs through `tropma.cli.main` there.  Its stdout must
equal tests/golden/<workload>_seed4_<index>_<command>.json byte for byte, so
a refactor that changes any artifact of the benchmark shows here.  Only
bench/gen.py is read; nothing under bench/ is changed.  Regenerate the
golden files only for a deliberate artifact change, with

    PYTHONPATH=src python tests/test_golden_workloads.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys
import tempfile

import pytest

from tropma import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
BENCH = os.path.join(HERE, os.pardir, "bench")
WORKLOADS = ("approx-canonical", "measure-2d", "restrict-3d")
SEED = 4


def _gen():
    """bench/gen.py as a module; it imports its sibling `exact`."""
    sys.path.insert(0, BENCH)
    try:
        spec = importlib.util.spec_from_file_location("bench_gen", os.path.join(BENCH, "gen.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH)
    return module


GEN = _gen()


def golden_path(workload: str, index: int, command: str) -> str:
    return os.path.join(GOLDEN, f"{workload}_seed{SEED}_{index}_{command}.json")


def _cases():
    # the request list depends only on the workload and the seed, not on where
    # the inputs are written
    with tempfile.TemporaryDirectory() as tmp:
        return [(w, i, r["command"]) for w in WORKLOADS
                for i, r in enumerate(GEN.generate(w, SEED, tmp))]


def run_request(workload: str, index: int, inputs: str) -> bytes:
    """The stdout bytes of one request, run in the directory of its inputs."""
    req = GEN.generate(workload, SEED, inputs)[index]
    cwd = os.getcwd()
    out = io.StringIO()
    os.chdir(inputs)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main([req["command"], *req["args"]]) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("workload,index,command", _cases())
def test_request_matches_golden(workload, index, command, tmp_path):
    with open(golden_path(workload, index, command), "rb") as fh:
        expected = fh.read()
    assert run_request(workload, index, str(tmp_path)) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for workload, index, command in _cases():
        with tempfile.TemporaryDirectory() as tmp:
            data = run_request(workload, index, tmp)
        with open(golden_path(workload, index, command), "wb") as fh:
            fh.write(data)
