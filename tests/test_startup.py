"""Each CLI command loads only the tropma modules it runs, and no `dataclasses`
or `argparse`.

Every CLI call is a fresh process, which imports and (without bytecode
caches) compiles each module it loads, so a module a command does not use
costs start-up time on every call.  Each case runs `tropma.cli.main` in a
fresh interpreter and reads `sys.modules` afterwards.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropma import jsonio, tangent_pl

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import tropma.cli
rc = tropma.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "dataclasses": "dataclasses" in sys.modules,
                  "argparse": "argparse" in sys.modules,
                  "modules": sorted(m[7:] for m in sys.modules if m.startswith("tropma."))}))
"""

BARE = """
import json, sys
import tropma.cli
print(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith("tropma."))))
"""

TATE = {"n": 1, "periods": [[1]], "b": [[1]], "z0": ["1/2"]}
ID2 = {"n": 2, "periods": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]], "z0": ["1/2", "1/2"]}
SKELETON = {"cocycle": ID2, "d": 2, "faces": [{
    "id": "top", "carrier": {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    "frame": {"basepoint": [0, 0], "basis": [[1, 0], [0, 1]]}, "e": 0, "degH": 1,
    "f_aff": {"L": [[1, 0], [0, 1]], "t": ["1/7", "2/9"]},
    "abelian_nondegenerate": True, "boundary": []}]}

# the measure commands run the envelope scan and none of the cells or
# certificates of `plfunc`
NOT_FOR_MEASURES = {"approx", "plfunc", "svgplot"}

# (argv, modules the command must not load)
CASES = {
    "approximate": (["approximate", "--in", "request.json", "--eps", "1/4", "--seed", "7"],
                    {"ma", "skeleton", "svgplot"}),
    "ma": (["ma", "--in", "metric.json"], {"approx", "plfunc", "skeleton", "svgplot"}),
    "skeleton-measure-canonical": (["skeleton-measure", "--in", "skeleton.json"],
                                   NOT_FOR_MEASURES),
    "skeleton-measure-pl": (["skeleton-measure", "--in", "skeleton.json",
                             "--metric", "metric.json"], NOT_FOR_MEASURES),
    "mass-check": (["mass-check", "--in", "skeleton.json", "--metric", "canonical",
                    "--metric", "metric.json"], NOT_FOR_MEASURES),
    "degree": (["degree", "--in", "skeleton.json", "--metric", "metric.json"],
               NOT_FOR_MEASURES | {"ma"}),
    "validate": (["validate", "--in", "cocycle.json"], {"approx", "ma", "skeleton", "svgplot"}),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, two_tate):
    d = tmp_path_factory.mktemp("startup")
    (d / "request.json").write_text(json.dumps({"cocycle": TATE}))
    (d / "cocycle.json").write_text(json.dumps(ID2))
    (d / "skeleton.json").write_text(json.dumps(SKELETON))
    (d / "metric.json").write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(two_tate, 2))))
    return d


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_its_modules(inputs, case):
    argv, absent = CASES[case]
    p = subprocess.run([sys.executable, "-c", PROBE, *argv, "--out", "out.json"],
                       cwd=inputs, capture_output=True, text=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
    assert p.returncode == 0, p.stderr
    report = json.loads(p.stdout)
    assert report["rc"] == 0, (inputs / "out.json").read_text()
    loaded = set(report["modules"])
    assert "envelope" in loaded and "cli" in loaded
    assert not loaded & absent, sorted(loaded & absent)
    assert not report["dataclasses"]
    assert not report["argparse"]


def test_bare_import_loads_only_the_core():
    p = subprocess.run([sys.executable, "-c", BARE], capture_output=True, text=True,
                       timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == sorted(["cli", "jsonio", "cocycle", "linalg", "polyhedra",
                                           "value", "envelope", "errors"])
