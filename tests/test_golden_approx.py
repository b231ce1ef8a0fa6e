"""`approximate` artifacts are byte-identical to the committed golden files.

The golden files in tests/golden/ hold `jsonio.dumps` of the `approximate`
output for the product of two Tate curves (`id2`: Λ = Z², b = I,
z₀ = (1/2, 1/2)) and a skew form (`skew2`: b = [[2,1],[1,2]], z₀ = (1, 1)),
with Σ = the seven faces of the standard simplex, ε = 1/4 and seeds 0 and 1,
and for their analogues in dimension 3 (`id3`: Λ = Z³, b = I,
z₀ = (1/2, 1/2, 1/2); `skew3`: b = [[2,1,0],[1,2,1],[0,1,2]], z₀ = (1, 1, 1))
with Σ = the fifteen faces of the standard tetrahedron, ε = 1/4 and seed 0.
They were written before the perturbation certificate changed, so a change
to any accepted draw, piece or certificate field shows as a byte difference.
Regenerate them only for a deliberate artifact change, with

    PYTHONPATH=src python tests/test_golden_approx.py
"""

from __future__ import annotations

import itertools
import json
import os

import pytest

from tropma import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

COCYCLES = {
    "id2": {"n": 2, "periods": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]],
            "z0": ["1/2", "1/2"], "polarized": True},
    "skew2": {"n": 2, "periods": [[1, 0], [0, 1]], "b": [[2, 1], [1, 2]],
              "z0": [1, 1], "polarized": True},
    "id3": {"n": 3, "periods": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "b": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "z0": ["1/2", "1/2", "1/2"], "polarized": True},
    "skew3": {"n": 3, "periods": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
              "b": [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
              "z0": [1, 1, 1], "polarized": True},
}
SIMPLEX_FACES = [[[0, 0]], [[1, 0]], [[0, 1]],
                 [[0, 0], [1, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 1]],
                 [[0, 0], [1, 0], [0, 1]]]
TETRAHEDRON = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
SIGMA = {2: SIMPLEX_FACES,
         3: [[list(v) for v in face] for size in range(1, 5)
             for face in itertools.combinations(TETRAHEDRON, size)]}
CASES = [(name, seed) for name in ("id2", "skew2") for seed in (0, 1)] + \
    [("id3", 0), ("skew3", 0)]


def golden_path(name: str, seed: int) -> str:
    return os.path.join(GOLDEN, f"approximate_{name}_seed{seed}.json")


def artifact(name: str, seed: int, workdir: str) -> str:
    """The `approximate` output for one case, as the CLI writes it."""
    req = os.path.join(workdir, f"request_{name}.json")
    out = os.path.join(workdir, f"out_{name}_{seed}.json")
    with open(req, "w", encoding="utf-8") as fh:
        json.dump({"cocycle": COCYCLES[name], "eps": "1/4",
                   "sigma": [{"vertices": v} for v in SIGMA[COCYCLES[name]["n"]]]}, fh)
    code = cli.main(["approximate", "--in", req, "--seed", str(seed), "--out", out])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name,seed", CASES)
def test_approximate_matches_golden(name, seed, tmp_path):
    with open(golden_path(name, seed), encoding="utf-8") as fh:
        expected = fh.read()
    assert artifact(name, seed, str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in CASES:
            with open(golden_path(name, seed), "w", encoding="utf-8") as fh:
                fh.write(artifact(name, seed, tmp))
