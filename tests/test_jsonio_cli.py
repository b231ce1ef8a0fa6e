import json
from fractions import Fraction as F

import pytest

from tropma import cli, jsonio, tangent_pl
from tropma.jsonio import FormatError


@pytest.fixture()
def tate_json(tmp_path):
    p = tmp_path / "tate.json"
    p.write_text(json.dumps({"n": 1, "periods": [[1]], "b": [[1]],
                             "z0": ["1/2"], "polarized": True}))
    return str(p)


@pytest.fixture()
def two_tate_json(tmp_path):
    p = tmp_path / "c2.json"
    p.write_text(json.dumps({"n": 2, "periods": [[1, 0], [0, 1]],
                             "b": [[1, 0], [0, 1]], "z0": ["1/2", "1/2"]}))
    return str(p)


class TestRoundTrips:
    def test_rationals(self):
        for x in (F(0), F(3), F(-7, 2), F(22, 7)):
            assert jsonio.dec_q(jsonio.enc_q(x)) == x

    def test_float_rejected(self):
        with pytest.raises(FormatError, match="floats"):
            jsonio.dec_q(0.5)

    def test_bad_literal_rejected(self):
        with pytest.raises(FormatError, match="bad rational"):
            jsonio.dec_q("1/0")

    # Fraction() reads all of these; an exponent would let a few bytes ask for
    # an integer of any size
    @pytest.mark.parametrize("literal", [
        "1.5", "1e5", " 1/2 ", "1/2 ", "1_000", "-0.25e-2", "+1", "1/-2", "1/+2", "",
        "-", "/2", "1/", "1//2", "1/2/3", "0x10", "inf", "nan", "\u0663", "1/2\n"])
    def test_only_integers_and_p_over_q(self, literal):
        with pytest.raises(FormatError, match="bad rational literal") as e:
            jsonio.dec_q(literal)
        assert repr(literal) in str(e.value)

    @pytest.mark.parametrize("literal, value", [
        ("0", F(0)), ("-0", F(0)), ("17", F(17)), ("-17", F(-17)), ("007", F(7)),
        ("3/4", F(3, 4)), ("-3/4", F(-3, 4)), ("6/8", F(3, 4)), ("-10/20", F(-1, 2)),
        ("1/" + "9" * 300, F(1, int("9" * 300)))])
    def test_accepted_literals_round_trip(self, literal, value):
        assert jsonio.dec_q(literal) == value
        assert jsonio.dec_q(jsonio.enc_q(value)) == value
        assert jsonio.dec_q(str(jsonio.enc_q(value))) == value

    def test_exponent_eps_is_a_validation_error(self, tmp_path, capsys):
        tate = {"cocycle": {"n": 1, "periods": [[1]], "b": [[1]], "z0": ["1/2"]}}
        assert _run_cli(tmp_path, ["approximate", "--eps", "1e-300"], tate) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "validation",
                       "message": "bad rational literal '1e-300': expected an integer or p/q"}

    def test_golden_and_benchmark_inputs_parse(self, tmp_path):
        import os
        import sys
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        sys.path.insert(0, os.path.join(root, "bench"))
        try:
            import gen
        finally:
            sys.path.pop(0)
        decoders = {"request": jsonio.dec_request, "metric": jsonio.dec_function,
                    "skeleton": jsonio.dec_skeleton}
        decoded = 0
        for workload in sorted(gen.WORKLOADS):
            for seed in (4, 7):
                out = tmp_path / f"{workload}-{seed}"
                for req in gen.generate(workload, seed, str(out)):
                    if "--eps" in req["args"]:
                        jsonio.dec_q(req["args"][req["args"].index("--eps") + 1])
                for path in out.glob("*_*.json"):
                    decoders[path.name.split("_")[0]](json.loads(path.read_text()))
                    decoded += 1
        golden = os.path.join(root, "tests", "golden")
        for name in sorted(n for n in os.listdir(golden) if n.startswith("approximate_")):
            with open(os.path.join(golden, name), encoding="utf-8") as fh:
                data = json.load(fh)
            jsonio.dec_function(data["function"])
            jsonio.dec_decomposition(data["decomposition"])
            cert = data["certificate"]
            jsonio.dec_q(cert["sup_error_bound"])
            for err in cert["stage_errors"].values():
                if err is not None:
                    jsonio.dec_q(err)
            decoded += 1
        assert decoded == 26     # ten benchmark inputs at each seed, and six artifacts

    def test_cocycle(self, tate):
        assert jsonio.dec_cocycle(jsonio.enc_cocycle(tate)) == tate

    def test_function(self, tate):
        f = tangent_pl(tate, 2)
        f2 = jsonio.dec_function(jsonio.enc_function(f))
        assert [(p.m, p.c) for p in f2.pieces] == [(p.m, p.c) for p in f.pieces]
        assert f2.cocycle == tate

    def test_measure(self, tate):
        from tropma import ma_pl
        mu = ma_pl(tangent_pl(tate, 3))
        mu2 = jsonio.dec_measure(jsonio.enc_measure(mu))
        assert mu2 == mu

    def test_measure_total_validated(self):
        with pytest.raises(FormatError, match="total"):
            jsonio.dec_measure({"atoms": [{"at": [0], "mass": 1}],
                                "pieces": [], "total": 2})

    def test_skeleton(self, tate):
        from tropma.linalg import mat, vec
        from tropma.polyhedra import AffineLatticeFrame, hull
        from tropma.skeleton import SkeletonFace, SkeletonSpec
        face = SkeletonFace("top", hull([(0,), (1,)]),
                            AffineLatticeFrame((F(0),), ((F(1),),)),
                            0, F(1), mat([[1]]), vec([0]), True)
        spec = SkeletonSpec(tate, 1, (face,))
        spec2 = jsonio.dec_skeleton(jsonio.enc_skeleton(spec))
        assert spec2 == spec


class TestCli:
    def test_validate(self, tate_json, capsys):
        assert cli.main(["validate", "--in", tate_json]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"kind": "cocycle", "valid": True}

    def test_approximate_writes_artifact(self, tate_json, tmp_path):
        out = tmp_path / "out.json"
        rc = cli.main(["approximate", "--in", tate_json, "--eps", "1/4",
                       "--seed", "7", "--out", str(out)])
        assert rc == 0
        artifact = json.loads(out.read_text())
        bound = jsonio.dec_q(artifact["certificate"]["sup_error_bound"])
        assert bound <= F(1, 4)
        assert artifact["certificate"]["strictly_convex"] is True

    def test_zero_eps_is_exit_one(self, tate_json, capsys):
        assert cli.main(["approximate", "--in", tate_json, "--eps", "0"]) == 1
        err = json.loads(capsys.readouterr().out)
        assert "epsilon must be positive" in err["error"]["message"]

    def test_bad_sigma_is_exit_one(self, tmp_path, capsys):
        req = {"cocycle": {"n": 1, "periods": [[1]], "b": [[1]], "z0": ["1/2"]},
               "sigma": ["not-a-polytope"], "eps": "1/4"}
        p = tmp_path / "req.json"
        p.write_text(json.dumps(req))
        assert cli.main(["approximate", "--in", str(p)]) == 1

    def test_float_in_input_is_exit_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 1, "periods": [[1]], "b": [[1]], "z0": [0.5]}))
        assert cli.main(["validate", "--in", str(p)]) == 1

    def test_ma_fundamental(self, tate_json, capsys):
        assert cli.main(["ma", "--in", tate_json, "--k", "3", "--fundamental"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == 1
        assert [a["mass"] for a in out["atoms"]] == ["1/3"] * 3

    def test_mass_check_pass_and_fail(self, tmp_path, capsys, tate):
        spec = {
            "cocycle": {"n": 1, "periods": [[1]], "b": [[1]], "z0": ["1/2"]},
            "d": 1,
            "faces": [{"id": "top", "carrier": {"vertices": [[0], [1]]},
                       "frame": {"basepoint": [0], "basis": [[1]]},
                       "e": 0, "degH": 1, "f_aff": {"L": [[1]], "t": [0]},
                       "abelian_nondegenerate": True, "boundary": []}],
        }
        spec_p = tmp_path / "spec.json"
        spec_p.write_text(json.dumps(spec))
        f1 = tmp_path / "k1.json"
        f1.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(tate, 1))))
        f5 = tmp_path / "k5.json"
        f5.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(tate, 5))))
        rc = cli.main(["mass-check", "--in", str(spec_p),
                       "--metric", "canonical", "--metric", str(f1),
                       "--metric", str(f5)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0 and report["equal"]
        assert set(report["totals"].values()) == {1}

        corrupted = tmp_path / "bad_measure.json"
        corrupted.write_text(json.dumps({
            "atoms": [{"at": ["1/2"], "mass": "7/5"}], "pieces": []}))
        rc = cli.main(["mass-check", "--in", str(spec_p),
                       "--metric", "canonical", "--metric", str(corrupted)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 2 and not report["equal"]
        assert set(report["totals"].values()) == {1, "7/5"}

    def test_degree_report(self, tmp_path, capsys, two_tate):
        spec = {
            "cocycle": {"n": 2, "periods": [[1, 0], [0, 1]],
                        "b": [[1, 0], [0, 1]], "z0": ["1/2", "1/2"]},
            "d": 2,
            "faces": [{"id": "top",
                       "carrier": {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
                       "frame": {"basepoint": [0, 0], "basis": [[1, 0], [0, 1]]},
                       "e": 0, "degH": 1,
                       "f_aff": {"L": [[1, 0], [0, 1]], "t": [0, 0]},
                       "abelian_nondegenerate": True, "boundary": []}],
        }
        spec_p = tmp_path / "spec2.json"
        spec_p.write_text(json.dumps(spec))
        fp = tmp_path / "f.json"
        fp.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(two_tate, 1))))
        rc = cli.main(["degree", "--in", str(spec_p), "--metric", str(fp)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["total"] == 2
        assert report["degrees"] == [{"face": "top", "at": ["1/2", "1/2"],
                                      "degree": 2}]

    def test_plot_deterministic_and_2d_only(self, tmp_path, two_tate, tate,
                                            capsys):
        fp = tmp_path / "f2.json"
        fp.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(two_tate, 1))))
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert cli.main(["plot", "--in", str(fp), "--out", str(out1)]) == 0
        assert cli.main(["plot", "--in", str(fp), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().startswith(b"<svg")

        f1 = tmp_path / "f1.json"
        f1.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(tate, 1))))
        assert cli.main(["plot", "--in", str(f1)]) == 1
        err = json.loads(capsys.readouterr().out)
        assert "2-D only" in err["error"]["message"]

    def test_retries_exhausted_is_exit_two(self, tmp_path, monkeypatch, capsys):
        # unperturbed, the one cell [-1/2, 1/2] has a vertex on Σ = {1/2}
        import tropma.approx as ax
        monkeypatch.setattr(ax, "_rand_frac", lambda rng, r, grain=4096: F(0))
        req = {"cocycle": {"n": 1, "periods": [[1]], "b": [[1]], "z0": ["1/2"]},
               "sigma": [{"vertices": [["1/2"]]}], "eps": "1/4", "max_retries": 2}
        p = tmp_path / "req.json"
        p.write_text(json.dumps(req))
        assert cli.main(["approximate", "--in", str(p)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "algorithmic", "message": "perturbation retries "
                       "exhausted (last failure: transversality)"}

    def test_cell_walk_failure_is_exit_two(self, tate_json, monkeypatch, capsys):
        import tropma.plfunc as pl

        def never_stabilizes(*args):
            raise pl._CollarTooSmall()

        monkeypatch.setattr(pl, "_walk_cells", never_stabilizes)
        assert cli.main(["approximate", "--in", tate_json]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "algorithmic"
        assert err["message"].startswith("cell walk failed to stabilize")

    def test_approximate_certificate_records_the_stages(self, tmp_path, capsys):
        p = tmp_path / "req.json"
        p.write_text(json.dumps({"cocycle": ID2, "eps": "1/4"}))
        assert cli.main(["approximate", "--in", str(p), "--seed", "1"]) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["mesh_k"] == 2
        stages = cert["stage_errors"]
        assert stages["tangent"] == "1/16" and stages["strictify"] is None
        assert jsonio.dec_q(cert["sup_error_bound"]) == (
            F(1, 16) + jsonio.dec_q(stages["perturb"]))


SQUARE_FACE = {"id": "top",
               "carrier": {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
               "frame": {"basepoint": [0, 0], "basis": [[1, 0], [0, 1]]},
               "e": 0, "degH": 1,
               "f_aff": {"L": [[1, 0], [0, 1]], "t": ["1/7", "2/9"]},
               "abelian_nondegenerate": True, "boundary": []}
ID2 = {"n": 2, "periods": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]], "z0": ["1/2", "1/2"]}


class TestStrictBooleans:
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_polarized_must_be_a_json_bool(self, tmp_path, capsys, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**ID2, "polarized": value}))
        assert cli.main(["validate", "--in", str(p), "--kind", "cocycle"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"
        assert "'polarized' must be JSON true or false" in err["message"]

    @pytest.mark.parametrize("value", ["no", "yes", 0, 1, None])
    def test_abelian_nondegenerate_must_be_a_json_bool(self, tmp_path, capsys, value):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"cocycle": ID2, "d": 2,
                                 "faces": [{**SQUARE_FACE, "abelian_nondegenerate": value}]}))
        assert cli.main(["validate", "--in", str(p), "--kind", "skeleton"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"
        assert "'abelian_nondegenerate' must be JSON true or false" in err["message"]

    def test_json_bools_accepted(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**ID2, "polarized": True}))
        assert cli.main(["validate", "--in", str(p), "--kind", "cocycle"]) == 0


def test_large_eps_finishes_quickly(tmp_path):
    # a budget far above what the target needs must not inflate strictification
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"cocycle": ID2,
                               "sigma": [{"vertices": [[0, 0], [1, 0], [0, 1]]}]}))
    p = subprocess.run([sys.executable, "-m", "tropma.cli", "approximate", "--in", str(req),
                        "--eps", "1000", "--seed", "1"],
                       capture_output=True, text=True, timeout=30,
                       env={**os.environ, "PYTHONPATH": str(src)})
    out = json.loads(p.stdout)
    if p.returncode == 0:
        assert jsonio.dec_q(out["certificate"]["sup_error_bound"]) <= 1000
    else:
        assert p.returncode == 2 and out["error"]["kind"] == "algorithmic"


@pytest.mark.parametrize("t", [["1/2"], ["1/7", "2/9", "0"], []])
@pytest.mark.parametrize("metric", ["canonical", "pl"])
def test_f_aff_offset_of_the_wrong_length_is_a_validation_error(tmp_path, capsys, two_tate,
                                                               t, metric):
    # a short offset was read by zip() as the first coordinates, and the face's
    # measure silently came out 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cocycle": ID2, "d": 2,
                                "faces": [{**SQUARE_FACE, "f_aff": {"L": [[1, 0], [0, 1]],
                                                                    "t": t}}]}))
    if metric == "pl":
        metric = str(tmp_path / "f.json")
        (tmp_path / "f.json").write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(two_tate, 2))))
    assert cli.main(["skeleton-measure", "--in", str(spec), "--metric", metric]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"kind": "validation",
                   "message": f"face top: f_aff offset must lie in N_R (2 entries, got {len(t)})"}


def test_degree_builds_the_pullback_once_per_face(tmp_path, capsys, monkeypatch, two_tate):
    import tropma.skeleton as sk
    from tropma import vertex_degree

    calls = []
    original = sk._pullback_pieces

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sk, "_pullback_pieces", counting)
    spec_p = tmp_path / "spec.json"
    spec_p.write_text(json.dumps({"cocycle": ID2, "d": 2, "faces": [SQUARE_FACE]}))
    f = tangent_pl(two_tate, 2)
    fp = tmp_path / "f.json"
    fp.write_text(jsonio.dumps(jsonio.enc_function(f)))
    assert cli.main(["degree", "--in", str(spec_p), "--metric", str(fp)]) == 0
    rows = json.loads(capsys.readouterr().out)["degrees"]
    assert len(rows) == 4 and len(calls) == 1

    spec = jsonio.dec_skeleton(json.loads(spec_p.read_text()))
    metric = jsonio.dec_function(json.loads(fp.read_text()))
    for row in rows:
        xi = jsonio.dec_vec(row["at"])
        assert jsonio.enc_q(vertex_degree(spec, spec.faces[0], metric, xi)) == row["degree"]


def test_no_assert_statements_in_the_package():
    # certificates are explicit checks, so they still run under python -O
    import ast
    from pathlib import Path

    pkg = Path(__file__).resolve().parents[1] / "src" / "tropma"
    found = [f"{path.name}:{node.lineno}" for path in sorted(pkg.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_floats_only_where_allowed():
    # results are exact: outside the plotting and sampling modules, the name
    # `float` and float literals may appear only in the functions listed here
    import ast
    from pathlib import Path

    allowed = {"jsonio.dec_q"}              # rejects floats on input
    pkg = Path(__file__).resolve().parents[1] / "src" / "tropma"
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            is_float = (isinstance(child, ast.Name) and child.id == "float") or \
                (isinstance(child, ast.Constant) and type(child.value) is float)
            if is_float and not any(inner == a or inner.startswith(a + ".") for a in allowed):
                found.append(f"{inner}:{child.lineno}")
            visit(child, inner)

    for path in sorted(pkg.glob("*.py")):
        if path.name not in ("sampling.py", "svgplot.py"):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == []


def _run_cli(tmp_path, args, data=None, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return cli.main([args[0], "--in", str(p), *args[1:]])


class TestIntegersAndShapes:
    """Integers must be JSON integers, and arrays must have consistent shapes."""

    REQUEST = {"cocycle": {"n": 1, "periods": [[1]], "b": [[1]], "z0": ["1/2"]}}

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", "1"), ("seed", True),
        ("max_retries", 2.7), ("max_retries", "2"), ("max_retries", False)])
    def test_request_integers(self, tmp_path, capsys, field, value):
        data = {**self.REQUEST, field: value}
        assert _run_cli(tmp_path, ["approximate"], data) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"
        assert f"'{field}' must be a JSON integer" in err["message"]

    @pytest.mark.parametrize("value", [1.9, "2", True])
    def test_skeleton_dimension_integer(self, tmp_path, capsys, value):
        data = {"cocycle": ID2, "d": value, "faces": [SQUARE_FACE]}
        assert _run_cli(tmp_path, ["validate", "--kind", "skeleton"], data) == 1
        assert "'d' must be a JSON integer" in json.loads(capsys.readouterr().out)[
            "error"]["message"]

    @pytest.mark.parametrize("value", [0.7, "0", False])
    def test_face_e_integer(self, tmp_path, capsys, value):
        data = {"cocycle": ID2, "d": 2, "faces": [{**SQUARE_FACE, "e": value}]}
        assert _run_cli(tmp_path, ["validate", "--kind", "skeleton"], data) == 1
        assert "'e' must be a JSON integer" in json.loads(capsys.readouterr().out)[
            "error"]["message"]

    def test_cocycle_n_not_a_bool(self, tmp_path, capsys):
        data = {"n": True, "periods": [[1]], "b": [[1]], "z0": ["1/2"]}
        assert _run_cli(tmp_path, ["validate", "--kind", "cocycle"], data) == 1
        assert "'n' must be a JSON integer" in json.loads(capsys.readouterr().out)[
            "error"]["message"]

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_ma_k_at_least_one(self, tate_json, capsys, k):
        assert cli.main(["ma", "--in", tate_json, "--k", k]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "validation", "message": "--k must be >= 1"}

    def test_ragged_sigma(self, tmp_path, capsys):
        data = {"cocycle": ID2, "sigma": [{"vertices": [[0, 0], [1]]}]}
        assert _run_cli(tmp_path, ["approximate"], data) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"
        assert "same dimension" in err["message"]

    def test_sigma_outside_the_target_dimension(self, tmp_path, capsys):
        data = {"cocycle": ID2, "sigma": [{"vertices": [[0], [1]]}]}
        assert _run_cli(tmp_path, ["approximate"], data) == 1
        assert "target's dimension 2" in json.loads(capsys.readouterr().out)[
            "error"]["message"]

    @pytest.mark.parametrize("slopes", [[[0, 0], [1]], [[0], [1]]])
    def test_piece_dimensions(self, tmp_path, capsys, slopes):
        data = {"cocycle": ID2, "pieces": [{"m": m, "c": 0} for m in slopes]}
        assert _run_cli(tmp_path, ["validate", "--kind", "function"], data) == 1
        assert "piece slopes" in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_piece_not_an_object(self, tmp_path, capsys):
        data = {"cocycle": ID2, "pieces": [[0, 0]]}
        assert _run_cli(tmp_path, ["validate", "--kind", "function"], data) == 1
        assert "a piece is encoded as" in json.loads(capsys.readouterr().out)[
            "error"]["message"]


class TestJsonShapes:
    """A field of the wrong JSON shape is a validation error that names it."""

    @pytest.mark.parametrize("args, data, words", [
        (["validate", "--kind", "function"], {"cocycle": ID2, "pieces": 5},
         ["function field 'pieces' must be a list"]),
        (["validate"], {"cocycle": ID2, "pieces": 5}, ["function field 'pieces'"]),
        (["approximate"], {"cocycle": ID2, "sigma": 5}, ["request field 'sigma' must be a list"]),
        (["validate", "--kind", "skeleton"], {"cocycle": ID2, "d": 2, "faces": 5},
         ["skeleton spec field 'faces' must be a list"]),
        (["validate", "--kind", "skeleton"], {"cocycle": ID2, "d": 2, "faces": [5]},
         ["skeleton face must be a JSON object"]),
        (["validate", "--kind", "skeleton"],
         {"cocycle": ID2, "d": 2, "faces": [SQUARE_FACE], "gluing": 5},
         ["skeleton spec field 'gluing' must be a list"]),
        (["validate", "--kind", "skeleton"],
         {"cocycle": ID2, "d": 2, "faces": [SQUARE_FACE], "gluing": [5]},
         ["skeleton gluing must be a JSON object"]),
        (["validate", "--kind", "measure"], {"atoms": 5},
         ["measure field 'atoms' must be a list"]),
        (["validate", "--kind", "measure"], {"atoms": [5]},
         ["measure atom must be a JSON object"]),
        (["validate", "--kind", "measure"], {"atoms": [{"at": [0]}]},
         ["measure atom is missing 'mass'"]),
        (["validate", "--kind", "measure"], {"pieces": 5},
         ["measure field 'pieces' must be a list"]),
        (["validate", "--kind", "decomposition"], {"cocycle": ID2, "cells": 5},
         ["decomposition field 'cells' must be a list"]),
    ])
    def test_wrong_shape_is_a_validation_error(self, tmp_path, capsys, args, data, words):
        assert _run_cli(tmp_path, args, data) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"
        assert all(w in err["message"] for w in words), err["message"]

    def test_tiny_eps_names_the_mesh(self, tmp_path, capsys):
        # ε = 10^-300 asks for a mesh of about 7·10^149 points per period
        tiny = "1/1" + "0" * 300
        assert _run_cli(tmp_path, ["approximate", "--eps", tiny], {"cocycle": ID2}) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "validation"
        assert "tangent mesh k = " in err["message"] and "exceeds the limit" in err["message"]

    def test_ma_mesh_above_the_limit(self, tate_json, capsys):
        from tropma.approx import MAX_MESH_K
        assert cli.main(["ma", "--in", tate_json, "--k", str(MAX_MESH_K + 1)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "validation",
                       "message": f"tangent mesh k = {MAX_MESH_K + 1} exceeds the limit "
                                  f"{MAX_MESH_K}"}


def test_optimized_python_gives_the_same_artifact(tmp_path):
    # every certificate is an explicit check, so python -O changes nothing
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"cocycle": ID2,
                               "sigma": [{"vertices": [[0, 0], [1, 0], [0, 1]]}]}))
    outs = []
    for flags in ([], ["-O"]):
        p = subprocess.run([sys.executable, *flags, "-m", "tropma.cli", "approximate",
                            "--in", str(req), "--eps", "1/4", "--seed", "2"],
                           capture_output=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": str(src)})
        assert p.returncode == 0, p.stderr
        outs.append(p.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["certificate"]["transversal"]["ok"] is True


def test_optimized_python_gives_the_same_3d_artifact(tmp_path):
    # approximate on id3 (Σ = the tetrahedron's 15 faces, ε = 1/4, seed 0)
    # runs every n = 3 perturbation certificate, transversality included:
    # explicit checks all, so python -O writes the golden bytes too
    import os
    import subprocess
    import sys
    from pathlib import Path

    from test_golden_approx import COCYCLES, SIGMA, golden_path

    src = Path(__file__).resolve().parents[1] / "src"
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"cocycle": COCYCLES["id3"], "eps": "1/4",
                               "sigma": [{"vertices": v} for v in SIGMA[3]]}))
    want = Path(golden_path("id3", 0)).read_text(encoding="utf-8")
    for flags in ([], ["-O"]):
        out = tmp_path / f"out{len(flags)}.json"
        p = subprocess.run([sys.executable, *flags, "-m", "tropma.cli", "approximate",
                            "--in", str(req), "--seed", "0", "--out", str(out)],
                           capture_output=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(src)})
        assert p.returncode == 0, p.stderr
        assert out.read_text(encoding="utf-8") == want


def _validate(tmp_path, decomposition, flags=(), timeout=30):
    """Run `validate --kind decomposition` on the decomposition in a
    subprocess; returns the completed process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    path = tmp_path / "decomposition.json"
    path.write_text(json.dumps(decomposition))
    return subprocess.run([sys.executable, *flags, "-m", "tropma.cli", "validate",
                           "--in", str(path), "--kind", "decomposition"],
                          capture_output=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("name", ["id3", "skew3"])
def test_validate_rechecks_the_3d_golden_decomposition(tmp_path, name):
    # the saved 3-D decompositions (8 cells of 10-44 vertices with large
    # denominators) re-verify from their vertices alone, each cell rebuilt by
    # hull and each meeting pair tested once, within 5 s a call, and python -O
    # gives the same report
    from pathlib import Path

    from test_golden_approx import golden_path

    data = json.loads(Path(golden_path(name, 0)).read_text(encoding="utf-8"))
    outs = []
    for flags in ([], ["-O"]):
        p = _validate(tmp_path, data["decomposition"], flags, timeout=5)
        assert p.returncode == 0, p.stderr
        outs.append(p.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {"kind": "decomposition", "valid": True, "periodic": True}


def test_validate_rejects_a_huge_cell_by_its_volume(tmp_path):
    # one cell of volume 5·10^11 for a lattice of covolume 1: the volume
    # check fails it at once, before any of its translates is listed
    cocycle = {"b": [[1, 0], [0, 1]], "n": 2, "periods": [[1, 0], [0, 1]],
               "polarized": True, "z0": ["1/2", "1/2"]}
    cell = {"vertices": [[0, 0], [10 ** 6, 0], [0, 10 ** 6]]}
    p = _validate(tmp_path, {"cells": [cell], "cocycle": cocycle}, timeout=10)
    assert p.returncode == 1, p.stderr
    assert json.loads(p.stdout) == {"kind": "decomposition", "valid": False, "periodic": False}


def test_validate_refuses_a_long_thin_cell(tmp_path):
    # area 1 = covol(Z^2) passes the volume check, but the cell's box spans
    # some 6·10^6 of its translates: refused at MAX_CELL_SHIFTS before any is
    # listed
    import time

    from tropma.plfunc import MAX_CELL_SHIFTS

    cocycle = {"b": [[1, 0], [0, 1]], "n": 2, "periods": [[1, 0], [0, 1]],
               "polarized": True, "z0": ["1/2", "1/2"]}
    cell = {"vertices": [[0, 0], [10 ** 6, 0], [0, "1/500000"]]}
    t = time.monotonic()
    p = _validate(tmp_path, {"cells": [cell], "cocycle": cocycle}, timeout=10)
    assert time.monotonic() - t < 2
    assert p.returncode == 1, p.stderr
    error = json.loads(p.stdout)["error"]
    assert error["kind"] == "validation"
    assert f"MAX_CELL_SHIFTS = {MAX_CELL_SHIFTS}" in error["message"]


def test_optimized_python_gives_the_same_2d_measures(tmp_path, two_tate):
    # ma --fundamental, ma --region and degree run the lifted clip and the
    # volume kernel, and ma's mass check; explicit checks all, so python -O
    # changes nothing
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cocycle": ID2, "d": 2, "faces": [SQUARE_FACE]}))
    metric = tmp_path / "f.json"
    metric.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(two_tate, 3))))
    region = tmp_path / "r.json"
    region.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    calls = [["ma", "--in", str(metric), "--fundamental"],
             ["ma", "--in", str(metric), "--region", str(region)],
             ["degree", "--in", str(spec), "--metric", str(metric)]]
    # det(b)·covol(Λ) = 1 per fundamental domain; the unit square holds the
    # nine vertices of mesh 3, of mass 1/9 each, and carries 2!·1 on the face
    for argv, total in zip(calls, (1, 1, 2)):
        outs = []
        for flags in ([], ["-O"]):
            p = subprocess.run([sys.executable, *flags, "-m", "tropma.cli", *argv],
                               capture_output=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": str(src)})
            assert p.returncode == 0, p.stderr
            outs.append(p.stdout)
        assert outs[0] == outs[1]
        assert F(json.loads(outs[0])["total"]) == total


def test_optimized_python_gives_the_same_3d_mass(tmp_path):
    # ma --fundamental on the id3 mesh-2 metric runs the n = 3 lifted clip,
    # the volume kernel and the mass check, and on the id3 cocycle at --k 2
    # also tangent_pl's n = 3 cell walk: explicit checks all, so python -O
    # changes nothing
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    i3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    c = jsonio.dec_cocycle({"n": 3, "periods": i3, "b": i3, "z0": ["1/2"] * 3})
    metric = tmp_path / "f.json"
    metric.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(c, 2))))
    cocycle = tmp_path / "c.json"
    cocycle.write_text(json.dumps(jsonio.enc_cocycle(c)))
    for argv in (["--in", str(metric)], ["--in", str(cocycle), "--k", "2"]):
        outs = []
        for flags in ([], ["-O"]):
            p = subprocess.run([sys.executable, *flags, "-m", "tropma.cli", "ma", *argv,
                                "--fundamental"], capture_output=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": str(src)})
            assert p.returncode == 0, p.stderr
            outs.append(p.stdout)
        assert outs[0] == outs[1]
        assert F(json.loads(outs[0])["total"]) == 1


class TestMeasureInputs:
    """`validate` reads measure artifacts as measures, and `ma --region`
    rejects a region it cannot use."""

    def test_validate_auto_reads_ma_output_as_a_measure(self, tmp_path, two_tate_json, capsys):
        assert cli.main(["ma", "--in", two_tate_json, "--k", "2", "--fundamental"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["pieces"] == []
        mp = tmp_path / "mu.json"
        mp.write_text(out)
        assert cli.main(["validate", "--in", str(mp)]) == 0
        assert json.loads(capsys.readouterr().out) == {"kind": "measure", "valid": True}

    def test_validate_auto_reads_a_pl_skeleton_measure(self, tmp_path, two_tate, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cocycle": ID2, "d": 2, "faces": [SQUARE_FACE]}))
        fp = tmp_path / "f.json"
        fp.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(two_tate, 2))))
        assert cli.main(["skeleton-measure", "--in", str(spec), "--metric", str(fp)]) == 0
        mp = tmp_path / "mu.json"
        mp.write_text(capsys.readouterr().out)
        assert cli.main(["validate", "--in", str(mp)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "measure"

    def test_region_of_another_dimension(self, tmp_path, two_tate_json, capsys):
        # a 3-D region on a function of R^2 was zipped short and gave total 0
        rp = tmp_path / "r.json"
        rp.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        assert cli.main(["ma", "--in", two_tate_json, "--k", "2", "--region", str(rp)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "validation",
                       "message": "the region lies in R^3 but the function in R^2"}

    @pytest.mark.parametrize("flag", ["--fundamental", "--region"])
    def test_function_with_no_cocycle(self, tmp_path, capsys, flag):
        # a function of R^2 with no cocycle has no periodic measure
        fp = tmp_path / "f.json"
        fp.write_text(json.dumps({"pieces": [{"m": [0, 0], "c": 0}, {"m": [1, 0], "c": "-1/2"}]}))
        rp = tmp_path / "r.json"
        rp.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
        argv = ["ma", "--in", str(fp)] + ([flag] if flag == "--fundamental" else [flag, str(rp)])
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.out)["error"]
        assert err == {"kind": "validation",
                       "message": "ma needs a periodic function: the input has no cocycle"}
        assert captured.err == ""

    def test_region_and_fundamental_exclude_each_other(self, tmp_path, two_tate_json, capsys):
        # the region was read and then ignored
        rp = tmp_path / "r.json"
        rp.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
        assert cli.main(["ma", "--in", two_tate_json, "--region", str(rp),
                         "--fundamental"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "validation",
                       "message": "--region and --fundamental exclude each other"}
        assert cli.main(["ma", "--in", two_tate_json, "--k", "2", "--region", str(rp)]) == 0
        assert json.loads(capsys.readouterr().out)["atoms"]


class TestMalformedFlags:
    """A flag argparse cannot read is a validation error, exit 1, JSON on stdout."""

    @pytest.mark.parametrize("argv, flag", [
        (["approximate", "--seed", "1.5"], "--seed"),
        (["ma", "--k", "x"], "--k")])
    def test_bad_flag_value(self, tate_json, capsys, argv, flag):
        assert cli.main([argv[0], "--in", tate_json, *argv[1:]]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.out)["error"]
        assert err["kind"] == "validation"
        assert f"argument {flag}: invalid int value" in err["message"]
        assert captured.err == ""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ma", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tropma ma")


def test_ma_fundamental_checks_its_total_mass(two_tate_json, capsys, monkeypatch):
    # Σ masses = det(b)·covol(Λ) over a fundamental domain; losing one atom
    # is a certificate failure, not an artifact
    import tropma.ma as ma

    original = ma.envelope_atoms

    def drops_the_first(*args):
        return original(*args)[1:]

    assert cli.main(["ma", "--in", two_tate_json, "--k", "2", "--fundamental"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 1
    monkeypatch.setattr(ma, "envelope_atoms", drops_the_first)
    assert cli.main(["ma", "--in", two_tate_json, "--k", "2", "--fundamental"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "algorithmic" and "det(b)" in err["message"]


def test_ma_reads_no_cells(tmp_path, capsys, monkeypatch, two_tate):
    # the atoms come off one lifted clip with their tight sets, so ma walks
    # no cells and scores no point through the scan
    import tropma.plfunc as pl

    fp = tmp_path / "f.json"
    fp.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(two_tate, 3))))
    rp = tmp_path / "r.json"
    rp.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    calls = []
    walk, score = pl._walk_cells, pl._EnvelopeScan.eval
    monkeypatch.setattr(pl, "_walk_cells", lambda *a: calls.append("walk") or walk(*a))
    monkeypatch.setattr(pl._EnvelopeScan, "eval", lambda *a: calls.append("eval") or score(*a))
    for flags in (["--fundamental"], ["--region", str(rp)]):
        assert cli.main(["ma", "--in", str(fp), *flags]) == 0
        assert json.loads(capsys.readouterr().out)["atoms"]
    assert calls == []


def test_degree_walks_no_cells(tmp_path, capsys, monkeypatch, two_tate):
    # transversality is read off the tie rank at each vertex, so neither the
    # command nor vertex_degree on its own walks the metric's cells
    import tropma.plfunc as pl
    import tropma.skeleton as sk

    spec_p = tmp_path / "spec.json"
    spec_p.write_text(json.dumps({"cocycle": ID2, "d": 2, "faces": [SQUARE_FACE]}))
    fp = tmp_path / "f.json"
    fp.write_text(jsonio.dumps(jsonio.enc_function(tangent_pl(two_tate, 2))))
    argv = ["degree", "--in", str(spec_p), "--metric", str(fp)]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def no_walk(*args):
        raise RuntimeError("the metric's cells were walked")

    monkeypatch.setattr(pl, "_walk_cells", no_walk)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    rows = json.loads(expected)["degrees"]
    spec = jsonio.dec_skeleton(json.loads(spec_p.read_text()))
    metric = jsonio.dec_function(json.loads(fp.read_text()))
    assert len(rows) > 1
    for row in rows:
        xi = tuple(F(x) for x in row["at"])
        assert jsonio.enc_q(sk.vertex_degree(spec, spec.faces[0], metric, xi)) == row["degree"]
