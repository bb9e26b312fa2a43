import json

import pytest

from multicurve.cli import main


@pytest.fixture()
def module_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("ring n=3 N=18 p=2 rank=1\nx^2\nx*y\ny^2\n")
    return str(path)


@pytest.fixture()
def twisted_file(tmp_path):
    path = tmp_path / "twisted.txt"
    path.write_text("ring n=3 N=18 p=2 rank=1\nx^2 + y\nx*y\ny^2\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestIndicesCommand:
    def test_reports_both_algorithms(self, capsys, module_file):
        code, payload = run_json(capsys, ["indices", module_file])
        assert code == 0
        assert payload["schema"] == 1
        assert payload["beta"] == [1, 2]
        assert payload["beta_by_definition"] == [1, 2]
        assert payload["agree"] is True

    def test_unit_ideal(self, capsys, tmp_path):
        path = tmp_path / "unit.txt"
        path.write_text("ring n=3 N=12 p=2 rank=1\n1\n")
        code, payload = run_json(capsys, ["indices", str(path)])
        assert code == 0
        assert payload["beta"] == [0, 0]

    def test_bad_header_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring n=3 N=12\nx\n")
        assert main(["indices", str(path)]) == 1

    @pytest.mark.parametrize("header", [
        "ring n=3 N=18 p=2 rank=1 prec=40", "ring n=3 N=18 N=30 p=2 rank=1", "ring n=3 N=18 p=2 rank=0"])
    def test_ignored_header_input_is_invalid_input(self, tmp_path, capsys, header):
        path = tmp_path / "header.txt"
        path.write_text(header + "\nx^2\nx*y\ny^2\n")
        assert main(["indices", str(path)]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_precision_override(self, capsys, module_file, monkeypatch):
        monkeypatch.setenv("PMC_PRECISION", "22")
        code, payload = run_json(capsys, ["indices", module_file])
        assert code == 0
        assert payload["beta"] == [1, 2]

    def test_precision_override_after_comment(self, capsys, tmp_path, monkeypatch):
        # at the file's own N=2 the term x^2 does not fit, so the file is refused
        path = tmp_path / "commented.txt"
        path.write_text("# the (x^2, xy, y^2) ideal\n\nring n=3 N=2 p=2 rank=1\nx^2\nx*y\ny^2\n")
        assert main(["indices", str(path)]) == 1
        capsys.readouterr()
        monkeypatch.setenv("PMC_PRECISION", "18")
        code, payload = run_json(capsys, ["indices", str(path)])
        assert code == 0
        assert payload["beta"] == [1, 2]


class TestOracleCommands:
    def test_isomorphic(self, capsys, module_file, twisted_file):
        code, payload = run_json(capsys, ["isomorphic", module_file, twisted_file])
        assert code == 0 and payload["verdict"] == "no"
        code, payload = run_json(capsys, ["isomorphic", module_file, module_file])
        assert payload["verdict"] == "yes"

    def test_normalize(self, capsys, tmp_path):
        path = tmp_path / "single.txt"
        path.write_text("ring n=3 N=18 p=2 rank=1\nx^2\ny^2\n")
        code, payload = run_json(capsys, ["normalize", str(path)])
        assert code == 0
        assert (payload["b"], payload["j"], payload["z"]) == (2, 2, [])

    def test_normalize_on_a_proper_subcurve_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "subcurve.txt"
        path.write_text("ring n=3 N=18 p=2 rank=1\ny^2\n")
        assert main(["normalize", str(path)]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_ext(self, capsys, module_file):
        code, payload = run_json(capsys, ["ext", module_file])
        assert code == 0
        assert payload["local_ext1_length"] == 6
        assert payload["closed_form"] == 6


class TestArithmeticCommands:
    def test_stability(self, capsys):
        code, payload = run_json(capsys, [
            "stability", "--n", "2", "--delta", "2", "--beta", "2"])
        assert code == 0
        assert payload["semistable"] and not payload["stable"]
        assert payload["equality_positions"] == [1]

    def test_jh(self, capsys):
        code, payload = run_json(capsys, [
            "jh", "--n", "2", "--delta", "2", "--degree", "4", "--beta", "2"])
        assert code == 0
        assert payload["positions"] == [1]
        assert [f["slope"] for f in payload["factors"]] == [2, 2]

    def test_tangent_generic(self, capsys):
        code, payload = run_json(capsys, [
            "tangent", "--n", "3", "--delta", "1", "--g1", "2", "--beta", "0,1"])
        assert code == 0
        assert payload["tangent_dim"] == 8

    def test_tangent_points(self, capsys):
        code, payload = run_json(capsys, [
            "tangent", "--n", "3", "--delta", "1", "--g1", "2",
            "--points", '[{"b": [1, 2]}]'])
        assert code == 0
        assert payload["tangent_dim"] == 10

    def test_tangent_vector_bundle(self, capsys):
        code, payload = run_json(capsys, [
            "tangent", "--n", "3", "--delta", "5", "--g1", "2", "--vector-bundle"])
        assert code == 0
        assert payload["tangent_dim"] == 46

    @pytest.mark.parametrize("points", ['[{"x": 1}]', "[1]", '{"b": [1, 2]}', '[{"b": 1}]', '[{"b": [1.5, 2]}]'])
    def test_tangent_malformed_points_are_invalid_input(self, capsys, points):
        assert main(["tangent", "--n", "3", "--delta", "1", "--g1", "2", "--points", points]) == 1
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--points", '[{"b": [1, 2]}]', "--beta", "0,1"],
        ["--vector-bundle", "--beta", "0,1"],
        ["--beta", "0,1", "--h0", "3"],
        ["--points", '[{"b": [1, 2]}]', "--h0", "3"],
    ])
    def test_tangent_ignored_overrides_are_invalid_input(self, capsys, extra):
        assert main(["tangent", "--n", "3", "--delta", "5", "--g1", "2", *extra]) == 1
        assert "invalid input" in capsys.readouterr().err


class TestComponentsCommand:
    def test_json_payload(self, capsys):
        code, payload = run_json(capsys, [
            "components", "--n", "3", "--delta", "1", "--g1", "2", "--degree", "1"])
        assert code == 0
        assert payload["components"] == [
            {"beta": [0, 1], "dimension": 7, "tangent_dim": 8, "divisibility_ok": True}]
        assert payload["connected_components"] == 1

    def test_table_format(self, capsys):
        code = main(["components", "--n", "2", "--delta", "5", "--g1", "2",
                     "--degree", "0", "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(1)" in out and "(3)" in out

    def test_conjecture_flag(self, capsys):
        code, payload = run_json(capsys, [
            "components", "--n", "3", "--delta", "3", "--g1", "2", "--degree", "0",
            "--conjecture"])
        assert code == 0
        assert payload["conjecture"]["rigid_type_loci"] == []

    def test_dot_export(self, capsys, tmp_path):
        dot = tmp_path / "graph.gv"
        code, _ = run_json(capsys, [
            "connectivity", "--n", "3", "--delta", "2", "--g1", "2", "--degree", "0",
            "--dot", str(dot)])
        assert code == 0
        assert dot.read_text().startswith("graph components {")

    def test_invalid_delta(self, capsys):
        assert main(["components", "--n", "3", "--delta", "0", "--g1", "2",
                     "--degree", "0"]) == 1


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        assert main(["verify", "indices", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok indices")

    def test_all_suites(self, capsys):
        assert main(["verify", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        suites = ("ring", "indices", "duality", "stability", "ext", "moduli")
        assert [ln.split()[:2] for ln in lines] == [["ok", f"{name}:"] for name in suites]

    def test_unknown_suite_is_invalid_input(self, capsys):
        assert main(["verify", "nonsense"]) == 1

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == 0
