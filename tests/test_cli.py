import json
import os
import subprocess
import sys

import pytest

import multicurve
from multicurve import verify
from multicurve.cli import SUITE_NAMES, build_parser, main


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

    def test_misspelt_header_keyword_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "ringo.txt"
        path.write_text("ringo n=2 N=6 p=3 rank=1\nx\n")
        assert main(["indices", str(path)]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("header", [
        "ring n=3 N=18 p=2 rank=1 prec=40", "ring n=3 N=18 N=30 p=2 rank=1", "ring n=3 N=18 p=2 rank=0"])
    def test_ignored_header_input_is_invalid_input(self, tmp_path, capsys, header):
        path = tmp_path / "header.txt"
        path.write_text(header + "\nx^2\nx*y\ny^2\n")
        assert main(["indices", str(path)]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_rank_two_module_is_invalid_input(self, tmp_path, capsys):
        # the indices are defined for submodules of A only
        path = tmp_path / "rank2.txt"
        path.write_text("ring n=3 N=18 p=2 rank=2\nx, y\ny^2, 0\n")
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
        # the verdict is decided, never sampled: there is no seed to pass
        assert main(["isomorphic", module_file, module_file, "--seed", "1"]) == 1

    def test_normalize(self, capsys, tmp_path):
        path = tmp_path / "single.txt"
        path.write_text("ring n=3 N=18 p=2 rank=1\nx^2\ny^2\n")
        code, payload = run_json(capsys, ["normalize", str(path)])
        assert code == 0
        assert (payload["b"], payload["j"], payload["z"]) == (2, 2, [])

    def test_normalize_a_copy_whose_lead_is_not_x_reduced(self, capsys, tmp_path):
        # ((x^2 + y) / x) * (x, y): it used to exit 1 with "module is not
        # divisible by x^1"; its normal form is that of (x, y)
        path = tmp_path / "copy.txt"
        path.write_text("ring n=2 N=8 p=2 rank=1\nx^2 + y\nx*y\n")
        code, payload = run_json(capsys, ["normalize", str(path)])
        assert code == 0
        assert (payload["n"], payload["b"], payload["j"], payload["z"]) == (2, 1, 1, [])

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

    def test_ext_on_a_copy_whose_lead_is_not_x_reduced(self, capsys, tmp_path):
        # ((x^2 + y) / x) * (x, y): isomorphic to (x, y), so its length is 2
        path = tmp_path / "copy.txt"
        path.write_text("ring n=2 N=8 p=2\nx^2 + y\nx*y\n")
        code, payload = run_json(capsys, ["ext", str(path)])
        assert code == 0
        assert (payload["local_ext1_length"], payload["closed_form"], payload["beta"]) == (2, 2, [1])

    def test_ext_beyond_the_closed_forms(self, capsys, tmp_path):
        # the monomial (1, 2, 3) stalk at n = 4: the paper has no closed form
        path = tmp_path / "multi.txt"
        path.write_text("ring n=4 N=32 p=2\nx^3\nx^2*y\nx*y^2\ny^3\n")
        code, payload = run_json(capsys, ["ext", str(path)])
        assert code == 0
        assert (payload["local_ext1_length"], payload["closed_form"], payload["beta"]) == (12, None, [1, 2, 3])

    def test_ext_below_the_minimal_precision(self, capsys, tmp_path):
        # N = 5 < N_min: the indices at N, (3, 4), belong to the truncated
        # module; beta and the closed form are those at the working precision
        path = tmp_path / "low.txt"
        path.write_text("ring n=3 N=5 p=2 rank=1\nx^4 + y\ny^2\n")
        code, payload = run_json(capsys, ["ext", str(path)])
        assert code == 0
        assert (payload["local_ext1_length"], payload["closed_form"], payload["beta"]) == (8, 8, [0, 4])

    @pytest.mark.parametrize("gens", ["y", "x*y\ny^2"])
    def test_ext_on_a_proper_subcurve_is_invalid_input(self, capsys, tmp_path, gens):
        # (y) lives on C_2 only: its Ext^1 has infinite length
        path = tmp_path / "subcurve.txt"
        path.write_text(f"ring n=3 N=12 p=2\n{gens}\n")
        assert main(["ext", str(path)]) == 1
        assert "whole curve" in capsys.readouterr().err


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

    @pytest.mark.parametrize("points", ['[{"x": 1}]', "[1]", '{"b": [1, 2]}', '[{"b": 1}]', '[{"b": [1.5, 2]}]',
    '[{"b": [true, 2]}]',                        # a boolean is not the index 1
    '[{"b": [1, 2], "monomal": true}]',          # an unknown key
    '[{"b": [1, 2], "monomial": "false"}]',      # a flag that is not a boolean
    '[{"b": [1, 2], "dual_monomial": 1}]',
])
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

    def test_refused_conjecture_writes_no_dot_file(self, capsys, tmp_path):
        # the report is for n = 3 only; refusing it must leave no file behind
        dot = tmp_path / "graph.gv"
        assert main(["components", "--n", "4", "--delta", "1", "--degree", "0",
                     "--conjecture", "--dot", str(dot)]) == 1
        assert "invalid input" in capsys.readouterr().err
        assert not dot.exists()


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        assert main(["verify", "indices", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok indices")

    def test_all_suites(self, capsys):
        assert main(["verify", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        suites = ("ring", "indices", "duality", "stability", "ext", "moduli", "iso")
        assert [ln.split()[:2] for ln in lines] == [["ok", f"{name}:"] for name in suites]

    def test_unknown_suite_is_invalid_input(self, capsys):
        assert main(["verify", "nonsense"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown suite 'nonsense'" in captured.err

    def test_help_names_every_suite(self, capsys):
        assert SUITE_NAMES == tuple(verify.SUITES)
        assert main(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in verify.SUITES)

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == 0


CURVE = ["--n", "3", "--delta", "1", "--g1", "2", "--degree", "1"]


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()
        a = build_parser().parse_args(["stability", *CURVE, "--beta", "0,1"])
        b = build_parser().parse_args(["stability", *CURVE, "--beta", "0,1"])
        assert a is not b and vars(a) == vars(b)

    def test_dot_file_is_not_rewritten_by_a_later_call(self, capsys, tmp_path):
        dot = tmp_path / "graph.gv"
        assert main(["components", *CURVE, "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("graph components {")
        dot.write_text("untouched")
        for argv in (["components", *CURVE], ["connectivity", *CURVE]):
            assert main(argv) == 0
        assert dot.read_text() == "untouched"
        capsys.readouterr()

    def test_tangent_options_do_not_carry_over(self, capsys):
        curve = ["--n", "3", "--delta", "5", "--g1", "2"]
        for _ in range(2):
            code, payload = run_json(capsys, ["tangent", *curve, "--beta", "0,1"])
            assert code == 0 and "kind" not in payload
            code, payload = run_json(capsys, ["tangent", *curve, "--vector-bundle"])
            assert code == 0 and payload == {"schema": 1, "tangent_dim": 46, "kind": "vector_bundle"}
            # an --h0 left over from this call would be refused next to --beta in the next
            assert main(["tangent", *curve, "--vector-bundle", "--h0", "3"]) == 0
            capsys.readouterr()
            assert main(["tangent", *curve, "--beta", "0,1"]) == 0
            assert json.loads(capsys.readouterr().out)["beta"] == [0, 1]

    def test_curve_commands_do_not_load_numpy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(multicurve.__file__)))
        script = "\n".join([
            "import contextlib, io, sys",
            "import multicurve.cli",
            "assert 'numpy' not in sys.modules, 'import'",
            "curve = " + repr(CURVE),
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    for argv in (['stability', *curve, '--beta', '0,1'],",
            "                 ['jh', '--n', '2', '--delta', '2', '--degree', '4', '--beta', '2'],",
            "                 ['components', *curve, '--format', 'table'], ['connectivity', *curve],",
            "                 ['tangent', *curve, '--points', '[{\"b\": [1, 2], \"monomial\": true}]']):",
            "        assert multicurve.cli.main(argv) == 0, argv",
            "        assert 'numpy' not in sys.modules, argv",
        ])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
