"""Front-end behavior: formats, precedence, exit codes, determinism."""

from __future__ import annotations

import ast
import csv
import graphlib
import io
import json
from pathlib import Path

import pytest

from chi2norm import cli, config
from chi2norm.cli import EXIT_ACCURACY, EXIT_OK, EXIT_USAGE, run
from chi2norm.config import RunConfig, load_config, read_config_file
from chi2norm.constants import g, g_sym
from chi2norm.densities import StandardizedDensity
from chi2norm.errors import DomainError


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = invoke(capsys, "bound", "--n", "4",
                                "--avg-chi2", "0")
        assert code == EXIT_OK
        assert "total" in out
        assert err == ""

    def test_unknown_density_is_usage(self, capsys):
        code, out, err = invoke(capsys, "chi2", "--dist", "nosuch")
        assert code == EXIT_USAGE
        record = json.loads(err)
        assert record["error"]["kind"] == "usage"
        assert record["error"]["type"] == "DomainError"

    def test_unknown_subcommand_is_usage(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == EXIT_USAGE
        assert err != ""

    def test_capacity_is_accuracy(self, capsys):
        # exact maximization refuses below its certified p floor
        code, _, err = invoke(capsys, "constants", "--set", "basic",
                              "--p", "1e-6")
        assert code == EXIT_ACCURACY
        record = json.loads(err)
        assert record["error"]["kind"] == "accuracy"
        assert record["error"]["type"] == "CapacityError"

    def test_negative_density_is_accuracy(self, capsys, monkeypatch):
        # a density whose pdf goes negative near its support ends: the
        # direct route refuses instead of raising a raw traceback
        bad = StandardizedDensity(pdf=lambda x: 0.5 - 0.6 * x * x,
                                  support=(-1.0, 1.0), symmetric=True,
                                  description="negative-tails")
        monkeypatch.setattr(cli, "from_name", lambda name: bad)
        code, out, err = invoke(capsys, "chi2", "--dist", "negative-tails",
                                "--method", "direct")
        assert code == EXIT_ACCURACY
        assert out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"]["kind"] == "accuracy"
        assert record["error"]["type"] == "AccuracyError"
        # the record states the cause: the failed ladder rung's own message
        message = record["error"]["message"]
        assert message.startswith(
            "direct integral failed even on the shrunk domain: "
            "density evaluated to -")
        assert " at x = " in message

    def test_uniform_sum_direct_certifies(self, capsys):
        # the n = 10 uniform sum's pdf stays positive up to its support
        # ends, so the direct route certifies
        code, out, err = invoke(capsys, "chi2", "--dist", "uniform",
                                "--n", "10", "--method", "direct")
        assert code == EXIT_OK
        assert err == ""
        assert "0.000611588172863" in out

    def test_bound_needs_values(self, capsys):
        code, _, err = invoke(capsys, "bound", "--n", "3")
        assert code == EXIT_USAGE
        assert "avg-chi2" in json.loads(err)["error"]["message"]

    def test_per_var_length_mismatch(self, capsys):
        code, _, _ = invoke(capsys, "bound", "--n", "3",
                            "--per-var", "0.1,0.2")
        assert code == EXIT_USAGE

    def test_bound_rejects_csv(self, capsys):
        code, _, _ = invoke(capsys, "bound", "--n", "3", "--avg-chi2",
                            "0.1", "--format", "csv")
        assert code == EXIT_USAGE


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("table1", "--format", "csv"),
        ("table1", "--format", "json"),
        ("constants", "--set", "basic", "--p", "0.5"),
        ("bound", "--n", "3", "--avg-chi2", "0.3285", "--symmetric",
         "--format", "json"),
        ("plotdata", "--steps", "16"),
        ("subgaussian", "threshold", "--set", "basic"),
    ])
    def test_byte_identical(self, capsys, argv):
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert out1

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "table1", "--format", "csv")
        assert code == EXIT_OK
        target = tmp_path / "t1.csv"
        code2, out2, _ = invoke(capsys, "table1", "--format", "csv",
                                "--output", str(target))
        assert code2 == EXIT_OK
        assert out2 == ""
        assert target.read_text(encoding="utf-8") == out


class TestTable1:
    def test_csv_shape(self, capsys):
        code, out, _ = invoke(capsys, "table1", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 3
        assert rows[0] == ["set"] + [f"n={n}" for n in range(2, 11)]
        assert rows[1][0] == "basic" and rows[2][0] == "symmetric"
        for row in rows[1:]:
            values = [float(cell) for cell in row[1:]]
            assert len(values) == 9
            assert all(v > 0 for v in values)
        # basic constants dominate the symmetric ones columnwise
        basic = [float(c) for c in rows[1][1:]]
        sym = [float(c) for c in rows[2][1:]]
        assert all(b > s for b, s in zip(basic, sym))

    def test_json_csv_round_trip(self, capsys):
        code, out_json, _ = invoke(capsys, "table1", "--format", "json")
        code2, out_csv, _ = invoke(capsys, "table1", "--format", "csv")
        assert code == code2 == EXIT_OK
        payload = json.loads(out_json)
        csv_rows = list(csv.reader(io.StringIO(out_csv)))
        assert payload["columns"] == csv_rows[0]
        for jrow, crow in zip(payload["rows"], csv_rows[1:]):
            assert jrow[0] == crow[0]
            assert jrow[1:] == [float(c) for c in crow[1:]]

    def test_table_mode_adds_rounded_rows(self, capsys):
        code, out, _ = invoke(capsys, "table1", "--format", "table")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert any("basic (4dp)" in ln for ln in lines)
        assert any("symmetric (4dp)" in ln for ln in lines)
        (rounded,) = [ln for ln in lines if ln.startswith("basic (4dp)")]
        cells = rounded.split()[2:]
        assert cells[0] == "2.1327"
        assert all(len(c.split(".")[1]) == 4 for c in cells)


class TestChi2Command:
    def test_both_agreement(self, capsys):
        code, out, _ = invoke(capsys, "chi2", "--dist", "uniform",
                              "--method", "both", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["agreement"] is True
        by_method = {row[0]: row for row in payload["rows"]}
        assert by_method["direct"][1] == pytest.approx(0.3285567, abs=5e-7)
        assert by_method["series"][1] <= by_method["direct"][1]

    def test_single_method_direct(self, capsys):
        code, out, _ = invoke(capsys, "chi2", "--dist", "uniform",
                              "--method", "direct", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        assert payload["rows"][0][0] == "direct"

    def test_sum_of_copies(self, capsys):
        code, out, _ = invoke(capsys, "chi2", "--dist", "uniform", "--n",
                              "2", "--method", "direct", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        # divergence shrinks under convolution; value pinned elsewhere
        assert payload["rows"][0][1] == pytest.approx(0.032032844541205434,
                                                      abs=1e-9)


class TestBoundCommand:
    def test_zero_average(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--n", "4", "--avg-chi2",
                              "0", "--format", "json")
        assert code == EXIT_OK
        rows = dict((r[0], r[1]) for r in json.loads(out)["rows"])
        assert rows["total"] == 0
        assert rows["leading_term"] == 0

    def test_per_var_matches_avg(self, capsys):
        _, out_a, _ = invoke(capsys, "bound", "--n", "3", "--avg-chi2",
                             "0.3", "--format", "json")
        _, out_b, _ = invoke(capsys, "bound", "--n", "3", "--per-var",
                             "0.3,0.3,0.3", "--format", "json")
        assert json.loads(out_a)["rows"] == json.loads(out_b)["rows"]


class TestSubgaussianCommand:
    def test_threshold(self, capsys):
        code, out, _ = invoke(capsys, "subgaussian", "threshold", "--set",
                              "sym", "--format", "json")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row[0] == "symmetric"
        assert row[1] == pytest.approx(1.97044528636, abs=1e-9)

    def test_check_grid(self, capsys):
        code, out, _ = invoke(capsys, "subgaussian", "check", "--dist",
                              "uniform", "--t-max", "2", "--t-steps", "4",
                              "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_positive"] is True
        assert len(payload["rows"]) == 8
        ts = [row[0] for row in payload["rows"]]
        assert ts == sorted(ts)
        assert 0 not in ts

    def test_check_validation(self, capsys):
        code, _, _ = invoke(capsys, "subgaussian", "check", "--dist",
                            "uniform", "--t-max", "-1", "--t-steps", "4")
        assert code == EXIT_USAGE


class TestVerifyCommand:
    def test_tier_one(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--tiers", "1",
                              "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["rows"])
        assert all(row[2] is True for row in payload["rows"])

    def test_stein_target(self, capsys):
        code, out, _ = invoke(capsys, "verify", "stein", "--dist",
                              "uniform", "--n", "2", "--max-order", "8",
                              "--format", "json")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row[3] is True

    def test_bad_tier(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--tiers", "9")
        assert code == EXIT_USAGE


class TestPlotdata:
    def test_defaults_to_csv(self, capsys):
        code, out, _ = invoke(capsys, "plotdata", "--steps", "10")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "g", "g_sym"]
        assert len(rows) == 12

    def test_values_match_functions(self, capsys):
        _, out, _ = invoke(capsys, "plotdata", "--steps", "8", "--x-max",
                           "4", "--format", "csv")
        for row in list(csv.reader(io.StringIO(out)))[2:]:
            x = float(row[0])
            assert float(row[1]) == pytest.approx(g(x), rel=1e-11)
            assert float(row[2]) == pytest.approx(g_sym(x), rel=1e-11)

    def test_explicit_format_wins(self, capsys):
        code, out, _ = invoke(capsys, "plotdata", "--steps", "4",
                              "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["columns"] == ["x", "g", "g_sym"]


# the package modules each module may import; the table has no cycle, so a
# new import that closes one between layers fails
LAYER_IMPORTS = {
    "errors": set(),
    "constants": {"errors"},
    "hermite": {"errors"},
    "quadrature": {"errors"},
    "config": {"errors", "quadrature"},
    "piecewise": {"errors", "hermite"},
    "densities": {"errors", "piecewise", "quadrature"},
    "distances": {"densities", "errors", "hermite", "quadrature"},
    "bounds": {"constants", "distances", "errors"},
    "subgaussian": {"densities", "distances", "errors", "quadrature"},
    "verify": {"bounds", "config", "constants", "densities", "distances",
               "errors", "hermite", "subgaussian"},
    "cli": {"bounds", "config", "constants", "densities", "distances",
            "errors", "subgaussian", "verify"},
    "__init__": {"bounds", "config", "constants", "densities", "distances",
                 "errors", "hermite", "quadrature", "subgaussian", "verify"},
}


def _package_imports(path: Path) -> set[str]:
    """Package modules that ``path`` imports, relative or absolute."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module} if node.module
                      else {alias.name for alias in node.names})
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {name.removeprefix("chi2norm.") for name in names
                  if name.split(".")[0] == "chi2norm"}
    return found


class TestConfig:
    def test_config_imports_no_upper_layer(self):
        # the package __init__ loads every module, so the import graph is
        # read from the source rather than from sys.modules
        graphlib.TopologicalSorter(LAYER_IMPORTS).prepare()
        paths = sorted(Path(config.__file__).parent.glob("*.py"))
        assert {path.stem for path in paths} == set(LAYER_IMPORTS)
        extra = {path.stem: names for path in paths
                 if (names := sorted(_package_imports(path)
                                     - LAYER_IMPORTS[path.stem]))}
        assert extra == {}

    def test_file_then_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n# comment\nquad_abs_tol = 1e-11\n",
                       encoding="utf-8")
        _, out, _ = invoke(capsys, "--config", str(cfg), "constants",
                           "--set", "basic", "--p", "0.5")
        json.loads(out)
        _, out2, _ = invoke(capsys, "--config", str(cfg), "constants",
                            "--set", "basic", "--p", "0.5",
                            "--format", "table")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out2)

    def test_env_var_default_path(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("format=json\n", encoding="utf-8")
        monkeypatch.setenv("CHI2NORM_CONFIG", str(cfg))
        _, out, _ = invoke(capsys, "constants", "--set", "basic",
                           "--p", "0.5")
        json.loads(out)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_knob=3\n", encoding="utf-8")
        code, _, err = invoke(capsys, "--config", str(cfg), "table1")
        assert code == EXIT_USAGE
        assert "no_such_knob" in json.loads(err)["error"]["message"]

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(DomainError):
            read_config_file(str(cfg))

    def test_defaults(self):
        cfg = load_config()
        assert cfg == RunConfig()
        assert cfg.format == "table"
        spec = cfg.quadrature_spec()
        assert spec.abs_tol == 1e-10

    def test_load_config_typed_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("series_start_order=20\ntiers=2,1\n",
                       encoding="utf-8")
        loaded = load_config(str(cfg), {"format": "csv"})
        assert loaded.series_start_order == 20
        assert loaded.tiers == (1, 2)
        assert loaded.format == "csv"

    def test_runconfig_validation(self):
        with pytest.raises(DomainError):
            RunConfig(format="yaml")
        with pytest.raises(DomainError):
            RunConfig(quad_abs_tol=-1.0)
        with pytest.raises(DomainError):
            RunConfig(tiers=())
        with pytest.raises(DomainError):
            RunConfig(tiers=(2, 1))
        with pytest.raises(DomainError):
            RunConfig(series_start_order=100, series_max_order=50)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; ``__all__`` counts as a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return sorted(bound - read)


class TestImportHygiene:
    def test_no_unused_imports(self):
        # no linter is installed, so the check is an ast scan of the
        # package and of the tests
        files = [*sorted(Path(config.__file__).parent.glob("*.py")),
                 *sorted(Path(__file__).parent.glob("*.py"))]
        found = {f"{path.parent.name}/{path.name}": names for path in files
                 if (names := _unused_imports(path))}
        assert found == {}
