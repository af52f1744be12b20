"""Front-end behavior: formats, precedence, exit codes, determinism."""

from __future__ import annotations

import argparse
import ast
import csv
import graphlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from chi2norm import bounds, cli
from chi2norm.cli import (CONFIG_ENV_VAR, EXIT_ACCURACY, EXIT_OK, EXIT_USAGE,
                          run)
from chi2norm.constants import g, g_sym
from chi2norm.densities import StandardizedDensity
from chi2norm.errors import DomainError
from chi2norm.quadrature import Panels
from chi2norm.verify import TIERS, VerifyReport, run_suite
from conftest import CHI2_UNIFORM_SUM_2, README_COMMANDS


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

    @pytest.mark.parametrize("p", ["0.9999", "0.999999"])
    def test_p_near_one_is_capacity(self, capsys, p):
        # exact maximization refuses above p = 0.999 before it builds a
        # grid, naming the closed-form upper bound; 0.9999 once ran for
        # minutes and 0.999999 died allocating one 591 MiB row
        code, out, err = invoke(capsys, "constants", "--set", "basic",
                                "--p", p)
        assert code == EXIT_ACCURACY
        assert out == ""
        record = json.loads(err)
        assert record["error"]["kind"] == "accuracy"
        assert record["error"]["type"] == "CapacityError"
        assert "closed-form upper bound" in record["error"]["message"]
        code, out, _ = invoke(capsys, "constants", "--set", "basic",
                              "--p", p, "--method", "upper")
        assert code == EXIT_OK

    def test_negative_density_is_accuracy(self, capsys, monkeypatch):
        # a density whose values go negative near its support ends, on one
        # panel [-1, 1]: the direct route refuses instead of raising a raw
        # traceback
        panels = Panels(np.zeros(1), np.ones(1), np.full(1, 2.0),
                        np.full(1, 1.1),
                        lambda s: (0.5 - 0.6 * s * s)[None, :])
        bad = StandardizedDensity(symmetric=True,
                                  description="negative-tails",
                                  panels=lambda: panels)
        monkeypatch.setattr(cli, "from_name", lambda name: bad)
        code, out, err = invoke(capsys, "chi2", "--dist", "negative-tails",
                                "--method", "direct")
        assert code == EXIT_ACCURACY
        assert out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"]["kind"] == "accuracy"
        assert record["error"]["type"] == "AccuracyError"
        # the record states the cause: the value at the offending node
        message = record["error"]["message"]
        assert message.startswith("density evaluated to -")
        assert message.endswith(" at a rule node")

    @pytest.mark.parametrize("dist,t_max", [("uniform", "30"),
                                            ("normal", "40")])
    def test_margin_beyond_float_range_is_accuracy(self, capsys, dist,
                                                   t_max):
        # exp(t²) leaves the float range above |t| = 26.6: refused at the
        # grid's first point, -t_max, not a raw OverflowError
        code, out, err = invoke(capsys, "subgaussian", "check", "--dist",
                                dist, "--t-max", t_max, "--t-steps", "1")
        assert code == EXIT_ACCURACY
        assert out == ""
        record = json.loads(err)
        assert record["error"]["type"] == "AccuracyError"
        assert record["error"]["message"] == (
            f"exp(t²) at t = -{t_max} left the float range")

    def test_mgf_sum_beyond_float_range_is_accuracy(self, capsys):
        # the far component's terms are finite at |t| = 5.93, their sum is
        # not: refused, not a raw OverflowError from fsum
        code, out, err = invoke(capsys, "subgaussian", "check", "--dist",
                                "mixture:1:1,1/10000:100", "--t-max", "5.93",
                                "--t-steps", "1")
        assert code == EXIT_ACCURACY
        assert out == ""
        assert json.loads(err)["error"]["message"] == (
            "E exp(tY) at t = -5.93 left the float range")

    def test_uniform_sum_direct_certifies(self, capsys):
        # the n = 10 uniform sum's pdf stays positive up to its support
        # ends, so the direct route certifies
        code, out, err = invoke(capsys, "chi2", "--dist", "uniform",
                                "--n", "10", "--method", "direct")
        assert code == EXIT_OK
        assert err == ""
        assert "0.000611588172863" in out

    @pytest.mark.parametrize("argv", [
        ("bound", "--n", "4", "--avg-chi2", "1e308"),
        ("bound", "--n", "4", "--avg-chi2", "inf"),
        ("bound", "--n", "3", "--per-var", "0.1,inf,0.2"),
        ("chi2", "--dist", "beta:1e-400"),
        ("chi2", "--dist", "beta:1e400"),
        ("chi2", "--dist", "mixture:1:1e-400"),
        ("chi2", "--dist", "mixture:1:1e400"),
        ("chi2", "--dist", "beta:1000"),
        ("chi2", "--dist", "beta:1e10"),
        ("chi2", "--dist", "mixture:1:a"),
        ("bound", "--n", "3", "--per-var", "a,b,c"),
        ("plotdata", "--steps", "0"),
        ("plotdata", "--x-max", "-1"),
        ("verify", "--tiers", "x"),
        ("verify", "stein", "--n", "7"),
        ("verify", "stein", "--n", "1"),
        ("verify", "stein", "--max-order", "2"),
        ("verify", "stein", "--max-order", "201"),
    ])
    def test_out_of_range_input_is_usage(self, capsys, monkeypatch, argv):
        # refused before any large computation: no factorial is built and
        # no step constant computed; one usage record, nothing on stdout
        def refuse(*args):
            raise AssertionError("a large computation started")

        monkeypatch.setattr(math, "factorial", refuse)
        monkeypatch.setattr(bounds, "step_constants", refuse)
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        record = json.loads(err)["error"]
        assert record["type"] == "DomainError"
        assert record["kind"] == "usage"

    def test_bound_beyond_capacity_builds_no_list(self, capsys, monkeypatch):
        # refused before the n per-summand values are built or summed
        def refuse(values):
            raise AssertionError("the per-summand values were summed")

        monkeypatch.setattr(bounds, "_mean_chi2", refuse)
        code, out, err = invoke(capsys, "bound", "--n", str(10 ** 7),
                                "--avg-chi2", "0.3")
        assert code == EXIT_ACCURACY
        assert out == ""
        record = json.loads(err)["error"]
        assert record["type"] == "CapacityError"
        assert record["message"] == (
            f"n={10 ** 7} exceeds the supported maximum {bounds.MAX_BOUND_N}")

    @pytest.mark.parametrize("dist, n", [("beta:325", "2"),
                                         ("beta:301", "12"),
                                         ("beta:136", "4")])
    def test_sum_degree_beyond_capacity(self, capsys, dist, n):
        # refused before the jump products, by the sum's degree; beta:301
        # with n = 12 (degree 7211) once ran for minutes, and the other two
        # overflowed a Bernstein coefficient
        start = time.perf_counter()
        code, out, err = invoke(capsys, "chi2", "--dist", dist, "--n", n)
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_ACCURACY
        assert out == ""
        record = json.loads(err)["error"]
        assert record["type"] == "CapacityError"
        assert "above the supported maximum 1067" in record["message"]

    def test_sum_bernstein_overflow_is_capacity(self, capsys):
        # degree 1067, at the cap, where beta:134 with n = 4 certifies; this
        # sum's Bernstein coefficients pass the float range once its jump
        # products are built (several seconds), and it refuses then
        code, out, err = invoke(capsys, "chi2", "--dist", "beta:45",
                                "--n", "12")
        assert code == EXIT_ACCURACY
        assert out == ""
        record = json.loads(err)["error"]
        assert record["type"] == "CapacityError"
        assert "Bernstein coefficient" in record["message"]

    @pytest.mark.parametrize("argv,evaluator", [
        (("subgaussian", "check", "--dist", "uniform", "--t-max", "1",
          "--t-steps"), "mgf_check"),
        (("plotdata", "--steps"), "g")], ids=["check", "plotdata"])
    def test_grid_beyond_capacity_builds_no_grid(self, capsys, monkeypatch,
                                                 argv, evaluator):
        # refused before the grid is built or any point of it evaluated
        def refuse(*args):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(cli, evaluator, refuse)
        steps = cli.MAX_GRID_STEPS + 1
        code, out, err = invoke(capsys, *argv, str(steps))
        assert code == EXIT_ACCURACY
        assert out == ""
        record = json.loads(err)["error"]
        assert record["type"] == "CapacityError"
        assert record["message"] == (
            f"{argv[-1]}={steps} exceeds the supported maximum "
            f"{cli.MAX_GRID_STEPS}")

    @pytest.mark.parametrize("argv", [
        ("subgaussian", "check", "--dist", "uniform", "--t-max", "1",
         "--t-steps"), ("plotdata", "--steps")], ids=["check", "plotdata"])
    def test_grid_at_capacity_runs(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "MAX_GRID_STEPS", 3)
        assert invoke(capsys, *argv, "3")[0] == EXIT_OK
        assert invoke(capsys, *argv, "4")[0] == EXIT_ACCURACY

    @pytest.mark.parametrize("method", ["direct", "both"])
    def test_divergent_beta_prints_inf(self, capsys, method):
        # shape 1e-10 <= 1/2: p²/φ is not integrable at the edges, and the
        # Jacobi weight's exponent says so before any node is read
        code, out, err = invoke(capsys, "chi2", "--dist", "beta:1e-10",
                                "--method", method)
        assert code == EXIT_OK
        assert err == ""
        assert out.splitlines()[2].split()[:3] == ["direct", "inf", "inf"]

    @pytest.mark.parametrize("argv", [
        ("chi2", "--dist", "beta:1e-20"),
        ("chi2", "--dist", "beta:1e-20", "--method", "series"),
        ("chi2", "--dist", "beta:1e-20", "--method", "direct"),
        ("subgaussian", "check", "--dist", "beta:1e-20", "--t-max", "1",
         "--t-steps", "1"),
    ], ids=["both", "series", "direct", "check"])
    def test_vanishing_beta_shape_is_usage(self, capsys, argv):
        # at a <= 2^-54, a - 1 rounds to -1: the shape is refused when the
        # density is built, in a message that names it and the limit
        code, out, err = invoke(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert json.loads(err)["error"]["message"] == (
            "beta shape 1e-20 is at most 2^-54, where a - 1 rounds to -1")

    def test_least_beta_shape_prints_inf(self, capsys):
        # 2^-53 builds: there a - 1 = -(1 - 2^-53) is exact
        code, out, err = invoke(capsys, "chi2", "--dist",
                                f"beta:{2.0 ** -53!r}", "--method", "direct")
        assert code == EXIT_OK
        assert err == ""
        assert out.splitlines()[2].split()[:3] == ["direct", "inf", "inf"]

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_finite_chi2_beyond_float_range_is_accuracy(self, capsys, n):
        # a 1/1001 share of a box 40 wide puts knots near x = 43, where
        # e^(x²/2) passes 1e400: chi² is finite but leaves the float range,
        # in the sum (n = 2) before the rule's bound can be met
        code, out, err = invoke(capsys, "chi2", "--dist",
                                "mixture:1/1000:40,1:1", "--n", n,
                                "--method", "direct")
        assert code == EXIT_ACCURACY
        assert out == ""
        assert json.loads(err)["error"]["type"] == "AccuracyError"

    @pytest.mark.parametrize("method", ["direct", "series"])
    def test_far_knots_are_accuracy(self, capsys, method):
        # knots near x = 1.2e10: the direct bound needs more nodes than the
        # rule sums allow, and the series rows overflow to nan; both refuse
        # with exit 3, not a usage error after overflow warnings
        code, out, err = invoke(
            capsys, "chi2", "--dist",
            "mixture:1/100000000000000000000:10000000000,1:1",
            "--method", method)
        assert code == EXIT_ACCURACY
        assert out == ""
        assert json.loads(err)["error"]["type"] == "AccuracyError"

    def test_large_finite_chi2_is_printed(self, capsys):
        # about 0.1279 / h for the box of half-width h = 1e-20
        code, out, _ = invoke(capsys, "chi2", "--dist", "mixture:1:1e-20,1:1",
                              "--method", "direct")
        assert code == EXIT_OK
        assert out.splitlines()[2].split()[:2] == ["direct",
                                                   "1.27915838493e+19"]

    def test_chi2_near_the_float_limit_is_printed(self, capsys):
        # h = 1e-200: every factor of the rule sum's terms is taken in
        # logarithms, so p²/φ at the box does not overflow
        code, out, _ = invoke(capsys, "chi2", "--dist", "mixture:1:1e-200,1:1",
                              "--method", "direct")
        assert code == EXIT_OK
        assert out.splitlines()[2].split()[:2] == ["direct",
                                                   "1.27915838493e+199"]

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

    @pytest.mark.parametrize("key", [
        "quad_abs_tol", "quad_rel_tol", "series_start_order",
        "series_max_order", "series_tail_tol"])
    def test_retired_key_is_usage(self, capsys, monkeypatch, tmp_path, key):
        # the numeric policy is fixed in the code; a file that still names
        # it is refused when read, before any density or route runs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=1\n", encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        monkeypatch.setattr(cli, "_build_density", None)
        code, out, err = invoke(capsys, "chi2", "--dist", "uniform",
                                "--method", "series")
        assert code == EXIT_USAGE
        assert out == ""
        assert (json.loads(err)["error"]["message"]
                == f"{cfg}:1: unknown key {key!r}")

    @pytest.mark.parametrize("shape", ["3", "1e-10"])
    def test_uncertified_series_is_accuracy(self, capsys, shape):
        # the ladder ends at order 256 with no finite tail bound; for
        # beta:1e-10 the true divergence is infinite
        code, out, err = invoke(capsys, "chi2", "--dist", f"beta:{shape}",
                                "--method", "series")
        assert code == EXIT_ACCURACY
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert "order 256" in message and "partial sum" in message

    def test_series_with_finite_tail_exits_ok(self, capsys):
        # the tail bound is finite, whether or not it is honest (ROADMAP
        # defect 4)
        code, out, _ = invoke(capsys, "chi2", "--dist", "mixture:1:1,1:2",
                              "--n", "4", "--method", "series")
        assert code == EXIT_OK
        assert out.splitlines()[2].split()[0] == "series"


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

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_runs_leave_nothing_for_the_next(self, capsys):
        # one parser serves every run of a process: the README commands
        # twice over, then a usage error and plotdata, whose default format
        # is CSV, between two chi2 runs
        def outcome(*argv):
            return invoke(capsys, *argv)[:2]

        commands = [command.split() for command in README_COMMANDS]
        first = [outcome(*argv) for argv in commands]
        assert [outcome(*argv) for argv in commands] == first
        chi2 = ("chi2", "--dist", "uniform", "--method", "direct")
        before = outcome(*chi2)
        assert outcome("chi2", "--method", "direct") == (EXIT_USAGE, "")
        code, out = outcome("plotdata", "--steps", "4")
        assert code == EXIT_OK and out.startswith("x,")
        assert outcome(*chi2) == before
        assert before[0] == EXIT_OK and not before[1].startswith("x,")

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

    def test_infinite_series_error_does_not_agree(self, capsys):
        # chi2 of beta:1/2 is infinite and the series tail bound is inf;
        # inf <= inf is no agreement
        code, out, _ = invoke(capsys, "chi2", "--dist", "beta:1/2",
                              "--method", "both", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["agreement"] is False
        assert [row[2] for row in payload["rows"]] == ["inf", "inf"]

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
        assert payload["rows"][0][1] == pytest.approx(CHI2_UNIFORM_SUM_2,
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

    def test_margin_within_its_error_is_accuracy(self, capsys):
        # at |t| = 1e-8 the margin, about t²/2 = 5e-17, is below the MGF's
        # stated error of about 5e-15: its sign is refused, not guessed
        code, out, err = invoke(capsys, "subgaussian", "check", "--dist",
                                "uniform", "--t-max", "1e-8", "--t-steps",
                                "1")
        assert code == EXIT_ACCURACY
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert message.startswith("the margin at t = -1e-08 is ")
        assert message.endswith(": its sign is not certified")

    def test_margin_beyond_its_error_is_certified(self, capsys):
        # at |t| = 1e-6 the margin, 5.0e-13, is a hundred times its error
        code, out, _ = invoke(capsys, "subgaussian", "check", "--dist",
                              "uniform", "--t-max", "1e-6", "--t-steps", "1",
                              "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [row[2] for row in payload["rows"]] == [True, True]
        assert payload["all_positive"] is True


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

    def test_flags_before_the_stein_target(self, capsys, tmp_path):
        # a flag given at the verify level is kept; given at both levels,
        # the inner one wins
        stein = ("stein", "--n", "2", "--max-order", "5")
        code, out, _ = invoke(capsys, "verify", "--format", "json", *stein)
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0][3] is True
        _, out, _ = invoke(capsys, "verify", "--format", "json", *stein,
                           "--format", "csv")
        assert out.splitlines()[0] == "dist,n,max_order,passed,detail"
        path = tmp_path / "stein.json"
        _, out, _ = invoke(capsys, "verify", "--output", str(path),
                           "--format", "json", *stein)
        assert out == ""
        assert json.loads(path.read_text(encoding="utf-8"))["rows"][0][3]

    def test_bad_tier(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--tiers", "9")
        assert code == EXIT_USAGE
        # the library call refuses it too, without the command line's check
        with pytest.raises(DomainError, match="unknown tier 4"):
            run_suite((4,))


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

    def test_grid_near_the_float_limit_stays_finite(self, capsys):
        # x_max * i passes the float range before the division by steps
        code, out, _ = invoke(capsys, "plotdata", "--x-max", "1e308",
                              "--steps", "3")
        assert code == EXIT_OK
        xs = [row[0] for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert xs == ["0", "3.33333333333e+307", "6.66666666667e+307",
                      "1e+308"]

    @pytest.mark.parametrize("x_max,steps", [
        (0.1, 3), (20.0, 200), (2.0 ** 1000, 7), (sys.float_info.max, 1000)])
    def test_grid_is_x_max_i_over_steps_ending_at_x_max(self, x_max, steps):
        # each x is x_max * i / steps, rounded as if the float range had no
        # end (taken here at the scale 2^-200, which is exact), and the
        # last is x_max itself, where 0.1 * 3 / 3 reads 0.10000000000000002
        report, code = cli._cmd_plotdata(
            argparse.Namespace(x_max=x_max, steps=steps))
        assert code == EXIT_OK
        xs = [row[0] for row in report.rows]
        scaled = x_max * 2.0 ** -200
        assert xs[:-1] == [scaled * i / steps * 2.0 ** 200
                           for i in range(steps)]
        assert xs[-1] == x_max
        assert all(map(math.isfinite, xs))


# the package modules each module may import; the table has no cycle, so a
# new import that closes one between layers fails
LAYER_IMPORTS = {
    "errors": set(),
    "constants": {"errors"},
    "hermite": {"errors"},
    "quadrature": {"errors"},
    "piecewise": {"errors"},
    "densities": {"errors", "piecewise", "quadrature"},
    "distances": {"densities", "errors", "hermite", "quadrature"},
    "bounds": {"constants", "distances", "errors"},
    "subgaussian": {"densities", "distances", "errors", "quadrature"},
    "verify": {"bounds", "constants", "densities", "distances", "errors",
               "hermite", "quadrature", "subgaussian"},
    "cli": {"bounds", "constants", "densities", "distances", "errors",
            "subgaussian", "verify"},
    "__init__": {"bounds", "constants", "densities", "distances", "errors",
                 "hermite", "quadrature", "subgaussian", "verify"},
}


# module-level imports from outside the standard library, per module; a
# new one adds to the start-up time of every command, so it must be named
# here (imports inside a function body run only when it is called)
THIRD_PARTY_IMPORTS = {
    "errors": set(),
    "constants": {"numpy"},
    "hermite": {"numpy"},
    "quadrature": {"numpy"},
    "piecewise": {"numpy"},
    "densities": {"numpy"},
    "distances": {"numpy"},
    "bounds": {"numpy"},
    "subgaussian": {"numpy"},
    "verify": {"numpy"},
    "cli": set(),
    "__init__": set(),
}


SCIPY_PROBE = """
import sys
sys.path.insert(0, {src!r})
import chi2norm
from chi2norm.densities import from_name, normalized_sum_density
from chi2norm.distances import chi2_direct, hermite_profile
from chi2norm.errors import DomainError
from chi2norm.subgaussian import mgf
from chi2norm.verify import stein_check

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.startswith("numpy.polynomial"))

print("after import:", loaded())
for name in ("normal", "beta:3/4", "uniform", "beta:3"):
    density = from_name(name)
    if name in ("uniform", "beta:3"):
        density = normalized_sum_density(density, 3)
    chi2_direct(density)
    mgf(density, 0.7)
    hermite_profile(density, 40)
    try:
        stein_check(name, 2, 8)
    except DomainError:
        pass  # the recurrence check needs an exact base
print("after calls:", loaded())
"""


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


def _third_party_imports(path: Path) -> set[str]:
    """Modules from outside the standard library and the package that
    ``path`` imports outside any function body."""
    found: set[str] = set()
    nodes = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            nodes.extend(ast.iter_child_nodes(node))
            continue
        found |= {name for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names
                  and name.split(".")[0] != "chi2norm"}
    return found


class TestConfig:
    def test_config_imports_no_upper_layer(self):
        # the package __init__ loads every module, so the import graph is
        # read from the source rather than from sys.modules
        graphlib.TopologicalSorter(LAYER_IMPORTS).prepare()
        paths = sorted(Path(cli.__file__).parent.glob("*.py"))
        assert {path.stem for path in paths} == set(LAYER_IMPORTS)
        extra = {path.stem: names for path in paths
                 if (names := sorted(_package_imports(path)
                                     - LAYER_IMPORTS[path.stem]))}
        assert extra == {}

    def test_module_level_third_party_imports(self):
        paths = sorted(Path(cli.__file__).parent.glob("*.py"))
        found = {path.stem: _third_party_imports(path) for path in paths}
        assert found == THIRD_PARTY_IMPORTS

    def test_no_scipy_at_run_time(self):
        # scipy is a test-only oracle, and numpy.polynomial is no rule
        # source (its leggauss solves the full companion matrix): neither
        # the import nor a call of a route on the normal, a non-integer
        # beta and two sums, beta:3 at n = 3 on the Gauss-rule fallback of
        # the series route, may load either
        src = Path(cli.__file__).parent.parent
        script = SCIPY_PROBE.format(src=str(src))
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split("\n")[:2] == ["after import: []",
                                               "after calls: []"]

    def test_file_then_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n# comment\ntiers = 1\n",
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

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_config_file_read_once(self, capsys, tmp_path, monkeypatch,
                                   via):
        # plotdata's CSV default gives way to the file's format, which is
        # learnt from the same single read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n", encoding="utf-8")
        opened = []

        def spy_open(file, *args, **kwargs):
            opened.append(file)
            return builtin_open(file, *args, **kwargs)

        builtin_open = open
        monkeypatch.setattr("builtins.open", spy_open)
        argv = ("plotdata", "--steps", "2")
        if via == "flag":
            argv = ("--config", str(cfg), *argv)
        else:
            monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, out, _ = invoke(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["columns"] == ["x", "g", "g_sym"]
        assert opened.count(str(cfg)) == 1

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        code, out, err = invoke(capsys, "--config", str(cfg), "table1")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{cfg}:1" in json.loads(err)["error"]["message"]

    @staticmethod
    def _spy_suite(monkeypatch):
        """Record the tiers each ``verify`` run asks for, running none."""
        asked = []

        def run_suite(tiers):
            asked.append(tiers)
            return VerifyReport(())

        monkeypatch.setattr(cli, "run_suite", run_suite)
        return asked

    def test_defaults(self, capsys, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        asked = self._spy_suite(monkeypatch)
        code, out, _ = invoke(capsys, "verify")
        assert code == EXIT_OK
        assert asked == [TIERS]
        assert out.splitlines()[:2] == ["verification suite",
                                        "tier  check  passed  detail"]

    def test_load_config_typed_overrides(self, capsys, tmp_path,
                                         monkeypatch):
        report = tmp_path / "report.txt"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output={report}\ntiers=2,1\n", encoding="utf-8")
        asked = self._spy_suite(monkeypatch)
        code, out, _ = invoke(capsys, "--config", str(cfg), "verify",
                              "--format", "csv")
        assert code == EXIT_OK
        assert out == ""
        assert asked == [(1, 2)]
        assert report.read_text(encoding="utf-8") == (
            "tier,check,passed,detail\n")

    def test_runconfig_validation(self, capsys, tmp_path):
        # each setting's parser refuses a bad value from a file or a flag,
        # also where a flag would override the file's value
        cfg = tmp_path / "run.cfg"
        for line, flags, message in [
                ("format=yaml", (), "format must be one of table, json, csv"),
                ("format=yaml", ("--format", "json"),
                 "format must be one of table, json, csv"),
                ("tiers=", (), "tiers must not be empty"),
                ("", ("--output=",),
                 "output path must be nonempty when given")]:
            cfg.write_text(line + "\n", encoding="utf-8")
            code, out, err = invoke(capsys, "--config", str(cfg), "table1",
                                    *flags)
            assert code == EXIT_USAGE
            assert out == ""
            assert json.loads(err)["error"]["message"] == message

    def test_tiers_flag_beats_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tiers=2\n", encoding="utf-8")
        asked = self._spy_suite(monkeypatch)
        code, _, _ = invoke(capsys, "--config", str(cfg), "verify",
                            "--tiers", "1")
        assert code == EXIT_OK
        assert asked == [(1,)]

    def test_config_flag_beats_env_var(self, capsys, tmp_path, monkeypatch):
        env_cfg, flag_cfg = tmp_path / "env.cfg", tmp_path / "flag.cfg"
        env_cfg.write_text("format=json\n", encoding="utf-8")
        flag_cfg.write_text("format=csv\n", encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        code, out, _ = invoke(capsys, "--config", str(flag_cfg), "constants",
                              "--set", "basic", "--p", "0.5")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "set,p,method,value,argmax_s"

    def test_empty_config_path_is_usage(self, capsys, monkeypatch):
        # an empty --config names no readable file: it is not read as
        # "no file", as an empty CHI2NORM_CONFIG is
        monkeypatch.setenv(CONFIG_ENV_VAR, "")
        code, out, err = invoke(capsys, "--config", "", "table1")
        assert code == EXIT_USAGE
        assert out == ""
        assert ("cannot read config ''"
                in json.loads(err)["error"]["message"])

    @pytest.mark.parametrize("target", ["missing/report.txt", "."])
    def test_unwritable_output_is_usage(self, capsys, tmp_path, target):
        # a missing directory, and a directory in place of a file
        path = str(tmp_path / target)
        code, out, err = invoke(capsys, "--output", path, "chi2", "--dist",
                                "uniform")
        assert code == EXIT_USAGE
        assert out == ""
        record = json.loads(err)["error"]
        assert record["kind"] == "usage"
        assert record["type"] == "DomainError"
        assert record["message"].startswith(f"cannot write output {path!r}: ")


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


def _private_imports(path: Path) -> list[str]:
    """Underscore names that ``path`` takes from a package module, imported
    by name or read as an attribute of an imported package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: list[str] = []
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "chi2norm"):
            if node.level and node.module is None:
                modules |= {a.asname or a.name for a in node.names}
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names
                        if a.asname and a.name.split(".")[0] == "chi2norm"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return sorted(found)


def _unread_public_api(package: Path) -> list[str]:
    """Functions and classes in a module's ``__all__``, and the public methods
    of those classes, that no module of ``package`` reads by name.  A
    definition is not a read, and the package ``__init__`` is not scanned,
    so its re-exports do not count either."""
    wanted: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = {e.value for node in tree.body
                    if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                    for e in node.value.elts}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in exported):
                wanted[node.name] = node.name
                wanted |= {f"{node.name}.{m.name}": m.name for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return sorted(q for q, name in wanted.items() if name not in read)


def _public_calls(package: Path) -> tuple[dict[str, ast.FunctionDef],
                                          dict[str, list[ast.Call]]]:
    """The functions in a module's ``__all__`` and the public methods of its
    classes, by qualified name, and every call in ``package`` by the
    callee's name, so a call to another function of the same name counts
    too."""
    wanted: dict[str, ast.FunctionDef] = {}
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = {e.value for node in tree.body
                    if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                    for e in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                wanted[f"{path.stem}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                wanted |= {f"{path.stem}.{node.name}.{m.name}": m
                           for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return wanted, calls


def _slots(qual: str, fn: ast.FunctionDef) -> list[tuple[float, str, bool]]:
    """Each parameter of ``fn`` but ``self`` as ``(position, name,
    defaulted)``; a keyword-only parameter has no position (``inf``).  A
    method call's first positional argument fills the parameter after
    ``self``."""
    skip = int(qual.count(".") == 2 and not any(
        getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
    params = [*fn.args.posonlyargs, *fn.args.args]
    first = len(params) - len(fn.args.defaults)
    return ([(i - skip, p.arg, i >= first) for i, p in enumerate(params)
             if i >= skip]
            + [(math.inf, p.arg, d is not None)
               for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)])


def _unset_defaults(package: Path) -> list[str]:
    """Defaulted parameters of the functions in a module's ``__all__``, and
    of the public methods of its classes, that no call in ``package`` sets
    by position or by keyword (calls matched as in :func:`_public_calls`)."""
    wanted, calls = _public_calls(package)
    found = []
    for qual, fn in wanted.items():
        name = qual.rsplit(".", 1)[1]
        positional = max(
            (math.inf if any(isinstance(a, ast.Starred) for a in call.args)
             else len(call.args) for call in calls.get(name, [])), default=0)
        # ``**kwargs`` shows up as a keyword without a name
        given = {k.arg for call in calls.get(name, []) for k in call.keywords}
        found += [f"{qual}({arg})" for pos, arg, defaulted in _slots(qual, fn)
                  if defaulted and pos >= positional
                  and arg not in given and None not in given]
    return sorted(found)


def _fixed_arguments(package: Path) -> list[str]:
    """Parameters of the functions in a module's ``__all__``, and of the
    public methods of its classes, that two or more calls in ``package``
    all pass as the same literal, by position or by keyword (calls matched
    as in :func:`_public_calls`)."""
    wanted, calls = _public_calls(package)
    found = []
    for qual, fn in wanted.items():
        found_calls = calls.get(qual.rsplit(".", 1)[1], [])
        if len(found_calls) < 2:
            continue
        found += [f"{qual}({arg})" for pos, arg, _ in _slots(qual, fn)
                  if len(passed := {_literal(_argument(call, pos, arg))
                                    for call in found_calls}) == 1
                  and None not in passed]
    return sorted(found)


def _argument(call: ast.Call, pos: float, arg: str) -> ast.expr | None:
    """What ``call`` passes for the parameter ``arg`` at ``pos``: ``None``
    where it passes nothing, or where a ``*`` or ``**`` argument may."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return None
    if pos < len(call.args):
        return call.args[pos]
    return next((k.value for k in call.keywords if k.arg == arg), None)


def _literal(node: ast.expr | None) -> str | None:
    """``ast.dump`` of a literal, so ``1`` and ``1.0`` differ; ``None`` for
    anything else."""
    if node is None:
        return None
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return ast.dump(node)


# defaulted parameters that no package call sets: the console entry point
# reads sys.argv when called without arguments
UNSET_DEFAULTS = ["cli.main(argv)"]


# parameters that every package call passes as one literal, each kept for
# a caller outside the package
FIXED_ARGUMENTS = {
    "constants.constants_table(n_hi)":
        "perfbench/ops.py passes it, as constants_table(2, 10), and the "
        "benchmark's files are kept apart from the package's",
    "constants.constants_table(n_lo)":
        "perfbench/ops.py passes it, as constants_table(2, 10), and the "
        "benchmark's files are kept apart from the package's",
}


# public names that no package module reads, each kept for a reader outside
# the package; any other such name is test-only API
UNREAD_PUBLIC_API = {
    "PiecewisePolyDensity.is_standardized":
        "the benchmark's normalized-sum check reads it",
    "PiecewisePolyDensity.convolve":
        "sums of non-identical summands (ROADMAP direction 2) will call it",
}


class TestImportHygiene:
    def test_no_private_names_across_package_modules(self):
        # each module reaches another only through its public names, so the
        # Hermite recurrence stays behind hermite_row_normalized
        paths = sorted(Path(cli.__file__).parent.glob("*.py"))
        found = {path.name: names for path in paths
                 if (names := _private_imports(path))}
        assert found == {}

    def test_private_import_scan(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("from .hermite import _row, hermite_eval\n"
                        "from . import distances as dist\n"
                        "import chi2norm.piecewise as pw\n"
                        "from numpy import _globals\n"
                        "dist._profile, pw._legendre, dist.chi2_both\n",
                        encoding="utf-8")
        assert _private_imports(path) == ["_row", "dist._profile",
                                          "pw._legendre"]

    def test_public_api_has_package_readers(self):
        # a public function that only its own tests call goes, or moves
        # into the tests as a reference
        found = _unread_public_api(Path(cli.__file__).parent)
        assert found == sorted(UNREAD_PUBLIC_API)

    def test_defaulted_parameters_are_set_in_the_package(self):
        # a default that no package code overrides is a fixed value in
        # disguise: it belongs in a module constant
        found = _unset_defaults(Path(cli.__file__).parent)
        assert found == UNSET_DEFAULTS

    def test_unset_default_scan(self, tmp_path):
        (tmp_path / "a.py").write_text(
            '__all__ = ["Box", "f", "g"]\n'
            "def f(x, tol=1.0, *, spec=None): return x\n"
            "def g(x, order=2, hint=None): return f(x, tol=2.0)\n"
            "def _h(y=0): return y\n"
            "class Box:\n"
            "    def read(self, k=1, j=2): return g(k, **{})\n"
            "    def _inner(self, m=3): return self.read(m)\n",
            encoding="utf-8")
        assert _unset_defaults(tmp_path) == ["a.Box.read(j)", "a.f(spec)"]

    def test_fixed_arguments_are_parameters_in_use(self):
        # a parameter that every package call passes as one literal is a
        # fixed value in disguise, like a default no call overrides
        found = _fixed_arguments(Path(cli.__file__).parent)
        assert found == sorted(FIXED_ARGUMENTS)

    def test_fixed_argument_scan(self, tmp_path):
        (tmp_path / "a.py").write_text(
            '__all__ = ["Box", "f", "g", "one"]\n'
            "def f(x, n, tol=1.0, *, spec=None): return x\n"
            "def g(x, y): return f(x, 2, spec='s')\n"
            "def one(z): return z\n"
            "class Box:\n"
            "    def read(self, k, j): return g(1, 2)\n",
            encoding="utf-8")
        (tmp_path / "b.py").write_text(
            "from .a import Box, f, g, one\n"
            "f(1, n=2, tol=3.0, spec='s')\n"
            "g(*[1, 2]), g(1.0, 2)\n"
            "one(1)\n"
            "Box().read(3, 4), Box().read(3, 5)\n",
            encoding="utf-8")
        assert _fixed_arguments(tmp_path) == ["a.Box.read(k)", "a.f(n)",
                                              "a.f(spec)"]

    def test_unread_public_api_scan(self, tmp_path):
        (tmp_path / "__init__.py").write_text(
            "from .a import Box, helper, used\n", encoding="utf-8")
        (tmp_path / "a.py").write_text(
            '__all__ = ["Box", "helper", "used", "LIMIT"]\n'
            "LIMIT = 3\n"
            "def used(): return 1\n"
            "def helper(): return used()\n"
            "class Box:\n"
            "    def read(self): return self._hidden()\n"
            "    def spare(self): return 0\n"
            "    def _hidden(self): return 1\n", encoding="utf-8")
        (tmp_path / "b.py").write_text(
            "from .a import Box\nBox().read()\n", encoding="utf-8")
        assert _unread_public_api(tmp_path) == ["Box.spare", "helper"]

    def test_no_unused_imports(self):
        # no linter is installed, so the check is an ast scan of the
        # package and of the tests
        files = [*sorted(Path(cli.__file__).parent.glob("*.py")),
                 *sorted(Path(__file__).parent.glob("*.py"))]
        found = {f"{path.parent.name}/{path.name}": names for path in files
                 if (names := _unused_imports(path))}
        assert found == {}
