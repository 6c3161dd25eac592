import json
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fishburn import checks, cli
from fishburn.cli import build_parser, main
from fishburn.families import ALL, LambdaSpec, family_series
from fishburn.saddle import BoundReport


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate


class TestEnumerate:
    @pytest.mark.parametrize("argv,expected", [
        (["enumerate", "--family", "fishburn", "--lambda", "all", "--n-max", "6"],
         "1 1 2 5 15 53 217"),
        (["enumerate", "--family", "self-dual", "--lambda", "all", "--n-max", "6"],
         "1 1 2 3 7 13 33"),
        (["enumerate", "--family", "row-fishburn", "--lambda", "0,1", "--n-max", "6"],
         "1 1 2 7 33 197 1419"),
        (["enumerate", "--family", "row-fishburn", "--lambda", "all", "--n-max", "6"],
         "1 1 3 12 61 380 2815"),
    ])
    def test_documented_prefixes(self, argv, expected, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("alias", ["01", "0-1", "0,1"])
    def test_zero_one_spellings_agree(self, alias, capsys):
        code, out, _ = run(
            ["enumerate", "--family", "fishburn", "--lambda", alias,
             "--n-max", "5"], capsys)
        assert code == 0
        assert out == "1 1 1 2 5 16\n"

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            ["enumerate", "--n-max", "4", "--format", "csv"], capsys)
        assert code == 0
        assert out == "n,count\n0,1\n1,1\n2,2\n3,5\n4,15\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            ["enumerate", "--n-max", "5", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "fishburn.enumerate/1"
        assert payload["family"] == "fishburn"
        assert payload["entries"] == "all"
        assert payload["counts"] == [1, 1, 2, 5, 15, 53]

    def test_budget_is_enforced(self, capsys):
        code, _, err = run(["enumerate", "--n-max", "501"], capsys)
        assert code == 2
        assert "budget" in err

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run(
            ["enumerate", "--lambda", "nope", "--n-max", "3"], capsys)
        assert code == 2
        assert "entry multiset" in err

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tag=st.sampled_from(["all", "01", "012", "no1"]),
           n_max=st.integers(min_value=0, max_value=12))
    def test_counts_match_library(self, tag, n_max, capsys):
        code, out, _ = run(
            ["enumerate", "--lambda", tag, "--n-max", str(n_max)], capsys)
        assert code == 0
        series = family_series("fishburn", LambdaSpec(tag), n_max)
        assert out.split() == [str(series.coeff(n)) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# asymptote


class TestAsymptote:
    def test_fishburn_all_prints_zagier_pair(self, capsys):
        code, out, _ = run(["asymptote", "--family", "fishburn"], capsys)
        assert code == 0
        assert "c = 6.77875628359" in out
        assert "rho = 0.223643882503" in out
        assert "regime: 1s allowed" in out
        assert "n^(n + 1" in out

    def test_self_dual_constant(self, capsys):
        code, out, _ = run(["asymptote", "--family", "self-dual"], capsys)
        assert code == 0
        assert "c = 1.36195103905" in out
        assert "rho^(n/2)" in out

    def test_no_ones_beta(self, capsys):
        code, out, _ = run(["asymptote", "--lambda", "no1"], capsys)
        assert code == 0
        with mp.workdps(20):
            beta = mp.nstr(mp.pi / (2 * mp.sqrt(3)), 12)
        assert f"beta = {beta}" in out
        assert "m = 1" in out

    def test_parity_pair_json(self, capsys):
        code, out, _ = run(
            ["asymptote", "--lambda", "0,1,0,1,1", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "fishburn.asymptote/1"
        assert payload["regime"] == "no 1s, smallest odd value 5 (m = 2)"
        assert payload["parity"]["even"]["c"] == "3.3893781418"
        assert payload["parity"]["odd"]["c"] == "10.1124820723"
        assert payload["parity"]["odd"]["n_power"] == "0.5"

    def test_parity_pair_csv_has_two_branches(self, capsys):
        code, out, _ = run(
            ["asymptote", "--lambda", "0,1,0,1,1", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "branch,c,rho,beta,n_power"
        assert lines[1].startswith("even,")
        assert lines[2].startswith("odd,")

    def test_pure_even_hint(self, capsys):
        code, _, err = run(["asymptote", "--lambda", "even+"], capsys)
        assert code == 2
        assert "divide the entries by 2" in err

    def test_no_twos_without_ones(self, capsys):
        code, _, err = run(["asymptote", "--lambda", "0,0,1"], capsys)
        assert code == 2
        assert "value 2" in err

    def test_row_family_needs_ones(self, capsys):
        code, _, err = run(
            ["asymptote", "--family", "row-fishburn", "--lambda", "no1"], capsys)
        assert code == 2
        assert "without 1s" in err

    def test_digits_flag_shortens_output(self, capsys):
        code, out, _ = run(["asymptote", "--digits", "4"], capsys)
        assert code == 0
        assert "c = 6.779" in out


# ---------------------------------------------------------------------------
# converge


class TestConverge:
    def test_ratio_extrapolates_near_one(self, capsys):
        code, out, _ = run(
            ["converge", "--n-list", "60,90,120", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "fishburn.converge/1"
        assert payload["n_values"] == [60, 90, 120]
        assert abs(float(payload["extrapolated_limit"]) - 1) < 1e-3
        assert abs(float(payload["correction_exponent"]) - 1) < 0.2

    def test_table_lists_each_size(self, capsys):
        code, out, _ = run(["converge", "--n-list", "30,60"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("30") for line in lines)
        assert any(line.startswith("extrapolated limit = ") for line in lines)

    def test_two_sizes_report_no_exponent(self, capsys):
        # Two sizes fix the fitted exponent at 1, so none is reported.
        code, out, _ = run(["converge", "--n-list", "30,60"], capsys)
        assert code == 0
        assert "correction exponent" not in out
        code, out, _ = run(["converge", "--n-list", "30,60", "--format", "json"], capsys)
        assert json.loads(out)["correction_exponent"] is None

    def test_half_exponent_family(self, capsys):
        code, out, _ = run(
            ["converge", "--family", "self-dual", "--n-list", "60,90,120",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["half_exponent"] is True
        assert abs(float(payload["extrapolated_limit"]) - 1) < 0.05

    def test_parity_split_takes_single_parity(self, capsys):
        code, out, _ = run(
            ["converge", "--lambda", "0,1,0,1,1", "--n-list", "30,60",
             "--format", "json"], capsys)
        assert code == 0
        ratios = [float(r) for r in json.loads(out)["ratios"]]
        assert all(0.5 < r < 1.5 for r in ratios)

    def test_mixed_parity_rejected(self, capsys):
        code, _, err = run(
            ["converge", "--lambda", "0,1,0,1,1", "--n-list", "30,61"], capsys)
        assert code == 2
        assert "single parity" in err

    def test_needs_two_sizes(self, capsys):
        code, _, err = run(["converge", "--n-list", "50"], capsys)
        assert code == 2
        assert "two distinct sizes" in err

    def test_rejects_garbage_list(self, capsys):
        code, _, err = run(["converge", "--n-list", "a,b"], capsys)
        assert code == 2
        assert "comma list" in err


# ---------------------------------------------------------------------------
# distribution


class TestDistribution:
    def test_first_row_table_row_seven(self, capsys):
        code, out, _ = run(
            ["distribution", "--stat", "first_row", "--n", "7",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value,count,exact_pmf,limit_pmf"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == [217, 380, 270, 110, 30, 6, 1]

    def test_table_header_block(self, capsys):
        code, out, _ = run(
            ["distribution", "--stat", "first_row", "--n", "7"], capsys)
        assert code == 0
        assert "total: 1014" in out
        assert "limit law: X_n -> N(" in out
        assert "217/1014" in out

    def test_json_uses_distribution_schema(self, capsys):
        code, out, _ = run(
            ["distribution", "--family", "row-fishburn", "--stat", "ones",
             "--n", "9", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "fishburn.distribution/1"
        assert payload["law"]["kind"] == "poisson"
        assert "metrics" in payload

    def test_uncovered_law_leaves_limit_column_empty(self, capsys):
        code, out, _ = run(
            ["distribution", "--lambda", "0,0,1,1", "--stat", "first_row",
             "--n", "9", "--format", "csv"], capsys)
        assert code == 0
        body = out.splitlines()[1:]
        assert body and all(line.endswith(",") for line in body)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("family,stat", [
        ("fishburn", "first_row"),
        ("fishburn", "diagonal"),
        ("row-fishburn", "diagonal"),
        ("self-dual", "first_row"),
        ("self-dual", "diagonal"),
    ])
    def test_zero_spread_law_at_size_one(self, family, stat, fmt, capsys):
        # Each cell's law is N(log 1, log 1), a point mass at 0.
        code, out, err = run(
            ["distribution", "--family", family, "--stat", stat, "--n", "1",
             "--format", fmt], capsys)
        assert code == 0, err
        if fmt == "json":
            assert json.loads(out)["law"]["variance"] == "0.0"
        else:
            assert "-> N(0.0, 0.0)" in out

    def test_zero_count_size_is_usage_error(self, capsys):
        code, _, err = run(
            ["distribution", "--lambda", "0,1,0", "--stat", "diagonal",
             "--n", "5"], capsys)
        assert code == 2
        assert "no fishburn matrices" in err

    def test_stat_flag_is_required(self, capsys):
        code, _, err = run(["distribution", "--n", "5"], capsys)
        assert code == 2


# ---------------------------------------------------------------------------
# saddle


class TestSaddle:
    def test_summary_rel_error_is_small(self, capsys):
        code, out, _ = run(["saddle", "--n", "50"], capsys)
        assert code == 0
        rel_line = next(l for l in out.splitlines() if l.startswith("rel_error"))
        assert abs(float(rel_line.split("=")[1])) < 0.01

    def test_csv_summary_columns(self, capsys):
        code, out, _ = run(["saddle", "--n", "40", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "n,a_n,an_approx,rel_error"

    def test_profile_csv_is_window_profile(self, capsys):
        code, out, _ = run(
            ["saddle", "--n", "40", "--profile", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,log_exact,log_approx"
        assert len(lines) > 3

    def test_profile_json(self, capsys):
        code, out, _ = run(
            ["saddle", "--n", "40", "--profile", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "fishburn.saddle/1"
        assert payload["profile_columns"] == ["k", "log_exact", "log_approx"]
        ks = [int(row[0]) for row in payload["profile"]]
        assert ks == sorted(ks)

    def test_small_n_rejected(self, capsys):
        code, _, err = run(["saddle", "--n", "12"], capsys)
        assert code == 2
        assert "n >= 20" in err

    def test_profile_rows_agree_across_formats(self, capsys):
        argv = ["saddle", "--n", "60", "--profile", "--format"]
        _, out, _ = run(argv + ["csv"], capsys)
        csv_rows = [line.split(",") for line in out.splitlines()]
        _, out, _ = run(argv + ["json"], capsys)
        payload = json.loads(out)
        _, out, _ = run(argv + ["table"], capsys)
        table_rows = [line.split() for line in out.split("\n\n", 1)[1].splitlines()]
        assert len(csv_rows) > 3
        assert csv_rows == table_rows == [payload["profile_columns"]] + payload["profile"]


# ---------------------------------------------------------------------------
# verify


def only_full_check(monkeypatch, name):
    """Make `verify --full` run the one named check of checks.FULL."""
    monkeypatch.setattr(checks, "BASE", ())
    monkeypatch.setattr(checks, "FULL", tuple(c for c in checks.FULL if c[0] == name))


class TestVerify:
    def test_offline_verify_passes(self, capsys):
        code, out, _ = run(["verify"], capsys)
        assert code == 0
        assert "0 failures" in out
        for name in ("series-prefixes", "oracle-equivalence", "identity-suite",
                      "triangle-tables", "printed-constants", "limit-moments",
                      "sequence-fixtures"):
            assert f"ok    {name}:" in out

    def test_full_prints_every_saddle_clause(self, capsys, monkeypatch):
        only_full_check(monkeypatch, "saddle-accuracy")
        code, out, _ = run(["verify", "--full"], capsys)
        assert code == 0
        assert "ok    saddle-accuracy: 4 of 4 saddle clauses hold" in out
        assert out.count("pass: ") == 4

    def test_failing_saddle_clause_fails_verify(self, capsys, monkeypatch):
        only_full_check(monkeypatch, "saddle-accuracy")
        monkeypatch.setattr(checks.saddle, "window_tail", lambda n: Fraction(1, 100))
        code, out, _ = run(["verify", "--full"], capsys)
        assert code == 1
        assert "FAIL  saddle-accuracy: 3 of 4 saddle clauses hold" in out
        assert "FAIL: window tail mass <= 1e-3 at n=120" in out
        assert out.count("pass: ") == 3

    def test_violated_bound_fails_the_lemmas(self, capsys, monkeypatch):
        only_full_check(monkeypatch, "saddle-lemmas")
        monkeypatch.setattr(checks.saddle, "check_bounds", lambda samples: BoundReport(
            samples, 0, 1, mp.mpf("1e-6"), mp.mpf("-1e-3")))
        code, out, _ = run(["verify", "--full"], capsys)
        assert code == 1
        assert "FAIL  saddle-lemmas: 3 of 4 lemma clauses hold" in out
        assert "FAIL: modulus bounds hold at 1000 sampled points (1 violations" in out
        assert out.count("pass: ") == 3

    def test_shifted_optimum_fails_the_lemmas(self, capsys, monkeypatch):
        central = checks.saddle.optimum()
        shifted = replace(central, mu=central.mu * (1 + mp.mpf("1e-6")))
        only_full_check(monkeypatch, "saddle-lemmas")
        monkeypatch.setattr(checks.saddle, "optimum", lambda: shifted)
        code, out, _ = run(["verify", "--full"], capsys)
        assert code == 1
        assert "FAIL  saddle-lemmas: 2 of 4 lemma clauses hold" in out
        assert "FAIL: phi_surface(mu) has radius varrho = xi" in out
        assert "FAIL: exp(phi(mu)) = 12/(e*pi^2)" in out

    def test_failing_trend_cell_fails_verify(self, capsys, monkeypatch):
        real_compare = checks.compare

        def compare(dist, law):
            report = real_compare(dist, law)
            if (dist.family, dist.stat) == ("row-fishburn", "twos"):
                # A distance that grows with n: the cell does not tighten.
                return replace(report, sup_distance=mp.mpf(dist.n))
            return report

        only_full_check(monkeypatch, "statistic-trends")
        monkeypatch.setattr(checks, "compare", compare)
        code, out, _ = run(["verify", "--full"], capsys)
        assert code == 1
        assert "FAIL  statistic-trends: row-fishburn/twos[all] sup distance" in out

    def test_failure_flips_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            checks, "BASE",
            (("forced", lambda: (False, "forced failure")),))
        code, out, _ = run(["verify"], capsys)
        assert code == 1
        assert "FAIL" in out
        assert "1 failure" in out

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--digits", "3"]])
    def test_output_flags_are_usage_errors(self, flag, capsys):
        code, out, err = run(["verify"] + flag, capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# plumbing: determinism, output files, config


class TestPlumbing:
    @pytest.mark.parametrize("argv", [
        ["distribution", "--stat", "diagonal", "--n", "12", "--format", "csv"],
        ["asymptote", "--family", "self-dual", "--format", "json"],
        ["converge", "--n-list", "30,60", "--format", "json"],
    ])
    def test_repeated_runs_are_byte_identical(self, argv, capsys, tmp_path):
        paths = [str(tmp_path / f"out_{i}") for i in (0, 1)]
        for path in paths:
            assert main(argv + ["--output", path]) == 0
        first, second = (open(p, "rb").read() for p in paths)
        assert first == second
        assert capsys.readouterr().out == ""

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["enumerate", "--n-max", "6", "--format", "csv"]
        code, out, _ = run(argv, capsys)
        path = tmp_path / "counts.csv"
        assert main(argv + ["--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("argv", [["enumerate", "--n-max", "3"], ["verify"]],
                             ids=["enumerate", "verify"])
    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_output_is_usage_error(self, argv, where, capsys, monkeypatch,
                                              tmp_path):
        monkeypatch.setattr(checks, "BASE", (("quick", lambda: (True, "quick")),))
        path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
        code, out, err = run(argv + ["--output", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("where", ["directory", "missing-parent", "read-only-parent"])
    def test_unwritable_output_is_refused_before_the_work(self, where, capsys, monkeypatch,
                                                          tmp_path):
        # the battery takes seconds; the path is checked before it starts
        path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
        if where == "read-only-parent":  # as root every directory is writable
            path = tmp_path / "out.txt"
            monkeypatch.setattr(cli.os, "access", lambda p, mode: False)
        start = time.perf_counter()
        code, out, err = run(["verify", "--output", str(path)], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == f"error: cannot write {path}: " + {
            "directory": "Is a directory", "missing-parent": "No such file or directory",
            "read-only-parent": "Permission denied"}[where] + "\n"
        assert not path.is_file()

    def test_output_check_leaves_the_file(self, capsys, tmp_path):
        # the order is refused after the path was checked; the file is untouched
        path = tmp_path / "counts.txt"
        path.write_text("kept", encoding="utf-8")
        code, _, err = run(["enumerate", "--n-max", "501", "--output", str(path)], capsys)
        assert code == 2 and "budget" in err
        assert path.read_text(encoding="utf-8") == "kept"

    def test_help_mentions_lambda_grammar(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "entry multisets" in out
        assert "comma list" in out

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fishburn.cli", "enumerate",
             "--n-max", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "1 1 2 5 15\n"

    def test_import_loads_no_network_stack(self):
        # the package reads only its embedded fixtures
        probe = (
            "import sys; before = set(sys.modules); import fishburn.cli; "
            "loaded = set(sys.modules) - before; "
            "print(sorted({'urllib.request', 'http.client'} & loaded))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_config_validation(self, capsys):
        for argv, problem in [
            (["enumerate", "--n-max", "3", "--digits", "99"], "--digits: must be between 2 and 30"),
            (["enumerate", "--n-max", "3", "--format", "yaml"], "--format: invalid choice: 'yaml'"),
            (["converge", "--n-list", "0,5"], "--n-list: sizes must be positive"),
            (["saddle", "--n", "-3"], "n >= 20"),
        ]:
            code, out, err = run(argv, capsys)
            assert code == 2, argv
            assert out == ""
            assert problem in err

    def test_config_defaults(self):
        args = build_parser().parse_args(["enumerate", "--n-max", "3"])
        assert args.fmt == "table"
        assert args.digits == 12
        assert args.entries == ALL
