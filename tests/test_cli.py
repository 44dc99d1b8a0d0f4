"""Command-line surface: flags, config precedence, CSV schemas, exit codes."""

import math
import os
import re
import subprocess
import sys
import time

import pytest

from rabi_spectra import Branch, Parity, cli, converged_levels, derive_params, perturb, polys, squeeze
from rabi_spectra.cli import main
from rabi_spectra.model import ChainSelector


def run_cli(args, tmp_path, config=None, capsys=None):
    """Invoke main() in-process with a controlled config environment."""
    old = os.environ.pop("RABI_SPECTRA_CONFIG", None)
    try:
        if config is not None:
            path = tmp_path / "config.txt"
            path.write_text(config, encoding="utf-8")
            os.environ["RABI_SPECTRA_CONFIG"] = str(path)
        return main(args)
    finally:
        if config is not None:
            del os.environ["RABI_SPECTRA_CONFIG"]
        if old is not None:
            os.environ["RABI_SPECTRA_CONFIG"] = old


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSpectrum:
    def test_zero_delta_closed_form(self, tmp_path, capsys):
        code = run_cli(
            [
                "spectrum", "--g", "0.2", "--delta", "0", "--branch", "plus",
                "--parity", "even", "--levels", "5", "--tol", "1e-10",
            ],
            tmp_path,
        )
        assert code == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["n", "fock_index", "energy", "trusted"]
        omega = math.sqrt(1 - 0.16)
        for k, row in enumerate(rows):
            assert int(row[0]) == k
            assert int(row[1]) == 2 * k
            assert float(row[2]) == pytest.approx(omega * (2 * k + 0.5) - 0.5, abs=1e-8)
            assert row[3] == "1"

    def test_domain_error_exit_2(self, tmp_path, capsys):
        code = run_cli(["spectrum", "--g", "0.6"], tmp_path)
        assert code == 2
        assert "(0, 1/2)" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_exit_2(self, tmp_path, capsys, delta):
        start = time.monotonic()
        code = run_cli(["spectrum", "--delta", delta], tmp_path)
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err
        assert code == 2
        assert "delta" in err and "Traceback" not in err
        assert elapsed < 1.0

    def test_output_idempotent_format(self, tmp_path, capsys):
        args = ["spectrum", "--g", "0.3", "--delta", "1", "--levels", "4", "--tol", "1e-9"]
        assert run_cli(args, tmp_path) == 0
        first = capsys.readouterr().out
        _, rows = parse_csv(first)
        # Re-serializing the parsed floats reproduces the file exactly.
        rebuilt = [
            f"{int(r[0])},{int(r[1])},{format(float(r[2]), '.17g')},{int(r[3])}"
            for r in rows
        ]
        assert rebuilt == first.strip().splitlines()[1:]
        assert [float(r[2]) for r in rows] == sorted(float(r[2]) for r in rows)

    def test_cells_are_17_digit_library_values(self, tmp_path, capsys):
        args = ["spectrum", "--g", "0.45", "--delta", "6", "--branch", "minus",
                "--parity", "odd", "--levels", "40", "--tol", "1e-9"]
        assert run_cli(args, tmp_path) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        chain = ChainSelector(Branch.MINUS, Parity.ODD)
        values = converged_levels(derive_params(0.45, 6.0), chain, 40, 1e-9).values
        assert rows == [
            [str(k), str(2 * k + 1), format(value, ".17g"), "1"] for k, value in enumerate(values)
        ]

    def test_deterministic_across_runs(self, tmp_path, capsys):
        args = ["spectrum", "--g", "0.25", "--delta", "0.7", "--levels", "6"]
        assert run_cli(args, tmp_path) == 0
        first = capsys.readouterr().out
        assert run_cli(args, tmp_path) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run_cli(["spectrum", "--levels", "3", "--out", str(out)], tmp_path)
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert len(rows) == 3

    def test_convergence_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        import rabi_spectra.cli as cli
        from rabi_spectra import ConvergenceError

        def explode(*args, **kwargs):
            raise ConvergenceError("synthetic cap")

        monkeypatch.setattr(cli, "converged_levels", explode)
        assert run_cli(["spectrum", "--levels", "3"], tmp_path) == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_levels_beyond_budget_exit_3_fast(self, tmp_path, capsys):
        start = time.monotonic()
        code = run_cli(["spectrum", "--levels", "1000000"], tmp_path)
        elapsed = time.monotonic() - start
        assert code == 3
        assert "cap" in capsys.readouterr().err
        assert elapsed < 1.0

    # Each would pass the dimension cap with the turning-point start (one
    # chain of 1,020,211 sites at g 0.01) and then run for hours.
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--g", "0.01", "--levels", "800000"],
            ["spectrum", "--levels", "200000"],
            ["residuals", "--n-max", "100000"],
            # The turning point overflows to inf.
            ["spectrum", "--g", "0.4999999999999999", "--delta", "1e295"],
            # The level count does not fit a double.
            ["spectrum", "--levels", "1" + "0" * 400],
            ["residuals", "--n-max", "100000000"],
            # The size has about 300 digits.
            ["spectrum", "--delta", "1e300"],
        ],
        ids=[
            "spectrum-g0.01", "spectrum", "residuals", "spectrum-inf-size",
            "spectrum-levels-1e400", "residuals-1e8", "spectrum-delta-1e300",
        ],
    )
    def test_work_budget_exit_3_fast(self, tmp_path, monkeypatch, capsys, argv):
        import rabi_spectra.eigensolve as eigensolve

        def refuse(*args, **kwargs):
            raise AssertionError("a chain was built before the budget check")

        monkeypatch.setattr(eigensolve, "build_chain", refuse)
        start = time.monotonic()
        code = run_cli(argv, tmp_path)
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err
        assert code == 3
        assert "sites x levels" in err and "Traceback" not in err
        assert err.count("\n") == 1 and len(err) < 200, err
        assert elapsed < 1.0

    def test_tol_below_floor_exit_2(self, tmp_path, capsys):
        code = run_cli(["spectrum", "--levels", "5", "--tol", "1e-300"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert "floor" in err and "Traceback" not in err

    def test_zero_levels_exit_2(self, tmp_path, capsys):
        assert run_cli(["spectrum", "--levels", "0"], tmp_path) == 2
        assert "--levels" in capsys.readouterr().err

    # From tol 8.99e307 on, the start brackets mu -+ (|Delta|/2 + tol) are
    # wider than the largest double.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["spectrum", "residuals"])
    def test_tol_with_overflowing_brackets_exit_2(self, tmp_path, capsys, command):
        code = run_cli([command, "--tol", "1.7e308"], tmp_path)
        out, err = capsys.readouterr()
        assert code == 2, err
        assert out == ""
        assert "tol=1.7e+308" in err and "Traceback" not in err

    def test_tol_below_large_delta_floor_exit_2_fast(self, tmp_path, capsys):
        # The floor 8 eps max(1, |Gershgorin ends|) of the chain, about 1.1e-12
        # here (its top end is near 640), rejects a tol that the bound could
        # not be shown to meet.
        start = time.monotonic()
        code = run_cli(
            ["spectrum", "--g", "0.2", "--delta", "-300", "--levels", "1", "--tol", "2.67e-13"],
            tmp_path,
        )
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err
        assert code == 2, err
        assert "floor 1.137e-12" in err and "Traceback" not in err
        assert elapsed < 2.0


class TestResiduals:
    def test_zero_delta_and_column_arithmetic(self, tmp_path, capsys):
        tol = 1e-9
        code = run_cli(
            [
                "residuals", "--g", "0.2", "--delta", "0", "--branch", "plus",
                "--n-min", "10", "--n-max", "30", "--tol", str(tol),
            ],
            tmp_path,
        )
        assert code == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == [
            "n", "numeric", "linear", "shift", "oscillatory", "three_term",
            "residual", "res_n_over_logn", "res_n",
        ]
        assert [int(r[0]) for r in rows] == list(range(10, 31))
        for r in rows:
            assert abs(float(r[6])) < 10 * tol
            # 17-significant-digit round trip keeps the sum identity exact.
            assert float(r[5]) == float(r[2]) + float(r[3]) + float(r[4])

    @pytest.mark.parametrize("delta", ["0", "-3"])
    def test_cells_are_17_digit_library_values(self, delta, tmp_path, capsys):
        args = ["residuals", "--g", "0.45", "--delta", delta, "--branch", "minus",
                "--n-min", "11", "--n-max", "60", "--tol", "1e-8"]
        assert run_cli(args, tmp_path) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        study = perturb.residual_study(
            derive_params(0.45, float(delta)), Branch.MINUS, 11, 60, 1e-8
        )
        assert len(rows) == len(study)
        for row, b in zip(rows, study):
            fields = (b.numeric, b.linear, b.shift, b.oscillatory, b.three_term,
                      b.residual, b.res_n_over_log_n, b.res_times_n)
            assert row == [str(b.n)] + [format(field, ".17g") for field in fields]
        if delta == "0":
            # The oscillatory column is a signed zero, printed as such.
            assert {row[4] for row in rows} == {"0", "-0"}

    def test_single_parity_range(self, tmp_path, capsys):
        assert run_cli(["residuals", "--n-min", "11", "--n-max", "11"], tmp_path) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [r[0] for r in rows] == ["11"]

    def test_branch_oscillatory_sign(self, tmp_path, capsys):
        rows = {}
        for branch in ("plus", "minus"):
            code = run_cli(
                [
                    "residuals", "--g", "0.2", "--delta", "1", "--branch", branch,
                    "--n-min", "12", "--n-max", "16", "--tol", "1e-8",
                ],
                tmp_path,
            )
            assert code == 0
            rows[branch] = parse_csv(capsys.readouterr().out)[1]
        for plus_row, minus_row in zip(rows["plus"], rows["minus"]):
            assert float(plus_row[4]) == -float(minus_row[4])


class TestVerify:
    def test_full_suite_passes(self, tmp_path, capsys):
        code = run_cli(
            ["verify", "--g", "0.2", "--delta", "1", "--dim", "256", "--suite", "all"],
            tmp_path,
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out and "FAIL" not in out

    def test_warm_cache_rerun_is_identical(self, tmp_path, capsys):
        squeeze._oracle_cached.cache_clear()
        argv = ["verify", "--suite", "all", "--g", "0.45", "--dim", "256"]
        outs = []
        for _ in range(2):
            assert run_cli(argv, tmp_path) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("g", ["0.2", "0.45"])
    def test_row_vs_closed_form_passes(self, tmp_path, capsys, g):
        code = run_cli(["verify", "--g", g, "--dim", "256", "--suite", "perturb"], tmp_path)
        out = capsys.readouterr().out
        assert code == 0, out
        assert re.search(r"^v_tilde_row_vs_closed_form: \S+ < 1\.0e-10 PASS$", out, re.M), out

    def test_rows_reach_past_the_turning_point_near_half(self, tmp_path, capsys):
        # At the fixed cutoff 2000, row 25 ended before its outer turning point
        # (about 99 n in Fock index here) and row_sum_identity read 8.3e-2.
        code = run_cli(["verify", "--g", "0.49", "--suite", "perturb"], tmp_path)
        out = capsys.readouterr().out
        assert code == 0, out
        assert re.search(r"^row_sum_identity: \S+ < 1\.0e-08 PASS$", out, re.M), out

    @pytest.mark.parametrize("g", ["0.2", "0.45"])
    def test_rows_keep_cutoff_2000_below_the_edge(self, tmp_path, monkeypatch, capsys, g):
        cutoffs = []
        row = perturb.v_tilde_row

        def recording(params, n, cutoff):
            cutoffs.append(cutoff)
            return row(params, n, cutoff)

        monkeypatch.setattr(perturb, "v_tilde_row", recording)
        assert run_cli(["verify", "--g", g, "--suite", "perturb"], tmp_path) == 0
        assert cutoffs == [2000, 2000, 2000]

    # Warnings are errors here: an inf or nan residual must show as a FAIL
    # line, not as a numpy warning or a traceback.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g", ["1e-300", "1e-3", "0.02"])
    def test_small_coupling_reports_every_check(self, tmp_path, capsys, g):
        code = run_cli(["verify", "--suite", "all", "--g", g], tmp_path)
        out, err = capsys.readouterr()
        assert code in (0, 1), err
        assert len(re.findall(r"^\w+: \S+ < \S+ (?:PASS|FAIL)$", out, re.M)) == 10, out
        assert not re.search(r"(?:inf|nan) < \S+ PASS", out), out
        assert err == ""

    def test_check_names_pinned(self, tmp_path, capsys):
        assert run_cli(["verify", "--suite", "all"], tmp_path) == 0
        names = re.findall(r"^(\w+): \S+ < \S+ PASS$", capsys.readouterr().out, re.M)
        assert names == [
            "factorization_residual",
            "h0_transform_residual",
            "uvu_residual",
            "oracle_orthogonality",
            "p_fast_vs_hyper_f_rel",
            "asym_decay_inverse_ratio_even",
            "asym_decay_inverse_ratio_odd",
            "row_sum_identity",
            "v_tilde_row_vs_closed_form",
            "diag_asym_scaled_residual",
        ]

    # The H0 check failed here at 6.1e-5, 6.1e-5 and 1.7e-6 on a block of its own.
    @pytest.mark.parametrize("g, dim", [("0.45", "64"), ("0.45", "63"), ("0.47", "128")])
    def test_squeeze_suite_passes_at_small_truncation(self, tmp_path, capsys, g, dim):
        code = run_cli(["verify", "--suite", "squeeze", "--g", g, "--dim", dim], tmp_path)
        out = capsys.readouterr().out
        assert code == 0, out
        assert re.search(r"^h0_transform_residual: \S+ < 1\.0e-06 PASS$", out, re.M), out

    @pytest.mark.filterwarnings("error")
    def test_huge_delta_exit_1(self, tmp_path, capsys):
        # The row sums overflow to inf, so their residual is nan: it must FAIL.
        code = run_cli(["verify", "--delta", "1e200"], tmp_path)
        out, err = capsys.readouterr()
        assert code == 1, err
        assert re.search(r"^row_sum_identity: nan < \S+ FAIL$", out, re.M), out
        assert not re.search(r"(?:inf|nan) < \S+ PASS", out), out
        assert err == ""

    def test_domain_error(self, tmp_path, capsys):
        assert run_cli(["verify", "--g", "0.0"], tmp_path) == 2
        assert "(0, 1/2)" in capsys.readouterr().err

    # Below 17/max (about 9.5e-308) the V~ rows of the perturb suite overflow.
    @pytest.mark.parametrize("g", ["5e-324", "2.7e-309", "5.5e-309", "5.6e-309", "9.45e-308"])
    def test_tiny_coupling_exit_2(self, tmp_path, capsys, g):
        assert run_cli(["verify", "--g", g], tmp_path) == 2
        err = capsys.readouterr().err
        assert "--g" in err and "9.5e-308" in err, err

    @pytest.mark.filterwarnings("error")
    def test_tiny_coupling_rows_pass(self, tmp_path, capsys):
        # Single recurrence steps overflow here and are redone after a rescale.
        run_cli(["verify", "--g", "1e-300", "--suite", "perturb"], tmp_path)
        out = capsys.readouterr().out
        assert re.search(r"^row_sum_identity: \S+ < \S+ PASS$", out, re.M), out
        assert re.search(r"^v_tilde_row_vs_closed_form: \S+ < \S+ PASS$", out, re.M), out

    def test_dim_guard(self, tmp_path, capsys):
        assert run_cli(["verify", "--dim", "1024"], tmp_path) == 2

    def test_squeeze_suite_small_dim(self, tmp_path, capsys):
        code = run_cli(
            ["verify", "--g", "0.3", "--delta", "0.5", "--dim", "64", "--suite", "squeeze"],
            tmp_path,
        )
        assert code == 0, capsys.readouterr().out

    def test_factorization_bound_covers_whole_block(self, tmp_path, monkeypatch, capsys):
        # An error of 1e-8 at (100, 98), past the first 64 rows of the block:
        # the 1e-9 bound holds on the whole 128x128 block, so it must FAIL.
        # The block and the scalar elements share one assembly, so the error
        # goes in there.
        assemble = squeeze._assemble

        def perturbed(m, n, t, c, parts):
            return assemble(m, n, t, c, parts) + (1e-8 if (m, n) == (100, 98) else 0.0)

        monkeypatch.setattr(squeeze, "_assemble", perturbed)
        code = run_cli(["verify", "--suite", "squeeze", "--g", "0.2", "--dim", "512"], tmp_path)
        out = capsys.readouterr().out
        assert code == 1, out
        assert re.search(r"^factorization_residual: \S+ < 1\.0e-09 FAIL$", out, re.M), out
        # The passing residual closest to the bound, 3.7e-10.
        assert run_cli(["verify", "--suite", "squeeze", "--g", "0.45", "--dim", "64"], tmp_path) == 0
        out = capsys.readouterr().out
        assert re.search(r"^factorization_residual: 3\.7\d+e-10 < 1\.0e-09 PASS$", out, re.M), out


class TestPoly:
    def test_constant_pair(self, tmp_path, capsys):
        code = run_cli(
            ["poly", "--n", "0", "--m", "0", "--x-min", "0.5", "--x-max", "1.5", "--points", "3"],
            tmp_path,
        )
        assert code == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["x", "p_exact", "p_fast", "p_asym", "envelope"]
        for r in rows:
            assert float(r[1]) == 1.0
            assert float(r[2]) == pytest.approx(1.0, rel=1e-14)

    def test_cells_overflow_with_their_sign_past_the_double_range(self, tmp_path, capsys):
        # P_300(20) is about -1e479: p_exact printed inf where p_fast printed -inf.
        argv = ["poly", "--n", "300", "--m", "300", "--x-min", "20", "--x-max", "20", "--points", "1"]
        assert run_cli(argv, tmp_path) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows == [["20", "-inf", "-inf", "-inf", "inf"]]

    # The exact cell divides the exact sum's integers without reducing them;
    # it must print what the reduced fraction rounds to, inf and 0 included.
    @pytest.mark.parametrize(
        "n,m,x_min,x_max,special",
        [(0, 0, "0.5", "1.5", None), (63, 67, "-3", "3", None), (300, 300, "1e-300", "1e-299", None),
         (301, 303, "-1e300", "-1e299", "-inf"), (301, 303, "1e299", "1e300", "inf"),
         (3, 3, "-1e-320", "1e-320", "0")],
    )
    def test_exact_cells_equal_the_rounded_fraction(self, tmp_path, capsys, n, m, x_min, x_max, special):
        argv = ["poly", "--n", str(n), "--m", str(m), f"--x-min={x_min}", f"--x-max={x_max}", "--points", "5"]
        assert run_cli(argv, tmp_path) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        for r in rows:
            exact = polys.p_exact(n, (m - n) // 2, float(r[0]))
            try:
                expected = float(exact)
            except OverflowError:
                expected = -math.inf if exact < 0 else math.inf
            assert r[1] == cli._fmt(expected)
        assert special is None or special in [r[1] for r in rows]

    def test_cells_below_the_double_max_stay_finite(self, tmp_path, capsys):
        # P_134(100) = 1.31e308 is a double: every column printed inf, since
        # both the exact and the log routes cut at 1e308 and e^709.
        argv = ["poly", "--n", "134", "--m", "134", "--x-min", "100", "--x-max", "100",
                "--points", "1"]
        assert run_cli(argv, tmp_path) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        exact, fast, asym, env = map(float, rows[0][1:])
        assert rows[0][1] == "1.3075897881908275e+308"
        assert fast == pytest.approx(exact, rel=1e-12)
        assert math.isfinite(asym) and math.isfinite(env)

    def test_parity_mismatch_exit_2(self, tmp_path):
        assert run_cli(["poly", "--n", "3", "--m", "4"], tmp_path) == 2

    def test_order_exit_2(self, tmp_path, capsys):
        assert run_cli(["poly", "--n", "5", "--m", "3"], tmp_path) == 2
        assert "n <= m" in capsys.readouterr().err

    def test_outside_asymptotic_domain_leaves_cells_empty(self, tmp_path, capsys):
        argv = ["poly", "--n", "2", "--m", "40", "--x-min", "3", "--x-max", "3", "--points", "1"]
        assert run_cli(argv, tmp_path) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0][3:] == ["", ""]

    def test_degree_beyond_budget_exit_2(self, tmp_path, capsys):
        start = time.monotonic()
        code = run_cli(
            ["poly", "--n", "400000", "--m", "400000", "--x-min", "2.29", "--x-max", "2.29",
             "--points", "1"],
            tmp_path,
        )
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err
        assert code == 2
        assert "100000" in err and "Traceback" not in err
        assert elapsed < 1.0

    def test_huge_degree_message_is_short(self, tmp_path, capsys):
        # A 400-digit degree: the budget message gives it to 3 significant
        # digits, past the double range too, instead of echoing every digit.
        huge = "1" + "0" * 400
        code = run_cli(["poly", "--n", huge, "--m", huge], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert "100000" in err and "Traceback" not in err
        assert err.count("\n") == 1 and len(err) < 200, err

    def test_degree_1000_table_completes(self):
        # A subprocess with a timeout, so that a hang fails instead of
        # stalling the suite.
        result = subprocess.run(
            [sys.executable, "-m", "rabi_spectra", "poly", "--n", "1000", "--m", "1004",
             "--x-min", "0.6", "--x-max", "2.2", "--points", "41"],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.strip().splitlines()) == 42

    def test_points_beyond_budget_exit_2(self, tmp_path, capsys):
        start = time.monotonic()
        code = run_cli(["poly", "--n", "2", "--m", "2", "--points", str(10**12)], tmp_path)
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err
        assert code == 2
        assert "--points" in err and "Traceback" not in err
        assert elapsed < 1.0

    # Warnings are errors here: an overflowing width warned inside linspace.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bounds", [("1", "inf"), ("nan", "1"), ("-inf", "inf"), ("-1e308", "1e308")]
    )
    def test_non_finite_range_exit_2(self, tmp_path, capsys, bounds):
        code = run_cli(
            ["poly", "--n", "500", "--m", "500", f"--x-min={bounds[0]}", f"--x-max={bounds[1]}",
             "--points", "2"],
            tmp_path,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "finite" in err and "Traceback" not in err

    def test_malformed_range_exit_2(self, tmp_path):
        assert run_cli(["poly", "--n", "2", "--m", "2", "--x-min", "3", "--x-max", "1"], tmp_path) == 2

    def test_asymptotics_columns(self, tmp_path, capsys):
        code = run_cli(
            ["poly", "--n", "40", "--m", "44", "--x-min", "1.0", "--x-max", "2.0", "--points", "5"],
            tmp_path,
        )
        assert code == 0
        _, rows = parse_csv(capsys.readouterr().out)
        for r in rows:
            exact, fast, asym, env = map(float, r[1:])
            assert fast == pytest.approx(exact, rel=1e-9)
            assert env > 0
            # Within the asymptotic regime the envelope dominates the error.
            assert abs(asym - exact) < 0.3 * env

    def test_degree_100_normalized_residual(self, tmp_path, capsys):
        code = run_cli(
            ["poly", "--n", "100", "--m", "100", "--x-min", "0.5", "--x-max", "3.0",
             "--points", "26"],
            tmp_path,
        )
        assert code == 0
        _, rows = parse_csv(capsys.readouterr().out)
        # Frozen regression threshold for the envelope-normalized deviation
        # between the fast and asymptotic columns at this size.
        worst = max(abs(float(r[2]) - float(r[3])) / float(r[4]) for r in rows)
        assert worst < 0.02


class TestConfigPrecedence:
    def test_config_overrides_default(self, tmp_path, capsys):
        config = "g=0.25\ndelta=0\nlevels=2\ntol=1e-9\n"
        assert run_cli(["spectrum"], tmp_path, config=config) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        omega = math.sqrt(1 - 4 * 0.25**2)
        assert len(rows) == 2
        assert float(rows[0][2]) == pytest.approx(omega * 0.5 - 0.5, abs=1e-8)

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = "levels=2\ndelta=0\ng=0.25\n"
        assert run_cli(["spectrum", "--levels", "4"], tmp_path, config=config) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 4

    def test_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        config = "# two levels\n\n  \nlevels=2\n"
        assert run_cli(["spectrum"], tmp_path, config=config) == 0
        assert len(parse_csv(capsys.readouterr().out)[1]) == 2

    def test_line_without_equals_exit_2(self, tmp_path, capsys):
        assert run_cli(["spectrum"], tmp_path, config="levels 2\n") == 2
        assert "malformed config line" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        old = os.environ.pop("RABI_SPECTRA_CONFIG", None)
        os.environ["RABI_SPECTRA_CONFIG"] = str(tmp_path / "absent.txt")
        try:
            assert main(["spectrum", "--levels", "2"]) == 2
        finally:
            del os.environ["RABI_SPECTRA_CONFIG"]
            if old is not None:
                os.environ["RABI_SPECTRA_CONFIG"] = old


def exit_code(args, tmp_path, config=None):
    """Exit code of main(), including argparse's SystemExit on a bad flag."""
    try:
        return run_cli(args, tmp_path, config=config)
    except SystemExit as exc:
        return exc.code


TABLE_PAIRS = [(command, key) for command, (_, _, options) in cli._TABLE.items() for key in options]


def good_text(key, default):
    choices = cli._CHOICES.get(key)
    if choices is not None:
        return next(choice for choice in choices if choice != default)
    return {float: "0.125", int: "7", str: "table.csv"}[type(default)]


def bad_text(key, tmp_path):
    unwritable = str(tmp_path / "missing" / "x.csv")
    return {"branch": "up", "parity": "x", "suite": "foo", "out": unwritable}.get(key, "abc")


class TestOptionTable:
    @pytest.mark.parametrize("command, key", TABLE_PAIRS)
    def test_config_parsed_and_checked_like_flag(self, tmp_path, capsys, command, key):
        default = cli._TABLE[command][2][key]
        flag = "--" + key.replace("_", "-")
        text = good_text(key, default)
        parser = cli._build_parser()
        via_flag = cli._resolve(parser.parse_args([command, flag, text]), {})
        config = tmp_path / "config.txt"
        config.write_text(f"{key}={text}\n", encoding="utf-8")
        via_config = cli._resolve(parser.parse_args([command]), cli._load_config(str(config)))
        assert via_config == via_flag
        assert via_flag[key] != default

        bad = bad_text(key, tmp_path)
        for args, cfg in (([command, flag, bad], None), ([command], f"{key}={bad}\n")):
            start = time.monotonic()
            code = exit_code(args, tmp_path, config=cfg)
            elapsed = time.monotonic() - start
            err = capsys.readouterr().err
            assert code == 2, (args, cfg)
            assert "error:" in err and "Traceback" not in err
            assert bad in err
            assert elapsed < 1.0

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        assert run_cli(["spectrum", "--levels", "2"], tmp_path, config="colour=red\n") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "colour" in err

    def test_key_of_another_subcommand_accepted(self, tmp_path, capsys):
        config = "n_min=10\nsuite=polys\nlevels=2\n"
        assert run_cli(["spectrum"], tmp_path, config=config) == 0
        assert len(parse_csv(capsys.readouterr().out)[1]) == 2


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "rabi_spectra", "spectrum", "--levels", "2",
             "--g", "0.2", "--delta", "0"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("n,fock_index,energy,trusted")

    def test_usage_error_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "rabi_spectra", "spectrum", "--branch", "sideways"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2

    def test_import_leaves_out_mpmath(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, rabi_spectra; sys.exit('mpmath' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
