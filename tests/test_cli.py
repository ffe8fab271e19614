import ast
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import uncbound
import uncbound.cli as cli
from uncbound.bounds import purity_bound
from uncbound.closed_forms import asymptotic_C
from uncbound.purity import PurityOrder, Spectrum
from uncbound.solvers import SolverError
from uncbound.spectrum_bound import bound_from_spectrum, read_spectrum_file


@pytest.fixture()
def runner():
    return CliRunner()


def combined(result):
    stderr = ""
    try:
        stderr = result.stderr
    except (AttributeError, ValueError):
        pass
    return result.output + stderr


def package_env():
    """Environment for a child interpreter that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        piece for piece in (src, env.get("PYTHONPATH")) if piece
    )
    return env


def csv_rows(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBoundCommands:
    def test_purity_asymptotic_volume(self, runner):
        result = runner.invoke(cli.main, [
            "bound", "purity", "--n", "1", "--r", "2", "--mu", "1e-6",
            "--method", "asymptotic",
        ])
        assert result.exit_code == 0
        row = csv_rows(result.output)[0]
        assert float(row["volume"]) == pytest.approx(8.0 / 9.0 * 1e6, rel=1e-12)

    def test_purity_exact_and_interpolated(self, runner):
        exact = runner.invoke(cli.main, [
            "bound", "purity", "--n", "1", "--r", "2", "--mu", "0.5",
        ])
        interp = runner.invoke(cli.main, [
            "bound", "purity", "--n", "1", "--r", "2", "--mu", "0.5",
            "--method", "interpolated",
        ])
        assert exact.exit_code == 0 and interp.exit_code == 0
        v_exact = float(csv_rows(exact.output)[0]["value"])
        v_interp = float(csv_rows(interp.output)[0]["value"])
        assert v_exact == pytest.approx(v_interp, rel=0.025)

    def test_interpolated_requires_r2(self, runner):
        result = runner.invoke(cli.main, [
            "bound", "purity", "--n", "1", "--r", "3", "--mu", "0.5",
            "--method", "interpolated",
        ])
        assert result.exit_code == 2

    def test_entropy_zero(self, runner):
        result = runner.invoke(cli.main, ["bound", "entropy", "--n", "2", "--S", "0"])
        assert result.exit_code == 0
        assert float(csv_rows(result.output)[0]["value"]) == 1.0

    def test_entropy_asymptotic_volume(self, runner):
        result = runner.invoke(cli.main, [
            "bound", "entropy", "--n", "3", "--S", "30", "--asymptotic",
        ])
        row = csv_rows(result.output)[0]
        assert float(row["volume"]) == pytest.approx(
            math.exp(30.0) * (2.0 / math.e) ** 3, rel=1e-10
        )

    def test_domain_error_exit_code(self, runner):
        result = runner.invoke(cli.main, [
            "bound", "purity", "--n", "1", "--r", "0.5", "--mu", "0.5",
        ])
        assert result.exit_code == 2
        assert "error" in combined(result)

    @pytest.mark.parametrize("args", [
        ["--n", "1", "--S", "720"],
        ["--n", "1", "--S", "745"],
        ["--n", "1", "--S", "760"],
        ["--n", "0", "--S", "1", "--asymptotic"],
        ["--n", "1", "--S", "800", "--asymptotic"],
        ["--n", "1", "--S", "inf"],
        ["--n", "2", "--S", "nan"],
    ])
    def test_entropy_out_of_float_range_is_domain_error(self, runner, args):
        result = runner.invoke(cli.main, ["bound", "entropy"] + args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in combined(result)
        assert "error" in combined(result)

    @pytest.mark.parametrize("n, entropy, volume_is_inf", [
        ("1", "709", False),
        ("10", "1000", True),
    ])
    def test_entropy_near_float_range(self, runner, n, entropy, volume_is_inf):
        result = runner.invoke(cli.main, ["bound", "entropy", "--n", n,
                                          "--S", entropy])
        assert result.exit_code == 0
        assert "Traceback" not in combined(result)
        row = csv_rows(result.output)[0]
        value = float(row["value"])
        assert math.isfinite(value) and value >= 1.0
        assert math.isinf(float(row["volume"])) == volume_is_inf

    def test_solver_failure_exit_code(self, runner, monkeypatch):
        def explode(*args, **kwargs):
            raise SolverError("forced failure")

        monkeypatch.setattr("uncbound.bounds.purity_bound", explode)
        result = runner.invoke(cli.main, [
            "bound", "purity", "--n", "1", "--r", "2", "--mu", "0.5",
        ])
        assert result.exit_code == 3


class TestSpectrumIngestion:
    def write(self, tmp_path, text):
        path = tmp_path / "spectrum.txt"
        path.write_text(text)
        return str(path)

    def test_pure_state_file(self, runner, tmp_path):
        path = self.write(tmp_path, "# pure\n1.0\n")
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "2",
                                          "--input", path])
        assert result.exit_code == 0
        assert float(csv_rows(result.output)[0]["value"]) == 1.0

    def test_round_trip_matches_library(self, runner, tmp_path):
        values = [0.5, 0.25, 0.125, 0.125]
        path = self.write(tmp_path, "\n".join(str(v) for v in values))
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "2",
                                          "--input", path])
        reported = float(csv_rows(result.output)[0]["value"])
        direct = bound_from_spectrum(Spectrum(np.array(values)), 2)
        assert reported == direct.per_dim_product

    def test_normalizes_small_drift(self, runner, tmp_path):
        path = self.write(tmp_path, "0.6000001\n0.4\n")
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                          "--input", path])
        assert result.exit_code == 0

    def test_rejects_large_drift(self, runner, tmp_path):
        path = self.write(tmp_path, "0.7\n0.4\n")
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                          "--input", path])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text, message", [
        ("0.5\n0.4\n", "eigenvalues sum to 0.9; refusing to normalize anything "
                        "further than 1e-6 from 1"),
        ("0.5\nnan\n", "non-finite eigenvalues present"),
        ("0.5\ninf\n", "non-finite eigenvalues present"),
        ("1.1\n-0.1\n", "negative eigenvalues present"),
    ])
    def test_rejection_message(self, runner, tmp_path, text, message):
        path = self.write(tmp_path, text)
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                          "--input", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {path}: {message}\n"

    def test_rejects_garbage(self, runner, tmp_path):
        path = self.write(tmp_path, "0.5\npotato\n")
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                          "--input", path])
        assert result.exit_code == 2

    def test_rejects_empty(self, runner, tmp_path):
        for text in ("# nothing\n", "# a\n\n   \n# b 0.5\n", ""):
            path = self.write(tmp_path, text)
            result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                              "--input", path])
            assert result.exit_code == 2
            assert "no eigenvalues found" in combined(result)

    def mixed_format_file(self, tmp_path):
        """A seeded spectrum written in many number formats, with the
        comments, blank lines, padding and CRLF endings a file may carry.
        Returns the path and its lines."""
        rng = np.random.default_rng(2004)
        values = np.exp(-np.cumsum(rng.uniform(0.01, 0.05, 400)))
        values = (values / values.sum()).tolist() + [1e-310, 2.5e-320, 5e-324]
        formats = [repr, "{:.6e}".format, "+{!r}".format, "{:+.12E}".format,
                   "{:.17g}".format, "{:.25f}".format]
        lines = ["# mixed-format eigenvalues"]
        for i, value in enumerate(values):
            # "%.25f" would write the subnormals as 0
            choices = formats if value > 1e-300 else formats[:4]
            text = choices[int(rng.integers(len(choices)))](value)
            pad = int(rng.integers(3))
            lines.append(" " * pad + text + "\t" * (2 - pad))
            if i % 37 == 0:
                lines.append("")
            if i % 53 == 0:
                lines.append("# note " + str(i))
        path = tmp_path / "mixed.txt"
        path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        return str(path), lines

    @staticmethod
    def float_loop(lines):
        parsed = [float(line) for line in map(str.strip, lines)
                  if line and not line.startswith("#")]
        array = np.array(parsed)
        return array / array.sum()

    def test_mixed_formats_parse_as_float(self, tmp_path):
        path, lines = self.mixed_format_file(tmp_path)
        spectrum = read_spectrum_file(path)
        expected = self.float_loop(lines)
        assert np.count_nonzero((expected > 0.0) & (expected < 1e-300)) == 3
        assert np.array_equal(spectrum.eigenvalues, expected)

    def test_mixed_formats_cli_value_is_exact(self, runner, tmp_path):
        path, lines = self.mixed_format_file(tmp_path)
        for n in (1, 3):
            result = runner.invoke(cli.main, ["bound", "spectrum", "--n", str(n),
                                              "--input", path])
            assert result.exit_code == 0
            direct = bound_from_spectrum(Spectrum(self.float_loop(lines)), n)
            assert (csv_rows(result.output)[0]["value"]
                    == f"{direct.per_dim_product:.17g}")

    @pytest.mark.parametrize("text, line", [
        ("0.5 0.5\n", 1),
        ("0.5\n\n# two columns\n0.25 0.25\n", 4),
        ("# header\n0.5\n\n# mid\n0.25\npotato\n0.25\n", 6),
        ("0.5\n# python-only literal\n1_0\n", 3),
    ])
    def test_rejects_bad_line_with_its_file_line(self, runner, tmp_path, text, line):
        path = self.write(tmp_path, text)
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                          "--input", path])
        assert result.exit_code == 2
        assert f"{path}:{line}:" in combined(result)

    @pytest.mark.parametrize("data, line", [
        (b"\xe90.25\n0.25\n0.25\n0.25\n", 1),
        (b"0.25\n0.25\n0.25\n\xe90.25\n", 4),
        (b"0.5\n# caf\xc3\xa9\n0.25\n# \xff\n0.25\n", 4),
    ], ids=["first-line", "later-line", "in-a-comment"])
    def test_rejects_bytes_that_are_not_utf8_with_their_file_line(self, runner, tmp_path,
                                                                  data, line):
        path = tmp_path / "spectrum.txt"
        path.write_bytes(data)
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                          "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {path}:{line}: 'utf-8' codec can't decode byte")

    @pytest.mark.parametrize("text, message", [
        ("0.5\n\n# two columns\n0.25 0.25\n",
         ":4: '0.25 0.25' holds 2 numbers; expected one eigenvalue per line"),
        ("# header\n0.5\npotato\n0.5\n", ":3: 'potato' is not a number"),
        ("0.5\n0.4\n", ": eigenvalues sum to 0.9; refusing to normalize anything "
                       "further than 1e-6 from 1"),
    ])
    def test_library_reader_raises_what_the_cli_prints(self, runner, tmp_path, text,
                                                       message):
        # the library function is the command's reader: its ValueError is the
        # command's error line
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError) as raised:
            uncbound.read_spectrum_file(path)
        assert str(raised.value) == f"{path}{message}"
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                          "--input", path])
        assert result.exit_code == 2
        assert result.stderr == f"error: {raised.value}\n"

    def test_trailing_comment_on_data_line(self, runner, tmp_path):
        path = self.write(tmp_path, "0.5 # note\n0.5\t# another\n")
        result = runner.invoke(cli.main, ["bound", "spectrum", "--n", "1",
                                          "--input", path])
        assert result.exit_code == 0
        direct = bound_from_spectrum(Spectrum(np.array([0.5, 0.5])), 1)
        assert float(csv_rows(result.output)[0]["value"]) == direct.per_dim_product


class TestCurve:
    def test_row_count_and_ordering(self, runner):
        result = runner.invoke(cli.main, [
            "curve", "--quantity", "asymptotic-c", "--n", "1,2,3",
            "--r", "1:100:200:log",
        ])
        assert result.exit_code == 0
        rows = csv_rows(result.output)
        assert len(rows) == 600
        dims = [int(row["n"]) for row in rows]
        assert dims == sorted(dims)
        for n in (1, 2, 3):
            rs = [float(row["r"]) for row in rows if int(row["n"]) == n]
            assert rs == sorted(rs)

    def test_known_value_on_grid(self, runner):
        result = runner.invoke(cli.main, [
            "curve", "--quantity", "asymptotic-c", "--n", "1", "--r", "1:4:4",
        ])
        rows = csv_rows(result.output)
        by_r = {float(row["r"]): float(row["value"]) for row in rows}
        assert by_r[2.0] == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_large_r_trend(self, runner):
        result = runner.invoke(cli.main, [
            "curve", "--quantity", "asymptotic-c", "--n", "1", "--r",
            "1:100:200:log",
        ])
        last = csv_rows(result.output)[-1]
        assert float(last["value"]) == pytest.approx(2.0 / math.e, rel=0.005)

    def test_csv_json_equivalence(self, runner):
        args = ["curve", "--quantity", "asymptotic-c", "--n", "2", "--r",
                "1:10:7:log"]
        as_csv = runner.invoke(cli.main, args)
        as_json = runner.invoke(cli.main, args + ["--format", "json"])
        rows = csv_rows(as_csv.output)
        objects = json.loads(as_json.output)
        assert len(rows) == len(objects)
        for row, obj in zip(rows, objects):
            assert float(row["value"]) == obj["value"]
            assert float(row["r"]) == obj["r"]

    def test_deterministic_output(self, runner):
        args = ["curve", "--quantity", "interpolated-r2", "--n", "1,2",
                "--mu", "0.001:1:9:log"]
        first = runner.invoke(cli.main, args)
        second = runner.invoke(cli.main, args)
        assert first.output == second.output

    def test_jobs_option_is_gone(self, runner):
        result = runner.invoke(cli.main, [
            "curve", "--quantity", "entropy-bound", "--n", "1", "--S", "0.5:12:6",
            "--jobs", "2",
        ])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--jobs" in result.stderr

    def test_purity_bound_needs_exactly_one_sweep(self, runner):
        result = runner.invoke(cli.main, [
            "curve", "--quantity", "purity-bound", "--n", "1",
            "--r", "1.5:3:4", "--mu", "0.01:0.5:4",
        ])
        assert result.exit_code == 2

    def test_bad_range_grammar(self, runner):
        for bad in ("1:2", "2:1:5", "1:2:1", "1:2:5:cubic", "a:b:c", "5"):
            result = runner.invoke(cli.main, [
                "curve", "--quantity", "asymptotic-c", "--n", "1", "--r", bad,
            ])
            assert result.exit_code == 2, bad

    @pytest.mark.parametrize("grid, ends", [
        ("0.1:inf:2", "0.1:inf"), ("-inf:1:3", "-inf:1"), ("nan:0.5:3:log", "nan:0.5"),
    ])
    def test_non_finite_range_end_is_domain_error(self, runner, grid, ends):
        result = runner.invoke(cli.main, [
            "curve", "--quantity", "purity-bound", "--n", "1", "--r", "2", "--mu", grid,
        ])
        assert result.exit_code == 2
        assert result.stdout == ""
        # the message alone: no numpy warning, and the ends as given
        assert result.stderr == f"error: range needs finite min and max, got {ends}\n"

    @pytest.mark.parametrize("points", ["1000001", "1000000000"])
    def test_range_past_the_point_cap_is_domain_error(self, runner, points):
        # refused before the grid is built: a billion points used to fill memory
        result = runner.invoke(cli.main, [
            "curve", "--quantity", "asymptotic-c", "--n", "1", "--r", f"1:2:{points}",
        ])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: range needs at most 1000000 points, got {points}\n"

    def test_range_at_the_point_cap(self):
        grid = cli.parse_range(f"1:2:{cli.MAX_COUNT}:log")
        assert len(grid) == cli.MAX_COUNT and grid[0] == 1.0 and grid[-1] == 2.0

    def test_linear_grid_is_numpy_linspace(self):
        # the grid is built in plain Python with linspace's arithmetic
        rng = np.random.default_rng(31)
        for _ in range(1000):
            lo, hi = sorted(rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 6.0), 2).tolist())
            points = int(rng.integers(2, 400))
            grid = cli.parse_range(f"{lo!r}:{hi!r}:{points}")
            assert grid == np.linspace(lo, hi, points).tolist(), (lo, hi, points)

    def test_log_grid_within_an_ulp_of_geomspace(self):
        # 10.0 ** x in place of numpy's power, which differs by an ulp on
        # hosts where numpy takes an AVX-512 code path
        rng = np.random.default_rng(32)
        for _ in range(1000):
            lo, hi = sorted((10.0 ** rng.uniform(-300.0, 300.0, 2)).tolist())
            points = int(rng.integers(2, 400))
            grid = cli.parse_range(f"{lo!r}:{hi!r}:{points}:log")
            expected = np.geomspace(lo, hi, points)
            assert grid[0] == lo and grid[-1] == hi
            assert all(a < b for a, b in zip(grid, grid[1:])), (lo, hi, points)
            assert (np.abs(np.array(grid) - expected) <= np.spacing(expected)).all()

    def test_seventeen_digit_round_trip(self, runner):
        result = runner.invoke(cli.main, [
            "curve", "--quantity", "asymptotic-c", "--n", "3", "--r", "1:7:5",
        ])
        for row in csv_rows(result.output):
            value = float(row["value"])
            assert value == asymptotic_C(3, float(row["r"]))


class TestVerify:
    def test_lemma_passes(self, runner):
        result = runner.invoke(cli.main, [
            "verify", "lemma", "--dim", "12", "--trials", "100", "--seed", "42",
        ])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_lemma_deterministic(self, runner):
        args = ["verify", "lemma", "--dim", "10", "--trials", "50", "--seed", "3"]
        assert runner.invoke(cli.main, args).output == runner.invoke(
            cli.main, args
        ).output

    def test_b_approx_passes(self, runner):
        result = runner.invoke(cli.main, [
            "verify", "b-approx", "--trials", "20", "--seed", "1",
        ])
        assert result.exit_code == 0

    def test_roundtrip_passes(self, runner):
        result = runner.invoke(cli.main, [
            "verify", "roundtrip", "--trials", "30", "--seed", "2",
        ])
        assert result.exit_code == 0

    def test_holder_passes(self, runner):
        result = runner.invoke(cli.main, [
            "verify", "holder", "--n", "2", "--r", "3", "--mu", "1e-3",
            "--seed", "7",
        ])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_no_seed_is_seed_zero(self, runner):
        args = ["verify", "lemma", "--dim", "8", "--trials", "20"]
        explicit = runner.invoke(cli.main, args + ["--seed", "0"])
        # the environment sets no seed: UNCBOUND_SEED is not read
        implicit = runner.invoke(cli.main, args, env={"UNCBOUND_SEED": "99"})
        assert explicit.exit_code == implicit.exit_code == 0
        assert implicit.output == explicit.output

    @pytest.mark.parametrize("args", [
        ["lemma", "--dim", "4", "--trials", "0"],
        ["b-approx", "--trials", "0"],
        ["roundtrip", "--trials", "0"],
    ])
    def test_zero_count_is_usage_error(self, runner, args):
        # a suite that checks nothing must not pass
        result = runner.invoke(cli.main, ["verify", *args])
        assert result.exit_code == 2
        assert "PASS" not in result.output
        assert "Traceback" not in combined(result)

    @pytest.mark.parametrize("args", [
        ["lemma", "--dim", "2", "--trials", "1000001"],
        ["lemma", "--dim", "2", "--trials", "100000000000"],
        ["b-approx", "--trials", "1000001"],
        ["roundtrip", "--trials", "1000001"],
    ])
    def test_trials_past_cap_is_usage_error(self, runner, args, monkeypatch):
        # refused before any trial runs: 1e11 lemma margins once asked numpy
        # for 745 GiB
        from uncbound import oracle

        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(oracle, "lemma_margins", refuse)
        for name in ("beta_integral_B", "entropy_bound"):
            monkeypatch.setattr(cli.cf, name, refuse)
        result = runner.invoke(cli.main, ["verify", *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--trials" in result.stderr and "1<=x<=1000000" in result.stderr
        assert "Traceback" not in combined(result)

    @pytest.mark.parametrize("dim", ["1025", "100000"])
    def test_lemma_dim_past_cap_is_usage_error(self, runner, dim):
        # rejected before any dim x dim matrix is allocated
        result = runner.invoke(cli.main, ["verify", "lemma", "--dim", dim])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--dim" in result.stderr and "2<=x<=1024" in result.stderr
        assert "Traceback" not in combined(result)

    @pytest.mark.parametrize("args", [
        ["lemma", "--dim", "4", "--trials", "2"],
        ["holder", "--n", "2", "--r", "3", "--mu", "1e-3"],
        ["b-approx", "--trials", "2"],
        ["roundtrip", "--trials", "2"],
    ])
    def test_negative_seed_is_usage_error(self, runner, args):
        result = runner.invoke(cli.main, ["verify", *args, "--seed", "-1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--seed" in result.stderr
        assert "Traceback" not in combined(result)

    @pytest.mark.parametrize("mu, r", [
        ("0", "3"), ("-1", "3"), ("1e-3", "inf"), ("1e-3", "nan"),
    ])
    def test_bad_holder_input_is_domain_error(self, runner, mu, r):
        result = runner.invoke(cli.main, [
            "verify", "holder", "--n", "2", "--r", r, "--mu", mu,
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert "Traceback" not in combined(result)
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("r", ["1.0001", "1.001"])
    def test_holder_near_r_one_is_solver_error(self, runner, r):
        # the oracle's power sum at p = r/(r-1) ~ 1e3..1e4 leaves the float
        # range, where its purity gradient has no finite value
        result = runner.invoke(cli.main, [
            "verify", "holder", "--n", "1", "--r", r, "--mu", "0.5",
        ])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert "Traceback" not in combined(result)
        assert result.stderr.startswith("solver error: purity gradient is not finite")
        assert result.stderr.count("\n") == 1


# every command's settable options; the verify suites fix their tolerances,
# and the holder oracle sizes itself
OPTIONS = {
    (): {"--version"},
    ("bound",): set(),
    ("bound", "purity"): {"--n", "--r", "--mu", "--method", "--format"},
    ("bound", "entropy"): {"--n", "--S", "--asymptotic", "--format"},
    ("bound", "spectrum"): {"--n", "--input", "--format"},
    ("curve",): {"--quantity", "--n", "--r", "--mu", "--S", "--format"},
    ("verify",): set(),
    ("verify", "lemma"): {"--dim", "--trials", "--seed"},
    ("verify", "holder"): {"--n", "--r", "--mu", "--seed"},
    ("verify", "b-approx"): {"--trials", "--seed"},
    ("verify", "roundtrip"): {"--trials", "--seed"},
}


def _option_surface(command, path=()):
    surface = {path: {opt for param in command.params for opt in param.opts}}
    for name, sub in getattr(command, "commands", {}).items():
        surface.update(_option_surface(sub, path + (name,)))
    return surface


def test_option_surface():
    assert _option_surface(cli.main) == OPTIONS


@pytest.mark.parametrize("argv", [
    ["lemma", "--trials", "2", "--tol", "1e-10"],
    ["holder", "--n", "2", "--r", "3", "--mu", "1e-3", "--tol", "1e-5"],
    ["holder", "--n", "2", "--r", "3", "--mu", "1e-3", "--truncation", "200"],
    ["b-approx", "--trials", "2", "--tol", "1e-9"],
    # b-approx checks the constant the retired appendix-d suite checked, and
    # takes none of that suite's knobs
    ["b-approx", "--n-max", "10"],
    ["b-approx", "--trials", "2", "--n-max", "10"],
    ["roundtrip", "--trials", "2", "--tol", "1e-10"],
])
def test_removed_verify_flag_is_usage_error(runner, argv):
    result = runner.invoke(cli.main, ["verify", *argv])
    assert result.exit_code == 2
    assert result.stdout == ""
    error = result.stderr.splitlines()[-1]
    assert "No such option" in error and argv[-2] in error


def test_retired_verify_suite_is_unknown_command(runner):
    result = runner.invoke(cli.main, ["verify", "appendix-d"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "No such command 'appendix-d'" in result.stderr.splitlines()[-1]


def test_version_from_a_checkout(runner):
    # read from the package, not from installed metadata, so a checkout that
    # is only on the path reports it too
    result = runner.invoke(cli.main, ["--version"], prog_name="uncbound")
    assert result.exit_code == 0
    assert result.stdout == f"uncbound, version {uncbound.__version__}\n"


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == uncbound.__version__


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "uncbound.cli", "--help"],
        capture_output=True, text=True, env=package_env(),
    )
    assert proc.returncode == 0
    assert "bound" in proc.stdout and "verify" in proc.stdout


# the modules that start without numpy, and those that import it at the top
NUMPY_FREE = {"__init__", "special_fn", "solvers", "closed_forms", "cli"}
NUMPY_BOUND = {"purity", "spectrum_bound", "bounds", "oracle"}
NUMPY_MODULES = {"numpy"} | {f"uncbound.{stem}" for stem in NUMPY_BOUND}


def _module_level(node):
    """The nodes that run when a module is imported: not function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


def test_package_imports_only_runtime_dependencies():
    # numpy and click are the only runtime dependencies: a module of the
    # package imports them, the standard library and itself, nothing else
    # (mpmath, hypothesis and scipy are installed with the test extra only).
    # The numpy-free modules import neither numpy nor a module that does at
    # the top; their commands import those on first use
    allowed = set(sys.stdlib_module_names) | {"numpy", "click", "uncbound"}
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == NUMPY_FREE | NUMPY_BOUND
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, _module_level(tree)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "uncbound" if node.level else node.module
                names = [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            assert all(name.split(".")[0] in allowed for name in names), (
                f"{path.name}:{node.lineno}")
            if path.stem in NUMPY_FREE and id(node) in top:
                heads = {".".join(name.split(".")[:k]) for name in names for k in (1, 2)}
                assert not heads & NUMPY_MODULES, f"{path.name}:{node.lineno}"


def test_closed_form_commands_run_without_numpy(tmp_path):
    # one interpreter runs the closed-form commands first, then the two that
    # need arrays; numpy enters with the first of those and not before
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("0.5\n0.3\n0.2\n")
    commands = [
        ["bound", "entropy", "--n", "2", "--S", "1"],
        ["bound", "entropy", "--n", "2", "--S", "1", "--asymptotic"],
        ["bound", "purity", "--n", "2", "--r", "3", "--mu", "0.01", "--method", "asymptotic"],
        ["bound", "purity", "--n", "2", "--r", "2", "--mu", "0.01", "--method", "interpolated"],
        *(["curve", "--quantity", quantity, "--n", "1,2", f"--{name}", grid]
          for quantity, name, ends in (("asymptotic-c", "r", "1:100:5"),
                                       ("interpolated-r2", "mu", "0.001:1:5"),
                                       ("entropy-bound", "S", "0.5:12:5"))
          for grid in (ends, ends + ":log")),
        ["bound", "purity", "--n", "2", "--r", "3", "--mu", "0.01"],
        ["bound", "spectrum", "--n", "2", "--input", str(spectrum)],
    ]
    code = ("import contextlib, io, json, sys\n"
            "import uncbound.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):\n"
            "        uncbound.cli.main.main(argv, standalone_mode=False)\n"
            "    print(json.dumps(['numpy' in sys.modules, out.getvalue()]))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [loaded for loaded, _ in runs] == [False] * (len(commands) - 2) + [True, True]
    for argv, (_, out) in zip(commands, runs):
        assert out == _invoke_in_process(argv)[1].getvalue(), argv
    exact, from_file = (float(csv_rows(out)[0]["value"]) for _, out in runs[-2:])
    assert exact == purity_bound(0.01, 2, PurityOrder.finite(3.0)).per_dim_product
    assert from_file == bound_from_spectrum(Spectrum(np.array([0.5, 0.3, 0.2])), 2).per_dim_product


def test_cli_import_loads_no_scipy():
    # scipy is not a runtime dependency: neither the import, a cutoff-sum
    # tail call nor the oracle suite that checks the cutoff integral loads it
    code = ("import contextlib, io, sys\n"
            "import uncbound.cli\n"
            "from uncbound.bounds import purity_bound\n"
            "from uncbound.purity import PurityOrder\n"
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "purity_bound(1e-6, 1, PurityOrder.finite(2.0))  # its cutoff takes the tail\n"
            "print(loaded())\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):\n"
            "    uncbound.cli.main.main(['verify', 'b-approx', '--trials', '3'],\n"
            "                           standalone_mode=False)\n"
            "print(out.getvalue().split()[-1], loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", "PASS []", ""]


def _invoke_in_process(argv):
    """(exit code, stdout, stderr) of one call on swapped sys streams."""
    out, err = io.StringIO(), io.StringIO()
    exit_code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="uncbound", standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code
    return exit_code, out, err


@pytest.mark.parametrize("argv, code", [
    (["bound", "entropy", "--n", "2", "--S", "3.5"], 0),
    (["curve", "--quantity", "interpolated-r2", "--n", "1,2", "--mu", "0.1:1:4"], 0),
    (["bound", "purity", "--n", "1", "--r", "3", "--mu", "0.5",
      "--method", "interpolated"], 2),
    (["verify", "b-approx", "--trials", "2", "--seed", "3"], 0),
])
def test_in_process_call_frees_its_streams(argv, code):
    # an embedding caller swaps sys.stdout and sys.stderr for each call; the
    # CLI must keep no reference to them, or every call's text stays alive.
    # The first call may import a module that keeps the stderr of that
    # moment, so the second call is the one checked.
    _invoke_in_process(argv)
    exit_code, out, err = _invoke_in_process(argv)
    assert exit_code == code
    assert (out if code == 0 else err).getvalue()
    streams = weakref.ref(out), weakref.ref(err)
    del out, err
    gc.collect()
    assert [stream() for stream in streams] == [None, None]
