import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import uncbound.cli as cli
from uncbound.bounds import asymptotic_C
from uncbound.purity import Spectrum
from uncbound.solvers import SolverError
from uncbound.spectrum_bound import bound_from_spectrum


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

        monkeypatch.setattr(cli.bd, "purity_bound", explode)
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
        spectrum = cli.read_spectrum_file(path)
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

    def test_jobs_do_not_change_output(self, runner):
        args = ["curve", "--quantity", "entropy-bound", "--n", "1,2",
                "--S", "0.5:12:6"]
        serial = runner.invoke(cli.main, args + ["--jobs", "1"])
        threaded = runner.invoke(cli.main, args + ["--jobs", "4"])
        assert serial.output == threaded.output

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

    def test_appendix_d_passes(self, runner):
        result = runner.invoke(cli.main, ["verify", "appendix-d", "--n-max", "10"])
        assert result.exit_code == 0

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

    def test_failure_exits_one(self, runner):
        result = runner.invoke(cli.main, [
            "verify", "holder", "--n", "1", "--r", "2", "--mu", "0.5",
            "--seed", "7", "--tol", "1e-18",
        ])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_seed_env_var(self, runner):
        explicit = runner.invoke(cli.main, [
            "verify", "lemma", "--dim", "8", "--trials", "20", "--seed", "99",
        ])
        via_env = runner.invoke(
            cli.main,
            ["verify", "lemma", "--dim", "8", "--trials", "20"],
            env={"UNCBOUND_SEED": "99"},
        )
        assert via_env.output == explicit.output


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "uncbound.cli", "--help"],
        capture_output=True, text=True, env=package_env(),
    )
    assert proc.returncode == 0
    assert "bound" in proc.stdout and "verify" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy is imported on use only; loading it at import triples a cold start
    code = ("import uncbound.cli, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
