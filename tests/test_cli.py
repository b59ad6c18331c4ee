"""Tests for the command-line interface.

Each subcommand is exercised through ``run`` with captured stdout, so the
tests see exactly what a shell user sees.  Exit-code policy: 0 for success
and PASS verdicts, 1 for failed verdicts and computational errors, 2 for
usage errors.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from chopshop.cli import run
from chopshop.waring import form_from_points, form_to_dict, random_unit_points


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def invoke_json(argv):
    code, out = invoke(argv + ["--format", "json"])
    return code, json.loads(out)


class TestFormulaCommands:
    def test_hf_table(self):
        code, out = invoke(["hf", "--n", "2", "--r", "18"])
        assert code == 0
        lines = out.splitlines()
        generic = next(l for l in lines if l.startswith("generic"))
        chopped = next(l for l in lines if l.startswith("chopped"))
        assert generic.split()[1:] == "1 3 6 10 15 18 18 18".split()
        assert chopped.split()[1:] == "1 3 6 10 15 18 19 18".split()
        assert "predicted gap=2" in out

    def test_hf_json(self):
        code, data = invoke_json(["hf", "--n", "2", "--r", "18"])
        assert code == 0
        assert data["d"] == 5
        assert data["predicted_gap"] == 2
        assert data["generic"] == [1, 3, 6, 10, 15, 18, 18, 18]
        assert data["chopped"] == [1, 3, 6, 10, 15, 18, 19, 18]
        assert data["degrees"] == list(range(8))

    def test_gap(self):
        code, data = invoke_json(["gap", "--n", "2", "--r", "41"])
        assert code == 0
        assert data == {
            "n": 2,
            "r": 41,
            "d": 8,
            "predicted_gap": 3,
            "gap_upper_bound": 5,
        }

    def test_gap_without_proven_ceiling(self):
        # (n-1)d - (n+1) is 0 at (2,7), below the predicted gap 1: it is
        # not reported as a ceiling
        code, data = invoke_json(["gap", "--n", "2", "--r", "7"])
        assert code == 0
        assert data == {
            "n": 2,
            "r": 7,
            "d": 3,
            "predicted_gap": 1,
            "gap_upper_bound": None,
        }
        code, out = invoke(["gap", "--n", "2", "--r", "7"])
        assert code == 0
        assert "no proven ceiling" in out and "upper bound" not in out
        code, out = invoke(["hf", "--n", "2", "--r", "7"])
        assert code == 0
        assert "predicted gap=1  no proven ceiling" in out
        code, data = invoke_json(["hf", "--n", "2", "--r", "7"])
        assert data["gap_upper_bound"] is None

    def test_hf_inadmissible_is_clean_failure(self):
        code, data = invoke_json(["hf", "--n", "2", "--r", "19"])
        assert code == 1
        assert data["error"]["type"] == "RangeError"

    def test_liaison(self):
        code, data = invoke_json(["liaison", "--n", "2", "--d", "5", "--r", "18"])
        assert code == 0
        assert data["delta_residual"] == [1, 2, 3, 1]
        assert data["delta_ci"] == [1, 2, 3, 4, 5, 4, 3, 2, 1, 0]


class TestVerifyCommand:
    def test_pass_case(self):
        code, data = invoke_json(["verify", "--n", "2", "--r", "41", "--seed", "0"])
        assert code == 0
        assert data["verdict"] == "PASS"
        assert data["observed_quotient"][8:] == [41, 43, 42, 41]
        assert data["observed_gap"] == 3

    def test_table_output_shows_verdict(self):
        code, out = invoke(["verify", "--n", "2", "--r", "18"])
        assert code == 0
        assert "verdict PASS" in out
        assert "observed gap=2" in out

    def test_genericity_fail_exits_one(self):
        code, data = invoke_json(["verify", "--n", "2", "--r", "30", "--prime", "3"])
        assert code == 1
        assert data["verdict"] == "GENERICITY_FAIL"

    def test_out_file(self, tmp_path):
        path = tmp_path / "cert.json"
        code, _ = invoke(["verify", "--n", "2", "--r", "18", "--out", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert data["verdict"] == "PASS"
        assert list(data)[0] == "schema_version"

    def test_no_timing_is_byte_identical(self):
        args = ["verify", "--n", "2", "--r", "18", "--format", "json", "--no-timing"]
        _, first = invoke(list(args))
        _, second = invoke(list(args))
        assert first == second
        assert json.loads(first)["wall_ms"] == 0

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("CHOPSHOP_SEED", "5")
        monkeypatch.setenv("CHOPSHOP_PRIME", "1000003")
        code, data = invoke_json(["verify", "--n", "2", "--r", "18"])
        assert code == 0
        assert data["seed"] == 5
        assert data["prime"] == 1000003

    def test_flags_override_env(self, monkeypatch):
        monkeypatch.setenv("CHOPSHOP_SEED", "5")
        code, data = invoke_json(["verify", "--n", "2", "--r", "18", "--seed", "9"])
        assert code == 0
        assert data["seed"] == 9

    def test_inadmissible_error_json(self):
        code, data = invoke_json(["verify", "--n", "2", "--r", "2"])
        assert code == 1
        assert data["error"]["type"] == "RangeError"
        assert "r=2" in data["error"]["message"]


class TestVerifyRange:
    def test_report(self):
        code, data = invoke_json(
            ["verify-range", "--n", "2", "--r-from", "14", "--r-to", "22"]
        )
        assert code == 0
        assert data["summary"]["pass"] == 4
        assert data["summary"]["fail"] == 0
        assert data["summary"]["skip"] == 5
        ran = sorted(c["r"] for c in data["certificates"])
        assert ran == [16, 17, 18, 22]

    def test_no_timing_zeroes_every_clock(self):
        code, data = invoke_json(
            [
                "verify-range",
                "--n",
                "2",
                "--r-from",
                "16",
                "--r-to",
                "18",
                "--no-timing",
            ]
        )
        assert code == 0
        assert data["summary"]["total_wall_ms"] == 0
        assert all(c["wall_ms"] == 0 for c in data["certificates"])

    def test_fail_count_drives_exit_code(self):
        code, data = invoke_json(
            [
                "verify-range",
                "--n",
                "2",
                "--r-from",
                "28",
                "--r-to",
                "30",
                "--prime",
                "3",
            ]
        )
        assert code == 1
        assert data["summary"]["fail"] >= 1


class TestWaringCommands:
    def test_waring_demo(self):
        code, data = invoke_json(
            ["waring-demo", "--n", "2", "--D", "10", "--r", "18", "--seed", "7"]
        )
        assert code == 0
        assert data["residual"] <= 1e-8
        assert data["point_recovery"] <= 1e-6
        assert data["coefficient_recovery"] <= 1e-6
        assert data["diagnostics"]["catalecticant_rank"] == 18
        assert data["diagnostics"]["macaulay_degree"] == 7

    def test_waring_demo_table(self):
        code, out = invoke(
            ["waring-demo", "--n", "2", "--D", "6", "--r", "7", "--seed", "1"]
        )
        assert code == 0
        assert "residual:" in out
        assert "point recovery" in out

    def test_decompose_file(self, tmp_path):
        points = random_unit_points(2, 7, 11)
        form = form_from_points(points, [1.0] * 7, 6)
        src = tmp_path / "form.json"
        src.write_text(json.dumps(form_to_dict(form)))
        dst = tmp_path / "result.json"
        code, data = invoke_json(
            ["decompose", str(src), "--r", "7", "--out", str(dst)]
        )
        assert code == 0
        assert data["residual"] <= 1e-8
        saved = json.loads(dst.read_text())
        assert saved["diagnostics"] == data["diagnostics"]

    def test_decompose_missing_file(self, capsys):
        code = run(["decompose", "/does/not/exist.json", "--r", "3"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unsupported_rank_error(self, tmp_path):
        points = random_unit_points(2, 30, 1)
        form = form_from_points(points, [1.0] * 30, 10)
        src = tmp_path / "form.json"
        src.write_text(json.dumps(form_to_dict(form)))
        code, data = invoke_json(["decompose", str(src), "--r", "30"])
        assert code == 1
        assert data["error"]["type"] == "UnsupportedRankError"


class TestCombinatorialCommands:
    def test_search_monomial(self):
        code, data = invoke_json(["search-monomial", "--r", "18"])
        assert code == 0
        assert data["count"] == 2
        target = sorted([[0, 3, 2], [2, 0, 3], [2, 2, 2], [3, 2, 0]])
        assert any(sorted(gens) == target for gens in data["ideals"])

    def test_sextic_demo(self):
        code, data = invoke_json(["sextic-demo", "--seed", "3"])
        assert code == 0
        assert data["g_in_I6"] is True
        assert data["g_in_chopped6"] is False
        assert data["I6_dim"] == 10
        assert data["chopped6_dim"] == 9


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "0", "--r", "5"],
            ["verify", "--n", "2", "--r", "-1"],
            ["verify", "--n", "2", "--r", "18", "--prime", "6"],
            ["verify-range", "--n", "2", "--r-from", "9", "--r-to", "4"],
            ["waring-demo", "--n", "2", "--D", "10", "--r", "18", "--tol", "2"],
            ["nonsense"],
            [],
        ],
    )
    def test_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("CHOPSHOP_PRIME", "not-a-number")
        with pytest.raises(SystemExit):
            run(["verify", "--n", "2", "--r", "18"])


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chopshop.cli", "gap", "--n", "2", "--r", "18"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "predicted gap: 2" in proc.stdout

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chopshop.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"
