"""Tests for the command-line interface.

Each subcommand is exercised through ``run`` with captured stdout, so the
tests see exactly what a shell user sees.  Exit-code policy: 0 for success
and PASS verdicts, 1 for failed verdicts and computational errors, 2 for
usage errors.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

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

    def test_liaison_past_the_socle_is_clean_failure(self):
        # two points cannot lie in the complete intersection of two lines
        code, data = invoke_json(["liaison", "--n", "2", "--d", "1", "--r", "2"])
        assert code == 1
        assert data["error"]["type"] == "RangeError"


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

    def test_failed_self_check_exits_three(self, skipped_schur_update, capsys):
        code, _ = invoke(["verify", "--n", "2", "--r", "41"])
        assert code == 3
        assert "a bug in chopshop and not a FAIL" in capsys.readouterr().err
        code, data = invoke_json(["verify", "--n", "2", "--r", "41"])
        assert code == 3
        assert data["error"]["type"] == "SelfCheckError"

    def test_oversized_case_is_a_capacity_error(self):
        # the Macaulay matrix at (6, 917) would take 21.6 TB at 4 bytes a
        # cell: the builder refuses it after sampling, before allocating
        # anything that size
        code, data = invoke_json(["verify", "--n", "6", "--r", "917"])
        assert code == 1
        assert data["error"]["type"] == "CapacityError"
        assert "physical memory" in data["error"]["message"]

    def test_memory_error_exits_one(self, monkeypatch, capsys):
        from chopshop import cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 179. GiB")

        monkeypatch.setattr(cli, "verify_case", exhausted)
        code, data = invoke_json(["verify", "--n", "2", "--r", "18"])
        assert code == 1
        assert data["error"] == {"type": "MemoryError",
                                 "message": "Unable to allocate 179. GiB"}
        code, _ = invoke(["verify", "--n", "2", "--r", "18"])
        assert code == 1
        assert capsys.readouterr().err == "error: Unable to allocate 179. GiB\n"

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


def _without_tool_version(data):
    if isinstance(data, dict):
        return {k: _without_tool_version(v) for k, v in data.items() if k != "tool_version"}
    if isinstance(data, list):
        return [_without_tool_version(v) for v in data]
    return data


# The whole stdout, as printed, of the commands whose output no other test
# pins byte for byte.
GOLDEN_STDOUT = [
    (["hf", "--n", "2", "--r", "18", "--format", "table"],
     "e922fd8baf73109098225419b7d3808a52eb1b70193b7fae1aac555cc4fa17d7"),
    (["hf", "--n", "2", "--r", "18", "--format", "json"],
     "be13c77a473207b6f8db94555c0bdcf35c225bc8fa09d6c427acbee914e2e211"),
    (["hf", "--n", "2", "--r", "7", "--format", "table"],
     "01d814d9a08ccb311996a86f8bcdf1ad840c07db980702e28035fd2fdb650f2e"),
    (["hf", "--n", "2", "--r", "7", "--format", "json"],
     "85c6e881c7d9604f91b8540b9d5abcb0f97fc9f733828ac04b2e4e9b8b49b338"),
    (["gap", "--n", "3", "--r", "161", "--format", "table"],
     "2f94e4fdb39344ee02cc470c615dd678179f98eed2a9abcb492b86f144abe5e6"),
    (["gap", "--n", "3", "--r", "161", "--format", "json"],
     "4a0e33cd2a90c58dc1dfaf11a0bbbf072f1154c801e0242185f53a72cc3cabdf"),
    (["liaison", "--n", "2", "--d", "5", "--r", "18", "--format", "table"],
     "88dde4e356a9e7c1bbe19984883c4baf9fde37fe3cec0ed92dd5d816db793654"),
    (["liaison", "--n", "2", "--d", "5", "--r", "18", "--format", "json"],
     "465870c77474cbd6ad7fe388b831ad055ebf06e1599fd359a3e4884d2e9ae3ce"),
    (["search-monomial", "--r", "18", "--format", "table"],
     "daad4fda7a23561e1401ad4bbc213672b49279a75f9662fb975ccb1be4acd38f"),
    (["search-monomial", "--r", "18", "--format", "json"],
     "028f02a4c5521362d47f37bed4895fe1ee9a3862f807eb35d7fb2c3755d5af74"),
    (["search-monomial", "--r", "32", "--format", "table"],
     "8dd824e6d56a3829029a8a36f7623356e681adf2e30b9fbe78b7951da940ed68"),
    (["search-monomial", "--r", "32", "--format", "json"],
     "af91aa05fb9c73e760e7a1ee561fe2d60f9ebdd9ff5d24fe0cb98c82b6530354"),
    (["sextic-demo", "--seed", "3", "--format", "table"],
     "c089d60ab73368dd6d6359966d1ac52f7ad11868c3462f580afefcc6d1462eff"),
    (["sextic-demo", "--seed", "3", "--format", "json"],
     "d182a418110949a64aa1b465cd3fc09c5b2d3033e08327bb1d515440ce20c964"),
]


class TestGoldenExactOutputs:
    """Exact results pinned by hash: any change to sampling or to the exact
    elimination must leave these certificates byte-identical.  The hash is
    over the ``--no-timing`` JSON with ``tool_version`` dropped, serialized
    with sorted keys and no whitespace."""

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["verify", "--n", "3", "--r", "161"], 0,
             "c98e4e8bd32f80b77315811c73d20a07643eb36dd8001f340fc76b19942fbced"),
            (["verify", "--n", "4", "--r", "120"], 0,
             "2cce89edeb4cedc0ad83e8df5d2f8c3be61a8297e0730b10a8b359d591792e35"),
            (["verify-range", "--n", "2", "--r-from", "277", "--r-to", "299",
              "--workers", "1"], 0,
             "6d472e52aec4d9e1b7700f7196639eb0631191c45ee46b9620a77fe1e06503e6"),
            (["verify", "--n", "2", "--r", "7", "--prime", "3", "--seed", "1",
              "--e-max", "6"], 1,
             "021c7628f88fb687ae35977a37d47919dc6ceddfb9b505ac501661c1caba766e"),
            (["verify", "--n", "2", "--r", "18", "--prime", "7"], 1,
             "95bb11cc46d8bd418fae82707e1c91844d725a03dd17dcc21e7c0d4431f0dc9d"),
        ],
        ids=["verify-3-161", "verify-4-120", "verify-range-2-277-299", "verify-fail-2-7-F3",
             "verify-fail-2-18-F7"],
    )
    def test_certificates_are_unchanged(self, argv, code, digest):
        got_code, data = invoke_json(argv + ["--no-timing"])
        assert got_code == code
        canonical = json.dumps(
            _without_tool_version(data), sort_keys=True, separators=(",", ":")
        )
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest, draws",
        [
            (["--n", "2", "--r-to", "60", "--prime", "7"],
             "1e79c832ec065bdc0c2448a2fa6dbb1a1f1296e905d0363d62dd90ce623ee070",
             "7:0P 11:8P 12:2P 16:8P 17:16G 18:16G 22:16G 23:16G 24:16G 25:16G "
             "29:16G 30:16G 31:16G 32:16G 33:16G 37:16G 38:16G 39:16G 40:16G 41:16G "
             "42:16G 46:16G 47:16G 48:16G 49:16G 50:16G 51:16G 52:16G 56:16G 57:16G "
             "58:16G 59:16G 60:16G"),
            (["--n", "3", "--r-to", "40", "--prime", "11"],
             "bc4298331e9aef5cb1b485effada7f018855b5fbcd7afbd91d027b33168430fb",
             "5:0P 6:0P 11:0P 12:0P 13:0P 14:0P 15:0P 16:1P 21:1P 22:0P 23:0P 24:0P "
             "25:0P 26:0P 27:0P 28:0F 29:0P 30:0P 31:0P 36:0P 37:2P 38:0P 39:0P 40:0P"),
            (["--n", "4", "--r-to", "40", "--prime", "5", "--seed", "2"],
             "21d5c2e0a04ff492696bc6cf6e33be5c09dba316887ea0bfbbb1da2212ee412f",
             "6:0P 7:0P 8:0F 9:0F 10:0F 16:0P 17:0P 18:0P 19:0P 20:0P 21:0P 22:0P "
             "23:0F 24:1P 25:1F 26:0F 27:0P 28:0P 29:1F 30:2F 36:1P 37:1P 38:0P "
             "39:10P 40:1P"),
        ],
        ids=["F7-n2", "F11-n3", "F5-n4"],
    )
    def test_small_prime_grids_keep_their_draws(self, argv, digest, draws):
        # small fields make redraws, exhausted budgets (GENERICITY_FAIL) and
        # the genericity check's fallback common; "r:retries" and the
        # verdict's initial for each certificate
        code, data = invoke_json(
            ["verify-range", "--r-from", "1", "--workers", "1", "--no-timing"] + argv
        )
        assert code == 1
        got = " ".join(
            f"{c['r']}:{c['retries']}{c['verdict'][0]}" for c in data["certificates"]
        )
        assert got == draws
        canonical = json.dumps(
            _without_tool_version(data), sort_keys=True, separators=(",", ":")
        )
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest", GOLDEN_STDOUT, ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT]
    )
    def test_stdout_is_unchanged(self, argv, digest):
        code, out = invoke(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_decompose_reports_the_quotient_table_in_strict_json(self, tmp_path):
        # no block of this form's cokernel drops an R entry: its gap is
        # infinite, which json.dumps would write as the token Infinity
        form = form_from_points(random_unit_points(2, 18, 0), [1.0] * 18, 10)
        src = tmp_path / "form.json"
        src.write_text(json.dumps(form_to_dict(form)))
        argv = ["decompose", str(src), "--r", "18"]

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        code, out = invoke(argv + ["--format", "json"])
        assert code == 0
        diag = json.loads(out, parse_constant=reject)["diagnostics"]
        assert diag["numerical_quotient"] == diag["expected_quotient"] == [19, 18]
        assert diag["cokernel_gap"] is None
        assert diag["catalecticant_gap"] > 10
        code, out = invoke(argv)
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("quotient"))
        assert line.startswith("quotient at degrees 6..7: numerical [19, 18], expected [19, 18];")
        assert line.endswith(", cokernel inf")

    def test_failed_decompose_keeps_its_diagnostics_in_strict_json(self, tmp_path):
        # a rank-50 form at r = 49: the error object carries the quotient
        # table and both gaps, and the NaN of the steps never reached is
        # written as null, not as the token NaN
        form = form_from_points(random_unit_points(3, 50, 0), [1.0] * 50, 10)
        src = tmp_path / "form.json"
        src.write_text(json.dumps(form_to_dict(form)))

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        code, out = invoke(["decompose", str(src), "--r", "49", "--format", "json"])
        assert code == 1
        error = json.loads(out, parse_constant=reject)["error"]
        assert error["type"] == "DecompositionError"
        diag = error["diagnostics"]
        assert diag["numerical_quotient"] == [56, 50, 30]
        assert diag["expected_quotient"] == [56, 50, 49]
        assert diag["catalecticant_gap"] > 0 and diag["cokernel_gap"] > 0
        assert diag["cokernel_condition"] is None
        assert "[56, 50, 30]" in error["message"]

    def test_decompose_missing_file(self, capsys):
        code = run(["decompose", "/does/not/exist.json", "--r", "3"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_decompose_zero_form(self, tmp_path, capsys):
        src = tmp_path / "zero.json"
        src.write_text(json.dumps({"schema_version": 1, "n": 2, "D": 10, "terms": []}))
        code = run(["decompose", str(src), "--r", "18"])
        assert code == 1
        assert "the zero form has no Waring decomposition" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, field",
        [
            ([1, 2], "document"),
            ({"schema_version": 1, "n": 2, "terms": []}, "D"),
            ({"schema_version": 1, "n": 2, "D": 2}, "terms"),
            ({"schema_version": 1, "D": 2, "terms": []}, "n"),
            ({"schema_version": 1, "n": 2, "D": 2,
              "terms": [{"exponent": [2, 0, 0], "re": 1.0}]}, "terms[0].im"),
            ({"schema_version": 1, "n": 2, "D": 2,
              "terms": [{"exponent": [2, 0, 0], "re": "1", "im": 0.0}]}, "terms[0].re"),
            ({"schema_version": 1, "n": 2, "D": 2,
              "terms": [{"exponent": [2, None, 0], "re": 1.0, "im": 0.0}]},
             "terms[0].exponent"),
            ({"schema_version": 1, "n": 2, "D": 2, "terms": [[2, 0, 0]]}, "terms[0]"),
            ({"schema_version": 1, "n": 2, "D": -1, "terms": []}, "D"),
            ({"schema_version": 1, "n": 2, "D": -1,
              "terms": [{"exponent": [2, 0, 0], "re": 1.0, "im": 0.0}]}, "D"),
            ({"schema_version": 1, "n": 1, "D": 2,
              "terms": [{"exponent": [2, 0], "re": 1.0, "im": 0.0},
                        {"exponent": [2, 0], "re": 5.0, "im": 0.0}]},
             "terms[1].exponent"),
            # json writes and reads Infinity and NaN
            ({"schema_version": 1, "n": 2, "D": 2,
              "terms": [{"exponent": [2, 0, 0], "re": math.inf, "im": 0.0}]},
             "terms[0].re must be finite"),
            ({"schema_version": 1, "n": 2, "D": 2,
              "terms": [{"exponent": [2, 0, 0], "re": 1.0, "im": math.nan}]},
             "terms[0].im must be finite"),
            # finite, but it overflows once the catalecticant weights it
            ({"schema_version": 1, "n": 2, "D": 6,
              "terms": [{"exponent": [6, 0, 0], "re": 1e308, "im": 0.0}]},
             "catalecticant"),
        ],
    )
    def test_malformed_form_is_a_clean_error(self, tmp_path, document, field):
        src = tmp_path / "form.json"
        src.write_text(json.dumps(document))
        code, data = invoke_json(["decompose", str(src), "--r", "3"])
        assert code == 1
        assert data["error"]["type"] == "ValueError"
        assert field in data["error"]["message"]
        assert "zero form" not in data["error"]["message"]

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


def _clocks(data):
    """Every wall-clock value of a payload, at any depth."""
    if isinstance(data, dict):
        return [c for k, v in data.items()
                for c in ([v] if k in ("wall_ms", "total_wall_ms") else _clocks(v))]
    if isinstance(data, list):
        return [c for v in data for c in _clocks(v)]
    return []


class TestOutFile:
    """``--out`` holds the bytes that ``--format json`` prints, and a command
    that fails leaves no file."""

    VERIFY = ["verify", "--n", "2", "--r", "18"]
    VERIFY_RANGE = ["verify-range", "--n", "2", "--r-from", "16", "--r-to", "18",
                    "--workers", "1"]

    @pytest.mark.parametrize("argv, clocks", [
        (VERIFY, 1), (VERIFY + ["--no-timing"], 1),
        (VERIFY_RANGE, 4), (VERIFY_RANGE + ["--no-timing"], 4),
    ])
    def test_verify_file_matches_stdout(self, tmp_path, argv, clocks):
        path = tmp_path / "out.json"
        code, out = invoke(argv + ["--format", "json", "--out", str(path)])
        assert code == 0
        assert path.read_text(encoding="utf-8") == out
        found = _clocks(json.loads(out))
        assert len(found) == clocks
        if "--no-timing" in argv:
            assert found == [0] * clocks

    @pytest.mark.parametrize("argv", [VERIFY, VERIFY_RANGE])
    def test_table_output_writes_the_same_file(self, tmp_path, argv):
        argv = argv + ["--no-timing"]
        path = tmp_path / "out.json"
        code, table = invoke(argv + ["--out", str(path)])
        assert code == 0
        assert not table.lstrip().startswith("{")
        assert path.read_text(encoding="utf-8") == invoke(argv + ["--format", "json"])[1]

    def test_decompose_file_matches_stdout(self, tmp_path):
        form = form_from_points(random_unit_points(2, 7, 11), [1.0] * 7, 6)
        src = tmp_path / "form.json"
        src.write_text(json.dumps(form_to_dict(form)))
        path = tmp_path / "result.json"
        code, out = invoke(["decompose", str(src), "--r", "7", "--format", "json",
                            "--out", str(path)])
        assert code == 0
        assert path.read_text(encoding="utf-8") == out

    def test_failed_command_writes_no_file(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code, data = invoke_json(["verify", "--n", "2", "--r", "2", "--out", str(path)])
        assert code == 1
        assert data["error"]["type"] == "RangeError"
        assert not path.exists()
        code, out = invoke(["verify", "--n", "2", "--r", "2", "--out", str(path)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith("error: ")
        assert not path.exists()

    def test_unwritable_out_is_a_clean_error(self, tmp_path):
        path = tmp_path / "missing" / "cert.json"
        code, data = invoke_json(self.VERIFY + ["--out", str(path)])
        assert code == 1
        # stdout holds the error object alone
        assert list(data) == ["error"]
        assert data["error"]["type"] == "FileNotFoundError"
        assert str(path) in data["error"]["message"]


# A valid invocation of every subcommand, the flags with a range check that
# each one takes, and flags each of some subcommands does not take.  Usage
# errors are caught before any computation, so the form file of `decompose`
# need not exist.
_VALID_ARGV = {
    "hf": ["--n", "2", "--r", "18"],
    "gap": ["--n", "2", "--r", "18"],
    "verify": ["--n", "2", "--r", "18"],
    "verify-range": ["--n", "2", "--r-from", "16", "--r-to", "18"],
    "liaison": ["--n", "2", "--d", "5", "--r", "18"],
    "decompose": ["form.json", "--r", "7"],
    "waring-demo": ["--n", "2", "--D", "6", "--r", "7"],
    "search-monomial": ["--r", "18"],
    "sextic-demo": [],
}
_CHECKED_FLAGS = {
    "hf": {"--n", "--r"},
    "gap": {"--n", "--r"},
    "verify": {"--n", "--r", "--e-max", "--seed", "--prime"},
    "verify-range": {"--n", "--r-from", "--r-to", "--trials", "--workers", "--e-max",
                     "--seed", "--prime"},
    "liaison": {"--n", "--d", "--r"},
    "decompose": {"--r", "--tol", "--seed"},
    "waring-demo": {"--n", "--D", "--r", "--tol", "--seed"},
    "search-monomial": {"--r"},
    "sextic-demo": {"--seed", "--prime"},
}
_INTEGER_FLAGS = ("--n", "--r", "--r-from", "--r-to", "--d", "--D", "--trials", "--workers",
                  "--e-max")
_FOREIGN_FLAGS = {
    "hf": [["--no-timing"]],
    "liaison": [["--prime", "7"]],
    "decompose": [["--no-timing"]],
    "waring-demo": [["--out", "x"], ["--no-timing"]],
    "search-monomial": [["--seed", "1"], ["--no-timing"]],
    "sextic-demo": [["--no-timing"]],
}


def _with(argv, flag, value):
    """`argv` with `flag` set to `value`, replaced in place or appended."""
    if flag in argv:
        i = argv.index(flag)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv + [flag, value]


def _usage_error_cases():
    for command, argv in _VALID_ARGV.items():
        checked = _CHECKED_FLAGS[command]
        bad = [(flag, "0") for flag in _INTEGER_FLAGS if flag in checked]
        if "--tol" in checked:
            bad += [("--tol", "0"), ("--tol", "1")]
        if "--seed" in checked:
            bad.append(("--seed", "-1"))
        if "--prime" in checked:
            bad.append(("--prime", "4"))
        for flag, value in bad:
            yield pytest.param(
                [command] + _with(argv, flag, value), id=f"{command} {flag} {value}"
            )
        for foreign in _FOREIGN_FLAGS.get(command, []):
            yield pytest.param([command] + argv + foreign, id=f"{command} {foreign[0]}")
        for i, word in enumerate(argv):
            if word.startswith("--"):
                yield pytest.param(
                    [command] + argv[:i] + argv[i + 2:], id=f"{command} without {word}"
                )
    yield pytest.param(["decompose", "--r", "7"], id="decompose without form")


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

    @pytest.mark.parametrize("argv", list(_usage_error_cases()))
    def test_every_flag_is_checked(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("CHOPSHOP_PRIME", "not-a-number")
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--n", "2", "--r", "18"])
        assert exc.value.code == 2

    # A bad value read from the environment is reported under the name of
    # the variable, not of the flag the user did not pass.
    _ENV_COMPLAINTS = {
        "not-a-number": "environment variable CHOPSHOP_SEED='not-a-number' is not an integer",
        "-1": "CHOPSHOP_SEED must be >= 0, got -1",
    }

    @pytest.mark.parametrize("value", ["not-a-number", "-1"])
    def test_bad_seed_env_value(self, monkeypatch, capsys, value):
        monkeypatch.setenv("CHOPSHOP_SEED", value)
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--n", "2", "--r", "18"])
        assert exc.value.code == 2
        # the usage lines above the complaint list every flag
        complaint = capsys.readouterr().err.strip().splitlines()[-1]
        assert self._ENV_COMPLAINTS[value] in complaint
        assert "--seed" not in complaint

    def test_bad_prime_env_value_names_the_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("CHOPSHOP_PRIME", "4")
        with pytest.raises(SystemExit) as exc:
            run(["sextic-demo"])
        assert exc.value.code == 2
        complaint = capsys.readouterr().err.strip().splitlines()[-1]
        assert "CHOPSHOP_PRIME: 4 is not prime" in complaint
        assert "--prime" not in complaint

    # A check that fails after parsing prints the same usage as argparse's
    # own errors for that subcommand, then the unchanged complaint.
    @pytest.mark.parametrize(
        "argv, env, complaint",
        [
            (["verify", "--n", "0", "--r", "5"], {}, "--n must be >= 1, got 0"),
            (["verify", "--n", "2", "--r", "18"], {"CHOPSHOP_SEED": "-1"},
             "CHOPSHOP_SEED must be >= 0, got -1"),
            (["verify", "--n", "2", "--r", "18"], {"CHOPSHOP_PRIME": "x"},
             "environment variable CHOPSHOP_PRIME='x' is not an integer"),
            (["sextic-demo", "--prime", "4"], {}, "--prime: 4 is not prime"),
        ],
    )
    def test_range_error_prints_the_subcommand_usage(
        self, monkeypatch, capsys, argv, env, complaint
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: chopshop {argv[0]} ")
        assert err.strip().splitlines()[-1] == f"chopshop {argv[0]}: error: {complaint}"


class TestReadmeExamples:
    """The README's exact examples print what the README shows, line for
    line (each without its ``--out``)."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    @pytest.mark.parametrize("command", ["hf --n 2 --r 18", "verify --n 2 --r 41"])
    def test_stdout_matches_the_readme(self, command, monkeypatch):
        for name in ("CHOPSHOP_PRIME", "CHOPSHOP_SEED"):
            monkeypatch.delenv(name, raising=False)
        blocks = [b.strip("\n").splitlines() for b in self.README.read_text().split("```")]
        shown = [b[1:] for b in blocks
                 if b and b[0].split(" --out ")[0] == f"$ chopshop {command}"]
        assert len(shown) == 1, command
        code, out = invoke(command.split())
        assert code == 0
        assert out.splitlines() == shown[0]


class TestConsoleScript:
    @staticmethod
    def run_python(*args):
        # the subprocess imports chopshop from this checkout's src/, as the
        # suite itself does (see tests/test_checkout.py)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def run_module(self, *args):
        return self.run_python("-m", "chopshop.cli", *args)

    def test_exact_pipeline_loads_no_scipy(self):
        # only the Waring side calls scipy, and importing it costs a fresh
        # process about 0.7 s and 40 MB
        proc = self.run_python("-c", (
            "import sys, chopshop.cli\n"
            "code = chopshop.cli.run(['verify', '--n', '2', '--r', '41'])\n"
            "print(code, 'scipy' in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_module_entry_point(self):
        proc = self.run_module("gap", "--n", "2", "--r", "18")
        assert proc.returncode == 0
        assert "predicted gap: 2" in proc.stdout

    def test_version_flag(self):
        proc = self.run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"
