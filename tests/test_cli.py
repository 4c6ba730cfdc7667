import json
import math
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import pytest

import xxzchain
import xxzchain.cli as cli
from xxzchain.cli import parse_angle, run
from xxzchain.errors import ValidationError


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_angle_pi_suffix(self):
        assert abs(parse_angle("0.5365pi") - 0.5365 * pi) < 1e-15
        assert parse_angle("pi") == pi
        assert parse_angle("1.25") == 1.25

    def test_angle_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_angle("two-pi")

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = _run(capsys, ["solve", "--zeta", "0.5pi", "--flagX"])
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    def test_conflicting_field_and_endpoint(self, capsys):
        code, _, err = _run(
            capsys, ["solve", "--zeta", "0.5365pi", "--q", "0.2", "--h", "1.0"]
        )
        assert code == 2
        assert "exactly one" in json.loads(err)["message"]

    def test_missing_subcommand(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 2


class TestParserReuse:
    def test_error_then_solve_repeat_identically(self, capsys):
        bad = ["solve", "--zeta", "0.5pi", "--order", "x"]
        good = ["solve", "--zeta", "0.5365pi", "--q", "0.2"]
        first = [_run(capsys, bad), _run(capsys, good)]
        second = [_run(capsys, bad), _run(capsys, good)]
        assert first[0][0] == 2 and json.loads(first[0][2])["error"] == "validation"
        assert first[1][0] == 0 and first[1][2] == ""
        assert second == first
        assert cli._build_parser() is cli._build_parser()


class TestSolve:
    def test_payload_fields(self, capsys):
        code, out, _ = _run(
            capsys,
            ["solve", "--zeta", "0.5365pi", "--q", "0.2"],
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"J", "zeta", "q", "h", "p_F", "v_F", "v_inf", "Z_q", "D"}
        assert data["v_F"] < data["v_inf"]

    def test_free_fermion_values(self, capsys):
        with pytest.warns(UserWarning):
            code, out, _ = _run(
                capsys,
                ["solve", "--zeta", "0.5pi", "--h", "2.0"],
            )
        assert code == 0
        data = json.loads(out)
        assert abs(data["q"] - 0.5 * math.log(2 + math.sqrt(3))) < 1e-8
        assert abs(data["p_F"] - pi / 3) < 1e-8
        assert abs(data["Z_q"] - 1.0) < 1e-8

    def test_byte_determinism(self, tmp_path, capsys):
        paths = [str(tmp_path / f"out{i}.json") for i in (1, 2)]
        for p in paths:
            code = run(
                [
                    "solve", "--zeta", "0.5365pi", "--q", "0.2", "--out", p,
                ]
            )
            assert code == 0
        capsys.readouterr()
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_seventeen_digits(self, capsys):
        _, out, _ = _run(
            capsys,
            ["solve", "--zeta", "0.5365pi", "--q", "0.2"],
        )
        # q is exactly representable text at 17 significant digits
        assert '"q": 0.20000000000000001' in out


class TestStrings:
    def test_csv_layout(self, capsys):
        code, out, _ = _run(
            capsys, ["strings", "--zeta", "0.45pi", "--rmax", "5", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,exists,sigma,line_im,sgn_p_prime,regime"
        assert len(lines) == 6
        # '.' decimal separator inside ',' separated fields
        assert any("1.5707963267948966" in ln for ln in lines)

    def test_json_rows(self, capsys):
        code, out, _ = _run(capsys, ["strings", "--zeta", "0.45pi", "--rmax", "4"])
        rows = json.loads(out)
        assert [row["r"] for row in rows] == [1, 2, 3, 4]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "zeta = 0.45pi\nrmax = 4\nformat = csv\n# comment line\n"
        )
        code, out, _ = _run(
            capsys, ["strings", "--config", str(cfg), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)[0]["r"] == 1

    def test_config_values_used(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zeta = 0.45pi\nrmax = 3\n")
        code, out, _ = _run(capsys, ["strings", "--config", str(cfg)])
        assert len(json.loads(out)) == 3

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zeta = 0.45pi\nbogus = 1\n")
        code, _, err = _run(capsys, ["strings", "--config", str(cfg)])
        assert code == 2
        assert "bogus" in json.loads(err)["message"]


class TestSaddlesExponents:
    def test_saddles_payload(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "saddles", "--zeta", "0.5365pi", "--q", "0.2",
                "--v", "0.6", "--rmax", "3",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["minimal"] is True
        assert {s["carrier"] for s in data["saddles"]} == {0, 1, 2, 3}

    def test_ambiguous_momentum_emits_null(self, capsys):
        # at zeta = pi/2 the r = 1 saddle on Im = pi/2 sits at hat-reduction
        # pi/2, where u has no single value; the saddle is still reported
        code, out, _ = _run(
            capsys,
            [
                "saddles", "--zeta", "0.5pi", "--h", "2", "--v", "2.0",
                "--rmax", "1",
            ],
        )
        assert code == 0
        assert "nan" not in out.lower()

        def reject(const):
            raise AssertionError(f"non-finite {const} in output")

        data = json.loads(out, parse_constant=reject)
        ambiguous = [s for s in data["saddles"] if s["u_value"] is None]
        assert [s["carrier"] for s in ambiguous] == [1]
        assert "u_value_note" in ambiguous[0]
        assert all(
            "u_value_note" not in s for s in data["saddles"] if s["u_value"] is not None
        )

    def test_guard_band_velocity(self, capsys):
        code, _, err = _run(
            capsys,
            [
                "saddles", "--zeta", "0.5365pi", "--q", "0.2",
                "--v", "1.3459127348243545", "--rmax", "2",
            ],
        )
        assert code == 2
        assert json.loads(err)["error"] == "near-critical"

    def test_exponents_ranked(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "exponents", "--zeta", "0.5365pi", "--q", "0.2",
                "--v", "0.6", "--rmax", "3", "--bound", "1",
            ],
        )
        assert code == 0
        rows = json.loads(out)
        exps = [row["total_exponent"] for row in rows]
        assert exps == sorted(exps)
        assert rows[0]["total_exponent"] == 0

    def test_real_valued_complex_driving_is_silent(self):
        # the complex-mu driving of a dressed phase can come out with an
        # imaginary part that is exactly zero; it must reach the solver as
        # its real part, with nothing written to stderr
        argv = [
            "exponents", "--zeta", "0.789666431334018pi", "--q", "0.10147423734577748",
            "--order", "32", "--v", "1.2409989270598085", "--rmax", "2",
            "--bound", "2", "--spin", "0",
        ]
        src = str(Path(xxzchain.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        proc = subprocess.run(
            [sys.executable, "-m", "xxzchain.cli"] + argv,
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)

    def test_missing_velocity(self, capsys):
        code, _, err = _run(
            capsys,
            ["exponents", "--zeta", "0.5365pi", "--q", "0.2"],
        )
        assert code == 2


class TestNoDiskState:
    def test_cache_interface_rejected_and_nothing_written(
        self, tmp_path_factory, monkeypatch, capsys
    ):
        home = tmp_path_factory.mktemp("home")
        env_dir = tmp_path_factory.mktemp("env-cache")
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XXZ_CACHE_DIR", str(env_dir))
        monkeypatch.chdir(home)
        cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
        cfg.write_text(f"zeta = 0.5365pi\nq = 0.2\ncache_dir = {env_dir}\n")
        point = ["--zeta", "0.5365pi", "--q", "0.2"]
        for argv in (
            ["cache", "list"],
            ["solve"] + point + ["--cache-dir", str(env_dir)],
            ["solve", "--config", str(cfg)],
        ):
            code, _, err = _run(capsys, argv)
            assert code == 2, argv
            assert json.loads(err)["error"] == "validation"
        small = ["--v", "0.6", "--rmax", "1", "--bound", "1", "--order", "24"]
        for argv in (["solve"] + point, ["exponents"] + point + small):
            code, _, _ = _run(capsys, argv)
            assert code == 0, argv
        assert list(home.iterdir()) == []
        assert list(env_dir.iterdir()) == []


class TestVerifyDispatch:
    def test_pass_and_exit_codes(self, capsys, monkeypatch):
        rows = [
            {"identity": "n2", "rel_diff": 1e-9, "params": {}},
            {"kind": "gaussian", "rel_diff": 1e-12},
            {"kind": "exponential", "matches_product": True},
        ]
        monkeypatch.setattr(
            cli.contours, "run_verification_suite", lambda slow=False: list(rows)
        )
        code, out, _ = _run(capsys, ["verify", "--suite", "quick"])
        assert code == 0
        assert all(row["pass"] for row in json.loads(out))

    def test_csv_header_is_the_union_of_row_keys(self, capsys, monkeypatch):
        rows = [
            {"identity": "n2", "label": "w1", "rel_diff": 1e-9},
            {"kind": "gaussian", "n": 2, "computed": 1.5, "closed_form": 1.5,
             "rel_diff": 1e-12},
        ]
        monkeypatch.setattr(
            cli.contours, "run_verification_suite", lambda slow=False: [dict(r) for r in rows]
        )
        code, out, _ = _run(capsys, ["verify", "--format", "csv"])
        assert code == 0
        header, *table = [line.split(",") for line in out.splitlines()]
        assert header == [
            "identity", "label", "rel_diff", "pass", "kind", "n", "computed", "closed_form",
        ]
        got = [dict(zip(header, cells)) for cells in table]
        assert [float(row.pop("rel_diff")) for row in got] == [1e-9, 1e-12]
        assert got == [
            {"identity": "n2", "label": "w1", "pass": "true",
             "kind": "", "n": "", "computed": "", "closed_form": ""},
            {"identity": "", "label": "", "pass": "true",
             "kind": "gaussian", "n": "2", "computed": "1.5", "closed_form": "1.5"},
        ]

    def test_failing_suite_exits_3(self, capsys, monkeypatch):
        rows = [{"identity": "n2", "rel_diff": 1e-3, "params": {}}]
        monkeypatch.setattr(
            cli.contours, "run_verification_suite", lambda slow=False: list(rows)
        )
        code, out, _ = _run(capsys, ["verify"])
        assert code == 3
        assert json.loads(out)[0]["pass"] is False
