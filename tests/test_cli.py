"""Command-line surface: output, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import airyflow
from airyflow.cli import run

# 17-significant-digit renderings of the correctly-rounded doubles
AI_0 = "0.35502805388781722"
BI_0 = "0.61492662744600068"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAiry:
    def test_prints_quartet_at_zero(self, capsys):
        code, out, _ = invoke(capsys, "airy", "--t", "0")
        assert code == 0
        assert f"Ai(t)    = {AI_0}" in out
        assert f"Bi(t)    = {BI_0}" in out
        assert "Ai'(t)   = -0.25881940379280682" in out
        assert "Bi'(t)   = 0.44828835735382638" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = invoke(capsys, "airy", "--t", "-7.25")
        _, out2, _ = invoke(capsys, "airy", "--t", "-7.25")
        assert out1 == out2

    def test_nonfinite_rejected(self, capsys):
        code, _, err = invoke(capsys, "airy", "--t", "nan")
        assert code == 2
        assert "finite" in err

    def test_overflow_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "airy", "--t", "200")
        assert code == 1
        assert "overflow" in err.lower() or "Bi" in err

    def test_far_positive_overflow_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "airy", "--t=1e300")
        assert code == 1
        assert err == "error: Bi overflows double range at t = 1e+300\n"

    def test_far_negative_argument_evaluates(self, capsys):
        code, out, _ = invoke(capsys, "airy", "--t=-1e300")
        assert code == 0
        assert out.startswith("t        = -1.0000000000000001e+300\n")


class TestNegativeExponentValues:
    """`--flag -1e5` reads as `--flag=-1e5`, though argparse alone takes a
    negative number for a value only as -1 or -.5."""

    FLOW = ["--nu", "1", "--grad-term", "-2", "--f1", "0", "--L", "2", "--u10", "0"]

    @pytest.mark.parametrize("spaced,joined", [
        (["airy", "--t", "-1e5"], ["airy", "--t=-1e5"]),
        (["ivp", *FLOW, "--u1dot0", "-1.595e2"], ["ivp", *FLOW, "--u1dot0=-1.595e2"]),
        (["bvp", *FLOW, "--u1L", "0.2", "--c-min", "-1e1", "--c-max", "1e1"],
         ["bvp", *FLOW, "--u1L", "0.2", "--c-min=-1e1", "--c-max", "1e1"]),
    ])
    def test_same_output_as_equals_form(self, capsys, spaced, joined):
        code, out, err = invoke(capsys, *spaced)
        assert (code, out, err) == invoke(capsys, *joined)
        assert code == 0 and out

    def test_negative_infinity_reaches_finiteness_check(self, capsys):
        code, _, err = invoke(capsys, "airy", "--t", "-inf")
        assert code == 2
        assert err == "error: --t must be finite, got -inf\n"

    def test_non_numeric_value_untouched(self, capsys):
        code, _, err = invoke(capsys, "airy", "--t", "-x")
        assert code == 2
        assert "expected one argument" in err


class TestIvp:
    ARGS = [
        "ivp", "--nu", "1", "--grad-term", "-2", "--f1", "0",
        "--L", "2", "--u10", "0", "--u1dot0", "-2",
    ]

    def test_reports_constants_and_poles(self, capsys):
        code, out, _ = invoke(capsys, *self.ARGS)
        assert code == 0
        assert "c      = -2" in out
        assert "a      = -1" in out
        assert "u1(0)  = " in out
        assert "u1'(0) = -2" in out
        assert "poles  = " in out

    def test_invalid_model_names_condition(self, capsys):
        code, _, err = invoke(
            capsys,
            "ivp", "--nu", "1", "--grad-term", "0.5", "--f1", "0.5",
            "--L", "1", "--u10", "0", "--u1dot0", "0",
        )
        assert code == 1
        assert "a" in err and "0" in err

    def test_emits_profile(self, capsys, tmp_path):
        out_path = tmp_path / "profile.csv"
        code, out, _ = invoke(capsys, *self.ARGS, "--emit", str(out_path), "--samples", "11")
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "s,u1"
        assert len(lines) == 12

    def test_missing_required_flag(self, capsys):
        code, _, _ = invoke(capsys, "ivp", "--nu", "1")
        assert code == 2

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_samples_below_two_rejected(self, capsys, tmp_path, samples):
        out_path = tmp_path / "profile.csv"
        code, out, err = invoke(capsys, *self.ARGS, "--emit", str(out_path), "--samples", samples)
        assert code == 2
        assert err.startswith("error:") and "--samples" in err
        assert out == "" and not out_path.exists()

    def test_unwritable_emit_path(self, capsys, tmp_path):
        code, _, err = invoke(capsys, *self.ARGS, "--emit", str(tmp_path / "no" / "p.csv"))
        assert code == 2
        assert err.startswith("error:")


class TestBvp:
    def test_roundtrip_via_cli(self, capsys):
        # forward: ivp with known c = -0.5; read u1
        from airyflow import FlowParams, InitialData, exact_u1, solve_ivp

        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        consts = solve_ivp(InitialData(u10=0.1, u1dot0=-0.495), p)
        u1L = exact_u1(1.0, p, consts)
        code, out, _ = invoke(
            capsys,
            "bvp", "--nu", "1", "--grad-term", "-2", "--f1", "0", "--L", "1",
            "--u10", "0.1", "--u1L", format(u1L, ".17g"),
        )
        assert code == 0
        c_line = [ln for ln in out.splitlines() if ln.startswith("c  ")][0]
        assert abs(float(c_line.split("=")[1]) - consts.c) <= 1e-8
        assert "roots   = " in out

    def test_no_sign_change_exit_code(self, capsys):
        code, _, err = invoke(
            capsys,
            "bvp", "--nu", "1", "--grad-term", "-2", "--f1", "0", "--L", "1",
            "--u10", "0", "--u1L", "5", "--c-min", "0", "--c-max", "1",
        )
        assert code == 1
        assert "sign change" in err

    def test_half_bracket_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            "bvp", "--nu", "1", "--grad-term", "-2", "--f1", "0", "--L", "1",
            "--u10", "0", "--u1L", "0", "--c-min", "0",
        )
        assert code == 2
        assert "c-min" in err and "c-max" in err


FIELD_CONFIG = """\
# reconstruction of a sinusoidal family
nu = 1.0
grad_term = -2.0
f1 = 0.0
length = 1.5
u10 = 0.2
u1dot0 = -0.4
family = sinusoidal
amplitude = 0.1
wavenumber = 3.141592653589793
x_min = 0.0
x_max = 1.5
y_min = -1.0
y_max = 1.0
nx = 8
ny = 5
output = {output}
format = {fmt}
"""


class TestField:
    def write_config(self, tmp_path, fmt="csv", extra=""):
        out_file = tmp_path / f"field.{fmt}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FIELD_CONFIG.format(output=out_file, fmt=fmt) + extra)
        return cfg, out_file

    def test_writes_csv(self, capsys, tmp_path):
        cfg, out_file = self.write_config(tmp_path)
        code, out, _ = invoke(capsys, "field", "--config", str(cfg))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "s,x,y,u1,u2,valid"
        assert len(lines) == 1 + 40

    def test_writes_json_and_gnuplot(self, capsys, tmp_path):
        gp = tmp_path / "plot.gp"
        cfg, out_file = self.write_config(
            tmp_path, fmt="json", extra=f"gnuplot_script = {gp}\n"
        )
        code, out, _ = invoke(capsys, "field", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["grid"]["nx"] == 8
        assert gp.read_text().startswith("#")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg, _ = self.write_config(tmp_path, extra="bogus = 1\n")
        code, _, err = invoke(capsys, "field", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_missing_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = 1.0\n")
        code, _, err = invoke(capsys, "field", "--config", str(cfg))
        assert code == 2
        assert "missing" in err

    @pytest.mark.parametrize(
        "family, missing",
        [
            ("family = straight\n", "slope"),
            ("family = sinusoidal\namplitude = 0.1\n", "wavenumber"),
            ("family = polynomial\n", "coeffs"),
        ],
        ids=["straight", "sinusoidal", "polynomial"],
    )
    def test_missing_family_key_rejected(self, capsys, tmp_path, family, missing):
        cfg, out_file = self.write_config(tmp_path)
        sinusoidal = "family = sinusoidal\namplitude = 0.1\nwavenumber = 3.141592653589793\n"
        cfg.write_text(cfg.read_text().replace(sinusoidal, family))
        code, out, err = invoke(capsys, "field", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and "missing" in err and missing in err
        assert out == "" and not out_file.exists()

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "field", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_unwritable_output(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FIELD_CONFIG.format(output=tmp_path / "no" / "field.csv", fmt="csv"))
        code, _, err = invoke(capsys, "field", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:")

    def test_unwritable_gnuplot_script(self, capsys, tmp_path):
        cfg, out_file = self.write_config(
            tmp_path, extra=f"gnuplot_script = {tmp_path / 'no' / 'plot.gp'}\n"
        )
        code, _, err = invoke(capsys, "field", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:")
        assert out_file.exists()  # the field itself was written first


class TestVerify:
    def test_report_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--seed", "0")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 15
        assert all(ln.startswith("PASS") for ln in lines)
        assert "all checks passed" in out

    def test_seed_changes_cases_not_format(self, capsys):
        _, out1, _ = invoke(capsys, "verify", "--seed", "3")
        _, out1_again, _ = invoke(capsys, "verify", "--seed", "3")
        assert out1 == out1_again


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert invoke(capsys, *[])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2


def test_import_leaves_numpy_unloaded():
    # numpy (most of the import time) comes in only with the verify module,
    # and decimal never: the Airy kernel reduces its phase in integers
    probe = (
        "import sys, airyflow, airyflow.cli\n"
        "print('numpy' in sys.modules, 'airyflow.verify' in sys.modules)\n"
        "airyflow.run_verification\n"
        "print('numpy' in sys.modules, 'decimal' in sys.modules)\n"
    )
    src = str(Path(airyflow.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.split() == ["False", "False", "True", "False"]
