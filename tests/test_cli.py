"""Command-line surface: output, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import airyflow
from airyflow.bvp import ENDPOINT_RTOL
from airyflow.cli import run
from airyflow.flow import FlowParams, constants_from_u0, exact_u1

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
        # Bi' leaves the double range first: Bi(104.3) = 4.47e307 is finite
        for t in ("1e+300", "104.3"):
            code, _, err = invoke(capsys, "airy", f"--t={t}")
            assert code == 1
            assert err == f"error: Bi' overflows double range at t = {t}\n"

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

    @pytest.mark.parametrize("mode,flow,a", [
        # 2 nu**2 underflows to 0
        ("ivp", ["--nu", "1e-200", "--grad-term", "-1", "--f1", "0"], "-inf"),
        ("bvp", ["--nu", "1e-200", "--grad-term", "-1", "--f1", "0"], "-inf"),
        # a overflows
        ("ivp", ["--nu", "1e-160", "--grad-term", "-1", "--f1", "0"], "-inf"),
        ("ivp", ["--nu", "1", "--grad-term", "-1e308", "--f1", "1e308"], "-inf"),
        # 2 nu**2 overflows and a rounds to -0.0, though grad_term != f1
        ("ivp", ["--nu", "1e200", "--grad-term", "-1", "--f1", "0"], "-0.0"),
    ])
    def test_unrepresentable_a_is_domain_error(self, capsys, mode, flow, a):
        last = ["--u1dot0", "0"] if mode == "ivp" else ["--u1L", "0"]
        code, out, err = invoke(capsys, mode, *flow, "--L", "1", "--u10", "0", *last)
        assert (code, out) == (1, "")
        assert err == f"error: model requires a finite nonzero a, got a = {a}\n"

    def test_emits_profile(self, capsys, tmp_path):
        out_path = tmp_path / "profile.csv"
        code, out, _ = invoke(capsys, *self.ARGS, "--emit", str(out_path), "--samples", "11")
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "s,u1"
        assert len(lines) == 12

    def test_pole_at_length(self, capsys, tmp_path):
        # L is the first pole that the ivp_poles golden case prints
        out_path = tmp_path / "prof.csv"
        code, out, err = invoke(capsys, "ivp", "--nu", "1", "--grad-term", "-2", "--f1", "0",
                                "--L", "0.65187033617918244", "--u10", "0", "--u1dot0", "12",
                                "--emit", str(out_path), "--samples", "5")
        assert (code, err) == (0, "")
        assert "u1(L)  = undefined (pole at L)\n" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 6 and lines[-1] == "0.65187033617918244,"

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
        from airyflow.bvp import InitialData, solve_ivp

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

    LOWVISC = ["--nu", "0.02", "--grad-term", "-1", "--f1", "0", "--L", "1"]

    def test_root_below_default_bracket(self, capsys):
        # the default bracket +-0.8 misses the root; it grows until it
        # holds it (the 40-digit oracle gives u1(L) = -1.9999999999999993
        # at this c, conditioned at 5.6)
        code, out, err = invoke(capsys, "bvp", *self.LOWVISC, "--u10", "0", "--u1L", "-2")
        assert (code, err) == (0, "")
        c = float(out.splitlines()[0].split("=")[1])
        assert c == pytest.approx(-1.0100253195940865, rel=1e-12, abs=0.0)

    def test_unreachable_target(self, capsys):
        # u1(L) jumps from about -1.24 to +inf within rounding of the pole
        # crossing, so no double c reaches u1(L) = 0
        code, out, err = invoke(capsys, "bvp", *self.LOWVISC, "--u10", "-2", "--u1L", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error: no c reaches u1(L) = 0.0: ") and err.count("\n") == 1

    def test_half_bracket_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            "bvp", "--nu", "1", "--grad-term", "-2", "--f1", "0", "--L", "1",
            "--u10", "0", "--u1L", "0", "--c-min", "0",
        )
        assert code == 2
        assert "c-min" in err and "c-max" in err


class TestDomainLimits:
    """Inputs that are finite but take the model out of range exit 1 with
    one `error:` line; only a non-finite flag is a usage error (exit 2)."""

    FLOW = ["--nu", "1", "--grad-term", "-2", "--f1", "0", "--L", "1"]

    @pytest.mark.parametrize("u1dot0", ["1e20", "1e250"])
    def test_unresolvable_phase(self, capsys, u1dot0):
        # t(0) = -u1dot0/2: z has ~2e9 zeros on [0, 1] at 1e20, where t(0)
        # and t(L) are one double and the pole count read "none"; 1e250
        # overflowed (-t)**1.5.  find_poles refuses both windows: their
        # zeros lie under 4 doubles of t apart
        code, _, err = invoke(capsys, "ivp", *self.FLOW, "--u10", "0", "--u1dot0", u1dot0)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,name", [
        (["ivp", *FLOW, "--u10", "1e200", "--u1dot0", "0"], "c"),
        (["bvp", *FLOW, "--u10", "1e160", "--u1L", "0"], "default c bracket half-width"),
        (["ivp", "--nu", "1e-150", "--grad-term", "-1e-300", "--f1", "0", "--L", "1",
          "--u10", "1e10", "--u1dot0", "0"], "b"),
        (["ivp", "--nu", "1", "--grad-term", "-2e-300", "--f1", "0", "--L", "1",
          "--u10", "0", "--u1dot0", "1e200"], "t(0)"),
        (["ivp", "--nu", "4.574", "--grad-term", "-2.34e203", "--f1", "0", "--L", "3.42e277",
          "--u10", "-2.35", "--u1dot0", "0"], "t(L)"),
    ])
    def test_derived_value_out_of_range(self, capsys, argv, name):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {name} leaves the double range: ")
        assert err.count("\n") == 1

    def test_pole_band_inside_newton(self, capsys):
        # a Newton shot with z(L) in the pole band used to divide by zero,
        # and then met AiryOverflowError from its start at t(0) = 91.8; the
        # root is c = -17.23340320023033 (tests/test_domain.py GATE_C)
        code, out, err = invoke(capsys, "bvp", *self.FLOW, "--u10", "4", "--u1L", "-6")
        assert (code, err) == (0, "")
        c = float(out.splitlines()[0].split("=")[1])
        assert abs(c - -17.23340320023033) <= 1e-8

    def test_pole_at_origin(self, capsys):
        # c = 2**93 - (2**47)**2 / 2 is exactly 0, and u1(0) = 2**47 lies in
        # the pole band of z(0)
        code, out, err = invoke(capsys, "ivp", *self.FLOW, "--u10", "140737488355328",
                                "--u1dot0", "9903520314283042199192993792")
        assert (code, out) == (1, "")
        assert err == ("error: denominator vanishes near s = 0.0 "
                       "(nearest pole at s = 1.4116519281736767e-14)\n")

    def test_t0_past_unscaled_range(self, capsys):
        # t(0) = 80: the plain (c1, c2) pair has c2 = 0 there, and u1(0)
        # printed 17.894788372255412; the 40-digit oracle gives u1(L)
        code, out, err = invoke(capsys, "ivp", *self.FLOW, "--u10", "1", "--u1dot0", "-159.5")
        assert (code, err) == (0, "")
        fields = {k.strip(): v for k, _, v in (ln.partition("=") for ln in out.splitlines())}
        assert abs(float(fields["u1(0)"]) - 1.0) <= ENDPOINT_RTOL * 2.0
        assert float(fields["u1(L)"]) == pytest.approx(-17.993821209491927, rel=1e-12, abs=0.0)

    def test_domain_error_leaves_no_partial_report(self, capsys):
        # find_poles refuses the window at t(0) = -5e249, whose zeros lie
        # under 4 doubles of t apart, after every other value of the report
        # is known
        code, out, err = invoke(capsys, "ivp", *self.FLOW, "--u10", "0", "--u1dot0", "1e250")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("u1dot0,n_poles", [("1e6", 225), ("-2e26", 0)])
    def test_far_out_ivp_solves(self, capsys, u1dot0, n_poles):
        # t(0) = -5e5 (225 zeros of z in [0, 1], which Newton used to fail
        # to converge on) and t(0) = 1e26 (z(0) is the Wronskian, which the
        # old pole band's envelope flagged): neither is a pole at s = 0
        code, out, err = invoke(capsys, "ivp", *self.FLOW, "--u10", "0", "--u1dot0", u1dot0)
        assert (code, err) == (0, "")
        fields = {k.strip(): v for k, _, v in (ln.partition("=") for ln in out.splitlines())}
        assert float(fields["u1(0)"]) == 0.0
        poles = fields["poles"].split()
        assert (0 if poles == ["none"] else len(poles)) == n_poles

    def test_far_phase_is_refused_not_a_pole(self, capsys):
        # u1(0) = 0 at t(0) = -5e249; the old pole band reported
        # "denominator vanishes near s = 0.0"
        code, out, err = invoke(capsys, "ivp", *self.FLOW, "--u10", "0", "--u1dot0", "1e250")
        assert (code, out) == (1, "")
        assert err == ("error: the zeros of z lie under 4 doubles of t apart at t = -5e+249, "
                       "too close to tell apart\n")

    @pytest.mark.parametrize("u1L", ["-2e6", "-1e7"])
    def test_large_target_on_default_bracket(self, capsys, u1L):
        # the root has t(0) > 0, but the default bracket's first probe sits
        # at t(0) ~ -2e12, whose pole count used to be refused (exit 1)
        code, out, err = invoke(capsys, "bvp", *self.FLOW, "--u10", "0", "--u1L", u1L)
        assert (code, err) == (0, "")
        c = float(out.splitlines()[0].split("=")[1])
        params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        consts, _ = constants_from_u0(params, c, 0.0)
        u1 = exact_u1(1.0, params, consts)
        assert abs(u1 - float(u1L)) <= ENDPOINT_RTOL * (1.0 + abs(float(u1L)))

    @pytest.mark.parametrize("flags,poles", [
        ("0.3640528658860305 2.557000458162629 2.8428289815780685 6.027795966381183e+94 "
         "2.4402004600018437 1.409428943065965", [0.5085848723055636]),
        ("2.9267022192955983 -2.649659748407981e-57 2.917335455870859 8.963255510425126e+189 "
         "9.497178314795013e-146 2.184334515388234", [3.459229610848007]),
        ("3.1125420560124817 -2.875639391490136 2.509515386695086 9.435168210326768e+177 "
         "4.05700513408804e-88 2.9323829029359647", [3.4596131625177944]),
        ("4.653692423356214 -3.820844985913653 9.467918671895553e-23 5.291054295522704e+180 "
         "-0.2252468608873146 2.5202520085501288", [3.970187388161192]),
        ("4.269756209935142 -2.377197894345043 -0.4594387118785592 4.0103121508030196e+176 "
         "8.018210929468252e-141 4.210874135260784", [2.3237833814798834, 9.54837846810613]),
        ("3.878827459259849 -2.2703012439197066 -9.759406880127489e-157 7.84730621439211e+93 "
         "2.6595311700036746 1.54762817249971", [2.695364975206871]),
    ])
    def test_far_out_zero_on_positive_t(self, capsys, flags, poles):
        # the window runs out to t(L) ~ 1e93 or more; Newton on the zero on
        # t > 0 started at s_hi, divided its distance by about 3 a step and
        # ran out of iterations (the first case ended "Newton iteration on
        # [0.0, 0.5088111930769772] did not converge"); the poles are the
        # 60-digit mpmath zeros of z on the constants solve_ivp returns
        names = ("--nu", "--grad-term", "--f1", "--L", "--u10", "--u1dot0")
        argv = [x for pair in zip(names, flags.split()) for x in pair]
        code, out, err = invoke(capsys, "ivp", *argv)
        assert (code, err) == (0, "")
        got = [float(p) for p in out.split("poles  = ")[1].split()]
        assert got == pytest.approx(poles, rel=1e-12, abs=0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "Newton on the angle creeps far out in c: between the bracket ends 4.96e49 and "
        "8.27e49 the residual stays at 1.364 while the slope reads 2.8e-47, so each iterate "
        "moves only 4.8e46, about 1e-3 of the bracket; _newton_root bisects only when a "
        "step leaves the bracket, so its 200 in-bracket steps end at 5.66e49 and raise "
        "NoConvergenceError"))
    def test_bvp_newton_far_out_in_c(self, capsys):
        code, _, err = invoke(capsys, "bvp", "--nu", "7.283953125305161e+46",
                              "--grad-term", "1.4617396660854514", "--f1", "4.013044079898927e+39",
                              "--L", "2.0720687077791506", "--u10", "3.154416590817864e-32",
                              "--u1L", "-4.764150300708206")
        assert code == 0 or (code == 1 and err.startswith("error: no c reaches u1(L) = "))

    def test_constants_that_miss_u10_are_refused(self, capsys):
        # u1 = -2 nu (-a)**(1/3) z_t/z multiplies the rounding of the pair by
        # ~1e20: these constants give u1(0) = 7164.95..., which was printed
        code, out, err = invoke(capsys, "ivp", "--nu", "1", "--grad-term", "-1e60", "--f1", "0",
                                "--L", "1e-20", "--u10", "1", "--u1dot0", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error: the constants miss u1(0) = 1.0: they give 7164.95")


def fuzz_value(rng, positive=False):
    """Half the time uniform on [-5, 5], else +-m 10**e with m uniform on
    [1, 10) and e on [-300, 300]."""
    if rng.random() < 0.5:
        value = rng.uniform(-5.0, 5.0)
    else:
        value = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 300)
    return abs(value) if positive else value


def test_fuzzed_solves_never_raise(capsys):
    rng = random.Random(7)
    for _ in range(1000):
        mode = rng.choice(("ivp", "bvp"))
        flags = ("--nu", "--grad-term", "--f1", "--L", "--u10",
                 "--u1dot0" if mode == "ivp" else "--u1L")
        argv = [mode]
        for flag in flags:
            argv += [flag, repr(fuzz_value(rng, positive=flag in ("--nu", "--L")))]
        try:
            code = run(argv)
        except Exception as exc:  # any escape is the failure
            pytest.fail(f"{' '.join(argv)} raised {exc!r}")
        out = capsys.readouterr().out
        assert code in (0, 1, 2), argv
        if mode == "ivp" and code == 0:  # an answer meets u1(0) or is not given
            u10 = float(argv[argv.index("--u10") + 1])
            u1 = float(out.split("u1(0)  = ")[1].split("\n")[0])
            assert abs(u1 - u10) <= ENDPOINT_RTOL * (1.0 + abs(u10)), argv


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
        # pressure_q0 and pressure_qdot too: no output read them
        for key in ("bogus", "pressure_q0", "pressure_qdot"):
            cfg, _ = self.write_config(tmp_path, extra=f"{key} = 1\n")
            code, _, err = invoke(capsys, "field", "--config", str(cfg))
            assert code == 2
            assert f"unknown key {key!r}" in err

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

    @pytest.mark.parametrize(
        "family, key",
        [
            ("family = straight\nslope = 0.5\n", "amplitude"),
            ("family = sinusoidal\namplitude = 0.1\nwavenumber = 3.0\n", "coeffs"),
            ("family = polynomial\ncoeffs = 0,1\n", "slope"),
        ],
        ids=["straight", "sinusoidal", "polynomial"],
    )
    def test_other_family_key_rejected(self, capsys, tmp_path, family, key):
        cfg, out_file = self.write_config(tmp_path, extra=f"{key} = 1\n")
        sinusoidal = "family = sinusoidal\namplitude = 0.1\nwavenumber = 3.141592653589793\n"
        cfg.write_text(cfg.read_text().replace(sinusoidal, family))
        code, out, err = invoke(capsys, "field", "--config", str(cfg))
        kind = family.split()[2]
        assert (code, err) == (2, f"error: key {key!r} does not belong to family {kind!r}\n")
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "nonsense line\n",
         "line 19: expected 'key = value', got 'nonsense line'"),
        (lambda text: text + "nu = 2.0\n", "line 19: duplicate key 'nu'"),
        (lambda text: text.replace("family = sinusoidal", "family = spiral"),
         "family must be straight|sinusoidal|polynomial, got 'spiral'"),
        (lambda text: text.replace("format = csv", "format = xml"),
         "format must be csv or json, got 'xml'"),
        (lambda text: text.replace("y_min = -1.0", "y_min = -1e308")
         .replace("y_max = 1.0", "y_max = 1e308"),
         "grid y nodes must be finite and distinct"),
    ], ids=["not_key_value", "duplicate_key", "unknown_family", "unknown_format",
            "y_span_overflows"])
    def test_config_error_writes_nothing(self, capsys, tmp_path, edit, message):
        cfg, _ = self.write_config(tmp_path)
        cfg.write_text(edit(cfg.read_text()))
        code, out, err = invoke(capsys, "field", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [cfg]

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

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        from airyflow import verify

        monkeypatch.setattr(verify, "check_wronskian", lambda: 1.0)
        code, out, err = invoke(capsys, "verify", "--seed", "0")
        assert code == 1
        assert "FAIL airy_wronskian_sweep max_residual=1.000000e+00 tol=1e-10\n" in out
        assert "all checks passed" not in out
        assert err == "verification FAILED\n"

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
    # numpy comes in only when a caller asks for a public Trajectory: the
    # oracle suite, which has the one import path airyflow.verify, runs its
    # RK4 on lists; and decimal never: the Airy kernel reduces its phase
    # in integers
    probe = (
        "import sys, airyflow, airyflow.cli\n"
        "print('numpy' in sys.modules, 'airyflow.verify' in sys.modules,"
        " 'decimal' in sys.modules, hasattr(airyflow, 'run_verification'))\n"
        "import airyflow.verify\n"
        "print('numpy' in sys.modules, 'decimal' in sys.modules,"
        " hasattr(airyflow, 'run_verification'))\n"
        "from airyflow.verify import integrate_riccati, run_verification\n"
        "assert run_verification(0).all_passed\n"
        "print('numpy' in sys.modules)\n"
        "integrate_riccati(airyflow.flow.FlowParams(1.0, -2.0, 0.0, 1.0), 0.0, 0.0, 1.0, 0.1)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(airyflow.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.split() == ["False", "False", "False", "False", "False", "False", "False",
                           "False", "True"]


def test_bvp_launch_leaves_field_layer_unloaded():
    # the package root re-exports no name: the field layer (field.py, json)
    # is the plain submodule airyflow.field, which neither a bvp launch nor
    # a star import loads
    probe = (
        "import sys, airyflow, airyflow.cli\n"
        "code = airyflow.cli.run(['bvp', '--nu', '1', '--grad-term', '-2', '--f1', '0',"
        " '--L', '1', '--u10', '0', '--u1L', '0.25'])\n"
        "print(code, 'airyflow.field' in sys.modules, 'json' in sys.modules)\n"
        "ns = {}\n"
        "exec('from airyflow import *', ns)\n"
        "print('solve_bvp' in ns, hasattr(airyflow, 'solve_bvp'),"
        " 'airyflow.field' in sys.modules, 'json' in sys.modules)\n"
        "from airyflow import field\n"
        "print(field is sys.modules['airyflow.field'], airyflow.field is field,"
        " 'json' in sys.modules)\n"
    )
    src = str(Path(airyflow.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    lines = out.splitlines()
    assert lines[0] == "c       = 1.2035028197303357"
    assert lines[-3:] == ["0 False False", "False False False False", "True True True"]
