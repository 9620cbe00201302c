"""The CLI command timed for ``cli_s``, one fixed command per workload.

The commands and their arguments do not depend on the seed: ``cli_s``
compares one command across commits, while the seeded inputs drive the
timed loop.  Each check reads what the command printed or
wrote and returns None when it is correct, else a one-line reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

from airyflow import bvp, field, flow


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]  # arguments after `airyflow`
    kind: str
    values: dict = dc_field(default_factory=dict)
    files: dict = dc_field(default_factory=dict)  # relative path -> text written before launch

    def check(self, stdout: str, workdir: Path) -> str | None:
        return CHECKS[self.kind](self, stdout, workdir)


def _stdout_values(stdout: str) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


def _params(v: dict) -> flow.FlowParams:
    return flow.FlowParams(nu=v["nu"], grad_term=v["grad_term"], f1=v["f1"], length=v["L"])


def _flow_argv(mode: str, v: dict) -> tuple[str, ...]:
    return (mode, "--nu", repr(v["nu"]), "--grad-term", repr(v["grad_term"]),
            "--f1", repr(v["f1"]), "--L", repr(v["L"]), "--u10", repr(v["u10"]))


def _check_bvp(case: CliCase, stdout: str, workdir: Path) -> str | None:
    v, out = case.values, _stdout_values(stdout)
    params = _params(v)
    consts = flow.derive_constants(params, float(out["c"])).with_coefficients(
        float(out["c1"]), float(out["c2"]))
    u_l = flow.exact_u1(params.length, params, consts)
    if abs(u_l - v["u1L"]) > bvp.ENDPOINT_RTOL * (1.0 + abs(v["u1L"])):
        return f"printed constants give u1(L)={u_l!r}, target {v['u1L']!r}"
    return None


def _check_ivp(case: CliCase, stdout: str, workdir: Path) -> str | None:
    lines = (workdir / case.values["emit"]).read_text().splitlines()
    if lines[0] != "s,u1" or len(lines) != 102:
        return "profile file is not a header plus 101 samples"
    u0 = float(lines[1].split(",")[1])
    if abs(u0 - case.values["u10"]) > 1e-9 * (1.0 + abs(case.values["u10"])):
        return f"profile starts at u1={u0!r}, not u10"
    return None


def _check_field(case: CliCase, stdout: str, workdir: Path) -> str | None:
    v = case.values
    blob = (workdir / v["output"]).read_bytes()
    back = field.parse(blob, v["format"])
    if field.emit(back, v["format"]) != blob:
        return "written field does not round-trip byte for byte"
    if len(back.samples) != v["nx"] * v["ny"]:
        return f"{len(back.samples)} samples written, grid has {v['nx'] * v['ny']}"
    return None


def _check_verify(case: CliCase, stdout: str, workdir: Path) -> str | None:
    return None if stdout.rstrip().endswith("all checks passed") else "verification failed"


CHECKS = {"bvp": _check_bvp, "ivp": _check_ivp, "field": _check_field, "verify": _check_verify}


def _bvp_case(nu, grad_term, f1, L, u10, u1L) -> CliCase:
    v = dict(nu=nu, grad_term=grad_term, f1=f1, L=L, u10=u10, u1L=u1L)
    return CliCase(_flow_argv("bvp", v) + ("--u1L", repr(u1L)), "bvp", v)


def _ivp_case(name, nu, grad_term, f1, L, u10, u1dot0) -> CliCase:
    v = dict(nu=nu, grad_term=grad_term, f1=f1, L=L, u10=u10, emit=f"{name}.csv")
    return CliCase(_flow_argv("ivp", v) + ("--u1dot0", repr(u1dot0), "--emit", v["emit"]),
                   "ivp", v)


def _field_case(name, family_lines, fmt, nx, ny) -> CliCase:
    v = dict(output=f"{name}.{fmt}", format=fmt, nx=nx, ny=ny)
    config = "\n".join([
        "nu = 1.0", "grad_term = -2.0", "f1 = 0.0", "length = 1.5",
        "u10 = 0.2", "u1dot0 = -0.3", *family_lines,
        "x_min = 0.0", "x_max = 1.5", "y_min = -1.0", "y_max = 1.0",
        f"nx = {nx}", f"ny = {ny}", f"output = {v['output']}", f"format = {fmt}",
    ]) + "\n"
    return CliCase(("field", "--config", f"{name}.cfg"), "field", v, {f"{name}.cfg": config})


CASES = {
    # the README example
    "shoot": _bvp_case(1.0, -2.0, 0.0, 1.0, 0.0, 0.25),
    "field": _field_case("field-sinusoidal", ["family = sinusoidal", "amplitude = 0.15",
                                              "wavenumber = 2.0"], "json", 16, 36),
    # low nu, t(s) crossing zero: two poles on [0, L]
    "lowvisc": _ivp_case("ivp-crossing", 0.04, -1.5, 0.0, 1.5, 0.3, 20.0),
    "verify": CliCase(("verify", "--seed", "0"), "verify"),
}
