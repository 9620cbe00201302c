"""Command-line surface: evaluation, solving, verification, field export.

Subcommands
-----------
airy    print Ai, Bi, Ai', Bi' at one argument
ivp     solve for the constants from u1(0), u1'(0); report u1(L) and poles
bvp     recover the Riccati constant by shooting on u1(L)
field   reconstruct a sampled 2D field from a key=value config file
verify  run the numerical oracle suite and print a pass/fail report

Each subcommand's driver reads the parsed flags directly and validates
them before any computation.  Exit codes: 0 success, 1 domain errors
(a >= 0, poles, no usable root, failed verification), 2 usage/config
errors (a bad flag such as `ivp --samples` below 2, a bad or unreadable
config file, an output path that cannot be written).  All floating-point
output uses 17 significant digits, so identical invocations print
identical bytes; --seed only affects the randomized cases inside `verify`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from pathlib import Path

from . import field as field_mod
from .airy import airy_eval
from .bvp import InitialData, solve_bvp, solve_ivp
from .errors import FlowDomainError, PoleError
from .field import _fmt
from .flow import FlowParams, _require_finite, exact_u1, exact_u1_derivative, find_poles

USAGE_EXIT = 2
DOMAIN_EXIT = 1


def _params_from_args(args) -> FlowParams:
    return FlowParams(
        nu=_require_finite("--nu", args.nu),
        grad_term=_require_finite("--grad-term", args.grad_term),
        f1=_require_finite("--f1", args.f1),
        length=_require_finite("--L", args.L),
    )


# ---------------------------------------------------------------------------
# field config file: flat `key = value` lines, '#' comments, unknown keys
# are errors.

_REQUIRED_FIELD_KEYS = (
    "nu", "grad_term", "f1", "length", "u10", "u1dot0", "family",
    "x_min", "x_max", "y_min", "y_max", "nx", "ny", "output", "format",
)
_OPTIONAL_FIELD_KEYS = (
    "slope", "amplitude", "wavenumber", "coeffs",
    "pressure_q0", "pressure_qdot", "gnuplot_script",
)


def parse_field_config(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    known = set(_REQUIRED_FIELD_KEYS) | set(_OPTIONAL_FIELD_KEYS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    missing = [k for k in _REQUIRED_FIELD_KEYS if k not in entries]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    return entries


def config_from_file(path: Path):
    """(params, data, family, grid, pressure, output, format, gnuplot
    script path or None) from a field config file."""
    entries = parse_field_config(path.read_text())

    def text(key: str) -> str:
        # parse_field_config checks only the required keys, not the family's
        if key not in entries:
            raise ValueError(f"missing key {key!r}")
        return entries[key]

    def num(key: str) -> float:
        return _require_finite(key, float(text(key)))

    params = FlowParams(nu=num("nu"), grad_term=num("grad_term"), f1=num("f1"),
                        length=num("length"))
    data = InitialData(u10=num("u10"), u1dot0=num("u1dot0"))
    grid = field_mod.GridSpec(
        x_min=num("x_min"),
        x_max=num("x_max"),
        y_min=num("y_min"),
        y_max=num("y_max"),
        nx=int(entries["nx"]),
        ny=int(entries["ny"]),
    )
    fmt = entries["format"]
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if ("pressure_q0" in entries) != ("pressure_qdot" in entries):
        raise ValueError("pressure_q0 and pressure_qdot must be given together")
    pressure = (num("pressure_q0"), num("pressure_qdot")) if "pressure_q0" in entries else None
    gnuplot = Path(entries["gnuplot_script"]) if "gnuplot_script" in entries else None
    kind = entries["family"]
    if kind == "straight":
        family = field_mod.StreamlineFamily.straight(num("slope"))
    elif kind == "sinusoidal":
        family = field_mod.StreamlineFamily.sinusoidal(num("amplitude"), num("wavenumber"))
    elif kind == "polynomial":
        family = field_mod.StreamlineFamily.polynomial(
            [_require_finite("coeffs", float(tok)) for tok in text("coeffs").split(",")]
        )
    else:
        raise ValueError(f"family must be straight|sinusoidal|polynomial, got {kind!r}")
    return params, data, family, grid, pressure, Path(entries["output"]), fmt, gnuplot


# ---------------------------------------------------------------------------
# subcommand drivers

def _run_airy(args) -> int:
    q = airy_eval(_require_finite("--t", args.t))
    print(f"t        = {_fmt(q.t)}")
    print(f"Ai(t)    = {_fmt(q.ai)}")
    print(f"Bi(t)    = {_fmt(q.bi)}")
    print(f"Ai'(t)   = {_fmt(q.ai_prime)}")
    print(f"Bi'(t)   = {_fmt(q.bi_prime)}")
    return 0


def _run_ivp(args) -> int:
    params = _params_from_args(args)
    data = InitialData(u10=_require_finite("--u10", args.u10),
                       u1dot0=_require_finite("--u1dot0", args.u1dot0))
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    consts = solve_ivp(data, params)
    print(f"a      = {_fmt(consts.a)}")
    print(f"b      = {_fmt(consts.b)}")
    print(f"c      = {_fmt(consts.c)}")
    print(f"c1     = {_fmt(consts.c1)}")
    print(f"c2     = {_fmt(consts.c2)}")
    print(f"u1(0)  = {_fmt(exact_u1(0.0, params, consts))}")
    print(f"u1'(0) = {_fmt(exact_u1_derivative(0.0, params, consts))}")
    try:
        print(f"u1(L)  = {_fmt(exact_u1(params.length, params, consts))}")
    except PoleError:
        print("u1(L)  = undefined (pole at L)")
    poles = find_poles(consts, 0.0, params.length)
    if poles:
        print("poles  = " + " ".join(_fmt(p) for p in poles))
    else:
        print("poles  = none")
    if args.emit is not None:
        _emit_profile(args.emit, params, consts, args.samples)
        print(f"profile written to {args.emit}")
    return 0


def _emit_profile(path: Path, params: FlowParams, consts, n: int) -> None:
    lines = ["s,u1"]
    for i in range(n):
        s = params.length * i / (n - 1)
        try:
            lines.append(f"{_fmt(s)},{_fmt(exact_u1(s, params, consts))}")
        except PoleError:
            lines.append(f"{_fmt(s)},")
    path.write_text("\n".join(lines) + "\n")


def _run_bvp(args) -> int:
    if (args.c_min is None) != (args.c_max is None):
        raise ValueError("--c-min and --c-max must be given together")
    bracket = None
    if args.c_min is not None:
        bracket = (_require_finite("--c-min", args.c_min),
                   _require_finite("--c-max", args.c_max))
    params = _params_from_args(args)
    u10 = _require_finite("--u10", args.u10)
    sol = solve_bvp(u10, _require_finite("--u1L", args.u1L), params, bracket)
    print(f"c       = {_fmt(sol.c)}")
    print(f"u1'(0)  = {_fmt(sol.initial_slope)}")
    print(f"residual= {_fmt(sol.endpoint_residual)}")
    print(f"c1      = {_fmt(sol.constants.c1)}")
    print(f"c2      = {_fmt(sol.constants.c2)}")
    print("roots   = " + " ".join(_fmt(r) for r in sol.roots))
    print(f"excluded_candidates = {sol.excluded_candidates}")
    return 0


def _run_field(args) -> int:
    params, data, family, grid, pressure, output, fmt, gnuplot = config_from_file(args.config)
    consts = solve_ivp(data, params)
    sampled = field_mod.reconstruct_field(family, params, consts, grid, pressure=pressure)
    output.write_bytes(field_mod.emit(sampled, fmt))
    n_invalid = sum(1 for sm in sampled.samples if not sm.valid)
    print(f"wrote {output} ({len(sampled.samples)} samples, {n_invalid} at poles)")
    if gnuplot is not None:
        gnuplot.write_text(field_mod.gnuplot_script(str(output)))
        print(f"wrote {gnuplot}")
    return 0


def _run_verify(args) -> int:
    from .verify import run_verification  # numpy loads only for this command

    report = run_verification(seed=args.seed)
    for line in report.format_lines():
        print(line)
    if report.all_passed:
        print("all checks passed")
        return 0
    print("verification FAILED", file=sys.stderr)
    return DOMAIN_EXIT


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airyflow",
        description="Closed-form Airy-function velocity profiles along streamlines.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p_airy = sub.add_parser("airy", help="evaluate Ai, Bi, Ai', Bi'")
    p_airy.add_argument("--t", type=float, required=True)
    p_airy.set_defaults(run=_run_airy)

    def add_flow_args(p):
        p.add_argument("--nu", type=float, required=True)
        p.add_argument("--grad-term", dest="grad_term", type=float, required=True)
        p.add_argument("--f1", type=float, required=True)
        p.add_argument("--L", type=float, required=True)
        p.add_argument("--u10", type=float, required=True)

    p_ivp = sub.add_parser("ivp", help="constants from u1(0), u1'(0)")
    add_flow_args(p_ivp)
    p_ivp.add_argument("--u1dot0", type=float, required=True)
    p_ivp.add_argument("--emit", type=Path, default=None, metavar="PATH")
    p_ivp.add_argument("--samples", type=int, default=101)
    p_ivp.set_defaults(run=_run_ivp)

    p_bvp = sub.add_parser("bvp", help="shoot on c for u1(L)")
    add_flow_args(p_bvp)
    p_bvp.add_argument("--u1L", type=float, required=True)
    p_bvp.add_argument("--c-min", dest="c_min", type=float, default=None)
    p_bvp.add_argument("--c-max", dest="c_max", type=float, default=None)
    p_bvp.set_defaults(run=_run_bvp)

    p_field = sub.add_parser("field", help="reconstruct and emit a sampled field")
    p_field.add_argument("--config", type=Path, required=True)
    p_field.set_defaults(run=_run_field)

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(run=_run_verify)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """`--flag -1e5` as `--flag=-1e5`: argparse takes a negative number for
    a value only as -1 or -.5.  Every long flag but --help takes a value."""
    out: list[str] = []
    for tok in argv:
        flag = out[-1] if out and out[-1].startswith("--") else ""
        if tok.startswith("-") and flag not in ("", "--", "--help") and "=" not in flag:
            with suppress(ValueError):  # join only tokens that read as a float
                float(tok)
                out[-1] = f"{flag}={tok}"
                continue
        out.append(tok)
    return out


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.run(args)
    except FlowDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except (ValueError, OSError) as exc:  # bad flags or config, unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
