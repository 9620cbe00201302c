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

from .airy import airy_eval
from .bvp import InitialData, solve_bvp, solve_ivp
from .errors import FlowDomainError, PoleError
from .flow import FlowParams, _fmt, _require_finite, exact_u1, exact_u1_derivative, find_poles

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


def _finite(key: str, value: str) -> float:
    return _require_finite(key, float(value))


# each family's keys and the reader of each value, in the order that its
# constructor, the StreamlineFamily method named after it, takes them
_FAMILIES = {
    "straight": {"slope": _finite},
    "sinusoidal": {"amplitude": _finite, "wavenumber": _finite},
    "polynomial": {"coeffs": lambda key, value: [_finite(key, tok) for tok in value.split(",")]},
}


def parse_field_config(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    family_keys = {key for keys in _FAMILIES.values() for key in keys}
    known = {*_REQUIRED_FIELD_KEYS, *family_keys, "gnuplot_script"}
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
    kind = entries.get("family")
    missing = [k for k in (*_REQUIRED_FIELD_KEYS, *_FAMILIES.get(kind, ())) if k not in entries]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    if kind not in _FAMILIES:
        raise ValueError(f"family must be {'|'.join(_FAMILIES)}, got {kind!r}")
    foreign = [k for k in entries if k in family_keys and k not in _FAMILIES[kind]]
    if foreign:
        raise ValueError(f"key {foreign[0]!r} does not belong to family {kind!r}")
    return entries


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
    c1, c2 = consts.coefficients
    try:
        u1L = _fmt(exact_u1(params.length, params, consts))
    except PoleError:
        u1L = "undefined (pole at L)"
    poles = find_poles(consts, 0.0, params.length)
    lines = [
        f"a      = {_fmt(consts.a)}",
        f"b      = {_fmt(consts.b)}",
        f"c      = {_fmt(consts.c)}",
        f"c1     = {_fmt(c1)}",
        f"c2     = {_fmt(c2)}",
        f"u1(0)  = {_fmt(exact_u1(0.0, params, consts))}",
        f"u1'(0) = {_fmt(exact_u1_derivative(0.0, params, consts))}",
        f"u1(L)  = {u1L}",
        "poles  = " + (" ".join(_fmt(p) for p in poles) if poles else "none"),
    ]
    if args.emit is not None:
        _emit_profile(args.emit, params, consts, args.samples)
        lines.append(f"profile written to {args.emit}")
    print("\n".join(lines))  # every value first, so an error leaves no partial report
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
    c1, c2 = sol.constants.coefficients
    print(f"c1      = {_fmt(c1)}")
    print(f"c2      = {_fmt(c2)}")
    print("roots   = " + " ".join(_fmt(r) for r in sol.roots))
    print(f"excluded_candidates = {sol.excluded_candidates}")
    return 0


def _run_field(args) -> int:
    # deferred: field.py, json and 6 dataclasses add ~8-9 ms to a ~73 ms launch
    from . import field as field_mod

    entries = parse_field_config(args.config.read_text())

    def num(key: str) -> float:
        return _finite(key, entries[key])

    params = FlowParams(nu=num("nu"), grad_term=num("grad_term"), f1=num("f1"),
                        length=num("length"))
    data = InitialData(u10=num("u10"), u1dot0=num("u1dot0"))
    grid = field_mod.GridSpec(x_min=num("x_min"), x_max=num("x_max"), y_min=num("y_min"),
                              y_max=num("y_max"), nx=int(entries["nx"]), ny=int(entries["ny"]))
    fmt = entries["format"]
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    kind = entries["family"]
    family = getattr(field_mod.StreamlineFamily, kind)(
        *(read(key, entries[key]) for key, read in _FAMILIES[kind].items())
    )
    consts = solve_ivp(data, params)
    sampled = field_mod.reconstruct_field(family, params, consts, grid)
    output = Path(entries["output"])
    output.write_bytes(field_mod.emit(sampled, fmt))
    n_invalid = sum(1 for sm in sampled.samples if not sm.valid)
    print(f"wrote {output} ({len(sampled.samples)} samples, {n_invalid} at poles)")
    if "gnuplot_script" in entries:
        gnuplot = Path(entries["gnuplot_script"])
        gnuplot.write_text(field_mod.gnuplot_script(str(output)))
        print(f"wrote {gnuplot}")
    return 0


def _run_verify(args) -> int:
    # deferred although the suite loads no numpy: its own import (its
    # dataclasses and random, ~10 ms on a 2-core box) and the field layer's
    # (~8-9 ms) would slow every bvp launch when eager
    from .verify import run_verification

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
