"""Regenerate tests/golden/: the stdout of the README command-line
examples, plus their exit code, stderr and a SHA-256 of every file they
write, frozen so that
tests/test_golden.py can hold the CLI to its bytes.  Run from the
repository root:

    PYTHONPATH=src python tests/make_golden.py [case ...]

Naming cases regenerates only those and keeps every other frozen file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from airyflow.cli import run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the README's field config, once per output format; the straight and
# polynomial cases swap in their family's lines and a 20x6 grid
FIELD_CONFIG = """\
nu = 1.0
grad_term = -2.0
f1 = 0.0
length = 1.5
u10 = 0.2
u1dot0 = -0.4
{family}
x_min = 0.0
x_max = 1.5
y_min = -1.0
y_max = 1.0
nx = {nx}
ny = {ny}
output = field.{fmt}
format = {fmt}
"""
SINUSOIDAL = "family = sinusoidal\namplitude = 0.1\nwavenumber = 3.141592653589793"


def field_config(fmt: str, family: str = SINUSOIDAL, nx: int = 50, ny: int = 50) -> dict:
    return {"run.cfg": FIELD_CONFIG.format(fmt=fmt, family=family, nx=nx, ny=ny)}


FLOW = ["--nu", "1", "--grad-term", "-2", "--f1", "0"]

# name -> (argv, {config file name: text} written before the run)
CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    "airy": (["airy", "--t", "-2.5"], {}),
    "ivp": (["ivp", *FLOW, "--L", "2", "--u10", "0", "--u1dot0", "-2"], {}),
    "ivp_emit": (
        ["ivp", *FLOW, "--L", "2", "--u10", "0", "--u1dot0", "-2", "--emit", "profile.csv"],
        {},
    ),
    # three poles inside [0, L]
    "ivp_poles": (["ivp", *FLOW, "--L", "6", "--u10", "0", "--u1dot0", "12"], {}),
    "bvp": (["bvp", *FLOW, "--L", "1", "--u10", "0", "--u1L", "0.25"], {}),
    "bvp_bracket": (
        ["bvp", *FLOW, "--L", "1", "--u10", "0", "--u1L", "0.25",
         "--c-min", "0", "--c-max", "2"],
        {},
    ),
    "bvp_no_root": (
        ["bvp", *FLOW, "--L", "1", "--u10", "0", "--u1L", "0.25",
         "--c-min", "-1", "--c-max", "1"],
        {},
    ),
    "field_csv": (["field", "--config", "run.cfg"], field_config("csv")),
    "field_json": (["field", "--config", "run.cfg"], field_config("json")),
    "field_straight": (
        ["field", "--config", "run.cfg"],
        field_config("csv", "family = straight\nslope = 0.7", nx=20, ny=6),
    ),
    "field_polynomial": (
        ["field", "--config", "run.cfg"],
        field_config("json", "family = polynomial\ncoeffs = 0.1,-0.3,0.2", nx=20, ny=6),
    ),
    "verify": (["verify", "--seed", "0"], {}),
}


def run_case(name: str) -> tuple[int, str, str, dict[str, str]]:
    """(exit code, stdout, stderr, {written file: sha256}) of one case,
    run in a fresh working directory so relative paths print identically."""
    argv, inputs = CASES[name]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for fname, text in inputs.items():
                Path(fname).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            written = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(tmp).iterdir())
                if p.name not in inputs
            }
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), written


def main(names: list[str]) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    manifest_path = GOLDEN_DIR / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if names else {}
    for name in names or CASES:
        code, stdout, stderr, written = run_case(name)
        (GOLDEN_DIR / f"{name}.stdout").write_text(stdout)
        manifest[name] = {"exit": code, "stderr": stderr, "files": written}
    manifest = {name: manifest[name] for name in CASES if name in manifest}
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
