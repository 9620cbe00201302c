"""The README command-line examples against their frozen output in
tests/golden/ (regenerate with tests/make_golden.py).

Everything is byte-identical except three recorded changes: `verify`'s
prop1 line, whose finite-difference step went from 1e-3 to 1e-4, the
last digits of a solved BVP (`bvp`, and `verify`'s bvp_roundtrip line),
whose root is now refined by Newton instead of bisection, and the last
digits of the `ivp_poles` pole locations, which Newton on the phase now
places instead of bisection on the sign of z (compared at 1e-12).

The cases `airy`, `ivp`, `ivp_emit`, `field_csv`, `field_json`, `verify`
and `bvp_no_root` were re-captured when the Airy kernel's |t| <= 9 branch
became Taylor steps from an anchor table: the kernel's last digits moved
(Bi(-2.5) is now within 0.4 ulp of its true value), and every rule below
holds them as strictly as before.
"""

import hashlib
import json
from pathlib import Path

import pytest

from airyflow.bvp import ENDPOINT_RTOL
from airyflow.cli import run
from make_golden import CASES, GOLDEN_DIR, run_case

MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text())
README = Path(__file__).resolve().parents[1] / "README.md"
PROP1 = "prop1_advective_identity"
BVP_ROUNDTRIP = "bvp_roundtrip"


def golden(name):
    return (GOLDEN_DIR / f"{name}.stdout").read_text(), MANIFEST[name]


def bvp_fields(stdout):
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def test_golden_covers_every_case():
    assert sorted(MANIFEST) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    code, stdout, stderr, written = run_case(name)
    want_stdout, want = golden(name)
    assert code == want["exit"]
    assert stderr == want["stderr"]
    assert written == want["files"]
    if name.startswith("bvp"):
        assert_bvp_close(stdout, want_stdout)
    elif name == "verify":
        assert_verify_same_but_prop1_and_bvp(stdout, want_stdout)
    elif name == "ivp_poles":
        assert_same_but_poles_close(stdout, want_stdout)
    else:
        assert stdout == want_stdout


def assert_verify_same_but_prop1_and_bvp(stdout, want_stdout):
    out, want = stdout.splitlines(), want_stdout.splitlines()
    assert len(out) == len(want)
    for line, old in zip(out, want):
        if PROP1 in old:
            assert line.startswith(f"PASS {PROP1} max_residual=")
            assert line.endswith(" tol=1e-05")
        elif BVP_ROUNDTRIP in old:
            head, _, tail = line.partition("max_residual=")
            assert head == f"PASS {BVP_ROUNDTRIP} "
            value, _, tol = tail.partition(" ")
            assert float(value) <= 1e-12 and tol == "tol=1e-08"
        else:
            assert line == old


def assert_same_but_poles_close(stdout, want_stdout):
    out, want = stdout.splitlines(), want_stdout.splitlines()
    assert out[:-1] == want[:-1]
    got, ref = out[-1].split(), want[-1].split()
    assert got[:2] == ref[:2] == ["poles", "="]
    assert len(got) == len(ref) == 5
    for g, r in zip(got[2:], ref[2:]):
        assert float(g) == pytest.approx(float(r), rel=1e-12, abs=0.0)


def assert_bvp_close(stdout, want_stdout):
    out, want = bvp_fields(stdout), bvp_fields(want_stdout)
    assert out.keys() == want.keys()
    if not want:
        return  # an error case: exit code and stderr carry it
    assert out["excluded_candidates"] == want["excluded_candidates"]
    assert len(out["roots"].split()) == len(want["roots"].split())
    for key in ("c", "u1'(0)", "c1", "c2", "roots"):
        for got, ref in zip(out[key].split(), want[key].split()):
            assert float(got) == pytest.approx(float(ref), rel=1e-12, abs=0.0), key
    u1L = 0.25  # every bvp case targets the README's u1(L)
    assert abs(float(out["residual"]) - float(want["residual"])) <= ENDPOINT_RTOL * (1.0 + u1L)


def test_readme_field_config_runs_as_written(tmp_path, monkeypatch, capsys):
    # the README's field config block, copied verbatim, writes the golden CSV
    section = README.read_text().split("### Field config format", 1)[1]
    (tmp_path / "run.cfg").write_text(section.split("```ini\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    assert run(["field", "--config", "run.cfg"]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field.csv", "run.cfg"]
    digest = hashlib.sha256((tmp_path / "field.csv").read_bytes()).hexdigest()
    assert digest == MANIFEST["field_csv"]["files"]["field.csv"]
