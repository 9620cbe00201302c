"""The public surface: one import path per name, and README's Layout table."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import airyflow

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
ROW = re.compile(r"^\| `(airyflow\.\w+)` \| (.*) \|$")
NAME = re.compile(r"`(\.?[A-Za-z_]\w*)`")


def layout_rows():
    """(module name, names in its contents cell) for each Layout row; a
    `.name` entry is an attribute of the bare name before it, and a
    backticked token that is not an identifier (`u1(0)`) is prose."""
    text = README.read_text()
    table = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(ROW.match, table.splitlines()) if m]


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports airyflow from src/."""
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)


def test_tests_import_this_checkout():
    # pytest.ini puts src/ first on the path, so plain `pytest` tests this
    # checkout and never an installed copy of the package
    assert Path(airyflow.__file__).resolve().is_relative_to(ROOT / "src")


def test_root_binds_no_module_name():
    # each name has one import path, the module that defines it: a bare
    # `import airyflow` loads no submodule, and the root serves none of
    # their names, not even once they are loaded
    probe = (
        "import sys, airyflow\n"
        "print(*sorted(m for m in sys.modules if m.startswith('airyflow')))\n"
        "from types import ModuleType\n"
        "from airyflow import airy, bvp, errors, field, flow, verify\n"
        "print(*sorted(name for module in (airy, bvp, errors, field, flow, verify)\n"
        "              for name, value in vars(module).items()\n"
        "              if not name.startswith('__') and not isinstance(value, ModuleType)\n"
        "              and hasattr(airyflow, name)))\n"
    )
    assert run_python(probe).stdout == "airyflow\n\n"


def test_readme_quick_start_runs():
    text = README.read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python(block)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "True"


def test_layout_names_are_module_attributes():
    rows = layout_rows()
    assert {module for module, _ in rows} >= {
        "airyflow.airy", "airyflow.flow", "airyflow.bvp", "airyflow.verify",
        "airyflow.field", "airyflow.cli",
    }
    for module_name, cell in rows:
        module = importlib.import_module(module_name)
        owner = module
        for name in NAME.findall(cell):
            if name.startswith("."):
                assert hasattr(owner, name[1:]), (module_name, name)
            else:
                assert hasattr(module, name), (module_name, name)
                owner = getattr(module, name)
