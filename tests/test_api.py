"""The public surface: the package's __all__ and README's Layout table."""

import importlib
import re
from pathlib import Path

import airyflow

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(airyflow\.\w+)` \| (.*) \|$")
NAME = re.compile(r"`(\.?[A-Za-z_]\w*)`")


def layout_rows():
    """(module name, names in its contents cell) for each Layout row; a
    `.name` entry is an attribute of the bare name before it, and a
    backticked token that is not an identifier (`u1(0)`) is prose."""
    text = README.read_text()
    table = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(ROW.match, table.splitlines()) if m]


def test_all_names_resolve():
    assert len(set(airyflow.__all__)) == len(airyflow.__all__)
    for name in airyflow.__all__:
        assert getattr(airyflow, name) is not None, name


def test_all_holds_no_field_or_verify_name():
    # the field layer and the oracle suite each have one import path, their
    # submodule; the root re-exports the names of the other four
    owners = {getattr(airyflow, name).__module__ for name in airyflow.__all__}
    assert owners == {"airyflow.airy", "airyflow.flow", "airyflow.bvp", "airyflow.errors"}


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
