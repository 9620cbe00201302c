"""Print the line count of each module of src/airyflow/ and their total,
counted as `wc -l` counts them (newline characters), without the anchor
table _airy_anchors.py that tests/make_airy_anchors.py generates.  The
total is the src/ line count that ROADMAP.md tracks.  Run from the
repository root:

    python tests/src_lines.py
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "airyflow"
GENERATED = {"_airy_anchors.py"}


def counts() -> dict[str, int]:
    return {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted(SRC.glob("*.py"))
        if path.name not in GENERATED
    }


def main() -> None:
    table = counts()
    for name, n in table.items():
        print(f"{n:6d} {name}")
    print(f"{sum(table.values()):6d} total")


if __name__ == "__main__":
    main()
