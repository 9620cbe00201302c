"""Regenerate src/airyflow/_airy_anchors.py: Ai, Ai', Bi, Bi' at the 73
anchors t_k = k/4, k = -36 .. 36, from which airy_eval takes its Taylor
steps on |t| <= 9.  mpmath evaluates each value at 60 digits and it is
rounded once to double.  Run from the repository root:

    python tests/make_airy_anchors.py
"""

from __future__ import annotations

from pathlib import Path

from mpmath import airyai, airybi, mp, mpf

K_MAX = 36  # the anchors cover |t| <= K_MAX/4 = 9, the series window
DPS = 60
TABLE = Path(__file__).resolve().parent.parent / "src" / "airyflow" / "_airy_anchors.py"

HEADER = '''\
"""(Ai, Ai', Bi, Bi') at the anchors t_k = k/4, k = -36 .. 36, for the
Taylor steps of airy.airy_eval; row k + 36 holds t_k.

Generated by tests/make_airy_anchors.py (mpmath at 60 digits, each value
rounded once to double).  Do not edit: tests/test_airy.py checks that
this file equals the generator's output.
"""

ANCHORS = (
'''


def anchor_rows() -> list[tuple[float, float, float, float]]:
    rows = []
    with mp.workdps(DPS):
        for k in range(-K_MAX, K_MAX + 1):
            t = mpf(k) / 4
            vals = (airyai(t), airyai(t, derivative=1), airybi(t), airybi(t, derivative=1))
            rows.append(tuple(float(v) for v in vals))  # round to nearest
    return rows


def table_text() -> str:
    lines = [HEADER]
    for k, row in zip(range(-K_MAX, K_MAX + 1), anchor_rows()):
        lines.append(f"    ({', '.join(repr(v) for v in row)}),  # t = {k / 4}\n")
    lines.append(")\n")
    return "".join(lines)


def main() -> None:
    TABLE.write_text(table_text())
    print(f"wrote {TABLE} ({2 * K_MAX + 1} anchors)")


if __name__ == "__main__":
    main()
