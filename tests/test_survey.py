"""The BVP survey of tests/survey.py as a gate on solve_bvp.

survey_table.txt freezes the outcome of every survey label: a solve and
its shots, or the class of the error raised.  Recomputed here, no label
that solves in the table may raise, and the solves together may take no
more shots than the table's.  A change that moves an outcome regenerates
the table (`PYTHONPATH=src python tests/survey.py --table`) and names each
changed label, as a golden re-capture does.
"""

from survey import TABLE, answers, outcome


def shots(table: dict[str, str]) -> int:
    return sum(int(kind.split()[1]) for kind in table.values() if kind.startswith("solve "))


def test_survey_keeps_every_solve_within_the_shot_total():
    rows = TABLE.read_text().splitlines()
    assert rows[-1].startswith("total: ")
    want = dict(row.rsplit(": ", 1) for row in rows[:-1])
    got = {label: outcome(out) for label, out in answers()}
    assert list(got) == list(want)  # the same survey, label for label
    lost = {label: got[label] for label, kind in want.items()
            if kind.startswith("solve ") and not got[label].startswith("solve ")}
    assert not lost
    assert shots(got) <= shots(want)
