"""Print the repr of every answer of the BVP survey, one line each, so two
trees can be compared by diffing their output.  An answer is the
BvpSolution of solve_bvp or the repr of the FlowDomainError it raised.
A last line sums them up: the solves, the count of each error type and
the shots (BvpSolution.shots) of all solves.

With --table it writes survey_table.txt next to this file instead: one
line per label with its outcome, `solve <shots>` or the error's class
name, and the same last line.  tests/test_survey.py gates on that table;
regenerate it when a change moves an outcome, and name each changed label.

The survey: random_flow_case seeds 0-5 x DRAWS draws, each solved for the
u1(L) of its generating constants on three brackets (the default one,
c +- 2 and (c + 1, c + 3) around the generating c), plus the low-viscosity
IVP draws of tests/test_domain.py, each solved for its own u1(L) shifted
by LOWVISC_SHIFTS and for the absolute LARGE_TARGETS.  Run from the
repository root, once per tree:

    PYTHONPATH=src python tests/survey.py > survey.txt
    PYTHONPATH=src python tests/survey.py --table
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

from airyflow.bvp import BvpSolution, InitialData, solve_bvp, solve_ivp
from airyflow.errors import FlowDomainError
from airyflow.flow import exact_u1
from airyflow.verify import random_flow_case
from test_domain import LARGE_TARGETS, LOWVISC_SHIFTS, _ivp_draws

SEEDS = range(6)
DRAWS = 40
TABLE = Path(__file__).with_name("survey_table.txt")


def answer(u10: float, u1L: float, params, bracket=None) -> BvpSolution | FlowDomainError:
    try:
        return solve_bvp(u10, u1L, params, bracket)
    except FlowDomainError as err:
        return err


def answers():
    """(label, answer) for every case of the survey, in order."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for index in range(DRAWS):
            params, data, consts = random_flow_case(rng)
            u1L, c = exact_u1(params.length, params, consts), consts.c
            for name, bracket in (("default", None), ("c+-2", (c - 2.0, c + 2.0)),
                                  ("c+1..c+3", (c + 1.0, c + 3.0))):
                yield f"seed {seed} draw {index} {name}", answer(data.u10, u1L, params, bracket)
    for index, (params, u10, u1dot0) in enumerate(_ivp_draws()):
        consts = solve_ivp(InitialData(u10=u10, u1dot0=u1dot0), params)
        u1L = exact_u1(params.length, params, consts)
        for target in [u1L + shift for shift in LOWVISC_SHIFTS] + list(LARGE_TARGETS):
            yield f"lowvisc {index} u1L={target!r}", answer(u10, target, params)


def outcome(out: BvpSolution | FlowDomainError) -> str:
    """The table's entry for an answer: `solve <shots>` or the error's class name."""
    return f"solve {out.shots}" if isinstance(out, BvpSolution) else type(out).__name__


def summary(outs) -> str:
    """The last line: the solves, the count of each error type and the shots of all solves."""
    kinds, shots = Counter(), 0
    for out in outs:
        solved = isinstance(out, BvpSolution)
        kinds["solves" if solved else type(out).__name__] += 1
        shots += out.shots if solved else 0
    return "total: " + ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items())) + f"; {shots} shots"


def main(argv: list[str]) -> None:
    results = list(answers())
    if argv == ["--table"]:
        rows = [f"{label}: {outcome(out)}" for label, out in results]
        TABLE.write_text("\n".join(rows + [summary(out for _, out in results)]) + "\n")
        return
    for label, out in results:
        print(f"{label}: {out!r}")
    print(summary(out for _, out in results))


if __name__ == "__main__":
    main(sys.argv[1:])
