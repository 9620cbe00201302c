"""Print, for each README command (airy, ivp, bvp, field, verify), the
fastest of N fresh launches of `airyflow <command>` and how many modules
the launch loads beyond a bare interpreter, so that two trees can be
compared by diffing their output.  A first row times a bare interpreter
(`python -c pass`), the floor under every launch.  The launches run in
rounds, one of each command per round, and each launch is pinned to one
of (at most) two cores in turn, so a slow spell on one core or in one
stretch of time reaches every command alike.  Run from the repository
root, once per tree:

    PYTHONPATH=src python tests/launch_times.py > launches.txt

N is 20 unless given as the only argument.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from make_golden import CASES

ROUNDS = 20
# command -> its case in tests/make_golden.py, whose input files it reads
COMMANDS = {"airy": "airy", "ivp": "ivp", "bvp": "bvp", "field": "field_csv",
            "verify": "verify"}
LAUNCH = "from airyflow.cli import main; main()"
# the same launch, printing len(sys.modules) to stderr as the interpreter exits
COUNT = "import atexit, sys; atexit.register(lambda: print(len(sys.modules), file=sys.stderr))\n"
SRC = Path(__file__).resolve().parents[1] / "src"  # this tree's package, for every launch
ALL_CPUS = frozenset(os.sched_getaffinity(0))
CORES = sorted(ALL_CPUS)[:2]


def launch(code: str, argv: list[str], cwd: str, core: int) -> tuple[float, str]:
    """(wall time, stderr) of one fresh interpreter on `core`; it inherits the affinity."""
    os.sched_setaffinity(0, {core})
    try:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    if proc.returncode != 0:
        raise SystemExit(f"airyflow {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return wall, proc.stderr


def main(argv: list[str]) -> None:
    rounds = int(argv[0]) if argv else ROUNDS
    rows = {"(bare)": ("pass", [])} | {
        name: (LAUNCH, CASES[case][0]) for name, case in COMMANDS.items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        for _, inputs in (CASES[case] for case in COMMANDS.values()):
            for fname, text in inputs.items():
                (Path(tmp) / fname).write_text(text)
        modules = {
            name: int(launch(COUNT + code, args, tmp, CORES[0])[1].split()[-1])
            for name, (code, args) in rows.items()
        }
        fastest = dict.fromkeys(rows, float("inf"))
        for r in range(rounds):
            for i, (name, (code, args)) in enumerate(rows.items()):
                wall, _ = launch(code, args, tmp, CORES[(r + i) % len(CORES)])
                fastest[name] = min(fastest[name], wall)
    for name in rows:
        print(f"{name:8s} fastest of {rounds}: {fastest[name] * 1e3:6.1f} ms, "
              f"{modules[name] - modules['(bare)']:3d} modules beyond a bare interpreter")


if __name__ == "__main__":
    main(sys.argv[1:])
