"""Print the stdout, stderr and exit code of `airyflow verify --seed N`
for each seed, every line tagged with its seed and stream, so that two
trees can be compared by diffing their output.  Each seed runs in its own
process, as the command line does.  Run from the repository root, once
per tree:

    PYTHONPATH=src python tests/verify_seeds.py > seeds.txt

The seeds are 0-59 unless a range is given, as `FIRST LAST` (inclusive).
"""

from __future__ import annotations

import subprocess
import sys

SEEDS = range(60)


def lines(seeds):
    for seed in seeds:
        run = subprocess.run(
            [sys.executable, "-m", "airyflow.cli", "verify", "--seed", str(seed)],
            capture_output=True,
        )
        for stream, blob in (("stdout", run.stdout), ("stderr", run.stderr)):
            # raw bytes, split on LF only, so no line ending is translated
            *body, tail = blob.decode("utf-8", "backslashreplace").split("\n")
            for line in body:
                yield f"seed {seed} {stream}: {line}"
            if tail:
                yield f"seed {seed} {stream} (no final newline): {tail}"
        yield f"seed {seed} exit: {run.returncode}"


def main(argv: list[str]) -> None:
    seeds = range(int(argv[0]), int(argv[1]) + 1) if argv else SEEDS
    for line in lines(seeds):
        print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
