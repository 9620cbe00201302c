"""airyflow benchmark: seeded workloads run in a closed loop, outputs checked.

    python3 perfbench/run.py --workload {shoot,field,lowvisc,verify} \\
        --seed N --seconds S --trace {0,1}

One client in one process sends the next item only when the previous one
has returned.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it prints the per-layer metrics of a separate traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the metrics, the workloads and why each was chosen.

The library is imported from ``src/`` next to this directory; the run
refuses to start without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy starts a BLAS thread pool on import that airyflow never uses; pin
# it (and hash randomization in the child interpreters) before any import.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # CLI files and span dumps; never committed
workloads = None  # the workloads module, imported by main() once src/ is on the path

WORKLOADS = ("shoot", "field", "lowvisc", "verify")
# Other tenants slow the box in spells of a few seconds to a minute, one
# core or both.  So the repetitions of an item, and the launches of a
# command, are spread over the whole run and over (at most) two cores, and
# a time is the fastest of them (README.md, "Noise").
ALL_CPUS = frozenset(os.sched_getaffinity(0))
CORES = tuple(sorted(ALL_CPUS)[:2])
# slices of a run; each starts with one launch of the workload's CLI
# command, and every other one with a set-up probe.  verify's command takes ~1.2 s
SLICES = {"shoot": 16, "field": 16, "lowvisc": 16, "verify": 10}
IMPORT_PROBES = 6  # fresh interpreters per traced run for cli.import_s
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
MIN_ITEMS = 4 * TAIL_BEYOND  # so that the tail percentile is at least p75
WARMUP_SECONDS = 2.0
# items per traced pass: the whole list, except shoot whose items are slow
TRACE_ITEMS = {"shoot": 6, "field": 48, "lowvisc": 64, "verify": 64}
MAX_TRACE_PASSES = 4
MAX_REASONS = 5

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import airyflow\n"
    "print(time.perf_counter() - t, len(sys.modules))\n"
)
CLI_MAIN = "from airyflow.cli import main; main()"


def child_env() -> dict:
    return {**os.environ, **PINNED_ENV, "PYTHONPATH": str(SRC)}


def pin(core: int | None) -> None:
    """Run this process (and the children it starts) on one core; None frees it."""
    os.sched_setaffinity(0, ALL_CPUS if core is None else {core})


class Loop:
    """Closed loop over a fixed item list, one item at a time.

    Each step runs the next item once.  With ``cores``, item i runs on
    ``cores[(i + p) % len(cores)]`` in pass p over the list, so its
    repetitions alternate between cores; with ``(None,)`` it runs unpinned.
    Garbage collection runs before every item, outside the timer; each
    output is checked right after its item, also outside the timer.
    """

    def __init__(self, items, tracer=None, cores=(None,)):
        self.items = items
        self.tracer = tracer
        self.cores = cores
        self.next = 0  # items run; item ``next % len(items)`` runs next
        self.latencies_ns: list[int] = []
        self.by_item: dict[int, list[int]] = {}  # item index -> its repetitions
        self.failed = 0
        self.reasons: list[str] = []
        self.known: set[str] = set()  # distinct known-defect reports, not failures
        self.last = None  # (item, output) of the last item that passed

    def step(self) -> None:
        index = self.next % len(self.items)
        core = self.cores[(index + self.next // len(self.items)) % len(self.cores)]
        if core is not None:
            pin(core)
        item = self.items[index]
        if self.tracer is not None:
            self.tracer.item = self.next
            self.tracer.active = True
        self.next += 1
        gc.collect()
        out = error = None
        start = time.perf_counter_ns()
        try:
            out = item.run()
        except Exception as exc:  # counted as a failed item, reported below
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if self.tracer is not None:
            self.tracer.active = False
        if error is None:
            try:
                error = item.check(out)
            except Exception as exc:  # an output the check cannot read is wrong
                error = f"check raised {type(exc).__name__}: {exc}"
        self.latencies_ns.append(elapsed)
        self.by_item.setdefault(index, []).append(elapsed)
        if error is not None and error.startswith(workloads.KNOWN_DEFECT):
            self.known.add(f"item {index}: {error}")
        elif error is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"item {index}: {error}")
        else:
            self.last = (item, out)

    def run_until(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            self.step()

    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def launch(argv: list[str], cwd: Path, core: int | None) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of one fresh interpreter on ``core``; it inherits the affinity."""
    pin(core)
    try:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        return time.perf_counter() - start, proc
    finally:
        pin(None)


def time_setup(workload: str, seed: int, core: int) -> tuple[float, str | None]:
    """Wall time of a fresh interpreter that imports airyflow and builds the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    wall, proc = launch(argv, ROOT, core)
    return wall, None if proc.returncode == 0 else f"set-up probe failed: {proc.stderr[-300:]}"


def time_cli(case, workdir: Path, core: int) -> tuple[float, str | None]:
    for rel, text in case.files.items():
        (workdir / rel).write_text(text)
    wall, proc = launch([sys.executable, "-c", CLI_MAIN, *case.argv], workdir, core)
    if proc.returncode != 0:
        return wall, f"airyflow {' '.join(case.argv)} exited {proc.returncode}: {proc.stderr[-300:]}"
    return wall, case.check(proc.stdout, workdir)


def tail(latencies_ns: list[int]) -> tuple[int, float, int]:
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(latencies_ns)
    if n < MIN_ITEMS:
        raise ValueError(f"{n} samples cannot give a tail at or above p75")
    value = sorted(latencies_ns)[n - TAIL_BEYOND - 1]
    return value, 100.0 * (n - TAIL_BEYOND) / n, n


def selftest(loop: Loop) -> str | None:
    """A deliberately corrupted output must be counted as a failure."""
    if loop.last is None:
        return "no passing item to corrupt"
    item, out = loop.last
    verdict = item.check(item.corrupt(out))
    if verdict is None or verdict.startswith(workloads.KNOWN_DEFECT):
        return "a corrupted output passed its check"
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def report_known(loops) -> None:
    known = sorted(set().union(*(loop.known for loop in loops)))
    for note in known[:MAX_REASONS]:
        print(f"# KNOWN DEFECT (not counted as failed) {note}")
    if known:
        print(f"# {len(known)} distinct items hit a known defect; see README.md")


def warm_up(items, cores=(None,)) -> Loop:
    """One pass over the list, cut short after WARMUP_SECONDS; its outputs are checked too."""
    loop = Loop(items, cores=cores)
    start = time.perf_counter()
    while loop.next < len(items) and time.perf_counter() - start < WARMUP_SECONDS:
        loop.step()
    pin(None)
    gc.collect()
    gc.freeze()  # set-up objects are not rescanned by the per-item collections
    return loop


def run_untraced(args, items) -> tuple[dict, int, int, list[str]]:
    import clicases

    warm = warm_up(items, CORES)
    loop = Loop(items, cores=CORES)
    workdir = OUT / "cli"
    workdir.mkdir(parents=True, exist_ok=True)
    case = clicases.CASES[args.workload]
    slices = SLICES[args.workload]
    setup_s, cli_s, launch_problems = [], [], []
    # The loop and the launches share the --seconds of wall time, so that
    # all of them see the same stretch of machine time; launches alternate
    # between the cores.
    start = time.perf_counter()
    for j in range(slices):
        loop.run_until(start + args.seconds * j / slices)
        if j % 2 == 0:
            wall, problem = time_setup(args.workload, args.seed, CORES[j // 2 % len(CORES)])
            setup_s.append(wall)
            launch_problems += [problem] if problem else []
        wall, problem = time_cli(case, workdir, CORES[j % len(CORES)])
        cli_s.append(wall)
        launch_problems += [problem] if problem else []
    loop.run_until(start + args.seconds)
    while loop.next < len(items):  # every item at least once
        loop.step()
    pin(None)
    rss = peak_rss_mb()
    problems = warm.reasons + loop.reasons + launch_problems
    problem = selftest(loop)
    if problem:
        problems.append(f"self-test: {problem}")

    # Slow spells only ever add time, so each item keeps its fastest
    # repetition and the CLI command its fastest launch.
    per_item = [min(reps) for reps in loop.by_item.values()]
    tail_ns, tail_pct, n = tail(per_item)
    p50_ns = statistics.median(per_item)
    if tail_ns < p50_ns:
        raise AssertionError("latency_tail_ms below latency_p50_ms")
    attempted = warm.next + loop.next + len(setup_s) + len(cli_s)
    failed = warm.failed + loop.failed + len(launch_problems)
    metrics = {
        "throughput_items_per_s": (n / (sum(per_item) / 1e9), "1/s"),
        "latency_p50_ms": (p50_ns / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
        "cli_s": (min(cli_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    report_known([warm, loop])
    print(f"# {args.workload}: {loop.next} timed items ({loop.next / len(items):.1f} passes "
          f"over {len(items)}, on {len(CORES)} cores in turn), "
          f"{loop.busy_s():.3f} s of item time; {len(setup_s)} set-up launches and {len(cli_s)} "
          f"of `airyflow {' '.join(case.argv[:1])}`")
    print(f"# latency_tail_ms is p{tail_pct:.2f} over n={n} items "
          f"(each its fastest repetition), {TAIL_BEYOND} items beyond it")
    return metrics, attempted, failed, problems


def run_pass(prefix, tracer=None) -> Loop:
    loop = Loop(prefix, tracer)
    for _ in prefix:
        loop.step()
    return loop


def run_traced(args, items) -> tuple[dict, int, int, list[str]]:
    import tracing

    warm = warm_up(items)
    prefix = items[:TRACE_ITEMS[args.workload]]
    tracer = tracing.Tracer()
    # untraced and traced passes alternate, so that the overhead ratio
    # compares passes that saw the same stretch of machine time
    untraced, traced, passes = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or (time.perf_counter() - start < args.seconds
                              and len(traced) < MAX_TRACE_PASSES):
        untraced.append(run_pass(prefix))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(prefix, tracer))
        finally:
            tracer.uninstall()
        passes.append((tracer.spans, tracer.counts))
    runs = [warm, *untraced, *traced]
    problems = [reason for r in runs for reason in r.reasons]
    attempted = sum(r.next for r in runs)
    failed = sum(r.failed for r in runs)

    summaries = [tracing.summarize(spans, counts) for spans, counts in passes]
    first = summaries[0]
    if any(tracing.deterministic_part(s) != tracing.deterministic_part(first) for s in summaries):
        problems.append("traced counters differ between passes of one seed")
    expected_points = sum(it.points for it in prefix)
    points = first["counts"].get("field.points", 0)
    if points != expected_points:
        problems.append(f"traced points {points} != sum of nx*ny {expected_points}")
    if first["calls"].get("flow.exact_u1", 0) < points:
        problems.append("fewer exact_u1 calls than reconstructed points")

    self_ms = {name: statistics.median(s["self_ns"].get(name, 0) for s in summaries) / 1e6
               for name in first["self_ns"]}
    values = tracing.layer_values(first, self_ms)
    probes = []
    for k in range(IMPORT_PROBES):
        _, proc = launch([sys.executable, "-c", IMPORT_PROBE], ROOT, CORES[k % len(CORES)])
        if proc.returncode != 0:
            problems.append(f"import probe failed: {proc.stderr[-300:]}")
            continue
        seconds, modules = proc.stdout.split()
        probes.append((float(seconds), int(modules)))
    values["cli.import_s"] = statistics.median(p[0] for p in probes) if probes else 0.0
    values["cli.import_modules"] = probes[0][1] if probes else 0
    # traced / untraced throughput over the same items
    values["trace.overhead_ratio"] = (statistics.median(r.busy_s() for r in untraced)
                                      / statistics.median(r.busy_s() for r in traced))
    problem = selftest(untraced[0])
    if problem:
        problems.append(f"self-test: {problem}")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracing.write_spans(spans_path, [spans for spans, _ in passes])

    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name, _, _ in tracing.PER_LAYER}
    report_known(runs)
    print(f"# {len(traced)} traced and {len(untraced)} untraced passes of {len(prefix)} items; "
          f"spans in {spans_path.relative_to(ROOT)}")
    return metrics, attempted, failed, problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "airyflow" / "__init__.py").is_file():
        print(f"error: no airyflow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import airyflow

    if not Path(airyflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: airyflow imported from {airyflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    global workloads
    import workloads

    items = workloads.build(args.workload, args.seed)
    if args.probe_setup:
        return 0
    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed, problems = run(args, items)
    for problem in problems:
        print(f"# FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}/{name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
