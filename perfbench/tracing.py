"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install()`` wraps each public function in ``TRACED`` and rebinds
the wrapper under every name that holds the original in an ``airyflow``
module: ``flow``, ``bvp``, ``field``, ``verify`` and ``cli`` import
``airy_eval`` and ``exact_u1`` by name, so rebinding only the defining
module would miss most calls.  A span is (name, start_ns, end_ns, parent
index, item id), kept in memory and written out when the run ends.  Self
time is a span's duration minus the time its direct child spans cover.
Counters (calls, poles, points, bytes, ...) are taken at the same
boundaries and repeat exactly for a given seed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import update_wrapper
from pathlib import Path

from airyflow.errors import PoleError

# The documented branch bounds of airy_eval (see airyflow/airy.py).
FLOAT_LO, FLOAT_HI, SERIES_BOUND = -4.0, 2.5, 9.0


def _airy_branch(counts, args, kwargs, out, exc):
    t = float(args[0] if args else kwargs["t"])
    if abs(t) <= SERIES_BOUND:
        counts["airy.calls_float" if FLOAT_LO <= t <= FLOAT_HI else "airy.calls_decimal"] += 1
    else:
        counts["airy.calls_asym_pos" if t > 0.0 else "airy.calls_asym_neg"] += 1


def _pole_check(counts, args, kwargs, out, exc):
    counts["flow.has_interior_pole.true"] += out is True


def _poles(counts, args, kwargs, out, exc):
    if out is not None:
        counts["flow.find_poles.poles"] += len(out)


def _u1(counts, args, kwargs, out, exc):
    counts["flow.exact_u1.pole_errors"] += isinstance(exc, PoleError)


def _bvp(counts, args, kwargs, out, exc):
    if out is not None:
        counts["bvp.roots"] += len(out.roots)
        counts["bvp.excluded"] += out.excluded_candidates


def _reconstruct(counts, args, kwargs, out, exc):
    if out is not None:
        counts["field.points"] += out.grid.nx * out.grid.ny
        counts["field.invalid_samples"] += sum(1 for sm in out.samples if not sm.valid)


def _emit(counts, args, kwargs, out, exc):
    if out is not None:
        counts["field.emit.bytes"] += len(out)


def _parse(counts, args, kwargs, out, exc):
    counts["field.parse.bytes"] += len(args[0] if args else kwargs["blob"])


def _steps(counts, args, kwargs, out, exc):
    if out is not None:
        counts["verify.rk4.steps"] += len(out) - 1


# module -> {public function: observer of its arguments and outcome}
TRACED = {
    "airy": {"airy_eval": _airy_branch},
    "flow": {"exact_u1": _u1, "find_poles": _poles, "has_interior_pole": _pole_check},
    "bvp": {"solve_bvp": _bvp, "solve_ivp": None},
    "field": {"reconstruct_field": _reconstruct, "emit": _emit, "parse": _parse},
    "verify": {
        "random_flow_case": None,
        "integrate_riccati": _steps,
        "integrate_second_order": _steps,
        "check_prop1": None,
        "check_prop2_prop3": None,
    },
}


class Tracer:
    """Records spans while ``active``; calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = False
        self.item = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            out = exc = None
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.item)
                if observe is not None:
                    observe(tracer.counts, args, kwargs, out, exc)

        return update_wrapper(traced, fn)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "airyflow" or n.startswith("airyflow.")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"airyflow.{mod_name}"]
            for fn_name, observe in funcs.items():
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()


def summarize(spans: list, counts: Counter) -> dict:
    """Calls, self time and nesting counts of one traced pass."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]

    def under(child: str, ancestor: str) -> int:
        n = 0
        for name, _, _, parent, _ in spans:
            if name != child:
                continue
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            n += parent >= 0
        return n

    nested = {
        "exact_u1_in_solve_bvp": under("flow.exact_u1", "bvp.solve_bvp"),
        "pole_checks_in_solve_bvp": under("flow.has_interior_pole", "bvp.solve_bvp"),
        "exact_u1_in_reconstruct": under("flow.exact_u1", "field.reconstruct_field"),
        "solve_ivp_in_random_flow_case": under("bvp.solve_ivp", "verify.random_flow_case"),
    }
    return {"calls": dict(calls), "counts": dict(counts), "nested": nested,
            "self_ns": dict(self_ns)}


def write_spans(path: Path, passes: list[list]) -> None:
    """Write the spans of every traced pass as JSON, one span a line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "item"], "passes": [')
        fh.write(",".join(
            "[\n" + ",\n".join(json.dumps(s, separators=(",", ":")) for s in spans) + "\n]"
            for spans in passes))
        fh.write("]}\n")


def deterministic_part(summary: dict) -> dict:
    """The parts of a summary that must repeat exactly for one seed."""
    return {k: summary[k] for k in ("calls", "counts", "nested")}


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("airy.airy_eval.calls", "count", "lower"),
    ("airy.airy_eval.calls_float", "count", "lower"),
    ("airy.airy_eval.calls_decimal", "count", "lower"),
    ("airy.airy_eval.calls_asym_pos", "count", "lower"),
    ("airy.airy_eval.calls_asym_neg", "count", "lower"),
    ("airy.airy_eval.self_ms", "ms", "lower"),
    ("airy.airy_eval.us_per_call", "us", "lower"),
    ("flow.has_interior_pole.calls", "count", "lower"),
    ("flow.has_interior_pole.self_ms", "ms", "lower"),
    ("flow.has_interior_pole.true_ratio", "ratio", "higher"),
    ("flow.find_poles.calls", "count", "lower"),
    ("flow.find_poles.self_ms", "ms", "lower"),
    ("flow.find_poles.poles", "count", "higher"),
    ("flow.exact_u1.calls", "count", "lower"),
    ("flow.exact_u1.self_ms", "ms", "lower"),
    ("flow.exact_u1.pole_errors", "count", "lower"),
    ("bvp.solve_bvp.self_ms", "ms", "lower"),
    ("bvp.solve_bvp.exact_u1_per_solve", "calls/solve", "lower"),
    ("bvp.solve_bvp.pole_checks_per_solve", "calls/solve", "lower"),
    ("bvp.solve_bvp.excluded_ratio", "ratio", "lower"),
    ("bvp.solve_bvp.roots", "count", "higher"),
    ("bvp.solve_ivp.calls", "count", "lower"),
    ("bvp.solve_ivp.self_ms", "ms", "lower"),
    ("field.reconstruct_field.self_ms", "ms", "lower"),
    ("field.reconstruct_field.points", "count", "higher"),
    ("field.reconstruct_field.exact_u1_per_point", "calls/point", "lower"),
    ("field.emit.self_ms", "ms", "lower"),
    ("field.emit.bytes", "bytes", "higher"),
    ("field.parse.self_ms", "ms", "lower"),
    ("field.parse.bytes", "bytes", "higher"),
    ("field.invalid_samples", "count", "lower"),
    ("verify.rk4.steps", "count", "lower"),
    ("verify.rk4.ns_per_step", "ns", "lower"),
    ("verify.integrate_riccati.self_ms", "ms", "lower"),
    ("verify.integrate_second_order.self_ms", "ms", "lower"),
    ("verify.random_flow_case.self_ms", "ms", "lower"),
    ("verify.random_flow_case.accept_ratio", "ratio", "higher"),
    ("verify.checks.self_ms", "ms", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_modules", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def layer_values(first: dict, self_ms: dict) -> dict:
    """Per-layer metric values from one pass's summary and median self times.

    ``first`` supplies the deterministic counters; ``self_ms`` maps span
    names to self time in ms.  Ratios whose base is zero report 0.
    """
    calls, counts, nested = first["calls"], first["counts"], first["nested"]

    def ratio(num, den):
        return num / den if den else 0.0

    ms = lambda name: self_ms.get(name, 0.0)  # noqa: E731
    solves = calls.get("bvp.solve_bvp", 0)
    points = counts.get("field.points", 0)
    steps = counts.get("verify.rk4.steps", 0)
    airy_calls = calls.get("airy.airy_eval", 0)
    rk4_ms = ms("verify.integrate_riccati") + ms("verify.integrate_second_order")
    return {
        "airy.airy_eval.calls": airy_calls,
        "airy.airy_eval.calls_float": counts.get("airy.calls_float", 0),
        "airy.airy_eval.calls_decimal": counts.get("airy.calls_decimal", 0),
        "airy.airy_eval.calls_asym_pos": counts.get("airy.calls_asym_pos", 0),
        "airy.airy_eval.calls_asym_neg": counts.get("airy.calls_asym_neg", 0),
        "airy.airy_eval.self_ms": ms("airy.airy_eval"),
        "airy.airy_eval.us_per_call": ratio(1e3 * ms("airy.airy_eval"), airy_calls),
        "flow.has_interior_pole.calls": calls.get("flow.has_interior_pole", 0),
        "flow.has_interior_pole.self_ms": ms("flow.has_interior_pole"),
        "flow.has_interior_pole.true_ratio": ratio(
            counts.get("flow.has_interior_pole.true", 0), calls.get("flow.has_interior_pole", 0)),
        "flow.find_poles.calls": calls.get("flow.find_poles", 0),
        "flow.find_poles.self_ms": ms("flow.find_poles"),
        "flow.find_poles.poles": counts.get("flow.find_poles.poles", 0),
        "flow.exact_u1.calls": calls.get("flow.exact_u1", 0),
        "flow.exact_u1.self_ms": ms("flow.exact_u1"),
        "flow.exact_u1.pole_errors": counts.get("flow.exact_u1.pole_errors", 0),
        "bvp.solve_bvp.self_ms": ms("bvp.solve_bvp"),
        "bvp.solve_bvp.exact_u1_per_solve": ratio(nested["exact_u1_in_solve_bvp"], solves),
        "bvp.solve_bvp.pole_checks_per_solve": ratio(nested["pole_checks_in_solve_bvp"], solves),
        # solve_bvp scans a fixed 256 candidates per call
        "bvp.solve_bvp.excluded_ratio": ratio(counts.get("bvp.excluded", 0), 256 * solves),
        "bvp.solve_bvp.roots": counts.get("bvp.roots", 0),
        "bvp.solve_ivp.calls": calls.get("bvp.solve_ivp", 0),
        "bvp.solve_ivp.self_ms": ms("bvp.solve_ivp"),
        "field.reconstruct_field.self_ms": ms("field.reconstruct_field"),
        "field.reconstruct_field.points": points,
        "field.reconstruct_field.exact_u1_per_point": ratio(nested["exact_u1_in_reconstruct"], points),
        "field.emit.self_ms": ms("field.emit"),
        "field.emit.bytes": counts.get("field.emit.bytes", 0),
        "field.parse.self_ms": ms("field.parse"),
        "field.parse.bytes": counts.get("field.parse.bytes", 0),
        "field.invalid_samples": counts.get("field.invalid_samples", 0),
        "verify.rk4.steps": steps,
        "verify.rk4.ns_per_step": ratio(1e6 * rk4_ms, steps),
        "verify.integrate_riccati.self_ms": ms("verify.integrate_riccati"),
        "verify.integrate_second_order.self_ms": ms("verify.integrate_second_order"),
        "verify.random_flow_case.self_ms": ms("verify.random_flow_case"),
        "verify.random_flow_case.accept_ratio": ratio(
            calls.get("verify.random_flow_case", 0), nested["solve_ivp_in_random_flow_case"]),
        "verify.checks.self_ms": ms("verify.check_prop1") + ms("verify.check_prop2_prop3"),
    }
