"""Acceptance gate: one test per shipping criterion, each pinned to its
tolerance and runtime budget.

Each test prints one `PASS <criterion> ...` line (visible with -s or in
the captured output); a failed assertion marks the criterion FAIL.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from airyflow.airy import airy_eval
from airyflow.bvp import InitialData, solve_bvp, solve_ivp
from airyflow.errors import PoleError
from airyflow.field import GridSpec, StreamlineFamily, reconstruct_field
from airyflow.flow import FlowParams, SolutionConstants, exact_u1, find_poles
from airyflow.verify import (
    check_emit_roundtrip,
    check_fd_riccati,
    check_fd_second_order,
    check_pole_truncation,
    check_prop1,
    check_prop2_prop3,
    check_rk4,
    check_wronskian,
    continuity_bracket,
    random_flow_case,
)

HERE = Path(__file__).parent


def _report(name: str, runtime: float, budget: float, detail: str) -> None:
    print(f"PASS {name} runtime={runtime:.2f}s budget={budget:g}s {detail}")


def test_criterion_1_airy_correctness():
    budget = 1.0
    data = json.loads((HERE / "airy_reference.json").read_text())
    points = [
        (
            float(row["t"]),
            float(row["ai"]),
            float(row["bi"]),
            float(row["ai_prime"]),
            float(row["bi_prime"]),
        )
        for row in data["points"]
    ]
    start = time.perf_counter()
    worst = 0.0
    for t, *refs in points:
        q = airy_eval(t)
        for got, ref in zip((q.ai, q.bi, q.ai_prime, q.bi_prime), refs):
            if abs(ref) <= 1e-300:
                continue
            worst = max(worst, abs(got - ref) / abs(ref))
    assert len(points) == 1000
    assert worst <= 1e-10

    worst_w = check_wronskian()
    assert worst_w <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        "airy_correctness", elapsed, budget,
        f"oracle_rel_err={worst:.3e} (tol 1e-10) wronskian={worst_w:.3e} (tol 1e-10)",
    )


def test_criterion_2_closed_form_validity():
    budget = 5.0
    rng = random.Random(20260809)
    start = time.perf_counter()
    cases = [random_flow_case(rng) for _ in range(50)]
    # the 48-sample grids hold every point of the former s = i L/24 grid
    worst_ric = max(check_fd_riccati(params, consts) for params, _, consts in cases)
    worst_second = max(check_fd_second_order(params, consts) for params, _, consts in cases)
    assert worst_ric <= 1e-6
    assert worst_second <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        "closed_form_validity", elapsed, budget,
        f"riccati_fd={worst_ric:.3e} (tol 1e-6) second_order_fd={worst_second:.3e} (tol 1e-4)",
    )


def test_criterion_3_oracle_equivalence():
    budget = 30.0
    rng = random.Random(31415)
    start = time.perf_counter()
    cases = [random_flow_case(rng) for _ in range(4)]

    worst_exact = max(check_rk4(*case, 1e-5, 250)[0] for case in cases)
    assert worst_exact <= 1e-9

    worst_forms = max(check_rk4(*case, 1e-4, 250)[1] for case in cases)
    assert worst_forms <= 1e-8

    errs = [check_rk4(*cases[0], step)[0] for step in (8e-3, 4e-3, 2e-3)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert abs(order - 4.0) <= 0.3

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        "oracle_equivalence", elapsed, budget,
        f"rk4_vs_exact={worst_exact:.3e} (tol 1e-9) forms={worst_forms:.3e} (tol 1e-8) "
        f"orders={[round(o, 2) for o in orders]} (4 +- 0.3)",
    )


def test_criterion_4_bvp_roundtrip():
    budget = 10.0
    rng = random.Random(271828)
    start = time.perf_counter()
    worst_c = 0.0
    worst_slope = 0.0
    for _ in range(25):
        params, data, consts = random_flow_case(rng)
        u1L = exact_u1(params.length, params, consts)
        sol = solve_bvp(data.u10, u1L, params)
        worst_c = max(worst_c, abs(sol.c - consts.c))
        slope = (sol.c + 0.5 * data.u10 * data.u10) / params.nu
        worst_slope = max(worst_slope, abs(slope - data.u1dot0))
    assert worst_c <= 1e-8
    assert worst_slope <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        "bvp_roundtrip", elapsed, budget,
        f"c_recovery={worst_c:.3e} (tol 1e-8) slope_recovery={worst_slope:.3e} (tol 1e-8)",
    )


def test_criterion_5_identity_checks():
    budget = 5.0
    start = time.perf_counter()
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.5)
    consts = solve_ivp(InitialData(u10=0.0, u1dot0=-0.5), params)
    family = StreamlineFamily.sinusoidal(0.1, math.pi)
    grid = GridSpec(x_min=0.15, x_max=1.35, y_min=-0.4, y_max=0.4, nx=9, ny=3)
    sampled = reconstruct_field(family, params, consts, grid, pressure=(0.02, -0.05))

    hs = (1e-2, 1e-3, 1e-4)
    p1 = [check_prop1(sampled, h) for h in hs]
    p2 = [check_prop2_prop3(sampled, h)[0] for h in hs]
    assert p1[1] <= 1e-4
    assert p2[1] <= 1e-4

    # order of decay; the 1e-4 point of the second-derivative stencil is
    # skipped because its eps*|u|/h^2 rounding floor (~1e-7) swamps the
    # O(h^2) truncation term there
    slopes = [
        math.log10(p1[0] / p1[1]),
        math.log10(p1[1] / p1[2]),
        math.log10(p2[0] / p2[1]),
    ]
    for slope in slopes:
        assert abs(slope - 2.0) <= 0.3

    worst_bracket = max(
        abs(continuity_bracket(StreamlineFamily.straight(m), s))
        for m in (0.0, 1.0, -2.5)
        for s in (0.0, 0.4, 1.2)
    )
    assert worst_bracket == 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        "identity_checks", elapsed, budget,
        f"prop1(1e-3)={p1[1]:.3e} prop2(1e-3)={p2[1]:.3e} (tol 1e-4) "
        f"slopes={[round(sl, 2) for sl in slopes]} (2 +- 0.3) continuity={worst_bracket:g}",
    )


def test_criterion_6_pole_handling():
    budget = 2.0
    start = time.perf_counter()
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=6.0)
    # t(s) = s - 6: three Ai zeros swept for s in [0, 6)
    consts = SolutionConstants(a=-1.0, b=6.0, c=12.0, c1=1.0, c2=0.0)
    poles = find_poles(consts, 0.0, 6.0)
    assert len(poles) == 3

    # each pole sits just before the blow-up truncation of an RK4 run
    # started midway between the previous pole and it
    step = 1e-4
    assert check_pole_truncation(params, consts, 6.0, step) <= 10 * step

    # a pole error in a neighborhood of each pole
    for pole in poles:
        with pytest.raises(PoleError):
            exact_u1(pole, params, consts)

    # no false poles where z keeps one sign
    assert find_poles(consts, 6.5, 30.0) == []
    assert exact_u1(8.0, params, consts)  # evaluable, no pole band hit

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        "pole_handling", elapsed, budget,
        f"poles={[round(p, 6) for p in poles]} all inside one truncation interval",
    )


def test_criterion_7_serialization():
    budget = 1.0
    start = time.perf_counter()
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.2)
    consts = SolutionConstants(a=-1.0, b=4.0, c=8.0, c1=1.0, c2=0.0)
    pole = find_poles(consts, 0.0, 2.2)[0]
    dx = 0.02
    grid = GridSpec(
        x_min=pole - 24 * dx,
        x_max=pole + 25 * dx,
        y_min=-1.0,
        y_max=1.0,
        nx=50,
        ny=50,
    )
    sampled = reconstruct_field(
        StreamlineFamily.sinusoidal(0.15, 2.0), params, consts, grid
    )
    n_invalid = sum(1 for sm in sampled.samples if not sm.valid)
    assert n_invalid == 50  # the pole column, every row

    assert check_emit_roundtrip(sampled), "round-trip not byte-identical"

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        "serialization", elapsed, budget,
        f"grid=50x50 invalid_samples={n_invalid} csv+json byte-identical",
    )
