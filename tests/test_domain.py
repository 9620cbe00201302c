"""Domain-wide differential tests: the closed form against an independent
40-digit oracle over the low-viscosity domain, and the BVP against the
constants that generated its data.

The draws reach t(0) far beyond what random_flow_case covers: up to
t(0) ~ 230 in the seeded draws, and over +-1e3 in the Hypothesis
property.  An unscaled (c1, c2) pair breaks down there (c2/c1 underflows
past t(0) ~ 66, Bi' overflows past t ~ 104.2); the pair anchored at
t(0) on scaled Airy values must match the oracle throughout, and no
AiryOverflowError may leave the solver for any finite t(s).
"""

import math
import random
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from airyflow.bvp import ENDPOINT_RTOL, InitialData, solve_bvp, solve_ivp
from airyflow.errors import AiryOverflowError, FlowDomainError, NoSignChangeError, PoleCrossingError
from airyflow.flow import FlowParams, constants_from_u0, derive_constants, exact_u1, find_poles
from airyflow.verify import random_flow_case

from oracles import u1_propagator

IVP_SEED = 2024
IVP_DRAWS = 300
ORACLE_RTOL = 1e-9
MAX_COND = 1e8

BVP_SEEDS = (0, 7, 11)
BVP_DRAWS = 40
BVP_C_ATOL = 1e-8

# u1(L) of each IVP draw that solves, shifted by these, as BVP targets
LOWVISC_SHIFTS = (0.0, 3.0, -3.0)
# of the 900, 735 solve; the default bracket grows until it holds the
# root, so the rest raise neither NoSignChangeError nor PoleCrossingError
# but the FlowDomainError of a target no double reaches (u1(L) jumps to
# +inf within rounding of the pole crossing c*)
LOWVISC_MIN_SOLVED = 735
# u1(L) = +-1e6 on each of the 300 draws: 379 of the 600 solve, where 40
# of them used to meet a refused pole count at a probe with t(0) < -3.57e10;
# the rest raise the unreachable-target error
LARGE_TARGETS = (1e6, -1e6)
LARGE_MIN_SOLVED = 379

# bvp --nu 1 --grad-term -2 --f1 0 --L 1 --u10 4 --u1L -6: a benign root
# at t(0) = 8.6 (the 40-digit oracle gives u1(L) = -6.0000000000000036),
# but Newton on the default bracket starts at c = -183.5, t(0) = 91.8
GATE_PARAMS = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
GATE_C = -17.23340320023033

# t(0) = -c/2 for nu = 1, grad_term = -2, f1 = 0, u10 = 1, L = 1: c2/c1 of
# the plain pair is subnormal at 64 and 0 from 68, and Bi' overflows past
# 104.2; t(0) = 80 is `ivp ... --u10 1 --u1dot0 -159.5`
REGRESSION_T0 = (64.0, 68.0, 80.0, 103.0, 110.0, 350.0)


def _ivp_draws():
    rng = random.Random(IVP_SEED)
    draws = []
    for _ in range(IVP_DRAWS):
        nu = math.exp(rng.uniform(math.log(0.02), math.log(2.0)))
        grad_term = -rng.uniform(0.1, 4.0)
        length = rng.uniform(0.5, 3.0)
        u10 = rng.uniform(-5.0, 5.0)
        u1dot0 = rng.uniform(-20.0, 20.0)
        draws.append((FlowParams(nu=nu, grad_term=grad_term, f1=0.0, length=length), u10, u1dot0))
    return draws


def assert_ivp_matches(params, u10, u1dot0, want, cond):
    """The IVP hits u1(0) and the oracle's u1(L) = want, conditioned at cond."""
    consts = solve_ivp(InitialData(u10=u10, u1dot0=u1dot0), params)
    assert abs(exact_u1(0.0, params, consts) - u10) <= ENDPOINT_RTOL * (1.0 + abs(u10))
    got = exact_u1(params.length, params, consts)
    assert abs(got - want) <= ORACLE_RTOL * cond * (1.0 + abs(want)), (got, want, cond)


def assert_ivp_matches_oracle(params, u10, u1dot0):
    want, cond = u1_propagator(params, u10, u1dot0, params.length)
    if cond > MAX_COND:
        pytest.skip(f"u1(L) conditioned at {cond:.3g}")
    assert_ivp_matches(params, u10, u1dot0, want, cond)


@pytest.mark.parametrize("index", range(IVP_DRAWS))
def test_ivp_draw_matches_oracle(index):
    assert_ivp_matches_oracle(*_ivp_draws()[index])


@pytest.mark.parametrize("t0", REGRESSION_T0)
def test_ivp_past_unscaled_range_matches_oracle(t0):
    assert_ivp_matches_oracle(GATE_PARAMS, 1.0, 0.5 - 2.0 * t0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    nu=st.floats(0.02, 2.0),
    u10=st.floats(-5.0, 5.0),
    ta=st.floats(-1e3, 1e3),
    tb=st.floats(-1e3, 1e3),
)
def test_ivp_over_wide_t_matches_oracle(nu, u10, ta, tb):
    # a = -1, so t(s) = t0 + s and L = tL - t0
    t0, tL = min(ta, tb), max(ta, tb)
    assume(tL - t0 >= 1e-3)
    params = FlowParams(nu=nu, grad_term=-2.0 * nu * nu, f1=0.0, length=tL - t0)
    u1dot0 = (-2.0 * nu * nu * t0 + 0.5 * u10 * u10) / nu
    want, cond = u1_propagator(params, u10, u1dot0, params.length)
    assume(cond <= MAX_COND)  # oracle z not within 1e-8 of a zero
    assert_ivp_matches(params, u10, u1dot0, want, cond)


@pytest.mark.parametrize("t0", [-30.0, 0.0, 9.5, 104.3, 1e3, 1e10, 1e100, 1e200, 1e250])
@pytest.mark.parametrize("span", [1e-3, 1.0, 1e3, 1e100])
def test_no_airy_overflow_for_finite_t(t0, span):
    # t(s) = t0 + s on [0, span] (nu = 1, c = -2 t0): whatever else they
    # raise, the solver's entry points never let the kernel's overflow out
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=span)
    consts = derive_constants(params, -2.0 * t0).with_coefficients(0.6, -0.8)
    for call in (
        lambda: solve_ivp(InitialData(u10=0.5, u1dot0=0.125 - 2.0 * t0), params),
        lambda: solve_bvp(0.5, 1.0, params),
        lambda: [exact_u1(s, params, consts) for s in (0.0, span)],
        lambda: find_poles(consts, 0.0, span),
    ):
        try:
            call()
        except FlowDomainError as err:
            assert not isinstance(err, AiryOverflowError), err


@cache
def _bvp_cases(seed):
    rng = random.Random(seed)
    return [random_flow_case(rng) for _ in range(BVP_DRAWS)]


@pytest.mark.parametrize("seed,index", [
    (seed, i) for seed in BVP_SEEDS for i in range(BVP_DRAWS)
])
def test_bvp_recovers_generating_c(seed, index):
    params, data, consts = _bvp_cases(seed)[index]
    u1L = exact_u1(params.length, params, consts)
    sol = solve_bvp(data.u10, u1L, params)
    assert abs(sol.c - consts.c) <= BVP_C_ATOL, (sol.c, consts.c)


def test_lowvisc_bvps_solve_or_raise_domain_error():
    solved = 0
    for index, (params, u10, u1dot0) in enumerate(_ivp_draws()):
        consts = solve_ivp(InitialData(u10=u10, u1dot0=u1dot0), params)
        u1L = exact_u1(params.length, params, consts)
        for target in (u1L + shift for shift in LOWVISC_SHIFTS):
            try:
                sol = solve_bvp(u10, target, params)
            except FlowDomainError as err:
                assert not isinstance(err, (NoSignChangeError, PoleCrossingError)), (index, err)
                continue
            want, cond = u1_propagator(params, u10, sol.initial_slope, params.length)
            if cond <= MAX_COND:
                assert abs(target - want) <= ORACLE_RTOL * cond * (1.0 + abs(want)), (index, target)
            solved += 1
    assert solved >= LOWVISC_MIN_SOLVED


def test_lowvisc_large_targets_solve_or_are_unreachable():
    solved = 0
    for index, (params, u10, _) in enumerate(_ivp_draws()):
        for target in LARGE_TARGETS:
            try:
                sol = solve_bvp(u10, target, params)
            except FlowDomainError as err:
                assert str(err).startswith(f"no c reaches u1(L) = {target!r}: "), (index, err)
                continue
            want, cond = u1_propagator(params, u10, sol.initial_slope, params.length)
            if cond <= MAX_COND:
                assert abs(target - want) <= ORACLE_RTOL * cond * (1.0 + abs(want)), (index, target)
            solved += 1
    assert solved >= LARGE_MIN_SOLVED


def test_bvp_newton_start_past_item1_region():
    # Newton on the default bracket starts at t(0) = 91.8
    sol = solve_bvp(4.0, -6.0, GATE_PARAMS)
    assert abs(sol.c - GATE_C) <= BVP_C_ATOL


def test_bvp_gate_root_on_narrow_bracket():
    sol = solve_bvp(4.0, -6.0, GATE_PARAMS, (-60.0, 10.0))
    assert abs(sol.c - GATE_C) <= BVP_C_ATOL
    want, cond = u1_propagator(GATE_PARAMS, 4.0, sol.initial_slope, GATE_PARAMS.length)
    assert abs(want + 6.0) <= ORACLE_RTOL * cond * (1.0 + abs(want))


@pytest.mark.parametrize("s", [-5.0, -25.0])
def test_u1_below_the_anchor_matches_oracle(s):
    # the pair is anchored at t(0) = 20 (zeta0 ~ 59.6); t(-5) = 15 and
    # t(-25) = -5 have a smaller Airy scale, so z weights c2 by e**(2D), D < 0
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
    consts, _ = constants_from_u0(params, -40.0, 0.3)
    want, cond = u1_propagator(params, 0.3, -40.0 + 0.5 * 0.3 * 0.3, s)
    got = exact_u1(s, params, consts)
    assert abs(got - want) <= ORACLE_RTOL * cond * (1.0 + abs(want)), (got, want, cond)
