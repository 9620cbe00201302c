"""Domain-wide differential tests: the closed form against an independent
40-digit oracle over the low-viscosity domain, and the BVP against the
constants that generated its data.

The draws reach t(0) far beyond what random_flow_case covers.  Where the
unscaled (c1, c2) representation breaks down (c2/c1 underflows past
t(0) ~ 66, the Airy quartet overflows past t ~ 104.2) a draw fails
today; those draws are strict expected failures, so the fix turns them
into XPASS failures that force the markers off.
"""

import math
import random
from functools import cache

import pytest

from airyflow import FlowParams, InitialData, exact_u1, solve_bvp, solve_ivp
from airyflow.bvp import ENDPOINT_RTOL
from airyflow.verify import random_flow_case

from oracles import u1_propagator

IVP_SEED = 2024
IVP_DRAWS = 300
ORACLE_RTOL = 1e-9
MAX_COND = 1e8

BVP_SEEDS = (0, 7, 11)
BVP_DRAWS = 40
BVP_C_ATOL = 1e-8

KNOWN = "unscaled (c1, c2) representation (ROADMAP item 1)"
# u1 with its sign flipped (u1(0) missed as well), t(0) between 78 and 89;
# every passing draw has t(0) below 66
IVP_WRONG = {21, 121, 149, 230, 295}
# AiryOverflowError from solve_ivp, t(0) = 230 and 132
IVP_OVERFLOW = {88, 211}
# AiryOverflowError: the default bracket reaches t(0) = 135
BVP_OVERFLOW = {(11, 27)}


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


def _cases(cases, known):
    xfail = pytest.mark.xfail(strict=True, reason=KNOWN)
    return [pytest.param(*case, marks=xfail if case in known else ()) for case in cases]


@pytest.mark.parametrize("index", _cases(
    [(i,) for i in range(IVP_DRAWS)], {(i,) for i in IVP_WRONG | IVP_OVERFLOW}))
def test_ivp_draw_matches_oracle(index):
    params, u10, u1dot0 = _ivp_draws()[index]
    want, cond = u1_propagator(params, u10, u1dot0, params.length)
    if cond > MAX_COND:
        pytest.skip(f"u1(L) conditioned at {cond:.3g}")
    consts = solve_ivp(InitialData(u10=u10, u1dot0=u1dot0), params)
    assert abs(exact_u1(0.0, params, consts) - u10) <= ENDPOINT_RTOL * (1.0 + abs(u10))
    got = exact_u1(params.length, params, consts)
    assert abs(got - want) <= ORACLE_RTOL * cond * (1.0 + abs(want)), (got, want, cond)


@cache
def _bvp_cases(seed):
    rng = random.Random(seed)
    return [random_flow_case(rng) for _ in range(BVP_DRAWS)]


@pytest.mark.parametrize("seed,index", _cases(
    [(seed, i) for seed in BVP_SEEDS for i in range(BVP_DRAWS)], BVP_OVERFLOW))
def test_bvp_recovers_generating_c(seed, index):
    params, data, consts = _bvp_cases(seed)[index]
    u1L = exact_u1(params.length, params, consts)
    sol = solve_bvp(data.u10, u1L, params)
    assert abs(sol.c - consts.c) <= BVP_C_ATOL, (sol.c, consts.c)
