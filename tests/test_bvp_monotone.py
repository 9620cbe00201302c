"""The structure solve_bvp relies on, checked against a dense oracle.

With u1(0) fixed, u1(L) strictly increases in c on the pole-free set,
and that set is a half-line c < c*.  So the candidates with a pole in
(0, L] form a suffix of the SCAN_POINTS grid, the usable residuals
increase along it, and a binary search plus Newton can replace the full
scan.  The dense oracle below is that full scan, kept only here; its
pole predicate is the test-side sign scan of oracles.py, not the
library's phase count that solve_bvp uses.
"""

import random

import pytest

from airyflow import (
    FlowDomainError,
    FlowParams,
    InitialData,
    NoSignChangeError,
    PoleError,
    SolutionConstants,
    constants_from_u0,
    default_c_bracket,
    exact_u1,
    random_flow_case,
    solve_bvp,
    solve_ivp,
)
from airyflow import flow
from airyflow.bvp import SCAN_POINTS
from airyflow.flow import endpoint_slope
from oracles import reference_solve_bvp, sign_scan_cells

N_DRAWS = 40

# README case: nu=1, grad_term=-2, f1=0, L=1, u10=0, u1L=0.25
README_PARAMS = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)


def constants_for(params, u10, c):
    return constants_from_u0(params, c, u10)[0]


def candidates(bracket):
    c_lo, c_hi = bracket
    return [c_lo + (c_hi - c_lo) * i / (SCAN_POINTS - 1) for i in range(SCAN_POINTS)]


def endpoint_residual(params, u10, u1L, c):
    """The scan's per-candidate rule: None for a pole in (0, L] (grid
    sign change, or the PoleError band at L), else u1(L) - u1L."""
    consts = constants_for(params, u10, c)
    if sign_scan_cells(consts, 0.0, params.length):
        return None
    try:
        return exact_u1(params.length, params, consts) - u1L
    except PoleError:
        return None


@pytest.fixture(scope="module")
def dense_draws():
    """(params, u10, u1L, generating c, grid, residuals) for each draw."""
    rng = random.Random(0)
    draws = []
    for _ in range(N_DRAWS):
        params, data, consts = random_flow_case(rng)
        u1L = exact_u1(params.length, params, consts)
        grid = candidates(default_c_bracket(data.u10, u1L, params.nu))
        residuals = [endpoint_residual(params, data.u10, u1L, c) for c in grid]
        draws.append((params, data.u10, u1L, consts.c, grid, residuals))
    return draws


def test_excluded_candidates_form_a_suffix(dense_draws):
    for *_, residuals in dense_draws:
        first = next((i for i, r in enumerate(residuals) if r is None), SCAN_POINTS)
        assert all(r is None for r in residuals[first:])


def test_usable_residuals_strictly_increase(dense_draws):
    checked = 0
    for params, u10, _, _, grid, residuals in dense_draws:
        for i in range(SCAN_POINTS - 1):
            r0, r1 = residuals[i], residuals[i + 1]
            if r0 is None or r1 is None:
                continue
            assert r1 > r0, (params, u10, grid[i])
            checked += 1
    assert checked > 100 * N_DRAWS


def test_usable_residuals_increase_on_whole_grid(dense_draws):
    for *_, residuals in dense_draws:
        usable = [r for r in residuals if r is not None]
        assert all(r1 > r0 for r0, r1 in zip(usable, usable[1:]))


def test_excluded_candidates_match_dense_count(dense_draws):
    for params, u10, u1L, c, _, residuals in dense_draws:
        sol = solve_bvp(u10, u1L, params)
        assert sol.excluded_candidates == sum(r is None for r in residuals)
        assert sol.roots == (sol.c,)
        assert abs(sol.c - c) <= 1e-12 * (1.0 + abs(c))


def test_closed_form_slope_matches_central_difference():
    rng = random.Random(3)
    for _ in range(20):
        params, data, consts = random_flow_case(rng)

        def residual_and_slope(c):
            return endpoint_slope(params, *constants_from_u0(params, c, data.u10))

        c = consts.c
        h = 1e-5 * (1.0 + abs(c))
        fd = (residual_and_slope(c + h)[0] - residual_and_slope(c - h)[0]) / (2.0 * h)
        slope = residual_and_slope(c)[1]
        assert slope > 0.0
        assert abs(fd - slope) <= 1e-7 * abs(slope)


def test_root_past_last_usable_candidate_has_no_sign_change():
    # put the root between the last pole-free grid candidate and the
    # pole crossing c*; the pole-free grid cells then hold no root
    params, u10, bracket = README_PARAMS, 0.0, (-10.0, 10.0)
    grid = candidates(bracket)
    k = SCAN_POINTS - solve_bvp(u10, 0.25, params, bracket).excluded_candidates
    assert endpoint_residual(params, u10, 0.0, grid[k]) is None
    usable, crossed = grid[k - 1], grid[k]
    for _ in range(30):
        mid = 0.5 * (usable + crossed)
        if endpoint_residual(params, u10, 0.0, mid) is None:
            crossed = mid
        else:
            usable = mid
    c_root = 0.5 * (grid[k - 1] + usable)
    u1L = endpoint_residual(params, u10, 0.0, c_root)
    assert u1L is not None
    with pytest.raises(NoSignChangeError) as err:
        solve_bvp(u10, u1L, params, bracket)
    assert err.value.residual_lo == endpoint_residual(params, u10, u1L, grid[0])
    assert err.value.residual_hi == endpoint_residual(params, u10, u1L, grid[k - 1])
    assert err.value.residual_hi < 0.0


def test_root_below_bracket_has_no_sign_change():
    # the README root is c = 1.2035...; Newton runs down to the bracket's
    # lower end, and the final check must reject it
    with pytest.raises(NoSignChangeError) as err:
        solve_bvp(0.0, 0.25, README_PARAMS, (2.0, 3.0))
    assert 0.0 < err.value.residual_lo < err.value.residual_hi


@pytest.fixture
def airy_calls(monkeypatch):
    """Counts the Airy evaluations made through flow's one kernel entry,
    where solve_bvp and solve_ivp make all of them."""
    calls = [0]
    airy_scaled = flow.airy_scaled

    def counted(t):
        calls[0] += 1
        return airy_scaled(t)

    monkeypatch.setattr(flow, "airy_scaled", counted)
    return calls


def test_readme_case_work_count(airy_calls, monkeypatch):
    # Building each shot from derive_constants, has_interior_pole and
    # exact_u1 costs four Airy evaluations per candidate and three per
    # Newton step, 56 here; sharing the quartets at t(0) and t(L) costs two.
    # 17 shots: 8 of the binary search, 8 Newton steps and the final one,
    # each constructing SolutionConstants once (building the partial
    # constants first and then the pair made 34).
    built = [0]
    post_init = SolutionConstants.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(SolutionConstants, "__post_init__", counted)
    sol = solve_bvp(0.0, 0.25, README_PARAMS)
    assert sol.excluded_candidates == 58
    assert built[0] == 17
    assert airy_calls[0] == 34


def test_solve_ivp_is_one_airy_evaluation(airy_calls):
    # the pole band at the origin is read from the quartet at t(0) that the
    # constants were built on, not from a second evaluation there
    consts = solve_ivp(InitialData(u10=0.3, u1dot0=-0.7), README_PARAMS)
    assert airy_calls[0] == 1
    assert abs(exact_u1(0.0, README_PARAMS, consts) - 0.3) <= 1e-12


def test_no_root_reuses_last_usable_residual(airy_calls):
    # the golden bvp_no_root case: eight shots of the binary search and
    # one at candidate 0 for the error; the residual at the last usable
    # candidate is the search's own, not a ninth shot
    with pytest.raises(NoSignChangeError) as err:
        solve_bvp(0.0, 0.25, README_PARAMS, (-1.0, 1.0))
    assert airy_calls[0] == 18
    grid = candidates((-1.0, 1.0))
    assert err.value.residual_lo == endpoint_residual(README_PARAMS, 0.0, 0.25, grid[0])
    assert err.value.residual_hi == endpoint_residual(README_PARAMS, 0.0, 0.25, grid[-1])


def test_solve_bvp_matches_public_function_reference():
    rng = random.Random(5)
    solved = failed = 0
    for _ in range(N_DRAWS):
        params, data, consts = random_flow_case(rng)
        u1L = exact_u1(params.length, params, consts)
        c = consts.c  # the last bracket misses the root
        for bracket in (None, (c - 2.0, c + 2.0), (c + 1.0, c + 3.0)):
            try:
                want = reference_solve_bvp(data.u10, u1L, params, bracket)
            except FlowDomainError as err:  # the solver must fail the same way
                with pytest.raises(type(err)) as got:
                    solve_bvp(data.u10, u1L, params, bracket)
                assert got.value.args == err.args
                failed += 1
                continue
            sol = solve_bvp(data.u10, u1L, params, bracket)
            assert (sol.c, sol.excluded_candidates, sol.endpoint_residual) == want
            solved += 1
    assert solved >= N_DRAWS and failed >= N_DRAWS
