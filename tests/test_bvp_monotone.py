"""The structure solve_bvp relies on, checked against a dense oracle.

With u1(0) fixed, u1(L) strictly increases in c on the pole-free set,
and that set is a half-line c < c*.  So the candidates with a pole in
(0, L] form a suffix of the SCAN_POINTS grid, the usable residuals
increase along it, and a binary search can count them without the full
scan.  Through c* and beyond, the Pruefer angle A = n pi - arccot u1(L)
stays continuous and increasing, so Newton on A finds the one root
wherever it lies.  The dense oracle below is that full scan, kept only
here; its pole predicate is the test-side sign scan of oracles.py, not
the library's phase count that solve_bvp uses.
"""

import math
import random

import pytest

from airyflow import flow
from airyflow.airy import AiryQuartet
from airyflow.bvp import (ENDPOINT_RTOL, SCAN_POINTS, InitialData, default_c_bracket, solve_bvp,
                          solve_ivp)
from airyflow.errors import FlowDomainError, NoSignChangeError, PoleError
from airyflow.flow import FlowParams, SolutionConstants, constants_from_u0, exact_u1, shooter
from airyflow.verify import random_flow_case
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


def angle_and_slope(params, u10, c):
    return shooter(params, u10)(c)[1:3]


def test_closed_form_slope_matches_central_difference():
    rng = random.Random(3)
    for _ in range(20):
        params, data, consts = random_flow_case(rng)
        c = consts.c
        h = 1e-5 * (1.0 + abs(c))
        fd = (angle_and_slope(params, data.u10, c + h)[0]
              - angle_and_slope(params, data.u10, c - h)[0]) / (2.0 * h)
        slope = angle_and_slope(params, data.u10, c)[1]
        assert slope > 0.0
        assert abs(fd - slope) <= 1e-7 * abs(slope)


def first_crossing(params, u10, usable, crossed):
    """The last double c with A(c) <= 0 and the next one: the first pole
    crossing c* lies between, where z(L) changes sign and n gains one."""
    while math.nextafter(usable, crossed) != crossed:
        mid = 0.5 * (usable + crossed)
        if angle_and_slope(params, u10, mid)[0] <= 0.0:
            usable = mid
        else:
            crossed = mid
    return usable, crossed


def crossing_cases():
    """(params, u10, c_lo, c_hi) with the first pole crossing in [c_lo, c_hi]:
    the README case and the draws of random_flow_case(Random(0)) whose
    default grid excludes a candidate, the cell around the first one."""
    cases = [(README_PARAMS, 0.0, 5.0, 6.0)]
    rng = random.Random(0)
    while len(cases) < 21:
        params, data, consts = random_flow_case(rng)
        u1L = exact_u1(params.length, params, consts)
        bracket = default_c_bracket(data.u10, u1L, params.nu)
        k = SCAN_POINTS - solve_bvp(data.u10, u1L, params).excluded_candidates
        if k < SCAN_POINTS:
            grid = candidates(bracket)
            cases.append((params, data.u10, grid[k - 1], grid[k]))
    return cases


def test_angle_is_continuous_through_the_first_crossing():
    # A steps by at most what its slope allows on a dense grid across c*
    # and on the two doubles around it, so no pi jump hides in the count;
    # and its closed-form slope holds through the pole
    for params, u10, c_lo, c_hi in crossing_cases():
        c_a, c_b = first_crossing(params, u10, c_lo, c_hi)
        cs = sorted({c_lo + (c_hi - c_lo) * i / 400 for i in range(401)} | {c_a, c_b})
        angles, slopes = zip(*(angle_and_slope(params, u10, c) for c in cs))
        assert angles[0] < 0.0 < angles[-1]
        for i in range(len(cs) - 1):
            step = angles[i + 1] - angles[i]
            allowed = 2.0 * (cs[i + 1] - cs[i]) * max(slopes[i], slopes[i + 1])
            assert 0.0 < step <= allowed + 1e-14, (params, u10, cs[i])
        h = 1e-3 * (c_hi - c_lo)
        fd = (angle_and_slope(params, u10, c_a + h)[0]
              - angle_and_slope(params, u10, c_a - h)[0]) / (2.0 * h)
        slope = angle_and_slope(params, u10, c_a)[1]
        assert abs(fd - slope) <= 1e-4 * slope, (params, u10, c_a)


def test_angle_at_the_double_where_z_of_L_is_zero():
    # README case: z(L) rounds to exactly 0.0 at this c; the parity of the
    # half-turn count, not the sign test z >= 0, puts it on the side of
    # the crossing it belongs to, so A stays at 0 across its neighbours
    c = 5.5253645085505525
    consts, q0 = constants_from_u0(README_PARAMS, c, 0.0)
    q, sigma = flow.airy_scaled(flow.map_t(README_PARAMS.length, consts))
    assert flow._z(flow._pair(consts.c1, consts.c2, consts.zeta0), q, sigma)[0] == 0.0
    for x in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)):
        angle, slope = angle_and_slope(README_PARAMS, 0.0, x)
        assert abs(angle) <= 1e-15 and slope > 0.0


def test_angle_residual_within_its_rounding_is_a_root():
    # on these two roots, with the residual taken as the difference A -
    # target of two rounded angles, Newton's steps stayed above its 1e-14
    # stopping step while the residual was down to its rounding, and it ran
    # out of iterations (random_flow_case seed 3 draw 21 on the bracket
    # c +- 2, seed 5 draw 13 on the default one)
    for seed, index, bracket in ((3, 21, True), (5, 13, False)):
        rng = random.Random(seed)
        params, data, consts = [random_flow_case(rng) for _ in range(index + 1)][-1]
        u1L, c = exact_u1(params.length, params, consts), consts.c
        sol = solve_bvp(data.u10, u1L, params, (c - 2.0, c + 2.0) if bracket else None)
        assert abs(sol.c - c) <= 1e-12 * (1.0 + abs(c))


def test_large_targets_reach_endpoint_rtol():
    # README params.  Near u1L = -1e6 the angle A sits within 1e-6 of -pi,
    # where a double resolves u1(L) only to u1L**2 ulp(pi): 4e-4 there (and
    # a noise bound of 4 ulp(pi) is 1.8e-3), 0.04 at -1e7, against
    # ENDPOINT_RTOL's 1e-3 and 1e-2.  So the residual is one atan2 of
    # arccot u1L - arccot u1(L), as fine as u1(L) itself.  At
    # -1e8 the slope's [t z**2 - z_t**2] cancels (t(0) ~ 2.5e15) and Newton
    # may stop short: then the error names the target, never a wrong c.
    for u10 in (0.0, 1.0, -3.0):
        for u1L, bracket in ((-1e6, None), (1e6, None), (-1e7, (-6e13, -4e13)),
                             (-1e7, (-6e13, 0.0)), (-1e8, (-6e15, -4e15))):
            try:
                sol = solve_bvp(u10, u1L, README_PARAMS, bracket)
            except FlowDomainError as err:
                assert u1L == -1e8 and str(err).startswith("no c reaches u1(L) = -100000000.0")
                continue
            u1 = exact_u1(README_PARAMS.length, README_PARAMS, sol.constants)
            assert abs(u1 - u1L) <= ENDPOINT_RTOL * (1.0 + abs(u1L)), (u10, u1L, bracket)


def test_root_past_last_usable_candidate_is_found():
    # put the root between the last pole-free grid candidate and the
    # pole crossing c*; the pole-free grid cells hold no root, but the
    # angle brackets it between that candidate and the first excluded one
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
    assert endpoint_residual(params, u10, u1L, grid[k - 1]) < 0.0
    sol = solve_bvp(u10, u1L, params, bracket)
    assert grid[k - 1] < sol.c < grid[k]
    assert abs(sol.c - c_root) <= 1e-12 * (1.0 + abs(c_root))
    assert sol.excluded_candidates == SCAN_POINTS - k


def test_root_below_bracket_has_no_sign_change():
    # the README root is c = 1.2035...; A(c_lo) already lies above the
    # target, and an explicit bracket does not grow
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


@pytest.fixture
def quartets_built(monkeypatch):
    """Counts AiryQuartet constructions: the solver reads airy_scaled's plain
    floats, and only the public airy_eval and constants_from_u0 build one."""
    built = [0]
    init = AiryQuartet.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(AiryQuartet, "__init__", counted)
    return built


def test_readme_case_work_count(airy_calls, quartets_built, monkeypatch):
    # Sharing the Airy values at t(0) and t(L) makes a shot two Airy
    # evaluations.  15 shots: 8 of the binary search and 7 Newton iterates
    # on the angle, the last of them the root (its residual is within
    # ANGLE_NOISE, so no final shot); Newton starts from the shot of the
    # bracket end nearer the root.  Newton on u1(L) from the midpoint of
    # the pole-free candidates took 8 steps and a final shot, 34
    # evaluations.  A shot works on floats; SolutionConstants is built once,
    # for the answer (it was once per shot, 15), and AiryQuartet never (it
    # was once per evaluation, 30).
    built = [0]
    post_init = SolutionConstants.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(SolutionConstants, "__post_init__", counted)
    sol = solve_bvp(0.0, 0.25, README_PARAMS)
    assert sol.excluded_candidates == 58
    assert built[0] == 1
    assert sol.shots == 15
    assert airy_calls[0] == 30
    assert quartets_built[0] == 0


def test_quartet_built_only_at_the_public_edge(quartets_built):
    data = InitialData(u10=0.3, u1dot0=-0.7)
    consts = solve_ivp(data, README_PARAMS)
    exact_u1(0.5, README_PARAMS, consts)
    assert quartets_built[0] == 0
    _, q0 = constants_from_u0(README_PARAMS, consts.c, data.u10)
    assert quartets_built[0] == 1 and isinstance(q0, AiryQuartet)


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
