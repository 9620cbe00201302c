"""The structure solve_bvp relies on, checked against a dense oracle.

With u1(0) fixed, u1(L) strictly increases in c on the pole-free set,
and that set is a half-line c < c*.  So the candidates with a pole in
(0, L] form a suffix of the SCAN_POINTS grid, the usable residuals
increase along it, and a binary search can count them without the full
scan; the grid serves only that count (excluded_candidates), made when
it is read.  Through c* and beyond, the Pruefer angle A = n pi - arccot
u1(L) stays continuous and increasing, so Newton on A finds the one root
from a sign bracket of the c bracket's two ends, wherever it lies.  The
dense oracle below is that full scan, kept only here; its pole predicate
is the test-side sign scan of oracles.py, not the library's phase count
that solve_bvp uses.
"""

import math
import random

import pytest

from airyflow import bvp, flow
from airyflow.airy import AiryQuartet
from airyflow.bvp import (ENDPOINT_RTOL, SCAN_POINTS, InitialData, default_c_bracket, solve_bvp,
                          solve_ivp)
from airyflow.errors import FlowDomainError, NoSignChangeError, PoleError
from airyflow.flow import FlowParams, SolutionConstants, constants_from_u0, exact_u1, shooter
from airyflow.verify import random_flow_case
from oracles import reference_solve_bvp, sign_scan_cells, u1_propagator
from test_domain import ORACLE_RTOL, _ivp_draws

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
    # There, from u10 = -3, Newton reaches u1(L) at c = -5e15, but the
    # constants give u1(0) = -3.000000005481785 (the pair's rounding, times
    # 2 nu (-a)**(1/3), at t(0) ~ 2.5e15), and the u1(0) guard refuses them.
    for u10 in (0.0, 1.0, -3.0):
        for u1L, bracket in ((-1e6, None), (1e6, None), (-1e7, (-6e13, -4e13)),
                             (-1e7, (-6e13, 0.0)), (-1e8, (-6e15, -4e15))):
            try:
                sol = solve_bvp(u10, u1L, README_PARAMS, bracket)
            except FlowDomainError as err:
                assert u1L == -1e8, (u10, bracket, err)
                if not str(err).startswith("no c reaches u1(L) = -100000000.0"):
                    assert (u10, bracket) == (-3.0, (-6e15, -4e15))
                    assert str(err).startswith("the constants miss u1(0) = -3.0")
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


def test_default_bracket_shot_total():
    # the bracket's two ends, its growth and Newton: 323 shots for the 40
    # default-bracket solves of random_flow_case(Random(0)), where a binary
    # search over the 256 candidates first took 567
    rng = random.Random(0)
    total = 0
    for _ in range(N_DRAWS):
        params, data, consts = random_flow_case(rng)
        total += solve_bvp(data.u10, exact_u1(params.length, params, consts), params).shots
    assert total == 323


def test_finish_takes_a_neighbour_only_where_u1L_is_monotone(monkeypatch):
    # low-viscosity draws of test_domain.py.  Draw 157, u1L = 1e6: Newton's
    # end misses the target, and its lower neighbour, across which u1(L)
    # increases, meets it.  Draw 273's shifted target: Newton's upper
    # neighbour meets it, but u1(L) falls past that neighbour, so the doubles
    # do not resolve the root there, and the 40-digit oracle refuses it
    ends = []
    newton = bvp._newton_root

    def recorded(*args):
        ends.append(newton(*args))
        return ends[-1]

    monkeypatch.setattr(bvp, "_newton_root", recorded)
    draws = _ivp_draws()
    params, u10, _ = draws[157]
    sol, shoot = solve_bvp(u10, 1e6, params), shooter(params, u10)
    assert sol.c == math.nextafter(ends[-1], -math.inf)
    assert abs(shoot(ends[-1])[0] - 1e6) > ENDPOINT_RTOL * (1.0 + 1e6)
    u1s = [shoot(c)[0] for c in (math.nextafter(sol.c, -math.inf), sol.c, ends[-1])]
    assert u1s == sorted(u1s)

    params, u10, _ = draws[273]
    target, shoot = -1.2441190500840067, shooter(params, u10)
    with pytest.raises(FlowDomainError, match="no c reaches") as err:
        solve_bvp(u10, target, params)
    up = math.nextafter(ends[-1], math.inf)
    assert abs(shoot(up)[0] - target) <= ENDPOINT_RTOL * (1.0 + abs(target))
    assert shoot(math.nextafter(up, math.inf))[0] < shoot(up)[0]
    want, cond = u1_propagator(params, u10, (up + 0.5 * u10 * u10) / params.nu, params.length)
    assert abs(target - want) > ORACLE_RTOL * cond * (1.0 + abs(want))
    with pytest.raises(FlowDomainError) as ref:
        reference_solve_bvp(u10, target, params)
    assert ref.value.args == err.value.args


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
    # evaluations.  10 shots: the bracket's two ends and 8 Newton iterates
    # on the angle, the last of them the root (its residual is within
    # ANGLE_NOISE, so no final shot); Newton starts from the end nearer the
    # root.  A binary search over the 256 candidates first took 15 shots
    # (8 of the search), and Newton on u1(L) from the midpoint of the
    # pole-free candidates 8 steps and a final shot, 34 evaluations.  A shot
    # works on floats; SolutionConstants is built once, for the answer (it
    # was once per shot, 15), and AiryQuartet never (it was once per
    # evaluation, 30).  The excluded candidates are counted when read.
    built = [0]
    post_init = SolutionConstants.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(SolutionConstants, "__post_init__", counted)
    sol = solve_bvp(0.0, 0.25, README_PARAMS)
    assert built[0] == 1
    assert sol.shots == 10
    assert airy_calls[0] == 20
    assert quartets_built[0] == 0
    # the first read of the count shoots the binary search's 8 candidates,
    # the second reads the cached count
    assert sol.excluded_candidates == 58
    assert sol.excluded_candidates == 58
    assert airy_calls[0] == 36 and built[0] == 1 and quartets_built[0] == 0


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
    # the golden bvp_no_root case: the error reads the residuals of the
    # bracket's two end shots, c_lo and c_hi, and shoots nothing more
    with pytest.raises(NoSignChangeError) as err:
        solve_bvp(0.0, 0.25, README_PARAMS, (-1.0, 1.0))
    assert airy_calls[0] == 4
    assert err.value.residual_lo == endpoint_residual(README_PARAMS, 0.0, 0.25, -1.0)
    assert err.value.residual_hi == endpoint_residual(README_PARAMS, 0.0, 0.25, 1.0)


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
