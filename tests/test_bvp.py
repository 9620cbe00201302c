"""Constant resolution from initial and boundary data."""

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from airyflow.airy import AiryQuartet, airy_eval
from airyflow.bvp import InitialData, c_from_initial, default_c_bracket, solve_bvp, solve_ivp
from airyflow.errors import (
    DegenerateModelError,
    FlowDomainError,
    NoSignChangeError,
    PoleError,
)
from airyflow.flow import (
    FlowParams,
    SolutionConstants,
    constants_from_u0,
    derive_constants,
    exact_u1,
    exact_u1_derivative,
    find_poles,
    shooter,
)
from airyflow.verify import random_flow_case

# frozen: normalized coefficients for u10 = 0 at t0 = 0 are exactly
# (sqrt(3)/2, 1/2) because Bi'(0) = -sqrt(3) Ai'(0); asserted numerically
COEF_C1 = 0.86602540378443864676
COEF_C2 = 0.5


class TestCFromInitial:
    @pytest.mark.parametrize(
        "u10,u1dot0,nu,expected",
        [(0.0, 0.0, 1.0, 0.0), (2.0, 0.0, 1.0, -2.0), (1.0, 3.0, 0.5, 1.0)],
    )
    def test_examples(self, u10, u1dot0, nu, expected):
        assert c_from_initial(u10, u1dot0, nu) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            c_from_initial(0.0, 0.0, 0.0)


class TestCoefficients:
    def test_zero_velocity_gives_30_degree_pair(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.0)
        consts, _ = constants_from_u0(p, 0.0, 0.0)
        assert consts.c1 == pytest.approx(COEF_C1, rel=1e-12)
        assert consts.c2 == pytest.approx(COEF_C2, rel=1e-12)

    def test_pure_ai_target(self):
        # choosing u10 equal to the pure-Ai start velocity zeroes the Bi
        # bracket, so the pair collapses to (1, 0)
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.0)
        partial = derive_constants(p, 0.0)
        pure_ai = partial.with_coefficients(1.0, 0.0)
        u10 = exact_u1(0.0, p, pure_ai)
        consts, _ = constants_from_u0(p, 0.0, u10)
        assert consts.c1 == pytest.approx(1.0, rel=1e-12)
        assert abs(consts.c2) <= 1e-12

    def test_roundtrip_reproduces_u10(self):
        rng = random.Random(3)
        for _ in range(25):
            nu = rng.uniform(0.3, 2.0)
            p = FlowParams(
                nu=nu,
                grad_term=rng.uniform(-3.0, 0.0) - 0.5,
                f1=0.0,
                length=1.0,
            )
            u10 = rng.uniform(-2.0, 2.0)
            consts, _ = constants_from_u0(p, rng.uniform(-2.0, 2.0), u10)
            assert exact_u1(0.0, p, consts) == pytest.approx(u10, rel=1e-10, abs=1e-10)


class TestSolveIvp:
    def test_example_constants(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.0)
        consts = solve_ivp(InitialData(u10=0.0, u1dot0=-2.0), p)
        assert consts.c == pytest.approx(-2.0)
        assert consts.a == pytest.approx(-1.0)
        assert consts.b == pytest.approx(-1.0)
        assert exact_u1(0.0, p, consts) == pytest.approx(0.0, abs=1e-12)
        assert exact_u1_derivative(0.0, p, consts) == pytest.approx(-2.0, rel=1e-12)

    def test_degenerate_forcing_rejected(self):
        p = FlowParams(nu=1.0, grad_term=0.7, f1=0.7, length=1.0)
        with pytest.raises(DegenerateModelError):
            solve_ivp(InitialData(u10=0.0, u1dot0=0.0), p)

    def test_pole_at_origin(self):
        # c = 2**93 - (2**47)**2 / 2 is exactly 0, and u1(0) = 2**47 lies in
        # the pole band of z(0)
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        assert c_from_initial(2.0**47, 2.0**93, 1.0) == 0.0
        with pytest.raises(PoleError) as info:
            solve_ivp(InitialData(u10=2.0**47, u1dot0=2.0**93), p)
        assert info.value.s == 0.0
        assert 0.0 < info.value.nearest_pole < 1e-13

    def test_roundtrip_on_random_cases(self):
        rng = random.Random(12345)
        for _ in range(100):
            params, data, consts = random_flow_case(rng)
            u0 = exact_u1(0.0, params, consts)
            du0 = exact_u1_derivative(0.0, params, consts)
            assert abs(u0 - data.u10) <= 1e-9 * (1.0 + abs(data.u10))
            assert abs(du0 - data.u1dot0) <= 1e-9 * (1.0 + abs(data.u1dot0))

    def test_normalization_convention(self):
        rng = random.Random(9)
        for _ in range(20):
            params, _, consts = random_flow_case(rng)
            assert math.hypot(consts.c1, consts.c2) == pytest.approx(1.0, rel=1e-14)
            lead = consts.c1 if consts.c1 != 0.0 else consts.c2
            assert lead > 0.0


class TestSolveBvp:
    def test_roundtrip_recovers_c(self):
        rng = random.Random(77)
        for _ in range(8):
            params, data, consts = random_flow_case(rng)
            u1L = exact_u1(params.length, params, consts)
            sol = solve_bvp(data.u10, u1L, params)
            assert abs(sol.c - consts.c) <= 1e-8
            assert sol.initial_slope == pytest.approx(data.u1dot0, abs=1e-8)
            assert abs(sol.endpoint_residual) <= 1e-9 * (1.0 + abs(u1L))
            assert any(abs(r - consts.c) <= 1e-8 for r in sol.roots)

    def test_symmetric_target_reachable(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        sol = solve_bvp(0.0, 0.0, p)
        assert abs(sol.endpoint_residual) <= 1e-9

    def test_determinism(self):
        p = FlowParams(nu=0.9, grad_term=-1.8, f1=0.2, length=1.2)
        a = solve_bvp(0.3, -0.4, p)
        b = solve_bvp(0.3, -0.4, p)
        assert a.c == b.c
        assert a.roots == b.roots
        assert a.constants == b.constants

    def test_no_sign_change_reports_residuals(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        with pytest.raises(NoSignChangeError) as err:
            solve_bvp(0.0, 5.0, p, (0.0, 1.0))
        assert err.value.residual_lo == pytest.approx(-5.911089, abs=1e-3)
        assert err.value.residual_hi == pytest.approx(-4.981805, abs=1e-3)

    def test_pole_crossing_everywhere(self):
        # c_lo is past the first pole crossing, so is every c of the bracket
        p = FlowParams(nu=0.2, grad_term=-8.0, f1=0.0, length=3.0)
        with pytest.raises(NoSignChangeError) as err:
            solve_bvp(0.5, 0.0, p, (10.3, 20.0))
        assert (err.value.residual_lo, err.value.residual_hi) == (math.inf, math.inf)

    def test_no_sign_change_reports_largest_pole_free_shot(self):
        # the root (c = 1.2035) lies below the bracket and c_hi past the
        # crossing (c* = 5.4), so both residuals are the one at c_lo
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        with pytest.raises(NoSignChangeError) as err:
            solve_bvp(0.0, 0.25, p, (2.0, 8.0))
        want = exact_u1(1.0, p, constants_from_u0(p, 2.0, 0.0)[0]) - 0.25
        assert err.value.residual_lo == err.value.residual_hi == want > 0.0

    def test_invalid_bracket(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        with pytest.raises(ValueError):
            solve_bvp(0.0, 0.0, p, (1.0, 1.0))

    def test_nonfinite_bracket_is_usage_error(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        with pytest.raises(ValueError):
            solve_bvp(0.0, 0.0, p, (-math.inf, 1.0))
        # finite ends whose candidate grid overflows: derived, a domain error;
        # the count of excluded candidates still needs that grid
        with pytest.raises(FlowDomainError, match="c grid span"):
            solve_bvp(0.0, 0.0, p, (-1e306, 1e306))

    def test_default_bracket_scales_with_data(self):
        lo, hi = default_c_bracket(2.0, -3.0, 0.5)
        assert lo == -45.0 and hi == 45.0
        lo, hi = default_c_bracket(0.1, 0.2, 1.0)
        assert lo == -10.0 and hi == 10.0


class TestShotFinishers:
    """A shot (flow.shooter) reports a pole one way, u1(L) = +inf, the value
    u1(L) reaches as c rises to a pole crossing, while the angle and its
    slope stay finite through the pole."""

    P = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)

    def test_pole_in_interval_reads_plus_infinity(self):
        # README case: c = 10, the default bracket's top, is past the first
        # pole crossing (58 of its 256 candidates are)
        u1, angle, slope, _, _ = shooter(self.P, 0.0)(10.0)
        assert u1 == math.inf
        assert angle > 0.0 and slope > 0.0

    def test_pole_band_at_endpoint(self):
        # z = Bi(1) Ai(t) - Ai(1) Bi(t) vanishes at t(L) = L = 1; c = 0 puts
        # t(0) at 0, and u10 is that z's u1(0) = -2 z_t(0)/z(0)
        q0, q1 = airy_eval(0.0), airy_eval(1.0)
        u10 = -2.0 * (q1.bi * q0.ai_prime - q1.ai * q0.bi_prime) / (q1.bi * q0.ai - q1.ai * q0.bi)
        u1, angle, slope, fields, _ = shooter(self.P, u10)(0.0)
        assert u1 == math.inf
        assert abs(angle) <= 1e-15
        assert math.isfinite(slope) and slope > 0.0
        with pytest.raises(PoleError):
            exact_u1(1.0, self.P, SolutionConstants(*fields))

    def test_finishers_agree_off_poles(self):
        u1, angle, slope, fields, q0 = shooter(self.P, 0.1)(-0.5)
        consts, q = constants_from_u0(self.P, -0.5, 0.1)
        assert SolutionConstants(*fields) == consts and AiryQuartet(*q0) == q
        assert u1 == exact_u1(1.0, self.P, consts)
        assert angle == pytest.approx(-math.atan2(1.0, u1), rel=1e-15, abs=0.0)
        assert slope > 0.0


def test_shots_match_frozen_table():
    # tests/shot_table.json (tests/make_shot_table.py) freezes 255 shots bit
    # for bit: 240 over the default brackets of 20 random_flow_case draws,
    # 14 with t(0) past 9 or t(L) below -9, and the pole band at L.  A
    # change meant to keep answers must leave every float as it was.
    table = json.loads((Path(__file__).parent / "shot_table.json").read_text())
    assert len(table["shots"]) == 255
    for row in table["shots"]:
        params = FlowParams(*(float.fromhex(x) for x in row["params"]))
        shot = shooter(params, float.fromhex(row["u10"]))
        u1, angle, slope, fields, _ = shot(float.fromhex(row["c"]))
        assert [x.hex() for x in (u1, angle, slope)] == row["shot"], row
        assert [x.hex() for x in fields] == row["fields"], row


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    nu=st.floats(0.05, 2.0),
    gap=st.floats(-4.0, -0.1),
    length=st.floats(0.1, 3.0),
    u10=st.floats(-5.0, 5.0),
    c=st.floats(-50.0, 50.0),
)
def test_shot_matches_constants_from_u0(nu, gap, length, u10, c):
    # the shot's constants are constants_from_u0's; its finite u1(L) is
    # exact_u1(L) on them, and its pole count n, read off A = n pi - arccot
    # u1(L) away from a zero at L, is what find_poles lists on (0, L]
    params = FlowParams(nu=nu, grad_term=gap, f1=0.0, length=length)
    u1, angle, _, fields, q0 = shooter(params, u10)(c)
    consts, q = constants_from_u0(params, c, u10)
    assert SolutionConstants(*fields) == consts and AiryQuartet(*q0) == q
    if u1 < math.inf:
        assert u1 == exact_u1(length, params, consts)
    turns = angle / math.pi
    assume(abs(turns - round(turns)) > 1e-9)
    assert math.ceil(turns) == len(find_poles(consts, 0.0, length))
