"""Flow parameters, solution constants, closed-form velocity, poles."""

import math
import random

import pytest

from airyflow import flow
from airyflow.airy import airy_eval
from airyflow.bvp import InitialData, solve_ivp
from airyflow.errors import (DegenerateModelError, FlowDomainError, ModelInvalidError,
                             NoConvergenceError, PoleError)
from airyflow.flow import (
    FlowParams,
    SolutionConstants,
    derive_constants,
    exact_u1,
    exact_u1_derivative,
    find_poles,
    map_t,
)
from airyflow.verify import check_fd_riccati, check_fd_second_order, random_flow_case

# frozen from the arbitrary-precision oracle
AI_0 = 0.35502805388781723926
BI_1 = 1.20742359495287125944
COMBO_0 = 0.68586153261477945891  # (Ai(0) + Bi(0))/sqrt(2)
U1_RATIO_0 = 1.45802226589445396284  # -2 Ai'(0)/Ai(0)
U1DOT_0 = 1.06291446392199890573  # (2 Ai'(0)/Ai(0))^2 / 2
FIRST_AI_ZERO = -2.33810741045976703849
FIRST_BI_ZERO = -1.17371322270912792492


def make_params(nu=1.0, grad_term=-2.0, f1=0.0, length=2.0):
    return FlowParams(nu=nu, grad_term=grad_term, f1=f1, length=length)


class TestFlowParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(nu=0.0)
        with pytest.raises(ValueError):
            make_params(nu=-1.0)
        with pytest.raises(ValueError):
            make_params(length=0.0)
        with pytest.raises(ValueError):
            make_params(grad_term=math.nan)


class TestDeriveConstants:
    def test_direct_substitution(self):
        k = derive_constants(make_params(nu=1.0, grad_term=-2.0, f1=0.0), 0.0)
        assert (k.a, k.b, k.c) == (-1.0, 0.0, 0.0)

    def test_direct_substitution_scaled(self):
        k = derive_constants(make_params(nu=0.5, grad_term=-1.0, f1=1.0), 1.0)
        assert k.a == pytest.approx(-4.0, rel=1e-15)
        assert k.b == pytest.approx(2.0, rel=1e-15)

    def test_invalid_model_reports_a(self):
        with pytest.raises(ModelInvalidError) as err:
            derive_constants(make_params(grad_term=1.0, f1=0.0), 0.0)
        assert err.value.a == pytest.approx(0.5)

    def test_degenerate_model(self):
        # at nu = 1e-200 and 1e200, 2 nu**2 rounds to 0 and to infinity
        for nu in (1.0, 1e-200, 1e200):
            with pytest.raises(DegenerateModelError):
                derive_constants(make_params(nu=nu, grad_term=0.5, f1=0.5), 0.0)


class TestSolutionConstants:
    def test_normalization_unit_norm_and_sign(self):
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=-3.0, c2=-4.0)
        assert math.hypot(k.c1, k.c2) == pytest.approx(1.0, rel=1e-15)
        assert k.c1 == pytest.approx(0.6)
        assert k.c2 == pytest.approx(0.8)

    def test_first_nonzero_positive(self):
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=0.0, c2=-2.0)
        assert (k.c1, k.c2) == (0.0, 1.0)

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=0.0, c2=0.0)

    def test_nonnegative_a_rejected(self):
        with pytest.raises(ValueError):
            SolutionConstants(a=0.0, b=0.0, c=0.0)

    def test_partial_requires_both(self):
        with pytest.raises(ValueError):
            SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0)


class TestMapT:
    @pytest.mark.parametrize(
        "a,b,s,expected",
        [(-1.0, 0.0, 3.0, 3.0), (-1.0, 2.0, 0.0, -2.0), (-8.0, 0.0, 1.0, 2.0)],
    )
    def test_examples(self, a, b, s, expected):
        k = SolutionConstants(a=a, b=b, c=0.0)
        assert map_t(s, k) == pytest.approx(expected, rel=1e-14)


def z_at(s, k):
    """The denominator z(s) = c1 Ai(t(s)) + c2 Bi(t(s)), from airy_eval."""
    q = airy_eval(map_t(s, k))
    return k.c1 * q.ai + k.c2 * q.bi


class TestDenominator:
    def test_pure_ai(self):
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
        assert z_at(0.0, k) == pytest.approx(AI_0, rel=1e-12)

    def test_pure_bi(self):
        # t(s) = s when a = -1, b = 0, so z(1) equals Bi(1)
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=0.0, c2=1.0)
        assert z_at(1.0, k) == pytest.approx(BI_1, rel=1e-12)

    def test_equal_combination(self):
        r = 1.0 / math.sqrt(2.0)
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=r, c2=r)
        assert z_at(0.0, k) == pytest.approx(COMBO_0, rel=1e-12)

    def test_requires_coefficients(self):
        # everything that evaluates z needs (c1, c2)
        partial = SolutionConstants(a=-1.0, b=0.0, c=0.0)
        with pytest.raises(ValueError):
            exact_u1(0.0, make_params(), partial)
        with pytest.raises(ValueError):
            find_poles(partial, 0.0, 1.0)


class TestExactU1:
    def test_pure_ai_at_origin(self):
        p = make_params()
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
        assert exact_u1(0.0, p, k) == pytest.approx(U1_RATIO_0, rel=1e-12)

    def test_pure_bi_at_origin(self):
        # Bi'(0)/Bi(0) = -Ai'(0)/Ai(0), so the pure-Bi profile starts at
        # the opposite velocity
        p = make_params()
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=0.0, c2=1.0)
        assert exact_u1(0.0, p, k) == pytest.approx(-U1_RATIO_0, rel=1e-12)

    def test_pole_raises_with_location(self):
        p = make_params()
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
        with pytest.raises(PoleError) as err:
            exact_u1(FIRST_AI_ZERO, p, k)
        assert err.value.nearest_pole == pytest.approx(FIRST_AI_ZERO, abs=1e-11)

    def test_derivative_from_riccati(self):
        p = make_params()
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
        assert exact_u1_derivative(0.0, p, k) == pytest.approx(U1DOT_0, rel=1e-10)

    def test_derivative_at_velocity_zero(self):
        # wherever u1 = 0, the slope is (gap*s + c)/nu directly
        p = make_params(nu=1.0, grad_term=-2.0, f1=0.0)
        k = derive_constants(p, 0.0).with_coefficients(1.0, 0.0)
        # u1 = -2 Ai'(t)/Ai(t) vanishes at the first zero of Ai'
        s0 = -1.01879297164747263645
        assert abs(exact_u1(s0, p, k)) < 1e-10
        assert exact_u1_derivative(s0, p, k) == pytest.approx(-2.0 * s0, abs=1e-9)

    def test_derivative_matches_finite_difference(self):
        p = make_params(nu=0.8, grad_term=-1.7, f1=0.3, length=1.5)
        k = derive_constants(p, 0.4).with_coefficients(0.9, 0.1)
        h = 1e-5
        for s in (0.1, 0.5, 0.9, 1.3):
            fd = (exact_u1(s + h, p, k) - exact_u1(s - h, p, k)) / (2 * h)
            assert fd == pytest.approx(exact_u1_derivative(s, p, k), abs=1e-6)

    def test_scale_invariance(self):
        p = make_params()
        base = SolutionConstants(a=-1.0, b=0.5, c=1.0, c1=0.3, c2=-0.7)
        u_ref = [exact_u1(s, p, base) for s in (0.0, 0.4, 1.1)]
        for lam in (-3.0, 0.5, 7.0):
            scaled = SolutionConstants(
                a=-1.0, b=0.5, c=1.0, c1=lam * 0.3, c2=lam * -0.7
            )
            for s, u in zip((0.0, 0.4, 1.1), u_ref):
                assert exact_u1(s, p, scaled) == pytest.approx(u, rel=1e-14)


class TestRiccatiResidual:
    # the shared checks sample s = k L/48, which holds i L/24 exactly and
    # i L/16 (k = 3i) to rounding
    def test_residual_small_on_random_cases(self):
        rng = random.Random(7)
        for _ in range(10):
            params, _, consts = random_flow_case(rng)
            assert check_fd_riccati(params, consts) <= 1e-6

    def test_second_order_residual(self):
        rng = random.Random(11)
        for _ in range(6):
            params, _, consts = random_flow_case(rng)
            assert check_fd_second_order(params, consts) <= 1e-4


class TestFindPoles:
    def test_ai_zero_located(self):
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
        poles = find_poles(k, -3.0, 0.0)
        assert len(poles) == 1
        assert abs(poles[0] - FIRST_AI_ZERO) <= 1e-12 * (1 + abs(FIRST_AI_ZERO))

    def test_bi_zero_located(self):
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=0.0, c2=1.0)
        poles = find_poles(k, -2.0, 0.0)
        assert len(poles) == 1
        assert abs(poles[0] - FIRST_BI_ZERO) <= 1e-12 * (1 + abs(FIRST_BI_ZERO))

    def test_constant_sign_interval_empty(self):
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
        assert find_poles(k, 0.5, 30.0) == []

    def test_poles_sorted_and_complete(self):
        # t(0) = -b, so b = 6 sweeps t over [-6, 0) for s in [0, 6)
        k = SolutionConstants(a=-1.0, b=6.0, c=12.0, c1=1.0, c2=0.0)
        poles = find_poles(k, 0.0, 6.0)
        assert poles == sorted(poles)
        assert len(poles) == 3  # Ai zeros above t = -6: -2.338, -4.088, -5.521
        assert poles[0] == pytest.approx(6.0 - 5.52055982809555105913, abs=1e-10)

    def test_dense_oscillation_all_found(self):
        # steep map: zeros crowd, each still has its own half-turn of the phase
        k = SolutionConstants(a=-64.0, b=0.0, c=0.0, c1=1.0, c2=0.3)
        poles = find_poles(k, -6.0, 0.0)
        assert len(poles) >= 15
        gaps = [b - a for a, b in zip(poles, poles[1:])]
        assert min(gaps) > 0.0

    def test_pole_band_and_find_poles_agree(self):
        p = make_params()
        k = SolutionConstants(a=-1.0, b=4.0, c=8.0, c1=1.0, c2=0.0)
        poles = find_poles(k, 0.0, 2.0)
        assert len(poles) == 1
        with pytest.raises(PoleError):
            exact_u1(poles[0], p, k)

    def test_invalid_interval(self):
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
        with pytest.raises(ValueError):
            find_poles(k, 1.0, 1.0)


def counting(f, counts):
    def g(x):
        counts[-1] += 1
        return f(x)

    return g


class TestNewtonRoot:
    def test_step_rounding_to_x_ends_there(self):
        # at x = 0.5 the residual is -2**-60, and the Newton step rounds to
        # nothing: the root is found, not bisected for another ~50 halvings
        counts = [0]
        f = counting(lambda x: (x - 0.5 - 2.0**-60, 1.0), counts)
        assert flow._newton_root(f, 0.0, 1.0, 0.5) == 0.5
        assert counts == [1]

    def test_phase_residual_noise_ends_newton(self, monkeypatch):
        # a low-viscosity case whose fifth zero reaches its phase residual's
        # rounding noise on the fourth Newton step; it used to take 39
        # residual evaluations, bisecting down from there
        p = FlowParams(
            nu=0.05624491046080502,
            grad_term=-1.1400742008611715,
            f1=0.04866545816910417,
            length=1.0173294312540213,
        )
        k = solve_ivp(InitialData(u10=0.8727093521317062, u1dot0=41.29963502761871), p)
        counts = []
        newton = flow._newton_root

        def counted(f, lo, hi, x):
            counts.append(0)
            return newton(counting(f, counts), lo, hi, x)

        monkeypatch.setattr(flow, "_newton_root", counted)
        poles = find_poles(k, 0.0, p.length)
        assert len(poles) == 5
        assert poles[4] == pytest.approx(0.93144826987591589, rel=1e-14)
        assert max(counts) <= 6
        assert sum(counts) <= 25

    def test_far_zero_converges(self):
        # the one zero of z at t = 50, where the phase is flat to rounding:
        # Newton on the phase crept from the bracket's midpoint and ran out of
        # iterations; on the residual log(Bi/Ai) - log(-c1/c2), nearly linear
        # in zeta, it descends from the bracket's right end
        q = airy_eval(50.0)
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=-q.ai / q.bi)
        (pole,) = find_poles(k, -1.0, 60.0)
        assert abs(pole - 50.0) <= 1e-12 * 50.0
        assert issubclass(NoConvergenceError, FlowDomainError)  # CLI exit 1

    def test_pole_error_without_converged_nearest_pole(self, monkeypatch):
        def stuck(f, lo, hi, x):
            raise NoConvergenceError("stuck")

        monkeypatch.setattr(flow, "_newton_root", stuck)
        k = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
        with pytest.raises(PoleError) as err:
            exact_u1(FIRST_AI_ZERO, make_params(), k)
        assert err.value.nearest_pole is None
