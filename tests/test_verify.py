"""RK4 oracles, kinematic identity checks, and the bundled report."""

import math
import random

import numpy as np
import pytest

from airyflow import (
    FlowParams,
    GridSpec,
    GridTooCoarseError,
    SolutionConstants,
    StreamlineFamily,
    check_prop1,
    check_prop2_prop3,
    continuity_bracket,
    exact_u1,
    find_poles,
    integrate_riccati,
    integrate_second_order,
    random_flow_case,
    reconstruct_field,
    run_verification,
    solve_ivp,
)
from airyflow.bvp import InitialData
from airyflow.field import FlowProfile, SampledField


def pole_free_case():
    p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.5)
    consts = solve_ivp(InitialData(u10=0.0, u1dot0=-0.5), p)
    assert find_poles(consts, -0.1, 1.6) == []
    return p, consts


class TestIntegrateRiccati:
    def test_matches_closed_form_fourth_order(self):
        p, consts = pole_free_case()
        errs = []
        for step in (4e-3, 2e-3):
            traj = integrate_riccati(p, consts.c, 0.0, p.length, step)
            exact = np.array([exact_u1(float(s), p, consts) for s in traj.s])
            errs.append(float(np.max(np.abs(traj.u1 - exact))))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_first_stage_slope(self):
        # the first RK stage is exactly the RHS at (0, u10)
        p = FlowParams(nu=2.0, grad_term=-1.0, f1=0.5, length=1.0)
        u10, c = 0.7, 0.3
        expected = u10 * u10 / (2 * p.nu) + c / p.nu
        traj = integrate_riccati(p, c, u10, 1e-6, 1e-6)
        observed = (traj.u1[1] - traj.u1[0]) / 1e-6
        assert observed == pytest.approx(expected, rel=1e-5)

    def test_truncates_before_running_past_pole(self):
        k = SolutionConstants(a=-1.0, b=4.0, c=8.0, c1=1.0, c2=0.0)
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.0)
        poles = find_poles(k, 0.0, 2.0)
        assert len(poles) == 1
        step = 1e-4
        traj = integrate_riccati(p, 8.0, exact_u1(0.0, p, k), 2.0, step)
        assert traj.truncated_at_pole
        assert traj.truncation_location is not None
        # blow-up is detected within a few steps after crossing
        assert 0.0 <= traj.truncation_location - poles[0] <= 10 * step
        assert np.all(np.isfinite(traj.u1))

    def test_rejects_bad_step(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        with pytest.raises(ValueError):
            integrate_riccati(p, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_riccati(p, 0.0, 0.0, -1.0, 1e-3)

    def test_uniform_grid_with_short_final_step(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        traj = integrate_riccati(p, 0.0, 0.0, 0.25, 0.1)
        assert traj.s[-1] == pytest.approx(0.25)
        steps = np.diff(traj.s)
        assert np.allclose(steps[:-1], 0.1)
        assert steps[-1] == pytest.approx(0.05)


class TestIntegrateSecondOrder:
    def test_agrees_with_riccati_when_linked(self):
        rng = random.Random(5)
        for _ in range(3):
            params, data, consts = random_flow_case(rng)
            t1 = integrate_riccati(params, consts.c, data.u10, params.length, 1e-4)
            t2 = integrate_second_order(
                params, data.u10, data.u1dot0, params.length, 1e-4
            )
            n = min(len(t1), len(t2))
            assert float(np.max(np.abs(t1.u1[:n] - t2.u1[:n]))) <= 1e-8

    def test_agrees_with_closed_form(self):
        p, consts = pole_free_case()
        traj = integrate_second_order(p, 0.0, -0.5, p.length, 1e-4)
        exact = np.array([exact_u1(float(s), p, consts) for s in traj.s[::100]])
        assert float(np.max(np.abs(traj.u1[::100] - exact))) <= 1e-8

    def test_zero_span_single_sample(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        traj = integrate_second_order(p, 0.3, 0.1, 0.0, 1e-3)
        assert len(traj) == 1
        assert traj.u1[0] == 0.3
        traj = integrate_riccati(p, 0.0, 0.3, 0.0, 1e-3)
        assert len(traj) == 1

    def test_closed_form_matches_fine_rk4_up_to_pole(self):
        # a case whose span contains a pole: integrate only up to
        # first_pole - 0.1 and the finest RK4 run tracks the closed form
        k = SolutionConstants(a=-1.0, b=4.0, c=8.0, c1=1.0, c2=0.0)
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.0)
        pole = find_poles(k, 0.0, 2.0)[0]
        span = pole - 0.1
        traj = integrate_riccati(p, 8.0, exact_u1(0.0, p, k), span, 1e-5)
        assert not traj.truncated_at_pole
        exact = np.array([exact_u1(float(s), p, k) for s in traj.s[::500]])
        assert float(np.max(np.abs(traj.u1[::500] - exact))) <= 1e-9


def airy_profile_field(h_margin=0.0, nx=9, ny=3, pressure=(0.02, -0.05)):
    p, consts = pole_free_case()
    family = StreamlineFamily.sinusoidal(0.1, math.pi)
    grid = GridSpec(x_min=0.15, x_max=1.35, y_min=-0.4, y_max=0.4, nx=nx, ny=ny)
    return reconstruct_field(family, p, consts, grid, pressure=pressure)


class TestKinematicIdentities:
    def test_constant_profile_exact(self):
        field = airy_profile_field()
        const_field = SampledField(
            grid=field.grid,
            samples=(),
            family=StreamlineFamily.straight(0.5),
            profile=FlowProfile(
                u1=lambda s: 0.75, u1dot=lambda s: 0.0, u1ddot=lambda s: 0.0
            ),
            pressure_affine=(0.0, 0.0),
        )
        assert check_prop1(const_field, 1e-3) < 1e-12
        err_v1, err_p = check_prop2_prop3(const_field, 1e-3)
        assert err_v1 < 1e-9
        assert err_p < 1e-12

    def test_airy_profile_small_residual(self):
        field = airy_profile_field()
        assert check_prop1(field, 1e-3) <= 1e-5
        err_v1, err_p = check_prop2_prop3(field, 1e-3)
        assert err_v1 <= 1e-4
        assert err_p <= 1e-10

    def test_second_order_decay(self):
        field = airy_profile_field()
        e1 = check_prop1(field, 1e-2)
        e2 = check_prop1(field, 1e-3)
        slope = math.log10(e1 / e2)
        assert 1.7 <= slope <= 2.3

    def test_synthetic_linear_profile_is_kinematic(self):
        # u1(s) = s is no solution of the flow equation, yet the
        # advective identity still holds
        field = airy_profile_field()
        synth = SampledField(
            grid=field.grid,
            samples=(),
            family=field.family,
            profile=FlowProfile(
                u1=lambda s: s, u1dot=lambda s: 1.0, u1ddot=lambda s: 0.0
            ),
        )
        assert check_prop1(synth, 1e-3) <= 1e-5

    def test_grid_too_coarse(self):
        field = airy_profile_field()
        with pytest.raises(GridTooCoarseError):
            check_prop1(field, 0.5)  # 3h margin swallows every node

    def test_requires_profile(self):
        field = airy_profile_field()
        bare = SampledField(grid=field.grid, samples=field.samples)
        with pytest.raises(ValueError):
            check_prop1(bare, 1e-3)


class TestContinuityBracket:
    def test_straight_family_zero(self):
        fam = StreamlineFamily.straight(2.0)
        assert continuity_bracket(fam, 0.0, 0.5) == 0.0

    def test_translate_family_zero(self):
        fam = StreamlineFamily.sinusoidal(0.3, 2.0)
        for s in (0.0, 0.7, 2.1):
            assert continuity_bracket(fam, 1.0, s) == 0.0

    def test_synthetic_family(self):
        fam = StreamlineFamily.polynomial((0.0, 0.0, 1.0), dg_dy=1.0)
        assert continuity_bracket(fam, 0.0, 1.0) == 2.0


class TestVerificationReport:
    def test_all_checks_pass(self):
        report = run_verification(seed=0)
        failing = [c.name for c in report.checks if not c.passed]
        assert report.all_passed, f"failing checks: {failing}"

    def test_seed_5_passes(self):
        # prop1's FD step once left truncation of 1.16e-5 against its 1e-5
        # tolerance on this seed
        report = run_verification(seed=5)
        failing = [c.name for c in report.checks if not c.passed]
        assert report.all_passed, f"failing checks: {failing}"

    def test_report_format(self):
        report = run_verification(seed=1)
        lines = report.format_lines()
        assert len(lines) == len(report.checks)
        for line in lines:
            assert line.startswith(("PASS ", "FAIL "))
            assert "max_residual=" in line and "tol=" in line
