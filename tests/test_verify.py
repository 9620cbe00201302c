"""RK4 oracles, kinematic identity checks, and the bundled report."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from airyflow import airy, verify
from airyflow.bvp import InitialData, solve_ivp
from airyflow.errors import GridTooCoarseError
from airyflow.flow import FlowParams, SolutionConstants, exact_u1, find_poles, map_t
from airyflow.field import (
    FlowProfile,
    GridSpec,
    SampledField,
    StreamlineFamily,
    reconstruct_field,
)
from airyflow.verify import (
    BLOWUP_LIMIT,
    CheckResult,
    check_prop1,
    check_prop2_prop3,
    continuity_bracket,
    integrate_riccati,
    integrate_second_order,
    random_flow_case,
    run_verification,
    _grid,
)
from oracles import _reference_grid, reference_riccati, reference_second_order


def pole_free_case():
    p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.5)
    consts = solve_ivp(InitialData(u10=0.0, u1dot0=-0.5), p)
    assert find_poles(consts, -0.1, 1.6) == []
    return p, consts


def bits(a: np.ndarray):
    return a.dtype, a.shape, a.tobytes()


def assert_same_trajectory(got, ref):
    # bytes, so that NaN equals NaN and -0.0 differs from 0.0
    assert bits(got.s) == bits(ref.s)
    assert bits(got.u1) == bits(ref.u1)
    assert got.truncated_at_pole == ref.truncated_at_pole
    assert got.truncation_location == ref.truncation_location
    assert type(got.truncation_location) is type(ref.truncation_location)


def assert_both_match(params, c, u10, u1dot0, s_end, step):
    """Both integrators equal the textbook reference loops bit for bit;
    returns the two trajectories."""
    ric = integrate_riccati(params, c, u10, s_end, step)
    assert_same_trajectory(ric, reference_riccati(params, c, u10, s_end, step))
    sec = integrate_second_order(params, u10, u1dot0, s_end, step)
    assert_same_trajectory(sec, reference_second_order(params, u10, u1dot0, s_end, step))
    return ric, sec


def pole_case():
    k = SolutionConstants(a=-1.0, b=4.0, c=8.0, c1=1.0, c2=0.0)
    p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.0)
    u10 = exact_u1(0.0, p, k)
    return p, 8.0, u10, (8.0 + 0.5 * u10 * u10) / p.nu


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
            assert verify.check_rk4(params, data, consts, 1e-4, 20)[1] <= 1e-8

    def test_agrees_with_closed_form(self):
        p, consts = pole_free_case()
        traj = integrate_second_order(p, 0.0, -0.5, p.length, 1e-4)
        exact = np.array([exact_u1(float(s), p, consts) for s in traj.s[::100]])
        assert float(np.max(np.abs(traj.u1[::100] - exact))) <= 1e-8

    def test_zero_span_single_sample(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        ric, sec = assert_both_match(p, 0.0, 0.3, 0.1, 0.0, 1e-3)
        assert len(sec) == 1
        assert sec.u1[0] == 0.3
        assert len(ric) == 1

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


class TestBitIdenticalToReference:
    def test_grid_matches_list_grid(self):
        # the suite's list grid and the public Trajectory's numpy grid; with
        # no forcing u1 stays 0, so the trajectory keeps every grid point
        still = FlowParams(nu=1.0, grad_term=0.0, f1=0.0, length=1.0)
        rng = random.Random(11)
        for _ in range(2000):
            s_end, step = rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-2.5, 0.5)
            ref = _reference_grid(s_end, step)
            assert _grid(s_end, step) == ref
            assert integrate_second_order(still, 0.0, 0.0, s_end, step).s.tolist() == ref

    def test_random_cases_at_fixed_step_count(self):
        rng = random.Random(2)
        for _ in range(20):
            params, data, consts = random_flow_case(rng)
            ric, _ = assert_both_match(
                params, consts.c, data.u10, data.u1dot0, params.length, params.length / 8000
            )
            assert not ric.truncated_at_pole

    def test_run_verification_steps(self):
        rng = random.Random(0)
        cases = [random_flow_case(rng) for _ in range(3)]
        short_final = False
        for params, data, consts in cases:
            for step in (1e-4, 1e-5, 8e-3, 4e-3):
                ric, _ = assert_both_match(
                    params, consts.c, data.u10, data.u1dot0, params.length, step
                )
                short_final |= bool(ric.s[-1] - ric.s[-2] < 0.99 * step)
        assert short_final

    @pytest.mark.parametrize("step", [1e-4, 1e-3])
    def test_pole_case_truncates_at_same_step(self, step):
        ric, sec = assert_both_match(*pole_case(), 2.0, step)
        assert ric.truncated_at_pole and sec.truncated_at_pole
        assert type(ric.truncation_location) is float


class TestNonFiniteBlowUp:
    def test_overflow_to_inf_truncates_first_step(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        ric, sec = assert_both_match(p, 0.0, 1e200, 1e200, 1.0, 0.1)
        for traj in (ric, sec):
            assert len(traj) == 1 and traj.truncated_at_pole
            assert type(traj.truncation_location) is float
            assert traj.truncation_location == 0.1

    def test_nan_truncates_first_step(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        ric = integrate_riccati(p, 0.0, math.nan, 1.0, 0.1)
        assert_same_trajectory(ric, reference_riccati(p, 0.0, math.nan, 1.0, 0.1))
        sec = integrate_second_order(p, 0.5, math.nan, 1.0, 0.1)
        assert_same_trajectory(sec, reference_second_order(p, 0.5, math.nan, 1.0, 0.1))
        for traj in (ric, sec):
            assert traj.truncated_at_pole and len(traj) == 1

    @pytest.mark.parametrize(
        "nu, u10, u1dot0, step, w_bad",
        [
            # the w stages sum past the float range: w -> inf, u stays 1
            (1e-300, 1.0, 1e8, 1e-300, math.isinf),
            # 2 k2w and 2 k3w overflow with opposite signs: w -> nan, u -0.25
            (2e-198, -0.25, 2e71, 1e-177, math.isnan),
        ],
    )
    def test_non_finite_w_alone_truncates(self, nu, u10, u1dot0, step, w_bad):
        p = FlowParams(nu=nu, grad_term=0.0, f1=0.0, length=1.0)
        ref = reference_second_order(p, u10, u1dot0, step, step)
        got = integrate_second_order(p, u10, u1dot0, step, step)
        assert_same_trajectory(got, ref)
        assert got.truncated_at_pole and got.truncation_location == step
        # the step that truncated kept u in range, so only w tripped the test
        h = step
        k1w = u10 * u1dot0 / nu
        w2 = u1dot0 + 0.5 * h * k1w
        u2 = u10 + 0.5 * h * u1dot0
        k2w = u2 * w2 / nu
        w3 = u1dot0 + 0.5 * h * k2w
        u3 = u10 + 0.5 * h * w2
        k3w = u3 * w3 / nu
        w4 = u1dot0 + h * k3w
        u4 = u10 + h * w3
        k4w = u4 * w4 / nu
        u_next = u10 + h / 6.0 * (u1dot0 + 2.0 * w2 + 2.0 * w3 + w4)
        w_next = u1dot0 + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        assert abs(u_next) <= BLOWUP_LIMIT and w_bad(w_next)

    def test_limit_crossed_mid_run(self):
        p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
        ric, sec = assert_both_match(p, 0.0, 1e9, 1e19, 1e-8, 1e-11)
        for traj in (ric, sec):
            assert 1 < len(traj) < 1001 and traj.truncated_at_pole
            assert np.all(np.abs(traj.u1) <= BLOWUP_LIMIT)
            assert type(traj.truncation_location) is float


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
                u1=lambda s: 0.75, u1dot=lambda s, u: 0.0, u1ddot=lambda s, u: 0.0
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
                u1=lambda s: s, u1dot=lambda s, u: 1.0, u1ddot=lambda s, u: 0.0
            ),
        )
        assert check_prop1(synth, 1e-3) <= 1e-5

    def test_grid_too_coarse(self):
        field = airy_profile_field()
        with pytest.raises(GridTooCoarseError):
            check_prop1(field, 0.5)  # 3h margin swallows every node

    @pytest.mark.parametrize("check, tol", [
        (lambda field: check_prop1(field, 1e-3), 1e-5),
        (lambda field: check_prop2_prop3(field, 1e-3)[0], 1e-4),
    ], ids=["prop1", "prop2"])
    def test_nan_column_fails(self, check, tol):
        # u1 is NaN at one interior column: the residual there is NaN, and
        # the report reads a NaN residual as a failure
        field = airy_profile_field()
        x_nan, u1 = field.grid.xs()[4], field.profile.u1
        profile = replace(field.profile, u1=lambda s: math.nan if s == x_nan else u1(s))
        assert check(field) <= tol
        assert not CheckResult("prop", check(replace(field, profile=profile)), tol).passed

    def test_requires_profile(self):
        field = airy_profile_field()
        bare = SampledField(grid=field.grid, samples=field.samples)
        with pytest.raises(ValueError, match="no analytic profile"):
            check_prop1(bare, 1e-3)
        with pytest.raises(ValueError, match="no analytic profile"):
            check_prop2_prop3(bare, 1e-3)

    def test_prop2_error_order(self):
        # profile, then pressure, then the grid: h = 0.5 swallows every node
        no_pressure = airy_profile_field(pressure=None)
        with pytest.raises(ValueError, match="no affine pressure sample"):
            check_prop2_prop3(no_pressure, 0.5)
        with pytest.raises(GridTooCoarseError):
            check_prop2_prop3(airy_profile_field(), 0.5)
        with pytest.raises(GridTooCoarseError):
            check_prop1(no_pressure, 0.5)


class TestContinuityBracket:
    def test_straight_family_zero(self):
        fam = StreamlineFamily.straight(2.0)
        assert continuity_bracket(fam, 0.5) == 0.0

    def test_translate_family_zero(self):
        fam = StreamlineFamily.sinusoidal(0.3, 2.0)
        for s in (0.0, 0.7, 2.1):
            assert continuity_bracket(fam, s) == 0.0

    def test_synthetic_family(self):
        fam = StreamlineFamily.polynomial((0.0, 0.0, 1.0))
        assert continuity_bracket(fam, 1.0, dg_dy=1.0) == 2.0


def test_random_flow_case_keeps_denominator_off_zero():
    # the padded pole rule alone keeps |c1 Ai + c2 Bi| >= 1e-3 (|c1 Ai| + |c2 Bi|)
    # at 49 points of [0, L] (a rule of its own once rejected such draws; over
    # 50,000 draws it never fired, and the smallest margin was 4.2e-2)
    for seed in range(300):
        params, _, consts = random_flow_case(random.Random(seed))
        c1, c2 = consts.coefficients
        for k in range(49):
            q = airy.airy_eval(map_t(k * params.length / 48.0, consts))
            z1, z2 = c1 * q.ai, c2 * q.bi
            assert abs(z1 + z2) >= 1e-3 * (abs(z1) + abs(z2)), (seed, k)


class TestSharedChecks:
    def test_perturbed_solution_fails_each_check(self, monkeypatch):
        # the tolerances are run_verification's; a check that returned 0
        # regardless of its input would pass the clean case and fail here
        params, data, consts = random_flow_case(random.Random(0))
        checks = {
            "fd_riccati": (lambda d: verify.check_fd_riccati(params, consts), 1e-6),
            "fd_second_order": (lambda d: verify.check_fd_second_order(params, consts), 1e-4),
            "rk4": (lambda d: verify.check_rk4(params, d, consts, 1e-4, 20)[0], 1e-9),
            "ode_forms": (lambda d: verify.check_rk4(params, d, consts, 1e-4, 20)[1], 1e-8),
        }
        for name, (check, tol) in checks.items():
            assert check(data) <= tol, name
        exact = verify.exact_u1
        monkeypatch.setattr(verify, "exact_u1", lambda s, p, k: exact(s, p, k) * (1.0 + 1e-4))
        # u1'(0) off by 1e-6 breaks the link c = nu u1'(0) - u1(0)**2/2
        # between the two forms, which do not read the closed form
        off = InitialData(u10=data.u10, u1dot0=data.u1dot0 + 1e-6)
        for name, (check, tol) in checks.items():
            assert check(off if name == "ode_forms" else data) > tol, name

        # exact_u1 NaN at one point each check reads past its first: the
        # x + h point of a mid-span stencil, and the 11th compared RK4 sample.
        # A NaN residual fails as the report reads it (r > tol is False)
        mid = 24 * params.length / verify.FD_SAMPLES
        nan_at = {mid + verify.RICCATI_FD_STEP, mid + verify.SECOND_ORDER_FD_STEP,
                  _grid(params.length, 1e-4)[200]}
        monkeypatch.setattr(
            verify, "exact_u1", lambda s, p, k: math.nan if s in nan_at else exact(s, p, k)
        )
        for name in ("fd_riccati", "fd_second_order", "rk4"):
            check, tol = checks[name]
            result = CheckResult(name, check(data), tol)
            assert not result.passed, name
            assert result.format_line() == f"FAIL {name} max_residual=nan tol={tol:g}"

    def test_perturbed_quartet_fails_each_airy_check(self, monkeypatch):
        # Ai + 1e-3 t**2 adds 2e-3 - 1e-3 t**3 to y'' - t y and 2e-3 t to
        # the difference quotient; the points and tolerances are
        # run_verification's
        checks = {
            "ode": (verify.check_airy_ode, (0.0, 2.0, -3.0, -7.0, -12.0), 1e-6),
            "derivative_fd": (
                verify.check_airy_derivative_fd,
                (0.0, 1.5, -2.6, 4.2, -6.1, 8.5, -8.8, 11.0, -14.0),
                1e-7,
            ),
        }
        for name, (check, ts, tol) in checks.items():
            assert check(ts) <= tol, name
        exact = verify.airy_eval
        monkeypatch.setattr(
            verify, "airy_eval", lambda t: replace(exact(t), ai=exact(t).ai + 1e-3 * t * t)
        )
        for name, (check, ts, tol) in checks.items():
            assert check(ts) > tol, name

        # Ai NaN at one t each check reads past its first, and in the
        # Wronskian sweep at t = 10; a NaN residual fails as the report
        # reads it (r > tol is False)
        nan_at = {-3.0 + 1e-4, -2.6 + 1e-5, 10.0}
        monkeypatch.setattr(
            verify, "airy_eval",
            lambda t: replace(exact(t), ai=math.nan) if t in nan_at else exact(t),
        )
        for name, (check, ts, tol) in checks.items():
            assert not CheckResult(name, check(ts), tol).passed, name
        assert not CheckResult("wronskian", verify.check_wronskian(), 1e-10).passed


class TestVerificationReport:
    def test_all_checks_pass(self):
        report = run_verification(seed=0)
        failing = [c.name for c in report.checks if not c.passed]
        assert report.all_passed, f"failing checks: {failing}"

    def test_suite_work_count(self, monkeypatch):
        # each of the three RK4 cases runs each ODE form's list loop once;
        # the order pair adds one run of each form, and the pole check one
        # Riccati run.  The 12x4 field of the prop checks is also the one
        # serialized.  The Airy kernel's three branches pin the closed-form
        # and Airy evaluations of every check (the BVP round trip's root
        # search shoots the bracket ends, not the candidate grid's binary
        # search)
        calls = {"_riccati": 0, "_second_order": 0, "reconstruct_field": 0,
                 "_taylor": 0, "_asymptotic_negative": 0, "_positive_sums": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(verify, "_riccati")
        count(verify, "_second_order")
        count(verify.field_mod, "reconstruct_field")
        count(airy, "_taylor")
        count(airy, "_asymptotic_negative")
        count(airy, "_positive_sums")
        assert run_verification(seed=0).all_passed
        assert calls == {"_riccati": 6, "_second_order": 5, "reconstruct_field": 1,
                         "_taylor": 4375, "_asymptotic_negative": 170, "_positive_sums": 167}

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
