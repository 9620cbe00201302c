"""Pole counts and locations from the Airy phase, against the dense sign
scan of oracles.py, plus the two conditioning traps of the positive axis.

On t > 0, Ai/Bi falls like exp(-2 zeta), so for an Ai-dominated
combination both |z|/M and the phase's distance from a half-turn drop
below double resolution.  A count read from the phase alone, or a pole
band set by |z|/M, then reports poles where z keeps one sign.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from airyflow import flow
from airyflow.airy import airy_eval
from airyflow.bvp import ENDPOINT_RTOL, SCAN_POINTS, default_c_bracket
from airyflow.errors import FlowDomainError, PoleError
from airyflow.flow import (
    FlowParams,
    SolutionConstants,
    constants_from_u0,
    exact_u1,
    find_poles,
    has_interior_pole,
    map_t,
)
from airyflow.verify import random_flow_case
from oracles import reference_half_turns, sign_scan_cells

# find_poles' listing edge: from t = -2**35 on, the zero spacing
# pi/sqrt(-t) is under 4 doubles of t
LISTING_EDGE = 2.0**35


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(-400.0, -1.0),
    b=st.floats(-50.0, 50.0),
    phi=st.floats(-math.pi / 2, math.pi / 2),
    t_lo=st.floats(-60.0, -1e-3),
    t_hi=st.floats(1e-3, 60.0),
)
def test_pole_count_matches_sign_scan(a, b, phi, t_lo, t_hi):
    consts = SolutionConstants(a=a, b=b, c=0.0, c1=math.cos(phi), c2=math.sin(phi))
    kappa_sq = (-a) ** (2.0 / 3.0)
    s_lo, s_hi = -(t_lo * kappa_sq + b) / a, -(t_hi * kappa_sq + b) / a
    cells = sign_scan_cells(consts, s_lo, s_hi)
    poles = find_poles(consts, s_lo, s_hi)
    assert len(poles) == len(cells)
    assert has_interior_pole(consts, s_lo, s_hi) == bool(cells)
    for pole, (lo, hi) in zip(poles, cells):
        assert lo - 1e-12 * (1.0 + abs(lo)) <= pole <= hi + 1e-12 * (1.0 + abs(hi))


def test_pure_ai_has_no_pole_on_positive_axis():
    # t = s; |z|/M = Ai/Bi is 4e-14 at t = 8 and 1e-16 at t = 9, where
    # theta - phi rounds to pi/2
    consts = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=24.0)
    assert find_poles(consts, 8.0, 24.0) == []
    assert not has_interior_pole(consts, 8.0, 24.0)
    for s in range(8, 25):
        # u1 = -2 Ai'/Ai = 2 sqrt(t) + 1/(2t) + O(t**-2.5)
        want = 2.0 * math.sqrt(s) + 0.5 / s
        assert abs(exact_u1(float(s), params, consts) - want) <= 1e-3 * want


def test_pure_ai_far_out_on_positive_axis():
    # the Ai weight e**(-2 zeta) would underflow past t ~ 66; with c2 = 0
    # there is no Bi term to weigh it against, so none is applied
    consts = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=0.0)
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
    assert find_poles(consts, 8.0, 1e3) == []
    for s in (70.0, 100.0, 1e3, 1e6):
        want = 2.0 * math.sqrt(s) + 0.5 / s
        assert abs(exact_u1(s, params, consts) - want) <= 1e-6 * want


def test_ai_dominated_bvp_candidate_has_no_pole():
    # candidate 36 of the default bracket for the second seed-7 draw
    rng = random.Random(7)
    random_flow_case(rng)
    params, data, _ = random_flow_case(rng)
    c_lo, c_hi = default_c_bracket(data.u10, 0.0, params.nu)
    c = c_lo + (c_hi - c_lo) * 36 / (SCAN_POINTS - 1)
    consts, _ = constants_from_u0(params, c, data.u10)
    length = params.length
    assert 9.1 < map_t(0.0, consts) < map_t(length, consts) < 10.5
    c1, c2 = consts.coefficients  # the displayed pair; the stored one is anchored at t(0)
    assert 0.0 < c2 / c1 < 1e-15
    assert sign_scan_cells(consts, 0.0, length) == []
    assert not has_interior_pole(consts, 0.0, length)
    assert find_poles(consts, 0.0, length) == []
    u10 = exact_u1(0.0, params, consts)
    assert abs(u10 - data.u10) <= ENDPOINT_RTOL * (1.0 + abs(data.u10))
    assert math.isfinite(exact_u1(length, params, consts))


def test_pole_check_is_two_airy_evaluations(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return airy_scaled(t)

    airy_scaled = flow.airy_scaled
    monkeypatch.setattr(flow, "airy_scaled", counted)
    # 25 zeros of z on [-6, 0]
    consts = SolutionConstants(a=-64.0, b=0.0, c=0.0, c1=1.0, c2=0.3)
    assert has_interior_pole(consts, -6.0, 0.0)
    assert len(calls) == 2


def test_zero_far_out_on_positive_axis():
    # z = Ai - 2.4e-89 Bi vanishes once, near t = 28.54, where the phase
    # sits within 1e-88 of pi/2; Newton from the left end would creep there
    # by ~1/(2 sqrt(t)) a step and run out of iterations at t = 28.27
    consts = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=-2.4419804210882222e-89)
    ((lo, hi),) = sign_scan_cells(consts, -1.0, 29.0)
    (pole,) = find_poles(consts, -1.0, 29.0)
    assert lo <= pole <= hi


@pytest.mark.parametrize("t_star", range(20, 60))
def test_far_zero_on_positive_axis_located(t_star):
    # z = Ai - (Ai/Bi)(t*) Bi vanishes once, at t*, where the phase is flat
    # to rounding: the zero is the root of a residual nearly linear in zeta
    q = airy_eval(float(t_star))
    consts = SolutionConstants(a=-1.0, b=0.0, c=0.0, c1=1.0, c2=-q.ai / q.bi)
    (pole,) = find_poles(consts, -1.0, 60.0)
    assert abs(pole - t_star) <= 1e-12 * t_star
    assert flow._nearest_pole(consts, pole) == pytest.approx(t_star, rel=1e-12)


def test_newton_from_left_end_takes_few_phase_evaluations(monkeypatch):
    # the phase is concave, so Newton from each bracket's left end climbs
    # to the zero; started at the midpoints it took ~7.5 per zero here
    counts = []
    newton = flow._newton_root

    def counted(f, lo, hi, x):
        counts.append(0)

        def g(s):
            counts[-1] += 1
            return f(s)

        return newton(g, lo, hi, x)

    monkeypatch.setattr(flow, "_newton_root", counted)
    rng = random.Random(0)
    for _ in range(60):
        a, b = rng.uniform(-400.0, -1.0), rng.uniform(-50.0, 50.0)
        phi = rng.uniform(-math.pi / 2, math.pi / 2)
        t_lo, t_hi = rng.uniform(-60.0, -1e-3), rng.uniform(1e-3, 60.0)
        consts = SolutionConstants(a=a, b=b, c=0.0, c1=math.cos(phi), c2=math.sin(phi))
        kappa_sq = (-a) ** (2.0 / 3.0)
        find_poles(consts, -(t_lo * kappa_sq + b) / a, -(t_hi * kappa_sq + b) / a)
    assert len(counts) > 2000
    assert sum(counts) <= 5 * len(counts)


def far_ai(t_far):
    """Pure Ai along t(s) = s + t_far."""
    return SolutionConstants(a=-1.0, b=-t_far, c=0.0, c1=1.0, c2=0.0)


@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.98, 0.999])
def test_pole_count_exact_inside_phase_bound(fraction):
    # 40 zeros of Ai below t = -fraction * 2**35, the listing edge, where a
    # zero spacing is only 4.4 to 6.3 doubles of t: the half-turn count matches
    # the sign changes of Ai over every double t in the window, and
    # find_poles puts each zero within 3 doubles of its sign change
    t_far = -fraction * LISTING_EDGE
    consts, width = far_ai(t_far), 40.0 * math.pi / math.sqrt(-t_far)
    t, t_end = map_t(0.0, consts), map_t(width, consts)
    pair = flow._pair(consts.c1, consts.c2, consts.zeta0)
    count = (flow._half_turns(pair, *flow.airy_scaled(t_end))
             - flow._half_turns(pair, *flow.airy_scaled(t)))
    changes, negative = [], airy_eval(t).ai < 0.0
    while t < t_end:
        t = math.nextafter(t, math.inf)
        now = airy_eval(t).ai < 0.0
        if now != negative:
            changes.append(t)
        negative = now
    assert count == len(changes) >= 39
    poles = find_poles(consts, 0.0, width)
    assert len(poles) == count
    for pole, change in zip(poles, changes):
        assert abs(map_t(pole, consts) - change) <= 3.0 * math.ulp(change)


@pytest.mark.parametrize("seed", range(10))
def test_far_zeros_sit_on_sign_changes(seed):
    # 40 zeros of Ai near t = -1e5 ... -1e9, where the phase's rounding,
    # an ulp of zeta = (2/3)|t|**1.5, exceeds a stop at 1e-14 (1 + |s|):
    # Newton used to run out of iterations on a third of these windows;
    # each zero lies within 3 doubles of t of a sign change of Ai
    rng = random.Random(seed)
    t_far = -10.0 ** rng.uniform(5.0, 9.0)
    consts, width = far_ai(t_far), 40.0 * math.pi / math.sqrt(-t_far)
    poles = find_poles(consts, 0.0, width)
    assert len(poles) >= 39
    for pole in poles:
        t = map_t(pole, consts)
        signs = [airy_eval(t + k * math.ulp(t)).ai < 0.0 for k in range(-3, 4)]
        assert len(set(signs)) == 2, (t_far, pole)


def test_pole_count_refused_past_phase_bound():
    # a window of 40 zero spacings at t ~ -1e12, where one double of t
    # holds 40 zeros: refused by the listing rule, not listed
    consts = far_ai(-1e12)
    with pytest.raises(FlowDomainError, match=r"^the zeros of z lie under 4 doubles of t "
                                              r"apart at t = -1000000000000\.0, "):
        find_poles(consts, 0.0, 40.0 * math.pi * 1e-6)
    # the rule starts at t = -2**35 exactly, for has_interior_pole too
    with pytest.raises(FlowDomainError):
        has_interior_pole(far_ai(-LISTING_EDGE), 0.0, 1e-3)
    has_interior_pole(far_ai(math.nextafter(-LISTING_EDGE, 0.0)), 0.0, 1e-3)
    # u1 itself is still evaluated there, and the zero nearest a point is
    # within a double of t of it
    params = FlowParams(nu=0.5, grad_term=-1.0, f1=0.0, length=1.0)
    assert math.isfinite(exact_u1(0.0, params, consts))
    assert abs(map_t(flow._nearest_pole(consts, 0.0), consts) + 1e12) <= math.ulp(1e12)


@pytest.mark.parametrize("side", ["inside", "past"])
def test_far_pole_locations_ascend_or_are_refused(side):
    # 30 random windows of 40 zero spacings on each side of the listing
    # edge.  Past it the doubles of t cannot separate the zeros: find_poles
    # used to repeat locations (12 of 30 windows in [-3.57e10, -2**35]), and
    # with exact counts but no refusal a window at t ~ -7e10 lists 39 zeros
    # where Ai changes sign 23 times; inside it the locations strictly ascend
    rng = random.Random(35)
    for _ in range(30):
        if side == "inside":
            t_far = -rng.uniform(0.5, 0.995) * LISTING_EDGE
        else:
            t_far = -rng.uniform(1.0, 2.0) * LISTING_EDGE
        consts, width = far_ai(t_far), 40.0 * math.pi / math.sqrt(-t_far)
        if side == "past":
            with pytest.raises(FlowDomainError, match="under 4 doubles of t"):
                find_poles(consts, 0.0, width)
            continue
        ts = [map_t(pole, consts) for pole in find_poles(consts, 0.0, width)]
        assert len(ts) >= 39, t_far
        assert all(lo < hi for lo, hi in zip(ts, ts[1:])), t_far


def test_far_half_turn_counts_match_mpmath():
    # random double pairs t0 < tL, log-uniform down to -1e300, and random
    # pairs (c1, c2): the half-turn count at each end, and so a shot's n,
    # the difference, matches mpmath's; the kernel's integer turn makes it
    # exact for every finite t, where a float zeta lost turns past 3.57e10
    rng = random.Random(21)
    checked = 0
    for _ in range(300):
        t0, t_l = sorted(-(10.0 ** rng.uniform(-1.0, 300.0)) for _ in range(2))
        if rng.random() < 0.5:  # a near pair, up to 1,000 doubles apart
            t_l = t0 + rng.randint(1, 1000) * math.ulp(t0)
        phi = rng.uniform(-math.pi, math.pi)
        pair = flow._pair(*flow._normalize_pair(math.cos(phi), math.sin(phi)), 0.0)
        want = [reference_half_turns(pair[0], pair[1], t) for t in (t0, t_l)]
        if None in want:
            continue
        got = [flow._half_turns(pair, *flow.airy_scaled(t)) for t in (t0, t_l)]
        assert got == want, (t0, t_l, phi)
        checked += 1
    assert checked >= 295


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("magnitude", [1e3, 1e10, 1e24, 1e26, 1e30, 1e100])
def test_no_pole_at_ordinary_points_far_out(magnitude, sign):
    # 200 random pairs anchored at t; the pole band is |z| sqrt(1 + |t|) <=
    # POLE_RTOL |z_t|, and a random phase lands within 1e-13 rad of a
    # half-turn with odds of ~1e-13.  A band set by the envelope
    # |c1|(|Ai| + |Ai'|) + |c2|(|Bi| + |Bi'|) held at most of these points
    # from |t| ~ 1e24 on, where |Ai'|, |Bi'| ~ |t|**(1/4) dwarf |z|
    rng = random.Random(round(math.log10(magnitude)))
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
    for _ in range(200):
        t = sign * magnitude * rng.uniform(1.0, 2.0)
        phi = rng.uniform(-math.pi, math.pi)
        consts = SolutionConstants(a=-1.0, b=-t, c=0.0, c1=math.cos(phi), c2=math.sin(phi),
                                   zeta0=flow.airy_scaled(t)[1])
        assert math.isfinite(exact_u1(0.0, params, consts)), (t, phi)


def test_located_poles_raise_near_the_turning_point():
    # find_poles promises a PoleError from exact_u1 at each location it
    # returns for |t| <= 30; further out the rounding of s and t alone can
    # move the phase by more than POLE_RTOL
    rng = random.Random(5)
    params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=1.0)
    located = 0
    for _ in range(100):
        a, b = rng.uniform(-400.0, -1.0), rng.uniform(-50.0, 50.0)
        phi = rng.uniform(-math.pi / 2, math.pi / 2)
        consts = SolutionConstants(a=a, b=b, c=0.0, c1=math.cos(phi), c2=math.sin(phi))
        kappa_sq = (-a) ** (2.0 / 3.0)
        for pole in find_poles(consts, -(-30.0 * kappa_sq + b) / a, -(30.0 * kappa_sq + b) / a):
            located += 1
            with pytest.raises(PoleError):
                exact_u1(pole, params, consts)
    assert located > 3000


def test_window_with_too_many_zeros_is_refused():
    # the two end evaluations count the zeros before any is solved for;
    # a window with 1.6e8 of them used to run for minutes
    consts = far_ai(-1e9)
    width = (flow.MAX_POLES + 10) * math.pi / math.sqrt(1e9)
    with pytest.raises(FlowDomainError, match=r"^z has \d+ zeros in \(0.0, ") as err:
        find_poles(consts, 0.0, width)
    assert abs(int(str(err.value).split()[2]) - (flow.MAX_POLES + 10)) <= 1
    assert has_interior_pole(consts, 0.0, width)
