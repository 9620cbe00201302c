"""Airy evaluation: frozen oracle values, identities, branch seams."""

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest
from mpmath import airybi, cos, floor, mpf, pi, sin, sqrt, workdps

from airyflow.airy import _asymptotic_negative, _reduced_phase, _taylor, airy_eval, airy_scaled
from airyflow.cli import run
from airyflow.errors import AiryOverflowError
from airyflow.verify import check_airy_derivative_fd, check_airy_ode

from make_airy_anchors import TABLE, table_text
from oracles import (
    airy_reference,
    airy_rel_err,
    reference_asymptotic_negative,
    reference_asymptotic_positive,
    reference_reduced_phase,
    reference_taylor,
)

HERE = Path(__file__).parent

# accuracy of the Taylor window |t| <= 9, relative to |y| + |y'| of each function
SERIES_BOUND = 9.0
ENVELOPE_RTOL = 2e-15

# frozen from the arbitrary-precision series oracle (tests/oracles.py)
AI_0 = 0.35502805388781723926
BI_0 = 0.61492662744600073515
AIP_0 = -0.25881940379280679840
BIP_0 = 0.44828835735382635791
AI_1 = 0.13529241631288141552
BI_1 = 1.20742359495287125944
AI_M1 = 0.53556088329235211880
BI_M1 = 0.10399738949694461189
FIRST_AI_ZERO = -2.33810741045976703849
FIRST_BI_ZERO = -1.17371322270912792492


def test_values_at_zero():
    q = airy_eval(0.0)
    assert q.ai == pytest.approx(AI_0, rel=1e-12)
    assert q.bi == pytest.approx(BI_0, rel=1e-12)
    assert q.ai_prime == pytest.approx(AIP_0, rel=1e-12)
    assert q.bi_prime == pytest.approx(BIP_0, rel=1e-12)
    assert q.t == 0.0


@pytest.mark.parametrize(
    "t,ai,bi",
    [(1.0, AI_1, BI_1), (-1.0, AI_M1, BI_M1)],
)
def test_values_at_unit_arguments(t, ai, bi):
    q = airy_eval(t)
    assert q.ai == pytest.approx(ai, rel=1e-12)
    assert q.bi == pytest.approx(bi, rel=1e-12)


def test_positive_argument_signs():
    for t in (0.5, 2.0, 4.0, 8.0, 20.0, 90.0):
        q = airy_eval(t)
        assert q.ai > 0.0 and q.bi > 0.0
        assert q.ai_prime < 0.0 and q.bi_prime > 0.0


def test_all_finite_on_wide_range():
    for t in (-100.0, -37.5, -9.0001, -4.2, 0.0, 2.5001, 8.999, 9.001, 50.0, 104.0):
        q = airy_eval(t)
        for v in (q.ai, q.bi, q.ai_prime, q.bi_prime):
            assert math.isfinite(v)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_input_rejected(bad):
    with pytest.raises(ValueError):
        airy_eval(bad)


def test_bi_overflow_raises():
    # past ~3e205 t ** 1.5 itself overflows; the error stays AiryOverflowError
    for t in (106.0, 250.0, 1e206, 1e300, 1.7e308):
        with pytest.raises(AiryOverflowError) as info:
            airy_eval(t)
        assert info.value.t == t
    airy_eval(104.0)  # still representable


# Every double t of [104.15264094004154, 104.20871750754523] has a finite Bi',
# but airy_eval once formed it as t**(1/4) e**zeta before its last factor and
# returned inf there; the band's top is the last double whose Bi' is one
BI_PRIME_BAND = (104.15264094004154, 104.20871750754523)


def assert_bi_within_mpmath(bi, bi_prime, t):
    with workdps(40):
        for got, want in ((bi, airybi(t)), (bi_prime, airybi(t, 1))):
            assert math.isfinite(got) and abs(mpf(got) - want) <= 1e-12 * want, t


def test_bi_prime_finite_up_to_its_overflow():
    lo, hi = BI_PRIME_BAND
    rng = random.Random(32)
    for t in [lo, hi] + [rng.uniform(lo, hi) for _ in range(60)]:
        q = airy_eval(t)
        assert all(math.isfinite(v) for v in (q.ai, q.ai_prime)), t
        assert_bi_within_mpmath(q.bi, q.bi_prime, t)
    with pytest.raises(AiryOverflowError):
        airy_eval(math.nextafter(hi, math.inf))


def test_cli_prints_finite_bi_prime_below_its_overflow(capsys):
    assert run(["airy", "--t", "104.18"]) == 0
    values = {k.strip(): float(v) for k, v in
              (line.split("=") for line in capsys.readouterr().out.splitlines())}
    assert_bi_within_mpmath(values["Bi(t)"], values["Bi'(t)"], 104.18)


def test_scaled_tail_matches_scipy_airye():
    # airye is Ai e**zeta, Ai' e**zeta, Bi e**-zeta, Bi' e**-zeta on t > 0,
    # from AMOS, an independent implementation; it returns nan past t ~ 1e6
    from scipy.special import airye

    rng = random.Random(5)
    for t in [9.0 + 1e-9, 9.5, 104.3, 1e3, 1e6] + [math.exp(rng.uniform(2.2, 13.8)) for _ in range(300)]:
        (ai, bi, ai_prime, bi_prime, _), sigma = airy_scaled(t)
        assert sigma == pytest.approx((2.0 / 3.0) * t ** 1.5, rel=1e-15)
        for got, want in zip((ai, ai_prime, bi, bi_prime), airye(t)):
            assert abs(got - want) <= 5e-14 * abs(want), t


@pytest.mark.parametrize("t", [1e10, 1e100, 1e300, 1.7e308])
def test_scaled_tail_finite_far_out(t):
    # every correction term is below rounding: the leading terms, and the
    # scaled Wronskian Ai Bi' - Ai' Bi = 1/pi
    (ai, bi, ai_prime, bi_prime, _), sigma = airy_scaled(t)
    xq = t ** 0.25
    assert ai == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi) * xq), rel=1e-14)
    assert bi_prime == pytest.approx(xq / math.sqrt(math.pi), rel=1e-14)
    assert ai * bi_prime - ai_prime * bi == pytest.approx(1.0 / math.pi, rel=1e-14)
    if t < 3e205:
        assert sigma == pytest.approx((2.0 / 3.0) * t ** 1.5)
    else:  # zeta itself leaves the double range
        assert sigma == math.inf


def unscaled_or_overflow(q, t):
    """airy_scaled's floats q at t > 9 times exp(-+(2/3) t**1.5), or
    ("overflow", t) where the exponent or Bi' leaves the double range."""
    ai, bi, ai_prime, bi_prime, _ = q
    try:
        em, ep = math.exp(-(2.0 / 3.0) * t ** 1.5), math.exp((2.0 / 3.0) * t ** 1.5)
    except OverflowError:
        return ("overflow", t)
    if bi_prime * ep == math.inf:
        return ("overflow", t)
    return ai * em, bi * ep, ai_prime * em, bi_prime * ep, t


def quartet_or_overflow(t):
    try:
        return dataclasses.astuple(airy_eval(t))
    except AiryOverflowError as exc:
        return ("overflow", exc.t)


def assert_scaled_is_airy_eval(t):
    # up to t = 9 the solver's plain floats are airy_eval's fields, to the
    # last bit and the sign of zero, with sigma = 0; past it airy_eval is
    # those floats times exp(-+(2/3) t**1.5), to the last bit
    q, sigma = airy_scaled(t)
    want = q if t <= SERIES_BOUND else unscaled_or_overflow(q, t)
    assert [x.hex() for x in quartet_or_overflow(t)] == [x.hex() for x in want], t
    assert (sigma == 0.0) == (t <= SERIES_BOUND), t


@pytest.mark.parametrize("t", [-1e300, -20.0, -9.0, 0.0, 5.0, 9.0, -0.0, 5e-324, -5e-324,
                               9.5, 11.0, 50.0, 104.2])
def test_scaled_is_airy_eval_up_to_9(t):
    assert_scaled_is_airy_eval(t)


def test_scaled_is_airy_eval_bit_for_bit_sweep():
    # 2,000 seeded t (half in the Taylor window, half in the t < -9 tail),
    # every anchor k/4 and every anchor midpoint
    rng = random.Random(20)
    ts = [rng.uniform(-9.0, 9.0) for _ in range(1000)]
    ts += [rng.uniform(-1e3, -9.0) for _ in range(1000)]
    for t in ts + [0.25 * k for k in range(-36, 37)] + [0.25 * k + 0.125 for k in range(-36, 36)]:
        assert_scaled_is_airy_eval(t)


@pytest.mark.parametrize("t", [-1e206, -1e300, -1.7e308])
def test_wronskian_far_negative(t):
    # past t ~ -3e205, (-t) ** 1.5 overflows; the quartet stays finite and
    # keeps pi (Ai Bi' - Ai' Bi) = 1
    q = airy_eval(t)
    w = math.pi * (q.ai * q.bi_prime - q.ai_prime * q.bi)
    assert abs(w - 1.0) <= 1e-15


@pytest.mark.parametrize("t", [-1e20, -1e206, -1e300, -1.7e308])
def test_far_negative_leading_order_against_mpmath(t):
    # here the first correction term is below 1e-30, so the quartet is the
    # leading-order formula in theta = (2/3) x^1.5 - pi/4, which 520
    # digits resolve modulo 2 pi; each component is compared with the
    # amplitude of its oscillation
    q = airy_eval(t)
    with workdps(520):
        x = mpf(-t)
        theta = 2 * x * sqrt(x) / 3 - pi / 4
        amp, amp_prime = 1 / (sqrt(pi) * x ** 0.25), x ** 0.25 / sqrt(pi)
        ref = ((q.ai, cos(theta) * amp, amp), (q.bi, -sin(theta) * amp, amp),
               (q.ai_prime, sin(theta) * amp_prime, amp_prime),
               (q.bi_prime, cos(theta) * amp_prime, amp_prime))
        for got, want, scale in ref:
            assert abs(mpf(got) - want) <= 4e-16 * scale


def test_asymptotic_tails_match_per_tail_reference():
    # both tails sum one shared series; the t > 9 tail's scaled floats and
    # sigma, and the t < -9 tail's quartet, are bit-identical to those of a
    # copy of the series loop per tail, and airy_eval on t > 9 is that
    # reference unscaled, or past t ~ 104.2 its overflow error
    rng = random.Random(2)
    positive = [rng.uniform(9.0, 104.8) for _ in range(40000)]
    positive += [9.0 + k / 256 for k in range(1, 26000)]  # to 110.6
    negative = [rng.uniform(-300.0, -9.0) for _ in range(45000)]
    negative += [-(10.0 ** rng.uniform(math.log10(9.0), 204.0)) for _ in range(45000)]
    negative += [-9.0 - k / 256 for k in range(1, 45001)]
    t = -50.0
    while t <= 50.0:  # check_wronskian's grid
        (positive if t > 9.0 else negative if t < -9.0 else []).append(t)
        t += 0.25
    assert len(positive) + len(negative) >= 200000
    for t in positive:
        want = reference_asymptotic_positive(t)
        assert airy_scaled(t) == want, t
        assert quartet_or_overflow(t) == unscaled_or_overflow(want[0], t), t
    for t in negative:
        assert _asymptotic_negative(t) == reference_asymptotic_negative(t), t


@pytest.mark.parametrize("t", [0.0, 2.0, -3.0])
def test_ode_residual_examples(t):
    assert check_airy_ode([t]) < 1e-6


def test_derivatives_match_central_differences():
    ts = (-8.5, -6.0, -2.2, 0.0, 1.7, 3.3, 6.0, 8.5, 12.0, -14.0)
    assert check_airy_derivative_fd(ts) <= 1e-7


def test_oscillation_sign_changes_match_bisected_zeros():
    # scan Ai on [-20, 0] at step 0.01; every sign change brackets one
    # zero, and the count matches the 19 zeros of Ai above -20
    brackets = []
    t = -20.0
    prev = airy_eval(t).ai
    while t < 0.0:
        t_next = min(t + 0.01, 0.0)
        cur = airy_eval(t_next).ai
        if (prev < 0.0) != (cur < 0.0):
            brackets.append((t, t_next))
        t, prev = t_next, cur
    assert len(brackets) == 19
    zeros = []
    for lo, hi in brackets:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (airy_eval(lo).ai < 0.0) == (airy_eval(mid).ai < 0.0):
                lo = mid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
    assert len(set(round(z, 8) for z in zeros)) == 19
    assert zeros[-1] == pytest.approx(FIRST_AI_ZERO, abs=1e-10)


def test_against_oracle_spot_grid():
    # coarse grid over the documented range, all four components
    for i in range(-20, 21):
        t = i * 5.0
        if t > 100.0:
            continue
        assert airy_rel_err(airy_eval(t), t) <= 1e-10, f"t={t}"


def test_branch_seams_consistent_with_oracle():
    # the windows meet at t in {-9, -4, 2.5, 9}; check both sides of each
    for seam in (-9.0, -4.0, 2.5, 9.0):
        for t in (seam - 1e-9, seam, seam + 1e-9):
            assert airy_rel_err(airy_eval(t), t) <= 1e-12


def test_frozen_sweep_within_tolerance():
    data = json.loads((HERE / "airy_reference.json").read_text())
    assert len(data["points"]) == 1000
    for row in data["points"]:
        t = float(row["t"])
        q = airy_eval(t)
        for key, got in (
            ("ai", q.ai),
            ("bi", q.bi),
            ("ai_prime", q.ai_prime),
            ("bi_prime", q.bi_prime),
        ):
            ref = float(row[key])
            if abs(ref) <= 1e-300:
                continue
            assert abs(got - ref) <= 1e-10 * abs(ref), f"{key} at t={t}"


def envelope_err(q, ref):
    """Worst error of a quartet against reference (Ai, Bi, Ai', Bi'), each
    component relative to its function's envelope |y| + |y'|, which stays
    meaningful through the zeros of y and y'."""
    with workdps(30):
        ai, bi, aip, bip = (mpf(v) for v in ref)
        env_ai, env_bi = abs(ai) + abs(aip), abs(bi) + abs(bip)
        pairs = ((q.ai, ai, env_ai), (q.bi, bi, env_bi),
                 (q.ai_prime, aip, env_ai), (q.bi_prime, bip, env_bi))
        return max(float(abs(mpf(got) - want) / env) for got, want, env in pairs)


def test_series_window_within_envelope_of_frozen_table():
    data = json.loads((HERE / "airy_reference.json").read_text())
    rows = [row for row in data["points"] if abs(float(row["t"])) <= SERIES_BOUND]
    assert len(rows) == 450
    for row in rows:
        t = float(row["t"])
        ref = (row["ai"], row["bi"], row["ai_prime"], row["bi_prime"])
        assert envelope_err(airy_eval(t), ref) <= ENVELOPE_RTOL, f"t={t}"


def test_anchor_midpoints_consistent_with_oracle():
    # the Taylor steps switch anchor at t = (k + 1/2)/4, where |t - t_k|
    # is largest; check both sides of every switch
    for k in range(-36, 36):
        for t in ((k + 0.5) / 4 - 1e-12, (k + 0.5) / 4 + 1e-12):
            assert envelope_err(airy_eval(t), airy_reference(t)) <= ENVELOPE_RTOL, f"t={t}"


def test_anchor_table_is_generated():
    # the checked-in table is exactly what tests/make_airy_anchors.py writes
    assert TABLE.read_text() == table_text()


def test_taylor_table_matches_per_call_recurrence():
    rng = random.Random(0)
    points = [rng.uniform(-SERIES_BOUND, SERIES_BOUND) for _ in range(20000)]
    points += [0.25 * k for k in range(-36, 37)]
    for k in range(-36, 36):
        mid = 0.25 * k + 0.125
        points += [mid - 1e-12, mid, mid + 1e-12]
    for t in points:
        assert _taylor(t) == reference_taylor(t), t


def test_reduced_phase_matches_decimal_reference():
    # both reduce far below a double's rounding and round once to float,
    # so they agree bit for bit, and on the turn
    rng = random.Random(1)
    points = [rng.uniform(-100.0, -9.0) for _ in range(10000)]
    points += [-(10.0 ** rng.uniform(math.log10(9.0), 7.0)) for _ in range(10000)]
    points += [-9.0 - k / 4 for k in range(1, 4001)]
    points.append(math.nextafter(-9.0, -math.inf))
    for t in points:
        assert _reduced_phase(t) == reference_reduced_phase(t), t


def test_reduced_phase_correctly_rounded_to_most_negative_double():
    # the reduction carries pi to 128 bits past the quotient, so the phase
    # rounds correctly out to t = -1.8e308 (a 128-bit pi lost it past ~1e13),
    # and its turn, which flow's pole count reads, is exact
    rng = random.Random(3)
    points = [-(10.0 ** rng.uniform(math.log10(9.0), 308.25)) for _ in range(500)]
    points += [-19995672618034.797, -1e300, -sys.float_info.max]
    with workdps(520):
        for t in points:
            x = mpf(-t)
            theta = 2 * x * sqrt(x) / 3 - pi / 4
            n = floor(theta / (2 * pi) + 0.5)
            assert _reduced_phase(t) == (int(n), float(theta - 2 * pi * n)), t
