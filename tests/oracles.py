"""Arbitrary-precision oracles for the test suite.

The Airy oracle sums the Maclaurin series of the two independent
solutions of y'' = t*y in mpmath arbitrary-precision arithmetic, with
working precision scaled to the known cancellation (exp(2*zeta) on the
positive axis, exp(zeta) on the negative), so it is accurate for any
argument the tests use.  It shares no code or branch logic with the
implementation under test: one method, one arithmetic, no asymptotics.

u1_propagator is the closed-form velocity of an initial-value problem
evaluated the same way, in mpmath at 40 digits, but carried by the
initial data through the Wronskian instead of through (c1, c2), so it
stays accurate where c2/c1 leaves the double range.

The pole oracle is a dense sign scan, independent of the library's
phase count: z = c1 Ai + c2 Bi sampled with scipy's Airy functions on a
grid fine enough to separate neighbouring zeros.

The RK4 references are the plain textbook loops the library's
specialised integrators replaced: a nested right-hand side, a list grid
and an isfinite/abs blow-up test.  The library's loops must reproduce
their output bit for bit.  In the same way, reference_taylor runs the
unit-solution recurrence on every call, where airy._taylor reads it from
a table, reference_solve_bvp makes each shot from the public
per-step functions, four Airy evaluations per candidate, where
solve_bvp reuses two quartets, reference_reduced_phase reduces the
phase of the t < -9 branch in 45-digit decimal arithmetic, where
airy._reduced_phase reduces it in integers scaled by 2**128, and
reference_asymptotic_positive/_negative each run their own copy of the
asymptotic series loop, where airy's two tails share one.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from mpmath import mp, mpf, sqrt, gamma, workdps
from scipy.special import airy


def _required_dps(t: float) -> int:
    x = abs(t)
    zeta = (2.0 / 3.0) * x ** 1.5
    lost = (2.0 if t > 0 else 1.0) * zeta / math.log(10.0)
    return int(lost) + 35


def airy_reference(t: float):
    """(Ai, Bi, Ai', Bi') as mpf values via the arbitrary-precision
    Maclaurin series."""
    with workdps(_required_dps(t)):
        td = mpf(t)
        t3 = td ** 3
        eps = mpf(10) ** (-mp.dps + 5)
        f = uf = mpf(1)
        g = ug = td
        fp = up = td * td / 2
        gp = uq = mpf(1)
        for k in range(20000):
            uf = uf * t3 / ((3 * k + 2) * (3 * k + 3))
            ug = ug * t3 / ((3 * k + 3) * (3 * k + 4))
            uq = uq * t3 / ((3 * k + 1) * (3 * k + 3))
            f += uf
            g += ug
            gp += uq
            if k >= 1:
                up = up * t3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
                fp += up
            scale = max(abs(f), abs(g), abs(fp), abs(gp), mpf(1))
            if max(abs(uf), abs(ug), abs(up), abs(uq)) < eps * scale:
                break
        else:
            raise ArithmeticError(f"oracle series did not converge at t = {t!r}")
        c1 = mpf(3) ** (mpf(-2) / 3) / gamma(mpf(2) / 3)
        c2 = mpf(3) ** (mpf(-1) / 3) / gamma(mpf(1) / 3)
        s3 = sqrt(mpf(3))
        ai = c1 * f - c2 * g
        bi = s3 * (c1 * f + c2 * g)
        aip = c1 * fp - c2 * gp
        bip = s3 * (c1 * fp + c2 * gp)
        return +ai, +bi, +aip, +bip


def airy_rel_err(quartet, t: float) -> float:
    """Worst relative error of an implementation quartet against the
    oracle, skipping components smaller than 1e-300 in magnitude."""
    ref = airy_reference(t)
    got = (quartet.ai, quartet.bi, quartet.ai_prime, quartet.bi_prime)
    worst = 0.0
    with workdps(50):
        for g, r in zip(got, ref):
            if abs(r) <= mpf("1e-300"):
                continue
            worst = max(worst, float(abs((mpf(g) - r) / r)))
    return worst


def u1_propagator(params, u10: float, u1dot0: float, s: float) -> tuple[float, float]:
    """(u1(s), cond) of the IVP u1(0) = u10, u1'(0) = u1dot0, from mpmath's
    Airy functions at 40 digits in the propagator form, with no (c1, c2).

    With w0 = z_t/z at t0 = t(0), which is -u10/(2 nu kappa), the
    Wronskian 1/pi gives z(t) proportional to P Ai(t) + Q Bi(t), where
    P = Bi'(t0) - w0 Bi(t0) and Q = w0 Ai(t0) - Ai'(t0).  cond is the
    envelope |P|(|Ai| + |Ai'|) + |Q|(|Bi| + |Bi'|) over |z| at t(s).
    """
    from mpmath import airyai, airybi, cbrt

    with workdps(40):
        nu, u10 = mpf(params.nu), mpf(u10)
        c = nu * mpf(u1dot0) - u10 * u10 / 2
        a = (mpf(params.grad_term) - mpf(params.f1)) / (2 * nu * nu)
        b = c / (2 * nu * nu)
        kappa = cbrt(-a)

        def quartet(t):
            return airyai(t), airybi(t), airyai(t, derivative=1), airybi(t, derivative=1)

        ai0, bi0, aip0, bip0 = quartet(-b / kappa**2)
        w0 = -u10 / (2 * nu * kappa)
        p, q = bip0 - w0 * bi0, w0 * ai0 - aip0
        ai, bi, aip, bip = quartet(-(a * mpf(s) + b) / kappa**2)
        z = p * ai + q * bi
        envelope = abs(p) * (abs(ai) + abs(aip)) + abs(q) * (abs(bi) + abs(bip))
        u1 = -2 * nu * kappa * (p * aip + q * bip) / z
        return float(u1), float(envelope / abs(z))


def sign_scan_cells(consts, s_lo: float, s_hi: float) -> list[tuple[float, float]]:
    """(lo, hi) cells of a uniform grid over [s_lo, s_hi] on which z
    changes sign (or starts at zero), ascending.

    The step is at most 0.05, a quarter of the asymptotic oscillation
    wavelength pi/kappa in s, and a quarter of the local zero spacing
    pi/(kappa sqrt(-t)) at the most negative t of the interval, so no
    two zeros share a cell.
    """
    kappa = (-consts.a) ** (1.0 / 3.0)
    t_min = -(consts.a * s_lo + consts.b) / kappa**2
    step = min(0.05, 0.25 * math.pi / kappa)
    if t_min < -1.0:
        step = min(step, 0.25 * math.pi / (kappa * math.sqrt(-t_min)))
    s = np.linspace(s_lo, s_hi, int(math.ceil((s_hi - s_lo) / step)) + 1)
    ai, _, bi, _ = airy(-(consts.a * s + consts.b) / (-consts.a) ** (2.0 / 3.0))
    z = consts.c1 * ai + consts.c2 * bi
    neg = z < 0.0
    cells = np.flatnonzero((z[:-1] == 0.0) | (neg[:-1] != neg[1:]))
    return [(float(s[i]), float(s[i + 1])) for i in cells]


def _reference_grid(s_end: float, step: float) -> list[float]:
    n = int(math.floor(s_end / step + 1e-9))
    ss = [k * step for k in range(n + 1)]
    if ss[-1] < s_end - 1e-12 * max(step, 1.0):
        ss.append(s_end)  # shorter final step
    return ss


def reference_riccati(params, c: float, u10: float, s_end: float, step: float):
    """Textbook RK4 on the Riccati form; see integrate_riccati."""
    # imported here, so the Airy oracle alone runs without airyflow on the path
    from airyflow.verify import BLOWUP_LIMIT, Trajectory, _validate_span

    s_end, step = _validate_span(s_end, step)
    nu = params.nu
    gap = params.forcing_gap

    def rhs(s: float, u: float) -> float:
        return u * u / (2.0 * nu) + (gap * s + c) / nu

    ss = _reference_grid(s_end, step)
    us = [float(u10)]
    for i in range(len(ss) - 1):
        s0, s1 = ss[i], ss[i + 1]
        h = s1 - s0
        u = us[-1]
        k1 = rhs(s0, u)
        k2 = rhs(s0 + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(s0 + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(s1, u + h * k3)
        u_next = u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(u_next) or abs(u_next) > BLOWUP_LIMIT:
            return Trajectory(
                s=np.array(ss[: i + 1]),
                u1=np.array(us),
                step=step,
                truncated_at_pole=True,
                truncation_location=s1,
            )
        us.append(u_next)
    return Trajectory(s=np.array(ss), u1=np.array(us), step=step)


def reference_second_order(params, u10: float, u1dot0: float, s_end: float, step: float):
    """Textbook RK4 on the second-order form; see integrate_second_order."""
    from airyflow.verify import BLOWUP_LIMIT, Trajectory, _validate_span

    s_end, step = _validate_span(s_end, step)
    nu = params.nu
    f1 = params.f1
    grad = params.grad_term

    ss = _reference_grid(s_end, step)
    us = [float(u10)]
    w = float(u1dot0)
    for i in range(len(ss) - 1):
        s1 = ss[i + 1]
        h = s1 - ss[i]
        u = us[-1]
        k1u = w
        k1w = (u * w - f1 + grad) / nu
        u2 = u + 0.5 * h * k1u
        w2 = w + 0.5 * h * k1w
        k2u = w2
        k2w = (u2 * w2 - f1 + grad) / nu
        u3 = u + 0.5 * h * k2u
        w3 = w + 0.5 * h * k2w
        k3u = w3
        k3w = (u3 * w3 - f1 + grad) / nu
        u4 = u + h * k3u
        w4 = w + h * k3w
        k4u = w4
        k4w = (u4 * w4 - f1 + grad) / nu
        u_next = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w_next = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if (
            not (math.isfinite(u_next) and math.isfinite(w_next))
            or abs(u_next) > BLOWUP_LIMIT
        ):
            return Trajectory(
                s=np.array(ss[: i + 1]),
                u1=np.array(us),
                step=step,
                truncated_at_pole=True,
                truncation_location=s1,
            )
        us.append(u_next)
        w = w_next
    return Trajectory(s=np.array(ss), u1=np.array(us), step=step)


def reference_taylor(t: float) -> tuple[float, float, float, float]:
    """airy._taylor with the unit-solution recurrence run per call."""
    from airyflow.airy import _K_MAX, _TAYLOR_STEPS
    from airyflow._airy_anchors import ANCHORS

    k = round(4.0 * t)
    tk = 0.25 * k
    d = t - tk
    f3, f2, f1 = 0.0, 1.0, 0.0
    g3, g2, g1 = 0.0, 0.0, 1.0
    sf = sg = sfp = sgp = 0.0
    dn = d
    for n, inv in _TAYLOR_STEPS:
        fn = (tk * f2 + f3) * inv
        gn = (tk * g2 + g3) * inv
        sfp += n * fn * dn
        sgp += n * gn * dn
        dn *= d
        sf += fn * dn
        sg += gn * dn
        f3, f2, f1 = f2, f1, fn
        g3, g2, g1 = g2, g1, gn
    f, g, fp, gp = 1.0 + sf, d + sg, sfp, 1.0 + sgp
    ai0, aip0, bi0, bip0 = ANCHORS[k + _K_MAX]
    return (
        ai0 * f + aip0 * g,
        bi0 * f + bip0 * g,
        ai0 * fp + aip0 * gp,
        bi0 * fp + bip0 * gp,
    )


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097")


def reference_reduced_phase(t: float) -> float:
    # theta = (2/3)(-t)^{3/2} - pi/4 mod 2*pi; double rounding of zeta
    # alone would cost ~zeta*eps of phase, so reduce in decimal.
    with localcontext() as ctx:
        ctx.prec = 45
        x = -Decimal(t)
        zeta = 2 * (x * x * x).sqrt() / 3
        theta = zeta - _PI / 4
        twopi = 2 * _PI
        theta -= (theta / twopi).to_integral_value() * twopi
        return float(theta)


def reference_asymptotic_sums_positive(zeta: float) -> tuple[float, float, float, float]:
    """The t > 9 series loop of airy before both tails shared one series."""
    from airyflow.airy import _MAX_TERMS

    su_alt = su = sv_alt = sv = 1.0
    u = 1.0
    powz = 1.0
    last = math.inf
    for k in range(1, _MAX_TERMS):
        u = u * (6 * k - 5) * (6 * k - 1) / (72.0 * k)
        v = u * (6 * k + 1) / (1.0 - 6 * k)
        powz *= zeta
        tu = u / powz
        if tu >= last:
            break  # optimal truncation reached
        last = tu
        tv = v / powz
        if k % 2:
            su_alt -= tu
            sv_alt -= tv
        else:
            su_alt += tu
            sv_alt += tv
        su += tu
        sv += tv
        if tu < 1e-17 * su:
            break
    return su_alt, su, sv_alt, sv


def reference_asymptotic_positive(t: float) -> tuple[float, float, float, float]:
    """airy._asymptotic_positive on reference_asymptotic_sums_positive."""
    from airyflow import AiryOverflowError
    from airyflow.airy import _LOG_DBL_MAX, _SQRT_PI

    zeta = (2.0 / 3.0) * t ** 1.5
    xq = t ** 0.25
    su_alt, su, sv_alt, sv = reference_asymptotic_sums_positive(zeta)
    log_bi = zeta + math.log(su / (_SQRT_PI * xq))
    log_bip = zeta + math.log(sv * xq / _SQRT_PI)
    if max(log_bi, log_bip) > _LOG_DBL_MAX:
        raise AiryOverflowError(t)
    em = math.exp(-zeta)
    ep = math.exp(zeta)
    ai = em * su_alt / (2.0 * _SQRT_PI * xq)
    aip = -xq * em * sv_alt / (2.0 * _SQRT_PI)
    bi = ep * su / (_SQRT_PI * xq)
    bip = xq * ep * sv / _SQRT_PI
    return ai, bi, aip, bip


def reference_asymptotic_negative(t: float) -> tuple[float, float, float, float]:
    """airy._asymptotic_negative with its own copy of the series loop."""
    from airyflow.airy import _MAX_TERMS, _SQRT_PI, _reduced_phase

    x = -t
    zeta = (2.0 / 3.0) * x ** 1.5
    xq = x ** 0.25
    pu = pv = 1.0  # even-index sums, k = 0 term
    qu = qv = 0.0  # odd-index sums
    u = 1.0
    powz = 1.0
    last = math.inf
    for k in range(1, _MAX_TERMS):
        u = u * (6 * k - 5) * (6 * k - 1) / (72.0 * k)
        v = u * (6 * k + 1) / (1.0 - 6 * k)
        powz *= zeta
        mag = u / powz
        if mag >= last:
            break
        last = mag
        sgn = -1.0 if (k // 2) % 2 else 1.0
        if k % 2 == 0:
            pu += sgn * u / powz
            pv += sgn * v / powz
        else:
            qu += sgn * u / powz
            qv += sgn * v / powz
        if mag < 1e-17:
            break
    theta = _reduced_phase(t)
    ct = math.cos(theta)
    st = math.sin(theta)
    ai = (ct * pu + st * qu) / (_SQRT_PI * xq)
    bi = (-st * pu + ct * qu) / (_SQRT_PI * xq)
    aip = xq * (st * pv - ct * qv) / _SQRT_PI
    bip = xq * (ct * pv + st * qv) / _SQRT_PI
    return ai, bi, aip, bip


def reference_solve_bvp(u10: float, u1L: float, params, c_bracket=None):
    """(c, excluded_candidates, endpoint_residual) by solve_bvp's search,
    each shot built from derive_constants, coefficients_from_u0,
    with_coefficients, has_interior_pole and exact_u1; raises the same
    errors with the same arguments."""
    from airyflow import (
        NoSignChangeError,
        PoleCrossingError,
        PoleError,
        airy_eval,
        coefficients_from_u0,
        default_c_bracket,
        derive_constants,
        exact_u1,
        map_t,
    )
    from airyflow.bvp import ENDPOINT_RTOL, SCAN_POINTS
    from airyflow.flow import _newton_root, has_interior_pole

    if c_bracket is None:
        c_bracket = default_c_bracket(u10, u1L, params.nu)
    c_lo, c_hi = c_bracket
    nu, length = params.nu, params.length

    def build(c):
        partial = derive_constants(params, c)
        return partial.with_coefficients(*coefficients_from_u0(u10, params, partial))

    def residual(c):
        consts = build(c)
        if has_interior_pole(consts, 0.0, length):
            return None
        try:
            return exact_u1(length, params, consts) - u1L
        except PoleError:
            return None

    def residual_and_slope(c):
        consts = build(c)
        kappa = (-consts.a) ** (1.0 / 3.0)
        c1, c2 = consts.c1, consts.c2
        q0, qL = airy_eval(map_t(0.0, consts)), airy_eval(map_t(length, consts))
        z0, zt0 = c1 * q0.ai + c2 * q0.bi, c1 * q0.ai_prime + c2 * q0.bi_prime
        zL, ztL = c1 * qL.ai + c2 * qL.bi, c1 * qL.ai_prime + c2 * qL.bi_prime
        integral = (qL.t * zL * zL - ztL * ztL) - (q0.t * z0 * z0 - zt0 * zt0)
        return -2.0 * nu * kappa * ztL / zL - u1L, integral / (kappa * nu * zL * zL)

    def candidate(i):
        return c_lo + (c_hi - c_lo) * i / (SCAN_POINTS - 1)

    k, end, r_last = 0, SCAN_POINTS, -1.0
    while k < end:
        mid = (k + end) // 2
        r = residual(candidate(mid))
        if r is None:
            end = mid
        else:
            k, r_last = mid + 1, r
    if k == 0:
        raise PoleCrossingError(SCAN_POINTS)
    if r_last >= 0.0:
        lo, hi = c_lo, candidate(k - 1)
        c = _newton_root(residual_and_slope, lo, hi, 0.5 * (lo + hi))
        r = residual(c)
        if r is not None and abs(r) <= ENDPOINT_RTOL * (1.0 + abs(u1L)):
            return c, SCAN_POINTS - k, r
    raise NoSignChangeError(residual(candidate(0)), residual(candidate(k - 1)))
