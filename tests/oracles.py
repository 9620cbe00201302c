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
phase count: z = c1 Ai + c2 Bi, with the pair of z itself
(SolutionConstants.coefficients), sampled with scipy's Airy functions on
a grid fine enough to separate neighbouring zeros.  reference_half_turns
counts the phase's half-turns at one t from mpmath's Airy functions, and
far out from the phase's asymptotic form with zeta to 520 digits.

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
    c1, c2 = consts.coefficients
    z = c1 * ai + c2 * bi
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


def reference_reduced_phase(t: float) -> tuple[int, float]:
    # (n, theta) with (2/3)(-t)^{3/2} - pi/4 = 2 pi n + theta; double
    # rounding of zeta alone would cost ~zeta*eps of phase, so reduce in
    # decimal.
    with localcontext() as ctx:
        ctx.prec = 45
        x = -Decimal(t)
        zeta = 2 * (x * x * x).sqrt() / 3
        theta = zeta - _PI / 4
        twopi = 2 * _PI
        n = (theta / twopi).to_integral_value()
        return int(n), float(theta - n * twopi)


def reference_half_turns(c1: float, c2: float, t: float) -> int | None:
    """floor((theta - phi)/pi - 1/2) at the double t, for theta the phase of
    Ai + i Bi taken continuous from theta(0) = pi/3 and phi = atan2(c2, c1);
    None within 1e-12 of a half-turn.  theta is mpmath's atan2(Bi, Ai) at 40
    digits for |t| <= 1e4, unwrapped to its asymptote pi/4 - zeta; below
    t = -1e4 it is pi/4 - zeta + 5/(48 |t|**1.5), the two leading terms of
    the asymptotic phase (the next is under 1e-15 there), with zeta at 520
    digits, enough for zeta - pi/4 of every double t to 1e-100."""
    from mpmath import airyai, airybi, atan2, floor, nint, pi

    with workdps(520):
        x = -mpf(t)
        zeta = 2 * x * sqrt(x) / 3 if x > 0 else mpf(0)
        if x > 10_000:
            theta = pi / 4 - zeta + 5 / (48 * x * sqrt(x))
        else:
            with workdps(40):
                theta = atan2(airybi(t), airyai(t))
            theta += 2 * pi * nint((pi / 4 - zeta - theta) / (2 * pi))
        h = (theta - atan2(c2, c1)) / pi - mpf(1) / 2
        k = floor(h)
        if min(h - k, k + 1 - h) < 1e-12:
            return None
        return int(k)


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
    from airyflow.errors import AiryOverflowError
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
    theta = _reduced_phase(t)[1]
    ct = math.cos(theta)
    st = math.sin(theta)
    ai = (ct * pu + st * qu) / (_SQRT_PI * xq)
    bi = (-st * pu + ct * qu) / (_SQRT_PI * xq)
    aip = xq * (st * pv - ct * qv) / _SQRT_PI
    bip = xq * (ct * pv + st * qv) / _SQRT_PI
    return ai, bi, aip, bip


def reference_solve_bvp(u10: float, u1L: float, params, c_bracket=None):
    """(c, excluded_candidates, endpoint_residual) by solve_bvp's search,
    each shot built from constants_from_u0, find_poles and exact_u1, with
    the Pruefer angle and its slope written out here; raises the same
    errors with the same arguments."""
    from airyflow.airy import airy_scaled
    from airyflow.bvp import ANGLE_NOISE, ENDPOINT_RTOL, SCAN_POINTS, default_c_bracket
    from airyflow.errors import FlowDomainError, NoSignChangeError, PoleCrossingError, PoleError
    from airyflow.flow import _newton_root, constants_from_u0, exact_u1, find_poles, map_t

    grow = c_bracket is None
    if grow:
        c_bracket = default_c_bracket(u10, u1L, params.nu)
    c_lo, c_hi = c_bracket
    nu, length = params.nu, params.length
    target, noise = -math.atan2(1.0, u1L), ANGLE_NOISE / (1.0 + abs(u1L))
    shots = {}

    def shot(c):
        """(constants, u1(L) or +inf past a pole, A - target, dA/dc)."""
        if c in shots:
            return shots[c]
        if not math.isfinite(c):
            raise FlowDomainError(f"c leaves the double range: {c!r}")
        consts = constants_from_u0(params, c, u10)[0]
        n = len(find_poles(consts, 0.0, length))
        try:
            u1 = math.inf if n else exact_u1(length, params, consts)
        except PoleError:
            u1 = math.inf
        # the anchored form: the pair is stored in the scale zeta0 of t(0),
        # and t(L)'s scale sigma differs by d; the weight exp(-2|d|) goes on
        # the term that shrinks, and on the t(0) end of the Airy integral
        kappa = (-consts.a) ** (1.0 / 3.0)
        c1, c2 = consts.c1, consts.c2
        ai0, bi0, aip0, bip0, t0 = airy_scaled(map_t(0.0, consts))[0]
        (ai, bi, aip, bip, t), sigma = airy_scaled(map_t(length, consts))
        d = sigma - consts.zeta0
        w1, w2 = c1, c2
        if d > 0.0 and c2:
            w1 = c1 * math.exp(-2.0 * d)
        elif d < 0.0 and c1:
            w2 = c2 * math.exp(2.0 * d)
        z0, zt0 = c1 * ai0 + c2 * bi0, c1 * aip0 + c2 * bip0
        zL, ztL = w1 * ai + w2 * bi, w1 * aip + w2 * bip
        # u1 = -x/z with x = 2 nu kappa z_t; z changes sign at each of the n
        # zeros, so z(L) > 0 when z(0) > 0 and n is even, or the reverse
        x = 2.0 * nu * kappa * ztL
        positive = (z0 > 0.0) != (n % 2 == 1)
        angle = n * math.pi - math.atan2(abs(zL), -x if positive else x)
        start = math.exp(-2.0 * abs(d)) * (t0 * z0 * z0 - zt0 * zt0)
        integral = (t * zL * zL - ztL * ztL) - start
        denominator = kappa * nu * (zL * zL + x * x)
        # with u1(L) finite, A - target = arccot u1L - arccot u1(L) as one atan2
        if u1 < math.inf:
            r = math.atan2(u1 - u1L, 1.0 + u1 * u1L)
        else:
            r = angle - target
        shots[c] = (consts, u1, 0.0 if abs(r) <= noise else r,
                    integral / denominator if denominator else math.nan)
        return shots[c]

    def candidate(i):
        return c_lo + (c_hi - c_lo) * i / (SCAN_POINTS - 1)

    k, end = 0, SCAN_POINTS
    while k < end:
        mid = (k + end) // 2
        if shot(candidate(mid))[1] == math.inf:
            end = mid
        else:
            k = mid + 1
    if k == 0 and not grow:
        raise PoleCrossingError(SCAN_POINTS)
    if all(s[2] > 0.0 for s in shots.values()):
        c = candidate(0)
        while shot(c)[2] > 0.0 and grow:
            c -= c_hi - c
    elif all(s[2] < 0.0 for s in shots.values()):
        c = candidate(SCAN_POINTS - 1)
        while shot(c)[2] < 0.0 and grow:
            c += c - c_lo
    lo = max((c for c, s in shots.items() if s[2] <= 0.0), default=None)
    hi = min((c for c, s in shots.items() if s[2] >= 0.0), default=None)
    if lo is None or hi is None:
        raise NoSignChangeError(shot(c_lo)[1] - u1L, shot(candidate(k - 1))[1] - u1L)
    start = min((lo, hi), key=lambda c: abs(shots[c][2]))
    c = _newton_root(lambda c: shot(c)[2:], lo, hi, start)
    u1 = shot(c)[1]
    if not abs(u1 - u1L) <= ENDPOINT_RTOL * (1.0 + abs(u1L)):
        raise FlowDomainError(f"no c reaches u1(L) = {u1L!r}: Newton ends at c = {c!r}, "
                              f"where u1(L) = {u1!r}")
    return c, SCAN_POINTS - k, u1 - u1L
