"""Real-argument Airy functions Ai, Bi and their first derivatives.

Evaluation is self-contained (no special-function library):

* Maclaurin series of the Airy equation y'' = t*y for |t| <= 9, built
  from the two standard independent solutions f (f(0) = 1, f'(0) = 0)
  and g (g(0) = 0, g'(0) = 1) with gamma-based normalization constants.
  A plain float pass covers -4 <= t <= 2.5; outside that window the
  Ai-side combination c1*f - c2*g cancels beyond double headroom, so
  the series runs in 50-digit decimal arithmetic instead.
* Asymptotic expansions in zeta = (2/3)*|t|**1.5 for |t| > 9, truncated
  at the smallest term.  The oscillatory phase for t < 0 is reduced
  modulo 2*pi in extended precision so very negative arguments keep
  near-full double accuracy.

Branch placement is driven by measured error against an
arbitrary-precision series oracle (see the test suite's sweeps): the
float window is good to ~3e-13 worst case, the decimal window to ~1e-16,
the asymptotic tails to ~1e-14 at |t| = 9 improving rapidly outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import AiryOverflowError

# Gamma(1/3) and Gamma(2/3); they satisfy G13*G23 = 2*pi/sqrt(3),
# asserted in the tests.
GAMMA_ONE_THIRD = Decimal("2.67893853470774763365569294097467764412868938")
GAMMA_TWO_THIRDS = Decimal("1.35411793942640041694528802815451378551932727")
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097")

_DECIMAL_PREC = 50
# branch boundaries (see module docstring)
_SERIES_BOUND = 9.0
_FAST_LO, _FAST_HI = -4.0, 2.5
_MAX_TERMS = 200

with localcontext() as _ctx:
    _ctx.prec = _DECIMAL_PREC
    _CBRT3 = Decimal(3) ** (Decimal(1) / 3)
    _SQRT3_D = Decimal(3).sqrt()
    # Ai(0) = 3**(-2/3)/Gamma(2/3) and -Ai'(0) = 3**(-1/3)/Gamma(1/3)
    _C1_D = 1 / (_CBRT3 * _CBRT3 * GAMMA_TWO_THIRDS)
    _C2_D = 1 / (_CBRT3 * GAMMA_ONE_THIRD)

_C1_F = float(_C1_D)
_C2_F = float(_C2_D)
_SQRT3_F = math.sqrt(3.0)
_SQRT_PI = math.sqrt(math.pi)
_LOG_DBL_MAX = 709.78


@dataclass(frozen=True)
class AiryQuartet:
    """Ai, Bi, Ai', Bi' evaluated at one real argument ``t``."""

    ai: float
    bi: float
    ai_prime: float
    bi_prime: float
    t: float


def airy_eval(t: float) -> AiryQuartet:
    """Evaluate Ai(t), Bi(t), Ai'(t), Bi'(t) for finite real t.

    Raises ValueError for non-finite input and AiryOverflowError once
    Bi or Bi' leaves the double range (t around 105).
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"argument must be finite, got {t!r}")
    if abs(t) <= _SERIES_BOUND:
        if _FAST_LO <= t <= _FAST_HI:
            ai, bi, aip, bip = _series_float(t)
        else:
            ai, bi, aip, bip = _series_decimal(t)
    elif t > 0.0:
        ai, bi, aip, bip = _asymptotic_positive(t)
    else:
        ai, bi, aip, bip = _asymptotic_negative(t)
    return AiryQuartet(ai=ai, bi=bi, ai_prime=aip, bi_prime=bip, t=t)


def airy_ode_residual(t: float, q: AiryQuartet, h: float) -> tuple[float, float]:
    """Central-difference check that ``q`` satisfies y'' = t*y.

    Returns the residuals (Ai''(t) - t*Ai(t), Bi''(t) - t*Bi(t)) with the
    second derivatives estimated from fresh evaluations at t +- h; both
    are O(h**2) plus evaluation noise when the quartet is correct.
    """
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step must be positive and finite, got {h!r}")
    qp = airy_eval(t + h)
    qm = airy_eval(t - h)
    h2 = h * h
    res_ai = (qp.ai - 2.0 * q.ai + qm.ai) / h2 - t * q.ai
    res_bi = (qp.bi - 2.0 * q.bi + qm.bi) / h2 - t * q.bi
    return res_ai, res_bi


# ---------------------------------------------------------------------------
# Maclaurin series.  Term recurrences for f, g and their derivatives:
#   f:   u_{k+1} = u_k * t^3 / ((3k+2)(3k+3)),          u_0 = 1
#   g:   v_{k+1} = v_k * t^3 / ((3k+3)(3k+4)),          v_0 = t
#   f':  p_{k+1} = p_k * t^3 (k+1) / (k(3k+2)(3k+3)),   p_1 = t^2/2
#   g':  q_{k+1} = q_k * t^3 / ((3k+1)(3k+3)),          q_0 = 1
# then Ai = C1 f - C2 g, Bi = sqrt3 (C1 f + C2 g), same shape for the
# derivatives, with C1 = Ai(0) and C2 = -Ai'(0).

def _series_float(t: float) -> tuple[float, float, float, float]:
    t3 = t * t * t
    f = uf = 1.0
    g = ug = t
    fp = up = 0.5 * t * t
    gp = uq = 1.0
    for k in range(_MAX_TERMS):
        uf = uf * t3 / ((3 * k + 2) * (3 * k + 3))
        ug = ug * t3 / ((3 * k + 3) * (3 * k + 4))
        uq = uq * t3 / ((3 * k + 1) * (3 * k + 3))
        f += uf
        g += ug
        gp += uq
        if k >= 1:
            up = up * t3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
            fp += up
        scale = max(abs(f), abs(g), abs(fp), abs(gp), 1.0)
        if max(abs(uf), abs(ug), abs(up), abs(uq)) < 1e-18 * scale:
            ai = _C1_F * f - _C2_F * g
            bi = _SQRT3_F * (_C1_F * f + _C2_F * g)
            aip = _C1_F * fp - _C2_F * gp
            bip = _SQRT3_F * (_C1_F * fp + _C2_F * gp)
            return ai, bi, aip, bip
    raise ArithmeticError(f"series did not converge within {_MAX_TERMS} terms at t = {t!r}")


def _series_decimal(t: float) -> tuple[float, float, float, float]:
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_PREC
        td = Decimal(t)
        t3 = td * td * td
        f = uf = Decimal(1)
        g = ug = td
        fp = up = (td * td) / 2
        gp = uq = Decimal(1)
        tiny = Decimal("1e-44")
        for k in range(_MAX_TERMS):
            uf = uf * t3 / ((3 * k + 2) * (3 * k + 3))
            ug = ug * t3 / ((3 * k + 3) * (3 * k + 4))
            uq = uq * t3 / ((3 * k + 1) * (3 * k + 3))
            f += uf
            g += ug
            gp += uq
            if k >= 1:
                up = up * t3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
                fp += up
            scale = max(abs(f), abs(g), abs(fp), abs(gp), Decimal(1))
            if max(abs(uf), abs(ug), abs(up), abs(uq)) < tiny * scale:
                break
        else:
            raise ArithmeticError(
                f"series did not converge within {_MAX_TERMS} terms at t = {t!r}"
            )
        ai = _C1_D * f - _C2_D * g
        bi = _SQRT3_D * (_C1_D * f + _C2_D * g)
        aip = _C1_D * fp - _C2_D * gp
        bip = _SQRT3_D * (_C1_D * fp + _C2_D * gp)
        return float(ai), float(bi), float(aip), float(bip)


# ---------------------------------------------------------------------------
# Asymptotic expansions.  Coefficients
#   u_k = Gamma(3k + 1/2) / (54^k k! Gamma(k + 1/2)),
#   v_k = u_k (6k + 1)/(1 - 6k),
# via the ratio u_{k+1}/u_k = (6k+1)(6k+5)/(72(k+1)).  The series
# diverge; truncation stops at the smallest term.

def _asymptotic_sums_positive(zeta: float) -> tuple[float, float, float, float]:
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


def _asymptotic_positive(t: float) -> tuple[float, float, float, float]:
    zeta = (2.0 / 3.0) * t ** 1.5
    xq = t ** 0.25
    su_alt, su, sv_alt, sv = _asymptotic_sums_positive(zeta)
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


def _reduced_phase(t: float) -> float:
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


def _asymptotic_negative(t: float) -> tuple[float, float, float, float]:
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

