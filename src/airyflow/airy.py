"""Real-argument Airy functions Ai, Bi and their first derivatives.

Evaluation is self-contained (no special-function library):

* Taylor steps for |t| <= 9.  The argument is anchored at t_k = k/4,
  k = round(4t), so that |t - t_k| <= 1/8; a checked-in table
  (_airy_anchors, generated with mpmath) holds Ai, Ai', Bi, Bi' at each
  anchor.  The two unit solutions of y'' = t*y at t_k are summed as
  Taylor series in d = t - t_k with a fixed term count, and the quartet
  is their combination with the anchor values.  The series coefficients
  depend on t_k alone, so they are built once per anchor at import and a
  call only sums powers of d.  Plain float arithmetic throughout.
* Asymptotic expansions in zeta = (2/3)*|t|**1.5 for |t| > 9, truncated
  at the smallest term; both tails sum one series, with their own signs.
  The oscillatory phase for t < 0 is reduced modulo 2*pi in integers,
  with pi carried 128 bits past the quotient, and rounded once, so every
  finite t < -9 keeps near-full double accuracy; flow counts poles with
  the quotient, the exact turn count.
* airy_scaled, the one dispatch and the solver's entry, returns plain
  floats: the t > 9 tail without its exp(-+zeta) factors, and zeta as
  its scale; no overflow.  airy_eval multiplies the factors back in.

Measured against mpmath on 2,000 random points of [-9, 9] plus every
anchor midpoint, the Taylor branch is within 3.1e-16 of the envelope
|y| + |y'| for each function (the test suite holds it to 2e-15); the
asymptotic tails are good to ~1e-14 at |t| = 9, improving rapidly
outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._airy_anchors import ANCHORS
from .errors import AiryOverflowError

# the Taylor window; the anchors t_k = k/4 run over k = -36 .. 36
_SERIES_BOUND = 9.0
_K_MAX = 36
_MAX_TERMS = 200
# The 14 Taylor terms past the anchor values, a_2 .. a_15, as
# (n, 1/(n(n-1))) for the recurrence a_n = (t_k a_{n-2} + a_{n-3})/(n(n-1)).
# With |d| <= 1/8 and |t_k| <= 9, a_n d^n falls like (3/8)^n/n! of the
# envelope |y| + |y'|, so the first term left out (n = 16, and 16 a_16 d^15
# in y') is about 1e-18 of it, under the rounding of the sum.
_TAYLOR_STEPS = tuple((n, 1.0 / (n * (n - 1))) for n in range(2, 16))

_SQRT_PI = math.sqrt(math.pi)


def _pi_scaled(bits: int) -> int:
    """floor(pi * 2**bits) by the Gauss-Legendre iteration in integers;
    each step doubles the correct bits, and 8 already give 1,700."""
    one = 1 << (bits + 32)  # 32 guard bits
    a, b, t, p = one, math.isqrt(one * one // 2), one // 4, 1
    for _ in range(10):
        a, b, t, p = (a + b) // 2, math.isqrt(a * b), t - p * ((a - b) // 2) ** 2 // one, 2 * p
    return ((a + b) ** 2 // (4 * t)) >> 32


# pi to 128 bits past the phase quotient of the most negative double
# (zeta < 2**1536), for the t < -9 phase reduction
_PI_BITS = 1700
_PI_SCALED = _pi_scaled(_PI_BITS)


@dataclass(frozen=True)
class AiryQuartet:
    """Ai, Bi, Ai', Bi' at one real ``t``: airy_eval's result (the solver reads floats)."""

    ai: float
    bi: float
    ai_prime: float
    bi_prime: float
    t: float


def airy_eval(t: float) -> AiryQuartet:
    """Ai(t), Bi(t), Ai'(t), Bi'(t) for finite real t: airy_scaled unscaled.
    Raises ValueError for non-finite input and AiryOverflowError once Bi'
    leaves the double range (every t past 104.20871750754523)."""
    q, sigma = airy_scaled(t)
    if not sigma:
        return AiryQuartet(*q)
    ai, bi, aip, bip, t = q
    try:
        zeta = (2.0 / 3.0) * t ** 1.5  # t**1.5, not sigma: measured against mpmath, the more accurate
        em, ep = math.exp(-zeta), math.exp(zeta)
    except OverflowError:
        raise AiryOverflowError(t) from None
    bip *= ep  # Bi' overflows first, as Bi'/Bi ~ sqrt(t) > 3
    if bip == math.inf:
        raise AiryOverflowError(t)
    return AiryQuartet(ai * em, bi * ep, aip * em, bip, t)


def airy_scaled(t: float) -> tuple[tuple[float, float, float, float, float], float]:
    """((Ai e**sigma, Bi e**-sigma, their t-derivatives likewise, t), sigma), finite
    for every finite t: sigma = 0 for t <= 9, else zeta.  The kernel's one
    dispatch; raises ValueError for non-finite t."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"argument must be finite, got {t!r}")
    if t > _SERIES_BOUND:
        zeta = (2.0 / 3.0) * t * math.sqrt(t)  # inf, not OverflowError, past t ~ 3e205
        xq, su_alt, su, sv_alt, sv = _positive_sums(t, zeta)
        return (su_alt / (2.0 * _SQRT_PI * xq), su / (_SQRT_PI * xq),
                -xq * sv_alt / (2.0 * _SQRT_PI), xq * sv / _SQRT_PI, t), zeta
    ai, bi, aip, bip = _taylor(t) if t >= -_SERIES_BOUND else _asymptotic_negative(t)
    return (ai, bi, aip, bip, t), 0.0


# ---------------------------------------------------------------------------
# Taylor steps.  Around t_k a solution of y'' = t*y is sum_n a_n d^n with
# d = t - t_k, a_0 = y(t_k), a_1 = y'(t_k) and
#   a_n = (t_k a_{n-2} + a_{n-3}) / (n(n-1)),   a_{-1} = 0.
# The series is linear in (a_0, a_1), so it is summed once for the unit
# solutions f (f = 1, f' = 0) and g (g = 0, g' = 1) at t_k, and then
#   y = y(t_k) f + y'(t_k) g,   y' = y(t_k) f' + y'(t_k) g'
# for both Ai and Bi.  The sums start at n = 2 and meet the leading terms
# (f = 1 + ..., g = d + ..., g' = 1 + ...) only at the end, so they round
# at their own, smaller scale.  The unit-solution coefficients depend on
# t_k alone, so they are computed once per anchor, at import.

def _unit_terms(tk: float) -> tuple[tuple[float, float, float, float], ...]:
    """(n f_n, n g_n, f_n, g_n) for n = 2 .. 15 at the anchor tk."""
    f3, f2, f1 = 0.0, 1.0, 0.0  # f's a_{n-3}, a_{n-2}, a_{n-1}
    g3, g2, g1 = 0.0, 0.0, 1.0
    terms = []
    for n, inv in _TAYLOR_STEPS:
        fn = (tk * f2 + f3) * inv
        gn = (tk * g2 + g3) * inv
        terms.append((n * fn, n * gn, fn, gn))
        f3, f2, f1 = f2, f1, fn
        g3, g2, g1 = g2, g1, gn
    return tuple(terms)


# row k + _K_MAX: the anchor quartet and the unit-solution terms at t_k
_TAYLOR_TABLE = tuple(
    (ANCHORS[k + _K_MAX], _unit_terms(0.25 * k)) for k in range(-_K_MAX, _K_MAX + 1)
)


def _taylor(t: float) -> tuple[float, float, float, float]:
    k = round(4.0 * t)
    d = t - 0.25 * k  # exact: t and t_k are within a factor of 2 (or k = 0)
    (ai0, aip0, bi0, bip0), terms = _TAYLOR_TABLE[k + _K_MAX]
    sf = sg = sfp = sgp = 0.0
    dn = d  # d^(n-1)
    for nf, ng, fn, gn in terms:
        sfp += nf * dn
        sgp += ng * dn
        dn *= d
        sf += fn * dn
        sg += gn * dn
    f, g, fp, gp = 1.0 + sf, d + sg, sfp, 1.0 + sgp
    return (
        ai0 * f + aip0 * g,
        bi0 * f + bip0 * g,
        ai0 * fp + aip0 * gp,
        bi0 * fp + bip0 * gp,
    )


# ---------------------------------------------------------------------------
# Asymptotic expansions.  Coefficients
#   u_k = Gamma(3k + 1/2) / (54^k k! Gamma(k + 1/2)),
#   v_k = u_k (6k + 1)/(1 - 6k),
# via the ratio u_{k+1}/u_k = (6k+1)(6k+5)/(72(k+1)).  The series
# diverge; truncation stops at the smallest term.

def _asymptotic_terms(zeta: float):
    """(k, u_k/zeta^k, v_k/zeta^k) for k = 1, 2, ... up to the smallest
    term, or to the first term below 1e-17."""
    u = 1.0
    powz = 1.0
    last = math.inf
    for k in range(1, _MAX_TERMS):
        u = u * (6 * k - 5) * (6 * k - 1) / (72.0 * k)
        v = u * (6 * k + 1) / (1.0 - 6 * k)
        powz *= zeta
        tu = u / powz
        if tu >= last:
            return  # optimal truncation reached
        last = tu
        yield k, tu, v / powz
        if tu < 1e-17:
            return


def _positive_sums(t: float, zeta: float) -> tuple[float, float, float, float, float]:
    """t**(1/4) and the t > 9 sums, with signs (-1)^k (Ai, Ai') and +1 (Bi, Bi')."""
    su_alt = su = sv_alt = sv = 1.0
    for k, tu, tv in _asymptotic_terms(zeta):
        if k % 2:
            su_alt -= tu
            sv_alt -= tv
        else:
            su_alt += tu
            sv_alt += tv
        su += tu
        sv += tv
    return t ** 0.25, su_alt, su, sv_alt, sv


def _reduced_phase(t: float) -> tuple[int, float]:
    """(n, r), zeta - pi/4 = 2 pi n + r with r in [-pi, pi), for t < -9: n exact
    (flow's pole count) and r, the kernel's phase, correctly rounded."""
    # a rounded zeta alone would cost ~zeta*eps of phase, so reduce in
    # integers scaled by 2**s, 128 bits more than zeta < 2**(1.5 e) has for
    # |t| < 2**e.  -t = m/d with d = 2**j, j <= 49 as |t| > 9, so the
    # division by d**3 is exact; the final int quotient rounds correctly.
    m, d = (-t).as_integer_ratio()
    s = 128 + 3 * math.frexp(t)[1] // 2
    zeta = 2 * math.isqrt((m ** 3 << 2 * s) // d ** 3) // 3
    pi_s = _PI_SCALED >> (_PI_BITS - s)
    # zeta - pi/4 + pi split into turns and [0, 2 pi), shifted back to [-pi, pi)
    n, r = divmod(zeta - pi_s // 4 + pi_s, 2 * pi_s)
    return n, (r - pi_s) / (1 << s)


def _asymptotic_negative(t: float) -> tuple[float, float, float, float]:
    x = -t
    try:
        zeta = (2.0 / 3.0) * x ** 1.5
    except OverflowError:  # x past ~3e205: every correction term is 0
        zeta = math.inf
    xq = x ** 0.25
    pu = pv = 1.0  # even-index sums, k = 0 term
    qu = qv = 0.0  # odd-index sums
    for k, tu, tv in _asymptotic_terms(zeta):
        sgn = -1.0 if (k // 2) % 2 else 1.0
        if k % 2:
            qu += sgn * tu
            qv += sgn * tv
        else:
            pu += sgn * tu
            pv += sgn * tv
    theta = _reduced_phase(t)[1]
    ct = math.cos(theta)
    st = math.sin(theta)
    ai = (ct * pu + st * qu) / (_SQRT_PI * xq)
    bi = (-st * pu + ct * qu) / (_SQRT_PI * xq)
    aip = xq * (st * pv - ct * qv) / _SQRT_PI
    bip = xq * (ct * pv + st * qv) / _SQRT_PI
    return ai, bi, aip, bip
