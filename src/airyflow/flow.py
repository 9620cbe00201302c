"""Per-streamline flow model and its closed-form velocity profile.

The steady along-streamline momentum balance integrates once to a
Riccati equation

    u1' = u1**2/(2 nu) + ((grad_term - f1) s + c)/nu

whose logarithmic-derivative substitution u1 = -2 nu z'/z turns it into
the Airy equation.  With a = (grad_term - f1)/(2 nu**2) < 0 and
b = c/(2 nu**2) the solution denominator is

    z(s) = c1 Ai(t) + c2 Bi(t),    t(s) = -(a s + b)/(-a)**(2/3)

and the velocity is u1 = -2 nu (-a)**(1/3) z_t / z evaluated along t(s).
(The minus sign comes from the substitution; dropping it breaks the
Riccati identity, as the verification suite demonstrates.)

u1 is scale-free in (c1, c2), so the pair is stored normalized (unit
Euclidean norm, first nonzero component positive) and anchored at the
scale zeta0 of t(0) (airy_scaled: sigma = (2/3) t**1.5 past t = 9, else
0): z is proportional to c1 e**(2 zeta0) Ai + c2 Bi.  Elsewhere only
D = sigma - zeta0 enters, so no value leaves the double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .airy import AiryQuartet, _reduced_phase, airy_scaled
from .errors import (DegenerateModelError, FlowDomainError, ModelInvalidError,
                     NoConvergenceError, PoleError)

# |z| sqrt(1 + |t|) <= POLE_RTOL |z_t| counts as a pole.  Near a zero, z =
# M cos(theta - phi) turns at the local wavenumber sqrt(1 + |t|), so this
# flags z within POLE_RTOL rad of a half-turn of its phase; the test is
# relative, so it behaves the same whether the Airy values are huge or tiny.
POLE_RTOL = 1e-13

# find_poles refuses a window with more zeros than this: each zero costs
# 0.01-0.045 ms (t from -3e10 to -10, Python 3.11 on a 2-core x86 box), so
# a list this long takes at most about 2 s.
MAX_POLES = 40_000

_TWO_PI = 2.0 * math.pi


def _fmt(x: float) -> str:
    return format(x, ".17g")  # 17 significant digits: every CLI value and field file


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_derived(name: str, value: float) -> float:
    """value, derived from finite inputs: leaving the double range is a
    domain error, where a non-finite input is a usage error (ValueError)."""
    if not math.isfinite(value):
        raise FlowDomainError(f"{name} leaves the double range: {value!r}")
    return value


@dataclass(frozen=True)
class FlowParams:
    """Physical constants along one streamline.

    nu        kinematic viscosity (> 0)
    grad_term streamwise pressure-gradient term per unit density
    f1        constant streamwise body force per unit mass
    length    domain extent: s runs over [0, length]
    """

    nu: float
    grad_term: float
    f1: float
    length: float

    def __post_init__(self):
        for name in ("nu", "grad_term", "f1", "length"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.nu <= 0.0:
            raise ValueError(f"nu must be positive, got {self.nu!r}")
        if self.length <= 0.0:
            raise ValueError(f"length must be positive, got {self.length!r}")

    @property
    def forcing_gap(self) -> float:
        """grad_term - f1; must be negative for the Airy solution."""
        return self.grad_term - self.f1


@dataclass(frozen=True)
class SolutionConstants:
    """Derived and free constants of one closed-form solution.

    a and b come from the owning FlowParams and the Riccati constant c;
    (c1, c2) select the Airy combination and may be left unset while the
    boundary data that determine them is still being processed.  zeta0,
    the anchor (module docstring), is 0 for a pair given directly.
    """

    a: float
    b: float
    c: float
    c1: float | None = None
    c2: float | None = None
    zeta0: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not self.a < 0.0:
            raise ValueError(f"a must be negative, got {self.a!r}")
        if (self.c1 is None) != (self.c2 is None):
            raise ValueError("c1 and c2 must be set together")
        if self.c1 is not None:
            c1, c2 = _normalize_pair(float(self.c1), float(self.c2))
            object.__setattr__(self, "c1", c1)
            object.__setattr__(self, "c2", c2)

    def with_coefficients(self, c1: float, c2: float) -> "SolutionConstants":
        return SolutionConstants(a=self.a, b=self.b, c=self.c, c1=c1, c2=c2)

    @property
    def coefficients(self) -> tuple[float, float]:
        """The normalized (c1, c2) of z = c1 Ai + c2 Bi; c2 may round to 0."""
        return _coefficients(self.c1, self.c2, self.zeta0)


def _coefficients(c1: float, c2: float, zeta0: float) -> tuple[float, float]:
    if not (zeta0 and c1):
        return c1, c2
    return _normalize_pair(c1, c2 * math.exp(-2.0 * zeta0))


def _normalize_pair(c1: float, c2: float) -> tuple[float, float]:
    # unit norm, first nonzero component positive
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError(f"coefficients must be finite, got ({c1!r}, {c2!r})")
    norm = math.hypot(c1, c2)
    if norm == 0.0:
        raise ValueError("(c1, c2) must not both be zero")
    c1, c2 = c1 / norm, c2 / norm
    lead = c1 if c1 != 0.0 else c2
    if lead < 0.0:
        c1, c2 = -c1, -c2
    return c1, c2


def _model(params: FlowParams) -> tuple[float, float, float, float, float]:
    """(a, 2 nu**2, (-a)**(2/3), kappa = (-a)**(1/3), 2 nu kappa), the same for
    every c.  grad_term == f1 alone decides degeneracy (DegenerateModelError),
    since 2 nu**2 can round the a of a nonzero gap to 0 or infinity; any other a
    that is not a finite negative double raises ModelInvalidError."""
    if params.grad_term == params.f1:
        raise DegenerateModelError()
    two_nu_sq = 2.0 * params.nu * params.nu
    a = params.forcing_gap / two_nu_sq if two_nu_sq else params.forcing_gap * math.inf
    if a > 0.0:
        raise ModelInvalidError(a)
    if not -math.inf < a < 0.0:
        raise ModelInvalidError(a, f"model requires a finite nonzero a, got a = {a!r}")
    kappa = (-a) ** (1.0 / 3.0)
    return a, two_nu_sq, (-a) ** (2.0 / 3.0), kappa, 2.0 * params.nu * kappa


def derive_constants(params: FlowParams, c: float) -> SolutionConstants:
    """a, b and c for the Riccati constant c, with (c1, c2) unset."""
    c = _require_finite("c", c)
    a, two_nu_sq = _model(params)[:2]
    return SolutionConstants(a=a, b=_require_derived("b", c / two_nu_sq), c=c)


def _anchor(params: FlowParams, model: tuple, c: float, u10: float) -> tuple:
    """SolutionConstants' fields (a, b, c, c1, c2, zeta0) for the Riccati constant c
    with u1(0) = u10, t(L), and airy_scaled's floats q0 at t(0), of scale zeta0.

    The condition is one homogeneous linear equation in (c1, c2):
        c1*[-2 nu k Ai'(t0) - u10 Ai(t0)] + c2*[-2 nu k Bi'(t0) - u10 Bi(t0)] = 0
    with k = (-a)**(1/3) and t0 = t(0), on the scaled values; the pair is its
    orthogonal-complement solution (never 0: Wronskian), normalized here and once
    more by SolutionConstants; dropping either step moves the last bit of some pairs.
    """
    a, two_nu_sq, kappa_sq, _, two_nu_k = model
    b = _require_derived("b", c / two_nu_sq)
    q0, zeta0 = airy_scaled(_require_derived("t(0)", -b / kappa_sq))
    t_end = _require_derived("t(L)", -(a * params.length + b) / kappa_sq)
    bracket_ai = -two_nu_k * q0[2] - u10 * q0[0]
    bracket_bi = -two_nu_k * q0[3] - u10 * q0[1]
    c1, c2 = _normalize_pair(-bracket_bi, bracket_ai)
    return (a, b, c, c1, c2, _require_derived("zeta(t(0))", zeta0)), t_end, q0


def constants_from_u0(
    params: FlowParams, c: float, u10: float
) -> tuple[SolutionConstants, AiryQuartet]:
    """The constants for c with u1(0) = u10 and the scaled quartet at t(0) (_anchor's q0)."""
    c = _require_finite("c", c)
    fields, _, q0 = _anchor(params, _model(params), c, u10)
    return SolutionConstants(*fields), AiryQuartet(*q0)


def map_t(s: float, consts: SolutionConstants) -> float:
    """Affine map from arclength s to the Airy argument t."""
    return -(consts.a * s + consts.b) / (-consts.a) ** (2.0 / 3.0)


def exact_u1(s: float, params: FlowParams, consts: SolutionConstants) -> float:
    """Closed-form streamwise velocity at arclength s.

    Raises PoleError when the phase of z(s) is within POLE_RTOL rad of a
    half-turn (_u1); the error carries the zero of z at the half-turn
    of the phase nearest s.
    """
    u1 = _u1_at(params, consts, *airy_scaled(map_t(s, consts)))
    if u1 == math.inf:
        raise PoleError(s, nearest_pole=_nearest_pole(consts, s))
    return u1


def _pair(c1: float, c2: float, zeta0: float) -> tuple[float, float, float, float]:
    """(c1, c2, zeta0, phi): a stored pair, its anchor, and phi = atan2(c2, c1)
    of the plain pair (SolutionConstants.coefficients)."""
    if c1 is None:
        raise ValueError("SolutionConstants has no (c1, c2) yet")
    plain = _coefficients(c1, c2, zeta0)
    return c1, c2, zeta0, math.atan2(plain[1], plain[0])


def _z(pair: tuple, q: tuple, sigma: float) -> tuple[float, float]:
    """(z, z_t) at q of scale sigma, up to a positive factor: the pair weighted
    by e**(-2D) on c1 for D = sigma - zeta0 > 0, by e**(2D) on c2 for D < 0,
    unless the other component is 0 (then the weight is moot, and could underflow)."""
    c1, c2, zeta0, _ = pair
    d = sigma - zeta0
    if d > 0.0 and c2:
        c1 *= math.exp(-2.0 * d)
    elif d < 0.0 and c1:
        c2 *= math.exp(2.0 * d)
    return c1 * q[0] + c2 * q[1], c1 * q[2] + c2 * q[3]


def _u1_at(params: FlowParams, consts: SolutionConstants, q: tuple, sigma: float) -> float:
    """u1 at t(s) from airy_scaled's q of scale sigma (_u1)."""
    pair = _pair(consts.c1, consts.c2, consts.zeta0)
    return _u1(_z(pair, q, sigma), q[4], 2.0 * params.nu * (-consts.a) ** (1.0 / 3.0))


def _u1(w: tuple[float, float], t: float, two_nu_k: float) -> float:
    """u1 = -2 nu kappa z_t/z from w = (z, z_t) at t; +inf where
    |z| sqrt(1 + |t|) <= POLE_RTOL |z_t|, a pole to within rounding."""
    z, z_t = w
    if abs(z) * math.sqrt(1.0 + abs(t)) <= POLE_RTOL * abs(z_t):
        return math.inf
    return -two_nu_k * z_t / z


def exact_u1_derivative(s: float, params: FlowParams, consts: SolutionConstants) -> float:
    """du1/ds, taken from the integrated Riccati equation itself (exact
    because the closed form satisfies it identically)."""
    return _riccati_rhs(s, exact_u1(s, params, consts), params, consts)


def _riccati_rhs(s: float, u1: float, params: FlowParams, consts: SolutionConstants) -> float:
    """u1**2/(2 nu) + ((grad_term - f1) s + c)/nu, du1/ds at s given u1 there."""
    return u1 * u1 / (2.0 * params.nu) + (params.forcing_gap * s + consts.c) / params.nu


# ---------------------------------------------------------------------------
# Pole location: zeros of z(s).  With (c1, c2) = (cos phi, sin phi) and
# Ai + i Bi = M exp(i theta), z = M cos(theta - phi).  The Wronskian makes
# theta strictly increasing, theta' = 1/(pi M**2) (DLMF 9.8), so the zeros
# are where theta - phi crosses pi/2 + k pi, one half-turn at a time.

def _phase(q: tuple, sigma: float, phi: float) -> tuple[int, float]:
    """(n, delta), theta - phi = delta - 2 pi n at t = q[4] (airy_scaled's q of
    scale sigma): the phase unwrapped, its whole turns n kept in integers.

    theta stays within pi/12 of pi/4 - zeta (zeta = (2/3)(-t)**1.5 on t < 0)
    for every t <= 0.  With zeta - pi/4 = 2 pi n + r, exact below t = -9 by
    the kernel's integer reduction (airy._reduced_phase), atan2's theta is
    placed on the turn nearest -r, so n is exact for every finite t.
    """
    t = q[4]
    n, r = _reduced_phase(t) if t < -9.0 else (0, (2.0 / 3.0) * max(-t, 0.0) ** 1.5 - math.pi / 4)
    theta = math.atan2(q[1], q[0] * math.exp(-2.0 * sigma) if sigma else q[0])
    theta += _TWO_PI * round((-r - theta) / _TWO_PI)
    return n, theta - phi


def _half_turns(pair: tuple, q: tuple, sigma: float, w: tuple = ()) -> int:
    """How many half-turns pi/2 + k pi the phase has passed at q[4], i.e.
    floor((theta - phi)/pi - 1/2).  Its parity is the sign of z there
    (odd where z > 0), so it is read off the sign of z, and the phase,
    which may be off by anything under a quarter turn, only picks the
    pair of half-turns.  On t > 0 theta stays in [pi/3, pi/2), less than
    a half-turn, so there the difference of two counts is exactly one
    comparison of the signs of z at the two ends; the phase, flat to
    within rounding of pi/2 once t > 9, never decides it.
    """
    odd = (w or _z(pair, q, sigma))[0] > 0.0
    n, delta = _phase(q, sigma, pair[3])
    return odd - 2 * n + 2 * round((delta / math.pi - 1.0 - odd) / 2.0)


def _zero_residual(consts: SolutionConstants, k: int):
    """s -> (phase past the k-th half-turn, its s-derivative), increasing
    in s, for a zero on t <= 0.  The angle is atan2 of (-1)**(k+1) z and
    (-1)**k (c1 Bi - c2 Ai), so it is as accurate as z itself near the
    zero, and within 4 ulp(1 + zeta) of 0 (zeta = (2/3)(-t)**1.5, which
    one double of t moves by about an ulp) it is 0; past t = 9 (flat
    phase) the phase itself, slope 0: bisect."""
    kappa = (-consts.a) ** (1.0 / 3.0)
    sign = 1.0 if k % 2 else -1.0
    c1, c2 = consts.coefficients
    phi = _pair(consts.c1, consts.c2, consts.zeta0)[3]

    def residual(s: float) -> tuple[float, float]:
        q, sigma = airy_scaled(map_t(s, consts))
        n, delta = _phase(q, sigma, phi)
        delta -= (k + 2 * n + 0.5) * math.pi
        if sigma:
            return delta, 0.0
        angle = math.atan2(sign * (c1 * q[0] + c2 * q[1]), -sign * (c1 * q[1] - c2 * q[0]))
        angle += _TWO_PI * round((delta - angle) / _TWO_PI)
        x = max(-q[4], 0.0)
        if abs(angle) <= 4.0 * math.ulp(1.0 + (2.0 / 3.0) * x * math.sqrt(x)):
            angle = 0.0
        return angle, kappa / (math.pi * (q[0] * q[0] + q[1] * q[1]))

    return residual


def _ratio_residual(consts: SolutionConstants):
    """(s -> (log(Bi/Ai) - 2 zeta0 - log(-c1/c2), kappa/(pi Ai Bi)), s0): its root is
    the zero of z on t > -1.17 (Ai, Bi > 0); convex on t > 0, nearly linear in zeta.
    Past t = 9 log(Bi/Ai) - 2 zeta tends to log 2, so the root lies near s0, where
    zeta = zeta0 + (log(-c1/c2) - log 2)/2 (t = 0 where that is negative)."""
    kappa = (-consts.a) ** (1.0 / 3.0)
    offset = math.log(abs(consts.c1)) - math.log(abs(consts.c2))
    zeta = max(consts.zeta0 + 0.5 * (offset - math.log(2.0)), 0.0)
    s0 = -((1.5 * zeta) ** (2.0 / 3.0) * kappa * kappa + consts.b) / consts.a

    def residual(s: float) -> tuple[float, float]:
        (ai, bi, _, _, _), sigma = airy_scaled(map_t(s, consts))
        return (math.log(bi / ai) + 2.0 * (sigma - consts.zeta0) - offset,
                kappa / (math.pi * ai * bi))

    return residual, s0


def _newton_root(f, lo: float, hi: float, x: float) -> float:
    """Root of an increasing f on [lo, hi], where f returns (value, slope):
    Newton steps from x, bisecting whenever one leaves the closed sign
    bracket, until a step or the bracket falls to 1e-14*(1 + |x|).  A
    step that rounds to x itself, where f is down to its rounding noise,
    ends at x.  Raises NoConvergenceError after 200 iterations."""
    for _ in range(200):
        r, slope = f(x)
        if r == 0.0:
            return x
        lo, hi = (x, hi) if r < 0.0 else (lo, x)
        nxt = x - r / slope if slope > 0.0 else math.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if min(abs(nxt - x), hi - lo) <= 1e-14 * (1.0 + abs(nxt)):
            return nxt
        x = nxt
    raise NoConvergenceError(
        f"Newton iteration on [{lo!r}, {hi!r}] did not converge (last iterate {x!r})"
    )


def _window(consts: SolutionConstants, s_lo: float, s_hi: float) -> tuple:
    """(pair, airy_scaled at s_lo and at s_hi, the half-turn counts there).
    FlowDomainError where the zero spacing pi/sqrt(-t) at t(s_lo), the most
    negative t, is under 4 ulp(t), from t = -2**35 on: doubles of s and t cannot
    tell those zeros apart (t(s_lo) == t(s_hi) with 1e9 zeros between them)."""
    pair = _pair(consts.c1, consts.c2, consts.zeta0)
    q_lo, q_hi = airy_scaled(map_t(s_lo, consts)), airy_scaled(map_t(s_hi, consts))
    t = q_lo[0][4]
    if t < 0.0 and math.pi < 4.0 * math.ulp(t) * math.sqrt(-t):
        raise FlowDomainError(f"the zeros of z lie under 4 doubles of t apart at t = {t!r}, "
                              "too close to tell apart")
    return pair, q_lo, q_hi, _half_turns(pair, *q_lo), _half_turns(pair, *q_hi)


def has_interior_pole(consts: SolutionConstants, s_lo: float, s_hi: float) -> bool:
    """True when z has a zero in (s_lo, s_hi]: the phase half-turn count
    rises between the ends (two Airy evaluations, no scan).  Refuses the
    windows find_poles refuses for their zero spacing (_window)."""
    *_, lo, hi = _window(consts, s_lo, s_hi)
    return hi > lo


def shooter(params: FlowParams, u10: float):
    """The shot of a BVP with u1(0) = u10: c -> (u1(L), A, dA/dc, fields, q0), on
    floats after one set-up of the model; two Airy evaluations, at t(0) (_anchor's
    fields and airy_scaled's floats q0: SolutionConstants(*fields) holds the pair
    the shot used) and at t(L).

    A = n pi - arccot u1(L) is the Pruefer angle.  n counts the zeros of z in
    (0, L] (the rise in the half-turn count), and u1(L) is +inf, the value it
    reaches as c rises to a pole crossing, when n > 0 or z(L) is in the pole
    band.  Past a crossing u1(L) restarts from -inf as n gains one, so A is
    continuous and increasing in c.  arccot is atan2 of |z(L)| and -2 nu kappa
    z_t(L), signed by the parity of the count at t(L) (odd where z > 0): a z(L)
    that rounds to 0 keeps its side.

    v = du1/dc solves v' = (u1/nu) v + 1/nu with v(0) = 0, so v(L) =
    int_0^L z**2 ds / (nu z(L)**2); by dt/ds = kappa and the Airy integral
    int w**2 dt = t w**2 - w_t**2 (DLMF 9.11), dA/dc = v(L)/(1 + u1(L)**2)
    is [t z**2 - z_t**2] from t(0) to t(L) over kappa nu (z(L)**2 +
    (2 nu kappa z_t(L))**2), finite through a pole (nan where that
    underflows); in _z's scaled values the t(0) end carries e**(-2|D|).
    """
    model = _model(params)
    kappa_nu, two_nu_k = model[3] * params.nu, model[4]

    def shot(c: float) -> tuple[float, float, float, tuple, tuple]:
        fields, t_end, q0 = _anchor(params, model, _require_finite("c", c), u10)
        zeta0 = fields[5]
        pair = _pair(*_normalize_pair(fields[3], fields[4]), zeta0)
        qL, sigma = airy_scaled(t_end)
        wL, w0 = _z(pair, qL, sigma), _z(pair, q0, zeta0)
        turns = _half_turns(pair, qL, sigma, wL)
        n = turns - _half_turns(pair, q0, zeta0, w0)
        u1 = math.inf if n > 0 else _u1(wL, qL[4], two_nu_k)
        (zL, ztL), (z0, zt0) = wL, w0
        x = two_nu_k * ztL
        start = q0[4] * z0 * z0 - zt0 * zt0
        if sigma != zeta0:
            start *= math.exp(-2.0 * abs(sigma - zeta0))
        integral = (qL[4] * zL * zL - ztL * ztL) - start
        denominator = kappa_nu * (zL * zL + x * x)
        return (u1, n * math.pi - math.atan2(abs(zL), -x if turns % 2 else x),
                integral / denominator if denominator else math.nan, fields, q0)

    return shot


def find_poles(consts: SolutionConstants, s_lo: float, s_hi: float) -> list[float]:
    """All zeros of z in (s_lo, s_hi], ascending.

    The half-turn count at the ends gives how many there are, exactly for
    every finite t.  FlowDomainError refuses more than MAX_POLES of them,
    and a window reaching t = -2**35, where zeros lie closer than 4
    doubles of t (_window); each is then solved for as the root
    of an increasing residual by the safeguarded Newton iteration that
    solve_bvp also uses, to within 1e-12*(1+|s|) or a few doubles of t.
    exact_u1 raises PoleError at each returned location with |t| <= 30;
    further out the rounding of s and t alone moves the phase by more
    than POLE_RTOL (at |t| ~ 100 a third of the locations evaluate to a
    finite u1, at |t| ~ 1e3 almost all).  M**2 = Ai**2 + Bi**2 increases,
    so the phase is concave as well as increasing, and Newton started at
    the left end of each bracket (s_lo, then the previous zero) climbs to
    a zero on t <= 0 from below without overshooting.  The one zero on
    t > 0 (flat phase) is the root of the convex _ratio_residual, Newton
    from its asymptotic root s0 (clamped into the bracket), which past
    t = 9 it reaches in a few steps however far out.
    """
    s_lo, s_hi = float(s_lo), float(s_hi)
    if not s_lo < s_hi:
        raise ValueError(f"need s_lo < s_hi, got [{s_lo!r}, {s_hi!r}]")
    pair, q_lo, q_hi, below, last = _window(consts, s_lo, s_hi)
    first = below + 1
    if last - first >= MAX_POLES:
        raise FlowDomainError(f"z has {last - first + 1} zeros in ({s_lo!r}, {s_hi!r}], "
                              f"more than the {MAX_POLES} find_poles lists")
    if first > last:
        return []
    # the zeros up to the count at t = 0 lie on t <= 0
    q_0 = q_hi if q_hi[0][4] <= 0.0 else q_lo if q_lo[0][4] >= 0.0 else airy_scaled(0.0)
    on_negative = _half_turns(pair, *q_0)
    poles, lo = [], s_lo
    for k in range(first, last + 1):
        if k <= on_negative:
            lo = _newton_root(_zero_residual(consts, k), lo, s_hi, lo)
        else:  # on [t = 0, s_hi]
            f, s0 = _ratio_residual(consts)
            lo = max(lo, -consts.b / consts.a)
            lo = _newton_root(f, lo, s_hi, min(max(s0, lo), s_hi))
        poles.append(lo)
    return poles


def _nearest_pole(consts: SolutionConstants, s: float) -> float | None:
    """The zero at the half-turn nearest the phase at s, or on t > 0 the
    root of _ratio_residual (None if c1 c2 >= 0: z has none
    there), searched within the distance over which the residual moves by
    a quarter turn at its rate at s; None when the search does not
    converge."""
    try:
        q, sigma = airy_scaled(map_t(s, consts))
        if q[4] > 0.0 and consts.c1 * consts.c2 >= 0.0:
            return None
        n, delta = _phase(q, sigma, _pair(consts.c1, consts.c2, consts.zeta0)[3])
        f = (_ratio_residual(consts)[0] if q[4] > 0.0
             else _zero_residual(consts, round(delta / math.pi - 0.5) - 2 * n))
        half_width = 0.5 * math.pi / f(s)[1]
        lo, hi = s - half_width, s + half_width
        return _newton_root(f, lo, hi, 0.5 * (lo + hi))
    except NoConvergenceError:
        return None
