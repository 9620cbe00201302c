"""Resolving the integration constants (c, c1, c2) from boundary data.

The closed form has exactly two degrees of freedom, the Riccati constant
c and the ratio c2/c1, so two well-posed modes are offered:

* IVP mode: u1(0) and u1'(0) fix c algebraically and then the ratio.
* BVP mode: u1(0) and u1(L) are enforced by shooting on c; u1'(0) is an
  output, recoverable from c = nu*u1'(0) - u1(0)**2/2.  The Pruefer angle
  n pi - arccot u1(L) (n poles in (0, L]) is continuous and increasing in
  c, so the root is unique: a binary search over a SCAN_POINTS grid counts
  the candidates past the first pole crossing c*, and Newton on the angle
  refines the root.  flow.shooter sets a solve up once; one shot at a
  given c then costs two Airy evaluations, both in flow: at t(0) for the
  pair, and at t(L) for u1(L), the angle and its slope.

Imposing all three conditions at once is generically unsatisfiable and
deliberately unsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FlowDomainError, NoSignChangeError, PoleCrossingError, PoleError
from .flow import (
    FlowParams,
    SolutionConstants,
    _anchor,
    _model,
    _nearest_pole,
    _newton_root,
    _require_derived,
    _require_finite,
    _u1_at,
    shooter,
)

SCAN_POINTS = 256
ENDPOINT_RTOL = 1e-9
# an angle residual within its rounding, ANGLE_NOISE / (1 + |u1L|), counts as 0: by
# dA/du1 = 1/(1 + u1**2) u1(L) is then within ANGLE_NOISE (1 + |u1L|) of u1L
ANGLE_NOISE = 4.0 * math.ulp(math.pi)


@dataclass(frozen=True)
class InitialData:
    """Conditions at s = 0: u1(0) and u1'(0)."""

    u10: float
    u1dot0: float

    def __post_init__(self):
        object.__setattr__(self, "u10", _require_finite("u10", self.u10))
        object.__setattr__(self, "u1dot0", _require_finite("u1dot0", self.u1dot0))


def c_from_initial(u10: float, u1dot0: float, nu: float) -> float:
    """Solve the integrated Riccati equation at s = 0 for c:
    c = nu*u1'(0) - u1(0)**2/2."""
    if not nu > 0.0:
        raise ValueError(f"nu must be positive, got {nu!r}")
    return nu * u1dot0 - 0.5 * u10 * u10


def solve_ivp(data: InitialData, params: FlowParams) -> SolutionConstants:
    """Constants from u1(0) = u10 and u1'(0) = u1dot0.

    The result reproduces both conditions by construction, up to rounding:
    u1(0), read from the Airy values at t(0) the constants were built on (one
    Airy evaluation in all, flow._anchor as in constants_from_u0), raises
    PoleError in the pole band, as exact_u1(0) would, and FlowDomainError
    when it misses u10 by more than ENDPOINT_RTOL (1 + |u10|).
    """
    c = _require_derived("c", c_from_initial(data.u10, data.u1dot0, params.nu))
    fields, _, q0 = _anchor(params, _model(params), c, data.u10)
    consts = SolutionConstants(*fields)
    u1 = _u1_at(params, consts, q0, consts.zeta0)
    if u1 == math.inf:
        raise PoleError(0.0, nearest_pole=_nearest_pole(consts, 0.0))
    _check_u10(u1, data.u10)
    return consts


def _check_u10(u1: float, u10: float) -> None:
    """Constants whose u1(0) misses u10 (rounding multiplied by 2 nu (-a)**(1/3)) are no answer."""
    if not abs(u1 - u10) <= ENDPOINT_RTOL * (1.0 + abs(u10)):
        raise FlowDomainError(f"the constants miss u1(0) = {u10!r}: they give {u1!r}")


@dataclass(frozen=True)
class BvpSolution:
    """Shooting result: selected constants plus the root diagnostics."""

    constants: SolutionConstants
    c: float
    initial_slope: float  # u1'(0) implied by c and u10
    endpoint_residual: float
    roots: tuple[float, ...]  # the one pole-free root, (c,)
    excluded_candidates: int  # grid candidates at or past the first pole crossing
    shots: int  # distinct c values shot, two Airy evaluations each


def default_c_bracket(u10: float, u1L: float, nu: float) -> tuple[float, float]:
    """c scales like a velocity squared, so bracket by the boundary data."""
    v = max(abs(u10), abs(u1L), 1.0)
    half = _require_derived("default c bracket half-width", 10.0 * nu * v * v)
    return -half, half


def solve_bvp(
    u10: float,
    u1L: float,
    params: FlowParams,
    c_bracket: tuple[float, float] | None = None,
) -> BvpSolution:
    """Find c such that the solution with u1(0) = u10 reaches u1(L) = u1L.

    With u1(0) fixed, the angle A(c) of flow.shooter is continuous and
    strictly increasing, so A(c) = -arccot(u1L) has one root, below the
    first pole crossing c*.  A binary search over SCAN_POINTS grid
    candidates counts those with a pole in (0, L] (excluded); safeguarded
    Newton on A refines the root between the nearest shots on either side.
    The default bracket doubles its width outward until it holds the root;
    an explicit one raises PoleCrossingError when every candidate is
    excluded and NoSignChangeError when the root lies outside it.  A root
    no double reaches to ENDPOINT_RTOL (u1(L) jumps to +inf within rounding
    of c*) raises FlowDomainError, as do constants whose u1(0), read from
    the last shot, misses u10 as in solve_ivp.  Deterministic; a shot is
    two Airy calls, one at t(0) and one at t(L), and SolutionConstants is
    built once, for the answer.
    """
    u10, u1L = _require_finite("u10", u10), _require_finite("u1L", u1L)
    grow = c_bracket is None
    c_bracket = default_c_bracket(u10, u1L, params.nu) if grow else c_bracket
    c_lo, c_hi = (_require_finite("c_lo", c_bracket[0]), _require_finite("c_hi", c_bracket[1]))
    if not c_lo < c_hi:
        raise ValueError(f"need c_lo < c_hi, got ({c_lo!r}, {c_hi!r})")
    _require_derived("c grid span (c_hi - c_lo) * 255", (c_hi - c_lo) * (SCAN_POINTS - 1))
    shoot, shots = shooter(params, u10), {}
    target, noise = -math.atan2(1.0, u1L), ANGLE_NOISE / (1.0 + abs(u1L))

    def shot(c: float) -> tuple:
        """u1(L), A - target (0 within noise), dA/dc, the constants' fields and
        the Airy values at t(0) for c; each c is shot once.  A finite u1(L) (n = 0)
        gives A - target as one atan2 of arccot u1L - arccot u1(L): A resolves u1(L)
        only to u1L**2 ulp(pi)."""
        if c not in shots:
            u1, angle, slope, fields, q0 = shoot(c)
            r = angle - target if u1 == math.inf else math.atan2(u1 - u1L, 1.0 + u1 * u1L)
            shots[c] = u1, 0.0 if abs(r) <= noise else r, slope, fields, q0
        return shots[c]

    def candidate(i: int) -> float:
        return c_lo + (c_hi - c_lo) * i / (SCAN_POINTS - 1)

    # binary search for k, the first candidate with a pole in (0, L]
    k, end = 0, SCAN_POINTS
    while k < end:
        mid = (k + end) // 2
        k, end = (k, mid) if shot(candidate(mid))[0] == math.inf else (mid + 1, end)
    if k == 0 and not grow:
        raise PoleCrossingError(SCAN_POINTS)

    # when every shot lies on one side of the root, shoot the bracket's end
    # there; the default bracket doubles its width outward past the root
    for side, c, far in ((1.0, c_lo, c_hi), (-1.0, candidate(SCAN_POINTS - 1), c_lo)):
        if all(side * s[1] > 0.0 for s in shots.values()):
            while side * shot(c)[1] > 0.0 and grow:
                c = _require_derived("c", c - (far - c))
    lo = max((c for c, s in shots.items() if s[1] <= 0.0), default=None)
    hi = min((c for c, s in shots.items() if s[1] >= 0.0), default=None)
    if lo is None or hi is None:
        raise NoSignChangeError(shot(c_lo)[0] - u1L, shot(candidate(k - 1))[0] - u1L)

    # Newton starts from the end nearer the root, whose shot it reuses
    c = _newton_root(lambda c: shot(c)[1:3], lo, hi, min((lo, hi), key=lambda c: abs(shots[c][1])))
    u1, _, _, fields, q0 = shot(c)
    if not abs(u1 - u1L) <= ENDPOINT_RTOL * (1.0 + abs(u1L)):
        raise FlowDomainError(f"no c reaches u1(L) = {u1L!r}: Newton ends at c = {c!r}, "
                              f"where u1(L) = {u1!r}")
    consts = SolutionConstants(*fields)
    _check_u10(_u1_at(params, consts, q0, consts.zeta0), u10)
    return BvpSolution(constants=consts, c=c, initial_slope=(c + 0.5 * u10 * u10) / params.nu,
                       endpoint_residual=u1 - u1L, roots=(c,), excluded_candidates=SCAN_POINTS - k,
                       shots=len(shots))
