"""Resolving the integration constants (c, c1, c2) from boundary data.

The closed form has exactly two degrees of freedom, the Riccati constant
c and the ratio c2/c1, so two well-posed modes are offered:

* IVP mode: u1(0) and u1'(0) fix c algebraically and then the ratio.
* BVP mode: u1(0) and u1(L) are enforced by shooting on c; u1'(0) is an
  output, recoverable from c = nu*u1'(0) - u1(0)**2/2.  The Pruefer angle
  n pi - arccot u1(L) (n poles in (0, L]) is continuous and increasing in
  c, so the root is unique, and Newton on the angle finds it from a sign
  bracket of the shots at the c bracket's two ends.  The SCAN_POINTS grid
  serves only the diagnostic count of candidates past the first pole
  crossing c*, made when it is read.  flow.shooter sets a solve up once;
  one shot at a given c then costs two Airy evaluations, both in flow: at
  t(0) for the pair, and at t(L) for u1(L), the angle and its slope.

Imposing all three conditions at once is generically unsatisfiable and
deliberately unsupported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .errors import FlowDomainError, NoSignChangeError, PoleError
from .flow import (FlowParams, SolutionConstants, _anchor, _model, _nearest_pole, _newton_root,
                   _require_derived, _require_finite, _u1_at, shooter)

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
    shots: int  # distinct c values shot by the solve, two Airy evaluations each
    count_excluded: Callable[[], int] = dataclasses.field(compare=False, repr=False)

    @cached_property
    def excluded_candidates(self) -> int:
        """Grid candidates at or past the first pole crossing, counted on first
        read by a binary search over the SCAN_POINTS grid (about 8 more shots)."""
        return self.count_excluded()


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
    first pole crossing c*.  Safeguarded Newton on A finds it in the sign
    bracket of the shots at c_lo and c_hi.  The default bracket doubles its
    width outward until it holds the root; an explicit one raises
    NoSignChangeError when the root lies outside it, with both residuals
    inf when c_lo is past c*.
    FlowDomainError when neither Newton's end nor a neighbouring double
    across which u1(L) is monotone meets u1(L) to ENDPOINT_RTOL (it jumps
    to +inf within rounding of c*) and u1(0) as in solve_ivp.  A shot is
    two Airy calls; SolutionConstants is built once, for the answer.
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

    def excluded() -> int:  # SCAN_POINTS - k, k the first candidate with a pole
        k, end = 0, SCAN_POINTS
        while k < end:
            mid = (k + end) // 2
            k, end = (k, mid) if shot(candidate(mid))[0] == math.inf else (mid + 1, end)
        return SCAN_POINTS - k

    shot(c_lo), shot(c_hi)
    # when both ends lie on one side of the root, the default bracket doubles
    # its width outward past it
    for side, c, far in ((1.0, c_lo, c_hi), (-1.0, c_hi, c_lo)):
        if all(side * s[1] > 0.0 for s in shots.values()):
            while side * shot(c)[1] > 0.0 and grow:
                c = _require_derived("c", c - (far - c))
    lo = max((c for c, s in shots.items() if s[1] <= 0.0), default=None)
    hi = min((c for c, s in shots.items() if s[1] >= 0.0), default=None)
    if lo is None or hi is None:  # at c_lo and the largest pole-free shot, c_lo if none is
        top = max((c for c, s in shots.items() if s[0] < math.inf), default=c_lo)
        raise NoSignChangeError(shots[c_lo][0] - u1L, shots[top][0] - u1L)

    def answer(c: float) -> BvpSolution:
        u1, _, _, fields, q0 = shot(c)
        if not abs(u1 - u1L) <= ENDPOINT_RTOL * (1.0 + abs(u1L)):
            raise FlowDomainError(f"no c reaches u1(L) = {u1L!r}: Newton ends at c = {c!r}, "
                                  f"where u1(L) = {u1!r}")
        consts = SolutionConstants(*fields)
        _check_u10(_u1_at(params, consts, q0, consts.zeta0), u10)
        return BvpSolution(constants=consts, c=c, initial_slope=(c + 0.5 * u10 * u10) / params.nu,
                           endpoint_residual=u1 - u1L, roots=(c,), shots=len(shots),
                           count_excluded=excluded)

    # Newton starts from the end nearer the root, whose shot it reuses
    c = _newton_root(lambda c: shot(c)[1:3], lo, hi, min((lo, hi), key=lambda c: abs(shots[c][1])))
    try:
        return answer(c)
    except FlowDomainError as err:
        # a neighbour x of Newton's end may meet both where the doubles resolve the root
        for x in (math.nextafter(c, -math.inf), math.nextafter(c, math.inf)):
            with contextlib.suppress(FlowDomainError):
                below, above = (shot(math.nextafter(x, y))[0] for y in (-math.inf, math.inf))
                if below <= shot(x)[0] <= above:
                    return answer(x)
        raise err
