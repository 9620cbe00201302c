"""Resolving the integration constants (c, c1, c2) from boundary data.

The closed form has exactly two degrees of freedom, the Riccati constant
c and the ratio c2/c1, so two well-posed modes are offered:

* IVP mode: u1(0) and u1'(0) fix c algebraically and then the ratio.
* BVP mode: u1(0) and u1(L) are enforced by shooting on c; u1'(0) is an
  output, recoverable from c = nu*u1'(0) - u1(0)**2/2.  u1(L) increases
  strictly in c up to the first pole crossing c*, so the root is unique:
  a binary search over a SCAN_POINTS grid locates c*, and Newton with
  the closed-form slope du1(L)/dc refines the root below it.  One shot
  at a given c costs two Airy evaluations, both in flow: at t(0) for
  constants_from_u0, and at t(L) for endpoint_u1 (the pole count on
  (0, L] and u1(L)) or endpoint_slope (u1(L) and its slope).

Imposing all three conditions at once is generically unsatisfiable and
deliberately unsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoSignChangeError, PoleCrossingError, PoleError
from .flow import (
    FlowParams,
    SolutionConstants,
    _nearest_pole,
    _newton_root,
    _require_derived,
    _require_finite,
    _u1_at,
    constants_from_u0,
    endpoint_slope,
    endpoint_u1,
)

SCAN_POINTS = 256
ENDPOINT_RTOL = 1e-9


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

    The result reproduces both conditions by construction.  A z(0) in the
    pole band raises PoleError here, as exact_u1(0) would, read from the
    quartet the constants were built on: one Airy evaluation in all.
    """
    c = _require_derived("c", c_from_initial(data.u10, data.u1dot0, params.nu))
    consts, q0 = constants_from_u0(params, c, data.u10)
    if _u1_at(params, consts, q0, consts.zeta0) == math.inf:
        raise PoleError(0.0, nearest_pole=_nearest_pole(consts, 0.0))
    return consts


@dataclass(frozen=True)
class BvpSolution:
    """Shooting result: selected constants plus the root diagnostics."""

    constants: SolutionConstants
    c: float
    initial_slope: float  # u1'(0) implied by c and u10
    endpoint_residual: float
    roots: tuple[float, ...]  # the one pole-free root, (c,)
    excluded_candidates: int  # grid candidates at or past the first pole crossing


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

    With u1(0) fixed, u1(L) strictly increases in c on the pole-free set
    c < c* (comparison theorem; blow-up is always to +infinity), so there
    is at most one root.  A binary search over SCAN_POINTS grid candidates
    finds the first one whose z vanishes in (0, L]; it and every later
    candidate are excluded.  Safeguarded Newton then refines the root on
    the pole-free candidates; each candidate or iterate is one shot of
    two Airy evaluations.  Raises NoSignChangeError when they hold no
    root (also when the root lies between the last of them and c*) and
    PoleCrossingError when every candidate is excluded.  Deterministic.
    """
    u10 = _require_finite("u10", u10)
    u1L = _require_finite("u1L", u1L)
    if c_bracket is None:
        c_bracket = default_c_bracket(u10, u1L, params.nu)
    c_lo, c_hi = (_require_finite("c_lo", c_bracket[0]), _require_finite("c_hi", c_bracket[1]))
    if not c_lo < c_hi:
        raise ValueError(f"need c_lo < c_hi, got ({c_lo!r}, {c_hi!r})")
    _require_derived("c grid span (c_hi - c_lo) * 255", (c_hi - c_lo) * (SCAN_POINTS - 1))

    def shot(c: float) -> tuple[SolutionConstants, float]:
        """Constants for c with u1(0) = u10, and u1(L) - u1L, +inf when z
        vanishes in (0, L]."""
        consts, q0 = constants_from_u0(params, c, u10)
        return consts, endpoint_u1(params, consts, q0) - u1L

    def residual_and_slope(c: float) -> tuple[float, float]:
        u1_end, slope = endpoint_slope(params, *constants_from_u0(params, c, u10))
        return u1_end - u1L, slope

    def candidate(i: int) -> float:
        return c_lo + (c_hi - c_lo) * i / (SCAN_POINTS - 1)

    # binary search for k, the first unusable candidate; k only moves past
    # a candidate it evaluated, so r_last is the residual at k - 1
    k, end, r_last = 0, SCAN_POINTS, -1.0
    while k < end:
        mid = (k + end) // 2
        r = shot(candidate(mid))[1]
        if r == math.inf:
            end = mid
        else:
            k, r_last = mid + 1, r
    if k == 0:
        raise PoleCrossingError(SCAN_POINTS)

    if r_last >= 0.0:  # else u1(L) < u1L on every usable candidate
        lo, hi = c_lo, candidate(k - 1)
        c = _newton_root(residual_and_slope, lo, hi, 0.5 * (lo + hi))
        consts, r = shot(c)
        if abs(r) <= ENDPOINT_RTOL * (1.0 + abs(u1L)):
            return BvpSolution(
                constants=consts,
                c=c,
                initial_slope=(c + 0.5 * u10 * u10) / params.nu,
                endpoint_residual=r,
                roots=(c,),
                excluded_candidates=SCAN_POINTS - k,
            )
    raise NoSignChangeError(shot(candidate(0))[1], r_last)

