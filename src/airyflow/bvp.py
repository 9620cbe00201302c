"""Resolving the integration constants (c, c1, c2) from boundary data.

The closed form has exactly two degrees of freedom, the Riccati constant
c and the ratio c2/c1, so two well-posed modes are offered:

* IVP mode: u1(0) and u1'(0) fix c algebraically and then the ratio.
* BVP mode: u1(0) and u1(L) are enforced by shooting on c; u1'(0) is an
  output, recoverable from c = nu*u1'(0) - u1(0)**2/2.  u1(L) increases
  strictly in c up to the first pole crossing c*, so the root is unique:
  a binary search over a SCAN_POINTS grid locates c*, and Newton with
  the closed-form slope du1(L)/dc refines the root below it.  One shot
  at a given c costs two Airy evaluations, at t(0) and t(L): (c1, c2),
  the pole count on (0, L], u1(L) and its slope all come from those two
  quartets.

Imposing all three conditions at once is generically unsatisfiable and
deliberately unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .airy import AiryQuartet, airy_eval
from .errors import (
    DegenerateCoefficientsError,
    NoSignChangeError,
    PoleCrossingError,
    PoleError,
)
from .flow import (
    FlowParams,
    SolutionConstants,
    _half_turns,
    _newton_root,
    _normalize_pair,
    _require_finite,
    _u1_at,
    derive_constants,
    map_t,
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


def coefficients_from_u0(
    u10: float, params: FlowParams, consts_with_c: SolutionConstants
) -> tuple[float, float]:
    """Normalized (c1, c2) enforcing u1(0) = u10.

    The condition is one homogeneous linear equation in (c1, c2):
        c1*[-2 nu k Ai'(t0) - u10 Ai(t0)] + c2*[-2 nu k Bi'(t0) - u10 Bi(t0)] = 0
    with k = (-a)**(1/3) and t0 = t(0); the returned pair is the
    orthogonal-complement solution, normalized per SolutionConstants.
    """
    return _coefficients_at(u10, params, consts_with_c, airy_eval(map_t(0.0, consts_with_c)))


def _coefficients_at(
    u10: float, params: FlowParams, consts_with_c: SolutionConstants, q: AiryQuartet
) -> tuple[float, float]:
    """coefficients_from_u0 from the quartet q at t(0)."""
    kappa = (-consts_with_c.a) ** (1.0 / 3.0)
    two_nu_k = 2.0 * params.nu * kappa
    bracket_ai = -two_nu_k * q.ai_prime - u10 * q.ai
    bracket_bi = -two_nu_k * q.bi_prime - u10 * q.bi
    if max(abs(bracket_ai), abs(bracket_bi)) < 1e-300:
        raise DegenerateCoefficientsError(
            "both coefficient brackets vanished; data is not finite-representable"
        )
    return _normalize_pair(-bracket_bi, bracket_ai)


def solve_ivp(data: InitialData, params: FlowParams) -> SolutionConstants:
    """Constants from u1(0) = u10 and u1'(0) = u1dot0.

    The result reproduces both conditions by construction; evaluation at
    the origin is performed once so a degenerate z(0) surfaces here
    rather than later.
    """
    c = c_from_initial(data.u10, data.u1dot0, params.nu)
    consts, q0 = _constants_from_u0(params, c, data.u10)
    _u1_at(0.0, params, consts, q0)  # raises PoleError on a degenerate origin
    return consts


def _constants_from_u0(
    params: FlowParams, c: float, u10: float
) -> tuple[SolutionConstants, AiryQuartet]:
    """Constants for c with u1(0) = u10, and the quartet at t(0)."""
    partial = derive_constants(params, c)
    q0 = airy_eval(map_t(0.0, partial))
    return partial.with_coefficients(*_coefficients_at(u10, params, partial, q0)), q0


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
    half = 10.0 * nu * v * v
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
    c_lo, c_hi = (float(c_bracket[0]), float(c_bracket[1]))
    if not c_lo < c_hi:
        raise ValueError(f"need c_lo < c_hi, got ({c_lo!r}, {c_hi!r})")
    length = params.length

    def shot(c: float) -> tuple[SolutionConstants, AiryQuartet, AiryQuartet]:
        """Constants for c with u1(0) = u10, and the quartets at t(0), t(L)."""
        consts, q0 = _constants_from_u0(params, c, u10)
        return consts, q0, airy_eval(map_t(length, consts))

    def residual(consts, q0, qL) -> float | None:
        """Endpoint mismatch, or None when the shot has no usable endpoint
        (pole inside (0, L) or at L)."""
        if _half_turns(consts, qL) > _half_turns(consts, q0):
            return None
        try:
            return _u1_at(length, params, consts, qL) - u1L
        except PoleError:
            return None

    def candidate(i: int) -> float:
        return c_lo + (c_hi - c_lo) * i / (SCAN_POINTS - 1)

    # binary search for k, the first unusable candidate; k only moves past
    # a candidate it evaluated, so r_last is the residual at k - 1
    k, end, r_last = 0, SCAN_POINTS, -1.0
    while k < end:
        mid = (k + end) // 2
        r = residual(*shot(candidate(mid)))
        if r is None:
            end = mid
        else:
            k, r_last = mid + 1, r
    if k == 0:
        raise PoleCrossingError(SCAN_POINTS)

    if r_last >= 0.0:  # else u1(L) < u1L on every usable candidate
        lo, hi = c_lo, candidate(k - 1)
        c = _newton_root(
            lambda c: _residual_and_slope(*shot(c), params, u1L), lo, hi, 0.5 * (lo + hi)
        )
        found = shot(c)
        r = residual(*found)
        if r is not None and abs(r) <= ENDPOINT_RTOL * (1.0 + abs(u1L)):
            return BvpSolution(
                constants=found[0],
                c=c,
                initial_slope=(c + 0.5 * u10 * u10) / params.nu,
                endpoint_residual=r,
                roots=(c,),
                excluded_candidates=SCAN_POINTS - k,
            )
    raise NoSignChangeError(residual(*shot(candidate(0))), r_last)


def _residual_and_slope(
    consts: SolutionConstants,
    q0: AiryQuartet,
    qL: AiryQuartet,
    params: FlowParams,
    u1L: float,
) -> tuple[float, float]:
    """u1(L) - u1L and its derivative in c at fixed u1(0), from the
    quartets q0 and qL at t(0) and t(L).

    v = du1/dc solves v' = (u1/nu) v + 1/nu with v(0) = 0, so
    v(L) = int_0^L z**2 ds / (nu z(L)**2); with dt/ds = kappa and the
    Airy integral int w**2 dt = t w**2 - w_t**2 (DLMF 9.11) this is
    [t z**2 - z_t**2] from t(0) to t(L), over kappa nu z(L)**2.
    """
    kappa = (-consts.a) ** (1.0 / 3.0)
    c1, c2 = consts.c1, consts.c2
    z0, zt0 = c1 * q0.ai + c2 * q0.bi, c1 * q0.ai_prime + c2 * q0.bi_prime
    zL, ztL = c1 * qL.ai + c2 * qL.bi, c1 * qL.ai_prime + c2 * qL.bi_prime
    integral = (qL.t * zL * zL - ztL * ztL) - (q0.t * z0 * z0 - zt0 * zt0)
    return -2.0 * params.nu * kappa * ztL / zL - u1L, integral / (kappa * params.nu * zL * zL)

