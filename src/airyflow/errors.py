"""Exception types shared across the package."""

from __future__ import annotations


class FlowDomainError(Exception):
    """Base class for domain errors: the inputs were valid numbers but the
    model or solution is undefined for them (maps to CLI exit code 1)."""


class ModelInvalidError(FlowDomainError):
    """The forcing balance gives a >= 0, or an a that is not a finite
    nonzero double; this package implements the closed form only for
    a < 0.  Carries the offending value."""

    def __init__(self, a: float, message: str | None = None):
        self.a = a
        super().__init__(message or f"model requires a < 0, got a = {a!r}")


class DegenerateModelError(ModelInvalidError):
    """grad_term == f1 exactly (a = 0): the equation degenerates to a
    different closed form that this package does not implement."""

    def __init__(self, a: float = 0.0):
        super().__init__(a, "degenerate model: grad_term == f1 gives a = 0")


class AiryOverflowError(FlowDomainError, OverflowError):
    """Bi'(t) would exceed the double range, which it leaves first, after
    t = 104.20871750754523 (Bi follows at t ~ 104.44).  Raised only by the
    public airy_eval; the solver reads airy_scaled, finite for every finite t."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"Bi' overflows double range at t = {t!r}")


class PoleError(FlowDomainError):
    """The denominator z(s) vanishes: the closed-form velocity diverges.

    ``nearest_pole`` is the refined zero location when one could be
    bracketed near the requested point, else None.
    """

    def __init__(self, s: float, nearest_pole: float | None = None):
        self.s = s
        self.nearest_pole = nearest_pole
        where = f" (nearest pole at s = {nearest_pole!r})" if nearest_pole is not None else ""
        super().__init__(f"denominator vanishes near s = {s!r}{where}")


class NoConvergenceError(FlowDomainError):
    """The safeguarded Newton iteration ran out of iterations before its
    step or bracket shrank to the stopping tolerance."""


class NoSignChangeError(FlowDomainError):
    """The root lies outside an explicit c bracket.  Carries the endpoint
    residuals u1(L) - u1L at its lower end and at the largest pole-free c
    shot; both are inf when the lower end is past the first pole crossing."""

    def __init__(self, residual_lo: float, residual_hi: float):
        self.residual_lo = residual_lo
        self.residual_hi = residual_hi
        super().__init__(
            "no sign change of the endpoint residual over the bracket "
            f"(residuals {residual_lo!r} .. {residual_hi!r})"
        )


class GridTooCoarseError(ValueError):
    """A finite-difference check needs at least 4 usable interior nodes."""


class GridDomainError(ValueError):
    """The requested grid leaves the solution's x-domain [0, L]."""
