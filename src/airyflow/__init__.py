"""Closed-form velocity profiles along streamlines via Airy functions.

The along-streamline momentum balance reduces to a Riccati equation
whose solution is a rational combination of Airy functions.  This
package evaluates the Airy quartet from scratch, resolves the
integration constants from initial or boundary data, reconstructs 2D
velocity fields over streamline families in `airyflow.field`, and
re-derives every claim with independent numerical oracles (RK4, finite
differences) in `airyflow.verify`; the root re-exports neither.
"""

from .airy import AiryQuartet, airy_eval
from .bvp import (
    BvpSolution,
    InitialData,
    c_from_initial,
    default_c_bracket,
    solve_bvp,
    solve_ivp,
)
from .errors import (
    AiryOverflowError,
    DegenerateModelError,
    FlowDomainError,
    GridDomainError,
    GridTooCoarseError,
    ModelInvalidError,
    NoConvergenceError,
    NoSignChangeError,
    PoleCrossingError,
    PoleError,
)
from .flow import (
    FlowParams,
    SolutionConstants,
    constants_from_u0,
    derive_constants,
    exact_u1,
    exact_u1_derivative,
    find_poles,
    map_t,
)

__version__ = "0.1.0"

__all__ = [
    "AiryQuartet",
    "AiryOverflowError",
    "BvpSolution",
    "DegenerateModelError",
    "FlowDomainError",
    "FlowParams",
    "GridDomainError",
    "GridTooCoarseError",
    "InitialData",
    "ModelInvalidError",
    "NoConvergenceError",
    "NoSignChangeError",
    "PoleCrossingError",
    "PoleError",
    "SolutionConstants",
    "airy_eval",
    "c_from_initial",
    "constants_from_u0",
    "default_c_bracket",
    "derive_constants",
    "exact_u1",
    "exact_u1_derivative",
    "find_poles",
    "map_t",
    "solve_bvp",
    "solve_ivp",
]
