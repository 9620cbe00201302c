"""Closed-form velocity profiles along streamlines via Airy functions.

The along-streamline momentum balance reduces to a Riccati equation
whose solution is a rational combination of Airy functions.  This
package evaluates the Airy quartet from scratch, resolves the
integration constants from initial or boundary data, reconstructs 2D
velocity fields over streamline families, and re-derives every claim
with independent numerical oracles (RK4 integration, finite
differences).
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
from .field import (
    FlowProfile,
    GridSpec,
    SampledField,
    StreamlineFamily,
    VelocitySample,
    emit,
    gnuplot_script,
    parse,
    reconstruct_field,
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
# the oracle suite needs numpy, so its names load on first use (PEP 562)
_VERIFY_NAMES = frozenset({
    "CheckResult",
    "Trajectory",
    "VerificationReport",
    "check_prop1",
    "check_prop2_prop3",
    "continuity_bracket",
    "integrate_riccati",
    "integrate_second_order",
    "random_flow_case",
    "run_verification",
})


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AiryQuartet",
    "AiryOverflowError",
    "BvpSolution",
    "CheckResult",
    "DegenerateModelError",
    "FlowDomainError",
    "FlowParams",
    "FlowProfile",
    "GridDomainError",
    "GridSpec",
    "GridTooCoarseError",
    "InitialData",
    "ModelInvalidError",
    "NoConvergenceError",
    "NoSignChangeError",
    "PoleCrossingError",
    "PoleError",
    "SampledField",
    "SolutionConstants",
    "StreamlineFamily",
    "Trajectory",
    "VelocitySample",
    "VerificationReport",
    "airy_eval",
    "c_from_initial",
    "check_prop1",
    "check_prop2_prop3",
    "constants_from_u0",
    "continuity_bracket",
    "default_c_bracket",
    "derive_constants",
    "emit",
    "exact_u1",
    "exact_u1_derivative",
    "find_poles",
    "gnuplot_script",
    "integrate_riccati",
    "integrate_second_order",
    "map_t",
    "parse",
    "random_flow_case",
    "reconstruct_field",
    "run_verification",
    "solve_bvp",
    "solve_ivp",
]
