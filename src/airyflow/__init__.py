"""Closed-form velocity profiles along streamlines via Airy functions.

The along-streamline momentum balance reduces to a Riccati equation
whose solution is a rational combination of Airy functions.  This
package evaluates the Airy quartet from scratch, resolves the
integration constants from initial or boundary data, reconstructs 2D
velocity fields over streamline families, and re-derives every claim
with independent numerical oracles (RK4 integration, finite
differences) in `airyflow.verify`, which the root does not re-export.
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
    "VelocitySample",
    "airy_eval",
    "c_from_initial",
    "constants_from_u0",
    "default_c_bracket",
    "derive_constants",
    "emit",
    "exact_u1",
    "exact_u1_derivative",
    "find_poles",
    "gnuplot_script",
    "map_t",
    "parse",
    "reconstruct_field",
    "solve_bvp",
    "solve_ivp",
]

# PEP 562: the field layer loads on first use.  Only the field and verify
# commands need it; field.py, json and seven dataclasses add about 8-9 ms
# to a ~73 ms `airyflow bvp` launch.
_FIELD_NAMES = ("FlowProfile", "GridSpec", "SampledField", "StreamlineFamily",
                "VelocitySample", "emit", "gnuplot_script", "parse", "reconstruct_field")


def __getattr__(name: str):
    if name != "field" and name not in _FIELD_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # `from . import field` would look `field` up here first

    field = importlib.import_module(f"{__name__}.field")
    globals().update((n, getattr(field, n)) for n in _FIELD_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), "field", *_FIELD_NAMES})
