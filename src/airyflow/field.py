"""Streamline families, 2D field reconstruction, and serialization.

Families are vertical translates: phi1(s) = s and phi2(s; y0) = y0 +
psi(s), so the inverse map is simply g(x, y) = x.  The cross-stream
velocity follows the streamline tangent, u2 = phi2' * u1, and all
streamlines share one closed form, so u1 and u2 depend on x alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

from .errors import GridDomainError, PoleError
from .flow import FlowParams, SolutionConstants, exact_u1, exact_u1_derivative


class StreamlineFamily:
    """Analytic description of phi2(s; y0) = y0 + psi(s) and derivatives.

    Each shape of psi is its own frozen subclass, made by the
    constructors below; phi1(s) = s for every family here.
    """

    @staticmethod
    def straight(slope: float) -> "StreamlineFamily":
        return StraightFamily(float(slope))

    @staticmethod
    def sinusoidal(amplitude: float, wavenumber: float) -> "StreamlineFamily":
        return SinusoidalFamily(float(amplitude), float(wavenumber))

    @staticmethod
    def polynomial(coefficients) -> "StreamlineFamily":
        return PolynomialFamily(tuple(float(c) for c in coefficients))

    def phi1_dot(self, s: float) -> float:
        return 1.0

    def phi1_ddot(self, s: float) -> float:
        return 0.0

    def phi2(self, s: float, y0: float) -> float:
        return y0 + self.psi(s)

    def phi2_dot(self, s: float) -> float:
        return self.psi_dot(s)

    def phi2_ddot(self, s: float) -> float:
        return self.psi_ddot(s)


@dataclass(frozen=True)
class StraightFamily(StreamlineFamily):
    """psi(s) = slope * s."""

    slope: float

    def psi(self, s: float) -> float:
        return self.slope * s

    def psi_dot(self, s: float) -> float:
        return self.slope

    def psi_ddot(self, s: float) -> float:
        return 0.0


@dataclass(frozen=True)
class SinusoidalFamily(StreamlineFamily):
    """psi(s) = amplitude * sin(wavenumber * s)."""

    amplitude: float
    wavenumber: float

    def psi(self, s: float) -> float:
        return self.amplitude * math.sin(self.wavenumber * s)

    def psi_dot(self, s: float) -> float:
        return self.amplitude * self.wavenumber * math.cos(self.wavenumber * s)

    def psi_ddot(self, s: float) -> float:
        w = self.wavenumber
        return -self.amplitude * w * w * math.sin(w * s)


@dataclass(frozen=True)
class PolynomialFamily(StreamlineFamily):
    """psi(s) = sum of coefficients[i] * s**i."""

    coefficients: tuple[float, ...]

    def psi(self, s: float) -> float:
        acc = 0.0
        for coef in reversed(self.coefficients):
            acc = acc * s + coef
        return acc

    def psi_dot(self, s: float) -> float:
        acc = 0.0
        for i in range(len(self.coefficients) - 1, 0, -1):
            acc = acc * s + i * self.coefficients[i]
        return acc

    def psi_ddot(self, s: float) -> float:
        acc = 0.0
        for i in range(len(self.coefficients) - 1, 1, -1):
            acc = acc * s + i * (i - 1) * self.coefficients[i]
        return acc


@dataclass(frozen=True)
class FlowProfile:
    """u1 and its first two derivatives along s, as callables."""

    u1: Callable[[float], float]
    u1dot: Callable[[float], float]
    u1ddot: Callable[[float], float]

    @classmethod
    def from_solution(cls, params: FlowParams, consts: SolutionConstants) -> "FlowProfile":
        def u1(s: float) -> float:
            return exact_u1(s, params, consts)

        def u1dot(s: float) -> float:
            return exact_u1_derivative(s, params, consts)

        def u1ddot(s: float) -> float:
            # differentiate the momentum balance: u1'' = (u1 u1' - f1 + grad)/nu
            return (u1(s) * u1dot(s) - params.f1 + params.grad_term) / params.nu

        return cls(u1=u1, u1dot=u1dot, u1ddot=u1ddot)


@dataclass(frozen=True)
class VelocitySample:
    """One reconstructed point; u1/u2 are None when the point sits on a
    pole of the closed form (valid = False)."""

    s: float
    x: float
    y: float
    u1: float | None
    u2: float | None
    valid: bool = True


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"need nx, ny >= 2, got ({self.nx}, {self.ny})")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid ranges must be increasing")

    def xs(self) -> list[float]:
        dx = (self.x_max - self.x_min) / (self.nx - 1)
        return [self.x_min + i * dx for i in range(self.nx)]

    def ys(self) -> list[float]:
        dy = (self.y_max - self.y_min) / (self.ny - 1)
        return [self.y_min + j * dy for j in range(self.ny)]


@dataclass(frozen=True)
class SampledField:
    """Row-major samples (y rows, x varying fastest) over a GridSpec.

    The provenance fields (family, profile, and pressure_affine, the
    (q0, qdot) of an affine pressure p = q0 + qdot x) feed the
    finite-difference checks and are not serialized.
    """

    grid: GridSpec
    samples: tuple[VelocitySample, ...]
    family: StreamlineFamily | None = None
    profile: FlowProfile | None = None
    pressure_affine: tuple[float, float] | None = None


def reconstruct_field(
    family: StreamlineFamily,
    params: FlowParams,
    consts: SolutionConstants,
    grid: GridSpec,
    pressure: tuple[float, float] | None = None,
) -> SampledField:
    """Sample the 2D velocity field on the grid, evaluating u1 and
    u2 = phi2'(x) * u1 once per column.  A column on a pole is flagged
    invalid rather than failing the whole reconstruction.
    """
    if grid.x_min < 0.0 or grid.x_max > params.length:
        raise GridDomainError(
            f"grid x-range [{grid.x_min!r}, {grid.x_max!r}] leaves [0, {params.length!r}]"
        )
    columns = []  # (x, u1, u2, valid) per column
    for x in grid.xs():
        try:
            u1 = exact_u1(x, params, consts)
        except PoleError:
            columns.append((x, None, None, False))
        else:
            columns.append((x, u1, family.phi2_dot(x) * u1, True))
    samples = tuple(
        VelocitySample(s=x, x=x, y=y, u1=u1, u2=u2, valid=valid)
        for y in grid.ys() for x, u1, u2, valid in columns
    )
    return SampledField(
        grid=grid,
        samples=samples,
        family=family,
        profile=FlowProfile.from_solution(params, consts),
        pressure_affine=pressure,
    )


# ---------------------------------------------------------------------------
# Serialization.  CSV columns are exactly s,x,y,u1,u2,valid with
# 17-significant-digit floats and LF endings; JSON carries the grid spec
# plus the same sample fields.  Both round-trip byte-exactly through
# parse().

def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit(sampled: SampledField, fmt: str = "csv") -> bytes:
    if fmt == "csv":
        lines = ["s,x,y,u1,u2,valid"]
        for sm in sampled.samples:
            if sm.valid:
                lines.append(
                    f"{_fmt(sm.s)},{_fmt(sm.x)},{_fmt(sm.y)},{_fmt(sm.u1)},{_fmt(sm.u2)},true"
                )
            else:
                lines.append(f"{_fmt(sm.s)},{_fmt(sm.x)},{_fmt(sm.y)},,,false")
        return ("\n".join(lines) + "\n").encode("ascii")
    if fmt == "json":
        # vars() lists a sample's fields in declaration order, as asdict()
        # does, without asdict's recursive copy
        doc = {"grid": asdict(sampled.grid), "samples": [vars(sm) for sm in sampled.samples]}
        return (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def parse(blob: bytes, fmt: str = "csv") -> SampledField:
    """Inverse of emit().  CSV carries no grid block, so the grid spec is
    inferred from the sample coordinates (exact for emitted files)."""
    text = blob.decode("ascii")
    if fmt == "csv":
        lines = [ln for ln in text.split("\n") if ln]
        if not lines or lines[0] != "s,x,y,u1,u2,valid":
            raise ValueError("missing or malformed CSV header")
        samples = []
        for ln in lines[1:]:
            s_, x_, y_, u1_, u2_, valid_ = ln.split(",")
            if valid_ not in ("true", "false"):
                raise ValueError(f"bad valid flag {valid_!r}")
            valid = valid_ == "true"
            samples.append(
                VelocitySample(
                    s=float(s_), x=float(x_), y=float(y_),
                    u1=float(u1_) if valid else None, u2=float(u2_) if valid else None,
                    valid=valid,
                )
            )
        xs = sorted({sm.x for sm in samples})
        ys = sorted({sm.y for sm in samples})
        grid = GridSpec(
            x_min=xs[0], x_max=xs[-1], y_min=ys[0], y_max=ys[-1],
            nx=len(xs), ny=len(ys),
        )
        if grid.nx * grid.ny != len(samples):
            raise ValueError("samples do not fill a full grid")
        return SampledField(grid=grid, samples=tuple(samples))
    if fmt == "json":
        doc = json.loads(text)
        samples = tuple(VelocitySample(**sm) for sm in doc["samples"])
        return SampledField(grid=GridSpec(**doc["grid"]), samples=samples)
    raise ValueError(f"unknown format {fmt!r}")


GNUPLOT_TEMPLATE = """\
# gnuplot script (best effort): vector plot of the sampled field
set datafile separator ','
set key off
set xlabel 'x'
set ylabel 'y'
plot '{csv}' every ::1 using 2:3:($4*{scale}):($5*{scale}) with vectors head filled
"""


def gnuplot_script(csv_path: str) -> str:
    """A small gnuplot script that renders the emitted CSV as vectors
    drawn at 0.05 of the velocity."""
    return GNUPLOT_TEMPLATE.format(csv=csv_path, scale=_fmt(0.05))
