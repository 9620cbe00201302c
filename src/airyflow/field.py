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
from .flow import FlowParams, SolutionConstants, _fmt, _riccati_rhs, exact_u1


class StreamlineFamily:
    """The streamlines phi1(s) = s, phi2(s; y0) = y0 + psi(s): the first
    two derivatives of psi, and the tangent slope phi2' = psi'.

    The constructors below make the two frozen subclasses; a straight
    family, psi(s) = slope * s, is the degree-1 polynomial.
    """

    @staticmethod
    def straight(slope: float) -> "StreamlineFamily":
        return PolynomialFamily((0.0, float(slope)))

    @staticmethod
    def sinusoidal(amplitude: float, wavenumber: float) -> "StreamlineFamily":
        return SinusoidalFamily(float(amplitude), float(wavenumber))

    @staticmethod
    def polynomial(coefficients) -> "StreamlineFamily":
        return PolynomialFamily(tuple(float(c) for c in coefficients))

    def phi2_dot(self, s: float) -> float:
        return self.psi_dot(s)


@dataclass(frozen=True)
class SinusoidalFamily(StreamlineFamily):
    """psi(s) = amplitude * sin(wavenumber * s)."""

    amplitude: float
    wavenumber: float

    def psi_dot(self, s: float) -> float:
        return self.amplitude * self.wavenumber * math.cos(self.wavenumber * s)

    def psi_ddot(self, s: float) -> float:
        w = self.wavenumber
        return -self.amplitude * w * w * math.sin(w * s)


@dataclass(frozen=True)
class PolynomialFamily(StreamlineFamily):
    """psi(s) = sum of coefficients[i] * s**i."""

    coefficients: tuple[float, ...]

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
    """u1(s), and u1'(s, u1) and u1''(s, u1) given u1 at s, as callables."""

    u1: Callable[[float], float]
    u1dot: Callable[[float, float], float]
    u1ddot: Callable[[float, float], float]

    @classmethod
    def from_solution(cls, params: FlowParams, consts: SolutionConstants) -> "FlowProfile":
        def u1(s: float) -> float:
            return exact_u1(s, params, consts)

        def u1dot(s: float, u: float) -> float:
            return _riccati_rhs(s, u, params, consts)

        def u1ddot(s: float, u: float) -> float:
            # differentiate the momentum balance: u1'' = (u1 u1' - f1 + grad)/nu
            return (u * u1dot(s, u) - params.f1 + params.grad_term) / params.nu

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

_SAMPLE_KEYS = ("s", "x", "y", "u1", "u2", "valid")  # also the CSV header


def emit(sampled: SampledField, fmt: str = "csv") -> bytes:
    if fmt == "csv":
        lines = [",".join(_SAMPLE_KEYS)]
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


def _finite_floats(values) -> bool:
    return {*map(type, values)} == {float} and all(map(math.isfinite, values))


def _sample(values: list) -> VelocitySample:
    """The sample of the values of _SAMPLE_KEYS in that order, or
    ValueError: s, x, y finite floats; valid a bool; u1, u2 finite floats
    where valid is true and None where it is false."""
    *numbers, valid = values
    if type(valid) is not bool:
        raise ValueError(f"valid must be true or false, got {valid!r}")
    if not valid:
        if numbers[3:] != [None, None]:
            raise ValueError(f"u1, u2 must be empty where valid is false, got {values!r}")
        numbers = numbers[:3]
    if not _finite_floats(numbers):
        raise ValueError(f"s, x, y, u1, u2 must be finite floats, got {values!r}")
    return VelocitySample(*values)


def parse(blob: bytes, fmt: str = "csv") -> SampledField:
    """Inverse of emit(); raises ValueError for any malformed document.
    The grid is JSON's grid block, or for CSV the span of the samples' x
    and y with one node per distinct value (xs() may round the last node
    away from the emitting grid's x_max).  In both formats sample k must lie
    strictly within half a step of that grid's row-major node k."""
    text = blob.decode("ascii")
    if fmt == "csv":
        lines = [ln for ln in text.split("\n") if ln]
        if not lines or lines[0] != ",".join(_SAMPLE_KEYS):
            raise ValueError("missing or malformed CSV header")
        samples = []
        for ln in lines[1:]:
            *cells, flag = ln.split(",")
            if len(cells) != 5:
                raise ValueError(f"a CSV row has 6 cells, got {ln!r}")
            numbers = [float(c) if c else None for c in cells]
            samples.append(_sample([*numbers, {"true": True, "false": False}.get(flag, flag)]))
        if not samples:
            raise ValueError("samples do not fill a full grid")
        xs, ys = {sm.x for sm in samples}, {sm.y for sm in samples}
        grid = GridSpec(x_min=min(xs), x_max=max(xs), y_min=min(ys), y_max=max(ys),
                        nx=len(xs), ny=len(ys))
    elif fmt == "json":
        doc = json.loads(text)
        if not (isinstance(doc, dict) and doc.keys() == {"grid", "samples"}
                and isinstance(doc["grid"], dict) and isinstance(doc["samples"], list)):
            raise ValueError("a JSON field is an object of a grid object and a samples list")
        for sm in doc["samples"]:
            if not isinstance(sm, dict) or sm.keys() != set(_SAMPLE_KEYS):
                raise ValueError(f"a sample has exactly the keys {_SAMPLE_KEYS}, got {sm!r}")
        samples = [_sample([sm[key] for key in _SAMPLE_KEYS]) for sm in doc["samples"]]
        spec = doc["grid"]
        if spec.keys() != {"x_min", "x_max", "y_min", "y_max", "nx", "ny"}:
            raise ValueError(f"the grid has exactly the keys of a GridSpec, got {spec!r}")
        if not _finite_floats([spec["x_min"], spec["x_max"], spec["y_min"], spec["y_max"]]):
            raise ValueError(f"the grid ranges must be finite floats, got {spec!r}")
        if type(spec["nx"]) is not int or type(spec["ny"]) is not int:
            raise ValueError(f"nx and ny must be ints, got {spec['nx']!r}, {spec['ny']!r}")
        grid = GridSpec(**spec)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if len(samples) != grid.nx * grid.ny:  # before listing a huge grid's nodes
        raise ValueError("samples do not fill a full grid")
    # sample k is emit's row-major node k (x varying fastest), with s == x
    xs, ys = grid.xs(), grid.ys()
    hx, hy = (xs[1] - xs[0]) / 2.0, (ys[1] - ys[0]) / 2.0
    if not all(
        sm.s == sm.x and abs(sm.x - xs[k % grid.nx]) < hx and abs(sm.y - ys[k // grid.nx]) < hy
        for k, sm in enumerate(samples)
    ):
        raise ValueError("samples do not fill a full grid")
    return SampledField(grid=grid, samples=tuple(samples))


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
