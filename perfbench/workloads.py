"""Seeded inputs, timed items and output checks for the four workloads.

Each workload is a list of items built from the benchmark seed.  An item's
``run()`` is the timed call into the library; ``check(output)`` verifies
that output outside the timed region and returns None when it is correct
or a one-line reason when it is not; ``corrupt(output)`` returns a
deliberately wrong copy that ``check`` must reject (the self-test).

Items reach the library only through module attributes (``bvp.solve_bvp``
and so on), so the traced run sees every call after it rebinds those names.

Every build function gets two generators.  ``base`` is the same for every seed:
it draws what sets an item's cost (the flow case, the grid shape, the pole
columns), Latin-hypercube stratified so each parameter range is covered
evenly.  ``rng`` comes from the seed: it moves each input a little, draws
the parts that do not move the cost, and shuffles the order.  A fresh draw
per seed moved the median item of a list by up to a third, so this keeps
the timings of one seed comparable with the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cache, cached_property

from airyflow import airy, bvp, field, flow, verify
from airyflow.errors import FlowDomainError, PoleError

# Parameter ranges of verify.random_flow_case (nu, f1, -gap, length, u10, u1dot0).
FLOW_RANGES = ((0.4, 1.6), (-1.0, 1.0), (0.6, 4.0), (0.6, 1.8), (-1.5, 1.5), (-1.5, 1.5))


def _stratified(rng: random.Random, n: int, ranges, accept, max_tries: int = 8):
    """n accepted draws, Latin-hypercube over ``ranges``.

    ``accept(point)`` returns the built input or None to reject the point.
    A rejected point is redrawn inside the same strata; after ``max_tries``
    it is redrawn over the whole ranges, so the list always fills.
    """
    perms = [rng.sample(range(n), n) for _ in ranges]
    out = []
    for i in range(n):
        for attempt in range(10 * max_tries):
            if attempt < max_tries:
                point = [lo + (hi - lo) * (perm[i] + rng.random()) / n
                         for (lo, hi), perm in zip(ranges, perms)]
            else:
                point = [rng.uniform(lo, hi) for lo, hi in ranges]
            built = accept(point)
            if built is not None:
                out.append(built)
                break
        else:
            raise RuntimeError(f"no acceptable draw for stratum {i}")
    return out


def _jittered(base_points, ranges, rng: random.Random, make, share: float) -> list:
    """make(point) for every base point after the seed moves each coordinate
    by up to ``share`` of its range (tried 8 times, else the base point)."""
    out = []
    for point in base_points:
        for _ in range(8):
            moved = [min(hi, max(lo, x + share * (hi - lo) * rng.uniform(-1.0, 1.0)))
                     for x, (lo, hi) in zip(point, ranges)]
            built = make(moved)
            if built is not None:
                break
        else:
            built = make(point)
        out.append(built)
    rng.shuffle(out)
    return out


def _z_margin(consts, s: float) -> float:
    """|z| over the rounding scale |c1 Ai| + |c2 Bi| at arclength s."""
    q = airy.airy_eval(flow.map_t(s, consts))
    return abs(consts.c1 * q.ai + consts.c2 * q.bi) / (
        abs(consts.c1 * q.ai) + abs(consts.c2 * q.bi) + 1e-300)


def _flow_case(nu, f1, neg_gap, length, u10, u1dot0):
    """Flow case with the acceptance rule of random_flow_case: no pole on
    a padded [0, L] and the denominator well away from zero."""
    params = flow.FlowParams(nu=nu, grad_term=f1 - neg_gap, f1=f1, length=length)
    data = bvp.InitialData(u10=u10, u1dot0=u1dot0)
    try:
        consts = bvp.solve_ivp(data, params)
    except FlowDomainError:
        return None
    pad = 0.05 * length
    if flow.find_poles(consts, -pad, length + pad):
        return None
    if min(_z_margin(consts, k * length / 16.0) for k in range(17)) < 1e-3:
        return None
    return params, data, consts


# ---------------------------------------------------------------------------
# shoot: one solve_bvp per item, default bracket, pole-free seeded cases.

SHOOT_ITEMS = 40
JITTER = 1e-4  # the seed's move of a base case, as a share of each range
AIRY_T_MAX = 100.0  # below the t ~ 105 where Bi leaves the double range


@dataclass(frozen=True)
class ShootItem:
    params: flow.FlowParams
    u10: float
    u1L: float
    c: float  # the Riccati constant that generated u1L
    points = 0  # field points reconstructed per item

    def run(self):
        return bvp.solve_bvp(self.u10, self.u1L, self.params)

    def check(self, sol) -> str | None:
        p = self.params
        if not any(abs(r - self.c) <= 1e-8 for r in sol.roots):
            return f"generating c={self.c!r} not among roots {sol.roots!r}"
        u0 = flow.exact_u1(0.0, p, sol.constants)
        uL = flow.exact_u1(p.length, p, sol.constants)
        if abs(u0 - self.u10) > bvp.ENDPOINT_RTOL * (1.0 + abs(self.u10)):
            return f"u1(0)={u0!r} misses {self.u10!r}"
        if abs(uL - self.u1L) > bvp.ENDPOINT_RTOL * (1.0 + abs(self.u1L)):
            return f"u1(L)={uL!r} misses {self.u1L!r}"
        return None

    def corrupt(self, sol):
        return replace(sol, roots=tuple(r + 1e-6 for r in sol.roots))


def _bracket_t_max(params, u10: float, u1L: float) -> float:
    """Largest Airy argument t(s) that the default bracket's scan reaches on [0, L]."""
    c_lo, _ = bvp.default_c_bracket(u10, u1L, params.nu)
    two_nu_sq = 2.0 * params.nu * params.nu
    kappa = (-params.forcing_gap / two_nu_sq) ** (1.0 / 3.0)
    return -c_lo / (two_nu_sq * kappa * kappa) + kappa * params.length


def _shoot_item(point) -> ShootItem | None:
    case = _flow_case(*point)
    if case is None:
        return None
    params, data, consts = case
    u1L = flow.exact_u1(params.length, params, consts)
    # airy_eval raises AiryOverflowError beyond t ~ 105, and solve_bvp
    # lets that escape instead of excluding the candidate (README.md,
    # known defects); keep the scan inside the documented range
    if _bracket_t_max(params, data.u10, u1L) > AIRY_T_MAX:
        return None
    return ShootItem(params=params, u10=data.u10, u1L=u1L, c=consts.c)


def build_shoot(base: random.Random, rng: random.Random) -> list[ShootItem]:
    points = _stratified(base, SHOOT_ITEMS, FLOW_RANGES,
                         lambda point: point if _shoot_item(point) is not None else None)
    return _jittered(points, FLOW_RANGES, rng, _shoot_item, JITTER)


# ---------------------------------------------------------------------------
# field: reconstruct -> emit -> parse over a mix of families, formats,
# tall and wide grids, with and without a pole column.

FIELD_SHAPES = ((10, 32), (32, 10))  # (nx, ny): tall shares u1 over 32 rows, wide over 10
FIELD_KINDS = ("straight", "sinusoidal", "polynomial")
FIELD_FORMATS = ("csv", "json")
FIELD_REPEATS = 4  # draws per (kind, format, shape) combination
# airy_eval's float-series window; field stays inside it, so every grid
# point costs the same and the Airy kernel rewrite (ROADMAP item 3) does not show
FLOAT_T = (-4.0, 2.5)
SPOT_SAMPLES = 4


@dataclass(frozen=True)
class FieldItem:
    family: field.StreamlineFamily
    params: flow.FlowParams
    consts: flow.SolutionConstants
    grid: field.GridSpec
    fmt: str

    @property
    def points(self) -> int:
        return self.grid.nx * self.grid.ny

    def run(self):
        sampled = field.reconstruct_field(self.family, self.params, self.consts, self.grid)
        blob = field.emit(sampled, self.fmt)
        return blob, field.parse(blob, self.fmt)

    @cached_property
    def expected_invalid(self) -> int:
        """Grid columns that sit on a pole reported by find_poles, times ny."""
        g = self.grid
        poles = flow.find_poles(self.consts, g.x_min, g.x_max)
        cols = sum(1 for x in g.xs() if any(abs(x - p) <= 1e-9 * (1.0 + abs(p)) for p in poles))
        return cols * g.ny

    def check(self, out) -> str | None:
        blob, back = out
        if field.emit(back, self.fmt) != blob:
            return "emit -> parse -> emit is not byte-identical"
        g = self.grid
        if (back.grid.nx, back.grid.ny) != (g.nx, g.ny) or len(back.samples) != g.nx * g.ny:
            return "parsed grid shape differs"
        invalid = sum(1 for sm in back.samples if not sm.valid)
        if invalid != self.expected_invalid:
            return f"{invalid} invalid samples, pole columns give {self.expected_invalid}"
        step = len(back.samples) // SPOT_SAMPLES
        for sm in back.samples[::step]:
            if not sm.valid:
                continue
            u1 = flow.exact_u1(sm.x, self.params, self.consts)
            if sm.u1 != u1 or sm.u2 != self.family.phi2_dot(sm.x) * u1:
                return f"sample at x={sm.x!r} differs from the closed form"
        return None

    def corrupt(self, out):
        _, back = out
        samples = list(back.samples)
        i = next(i for i, sm in enumerate(samples) if sm.valid)
        samples[i] = replace(samples[i], u1=samples[i].u1 * (1.0 + 1e-9) + 1e-12)
        bad = replace(back, samples=tuple(samples))
        return field.emit(bad, self.fmt), bad


def _family(kind: str, rng: random.Random) -> field.StreamlineFamily:
    if kind == "straight":
        return field.StreamlineFamily.straight(rng.uniform(-1.0, 1.0))
    if kind == "sinusoidal":
        return field.StreamlineFamily.sinusoidal(rng.uniform(0.05, 0.3), rng.uniform(0.5, 4.0))
    return field.StreamlineFamily.polynomial([rng.uniform(-0.5, 0.5) for _ in range(4)])


def _in_float_window(consts, length: float) -> bool:
    """t(s) on [0, L] stays in airy_eval's float-series window (t is affine in s)."""
    return all(FLOAT_T[0] <= flow.map_t(s, consts) <= FLOAT_T[1] for s in (0.0, length))


def _field_case(nu, f1, neg_gap, length, u10, u1dot0):
    case = _flow_case(nu, f1, neg_gap, length, u10, u1dot0)
    if case is None or not _in_float_window(case[2], length):
        return None
    return case


def _pole_constants(params, rng: random.Random, s_pole: float):
    """Constants whose denominator vanishes exactly at s_pole, with t(s) on
    [0, L] inside the float-series window."""
    two_nu_sq = 2.0 * params.nu * params.nu
    kappa = (-params.forcing_gap / two_nu_sq) ** (1.0 / 3.0)
    t0 = rng.uniform(FLOAT_T[0], FLOAT_T[1] - kappa * params.length)
    # t(0) = -b/(-a)^(2/3) with b = c/(2 nu^2)
    partial = flow.derive_constants(params, -t0 * kappa * kappa * two_nu_sq)
    q = airy.airy_eval(flow.map_t(s_pole, partial))
    return partial.with_coefficients(q.bi, -q.ai)


def build_field(base: random.Random, rng: random.Random) -> list[FieldItem]:
    """Flow cases, shapes and pole columns from ``base``; grid extents and
    families from the seed.  An item's cost is set by its grid shape and
    format, and t(s) stays on one Airy branch whatever the extent."""
    combos = [(kind, fmt, shape)
              for kind in FIELD_KINDS for fmt in FIELD_FORMATS for shape in FIELD_SHAPES]
    cases = iter(_stratified(base, len(combos) * FIELD_REPEATS, FLOW_RANGES,
                             lambda point: _field_case(*point)))
    items = []
    for repeat in range(FIELD_REPEATS):
        for kind, fmt, (nx, ny) in combos:
            params, _, consts = next(cases)
            length = params.length
            # a pole column on one wide grid per (family, format): few enough
            # that the tail stays among ordinary grids, and the PoleError
            # path of exact_u1 still runs
            if repeat == 0 and nx > ny:
                s_pole = base.uniform(0.35, 0.65) * length
                consts = _pole_constants(params, base, s_pole)
                i0 = nx // 2
                dx = 0.9 * min(s_pole, length - s_pole) / max(i0, nx - 1 - i0)
                x_min, x_max = s_pole - i0 * dx, s_pole + (nx - 1 - i0) * dx
            else:
                x_min, x_max = rng.uniform(0.0, 0.2) * length, rng.uniform(0.8, 1.0) * length
            grid = field.GridSpec(x_min=x_min, x_max=x_max, y_min=-1.0, y_max=1.0, nx=nx, ny=ny)
            items.append(FieldItem(_family(kind, rng), params, consts, grid, fmt))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# lowvisc: solve_ivp -> find_poles on [0, L] -> 101-point profile at low nu.
# t(0) is drawn over [-14, 6] and t(L) - t(0) over [3, 18], so the profiles
# cross the Decimal window (4 < |t| <= 9) and both asymptotic tails;
# negative t brings poles.

LOWVISC_ITEMS = 64
# (nu, f1, -gap, t(0), t(L) - t(0), u10): the two t coordinates drive the
# cost (Decimal window, tails, poles), so they are stratified directly
LOWVISC_RANGES = ((0.03, 0.08), (-1.0, 1.0), (0.5, 2.0), (-14.0, 6.0), (3.0, 18.0), (-1.0, 1.0))
PROFILE_POINTS = 101
SPOT_INDICES = (0, 25, 50, 75, 100)


@dataclass(frozen=True)
class LowviscItem:
    params: flow.FlowParams
    data: bvp.InitialData
    points = 0

    def run(self):
        p = self.params
        consts = bvp.solve_ivp(self.data, p)
        poles = flow.find_poles(consts, 0.0, p.length)
        profile = []
        for i in range(PROFILE_POINTS):
            try:
                profile.append(flow.exact_u1(p.length * i / (PROFILE_POINTS - 1), p, consts))
            except PoleError:
                profile.append(None)  # a sample on a pole is an expected outcome
        return consts, poles, profile

    def check(self, out) -> str | None:
        consts, poles, profile = out
        p = self.params
        oracle = _oracle()
        if len(profile) != PROFILE_POINTS:
            return "profile length differs"
        if any(not 0.0 <= a < b <= p.length for a, b in zip(poles, poles[1:])):
            return "poles are not ascending inside [0, L]"
        for s in poles:
            if oracle.u1(s, p, consts)[1] < 1e9:
                return f"reported pole at s={s!r} is not a zero of z"
        # u1(0) must reproduce the initial condition
        u0, cond = oracle.u1(0.0, p, consts)
        if abs(u0 - self.data.u10) > 1e-9 * cond * (1.0 + abs(u0)):
            return f"oracle u1(0)={u0!r} misses u10={self.data.u10!r}"
        for i in SPOT_INDICES:
            s = p.length * i / (PROFILE_POINTS - 1)
            ref, cond = oracle.u1(s, p, consts)
            got = profile[i]
            if got is None:
                if cond < 1e10:
                    return f"PoleError at s={s!r}, oracle |z| margin {1.0 / cond:.3g}"
            elif cond <= 1e5 and abs(got - ref) > 1e-9 * cond * (1.0 + abs(ref)):
                return f"u1({s!r})={got!r}, oracle {ref!r}"
        return None

    def corrupt(self, out):
        consts, poles, profile = out
        bad = list(profile)
        i = next(i for i in SPOT_INDICES if bad[i] is not None)
        bad[i] = bad[i] * (1.0 + 1e-6) + 1e-6
        return consts, poles, bad


def build_lowvisc(base: random.Random, rng: random.Random) -> list[LowviscItem]:
    def make(point):
        nu, f1, neg_gap, t0, span, u10 = point
        two_nu_sq = 2.0 * nu * nu
        kappa = (neg_gap / two_nu_sq) ** (1.0 / 3.0)  # dt/ds
        params = flow.FlowParams(nu=nu, grad_term=f1 - neg_gap, f1=f1, length=span / kappa)
        # t(0) = -b/(-a)^(2/3) with b = c/(2 nu^2) fixes c, and c fixes u1'(0)
        c = -t0 * kappa * kappa * two_nu_sq
        return LowviscItem(params, bvp.InitialData(u10=u10, u1dot0=(c + 0.5 * u10 * u10) / nu))

    points = _stratified(base, LOWVISC_ITEMS, LOWVISC_RANGES, lambda point: point)
    return _jittered(points, LOWVISC_RANGES, rng, make, JITTER)


class AiryOracle:
    """u1 and its conditioning from mpmath's Airy functions at 30 digits.

    Results are memoized: items repeat across passes of the list, and the
    outputs of a deterministic library repeat with them.
    """

    def __init__(self):
        import mpmath  # imported here so that set-up never pays for it

        self.mpmath = mpmath
        self.cache: dict = {}

    def u1(self, s: float, params, consts) -> tuple[float, float]:
        """(u1(s), cond) where cond = envelope / |z| as in flow.exact_u1."""
        key = (s, params, consts)
        if key not in self.cache:
            self.cache[key] = self._u1(s, params, consts)
        return self.cache[key]

    def _u1(self, s, params, consts):
        m = self.mpmath
        with m.workdps(30):
            a, b = m.mpf(consts.a), m.mpf(consts.b)
            c1, c2 = m.mpf(consts.c1), m.mpf(consts.c2)
            t = -(a * m.mpf(s) + b) / m.cbrt(-a) ** 2
            ai, bi = m.airyai(t), m.airybi(t)
            aip, bip = m.airyai(t, derivative=1), m.airybi(t, derivative=1)
            z = c1 * ai + c2 * bi
            env = abs(c1) * (abs(ai) + abs(aip)) + abs(c2) * (abs(bi) + abs(bip))
            if z == 0:
                return math.inf, math.inf
            u1 = -2 * m.mpf(params.nu) * m.cbrt(-a) * (c1 * aip + c2 * bip) / z
            return float(u1), float(env / abs(z))


@cache
def _oracle() -> AiryOracle:
    return AiryOracle()


# ---------------------------------------------------------------------------
# verify: one oracle pass on one random_flow_case draw.

VERIFY_ITEMS = 64
RK4_STEPS = 8000  # fixed cost that dominates the item, whatever the draw
COMPARE_STRIDE = 160  # 51 closed-form comparison points
# tolerances run_verification uses for the same checks
TOL_RK4_VS_CLOSED_FORM = 1e-9
TOL_RICCATI_VS_SECOND_ORDER = 1e-8
TOL_PROP1, TOL_PROP2, TOL_PROP3 = 1e-5, 1e-4, 1e-10
FD_STEP = 1e-3  # the stencil step run_verification uses for the prop checks
# prefix of a check result that reports the known prop-tolerance defect
# instead of a wrong output; counted and printed, not counted as failed
KNOWN_DEFECT = "known defect:"


@dataclass(frozen=True)
class VerifyItem:
    seed: int  # of the random_flow_case draw
    pressure: tuple[float, float]  # affine pressure of the small field
    points = 12 * 4  # the small field each item reconstructs

    def run(self):
        params, data, consts = verify.random_flow_case(random.Random(self.seed))
        length = params.length
        step = length / RK4_STEPS  # fixed step, the same step count for every case
        ric = verify.integrate_riccati(params, consts.c, data.u10, length, step)
        sec = verify.integrate_second_order(params, data.u10, data.u1dot0, length, step)
        exact = [flow.exact_u1(float(s), params, consts) for s in ric.s[::COMPARE_STRIDE]]
        grid = field.GridSpec(x_min=0.1 * length, x_max=0.9 * length,
                              y_min=-0.5, y_max=0.5, nx=12, ny=4)  # `points` above
        sampled = field.reconstruct_field(field.StreamlineFamily.sinusoidal(0.1, math.pi),
                                          params, consts, grid, pressure=self.pressure)
        prop1 = verify.check_prop1(sampled, FD_STEP)
        prop2, prop3 = verify.check_prop2_prop3(sampled, FD_STEP)
        return ric, sec, exact, sampled, (prop1, prop2, prop3)

    def check(self, out) -> str | None:
        ric, sec, exact, sampled, (prop1, prop2, prop3) = out
        if ric.truncated_at_pole or sec.truncated_at_pole or len(ric) != RK4_STEPS + 1:
            return "RK4 trajectory truncated on a pole-free case"
        err = max(abs(float(u) - e) for u, e in zip(ric.u1[::COMPARE_STRIDE], exact))
        if not err <= TOL_RK4_VS_CLOSED_FORM:
            return f"rk4_vs_closed_form {err:.3e}"
        gap = float(abs(ric.u1 - sec.u1).max())
        if not gap <= TOL_RICCATI_VS_SECOND_ORDER:
            return f"riccati_vs_second_order {gap:.3e}"
        if not prop3 <= TOL_PROP3:
            return f"prop3 residual {prop3:.3e} > {TOL_PROP3:g}"
        for name, got, tol in (("prop1", prop1, TOL_PROP1), ("prop2", prop2, TOL_PROP2)):
            if got <= tol:
                continue
            # run_verification's fixed FD step meets these tolerances only on
            # mildly curved profiles (`airyflow verify --seed 5` fails prop1).
            # The excess is truncation error when a 10x finer step brings the
            # residual under the tolerance; anything else is a failure.
            fine = verify.check_prop1(sampled, FD_STEP / 10) if name == "prop1" else \
                verify.check_prop2_prop3(sampled, FD_STEP / 10)[0]
            if fine <= tol and fine <= got / 10:
                return f"{KNOWN_DEFECT} {name} {got:.3e} > {tol:g} at h={FD_STEP:g}, {fine:.3e} at h/10"
            return f"{name} residual {got:.3e} > {tol:g}"
        return None

    def corrupt(self, out):
        ric, sec, exact, sampled, props = out
        u1 = ric.u1.copy()
        u1[COMPARE_STRIDE] += 1e-6
        return replace(ric, u1=u1), sec, exact, sampled, props


def build_verify(base: random.Random, rng: random.Random) -> list[VerifyItem]:
    """random_flow_case seeds from ``base``: its rejection loop makes the
    cost of a draw vary; the pressure of the small field from the seed."""
    items = [VerifyItem(seed=base.getrandbits(32),
                        pressure=(rng.uniform(-0.05, 0.05), rng.uniform(-0.1, 0.1)))
             for _ in range(VERIFY_ITEMS)]
    rng.shuffle(items)
    return items


BUILDERS = {
    "shoot": build_shoot,
    "field": build_field,
    "lowvisc": build_lowvisc,
    "verify": build_verify,
}


def build(workload: str, seed: int) -> list:
    return BUILDERS[workload](random.Random(f"{workload}:base"), random.Random(f"{workload}:{seed}"))
