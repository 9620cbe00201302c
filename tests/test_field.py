"""Streamline families, field reconstruction, serialization."""

import json
import math
import random
from dataclasses import replace

import pytest

from airyflow import flow
from airyflow.bvp import InitialData, solve_ivp
from airyflow.errors import GridDomainError
from airyflow.flow import FlowParams, SolutionConstants, exact_u1, exact_u1_derivative, find_poles
from airyflow.field import (
    FlowProfile,
    GridSpec,
    StreamlineFamily,
    emit,
    gnuplot_script,
    parse,
    reconstruct_field,
)


def solved_case(length=1.5):
    p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=length)
    return p, solve_ivp(InitialData(u10=0.2, u1dot0=-0.4), p)


class TestStreamlineFamily:
    def test_straight(self):
        fam = StreamlineFamily.straight(2.0)
        assert fam.psi_dot(7.0) == 2.0
        assert fam.psi_ddot(7.0) == 0.0

    def test_sinusoidal(self):
        fam = StreamlineFamily.sinusoidal(0.1, math.pi)
        s = 0.37
        assert fam.psi_dot(s) == pytest.approx(0.1 * math.pi * math.cos(math.pi * s))
        assert fam.psi_ddot(s) == pytest.approx(
            -0.1 * math.pi**2 * math.sin(math.pi * s)
        )

    def test_polynomial(self):
        fam = StreamlineFamily.polynomial((1.0, -2.0, 3.0))
        s = 0.8
        assert fam.psi_dot(s) == pytest.approx(-2.0 + 6.0 * s)
        assert fam.psi_ddot(s) == pytest.approx(6.0)


class TestReconstruct:
    def test_zero_slope_gives_zero_u2(self):
        p, consts = solved_case()
        grid = GridSpec(x_min=0.0, x_max=1.5, y_min=-1.0, y_max=1.0, nx=6, ny=5)
        field = reconstruct_field(StreamlineFamily.straight(0.0), p, consts, grid)
        assert all(sm.u2 == 0.0 for sm in field.samples)

    def test_slope_scales_u1(self):
        p, consts = solved_case()
        grid = GridSpec(x_min=0.0, x_max=1.5, y_min=-1.0, y_max=1.0, nx=6, ny=5)
        m = -0.7
        field = reconstruct_field(StreamlineFamily.straight(m), p, consts, grid)
        for sm in field.samples:
            assert sm.u2 == pytest.approx(m * sm.u1, rel=1e-15)

    def test_sinusoidal_ratio_matches_phi2_dot(self):
        p, consts = solved_case()
        grid = GridSpec(x_min=0.0, x_max=1.5, y_min=-0.5, y_max=0.5, nx=9, ny=3)
        fam = StreamlineFamily.sinusoidal(0.1, math.pi)
        field = reconstruct_field(fam, p, consts, grid)
        for sm in field.samples:
            expected = 0.1 * math.pi * math.cos(math.pi * sm.x)
            assert sm.u2 / sm.u1 == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_streamline_tangency(self):
        p, consts = solved_case()
        grid = GridSpec(x_min=0.1, x_max=1.4, y_min=-1.0, y_max=1.0, nx=7, ny=7)
        fam = StreamlineFamily.sinusoidal(0.25, 2.0)
        field = reconstruct_field(fam, p, consts, grid)
        for sm in field.samples:
            cross = sm.u1 * fam.phi2_dot(sm.x) - sm.u2 * 1.0
            scale = abs(sm.u1) + abs(sm.u2) + 1e-300
            assert abs(cross) <= 1e-12 * scale

    def test_u1_shared_across_streamlines(self):
        p, consts = solved_case()
        grid = GridSpec(x_min=0.0, x_max=1.5, y_min=-2.0, y_max=2.0, nx=4, ny=9)
        fam = StreamlineFamily.sinusoidal(0.3, 1.5)
        field = reconstruct_field(fam, p, consts, grid)
        by_x: dict[float, set[float]] = {}
        for sm in field.samples:
            by_x.setdefault(sm.x, set()).add(sm.u1)
        for x, values in by_x.items():
            assert len(values) == 1, f"u1 differs across streamlines at x={x}"

    def test_sample_layout_row_major(self):
        p, consts = solved_case()
        grid = GridSpec(x_min=0.0, x_max=1.5, y_min=0.0, y_max=1.0, nx=3, ny=2)
        field = reconstruct_field(StreamlineFamily.straight(0.0), p, consts, grid)
        assert [sm.x for sm in field.samples[:3]] == grid.xs()
        assert field.samples[0].y == field.samples[2].y == 0.0
        assert field.samples[3].y == 1.0
        assert all(sm.s == sm.x for sm in field.samples)

    def test_grid_outside_domain_rejected(self):
        p, consts = solved_case(length=1.0)
        grid = GridSpec(x_min=0.0, x_max=1.5, y_min=0.0, y_max=1.0, nx=3, ny=2)
        with pytest.raises(GridDomainError):
            reconstruct_field(StreamlineFamily.straight(0.0), p, consts, grid)

    @pytest.mark.parametrize("change, match", [
        ({"nx": 1}, "nx, ny >= 2"),
        ({"ny": 1}, "nx, ny >= 2"),
        ({"x_min": 1.5}, "increasing"),
        ({"y_min": 2.0}, "increasing"),
        # the step overflows to inf, so the nodes are nan, inf, ...
        ({"y_min": -1e308, "y_max": 1e308}, "grid y nodes must be finite and distinct"),
        # a step of a quarter ulp rounds the nodes onto two values
        ({"x_min": 1.0, "x_max": math.nextafter(1.0, 2.0), "nx": 5},
         "grid x nodes must be finite and distinct"),
    ], ids=["nx_1", "ny_1", "x_min_eq_x_max", "y_min_gt_y_max", "y_span_overflows",
            "x_step_below_ulp"])
    def test_grid_spec_rejects(self, change, match):
        spec = {"x_min": 0.0, "x_max": 1.5, "y_min": -1.0, "y_max": 1.0, "nx": 6, "ny": 5}
        with pytest.raises(ValueError, match=match):
            GridSpec(**{**spec, **change})

    def test_pole_samples_flagged_invalid(self):
        params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.2)
        consts = SolutionConstants(a=-1.0, b=4.0, c=8.0, c1=1.0, c2=0.0)
        pole = find_poles(consts, 0.0, 2.2)[0]
        dx = 0.02
        grid = GridSpec(
            x_min=pole - 24 * dx, x_max=pole + 25 * dx,
            y_min=0.0, y_max=1.0, nx=50, ny=2,
        )
        field = reconstruct_field(StreamlineFamily.straight(0.0), params, consts, grid)
        invalid = [sm for sm in field.samples if not sm.valid]
        assert len(invalid) == 2  # one column, both rows
        assert all(sm.u1 is None and sm.u2 is None for sm in invalid)
        assert invalid[0].x == pytest.approx(pole, abs=1e-12)

    def test_one_closed_form_evaluation_per_column(self, monkeypatch):
        import airyflow.field as field_mod

        calls = []

        def counting_exact_u1(s, params, consts):
            calls.append(s)
            return exact_u1(s, params, consts)

        monkeypatch.setattr(field_mod, "exact_u1", counting_exact_u1)
        p, consts = solved_case()
        grid = GridSpec(x_min=0.0, x_max=1.5, y_min=-2.0, y_max=2.0, nx=7, ny=5)
        reconstruct_field(StreamlineFamily.sinusoidal(0.3, 1.5), p, consts, grid)
        assert calls == grid.xs()
        # the pole-column grid of test_pole_samples_flagged_invalid
        calls.clear()
        params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.2)
        consts = SolutionConstants(a=-1.0, b=4.0, c=8.0, c1=1.0, c2=0.0)
        pole = find_poles(consts, 0.0, 2.2)[0]
        dx = 0.02
        grid = GridSpec(
            x_min=pole - 24 * dx, x_max=pole + 25 * dx,
            y_min=0.0, y_max=1.0, nx=50, ny=2,
        )
        field = reconstruct_field(StreamlineFamily.straight(0.0), params, consts, grid)
        assert len(calls) == 50
        assert sum(not sm.valid for sm in field.samples) == 2

    def test_derivatives_make_no_airy_evaluation(self, monkeypatch):
        # u1' and u1'' = (u1 u1' - f1 + grad)/nu come from the given u1, so
        # the checks' stencils evaluate the closed form once per point; the
        # values are the public functions', bit for bit
        p, consts = solved_case()
        profile = FlowProfile.from_solution(p, consts)
        calls = []
        airy_scaled = flow.airy_scaled
        monkeypatch.setattr(flow, "airy_scaled", lambda t: calls.append(t) or airy_scaled(t))
        for s in (0.0, 0.7, 1.5):
            u1 = exact_u1(s, p, consts)
            u1_dot = exact_u1_derivative(s, p, consts)
            calls.clear()
            assert profile.u1dot(s, u1) == u1_dot
            assert profile.u1ddot(s, u1) == (u1 * u1_dot - p.f1 + p.grad_term) / p.nu
            assert calls == []


class TestSerialization:
    def make_field(self, with_pole=False):
        if with_pole:
            params = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=2.2)
            consts = SolutionConstants(a=-1.0, b=4.0, c=8.0, c1=1.0, c2=0.0)
            pole = find_poles(consts, 0.0, 2.2)[0]
            dx = 0.015
            grid = GridSpec(
                x_min=pole - 20 * dx, x_max=pole + 19 * dx,
                y_min=-1.0, y_max=1.0, nx=40, ny=3,
            )
            return reconstruct_field(
                StreamlineFamily.sinusoidal(0.2, 1.0), params, consts, grid
            )
        p, consts = solved_case()
        grid = GridSpec(x_min=0.0, x_max=1.5, y_min=0.0, y_max=1.0, nx=4, ny=3)
        return reconstruct_field(StreamlineFamily.straight(0.4), p, consts, grid)

    def test_csv_header_and_shape(self):
        blob = emit(self.make_field(), "csv")
        lines = blob.decode().splitlines()
        assert lines[0] == "s,x,y,u1,u2,valid"
        assert len(lines) == 1 + 12
        assert all(line.endswith(("true", "false")) for line in lines[1:])
        assert b"\r" not in blob

    def test_csv_roundtrip_bytes(self):
        blob = emit(self.make_field(), "csv")
        assert emit(parse(blob, "csv"), "csv") == blob

    def test_json_roundtrip_bytes(self):
        blob = emit(self.make_field(), "json")
        assert emit(parse(blob, "json"), "json") == blob

    def test_roundtrip_with_pole_row(self):
        field = self.make_field(with_pole=True)
        n_invalid = sum(1 for sm in field.samples if not sm.valid)
        assert n_invalid == 3
        for fmt in ("csv", "json"):
            blob = emit(field, fmt)
            assert emit(parse(blob, fmt), fmt) == blob
        csv_lines = emit(field, "csv").decode().splitlines()
        pole_rows = [ln for ln in csv_lines if ln.endswith("false")]
        assert len(pole_rows) == 3
        for row in pole_rows:
            s_, x_, y_, u1_, u2_, valid_ = row.split(",")
            assert u1_ == "" and u2_ == ""

    def test_json_grid_preserved(self):
        field = self.make_field()
        doc = json.loads(emit(field, "json"))
        assert doc["grid"]["nx"] == 4 and doc["grid"]["ny"] == 3
        assert len(doc["samples"]) == 12
        restored = parse(emit(field, "json"), "json")
        assert restored.grid == field.grid
        assert restored.samples == field.samples

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse(b"not,a,header\n1,2,3\n", "csv")
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            emit(self.make_field(), "xml")
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            parse(emit(self.make_field(), "csv"), "xml")

    def test_parse_rejects_header_without_samples(self):
        with pytest.raises(ValueError, match="full grid"):
            parse(b"s,x,y,u1,u2,valid\n", "csv")

    def test_parse_rejects_json_samples_short_of_grid(self):
        # the same count rule as CSV: a 2x2 grid needs 4 samples
        doc = json.loads(emit(self.make_field(), "json"))
        doc["grid"].update(nx=2, ny=2)
        for samples in ([], doc["samples"][:3]):
            blob = json.dumps({"grid": doc["grid"], "samples": samples}).encode()
            with pytest.raises(ValueError, match="full grid"):
                parse(blob, "json")

    def test_parse_rejects_csv_with_repeated_nodes(self):
        # four samples and two distinct x and y each, but nodes (0, 1) and
        # (1, 0) are missing
        rows = "".join(f"{x},{x},{x},1,0,true\n" for x in (0, 1, 0, 1))
        with pytest.raises(ValueError, match="full grid"):
            parse(("s,x,y,u1,u2,valid\n" + rows).encode(), "csv")

    def test_parse_rejects_json_with_repeated_nodes(self):
        doc = json.loads(emit(self.make_field(), "json"))
        doc["grid"].update(nx=2, ny=2)
        samples = doc["samples"][:2] * 2
        blob = json.dumps({"grid": doc["grid"], "samples": samples}).encode()
        with pytest.raises(ValueError, match="full grid"):
            parse(blob, "json")

    @pytest.mark.parametrize("xs, ys", [
        ((0.0, 0.1, 1.0), (0.0, 1.0)),
        ((0.0, 1.0), (0.0, 0.1, 1.0)),
        ((0.0, 0.75, 1.0), (0.0, 1.0)),
    ], ids=["uneven_x", "uneven_y", "half_step_x"])
    def test_parse_rejects_uneven_csv_nodes(self, xs, ys):
        # every node once and in row-major order, but the middle x (or y) lies
        # half a step or more from the grid's middle node 0.5: the JSON
        # written from such a field would not parse
        rows = "".join(f"{x!r},{x!r},{y!r},1.0,0.0,true\n" for y in ys for x in xs)
        with pytest.raises(ValueError, match="full grid"):
            parse(("s,x,y,u1,u2,valid\n" + rows).encode(), "csv")

    def test_parse_accepts_csv_nodes_within_half_a_step(self):
        # 0.7 lies within half a step (0.25) of the middle node 0.5, so the
        # CSV parses, onto the nodes 0, 0.5, 1.0, and so does its JSON
        rows = "".join(f"{x!r},{x!r},{y!r},1.0,0.0,true\n"
                       for y in (0.0, 1.0) for x in (0.0, 0.7, 1.0))
        field = parse(("s,x,y,u1,u2,valid\n" + rows).encode(), "csv")
        assert field.grid == GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=3, ny=2)
        assert field.grid.xs() == [0.0, 0.5, 1.0]
        assert [sm.x for sm in field.samples[:3]] == [0.0, 0.7, 1.0]
        assert parse(emit(field, "json"), "json") == field

    def test_parse_rejects_json_samples_off_the_grid(self):
        # every node moved 7.0 along x, off the grid block's x in [0, 1.5]
        doc = json.loads(emit(self.make_field(), "json"))
        for sm in doc["samples"]:
            sm["s"] = sm["x"] = sm["x"] + 7.0
        with pytest.raises(ValueError, match="full grid"):
            parse(json.dumps(doc).encode(), "json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_parse_rejects_s_other_than_x(self, fmt):
        field = self.make_field()
        samples = list(field.samples)
        samples[5] = replace(samples[5], s=samples[5].s + 0.25)
        with pytest.raises(ValueError, match="full grid"):
            parse(emit(replace(field, samples=tuple(samples)), fmt), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_parse_rejects_reversed_samples(self, fmt):
        # every node once, but not in emit's row-major order
        field = self.make_field()
        with pytest.raises(ValueError, match="full grid"):
            parse(emit(replace(field, samples=field.samples[::-1]), fmt), fmt)

    def test_random_grids_roundtrip_bytes(self):
        # emit -> parse -> emit is byte-identical for CSV, for JSON, and for
        # JSON written from a CSV-parsed field, whose inferred grid need not
        # reproduce its own nodes through xs(): `misses` counts those grids
        rng = random.Random(27)
        p, consts = solved_case()
        misses = 0
        for _ in range(300):
            x_min, x_max = sorted(rng.uniform(0.0, p.length) for _ in range(2))
            grid = GridSpec(x_min=x_min, x_max=x_max, y_min=rng.uniform(-2.0, 0.0),
                            y_max=rng.uniform(0.5, 2.0), nx=rng.randint(2, 40),
                            ny=rng.randint(2, 4))
            field = reconstruct_field(StreamlineFamily.straight(0.4), p, consts, grid)
            for fmt in ("csv", "json"):
                blob = emit(field, fmt)
                assert emit(parse(blob, fmt), fmt) == blob
            from_csv = parse(emit(field, "csv"), "csv")
            blob = emit(from_csv, "json")
            assert emit(parse(blob, "json"), "json") == blob
            misses += from_csv.grid.xs() != [sm.x for sm in from_csv.samples[:grid.nx]]
        assert misses

    def csv_with(self, column, value, flag):
        """The emitted CSV with `value` in `column` (and the valid flag
        `flag`) on every row of the last grid column, so that the samples
        still fill the grid."""
        header, *rows = emit(self.make_field(), "csv").decode().splitlines()
        rows = [ln.split(",") for ln in rows]
        last = rows[-1][1]
        for row in rows:
            if row[1] == last:
                row[header.split(",").index(column)] = value
                row[5] = flag
        return ("\n".join([header, *map(",".join, rows)]) + "\n").encode()

    @pytest.mark.parametrize("column, value, flag, match", [
        ("u1", "nan", "true", "finite"),
        ("u2", "inf", "true", "finite"),
        ("x", "inf", "true", "finite"),
        ("u1", "0.5", "false", "empty where valid is false"),
        ("u1", "0.5,0.5", "true", "6 cells"),
    ])
    def test_parse_rejects_malformed_csv_sample(self, column, value, flag, match):
        with pytest.raises(ValueError, match=match):
            parse(self.csv_with(column, value, flag), "csv")

    @pytest.mark.parametrize("key, value, match", [
        ("u1", "a", "finite"),
        ("u2", None, "finite"),
        ("valid", "yes", "true or false"),
        ("valid", False, "empty where valid is false"),
        ("extra", 1.0, "exactly the keys"),
    ])
    def test_parse_rejects_malformed_json_sample(self, key, value, match):
        doc = json.loads(emit(self.make_field(), "json"))
        doc["samples"][0][key] = value
        with pytest.raises(ValueError, match=match):
            parse(json.dumps(doc).encode(), "json")

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["grid"].update(nx="4"), "ints"),
        (lambda doc: doc.update(samples={}), "samples list"),
        (lambda doc: doc.pop("grid"), "grid object"),
        (lambda doc: doc["grid"].update(extra=1), "exactly the keys of a GridSpec"),
        (lambda doc: doc["grid"].update(x_max=math.inf), "finite floats"),
    ], ids=["string_nx", "samples_not_a_list", "no_grid", "grid_extra_key", "infinite_range"])
    def test_parse_rejects_malformed_json_document(self, edit, match):
        doc = json.loads(emit(self.make_field(), "json"))
        edit(doc)
        with pytest.raises(ValueError, match=match):
            parse(json.dumps(doc).encode(), "json")

    def test_gnuplot_script_references_csv(self):
        script = gnuplot_script("field.csv")
        assert "field.csv" in script
        assert "vectors" in script
