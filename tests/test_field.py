"""Streamline families, field reconstruction, serialization."""

import json
import math

import pytest

from airyflow import (
    FlowParams,
    GridDomainError,
    GridSpec,
    InitialData,
    SolutionConstants,
    StreamlineFamily,
    emit,
    exact_u1,
    find_poles,
    gnuplot_script,
    parse,
    reconstruct_field,
    solve_ivp,
)


def solved_case(length=1.5):
    p = FlowParams(nu=1.0, grad_term=-2.0, f1=0.0, length=length)
    return p, solve_ivp(InitialData(u10=0.2, u1dot0=-0.4), p)


class TestStreamlineFamily:
    def test_straight(self):
        fam = StreamlineFamily.straight(2.0)
        assert fam.psi(1.5) == 3.0
        assert fam.psi_dot(7.0) == 2.0
        assert fam.psi_ddot(7.0) == 0.0
        assert fam.phi2(1.5, 10.0) == 13.0

    def test_sinusoidal(self):
        fam = StreamlineFamily.sinusoidal(0.1, math.pi)
        s = 0.37
        assert fam.psi(s) == pytest.approx(0.1 * math.sin(math.pi * s))
        assert fam.psi_dot(s) == pytest.approx(0.1 * math.pi * math.cos(math.pi * s))
        assert fam.psi_ddot(s) == pytest.approx(
            -0.1 * math.pi**2 * math.sin(math.pi * s)
        )

    def test_polynomial(self):
        fam = StreamlineFamily.polynomial((1.0, -2.0, 3.0))
        s = 0.8
        assert fam.psi(s) == pytest.approx(1.0 - 2.0 * s + 3.0 * s * s)
        assert fam.psi_dot(s) == pytest.approx(-2.0 + 6.0 * s)
        assert fam.psi_ddot(s) == pytest.approx(6.0)

    def test_phi1_trivial(self):
        fam = StreamlineFamily.straight(0.0)
        assert fam.phi1_dot(3.0) == 1.0
        assert fam.phi1_ddot(3.0) == 0.0


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
        with pytest.raises(ValueError):
            emit(self.make_field(), "xml")

    def test_gnuplot_script_references_csv(self):
        script = gnuplot_script("field.csv")
        assert "field.csv" in script
        assert "vectors" in script
