import json
import os

import numpy as np
import pytest

from ablatesim import coupler, sim_cli
from ablatesim.coupler import NonFiniteFieldError, run
from ablatesim.flow_solver import solve_flow_step
from ablatesim.linalg import SolverError
from ablatesim.mesh import GeometrySpec, generate_channel_mesh, load_mesh
from ablatesim.sim_cli import (ConfigError, PointProbe, config_from_dict,
                               config_to_dict, main, parse_config, preset,
                               serialize_config, write_probes, write_vtk)

QUICK = {"geometry": {"nx": 20, "ny": 10}, "time": {"M": 2}}


class TestPresets:
    def test_test1_values(self):
        cfg = preset("test1")
        assert cfg.potential_bc.g == 5.0
        assert cfg.geometry == GeometrySpec(L=1.5, H=0.5, r=0.075, nx=48, ny=16)
        assert cfg.heat_bc["G1"].role == "robin"
        assert cfg.heat_bc["G1"].alpha == 1.0 and cfg.heat_bc["G1"].value == 37.0
        assert cfg.heat_bc["G3"].role == "neumann"
        assert cfg.heat_bc["G5"].value == 20.0
        assert cfg.flow_bc["G1"].profile == "gamma1_parabola"
        assert cfg.flow_bc["G5"].profile == "gamma5_electrode"
        assert cfg.flow_bc["G3"].role == "donothing"
        assert not cfg.materials.buoyancy.enabled

    def test_test2_values(self):
        cfg = preset("test2")
        assert cfg.potential_bc.g == 1.0
        assert cfg.materials.buoyancy.enabled
        assert cfg.materials.buoyancy.coefficient == pytest.approx(
            1e-3 * 9.81 / 303.0, rel=1e-15)
        assert cfg.heat_bc["G3"].role == "robin"

    def test_test3_values(self):
        cfg = preset("test3")
        assert cfg.heat_bc["G1"].role == "dirichlet"
        assert cfg.heat_bc["G1"].value == 35.0
        assert cfg.potential_bc.g == 1.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("test9")


class TestConfigParsing:
    def test_minimal_preset_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "test1"}))
        cfg = parse_config(path)
        assert cfg == preset("test1")

    def test_preset_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "test1", "time": {"M": 7},
                                    "potential_bc": {"g": 0.5}}))
        cfg = parse_config(path)
        assert cfg.time.M == 7
        assert cfg.potential_bc.g == 0.5
        assert cfg.geometry == preset("test1").geometry

    def test_negative_time_named_in_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "test1", "time": {"T": -1.0}}))
        with pytest.raises(ConfigError, match="T"):
            parse_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: turbo"):
            config_from_dict({"turbo": True})
        with pytest.raises(ConfigError, match="time.warp"):
            config_from_dict({"time": {"warp": 9}})
        with pytest.raises(ConfigError, match="flow_bc.G9"):
            config_from_dict({"flow_bc": {"G9": {"role": "noslip"}}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="time.M"):
            config_from_dict({"time": {"M": 2.5}})
        with pytest.raises(ConfigError, match="buoyancy.enabled"):
            config_from_dict({"materials": {"buoyancy": {"enabled": "yes"}}})

    def test_roundtrip_identity(self, tmp_path):
        for name in ("test1", "test2", "test3"):
            cfg = preset(name)
            cfg.output.probes = [sim_cli.ProbeSpec(0.3, 0.2)]
            path = tmp_path / f"{name}.json"
            serialize_config(cfg, path)
            back = parse_config(path)
            assert back == cfg

    def test_roundtrip_dict_identity(self):
        cfg = preset("test2")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_bc_role_validation(self):
        with pytest.raises(ConfigError, match="heat_bc.G2"):
            config_from_dict({"heat_bc": {"G2": {"role": "sticky"}}})
        with pytest.raises(ConfigError, match="needs a profile"):
            config_from_dict({"flow_bc": {"G2": {"role": "inflow"}}})

    def test_probe_inside_domain(self):
        with pytest.raises(ConfigError, match="probe"):
            config_from_dict({"output": {"probes": [{"x": 99.0, "y": 0.0}]}})


class TestVTK:
    def fields_state(self, mesh):
        from ablatesim.coupler import SimState
        from ablatesim.fem_core import dofmap_for

        dm = dofmap_for(mesh)
        nv = mesh.num_vertices
        return SimState(t=0.0, n=0, v=np.zeros(dm.n_velocity), P=np.zeros(nv),
                        theta=np.full(nv, 37.0), phi=np.zeros(nv), theta_prev=None)

    def test_structure_and_counts(self, tmp_path, unit_square_2tri):
        state = self.fields_state(unit_square_2tri)
        path = tmp_path / "out.vtk"
        write_vtk(state, unit_square_2tri, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert "POINTS 4 double" in text
        assert "CELLS 2 8" in text
        assert text.count("SCALARS") == 3  # theta, phi, P
        assert text.count("VECTORS velocity double") == 1
        assert "CELL_TYPES 2" in text

    def test_byte_stable(self, tmp_path, unit_square_2tri):
        state = self.fields_state(unit_square_2tri)
        p1 = tmp_path / "a.vtk"
        p2 = tmp_path / "b.vtk"
        write_vtk(state, unit_square_2tri, p1)
        write_vtk(state, unit_square_2tri, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestProbes:
    def test_point_probe_interpolates_p1(self):
        mesh = generate_channel_mesh(GeometrySpec(L=1.0, H=1.0, r=0.25, nx=8, ny=8))
        probe = PointProbe(mesh, 0.37, 0.61)
        field = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
        assert probe(field) == pytest.approx(2.0 * 0.37 - 0.61, abs=1e-13)

    def test_probe_outside_rejected(self):
        mesh = generate_channel_mesh(GeometrySpec(L=1.0, H=1.0, r=0.25, nx=4, ny=4))
        with pytest.raises(ConfigError):
            PointProbe(mesh, 2.0, 0.5)

    def test_write_probes_rows_and_header(self, tmp_path):
        cfg = config_from_dict({"preset": "test1", **QUICK})
        _, rows = run(cfg)
        path = tmp_path / "probes.csv"
        write_probes(rows[1:], path)
        lines = path.read_bytes().decode().split("\r\n")
        assert lines[0] == ("t,max_theta,argmax_x,argmax_y,int_theta,"
                            "div_norm,max_art_visc,centroid_x")
        assert len([ln for ln in lines[1:] if ln]) == cfg.time.M  # one row per step

    def test_equilibrium_constant_columns(self, tmp_path):
        cfg = config_from_dict({
            "preset": "test1", **QUICK,
            "potential_bc": {"g": 0.0},
            "flow_bc": {"G1": {"profile": "zero"}, "G5": {"profile": "zero"}},
            "heat_bc": {"G5": {"value": 37.0}},
        })
        cfg.time.M = 3
        _, rows = run(cfg)
        path = tmp_path / "probes.csv"
        write_probes(rows[1:], path)
        data_rows = [ln for ln in path.read_text().splitlines()[1:] if ln]
        cols = list(zip(*[r.split(",") for r in data_rows]))
        for c in cols[1:]:  # every column except t is constant
            assert len(set(c)) == 1


class TestCLI:
    def test_mesh_subcommand(self, tmp_path):
        out = tmp_path / "m.mesh"
        rc = main(["mesh", "--L", "1.5", "--H", "0.5", "--r", "0.075",
                   "--nx", "20", "--ny", "10", "--out", str(out)])
        assert rc == 0
        mesh = load_mesh(out)
        assert mesh.num_vertices == 231

    def test_mesh_subcommand_bad_spec(self, tmp_path):
        rc = main(["mesh", "--nx", "3", "--ny", "2", "--out",
                   str(tmp_path / "m.mesh")])
        assert rc == 2

    def test_run_with_config(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", **QUICK}))
        outdir = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), "--out", str(outdir)])
        assert rc == 0
        assert (outdir / "probes.csv").exists()
        assert (outdir / "final.vtk").exists()

    def test_run_config_error_exit_2(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", "time": {"T": -1}}))
        assert main(["run", "--config", str(cfgfile)]) == 2

    def test_run_requires_exactly_one_source(self):
        assert main(["run"]) == 2

    def test_run_blowup_exit_4(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "preset": "test1", **QUICK,
            "time": {"M": 20}, "potential_bc": {"g": 500.0}}))
        outdir = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), "--out", str(outdir)])
        assert rc == 4
        assert (outdir / "probes.csv").exists()  # partial diagnostics kept

    @pytest.mark.parametrize("error", [SolverError, NonFiniteFieldError])
    def test_run_solver_failure_keeps_probes_exit_3(self, tmp_path, monkeypatch, error):
        calls = []

        def flow_step_failing_at_3(problem):
            calls.append(1)
            if len(calls) == 3:
                raise error("flow step 3 failed")
            return solve_flow_step(problem)

        monkeypatch.setattr(coupler, "solve_flow_step", flow_step_failing_at_3)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", **QUICK, "time": {"M": 5}}))
        outdir = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), "--out", str(outdir)])
        assert rc == 3
        rows = (outdir / "probes.csv").read_text().splitlines()
        assert len([ln for ln in rows[1:] if ln]) == 2  # steps 1 and 2
        assert not (outdir / "final.vtk").exists()

    def test_steps_override(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", **QUICK}))
        outdir = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), "--out", str(outdir),
                   "--steps-override", "1"])
        assert rc == 0
        rows = (outdir / "probes.csv").read_text().splitlines()
        assert len([ln for ln in rows[1:] if ln]) == 1

    def test_vtk_stride(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "preset": "test1", **QUICK,
            "output": {"stride": 1}}))
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(outdir)]) == 0
        snaps = sorted(p for p in os.listdir(outdir) if p.startswith("fields_"))
        assert len(snaps) == 3  # steps 0, 1, 2
