import json
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import ablatesim
from ablatesim import coupler, flow_solver, linalg, sim_cli, verify
from ablatesim.coupler import NonFiniteFieldError, Simulation
from ablatesim.flow_solver import solve_flow_step
from ablatesim.linalg import SolverError
from ablatesim.mesh import GeometrySpec, generate_channel_mesh, load_mesh
from ablatesim.sim_cli import (ConfigError, PointProbe, SimConfig,
                               config_from_dict, config_to_dict, main,
                               parse_config, preset, serialize_config,
                               write_probes, write_vtk)

QUICK = {"geometry": {"nx": 20, "ny": 10}, "time": {"M": 2}}

# The file format of SimConfig() and of the presets, pinned as literals so
# that renaming a field of a section type cannot change the JSON keys.
ROBIN_37 = {"role": "robin", "alpha": 1.0, "value": 37.0}
DEFAULT_SCHEMA = {
    "geometry": {"L": 1.5, "H": 0.5, "r": 0.075, "nx": 48, "ny": 16},
    "time": {"T": 1.0, "M": 100},
    "materials": {"sigma0": 0.6, "eta0": 0.54, "nu": 0.0021, "theta_b": 37.0,
                  "buoyancy": {"enabled": False, "coefficient": 3.237623762376238e-05}},
    "stabilization": {"alpha": 2.0, "beta": 0.1, "c_r": 1.0, "var_floor": 1e-10},
    "flow_bc": {"G1": {"role": "inflow", "profile": "gamma1_parabola"},
                "G2": {"role": "noslip", "profile": None},
                "G3": {"role": "donothing", "profile": None},
                "G4": {"role": "noslip", "profile": None},
                "G5": {"role": "inflow", "profile": "gamma5_electrode"}},
    "heat_bc": {"G1": ROBIN_37, "G2": ROBIN_37,
                "G3": {"role": "neumann", "alpha": 0.0, "value": 0.0},
                "G4": ROBIN_37,
                "G5": {"role": "inflow", "alpha": 0.0, "value": 20.0}},
    "potential_bc": {"g": 0.0, "roles": {"G1": "dirichlet", "G2": "dirichlet",
                                         "G3": "dirichlet", "G4": "dirichlet",
                                         "G5": "neumann"}},
    "output": {"directory": None, "stride": 0, "probes": []},
}
TEST1_SCHEMA = {**DEFAULT_SCHEMA,
                "potential_bc": {**DEFAULT_SCHEMA["potential_bc"], "g": 5.0},
                "preset": "test1"}
TEST2_SCHEMA = {**TEST1_SCHEMA,
                "materials": {"sigma0": 0.6, "eta0": 0.54, "nu": 0.0021, "theta_b": 37.0,
                              "buoyancy": {"enabled": True,
                                           "coefficient": 3.237623762376238e-05}},
                "heat_bc": {"G1": ROBIN_37, "G2": ROBIN_37, "G3": ROBIN_37, "G4": ROBIN_37,
                            "G5": {"role": "inflow", "alpha": 0.0, "value": 20.0}},
                "potential_bc": {**DEFAULT_SCHEMA["potential_bc"], "g": 1.0},
                "preset": "test2"}
TEST3_SCHEMA = {**TEST2_SCHEMA,
                "heat_bc": {**TEST2_SCHEMA["heat_bc"],
                            "G1": {"role": "dirichlet", "alpha": 0.0, "value": 35.0}},
                "preset": "test3"}


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

    @pytest.mark.parametrize("name, expected", [
        (None, DEFAULT_SCHEMA), ("test1", TEST1_SCHEMA),
        ("test2", TEST2_SCHEMA), ("test3", TEST3_SCHEMA),
    ], ids=["default", "test1", "test2", "test3"])
    def test_file_format_pinned(self, name, expected):
        cfg = SimConfig() if name is None else preset(name)
        assert json.dumps(config_to_dict(cfg)) == json.dumps(expected)


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

    def test_readme_example_loads_and_roundtrips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```json\n(.*?)^```", readme, re.S | re.M)
        assert len(blocks) == 1
        cfg = config_from_dict(json.loads(blocks[0]))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_bc_role_validation(self):
        with pytest.raises(ConfigError, match="heat_bc.G2"):
            config_from_dict({"heat_bc": {"G2": {"role": "sticky"}}})
        with pytest.raises(ConfigError, match="needs a profile"):
            config_from_dict({"flow_bc": {"G2": {"role": "inflow"}}})

    def test_bc_and_stabilization_bounds_named(self):
        with pytest.raises(ConfigError, match="heat_bc.G1: Robin coefficient"):
            config_from_dict({"heat_bc": {"G1": {"role": "robin", "alpha": -1.0}}})
        with pytest.raises(ConfigError, match="stabilization: alpha must"):
            config_from_dict({"stabilization": {"alpha": 3.0}})
        with pytest.raises(ConfigError, match="stabilization: beta must"):
            config_from_dict({"stabilization": {"beta": -0.5}})
        with pytest.raises(ConfigError, match="flow_bc.G5: unknown flow boundary role"):
            config_from_dict({"flow_bc": {"G5": {"role": "slip"}}})
        with pytest.raises(ConfigError, match="time: T must"):
            config_from_dict({"time": {"T": -1.0}})
        with pytest.raises(ConfigError, match="geometry: nx"):
            config_from_dict({"geometry": {"nx": 1}})

    @pytest.mark.parametrize("section", ["flow_bc", "heat_bc", "potential_bc"])
    @pytest.mark.parametrize("edit", ["missing", "extra"])
    def test_tag_coverage_named(self, section, edit):
        cfg = SimConfig()
        roles = cfg.potential_bc.roles if section == "potential_bc" else getattr(cfg, section)
        if edit == "missing":
            del roles["G3"]
        else:
            roles["G6"] = roles["G1"]
        with pytest.raises(ConfigError, match=f"^{section}: each of G1..G5 needs exactly one"):
            cfg.validate()

    def test_removed_solver_options_rejected(self):
        for key in ("potential_tol", "heat_tol", "flow_tol", "flow_method", "heat_method"):
            with pytest.raises(ConfigError, match="unknown config key: solver"):
                config_from_dict({"solver": {key: 1}})

    def test_every_dataclass_section_has_validate(self):
        cfg = SimConfig()
        sections = [f.name for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))]
        assert "materials" in sections
        for name in sections:
            assert callable(getattr(getattr(cfg, name), "validate", None)), name

    @pytest.mark.parametrize("key, value", [("sigma0", -0.6), ("sigma0", 0.0), ("eta0", -0.54),
                                            ("eta0", 0.0), ("nu", -0.0021), ("nu", 0.0)])
    def test_nonpositive_material_constant_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^materials: {key} must be positive"):
            config_from_dict({"preset": "test1", "materials": {key: value}})

    # Through the Python API (the JSON reader rejects every non-finite
    # number), each of these once passed validate() and failed in the run:
    # theta_b as a plain ValueError, g and the buoyancy coefficient as a
    # SolverError.
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_theta_b_rejected(self, value):
        cfg = preset("test2")
        cfg.materials.theta_b = value
        with pytest.raises(ConfigError, match="^materials: theta_b must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_nonfinite_potential_g_rejected(self, value):
        cfg = preset("test2")
        cfg.potential_bc.g = value
        with pytest.raises(ConfigError, match="^potential_bc: g must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_buoyancy_coefficient_rejected(self, value):
        cfg = preset("test2")
        cfg.materials.buoyancy.coefficient = value
        with pytest.raises(ConfigError, match="^materials: buoyancy.coefficient must be finite"):
            cfg.validate()

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
        _, rows = Simulation(cfg).run()
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
        _, rows = Simulation(cfg).run()
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

    def test_run_solver_section_exit_2(self, tmp_path, capsys):
        # Every step solves the potential: the config has no solver section.
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", "solver": {"potential_every": 1}}))
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert "unknown config key: solver" in capsys.readouterr().err

    def test_run_negative_conductivity_exit_2_before_solves(self, tmp_path, monkeypatch, capsys):
        # sigma0 < 0 used to run to completion with theta below body temperature.
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the config was rejected")

        monkeypatch.setattr(linalg, "solve_lu", no_solve)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", "materials": {"sigma0": -0.6}}))
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert "materials: sigma0 must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("beta", -0.5, "beta must be nonnegative"),
        ("c_r", 0.0, "c_r must be positive"),
        ("var_floor", -1.0, "var_floor must be positive")])
    def test_run_bad_stabilization_exit_2_before_solves(self, tmp_path, monkeypatch, capsys,
                                                        key, value, message):
        # beta = -0.5 used to run with a negative viscosity in every cell, and
        # var_floor = -1 to meet a singular heat factor at step 2.
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the config was rejected")

        monkeypatch.setattr(linalg, "solve_lu", no_solve)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", "stabilization": {key: value}}))
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert f"stabilization: {message}, got {value}" in capsys.readouterr().err

    def test_run_unknown_inflow_profile_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "preset": "test1", "flow_bc": {"G1": {"role": "inflow", "profile": "nonsense"}}}))
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert "flow_bc.G1" in capsys.readouterr().err

    @pytest.mark.parametrize("override, path", [
        ({"output": {"probes": [{"x": "abc", "y": 0.1}]}}, "output.probes[0].x"),
        ({"output": {"probes": [{"x": None, "y": 0.1}]}}, "output.probes[0].x"),
        ({"output": {"probes": [{"x": True, "y": 0.1}]}}, "output.probes[0].x"),
        ({"output": {"directory": 5}}, "output.directory"),
        ({"heat_bc": {"G1": {"value": float("nan")}}}, "heat_bc.G1.value"),
        ({"flow_bc": []}, "flow_bc"),
        ({"heat_bc": "x"}, "heat_bc"),
        ({"materials": {"buoyancy": 3}}, "materials.buoyancy"),
        ({"potential_bc": {"roles": {"G1": 3}}}, "potential_bc.roles.G1"),
    ], ids=["probe_string", "probe_null", "probe_bool", "directory_number", "value_nan",
            "flow_bc_list", "heat_bc_string", "buoyancy_number", "role_number"])
    def test_run_malformed_value_exit_2(self, tmp_path, monkeypatch, capsys, override, path):
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", **override}))
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ({"potential_bc": {"roles": {"G1": "bogus"}}},
         "potential_bc: roles.G1: unknown role 'bogus'"),
        ({"output": {"stride": -1}}, "output: stride must be >= 0, got -1"),
        ({"output": {"probes": 3}}, "output.probes must be a list"),
        ({"time": {"M": {"steps": 3}}}, "time.M: expected a value, got an object"),
        ({"output": {"probes": [{"x": 0.75}]}},
         "output.probes[0]: probe must be an object with keys x, y"),
        ({"output": {"probes": [[0.75, 0.4]]}},
         "output.probes[0]: probe must be an object with keys x, y"),
    ], ids=["unknown_potential_role", "negative_stride", "probes_not_a_list",
            "object_for_a_value", "probe_without_y", "probe_as_a_list"])
    def test_run_rejected_config_exit_2(self, tmp_path, capsys, override, message):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", **override}))
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_run_flow_bc_of_the_wrong_type_exit_2(self, monkeypatch, capsys):
        # The file reader builds every flow_bc entry as a FlowBCConfig, so only
        # the Python API can hand validate() another type.
        def wrong_type(name):
            cfg = preset(name)
            cfg.flow_bc["G2"] = flow_solver.FlowBC("noslip")
            return cfg

        monkeypatch.setattr(sim_cli, "preset", wrong_type)
        assert main(["run", "--preset", "test1"]) == 2
        assert capsys.readouterr().err == "config error: flow_bc.G2 has wrong type\n"

    @pytest.mark.parametrize("text", ["[1, 2]", '"test1"', "null"])
    def test_run_config_root_not_an_object_exit_2(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(text)
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == "config error: config root must be a JSON object\n"

    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir(),
                                      lambda path: path.write_text("{")],
                             ids=["missing", "directory", "malformed_json"])
    def test_run_unreadable_config_exit_2(self, tmp_path, capsys, make):
        cfgfile = tmp_path / "c.json"
        make(cfgfile)
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfgfile}: ")

    def test_run_negative_steps_override_exit_2(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the option was rejected")

        monkeypatch.setattr(linalg, "solve_lu", no_solve)
        assert main(["run", "--preset", "test1", "--steps-override", "-1"]) == 2
        assert capsys.readouterr().err == "config error: --steps-override must be >= 0\n"

    def test_verify_block_solver_failure_fails_its_checks_not_the_command(self, monkeypatch,
                                                                          capsys):
        # invariant_suite turns any exception of a block into failed checks,
        # so a SolverError never leaves `ablatesim verify`: it exits 1.
        def failing(problem):
            raise SolverError("potential solve failed")

        monkeypatch.setattr(verify, "solve_potential", failing)
        assert main(["verify", "--preset", "test1"]) == 1
        out = capsys.readouterr().out
        assert "crashed: potential solve failed" in out and "overall: FAIL" in out

    def test_atomic_write_removes_its_temporary_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        target = tmp_path / "probes.csv"
        with pytest.raises(OSError, match="replace failed"):
            sim_cli._atomic_write(target, "t,max_theta\r\n")
        assert list(tmp_path.iterdir()) == []

    def test_run_infinite_geometry_exit_2(self, tmp_path, capsys):
        # json writes and reads Infinity; the config reader rejects it before
        # GeometrySpec.validate, which rejects it for callers of the API.
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", "geometry": {"H": float("inf")}}))
        assert "Infinity" in cfgfile.read_text()
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert "geometry.H: expected a number" in capsys.readouterr().err

    def test_all_neumann_potential_exit_2_before_solves(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the config was rejected")

        monkeypatch.setattr(linalg, "solve_lu", no_solve)
        cfgfile = tmp_path / "c.json"
        roles = dict.fromkeys(("G1", "G2", "G3", "G4", "G5"), "neumann")
        cfgfile.write_text(json.dumps({"potential_bc": {"roles": roles}}))
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert "potential_bc: roles need at least one dirichlet tag" in capsys.readouterr().err

    def test_python_m_entry_point(self, tmp_path):
        src = str(Path(ablatesim.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "m.mesh"
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "ablatesim", "mesh",
             "--nx", "20", "--ny", "10", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert load_mesh(out).num_vertices == 231

    @pytest.mark.parametrize("command", ["run", "verify", "mesh"])
    def test_unwritable_out_exit_2_before_solves(self, tmp_path, monkeypatch, capsys, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the output path was rejected")

        monkeypatch.setattr(linalg, "solve_lu", no_solve)
        if command == "mesh":
            out = tmp_path / "missing" / "m.mesh"
            argv = ["mesh", "--nx", "20", "--ny", "10"]
        else:
            out = tmp_path / "taken"
            out.write_text("a file, not a directory\n")
            argv = [command, "--preset", "test1"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"config error: cannot write output {out}" in err

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

    def test_run_blowup_keeps_the_probe_row(self, tmp_path):
        config = {"preset": "test1", **QUICK, "time": {"M": 20}, "potential_bc": {"g": 500.0}}
        rows = {}
        for name, probes in (("plain", []), ("probed", [{"x": 0.75, "y": 0.4}])):
            cfgfile = tmp_path / f"{name}.json"
            cfgfile.write_text(json.dumps({**config, "output": {"probes": probes}}))
            assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / name)]) == 4
            lines = (tmp_path / name / "probes.csv").read_text().splitlines()
            rows[name] = [ln for ln in lines[1:] if ln]
        assert len(rows["probed"]) == len(rows["plain"]) >= 1
        sim = Simulation(parse_config(cfgfile))
        with pytest.raises(coupler.BlowUpError) as exc:
            sim.run()
        expected = PointProbe(sim.mesh, 0.75, 0.4)(exc.value.state.theta)
        assert float(rows["probed"][-1].split(",")[-1]) == expected

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

    def test_run_initialize_failure_exit_3_without_probes(self, tmp_path, monkeypatch,
                                                           capsys):
        def failing(problem):
            raise SolverError("stationary flow failed")

        monkeypatch.setattr(coupler, "solve_flow_stationary", failing)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", **QUICK}))
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(outdir)]) == 3
        assert outdir.is_dir() and not list(outdir.iterdir())  # no rows, no probes.csv
        assert capsys.readouterr().err == (
            "solver failure: initialize/flow: stationary flow failed\n")

    def test_run_summary_reports_the_solves(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["run", "--preset", "test1", "--out", str(outdir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("completed 100 steps")
        # The divergence is stated against its contract, which every step
        # met, not as a round-off value.
        assert lines[0].endswith(", |div v| <= 1e-08 (1 + |v|) (contract)")
        # One line per system: its solves and the reason of every LU.  test1's
        # flow is the stationary one at every step: step 1 returns its guess,
        # and the 99 steps on the same inputs repeat it without a solve; each
        # counts as a solve by the guess, after the initialization's Stokes
        # solve and four Newton solves.
        assert lines[1:] == [
            "potential: 101 solves: 1 by the guess, 99 by GMRES on the held factor, "
            "1 LU (no factor held)",
            "flow: 105 solves: 101 by the guess, 2 by GMRES on the held factor, 2 LU "
            "(no factor held; GMRES projected to miss after 3 iterations)",
            "heat: 101 solves: 1 by the guess, 99 by GMRES on the held factor, "
            "1 LU (no factor held)"]
        header = (outdir / "probes.csv").read_text().splitlines()[0]
        assert header.split(",") == list(sim_cli.PROBE_COLUMNS)  # no solver columns (C10)

    def test_run_summary_of_a_moving_flow(self, capsys):
        # test3's buoyant flow moves at every step, so no step repeats the
        # last; its first step, far from the stationary Newton system,
        # refactorizes.  Two steps keep the run short.
        assert main(["run", "--preset", "test3", "--steps-override", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "potential: 3 solves: 0 by the guess, 2 by GMRES on the held factor, "
            "1 LU (no factor held)",
            "flow: 7 solves: 1 by the guess, 3 by GMRES on the held factor, 3 LU "
            "(no factor held; GMRES projected to miss after 3 iterations; "
            "GMRES projected to miss after 3 iterations)",
            "heat: 6 solves: 1 by the guess, 4 by GMRES on the held factor, "
            "1 LU (no factor held)"]

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


class TestVerifyCommand:
    def test_tiny_config_writes_report(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", **QUICK}))
        outdir = tmp_path / "out"
        assert main(["verify", "--config", str(cfgfile), "--out", str(outdir)]) == 0
        assert (outdir / "invariants.txt").read_text().rstrip().endswith("PASS (27/27)")
        rows = (outdir / "invariants.csv").read_text().splitlines()
        assert rows[0] == "name,passed,detail" and len(rows) == 28

    def test_both_sources_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"preset": "test1", **QUICK}))
        assert main(["verify", "--config", str(cfgfile), "--preset", "test1"]) == 2
        assert "--config / --preset" in capsys.readouterr().err
