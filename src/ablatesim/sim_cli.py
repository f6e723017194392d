"""Configuration schema, test presets, output writers, and the CLI.

Config files are JSON with nested sections mirroring :class:`SimConfig`.  A
file may name a preset and override any subset of fields:

    {"preset": "test1", "time": {"M": 20}, "potential_bc": {"g": 0.0}}

Unknown keys are rejected with the offending dotted path.  Exit codes:
0 success, 2 config error, 3 solver failure, 4 blow-up guard.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import coupler, fem_core, flow_solver, heat_solver, linalg
from .coupler import Simulation, TimeGrid
from .materials import DEFAULT_BUOYANCY_COEFF, BuoyancySettings, MaterialModel
from .mesh import (GAMMA1, GAMMA2, GAMMA3, GAMMA4, GAMMA5, GeometrySpec,
                   Mesh2D, MeshError, generate_channel_mesh, save_mesh)

TAG_NAMES = {"G1": GAMMA1, "G2": GAMMA2, "G3": GAMMA3, "G4": GAMMA4, "G5": GAMMA5}


class ConfigError(ValueError):
    pass


# -- schema ---------------------------------------------------------------------


@dataclass
class BuoyancyConfig:
    enabled: bool = False
    coefficient: float = DEFAULT_BUOYANCY_COEFF


@dataclass
class MaterialsConfig:
    sigma0: float = 0.6
    eta0: float = 0.54
    nu: float = 0.0021
    theta_b: float = 37.0
    buoyancy: BuoyancyConfig = field(default_factory=BuoyancyConfig)


@dataclass
class StabilizationConfig:
    alpha: float = 2.0
    beta: float = 0.1
    c_r: float = 1.0
    var_floor: float = 1e-10


@dataclass
class FlowBCConfig:
    role: str = "noslip"  # inflow | noslip | donothing
    profile: str | None = None  # gamma1_parabola | gamma5_electrode | zero


@dataclass
class HeatBCConfig:
    role: str = "neumann"  # robin | dirichlet | neumann | inflow
    alpha: float = 0.0
    value: float = 0.0  # theta_l (robin), boundary value (dirichlet), or inflow temperature


@dataclass
class PotentialConfig:
    g: float = 0.0
    roles: dict = field(default_factory=lambda: {
        "G1": "dirichlet", "G2": "dirichlet", "G3": "dirichlet",
        "G4": "dirichlet", "G5": "neumann",
    })

    @property
    def neumann_tags(self):
        return tuple(TAG_NAMES[k] for k, r in sorted(self.roles.items()) if r == "neumann")

    @property
    def dirichlet_tags(self):
        return tuple(TAG_NAMES[k] for k, r in sorted(self.roles.items()) if r == "dirichlet")


@dataclass
class SolverConfig:
    potential_tol: float = 1e-10
    heat_tol: float = 1e-8
    flow_tol: float = 1e-8
    flow_method: str = "lu"  # lu | gmres
    heat_method: str = "gmres"  # gmres (with LU fallback) | lu
    potential_every: int = 1


@dataclass
class ProbeSpec:
    x: float
    y: float


@dataclass
class OutputConfig:
    directory: str | None = None
    stride: int = 0  # VTK snapshot every `stride` steps; 0 = final state only
    probes: list = field(default_factory=list)  # list[ProbeSpec]


def _default_flow_bc():
    return {
        "G1": FlowBCConfig("inflow", "gamma1_parabola"),
        "G2": FlowBCConfig("noslip"),
        "G3": FlowBCConfig("donothing"),
        "G4": FlowBCConfig("noslip"),
        "G5": FlowBCConfig("inflow", "gamma5_electrode"),
    }


def _default_heat_bc():
    # The saline temperature rides in on the electrode jet (weak inflow
    # imposition); a conductive Dirichlet wall at 20 C would quench the Joule
    # layer entirely.
    return {
        "G1": HeatBCConfig("robin", 1.0, 37.0),
        "G2": HeatBCConfig("robin", 1.0, 37.0),
        "G3": HeatBCConfig("neumann"),
        "G4": HeatBCConfig("robin", 1.0, 37.0),
        "G5": HeatBCConfig("inflow", 0.0, 20.0),
    }


@dataclass
class SimConfig:
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    time: TimeGrid = field(default_factory=TimeGrid)
    materials: MaterialsConfig = field(default_factory=MaterialsConfig)
    stabilization: StabilizationConfig = field(default_factory=StabilizationConfig)
    flow_bc: dict = field(default_factory=_default_flow_bc)
    heat_bc: dict = field(default_factory=_default_heat_bc)
    potential_bc: PotentialConfig = field(default_factory=PotentialConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    preset: str | None = None

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        try:
            self.geometry.validate()
            self.time.validate()
        except (MeshError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        for section, expected in (("flow_bc", FlowBCConfig), ("heat_bc", HeatBCConfig)):
            bc = getattr(self, section)
            if set(bc) != set(TAG_NAMES):
                raise ConfigError(f"{section} must configure each of G1..G5 exactly once")
            for name, entry in bc.items():
                if not isinstance(entry, expected):
                    raise ConfigError(f"{section}.{name} has wrong type")
        if set(self.potential_bc.roles) != set(TAG_NAMES):
            raise ConfigError("potential_bc.roles must configure each of G1..G5")
        for name, role in self.potential_bc.roles.items():
            if role not in ("dirichlet", "neumann"):
                raise ConfigError(f"potential_bc.roles.{name}: unknown role {role!r}")
        if not self.potential_bc.dirichlet_tags:
            raise ConfigError("potential_bc needs at least one dirichlet tag")
        for name, entry in self.flow_bc.items():
            if entry.role not in ("inflow", "noslip", "donothing"):
                raise ConfigError(f"flow_bc.{name}: unknown role {entry.role!r}")
            if entry.role == "inflow" and entry.profile is None:
                raise ConfigError(f"flow_bc.{name}: inflow needs a profile")
        for name, entry in self.heat_bc.items():
            if entry.role not in ("robin", "dirichlet", "neumann", "inflow"):
                raise ConfigError(f"heat_bc.{name}: unknown role {entry.role!r}")
            if entry.role == "robin" and entry.alpha < 0:
                raise ConfigError(f"heat_bc.{name}: alpha must be nonnegative")
        if not (1.0 <= self.stabilization.alpha <= 2.0):
            raise ConfigError("stabilization.alpha must lie in [1, 2]")
        if self.solver.flow_method not in ("lu", "gmres"):
            raise ConfigError(f"solver.flow_method: unknown method {self.solver.flow_method!r}")
        if self.solver.heat_method not in ("lu", "gmres"):
            raise ConfigError(f"solver.heat_method: unknown method {self.solver.heat_method!r}")
        if self.solver.potential_every < 1:
            raise ConfigError("solver.potential_every must be >= 1")
        if self.output.stride < 0:
            raise ConfigError("output.stride must be >= 0")
        for p in self.output.probes:
            if not (0.0 <= p.x <= self.geometry.L and 0.0 <= p.y <= self.geometry.H):
                raise ConfigError(f"probe ({p.x}, {p.y}) lies outside the domain")

    # -- builders used by the coupler ------------------------------------------

    def build_material_model(self) -> MaterialModel:
        m = self.materials
        return MaterialModel(
            sigma0=m.sigma0, eta0=m.eta0, nu_const=m.nu, theta_b=m.theta_b,
            buoyancy=BuoyancySettings(enabled=m.buoyancy.enabled,
                                      coefficient=m.buoyancy.coefficient),
        )

    def build_flow_bcs(self) -> dict:
        out = {}
        g = self.geometry
        for name, entry in self.flow_bc.items():
            tag = TAG_NAMES[name]
            if entry.role == "inflow":
                profile = flow_solver.make_profile(
                    entry.profile, H=g.H, L=g.L, r=g.r)
                out[tag] = flow_solver.FlowBC(entry.role, profile)
            else:
                out[tag] = flow_solver.FlowBC(entry.role)
        return out

    def build_heat_bcs(self) -> dict:
        out = {}
        for name, entry in self.heat_bc.items():
            tag = TAG_NAMES[name]
            if entry.role == "robin":
                out[tag] = heat_solver.HeatBC("robin", alpha=entry.alpha, data=entry.value)
            elif entry.role in ("dirichlet", "inflow"):
                out[tag] = heat_solver.HeatBC(entry.role, data=entry.value)
            else:
                out[tag] = heat_solver.HeatBC("neumann")
        return out

    def build_stabilization(self) -> heat_solver.StabilizationParams:
        s = self.stabilization
        return heat_solver.StabilizationParams(
            alpha_exp=s.alpha, beta=s.beta, c_r=s.c_r, var_floor=s.var_floor)


# -- presets (Tests 1-3) ---------------------------------------------------------


def preset(name: str) -> SimConfig:
    """Fully populated configuration for the named simulation preset.

    test1: electrode current g=5, Robin walls at 37, saline 20 on the
           electrode, no body force.
    test2: g lowered to 1, Robin also on the outlet, Boussinesq body force.
    test3: test2 plus blood entering at 35 through the inlet.
    """
    if name not in ("test1", "test2", "test3"):
        raise ConfigError(f"unknown preset {name!r}")
    cfg = SimConfig(preset=name)
    cfg.geometry = GeometrySpec(L=1.5, H=0.5, r=0.075, nx=48, ny=16)
    cfg.time = TimeGrid(T=1.0, M=100)
    cfg.potential_bc = PotentialConfig(g=5.0)
    if name in ("test2", "test3"):
        cfg.potential_bc.g = 1.0
        cfg.materials.buoyancy.enabled = True
        cfg.heat_bc["G3"] = HeatBCConfig("robin", 1.0, 37.0)
    if name == "test3":
        cfg.heat_bc["G1"] = HeatBCConfig("dirichlet", 0.0, 35.0)
    return cfg


# -- strict JSON (de)serialization ------------------------------------------------


_SECTION_TYPES = {
    "geometry": GeometrySpec,
    "time": TimeGrid,
    "materials": MaterialsConfig,
    "stabilization": StabilizationConfig,
    "potential_bc": PotentialConfig,
    "solver": SolverConfig,
    "output": OutputConfig,
}


def _update_dataclass(obj, data: dict, path: str):
    valid = {f.name: f for f in fields(obj)}
    for key, val in data.items():
        here = f"{path}.{key}" if path else key
        if key not in valid:
            raise ConfigError(f"unknown config key: {here}")
        current = getattr(obj, key)
        if is_dataclass(current) and isinstance(val, dict):
            _update_dataclass(current, val, here)
        elif key == "probes":
            if not isinstance(val, list):
                raise ConfigError(f"{here} must be a list")
            setattr(obj, key, [_probe_from(v, f"{here}[{i}]") for i, v in enumerate(val)])
        elif key == "roles":
            if not isinstance(val, dict):
                raise ConfigError(f"{here} must be an object")
            merged = dict(current)
            for tag, role in val.items():
                if tag not in TAG_NAMES:
                    raise ConfigError(f"unknown config key: {here}.{tag}")
                merged[tag] = role
            setattr(obj, key, merged)
        else:
            if isinstance(val, dict):
                raise ConfigError(f"{here}: expected a value, got an object")
            setattr(obj, key, _coerce(current, val, here))
    return obj


def _coerce(current, val, path):
    if isinstance(current, bool) or isinstance(val, bool):
        if not isinstance(val, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return val
    if isinstance(current, int) and not isinstance(current, bool):
        if isinstance(val, float) and not float(val).is_integer():
            raise ConfigError(f"{path}: expected an integer")
        if not isinstance(val, (int, float)):
            raise ConfigError(f"{path}: expected an integer")
        return int(val)
    if isinstance(current, float):
        if not isinstance(val, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(val)
    return val


def _probe_from(val, path) -> ProbeSpec:
    if not isinstance(val, dict) or set(val) != {"x", "y"}:
        raise ConfigError(f"{path}: probe must be an object with keys x, y")
    return ProbeSpec(x=float(val["x"]), y=float(val["y"]))


def _bc_from(section: str, data: dict, cls, base: dict) -> dict:
    out = dict(base)
    for tag, entry in data.items():
        if tag not in TAG_NAMES:
            raise ConfigError(f"unknown config key: {section}.{tag}")
        if not isinstance(entry, dict):
            raise ConfigError(f"{section}.{tag} must be an object")
        bc = copy.deepcopy(out.get(tag))
        if not isinstance(bc, cls):
            bc = cls()
        _update_dataclass(bc, entry, f"{section}.{tag}")
        out[tag] = bc
    return out


def config_from_dict(data: dict) -> SimConfig:
    """Strict construction: a preset (if named) seeds defaults, then overrides apply."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)
    preset_name = data.pop("preset", None)
    cfg = preset(preset_name) if preset_name is not None else SimConfig()
    for key, val in data.items():
        if key in _SECTION_TYPES:
            if not isinstance(val, dict):
                raise ConfigError(f"{key} must be an object")
            _update_dataclass(getattr(cfg, key), val, key)
        elif key == "flow_bc":
            cfg.flow_bc = _bc_from("flow_bc", val, FlowBCConfig, cfg.flow_bc)
        elif key == "heat_bc":
            cfg.heat_bc = _bc_from("heat_bc", val, HeatBCConfig, cfg.heat_bc)
        else:
            raise ConfigError(f"unknown config key: {key}")
    cfg.validate()
    return cfg


def config_to_dict(cfg: SimConfig) -> dict:
    out = {
        "geometry": asdict(cfg.geometry),
        "time": asdict(cfg.time),
        "materials": asdict(cfg.materials),
        "stabilization": asdict(cfg.stabilization),
        "flow_bc": {k: asdict(v) for k, v in sorted(cfg.flow_bc.items())},
        "heat_bc": {k: asdict(v) for k, v in sorted(cfg.heat_bc.items())},
        "potential_bc": asdict(cfg.potential_bc),
        "solver": asdict(cfg.solver),
        "output": {
            "directory": cfg.output.directory,
            "stride": cfg.output.stride,
            "probes": [asdict(p) for p in cfg.output.probes],
        },
    }
    if cfg.preset is not None:
        out["preset"] = cfg.preset
    return out


def parse_config(path) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def serialize_config(cfg: SimConfig, path) -> None:
    _atomic_write(path, json.dumps(config_to_dict(cfg), indent=2) + "\n")


# -- output writers ----------------------------------------------------------------


def _atomic_write(path, text: str) -> None:
    path = str(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def write_vtk(state, mesh: Mesh2D, path, dofmap=None) -> None:
    """Legacy ASCII VTK unstructured grid with theta, phi, P and vertex velocity.

    The bubble enrichment has no vertex trace, so the exported velocity is the
    P1 (vertex) part only.
    """
    if dofmap is None:
        dofmap = fem_core.dofmap_for(mesh)
    vel = fem_core.velocity_at_vertices(mesh, dofmap, state.v)
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    lines = [
        "# vtk DataFile Version 3.0",
        "ablatesim fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    lines += [f"{_fmt(x)} {_fmt(y)} 0.0" for x, y in mesh.vertices]
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    lines.append(f"POINT_DATA {nv}")
    for name, arr in (("theta", state.theta), ("phi", state.phi), ("P", state.P)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines += [_fmt(v) for v in np.asarray(arr)]
    lines.append("VECTORS velocity double")
    lines += [f"{_fmt(a)} {_fmt(b)} 0.0" for a, b in vel]
    _atomic_write(path, "\n".join(lines) + "\n")


PROBE_COLUMNS = ["t", "max_theta", "argmax_x", "argmax_y", "int_theta",
                 "div_norm", "max_art_visc", "centroid_x"]


def write_probes(series, path, extra_names=(), extra_values=None) -> None:
    """RFC-4180 CSV of per-step diagnostics, one row per time level."""
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)  # csv default lineterminator is CRLF per RFC-4180
    writer.writerow(PROBE_COLUMNS + list(extra_names))
    for i, row in enumerate(series):
        rec = [_fmt(row.t), _fmt(row.max_theta), _fmt(row.argmax_x),
               _fmt(row.argmax_y), _fmt(row.int_theta), _fmt(row.div_norm),
               _fmt(row.max_art_visc), _fmt(row.centroid_x)]
        if extra_values is not None:
            rec += [_fmt(v) for v in extra_values[i]]
        writer.writerow(rec)
    _atomic_write(path, buf.getvalue())


class PointProbe:
    """P1 interpolation of the temperature at a fixed point."""

    def __init__(self, mesh: Mesh2D, x: float, y: float):
        self.point = (x, y)
        p = mesh.vertices
        t = mesh.triangles
        a = p[t[:, 0]]
        b = p[t[:, 1]]
        c = p[t[:, 2]]
        det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
        l2 = ((x - a[:, 0]) * (c[:, 1] - a[:, 1]) - (y - a[:, 1]) * (c[:, 0] - a[:, 0])) / det
        l3 = ((y - a[:, 1]) * (b[:, 0] - a[:, 0]) - (x - a[:, 0]) * (b[:, 1] - a[:, 1])) / det
        l1 = 1.0 - l2 - l3
        tol = -1e-12
        inside = (l1 >= tol) & (l2 >= tol) & (l3 >= tol)
        if not np.any(inside):
            raise ConfigError(f"probe point ({x}, {y}) is outside the mesh")
        k = int(np.argmax(inside))
        self.tri = t[k]
        self.bary = np.array([l1[k], l2[k], l3[k]])

    def __call__(self, nodal) -> float:
        return float(np.dot(self.bary, np.asarray(nodal)[self.tri]))


# -- CLI ------------------------------------------------------------------------------


def _load_run_config(args) -> SimConfig:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("exactly one of --config / --preset is required")
    cfg = parse_config(args.config) if args.config else preset(args.preset)
    if args.steps_override is not None:
        if args.steps_override < 0:
            raise ConfigError("--steps-override must be >= 0")
        cfg.time.M = args.steps_override
    if args.out is not None:
        cfg.output.directory = args.out
    cfg.validate()
    return cfg


def cmd_mesh(args) -> int:
    spec = GeometrySpec(L=args.L, H=args.H, r=args.r, nx=args.nx, ny=args.ny)
    try:
        mesh = generate_channel_mesh(spec)
    except MeshError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    save_mesh(mesh, args.out)
    print(f"wrote {mesh.num_vertices} vertices / {mesh.num_triangles} triangles to {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_run_config(args)
    outdir = cfg.output.directory
    if outdir:
        os.makedirs(outdir, exist_ok=True)

    sim = Simulation(cfg)
    probes = [PointProbe(sim.mesh, p.x, p.y) for p in cfg.output.probes]
    probe_names = [f"theta_at_{p.x}_{p.y}" for p in cfg.output.probes]
    probe_rows = []

    def on_step(state):
        probe_rows.append([pr(state.theta) for pr in probes])
        if outdir and cfg.output.stride > 0 and state.n % cfg.output.stride == 0:
            write_vtk(state, sim.mesh, os.path.join(outdir, f"fields_{state.n:05d}.vtk"),
                      sim.dofmap)

    def finish(rows):
        if not outdir:
            return
        # One CSV row per advanced step; a blow-up aborts before the probes of
        # its final row are sampled, so truncate to the sampled prefix.
        data = rows[1:]
        extra = probe_rows[1:]
        n = min(len(data), len(extra)) if probes else len(data)
        write_probes(data[:n] if probes else data,
                     os.path.join(outdir, "probes.csv"),
                     probe_names, extra[:n] if probes else None)

    try:
        state, rows = sim.run(on_step=on_step)
    except coupler.BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        finish(exc.rows)
        return 4
    except (linalg.SolverError, coupler.NonFiniteFieldError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if hasattr(exc, "rows"):  # a mid-run failure keeps the rows before it
            finish(exc.rows)
        return 3

    finish(rows)
    if outdir:
        write_vtk(state, sim.mesh, os.path.join(outdir, "final.vtk"), sim.dofmap)
    last = rows[-1]
    print(f"completed {cfg.time.M} steps: max theta {last.max_theta:.4f} at "
          f"({last.argmax_x:.4f}, {last.argmax_y:.4f}), |div v| = {last.div_norm:.2e}")
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = preset(args.preset or "test1")
    report = verify_mod.invariant_suite(cfg)
    text = verify_mod.format_report(report)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _atomic_write(os.path.join(args.out, "invariants.txt"), text + "\n")
        verify_mod.write_report_csv(report, os.path.join(args.out, "invariants.csv"))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ablatesim",
                                 description="RF ablation channel simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    mp = sub.add_parser("mesh", help="emit a mesh file for a geometry spec")
    mp.add_argument("--L", type=float, default=1.5)
    mp.add_argument("--H", type=float, default=0.5)
    mp.add_argument("--r", type=float, default=0.075)
    mp.add_argument("--nx", type=int, default=48)
    mp.add_argument("--ny", type=int, default=16)
    mp.add_argument("--out", required=True)
    mp.set_defaults(fn=cmd_mesh)

    rp = sub.add_parser("run", help="run a simulation from a config or preset")
    rp.add_argument("--config")
    rp.add_argument("--preset", choices=("test1", "test2", "test3"))
    rp.add_argument("--out", help="output directory (probes.csv, VTK snapshots)")
    rp.add_argument("--steps-override", type=int, default=None)
    rp.set_defaults(fn=cmd_run)

    vp = sub.add_parser("verify", help="run the invariant verification suite")
    vp.add_argument("--config")
    vp.add_argument("--preset", choices=("test1", "test2", "test3"))
    vp.add_argument("--out", help="directory for the report files")
    vp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (linalg.SolverError,) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
