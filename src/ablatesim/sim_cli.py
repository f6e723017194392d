"""Configuration schema, test presets, output writers, and the CLI.

Config files are JSON with nested sections mirroring :class:`SimConfig`.  A
file may name a preset and override any subset of fields:

    {"preset": "test1", "time": {"M": 20}, "potential_bc": {"g": 0.0}}

The :class:`SimConfig` dataclasses are the only description of the file
format: the reader walks them, reading each key by the type of the value it
replaces, and the writer is ``dataclasses.asdict``.  The geometry, time,
stabilization and heat_bc sections are the solver's own types.  Every section
checks itself in one ``validate()``, and an error names its section; unknown
keys and malformed values are rejected with the offending dotted path.  Exit
codes: 0 success, 2 config error (an unwritable ``--out`` included), 3 solver
failure, 4 blow-up guard.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import coupler, fem_core, flow_solver, linalg, verify
from .coupler import Simulation, TimeGrid
from .heat_solver import HeatBC, StabilizationParams
from .materials import BuoyancySettings, MaterialModel
from .mesh import (TAG_NAMES, GeometrySpec, Mesh2D, MeshError, check_tag_roles,
                   generate_channel_mesh, save_mesh)


class ConfigError(ValueError):
    pass


# -- schema ---------------------------------------------------------------------


@dataclass
class MaterialsConfig:
    sigma0: float = MaterialModel.sigma0
    eta0: float = MaterialModel.eta0
    nu: float = MaterialModel.nu_const
    theta_b: float = MaterialModel.theta_b
    buoyancy: BuoyancySettings = field(default_factory=BuoyancySettings)

    def validate(self) -> None:
        for key in ("sigma0", "eta0", "nu"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")


@dataclass
class FlowBCConfig:
    role: str = "noslip"  # inflow | noslip | donothing
    profile: str | None = None  # gamma1_parabola | gamma5_electrode | zero


@dataclass
class PotentialConfig:
    g: float = 0.0
    roles: dict = field(default_factory=lambda: {
        "G1": "dirichlet", "G2": "dirichlet", "G3": "dirichlet",
        "G4": "dirichlet", "G5": "neumann",
    })

    def validate(self) -> None:
        check_tag_roles(self.roles, "potential")
        for name, role in self.roles.items():
            if role not in ("dirichlet", "neumann"):
                raise ValueError(f"roles.{name}: unknown role {role!r}")
        if not self.dirichlet_tags:
            raise ValueError("roles need at least one dirichlet tag")

    @property
    def neumann_tags(self):
        return tuple(TAG_NAMES[k] for k, r in sorted(self.roles.items()) if r == "neumann")

    @property
    def dirichlet_tags(self):
        return tuple(TAG_NAMES[k] for k, r in sorted(self.roles.items()) if r == "dirichlet")


@dataclass
class ProbeSpec:
    x: float
    y: float


@dataclass
class OutputConfig:
    directory: str | None = None
    stride: int = 0  # VTK snapshot every `stride` steps; 0 = final state only
    probes: list = field(default_factory=list)  # list[ProbeSpec]

    def validate(self, geometry: GeometrySpec) -> None:
        if self.stride < 0:
            raise ValueError(f"stride must be >= 0, got {self.stride}")
        for i, p in enumerate(self.probes):
            if not (0.0 <= p.x <= geometry.L and 0.0 <= p.y <= geometry.H):
                raise ValueError(f"probes[{i}] ({p.x}, {p.y}) lies outside the domain")


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
        "G1": HeatBC("robin", 1.0, 37.0),
        "G2": HeatBC("robin", 1.0, 37.0),
        "G3": HeatBC("neumann"),
        "G4": HeatBC("robin", 1.0, 37.0),
        "G5": HeatBC("inflow", 0.0, 20.0),
    }


@dataclass
class SimConfig:
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    time: TimeGrid = field(default_factory=TimeGrid)
    materials: MaterialsConfig = field(default_factory=MaterialsConfig)
    stabilization: StabilizationParams = field(default_factory=StabilizationParams)
    flow_bc: dict = field(default_factory=_default_flow_bc)
    heat_bc: dict = field(default_factory=_default_heat_bc)
    potential_bc: PotentialConfig = field(default_factory=PotentialConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    preset: str | None = None

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        for section in ("geometry", "time", "materials", "stabilization", "potential_bc"):
            with _config_section(section):
                getattr(self, section).validate()
        with _config_section("output"):
            self.output.validate(self.geometry)
        for section, kind, entry_type in (("flow_bc", "flow", FlowBCConfig),
                                          ("heat_bc", "heat", HeatBC)):
            bcs = getattr(self, section)
            with _config_section(section):
                check_tag_roles(bcs, kind)
            for name, entry in bcs.items():
                if not isinstance(entry, entry_type):
                    raise ConfigError(f"{section}.{name} has wrong type")
        for name, bc in self.heat_bc.items():
            with _config_section(f"heat_bc.{name}"):
                bc.validate()
        # A flow entry's role and profile are checked where its FlowBC is
        # built, so a config that validates also builds.
        self.build_flow_bcs()

    # -- builders used by the coupler ------------------------------------------

    def build_material_model(self) -> MaterialModel:
        m = self.materials
        return MaterialModel(sigma0=m.sigma0, eta0=m.eta0, nu_const=m.nu,
                             theta_b=m.theta_b, buoyancy=m.buoyancy)

    def build_flow_bcs(self) -> dict:
        out = {}
        g = self.geometry
        for name, entry in self.flow_bc.items():
            with _config_section(f"flow_bc.{name}"):
                profile = None
                if entry.role == "inflow" and entry.profile is not None:
                    profile = flow_solver.make_profile(entry.profile, H=g.H, L=g.L, r=g.r)
                out[TAG_NAMES[name]] = flow_solver.FlowBC(entry.role, profile)
        return out


@contextmanager
def _config_section(path: str):
    """Report a ValueError raised while checking or building a section as a
    ConfigError that names the section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
        cfg.heat_bc["G3"] = HeatBC("robin", 1.0, 37.0)
    if name == "test3":
        cfg.heat_bc["G1"] = HeatBC("dirichlet", 0.0, 35.0)
    return cfg


# -- strict JSON (de)serialization ------------------------------------------------


def _update_dataclass(obj, data, path: str):
    """Read the JSON object ``data`` into the dataclass ``obj`` in place."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    valid = {f.name: f for f in fields(obj)}
    for key, val in data.items():
        here = f"{path}.{key}" if path else key
        if key not in valid:
            raise ConfigError(f"unknown config key: {here}")
        setattr(obj, key, _read(getattr(obj, key), val, here, valid[key].default is None))
    return obj


def _read(current, val, path, nullable=False):
    """``val`` read against ``current``, the value it replaces: the type of
    ``current`` decides how."""
    if is_dataclass(current):
        return _update_dataclass(current, val, path)
    if isinstance(current, dict):  # tag-keyed: flow_bc, heat_bc, potential_bc.roles
        if not isinstance(val, dict):
            raise ConfigError(f"{path} must be an object")
        for tag, entry in val.items():
            if tag not in TAG_NAMES:
                raise ConfigError(f"unknown config key: {path}.{tag}")
            current[tag] = _read(current[tag], entry, f"{path}.{tag}")
        return current
    if isinstance(current, list):  # output.probes
        if not isinstance(val, list):
            raise ConfigError(f"{path} must be a list")
        return [_probe_from(v, f"{path}[{i}]") for i, v in enumerate(val)]
    if isinstance(val, dict):
        raise ConfigError(f"{path}: expected a value, got an object")
    return _coerce(current, val, path, nullable)


def _coerce(current, val, path, nullable=False):
    """``val`` checked against the current value's type; null needs ``nullable``."""
    if isinstance(current, bool):
        if not isinstance(val, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return val
    if isinstance(current, (int, float)):
        kind = "an integer" if isinstance(current, int) else "a number"
        if (isinstance(val, bool) or not isinstance(val, (int, float))
                or not np.isfinite(float(val))):  # JSON NaN/Infinity included
            raise ConfigError(f"{path}: expected {kind}")
        if isinstance(current, float):
            return float(val)
        if isinstance(val, float) and not val.is_integer():
            raise ConfigError(f"{path}: expected an integer")
        return int(val)
    if val is None and nullable:
        return None
    if not isinstance(val, str):
        raise ConfigError(f"{path}: expected a string")
    return val


def _probe_from(val, path) -> ProbeSpec:
    if not isinstance(val, dict) or set(val) != {"x", "y"}:
        raise ConfigError(f"{path}: probe must be an object with keys x, y")
    return ProbeSpec(x=_coerce(0.0, val["x"], f"{path}.x"),
                     y=_coerce(0.0, val["y"], f"{path}.y"))


def config_from_dict(data: dict) -> SimConfig:
    """Strict construction: a preset (if named) seeds defaults, then overrides apply."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)
    preset_name = data.pop("preset", None)
    cfg = preset(preset_name) if preset_name is not None else SimConfig()
    _update_dataclass(cfg, data, "")
    cfg.validate()
    return cfg


def config_to_dict(cfg: SimConfig) -> dict:
    out = asdict(cfg)
    for section in ("flow_bc", "heat_bc"):
        out[section] = dict(sorted(out[section].items()))
    if out["preset"] is None:
        del out["preset"]
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


def write_vtk(state, mesh: Mesh2D, path) -> None:
    """Legacy ASCII VTK unstructured grid with theta, phi, P and vertex velocity.

    The bubble enrichment has no vertex trace, so the exported velocity is the
    P1 (vertex) part only.
    """
    vel = fem_core.velocity_at_vertices(mesh, state.v)
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
    buf = io.StringIO()
    writer = csv.writer(buf)  # csv default lineterminator is CRLF per RFC-4180
    writer.writerow(PROBE_COLUMNS + list(extra_names))
    for i, row in enumerate(series):
        rec = [_fmt(getattr(row, c)) for c in PROBE_COLUMNS]
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


@contextmanager
def _output_path(path):
    """Report an OSError on an output path as a ConfigError that names it; the
    commands make their output location before any solve."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror}") from exc


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
    with _output_path(args.out):
        save_mesh(mesh, args.out)
    print(f"wrote {mesh.num_vertices} vertices / {mesh.num_triangles} triangles to {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_run_config(args)
    outdir = cfg.output.directory
    if outdir:
        with _output_path(outdir):
            os.makedirs(outdir, exist_ok=True)

    sim = Simulation(cfg)
    probes = [PointProbe(sim.mesh, p.x, p.y) for p in cfg.output.probes]
    probe_names = [f"theta_at_{p.x}_{p.y}" for p in cfg.output.probes]
    probe_rows = []

    def on_step(state):
        probe_rows.append([pr(state.theta) for pr in probes])
        if outdir and cfg.output.stride > 0 and state.n % cfg.output.stride == 0:
            write_vtk(state, sim.mesh, os.path.join(outdir, f"fields_{state.n:05d}.vtk"))

    code = 0
    try:
        state, rows = sim.run(on_step=on_step)
    except (linalg.SolverError, coupler.BlowUpError) as exc:
        blowup = isinstance(exc, coupler.BlowUpError)
        print(f"{'blow-up' if blowup else 'solver failure'}: {exc}", file=sys.stderr)
        if blowup:  # the guard trips before on_step, so sample the tripping state here
            probe_rows.append([pr(exc.state.theta) for pr in probes])
        code = 4 if blowup else 3
        rows = exc.rows

    if outdir and rows:
        # One CSV row per advanced step, each with its probe values.
        write_probes(rows[1:], os.path.join(outdir, "probes.csv"), probe_names,
                     probe_rows[1:])
    if code == 0:
        if outdir:
            write_vtk(state, sim.mesh, os.path.join(outdir, "final.vtk"))
        last = rows[-1]
        print(f"completed {cfg.time.M} steps: max theta {last.max_theta:.4f} at "
              f"({last.argmax_x:.4f}, {last.argmax_y:.4f}), |div v| = {last.div_norm:.2e}")
    # Every factorization of the run, with its reason (none is silent).
    for name, system in sim.systems.items():
        print(f"{name}: {system.factor.report()}")
    return code


def cmd_verify(args) -> int:
    if args.config is not None and args.preset is not None:
        raise ConfigError("at most one of --config / --preset is allowed")
    cfg = parse_config(args.config) if args.config else preset(args.preset or "test1")
    if args.out:
        with _output_path(args.out):
            os.makedirs(args.out, exist_ok=True)
    report = verify.invariant_suite(cfg)
    text = verify.format_report(report)
    print(text)
    if args.out:
        _atomic_write(os.path.join(args.out, "invariants.txt"), text + "\n")
        _atomic_write(os.path.join(args.out, "invariants.csv"), verify.format_report_csv(report))
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
