"""Manufactured-solution cases, convergence studies, and the invariant suite.

The manufactured cases live on the rectangle [0, 2] x [0, 1] with r = 0.25,
which keeps every refinement level 16x8 ... 128x64 a uniform square-cell
grid.  Stabilization is switched off (beta = 0) in the convergence studies:
the artificial viscosity is a bounded O(h) perturbation validated by its own
invariants, not part of the consistent discretization being rated.
"""

from __future__ import annotations

import copy
import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import coupler, fem_core, flow_solver, heat_solver, linalg, materials, mesh as mesh_mod
from .fem_core import dofmap_for
from .heat_solver import HeatBC, HeatProblem, StabilizationParams
from .materials import MaterialModel
from .mesh import GeometrySpec, generate_channel_mesh
from .potential_solver import (PotentialProblem, joule_density, potential_constraints,
                               solve_potential)

PI = np.pi

MMS_GEOMETRY = dict(L=2.0, H=1.0, r=0.25)
MMS_JIGGLE = 0.2  # largest interior vertex shift of an MMS mesh, in cell widths
DEFAULT_LEVELS = ((16, 8), (32, 16), (64, 32), (128, 64))


@dataclass
class ManufacturedCase:
    """Exact fields, their gradients, and the consistent strong-form source."""

    name: str
    kind: str  # potential | heat_steady | heat_unsteady | oseen
    exact: object  # scalar: f(x, y[, t]); oseen: (ux, uy) closure
    grad: object  # gradient closure matching `exact`
    source: object  # strong-form source closure
    pressure: object = None  # oseen only
    velocity: object = None  # transporting velocity for the heat cases
    final_time: float = 0.0
    steps: int = 4


def potential_case() -> ManufacturedCase:
    """phi* = sin(pi x) sin(pi y), unit conductivity, Dirichlet everywhere."""

    def exact(x, y):
        return np.sin(PI * x) * np.sin(PI * y)

    def grad(x, y):
        return (PI * np.cos(PI * x) * np.sin(PI * y),
                PI * np.sin(PI * x) * np.cos(PI * y))

    def source(x, y):
        return 2.0 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y)

    return ManufacturedCase("potential_sine", "potential", exact, grad, source)


def heat_steady_case() -> ManufacturedCase:
    """Steady advection-diffusion: theta* = sin(pi x) sin(pi y), v = (1, 0)."""

    def exact(x, y):
        return np.sin(PI * x) * np.sin(PI * y)

    def grad(x, y):
        return (PI * np.cos(PI * x) * np.sin(PI * y),
                PI * np.sin(PI * x) * np.cos(PI * y))

    def source(x, y):
        # v . grad(theta) - laplace(theta) with unit conductivity
        return (PI * np.cos(PI * x) * np.sin(PI * y)
                + 2.0 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y))

    return ManufacturedCase("heat_steady_sine", "heat_steady", exact, grad, source,
                            velocity=(1.0, 0.0))


def heat_unsteady_spatial_case() -> ManufacturedCase:
    """theta* = sin(pi x) sin(pi y) (1 + t): implicit Euler integrates the
    linear-in-time factor exactly, isolating the O(h^2) spatial error."""

    def exact(x, y, t):
        return np.sin(PI * x) * np.sin(PI * y) * (1.0 + t)

    def grad(x, y, t):
        return (PI * np.cos(PI * x) * np.sin(PI * y) * (1.0 + t),
                PI * np.sin(PI * x) * np.cos(PI * y) * (1.0 + t))

    def source(x, y, t):
        s = np.sin(PI * x) * np.sin(PI * y)
        adv = PI * np.cos(PI * x) * np.sin(PI * y)
        return s + (1.0 + t) * (adv + 2.0 * PI ** 2 * s)

    return ManufacturedCase("heat_spatial_sine", "heat_unsteady", exact, grad, source,
                            velocity=(1.0, 0.0), final_time=0.2, steps=4)


def heat_unsteady_temporal_case() -> ManufacturedCase:
    """theta* = (1 + x + 2y) e^{-t}: spatially P1-exact, so the total error is
    the pure O(dt) of implicit Euler."""

    def exact(x, y, t):
        return (1.0 + x + 2.0 * y) * np.exp(-t)

    def grad(x, y, t):
        e = np.exp(-t) * np.ones_like(np.asarray(x, dtype=float))
        return (e, 2.0 * e)

    def source(x, y, t):
        return (-(1.0 + x + 2.0 * y) + 1.0) * np.exp(-t)

    return ManufacturedCase("heat_temporal_affine", "heat_unsteady", exact, grad, source,
                            velocity=(1.0, 0.0), final_time=0.5, steps=8)


def oseen_case() -> ManufacturedCase:
    """Divergence-free trig velocity (curl of sin sin) with cos cos pressure.

    The linear Oseen system is advected by the exact velocity's MINI
    interpolant, through the assembly every flow solve uses; viscosity is 1.
    """

    def exact(x, y):
        return (PI * np.sin(PI * x) * np.cos(PI * y),
                -PI * np.cos(PI * x) * np.sin(PI * y))

    def grad(x, y):
        sx, cx = np.sin(PI * x), np.cos(PI * x)
        sy, cy = np.sin(PI * y), np.cos(PI * y)
        # rows: component, cols: d/dx, d/dy
        return ((PI ** 2 * cx * cy, -PI ** 2 * sx * sy),
                (PI ** 2 * sx * sy, -PI ** 2 * cx * cy))

    def pressure(x, y):
        return np.cos(PI * x) * np.cos(PI * y)

    def source(x, y):
        sx, cx = np.sin(PI * x), np.cos(PI * x)
        sy, cy = np.sin(PI * y), np.cos(PI * y)
        fx = PI ** 3 * sx * cy + 0.5 * PI ** 3 * np.sin(2 * PI * x) - PI * sx * cy
        fy = -PI ** 3 * cx * sy + 0.5 * PI ** 3 * np.sin(2 * PI * y) - PI * cx * sy
        return (fx, fy)

    return ManufacturedCase("oseen_trig", "oseen", exact, grad, source,
                            pressure=pressure)


# -- error norms ------------------------------------------------------------------


def l2_error_scalar(msh, nodal, exact, t=None) -> float:
    geo = fem_core.geometry(msh)
    vals = fem_core.p1_at_qp(msh, nodal)
    ex = exact(geo.qp[..., 0], geo.qp[..., 1]) if t is None else exact(
        geo.qp[..., 0], geo.qp[..., 1], t)
    return float(np.sqrt(np.einsum("tq,tq->", geo.qw, (vals - ex) ** 2)))


def h1_seminorm_error_scalar(msh, nodal, grad_exact, t=None) -> float:
    geo = fem_core.geometry(msh)
    gh = fem_core.p1_gradients(msh, nodal)[:, None, :]  # (NT,1,2)
    args = (geo.qp[..., 0], geo.qp[..., 1]) if t is None else (
        geo.qp[..., 0], geo.qp[..., 1], t)
    gx, gy = grad_exact(*args)
    diff = np.stack([gh[..., 0] - gx, gh[..., 1] - gy], axis=-1)
    return float(np.sqrt(np.einsum("tq,tqd->", geo.qw, diff ** 2)))


def l2_error_velocity(msh, u, exact) -> float:
    geo = fem_core.geometry(msh)
    uh = fem_core.velocity_at_qp(msh, u)
    ux, uy = exact(geo.qp[..., 0], geo.qp[..., 1])
    diff = np.stack([uh[..., 0] - ux, uh[..., 1] - uy], axis=-1)
    return float(np.sqrt(np.einsum("tq,tqd->", geo.qw, diff ** 2)))


def h1_seminorm_error_velocity(msh, u, grad_exact) -> float:
    geo = fem_core.geometry(msh)
    gh = fem_core.velocity_grad_at_qp(msh, u)  # (NT,NQ,2,2)
    (gxx, gxy), (gyx, gyy) = grad_exact(geo.qp[..., 0], geo.qp[..., 1])
    ge = np.stack([np.stack([gxx, gxy], axis=-1), np.stack([gyx, gyy], axis=-1)], axis=-2)
    diff = gh - ge
    return float(np.sqrt(np.einsum("tq,tqcd->", geo.qw, diff ** 2)))


# -- per-case solvers ---------------------------------------------------------------


def _mms_mesh(nx, ny):
    """MMS mesh: structured grid with interior vertices deterministically
    perturbed (by up to MMS_JIGGLE cell widths) and cell diagonals flipped at
    random, so the measured rates are the generic ones, not structured-mesh
    superconvergence."""
    spec = GeometrySpec(nx=nx, ny=ny, **MMS_GEOMETRY)
    verts, tris, edges, tags = mesh_mod.channel_mesh_arrays(spec)
    rng = np.random.default_rng(100000 + 1000 * nx + ny)
    interior = np.setdiff1d(np.arange(verts.shape[0]), edges.ravel())
    hx = MMS_GEOMETRY["L"] / nx
    hy = MMS_GEOMETRY["H"] / ny
    verts[interior, 0] += rng.uniform(-MMS_JIGGLE, MMS_JIGGLE, interior.size) * hx
    verts[interior, 1] += rng.uniform(-MMS_JIGGLE, MMS_JIGGLE, interior.size) * hy
    # The generator emits two triangles per cell: (v00, v10, v11), (v00, v11, v01).
    k = np.nonzero(rng.random(tris.shape[0] // 2) < 0.5)[0]
    v00, v10, v11 = tris[2 * k].T
    v01 = tris[2 * k + 1, 2]
    tris[2 * k] = np.column_stack([v00, v10, v01])
    tris[2 * k + 1] = np.column_stack([v10, v11, v01])
    return mesh_mod.Mesh2D(verts, tris, edges, tags)


def _velocity_dofs(msh, field):
    """Velocity dofs of the MINI interpolant of ``field``, a constant pair or
    a callable(x, y) -> (vx, vy): its vertex values, with zero bubbles."""
    dm = dofmap_for(msh)
    u = np.zeros(dm.n_velocity)
    idx = np.arange(dm.nv)
    u[dm.vx_vertex(idx)], u[dm.vy_vertex(idx)] = fem_core.sample(field, msh.vertices).T
    return u


def _unit_material() -> MaterialModel:
    return MaterialModel(nu_const=1.0, eta_law=lambda th: np.ones_like(th),
                         sigma_law=lambda th: np.ones_like(th))


def _robin_from_exact(case: ManufacturedCase, tag: int, steady: bool = False) -> HeatBC:
    """Robin data theta_l = eta d(theta*)/dn + theta* (alpha = 1, eta = 1)."""
    normal = {1: (-1.0, 0.0), 2: (0.0, -1.0), 3: (1.0, 0.0),
              4: (0.0, 1.0), 5: (0.0, 1.0)}[tag]

    def data(x, y, t):
        args = (x, y) if steady else (x, y, t)
        gx, gy = case.grad(*args)
        return normal[0] * gx + normal[1] * gy + case.exact(*args)

    return HeatBC("robin", alpha=1.0, value=data)


def solve_potential_case(case: ManufacturedCase, nx, ny):
    msh = _mms_mesh(nx, ny)
    model = _unit_material()
    problem = PotentialProblem(
        sample=materials.FieldSample(model, msh, np.full(msh.num_vertices, model.theta_b)),
        g=0.0, neumann_tags=(), dirichlet_tags=(1, 2, 3, 4, 5),
        source=lambda x, y: case.source(x, y),
    )
    phi = solve_potential(problem)
    return msh, phi


def solve_heat_steady_case(case: ManufacturedCase, nx, ny):
    msh = _mms_mesh(nx, ny)
    model = _unit_material()
    v = _velocity_dofs(msh, case.velocity)
    bc = {tag: _robin_from_exact(case, tag, steady=True) for tag in mesh_mod.ALL_TAGS}
    problem = HeatProblem(
        sample=materials.FieldSample(model, msh, np.zeros(msh.num_vertices), v),
        phi=np.zeros(msh.num_vertices), dt=None, bc=bc, stab=StabilizationParams(beta=0.0),
        include_physics_sources=False,
        extra_source=lambda x, y, t: case.source(x, y),
    )
    theta = heat_solver.solve_heat_stationary(problem)
    return msh, theta


def solve_heat_unsteady_case(case: ManufacturedCase, nx, ny, steps=None):
    msh = _mms_mesh(nx, ny)
    model = _unit_material()
    v = _velocity_dofs(msh, case.velocity)
    bc = {tag: _robin_from_exact(case, tag) for tag in mesh_mod.ALL_TAGS}
    steps = case.steps if steps is None else steps
    dt = case.final_time / steps
    theta = case.exact(msh.vertices[:, 0], msh.vertices[:, 1], 0.0)
    theta_prev2 = None
    system = linalg.LinearSystem()  # every step's matrix is the same: one factor serves all
    for n in range(1, steps + 1):
        problem = HeatProblem(
            sample=materials.FieldSample(model, msh, theta, v),
            theta_prev2=theta_prev2, phi=np.zeros(msh.num_vertices),
            dt=dt, bc=bc, stab=StabilizationParams(beta=0.0),
            time=n * dt, include_physics_sources=False,
            extra_source=case.source, system=system,
        )
        theta_new = heat_solver.solve_heat_step(problem)
        theta_prev2, theta = theta, theta_new
    return msh, theta


def solve_oseen_case(case: ManufacturedCase, nx, ny):
    msh = _mms_mesh(nx, ny)
    model = _unit_material()
    bc = {tag: flow_solver.FlowBC("inflow", case.exact) for tag in mesh_mod.ALL_TAGS}
    problem = flow_solver.FlowProblem(
        sample=materials.FieldSample(model, msh, np.full(msh.num_vertices, model.theta_b)),
        dt=None, bc=bc,
        extra_force=lambda x, y: case.source(x, y),
        pressure_pin_value=float(case.pressure(0.0, 0.0)),
    )
    # The linear Oseen solve that a flow step or a Newton step makes.
    v, p = flow_solver._solve_linear(problem, _velocity_dofs(msh, case.exact),
                                     include_time=False)
    return msh, v, p


# -- convergence studies -------------------------------------------------------------


@dataclass
class RateReport:
    case: str
    h: list
    errors: dict  # norm name -> list of errors
    slopes_ls: dict  # least-squares slope over all levels
    slopes_finest: dict  # slope from the two finest levels
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.h) < 3:
            raise ValueError("need at least 3 refinement levels for a rate")


def _fit_slopes(h, errors) -> tuple[dict, dict]:
    ls, fin = {}, {}
    logh = np.log(np.asarray(h))
    for name, errs in errors.items():
        loge = np.log(np.asarray(errs))
        ls[name] = float(np.polyfit(logh, loge, 1)[0])
        fin[name] = float((loge[-1] - loge[-2]) / (logh[-1] - logh[-2]))
    return ls, fin


def convergence_study(case: ManufacturedCase, levels=DEFAULT_LEVELS) -> RateReport:
    hs = []
    errors: dict = {}
    extra: dict = {}
    for nx, ny in levels:
        # Each level's mesh, with its per-mesh caches, and its solution are
        # freed on return, before the next level is built and factorized.
        hs.append(_level_errors(case, nx, ny, errors, extra))
    ls, fin = _fit_slopes(hs, errors)
    return RateReport(case=case.name, h=hs, errors=errors,
                      slopes_ls=ls, slopes_finest=fin, extra=extra)


def _level_errors(case: ManufacturedCase, nx: int, ny: int, errors: dict, extra: dict) -> float:
    """Solve ``case`` on the nx x ny level, append its errors to ``errors``
    (and the Oseen case's divergence data to ``extra``); returns its h."""
    if case.kind == "potential":
        msh, phi = solve_potential_case(case, nx, ny)
        errors.setdefault("L2", []).append(l2_error_scalar(msh, phi, case.exact))
        errors.setdefault("H1", []).append(h1_seminorm_error_scalar(msh, phi, case.grad))
    elif case.kind == "heat_steady":
        msh, theta = solve_heat_steady_case(case, nx, ny)
        errors.setdefault("L2", []).append(l2_error_scalar(msh, theta, case.exact))
    elif case.kind == "heat_unsteady":
        msh, theta = solve_heat_unsteady_case(case, nx, ny)
        errors.setdefault("L2", []).append(
            l2_error_scalar(msh, theta, case.exact, t=case.final_time))
    elif case.kind == "oseen":
        msh, v, p = solve_oseen_case(case, nx, ny)
        errors.setdefault("velocity_H1", []).append(
            h1_seminorm_error_velocity(msh, v, case.grad))
        errors.setdefault("velocity_L2", []).append(l2_error_velocity(msh, v, case.exact))
        errors.setdefault("pressure_L2", []).append(l2_error_scalar(msh, p, case.pressure))
        B = fem_core.assemble_divergence(msh)
        extra.setdefault("div_residual", []).append(float(np.linalg.norm(B @ v)))
        extra.setdefault("v_norm", []).append(float(np.linalg.norm(v)))
    else:
        raise ValueError(f"unknown case kind {case.kind!r}")
    return float(msh.h.max())


def temporal_convergence_study(case: ManufacturedCase, nx=64, ny=32,
                               step_counts=(8, 16, 32, 64)) -> RateReport:
    """Error vs time-step size at a fixed fine mesh."""
    errs = []
    dts = []
    for steps in step_counts:
        msh, theta = solve_heat_unsteady_case(case, nx, ny, steps=steps)
        errs.append(l2_error_scalar(msh, theta, case.exact, t=case.final_time))
        dts.append(case.final_time / steps)
    ls, fin = _fit_slopes(dts, {"L2": errs})
    return RateReport(case=case.name + "_dt", h=dts, errors={"L2": errs},
                      slopes_ls=ls, slopes_finest=fin)


def splitting_order_study(config, Ms=(10, 20, 40), M_ref=320) -> RateReport:
    """Order in time of the coupled time-lag splitting, by self-convergence.

    Runs ``config`` to its final time T with each step count in ``Ms`` and
    with ``M_ref`` steps, on the same mesh, and measures the L2 distances of
    theta, v and phi at T from the ``M_ref`` run.  ``extra["rates"]`` holds
    the observed order of each consecutive pair of ``Ms``; a consistent
    splitting gives about 1.
    """

    def final_state(M):
        cfg = copy.deepcopy(config)
        cfg.time.M = M
        sim = coupler.Simulation(cfg)
        return sim, sim.run()[0]

    sim, ref = final_state(M_ref)
    p1_mass = fem_core.assemble_mass(sim.mesh)
    mini_mass = fem_core.assemble_mini_mass(sim.mesh)
    norms = {"theta": p1_mass, "v": mini_mass, "phi": p1_mass}
    errors = {name: [] for name in norms}
    for M in Ms:
        _, state = final_state(M)
        for name, mass in norms.items():
            e = getattr(state, name) - getattr(ref, name)
            errors[name].append(float(np.sqrt(e @ (mass @ e))))
    dts = [config.time.T / M for M in Ms]
    ls, fin = _fit_slopes(dts, errors)
    rates = {name: [float(np.log(e0 / e1) / np.log(d0 / d1))
                    for e0, e1, d0, d1 in zip(errs, errs[1:], dts, dts[1:])]
             for name, errs in errors.items()}
    return RateReport(case="splitting", h=dts, errors=errors, slopes_ls=ls,
                      slopes_finest=fin, extra={"rates": rates})


# -- finite-difference source verification -------------------------------------------


def _fd_grad(f, x, y, h):
    return ((f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h))


def _fd_laplace(f, x, y, h):
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4 * f(x, y)) / h ** 2


def finite_difference_source_check(case: ManufacturedCase, npoints: int = 20,
                                   h: float = 1e-4, seed: int = 1234) -> float:
    """Max relative mismatch between the analytic source and a central-difference
    application of the strong operator at random interior points."""
    rng = np.random.default_rng(seed)
    L, H = MMS_GEOMETRY["L"], MMS_GEOMETRY["H"]
    x = rng.uniform(0.1 * L, 0.9 * L, npoints)
    y = rng.uniform(0.1 * H, 0.9 * H, npoints)

    if case.kind == "potential":
        op = -_fd_laplace(case.exact, x, y, h)
        src = case.source(x, y)
    elif case.kind == "heat_steady":
        gx, gy = _fd_grad(case.exact, x, y, h)
        op = case.velocity[0] * gx + case.velocity[1] * gy - _fd_laplace(case.exact, x, y, h)
        src = case.source(x, y)
    elif case.kind == "heat_unsteady":
        t = 0.5 * case.final_time
        ft = lambda xx, yy: case.exact(xx, yy, t)  # noqa: E731
        dtheta_dt = (case.exact(x, y, t + h) - case.exact(x, y, t - h)) / (2 * h)
        gx, gy = _fd_grad(ft, x, y, h)
        op = (dtheta_dt + case.velocity[0] * gx + case.velocity[1] * gy
              - _fd_laplace(ft, x, y, h))
        src = case.source(x, y, t)
    elif case.kind == "oseen":
        ux = lambda xx, yy: case.exact(xx, yy)[0]  # noqa: E731
        uy = lambda xx, yy: case.exact(xx, yy)[1]  # noqa: E731
        u, v = case.exact(x, y)
        uxx, uxy = _fd_grad(ux, x, y, h)
        uyx, uyy = _fd_grad(uy, x, y, h)
        px, py = _fd_grad(case.pressure, x, y, h)
        nu = 1.0
        # -div(nu D(u)) = -(nu/2) laplace(u) for divergence-free u
        fx = -0.5 * nu * _fd_laplace(ux, x, y, h) + u * uxx + v * uxy + px
        fy = -0.5 * nu * _fd_laplace(uy, x, y, h) + u * uyx + v * uyy + py
        sx, sy = case.source(x, y)
        op = np.concatenate([fx, fy])
        src = np.concatenate([sx, sy])
    else:
        raise ValueError(f"unknown case kind {case.kind!r}")
    scale = max(1.0, float(np.max(np.abs(src))))
    return float(np.max(np.abs(op - src)) / scale)


# -- invariant suite -------------------------------------------------------------------


def _step_audit(config) -> dict:
    """One full run of the config collecting per-step invariant data."""
    sim = coupler.Simulation(config)
    audit = {
        "eta_bound_violation": 0.0,
        "eta_zero_velocity_max": 0.0,
        "source_min": np.inf,
        "load_min": np.inf,
        "div_max": 0.0,
        "stage_order_ok": True,
        "max_theta_series": [],
        "centroid_series": [],
        "argmax_series": [],
        "blowup": False,
    }
    beta, h = sim.stab.beta, sim.mesh.h
    prev = None  # the state before the one on_step receives

    def on_step(state):
        nonlocal prev
        diag = state.diag
        audit["max_theta_series"].append(diag.max_theta)
        audit["centroid_series"].append(diag.centroid_x)
        audit["argmax_series"].append((diag.argmax_x, diag.argmax_y))
        if prev is not None:
            art = state.art_visc_cells
            # theta^{n-1} = prev.theta and v^{n-1} = prev.v, sampled afresh.
            lagged = materials.FieldSample(sim.model, sim.mesh, prev.theta, prev.v)
            vmax_k = heat_solver._cell_speed_max(lagged.coeffs, lagged.v)
            audit["eta_bound_violation"] = max(
                audit["eta_bound_violation"],
                float(np.max(art - beta * vmax_k * h)), float(np.max(-art)))
            still = vmax_k == 0.0
            if np.any(still):
                audit["eta_zero_velocity_max"] = max(
                    audit["eta_zero_velocity_max"], float(np.max(np.abs(art[still]))))
            # The step's heat source: the laws at theta^{n-1}, v^n and phi^n.
            src = (lagged.nu * flow_solver.viscous_dissipation(sim.mesh, state.v)
                   + joule_density(sim.mesh, lagged.sigma, state.phi))
            audit["source_min"] = min(audit["source_min"], float(src.min()))
            load = fem_core.assemble_scalar_load(sim.mesh, src)
            audit["load_min"] = min(audit["load_min"], float(load.min()))
            audit["div_max"] = max(audit["div_max"],
                                   diag.div_norm / (1.0 + float(np.linalg.norm(state.v))))
            names = [s[0] for s in diag.stages]
            times = [s[1] for s in diag.stages]
            spans = [t for _, start, end in diag.stages for t in (start, end)]
            if (names != ["potential", "flow", "heat"] or times != sorted(times)
                    or spans != sorted(spans)):
                audit["stage_order_ok"] = False
        prev = state

    try:
        sim.run(on_step=on_step)
    except coupler.BlowUpError:
        audit["blowup"] = True
    return audit


def _equilibrium_config(config):
    cfg = copy.deepcopy(config)
    cfg.time.M = 20
    cfg.potential_bc.g = 0.0
    for name in cfg.flow_bc:
        if cfg.flow_bc[name].role == "inflow":
            cfg.flow_bc[name].profile = "zero"
    for name in cfg.heat_bc:
        if cfg.heat_bc[name].role in ("robin", "dirichlet", "inflow"):
            cfg.heat_bc[name].value = cfg.materials.theta_b
    cfg.materials.buoyancy.enabled = False
    return cfg


# Registry of runtime-checkable invariants, one entry per documented module
# invariant; the registry count test keeps it in sync with the docs.
INVARIANT_NAMES = [
    "mesh.area_identity",
    "mesh.boundary_length_identity",
    "mesh.edge_sharing",
    "linalg.transpose_involution",
    "linalg.residual_contracts",
    "linalg.dirichlet_idempotent",
    "fem.quadrature_bubble_exactness",
    "fem.stiffness_constant_nullspace",
    "fem.patch_test",
    "materials.a1_bounds",
    "materials.sigma_monotonicity",
    "materials.body_force_affine",
    "potential.spd_after_elimination",
    "potential.linearity_in_g",
    "potential.conductivity_scaling",
    "potential.joule_nonnegative",
    "flow.divergence_contract",
    "flow.dissipation_nonnegative",
    "heat.art_visc_bound",
    "heat.art_visc_zero_velocity",
    "heat.source_load_nonnegative",
    "coupler.stage_order",
    "flow.galilean_constant",
    "flow.stokes_energy_decay",
    "heat.equilibrium_fixed_point",
    "heat.l2_contraction",
    "coupler.determinism",
]


def invariant_suite(config) -> dict:
    """Run every registered invariant against the given configuration.

    Returns {"checks": [{name, passed, detail}...], "passed": bool}.
    """
    checks = []

    def record(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": str(detail)})

    def record_crash(names, detail):
        """Record each of ``names`` that a crashed block left out as failed."""
        done = {c["name"] for c in checks}
        for name in names:
            if name not in done:
                record(name, False, detail)

    msh = generate_channel_mesh(config.geometry)
    g = config.geometry
    areas = float(msh.areas.sum())
    record("mesh.area_identity", abs(areas - g.L * g.H) <= 1e-12 * g.L * g.H,
           f"sum(areas)={areas!r}")
    edges = msh.boundary_edges
    blen = float(np.linalg.norm(msh.vertices[edges[:, 1]] - msh.vertices[edges[:, 0]],
                                axis=1).sum())
    record("mesh.boundary_length_identity",
           abs(blen - 2 * (g.L + g.H)) <= 1e-12 * 2 * (g.L + g.H), f"perimeter={blen!r}")
    counts = msh._edge_use_counts()
    boundary_keys = {(int(min(a, b)), int(max(a, b))) for a, b in edges}
    ok = all((c == 1 and k in boundary_keys) or (c == 2 and k not in boundary_keys)
             for k, c in counts.items())
    record("mesh.edge_sharing", ok)

    rng = np.random.default_rng(42)
    A = fem_core.assemble_stiffness(msh, 1.0)
    record("linalg.transpose_involution",
           (abs(A.T.T - A)).max() == 0.0)
    affine = 1.0 + 2.0 * msh.vertices[:, 0] - 3.0 * msh.vertices[:, 1]
    bdofs = np.unique(edges.ravel())
    Ap, bp = linalg.apply_dirichlet(A, np.zeros(msh.num_vertices), bdofs, affine[bdofs])
    try:
        import scipy.sparse as sp

        n = 40
        lap = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                       [-1, 0, 1], format="csr")
        b = rng.standard_normal(n)
        order = fem_core.vertex_order(msh)
        rel = []
        for M, rhs, o in ((lap, b, None), (Ap, bp, order)):  # natural, vertex order
            x = linalg.solve_lu(M, rhs, order=o)
            rel.append(np.linalg.norm(rhs - M @ x) / np.linalg.norm(rhs))
        # The constrained solve of the patch-test system: the eliminated
        # residual holds and the constrained entries are exact.
        x = linalg.LinearSystem(bdofs, affine[bdofs], order).solve(A, np.zeros(msh.num_vertices))
        rel.append(np.linalg.norm(bp - Ap @ x) / np.linalg.norm(bp))
        exact = np.array_equal(x[bdofs], affine[bdofs])
        record("linalg.residual_contracts", max(rel) <= 1e-10 and exact,
               f"max relative residual {max(rel):.2e}, constrained entries exact: {exact}")
        A1, b1 = linalg.apply_dirichlet(lap, b, [0, n - 1], [1.0, 2.0])
        A2, b2 = linalg.apply_dirichlet(A1, b1, [0, n - 1], [1.0, 2.0])
        record("linalg.dirichlet_idempotent",
               (abs(A2 - A1)).max() == 0.0 and np.array_equal(b1, b2))
    except Exception as exc:
        record_crash(("linalg.residual_contracts", "linalg.dirichlet_idempotent"),
                     f"crashed: {exc}")

    bary = fem_core.TRI_RULE.points
    w = fem_core.TRI_RULE.weights
    bub = fem_core.ElementP1Bubble.bubble_values(bary)
    int_bb = float(np.sum(w * bub * bub))
    int_l1l2b = float(np.sum(w * bary[:, 0] * bary[:, 1] * bub))
    record("fem.quadrature_bubble_exactness",
           abs(int_bb - 729.0 * 8.0 / 40320.0) < 1e-12
           and abs(int_l1l2b - 27.0 * 4.0 / 5040.0) < 1e-12,
           f"int(b^2)={int_bb!r}")
    ones = np.ones(msh.num_vertices)
    record("fem.stiffness_constant_nullspace", float(np.abs(A @ ones).max()) < 1e-10)
    try:
        err = float(np.abs(linalg.solve_lu(Ap, bp) - affine).max())
        record("fem.patch_test", err <= 1e-10, f"max err {err:.2e}")
    except Exception as exc:
        record("fem.patch_test", False, f"crashed: {exc}")

    model = config.build_material_model()
    rep = materials.validate_bounds(model)
    cont_ok = (rep["continuity"][("sigma", 100.0)] <= 1e-12
               and rep["continuity"][("sigma", 105.0)] <= 1e-12
               and rep["continuity"][("eta", 100.0)] <= 1e-12)
    record("materials.a1_bounds", rep["passed"] and cont_ok,
           "; ".join(rep["violations"]) or f"sigma jump at 99C: {rep['sigma_jump_99']:.2e}")
    grid = np.arange(-20.0, 150.0, 0.25)
    sig = np.asarray(model.sigma(grid))
    dif = np.diff(sig)
    seg = lambda lo, hi: dif[(grid[:-1] >= lo) & (grid[1:] <= hi)]  # noqa: E731
    mono = (np.all(seg(-20, 99) >= -1e-15) and np.all(np.abs(seg(99.3, 100)) <= 1e-15)
            and np.all(seg(100.3, 105) <= 1e-15) and np.all(np.abs(seg(105.3, 150)) <= 1e-15))
    record("materials.sigma_monotonicity", bool(mono) and model.sigma0 > 0)
    th1, th2 = 45.0, 61.0
    f1 = np.asarray(model.body_force(th1))
    f2 = np.asarray(model.body_force(th2))
    fb = np.asarray(model.body_force(model.theta_b))
    fsum = np.asarray(model.body_force(th1 + th2 - model.theta_b))
    record("materials.body_force_affine", np.allclose(f1 + f2, fb + fsum, atol=1e-14))

    theta_b_field = np.full(msh.num_vertices, model.theta_b)
    try:
        pot = PotentialProblem(sample=materials.FieldSample(model, msh, theta_b_field),
                               g=config.potential_bc.g,
                               neumann_tags=config.potential_bc.neumann_tags,
                               dirichlet_tags=config.potential_bc.dirichlet_tags)
        Apot = fem_core.assemble_stiffness(msh, pot.sample.sigma)
        dir_dofs, dir_vals = potential_constraints(msh, pot.dirichlet_tags)
        Apot_e, _ = linalg.apply_dirichlet(Apot, np.zeros(msh.num_vertices), dir_dofs, dir_vals)
        x = rng.standard_normal(msh.num_vertices)
        record("potential.spd_after_elimination", float(x @ (Apot_e @ x)) > 0.0)
        if config.potential_bc.g != 0.0 and pot.neumann_tags:
            phi1 = solve_potential(pot)
            pot2 = copy.copy(pot)
            pot2.g = 2.0 * config.potential_bc.g
            phi2 = solve_potential(pot2)
            record("potential.linearity_in_g",
                   float(np.abs(phi2 - 2 * phi1).max())
                   <= 1e-7 * max(1e-30, float(np.abs(phi1).max())),
                   f"{float(np.abs(phi2 - 2 * phi1).max()):.2e}")
            scaled = MaterialModel(sigma0=3.0 * model.sigma0, eta0=model.eta0,
                                   nu_const=model.nu_const, theta_b=model.theta_b)
            pot3 = copy.copy(pot)
            pot3.sample = materials.FieldSample(scaled, msh, theta_b_field)
            phi3 = solve_potential(pot3)
            record("potential.conductivity_scaling",
                   float(np.abs(3.0 * phi3 - phi1).max()) <= 1e-7 * float(np.abs(phi1).max()))
            jd = joule_density(msh, pot.sample.sigma, phi1)
            record("potential.joule_nonnegative", float(jd.min()) >= 0.0)
        else:
            phi0 = solve_potential(pot)
            record("potential.linearity_in_g", float(np.abs(phi0).max()) == 0.0, "g = 0")
            record("potential.conductivity_scaling", True, "g = 0")
            record("potential.joule_nonnegative", True, "g = 0")
    except Exception as exc:
        record_crash(("potential.spd_after_elimination", "potential.linearity_in_g",
                      "potential.conductivity_scaling", "potential.joule_nonnegative"),
                     f"crashed: {exc}")

    audit_names = ("flow.divergence_contract", "flow.dissipation_nonnegative",
                   "heat.art_visc_bound", "heat.art_visc_zero_velocity",
                   "heat.source_load_nonnegative", "coupler.stage_order")
    try:
        audit = _step_audit(config)
    except Exception as exc:
        audit = None
        record_crash(audit_names, f"run crashed: {exc}")
    if audit is not None:
        record("flow.divergence_contract", audit["div_max"] <= 1e-8,
               f"max |Bv|/(1+|v|) = {audit['div_max']:.2e}")
        record("flow.dissipation_nonnegative", audit["source_min"] >= 0.0,
               f"min source {audit['source_min']:.2e}")
        record("heat.art_visc_bound", audit["eta_bound_violation"] <= 1e-15,
               f"max violation {audit['eta_bound_violation']:.2e}")
        record("heat.art_visc_zero_velocity", audit["eta_zero_velocity_max"] == 0.0)
        record("heat.source_load_nonnegative", audit["load_min"] >= -1e-14,
               f"min load entry {audit['load_min']:.2e}")
        record("coupler.stage_order", audit["stage_order_ok"])

    small = generate_channel_mesh(GeometrySpec(nx=12, ny=6, **MMS_GEOMETRY))
    dms = dofmap_for(small)
    try:
        def const_profile(x, y):
            return (np.ones_like(np.asarray(x, dtype=float)),
                    np.zeros_like(np.asarray(x, dtype=float)))

        bc_const = {t: flow_solver.FlowBC("inflow", const_profile)
                    for t in mesh_mod.ALL_TAGS}
        fp = flow_solver.FlowProblem(
            sample=materials.FieldSample(model, small, np.full(small.num_vertices, model.theta_b)),
            dt=None, bc=bc_const)
        vconst, _ = flow_solver.solve_flow_stationary(fp)
        vv = fem_core.velocity_at_vertices(small, vconst)
        record("flow.galilean_constant",
               float(np.abs(vv - np.array([1.0, 0.0])).max()) <= 1e-8,
               f"max dev {float(np.abs(vv - np.array([1.0, 0.0])).max()):.2e}")
    except Exception as exc:
        record("flow.galilean_constant", False, f"crashed: {exc}")

    try:
        bc_wall = {t: flow_solver.FlowBC("noslip") for t in mesh_mod.ALL_TAGS}
        rng2 = np.random.default_rng(7)
        vstart = np.zeros(dms.n_velocity)
        interior = np.setdiff1d(np.arange(dms.nv),
                                np.unique(small.boundary_edges.ravel()))
        vstart[dms.vx_vertex(interior)] = rng2.standard_normal(interior.size)
        vstart[dms.vy_vertex(interior)] = rng2.standard_normal(interior.size)
        Mv = fem_core.assemble_mini_mass(small)
        decay_ok = True
        vprev = vstart
        for _ in range(3):
            fps = flow_solver.FlowProblem(
                sample=materials.FieldSample(model, small,
                                             np.full(small.num_vertices, model.theta_b), vprev),
                dt=0.05, bc=bc_wall, include_convection=False)
            vnew, _ = flow_solver.solve_flow_step(fps)
            if vnew @ (Mv @ vnew) > vprev @ (Mv @ vprev) * (1 + 1e-12):
                decay_ok = False
            vprev = vnew
        record("flow.stokes_energy_decay", decay_ok)
    except Exception as exc:
        record("flow.stokes_energy_decay", False, f"crashed: {exc}")

    try:
        eq_cfg = _equilibrium_config(config)
        eq_audit = _step_audit(eq_cfg)
        dev = max(abs(m - eq_cfg.materials.theta_b)
                  for m in eq_audit["max_theta_series"])
        record("heat.equilibrium_fixed_point", dev <= 1e-10, f"max deviation {dev:.2e}")
    except Exception as exc:
        record("heat.equilibrium_fixed_point", False, f"crashed: {exc}")

    try:
        nvs = small.num_vertices
        bc_rob = {t: HeatBC("robin", 1.0, model.theta_b) for t in mesh_mod.ALL_TAGS}
        th = np.full(nvs, model.theta_b + 13.0)
        Mh = fem_core.assemble_mass(small)
        contraction_ok = True
        prev_norm = None
        for _ in range(4):
            hp = HeatProblem(sample=materials.FieldSample(model, small, th,
                                                          np.zeros(dms.n_velocity)),
                             phi=np.zeros(nvs), dt=0.1,
                             bc=bc_rob, stab=StabilizationParams(beta=0.0),
                             include_physics_sources=False)
            th = heat_solver.solve_heat_step(hp)
            diff = th - model.theta_b
            nrm = float(np.sqrt(diff @ (Mh @ diff)))
            if prev_norm is not None and nrm > prev_norm * (1 + 1e-12):
                contraction_ok = False
            prev_norm = nrm
        record("heat.l2_contraction", contraction_ok)
    except Exception as exc:
        record("heat.l2_contraction", False, f"crashed: {exc}")

    try:
        det_cfg = copy.deepcopy(config)
        det_cfg.time.M = min(3, config.time.M)
        _, rows_a = coupler.Simulation(det_cfg).run()
        _, rows_b = coupler.Simulation(det_cfg).run()
        same = all(
            ra.max_theta == rb.max_theta and ra.int_theta == rb.int_theta
            and ra.div_norm == rb.div_norm
            and (ra.centroid_x == rb.centroid_x
                 or (np.isnan(ra.centroid_x) and np.isnan(rb.centroid_x)))
            for ra, rb in zip(rows_a, rows_b))
        record("coupler.determinism", same and len(rows_a) == len(rows_b))
    except coupler.BlowUpError:
        record("coupler.determinism", True, "blow-up (deterministically) reached")
    except Exception as exc:
        record("coupler.determinism", False, f"crashed: {exc}")

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


def format_report(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        lines.append(f"[{status}] {c['name']}{detail}")
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
                 f"({sum(c['passed'] for c in report['checks'])}/{len(report['checks'])})")
    return "\n".join(lines)


def write_report_csv(report: dict, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "passed", "detail"])
    for c in report["checks"]:
        writer.writerow([c["name"], c["passed"], c["detail"]])
    from .sim_cli import _atomic_write

    _atomic_write(path, buf.getvalue())
