"""Manufactured-solution cases, convergence studies, and the invariant suite.

The manufactured cases live on the rectangle [0, 2] x [0, 1] with r = 0.25,
which keeps every refinement level 16x8 ... 128x64 a uniform square-cell
grid.  Stabilization is switched off (beta = 0) in the convergence studies:
the artificial viscosity is a bounded O(h) perturbation validated by its own
invariants, not part of the consistent discretization being rated.

A case's ``kind`` names its entry of :data:`CASE_KINDS`: the level solver,
the error norms each level records and the strong operator of the
finite-difference source check.  The invariant suite runs the blocks of
:data:`INVARIANT_BLOCKS` in order; each declares the names of the checks it
records, and :data:`INVARIANT_NAMES` is read from them.
"""

from __future__ import annotations

import copy
import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

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
    kind: str  # a key of CASE_KINDS
    exact: object  # scalar: f(x, y[, t]); oseen: (ux, uy) closure
    grad: object  # gradient closure matching `exact`
    source: object  # strong-form source closure
    pressure: object = None  # oseen only
    outlet: tuple = ()  # oseen only: the do-nothing tags; the others are Dirichlet
    velocity: object = None  # transporting velocity for the heat cases
    final_time: float = 0.0
    steps: int = 4


def _sine(x, y, c=1.0):
    """c sin(pi x) sin(pi y), the field of the sine cases (c times it, for the
    sources, in the order the product is rounded)."""
    return c * np.sin(PI * x) * np.sin(PI * y)


def _sine_grad(x, y):
    """The gradient of sin(pi x) sin(pi y)."""
    return (PI * np.cos(PI * x) * np.sin(PI * y),
            PI * np.sin(PI * x) * np.cos(PI * y))


def potential_case() -> ManufacturedCase:
    """phi* = sin(pi x) sin(pi y), unit conductivity, Dirichlet everywhere."""

    def source(x, y):
        return _sine(x, y, 2.0 * PI ** 2)

    return ManufacturedCase("potential_sine", "potential", _sine, _sine_grad, source)


def heat_steady_case() -> ManufacturedCase:
    """Steady advection-diffusion: theta* = sin(pi x) sin(pi y), v = (1, 0)."""

    def source(x, y):
        # v . grad(theta) - laplace(theta) with unit conductivity
        return _sine_grad(x, y)[0] + _sine(x, y, 2.0 * PI ** 2)

    return ManufacturedCase("heat_steady_sine", "heat_steady", _sine, _sine_grad, source,
                            velocity=(1.0, 0.0))


def heat_unsteady_spatial_case() -> ManufacturedCase:
    """theta* = sin(pi x) sin(pi y) (1 + t): implicit Euler integrates the
    linear-in-time factor exactly, isolating the O(h^2) spatial error."""

    def exact(x, y, t):
        return _sine(x, y) * (1.0 + t)

    def grad(x, y, t):
        return tuple(g * (1.0 + t) for g in _sine_grad(x, y))

    def source(x, y, t):
        s = _sine(x, y)
        return s + (1.0 + t) * (_sine_grad(x, y)[0] + 2.0 * PI ** 2 * s)

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


def oseen_outlet_case() -> ManufacturedCase:
    """C3's field shifted in x, u*(x, y) = C3's u*(X, y) with X = x + 1/4,
    and p* = D_11(u*) = pi^2 cos(pi X) cos(pi y), viscosity 1, leaving
    through a do-nothing G3 at x = 2.  D_12(u*) vanishes everywhere, so the
    traction (D(u*) - p* I) n is zero there while u*.n is not: the case rates
    the natural condition and the convective surface term of the outlet
    (Heywood, Rannacher & Turek, IJNMF 22, 1996).  The outlet fixes the
    pressure level, so no pressure dof is pinned."""
    c3, shift = oseen_case(), 0.25

    def pressure(x, y):
        return PI ** 2 * np.cos(PI * (x + shift)) * np.cos(PI * y)

    def source(x, y):
        # -div D(u*) = pi^2 u* cancels the pressure gradient's sine terms in
        # x and doubles them in y; (u*.grad) u* is C3's, shifted.
        X = x + shift
        fx = 0.5 * PI ** 3 * np.sin(2 * PI * X)
        fy = 0.5 * PI ** 3 * np.sin(2 * PI * y) - 2.0 * PI ** 3 * np.cos(PI * X) * np.sin(PI * y)
        return (fx, fy)

    return ManufacturedCase("oseen_outlet", "oseen", lambda x, y: c3.exact(x + shift, y),
                            lambda x, y: c3.grad(x + shift, y), source, pressure=pressure,
                            outlet=(mesh_mod.GAMMA3,))


def oseen_unsteady_case() -> ManufacturedCase:
    """u* = g(t) u0 = e^t (a y + b x, c x - b y) with a = 1, b = 0.5,
    c = -0.7, and p* = g(t) (x + 2y): divergence-free, and linear in space,
    so they lie in the MINI x P1 space and the error at T is the time
    discretization's alone.  D(u0) is constant, so the viscous term vanishes
    and the force is g' u0 + g^2 (grad u0) u0 + g grad p0."""
    a, b, c = 1.0, 0.5, -0.7

    def exact(x, y, t):
        g = np.exp(t)
        return (g * (a * y + b * x), g * (c * x - b * y))

    def grad(x, y, t):
        g = np.exp(t) * np.ones_like(np.asarray(x, dtype=float))
        return ((b * g, a * g), (c * g, -b * g))

    def pressure(x, y, t):
        return np.exp(t) * (x + 2.0 * y)

    def source(x, y, t):
        g = np.exp(t)
        ux, uy = a * y + b * x, c * x - b * y
        return (g * ux + g * g * (b * ux + a * uy) + g,
                g * uy + g * g * (c * ux - b * uy) + 2.0 * g)

    return ManufacturedCase("oseen_unsteady_linear", "oseen_unsteady", exact, grad, source,
                            pressure=pressure, final_time=1.0, steps=16)


# -- error norms ------------------------------------------------------------------


def _error_norm(msh, approx, exact, t=None, pts=None) -> float:
    """sqrt(sum_q w_q |approx - exact|^2) over the mesh's quad points: ``approx``
    is the discrete field there, (NT, NQ) or (NT, 1), then its component axes,
    and ``exact`` the closure of (x, y[, t]) whose nested components fill them.
    ``pts`` are the quad points (:func:`fem_core.quadrature_points`), formed
    here when None."""
    pts = fem_core.quadrature_points(msh) if pts is None else pts
    ex = np.asarray(exact(pts[..., 0], pts[..., 1], *(() if t is None else (t,))))
    # The components move behind (NT, NQ), and the sum runs in C order over them.
    ex = np.ascontiguousarray(np.moveaxis(ex, range(ex.ndim - 2), range(2 - ex.ndim, 0)))
    sq = (approx - ex) ** 2
    per_point = sq.reshape(sq.shape[:2] + (-1,)).sum(axis=2)  # (NT, NQ)
    return float(np.sqrt(fem_core.integrate_qp(msh, per_point)))


def l2_error_scalar(msh, nodal, exact, t=None, pts=None) -> float:
    return _error_norm(msh, fem_core.p1_at_qp(msh, nodal), exact, t, pts)


def h1_seminorm_error_scalar(msh, nodal, grad_exact, t=None, pts=None) -> float:
    return _error_norm(msh, fem_core.p1_gradients(msh, nodal)[:, None, :], grad_exact, t, pts)


def l2_error_velocity(msh, u, exact, t=None, pts=None) -> float:
    return _error_norm(msh, fem_core.velocity_at_qp(msh, u), exact, t, pts)


def h1_seminorm_error_velocity(msh, u, grad_exact, t=None, pts=None) -> float:
    return _error_norm(msh, fem_core.velocity_grad_at_qp(msh, u), grad_exact, t, pts)


# -- per-case solvers ---------------------------------------------------------------


def _mms_mesh(nx, ny):
    """MMS mesh: structured grid with interior vertices deterministically
    perturbed (by up to MMS_JIGGLE cell widths) and cell diagonals flipped at
    random, so the measured rates are the generic ones, not structured-mesh
    superconvergence."""
    spec = GeometrySpec(nx=nx, ny=ny, **MMS_GEOMETRY)
    verts, tris, edges, tags = mesh_mod.channel_mesh_arrays(spec)
    rng = np.random.default_rng(100000 + 1000 * nx + ny)
    on_boundary = np.zeros(verts.shape[0], dtype=bool)
    on_boundary[edges] = True
    interior = np.flatnonzero(~on_boundary)
    hx = MMS_GEOMETRY["L"] / nx
    hy = MMS_GEOMETRY["H"] / ny
    verts[interior, 0] += rng.uniform(-MMS_JIGGLE, MMS_JIGGLE, interior.size) * hx
    verts[interior, 1] += rng.uniform(-MMS_JIGGLE, MMS_JIGGLE, interior.size) * hy
    # The generator emits two triangles per cell: (v00, v10, v11), (v00, v11, v01);
    # a flipped cell is (v00, v10, v01), (v10, v11, v01).
    cells = tris.reshape(-1, 6)
    k = np.nonzero(rng.random(cells.shape[0]) < 0.5)[0]
    cells[k] = cells[k][:, [0, 1, 5, 1, 2, 5]]
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


def _at_theta_b(model: MaterialModel, msh) -> materials.TemperatureSample:
    """The sample of ``model``'s body temperature on ``msh``."""
    return materials.TemperatureSample(model, msh, np.full(msh.num_vertices, model.theta_b))


def _in_time(case: ManufacturedCase, f):
    """``f``, one of ``case``'s closures, as a closure of (x, y, t): a steady
    case's closures do not take t."""
    return f if _kind(case).transient else (lambda x, y, t: f(x, y))


def _robin_from_exact(exact, grad, tag: int) -> HeatBC:
    """Robin data theta_l = eta d(theta*)/dn + theta* (alpha = 1, eta = 1) of
    the exact field ``exact`` with gradient ``grad``, closures of (x, y, t)."""
    normal = {1: (-1.0, 0.0), 2: (0.0, -1.0), 3: (1.0, 0.0),
              4: (0.0, 1.0), 5: (0.0, 1.0)}[tag]

    def data(x, y, t):
        gx, gy = grad(x, y, t)
        return normal[0] * gx + normal[1] * gy + exact(x, y, t)

    return HeatBC("robin", alpha=1.0, value=data)


def _heat_problem(case: ManufacturedCase, msh, theta, velocity=None, **fields) -> HeatProblem:
    """The heat problem of a scalar case at the temperature ``theta``: the unit
    material, the case's velocity, Robin data from the exact field on every
    tag, beta = 0 and the case's source as the only source; ``fields`` holds
    dt and the other time-step fields.  The case's velocity does not change,
    so it both transports and lags; ``velocity``, the sample of an earlier
    problem, serves again with the values it holds."""
    exact, grad = _in_time(case, case.exact), _in_time(case, case.grad)
    if velocity is None:
        velocity = flow_solver.VelocitySample(msh, _velocity_dofs(msh, case.velocity))
    return HeatProblem(
        temperature=materials.TemperatureSample(_unit_material(), msh, theta),
        transport=velocity, velocity=velocity, phi=np.zeros(msh.num_vertices),
        bc={tag: _robin_from_exact(exact, grad, tag) for tag in mesh_mod.ALL_TAGS},
        stab=StabilizationParams(beta=0.0), include_physics_sources=False,
        extra_source=_in_time(case, case.source), **fields)


def solve_potential_case(case: ManufacturedCase, nx, ny):
    msh = _mms_mesh(nx, ny)
    problem = PotentialProblem(
        temperature=_at_theta_b(_unit_material(), msh),
        g=0.0, neumann_tags=(), dirichlet_tags=(1, 2, 3, 4, 5), source=case.source,
    )
    return msh, solve_potential(problem)


def solve_heat_steady_case(case: ManufacturedCase, nx, ny):
    msh = _mms_mesh(nx, ny)
    problem = _heat_problem(case, msh, np.zeros(msh.num_vertices), dt=None)
    return msh, heat_solver.solve_heat_stationary(problem)


def solve_heat_unsteady_case(case: ManufacturedCase, nx, ny, steps=None):
    msh = _mms_mesh(nx, ny)
    steps = case.steps if steps is None else steps
    dt = case.final_time / steps
    theta = case.exact(msh.vertices[:, 0], msh.vertices[:, 1], 0.0)
    theta_prev2 = velocity = None
    system = linalg.LinearSystem()  # every step's matrix is the same: one factor serves all
    for n in range(1, steps + 1):
        # The velocity is the same at every step: its values are evaluated once.
        problem = _heat_problem(case, msh, theta, velocity, theta_prev2=theta_prev2, dt=dt,
                                time=n * dt, system=system)
        velocity = problem.transport
        theta_prev2, theta = theta, heat_solver.solve_heat_step(problem)
    return msh, theta


def solve_oseen_case(case: ManufacturedCase, nx, ny):
    msh = _mms_mesh(nx, ny)
    bc = {tag: flow_solver.FlowBC("donothing") if tag in case.outlet
          else flow_solver.FlowBC("inflow", case.exact) for tag in mesh_mod.ALL_TAGS}
    problem = flow_solver.FlowProblem(
        temperature=_at_theta_b(_unit_material(), msh), dt=None, bc=bc,
        extra_force=case.source,
        pressure_pin_value=float(case.pressure(0.0, 0.0)),
    )
    # The linear Oseen solve that a flow step or a Newton step makes.
    v, p = flow_solver._solve_linear(problem, _velocity_dofs(msh, case.exact))
    return msh, v, p


def solve_oseen_unsteady_case(case: ManufacturedCase, nx, ny, steps=None):
    """``steps`` flow steps (:func:`flow_solver.solve_flow_step`) from the
    exact (v, P) at t = 0 to the case's final time, on one system.  Each
    step is given a new ``bc`` dict, with u*(t^n) on every tag, the force at
    t^n and the pressure pinned to p*(0, 0, t^n)."""
    msh = _mms_mesh(nx, ny)
    steps = case.steps if steps is None else steps
    dt = case.final_time / steps
    x, y = msh.vertices[:, 0], msh.vertices[:, 1]
    v, p = _velocity_dofs(msh, lambda xx, yy: case.exact(xx, yy, 0.0)), case.pressure(x, y, 0.0)
    temperature = _at_theta_b(_unit_material(), msh)
    system = linalg.LinearSystem()
    for n in range(1, steps + 1):
        t = n * dt
        profile = lambda xx, yy, t=t: case.exact(xx, yy, t)  # noqa: E731
        problem = flow_solver.FlowProblem(
            temperature=temperature, dt=dt,
            bc={tag: flow_solver.FlowBC("inflow", profile) for tag in mesh_mod.ALL_TAGS},
            extra_force=lambda xx, yy, t=t: case.source(xx, yy, t),
            pressure_pin_value=float(case.pressure(0.0, 0.0, t)),
            velocity=flow_solver.VelocitySample(msh, v), p_prev=p, system=system)
        v, p = flow_solver.solve_flow_step(problem)
    return msh, v, p


# -- the case kinds ------------------------------------------------------------------


def _fd_grad(f, x, y, h):
    return ((f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h))


def _fd_laplace(f, x, y, h):
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4 * f(x, y)) / h ** 2


def _scalar_operator(case: ManufacturedCase, x, y, h):
    """d(theta)/dt + v . grad(theta) - laplace(theta) by central differences at
    half the final time, and the source there.  A steady case's d/dt
    differences to exactly 0, and a case without a velocity, the potential,
    has no transport term."""
    exact, t = _in_time(case, case.exact), 0.5 * case.final_time
    at_t = lambda xx, yy: exact(xx, yy, t)  # noqa: E731
    vx, vy = case.velocity or (0.0, 0.0)
    gx, gy = _fd_grad(at_t, x, y, h)
    dtheta_dt = (exact(x, y, t + h) - exact(x, y, t - h)) / (2 * h)
    op = dtheta_dt + vx * gx + vy * gy - _fd_laplace(at_t, x, y, h)
    return op, _in_time(case, case.source)(x, y, t)


def _oseen_operator(case: ManufacturedCase, x, y, h):
    """du/dt - div(nu D(u)) + (u . grad) u + grad p with nu = 1 by central
    differences at half the final time, and the source there, each as its x
    then its y component.  A steady case's du/dt differences to exactly 0."""
    exact, t = _in_time(case, case.exact), 0.5 * case.final_time
    ux = lambda xx, yy: exact(xx, yy, t)[0]  # noqa: E731
    uy = lambda xx, yy: exact(xx, yy, t)[1]  # noqa: E731
    pressure = lambda xx, yy: _in_time(case, case.pressure)(xx, yy, t)  # noqa: E731
    u, v = exact(x, y, t)
    later, earlier = exact(x, y, t + h), exact(x, y, t - h)
    uxx, uxy = _fd_grad(ux, x, y, h)
    uyx, uyy = _fd_grad(uy, x, y, h)
    px, py = _fd_grad(pressure, x, y, h)
    nu = 1.0
    # -div(nu D(u)) = -(nu/2) laplace(u) for divergence-free u
    fx = (later[0] - earlier[0]) / (2 * h) - 0.5 * nu * _fd_laplace(ux, x, y, h) \
        + u * uxx + v * uxy + px
    fy = (later[1] - earlier[1]) / (2 * h) - 0.5 * nu * _fd_laplace(uy, x, y, h) \
        + u * uyx + v * uyy + py
    return np.concatenate([fx, fy]), np.concatenate(_in_time(case, case.source)(x, y, t))


# Each value a level can record, an error or an extra: name -> f(case, mesh,
# quad points, *solution).
_LEVEL_NORMS = {
    "L2": lambda case, msh, pts, u: l2_error_scalar(msh, u, _in_time(case, case.exact),
                                                    t=case.final_time, pts=pts),
    "H1": lambda case, msh, pts, u: h1_seminorm_error_scalar(
        msh, u, _in_time(case, case.grad), t=case.final_time, pts=pts),
    "velocity_H1": lambda case, msh, pts, v, p: h1_seminorm_error_velocity(
        msh, v, _in_time(case, case.grad), t=case.final_time, pts=pts),
    "velocity_L2": lambda case, msh, pts, v, p: l2_error_velocity(
        msh, v, _in_time(case, case.exact), t=case.final_time, pts=pts),
    "pressure_L2": lambda case, msh, pts, v, p: l2_error_scalar(
        msh, p, _in_time(case, case.pressure), t=case.final_time, pts=pts),
    "div_residual": lambda case, msh, pts, v, p: float(
        np.linalg.norm(fem_core.assemble_divergence(msh) @ v)),
    "v_norm": lambda case, msh, pts, v, p: float(np.linalg.norm(v)),
}


@dataclass(frozen=True)
class CaseKind:
    """How the cases of one kind are solved, rated and checked."""

    solver: str  # the level solver's module-level name, looked up when called
    norms: tuple  # the errors of a level that are rated, keys of _LEVEL_NORMS
    operator: object  # f(case, x, y, h) -> (strong operator by differences, source)
    extra: tuple = ()  # the level values kept in RateReport.extra, keys of _LEVEL_NORMS
    transient: bool = False  # the case's closures take the time t after (x, y)


CASE_KINDS = {
    "potential": CaseKind("solve_potential_case", ("L2", "H1"), _scalar_operator),
    "heat_steady": CaseKind("solve_heat_steady_case", ("L2",), _scalar_operator),
    "heat_unsteady": CaseKind("solve_heat_unsteady_case", ("L2",), _scalar_operator,
                              transient=True),
    "oseen": CaseKind("solve_oseen_case", ("velocity_H1", "velocity_L2", "pressure_L2"),
                      _oseen_operator, extra=("div_residual", "v_norm")),
    "oseen_unsteady": CaseKind("solve_oseen_unsteady_case", ("velocity_L2", "velocity_H1"),
                               _oseen_operator, transient=True),
}


def _kind(case: ManufacturedCase) -> CaseKind:
    """The entry of ``case``'s kind; the one reader of ``ManufacturedCase.kind``."""
    name = case.kind
    if name not in CASE_KINDS:
        raise ValueError(f"unknown case kind {name!r}")
    return CASE_KINDS[name]


# -- convergence studies -------------------------------------------------------------


@dataclass
class RateReport:
    case: str
    h: list
    errors: dict  # norm name -> list of errors
    extra: dict = field(default_factory=dict)
    slopes_ls: dict = field(init=False)  # least-squares slope over all levels

    def __post_init__(self):
        if len(self.h) < 3:
            raise ValueError("need at least 3 refinement levels for a rate")
        logh = np.log(np.asarray(self.h))
        self.slopes_ls = {name: float(np.polyfit(logh, np.log(np.asarray(errs)), 1)[0])
                          for name, errs in self.errors.items()}


def convergence_study(case: ManufacturedCase, levels=DEFAULT_LEVELS) -> RateReport:
    hs = []
    errors: dict = {}
    extra: dict = {}
    for nx, ny in levels:
        # Each level's mesh, with its per-mesh caches, and its solution are
        # freed on return, before the next level is built and factorized.
        hs.append(_level_errors(case, nx, ny, errors, extra))
    return RateReport(case=case.name, h=hs, errors=errors, extra=extra)


def _level_errors(case: ManufacturedCase, nx: int, ny: int, errors: dict, extra: dict) -> float:
    """Solve ``case`` on the nx x ny level by its kind's solver and append the
    kind's norms to ``errors`` and its extra values to ``extra``; returns h."""
    kind = _kind(case)
    msh, *solution = globals()[kind.solver](case, nx, ny)
    pts = fem_core.quadrature_points(msh)  # formed once for all the norms
    for values, names in ((errors, kind.norms), (extra, kind.extra)):
        for name in names:
            values.setdefault(name, []).append(_LEVEL_NORMS[name](case, msh, pts, *solution))
    return float(msh.h.max())


def temporal_convergence_study(case: ManufacturedCase, nx=64, ny=32,
                               step_counts=(8, 16, 32, 64)) -> RateReport:
    """Error vs time-step size at a fixed fine mesh: the errors of a
    transient case's kind at its final time, one level solve per step
    count."""
    kind = _kind(case)
    errors: dict = {}
    for steps in step_counts:
        msh, *solution = globals()[kind.solver](case, nx, ny, steps=steps)
        pts = fem_core.quadrature_points(msh)
        for name in kind.norms:
            errors.setdefault(name, []).append(_LEVEL_NORMS[name](case, msh, pts, *solution))
    return RateReport(case=case.name + "_dt", h=[case.final_time / m for m in step_counts],
                      errors=errors)


def splitting_order_study(config, Ms=(10, 20, 40), M_ref=320) -> RateReport:
    """Order in time of the coupled time-lag splitting, by self-convergence.

    Runs ``config`` to its final time T with each step count in ``Ms`` and
    with ``M_ref`` steps, on the same mesh, and measures the L2 distances of
    theta, v and phi at T from the ``M_ref`` run.  ``extra["rates"]`` holds
    the observed order of each consecutive pair of ``Ms``; a consistent
    splitting gives about 1.  A field whose error is 0 at every step count
    (test1's flow, which theta does not move) has no rate: it is named in
    ``extra["exact"]`` and left out of the errors and rates.  A field exact
    at only some step counts raises ValueError.
    """

    def final_state(M):
        cfg = copy.deepcopy(config)
        cfg.time.M = M
        sim = coupler.Simulation(cfg)
        return sim, sim.run()[0]

    sim, ref = final_state(M_ref)
    p1_mass = fem_core.assemble_mass(sim.mesh)
    mass_products = {"theta": lambda e: p1_mass @ e,
                     "v": lambda e: fem_core.mini_mass_product(sim.mesh, e),
                     "phi": lambda e: p1_mass @ e}
    errors = {name: [] for name in mass_products}
    for M in Ms:
        _, state = final_state(M)
        for name, mass_product in mass_products.items():
            e = getattr(state, name) - getattr(ref, name)
            errors[name].append(float(np.sqrt(e @ mass_product(e))))
    exact = [name for name, errs in errors.items() if not any(errs)]
    for name in exact:
        del errors[name]
    for name, errs in errors.items():
        if not all(errs):
            raise ValueError(f"the {name} error is 0 at M = {Ms[errs.index(0.0)]} "
                             "but not at every step count: it has no rate")
    dts = [config.time.T / M for M in Ms]
    rates = {name: [float(np.log(e0 / e1) / np.log(d0 / d1))
                    for e0, e1, d0, d1 in zip(errs, errs[1:], dts, dts[1:])]
             for name, errs in errors.items()}
    extra = {"rates": rates, "exact": exact} if exact else {"rates": rates}
    return RateReport(case="splitting", h=dts, errors=errors, extra=extra)


def finite_difference_source_check(case: ManufacturedCase, npoints: int = 20,
                                   h: float = 1e-4, seed: int = 1234) -> float:
    """Max relative mismatch between the analytic source and a central-difference
    application of the case kind's strong operator at random interior points."""
    operator = _kind(case).operator
    rng = np.random.default_rng(seed)
    L, H = MMS_GEOMETRY["L"], MMS_GEOMETRY["H"]
    x = rng.uniform(0.1 * L, 0.9 * L, npoints)
    y = rng.uniform(0.1 * H, 0.9 * H, npoints)
    op, src = operator(case, x, y, h)
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
        "stage_misorder": "",  # the first step whose stages are out of order
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
            lagged = materials.TemperatureSample(sim.model, sim.mesh, prev.theta)
            vmax_k = flow_solver.VelocitySample(sim.mesh, prev.v).speed
            audit["eta_bound_violation"] = max(
                audit["eta_bound_violation"],
                float(np.max(art - beta * vmax_k * h)), float(np.max(-art)))
            still = vmax_k == 0.0
            if np.any(still):
                audit["eta_zero_velocity_max"] = max(
                    audit["eta_zero_velocity_max"], float(np.max(np.abs(art[still]))))
            # The step's heat source: the laws at theta^{n-1}, v^n and phi^n.
            src = heat_solver.heat_source(lagged.nu,
                                          flow_solver.viscous_dissipation(sim.mesh, state.v),
                                          joule_density(sim.mesh, lagged.sigma, state.phi))
            audit["source_min"] = min(audit["source_min"], float(src.min()))
            load = fem_core.assemble_scalar_load(sim.mesh, src)
            audit["load_min"] = min(audit["load_min"], float(load.min()))
            audit["div_max"] = max(audit["div_max"],
                                   diag.div_norm / (1.0 + float(np.linalg.norm(state.v))))
            names = [s[0] for s in diag.stages]
            spans = [t for _, start, end in diag.stages for t in (start, end)]
            if not audit["stage_misorder"] and (names != ["potential", "flow", "heat"]
                                                or spans != sorted(spans)):
                audit["stage_misorder"] = f"step {state.n} out of order: {', '.join(names)}"
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


def _run_to_trip(config) -> tuple:
    """A run of ``config``: the step at which its blow-up guard tripped, None
    if it did not, and its diagnostics rows, up to the trip."""
    try:
        return None, coupler.Simulation(config).run()[1]
    except coupler.BlowUpError as exc:
        return exc.state.n, exc.rows


def _never_grows(norms) -> bool:
    """Whether no norm of the sequence exceeds the one before it by more than
    a relative 1e-12."""
    return not any(b > a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


INVARIANT_BLOCKS = []  # (names, block) in run order


def _invariants(*names):
    """Register the decorated :class:`_Suite` method as an invariant block: a
    generator that yields one (passed, detail) pair for each of ``names``, in
    order."""

    def register(block):
        INVARIANT_BLOCKS.append((names, block))
        return block

    return register


class _Suite:
    """The invariant blocks, in run order, and what several of them read."""

    def __init__(self, config):
        self.config = config
        self.rng = np.random.default_rng(42)
        self.mesh = msh = generate_channel_mesh(config.geometry)
        self.small = generate_channel_mesh(GeometrySpec(nx=12, ny=6, **MMS_GEOMETRY))
        self.model = config.build_material_model()
        self.stiffness = fem_core.assemble_stiffness(msh, 1.0)
        # The patch test: an affine field and the stiffness system with its
        # values on the boundary vertices eliminated.
        self.affine = 1.0 + 2.0 * msh.vertices[:, 0] - 3.0 * msh.vertices[:, 1]
        self.bdofs = np.unique(msh.boundary_edges.ravel())
        self.Ap, self.bp = linalg.apply_dirichlet(self.stiffness, np.zeros(msh.num_vertices),
                                                  self.bdofs, self.affine[self.bdofs])

    @_invariants("mesh.area_identity", "mesh.boundary_length_identity", "mesh.edge_sharing")
    def mesh_checks(self):
        msh, g = self.mesh, self.config.geometry
        areas = float(msh.areas.sum())
        yield abs(areas - g.L * g.H) <= 1e-12 * g.L * g.H, f"sum(areas)={areas!r}"
        edges = msh.boundary_edges
        blen = float(np.linalg.norm(msh.vertices[edges[:, 1]] - msh.vertices[edges[:, 0]],
                                    axis=1).sum())
        yield abs(blen - 2 * (g.L + g.H)) <= 1e-12 * 2 * (g.L + g.H), f"perimeter={blen!r}"
        counts = msh._edge_use_counts()
        boundary_keys = {(int(min(a, b)), int(max(a, b))) for a, b in edges}
        yield all((c == 1 and k in boundary_keys) or (c == 2 and k not in boundary_keys)
                  for k, c in counts.items()), ""

    @_invariants("linalg.transpose_involution", "linalg.residual_contracts",
                 "linalg.dirichlet_idempotent")
    def linalg_checks(self):
        A, affine, bdofs, Ap, bp = self.stiffness, self.affine, self.bdofs, self.Ap, self.bp
        yield (abs(A.T.T - A)).max() == 0.0, ""
        n = 40
        lap = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                       [-1, 0, 1], format="csr")
        b = self.rng.standard_normal(n)
        order = fem_core.vertex_order(self.mesh)
        rel = []
        for M, rhs, o in ((lap, b, None), (Ap, bp, order)):  # natural, vertex order
            x = linalg.solve_lu(M, rhs, order=o)
            rel.append(np.linalg.norm(rhs - M @ x) / np.linalg.norm(rhs))
        # The constrained solve of the patch-test system: the eliminated
        # residual holds and the constrained entries are exact.
        x = linalg.LinearSystem().solve(A, np.zeros(A.shape[0]), bdofs, affine[bdofs], order)
        rel.append(np.linalg.norm(bp - Ap @ x) / np.linalg.norm(bp))
        exact = np.array_equal(x[bdofs], affine[bdofs])
        yield (max(rel) <= 1e-10 and exact,
               f"max relative residual {max(rel):.2e}, constrained entries exact: {exact}")
        A1, b1 = linalg.apply_dirichlet(lap, b, [0, n - 1], [1.0, 2.0])
        A2, b2 = linalg.apply_dirichlet(A1, b1, [0, n - 1], [1.0, 2.0])
        yield (abs(A2 - A1)).max() == 0.0 and np.array_equal(b1, b2), ""

    @_invariants("fem.quadrature_bubble_exactness", "fem.stiffness_constant_nullspace",
                 "fem.patch_test")
    def fem_checks(self):
        bary = fem_core.TRI_RULE.points
        w = fem_core.TRI_RULE.weights
        bub = fem_core.bubble_values(bary)
        int_bb = float(np.sum(w * bub * bub))
        int_l1l2b = float(np.sum(w * bary[:, 0] * bary[:, 1] * bub))
        yield (abs(int_bb - 729.0 * 8.0 / 40320.0) < 1e-12
               and abs(int_l1l2b - 27.0 * 4.0 / 5040.0) < 1e-12, f"int(b^2)={int_bb!r}")
        A = self.stiffness
        yield float(np.abs(A @ np.ones(A.shape[0])).max()) < 1e-10, ""
        err = float(np.abs(linalg.solve_lu(self.Ap, self.bp) - self.affine).max())
        yield err <= 1e-10, f"max err {err:.2e}"

    @_invariants("materials.a1_bounds", "materials.sigma_monotonicity",
                 "materials.body_force_affine")
    def materials_checks(self):
        model = self.model
        t1, t2, t3 = materials.BREAKPOINTS
        rep = materials.validate_bounds(model)
        cont_ok = (rep["continuity"][("sigma", t2)] <= 1e-12
                   and rep["continuity"][("sigma", t3)] <= 1e-12
                   and rep["continuity"][("eta", t2)] <= 1e-12)
        yield (rep["passed"] and cont_ok,
               "; ".join(rep["violations"])
               or f"sigma jump at {t1:g}C: {rep['continuity'][('sigma', t1)]:.2e}")
        grid = np.arange(-20.0, 150.0, 0.25)
        sig = np.asarray(model.sigma(grid))
        dif = np.diff(sig)
        seg = lambda lo, hi: dif[(grid[:-1] >= lo) & (grid[1:] <= hi)]  # noqa: E731
        mono = (np.all(seg(-20, t1) >= -1e-15) and np.all(np.abs(seg(t1 + 0.3, t2)) <= 1e-15)
                and np.all(seg(t2 + 0.3, t3) <= 1e-15)
                and np.all(np.abs(seg(t3 + 0.3, 150)) <= 1e-15))
        yield bool(mono) and model.sigma0 > 0, ""
        th1, th2 = 45.0, 61.0
        f1 = np.asarray(model.body_force(th1))
        f2 = np.asarray(model.body_force(th2))
        fb = np.asarray(model.body_force(model.theta_b))
        fsum = np.asarray(model.body_force(th1 + th2 - model.theta_b))
        yield np.allclose(f1 + f2, fb + fsum, atol=1e-14), ""

    @_invariants("potential.spd_after_elimination", "potential.linearity_in_g",
                 "potential.conductivity_scaling", "potential.joule_nonnegative")
    def potential_checks(self):
        msh, model, bc = self.mesh, self.model, self.config.potential_bc
        pot = PotentialProblem(temperature=_at_theta_b(model, msh), g=bc.g,
                               neumann_tags=bc.neumann_tags, dirichlet_tags=bc.dirichlet_tags)
        Apot = fem_core.assemble_stiffness(msh, pot.temperature.sigma)
        dir_dofs, dir_vals = potential_constraints(msh, pot.dirichlet_tags)
        Apot_e, _ = linalg.apply_dirichlet(Apot, np.zeros(msh.num_vertices), dir_dofs, dir_vals)
        x = self.rng.standard_normal(msh.num_vertices)
        yield float(x @ (Apot_e @ x)) > 0.0, ""
        if bc.g == 0.0 or not pot.neumann_tags:
            # No flux drives the potential: it is zero, and so are its scalings.
            why = "g = 0" if bc.g == 0.0 else "no Neumann tag carries the flux g"
            yield float(np.abs(solve_potential(pot)).max()) == 0.0, why
            yield True, why
            yield True, why
            return
        phi1 = solve_potential(pot)
        pot2 = copy.copy(pot)
        pot2.g = 2.0 * bc.g
        phi2 = solve_potential(pot2)
        yield (float(np.abs(phi2 - 2 * phi1).max())
               <= 1e-7 * max(1e-30, float(np.abs(phi1).max())),
               f"{float(np.abs(phi2 - 2 * phi1).max()):.2e}")
        scaled = replace(model, sigma0=3.0 * model.sigma0)
        pot3 = copy.copy(pot)
        pot3.temperature = _at_theta_b(scaled, msh)
        phi3 = solve_potential(pot3)
        yield float(np.abs(3.0 * phi3 - phi1).max()) <= 1e-7 * float(np.abs(phi1).max()), ""
        yield float(joule_density(msh, pot.temperature.sigma, phi1).min()) >= 0.0, ""

    @_invariants("flow.divergence_contract", "flow.dissipation_nonnegative",
                 "heat.art_visc_bound", "heat.art_visc_zero_velocity",
                 "heat.source_load_nonnegative", "coupler.stage_order")
    def step_checks(self):
        audit = _step_audit(self.config)
        yield (audit["div_max"] <= flow_solver.DIVERGENCE_BOUND,
               f"max |Bv|/(1+|v|) = {audit['div_max']:.2e}")
        yield audit["source_min"] >= 0.0, f"min source {audit['source_min']:.2e}"
        yield (audit["eta_bound_violation"] <= 1e-15,
               f"max violation {audit['eta_bound_violation']:.2e}")
        at_rest = audit["eta_zero_velocity_max"]
        yield at_rest == 0.0, f"max viscosity at rest {at_rest:.2e}" if at_rest else ""
        yield audit["load_min"] >= -1e-14, f"min load entry {audit['load_min']:.2e}"
        yield not audit["stage_misorder"], audit["stage_misorder"]

    @_invariants("flow.galilean_constant")
    def galilean_constant(self):
        def const_profile(x, y):
            return (np.ones_like(np.asarray(x, dtype=float)),
                    np.zeros_like(np.asarray(x, dtype=float)))

        bc_const = {t: flow_solver.FlowBC("inflow", const_profile) for t in mesh_mod.ALL_TAGS}
        fp = flow_solver.FlowProblem(temperature=_at_theta_b(self.model, self.small),
                                     dt=None, bc=bc_const)
        vconst, _ = flow_solver.solve_flow_stationary(fp)
        dev = float(np.abs(fem_core.velocity_at_vertices(self.small, vconst)
                           - np.array([1.0, 0.0])).max())
        yield dev <= 1e-8, f"max dev {dev:.2e}"

    @_invariants("flow.stokes_energy_decay")
    def stokes_energy_decay(self):
        small = self.small
        dms = dofmap_for(small)
        bc_wall = {t: flow_solver.FlowBC("noslip") for t in mesh_mod.ALL_TAGS}
        rng2 = np.random.default_rng(7)
        v = np.zeros(dms.n_velocity)
        interior = np.setdiff1d(np.arange(dms.nv), np.unique(small.boundary_edges.ravel()))
        v[dms.vx_vertex(interior)] = rng2.standard_normal(interior.size)
        v[dms.vy_vertex(interior)] = rng2.standard_normal(interior.size)
        energies = [v @ fem_core.mini_mass_product(small, v)]
        for _ in range(3):
            fps = flow_solver.FlowProblem(temperature=_at_theta_b(self.model, small), dt=0.05,
                                          bc=bc_wall, include_convection=False,
                                          velocity=flow_solver.VelocitySample(small, v))
            v, _ = flow_solver.solve_flow_step(fps)
            energies.append(v @ fem_core.mini_mass_product(small, v))
        yield _never_grows(energies), ""

    @_invariants("heat.equilibrium_fixed_point")
    def equilibrium_fixed_point(self):
        eq_cfg = _equilibrium_config(self.config)
        dev = max(abs(row.max_theta - eq_cfg.materials.theta_b)
                  for row in _run_to_trip(eq_cfg)[1])
        yield dev <= 1e-10, f"max deviation {dev:.2e}"

    @_invariants("heat.l2_contraction")
    def l2_contraction(self):
        small, model = self.small, self.model
        bc_rob = {t: HeatBC("robin", 1.0, model.theta_b) for t in mesh_mod.ALL_TAGS}
        th = np.full(small.num_vertices, model.theta_b + 13.0)
        Mh = fem_core.assemble_mass(small)
        still = flow_solver.VelocitySample(small, np.zeros(dofmap_for(small).n_velocity))
        norms = []
        for _ in range(4):
            hp = HeatProblem(temperature=materials.TemperatureSample(model, small, th),
                             transport=still, velocity=still,
                             phi=np.zeros(small.num_vertices), dt=0.1,
                             bc=bc_rob, stab=StabilizationParams(beta=0.0),
                             include_physics_sources=False)
            th = heat_solver.solve_heat_step(hp)
            diff = th - model.theta_b
            norms.append(float(np.sqrt(diff @ (Mh @ diff))))
        yield _never_grows(norms), ""

    @_invariants("coupler.determinism")
    def determinism(self):
        # Two runs of up to 3 steps agree on every probe, up to the blow-up
        # guard's trip if it trips, and trip at the same step.
        cfg = copy.deepcopy(self.config)
        cfg.time.M = min(3, cfg.time.M)
        (trip_a, rows_a), (trip_b, rows_b) = _run_to_trip(cfg), _run_to_trip(cfg)
        probes = [np.array([(r.max_theta, r.int_theta, r.div_norm, r.centroid_x) for r in rows])
                  for rows in (rows_a, rows_b)]
        yield (trip_a == trip_b and np.array_equal(*probes, equal_nan=True),
               "" if trip_a is None and trip_b is None
               else f"blow-up guard tripped at steps {trip_a}, {trip_b}")


INVARIANT_NAMES = [name for names, _ in INVARIANT_BLOCKS for name in names]


def invariant_suite(config) -> dict:
    """Run every registered invariant block against the given configuration.

    A block that raises fails each of its checks that it had not recorded,
    as "crashed: <exc>", and the next block runs.  Returns
    {"checks": [{name, passed, detail}...], "passed": bool}.
    """
    suite = _Suite(config)
    checks = []
    for names, block in INVARIANT_BLOCKS:
        results = []
        try:
            for result in block(suite):
                results.append(result)
        except Exception as exc:
            results += [(False, f"crashed: {exc}")] * (len(names) - len(results))
        checks += [{"name": name, "passed": bool(passed), "detail": str(detail)}
                   for name, (passed, detail) in zip(names, results, strict=True)]
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


def format_report_csv(report: dict) -> str:
    """The report as RFC-4180 CSV text: a header, then one row per check."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "passed", "detail"])
    for c in report["checks"]:
        writer.writerow([c["name"], c["passed"], c["detail"]])
    return buf.getvalue()
