"""Semi-implicit MINI-element solve of the incompressible flow step.

Time scheme: implicit Euler with Oseen linearization, convection advected by
the previous velocity and viscosity frozen at the lagged temperature.  The
saddle system

    [ M/dt + A(nu) + N(a)   -G ] [v]   [ M v_prev / dt + F ]
    [ B                      0 ] [p] = [ 0                 ]

(G = B^T) is never factorized whole.  Each bubble dof couples only inside its
triangle, so the 2x2 bubble block of every triangle is eliminated first
(static condensation, :func:`fem_core.assemble_condensed_saddle`); the Schur
complement on the P1 dofs [vx | vy | p], of order 3*NV, takes the Dirichlet
rows and is solved by sparse LU by default or by restarted GMRES; the bubbles
are then recovered triangle by triangle.  The residual and divergence
contracts are checked on the recovered full system.  Do-nothing outlets add
no stress boundary terms; the convective form keeps its Gamma_N surface
integral exactly as written.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import fem_core, linalg
from .fem_core import DofMap
from .materials import MaterialModel
from .mesh import Mesh2D

log = logging.getLogger(__name__)

ROLE_INFLOW = "inflow"
ROLE_NOSLIP = "noslip"
ROLE_DONOTHING = "donothing"


@dataclass
class InflowProfile:
    """Boundary velocity closure (vectorized over coordinates)."""

    name: str
    fn: object  # callable(x, y) -> (vx, vy)
    params: dict = field(default_factory=dict)

    def __call__(self, x, y):
        return self.fn(x, y)


def builtin_profile_gamma1(H: float) -> InflowProfile:
    """Parabolic blood inflow (y (H - y), 0) on the left side."""

    def fn(x, y):
        return y * (H - y), np.zeros_like(np.asarray(y, dtype=float))

    return InflowProfile("gamma1_parabola", fn, {"H": H})


def builtin_profile_gamma5(L: float, r: float) -> InflowProfile:
    """Saline electrode jet on the top segment, evaluated at wall coordinates."""

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        wl = x - 0.5 * L + r
        wr = 0.5 * L + r - x
        vx = (2.0 / r) * wl * wr * (0.5 * L - x)
        vy = -(2.0 / r) * wl * wr * y
        return vx, vy

    return InflowProfile("gamma5_electrode", fn, {"L": L, "r": r})


def zero_profile() -> InflowProfile:
    def fn(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z.copy()

    return InflowProfile("zero", fn)


def make_profile(name: str, **params) -> InflowProfile:
    if name == "gamma1_parabola":
        return builtin_profile_gamma1(params["H"])
    if name == "gamma5_electrode":
        return builtin_profile_gamma5(params["L"], params["r"])
    if name == "zero":
        return zero_profile()
    raise ValueError(f"unknown inflow profile {name!r}")


@dataclass
class FlowBC:
    role: str
    profile: InflowProfile | None = None

    def __post_init__(self):
        if self.role not in (ROLE_INFLOW, ROLE_NOSLIP, ROLE_DONOTHING):
            raise ValueError(f"unknown flow boundary role {self.role!r}")
        if self.role == ROLE_INFLOW and self.profile is None:
            raise ValueError("inflow boundary needs a profile")


@dataclass
class FlowProblem:
    mesh: Mesh2D
    dofmap: DofMap
    model: MaterialModel
    theta: np.ndarray  # lagged temperature (P1 nodal)
    v_prev: np.ndarray  # previous velocity (n_velocity dofs)
    dt: float
    bc: dict  # tag -> FlowBC, every boundary tag present exactly once
    body_force: bool = False
    include_convection: bool = True
    advect_field: object = None  # callable override of the Oseen advecting field
    extra_force: object = None  # callable(x, y) -> (fx, fy); verification hook
    method: str = "lu"
    tol: float = 1e-8
    pressure_pin_value: float = 0.0
    iterations: int = field(default=0, init=False)

    def validate(self) -> None:
        from .mesh import ALL_TAGS

        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if set(self.bc) != set(ALL_TAGS):
            raise ValueError("every boundary tag needs exactly one flow role")
        if not np.all(np.isfinite(self.v_prev)):
            raise ValueError("previous velocity contains non-finite values")
        if not np.all(np.isfinite(np.asarray(self.theta, dtype=float))):
            raise ValueError("temperature field contains non-finite values")


def _dirichlet_velocity(problem: FlowProblem):
    """Constrained velocity dofs and values from the no-slip/inflow tags.

    A vertex shared by two tags takes the values of the later tag.
    """
    mesh, dm = problem.mesh, problem.dofmap
    dofs, vals = [], []
    for tag in sorted(problem.bc):
        bc = problem.bc[tag]
        if bc.role == ROLE_DONOTHING:
            continue
        verts = mesh.boundary_vertices_with_tag(tag)
        if verts.size == 0:
            continue
        if bc.role == ROLE_NOSLIP:
            vx = vy = np.zeros(verts.size)
        else:
            xy = mesh.vertices[verts]
            vx, vy = bc.profile(xy[:, 0], xy[:, 1])
        dofs += [dm.vx_vertex(verts), dm.vy_vertex(verts)]
        vals += [np.broadcast_to(np.asarray(v, dtype=float), verts.shape) for v in (vx, vy)]
    if not dofs:
        return np.empty(0, dtype=np.int64), np.empty(0)
    dofs = np.concatenate(dofs)[::-1]
    vals = np.concatenate(vals)[::-1]
    dofs, last = np.unique(dofs, return_index=True)
    return dofs, vals[last]


def _force_load(problem: FlowProblem) -> np.ndarray:
    mesh, dm = problem.mesh, problem.dofmap
    geo = fem_core.geometry(mesh)
    load = np.zeros(dm.n_velocity)
    if problem.body_force:
        theta_qp = fem_core.p1_at_qp(mesh, problem.theta)
        fx, fy = problem.model.body_force(theta_qp)
        load += fem_core.assemble_vector_load(mesh, dm, np.stack([fx, fy], axis=-1))
    if problem.extra_force is not None:
        fx, fy = problem.extra_force(geo.qp[..., 0], geo.qp[..., 1])
        fx = np.broadcast_to(np.asarray(fx, dtype=float), geo.qw.shape)
        fy = np.broadcast_to(np.asarray(fy, dtype=float), geo.qw.shape)
        load += fem_core.assemble_vector_load(mesh, dm, np.stack([fx, fy], axis=-1))
    return load


def _donothing_tags(problem: FlowProblem) -> tuple:
    return tuple(t for t, bc in problem.bc.items() if bc.role == ROLE_DONOTHING)


def _solve_linear(problem: FlowProblem, advect, include_time: bool):
    """One linear (Stokes/Oseen) solve on the condensed system; returns (v, P)."""
    mesh, dm = problem.mesh, problem.dofmap
    nu_qp = problem.model.nu(fem_core.p1_at_qp(mesh, problem.theta))
    gamma_n = _donothing_tags(problem)
    mass_coeff = 1.0 / problem.dt if include_time else 0.0
    saddle = fem_core.assemble_condensed_saddle(mesh, dm, nu_qp, advect=advect,
                                                gamma_n_tags=gamma_n, mass_coeff=mass_coeff)

    rhs_v = _force_load(problem)
    if include_time:
        M = fem_core.assemble_mini_mass(mesh, dm)
        rhs_v = rhs_v + mass_coeff * (M @ np.asarray(problem.v_prev, dtype=float))
    rhs = np.concatenate([rhs_v, np.zeros(dm.n_pressure)])

    dofs, vals = _dirichlet_velocity(problem)
    if not gamma_n:
        # Enclosed flow: the do-nothing outlet normally fixes the pressure
        # level; without one, pin a single pressure dof.
        dofs = np.append(dofs, dm.pressure(0))
        vals = np.append(vals, problem.pressure_pin_value)
    # Every constrained dof is a P1 dof, so eliminating them after the
    # condensation is exact.
    cdofs = saddle.layout.index[dofs]
    S, rhs_c = linalg.apply_dirichlet(saddle.matrix, saddle.condense(rhs), cdofs, vals)

    problem.iterations = 0

    def solve(method):
        if method == "gmres":
            info: dict = {}
            x_l = linalg.solve_gmres(S, rhs_c, tol_rel=problem.tol, restart=50,
                                     max_iter=20000, info=info)
            problem.iterations = info.get("iterations", 0)
        else:
            x_l = linalg.solve_lu(S, rhs_c)
        x_l[cdofs] = vals  # constrained dofs are exact by contract
        return saddle.recover(x_l, rhs)

    x = solve(problem.method)
    if problem.method != "gmres":
        # Residual contract on the full system, bubble rows included; the
        # constrained rows hold by construction.
        free = np.ones(dm.n_flow, dtype=bool)
        free[dofs] = False
        fixed = np.zeros(dm.n_flow)
        fixed[dofs] = vals
        scale = np.linalg.norm(np.concatenate([saddle.residual(fixed, rhs)[free], vals]))
        res = np.linalg.norm(saddle.residual(x, rhs)[free])
        if not np.isfinite(res) or res > 1e-8 * (1.0 + scale):
            raise linalg.SolverError(f"flow LU residual too large: {res:.3e}")

    v, p = x[:dm.n_velocity], x[dm.n_velocity:]
    div = float(np.linalg.norm(saddle.B @ v))
    if div > 1e-8 * (1.0 + np.linalg.norm(v)):
        if problem.method == "gmres":
            x = solve("lu")
            v, p = x[:dm.n_velocity], x[dm.n_velocity:]
            div = float(np.linalg.norm(saddle.B @ v))
        if div > 1e-8 * (1.0 + np.linalg.norm(v)):
            raise linalg.SolverError(f"divergence contract violated: |Bv| = {div:.3e}")
    return v, p


def solve_flow_step(problem: FlowProblem):
    """Advance the flow one implicit-Euler step; returns (v, P)."""
    problem.validate()
    advect = None
    if problem.include_convection:
        advect = problem.advect_field if problem.advect_field is not None else problem.v_prev
    return _solve_linear(problem, advect, include_time=True)


def solve_flow_stationary(problem: FlowProblem, picard_tol: float = 1e-8,
                          picard_max: int = 50):
    """Steady flow by Picard iteration on the Oseen linearization, started
    from the Stokes solution; a failed linear solve raises SolverError."""
    if picard_max < 1:
        raise ValueError(f"picard_max must be at least 1, got {picard_max}")
    problem.validate()
    if problem.advect_field is not None:
        # Prescribed advecting field (manufactured cases): single linear solve.
        return _solve_linear(problem, problem.advect_field, include_time=False)
    v, p = _solve_linear(problem, None, include_time=False)
    if not problem.include_convection:
        return v, p
    for _ in range(picard_max):
        v_new, p = _solve_linear(problem, v, include_time=False)
        incr = np.linalg.norm(v_new - v) / max(1.0, np.linalg.norm(v_new))
        v = v_new
        if incr < picard_tol:
            break
    else:
        log.warning("stationary flow Picard hit the iteration cap (incr=%.3e)", incr)
    return v, p


def viscous_dissipation(mesh: Mesh2D, dofmap: DofMap, model: MaterialModel,
                        theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(NT, NQ) dissipation nu(theta) D(v):D(v) at the quad points."""
    nu_qp = model.nu(fem_core.p1_at_qp(mesh, theta))
    grad = fem_core.velocity_grad_at_qp(mesh, dofmap, v)
    return nu_qp * fem_core.strain_rate_product(grad)
