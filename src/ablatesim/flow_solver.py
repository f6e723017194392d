"""Semi-implicit MINI-element solve of the incompressible flow step.

Time scheme: implicit Euler with Oseen linearization, convection advected by
the previous velocity and viscosity frozen at the lagged temperature.  The
saddle system

    [ M/dt + A(nu) + N(a)   -B^T ] [v]   [ M v_prev / dt + F ]
    [ B                        0 ] [p] = [ 0                 ]

is never factorized whole.  Each bubble dof couples only inside its triangle,
so the 2x2 bubble block of every triangle is eliminated first (static
condensation, :func:`fem_core.assemble_condensed_saddle`); the Schur
complement on the P1 dofs [vx | vy | p], of order 3*NV, is solved by the
problem's :class:`linalg.LinearSystem`, which each solve gives the
constraints of :func:`flow_constraints` (the velocity at the vertices of the
no-slip and inflow tags, :func:`fem_core.dirichlet_vertices`), in the mesh's
nested-dissection vertex order with the three dofs of a vertex kept together
(:func:`fem_core.vertex_order`).  Its LU scales the system symmetrically by
its diagonal first: with nu = 1 the condensed pressure diagonal, about
h^2/nu, is below a tenth of its column's B entries, and the threshold
pivoting would otherwise leave the order.  The bubbles are then recovered
triangle by triangle, and the residual and divergence contracts
(:data:`RESIDUAL_BOUND`, :data:`DIVERGENCE_BOUND`) are checked again on the
recovered full system.  Do-nothing outlets add no stress boundary terms; the
convective form keeps its Gamma_N surface integral exactly as written, its
a.n from :meth:`fem_core.BoundaryEdges.normal_velocity` as the heat's is.

A time step starts its solve from the previous (v, P), the problem's
``p_prev`` with its ``velocity``, in the condensed layout.  The rule is
:func:`linalg.solve_lu`'s, and reads nothing but the step's inputs (no
option selects it): when the solve returns that start unchanged, by its own
accounting and not by a tolerance, and both contracts hold on the previous
(v, P) themselves, bubbles included, the step returns those very arrays,
read-only, so a fixed point stays bit-for-bit fixed; otherwise the bubbles
are recovered.  A step that returns its start records its other inputs
(dt, the convection switch, the viscosity at the quadrature points, the
force load, P^(n-1) and the ``bc`` dict, this one by identity, as no FlowBC
datum depends on time) as the velocity sample's ``fixed``, and a later step
from that sample on inputs that :func:`linalg._same` finds the same returns
its own (v, P) without assembling anything, a solve by the guess.  A flow
that moves has a new velocity, whose sample holds no record.

The problem's ``temperature`` (:class:`materials.TemperatureSample`) is the
lagged temperature with the mesh and the laws and, for a time step, its
``velocity`` (:class:`VelocitySample`) is the previous velocity v_prev; the
viscosity and the buoyancy temperature at the quadrature points, and the
advecting velocity's element coefficients, whose convective blocks come from
the reference map of :mod:`fem_core`, are read from them, so a split step
shares them with its other stages.  The stationary flow reads no velocity.

The stationary flow runs Newton's method from the Stokes solution, a plain
:func:`linalg.fixed_point` iteration whose map is one linear solve: the
Newton system at the last velocity (:func:`fem_core.assemble_newton_saddle`),
solved for the next velocity and pressure directly.  It returns the last
Newton solve, so its contracts hold; missing :data:`NEWTON_TOL` in
:data:`NEWTON_MAX` Newton solves raises SolverError.  The manufactured Oseen
case of :mod:`verify` is one such linear solve, :func:`_solve_linear`, too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fem_core, linalg
from .materials import TemperatureSample
from .mesh import Mesh2D, check_tag_roles

NEWTON_TOL = 1e-8  # fixed_point tolerance of the stationary Newton iteration
NEWTON_MAX = 50  # Newton solves before the stationary flow gives up
RESIDUAL_BOUND = 1e-8  # |free rows of b - Ax| <= bound (1 + |data|), bubble rows included
DIVERGENCE_BOUND = 1e-8  # |Bv| <= bound (1 + |v|)

ROLE_INFLOW = "inflow"
ROLE_NOSLIP = "noslip"
ROLE_DONOTHING = "donothing"


# An inflow profile is a boundary velocity datum: a callable(x, y) -> (vx, vy),
# vectorized over the coordinates (see fem_core.sample).


def builtin_profile_gamma1(H: float):
    """Parabolic blood inflow (y (H - y), 0) on the left side."""

    def fn(x, y):
        return y * (H - y), np.zeros_like(np.asarray(y, dtype=float))

    return fn


def builtin_profile_gamma5(L: float, r: float):
    """Saline electrode jet on the top segment, evaluated at wall coordinates."""

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        wl = x - 0.5 * L + r
        wr = 0.5 * L + r - x
        vx = (2.0 / r) * wl * wr * (0.5 * L - x)
        vy = -(2.0 / r) * wl * wr * y
        return vx, vy

    return fn


def zero_profile():
    def fn(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z.copy()

    return fn


def make_profile(name: str, **params):
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
    profile: object = None  # callable(x, y) -> (vx, vy); required on an inflow tag

    def __post_init__(self):
        if self.role not in (ROLE_INFLOW, ROLE_NOSLIP, ROLE_DONOTHING):
            raise ValueError(f"unknown flow boundary role {self.role!r}")
        if self.role == ROLE_INFLOW and self.profile is None:
            raise ValueError("inflow boundary needs a profile")


@dataclass
class FlowProblem:
    temperature: TemperatureSample  # theta^{n-1} and its laws
    dt: float  # None for the stationary flow
    bc: dict  # tag -> FlowBC, every boundary tag present exactly once
    include_convection: bool = True
    extra_force: object = None  # callable(x, y) -> (fx, fy); verification hook
    pressure_pin_value: float = 0.0
    velocity: VelocitySample | None = None  # v_prev, a step's
    p_prev: np.ndarray | None = None  # P^{n-1}; with v_prev, a step's guess
    system: linalg.LinearSystem = field(default_factory=linalg.LinearSystem)  # held across solves

    def validate(self, step: bool) -> None:
        """Check what a time step (``step``) or the stationary flow reads."""
        if step and (self.dt is None or self.velocity is None):
            raise ValueError("a flow step needs dt and the previous velocity")
        if self.dt is not None and not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not step and self.dt is not None:
            raise ValueError("the stationary flow takes no dt")
        check_tag_roles(self.bc, "flow")
        if step and not np.isfinite(self.velocity.v_h).all():
            raise ValueError("previous velocity contains non-finite values")
        if self.p_prev is not None and not np.isfinite(self.p_prev).all():
            raise ValueError("previous pressure contains non-finite values")
        if not np.isfinite(np.asarray(self.temperature.theta_h, dtype=float)).all():
            raise ValueError("temperature field contains non-finite values")


def flow_constraints(problem: FlowProblem) -> tuple:
    """Constrained flow dofs and values: the velocity on the no-slip and
    inflow tags and, for an enclosed flow, one pinned pressure dof."""
    mesh = problem.temperature.mesh
    dm = fem_core.dofmap_for(mesh)
    data = {tag: (0.0, 0.0) if bc.role == ROLE_NOSLIP else bc.profile
            for tag, bc in problem.bc.items() if bc.role != ROLE_DONOTHING}
    verts = fem_core.dirichlet_vertices(mesh, data)
    dofs = np.concatenate([dm.vx_vertex(verts.dofs), dm.vy_vertex(verts.dofs)])
    vals = verts.values(data).T.ravel()
    if not _donothing_tags(problem):
        # Enclosed flow: the do-nothing outlet normally fixes the pressure
        # level; without one, pin a single pressure dof.
        dofs = np.append(dofs, dm.pressure(0))
        vals = np.append(vals, problem.pressure_pin_value)
    return dofs, vals


def _force_load(problem: FlowProblem) -> np.ndarray:
    """The force load; without buoyancy and an ``extra_force``, the per-mesh
    zero load, built once, so a fixed step matches it by identity."""
    temperature = problem.temperature
    mesh = temperature.mesh
    n, buoyant = fem_core.dofmap_for(mesh).n_velocity, temperature.model.buoyancy.enabled
    if not buoyant and problem.extra_force is None:
        return fem_core.cached(mesh, "zero_force_load", lambda: np.zeros(n))
    load = np.zeros(n)
    if buoyant:
        fx, fy = temperature.model.body_force(temperature.theta)
        load += fem_core.assemble_vector_load(mesh, np.stack([fx, fy], axis=-1))
    if problem.extra_force is not None:
        load += fem_core.assemble_vector_load(
            mesh, fem_core.sample(problem.extra_force, fem_core.quadrature_points(mesh)))
    return load


def _donothing_tags(problem: FlowProblem) -> tuple:
    return tuple(t for t, bc in problem.bc.items() if bc.role == ROLE_DONOTHING)


def _solve_linear(problem: FlowProblem, advect, newton: bool = False,
                  force: np.ndarray | None = None, guess: tuple | None = None):
    """One linear solve on the condensed system, Stokes or Oseen or, with
    ``newton``, the stationary Newton step from the velocity ``advect``; a
    time step's system when the problem has a dt.  Returns (v, P).  ``force``
    is the force load, formed here when None.  ``guess``, a (v, P) pair, is
    the solve's start; when the solve returns it unchanged and the
    full-system contracts hold on it, it is returned: these very arrays,
    made read-only."""
    temperature = problem.temperature
    mesh = temperature.mesh
    dm = fem_core.dofmap_for(mesh)
    gamma_n = _donothing_tags(problem)
    include_time = problem.dt is not None
    mass_coeff = 1.0 / problem.dt if include_time else 0.0
    rhs_v = _force_load(problem) if force is None else force
    if newton:
        saddle, load = fem_core.assemble_newton_saddle(mesh, temperature.nu, advect, gamma_n)
        rhs_v = rhs_v + load
    else:
        saddle = fem_core.assemble_condensed_saddle(mesh, temperature.nu, advect=advect,
                                                    gamma_n_tags=gamma_n, mass_coeff=mass_coeff)
    if include_time:
        rhs_v = rhs_v + mass_coeff * fem_core.mini_mass_product(mesh, problem.velocity.coeffs)
    rhs = np.concatenate([rhs_v, np.zeros(dm.n_pressure)])

    system = problem.system
    x0 = None if guess is None else np.concatenate(guess)[saddle.layout.p1_dofs]
    # Every constrained dof is a P1 dof, so eliminating them after the
    # condensation is exact.  The condensed layout holds 3 dofs per vertex.
    dofs, vals = flow_constraints(problem)
    # The condensed matrix is held by nothing but the solve, which frees it
    # once it is eliminated.
    rhs_l = saddle.condense(rhs)
    x_l = system.solve(saddle.take_matrix(), rhs_l, saddle.layout.index[dofs], vals,
                       fem_core.vertex_order(mesh, 3), x0=x0)
    # The solve's own accounting says whether it returned its start, the
    # constrained entries included; then the guess keeps its bubbles if the
    # contracts hold on it as it is.
    if guess is not None and system.factor.by_guess and np.array_equal(x_l, x0):
        if _contract_miss(saddle, np.concatenate(guess), rhs, dofs, vals) is None:
            for arr in guess:
                arr.setflags(write=False)  # shared by the step's input and output
            return guess
    x = saddle.recover(x_l, rhs)
    miss = _contract_miss(saddle, x, rhs, dofs, vals)
    if miss is not None:
        raise linalg.SolverError(miss)
    return x[:dm.n_velocity], x[dm.n_velocity:]


def _contract_miss(saddle, x: np.ndarray, rhs: np.ndarray, dofs, vals):
    """Why the full flow vector ``x`` misses the residual contract on the
    full system, bubble rows included (the constrained rows ``dofs`` are the
    solve's exact ``vals``), or the divergence contract; None if it meets both."""
    free = np.ones(x.size, dtype=bool)
    free[dofs] = False
    fixed = np.zeros(x.size)
    fixed[dofs] = vals
    scale = np.linalg.norm(np.concatenate([saddle.residual(fixed, rhs)[free], vals]))
    res = np.linalg.norm(saddle.residual(x, rhs)[free])
    if not np.isfinite(res) or res > RESIDUAL_BOUND * (1.0 + scale):
        return f"flow LU residual too large: {res:.3e}"
    v = x[:saddle.A_vv.shape[0]]
    div = float(np.linalg.norm(saddle.B @ v))
    if div > DIVERGENCE_BOUND * (1.0 + np.linalg.norm(v)):
        return f"divergence contract violated: |Bv| = {div:.3e}"
    return None


def _step_inputs(problem: FlowProblem, force: np.ndarray) -> tuple:
    """All that a step reads but its ``bc`` and its velocity, the cheap ones
    first, with the force load ``force``."""
    return (problem.dt, problem.include_convection, problem.temperature.nu, force,
            problem.p_prev)


def solve_flow_step(problem: FlowProblem):
    """Advance the flow one implicit-Euler step; returns (v, P).  With a
    ``p_prev``, a step that returns its start keeps its inputs in its
    velocity's ``fixed``, and a step on that velocity with the same inputs
    returns its own start again (see the module docstring)."""
    problem.validate(step=True)
    velocity = problem.velocity
    force = _force_load(problem)
    if velocity.fixed is not None and velocity.fixed[0] is problem.bc and all(
            map(linalg._same, velocity.fixed[1], _step_inputs(problem, force))):
        problem.system.factor.repeat()
        return velocity.v_h, problem.p_prev
    advect = velocity.coeffs if problem.include_convection else None
    guess = None if problem.p_prev is None else (velocity.v_h, problem.p_prev)
    v, p = _solve_linear(problem, advect, force=force, guess=guess)
    returned_guess = guess is not None and v is guess[0]
    velocity.fixed = (problem.bc, _step_inputs(problem, force)) if returned_guess else None
    return v, p


def solve_flow_stationary(problem: FlowProblem):
    """Steady flow by Newton's method, started from the Stokes solution: a
    :func:`linalg.fixed_point` iteration whose map solves the Newton system
    at the last velocity for the next (v, P).  Returns the last Newton solve
    (v, P); a failed linear solve, or :data:`NEWTON_MAX` Newton solves
    without meeting :data:`NEWTON_TOL`, raises SolverError."""
    problem.validate(step=False)
    v, p = _solve_linear(problem, None)
    if not problem.include_convection:
        return v, p
    return linalg.fixed_point(
        lambda u: _solve_linear(problem, u, newton=True),
        v, NEWTON_TOL, NEWTON_MAX)


# The table of viscous_dissipation: the bubble gradient weights, then a row
# of ones for the constant P1 part.
_STRAIN_TABLE = fem_core._frozen(np.vstack([fem_core.BUBBLE_GRAD_WEIGHTS.T,
                                            np.ones(fem_core.BUBBLE_GRAD_WEIGHTS.shape[0])]))


def viscous_dissipation(mesh: Mesh2D, v: np.ndarray) -> np.ndarray:
    """(NT, NQ) D(v):D(v), the viscous dissipation per unit viscosity, at the
    quad points of the MINI velocity ``v`` (flow dofs or element
    coefficients), with no bubble gradient formed.  That gradient is
    27 sum_m w_qm grad(l_m), with w the (NQ, 3) table
    :data:`fem_core.BUBBLE_GRAD_WEIGHTS`, so each strain component D_xx,
    D_yy, D_xy of a triangle is a constant P1 part plus sum_m c_m w_qm, the
    c_m made of its bubble coefficients and grad(l_m): one (3 NT, 4) x
    (4, NQ) GEMM of [c | P1 part] with [w^T; 1] gives all three."""
    geo = fem_core.geometry(mesh)
    coeff = fem_core.velocity_element_coeffs(mesh, v)  # (NT, 2, 4)
    g = geo.grad_p1  # (NT, 3, 2)
    jac = coeff[:, :, :3] @ g  # (NT, 2, 2) P1 part, [c, d] = d(v_c)/d(x_d)
    b = 27.0 * coeff[:, :, 3, None]  # (NT, 2, 1)
    strain = np.empty((3, mesh.num_triangles, 4))  # [D_xx | D_yy | D_xy] coefficients
    np.multiply(b[:, 0], g[:, :, 0], out=strain[0, :, :3])
    np.multiply(b[:, 1], g[:, :, 1], out=strain[1, :, :3])
    np.multiply(b[:, 0], g[:, :, 1], out=strain[2, :, :3])
    strain[2, :, :3] += b[:, 1] * g[:, :, 0]
    strain[2, :, :3] *= 0.5
    strain[0, :, 3] = jac[:, 0, 0]
    strain[1, :, 3] = jac[:, 1, 1]
    strain[2, :, 3] = 0.5 * (jac[:, 0, 1] + jac[:, 1, 0])
    d = fem_core._tab(strain, _STRAIN_TABLE)  # (3, NT, NQ)
    # D:D = D_xx^2 + D_yy^2 + 2 D_xy^2, formed in place.
    np.square(d, out=d)
    out = np.add(d[0], d[1])
    d[2] *= 2.0
    out += d[2]
    return out


def _cell_speed_max(coeffs: np.ndarray) -> np.ndarray:
    """Per-cell sup of |v| sampled at the quadrature points and the
    vertices of the MINI velocity of (NT, 2, 4) element coefficients
    ``coeffs``.  The quadrature values are one (2 NT, 4) x (4, NQ) GEMM; the
    vertex values are ``coeffs[:, :, :3]`` (the bubble vanishes there).  The
    largest vx^2 + vy^2 is taken first and its square root once per cell:
    sqrt is monotone and correctly rounded, so this is the largest |v|."""
    v_qp = fem_core._tab(coeffs, fem_core.MINI_VALS.T)  # (NT, 2, NQ)
    sq = np.square(v_qp[:, 0])
    sq += np.square(v_qp[:, 1])
    del v_qp
    sq_v = np.square(coeffs[:, 0, :3])
    sq_v += np.square(coeffs[:, 1, :3])
    return np.sqrt(np.maximum(fem_core._cell_sup(sq), fem_core._cell_sup(sq_v)))


class VelocitySample:
    """The velocity ``v_h`` (MINI dofs) of ``mesh`` and its values: its
    (NT, 2, 4) MINI element coefficients ``coeffs``, from which the others
    are formed, D(v):D(v) at the quadrature points (``strain``), the scalar
    ``advection`` matrix, the per-cell speed ``speed`` of the artificial
    viscosity, and the diagnostics' |Bv| (``div_norm``) and max|v|
    (``vmax``).  The velocity itself is held neither at the quadrature
    points, which the cell speeds form by one GEMM and drop, nor on the
    boundary edges, where the heat forms its own inflow weights.  Each value is
    evaluated on first read, then shared, read-only.  ``fixed`` is the inputs
    of the last flow step from this velocity if it returned this very
    velocity, else None (:func:`solve_flow_step`); :meth:`drop` leaves it."""

    def __init__(self, mesh: Mesh2D, v_h):
        self.mesh, self.v_h = mesh, v_h
        self.fixed = None

    coeffs = cached_property(lambda self: fem_core._frozen(
        fem_core.velocity_element_coeffs(self.mesh, self.v_h)))
    strain = cached_property(lambda self: fem_core._frozen(
        viscous_dissipation(self.mesh, self.coeffs)))
    advection = cached_property(lambda self: fem_core._frozen_csr(
        fem_core.assemble_advection(self.mesh, self.coeffs)))
    speed = cached_property(lambda self: fem_core._frozen(_cell_speed_max(self.coeffs)))
    div_norm = cached_property(lambda self: float(np.linalg.norm(
        fem_core.assemble_divergence(self.mesh) @ self.v_h)))
    vmax = cached_property(lambda self: float(np.max(np.abs(self.v_h)))
                           if np.size(self.v_h) else 0.0)

    def drop(self, *names):
        """Free this sample's values ``names``; a later read evaluates them again."""
        for name in names:
            self.__dict__.pop(name, None)
