"""Time-lag splitting loop: potential and flow at the lagged temperature,
then the stabilized heat step, repeated on a uniform time grid.

Per step n (lagged temperature th^{n-1} in hand):

    1. potential:  a_phi(th^{n-1}; phi, chi) = (g, chi) on the electrode
    2. flow:       implicit Euler Oseen step advected by v^{n-1}
    3. heat:       implicit Euler with transport v^n, sources from (v^n, phi),
                   artificial viscosity triggered by the (th^{n-1}, th^{n-2},
                   v^{n-1}) residual

The stage order is recorded per step and never reordered.  A blow-up guard
aborts once max|theta| or max|v| exceeds 1e4, mirroring the runaway regime
reached for large electrode currents.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import fem_core
from .flow_solver import FlowProblem, solve_flow_stationary, solve_flow_step
from .heat_solver import HeatProblem, solve_heat_stationary, solve_heat_step
from .linalg import SolverError
from .mesh import generate_channel_mesh
from .potential_solver import PotentialProblem, solve_potential

BLOWUP_LIMIT = 1e4


class NonFiniteFieldError(RuntimeError):
    pass


class BlowUpError(RuntimeError):
    """Raised when the blow-up guard trips; carries the diagnostics so far."""

    def __init__(self, message, rows=None, state=None):
        super().__init__(message)
        self.rows = rows or []
        self.state = state


@dataclass
class TimeGrid:
    T: float = 1.0
    M: int = 100

    def validate(self) -> None:
        if not self.T > 0.0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.M < 0:
            raise ValueError(f"M must be nonnegative, got {self.M}")

    @property
    def dt(self) -> float:
        if self.M == 0:
            raise ValueError("dt undefined for M = 0 (initialize-only run)")
        return self.T / self.M


@dataclass
class DiagnosticsRow:
    step: int
    t: float
    max_theta: float
    argmax_x: float
    argmax_y: float
    int_theta: float
    div_norm: float
    max_art_visc: float
    min_art_visc: float
    centroid_x: float
    iters_potential: int = 0
    iters_flow: int = 0
    iters_heat: int = 0
    stages: list = field(default_factory=list, repr=False)  # (name, wallclock)


@dataclass
class SimState:
    t: float
    n: int
    v: np.ndarray  # velocity dofs
    P: np.ndarray  # pressure nodal values
    theta: np.ndarray  # current temperature theta^n
    phi: np.ndarray  # potential
    theta_prev: np.ndarray | None  # theta^{n-1}, feeds the entropy residual
    diag: DiagnosticsRow | None = None
    art_visc_cells: np.ndarray | None = None  # per-cell viscosity of the producing step

    def check_finite(self) -> None:
        for name in ("v", "P", "theta", "phi"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise NonFiniteFieldError(f"state field {name!r} has non-finite entries")


class Simulation:
    """Owns the mesh, dof map, material model, and cached diagnostics operators."""

    def __init__(self, config):
        config.validate()
        self.config = config
        self.mesh = generate_channel_mesh(config.geometry)
        self.dofmap = fem_core.dofmap_for(self.mesh)
        self.model = config.build_material_model()
        self.flow_bc = config.build_flow_bcs()
        self.heat_bc = config.build_heat_bcs()
        self.stab = config.build_stabilization()
        self._mass = fem_core.assemble_mass(self.mesh)
        self._div_B = fem_core.assemble_divergence(self.mesh, self.dofmap)

    # -- problem builders -----------------------------------------------------

    def _potential_problem(self, theta) -> PotentialProblem:
        pot = self.config.potential_bc
        return PotentialProblem(
            mesh=self.mesh, model=self.model, theta=theta,
            g=pot.g, neumann_tags=tuple(pot.neumann_tags),
            dirichlet_tags=tuple(pot.dirichlet_tags),
            tol=self.config.solver.potential_tol,
        )

    def _flow_problem(self, theta, v_prev, dt) -> FlowProblem:
        return FlowProblem(
            mesh=self.mesh, dofmap=self.dofmap, model=self.model,
            theta=theta, v_prev=v_prev, dt=dt, bc=self.flow_bc,
            body_force=self.model.buoyancy.enabled,
            method=self.config.solver.flow_method,
            tol=self.config.solver.flow_tol,
        )

    def _heat_problem(self, theta_prev, theta_prev2, v, v_stab, phi, dt, t) -> HeatProblem:
        return HeatProblem(
            mesh=self.mesh, dofmap=self.dofmap, model=self.model,
            theta_prev=theta_prev, theta_prev2=theta_prev2,
            v=v, v_stab=v_stab, phi=phi, dt=dt, bc=self.heat_bc, stab=self.stab,
            time=t, method=self.config.solver.heat_method,
            tol=self.config.solver.heat_tol,
        )

    # -- diagnostics ------------------------------------------------------------

    def _diagnostics(self, step, t, state_fields, art, iters, stages) -> DiagnosticsRow:
        v, theta = state_fields
        theta = np.asarray(theta)
        imax = int(np.argmax(theta))
        xy = self.mesh.vertices[imax]
        int_theta = float(np.sum(self._mass @ theta))
        div_norm = float(np.linalg.norm(self._div_B @ v))

        theta_qp = fem_core.p1_at_qp(self.mesh, theta)
        pos = np.maximum(theta_qp - self.model.theta_b, 0.0)
        mass_pos = fem_core.integrate_qp(self.mesh, pos)
        geo = fem_core.geometry(self.mesh)
        if mass_pos > 1e-300:
            centroid = fem_core.integrate_qp(self.mesh, pos * geo.qp[..., 0]) / mass_pos
        else:
            centroid = float("nan")

        art = np.zeros(1) if art is None else np.asarray(art)
        return DiagnosticsRow(
            step=step, t=t,
            max_theta=float(theta.max()), argmax_x=float(xy[0]), argmax_y=float(xy[1]),
            int_theta=int_theta, div_norm=div_norm,
            max_art_visc=float(art.max()), min_art_visc=float(art.min()),
            centroid_x=float(centroid),
            iters_potential=iters.get("potential", 0),
            iters_flow=iters.get("flow", 0),
            iters_heat=iters.get("heat", 0),
            stages=stages,
        )

    def _guard(self, state: SimState, rows) -> None:
        mt = float(np.max(np.abs(state.theta)))
        mv = float(np.max(np.abs(state.v))) if state.v.size else 0.0
        if mt > BLOWUP_LIMIT or mv > BLOWUP_LIMIT:
            raise BlowUpError(
                f"blow-up guard tripped at step {state.n}: "
                f"max|theta|={mt:.3e}, max|v|={mv:.3e}",
                rows=rows, state=state,
            )

    # -- lifecycle ------------------------------------------------------------------

    @staticmethod
    def _stage_error(stage: str, exc: Exception) -> Exception:
        """Relabel a stage failure, falling back to SolverError when the
        original class cannot be rebuilt from a bare message."""
        msg = f"initialize/{stage}: {exc}"
        try:
            return type(exc)(msg)
        except TypeError:
            return SolverError(msg)

    def initialize(self) -> SimState:
        """Stationary solves for (v0, P0), phi0, theta0 with stage labels on failure."""
        nv = self.mesh.num_vertices
        theta_b_field = np.full(nv, self.model.theta_b)
        stages = []

        try:
            stages.append(("flow", _time.perf_counter()))
            fp = self._flow_problem(theta_b_field, np.zeros(self.dofmap.n_velocity), None)
            v0, p0 = solve_flow_stationary(fp)
        except Exception as exc:
            raise self._stage_error("flow", exc) from exc
        try:
            stages.append(("potential", _time.perf_counter()))
            pp = self._potential_problem(theta_b_field)
            phi0 = solve_potential(pp)
        except Exception as exc:
            raise self._stage_error("potential", exc) from exc
        try:
            stages.append(("heat", _time.perf_counter()))
            hp = self._heat_problem(theta_b_field, None, v0, v0, phi0, 1.0, 0.0)
            # Pre-activation equilibrium: RF current and saline supply are off
            # until t = 0, so the initial temperature is the body-equilibrium
            # steady state; Joule heating and saline cooling switch on at step
            # 1 and the run contains their transients (the produced heat then
            # rides the flow toward the outlet).
            hp.include_physics_sources = False
            hp.include_inflow_bc = False
            theta0 = solve_heat_stationary(hp)
        except Exception as exc:
            raise self._stage_error("heat", exc) from exc

        iters = {"potential": pp.iterations, "flow": fp.iterations, "heat": hp.iterations}
        state = SimState(t=0.0, n=0, v=v0, P=p0, theta=theta0, phi=phi0,
                         theta_prev=None)
        state.check_finite()
        state.diag = self._diagnostics(0, 0.0, (v0, theta0), None, iters, stages)
        self._guard(state, rows=[state.diag])
        return state

    def advance(self, state: SimState) -> SimState:
        """One split step; the input state is left untouched on any failure."""
        state.check_finite()
        cfg = self.config
        dt = cfg.time.dt
        n_new = state.n + 1
        t_new = state.t + dt
        stages = []
        iters = {}

        # Stage 1: potential at the lagged temperature.
        stages.append(("potential", _time.perf_counter()))
        every = max(1, cfg.solver.potential_every)
        if state.n % every == 0 or state.diag is None:
            pp = self._potential_problem(state.theta)
            phi = solve_potential(pp)
            iters["potential"] = pp.iterations
        else:
            phi = state.phi
            iters["potential"] = 0

        # Stage 2: flow advected by v^{n-1}, viscosity at theta^{n-1}.
        stages.append(("flow", _time.perf_counter()))
        fp = self._flow_problem(state.theta, state.v, dt)
        v_new, p_new = solve_flow_step(fp)
        iters["flow"] = fp.iterations

        # Stage 3: heat transported by v^n with lagged sources and residual.
        stages.append(("heat", _time.perf_counter()))
        hp = self._heat_problem(state.theta, state.theta_prev, v_new, state.v,
                                phi, dt, t_new)
        theta_new = solve_heat_step(hp)
        iters["heat"] = hp.iterations

        new_state = SimState(t=t_new, n=n_new, v=v_new, P=p_new,
                             theta=theta_new, phi=phi, theta_prev=state.theta,
                             art_visc_cells=hp.art_visc)
        new_state.check_finite()
        new_state.diag = self._diagnostics(n_new, t_new, (v_new, theta_new),
                                           hp.art_visc, iters, stages)
        return new_state

    def run(self, on_step=None):
        """Initialize then advance M steps; returns (final state, diagnostics rows).

        A SolverError or NonFiniteFieldError raised by a step carries the rows
        computed before it as ``exc.rows``.
        """
        state = self.initialize()
        rows = [state.diag]
        if on_step is not None:
            on_step(state)
        for _ in range(self.config.time.M):
            try:
                state = self.advance(state)
            except (SolverError, NonFiniteFieldError) as exc:
                exc.rows = rows  # the diagnostics computed before the failure
                raise
            rows.append(state.diag)
            self._guard(state, rows)
            if on_step is not None:
                on_step(state)
        return state, rows


def initialize(config) -> SimState:
    return Simulation(config).initialize()


def advance(state: SimState, config) -> SimState:
    return Simulation(config).advance(state)


def run(config, on_step=None):
    return Simulation(config).run(on_step=on_step)
