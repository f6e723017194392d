"""Time-lag splitting loop: potential and flow at the lagged temperature,
then the stabilized heat step, repeated on a uniform time grid.

Per step n (lagged temperature th^{n-1} in hand):

    1. potential:  a_phi(th^{n-1}; phi, chi) = (g, chi) on the electrode
    2. flow:       implicit Euler Oseen step advected by v^{n-1}
    3. heat:       implicit Euler with transport v^n, sources from (v^n, phi),
                   artificial viscosity triggered by the (th^{n-1}, th^{n-2},
                   v^{n-1}) residual

Each stage's problem holds the samples of the fields it reads: a
:class:`materials.TemperatureSample` of theta^{n-1} with the laws sigma,
eta, nu at the quadrature points, and :class:`flow_solver.VelocitySample`
of v^{n-1} and, for the heat, of v^n.  A state holds one sample of each of
its fields, which evaluates each value once, on first read; a step reuses a
sample while it samples the state's own array (a state built by hand, or
one whose sample is of another array, gets a fresh one).  The new state
takes the heat's sample of v^n as it is.  When the flow step returns
v^{n-1} itself, which it does when its solve returns its guess (see
:mod:`flow_solver`; test1's flow is the stationary one at every step), one
sample is both v^{n-1} and v^n, so each of the velocity's values is
evaluated once per distinct velocity.  The initialization's stages share
one sample of theta_b, and the stationary heat's sample of v0 is the
initial state's.  Each stage is recorded per step
as (name, start, end), wall clock, in the order run, and never reordered;
an exception raised in it is labelled "step <n>/<stage>: " (at step 0,
"initialize/<stage>: ").  Each system keeps its constrained dofs, the
structure of its Dirichlet elimination and its LU across its solves, the
stationary ones included (``Simulation.systems``, see
:class:`linalg.LinearSystem`); the flow's also keeps the last step's inputs
and result while that step returned its input.  Every step, step 0
included, ends in ``Simulation._end_step``: the new state is checked
finite, gets its diagnostics row and meets the blow-up guard, which aborts
once max|theta| or max|v| exceeds 1e4, mirroring the runaway regime reached
for large electrode currents; |Bv| and max|v| are values of the state's
velocity sample.
"""

from __future__ import annotations

import copy
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import fem_core
from .flow_solver import FlowProblem, VelocitySample, solve_flow_stationary, solve_flow_step
from .heat_solver import (ROLE_INFLOW, HeatBC, HeatProblem, solve_heat_stationary,
                          solve_heat_step)
from .linalg import LinearSystem, SolverError
from .materials import TemperatureSample
from .mesh import TAG_NAMES, generate_channel_mesh
from .potential_solver import PotentialProblem, solve_potential

BLOWUP_LIMIT = 1e4


class NonFiniteFieldError(SolverError):
    pass


class BlowUpError(RuntimeError):
    """Raised when the blow-up guard trips; ``state`` is the tripping state,
    with its diagnostics row."""


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
    stages: list = field(default_factory=list, repr=False)  # (name, start, end) wallclock


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
    theta_sample: TemperatureSample | None = None  # theta's; the next step builds it when None
    v_sample: VelocitySample | None = None  # v's; the next step builds it when None

    def check_finite(self) -> None:
        for name in ("v", "P", "theta", "phi", "theta_prev"):
            arr = getattr(self, name)
            if arr is not None and not np.isfinite(arr).all():
                raise NonFiniteFieldError(f"state field {name!r} has non-finite entries")


@contextmanager
def _stage(stages: list, label: str, name: str):
    """Append the stage ``name`` to ``stages`` as (name, start, end), wall
    clock.  An exception raised in it has "label/name: " put before its
    message, and keeps its class, attributes and traceback."""
    start = _time.perf_counter()
    try:
        yield
    except Exception as exc:
        exc.args = (f"{label}/{name}: {exc}",)
        raise
    stages.append((name, start, _time.perf_counter()))


class Simulation:
    """Owns the mesh, dof map, material model and the linear system of each
    stage (``systems``: potential, flow, heat, each a
    :class:`linalg.LinearSystem`, which every problem of that stage is given,
    so its factor is held across the run's solves).  The systems start
    empty; each solver sets its system's constraints at the first solve
    (the heat's values, which may depend on t, are resampled at each
    solve)."""

    def __init__(self, config):
        config.validate()
        # One private copy: editing ``config`` afterwards never reaches the run.
        self.config = config = copy.deepcopy(config)
        self.mesh = generate_channel_mesh(config.geometry)
        self.dofmap = fem_core.dofmap_for(self.mesh)
        self.model = config.build_material_model()
        self.flow_bc = config.build_flow_bcs()
        self.heat_bc = {TAG_NAMES[name]: bc for name, bc in config.heat_bc.items()}
        self.stab = config.stabilization
        self.systems = {name: LinearSystem() for name in ("potential", "flow", "heat")}

    # -- problem builders -----------------------------------------------------

    def _potential_problem(self, temperature) -> PotentialProblem:
        pot = self.config.potential_bc
        return PotentialProblem(
            temperature=temperature, g=pot.g,
            neumann_tags=pot.neumann_tags, dirichlet_tags=pot.dirichlet_tags,
            system=self.systems["potential"],
        )

    def _flow_problem(self, temperature, dt, velocity=None, p_prev=None) -> FlowProblem:
        return FlowProblem(temperature=temperature, dt=dt, bc=self.flow_bc, velocity=velocity,
                           p_prev=p_prev, system=self.systems["flow"])

    def _heat_problem(self, temperature, velocity, transport, theta_prev2, phi, dt,
                      t) -> HeatProblem:
        return HeatProblem(
            temperature=temperature, velocity=velocity, transport=transport,
            theta_prev2=theta_prev2, phi=phi, dt=dt, bc=self.heat_bc,
            stab=self.stab, time=t, system=self.systems["heat"],
        )

    # -- the end of a step ------------------------------------------------------

    def _end_step(self, state: SimState, stages) -> SimState:
        """``state``, checked finite and given its diagnostics row, once it
        meets the blow-up guard; the guard raises BlowUpError carrying it."""
        state.check_finite()
        theta = np.asarray(state.theta)
        imax = int(np.argmax(theta))
        xy = self.mesh.vertices[imax]
        int_theta = float(np.sum(fem_core.assemble_mass(self.mesh) @ theta))
        velocity = state.v_sample  # |Bv| and max|v| go with v

        pos = state.theta_sample.theta - self.model.theta_b
        mass_pos = fem_core.integrate_qp(self.mesh, np.maximum(pos, 0.0, out=pos))
        if mass_pos > 1e-300:
            pos *= fem_core.geometry(self.mesh).qp[..., 0]
            centroid = fem_core.integrate_qp(self.mesh, pos) / mass_pos
        else:
            centroid = float("nan")

        art = np.zeros(1) if state.art_visc_cells is None else np.asarray(state.art_visc_cells)
        state.diag = DiagnosticsRow(
            step=state.n, t=state.t,
            max_theta=float(theta.max()), argmax_x=float(xy[0]), argmax_y=float(xy[1]),
            int_theta=int_theta, div_norm=velocity.div_norm,
            max_art_visc=float(art.max()), min_art_visc=float(art.min()),
            centroid_x=float(centroid), stages=stages,
        )

        mt, mv = float(np.max(np.abs(theta))), velocity.vmax
        if mt > BLOWUP_LIMIT or mv > BLOWUP_LIMIT:
            exc = BlowUpError(f"blow-up guard tripped at step {state.n}: "
                              f"max|theta|={mt:.3e}, max|v|={mv:.3e}")
            exc.state = state
            raise exc
        return state

    # -- lifecycle ------------------------------------------------------------------

    def initialize(self) -> SimState:
        """Stationary solves for (v0, P0), phi0, theta0: the state of step 0."""
        theta_b_field = np.full(self.mesh.num_vertices, self.model.theta_b)
        theta_b = TemperatureSample(self.model, self.mesh, theta_b_field)  # every stage's
        stages = []

        with _stage(stages, "initialize", "flow"):
            v0, p0 = solve_flow_stationary(self._flow_problem(theta_b, None))
        with _stage(stages, "initialize", "potential"):
            phi0 = solve_potential(self._potential_problem(theta_b))
        with _stage(stages, "initialize", "heat"):
            # Pre-activation equilibrium: RF current and saline supply are off
            # until t = 0, so the initial temperature is the body-equilibrium
            # steady state, with no physics sources and each inflow tag
            # insulated; Joule heating and saline cooling switch on at step 1
            # and the run contains their transients (the produced heat then
            # rides the flow toward the outlet).
            off = {tag: HeatBC() if bc.role == ROLE_INFLOW else bc
                   for tag, bc in self.heat_bc.items()}
            velocity = VelocitySample(self.mesh, v0)
            theta0 = solve_heat_stationary(HeatProblem(
                temperature=theta_b, transport=velocity, phi=phi0, dt=None, bc=off,
                include_physics_sources=False, system=self.systems["heat"]))

        state = SimState(t=0.0, n=0, v=v0, P=p0, theta=theta0, phi=phi0, theta_prev=None,
                         theta_sample=TemperatureSample(self.model, self.mesh, theta0),
                         v_sample=velocity)
        return self._end_step(state, stages)

    def advance(self, state: SimState) -> SimState:
        """One whole split step, blow-up guard included; the input state is
        left untouched on any failure."""
        state.check_finite()
        dt = self.config.time.dt
        n_new = state.n + 1
        t_new = state.t + dt
        label = f"step {n_new}"
        stages = []
        # One sample of theta^{n-1} and one of v^{n-1} for the three stages:
        # the state's, when they sample the state's own fields.
        temperature, velocity = state.theta_sample, state.v_sample
        if temperature is None or temperature.theta_h is not state.theta:
            temperature = TemperatureSample(self.model, self.mesh, state.theta)
        if velocity is None or velocity.v_h is not state.v:
            velocity = VelocitySample(self.mesh, state.v)

        # Stage 1: potential at the lagged temperature.
        with _stage(stages, label, "potential"):
            phi = solve_potential(self._potential_problem(temperature))

        # Stage 2: flow advected by v^{n-1}, viscosity at theta^{n-1}, from
        # (v^{n-1}, P^{n-1}).
        with _stage(stages, label, "flow"):
            v_new, p_new = solve_flow_step(self._flow_problem(temperature, dt, velocity,
                                                              state.P))

        # Stage 3: heat transported by v^n with lagged sources and residual.
        # When the flow returned v^{n-1} itself, its sample transports too, so
        # the velocity's values are not evaluated again.  v^n's sample goes
        # to the next step.
        with _stage(stages, label, "heat"):
            transport = velocity if v_new is state.v else VelocitySample(self.mesh, v_new)
            hp = self._heat_problem(temperature, velocity, transport, state.theta_prev, phi,
                                    dt, t_new)
            theta_new = solve_heat_step(hp)

        new_state = SimState(t=t_new, n=n_new, v=v_new, P=p_new,
                             theta=theta_new, phi=phi, theta_prev=state.theta,
                             art_visc_cells=hp.art_visc,
                             theta_sample=TemperatureSample(self.model, self.mesh, theta_new),
                             v_sample=transport)
        return self._end_step(new_state, stages)

    def run(self, on_step=None):
        """Initialize then advance M steps; returns (final state, diagnostics rows).

        A SolverError (NonFiniteFieldError included) or a BlowUpError carries
        the rows computed before it as ``exc.rows``, a BlowUpError's ending
        with the row of its state, which ``on_step`` never receives.
        """
        rows, state = [], None
        try:
            for _ in range(self.config.time.M + 1):
                state = self.initialize() if state is None else self.advance(state)
                rows.append(state.diag)
                if on_step is not None:
                    on_step(state)
        except (SolverError, BlowUpError) as exc:
            if isinstance(exc, BlowUpError):
                rows.append(exc.state.diag)
            exc.rows = rows
            raise
        return state, rows
