"""Implicit-Euler advection-diffusion solve for temperature.

Sources are the Joule density sigma(theta)|grad phi|^2 and the viscous
dissipation nu(theta) D(v):D(v), both evaluated at quadrature points from the
lagged fields.  Transport is stabilized by a residual-based artificial
viscosity: a cell viscosity

    art|_K = beta ||v||_inf(K) * min(h_K, h_K^a ||R_a||_inf(K) / c(v, theta))
    c(v, theta) = c_R ||v||_inf(Omega) * var(theta) * diam(Omega)^(a-2)

that vanishes where the discrete fields satisfy the temperature equation and
saturates at the first-order upwind level beta ||v|| h_K elsewhere.  The
residual R_a is evaluated pointwise at quadrature points; the P1 diffusion
flux has zero divergence inside elements, so that term drops elementwise and
the residual acts as an upper-bound trigger, not an exact operator.

The time step and the stationary Picard solve share one system builder,
which sums mass, stiffness, advection, Robin and inflow terms in the data of
the one P1 pattern they are all stored on, and one solve.  A step reads its
fields at the quadrature points from three samples: ``temperature``
(:class:`materials.TemperatureSample`), theta^{n-1} with the mesh and the
laws there, ``velocity`` (:class:`flow_solver.VelocitySample`), the
residual's v^{n-1}, and ``transport``, the transporting velocity v^n with
its D(v):D(v), its advection matrix and its inflow weights; a split step
passes the samples its other stages and the previous step read, one sample
for both velocities when v^n is v^{n-1}.  The stationary solve starts from
the temperature sample, reads no velocity but the transport and takes no
``dt``, as the stationary flow takes none.  The Joule density
(:func:`potential_solver.joule_density`) is evaluated at most once, for the
load and the residual, and so is the heat source when v^{n-1} also
transports.  The boundary and source data, and the Dirichlet data that each
solve gives the problem's :class:`linalg.LinearSystem` at the vertices of
the Dirichlet tags (:func:`fem_core.dirichlet_vertices`), are sampled at
the problem's ``time``.  A solve starts from the previous temperature, so
an equilibrium stays bit-for-bit fixed.  The stationary Picard iteration
(:func:`linalg.fixed_point`) raises SolverError when it misses
:data:`PICARD_TOL` in :data:`PICARD_MAX` solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import fem_core, linalg
from .flow_solver import VelocitySample
from .flow_solver import viscous_dissipation  # noqa: F401  (benchmark/tracer.py wraps it here)
from .materials import TemperatureSample
from .mesh import Mesh2D, check_tag_roles
from .potential_solver import joule_density

ROLE_ROBIN = "robin"
ROLE_DIRICHLET = "dirichlet"
ROLE_NEUMANN = "neumann"  # homogeneous: no boundary terms
ROLE_INFLOW = "inflow"  # weakly imposed inflow temperature via the advective flux
PICARD_TOL = 1e-10  # fixed_point tolerance of the stationary Picard iteration
PICARD_MAX = 50  # Picard solves before the stationary heat gives up


@dataclass
class StabilizationParams:
    """Entropy-viscosity parameters; also the ``stabilization`` config section."""

    alpha: float = 2.0  # entropy exponent
    beta: float = 0.1
    c_r: float = 1.0
    var_floor: float = 1e-10

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # A NaN fails each check.  beta = 0 switches the stabilization off;
        # with c_r <= 0, c never exceeds var_floor and every cell saturates.
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in [1, 2], got {self.alpha}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        for name in ("c_r", "var_floor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class HeatBC:
    """The heat role of one boundary tag; also a ``heat_bc`` config entry."""

    role: str = ROLE_NEUMANN
    alpha: float = 0.0  # Robin transfer coefficient
    value: object = 0.0  # ambient/inflow/Dirichlet temperature; const or callable(x, y, t)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.role not in (ROLE_ROBIN, ROLE_DIRICHLET, ROLE_NEUMANN, ROLE_INFLOW):
            raise ValueError(f"unknown heat boundary role {self.role!r}")
        if self.role == ROLE_ROBIN and self.alpha < 0.0:
            raise ValueError(f"Robin coefficient alpha must be nonnegative, got {self.alpha}")
        if not callable(self.value) and not np.isfinite(self.value):
            raise ValueError(f"heat boundary value must be finite, got {self.value!r}")


@dataclass
class HeatProblem:
    temperature: TemperatureSample  # theta^{n-1} and its laws
    transport: VelocitySample  # v^n, the transporting velocity
    phi: np.ndarray  # potential driving the Joule source
    dt: float  # None for the stationary solve
    bc: dict  # tag -> HeatBC, every boundary tag present exactly once
    stab: StabilizationParams = field(default_factory=StabilizationParams)
    velocity: VelocitySample | None = None  # v^{n-1}, the residual's; a step's
    theta_prev2: np.ndarray | None = None  # theta^{n-2}; None at startup
    time: float = 0.0  # t_n, for time-dependent boundary/source closures
    include_physics_sources: bool = True
    extra_source: object = None  # callable(x, y, t); verification hook
    system: linalg.LinearSystem = field(default_factory=linalg.LinearSystem)  # held across solves
    art_visc: np.ndarray | None = field(default=None, init=False)  # last per-cell values
    iterations = property(lambda self: self.system.factor.iterations)  # 0 if it factorized

    def validate(self, step: bool) -> None:
        """Check what a time step (``step``) or the stationary solve reads."""
        if step and self.dt is None:
            raise ValueError("a heat step needs dt")
        if step and self.velocity is None:
            raise ValueError("a heat step needs the previous velocity")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not step and self.dt is not None:
            raise ValueError("the stationary heat takes no dt")
        check_tag_roles(self.bc, "heat")
        v_prev = None if self.velocity is None else self.velocity.v_h
        for name, arr in (("theta_prev", self.temperature.theta_h), ("v_prev", v_prev),
                          ("v", self.transport.v_h), ("phi", self.phi),
                          ("theta_prev2", self.theta_prev2)):
            if arr is not None and not np.isfinite(np.asarray(arr, dtype=float)).all():
                raise ValueError(f"{name} contains non-finite values")


def heat_source(nu: np.ndarray, strain: np.ndarray, joule: np.ndarray) -> np.ndarray:
    """(NT, NQ) physics source nu D(v):D(v) + sigma |grad phi|^2 at the quad
    points, from the viscosity ``nu``, the dissipation ``strain`` = D(v):D(v)
    and the Joule density ``joule``; summed in place of nu D(v):D(v)."""
    source = nu * strain
    source += joule
    return source


def _powers(theta_q, alpha, floor):
    """(theta^a, theta^(a-1), theta^(a-2)) with fractional exponents guarded
    at >= floor; None stands for a power that is identically 1."""
    if alpha == 1.0:
        return theta_q, None, None
    if alpha == 2.0:
        return np.square(theta_q), theta_q, None
    base = np.maximum(theta_q, floor)
    return base ** alpha, base ** (alpha - 1.0), base ** (alpha - 2.0)


def entropy_residual(temperature: TemperatureSample, velocity: VelocitySample,
                     theta_prev2: np.ndarray, source: np.ndarray, dt: float,
                     stab: StabilizationParams) -> np.ndarray:
    """Per-cell sup norm of the pointwise temperature-equation residual.

    Expanded form at each quadrature point (theta = theta^{n-1}, lagged
    coefficients, backward-difference time derivative against theta^{n-2}):

        (th^a - th_prev^a)/(a dt) + th^(a-1) v.grad(th)
        + eta(th)(a-1) th^(a-2) |grad th|^2 - gamma th^(a-1)

    with gamma = nu(th) D(v):D(v) + sigma(th)|grad phi|^2, given as
    ``source``.  ``temperature`` holds th (nodal and at the quad points)
    and the laws there, ``velocity`` v's element coefficients; ``stab``
    gives the exponent a (``alpha``) and the floor of fractional powers
    (``var_floor``).  One expansion serves every a: at a = 1 its diffusion
    term is zero.  v.grad(th) is contracted from the element coefficients,
    (NT, 4) values c.grad(th) times the (4, NQ) MINI table, so v is never
    formed at the quad points.  The elementwise P1 diffusion flux divergence
    vanishes and is dropped.
    """
    a, var_floor = float(stab.alpha), stab.var_floor
    mesh = temperature.mesh
    grad1 = fem_core.p1_gradients(mesh, temperature.theta_h)  # (NT, 2)
    pow0, pow1, pow2 = _powers(temperature.theta, a, var_floor)
    res = _powers(fem_core.p1_at_qp(mesh, theta_prev2), a, var_floor)[0]  # a new array
    np.subtract(pow0, res, out=res)
    res /= a * dt
    # The terms are summed in place: th^(a-1) (v.grad(th) - gamma), then the
    # diffusion term.
    c = velocity.coeffs
    term = fem_core._tab(c[:, 0] * grad1[:, :1] + c[:, 1] * grad1[:, 1:], fem_core.MINI_VALS.T)
    term -= source
    if pow1 is not None:
        term *= pow1
    res += term
    grad_sq = np.square(grad1[:, 0]) + np.square(grad1[:, 1])
    np.multiply(temperature.eta, ((a - 1.0) * grad_sq)[:, None], out=term)
    if pow2 is not None:
        term *= pow2
    res += term
    return fem_core._cell_sup(res)


def domain_diameter(mesh: Mesh2D) -> float:
    """The diagonal of the mesh's bounding box, once per mesh."""
    def build():
        return float(np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)))
    return fem_core.cached(mesh, "domain_diameter", build)


def artificial_viscosity(mesh: Mesh2D, residuals, theta: np.ndarray,
                         vmax_k: np.ndarray, params: StabilizationParams) -> np.ndarray:
    """Per-cell artificial viscosity from the per-cell speeds ``vmax_k`` (a
    velocity sample's ``speed``); ``residuals=None`` saturates the h_K branch."""
    h = mesh.h
    if residuals is None:
        min_term = h
    else:
        vmax = float(vmax_k.max()) if vmax_k.size else 0.0
        var = float(np.max(theta) - np.min(theta))
        c = params.c_r * vmax * var * domain_diameter(mesh) ** (params.alpha - 2.0)
        if c <= params.var_floor:
            min_term = h
        else:
            min_term = np.minimum(h, h ** params.alpha * np.asarray(residuals) / c)
    return params.beta * vmax_k * min_term


def _robin_terms(problem: HeatProblem):
    """The Robin (matrix data, rhs) pair, summed in tag order over the tags
    with a nonzero alpha; the data are None when there is none.  The pair of
    constant ambient temperatures is held per mesh.  With a callable one,
    the data, which depend on the tags and their alphas alone, are held per
    mesh, and only the rhs is formed, sampled at the problem's time."""
    mesh = problem.temperature.mesh
    robin = [(tag, bc) for tag, bc in sorted(problem.bc.items())
             if bc.role == ROLE_ROBIN and bc.alpha != 0.0]

    def mass():
        data = None
        for tag, bc in robin:
            edges = fem_core.boundary_edges(mesh, (tag,))
            m = edges.mass(bc.alpha * edges.wts)
            data = m if data is None else m + data
        return data

    def load():
        rhs = np.zeros(mesh.num_vertices)
        for tag, bc in robin:
            edges = fem_core.boundary_edges(mesh, (tag,))
            w = bc.alpha * edges.wts
            rhs = rhs + edges.load(w * fem_core.sample(bc.value, edges.pts, problem.time))
        return rhs

    if any(callable(bc.value) for _, bc in robin):
        key = ("robin_mass", tuple((tag, bc.alpha) for tag, bc in robin))
        return fem_core.cached(mesh, key, mass), load()

    def build():
        return tuple(x if x is None else fem_core._frozen(x) for x in (mass(), load()))
    key = ("robin", tuple((tag, bc.alpha, bc.value) for tag, bc in robin))
    return fem_core.cached(mesh, key, build)


def _inflow_terms(problem: HeatProblem):
    """The inflow (matrix data, rhs) pair, summed in tag order; the data are
    None when there is no inflow tag.  On each tag's edges: the transport's
    inflow weights and their edge mass, which move with it, and the load of
    the inflow temperature at the problem's time."""
    mesh, transport = problem.temperature.mesh, problem.transport
    data, rhs = None, np.zeros(mesh.num_vertices)
    for tag, bc in sorted(problem.bc.items()):
        if bc.role == ROLE_INFLOW:
            edges = fem_core.boundary_edges(mesh, (tag,))
            m = edges.mass(transport.inflow_mass[edges.index])
            data = m if data is None else m + data
            w = transport.inflow[edges.index]
            rhs = rhs + edges.load(w * fem_core.sample(bc.value, edges.pts, problem.time))
    return data, rhs


def _boundary_terms(problem: HeatProblem):
    """The Robin and the inflow terms, one (matrix data, rhs) pair each:

        A += int_e w theta psi,   rhs += int_e w theta_b psi,

    with w = alpha on a Robin tag (theta_b the ambient temperature) and
    w = -(v.n)_- on an inflow tag, which imposes the inflow temperature
    weakly through the advective flux.  The inflow weight acts only where
    the transporting velocity enters the domain (v.n < 0), so a switched-off
    jet imposes nothing.  Matrix data, on the full P1 pattern, are None when
    no tag contributes.  The Robin matrix data are a per-mesh constant,
    built once, and so is its rhs of constant ambient temperatures; a
    callable ambient temperature is sampled at each call, at the problem's
    time.
    """
    return _robin_terms(problem), _inflow_terms(problem)


def _solve(problem: HeatProblem, A_sys, rhs, theta) -> np.ndarray:
    """The temperature of the system (``A_sys``, ``rhs``) by the problem's
    :class:`linalg.LinearSystem` from the guess ``theta``, constrained at
    the vertices of the Dirichlet tags of ``bc`` to their data at the
    problem's time."""
    mesh = problem.temperature.mesh
    data = {tag: bc.value for tag, bc in problem.bc.items() if bc.role == ROLE_DIRICHLET}
    verts = fem_core.dirichlet_vertices(mesh, data)
    return problem.system.solve(A_sys, rhs, verts.dofs, verts.values(data, problem.time),
                                fem_core.vertex_order(mesh), x0=theta)


def _cell_viscosity(problem: HeatProblem, source) -> np.ndarray:
    """Per-cell artificial viscosity of the step, also kept as ``art_visc``,
    from the problem's samples of theta^{n-1} and v^{n-1} and the cell
    speeds of v^{n-1}; ``source()`` is the heat source there."""
    temperature, velocity = problem.temperature, problem.velocity
    mesh = temperature.mesh
    art = np.zeros(mesh.num_triangles)
    if problem.stab.beta != 0.0:
        res = None
        if problem.theta_prev2 is not None:  # None at startup: h_K saturates
            res = entropy_residual(temperature, velocity, problem.theta_prev2, source(),
                                   problem.dt, problem.stab)
        art = artificial_viscosity(mesh, res, temperature.theta_h, velocity.speed,
                                   problem.stab)
    problem.art_visc = art
    return art


def _heat_system(problem: HeatProblem):
    """Builder of M/dt + K(eta(theta) + art) + advection + Robin + inflow
    and its right-hand side, with the mass term when the problem has a
    ``dt``.  Every term is stored on the one P1 pattern, so the matrix is
    summed in its data.  The terms that do not depend on theta,
    among them the advection matrix of v's element coefficients (by the
    reference map) and the inflow terms, values of the problem's
    ``transport``, are read once, when the builder is made."""
    transport = problem.transport
    mesh = transport.mesh
    sources = problem.include_physics_sources
    extra = None
    if problem.extra_source is not None:
        extra = fem_core.sample(problem.extra_source, fem_core.quadrature_points(mesh),
                                problem.time)
    M = fem_core.assemble_mass(mesh)
    mass_coeff = None if problem.dt is None else 1.0 / problem.dt
    D = transport.advection
    boundary = _boundary_terms(problem)

    def build(theta, laws, source, art=0.0):
        """The system at the laws ``laws`` of ``theta``, its
        :class:`TemperatureSample`; ``source()`` is the physics source there,
        read when the problem includes it."""
        A_sys = fem_core.assemble_stiffness(mesh, laws.eta + art)
        src = source() if sources else 0.0
        if extra is not None:
            src = src + extra
        rhs = fem_core.assemble_scalar_load(mesh, src)
        if mass_coeff is not None:
            A_sys.data += mass_coeff * M.data
            rhs = M @ (mass_coeff * theta) + rhs
        A_sys.data += D.data
        for data, load in boundary:
            if data is not None:
                A_sys.data += data
            rhs = rhs + load
        return A_sys, rhs

    return build


def solve_heat_step(problem: HeatProblem) -> np.ndarray:
    """One implicit-Euler step of the stabilized temperature equation."""
    problem.validate(step=True)
    temperature, velocity, transport = problem.temperature, problem.velocity, problem.transport
    # One Joule density at theta^{n-1}, evaluated at most once: the load's and
    # the residual's.  The residual's source reads v^{n-1}'s D(v):D(v) and
    # the load's v^n's, so one source serves both when v^{n-1} transports.
    joule = cache(lambda: joule_density(temperature.mesh, temperature.sigma, problem.phi))
    source = cache(lambda: heat_source(temperature.nu, velocity.strain, joule()))
    # The viscosity comes first, so its residual's temporaries are freed
    # before the system is built; so is v^{n-1}'s D(v):D(v), which the
    # system does not read unless v^{n-1} is also the transport.
    art = _cell_viscosity(problem, source)
    if velocity is not transport:
        velocity.drop("strain")
        source = cache(lambda: heat_source(temperature.nu, transport.strain, joule()))
    A_sys, rhs = _heat_system(problem)(temperature.theta_h, temperature, source, art[:, None])
    return _solve(problem, A_sys, rhs, temperature.theta_h)


def solve_heat_stationary(problem: HeatProblem) -> np.ndarray:
    """Steady temperature with given flow/potential, by Picard on eta(theta).

    Solves the unstabilized stationary equation (no time derivative, no
    artificial viscosity); used to build initial conditions.  The problem's
    temperature seeds the Picard iteration, whose iterate lags the
    coefficients and the sources; missing :data:`PICARD_TOL` in
    :data:`PICARD_MAX` solves raises SolverError.  A problem with a ``dt``
    raises ValueError.
    """
    problem.validate(step=False)
    build = _heat_system(problem)
    model, mesh = problem.temperature.model, problem.temperature.mesh

    def step(theta):
        # The first map's iterate is the problem's own array (fixed_point
        # passes it through), so it reads the problem's sample.
        laws = (problem.temperature if theta is problem.temperature.theta_h
                else TemperatureSample(model, mesh, theta))
        A_sys, rhs = build(theta, laws, lambda: heat_source(
            laws.nu, problem.transport.strain, joule_density(mesh, laws.sigma, problem.phi)))
        return _solve(problem, A_sys, rhs, theta), None

    theta, _ = linalg.fixed_point(step, problem.temperature.theta_h, PICARD_TOL, PICARD_MAX)
    return theta
