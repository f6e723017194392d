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
the one P1 pattern they are all stored on.  A step reads its fields at the
quadrature points from two samples (:class:`materials.FieldSample`):
``sample``, theta^{n-1} with the mesh, the laws there and the residual's
velocity v^{n-1}, and ``transport``, the transporting velocity v^n with its
D(v):D(v); a split step passes the samples its other stages and the previous
step read, and a None transport leaves the sample to serve both.  The
stationary solve starts from the sample's temperature, reads the velocity
from the transport and needs no ``dt``.  The Joule density
(:func:`potential_solver.joule_density`) is evaluated at most once, for the
load and the residual.  Each system is solved by the problem's
:class:`linalg.LinearSystem` with the previous temperature as the guess, so
an equilibrium stays bit-for-bit fixed; the system takes the vertices of
the Dirichlet tags at its first solve and samples their values at each
solve's time.  The
stationary Picard iteration (:func:`linalg.fixed_point`) raises SolverError
when it misses :data:`PICARD_TOL` in :data:`PICARD_MAX` solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import fem_core, linalg
from .materials import FieldSample
from .mesh import Mesh2D, check_tag_roles
from .potential_solver import joule_density
from .flow_solver import viscous_dissipation  # noqa: F401  (benchmark/tracer.py wraps it here)

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
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in [1, 2], got {self.alpha}")


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

    def value_at(self, t: float):
        """The boundary value at time t: a constant or a callable(x, y)."""
        if callable(self.value):
            return lambda x, y: self.value(x, y, t)
        return float(self.value)


@dataclass
class HeatProblem:
    sample: FieldSample  # theta^{n-1} (theta_h) and the residual's velocity v^{n-1} (v_h)
    phi: np.ndarray  # potential driving the Joule source
    dt: float  # None for the stationary solve
    bc: dict  # tag -> HeatBC, every boundary tag present exactly once
    stab: StabilizationParams = field(default_factory=StabilizationParams)
    theta_prev2: np.ndarray | None = None  # theta^{n-2}; None at startup
    time: float = 0.0  # t_n, for time-dependent boundary/source closures
    include_physics_sources: bool = True
    extra_source: object = None  # callable(x, y, t); verification hook
    system: linalg.LinearSystem = field(default_factory=linalg.LinearSystem)  # held across solves
    transport: FieldSample | None = None  # v^n (v_h) and its D(v):D(v); the sample when None
    iterations: int = field(default=0, init=False)  # GMRES count of the step; 0 if it factorized
    art_visc: np.ndarray | None = field(default=None, init=False)  # last per-cell values

    def __post_init__(self):
        if self.transport is None:
            self.transport = self.sample

    def validate(self, step: bool) -> None:
        """Check what a time step (``step``) or the stationary solve reads."""
        if step and self.dt is None:
            raise ValueError("a heat step needs dt")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        check_tag_roles(self.bc, "heat")
        if self.sample.v_h is None or self.transport.v_h is None:
            raise ValueError("a heat problem needs the velocity, its samples' v_h")
        for name, arr in (("theta_prev", self.sample.theta_h), ("v_prev", self.sample.v_h),
                          ("v", self.transport.v_h), ("phi", self.phi)):
            if not np.all(np.isfinite(np.asarray(arr, dtype=float))):
                raise ValueError(f"{name} contains non-finite values")


def heat_source(nu: np.ndarray, strain: np.ndarray, joule: np.ndarray) -> np.ndarray:
    """(NT, NQ) physics source nu D(v):D(v) + sigma |grad phi|^2 at the quad
    points, from the viscosity ``nu``, the dissipation ``strain`` = D(v):D(v)
    and the Joule density ``joule``; summed in place of nu D(v):D(v)."""
    source = nu * strain
    source += joule
    return source


def _powers(theta_q, alpha, floor):
    """(theta^(a-1), theta^(a-2)) with fractional exponents guarded at >= floor;
    None stands for a power that is identically 1."""
    if alpha == 1.0:
        return None, None
    if alpha == 2.0:
        return theta_q, None
    base = np.maximum(theta_q, floor)
    return base ** (alpha - 1.0), base ** (alpha - 2.0)


def entropy_residual(sample: FieldSample, theta_prev2: np.ndarray, source: np.ndarray,
                     dt: float, stab: StabilizationParams) -> np.ndarray:
    """Per-cell sup norm of the pointwise temperature-equation residual.

    Expanded form at each quadrature point (theta = theta^{n-1}, lagged
    coefficients, backward-difference time derivative against theta^{n-2}):

        (th^a - th_prev^a)/(a dt) + th^(a-1) v.grad(th)
        + eta(th)(a-1) th^(a-2) |grad th|^2 - gamma th^(a-1)

    with gamma = nu(th) D(v):D(v) + sigma(th)|grad phi|^2, given as
    ``source``.  ``sample`` holds th (nodal and at the quad points), the
    velocity at the quad points and the laws there; ``stab`` gives the
    exponent a (``alpha``) and the floor of fractional powers (``var_floor``).
    The elementwise P1 diffusion flux divergence vanishes and is dropped.
    """
    a, var_floor = float(stab.alpha), stab.var_floor
    th1_q = sample.theta
    th2_q = fem_core.p1_at_qp(sample.mesh, theta_prev2)
    grad1 = fem_core.p1_gradients(sample.mesh, sample.theta_h)  # (NT, 2)
    pow1, pow2 = _powers(th1_q, a, var_floor)

    # The terms are summed in place, in the order of the expansion.
    if a == 1.0:
        res = np.subtract(th1_q, th2_q)
        res /= dt
    elif a == 2.0:
        res = th1_q ** 2
        res -= th2_q ** 2
        res /= 2.0 * dt
    else:
        res = np.maximum(th1_q, var_floor) ** a
        res -= np.maximum(th2_q, var_floor) ** a
        res /= a * dt
    del th2_q
    term = np.einsum("tqd,td->tq", sample.v, grad1)
    if a == 1.0:
        res += term
        res -= source
    else:
        term *= pow1
        res += term
        np.multiply(sample.eta, a - 1.0, out=term)
        if pow2 is not None:
            term *= pow2
        term *= np.einsum("td,td->t", grad1, grad1)[:, None]
        res += term
        res -= np.multiply(source, pow1, out=term)
    return np.max(np.abs(res, out=res), axis=1)


def _cell_speed_max(coeffs: np.ndarray, v_qp: np.ndarray) -> np.ndarray:
    """Per-cell sup of |v| sampled at quadrature points (``v_qp``) and
    vertices, whose values are the (NT, 2, 4) element coefficients'
    ``coeffs[:, :, :3]`` (the bubble vanishes there).  The largest
    vx^2 + vy^2 is taken first and its square root once per cell: sqrt is
    monotone and correctly rounded, so this is the largest |v|."""
    sq = np.square(v_qp[..., 0])
    sq += np.square(v_qp[..., 1])
    sq_v = np.square(coeffs[:, 0, :3])
    sq_v += np.square(coeffs[:, 1, :3])
    return np.sqrt(np.maximum(sq.max(axis=1), sq_v.max(axis=1)))


def domain_diameter(mesh: Mesh2D) -> float:
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    return float(np.linalg.norm(hi - lo))


def artificial_viscosity(mesh: Mesh2D, residuals, theta: np.ndarray,
                         vmax_k: np.ndarray, params: StabilizationParams) -> np.ndarray:
    """Per-cell artificial viscosity from the per-cell speeds ``vmax_k``
    (:func:`_cell_speed_max`); ``residuals=None`` saturates the h_K branch."""
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


def _robin_term(mesh: Mesh2D, tag: int, bc: HeatBC, t: float):
    """(matrix data, load) of the Robin tag ``tag``.  The matrix, and the
    load of a constant ambient temperature, are per-mesh constants, built
    once; the load of a callable one is sampled at the time ``t``."""
    edges = fem_core.boundary_edges(mesh, (tag,))
    w = bc.alpha * edges.wts

    def load():
        return edges.load(w * fem_core.sample(bc.value_at(t), edges.pts))

    data = fem_core.cached(mesh, ("robin", tag, bc.alpha), lambda: edges.mass(w))
    if callable(bc.value):
        return data, load()
    return data, fem_core.cached(mesh, ("robin", tag, bc.alpha, bc.value), load)


def _inflow_term(problem: HeatProblem, tag: int, bc: HeatBC):
    """(matrix data, load) of the inflow tag ``tag``, whose weight -(v.n)_-
    moves with the transporting velocity."""
    edges = fem_core.boundary_edges(problem.sample.mesh, (tag,))
    vel = edges.trace(problem.transport.coeffs)
    w = edges.wts * np.maximum(-np.einsum("egk,ek->eg", vel, edges.normals), 0.0)
    return edges.mass(w), edges.load(w * fem_core.sample(bc.value_at(problem.time), edges.pts))


def _boundary_terms(problem: HeatProblem):
    """The Robin and the inflow terms, one (matrix data, rhs) pair each:

        A += int_e w theta psi,   rhs += int_e w theta_b psi,

    with w = alpha on a Robin tag (theta_b the ambient temperature) and
    w = -(v.n)_- on an inflow tag, which imposes the inflow temperature
    weakly through the advective flux.  The inflow weight acts only where
    the transporting velocity enters the domain (v.n < 0), so a switched-off
    jet imposes nothing.  Matrix data, on the full P1 pattern, are None when
    no tag contributes.
    """
    mesh = problem.sample.mesh
    terms = {ROLE_ROBIN: (None, np.zeros(mesh.num_vertices)),
             ROLE_INFLOW: (None, np.zeros(mesh.num_vertices))}
    for tag, bc in sorted(problem.bc.items()):
        if bc.role == ROLE_ROBIN and bc.alpha != 0.0:
            m, load = _robin_term(mesh, tag, bc, problem.time)
        elif bc.role == ROLE_INFLOW:
            m, load = _inflow_term(problem, tag, bc)
        else:
            continue
        data, rhs = terms[bc.role]
        terms[bc.role] = (m if data is None else m + data, rhs + load)
    return terms[ROLE_ROBIN], terms[ROLE_INFLOW]


def _linear_system(problem: HeatProblem) -> linalg.LinearSystem:
    """The problem's system, constrained at its first solve at the vertices
    of the Dirichlet tags of ``bc``, whose values each solve samples at its
    time."""
    system = problem.system
    if system.dofs is None:
        bc, mesh = problem.bc, problem.sample.mesh
        verts = fem_core.DirichletVertices(
            mesh, [tag for tag, heat_bc in bc.items() if heat_bc.role == ROLE_DIRICHLET])
        system.constrain(verts.dofs,
                         lambda t: verts.values({tag: bc[tag].value_at(t) for tag in verts.tags}),
                         fem_core.vertex_order(mesh))
    return system


def _cell_viscosity(problem: HeatProblem, joule) -> np.ndarray:
    """Per-cell artificial viscosity of the step, also kept as ``art_visc``,
    from the problem's sample of theta^{n-1} and v^{n-1}; ``joule()`` is the
    Joule density at theta^{n-1}."""
    sample = problem.sample
    mesh = sample.mesh
    art = np.zeros(mesh.num_triangles)
    if problem.stab.beta != 0.0:
        res = None
        if problem.theta_prev2 is not None:  # None at startup: h_K saturates
            source = heat_source(sample.nu, sample.strain, joule())
            res = entropy_residual(sample, problem.theta_prev2, source, problem.dt, problem.stab)
        art = artificial_viscosity(mesh, res, sample.theta_h,
                                   _cell_speed_max(sample.coeffs, sample.v), problem.stab)
    problem.art_visc = art
    return art


def _heat_system(problem: HeatProblem, mass_coeff: float):
    """Builder of mass_coeff M + K(eta(theta) + art) + advection + Robin + inflow
    and its right-hand side.  Every term is stored on the one P1 pattern, so
    the matrix is summed in its data.  The terms that do not depend on theta,
    among them the advection matrix of v's element coefficients (by the
    reference map) and D(v):D(v) at the quad points, both values of the
    problem's ``transport``, are read once, when the builder is made."""
    transport = problem.transport
    mesh = transport.mesh
    sources = problem.include_physics_sources
    strain = transport.strain if sources else None
    extra = None
    if problem.extra_source is not None:
        extra = fem_core.sample(lambda x, y: problem.extra_source(x, y, problem.time),
                                fem_core.geometry(mesh).qp)
    M = fem_core.assemble_mass(mesh)
    Mc = mass_coeff * M.data if mass_coeff else None
    D = transport.advection
    boundary = _boundary_terms(problem)

    def build(theta, laws, joule, art=0.0):
        """The system at the laws ``laws`` of ``theta`` (a :class:`FieldSample`);
        ``joule()`` is the Joule density there."""
        A_sys = fem_core.assemble_stiffness(mesh, laws.eta + art)
        src = heat_source(laws.nu, strain, joule()) if sources else 0.0
        if extra is not None:
            src = src + extra
        rhs = fem_core.assemble_scalar_load(mesh, src)
        if Mc is not None:
            A_sys.data += Mc
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
    sample = problem.sample
    # One Joule density at theta^{n-1}, evaluated at most once: the load's and
    # the residual's.
    joule = cache(lambda: joule_density(sample.mesh, sample.sigma, problem.phi))
    # The viscosity comes first, so its residual's temporaries are freed
    # before the system is built; so are v^{n-1}'s values, which the system
    # does not read unless the sample is also the transport.
    art = _cell_viscosity(problem, joule)
    if sample is not problem.transport:
        sample.drop("v", "strain")
    build = _heat_system(problem, 1.0 / problem.dt)
    A_sys, rhs = build(sample.theta_h, sample, joule, art[:, None])
    system = _linear_system(problem)
    theta = system.solve(A_sys, rhs, x0=sample.theta_h, t=problem.time)
    problem.iterations = system.factor.iterations
    return theta


def solve_heat_stationary(problem: HeatProblem) -> np.ndarray:
    """Steady temperature with given flow/potential, by Picard on eta(theta).

    Solves the unstabilized stationary equation (no time derivative, no
    artificial viscosity); used to build initial conditions.  The sample's
    temperature seeds the Picard iteration, whose iterate lags the
    coefficients and the sources; missing :data:`PICARD_TOL` in
    :data:`PICARD_MAX` solves raises SolverError.  It reads no ``dt``.
    """
    problem.validate(step=False)
    build = _heat_system(problem, 0.0)
    model, mesh = problem.sample.model, problem.sample.mesh

    def step(theta):
        laws = FieldSample(model, mesh, theta)
        A_sys, rhs = build(theta, laws, lambda: joule_density(mesh, laws.sigma, problem.phi))
        return _linear_system(problem).solve(A_sys, rhs, x0=theta, t=problem.time), None

    theta, _ = linalg.fixed_point(step, problem.sample.theta_h, PICARD_TOL, PICARD_MAX)
    return theta
