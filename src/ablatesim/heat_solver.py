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
fields at the quadrature points from two samples
(:class:`materials.FieldSample`): ``sample``, theta^{n-1} with the mesh, the
laws there and the residual's velocity v^{n-1}, and ``transport``, the
transporting velocity v^n with its D(v):D(v); a split step passes the
samples its other stages and the previous step read, and a None transport
leaves the sample to serve both.  The stationary solve starts from the
sample's temperature, reads the velocity from the transport and takes no
``dt``, as the stationary flow takes none.  The Joule density
(:func:`potential_solver.joule_density`) is evaluated at most once, for the
load and the residual, and so is the heat source when the sample also
transports.  The cell speeds and the inflow weights are velocity values
that the samples carry (:class:`materials.FieldSample`).  The boundary and
source data, and the Dirichlet data that each solve gives the problem's
:class:`linalg.LinearSystem` at the vertices of the Dirichlet tags
(:func:`fem_core.dirichlet_vertices`), are sampled at the problem's
``time``.  A solve starts from the previous temperature, so an equilibrium
stays bit-for-bit fixed.  The stationary Picard iteration
(:func:`linalg.fixed_point`) raises SolverError when it misses
:data:`PICARD_TOL` in :data:`PICARD_MAX` solves.
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
    art_visc: np.ndarray | None = field(default=None, init=False)  # last per-cell values
    iterations = property(lambda self: self.system.factor.iterations)  # 0 if it factorized

    def __post_init__(self):
        if self.transport is None:
            self.transport = self.sample

    def validate(self, step: bool) -> None:
        """Check what a time step (``step``) or the stationary solve reads."""
        if step and self.dt is None:
            raise ValueError("a heat step needs dt")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not step and self.dt is not None:
            raise ValueError("the stationary heat takes no dt")
        check_tag_roles(self.bc, "heat")
        if self.sample.v_h is None or self.transport.v_h is None:
            raise ValueError("a heat problem needs the velocity, its samples' v_h")
        for name, arr in (("theta_prev", self.sample.theta_h), ("v_prev", self.sample.v_h),
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


def _cell_sup(values: np.ndarray) -> np.ndarray:
    """(NT,) per-cell sup of |values| over the points of (NT, Q) ``values``:
    the moduli are laid out (Q, NT), so the sup is taken over whole columns,
    not along Q-wide rows."""
    return np.abs(values.T, out=np.empty(values.shape[::-1])).max(axis=0)


def entropy_residual(sample: FieldSample, theta_prev2: np.ndarray, source: np.ndarray,
                     dt: float, stab: StabilizationParams) -> np.ndarray:
    """Per-cell sup norm of the pointwise temperature-equation residual.

    Expanded form at each quadrature point (theta = theta^{n-1}, lagged
    coefficients, backward-difference time derivative against theta^{n-2}):

        (th^a - th_prev^a)/(a dt) + th^(a-1) v.grad(th)
        + eta(th)(a-1) th^(a-2) |grad th|^2 - gamma th^(a-1)

    with gamma = nu(th) D(v):D(v) + sigma(th)|grad phi|^2, given as
    ``source``.  ``sample`` holds th (nodal and at the quad points), the
    velocity's element coefficients and the laws there; ``stab`` gives the
    exponent a (``alpha``) and the floor of fractional powers
    (``var_floor``).  One expansion serves every a: at a = 1 its diffusion
    term is zero.  v.grad(th) is contracted from the element coefficients,
    (NT, 4) values c.grad(th) times the (4, NQ) MINI table, so v is never
    formed at the quad points.  The elementwise P1 diffusion flux divergence
    vanishes and is dropped.
    """
    a, var_floor = float(stab.alpha), stab.var_floor
    mesh = sample.mesh
    grad1 = fem_core.p1_gradients(mesh, sample.theta_h)  # (NT, 2)
    pow0, pow1, pow2 = _powers(sample.theta, a, var_floor)
    res = _powers(fem_core.p1_at_qp(mesh, theta_prev2), a, var_floor)[0]  # a new array
    np.subtract(pow0, res, out=res)
    res /= a * dt
    # The terms are summed in place: th^(a-1) (v.grad(th) - gamma), then the
    # diffusion term.
    c = sample.coeffs
    term = fem_core._tab(c[:, 0] * grad1[:, :1] + c[:, 1] * grad1[:, 1:], fem_core.MINI_VALS.T)
    term -= source
    if pow1 is not None:
        term *= pow1
    res += term
    grad_sq = np.square(grad1[:, 0]) + np.square(grad1[:, 1])
    np.multiply(sample.eta, ((a - 1.0) * grad_sq)[:, None], out=term)
    if pow2 is not None:
        term *= pow2
    res += term
    return _cell_sup(res)


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
    return np.sqrt(np.maximum(_cell_sup(sq), _cell_sup(sq_v)))


def domain_diameter(mesh: Mesh2D) -> float:
    """The diagonal of the mesh's bounding box, once per mesh."""
    def build():
        return float(np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)))
    return fem_core.cached(mesh, "domain_diameter", build)


def artificial_viscosity(mesh: Mesh2D, residuals, theta: np.ndarray,
                         vmax_k: np.ndarray, params: StabilizationParams) -> np.ndarray:
    """Per-cell artificial viscosity from the per-cell speeds ``vmax_k``
    (:func:`_cell_speed_max`, a sample's ``speed``); ``residuals=None``
    saturates the h_K branch."""
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


def _robin_term(problem: HeatProblem, tag: int, bc: HeatBC):
    """(matrix data, load) of the Robin tag ``tag``, the load sampled at the
    problem's time."""
    edges = fem_core.boundary_edges(problem.sample.mesh, (tag,))
    w = bc.alpha * edges.wts
    return edges.mass(w), edges.load(w * fem_core.sample(bc.value, edges.pts, problem.time))


def inflow_weights(mesh: Mesh2D, coeffs: np.ndarray) -> np.ndarray:
    """(NE, 2) inflow weights -(v.n)_- times the Gauss weights at the Gauss
    points of every boundary edge of ``mesh``, in its order, of the MINI
    velocity of element coefficients ``coeffs``; a sample carries them
    (:attr:`materials.FieldSample.inflow`)."""
    edges = fem_core.boundary_edges(mesh, np.unique(mesh.boundary_tags))
    vel = edges.trace(coeffs)
    return edges.wts * np.maximum(-np.einsum("egk,ek->eg", vel, edges.normals), 0.0)


def _inflow_term(problem: HeatProblem, tag: int, bc: HeatBC):
    """(matrix data, load) of the inflow tag ``tag``: the transport's inflow
    weights and their edge mass, which move with it, on the tag's edges."""
    edges = fem_core.boundary_edges(problem.sample.mesh, (tag,))
    transport = problem.transport
    w = transport.inflow[edges.index]
    return (edges.mass(transport.inflow_mass[edges.index]),
            edges.load(w * fem_core.sample(bc.value, edges.pts, problem.time)))


def _role_terms(problem: HeatProblem, role: str, term):
    """The (matrix data, rhs) pair of the tags of ``role``, each tag's from
    ``term(problem, tag, bc)``, summed in tag order; the data are None when
    no tag contributes."""
    data, rhs = None, np.zeros(problem.sample.mesh.num_vertices)
    for tag, bc in sorted(problem.bc.items()):
        if bc.role == role and not (role == ROLE_ROBIN and bc.alpha == 0.0):
            m, load = term(problem, tag, bc)
            data, rhs = (m if data is None else m + data), rhs + load
    return data, rhs


def _boundary_terms(problem: HeatProblem):
    """The Robin and the inflow terms, one (matrix data, rhs) pair each:

        A += int_e w theta psi,   rhs += int_e w theta_b psi,

    with w = alpha on a Robin tag (theta_b the ambient temperature) and
    w = -(v.n)_- on an inflow tag, which imposes the inflow temperature
    weakly through the advective flux.  The inflow weight acts only where
    the transporting velocity enters the domain (v.n < 0), so a switched-off
    jet imposes nothing.  Matrix data, on the full P1 pattern, are None when
    no tag contributes.  The Robin pair of constant ambient temperatures is
    a per-mesh constant, built once; with a callable ambient temperature it
    is formed at each call, at the problem's time.
    """
    mesh = problem.sample.mesh
    robin = tuple((tag, bc.alpha, bc.value) for tag, bc in sorted(problem.bc.items())
                  if bc.role == ROLE_ROBIN)
    inflow = _role_terms(problem, ROLE_INFLOW, _inflow_term)
    if any(callable(value) for *_, value in robin):
        return _role_terms(problem, ROLE_ROBIN, _robin_term), inflow

    def build():
        terms = _role_terms(problem, ROLE_ROBIN, _robin_term)
        return tuple(x if x is None else fem_core._frozen(x) for x in terms)
    return fem_core.cached(mesh, ("robin", robin), build), inflow


def _solve(problem: HeatProblem, A_sys, rhs, theta) -> np.ndarray:
    """The temperature of the system (``A_sys``, ``rhs``) by the problem's
    :class:`linalg.LinearSystem` from the guess ``theta``.  The system is
    constrained at its first solve to the vertices of the Dirichlet tags of
    ``bc``, and each solve gives it their data at the problem's time."""
    mesh, system = problem.sample.mesh, problem.system
    data = {tag: bc.value for tag, bc in problem.bc.items() if bc.role == ROLE_DIRICHLET}
    verts = fem_core.dirichlet_vertices(mesh, data)
    values = verts.values(data, problem.time)
    if system.dofs is None:
        system.constrain(verts.dofs, values, fem_core.vertex_order(mesh))
    system.values = values
    return system.solve(A_sys, rhs, x0=theta)


def _cell_viscosity(problem: HeatProblem, source) -> np.ndarray:
    """Per-cell artificial viscosity of the step, also kept as ``art_visc``,
    from the problem's sample of theta^{n-1} and v^{n-1} and its cell speeds;
    ``source()`` is the heat source there."""
    sample = problem.sample
    mesh = sample.mesh
    art = np.zeros(mesh.num_triangles)
    if problem.stab.beta != 0.0:
        res = None
        if problem.theta_prev2 is not None:  # None at startup: h_K saturates
            res = entropy_residual(sample, problem.theta_prev2, source(), problem.dt,
                                   problem.stab)
        art = artificial_viscosity(mesh, res, sample.theta_h, sample.speed, problem.stab)
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
        extra = fem_core.sample(problem.extra_source, fem_core.geometry(mesh).qp, problem.time)
    M = fem_core.assemble_mass(mesh)
    mass_coeff = None if problem.dt is None else 1.0 / problem.dt
    D = transport.advection
    boundary = _boundary_terms(problem)

    def build(theta, laws, source, art=0.0):
        """The system at the laws ``laws`` of ``theta`` (a :class:`FieldSample`);
        ``source()`` is the physics source there, read when the problem
        includes it."""
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
    sample, transport = problem.sample, problem.transport
    # One Joule density at theta^{n-1}, evaluated at most once: the load's and
    # the residual's.  The residual's source reads v^{n-1}'s D(v):D(v) and
    # the load's v^n's, so one source serves both when the sample transports.
    joule = cache(lambda: joule_density(sample.mesh, sample.sigma, problem.phi))
    source = cache(lambda: heat_source(sample.nu, sample.strain, joule()))
    # The viscosity comes first, so its residual's temporaries are freed
    # before the system is built; so is v^{n-1}'s D(v):D(v), which the
    # system does not read unless the sample is also the transport.
    art = _cell_viscosity(problem, source)
    if sample is not transport:
        sample.drop("strain")
        source = cache(lambda: heat_source(sample.nu, transport.strain, joule()))
    A_sys, rhs = _heat_system(problem)(sample.theta_h, sample, source, art[:, None])
    return _solve(problem, A_sys, rhs, sample.theta_h)


def solve_heat_stationary(problem: HeatProblem) -> np.ndarray:
    """Steady temperature with given flow/potential, by Picard on eta(theta).

    Solves the unstabilized stationary equation (no time derivative, no
    artificial viscosity); used to build initial conditions.  The sample's
    temperature seeds the Picard iteration, whose iterate lags the
    coefficients and the sources; missing :data:`PICARD_TOL` in
    :data:`PICARD_MAX` solves raises SolverError.  A problem with a ``dt``
    raises ValueError.
    """
    problem.validate(step=False)
    build = _heat_system(problem)
    model, mesh = problem.sample.model, problem.sample.mesh

    def step(theta):
        laws = FieldSample(model, mesh, theta)
        A_sys, rhs = build(theta, laws, lambda: heat_source(
            laws.nu, problem.transport.strain, joule_density(mesh, laws.sigma, problem.phi)))
        return _solve(problem, A_sys, rhs, theta), None

    theta, _ = linalg.fixed_point(step, problem.sample.theta_h, PICARD_TOL, PICARD_MAX)
    return theta
