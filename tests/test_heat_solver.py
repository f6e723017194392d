import numpy as np
import pytest

from ablatesim import fem_core, heat_solver, linalg
from ablatesim.flow_solver import VelocitySample, _cell_speed_max, viscous_dissipation
from ablatesim.heat_solver import (HeatBC, HeatProblem, StabilizationParams, domain_diameter,
                                   solve_heat_stationary, solve_heat_step)
from ablatesim.linalg import SolverError
from ablatesim.materials import MaterialModel, TemperatureSample
from ablatesim.potential_solver import joule_density
from ablatesim.mesh import ALL_TAGS, GeometrySpec, generate_channel_mesh


def small_mesh(nx=8, ny=4):
    return generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=nx, ny=ny))


def const_velocity(dm, vx, vy):
    v = np.zeros(dm.n_velocity)
    idx = np.arange(dm.nv)
    v[dm.vx_vertex(idx)] = vx
    v[dm.vy_vertex(idx)] = vy
    return v


def entropy_residual(mesh, model, th1, th2, v, phi, dt, alpha=2.0):
    """The residual of the nodal fields, its quad-point inputs evaluated here."""
    temperature = TemperatureSample(model, mesh, th1)
    source = (temperature.nu * viscous_dissipation(mesh, v)
              + joule_density(mesh, temperature.sigma, phi))
    return heat_solver.entropy_residual(temperature, VelocitySample(mesh, v), th2, source, dt,
                                        StabilizationParams(alpha=alpha))


def cell_speed(mesh, v):
    return _cell_speed_max(fem_core.velocity_element_coeffs(mesh, v))


def cell_speed_of_values(coeffs, v_qp):
    """The cell speeds from the (NT, NQ, 2) velocity ``v_qp`` at the quad
    points, as a sample formed them when it held those values: the
    reference of _cell_speed_max, which forms them from ``coeffs``."""
    sq = np.square(v_qp[..., 0])
    sq += np.square(v_qp[..., 1])
    sq_v = np.square(coeffs[:, 0, :3])
    sq_v += np.square(coeffs[:, 1, :3])
    return np.sqrt(np.maximum(np.abs(sq).max(axis=1), np.abs(sq_v).max(axis=1)))


def test_cell_speed_max_equals_the_largest_norm_bit_for_bit():
    # One square root per cell of the largest squared speed: sqrt is monotone
    # and correctly rounded, so this is the largest |v| of the samples.  The
    # vertex speeds come from the element coefficients, whose vertex values
    # are the vertex dofs, and the quad-point speeds from one GEMM of them,
    # the same bits as velocity_at_qp's values.
    mesh = small_mesh(12, 6)
    v = np.random.default_rng(4).standard_normal(fem_core.dofmap_for(mesh).n_velocity)
    v_qp = fem_core.velocity_at_qp(mesh, v)
    vv = fem_core.velocity_at_vertices(mesh, v)
    ref = np.maximum(np.linalg.norm(v_qp, axis=2).max(axis=1),
                     np.linalg.norm(vv, axis=1)[mesh.triangles].max(axis=1))
    coeffs = fem_core.velocity_element_coeffs(mesh, v)
    assert _cell_speed_max(coeffs).tobytes() == ref.tobytes()
    assert _cell_speed_max(coeffs).tobytes() == cell_speed_of_values(coeffs, v_qp).tobytes()


def artificial_viscosity(mesh, residuals, theta, v, params):
    return heat_solver.artificial_viscosity(mesh, residuals, theta, cell_speed(mesh, v),
                                            params)


def robin_bc(theta_l=37.0, alpha=1.0):
    return {t: HeatBC("robin", alpha, theta_l) for t in ALL_TAGS}


def make_problem(mesh, bc, theta_prev, v=None, phi=None, dt=0.05, **kw):
    """A problem whose one sample of v serves both the residual and the
    transport, unless a ``transport`` is given."""
    dm = fem_core.dofmap_for(mesh)
    model = kw.pop("model", MaterialModel())
    if v is None:
        v = np.zeros(dm.n_velocity)
    if phi is None:
        phi = np.zeros(mesh.num_vertices)
    velocity = VelocitySample(mesh, v)
    kw.setdefault("transport", velocity)
    return HeatProblem(TemperatureSample(model, mesh, theta_prev), phi=phi, dt=dt, bc=bc,
                       velocity=velocity, **kw)


class TestStabilizationParams:
    def test_alpha_range_enforced(self):
        StabilizationParams(alpha=1.0)
        StabilizationParams(alpha=2.0)
        with pytest.raises(ValueError):
            StabilizationParams(alpha=2.5)
        with pytest.raises(ValueError):
            StabilizationParams(alpha=0.5)

    @pytest.mark.parametrize("key, value", [
        ("beta", -0.5), ("beta", float("nan")), ("c_r", 0.0), ("c_r", -1.0),
        ("c_r", float("nan")), ("var_floor", 0.0), ("var_floor", -1.0),
        ("var_floor", float("nan"))])
    def test_bounds_enforced(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            StabilizationParams(**{key: value})

    def test_zero_beta_switches_stabilization_off(self):
        mesh = small_mesh()
        v = const_velocity(fem_core.dofmap_for(mesh), 1.0, 0.0)
        problem = make_problem(mesh, robin_bc(), np.full(mesh.num_vertices, 37.0), v=v,
                               stab=StabilizationParams(beta=0.0))
        solve_heat_step(problem)
        assert not problem.art_visc.any()

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            HeatBC("mystery")
        with pytest.raises(ValueError):
            HeatBC("robin", alpha=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_constant_data_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            HeatBC("dirichlet", value=value)


class TestEntropyResidual:
    def test_equilibrium_zero(self):
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        model = MaterialModel()
        theta = np.full(mesh.num_vertices, 37.0)
        for alpha in (1.0, 1.5, 2.0):
            res = entropy_residual(mesh, model, theta, theta,
                                   np.zeros(dm.n_velocity),
                                   np.zeros(mesh.num_vertices), 0.1, alpha)
            assert np.abs(res).max() <= 1e-12

    def test_steady_advection_hand_value(self):
        # theta = x, v = (1, 0), no sources, alpha = 1: R = v.grad(theta) = 1
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        model = MaterialModel()
        theta = mesh.vertices[:, 0].copy()
        v = const_velocity(dm, 1.0, 0.0)
        res = entropy_residual(mesh, model, theta, theta, v,
                               np.zeros(mesh.num_vertices), 0.1, 1.0)
        assert np.allclose(res, 1.0, atol=1e-12)

    def test_pure_time_jump(self):
        # theta^{n-1} = theta^{n-2} + dt (uniform), alpha = 1: R = 1
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        model = MaterialModel()
        dt = 0.25
        th2 = np.full(mesh.num_vertices, 40.0)
        th1 = th2 + dt
        res = entropy_residual(mesh, model, th1, th2,
                               np.zeros(dm.n_velocity),
                               np.zeros(mesh.num_vertices), dt, 1.0)
        assert np.allclose(res, 1.0, atol=1e-12)

    def test_alpha2_against_brute_force(self):
        # independent per-point recomputation of the alpha = 2 formula
        mesh = small_mesh(4, 3)
        dm = fem_core.dofmap_for(mesh)
        model = MaterialModel()
        rng = np.random.default_rng(12)
        th1 = 37.0 + rng.uniform(-2, 2, mesh.num_vertices)
        th2 = 37.0 + rng.uniform(-2, 2, mesh.num_vertices)
        v = rng.standard_normal(dm.n_velocity) * 0.1
        phi = rng.standard_normal(mesh.num_vertices) * 0.1
        dt = 0.05
        res = entropy_residual(mesh, model, th1, th2, v, phi, dt, 2.0)

        th1q = fem_core.p1_at_qp(mesh, th1)
        th2q = fem_core.p1_at_qp(mesh, th2)
        g1 = fem_core.p1_gradients(mesh, th1)
        vq = fem_core.velocity_at_qp(mesh, v)
        gradv = fem_core.velocity_grad_at_qp(mesh, v)
        gphi = fem_core.p1_gradients(mesh, phi)
        expected = np.zeros(mesh.num_triangles)
        for t in range(mesh.num_triangles):
            worst = 0.0
            for q in range(fem_core.TRI_RULE.weights.size):
                time_term = (th1q[t, q] ** 2 - th2q[t, q] ** 2) / (2 * dt)
                adv = th1q[t, q] * (vq[t, q] @ g1[t])
                cross = model.eta(th1q[t, q]) * (g1[t] @ g1[t])
                d = 0.5 * (gradv[t, q] + gradv[t, q].T)
                gam = (model.nu(th1q[t, q]) * np.sum(d * d)
                       + model.sigma(th1q[t, q]) * (gphi[t] @ gphi[t]))
                worst = max(worst, abs(time_term + adv + cross - gam * th1q[t, q]))
            expected[t] = worst
        assert np.allclose(res, expected, rtol=1e-12)


def expanded_residual(temperature, velocity, theta_prev2, source, dt, stab):
    """The residual as it was expanded before v.grad(theta) was contracted
    from the element coefficients, the oracle: v at the quad points dotted
    with grad(theta), the terms multiplied out and summed in the order of
    the expansion, and the per-cell sup along the quadrature rows."""
    a, floor = float(stab.alpha), stab.var_floor
    th1_q = temperature.theta
    th2_q = fem_core.p1_at_qp(temperature.mesh, theta_prev2)
    grad1 = fem_core.p1_gradients(temperature.mesh, temperature.theta_h)
    if a == 1.0:
        pow1 = pow2 = None
    elif a == 2.0:
        pow1, pow2 = th1_q, None
    else:
        base = np.maximum(th1_q, floor)
        pow1, pow2 = base ** (a - 1.0), base ** (a - 2.0)
    if a == 1.0:
        res = np.subtract(th1_q, th2_q)
        res /= dt
    elif a == 2.0:
        res = th1_q ** 2
        res -= th2_q ** 2
        res /= 2.0 * dt
    else:
        res = np.maximum(th1_q, floor) ** a
        res -= np.maximum(th2_q, floor) ** a
        res /= a * dt
    term = np.einsum("tqd,td->tq", fem_core.velocity_at_qp(velocity.mesh, velocity.coeffs),
                     grad1)
    if a == 1.0:
        res += term
        res -= source
    else:
        term *= pow1
        res += term
        np.multiply(temperature.eta, a - 1.0, out=term)
        if pow2 is not None:
            term *= pow2
        term *= np.einsum("td,td->t", grad1, grad1)[:, None]
        res += term
        res -= np.multiply(source, pow1, out=term)
    return np.max(np.abs(res), axis=1)


def residual_roundoff_bound(temperature, velocity, theta_prev2, source, dt, stab):
    """16 eps times the per-cell largest sum M_q of the moduli of the
    expansion's terms, v.grad(theta) taken as its 8 products c_dk g_d
    MINI_qk.  Both expansions sum those 8 products, in other groupings, and
    then a few more terms, so each lies within about 14 eps M_q of the exact
    value at each point (gamma_8 for the products, one rounding per further
    operation), and the per-cell sups of their moduli within 16 eps max_q M_q
    of each other."""
    a, floor = float(stab.alpha), stab.var_floor
    mesh = temperature.mesh

    def base(th):
        return th if a in (1.0, 2.0) else np.maximum(th, floor)

    th1, th2 = base(temperature.theta), base(fem_core.p1_at_qp(mesh, theta_prev2))
    grad = fem_core.p1_gradients(mesh, temperature.theta_h)
    products = np.einsum("qk,tdk,td->tq", np.abs(fem_core.MINI_VALS),
                         np.abs(velocity.coeffs), np.abs(grad))
    pow1 = np.abs(th1 ** (a - 1.0))
    pow2 = 1.0 if a == 1.0 else np.abs(th1 ** (a - 2.0))
    moduli = (np.abs(th1 ** a - th2 ** a) / (a * dt) + pow1 * (products + np.abs(source))
              + np.abs(temperature.eta) * (a - 1.0) * pow2 * np.sum(grad ** 2, axis=1)[:, None])
    return 16.0 * np.finfo(float).eps * moduli.max(axis=1)


class TestResidualOracle:
    """The residual contracted from the element coefficients against the
    expansion it replaced, within the stated round-off bound."""

    @staticmethod
    def state(name):
        from ablatesim.coupler import Simulation
        from ablatesim.sim_cli import preset

        cfg = preset(name)
        cfg.geometry.nx, cfg.geometry.ny, cfg.time.M = 24, 8, 3
        sim = Simulation(cfg)
        state = sim.initialize()
        for _ in range(3):
            prev, state = state, sim.advance(state)
        return sim, prev, state

    @pytest.mark.parametrize("name", ["test1", "test3"])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_matches_the_expanded_residual(self, name, alpha):
        sim, prev, state = self.state(name)
        stab = StabilizationParams(alpha=alpha)
        # theta^{n-1} and theta^{n-2} with v^{n-1}; at alpha = 1.5 also
        # shifted down by their median, so half of them lies below var_floor.
        shifts = (0.0, float(np.median(state.theta))) if alpha == 1.5 else (0.0,)
        for shift in shifts:
            theta, theta_prev2 = state.theta - shift, state.theta_prev - shift
            temperature = TemperatureSample(sim.model, sim.mesh, theta)
            velocity = VelocitySample(sim.mesh, state.v)
            source = temperature.nu * velocity.strain + joule_density(
                sim.mesh, temperature.sigma, state.phi)
            if shift:
                assert (temperature.theta < stab.var_floor).any()
                assert (temperature.theta > stab.var_floor).any()
            samples = (temperature, velocity, theta_prev2, source, sim.config.time.dt, stab)
            got = heat_solver.entropy_residual(*samples)
            ref = expanded_residual(*samples)
            bound = residual_roundoff_bound(*samples)
            assert np.all(np.abs(got - ref) <= bound), (shift, np.max(np.abs(got - ref) / bound))


class TestArtificialViscosity:
    def test_zero_velocity_zero_everywhere(self):
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        theta = np.full(mesh.num_vertices, 40.0)
        art = artificial_viscosity(mesh, np.ones(mesh.num_triangles), theta,
                                   np.zeros(dm.n_velocity), StabilizationParams())
        assert np.abs(art).max() == 0.0

    def test_zero_residual_on_cell(self):
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        theta = mesh.vertices[:, 0].copy() + 37.0  # nonzero variance
        v = const_velocity(dm, 1.0, 0.0)
        res = np.ones(mesh.num_triangles)
        res[5] = 0.0
        art = artificial_viscosity(mesh, res, theta, v, StabilizationParams())
        assert art[5] == 0.0
        assert art[0] > 0.0

    def test_variance_floor_saturates_first_branch(self):
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        theta = np.full(mesh.num_vertices, 42.0)  # var(theta) = 0
        v = const_velocity(dm, 2.0, 0.0)
        params = StabilizationParams()
        art = artificial_viscosity(mesh, np.ones(mesh.num_triangles), theta,
                                   v, params)
        expected = params.beta * 2.0 * mesh.h
        assert np.allclose(art, expected, rtol=1e-12)

    def test_upper_bound_holds(self):
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        rng = np.random.default_rng(3)
        theta = 37.0 + rng.uniform(0, 5, mesh.num_vertices)
        v = rng.standard_normal(dm.n_velocity) * 0.2
        params = StabilizationParams()
        art = artificial_viscosity(mesh, rng.uniform(0, 10, mesh.num_triangles),
                                   theta, v, params)
        bound = params.beta * cell_speed(mesh, v) * mesh.h
        assert np.all(art >= 0.0)
        assert np.all(art <= bound * (1 + 1e-15))

    def test_negative_beta_breaks_bound(self):
        # The parameters reject a negative beta (test_bounds_enforced); the
        # computation itself does not clamp one set past that check, and the
        # suite flags it.
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        theta = np.full(mesh.num_vertices, 42.0)
        v = const_velocity(dm, 1.0, 0.0)
        params = StabilizationParams()
        params.beta = -0.1
        art = artificial_viscosity(mesh, None, theta, v, params)
        assert art.min() < 0.0

    def test_domain_diameter(self):
        mesh = small_mesh()
        assert domain_diameter(mesh) == pytest.approx(np.hypot(2.0, 1.0), rel=1e-14)


class TestHeatStep:
    def test_reused_system_solves_with_other_dirichlet_tags(self):
        # G1 and G3 hold as many vertices; a system reused for G3 solves with
        # G3's dofs and values, as a fresh system does.
        mesh = small_mesh(24, 8)
        theta = np.full(mesh.num_vertices, 37.0)
        bc1, bc3 = robin_bc(), robin_bc()
        bc1[1] = HeatBC("dirichlet", value=20.0)
        bc3[3] = HeatBC("dirichlet", value=45.0)
        assert (fem_core.dirichlet_vertices(mesh, (1,)).dofs.size
                == fem_core.dirichlet_vertices(mesh, (3,)).dofs.size)
        first = make_problem(mesh, bc1, theta)
        solve_heat_step(first)
        ref = solve_heat_step(make_problem(mesh, bc3, theta))
        out = solve_heat_step(make_problem(mesh, bc3, theta, system=first.system))
        assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()
        g3 = mesh.boundary_vertices_with_tag(3)
        assert np.all(out[g3] == 45.0)

    def test_equilibrium_fixed_point(self):
        mesh = small_mesh()
        theta = np.full(mesh.num_vertices, 37.0)
        for dt in (0.01, 0.5):
            problem = make_problem(mesh, robin_bc(), theta, dt=dt)
            out = solve_heat_step(problem)
            assert np.abs(out - 37.0).max() <= 1e-10

    def test_dissipative_decay_toward_ambient(self):
        mesh = small_mesh()
        M = fem_core.assemble_mass(mesh)
        theta = np.full(mesh.num_vertices, 50.0)
        prev = None
        prev2 = None
        for _ in range(6):
            problem = make_problem(mesh, robin_bc(), theta, dt=0.2,
                                   theta_prev2=prev2)
            out = solve_heat_step(problem)
            d_new = out - 37.0
            d_old = theta - 37.0
            assert d_new @ (M @ d_new) <= d_old @ (M @ d_old) * (1 + 1e-12)
            prev2, theta = theta, out
        assert np.abs(theta - 37.0).max() < np.abs(50.0 - 37.0)

    def test_missing_tag_rejected(self):
        mesh = small_mesh()
        bc = robin_bc()
        del bc[3]
        with pytest.raises(ValueError, match="exactly one heat role"):
            solve_heat_step(make_problem(mesh, bc, np.full(mesh.num_vertices, 37.0)))

    def test_step_without_dt_rejected(self):
        mesh = small_mesh()
        problem = make_problem(mesh, robin_bc(), np.full(mesh.num_vertices, 37.0), dt=None)
        with pytest.raises(ValueError, match="dt"):
            solve_heat_step(problem)

    @pytest.mark.parametrize("dt", [0.0, -0.05, np.inf])
    def test_non_positive_dt_rejected(self, dt):
        mesh = small_mesh()
        problem = make_problem(mesh, robin_bc(), np.full(mesh.num_vertices, 37.0), dt=dt)
        with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
            solve_heat_step(problem)

    @pytest.mark.parametrize("solve", [solve_heat_step, solve_heat_stationary])
    def test_problem_without_velocity_names_it(self, solve):
        # A missing velocity lacks a field; it holds no non-finite one.  Every
        # problem takes its transport; a step also reads v^{n-1}, which the
        # stationary heat does not.
        mesh = small_mesh()
        temperature = TemperatureSample(MaterialModel(), mesh, np.full(mesh.num_vertices, 37.0))
        kw = dict(phi=np.zeros(mesh.num_vertices), bc=robin_bc())
        with pytest.raises(TypeError, match="'transport'"):
            HeatProblem(temperature, dt=None, **kw)
        if solve is solve_heat_step:
            transport = VelocitySample(mesh, np.zeros(fem_core.dofmap_for(mesh).n_velocity))
            with pytest.raises(ValueError, match="needs the previous velocity"):
                solve(HeatProblem(temperature, transport, dt=0.05, **kw))

    def test_non_finite_theta_prev2_is_named(self):
        # theta^{n-2} feeds the entropy residual; a NaN there is named before
        # any system is built, as the other fields' are, and does not reach
        # the factorization.
        from ablatesim.coupler import Simulation
        from ablatesim.sim_cli import preset

        cfg = preset("test1")
        cfg.geometry.nx, cfg.geometry.ny = 24, 8
        sim = Simulation(cfg)
        state = sim.initialize()
        for _ in range(2):
            state = sim.advance(state)
        theta_prev2 = state.theta_prev.copy()
        theta_prev2[5] = np.nan
        dt = cfg.time.dt
        velocity = VelocitySample(sim.mesh, state.v)
        problem = sim._heat_problem(TemperatureSample(sim.model, sim.mesh, state.theta),
                                    velocity, velocity, theta_prev2, state.phi, dt, state.t + dt)
        with pytest.raises(ValueError, match="theta_prev2 contains non-finite values"):
            solve_heat_step(problem)

    def test_dirichlet_tag_imposed_exactly(self):
        mesh = small_mesh()
        bc = robin_bc()
        bc[5] = HeatBC("dirichlet", value=20.0)
        theta = np.full(mesh.num_vertices, 37.0)
        out = solve_heat_step(make_problem(mesh, bc, theta))
        g5 = mesh.boundary_vertices_with_tag(5)
        assert np.array_equal(out[g5], np.full(g5.size, 20.0))

    def test_shared_corner_takes_larger_tag(self):
        mesh = small_mesh()
        bc = robin_bc()
        bc[1] = HeatBC("dirichlet", value=35.0)
        bc[2] = HeatBC("dirichlet", value=10.0)
        out = solve_heat_step(make_problem(mesh, bc, np.full(mesh.num_vertices, 37.0)))
        corner = np.flatnonzero(np.all(mesh.vertices == 0.0, axis=1))
        assert out[corner].tolist() == [10.0]
        left = mesh.boundary_vertices_with_tag(1)
        assert np.count_nonzero(out[left] == 35.0) == left.size - 1  # (0, H) meets Robin G4

    def test_inflow_bc_inactive_without_flow(self):
        # v = 0 on the tagged edges: the weak inflow term must impose nothing
        mesh = small_mesh()
        bc = robin_bc()
        bc[5] = HeatBC("inflow", value=20.0)
        theta = np.full(mesh.num_vertices, 37.0)
        out = solve_heat_step(make_problem(mesh, bc, theta))
        assert np.abs(out - 37.0).max() <= 1e-10

    def test_inflow_bc_cools_with_entering_jet(self):
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        bc = robin_bc()
        bc[4] = HeatBC("neumann")
        bc[5] = HeatBC("inflow", value=20.0)
        v = const_velocity(dm, 0.0, -0.5)  # downward: enters through the top
        theta = np.full(mesh.num_vertices, 37.0)
        problem = make_problem(mesh, bc, theta, v=v, dt=0.5)
        out = solve_heat_step(problem)
        g5 = mesh.boundary_vertices_with_tag(5)
        assert out[g5].min() < 36.9  # pulled toward the 20 C inflow
        assert out.min() > 19.9

    def test_startup_uses_saturated_branch(self):
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        v = const_velocity(dm, 1.0, 0.0)
        theta = np.full(mesh.num_vertices, 37.0)
        params = StabilizationParams(beta=0.25)
        problem = make_problem(mesh, robin_bc(), theta, v=v, stab=params)
        solve_heat_step(problem)
        expected = params.beta * cell_speed(mesh, v) * mesh.h
        assert np.allclose(problem.art_visc, expected, rtol=1e-14)

    def test_residual_branch_uses_v_stab(self):
        mesh = small_mesh()
        dm = fem_core.dofmap_for(mesh)
        theta = np.full(mesh.num_vertices, 37.0)
        transport = VelocitySample(mesh, const_velocity(dm, 1.0, 0.0))
        problem = make_problem(mesh, robin_bc(), theta, v=np.zeros(dm.n_velocity),
                               transport=transport, theta_prev2=theta)
        solve_heat_step(problem)
        # residual/viscosity velocity is the lagged one (zero): no viscosity
        assert np.abs(problem.art_visc).max() == 0.0

    @staticmethod
    def count_field_evaluations(monkeypatch):
        """Count the calls of the two evaluations of the velocity at the quad
        points: the cell speeds and viscous_dissipation."""
        from collections import Counter

        from ablatesim import flow_solver

        counts = Counter()
        for owner, name in ((flow_solver, "_cell_speed_max"),
                            (flow_solver, "viscous_dissipation")):
            def counted(*args, _name=name, _original=getattr(owner, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        return counts

    def test_one_sample_serves_v_and_v_stab(self, monkeypatch):
        # v^{n-1} transports: the advection, the source and the residual read
        # one sample of v.
        mesh = small_mesh()
        rng = np.random.default_rng(5)
        theta = 37.0 + rng.uniform(0.0, 1.0, mesh.num_vertices)
        problem = make_problem(mesh, robin_bc(), theta, theta_prev2=theta - 0.5,
                               v=rng.standard_normal(fem_core.dofmap_for(mesh).n_velocity),
                               phi=rng.standard_normal(mesh.num_vertices))
        counts = self.count_field_evaluations(monkeypatch)
        solve_heat_step(problem)
        assert counts == {"_cell_speed_max": 1, "viscous_dissipation": 1}
        assert problem.art_visc.max() > 0.0

    def test_unread_strain_is_never_evaluated(self, monkeypatch):
        # No physics source and no residual (startup): nothing reads D(v):D(v).
        mesh = small_mesh()
        v = const_velocity(fem_core.dofmap_for(mesh), 1.0, 0.0)
        problem = make_problem(mesh, robin_bc(), np.full(mesh.num_vertices, 37.0), v=v,
                               include_physics_sources=False)
        counts = self.count_field_evaluations(monkeypatch)
        solve_heat_step(problem)
        assert counts == {"_cell_speed_max": 1}

    def test_source_raises_temperature(self):
        mesh = small_mesh()
        theta = np.full(mesh.num_vertices, 37.0)
        problem = make_problem(mesh, robin_bc(), theta,
                               extra_source=lambda x, y, t: np.full_like(x, 5.0))
        out = solve_heat_step(problem)
        assert out.max() > 37.0
        assert out.min() >= 37.0 - 1e-10


# Outward normals of the channel sides, by tag.
NORMALS = {1: (-1.0, 0.0), 2: (0.0, -1.0), 3: (1.0, 0.0), 4: (0.0, 1.0), 5: (0.0, 1.0)}
GAUSS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))  # 2-point rule on [0, 1]


def edge_by_edge_normal_velocity(mesh, vertex_velocity):
    """(NE, 2) v.n at the Gauss points of every boundary edge, edge by edge."""
    return np.array([[((1.0 - s) * vertex_velocity[a] + s * vertex_velocity[b])
                      @ NORMALS[int(tag)] for s in GAUSS]
                     for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags)])


def edge_by_edge_terms(mesh, bc, vertex_velocity, t):
    """Robin and inflow (matrix, rhs) pairs summed edge by edge with 2-point
    Gauss: w = alpha on a Robin edge, w = max(-v.n, 0) on an inflow edge."""
    nv = mesh.num_vertices
    terms = {"robin": (np.zeros((nv, nv)), np.zeros(nv)),
             "inflow": (np.zeros((nv, nv)), np.zeros(nv))}
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        cond = bc[int(tag)]
        if cond.role not in terms:
            continue
        mat, rhs = terms[cond.role]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        length = float(np.hypot(*(pb - pa)))
        for s in GAUSS:
            x, y = (1.0 - s) * pa + s * pb
            if cond.role == "robin":
                w = cond.alpha
            else:
                vel = (1.0 - s) * vertex_velocity[a] + s * vertex_velocity[b]
                w = max(-float(vel @ NORMALS[int(tag)]), 0.0)
            data = cond.value(x, y, t) if callable(cond.value) else cond.value
            psi = ((a, 1.0 - s), (b, s))
            for i, psi_i in psi:
                rhs[i] += 0.5 * length * w * data * psi_i
                for j, psi_j in psi:
                    mat[i, j] += 0.5 * length * w * psi_i * psi_j
    return terms["robin"], terms["inflow"]


class TestBoundaryKernel:
    @staticmethod
    def robin_inflow_problem():
        """Robin, Neumann, Dirichlet and inflow tags on a 20x10 channel, and
        the vertex velocity of its (MINI) velocity."""
        mesh = generate_channel_mesh(GeometrySpec(L=1.5, H=0.5, r=0.075, nx=20, ny=10))
        dm = fem_core.dofmap_for(mesh)
        # v.n = v_y on the electrode G5 (x in [0.675, 0.825]) changes sign at
        # x = 0.74: the left part is an inflow, the right part is not.
        vertex_v = np.column_stack([np.full(mesh.num_vertices, 0.3),
                                    mesh.vertices[:, 0] - 0.74])
        v = np.random.default_rng(6).standard_normal(dm.n_velocity)  # bubbles too
        idx = np.arange(dm.nv)
        v[dm.vx_vertex(idx)], v[dm.vy_vertex(idx)] = vertex_v.T
        bc = {1: HeatBC("robin", 2.0, lambda x, y, t: 30.0 + x * y + t),
              2: HeatBC("neumann"), 3: HeatBC("dirichlet", value=37.0),
              4: HeatBC("robin", 1.0, 36.0),
              5: HeatBC("inflow", value=lambda x, y, t: 20.0 + 10.0 * x - t)}
        theta = 37.0 + mesh.vertices[:, 0] * mesh.vertices[:, 1]
        phi = np.random.default_rng(7).standard_normal(mesh.num_vertices)
        return make_problem(mesh, bc, theta, v=v, phi=phi, time=0.3), vertex_v

    def test_normal_velocity_matches_edge_loop(self):
        # v.n, formed from the velocity's element coefficients, is the edge
        # loop's on every tag: the random bubbles vanish on the edges.
        problem, vertex_v = self.robin_inflow_problem()
        mesh = problem.temperature.mesh
        got = fem_core.boundary_edges(mesh, ALL_TAGS).normal_velocity(problem.transport.coeffs)
        want = edge_by_edge_normal_velocity(mesh, vertex_v)
        assert got.shape == want.shape == (mesh.boundary_edges.shape[0], 2)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_robin_and_inflow_terms_match_edge_loop(self):
        problem, vertex_v = self.robin_inflow_problem()
        mesh, bc = problem.temperature.mesh, problem.bc
        # The terms' matrices come as data on the full P1 pattern.
        pattern = fem_core._p1_pattern(mesh)
        (R, r), (I, i) = ((pattern.matrix(data), load) for data, load in
                          (heat_solver._robin_terms(problem), heat_solver._inflow_terms(problem)))
        (R_ref, r_ref), (I_ref, i_ref) = edge_by_edge_terms(mesh, bc, vertex_v, 0.3)
        for got, ref in ((R.toarray(), R_ref), (r, r_ref), (I.toarray(), I_ref), (i, i_ref)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # The (v.n)_- switch acts: G5 vertices right of x = 0.74 get no inflow term.
        g5 = mesh.boundary_vertices_with_tag(5)
        diag = I.diagonal()[g5]
        assert np.all(diag[mesh.vertices[g5, 0] < 0.74] > 0.0)
        assert np.any(diag[mesh.vertices[g5, 0] > 0.74] == 0.0)

    def test_system_summed_in_pattern_data_matches_the_sparse_sum(self):
        problem, _ = self.robin_inflow_problem()
        mesh, dt, theta = problem.temperature.mesh, problem.dt, problem.temperature.theta_h
        v = problem.transport.v_h
        laws = TemperatureSample(problem.temperature.model, mesh, theta)
        art = np.random.default_rng(8).uniform(0.0, 1e-2, (mesh.num_triangles, 1))
        joule = joule_density(mesh, laws.sigma, problem.phi)
        src = laws.nu * viscous_dissipation(mesh, v) + joule
        build = heat_solver._heat_system(problem)
        A, rhs = build(theta, laws, lambda: src, art)
        # The reference sums the same terms as sparse matrices, tag by tag.
        Mc = fem_core.assemble_mass(mesh) / dt
        ref = (Mc + fem_core.assemble_stiffness(mesh, laws.eta + art)
               + fem_core.assemble_advection(mesh, fem_core.velocity_element_coeffs(mesh, v)))
        ref_rhs = Mc @ theta + fem_core.assemble_scalar_load(mesh, src)
        for tag in (1, 4, 5):
            single = make_problem(
                mesh, {t: problem.bc[t] if t == tag else HeatBC("neumann") for t in ALL_TAGS},
                theta, v=v, time=problem.time)
            for data, load in (heat_solver._robin_terms(single),
                               heat_solver._inflow_terms(single)):
                if data is not None:
                    ref = ref + fem_core._p1_pattern(mesh).matrix(data)
                ref_rhs = ref_rhs + load
        assert np.abs((A - ref).toarray()).max() <= 1e-14 * np.abs(ref.data).max()
        assert np.abs(rhs - ref_rhs).max() <= 1e-14 * np.abs(ref_rhs).max()
        # With the Dirichlet tag G3 eliminated, both give the same temperature.
        verts = fem_core.dirichlet_vertices(mesh, (3,))
        dofs, vals = verts.dofs, verts.values({3: problem.bc[3].value}, problem.time)
        x = linalg.LinearSystem().solve(A, rhs, dofs, vals)
        x_ref = linalg.LinearSystem().solve(ref.tocsr(), ref_rhs, dofs, vals)
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


class TestResidualConsistency:
    def test_monitored_under_refinement(self):
        # For interpolants of a smooth manufactured solution the residual sup
        # norm stays bounded under joint (h, dt) refinement; monitored only,
        # no rate asserted (the elementwise diffusion term is dropped).
        from ablatesim.verify import MMS_GEOMETRY, heat_unsteady_spatial_case

        case = heat_unsteady_spatial_case()
        sups = []
        for nx, ny, dt in ((16, 8, 0.05), (32, 16, 0.025), (64, 32, 0.0125)):
            mesh = generate_channel_mesh(GeometrySpec(nx=nx, ny=ny, **MMS_GEOMETRY))
            dm = fem_core.dofmap_for(mesh)
            model = MaterialModel(eta_law=lambda th: np.ones_like(th),
                                  sigma_law=lambda th: np.ones_like(th))
            x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
            th1 = case.exact(x, y, dt)
            th2 = case.exact(x, y, 0.0)
            v = const_velocity(dm, *case.velocity)
            res = entropy_residual(mesh, model, th1, th2, v,
                                   np.zeros(mesh.num_vertices), dt, 2.0)
            assert np.all(np.isfinite(res))
            sups.append(float(res.max()))
        assert max(sups) < 1e3  # bounded trigger, not an exact operator


class TestHeatStationary:
    def test_uniform_robin_equilibrium(self):
        mesh = small_mesh()
        theta0 = np.full(mesh.num_vertices, 37.0)
        problem = make_problem(mesh, robin_bc(), theta0, dt=None)
        out = solve_heat_stationary(problem)
        assert np.abs(out - 37.0).max() <= 1e-10

    def test_reads_no_dt(self):
        # The stationary equation has no time derivative, so a problem with a
        # dt is rejected before any solve, as the stationary flow's is.
        _, problem = self.sourced_problem()
        problem.dt = 0.05
        with pytest.raises(ValueError, match="the stationary heat takes no dt"):
            solve_heat_stationary(problem)
        assert problem.system.dofs is None and problem.system.factor.solves == 0

    def test_bounded_by_boundary_data_without_sources(self):
        # min/max scan oracle: no sources means no new extrema
        mesh = small_mesh()
        bc = robin_bc()
        bc[5] = HeatBC("dirichlet", value=20.0)
        theta0 = np.full(mesh.num_vertices, 30.0)
        problem = make_problem(mesh, bc, theta0, dt=None)
        out = solve_heat_stationary(problem)
        assert out.min() >= 20.0 - 1e-8
        assert out.max() <= 37.0 + 1e-8

    @staticmethod
    def sourced_problem():
        """A source concentrated near the electrode; eta(theta) makes the
        stationary problem nonlinear, so it takes more than 2 iterations."""
        mesh = small_mesh(16, 8)

        def src(x, y, t):
            return 50.0 * np.exp(-80.0 * ((x - 1.0) ** 2 + (y - 1.0) ** 2))

        theta0 = np.full(mesh.num_vertices, 37.0)
        return mesh, make_problem(mesh, robin_bc(), theta0, dt=None, extra_source=src)

    def test_sourced_stationary_max_near_heated_zone(self):
        # argmax scan oracle with a source concentrated near the electrode
        mesh, problem = self.sourced_problem()
        out = solve_heat_stationary(problem)
        k = int(np.argmax(out))
        x, y = mesh.vertices[k]
        assert abs(x - 1.0) <= 0.3 and abs(y - 1.0) <= 0.3
        assert out.max() > 37.0

    def test_plain_picard_converges_in_at_most_five_maps(self, fixed_point_maps):
        # eta(theta) has slope 0.0012 against eta0 = 0.54, so the plain
        # Picard map contracts fast: 4 maps here.
        _, problem = self.sourced_problem()
        solve_heat_stationary(problem)
        assert len(fixed_point_maps) == 1 and 3 <= fixed_point_maps[0] <= 5

    def test_missed_picard_tol_raises(self, monkeypatch):
        _, problem = self.sourced_problem()
        monkeypatch.setattr(heat_solver, "PICARD_MAX", 2)
        with pytest.raises(SolverError, match=r"in 2 steps: last increment .* >= tol 1\.0e-10"):
            solve_heat_stationary(problem)


def test_robin_edge_masses_formed_once_per_mesh(monkeypatch):
    # An unsteady MMS heat level samples its callable Robin data at each of
    # its 4 steps, but forms each of the 5 Robin tags' edge masses once: the
    # matrix data depend on the tags and alphas alone and are held per mesh.
    from ablatesim import verify

    masses = []
    mass = fem_core.BoundaryEdges.mass

    def counted(edges, weights):
        masses.append(edges.owners.size)
        return mass(edges, weights)

    monkeypatch.setattr(fem_core.BoundaryEdges, "mass", counted)
    verify.solve_heat_unsteady_case(verify.heat_unsteady_spatial_case(), 16, 8)
    assert len(masses) == len(ALL_TAGS)
