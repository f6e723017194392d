import numpy as np
import pytest

from ablatesim import fem_core, flow_solver, linalg, verify
from ablatesim.flow_solver import (FlowBC, FlowProblem, VelocitySample,
                                   builtin_profile_gamma1,
                                   builtin_profile_gamma5, make_profile,
                                   solve_flow_stationary, solve_flow_step)
from ablatesim.linalg import SolverError
from ablatesim.materials import MaterialModel, TemperatureSample
from ablatesim.mesh import ALL_TAGS, GeometrySpec, generate_channel_mesh
from mini_reference import assemble_mini_blocks, assemble_mini_mass

L, H, R = 1.5, 0.5, 0.075


def channel_mesh(nx=20, ny=10):
    return generate_channel_mesh(GeometrySpec(L=L, H=H, r=R, nx=nx, ny=ny))


def bc_test1():
    return {
        1: FlowBC("inflow", builtin_profile_gamma1(H)),
        2: FlowBC("noslip"),
        3: FlowBC("donothing"),
        4: FlowBC("noslip"),
        5: FlowBC("inflow", builtin_profile_gamma5(L, R)),
    }


def make_problem(mesh, bc, theta_val=37.0, v_prev=None, dt=0.01, **kw):
    """A step's problem, with a sample of v_prev (zero by default), or with
    ``dt=None`` the stationary one, which has no velocity."""
    model = kw.pop("model", MaterialModel())
    if v_prev is None and dt is not None:
        v_prev = np.zeros(fem_core.dofmap_for(mesh).n_velocity)
    temperature = TemperatureSample(model, mesh, np.full(mesh.num_vertices, theta_val))
    velocity = None if v_prev is None else VelocitySample(mesh, v_prev)
    return FlowProblem(temperature, dt=dt, bc=bc, velocity=velocity, **kw)


class TestProfiles:
    def test_gamma1_endpoints_and_peak(self):
        p = builtin_profile_gamma1(H)
        assert p(0.0, 0.0) == (0.0, 0.0)
        vx, vy = p(0.0, H)
        assert vx == 0.0 and vy == 0.0
        vx, vy = p(0.0, H / 2)
        assert vx == pytest.approx(H * H / 4.0, rel=1e-15)  # 0.0625 for H=0.5
        assert vx == pytest.approx(0.0625)
        assert vy == 0.0

    def test_gamma5_zeros_at_segment_ends(self):
        p = builtin_profile_gamma5(L, R)
        for x in (L / 2 - R, L / 2 + R):
            vx, vy = p(x, H)
            assert vx == pytest.approx(0.0, abs=1e-15)
            assert vy == pytest.approx(0.0, abs=1e-15)

    def test_gamma5_center_value(self):
        # direct arithmetic oracle: (0, -(2/r) r^2 y) at x = L/2
        p = builtin_profile_gamma5(L, R)
        vx, vy = p(L / 2, H)
        assert vx == pytest.approx(0.0, abs=1e-15)
        assert vy == pytest.approx(-(2.0 / R) * R * R * H, rel=1e-14)
        assert vy == pytest.approx(-0.075, rel=1e-12)

    def test_profile_registry(self):
        x, y = np.array([0.3, L / 2]), np.array([0.2, H])
        for got, want in ((make_profile("gamma1_parabola", H=H), builtin_profile_gamma1(H)),
                          (make_profile("gamma5_electrode", L=L, r=R),
                           builtin_profile_gamma5(L, R))):
            assert np.array_equal(got(x, y), want(x, y))
        z = make_profile("zero")
        assert z(0.3, 0.4) == (0.0, 0.0)
        with pytest.raises(ValueError):
            make_profile("nonsense")

    def test_inflow_requires_profile(self):
        with pytest.raises(ValueError):
            FlowBC("inflow")
        with pytest.raises(ValueError):
            FlowBC("slippery")


class TestFlowStep:
    def test_zero_data_zero_solution(self):
        mesh = channel_mesh(10, 6)
        bc = {t: FlowBC("noslip") for t in (1, 2, 4, 5)}
        bc[3] = FlowBC("donothing")
        problem = make_problem(mesh, bc)
        v, p = solve_flow_step(problem)
        assert np.abs(v).max() <= 1e-10
        assert np.abs(p).max() <= 1e-10

    def test_rigid_translation_enclosed(self):
        # constant Dirichlet data on every side of an enclosed box
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=10, ny=6))
        dm = fem_core.dofmap_for(mesh)
        bc = {t: FlowBC("inflow", lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                                                np.zeros_like(np.asarray(x, dtype=float))))
              for t in ALL_TAGS}
        v_prev = np.zeros(dm.n_velocity)
        v_prev[dm.vx_vertex(np.arange(dm.nv))] = 1.0
        problem = make_problem(mesh, bc, v_prev=v_prev, dt=0.1)
        v, p = solve_flow_step(problem)
        vv = fem_core.velocity_at_vertices(mesh, v)
        assert np.abs(vv[:, 0] - 1.0).max() <= 1e-8
        assert np.abs(vv[:, 1]).max() <= 1e-8

    def test_divergence_contract(self):
        mesh = channel_mesh()
        problem = make_problem(mesh, bc_test1())
        v, p = solve_flow_step(problem)
        B = assemble_mini_blocks(mesh, 1.0)["B"]
        assert np.linalg.norm(B @ v) <= flow_solver.DIVERGENCE_BOUND * (1.0 + np.linalg.norm(v))

    def test_dirichlet_dofs_exact(self):
        mesh = channel_mesh(10, 6)
        problem = make_problem(mesh, bc_test1())
        v, _ = solve_flow_step(problem)
        dm = fem_core.dofmap_for(mesh)
        wall = mesh.boundary_vertices_with_tag(2)
        assert np.abs(v[dm.vx_vertex(wall)]).max() == 0.0
        inlet = mesh.boundary_vertices_with_tag(1)
        expected = mesh.vertices[inlet, 1] * (H - mesh.vertices[inlet, 1])
        assert np.array_equal(v[dm.vx_vertex(inlet)], expected)

    def test_shared_corner_takes_larger_tag(self):
        mesh = channel_mesh(10, 6)
        bc = {t: FlowBC("noslip") for t in (2, 4, 5)}
        bc[1] = FlowBC("inflow", lambda x, y: (np.ones_like(x), np.zeros_like(x)))
        bc[3] = FlowBC("donothing")
        problem = make_problem(mesh, bc)
        v, _ = solve_flow_step(problem)
        dm = fem_core.dofmap_for(mesh)
        corner = np.flatnonzero(np.all(mesh.vertices == 0.0, axis=1))
        assert v[dm.vx_vertex(corner)].tolist() == [0.0]
        assert v[dm.vy_vertex(corner)].tolist() == [0.0]
        left = mesh.boundary_vertices_with_tag(1)
        assert np.count_nonzero(v[dm.vx_vertex(left)] == 1.0) == left.size - 2

    def test_invalid_dt_rejected(self):
        for dt in (-0.1, np.inf):
            problem = make_problem(channel_mesh(10, 6), bc_test1(), dt=dt)
            with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
                solve_flow_step(problem)
        # A step needs dt and the previous velocity.
        mesh = channel_mesh(10, 6)
        v_prev = np.zeros(fem_core.dofmap_for(mesh).n_velocity)
        no_dt = make_problem(mesh, bc_test1(), v_prev=v_prev, dt=None)
        no_velocity = make_problem(mesh, bc_test1())
        no_velocity.velocity = None
        for problem in (no_dt, no_velocity):
            with pytest.raises(ValueError, match="needs dt and the previous velocity"):
                solve_flow_step(problem)

    @pytest.mark.parametrize("name", ["velocity", "pressure"])
    def test_non_finite_previous_field_rejected(self, name):
        # A NaN in v^{n-1} or P^{n-1}, the step's mass load and its guess,
        # is named before any system is built.
        mesh = channel_mesh(10, 6)
        v_prev = np.zeros(fem_core.dofmap_for(mesh).n_velocity)
        p_prev = np.zeros(mesh.num_vertices)
        (v_prev if name == "velocity" else p_prev)[4] = np.nan
        problem = make_problem(mesh, bc_test1(), v_prev=v_prev, p_prev=p_prev)
        with pytest.raises(ValueError, match=f"^previous {name} contains non-finite values$"):
            solve_flow_step(problem)

    def test_missing_tag_rejected(self):
        bc = bc_test1()
        del bc[3]
        with pytest.raises(ValueError, match="exactly one flow role"):
            solve_flow_step(make_problem(channel_mesh(10, 6), bc))

    def test_nan_field_rejected(self):
        problem = make_problem(channel_mesh(10, 6), bc_test1())
        problem.temperature.theta_h = problem.temperature.theta_h.copy()
        problem.temperature.theta_h[0] = np.inf
        with pytest.raises(ValueError):
            solve_flow_step(problem)


class TestStepInputs:
    def test_zero_force_load_built_once_per_mesh(self):
        # Without buoyancy or an extra force the load is the per-mesh zero,
        # read-only, so a repeated step matches it by identity.
        mesh = channel_mesh(10, 6)
        loads = [flow_solver._force_load(make_problem(mesh, bc_test1())) for _ in "ab"]
        assert loads[0] is loads[1] and not loads[0].flags.writeable
        assert not loads[0].any() and loads[0].size == fem_core.dofmap_for(mesh).n_velocity
        buoyant = MaterialModel()
        buoyant.buoyancy.enabled = True
        hot = flow_solver._force_load(make_problem(mesh, bc_test1(), 40.0, model=buoyant))
        assert hot is not loads[0] and hot.any()

    def test_same_compares_broadcast_constants_by_their_value(self):
        # A repeated step's inputs are compared by linalg._same, the one rule
        # of every reuse: one object, else equal values with equal sign bits.
        same = linalg._same
        nu = np.broadcast_to(0.0021, (50, 12))
        assert same(nu, np.broadcast_to(0.0021, (50, 12)))
        assert same(nu, np.full((50, 12), 0.0021))  # a full array of the value
        assert not same(nu, np.broadcast_to(np.nextafter(0.0021, 1.0), (50, 12)))
        assert not same(nu, np.broadcast_to(0.0021, (50, 11)))
        assert not same(np.broadcast_to(0.0, (4, 3)), np.broadcast_to(-0.0, (4, 3)))
        assert not same(np.broadcast_to(np.nan, (4, 3)), np.broadcast_to(np.nan, (4, 3)))
        row = np.broadcast_to(np.arange(3.0), (4, 3))  # a broadcast row varies
        assert not same(row, np.broadcast_to(0.0, (4, 3)))
        assert same(row, np.tile(np.arange(3.0), (4, 1)))
        # The default viscosity, a number, against itself and an array of it.
        assert same(0.0021, 0.0021) and not same(0.0021, nu)
        assert not same(0.0, -0.0) and not same(float("nan"), float("nan"))
        # One NaN object matches itself, as any object does; a step's inputs
        # are checked finite, so no repeat records one.
        nan = float("nan")
        assert same(nan, nan)
        nan_nu = np.broadcast_to(np.nan, (4, 3))
        assert same(nan_nu, nan_nu) and not same(nan_nu, nan_nu.copy())


def doubled(profile):
    """The inflow ``profile`` times 2."""
    def fn(x, y):
        vx, vy = profile(x, y)
        return 2.0 * vx, 2.0 * vy
    return fn


class TestStationary:
    def test_reused_system_solves_with_another_inflow_profile(self):
        # A system reused for a doubled inflow solves with that inflow, as a
        # fresh system does, not with its first constrained values.
        mesh = channel_mesh(24, 8)
        first = make_problem(mesh, bc_test1(), dt=None)
        v_first, _ = solve_flow_stationary(first)
        bc = bc_test1()
        bc[1] = FlowBC("inflow", doubled(bc[1].profile))
        v_ref, p_ref = solve_flow_stationary(make_problem(mesh, bc, dt=None))
        v, p = solve_flow_stationary(make_problem(mesh, bc, dt=None, system=first.system))
        assert np.abs(v - v_ref).max() <= 1e-6 * np.abs(v_ref).max()
        assert np.abs(p - p_ref).max() <= 1e-6 * np.abs(p_ref).max()
        assert np.abs(v_ref).max() > 1.5 * np.abs(v_first).max()

    def test_zero_data_zero_solution(self):
        mesh = channel_mesh(10, 6)
        bc = {t: FlowBC("noslip") for t in (1, 2, 4, 5)}
        bc[3] = FlowBC("donothing")
        problem = make_problem(mesh, bc, dt=None)
        v, p = solve_flow_stationary(problem)
        assert np.abs(v).max() <= 1e-12
        assert np.abs(p).max() <= 1e-12

    def test_dt_rejected(self):
        # A problem with a dt is a time step's: its solve adds the mass term.
        problem = make_problem(channel_mesh(10, 6), bc_test1(), dt=0.1)
        with pytest.raises(ValueError, match="the stationary flow takes no dt"):
            solve_flow_stationary(problem)

    def test_stokes_limit_matches_time_marching(self):
        # cross-method oracle: steady Stokes vs the long-time implicit limit
        mesh = channel_mesh(10, 6)
        problem = make_problem(mesh, bc_test1(), dt=None, include_convection=False)
        v_steady, _ = solve_flow_stationary(problem)
        v = np.zeros_like(v_steady)
        for _ in range(200):
            step = make_problem(mesh, bc_test1(), v_prev=v, dt=0.5,
                                include_convection=False)
            v, _ = solve_flow_step(step)
        scale = max(1.0, np.linalg.norm(v_steady))
        assert np.linalg.norm(v - v_steady) <= 1e-6 * scale

    def test_test1_channel_flow_structure(self):
        mesh = channel_mesh()
        problem = make_problem(mesh, bc_test1(), dt=None)
        v, _ = solve_flow_stationary(problem)
        vv = fem_core.velocity_at_vertices(mesh, v)
        speed = np.linalg.norm(vv, axis=1)
        assert speed.max() > 0.05  # nonzero channel flow
        # argmax scan oracle: the developed profile peaks on the centerline
        # (the accelerated outflow parabola), not at the walls
        k = int(np.argmax(speed))
        x, y = mesh.vertices[k]
        assert abs(y - H / 2) <= 0.15
        assert speed.max() > H * H / 4.0  # exceeds the inflow peak: flux added by the jet

    def test_divergence_contract_stationary(self):
        mesh = channel_mesh(10, 6)
        problem = make_problem(mesh, bc_test1(), dt=None)
        v, _ = solve_flow_stationary(problem)
        B = assemble_mini_blocks(mesh, 1.0)["B"]
        assert np.linalg.norm(B @ v) <= flow_solver.DIVERGENCE_BOUND * (1.0 + np.linalg.norm(v))

    def test_missed_picard_tol_raises(self, monkeypatch):
        problem = make_problem(channel_mesh(10, 6), bc_test1(), dt=None)
        monkeypatch.setattr(flow_solver, "NEWTON_MAX", 2)
        with pytest.raises(SolverError, match=r"in 2 steps: last increment .* >= tol 1\.0e-08"):
            solve_flow_stationary(problem)


class TestNewton:
    def test_jacobian_matches_the_central_difference(self):
        # R(u) = O(u) u, the Oseen velocity block advected by u applied to
        # u, is quadratic in u, so its central difference at any step is its
        # derivative nu V + N(u) up to round-off.  The do-nothing outlet of
        # the test1 roles (tag 3) exercises the outlet term's derivative.
        mesh = channel_mesh(10, 6)
        gamma_n = flow_solver._donothing_tags(make_problem(mesh, bc_test1()))
        assert gamma_n == (3,)
        rng = np.random.default_rng(12)
        u, delta = rng.standard_normal((2, fem_core.dofmap_for(mesh).n_velocity))
        nu, eps = 1e-2, 0.5

        def residual(w):
            blocks = assemble_mini_blocks(mesh, nu, advect=w, gamma_n_tags=gamma_n)
            return blocks["A_vv"] @ w

        fd = (residual(u + eps * delta) - residual(u - eps * delta)) / (2.0 * eps)
        saddle, load = fem_core.assemble_newton_saddle(mesh, nu, u, gamma_n)
        assert np.abs(saddle.A_vv @ delta - fd).max() <= 1e-12 * np.abs(fd).max()
        # The load is the convective part of R(u).
        convective = residual(u) - assemble_mini_blocks(mesh, nu)["A_vv"] @ u
        assert np.abs(load - convective).max() <= 1e-12 * np.abs(convective).max()

    def test_condensed_matrix_is_the_schur_complement_of_its_full_system(self):
        # The condensed Newton matrix against the dense Schur complement of
        # the saddle's own full system [[A_vv, -B^T], [B, 0]], with the
        # do-nothing outlet (tag 3), whose terms and their derivative reach
        # the condensed data through the owners' element blocks.
        mesh = channel_mesh(10, 6)
        gamma_n = flow_solver._donothing_tags(make_problem(mesh, bc_test1()))
        assert gamma_n == (3,)
        u = np.random.default_rng(7).standard_normal(fem_core.dofmap_for(mesh).n_velocity)
        saddle, _ = fem_core.assemble_newton_saddle(mesh, 1e-2, u, gamma_n)
        A, B = saddle.A_vv.toarray(), saddle.B.toarray()
        full = np.block([[A, -B.T], [B, np.zeros((B.shape[0], B.shape[0]))]])
        lay = saddle.layout
        l, b = lay.p1_dofs, lay.bubbles.ravel()
        want = full[np.ix_(l, l)] - full[np.ix_(l, b)] @ np.linalg.solve(full[np.ix_(b, b)],
                                                                         full[np.ix_(b, l)])
        got = saddle.matrix.toarray()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def assert_stationary_rates(case):
        """The stationary flow that initialize() solves (Stokes, then Newton)
        on a manufactured Oseen case meets C3's windows and the divergence
        contract at every level, 16x8 to 64x32."""
        h, errors = [], {"velocity_H1": [], "pressure_L2": []}
        for nx, ny in ((16, 8), (32, 16), (64, 32)):
            mesh = verify._mms_mesh(nx, ny)
            bc = {tag: FlowBC("donothing") if tag in case.outlet else FlowBC("inflow", case.exact)
                  for tag in ALL_TAGS}
            problem = make_problem(mesh, bc, dt=None, model=verify._unit_material(),
                                   extra_force=case.source,
                                   pressure_pin_value=float(case.pressure(0.0, 0.0)))
            v, p = solve_flow_stationary(problem)
            div = np.linalg.norm(fem_core.assemble_divergence(mesh) @ v)
            assert div <= flow_solver.DIVERGENCE_BOUND * (1.0 + np.linalg.norm(v))
            h.append(mesh.h.max())
            errors["velocity_H1"].append(verify.h1_seminorm_error_velocity(mesh, v, case.grad))
            errors["pressure_L2"].append(verify.l2_error_scalar(mesh, p, case.pressure))
        slopes = {name: np.polyfit(np.log(h), np.log(errs), 1)[0]
                  for name, errs in errors.items()}
        assert 0.9 <= slopes["velocity_H1"] <= 1.3 and 0.8 <= slopes["pressure_L2"] <= 1.3, slopes

    def test_manufactured_rates_of_the_stationary_solve(self):
        # C3's case: every tag is an inflow, so no outlet term is rated.
        self.assert_stationary_rates(verify.oseen_case())

    def test_manufactured_rates_through_a_do_nothing_outlet(self):
        # The outlet case leaves through G3, so its rates need the outlet's
        # surface term and that term's Newton derivative, whose
        # cross-component edge blocks only an outflow reaches.
        self.assert_stationary_rates(verify.oseen_outlet_case())


def viscous_dissipation(mesh, model, theta, v):
    """nu(theta) D(v):D(v) at the quad points, as the heat source takes it."""
    return model.nu(fem_core.p1_at_qp(mesh, theta)) * flow_solver.viscous_dissipation(mesh, v)


def strain_rate_product(grad):
    """D(v):D(v) from a velocity Jacobian array (..., 2, 2): the reference for
    the dissipation contracted from the element coefficients."""
    d = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    return np.einsum("...cd,...cd->...", d, d)


class TestDissipation:
    @pytest.mark.parametrize("mesh_name", ["channel", "mms"])
    def test_matches_the_jacobian_product(self, mesh_name):
        from ablatesim.verify import _mms_mesh

        mesh = channel_mesh(20, 10) if mesh_name == "channel" else _mms_mesh(16, 8)
        dm = fem_core.dofmap_for(mesh)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(dm.n_velocity)
        theta = 37.0 + 20.0 * rng.uniform(size=mesh.num_vertices)
        model = MaterialModel(nu_law=lambda th: 0.002 * (1.0 + 0.01 * (th - 37.0)))
        got = viscous_dissipation(mesh, model, theta, v)
        nu = model.nu(fem_core.p1_at_qp(mesh, theta))
        ref = nu * strain_rate_product(fem_core.velocity_grad_at_qp(mesh, v))
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_zero_velocity(self):
        mesh = channel_mesh(6, 4)
        dm = fem_core.dofmap_for(mesh)
        model = MaterialModel()
        theta = np.full(mesh.num_vertices, 37.0)
        d = viscous_dissipation(mesh, model, theta, np.zeros(dm.n_velocity))
        assert np.abs(d).max() == 0.0

    def test_rigid_rotation_zero(self):
        mesh = channel_mesh(6, 4)
        dm = fem_core.dofmap_for(mesh)
        v = np.zeros(dm.n_velocity)
        idx = np.arange(dm.nv)
        v[dm.vx_vertex(idx)] = -mesh.vertices[:, 1]
        v[dm.vy_vertex(idx)] = mesh.vertices[:, 0]
        d = viscous_dissipation(mesh, MaterialModel(),
                                np.full(mesh.num_vertices, 37.0), v)
        assert np.abs(d).max() <= 1e-26

    def test_shear_flow_value(self):
        # symbolic oracle: v = (y, 0) gives D:D = 1/2 pointwise
        mesh = channel_mesh(6, 4)
        dm = fem_core.dofmap_for(mesh)
        v = np.zeros(dm.n_velocity)
        v[dm.vx_vertex(np.arange(dm.nv))] = mesh.vertices[:, 1]
        model = MaterialModel()
        d = viscous_dissipation(mesh, model, np.full(mesh.num_vertices, 37.0), v)
        assert np.allclose(d, model.nu_const * 0.5, rtol=1e-12)

    def test_nonnegative_for_random_fields(self):
        mesh = channel_mesh(6, 4)
        dm = fem_core.dofmap_for(mesh)
        rng = np.random.default_rng(8)
        for _ in range(3):
            v = rng.standard_normal(dm.n_velocity)
            d = viscous_dissipation(mesh, MaterialModel(),
                                    np.full(mesh.num_vertices, 37.0), v)
            assert d.min() >= 0.0


class TestEnergyDecay:
    def test_stokes_homogeneous_decay(self):
        mesh = channel_mesh(8, 4)
        dm = fem_core.dofmap_for(mesh)
        bc = {t: FlowBC("noslip") for t in ALL_TAGS}
        rng = np.random.default_rng(4)
        v = np.zeros(dm.n_velocity)
        interior = np.setdiff1d(np.arange(dm.nv), np.unique(mesh.boundary_edges.ravel()))
        v[dm.vx_vertex(interior)] = rng.standard_normal(interior.size)
        v[dm.vy_vertex(interior)] = rng.standard_normal(interior.size)
        M = assemble_mini_mass(mesh)
        for _ in range(4):
            problem = make_problem(mesh, bc, v_prev=v, dt=0.05,
                                   include_convection=False)
            v_new, _ = solve_flow_step(problem)
            assert v_new @ (M @ v_new) <= v @ (M @ v) * (1.0 + 1e-12)
            v = v_new
