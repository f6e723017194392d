"""Static condensation of the MINI bubbles against a monolithic saddle solve."""

import numpy as np
import pytest
import scipy.sparse as sp

from ablatesim import fem_core, flow_solver, linalg, verify
from ablatesim.coupler import SimState, Simulation
from ablatesim.flow_solver import (DIVERGENCE_BOUND, RESIDUAL_BOUND, FlowBC, FlowProblem,
                                   VelocitySample, _solve_linear, builtin_profile_gamma1,
                                   builtin_profile_gamma5, flow_constraints,
                                   solve_flow_stationary, solve_flow_step)
from ablatesim.materials import MaterialModel, TemperatureSample
from ablatesim.mesh import ALL_TAGS, GeometrySpec, generate_channel_mesh
from ablatesim.sim_cli import preset
from mini_reference import assemble_mini_blocks, assemble_mini_mass, weights

L, H, R = 1.5, 0.5, 0.075
REL = 1e-10


def channel_bc():
    return {1: FlowBC("inflow", builtin_profile_gamma1(H)), 2: FlowBC("noslip"),
            3: FlowBC("donothing"), 4: FlowBC("noslip"),
            5: FlowBC("inflow", builtin_profile_gamma5(L, R))}


def monolithic(problem, advect, dt=None, gamma_n=()):
    """(v, p) from the uncondensed saddle system, assembled block by block."""
    temperature = problem.temperature
    mesh = temperature.mesh
    dm = fem_core.dofmap_for(mesh)
    nu = temperature.model.nu(fem_core.p1_at_qp(mesh, temperature.theta_h))
    blocks = assemble_mini_blocks(mesh, nu, advect=advect,
                                           gamma_n_tags=gamma_n)
    A, rhs_v = blocks["A_vv"], np.zeros(dm.n_velocity)
    if dt is not None:
        M = assemble_mini_mass(mesh)
        A, rhs_v = A + M / dt, M @ problem.velocity.v_h / dt
    if problem.extra_force is not None:
        qp = fem_core.quadrature_points(mesh)
        fx, fy = problem.extra_force(qp[..., 0], qp[..., 1])
        force = np.stack(np.broadcast_arrays(fx, fy, weights(mesh))[:2], axis=-1)
        rhs_v = rhs_v + fem_core.assemble_vector_load(mesh, force)
    # The pressure block stores its zero diagonal, which the elimination of
    # an enclosed flow's pinned pressure needs.
    n_p = dm.n_pressure
    zero = sp.csr_matrix((np.zeros(n_p), (np.arange(n_p), np.arange(n_p))), shape=(n_p, n_p))
    K = sp.bmat([[A, -blocks["B"].T], [blocks["B"], zero]], format="csr")
    rhs = np.concatenate([rhs_v, np.zeros(dm.n_pressure)])
    dofs, vals = flow_constraints(problem)  # with the pressure pin of an enclosed flow
    x = linalg.solve_lu(*linalg.apply_dirichlet(K, rhs, dofs, vals))
    x[dofs] = vals
    return x[:dm.n_velocity], x[dm.n_velocity:]


def bubble_dofs(dm):
    return np.concatenate([dm.vx_bubble(np.arange(dm.nt)), dm.vy_bubble(np.arange(dm.nt))])


def assert_close(got, want):
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= REL * np.abs(w).max()


def channel_step_problem(**kw):
    mesh = generate_channel_mesh(GeometrySpec(L=L, H=H, r=R, nx=20, ny=10))
    dm = fem_core.dofmap_for(mesh)
    rng = np.random.default_rng(3)
    model = MaterialModel(nu_law=lambda th: 0.0021 * (1.0 + 0.02 * (th - 37.0)))
    temperature = TemperatureSample(model, mesh, 37.0 + 10.0 * rng.random(mesh.num_vertices))
    velocity = VelocitySample(mesh, 0.05 * rng.standard_normal(dm.n_velocity))
    return FlowProblem(temperature, dt=0.01, bc=channel_bc(), velocity=velocity, **kw)


class TestEquivalence:
    def test_channel_time_step(self):
        problem = channel_step_problem()
        temperature = problem.temperature
        nu = temperature.model.nu(fem_core.p1_at_qp(temperature.mesh, temperature.theta_h))
        assert nu.min() < nu.max()  # theta-dependent viscosity
        assert_close(solve_flow_step(problem),
                     monolithic(problem, problem.velocity.v_h, dt=problem.dt, gamma_n=(3,)))

    def test_mms_oseen_with_pressure_pin(self):
        # C3's linear Oseen solve, advected by the exact field's interpolant.
        case = verify.oseen_case()
        mesh = verify._mms_mesh(16, 8)
        model = verify._unit_material()
        problem = FlowProblem(
            TemperatureSample(model, mesh, np.full(mesh.num_vertices, model.theta_b)), dt=None,
            bc={tag: FlowBC("inflow", lambda x, y: case.exact(x, y)) for tag in ALL_TAGS},
            extra_force=lambda x, y: case.source(x, y),
            pressure_pin_value=float(case.pressure(0.0, 0.0)))
        advect = verify._velocity_dofs(mesh, case.exact)
        v, p = _solve_linear(problem, advect)
        assert p[0] == problem.pressure_pin_value
        assert_close((v, p), monolithic(problem, advect))


class TestContracts:
    def test_full_residual_and_divergence(self):
        problem = channel_step_problem()
        temperature, v_prev = problem.temperature, problem.velocity.v_h
        mesh = temperature.mesh
        dm = fem_core.dofmap_for(mesh)
        v, p = solve_flow_step(problem)
        nu = temperature.model.nu(fem_core.p1_at_qp(mesh, temperature.theta_h))
        saddle = fem_core.assemble_condensed_saddle(mesh, nu, advect=v_prev,
                                                    gamma_n_tags=(3,),
                                                    mass_coeff=1.0 / problem.dt)
        M = assemble_mini_mass(mesh)
        rhs = np.concatenate([M @ v_prev / problem.dt, np.zeros(dm.n_pressure)])
        res = saddle.residual(np.concatenate([v, p]), rhs)
        dofs, _ = flow_constraints(problem)
        free = np.setdiff1d(np.arange(dm.n_flow), dofs)
        assert np.abs(res[bubble_dofs(dm)]).max() <= 1e-12 * np.abs(rhs).max()
        assert np.linalg.norm(res[free]) <= RESIDUAL_BOUND * (1.0 + np.linalg.norm(rhs))
        assert np.linalg.norm(saddle.B @ v) <= DIVERGENCE_BOUND * (1.0 + np.linalg.norm(v))

    def test_a_residual_miss_stops_the_step(self, monkeypatch):
        # Bubbles recovered 1e-3 off their rows miss the residual contract on
        # the full system: test3's moving flow recovers them at every step.
        cfg = preset("test3")
        cfg.geometry.nx, cfg.geometry.ny = 24, 8
        sim = Simulation(cfg)
        state = sim.initialize()
        recover = fem_core.CondensedSaddle.recover

        def off_rows(saddle, x_l, rhs):
            x = recover(saddle, x_l, rhs)
            x[saddle.layout.bubbles] += 1e-3
            return x

        monkeypatch.setattr(fem_core.CondensedSaddle, "recover", off_rows)
        with pytest.raises(linalg.SolverError,
                           match=r"^step 1/flow: flow LU residual too large: \d"):
            sim.advance(state)

    def test_a_divergence_miss_stops_the_initialization(self, monkeypatch):
        # With no round-off allowed, the stationary flow's |Bv| misses the
        # divergence contract, and the run stops at its first flow solve.
        monkeypatch.setattr(flow_solver, "DIVERGENCE_BOUND", 0.0)
        cfg = preset("test1")
        cfg.geometry.nx, cfg.geometry.ny = 24, 8
        with pytest.raises(linalg.SolverError,
                           match=r"^initialize/flow: divergence contract violated: \|Bv\| = \d"):
            Simulation(cfg).initialize()

    @pytest.mark.parametrize("nu", [0.0, np.nan])
    def test_singular_bubble_block_raises(self, nu):
        # No viscosity, no convection, no mass: every bubble block is zero.
        mesh = generate_channel_mesh(GeometrySpec(L=L, H=H, r=R, nx=10, ny=6))
        model = MaterialModel(nu_law=lambda th: np.full_like(th, nu))
        problem = FlowProblem(TemperatureSample(model, mesh, np.full(mesh.num_vertices, 37.0)),
                              dt=None, bc=channel_bc(), include_convection=False)
        with pytest.raises(linalg.SingularMatrix, match="bubble block"):
            solve_flow_stationary(problem)

    def test_recovered_bubbles_solve_their_rows(self):
        # For any P1 vector, the recovered full vector solves the bubble rows.
        problem = channel_step_problem()
        mesh = problem.temperature.mesh
        dm = fem_core.dofmap_for(mesh)
        saddle = fem_core.assemble_condensed_saddle(mesh, 0.01, advect=problem.velocity.v_h,
                                                    mass_coeff=3.0)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(dm.n_flow)
        x = saddle.recover(rng.standard_normal(3 * dm.nv), rhs)
        res = saddle.residual(x, rhs)
        assert np.abs(res[bubble_dofs(dm)]).max() <= 1e-12 * (1.0 + np.abs(rhs).max())


class TestLayout:
    def test_layout_is_built_lazily_once(self):
        mesh = generate_channel_mesh(GeometrySpec(L=L, H=H, r=R, nx=10, ny=6))
        dm = fem_core.dofmap_for(mesh)
        assert "condensed_layout" not in fem_core.geometry(mesh).operators
        saddle = fem_core.assemble_condensed_saddle(mesh, 1.0)
        assert saddle.matrix.shape == (3 * dm.nv, 3 * dm.nv)
        first = saddle.layout
        assert fem_core.assemble_condensed_saddle(mesh, 2.0).layout is first
        # Its pattern's held arrays are read-only; the positions it forms are not held.
        for held in (first.pattern.base, first.pattern.shift, first.pattern.indices):
            with pytest.raises(ValueError):
                held.flat[0] = 1

    @pytest.mark.parametrize("make_mesh", [
        lambda: generate_channel_mesh(GeometrySpec(L=L, H=H, r=R, nx=20, ny=10)),
        lambda: verify._mms_mesh(16, 8),
    ], ids=["channel", "mms"])
    def test_pattern_matches_sorted_construction(self, make_mesh):
        mesh = make_mesh()
        nv, t = mesh.num_vertices, mesh.triangles
        elem = np.concatenate([t, nv + t, 2 * nv + t], axis=1)
        want = fem_core._Pattern(elem, elem, (3 * nv, 3 * nv))
        got = fem_core.assemble_condensed_saddle(mesh, 1.0).layout.pattern
        assert got.shape == want.shape
        for attr in ("indptr", "indices"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(got.positions(), want.scatter)


class TestHotPath:
    def test_flow_lu_order_is_three_nv(self, monkeypatch):
        solve_lu = linalg.solve_lu
        finalize = linalg.CooBuilder.finalize
        orders, finalize_calls = [], []

        def counted_solve_lu(A, b, **kwargs):
            orders.append(A.shape[0])
            return solve_lu(A, b, **kwargs)

        def counted_finalize(self):
            finalize_calls.append(1)
            return finalize(self)

        monkeypatch.setattr(linalg, "solve_lu", counted_solve_lu)
        monkeypatch.setattr(linalg.CooBuilder, "finalize", counted_finalize)

        cfg = preset("test1")
        cfg.geometry.nx, cfg.geometry.ny = 20, 10
        sim = Simulation(cfg)
        nv, dm = sim.mesh.num_vertices, sim.dofmap
        assert "condensed_layout" not in fem_core.geometry(sim.mesh).operators  # lazy
        state = SimState(t=0.0, n=0, v=np.zeros(dm.n_velocity), P=np.zeros(nv),
                         theta=np.full(nv, sim.model.theta_b), phi=np.zeros(nv),
                         theta_prev=None)
        state = sim.advance(state)
        finalize_calls.clear()
        for _ in range(2):
            state = sim.advance(state)
        assert finalize_calls == []
        # The heat and potential solves are of order NV; every flow solve is
        # the condensed system, never the full one.
        flow_orders = [n for n in orders if n != nv]
        assert flow_orders == [3 * nv] * 3
        assert dm.n_flow not in orders
