import numpy as np
import pytest

from ablatesim import flow_solver
from ablatesim.coupler import (BlowUpError, NonFiniteFieldError, SimState,
                               Simulation, TimeGrid, advance, initialize, run)
from ablatesim.linalg import SolverError
from ablatesim.sim_cli import ConfigError, preset


def quick_config(name="test1", nx=20, ny=10, M=3):
    cfg = preset(name)
    cfg.geometry.nx = nx
    cfg.geometry.ny = ny
    cfg.time.M = M
    return cfg


def equilibrium_config(M=4):
    cfg = quick_config(M=M)
    cfg.potential_bc.g = 0.0
    for name in cfg.flow_bc:
        if cfg.flow_bc[name].role == "inflow":
            cfg.flow_bc[name].profile = "zero"
    for name in cfg.heat_bc:
        cfg.heat_bc[name].value = 37.0
    return cfg


class TestTimeGrid:
    def test_dt(self):
        assert TimeGrid(T=2.0, M=8).dt == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(T=-1.0, M=10).validate()
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, M=-1).validate()
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, M=0).dt

    def test_m_zero_run_is_initialize_only(self):
        cfg = equilibrium_config(M=0)
        state, rows = run(cfg)
        assert state.n == 0
        assert len(rows) == 1


class TestInitialize:
    def test_equilibrium_config_constant_state(self):
        state = initialize(equilibrium_config())
        assert np.abs(state.theta - 37.0).max() <= 1e-10
        assert np.abs(state.v).max() <= 1e-10
        assert np.abs(state.phi).max() == 0.0

    def test_invalid_config_rejected_before_solves(self):
        cfg = quick_config()
        cfg.time.T = -2.0
        with pytest.raises(ConfigError):
            initialize(cfg)

    def test_initial_state_structure(self):
        state = initialize(quick_config())
        assert state.n == 0 and state.t == 0.0
        assert state.theta_prev is None
        assert state.diag is not None
        assert state.diag.step == 0

    def test_initial_temperature_is_body_equilibrium(self):
        # device off until t = 0: the initial field is exactly theta_b
        state = initialize(quick_config())
        assert np.abs(state.theta - 37.0).max() <= 1e-10

    def test_failed_stokes_solve_raises_labelled(self, monkeypatch):
        # No silent zero-flow fallback: a failed first Stokes solve stops the run.
        def failing(*args, **kwargs):
            raise SolverError("flow LU residual too large: inf")

        monkeypatch.setattr(flow_solver, "_solve_linear", failing)
        with pytest.raises(SolverError, match="^initialize/flow: flow LU residual"):
            initialize(quick_config())


class TestAdvance:
    def test_equilibrium_fixed_point(self):
        cfg = equilibrium_config()
        sim = Simulation(cfg)
        state = sim.initialize()
        new = sim.advance(state)
        assert np.abs(new.theta - state.theta).max() <= 1e-10
        assert np.abs(new.v - state.v).max() <= 1e-10
        assert np.abs(new.P - state.P).max() <= 1e-10
        assert np.abs(new.phi - state.phi).max() <= 1e-10

    def test_one_step_heats_near_electrode(self):
        cfg = quick_config()
        sim = Simulation(cfg)
        state = sim.advance(sim.initialize())
        assert state.diag.max_theta > 37.0
        d = np.hypot(state.diag.argmax_x - 0.75, state.diag.argmax_y - 0.5)
        assert d <= 0.2

    def test_nan_rejected_state_unchanged(self):
        cfg = quick_config()
        sim = Simulation(cfg)
        state = sim.initialize()
        bad_theta = state.theta.copy()
        bad_theta[0] = np.nan
        bad = SimState(t=state.t, n=state.n, v=state.v, P=state.P,
                       theta=bad_theta, phi=state.phi, theta_prev=None)
        with pytest.raises(NonFiniteFieldError):
            sim.advance(bad)

    def test_stage_order_recorded(self):
        sim = Simulation(quick_config())
        state = sim.advance(sim.initialize())
        names = [s[0] for s in state.diag.stages]
        times = [s[1] for s in state.diag.stages]
        assert names == ["potential", "flow", "heat"]
        assert times == sorted(times)

    def test_standalone_advance_function(self):
        cfg = equilibrium_config()
        state = initialize(cfg)
        new = advance(state, cfg)
        assert new.n == 1
        assert np.abs(new.theta - state.theta).max() <= 1e-10


class TestRun:
    def test_row_count(self):
        cfg = quick_config(M=5)
        state, rows = run(cfg)
        assert state.n == 5
        assert len(rows) == 6
        assert [r.step for r in rows] == list(range(6))

    def test_equilibrium_rows_identical(self):
        cfg = equilibrium_config(M=4)
        _, rows = run(cfg)
        base = rows[0]
        for r in rows[1:]:
            assert r.max_theta == base.max_theta
            assert r.int_theta == base.int_theta
            assert r.div_norm == base.div_norm

    def test_determinism_bitwise(self):
        cfg = quick_config(M=3)
        _, rows_a = run(cfg)
        _, rows_b = run(cfg)
        for ra, rb in zip(rows_a, rows_b):
            assert ra.max_theta == rb.max_theta
            assert ra.int_theta == rb.int_theta
            assert ra.div_norm == rb.div_norm
            assert ra.max_art_visc == rb.max_art_visc
            assert (ra.centroid_x == rb.centroid_x
                    or (np.isnan(ra.centroid_x) and np.isnan(rb.centroid_x)))

    def test_time_accumulates(self):
        cfg = quick_config(M=4)
        cfg.time.T = 0.4
        state, rows = run(cfg)
        assert state.t == pytest.approx(0.4, rel=1e-12)

    def test_fields_finite_every_step(self):
        cfg = quick_config(M=3)
        seen = []
        run(cfg, on_step=lambda s: seen.append(s))
        assert len(seen) == 4
        for s in seen:
            s.check_finite()

    def test_potential_every_k(self):
        cfg = quick_config(M=4)
        cfg.solver.potential_every = 2
        _, rows = run(cfg)
        # recomputed at steps 1 and 3 (lagged index 0 and 2), reused between
        assert rows[1].iters_potential > 0
        assert rows[2].iters_potential == 0
        assert rows[3].iters_potential > 0


class TestBlowUpGuard:
    def test_large_current_triggers_guard(self):
        cfg = quick_config(M=20)
        cfg.potential_bc.g = 500.0
        with pytest.raises(BlowUpError) as exc:
            run(cfg)
        assert exc.value.state is not None
        assert exc.value.state.n <= 20
        assert len(exc.value.rows) >= 1

    def test_normal_run_does_not_trigger(self):
        state, _ = run(quick_config(M=3))
        assert np.abs(state.theta).max() < 1e4
