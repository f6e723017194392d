import collections
import copy
import dataclasses
import functools
import logging
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ablatesim import coupler, fem_core, flow_solver, heat_solver, linalg
from ablatesim.coupler import (BlowUpError, NonFiniteFieldError, SimState,
                               Simulation, TimeGrid)
from ablatesim.flow_solver import VelocitySample
from ablatesim.heat_solver import HeatBC, HeatProblem
from ablatesim.linalg import SingularMatrix, SolverError
from ablatesim.materials import TemperatureSample
from ablatesim.sim_cli import ConfigError, preset
from dirichlet_reference import apply_dirichlet_reference, assert_same_held_elimination


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
        state, rows = Simulation(cfg).run()
        assert state.n == 0
        assert len(rows) == 1


class TestInitialize:
    def test_equilibrium_config_constant_state(self):
        state = Simulation(equilibrium_config()).initialize()
        assert np.abs(state.theta - 37.0).max() <= 1e-10
        assert np.abs(state.v).max() <= 1e-10
        assert np.abs(state.phi).max() == 0.0

    def test_invalid_config_rejected_before_solves(self):
        cfg = quick_config()
        cfg.time.T = -2.0
        with pytest.raises(ConfigError):
            Simulation(cfg).initialize()

    def test_config_edits_after_construction_do_not_reach_the_run(self):
        cfg = quick_config()
        sim = Simulation(cfg)
        cfg.heat_bc["G1"].value = 80.0
        cfg.stabilization.beta = 0.5
        cfg.materials.buoyancy.enabled = True
        cfg.potential_bc.g = 50.0
        cfg.time.M = 1
        assert sim.heat_bc[1].value == 37.0
        assert sim.stab.beta == 0.1
        assert not sim.model.buoyancy.enabled
        _, rows = sim.run()
        _, reference = Simulation(quick_config()).run()
        assert [r.max_theta for r in rows] == [r.max_theta for r in reference]

    def test_initial_state_structure(self):
        state = Simulation(quick_config()).initialize()
        assert state.n == 0 and state.t == 0.0
        assert state.theta_prev is None
        assert state.diag is not None
        assert state.diag.step == 0

    def test_initial_temperature_is_body_equilibrium(self):
        # device off until t = 0: the initial field is exactly theta_b
        state = Simulation(quick_config()).initialize()
        assert np.abs(state.theta - 37.0).max() <= 1e-10

    def test_failed_stokes_solve_raises_labelled(self, monkeypatch):
        # No silent zero-flow fallback: a failed first Stokes solve stops the run.
        def failing(*args, **kwargs):
            raise SolverError("flow LU residual too large: inf")

        monkeypatch.setattr(flow_solver, "_solve_linear", failing)
        with pytest.raises(SolverError, match="^initialize/flow: flow LU residual"):
            Simulation(quick_config()).initialize()

    def test_test1_flow_converges_without_warning(self, monkeypatch, caplog):
        # The stationary flow meets NEWTON_TOL in 1 Stokes and at most 4
        # Newton solves, the last increment quadratically small: one more
        # Oseen solve from the returned v0 moves it by less than the tolerance.
        increments = []
        solve = flow_solver._solve_linear

        def spy(problem, advect, *args, **kwargs):
            v, p = solve(problem, advect, *args, **kwargs)
            increments.append(None if advect is None else
                              np.linalg.norm(v - advect) / max(1.0, np.linalg.norm(v)))
            return v, p

        monkeypatch.setattr(flow_solver, "_solve_linear", spy)
        caplog.set_level(logging.WARNING, logger="ablatesim")
        sim = Simulation(preset("test1"))
        state = sim.initialize()
        assert increments[0] is None and len(increments) <= 5
        assert increments[-1] < 1e-11
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        theta_b = np.full(sim.mesh.num_vertices, sim.model.theta_b)
        problem = sim._flow_problem(TemperatureSample(sim.model, sim.mesh, theta_b), None)
        v1, _ = solve(problem, state.v)
        assert np.linalg.norm(v1 - state.v) < 1e-8 * np.linalg.norm(v1)

    def test_test3_heat_converges_in_at_most_five_maps(self, fixed_point_maps):
        # test3's inflow at 35 moves the initial heat state off the body
        # temperature, so its plain Picard iteration takes more than 2 maps
        # (4 at 48x16); the flow's Newton iteration comes first.
        Simulation(preset("test3")).initialize()
        assert len(fixed_point_maps) == 2 and 3 <= fixed_point_maps[1] <= 5

    @pytest.mark.parametrize("stage, name, limits", [
        ("flow", "solve_flow_stationary", {"NEWTON_MAX": 2}),
        # The initial heat state is an equilibrium; only a zero tolerance misses.
        ("heat", "solve_heat_stationary", {"PICARD_TOL": 0.0, "PICARD_MAX": 2}),
    ])
    def test_missed_picard_tol_raises_labelled(self, monkeypatch, stage, name, limits):
        solver = sys.modules[getattr(coupler, name).__module__]
        for constant, value in limits.items():
            monkeypatch.setattr(solver, constant, value)
        with pytest.raises(SolverError, match=f"^initialize/{stage}: fixed-point iteration "
                                              "missed its tolerance in 2 steps"):
            Simulation(quick_config()).initialize()

    def test_failed_stage_keeps_exception_class(self, monkeypatch):
        for error in (SolverError, SingularMatrix):
            def failing(*args, **kwargs):
                raise error("potential factor failed")

            monkeypatch.setattr(coupler, "solve_potential", failing)
            message = "^initialize/potential: potential factor failed$"
            with pytest.raises(error, match=message) as exc:
                Simulation(quick_config()).initialize()
            assert type(exc.value) is error


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

    def test_non_finite_theta_prev_named_before_any_stage(self):
        # theta_prev is the heat residual's theta^{n-2}: a NaN there is named
        # by the state check, not met as a singular heat factor.
        sim = Simulation(quick_config(nx=24, ny=8))
        state = copy.copy(sim.advance(sim.initialize()))
        state.theta_prev = state.theta_prev.copy()
        state.theta_prev[0] = np.nan
        names = ("v", "P", "theta", "phi", "theta_prev")
        before = {name: np.array(getattr(state, name)) for name in names}
        solves = {name: system.factor.solves for name, system in sim.systems.items()}
        with pytest.raises(NonFiniteFieldError, match="'theta_prev'"):
            sim.advance(state)
        assert all(np.array_equal(getattr(state, name), before[name], equal_nan=True)
                   for name in names)
        assert {name: system.factor.solves for name, system in sim.systems.items()} == solves

    @pytest.mark.parametrize("field", ["theta", "v"])
    def test_a_sample_of_other_fields_is_not_stepped_from(self, field):
        # A state whose fields are not its sample's steps from a fresh sample
        # of its own fields, as a state without a sample does, not from the
        # sample's stale values.
        runs = [Simulation(preset("test1")) for _ in "ab"]
        starts = [sim.initialize() for sim in runs]
        changes = [{"theta": s.theta + 5.0} if field == "theta"
                   else {"v": 1.5 * s.v, "P": 1.5 * s.P} for s in starts]
        edited = dataclasses.replace(starts[0], **changes[0])
        bare = dataclasses.replace(starts[1], **changes[1], theta_sample=None, v_sample=None)
        got, ref = runs[0].advance(edited), runs[1].advance(bare)
        assert got.theta.tobytes() == ref.theta.tobytes()
        for name in ("max_theta", "int_theta", "div_norm", "max_art_visc", "centroid_x"):
            assert getattr(got.diag, name) == getattr(ref.diag, name), name
        if field == "theta":  # the stale sample's temperature read 37.04
            assert got.diag.max_theta > 41.0

    def test_failed_step_stage_raises_labelled(self, monkeypatch):
        # A failed stage of a step is labelled with its step, as those of the
        # initialization are; the run keeps the rows of the steps before it.
        calls = []

        def heat_step_failing_at_3(problem):
            calls.append(problem)
            if len(calls) == 3:
                raise SolverError("heat solve failed")
            return heat_solver.solve_heat_step(problem)

        monkeypatch.setattr(coupler, "solve_heat_step", heat_step_failing_at_3)
        with pytest.raises(SolverError, match="^step 3/heat: heat solve failed$") as exc:
            Simulation(quick_config(M=5)).run()
        assert [row.step for row in exc.value.rows] == [0, 1, 2]

    def test_stage_order_recorded(self):
        sim = Simulation(quick_config())
        initial = sim.initialize()
        state = sim.advance(initial)
        names = [s[0] for s in state.diag.stages]
        times = [s[1] for s in state.diag.stages]
        assert names == ["potential", "flow", "heat"]
        assert times == sorted(times)
        # Each stage ends before the next starts, in the initialization too.
        for stages in (initial.diag.stages, state.diag.stages):
            spans = [t for _, start, end in stages for t in (start, end)]
            assert spans == sorted(spans)


class TestRun:
    def test_row_count(self):
        cfg = quick_config(M=5)
        state, rows = Simulation(cfg).run()
        assert state.n == 5
        assert len(rows) == 6
        assert [r.step for r in rows] == list(range(6))

    def test_equilibrium_rows_identical(self):
        cfg = equilibrium_config(M=4)
        _, rows = Simulation(cfg).run()
        base = rows[0]
        for r in rows[1:]:
            assert r.max_theta == base.max_theta
            assert r.int_theta == base.int_theta
            assert r.div_norm == base.div_norm

    def test_determinism_bitwise(self):
        cfg = quick_config(M=3)
        _, rows_a = Simulation(cfg).run()
        _, rows_b = Simulation(cfg).run()
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
        state, rows = Simulation(cfg).run()
        assert state.t == pytest.approx(0.4, rel=1e-12)

    def test_fields_finite_every_step(self):
        cfg = quick_config(M=3)
        seen = []
        Simulation(cfg).run(on_step=lambda s: seen.append(s))
        assert len(seen) == 4
        for s in seen:
            s.check_finite()


class TestBlowUpGuard:
    def test_large_current_triggers_guard(self):
        cfg = quick_config(M=20)
        cfg.potential_bc.g = 500.0
        with pytest.raises(BlowUpError) as exc:
            Simulation(cfg).run()
        assert exc.value.state is not None
        assert exc.value.state.n <= 20
        assert len(exc.value.rows) >= 1

    def test_advance_applies_the_guard(self):
        # The C9 config (test1 with g = 500) trips at step 2: advance alone
        # raises, carrying the tripping state with its row.
        cfg = preset("test1")
        cfg.potential_bc.g = 500.0
        sim = Simulation(cfg)
        state = sim.advance(sim.initialize())
        with pytest.raises(BlowUpError, match="^blow-up guard tripped at step 2: ") as exc:
            sim.advance(state)
        tripped = exc.value.state
        assert tripped.n == 2 and tripped.diag.step == 2
        assert tripped.diag.max_theta == np.max(tripped.theta) > coupler.BLOWUP_LIMIT

    def test_normal_run_does_not_trigger(self):
        state, _ = Simulation(quick_config(M=3)).run()
        assert np.abs(state.theta).max() < 1e4


def rest_state(sim):
    """The fluid at rest at body temperature, as the 192x64 benchmark starts."""
    nv = sim.mesh.num_vertices
    return SimState(t=0.0, n=0, v=np.zeros(sim.dofmap.n_velocity),
                    P=np.zeros(sim.dofmap.n_pressure), theta=np.full(nv, sim.model.theta_b),
                    phi=np.zeros(nv), theta_prev=None)


class TestHeatDirichlet:
    def test_vertices_built_once_values_resampled(self):
        cfg = quick_config(nx=24, ny=8, M=4)
        cfg.heat_bc["G1"] = HeatBC("dirichlet", 0.0, lambda x, y, t: 37.0 + 10.0 * t)
        sim = Simulation(cfg)
        system = sim.systems["heat"]
        assert system.dofs is None  # built at the first solve
        state = rest_state(sim)
        g1 = sim.mesh.boundary_vertices_with_tag(1)
        dofs = []
        for _ in range(2):
            state = sim.advance(state)
            assert np.abs(state.theta[g1] - (37.0 + 10.0 * state.t)).max() <= 1e-12
            dofs.append(system.dofs)
        # One constraint build: the second step solves with the first's dofs
        # and elimination structure, and only the values are resampled.
        assert dofs[0] is dofs[1] and np.array_equal(dofs[0], g1)
        assert system.builds == 1

    def test_non_finite_datum_fails_before_any_factorization(self):
        cfg = quick_config(nx=24, ny=8, M=3)
        cfg.heat_bc["G1"] = HeatBC("dirichlet", 0.0,
                                   lambda x, y, t: np.nan if t > 0 else 37.0)
        sim = Simulation(cfg)
        with pytest.raises(SolverError, match="non-finite right-hand side") as exc:
            sim.run()
        assert [row.step for row in exc.value.rows] == [0]
        # The initial equilibrium met the contract as its own guess, and the
        # failed step raised before GMRES or an LU: no factorization at all.
        heat = sim.systems["heat"].factor
        assert heat.solves == 1 and heat.events == [] and heat.krylov_solves == 0


class TestLinearSystems:
    @staticmethod
    def checked(monkeypatch, sim):
        """Compare every elimination of ``sim``'s systems with the reference
        mask-and-sum, bit for bit once its stored zeros are dropped; each is
        on its matrix's own index arrays.  Returns the count per system."""
        names = {id(system): name for name, system in sim.systems.items()}
        counts = collections.Counter()
        eliminate = linalg.LinearSystem.eliminate

        def spy(system, A, b, dofs, values):
            out = eliminate(system, A, b, dofs, values)
            assert_same_held_elimination(out, apply_dirichlet_reference(A, b, dofs, values), A)
            if not len(dofs):
                assert out[0] is A  # passed through, uncopied
            counts[names[id(system)]] += 1
            return out

        monkeypatch.setattr(linalg.LinearSystem, "eliminate", spy)
        return counts

    def test_test1_eliminations_match_the_reference_bytes(self, monkeypatch):
        cfg = preset("test1")
        cfg.time.M = 3
        sim = Simulation(cfg)
        counts = self.checked(monkeypatch, sim)
        sim.run()
        # Initialization, then 3 steps; the flow's initialization iterates.
        assert counts["potential"] == counts["heat"] == 4 and counts["flow"] > 4
        systems = sim.systems
        assert systems["heat"].dofs.size == 0 and systems["heat"].builds == 0
        # Each structure is built once, on the pattern and the dofs alone: the
        # flow's Stokes system holds exact zeros in the velocity-pressure
        # blocks where the Newton systems' convection couples, and they stay
        # stored.
        assert systems["potential"].builds == 1 and systems["flow"].builds == 1

    def test_time_dependent_dirichlet_eliminations_match_the_reference_bytes(self, monkeypatch):
        cfg = quick_config(nx=24, ny=8, M=3)
        cfg.heat_bc["G1"] = HeatBC("dirichlet", 0.0, lambda x, y, t: 37.0 + 10.0 * t)
        sim = Simulation(cfg)
        counts = self.checked(monkeypatch, sim)
        sim.run()
        assert counts["heat"] == 4 and sim.systems["heat"].dofs.size > 0

    def test_structures_built_once_over_five_steps(self):
        cfg = quick_config(nx=24, ny=8, M=5)
        cfg.heat_bc["G1"] = HeatBC("dirichlet", 0.0, lambda x, y, t: 37.0 + 10.0 * t)
        sim = Simulation(cfg)
        state = rest_state(sim)
        builds = []
        for _ in range(5):
            state = sim.advance(state)
            builds.append({name: system.builds for name, system in sim.systems.items()})
        # The from-rest flow holds exact zeros where convection couples and
        # the moving flow of step 2 is nonzero there, on the same structure.
        assert builds == [{"potential": 1, "flow": 1, "heat": 1}] * 5


class TestFactorInput:
    """What SuperLU gets: the reference elimination's nonzeros, scaled and
    permuted as :class:`linalg._ScaledLU` states, with no stored zero."""

    @staticmethod
    def scaled_permuted(ref, order, dtype):
        """P D A D P^T of the reference elimination ``ref`` in ``dtype``, as CSC."""
        diag = np.abs(ref.diagonal())
        d = np.ones(ref.shape[0])
        np.divide(1.0, np.sqrt(diag), out=d, where=diag > 0.0)
        data = ref.data * np.repeat(d, np.diff(ref.indptr)) * d[ref.indices]
        scaled = sp.csr_matrix((data.astype(dtype), ref.indices, ref.indptr), shape=ref.shape)
        return scaled[order][:, order].tocsc()

    def checked(self, monkeypatch):
        """Check every matrix factorized from here on against the reference;
        returns, per factorization, whether its eliminated matrix stored zeros."""
        references, expected, stored_zeros = {}, [], []
        eliminate, factorize, splu = (linalg.LinearSystem.eliminate, linalg.HeldLU.factorize,
                                      spla.splu)

        def eliminated(system, A, b, dofs, values):
            out = eliminate(system, A, b, dofs, values)
            # Keyed by the data's address, which a new matrix on it keeps;
            # the data is kept alive with it.
            ref = apply_dirichlet_reference(A, b, dofs, values)[0]
            references[out[0].data.ctypes.data] = (out[0].data, ref)
            return out

        def factorized(held, A, order, reason, single=False):
            ref = references[A.data.ctypes.data][1]
            expected.append(self.scaled_permuted(ref, order, np.float32 if single else float))
            stored_zeros.append(A.nnz > np.count_nonzero(A.data))
            return factorize(held, A, order, reason, single)

        def factor(A, *args, **kwargs):
            want = expected.pop(0)
            assert A.format == "csc" and np.count_nonzero(A.data) == A.nnz
            assert np.array_equal(A.indptr, want.indptr)
            assert np.array_equal(A.indices, want.indices)
            assert A.data.tobytes() == want.data.tobytes()
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(linalg.LinearSystem, "eliminate", eliminated)
        monkeypatch.setattr(linalg.HeldLU, "factorize", factorized)
        monkeypatch.setattr(spla, "splu", factor)
        return stored_zeros

    def test_test1_factors_get_the_reference_nonzeros(self, monkeypatch):
        cfg = preset("test1")  # 48x16: initialization, then 2 steps
        cfg.time.M = 2
        sim = Simulation(cfg)
        stored_zeros = self.checked(monkeypatch)
        sim.run()
        assert len(stored_zeros) == sum(len(s.factor.events) for s in sim.systems.values())
        assert any(stored_zeros)

    def test_from_rest_factors_get_the_reference_nonzeros(self, monkeypatch):
        sim = Simulation(quick_config(nx=24, ny=8, M=3))
        stored_zeros = self.checked(monkeypatch)
        state = rest_state(sim)
        for _ in range(3):
            state = sim.advance(state)
        # One factor per system, at step 1.  The potential's matrix stores
        # the exact zeros of its right triangles' couplings and the from-rest
        # flow's those where convection couples; the heat's stores none.
        assert stored_zeros == [True, True, False]

    def test_precision_counts_the_entries_the_factor_gets(self, monkeypatch):
        # The potential at 160x56 stores 63,369 entries, 43,787 of them
        # nonzero: below SINGLE_NNZ, so its factor is double.
        sim = Simulation(quick_config(nx=160, ny=56))
        dtypes, eliminated = [], []
        splu, eliminate = spla.splu, linalg.LinearSystem.eliminate

        def spy(*args):
            eliminated.append(eliminate(*args))
            return eliminated[-1]

        def factor(A, *args, **kwargs):
            dtypes.append(A.dtype)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", factor)
        monkeypatch.setattr(linalg.LinearSystem, "eliminate", spy)
        theta_b = TemperatureSample(sim.model, sim.mesh,
                                    np.full(sim.mesh.num_vertices, sim.model.theta_b))
        coupler.solve_potential(sim._potential_problem(theta_b))
        A = eliminated[0][0]
        assert (A.nnz, np.count_nonzero(A.data)) == (63_369, 43_787)
        assert A.nnz >= linalg.SINGLE_NNZ > np.count_nonzero(A.data)
        assert dtypes == [np.float64]


class TestHeldFactors:
    def advance(self, sim, steps):
        state, rows = rest_state(sim), []
        for _ in range(steps):
            state = sim.advance(state)
            rows.append(state.diag)
        return state, rows

    def test_five_steps_factorize_each_system_once(self, monkeypatch):
        iterations = {"potential": [], "heat": []}
        for name, attr in (("potential", "solve_potential"), ("heat", "solve_heat_step")):
            def spy(problem, _solve=getattr(coupler, attr), _log=iterations[name]):
                out = _solve(problem)
                _log.append(problem.iterations)
                return out
            monkeypatch.setattr(coupler, attr, spy)
        sim = Simulation(quick_config(nx=24, ny=8, M=5))
        assert all(system.factor.events == [] for system in sim.systems.values())  # built lazily
        state, rows = self.advance(sim, 5)
        for held in (system.factor for system in sim.systems.values()):
            assert held.events == ["no factor held"]
            assert held.solves == 5 and held.krylov_solves == 4
        # The first solve factorizes (0 iterations); the others run GMRES.
        for log in iterations.values():
            assert log[0] == 0 and all(0 < k <= linalg.KRYLOV_CAP for k in log[1:])

        # A run that never reuses a factor: every solve is a fresh LU, as
        # before factors were held.
        monkeypatch.setattr(linalg.HeldLU, "_cycle", lambda *a: (None, 0, "fresh LU"))
        fresh_sim = Simulation(quick_config(nx=24, ny=8, M=5))
        fresh, fresh_rows = self.advance(fresh_sim, 5)
        assert len(fresh_sim.systems["flow"].factor.events) == 5
        # Both runs meet the residual contract 1e-10 |b|, so they differ by
        # round-off amplified by the conditioning: measured 2e-12 in theta
        # and phi, 5e-11 in v, 1.2e-10 in P, 2.5e-9 in the centroid (a ratio
        # of small integrals) and 2e-11 in the other diagnostics.
        bounds = {"theta": 1e-10, "phi": 1e-10, "v": 1e-8, "P": 1e-8}
        for name, bound in bounds.items():
            a, b = getattr(state, name), getattr(fresh, name)
            assert np.linalg.norm(a - b) <= bound * np.linalg.norm(b), name
        for row, ref in zip(rows, fresh_rows):
            for key in ("max_theta", "int_theta", "max_art_visc"):
                assert getattr(row, key) == pytest.approx(getattr(ref, key), rel=1e-9)
            assert row.centroid_x == pytest.approx(ref.centroid_x, rel=1e-7)
            assert row.div_norm <= 1e-10

    def test_reused_steps_apply_each_factor_a_few_times(self, monkeypatch):
        # A performance guard without timing: right-preconditioned GMRES from
        # the last solution reaches half the contract in 5-6 flow factor
        # applications per step.
        applies = []
        apply = linalg.HeldLU.apply

        def counted(self, r):
            applies.append(self)
            return apply(self, r)

        monkeypatch.setattr(linalg.HeldLU, "apply", counted)
        sim = Simulation(preset("test1"))  # the 48x16 preset, started from rest
        flow, potential = sim.systems["flow"].factor, sim.systems["potential"].factor
        state = rest_state(sim)
        for n in range(5):
            applies.clear()
            state = sim.advance(state)
            if n > 0:
                assert flow.iterations > 0 and sum(h is flow for h in applies) <= 6
                assert 0 < potential.iterations <= 3
        assert flow.krylov_solves == potential.krylov_solves == 4

    def test_initialize_records_each_refactorization(self):
        sim = Simulation(quick_config(M=2))
        state = sim.initialize()
        sim.advance(state)
        flow = sim.systems["flow"].factor
        # Stokes -> Newton and stationary -> time step are far apart: each
        # switch that missed refactorized, and says why.
        assert flow.events[0] == "no factor held"
        assert all(e.startswith("GMRES") for e in flow.events[1:])
        assert flow.factored_solves == len(flow.events)
        for held in (system.factor for system in sim.systems.values()):
            assert held.report().startswith(f"{held.solves} solves:")

    def test_standalone_stationary_solves_hold_their_factor(self):
        # Problems built without a system own one, so a stationary iteration
        # outside a Simulation reuses its factor from map to map: test3's
        # flow takes 1 Stokes and 4 Newton solves on 2 LUs, and its heat 4
        # Picard maps on 1.
        sim = Simulation(preset("test3"))
        theta_b = np.full(sim.mesh.num_vertices, sim.model.theta_b)
        temperature = TemperatureSample(sim.model, sim.mesh, theta_b)
        flow = flow_solver.FlowProblem(temperature, dt=None, bc=sim.flow_bc)
        v0, _ = flow_solver.solve_flow_stationary(flow)
        off = {tag: HeatBC() if bc.role == "inflow" else bc for tag, bc in sim.heat_bc.items()}
        heat = HeatProblem(temperature, VelocitySample(sim.mesh, v0),
                           phi=np.zeros(sim.mesh.num_vertices), dt=None, bc=off,
                           include_physics_sources=False)
        heat_solver.solve_heat_stationary(heat)
        assert flow.system.factor.solves == 5 and len(flow.system.factor.events) == 2
        assert heat.system.factor.solves == 4 and len(heat.system.factor.events) == 1


class TestFactorPrecision:
    @staticmethod
    def factorized_dtypes(monkeypatch):
        """The dtype of every matrix factorized from here on."""
        dtypes = []
        splu = linalg.spla.splu

        def recorded(A, *args, **kwargs):
            dtypes.append(A.dtype)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", recorded)
        return dtypes

    def test_test1_systems_stay_double(self, monkeypatch):
        # The largest test1 system, the condensed flow, stores ~45 k entries,
        # far below SINGLE_NNZ: every factor is double, and the run's summary
        # names no single-precision factor.
        dtypes = self.factorized_dtypes(monkeypatch)
        cfg = preset("test1")
        cfg.time.M = 2
        sim = Simulation(cfg)
        sim.run()
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}
        for system in sim.systems.values():
            assert system.factor._lu.dtype == np.float64
            assert "single" not in system.factor.report()

    def test_stokes_to_oseen_switch_gives_up_early(self, monkeypatch):
        # The first Newton system is far from the Stokes factor: GMRES on it
        # crawls, so its cycle is projected to miss and ends after 3
        # iterations instead of running all KRYLOV_CAP of them.
        sim = Simulation(preset("test1"))
        flow = sim.systems["flow"].factor
        on_first_factor = []
        apply = linalg.HeldLU.apply

        def counted(self, r):
            if self is flow and len(flow.events) == 1:
                on_first_factor.append(1)
            return apply(self, r)

        monkeypatch.setattr(linalg.HeldLU, "apply", counted)
        sim.initialize()
        # One application solves the Stokes system, the rest are the cycle's.
        assert len(on_first_factor) <= 4
        assert flow.events[:2] == ["no factor held", "GMRES projected to miss after 3 iterations"]

    def test_single_factors_meet_the_contracts_in_a_coupled_run(self, monkeypatch):
        # With the threshold lowered, every factor of a small run is single
        # precision; each solve still meets the float64 contract (the flow
        # solver checks its residual and divergence again), and the run
        # stays within round-off of the double one.
        double_sim = Simulation(quick_config(nx=24, ny=8, M=4))
        double, double_rows = double_sim.run()
        monkeypatch.setattr(linalg, "SINGLE_NNZ", 100)
        dtypes = self.factorized_dtypes(monkeypatch)
        sim = Simulation(quick_config(nx=24, ny=8, M=4))
        state, rows = sim.run()
        assert set(dtypes) == {np.dtype(np.float32)}
        for held in (system.factor for system in sim.systems.values()):
            assert held.events[0] == "no factor held, in single precision"
            assert held.report().startswith(f"{held.solves} solves:")
        for name in ("theta", "phi", "v", "P"):
            a, b = getattr(state, name), getattr(double, name)
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b), name
        for row, ref in zip(rows, double_rows):
            assert row.max_theta == pytest.approx(ref.max_theta, rel=1e-10)
            assert row.int_theta == pytest.approx(ref.int_theta, rel=1e-10)
            assert row.div_norm <= 1e-8

def test_condensed_assembly_peak_memory():
    """numpy's peak while assembling the condensed flow system at 96x32.

    It was ~2,350 bytes per triangle while the fill cast its int32 scatter
    to intp and the Schur and convective updates were whole-mesh arrays,
    ~1,540 while the convective fill summed into an array of its own, and
    ~1,080 while the Schur fill read the assembled velocity data through
    per-mesh maps; it is ~1,350 now, the fused fill's temporaries of a
    quarter range of triangles.  The maps it no longer needs are held, so
    they are not counted here; the MINI and condensed data positions,
    formed a quarter range at a time now that no mesh holds them, are."""
    cfg = quick_config(nx=96, ny=32)
    sim = Simulation(cfg)
    mesh, dm = sim.mesh, sim.dofmap
    v = np.random.default_rng(0).standard_normal(dm.n_velocity)
    kwargs = dict(advect=v, gamma_n_tags=(4,), mass_coeff=10.0)
    fem_core.assemble_condensed_saddle(mesh, 1.0, **kwargs)  # builds the caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fem_core.assemble_condensed_saddle(mesh, 1.0, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1700 * mesh.num_triangles


# The values of a velocity that its sample evaluates on first read.
VELOCITY_VALUES = tuple(name for name, value in vars(VelocitySample).items()
                        if isinstance(value, functools.cached_property))


class TestSharedFields:
    """Each step evaluates every field at the quadrature points once, and the
    state carries its samples of theta^n and v^n into the next step."""

    @staticmethod
    def spy(monkeypatch, owners, name, counts):
        """Count the calls of ``name`` wherever ``owners`` look it up."""
        original = getattr(owners[0], name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for owner in owners:
            assert getattr(owner, name) is original
            monkeypatch.setattr(owner, name, counted)

    def test_one_evaluation_per_field_in_a_step(self, monkeypatch):
        from collections import Counter

        from ablatesim import heat_solver, materials, potential_solver

        sim = Simulation(quick_config(nx=24, ny=8, M=5))
        state = rest_state(sim)
        for _ in range(2):
            state = sim.advance(state)
        counts = Counter()
        for owners, name in (([potential_solver, heat_solver], "joule_density"),
                             ([flow_solver, heat_solver], "viscous_dissipation"),
                             ([fem_core], "velocity_grad_at_qp"),
                             ([fem_core], "velocity_at_qp"),
                             ([fem_core], "p1_at_qp"),
                             ([materials.MaterialModel], "sigma")):
            self.spy(monkeypatch, owners, name, counts)
        sim.advance(state)
        assert counts["joule_density"] == 1 and counts["viscous_dissipation"] == 1
        assert counts["velocity_grad_at_qp"] == 0 and counts["velocity_at_qp"] <= 1
        assert counts["sigma"] == 1
        # theta^{n-2} for the residual's time term, and theta^n for the diagnostics.
        assert counts["p1_at_qp"] == 2

    def test_hand_built_state_advances_as_a_carried_one(self):
        # fine_cold builds its state by keyword, without the carried fields;
        # each step of this run starts from such a state.
        carried_sim, bare_sim = (Simulation(quick_config(nx=24, ny=8, M=4)) for _ in "ab")
        carried = bare = rest_state(carried_sim)
        for _ in range(4):
            carried = carried_sim.advance(carried)
            bare = bare_sim.advance(SimState(t=bare.t, n=bare.n, v=bare.v, P=bare.P,
                                             theta=bare.theta, phi=bare.phi,
                                             theta_prev=bare.theta_prev, diag=bare.diag))
            assert carried.theta_sample.theta_h is carried.theta
            assert carried.v_sample.v_h is carried.v
            assert np.array_equal(carried.theta, bare.theta)
            assert np.array_equal(carried.v, bare.v)
            for name in ("max_theta", "argmax_x", "argmax_y", "int_theta", "div_norm",
                         "max_art_visc", "min_art_visc", "centroid_x"):
                assert getattr(carried.diag, name) == getattr(bare.diag, name), name

    @pytest.mark.parametrize("name, calls", [("test1", 2), ("test3", 5)])
    def test_initialize_samples_theta_b_once(self, monkeypatch, name, calls):
        # The stationary flow, the potential and the heat's first Picard map
        # share one sample of theta_b; each later Picard map (none for test1,
        # 3 for test3) and the diagnostics of the initial state sample their
        # temperature once.
        from collections import Counter

        sim = Simulation(preset(name))
        counts = Counter()
        self.spy(monkeypatch, [fem_core], "p1_at_qp", counts)
        sim.initialize()
        assert counts["p1_at_qp"] == calls

    def test_initialize_and_first_step_sample_each_velocity_once(self, monkeypatch):
        # The stationary heat's sample of v0 is the initial state's, so
        # step 1 reads v0 at the quadrature points from it, for the cell
        # speeds of the artificial viscosity, from its element coefficients.
        # Nothing else is sampled there: the Newton systems, the Oseen block
        # and the heat's advection and inflow weight read element
        # coefficients (the reference map), and no (NT, NQ, 2) velocity is
        # formed (velocity_at_qp is never called).
        sim = Simulation(preset("test1"))
        seen, at_qp = [], []
        speed, velocity_at_qp = flow_solver._cell_speed_max, fem_core.velocity_at_qp

        def recorded(coeffs):
            seen.append(coeffs)  # kept alive, so every id stays distinct
            return speed(coeffs)

        def formed(mesh, u):
            at_qp.append(u)
            return velocity_at_qp(mesh, u)

        monkeypatch.setattr(flow_solver, "_cell_speed_max", recorded)
        monkeypatch.setattr(fem_core, "velocity_at_qp", formed)
        state = sim.initialize()
        sim.advance(state)
        assert len(seen) == 1 and seen[0] is state.v_sample.coeffs
        assert at_qp == []

    def test_strain_of_the_startup_state_is_never_evaluated(self, monkeypatch):
        # At startup the residual is off, so only v^1's D(v):D(v), the heat
        # source's, is evaluated; the lagged state's is never read.  test3's
        # buoyant flow moves, so v^1 is not v0 and has a sample of its own.
        from collections import Counter

        from ablatesim import heat_solver

        sim = Simulation(quick_config("test3", nx=24, ny=8, M=5))
        state = sim.initialize()
        counts = Counter()
        self.spy(monkeypatch, [flow_solver, heat_solver], "viscous_dissipation", counts)
        new = sim.advance(state)
        assert new.v is not state.v
        assert counts["viscous_dissipation"] == 1
        assert "strain" not in vars(state.v_sample) and "strain" in vars(new.v_sample)

    @staticmethod
    def spy_values(monkeypatch, counts):
        """Count the evaluations of each of the velocity's values of every
        VelocitySample (``VELOCITY_VALUES``)."""
        for name in VELOCITY_VALUES:
            evaluate = vars(VelocitySample)[name].func

            def counted(sample, name=name, evaluate=evaluate):
                counts[name] += 1
                return evaluate(sample)

            value = functools.cached_property(counted)
            value.__set_name__(VelocitySample, name)
            monkeypatch.setattr(VelocitySample, name, value)

    def test_an_unchanged_velocity_is_evaluated_once(self, monkeypatch):
        # test1's flow returns v0 itself at every step, so its one sample
        # transports too and goes to the next state with each of the
        # velocity's values: none is evaluated again, and the heat step drops
        # none.  The
        # potential's Neumann load, of a constant flux, is built once too.
        from collections import Counter

        from ablatesim import heat_solver

        sim = Simulation(quick_config(nx=24, ny=8, M=5))
        per_run = Counter()
        self.spy_values(monkeypatch, per_run)
        self.spy(monkeypatch, [fem_core], "assemble_boundary_load", per_run)
        state = sim.initialize()
        counts = Counter()
        self.spy(monkeypatch, [flow_solver, heat_solver], "viscous_dissipation", counts)
        for name in ("velocity_at_qp", "assemble_advection"):
            self.spy(monkeypatch, [fem_core], name, counts)
        first = sim.advance(state)
        values = {name: vars(first.v_sample)[name] for name in VELOCITY_VALUES}
        assert first.v is state.v and first.v_sample is state.v_sample
        for name in ("coeffs", "advection", "div_norm", "vmax"):
            assert values[name] is vars(state.v_sample)[name], name
        new = first
        for _ in range(4):
            new = sim.advance(new)
        assert new.v is state.v and new.P is state.P
        # The initial state's coefficients and advection matrix came from the
        # stationary heat, its |Bv| and max|v| from its diagnostics; step 1
        # evaluated D(v):D(v), the cell speeds and the inflow weights with
        # their edge mass, none of them through velocity_at_qp.
        assert counts == {"viscous_dissipation": 1}
        assert per_run == {name: 1 for name in (*VELOCITY_VALUES, "assemble_boundary_load")}
        for name, value in values.items():
            assert vars(new.v_sample)[name] is value, name
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
        assert isinstance(values["div_norm"], float) and isinstance(values["vmax"], float)
        assert not (new.v.flags.writeable or new.P.flags.writeable)

    def test_a_moving_velocity_has_each_value_evaluated_once_per_step(self, monkeypatch):
        # test3's buoyant flow moves at every step: v^n's values are
        # evaluated in the step that makes v^n or, for those that only the
        # next step's lagged sample reads (the cell speeds), in that step;
        # each of them once.
        from collections import Counter

        sim = Simulation(quick_config("test3", nx=24, ny=8, M=4))
        state = sim.initialize()
        counts = Counter()
        self.spy_values(monkeypatch, counts)
        for n in range(4):
            new = sim.advance(state)
            assert new.v is not state.v, n
            assert counts == {name: n + 1 for name in VELOCITY_VALUES}, n
            state = new


def test_heat_step_peak_memory():
    """numpy's peak in the heat step at 96x32, with every quadrature-point
    value evaluated inside the step (no shared or carried fields).

    It was ~1,540 bytes per triangle while the step evaluated the Joule
    density and the (NT, NQ, 2, 2) velocity Jacobian twice; it is ~1,170
    now."""
    from ablatesim.heat_solver import solve_heat_step

    cfg = quick_config(nx=96, ny=32)
    sim = Simulation(cfg)
    prev = sim.advance(rest_state(sim))
    state = sim.advance(prev)
    dt = cfg.time.dt
    problem = sim._heat_problem(TemperatureSample(sim.model, sim.mesh, state.theta),
                                VelocitySample(sim.mesh, prev.v),
                                VelocitySample(sim.mesh, state.v),
                                state.theta_prev, state.phi, dt, state.t + dt)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_heat_step(problem)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1350 * sim.mesh.num_triangles


def test_flow_step_peak_memory():
    """numpy's peak in the flow step at 96x32, from a fresh sample of the
    lagged fields, on the factor the system holds from the earlier steps.

    It was ~1,550 bytes per triangle while the step sampled v^{n-1} at the
    quadrature points and formed the condensation couplings twice, and
    ~1,150 while the Schur fill read the assembled velocity data through
    per-mesh maps; it is ~1,340 now.  Holding either (NT, 9, 2) coupling
    across the solve would add ~144 bytes per triangle."""
    cfg = quick_config(nx=96, ny=32)
    sim = Simulation(cfg)
    prev = sim.advance(rest_state(sim))
    state = sim.advance(prev)
    problem = sim._flow_problem(TemperatureSample(sim.model, sim.mesh, state.theta),
                                cfg.time.dt, VelocitySample(sim.mesh, state.v))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        flow_solver.solve_flow_step(problem)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1500 * sim.mesh.num_triangles


class TestFixedFlow:
    """A flow step whose solve returns its guess (v^{n-1}, P^{n-1}) returns
    those arrays, and records its inputs on the velocity sample it started
    from; a step from that sample on the same inputs is not assembled again."""

    @staticmethod
    def counted_assemblies(monkeypatch):
        calls = []
        assemble = fem_core.assemble_condensed_saddle

        def counted(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(fem_core, "assemble_condensed_saddle", counted)
        return calls

    def test_test1_flow_stays_the_initial_arrays(self, monkeypatch):
        sim = Simulation(preset("test1"))
        initial = state = sim.initialize()
        flow = sim.systems["flow"].factor
        calls = self.counted_assemblies(monkeypatch)
        solves = flow.solves
        for n in range(10):
            state = sim.advance(state)
            assert state.v is initial.v and state.P is initial.P
            assert len(calls) == 1, n  # step 1's assembly only
            assert flow.by_guess and flow.solves == solves + n + 1
        assert flow.krylov_solves == 2 and flow.factored_solves == 2  # the initialization's

    def step(self, sim, state, model=None, dt=None, velocity=None, bc=None, system=None):
        """solve_flow_step of the step after ``state`` on the run's system,
        from the state's own velocity sample, with the model, dt, previous
        velocity sample, boundary data or system replaced where given."""
        return flow_solver.solve_flow_step(flow_solver.FlowProblem(
            temperature=TemperatureSample(model or sim.model, sim.mesh, state.theta),
            velocity=velocity or state.v_sample,
            dt=dt or sim.config.time.dt, bc=bc or sim.flow_bc, p_prev=state.P,
            system=system or sim.systems["flow"]))

    @staticmethod
    def guess_solves(factor):
        return factor.solves - factor.krylov_solves - factor.factored_solves

    def test_a_step_on_the_carried_sample_repeats(self, monkeypatch):
        # The same inputs from the carried sample: no assembly, one more
        # solve by the guess, and the very arrays of the state.
        sim = Simulation(quick_config(nx=24, ny=8))
        state = sim.advance(sim.initialize())
        flow = sim.systems["flow"].factor
        record, guesses = state.v_sample.fixed, self.guess_solves(flow)
        calls = self.counted_assemblies(monkeypatch)
        v, p = self.step(sim, state)
        assert v is state.v and p is state.P and calls == []
        assert self.guess_solves(flow) == guesses + 1 and flow.by_guess
        assert state.v_sample.fixed is record

    def test_a_fresh_sample_of_the_same_arrays_assembles(self, monkeypatch):
        # A new sample holds no record, so its step is a full one; the solve
        # returns its guess, so the step returns the state's own arrays, and
        # the new sample now holds a record of its own.
        sim = Simulation(quick_config(nx=24, ny=8))
        state = sim.advance(sim.initialize())
        fresh = VelocitySample(sim.mesh, state.v)
        assert fresh.fixed is None and state.v_sample.fixed is not None
        calls = self.counted_assemblies(monkeypatch)
        v, p = self.step(sim, state, velocity=fresh)
        assert v is state.v and p is state.P and len(calls) == 1
        assert fresh.fixed is not None and fresh.fixed[0] is sim.flow_bc

    def test_a_step_on_another_velocity_leaves_the_carried_record(self):
        sim = Simulation(quick_config(nx=24, ny=8))
        state = sim.advance(sim.initialize())
        record = state.v_sample.fixed
        v = state.v.copy()
        v[sim.dofmap.vx_bubble(5)] += 1e-3
        other = VelocitySample(sim.mesh, v)
        v_new, _ = self.step(sim, state, velocity=other)
        assert v_new is not v and other.fixed is None
        assert state.v_sample.fixed is record

    def test_other_inflow_data_solve_after_a_repeat(self):
        # A new bc dict with a doubled inflow is not the repeated step's:
        # the step solves with its inflow, as on a fresh system.
        sim = Simulation(quick_config(nx=24, ny=8))
        before = sim.advance(sim.initialize())
        state = sim.advance(before)
        flow = sim.systems["flow"]
        assert state.v is before.v and flow.factor.by_guess and state.v_sample.fixed is not None
        profile = sim.flow_bc[1].profile
        bc = dict(sim.flow_bc)
        bc[1] = flow_solver.FlowBC("inflow", lambda x, y: tuple(2.0 * c for c in profile(x, y)))
        v_ref, p_ref = self.step(sim, state, velocity=VelocitySample(sim.mesh, state.v), bc=bc,
                                 system=linalg.LinearSystem())
        solves = flow.factor.solves
        v, p = self.step(sim, state, bc=bc)
        assert v is not state.v and not flow.factor.by_guess and flow.factor.solves == solves + 1
        assert np.abs(v - v_ref).max() <= 1e-9 * np.abs(v_ref).max()
        assert np.abs(p - p_ref).max() <= 1e-9 * np.abs(p_ref).max()
        assert np.abs(v_ref).max() > 1.5 * np.abs(state.v).max()

    @pytest.mark.parametrize("change", ["none", "v_h", "nu", "nu_const", "force", "dt"])
    def test_each_input_change_assembles_again(self, monkeypatch, change):
        sim = Simulation(quick_config(nx=24, ny=8))
        state = sim.advance(sim.initialize())
        assert state.v_sample.fixed is not None
        model, dt, velocity = None, None, None
        if change == "v_h":
            v = state.v.copy()
            v[sim.dofmap.vx_bubble(5)] = np.nextafter(v[sim.dofmap.vx_bubble(5)], np.inf)
            velocity = VelocitySample(sim.mesh, v)
        elif change == "nu":
            model = copy.deepcopy(sim.model)
            model.nu_law = lambda th: np.full(np.shape(th), 2.0 * model.nu_const)
        elif change == "nu_const":  # the default law's broadcast, one ulp up
            model = copy.deepcopy(sim.model)
            model.nu_const = np.nextafter(model.nu_const, np.inf)
        elif change == "force":
            model = copy.deepcopy(sim.model)
            model.buoyancy.enabled = True
        elif change == "dt":
            dt = 0.5 * sim.config.time.dt
        flow = sim.systems["flow"].factor
        solves = flow.solves
        calls = self.counted_assemblies(monkeypatch)
        v_new, p_new = self.step(sim, state, model, dt, velocity)
        assert flow.solves == solves + 1
        assert len(calls) == (change != "none")
        if change == "none":
            assert v_new is state.v and p_new is state.P
        if change in ("nu", "force"):  # a new flow: the solve left its guess
            assert not flow.by_guess and not np.array_equal(v_new, state.v)
        # The step goes back to the unchanged inputs.  A step from another
        # velocity left the carried sample's record, so it repeats; any other
        # changed step was the carried sample's own, and replaced or cleared
        # its record, so it assembles again, and it returns its guess.
        v_back, p_back = self.step(sim, state)
        assert len(calls) == {"none": 0, "v_h": 1}.get(change, 2)
        assert v_back is state.v and p_back is state.P

    def test_a_guess_off_the_contracts_gets_new_bubbles(self, monkeypatch):
        # The contracts are checked on the returned guess itself, bubbles
        # included; when they miss there, the step recovers the bubbles and
        # checks them again, as for any solve.
        sim = Simulation(quick_config(nx=24, ny=8))
        state = sim.advance(sim.initialize())
        state.v_sample.fixed = None  # so that the step solves again
        checked = []
        contract_miss = flow_solver._contract_miss

        def missed_on_the_guess(saddle, x, *args):
            checked.append(x)
            return "forced" if len(checked) == 1 else contract_miss(saddle, x, *args)

        monkeypatch.setattr(flow_solver, "_contract_miss", missed_on_the_guess)
        v_new, p_new = self.step(sim, state)
        assert sim.systems["flow"].factor.by_guess and len(checked) == 2
        assert np.array_equal(checked[0], np.concatenate([state.v, state.P]))
        assert v_new is not state.v and state.v_sample.fixed is None
        assert np.abs(v_new - state.v).max() <= 1e-12 and np.array_equal(p_new, state.P)

    def test_a_guess_off_its_boundary_values_is_not_returned(self):
        # One ulp off at an inflow dof, the guess still meets the solve's
        # contract, but the solve sets the constrained values exactly, so it
        # does not return its start, and the step returns the solve's.
        sim = Simulation(quick_config(nx=24, ny=8))
        state = sim.advance(sim.initialize())
        dofs, vals = flow_solver.flow_constraints(flow_solver.FlowProblem(
            temperature=TemperatureSample(sim.model, sim.mesh, state.theta),
            dt=sim.config.time.dt, bc=sim.flow_bc))
        k = int(np.flatnonzero(vals)[0])
        v = state.v.copy()
        v[dofs[k]] = np.nextafter(v[dofs[k]], np.inf)
        velocity = VelocitySample(sim.mesh, v)
        v_new, _ = self.step(sim, state, velocity=velocity)
        assert sim.systems["flow"].factor.by_guess and velocity.fixed is None
        assert v_new is not v and v_new[dofs[k]] == vals[k] == state.v[dofs[k]]

    def test_test3_rows_match_the_stored_run(self):
        # test3's buoyant flow moves every step, so each step assembles and
        # solves, from the previous (v, P); its rows and factorizations are
        # those recorded before the rule (bit-identical at one BLAS thread),
        # on a 24x8 mesh to keep the 100 steps cheap.
        sim = Simulation(quick_config("test3", nx=24, ny=8, M=100))
        _, rows = sim.run()
        recorded = {50: (36.94114366523395, 27.329383253963048),
                    100: (36.93914906137938, 27.327328162906387)}
        for n, (max_theta, int_theta) in recorded.items():
            assert rows[n].max_theta == pytest.approx(max_theta, rel=1e-12, abs=0.0)
            assert rows[n].int_theta == pytest.approx(int_theta, rel=1e-12, abs=0.0)
        assert sim.systems["flow"].factor.events == [
            "no factor held", "GMRES projected to miss after 3 iterations",
            "GMRES projected to miss after 3 iterations"]
        assert sim.systems["heat"].factor.events == [
            "no factor held", "GMRES projected to miss after 3 iterations"]
        assert sim.systems["flow"].factor.report().startswith("105 solves: 1 by the guess")
