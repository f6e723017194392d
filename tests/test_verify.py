from types import SimpleNamespace

import numpy as np
import pytest

from ablatesim import coupler, fem_core, flow_solver, heat_solver, linalg, materials, verify
from ablatesim.mesh import GeometrySpec, generate_channel_mesh
from ablatesim.sim_cli import config_from_dict
from ablatesim.verify import (CASE_KINDS, INVARIANT_NAMES, ManufacturedCase, RateReport,
                              convergence_study,
                              finite_difference_source_check, format_report,
                              format_report_csv,
                              heat_steady_case, heat_unsteady_spatial_case,
                              heat_unsteady_temporal_case, invariant_suite,
                              oseen_case, oseen_outlet_case, oseen_unsteady_case,
                              potential_case)


def tiny_config(**over):
    base = {"geometry": {"nx": 10, "ny": 6}, "time": {"M": 3}}
    base.update(over)
    return config_from_dict({"preset": "test1", **base})


ALL_CASES = [potential_case, heat_steady_case, heat_unsteady_spatial_case,
             heat_unsteady_temporal_case, oseen_case, oseen_outlet_case, oseen_unsteady_case]


class TestSourceConsistency:
    @pytest.mark.parametrize("factory", ALL_CASES)
    def test_fd_check_below_threshold(self, factory):
        assert finite_difference_source_check(factory()) < 1e-6

    def test_corrupted_source_flagged(self):
        case = potential_case()
        good = case.source
        case.source = lambda x, y: good(x, y) + 1.0
        assert finite_difference_source_check(case) > 1e-2

    def test_constant_field_zero_source(self):
        case = ManufacturedCase(
            name="const", kind="potential",
            exact=lambda x, y: np.full_like(np.asarray(x, dtype=float), 3.0),
            grad=lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
            source=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
        assert finite_difference_source_check(case) < 1e-6


class TestCaseKinds:
    @pytest.mark.parametrize("factory", ALL_CASES)
    def test_every_factory_kind_has_an_entry(self, factory):
        kind = CASE_KINDS[factory().kind]
        assert callable(getattr(verify, kind.solver))

    @pytest.mark.parametrize("study", [convergence_study, finite_difference_source_check])
    def test_unknown_kind_raises_before_any_mesh(self, monkeypatch, study):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(verify, "_mms_mesh", no_mesh)
        monkeypatch.setattr(verify.mesh_mod, "channel_mesh_arrays", no_mesh)
        case = potential_case()
        case.kind = "stokes"
        with pytest.raises(ValueError, match="unknown case kind 'stokes'"):
            study(case)


class TestStationaryCases:
    def test_heat_steady_takes_two_lu_solves(self, monkeypatch):
        # Linear problem: one factorization, then the fixed point's own check
        # (the guess meets the residual contract, so no second factorization).
        calls = []
        solve = linalg.solve_lu
        monkeypatch.setattr(linalg, "solve_lu", lambda *a, **k: calls.append(1) or solve(*a, **k))
        verify.solve_heat_steady_case(heat_steady_case(), 16, 8)
        assert len(calls) == 2

    def test_heat_unsteady_level_factorizes_once(self, monkeypatch):
        # Every step of a level has the same matrix: the level's one system
        # factorizes it at the first step, and GMRES on that factor solves
        # the others.
        factorizations = []
        splu = linalg.spla.splu
        monkeypatch.setattr(linalg.spla, "splu",
                            lambda *a, **k: factorizations.append(1) or splu(*a, **k))
        verify.solve_heat_unsteady_case(heat_unsteady_spatial_case(), 16, 8, steps=4)
        assert len(factorizations) == 1

    def test_heat_unsteady_level_evaluates_its_velocity_once(self, monkeypatch):
        # Every step of a level has the same velocity: its element
        # coefficients, and the values formed from them, are evaluated at the
        # first step and go with each new temperature to the next.
        calls = []
        coeffs = fem_core.velocity_element_coeffs
        monkeypatch.setattr(fem_core, "velocity_element_coeffs",
                            lambda *a, **k: calls.append(1) or coeffs(*a, **k))
        verify.solve_heat_unsteady_case(heat_unsteady_spatial_case(), 16, 8, steps=4)
        assert len(calls) == 1


class TestRateReport:
    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            RateReport(case="x", h=[0.1, 0.05], errors={"L2": [1.0, 0.5]})

    def test_quick_potential_slope(self):
        rep = convergence_study(potential_case(), levels=((8, 4), (16, 8), (32, 16)))
        assert rep.slopes_ls["L2"] > 1.5
        assert len(rep.h) == 3
        assert rep.errors["L2"][0] > rep.errors["L2"][-1]


class TestOutletCase:
    def test_linear_rates_meet_c3_windows(self):
        # The linear Oseen solve of every flow solve, with G3 do-nothing and
        # no pressure pinned, meets C3's windows from 16x8 to 64x32: the
        # natural condition and the convective surface term are consistent.
        rep = convergence_study(oseen_outlet_case(), levels=((16, 8), (32, 16), (64, 32)))
        assert 0.9 <= rep.slopes_ls["velocity_H1"] <= 1.3, rep.slopes_ls
        assert 0.8 <= rep.slopes_ls["pressure_L2"] <= 1.3, rep.slopes_ls
        assert all(d <= flow_solver.DIVERGENCE_BOUND * (1.0 + v) for d, v in
                   zip(rep.extra["div_residual"], rep.extra["v_norm"]))

    def test_the_outlet_is_traction_free_and_flowed_through(self):
        # (D(u*) - p* I) n = 0 on x = 2, with nu = 1, while u*.n is not 0.
        case = oseen_outlet_case()
        y = np.linspace(0.0, 1.0, 9)
        x = np.full_like(y, verify.MMS_GEOMETRY["L"])
        (d11, d12), (d21, _) = case.grad(x, y)
        assert np.abs(d11 - case.pressure(x, y)).max() <= 1e-12
        assert np.abs(0.5 * (d12 + d21)).max() <= 1e-12
        assert np.abs(case.exact(x, y)[0]).max() > 1.0


class TestSplittingOrder:
    def test_a_field_exact_at_every_step_count_has_no_rate(self):
        # test1 has no buoyancy, so its flow never sees theta: v at T is the
        # same bit for bit for every M, and its error is 0.0 at each.
        cfg = tiny_config(geometry={"nx": 16, "ny": 8}, time={"T": 0.2})
        rep = verify.splitting_order_study(cfg, Ms=(2, 4, 8), M_ref=16)
        assert rep.extra["exact"] == ["v"]
        assert set(rep.errors) == set(rep.extra["rates"]) == set(rep.slopes_ls) == {"theta", "phi"}
        assert all(e > 0.0 for errs in rep.errors.values() for e in errs)

    def test_a_field_exact_at_some_step_counts_raises(self, monkeypatch):
        mesh = generate_channel_mesh(GeometrySpec(nx=10, ny=2))
        n_v, n_u = mesh.num_vertices, fem_core.dofmap_for(mesh).n_velocity

        class Run:  # v is exact at M = 4 only; theta and phi nowhere
            def __init__(self, config):
                self.mesh, self.M = mesh, config.time.M

            def run(self):
                v = np.full(n_u, 0.0 if self.M in (4, 16) else 1.0 / self.M)
                state = SimpleNamespace(theta=np.full(n_v, 1.0 / self.M), v=v,
                                        phi=np.full(n_v, 2.0 / self.M))
                return state, []

        monkeypatch.setattr(coupler, "Simulation", Run)
        with pytest.raises(ValueError, match="v error is 0 at M = 4"):
            verify.splitting_order_study(tiny_config(), Ms=(2, 4, 8), M_ref=16)


class TestInvariantSuite:
    def test_registry_complete_and_unique(self):
        assert len(INVARIANT_NAMES) == len(set(INVARIANT_NAMES))
        report = invariant_suite(tiny_config())
        recorded = [c["name"] for c in report["checks"]]
        assert recorded == list(INVARIANT_NAMES)
        assert len(recorded) == len(set(recorded))

    def test_solver_failure_fails_every_check_it_reaches(self, monkeypatch):
        # Every solve raises: each guarded block records the names it did not
        # reach as failed, and the report still lists all of them.
        def failing(*args, **kwargs):
            raise linalg.SolverError("injected failure")

        monkeypatch.setattr(linalg, "solve_lu", failing)
        report = invariant_suite(tiny_config())
        assert [c["name"] for c in report["checks"]] == list(INVARIANT_NAMES)
        assert not report["passed"]
        failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
        for name in ("linalg.residual_contracts", "linalg.dirichlet_idempotent",
                     "fem.patch_test"):
            assert "injected failure" in failed[name]

    def test_default_config_passes(self):
        report = invariant_suite(tiny_config())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert report["passed"], failed

    def test_negative_beta_fails_bound_check(self, monkeypatch):
        # The config rejects beta < 0, so the viscosity itself breaks the
        # bound: twice beta*|v|*h in every cell, which the audit must catch.
        def over_bound(mesh, residuals, theta, vmax_k, params):
            return 2.0 * params.beta * vmax_k * mesh.h

        monkeypatch.setattr(heat_solver, "artificial_viscosity", over_bound)
        report = invariant_suite(tiny_config())
        byname = {c["name"]: c for c in report["checks"]}
        assert not byname["heat.art_visc_bound"]["passed"]
        assert byname["heat.art_visc_bound"]["detail"].startswith("max violation ")
        assert byname["heat.art_visc_zero_velocity"]["passed"]
        assert not report["passed"]

    def test_viscosity_at_rest_fails_zero_velocity_check(self, monkeypatch):
        # With every wall no-slip and no body force the flow is at rest in
        # every cell; a viscosity of 1e-3 there must fail the check that the
        # entropy viscosity vanishes where v = 0.
        def nonzero(mesh, residuals, theta, vmax_k, params):
            return np.full(mesh.num_triangles, 1e-3)

        monkeypatch.setattr(heat_solver, "artificial_viscosity", nonzero)
        noslip = {"role": "noslip", "profile": None}
        report = invariant_suite(tiny_config(flow_bc=dict.fromkeys(
            ("G1", "G2", "G3", "G4", "G5"), noslip)))
        byname = {c["name"]: c for c in report["checks"]}
        assert not byname["heat.art_visc_zero_velocity"]["passed"]
        assert byname["heat.art_visc_zero_velocity"]["detail"] == "max viscosity at rest 1.00e-03"
        assert byname["coupler.stage_order"]["passed"] and not report["passed"]

    @pytest.mark.parametrize("misorder, names", [
        # potential and flow swap their names but keep their times
        (lambda stages: [(name, *stage[1:]) for name, stage
                         in zip(("flow", "potential", "heat"), stages)], "flow, potential, heat"),
        (lambda stages: [stages[0], (stages[1][0], stages[0][1], stages[1][2]), *stages[2:]],
         "potential, flow, heat"),
    ], ids=["names_swapped", "flow_starts_before_potential_ends"])
    def test_stage_out_of_order_fails_stage_order_check(self, monkeypatch, misorder, names):
        end_step = coupler.Simulation._end_step
        monkeypatch.setattr(coupler.Simulation, "_end_step",
                            lambda self, state, stages: end_step(self, state, misorder(stages)))
        report = invariant_suite(tiny_config())
        byname = {c["name"]: c for c in report["checks"]}
        # The initialization's stages are not audited: step 1 is the first.
        assert not byname["coupler.stage_order"]["passed"]
        assert byname["coupler.stage_order"]["detail"] == f"step 1 out of order: {names}"
        assert byname["heat.art_visc_zero_velocity"]["passed"]
        assert byname["heat.art_visc_bound"]["passed"]
        assert not report["passed"]

    def test_negative_beta_on_a_built_config_is_refused(self):
        # Set on a built config, beta < 0 is refused by the run the bound
        # check audits, and the check fails naming it.
        config = tiny_config()
        config.stabilization.beta = -0.1
        report = invariant_suite(config)
        byname = {c["name"]: c for c in report["checks"]}
        assert not byname["heat.art_visc_bound"]["passed"]
        assert "stabilization: beta must be nonnegative" in byname["heat.art_visc_bound"]["detail"]
        assert not report["passed"]

    def test_zero_sigma0_fails_a1(self):
        # The config file rejects sigma0 = 0, so it is set on a built config.
        config = tiny_config()
        config.materials.sigma0 = 0.0
        report = invariant_suite(config)
        byname = {c["name"]: c["passed"] for c in report["checks"]}
        assert not byname["materials.a1_bounds"]
        assert not report["passed"]

    def test_materials_checks_read_the_breakpoints(self, monkeypatch):
        # Moved breakpoints move the laws, and every check of the block with them.
        monkeypatch.setattr(materials, "BREAKPOINTS", (89.0, 90.0, 95.0))
        checks = list(verify._Suite(tiny_config()).materials_checks())
        assert [passed for passed, _ in checks] == [True, True, True], checks
        assert checks[0][1].startswith("sigma jump at 89C: ")

    @pytest.mark.parametrize("over, why", [
        ({"potential_bc": {"g": 0.0}}, "g = 0"),
        ({"potential_bc": {"roles": {"G5": "dirichlet"}}}, "no Neumann tag carries the flux g"),
    ])
    def test_potential_checks_state_why_no_flux_drives_it(self, over, why):
        # With G5 grounded, g is still 5 but no tag carries it.
        report = invariant_suite(tiny_config(**over))
        details = {c["name"]: c["detail"] for c in report["checks"] if c["passed"]}
        for name in ("potential.linearity_in_g", "potential.conductivity_scaling",
                     "potential.joule_nonnegative"):
            assert details[name] == why

    @pytest.mark.parametrize("blowup", [False, True])
    def test_determinism_compares_the_runs(self, blowup):
        # g = 500 trips the blow-up guard at step 2: both runs are compared
        # up to the trip.
        config = tiny_config(potential_bc={"g": 500.0}) if blowup else tiny_config()
        report = invariant_suite(config)
        check = report["checks"][INVARIANT_NAMES.index("coupler.determinism")]
        assert check["passed"]
        assert check["detail"] == ("blow-up guard tripped at steps 2, 2" if blowup else "")

    @pytest.mark.parametrize("blowup", [False, True])
    def test_determinism_fails_when_the_second_run_differs(self, monkeypatch, blowup):
        # The second run of the determinism check reads one probe an ulp off.
        run = coupler.Simulation.run
        runs = []

        def second_run_off(rows):
            if len(runs) == 2:
                rows[-1].max_theta = np.nextafter(rows[-1].max_theta, np.inf)

        def perturbed(sim, on_step=None):
            if on_step is not None or sim.config.time.M != 3:  # the audit, the equilibrium
                return run(sim, on_step)
            runs.append(sim)
            try:
                state, rows = run(sim)
            except coupler.BlowUpError as exc:
                second_run_off(exc.rows)
                raise
            second_run_off(rows)
            return state, rows

        monkeypatch.setattr(coupler.Simulation, "run", perturbed)
        config = tiny_config(potential_bc={"g": 500.0}) if blowup else tiny_config()
        report = invariant_suite(config)
        assert len(runs) == 2
        byname = {c["name"]: c["passed"] for c in report["checks"]}
        assert not byname["coupler.determinism"]
        assert not report["passed"]

    def test_report_formatting(self):
        report = invariant_suite(tiny_config())
        text = format_report(report)
        assert "overall: PASS" in text
        assert text.count("[PASS]") + text.count("[FAIL]") == len(INVARIANT_NAMES)
        lines = format_report_csv(report).splitlines()
        assert lines[0] == "name,passed,detail"
        assert len([ln for ln in lines[1:] if ln]) == len(INVARIANT_NAMES)


class TestMmsMesh:
    def test_perturbed_mesh_valid(self):
        msh = verify._mms_mesh(16, 8)
        assert msh.areas.min() > 0.0
        assert msh.areas.sum() == pytest.approx(2.0, rel=1e-12)

    def test_boundary_vertices_unmoved(self):
        msh = verify._mms_mesh(16, 8)
        ref = generate_channel_mesh(GeometrySpec(nx=16, ny=8, **verify.MMS_GEOMETRY))
        b = np.unique(msh.boundary_edges.ravel())
        assert np.array_equal(msh.vertices[b], ref.vertices[b])

    def test_deterministic(self):
        a = verify._mms_mesh(16, 8)
        b = verify._mms_mesh(16, 8)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
