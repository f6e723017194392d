import numpy as np
import pytest

from ablatesim import coupler, fem_core, linalg, verify
from ablatesim.mesh import GeometrySpec, generate_channel_mesh
from ablatesim.sim_cli import config_from_dict
from ablatesim.verify import (CASE_KINDS, INVARIANT_NAMES, ManufacturedCase, RateReport,
                              convergence_study,
                              finite_difference_source_check, format_report,
                              heat_steady_case, heat_unsteady_spatial_case,
                              heat_unsteady_temporal_case, invariant_suite,
                              oseen_case, potential_case, write_report_csv)


def tiny_config(**over):
    base = {"geometry": {"nx": 10, "ny": 6}, "time": {"M": 3}}
    base.update(over)
    return config_from_dict({"preset": "test1", **base})


ALL_CASES = [potential_case, heat_steady_case, heat_unsteady_spatial_case,
             heat_unsteady_temporal_case, oseen_case]


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

    def test_negative_beta_fails_bound_check(self):
        report = invariant_suite(tiny_config(stabilization={"beta": -0.1}))
        byname = {c["name"]: c["passed"] for c in report["checks"]}
        assert not byname["heat.art_visc_bound"]
        assert not report["passed"]

    def test_zero_sigma0_fails_a1(self):
        # The config file rejects sigma0 = 0, so it is set on a built config.
        config = tiny_config()
        config.materials.sigma0 = 0.0
        report = invariant_suite(config)
        byname = {c["name"]: c["passed"] for c in report["checks"]}
        assert not byname["materials.a1_bounds"]
        assert not report["passed"]

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

    def test_report_formatting(self, tmp_path):
        report = invariant_suite(tiny_config())
        text = format_report(report)
        assert "overall: PASS" in text
        assert text.count("[PASS]") + text.count("[FAIL]") == len(INVARIANT_NAMES)
        csv_path = tmp_path / "inv.csv"
        write_report_csv(report, csv_path)
        lines = csv_path.read_text().splitlines()
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
