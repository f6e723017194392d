import math

import numpy as np
import pytest

from ablatesim import fem_core, flow_solver
from ablatesim.materials import (ADMISSIBLE_RANGE, BREAKPOINTS, DEFAULT_BUOYANCY_COEFF,
                                 BuoyancySettings, MaterialModel, TemperatureSample,
                                 branch_limits, validate_bounds)
from ablatesim.mesh import GeometrySpec, generate_channel_mesh


@pytest.fixture()
def model():
    return MaterialModel()


class TestSigma:
    def test_body_temperature_value(self, model):
        assert model.sigma(37.0) == pytest.approx(0.6, abs=1e-15)

    def test_conductivity_reference_range(self, model):
        # the reported variation between 0.610 and 0.627 over 38..40 C
        assert model.sigma(38.0) == pytest.approx(0.6 * math.exp(0.015), rel=1e-14)
        assert 0.6089 <= model.sigma(38.0) <= 0.6091
        assert 0.6275 <= model.sigma(40.0) <= 0.6277

    def test_plateau_99_100(self, model):
        assert model.sigma(99.5) == pytest.approx(2.5345 * 0.6, rel=1e-15)
        assert model.sigma(99.5) == pytest.approx(1.5207, abs=1e-12)

    def test_descending_branch(self, model):
        assert model.sigma(102.0) == pytest.approx(
            2.5345 * 0.6 * (1.0 - 0.198 * 2.0), rel=1e-14)

    def test_above_105(self, model):
        assert model.sigma(110.0) == pytest.approx(0.025345 * 0.6, rel=1e-15)
        assert model.sigma(110.0) == pytest.approx(0.0152070, abs=1e-10)

    def test_vectorized_matches_scalar(self, model):
        grid = np.array([0.0, 37.0, 99.0, 99.5, 101.0, 107.0])
        vec = model.sigma(grid)
        assert np.array_equal(vec, [model.sigma(t) for t in grid])

    def test_pure_and_deterministic(self, model):
        grid = np.linspace(-10, 150, 301)
        assert np.array_equal(model.sigma(grid), model.sigma(grid))

    def test_monotonicity_pattern(self, model):
        # increasing up to 99, constant to 100, decreasing to 105, constant after
        d = 1e-3
        lo = np.arange(-20.0, 99.0 - d, 0.5)
        assert np.all(np.asarray(model.sigma(lo + d)) > np.asarray(model.sigma(lo)))
        mid = np.arange(99.0 + d, 100.0 - d, 0.05)
        assert np.allclose(model.sigma(mid + 1e-4), model.sigma(mid))
        dec = np.arange(100.0 + d, 105.0 - d, 0.05)
        assert np.all(np.asarray(model.sigma(dec + 1e-4)) < np.asarray(model.sigma(dec)))
        hi = np.arange(105.0 + d, 200.0, 1.0)
        assert np.allclose(model.sigma(hi + 1.0), model.sigma(hi))


    def test_exponential_branch_alone_equals_the_nested_law(self, model):
        # Temperatures all at or below 99 C take the exponential branch
        # alone; any other, NaN included, the nested np.where.  Both equal
        # the nested law bit for bit, on a grid through ADMISSIBLE_RANGE with
        # each breakpoint and one ulp either side.
        law = reference_laws(model)["sigma"]
        bps = np.array(BREAKPOINTS)
        grid = np.concatenate([np.linspace(*ADMISSIBLE_RANGE, 3501), bps,
                               np.nextafter(bps, -np.inf), np.nextafter(bps, np.inf)])
        cases = [grid, grid[grid <= 99.0], grid[grid <= 99.0].reshape(-1, 1),
                 np.array([np.nan, 37.0]), np.array([37.0, np.inf]),
                 np.array([-np.inf, 37.0]), np.array([np.nan])]
        for th in cases:
            got = model.sigma(th)
            assert got.shape == th.shape
            assert got.tobytes() == np.asarray(law(th), dtype=float).tobytes(), th
        for th in (37.0, 99.0, float(np.nextafter(99.0, np.inf)), 104.0, 250.0, -np.inf,
                   np.inf, np.nan, 37):
            got = model.sigma(th)
            assert type(got) is float, th
            assert np.array(got).tobytes() == np.asarray(law(np.float64(th))).tobytes(), th


class TestEta:
    def test_body_temperature_value(self, model):
        assert model.eta(37.0) == pytest.approx(0.54, abs=1e-15)

    def test_ramp_value(self, model):
        assert model.eta(100.0) == pytest.approx(0.54 + 0.0012 * 63.0, rel=1e-14)
        assert model.eta(100.0) == pytest.approx(0.6156, abs=1e-12)

    def test_plateau(self, model):
        assert model.eta(150.0) == model.eta(100.0)


class TestNu:
    def test_constant_default(self, model):
        assert model.nu(37.0) == 0.0021
        assert model.nu(90.0) == 0.0021

    def test_custom_law(self):
        m = MaterialModel(nu_law=lambda th: 0.001 + 1e-5 * th)
        assert m.nu(100.0) == pytest.approx(0.002, rel=1e-14)


    def test_sample_of_the_constant_law_reads_no_temperature(self, monkeypatch):
        # The default law is a constant: its sample is the law's own number,
        # and theta is not evaluated at the quadrature points for it.  A
        # custom law reads theta there.
        mesh = generate_channel_mesh(GeometrySpec(nx=8, ny=4))
        theta = np.full(mesh.num_vertices, 37.0)
        at_qp = []
        p1_at_qp = fem_core.p1_at_qp
        monkeypatch.setattr(fem_core, "p1_at_qp", lambda *a: at_qp.append(a) or p1_at_qp(*a))
        nu = TemperatureSample(MaterialModel(), mesh, theta).nu
        assert not at_qp and type(nu) is float and nu == 0.0021
        custom = TemperatureSample(MaterialModel(nu_law=lambda th: 0.002 + 1e-5 * th), mesh, theta)
        assert np.allclose(custom.nu, 0.00237, rtol=1e-14) and len(at_qp) == 1


class TestBodyForce:
    def test_zero_at_body_temperature(self):
        m = MaterialModel(buoyancy=BuoyancySettings(enabled=True))
        assert m.body_force(37.0) == (0.0, 0.0)

    def test_value_at_47(self):
        m = MaterialModel(buoyancy=BuoyancySettings(enabled=True))
        expected = -1e-3 * 9.81 / 303.0 * 10.0  # direct arithmetic oracle
        fx, fy = m.body_force(47.0)
        assert fx == 0.0
        assert fy == pytest.approx(expected, rel=1e-14)
        assert fy == pytest.approx(-3.2376e-4, abs=1e-8)

    def test_disabled(self):
        m = MaterialModel()
        assert m.body_force(100.0) == (0.0, 0.0)

    def test_affine_identity(self):
        m = MaterialModel(buoyancy=BuoyancySettings(enabled=True))
        rng = np.random.default_rng(2)
        for _ in range(20):
            t1, t2 = rng.uniform(0, 120, 2)
            f1 = np.array(m.body_force(t1))
            f2 = np.array(m.body_force(t2))
            fb = np.array(m.body_force(m.theta_b))
            fs = np.array(m.body_force(t1 + t2 - m.theta_b))
            assert np.allclose(f1 + f2, fb + fs, atol=1e-15)

    def test_default_coefficient(self):
        assert DEFAULT_BUOYANCY_COEFF == pytest.approx(1e-3 * 9.81 / 303.0, rel=1e-15)


class TestValidateBounds:
    def test_default_model_passes(self, model):
        rep = validate_bounds(model)
        assert rep["passed"], rep["violations"]
        lo, hi = rep["ranges"]["sigma"]
        # sampling oracle over ADMISSIBLE_RANGE: plateau below, 99C peak above
        assert lo == pytest.approx(0.025345 * 0.6, rel=1e-12)
        assert hi == pytest.approx(0.6 * math.exp(0.015 * 62.0), rel=1e-6)
        # The grid reaches -50 C, where the thermal conductivity is least.
        assert rep["ranges"]["eta"][0] == pytest.approx(0.54 + 0.0012 * (-50.0 - 37.0),
                                                        rel=1e-12)

    def test_sigma_jump_at_99_flagged(self, model):
        rep = validate_bounds(model)
        jump = rep["continuity"][("sigma", 99.0)]  # the one home of every branch jump
        assert jump > 1e-12  # the law is genuinely discontinuous there
        assert jump == pytest.approx(0.6 * abs(math.exp(0.93) - 2.5345), rel=1e-9)
        assert rep["passed"]  # flagged, not a bound violation

    def test_report_keys(self, model):
        # No key is named after one breakpoint's value: each jump is read
        # from the continuity entry of its law and breakpoint.
        rep = validate_bounds(model)
        assert set(rep) == {"violations", "ranges", "continuity", "passed"}
        assert set(rep["continuity"]) == {(name, bp) for name in ("sigma", "eta")
                                          for bp in BREAKPOINTS}

    def test_continuity_at_other_breakpoints(self, model):
        lims = branch_limits(model)
        assert abs(lims["sigma"][100.0][0] - lims["sigma"][100.0][1]) <= 1e-12
        assert abs(lims["sigma"][105.0][0] - lims["sigma"][105.0][1]) <= 1e-12
        for bp in (99.0, 100.0, 105.0):
            assert abs(lims["eta"][bp][0] - lims["eta"][bp][1]) <= 1e-12

    def test_zero_sigma0_flags_positivity(self):
        rep = validate_bounds(MaterialModel(sigma0=0.0))
        assert not rep["passed"]
        assert any("positive" in v for v in rep["violations"])

    def test_constant_laws_pass(self):
        m = MaterialModel(sigma_law=lambda th: np.full_like(th, 0.5),
                          eta_law=lambda th: np.full_like(th, 0.7))
        rep = validate_bounds(m)
        assert rep["passed"], rep["violations"]

    def test_declared_bounds_cover_range(self, model):
        grid = np.linspace(-50.0, 300.0, 7001)
        (s_lo, s_hi), (e_lo, e_hi) = model.bounds["sigma"], model.bounds["eta"]
        assert np.min(model.sigma(grid)) >= s_lo - 1e-15
        assert np.max(model.sigma(grid)) <= s_hi + 1e-15
        assert np.min(model.eta(grid)) >= e_lo - 1e-15
        assert np.max(model.eta(grid)) <= e_hi + 1e-15


# (sigma0, eta0, theta_b, nu_const) of models whose bounds and laws are
# pinned below; theta_b = 100, -20 and 120 move the extremes between branches.
BOUND_MODELS = {
    "default": {},
    "tissue": {"sigma0": 0.9, "eta0": 0.3, "theta_b": 36.5, "nu_const": 0.004},
    "theta_b=100": {"theta_b": 100.0},
    "theta_b=-20": {"theta_b": -20.0},
    "theta_b=120": {"theta_b": 120.0},
}


def hand_bounds(m):
    """The (A1) bounds as closed formulas of the default laws' constants."""
    return {
        "sigma": (0.025345 * m.sigma0,
                  m.sigma0 * max(2.5345, float(np.exp(0.015 * (99.0 - m.theta_b))))),
        "eta": (m.eta0 + 0.0012 * (-50.0 - m.theta_b), m.eta0 + 0.0012 * (100.0 - m.theta_b)),
        "nu": (m.nu_const, m.nu_const),
    }


def reference_laws(m):
    """The default laws, written out in full as the reference."""
    def sigma(th):
        s0 = m.sigma0
        return np.where(th <= 99.0, s0 * np.exp(0.015 * (th - m.theta_b)),
                        np.where(th <= 100.0, 2.5345 * s0,
                                 np.where(th <= 105.0, 2.5345 * s0 * (1.0 - 0.198 * (th - 100.0)),
                                          0.025345 * s0)))

    def eta(th):
        return m.eta0 + 0.0012 * (np.minimum(th, 100.0) - m.theta_b)

    def nu(th):
        return np.full(np.shape(th), float(m.nu_const))
    return {"sigma": sigma, "eta": eta, "nu": nu}


class TestBounds:
    @pytest.mark.parametrize("name", BOUND_MODELS)
    def test_bounds_equal_the_hand_formulas(self, name):
        m = MaterialModel(**BOUND_MODELS[name])
        assert m.bounds == hand_bounds(m)
        for law, (lo, hi) in m.bounds.items():
            assert type(lo) is float and type(hi) is float, law

    def test_default_laws_stay_within_and_reach_their_bounds(self, model):
        grid = np.concatenate([np.linspace(*ADMISSIBLE_RANGE, 35001), BREAKPOINTS])
        for law, (lo, hi) in model.bounds.items():
            vals = np.asarray(getattr(model, law)(grid))
            assert vals.min() == lo and vals.max() == hi, law

    def test_bounds_follow_an_override_set_after_construction(self, model):
        model.nu_law = lambda th: 0.001 + 1e-5 * np.asarray(th)
        assert model.bounds["nu"] == (0.001 + 1e-5 * -50.0, 0.001 + 1e-5 * 300.0)

    def test_bounds_reach_a_limit_just_above_a_breakpoint(self):
        # Greatest just above 100 C, where the law jumps and then falls.
        def law(th):
            return np.where(th <= 100.0, 1.0, 2.0 - 0.001 * (th - 100.0))

        m = MaterialModel(sigma_law=law)
        assert m.bounds["sigma"] == (1.0, float(law(np.nextafter(100.0, np.inf))))
        assert validate_bounds(m)["passed"]

    def test_law_not_monotone_between_breakpoints_is_flagged(self):
        # Period 0.7, well under the breakpoints' spacing: the sampled range
        # leaves the bounds read at the breakpoints.
        m = MaterialModel(sigma_law=lambda th: 1.0 + 0.5 * np.sin(2.0 * np.pi * th / 0.7))
        rep = validate_bounds(m)
        assert not rep["passed"]
        assert any(v.startswith("sigma leaves declared bounds") for v in rep["violations"])

    def test_law_leaving_its_bounds_above_200_is_flagged(self):
        # The bounds span ADMISSIBLE_RANGE, and so does the sampled check.
        m = MaterialModel(sigma_law=lambda th: np.where(
            th > 200, 1 + 0.5 * np.sin(2 * np.pi * th / 0.7), 1.0))
        rep = validate_bounds(m)
        assert not rep["passed"]
        assert rep["violations"] == ["sigma leaves declared bounds [0.783058, 1]: "
                                     "sampled range [0.500503, 1.4995]"]

    @pytest.mark.parametrize("name", BOUND_MODELS)
    def test_laws_equal_the_reference_bit_for_bit(self, name):
        m = MaterialModel(**BOUND_MODELS[name])
        near = [np.nextafter(t, d) for t in (*BREAKPOINTS, *ADMISSIBLE_RANGE)
                for d in (-np.inf, np.inf)]
        points = [*BREAKPOINTS, *ADMISSIBLE_RANGE, *near, np.nan, np.inf, -np.inf, 37.0, 0.0]
        grid = np.concatenate([np.linspace(-60.0, 320.0, 3801), points])[:, None]
        for law, ref in reference_laws(m).items():
            got = getattr(m, law)(grid)
            assert got.shape == grid.shape and got.tobytes() == ref(grid).tobytes(), law
            for t in [*map(float, points), 37, 150]:
                value = getattr(m, law)(t)
                assert type(value) is float, (law, t)
                assert np.float64(value).tobytes() == ref(np.float64(t)).tobytes(), (law, t)


class TestFieldSample:
    """The temperature's and the velocity's samples."""

    def test_each_value_evaluated_once_on_first_read(self, monkeypatch):
        from collections import Counter

        mesh = generate_channel_mesh(GeometrySpec(nx=8, ny=4))
        model = MaterialModel(nu_law=lambda th: 0.002 + 1e-5 * th)
        rng = np.random.default_rng(2)
        theta = 37.0 + 70.0 * rng.uniform(size=mesh.num_vertices)
        v = rng.standard_normal(fem_core.dofmap_for(mesh).n_velocity)
        ref = {"theta": fem_core.p1_at_qp(mesh, theta)}
        for law in ("sigma", "eta", "nu"):
            ref[law] = getattr(model, law)(ref["theta"])
        ref_v = {"speed": flow_solver._cell_speed_max(fem_core.velocity_element_coeffs(mesh, v)),
                 "strain": flow_solver.viscous_dissipation(mesh, v)}

        counts = Counter()
        for owner, name in ((fem_core, "p1_at_qp"), (flow_solver, "_cell_speed_max"),
                            (flow_solver, "viscous_dissipation"), (MaterialModel, "sigma"),
                            (MaterialModel, "eta"), (MaterialModel, "nu")):
            def counted(*args, _name=name, _original=getattr(owner, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        samples = ((TemperatureSample(model, mesh, theta), ref),
                   (flow_solver.VelocitySample(mesh, v), ref_v))
        assert not counts  # nothing is evaluated before it is read
        for _ in range(2):
            for sample, values in samples:
                for name, value in values.items():
                    assert np.array_equal(getattr(sample, name), value), name
        assert counts == {"p1_at_qp": 1, "_cell_speed_max": 1, "viscous_dissipation": 1,
                          "sigma": 1, "eta": 1, "nu": 1}
