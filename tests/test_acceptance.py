"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The full suite takes about half a minute (it
contains two complete preset runs and four mesh-refinement studies).
"""

import json
import math

import numpy as np
import pytest

from ablatesim import flow_solver, verify
from ablatesim.coupler import BlowUpError, Simulation
from ablatesim.materials import MaterialModel
from ablatesim.sim_cli import config_from_dict, main, preset


def report(cid: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def test1_audit():
    """One fully audited Test-1 run (48x16, T=1, M=100), shared by 6/7/8."""
    return verify._step_audit(preset("test1"))


def test_criterion_1_material_law_fidelity():
    model = MaterialModel()
    s38, s40 = model.sigma(38.0), model.sigma(40.0)
    ok = 0.6089 <= s38 <= 0.6091 and 0.6275 <= s40 <= 0.6277
    report("C1 material-law", ok, f"sigma(38)={s38:.6f}, sigma(40)={s40:.6f}")


def test_criterion_2_potential_convergence():
    rep = verify.convergence_study(verify.potential_case())
    slope = rep.slopes_ls["L2"]
    report("C2 potential-rate", 1.8 <= slope <= 2.2,
           f"L2 slope {slope:.3f} over h={['%.3f' % h for h in rep.h]}")


def test_criterion_3_flow_convergence():
    rep = verify.convergence_study(verify.oseen_case())
    s_h1 = rep.slopes_ls["velocity_H1"]
    s_p = rep.slopes_ls["pressure_L2"]
    div_ok = all(d <= flow_solver.DIVERGENCE_BOUND * (1.0 + v) for d, v in
                 zip(rep.extra["div_residual"], rep.extra["v_norm"]))
    ok = 0.9 <= s_h1 <= 1.3 and 0.8 <= s_p <= 1.3 and div_ok
    report("C3 flow-rate", ok,
           f"velocity H1 slope {s_h1:.3f}, pressure L2 slope {s_p:.3f}, "
           f"divergence contract {'met' if div_ok else 'violated'} at every level")


def test_criterion_4_heat_convergence():
    spatial = verify.convergence_study(verify.heat_unsteady_spatial_case())
    s_space = spatial.slopes_ls["L2"]
    temporal = verify.temporal_convergence_study(verify.heat_unsteady_temporal_case())
    s_time = temporal.slopes_ls["L2"]
    ok = 1.7 <= s_space <= 2.3 and 0.8 <= s_time <= 1.2
    report("C4 heat-rate", ok,
           f"spatial L2 slope {s_space:.3f} (fixed small dt), "
           f"temporal slope {s_time:.3f} (fixed fine mesh)")


def test_criterion_5_equilibrium_fixed_point():
    cfg = preset("test1")
    cfg.time.M = 20
    cfg.potential_bc.g = 0.0
    for name in cfg.flow_bc:
        if cfg.flow_bc[name].role == "inflow":
            cfg.flow_bc[name].profile = "zero"
    for name in cfg.heat_bc:
        cfg.heat_bc[name].value = 37.0  # theta_l = theta_0 = 37 everywhere

    sim = Simulation(cfg)
    state = sim.initialize()
    ref = {k: getattr(state, k).copy() for k in ("v", "P", "theta", "phi")}
    worst = 0.0
    for _ in range(cfg.time.M):
        state = sim.advance(state)
        for k, r in ref.items():
            worst = max(worst, float(np.abs(getattr(state, k) - r).max()))
    report("C5 equilibrium", worst <= 1e-10,
           f"max field deviation over 20 steps = {worst:.2e}")


def test_criterion_6_test1_qualitative(test1_audit):
    audit = test1_audit
    M = len(audit["max_theta_series"]) - 1
    assert M == 100 and not audit["blowup"]
    ax, ay = audit["argmax_series"][M // 4]
    dist = math.hypot(ax - 0.75, ay - 0.5)
    a_ok = dist <= 0.2
    b_ok = all(m > 37.0 for m in audit["max_theta_series"][1:])
    c_m4 = audit["centroid_series"][M // 4]
    c_m = audit["centroid_series"][M]
    c_ok = np.isfinite(c_m4) and np.isfinite(c_m) and c_m > c_m4
    report("C6 test1-qualitative", a_ok and b_ok and c_ok,
           f"argmax at t=T/4 is {dist:.3f} from the electrode center; "
           f"min over steps of max theta = {min(audit['max_theta_series'][1:]):.4f}; "
           f"plume centroid {c_m4:.4f} -> {c_m:.4f}")


def test_test1_heating_monotone_in_first_quarter(test1_audit):
    # diagnostic-series scan: max theta climbs monotonically while the plume
    # develops over the first quarter of the run
    series = test1_audit["max_theta_series"]
    quarter = series[1:len(series) // 4 + 1]
    assert all(b >= a - 1e-12 for a, b in zip(quarter, quarter[1:]))
    assert quarter[-1] > quarter[0]


def test_criterion_7_stabilization_bounds(test1_audit):
    audit = test1_audit
    ok = (audit["eta_bound_violation"] <= 1e-15
          and audit["eta_zero_velocity_max"] == 0.0)
    report("C7 stabilization-bounds", ok,
           f"max bound violation {audit['eta_bound_violation']:.2e}, "
           f"viscosity on still cells {audit['eta_zero_velocity_max']:.2e}")


def test_criterion_8_source_nonnegativity(test1_audit):
    audit = test1_audit
    ok = audit["source_min"] >= -1e-14
    report("C8 source-nonneg", ok,
           f"min of Joule + dissipation over all steps/points = {audit['source_min']:.2e}")


def test_criterion_9_blowup_guard(tmp_path):
    cfgfile = tmp_path / "hot.json"
    cfgfile.write_text(json.dumps({"preset": "test1", "potential_bc": {"g": 500.0}}))
    rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    # direct API check too: the guard fires within M steps
    cfg = config_from_dict({"preset": "test1", "potential_bc": {"g": 500.0}})
    try:
        Simulation(cfg).run()
        fired_at = None
    except BlowUpError as exc:
        fired_at = exc.state.n
    ok = rc == 4 and fired_at is not None and fired_at <= cfg.time.M
    report("C9 blowup-guard", ok,
           f"CLI exit code {rc}, guard fired at step {fired_at}")


def test_criterion_10_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = main(["run", "--preset", "test1", "--out", str(out_a)])
    rc_b = main(["run", "--preset", "test1", "--out", str(out_b)])
    csv_a = (out_a / "probes.csv").read_bytes()
    csv_b = (out_b / "probes.csv").read_bytes()
    ok = rc_a == 0 and rc_b == 0 and csv_a == csv_b
    report("C10 determinism", ok,
           f"two preset runs produced {'bit-identical' if csv_a == csv_b else 'DIFFERENT'} "
           f"probe CSVs ({len(csv_a)} bytes)")


def test_criterion_11_splitting_order():
    # test2 physics (buoyancy couples the flow to theta) on a 16x8 mesh to
    # T = 0.2; every field at T is compared with a 320-step run.  The window
    # was fixed from the rates observed before the criterion first ran
    # (theta 1.030/1.091, v 1.032/1.092, phi 1.108/1.128).
    cfg = preset("test2")
    cfg.geometry.nx, cfg.geometry.ny = 16, 8
    cfg.time.T = 0.2
    rep = verify.splitting_order_study(cfg, Ms=(10, 20, 40), M_ref=320)
    rates = rep.extra["rates"]
    ok = all(0.95 <= r <= 1.2 for pair_rates in rates.values() for r in pair_rates)
    report("C11 splitting-order", ok,
           "rates over M = 10, 20, 40 against M = 320: " + ", ".join(
               f"{name} {'/'.join(f'{r:.3f}' for r in pair_rates)}"
               for name, pair_rates in rates.items()))
