"""One workload run in its own process; run.py starts it.

    python3 benchmark/workload.py --workload fine_cold --role main --steps 5 \
        --out .bench_out/test1/run0 [--trace]

``--role setup`` times only the workload's set-up; ``--role main`` runs the
whole workload and checks its outputs.  A main mms run records no set-up
time: its studies build their meshes inside each level solve.  The last
line of standard output is a JSON object with the timings, the output
fingerprint, the failed checks and, with ``--trace``, the per-layer
metrics and exact counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

from tracer import VERIFY_CASES, Tracer, install, summarize

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
DIV_LIMIT = 1e-8

# Fallback warnings of the seed sources, by message prefix.
EVENTS = {
    "flow_solver.events.picard_cap": "stationary flow Picard hit the iteration cap",
    "flow_solver.events.zero_flow_fallback": "stationary Stokes solve failed",
    "heat_solver.events.gmres_lu_fallback": "heat GMRES did not converge",
}

FINE_MESH = (192, 64)

# Slope windows of acceptance criteria C2-C4 (tests/test_acceptance.py).
MMS_STUDIES = (
    ("potential", "potential_case", {"L2": (1.8, 2.2)}),
    ("oseen", "oseen_case", {"velocity_H1": (0.9, 1.3), "pressure_L2": (0.8, 1.3)}),
    ("heat_steady", "heat_steady_case", {"L2": (1.7, 2.3)}),
    ("heat_unsteady", "heat_unsteady_spatial_case", {"L2": (1.7, 2.3)}),
)


class EventCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = dict.fromkeys(EVENTS, 0)

    def emit(self, record):
        msg = record.getMessage()
        for name, prefix in EVENTS.items():
            if msg.startswith(prefix):
                self.counts[name] += 1


class Run:
    """Timings, checks and output fingerprint of one workload run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup_s = None
        self.step_s: list[float] = []
        self.run_s = None
        self.failures: list[str] = []
        self.fingerprint = None

    def region(self, name):
        return self.tracer.region(name) if self.tracer else nullcontext()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def check_rows(self, rows, reference: dict) -> None:
        """Divergence contract and guard limit on every row, and the recorded
        (max_theta, int_theta) at each step named in ``reference``."""
        from ablatesim.coupler import BLOWUP_LIMIT

        tol = REFERENCE["abs_tol"]
        by_step = {}
        for row in rows:
            by_step[row.step] = row
            self.check(row.div_norm <= DIV_LIMIT,
                       f"step {row.step}: div_norm {row.div_norm:.3e} > {DIV_LIMIT}")
            self.check(abs(row.max_theta) <= BLOWUP_LIMIT, f"step {row.step}: guard limit")
        for step, (max_theta, int_theta) in reference.items():
            row = by_step.get(step)
            if row is None:
                self.check(False, f"step {step} missing")
                continue
            self.check(abs(row.max_theta - max_theta) <= tol,
                       f"step {step}: max_theta {row.max_theta!r} != recorded {max_theta!r}")
            self.check(abs(row.int_theta - int_theta) <= tol,
                       f"step {step}: int_theta {row.int_theta!r} != recorded {int_theta!r}")


def _timed(fn, spans: list, results: list | None = None):
    """Wrap ``fn`` so each call appends its (start, end) clock reads to
    ``spans`` and, when ``results`` is given, its return value there."""

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.append((t0, time.perf_counter()))
        if results is not None:
            results.append(result)
        return result

    return timed


# -- test1: `ablatesim run --preset test1 --out DIR` ------------------------------------


def test1(run: Run, role: str, steps: int, out: Path) -> None:
    from ablatesim import coupler, sim_cli

    if role == "setup":
        t0 = time.perf_counter()
        coupler.Simulation(sim_cli.preset("test1")).initialize()
        run.setup_s = time.perf_counter() - t0
        return

    # sim_cli looks Simulation up from coupler, so wrappers on the class see
    # the CLI's calls: initialize ends the set-up, advance is one step, and
    # run returns the diagnostics rows.
    sim_cls = coupler.Simulation
    init_spans, step_spans, run_spans, finished = [], [], [], []
    sim_cls.initialize = _timed(sim_cls.initialize, init_spans)
    sim_cls.advance = _timed(sim_cls.advance, step_spans)
    sim_cls.run = _timed(sim_cls.run, run_spans, finished)

    t0 = time.perf_counter()
    with redirect_stdout(sys.stderr):  # the last stdout line is the result
        code = sim_cli.main(["run", "--preset", "test1", "--out", str(out)])
    run.run_s = time.perf_counter() - t0
    run.check(code == 0, f"ablatesim run exited with code {code}")
    if code != 0 or not finished:
        return

    run.setup_s = init_spans[0][1] - t0
    run.step_s = [end - start for start, end in step_spans]
    _, rows = finished[0]
    ref = REFERENCE["test1"]
    run.check(len(rows) - 1 == ref["steps"], f"{len(rows) - 1} steps, expected {ref['steps']}")
    run.check_rows(rows, {ref["steps"]: (ref["max_theta"], ref["int_theta"])})
    run.fingerprint = hashlib.sha256((out / "probes.csv").read_bytes()).hexdigest()


# -- fine_cold: test1 physics at 192x64 from rest, advanced step by step ---------------


def fine_cold(run: Run, role: str, steps: int, out: Path) -> None:
    from ablatesim import coupler, sim_cli

    cfg = sim_cli.preset("test1")
    cfg.geometry.nx, cfg.geometry.ny = FINE_MESH
    t0 = time.perf_counter()
    sim = coupler.Simulation(cfg)
    run.setup_s = time.perf_counter() - t0
    if role == "setup":
        return

    nv = sim.mesh.num_vertices
    state = coupler.SimState(
        t=0.0, n=0, v=np.zeros(sim.dofmap.n_velocity), P=np.zeros(sim.dofmap.n_pressure),
        theta=np.full(nv, sim.model.theta_b), phi=np.zeros(nv), theta_prev=None)
    rows = []
    for _ in range(steps):
        t_step = time.perf_counter()
        state = sim.advance(state)
        run.step_s.append(time.perf_counter() - t_step)
        rows.append(state.diag)
        vmax = float(np.max(np.abs(state.v)))
        tmax = float(np.max(np.abs(state.theta)))
        if tmax > coupler.BLOWUP_LIMIT or vmax > coupler.BLOWUP_LIMIT:
            run.check(False, f"blow-up guard tripped at step {state.n}")
            return
    run.run_s = time.perf_counter() - t0
    recorded = REFERENCE["fine_cold"]
    run.check(steps <= len(recorded), f"no recorded values beyond step {len(recorded)}")
    run.check_rows(rows, {k + 1: recorded[k] for k in range(min(steps, len(recorded)))})
    run.fingerprint = _digest([(r.max_theta, r.int_theta, r.div_norm) for r in rows])


# -- mms: the four spatial manufactured-solution studies ---------------------------------


def mms(run: Run, role: str, steps: int, out: Path) -> None:
    from ablatesim import fem_core, verify

    if role == "setup":
        # The per-mesh set-up that every level solve repeats: the jiggled
        # mesh, its dof map and its geometry.
        t0 = time.perf_counter()
        for nx, ny in verify.DEFAULT_LEVELS:
            m = verify._mms_mesh(nx, ny)
            fem_core.dofmap_for(m)
            fem_core.geometry(m)
        run.setup_s = time.perf_counter() - t0
        return

    level_spans = []
    for attr in VERIFY_CASES:
        setattr(verify, attr, _timed(getattr(verify, attr), level_spans))
    t1 = time.perf_counter()
    reports = []
    for name, factory, _ in MMS_STUDIES:
        with run.region(f"verify.{name}"):
            reports.append(verify.convergence_study(getattr(verify, factory)()))
    run.run_s = time.perf_counter() - t1
    # The level solves fall in clusters of very different sizes, so their
    # pooled median jumps between clusters; one sample per set is their mean.
    run.step_s = [sum(end - start for start, end in level_spans) / len(level_spans)]

    for (name, _, windows), rep in zip(MMS_STUDIES, reports):
        for norm, (lo, hi) in windows.items():
            slope = rep.slopes_ls[norm]
            run.check(lo <= slope <= hi, f"{name} {norm} slope {slope:.3f} outside [{lo}, {hi}]")
    oseen = reports[1].extra
    for d, v in zip(oseen["div_residual"], oseen["v_norm"]):
        run.check(d <= DIV_LIMIT * (1.0 + v), f"oseen divergence {d:.3e} violates the contract")
    run.fingerprint = _digest([sorted(rep.errors.items()) for rep in reports])


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


WORKLOADS = {"test1": test1, "fine_cold": fine_cold, "mms": mms}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--steps", type=int, default=0, help="fine_cold steps")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    events = EventCounter()
    logging.getLogger("ablatesim").addHandler(events)

    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}:{out.name}")
        install(tracer)

    run = Run(tracer)
    WORKLOADS[args.workload](run, args.role, args.steps, out)
    result = {
        "setup_s": run.setup_s, "step_s": run.step_s, "run_s": run.run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": run.failures, "fingerprint": run.fingerprint, "events": events.counts,
    }
    if tracer is not None:
        tracer.write(out / "spans.jsonl")
        layers, counts = summarize(tracer)
        layers.update(events.counts)
        counts.update({f"events.{k}": v for k, v in events.counts.items()})
        result.update(layers=layers, counts=counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
