"""Span tracer for the benchmark's traced runs.

The tracer is installed from outside the package: it replaces each traced
public function of an ``ablatesim`` module with a wrapper, in every module
that looks the name up (``coupler`` imports the solver entry points by name,
so they are wrapped there too), and wraps methods on their classes.  Nothing
under ``src/`` is edited.  Each call becomes one span
``[name, start, end, parent, ok]``; spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Spans that delimit one unit step: a split step for the stepping
# workloads, one manufactured-solution level solve for mms.
STEP_SPANS = ("coupler.advance", "verify.solve_case")

MODULES = ("mesh", "fem_core", "linalg", "materials", "potential_solver",
           "flow_solver", "heat_solver", "coupler", "sim_cli", "verify")

FIELD_EVAL = ("p1_at_qp", "p1_gradients", "velocity_at_qp", "velocity_grad_at_qp")
MATERIAL_LAWS = ("sigma", "eta", "nu", "body_force")
VERIFY_CASES = ("solve_potential_case", "solve_heat_steady_case",
                "solve_heat_unsteady_case", "solve_oseen_case")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, ok]
        self.values: dict[str, list] = defaultdict(list)  # name -> [(span index, value)]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = ok
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        returns a value recorded under ``name`` for that span."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            if after is not None:
                self.values[name].append((idx, after(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def region(self, name: str):
        idx = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)

    def record(self, name: str, value) -> None:
        """Attach a value to the innermost open span."""
        self.values[name].append((self._stack[-1] if self._stack else -1, value))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, ok in self.spans:
                f.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                    "end": end, "parent": parent, "ok": ok}) + "\n")


class _SuperLUProbe:
    """Stands in for ``scipy.sparse.linalg`` inside ``ablatesim.linalg`` and
    records the order and factor size of every ``splu`` factorization."""

    def __init__(self, spla, tracer: Tracer):
        self._spla = spla
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, A, *args, **kwargs):
        lu = self._spla.splu(A, *args, **kwargs)
        self._tracer.record("linalg.splu.n", int(A.shape[0]))
        self._tracer.record("linalg.splu.factor_nnz", int(lu.nnz))
        return lu


def install(tracer: Tracer) -> None:
    """Wrap the traced entry points of every module, where callers find them."""
    from ablatesim import (coupler, fem_core, flow_solver, heat_solver, linalg,
                           materials, mesh, potential_solver, sim_cli, verify)

    def wrap(owners, attr, name, after=None):
        original = getattr(owners[0], attr)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
            setattr(owner, attr, tracer.wrap(name, original, after))

    def iterations(args, _result):
        return args[0].iterations

    wrap([mesh.Mesh2D], "boundary_edge_owners", "mesh.boundary_edge_owners")
    wrap([mesh, coupler, verify, sim_cli], "generate_channel_mesh",
         "mesh.generate_channel_mesh")

    for attr in sorted(vars(fem_core)):
        if attr.startswith("assemble_"):
            wrap([fem_core], attr, f"fem_core.{attr}")
    for attr in FIELD_EVAL + ("edge_quadrature",):
        wrap([fem_core], attr, f"fem_core.{attr}")

    wrap([linalg.CooBuilder], "finalize", "linalg.coo_finalize")
    for attr in ("apply_dirichlet", "solve_lu", "solve_cg", "solve_gmres"):
        wrap([linalg], attr, f"linalg.{attr}")
    linalg.spla = _SuperLUProbe(linalg.spla, tracer)

    for attr in MATERIAL_LAWS:
        wrap([materials.MaterialModel], attr, f"materials.{attr}")

    wrap([potential_solver, coupler, verify], "solve_potential",
         "potential_solver.solve_potential", after=iterations)
    wrap([potential_solver, heat_solver, verify], "joule_density",
         "potential_solver.joule_density")

    wrap([flow_solver, coupler], "solve_flow_step", "flow_solver.solve_flow_step")
    wrap([flow_solver, coupler], "solve_flow_stationary",
         "flow_solver.solve_flow_stationary")
    wrap([flow_solver, heat_solver], "viscous_dissipation",
         "flow_solver.viscous_dissipation")

    wrap([heat_solver, coupler], "solve_heat_step", "heat_solver.solve_heat_step",
         after=iterations)
    wrap([heat_solver, coupler], "solve_heat_stationary",
         "heat_solver.solve_heat_stationary")
    for attr in ("entropy_residual", "artificial_viscosity"):
        wrap([heat_solver], attr, f"heat_solver.{attr}")

    wrap([coupler.Simulation], "__init__", "coupler.construct")
    wrap([coupler.Simulation], "initialize", "coupler.initialize")
    wrap([coupler.Simulation], "advance", "coupler.advance")

    for attr in ("write_probes", "write_vtk"):
        wrap([sim_cli], attr, f"sim_cli.{attr}")

    for attr in VERIFY_CASES:
        wrap([verify], attr, "verify.solve_case")


# -- reduction of the spans to per-layer metrics ------------------------------------


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def summarize(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics and exact counts from the recorded spans.

    ``*_per_step`` metrics count only spans inside a step span and divide by
    the number of steps; ``.s``/``.ms`` metrics are per call.  Self time is a
    span's duration minus that of its direct children.
    """
    spans = tracer.spans
    n = len(spans)
    dur = [end - start for _, start, end, _, _ in spans]
    self_t = list(dur)
    step_of = [-1] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]
            step_of[i] = step_of[parent]
        if name in STEP_SPANS:
            step_of[i] = i
    steps = [i for i in range(n) if step_of[i] == i]
    n_steps = max(1, len(steps))

    def in_step(pred):
        return [i for i in range(n) if step_of[i] >= 0 and pred(spans[i][0])]

    def calls_per_step(pred):
        return len(in_step(pred)) / n_steps

    def ms_per_step(pred, times=dur):
        return 1e3 * sum(times[i] for i in in_step(pred)) / n_steps

    def per_call(name, scale):
        return scale * _mean([dur[i] for i in range(n) if spans[i][0] == name])

    def is_(*names):
        return lambda s: s in names

    def values_in_steps(name):
        return [v for i, v in tracer.values.get(name, []) if i >= 0 and step_of[i] >= 0]

    assemble = lambda s: s.startswith("fem_core.assemble_")  # noqa: E731
    field_eval = is_(*(f"fem_core.{a}" for a in FIELD_EVAL))
    krylov = [i for i in range(n) if spans[i][0] in ("linalg.solve_cg", "linalg.solve_gmres")]
    stationary = [i for i in range(n) if spans[i][0] == "flow_solver.solve_flow_stationary"]
    stationary_solves = [i for i in range(n) if spans[i][0] in ("linalg.solve_lu", "linalg.solve_gmres")
                         and _has_ancestor(spans, i, set(stationary))]
    lu_n = [v for _, v in tracer.values.get("linalg.splu.n", [])]
    lu_nnz = [v for _, v in tracer.values.get("linalg.splu.factor_nnz", [])]

    m = {
        "mesh.boundary_edge_owners.calls_per_step": calls_per_step(is_("mesh.boundary_edge_owners")),
        "mesh.boundary_edge_owners.ms_per_step": ms_per_step(is_("mesh.boundary_edge_owners")),
        "mesh.generate_channel_mesh.ms": per_call("mesh.generate_channel_mesh", 1e3),
        "fem_core.assemble.calls_per_step": calls_per_step(assemble),
        "fem_core.assemble.ms_per_step": ms_per_step(assemble, self_t),
        "fem_core.assemble_mini_blocks.ms_per_step": ms_per_step(is_("fem_core.assemble_mini_blocks")),
        "fem_core.field_eval.calls_per_step": calls_per_step(field_eval),
        "fem_core.field_eval.ms_per_step": ms_per_step(field_eval),
        "fem_core.edge_quadrature.calls_per_step": calls_per_step(is_("fem_core.edge_quadrature")),
        "linalg.coo_finalize.calls_per_step": calls_per_step(is_("linalg.coo_finalize")),
        "linalg.coo_finalize.ms_per_step": ms_per_step(is_("linalg.coo_finalize")),
        "linalg.apply_dirichlet.ms_per_step": ms_per_step(is_("linalg.apply_dirichlet")),
        "linalg.solve_lu.calls_per_step": calls_per_step(is_("linalg.solve_lu")),
        "linalg.solve_lu.ms_per_step": ms_per_step(is_("linalg.solve_lu")),
        "linalg.solve_lu.n": max(lu_n, default=0),
        "linalg.splu.factor_nnz": max(lu_nnz, default=0),
        "linalg.solve_cg.ms_per_step": ms_per_step(is_("linalg.solve_cg")),
        "linalg.solve_gmres.ms_per_step": ms_per_step(is_("linalg.solve_gmres")),
        "linalg.krylov.success_ratio": (sum(spans[i][4] for i in krylov) / len(krylov)
                                        if krylov else 1.0),
        "materials.eval.calls_per_step": calls_per_step(is_(*(f"materials.{a}" for a in MATERIAL_LAWS))),
        "potential_solver.solve_potential.self_ms_per_step":
            ms_per_step(is_("potential_solver.solve_potential"), self_t),
        "potential_solver.cg_iters": _mean(values_in_steps("potential_solver.solve_potential")),
        "flow_solver.solve_flow_step.self_ms_per_step":
            ms_per_step(is_("flow_solver.solve_flow_step"), self_t),
        "flow_solver.solve_flow_stationary.s": per_call("flow_solver.solve_flow_stationary", 1.0),
        "flow_solver.stationary.linear_solves": (len(stationary_solves) / len(stationary)
                                                 if stationary else 0.0),
        "heat_solver.solve_heat_step.self_ms_per_step":
            ms_per_step(is_("heat_solver.solve_heat_step"), self_t),
        "heat_solver.gmres_iters": _mean(values_in_steps("heat_solver.solve_heat_step")),
        "heat_solver.stabilization.ms_per_step":
            ms_per_step(is_("heat_solver.entropy_residual", "heat_solver.artificial_viscosity")),
        "heat_solver.solve_heat_stationary.s": per_call("heat_solver.solve_heat_stationary", 1.0),
        "coupler.construct.s": per_call("coupler.construct", 1.0),
        "coupler.initialize.s": per_call("coupler.initialize", 1.0),
        "coupler.advance.self_ms_per_step": ms_per_step(is_("coupler.advance"), self_t),
        "sim_cli.write_probes.ms": per_call("sim_cli.write_probes", 1e3),
        "sim_cli.write_vtk.ms": per_call("sim_cli.write_vtk", 1e3),
        "verify.potential.s": per_call("verify.potential", 1.0),
        "verify.oseen.s": per_call("verify.oseen", 1.0),
        "verify.heat_steady.s": per_call("verify.heat_steady", 1.0),
        "verify.heat_unsteady.s": per_call("verify.heat_unsteady", 1.0),
    }
    # Layer self times inside the steps; they sum to the traced step time.
    step_ms = 1e3 * sum(dur[i] for i in steps) / n_steps
    for module in MODULES:
        m[f"{module}.self_ms_per_step"] = ms_per_step(
            lambda s, p=module + ".": s.startswith(p), self_t)
    step_self = 1e3 * sum(self_t[i] for i in steps) / n_steps
    m["trace.step.ms_per_step"] = step_ms
    m["trace.step.covered_frac"] = 1.0 - step_self / step_ms if step_ms > 0 else 0.0

    counts = defaultdict(int)
    for name, *_ in spans:
        counts[f"calls.{name}"] += 1
    counts["splu.n"] = lu_n
    counts["splu.factor_nnz"] = lu_nnz
    counts["stationary.linear_solves"] = len(stationary_solves)
    for name in ("potential_solver.solve_potential", "heat_solver.solve_heat_step"):
        counts[f"iters.{name}"] = sum(v for _, v in tracer.values.get(name, []))
    return m, dict(counts)


def _has_ancestor(spans, i, ancestors: set) -> bool:
    p = spans[i][3]
    while p >= 0:
        if p in ancestors:
            return True
        p = spans[p][3]
    return False
