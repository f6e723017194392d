"""The bytes that a mesh's per-mesh constants hold, key by key.

    PYTHONPATH=src python3 tools/held_bytes.py [--preset test1] [--mesh 48x16] [--steps 3]

Builds the preset's simulation on the channel mesh NXxNY, advances it
``--steps`` steps from rest (zero velocity, pressure and potential, the
temperature at theta_b), and then prints, for the geometry's own arrays
(``det``, ``grad_p1``, ``inv``) and for each key of its operator cache
(:func:`ablatesim.fem_core.cached`), the bytes of the arrays it holds, and
the total of the whole geometry.  An array is counted at the array that
owns its memory, once: a key that shares an array with another (a pattern
that views another's) counts it on its own line, but the total counts it
once, so the lines may sum to more than the total.
"""

from __future__ import annotations

import argparse

import numpy as np


def held_arrays(obj, found, seen):
    """Every numpy array reachable from ``obj`` through attributes, dicts,
    lists, tuples and sparse matrices, each object visited once."""
    if id(obj) in seen or isinstance(obj, (type, str, bytes, int, float)) or callable(obj):
        return found
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        found.append(obj)
    elif isinstance(obj, dict):
        for value in obj.values():
            held_arrays(value, found, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            held_arrays(value, found, seen)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            held_arrays(value, found, seen)
    return found


def held_bytes(arrays) -> int:
    """The bytes of the memory the arrays hold: each owning array once."""
    owners = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owners[id(arr)] = arr.nbytes
    return sum(owners.values())


def run(preset: str, nx: int, ny: int, steps: int):
    """The mesh of the preset's simulation at ``nx`` x ``ny`` after ``steps``
    steps from rest."""
    from ablatesim.coupler import SimState, Simulation
    from ablatesim.sim_cli import preset as make_preset

    cfg = make_preset(preset)
    cfg.geometry.nx, cfg.geometry.ny = nx, ny
    sim = Simulation(cfg)
    nv = sim.mesh.num_vertices
    state = SimState(t=0.0, n=0, v=np.zeros(sim.dofmap.n_velocity), P=np.zeros(nv),
                     theta=np.full(nv, sim.model.theta_b), phi=np.zeros(nv), theta_prev=None)
    for _ in range(steps):
        state = sim.advance(state)
    return sim.mesh


def table(mesh) -> dict:
    """{name: bytes} of the geometry's own arrays ("geometry") and of each
    operator-cache key (its repr), and "total", the whole geometry's."""
    from ablatesim import fem_core

    geo = fem_core.geometry(mesh)
    rows = {"geometry": held_bytes([geo.det, geo.grad_p1, geo.inv])}
    for key, value in geo.operators.items():
        rows[repr(key)] = held_bytes(held_arrays(value, [], set()))
    rows["total"] = held_bytes(held_arrays(geo, [], set()))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="test1")
    ap.add_argument("--mesh", default="48x16", help="NXxNY of the channel mesh")
    ap.add_argument("--steps", type=int, default=3)
    args = ap.parse_args(argv)
    nx, ny = (int(n) for n in args.mesh.lower().split("x"))
    rows = table(run(args.preset, nx, ny, args.steps))
    width = max(len(name) for name in rows)
    for name, nbytes in sorted(rows.items(), key=lambda row: (row[0] == "total", -row[1])):
        print(f"{name:<{width}}  {nbytes:>12,d}  {nbytes / 2**20:9.2f} MiB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
