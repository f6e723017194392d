"""The bytes that a mesh's per-mesh constants and each linear system hold.

    PYTHONPATH=src python3 tools/held_bytes.py [--preset test1] [--mesh 48x16 ...] [--steps 3]

Builds the preset's simulation on each channel mesh NXxNY given by
``--mesh`` (48x16 when none is), advances it ``--steps`` steps from rest
(zero velocity, pressure and potential, the temperature at theta_b), and
then prints one column of bytes per mesh: for the geometry's own arrays
(``det``, ``grad_p1``, ``inv``) and for each key of its operator cache
(:func:`ablatesim.fem_core.cached`), the bytes of the arrays it holds, and
the total of the whole geometry.  An array is counted at the array that
owns its memory, once: a key that shares an array with another (a pattern
that views another's) counts it on its own line, but the total counts it
once, so the lines may sum to more than the total.

Then one ``system:<name>`` line per entry of ``Simulation.systems`` (a
:class:`ablatesim.linalg.LinearSystem`) gives the bytes of the numpy arrays
that the system holds and the geometry does not: its elimination structure
and its held factor's scaling and last solution.
The memory that SuperLU allocates in C for a factor is not counted.
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


def owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory of ``arr``."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def held_bytes(arrays) -> int:
    """The bytes of the memory the arrays hold: each owning array once."""
    return sum({id(arr): arr.nbytes for arr in map(owner, arrays)}.values())


def run(preset: str, nx: int, ny: int, steps: int):
    """The preset's simulation at ``nx`` x ``ny`` after ``steps`` steps from
    rest."""
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
    return sim


def table(sim) -> dict:
    """{name: bytes} of the geometry's own arrays ("geometry"), of each
    operator-cache key (its repr), "total", the whole geometry's, and of
    each linear system ("system:<name>"), its arrays that the geometry does
    not hold."""
    from ablatesim import fem_core

    geo = fem_core.geometry(sim.mesh)
    rows = {"geometry": held_bytes([geo.det, geo.grad_p1, geo.inv])}
    for key, value in geo.operators.items():
        rows[repr(key)] = held_bytes(held_arrays(value, [], set()))
    cached = held_arrays(geo, [], set())
    rows["total"] = held_bytes(cached)
    shared = {id(owner(arr)) for arr in cached}
    for name, system in sim.systems.items():
        rows[f"system:{name}"] = held_bytes(
            [arr for arr in held_arrays(system, [], set()) if id(owner(arr)) not in shared])
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="test1")
    ap.add_argument("--mesh", action="append",
                    help="NXxNY of a channel mesh; once per column (default 48x16)")
    ap.add_argument("--steps", type=int, default=3)
    args = ap.parse_args(argv)
    columns = {}
    for mesh in args.mesh or ["48x16"]:
        nx, ny = (int(n) for n in mesh.lower().split("x"))
        columns[mesh] = table(run(args.preset, nx, ny, args.steps))
    *_, last = columns.values()
    names = list(dict.fromkeys(name for rows in columns.values() for name in rows))
    # The cache keys, largest first on the last mesh, the geometry's total,
    # then the systems; a key that a mesh lacks reads "-".
    names.sort(key=lambda name: (name.startswith("system:"), name == "total",
                                 -last.get(name, 0)))
    width = max(len(name) for name in names)
    print(f"{'bytes':<{width}}" + "".join(f"  {mesh:>12}" for mesh in columns))
    for name in names:
        print(f"{name:<{width}}" + "".join(
            f"  {rows[name]:>12,d}" if name in rows else f"  {'-':>12}"
            for rows in columns.values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
