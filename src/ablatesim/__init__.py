"""2D finite-element simulator for RF ablation of perfused tissue.

Coupled incompressible flow (MINI elements), electric potential, and
temperature with Joule/viscous heating, advanced by a time-lag splitting
scheme with entropy-viscosity stabilization of the transport.
"""

from .mesh import (GAMMA1, GAMMA2, GAMMA3, GAMMA4, GAMMA5, GeometrySpec,
                   Mesh2D, generate_channel_mesh)
from .materials import MaterialModel
from .coupler import SimState, Simulation, TimeGrid
from .sim_cli import SimConfig, parse_config, preset

__version__ = "0.1.0"

__all__ = [
    "GAMMA1", "GAMMA2", "GAMMA3", "GAMMA4", "GAMMA5",
    "GeometrySpec", "Mesh2D", "generate_channel_mesh",
    "MaterialModel", "SimState", "Simulation", "TimeGrid",
    "SimConfig", "parse_config", "preset", "__version__",
]
