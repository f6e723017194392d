"""Electric potential solve: -div(sigma(theta) grad phi) = source.

The physical problem has zero volumetric source, a prescribed current flux g
on the electrode segment, and grounded (phi = 0) remaining boundaries; the
optional volumetric source exists for manufactured-solution verification.
The problem's ``temperature`` (:class:`materials.TemperatureSample`) is the
lagged temperature with the mesh and the laws; the conductivity at the
quadrature points is read from it, so a split step shares it with its other
stages.
The symmetric positive definite system is solved by the problem's
:class:`linalg.LinearSystem`, constrained at its first solve to zero at the
grounded vertices (:func:`fem_core.dirichlet_vertices`).  The problem's
``iterations`` reads the system's last solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem_core, linalg
from .materials import TemperatureSample
from .mesh import Mesh2D


@dataclass
class PotentialProblem:
    temperature: TemperatureSample  # the lagged temperature theta^{n-1} and its laws
    neumann_tags: tuple  # tags carrying the flux g
    dirichlet_tags: tuple  # grounded tags (phi = 0)
    g: object = 0.0  # flux on the Neumann tags: constant or callable(x, y)
    source: object = None  # verification hook: (NT, NQ) array or callable(x, y)
    system: linalg.LinearSystem = field(default_factory=linalg.LinearSystem)  # held across solves
    iterations = property(lambda self: self.system.factor.iterations)  # 0 if it factorized


def potential_constraints(mesh: Mesh2D, dirichlet_tags) -> tuple:
    """The grounded vertices of ``dirichlet_tags`` and their zero values."""
    verts = fem_core.dirichlet_vertices(mesh, dirichlet_tags)
    return verts.dofs, np.zeros(verts.dofs.size)


def _neumann_load(mesh: Mesh2D, tags, g) -> np.ndarray:
    """The load of the flux ``g`` on ``tags``, built once per mesh for a constant g."""
    def build():
        return fem_core.assemble_boundary_load(mesh, tags, g)
    if callable(g) or np.ndim(g):
        return build()
    return fem_core.cached(mesh, ("neumann_load", fem_core._tag_set(tags), float(g)), build)


def solve_potential(problem: PotentialProblem) -> np.ndarray:
    """Solve the lagged-conductivity potential equation."""
    temperature = problem.temperature
    mesh = temperature.mesh
    if not np.isfinite(np.asarray(temperature.theta_h, dtype=float)).all():
        raise ValueError("temperature field contains non-finite values")
    if not problem.dirichlet_tags:
        raise ValueError("potential problem needs a nonempty Dirichlet tag set")

    A = fem_core.assemble_stiffness(mesh, temperature.sigma)
    b = _neumann_load(mesh, problem.neumann_tags, problem.g)
    if problem.source is not None:
        b = b + fem_core.assemble_scalar_load(
            mesh, fem_core.sample(problem.source, fem_core.geometry(mesh).qp))

    system = problem.system
    if system.dofs is None:
        system.constrain(*potential_constraints(mesh, problem.dirichlet_tags),
                         fem_core.vertex_order(mesh))
    return system.solve(A, b)


def joule_density(mesh: Mesh2D, sigma_qp: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(NT, NQ) Joule heating sigma |grad phi|^2, given the conductivity
    ``sigma_qp`` at the quad points (the potential solve's own)."""
    grad_phi = fem_core.p1_gradients(mesh, phi)  # constant per element
    grad_sq = np.square(grad_phi[:, 0]) + np.square(grad_phi[:, 1])
    return sigma_qp * grad_sq[:, None]
