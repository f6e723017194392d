"""The whole MINI operators, which the solvers never form: the velocity mass
on the full MINI pattern and the blocks of the uncondensed saddle system,
built from the solvers' own pieces for the tests that check those pieces
against them.  Not collected by pytest."""

import numpy as np

from ablatesim import fem_core


def assemble_mini_mass(mesh):
    """Velocity mass matrix on the MINI space, on the full MINI pattern,
    read-only: the scalar block (:func:`fem_core.mini_mass_block`) at its
    x-x and y-y positions.  Built on each call."""
    pattern = fem_core._mini_pattern(mesh)
    data = np.zeros(pattern.nnz)
    fem_core._add_mini_mass(mesh, data, 1.0)
    return fem_core._frozen_csr(pattern.matrix(data))


def assemble_mini_blocks(mesh, viscosity, advect=None, gamma_n_tags=()) -> dict:
    """Momentum/divergence blocks of the MINI saddle system [[A_vv, -B^T], [B, 0]].

    Returns {"A_vv", "B"} with

    * A_vv: viscous form integral nu D(u):D(w) plus, when ``advect`` is given,
      the convective form  -integral (a x u):D(w) + integral_{Gamma_N} (a.n)(u.w)
      with the surface term only on ``gamma_n_tags`` edges;
    * B: divergence block, (Bu)_i = integral psi_i div(u); its transpose is
      the momentum pressure-gradient coupling, which enters as -B^T.

    ``viscosity`` is scalar / per-triangle / per-quad-point; ``advect`` is a
    MINI velocity, flow dofs or element coefficients.  B is cached, and a
    uniform viscosity scales a cached viscous block.
    """
    data = fem_core._velocity_block(mesh, viscosity, advect, gamma_n_tags)
    return {"A_vv": fem_core._mini_pattern(mesh).matrix(data),
            "B": fem_core.assemble_divergence(mesh)}
