"""The whole MINI operators, which the solvers never form, and the
quadrature forms of the element blocks that the solvers take from
reference maps: the velocity mass on the full MINI pattern and its scalar
block, the blocks of the uncondensed saddle system, and the velocity block
and the divergence as the viscous and divergence kernels integrate them,
with the mass added from its scalar block.  Built from the solvers' own
pieces for the tests that check those pieces against them.  Not collected
by pytest."""

import numpy as np

from ablatesim import fem_core

EPS = np.finfo(float).eps


def weights(mesh):
    """The (NT, NQ) quadrature weights det w_q of ``mesh``, the bytes that
    the geometry once held."""
    return fem_core.TRI_RULE.weights[None, :] * fem_core.geometry(mesh).det[:, None]


def kernel_inputs(mesh):
    """(qw, grad_p1, bubble_grads) of ``mesh``: the arrays that the
    quadrature kernels read, in their order."""
    geo = fem_core.geometry(mesh)
    return weights(mesh), geo.grad_p1, geo.bubble_grads()


def mini_mass_block(mesh):
    """The scalar block of the MINI velocity mass, integral phi_a phi_b over
    [l1 l2 l3 bubble], on the P1 pattern enriched with the bubbles, rows and
    columns [vertices | bubbles], by the quadrature weights: the mass is
    this block on the x-x and the y-y velocity blocks and zero elsewhere."""
    pattern = fem_core._Pattern.with_bubbles(fem_core._p1_pattern(mesh), mesh.triangles)
    block = fem_core._tab(weights(mesh), fem_core._products(fem_core.MINI_VALS))
    return pattern.matrix(pattern.fill(block.reshape(-1, 4, 4)))


def add_mini_mass(mesh, data, coeff):
    """Add ``coeff`` times the MINI mass to the MINI data ``data``: the
    scalar block (:func:`mini_mass_block`) at its x-x and y-y
    positions, a block of rows at a time, so that no full-size temporary is
    made.  By the layout of :meth:`fem_core._Pattern.blocked`, entry e of
    row i of the block lies at indptr[i] + e of the x-x block and at
    2 nnz + indptr[i + 1] + e of the y-y block."""
    mass = mini_mass_block(mesh)
    for start in range(0, mass.shape[0], fem_core.FILL_BLOCK):
        ptr = mass.indptr[start:start + fem_core.FILL_BLOCK + 1]
        deg = np.diff(ptr)
        at = np.repeat(ptr[:-1], deg) + np.arange(ptr[0], ptr[-1])
        part = coeff * mass.data[ptr[0]:ptr[-1]]
        data[at] += part
        at += np.repeat(deg, deg)
        at += 2 * mass.nnz
        data[at] += part


def assemble_mini_mass(mesh):
    """Velocity mass matrix on the MINI space, on the full MINI pattern,
    read-only: the scalar block at its x-x and y-y positions
    (:func:`add_mini_mass`).  Built on each call."""
    pattern = fem_core._mini_pattern(mesh)
    data = np.zeros(pattern.nnz)
    add_mini_mass(mesh, data, 1.0)
    return fem_core._frozen_csr(pattern.matrix(data))


def velocity_data(mesh, viscosity, advect=None, gamma_n_tags=(), mass_coeff=0.0):
    """The MINI data of the velocity block that the saddle assemblies fill
    (their ``A_vv``): the element blocks of ``fem_core._velocity_blocks``
    added a block of triangles at a time, with no condensation."""
    pattern = fem_core._mini_pattern(mesh)
    return pattern.add_blocks(np.zeros(pattern.nnz), fem_core._velocity_blocks(
        mesh, viscosity, advect, gamma_n_tags, mass_coeff))


def surface_data(mesh, coeff, gamma_n_tags, modulus=False):
    """The MINI data of the convective surface term integral_{Gamma_N}
    (a.n)(u.w) of the field of element coefficients ``coeff``: its edge
    blocks added at their vertex pairs in the x-x and y-y blocks, read off
    the owners' scatter; with ``modulus``, of the trace and the normals in
    modulus, the term's scale."""
    pattern = fem_core._mini_pattern(mesh)
    edges = fem_core.boundary_edges(mesh, gamma_n_tags)
    trace, normals = edges.trace(coeff), edges.normals[:, None, :]
    if modulus:
        trace, normals = np.abs(trace), np.abs(normals)
    blocks = fem_core._edge_blocks(edges.wts * (trace * normals).sum(axis=-1))
    owners, local = edges.owners[:, None, None], edges.local
    data = np.zeros(pattern.nnz)
    for comp in range(2):
        np.add.at(data, pattern.scatter[owners, local[:, :, None] + 4 * comp,
                                        local[:, None, :] + 4 * comp], blocks)
    return data


def velocity_block(mesh, viscosity, advect=None, gamma_n_tags=(), mass_coeff=0.0):
    """The data of :func:`velocity_data` by the quadrature form: the
    viscous kernel filled a block of triangles at a time (a uniform
    viscosity times the fill at unit viscosity), then the convective blocks
    of the reference map and the surface term added, then the mass from its
    scalar block."""
    geo, pattern = fem_core.geometry(mesh), fem_core._mini_pattern(mesh)
    nu = fem_core._coeff_at_qp(mesh, viscosity)
    uniform = nu.min() == nu.max()
    wnu = weights(mesh) if uniform else weights(mesh) * nu
    data = pattern.add_blocks(np.zeros(pattern.nnz), lambda block: fem_core._viscous_local(
        wnu[block], geo.grad_p1[block], geo.bubble_grads(block)))
    if uniform:
        data = nu.flat[0] * data
    if advect is not None:
        coeff = fem_core.velocity_element_coeffs(mesh, advect)
        pattern.add_blocks(data, lambda block: fem_core._reference_blocks(
            geo, coeff[block], fem_core._convective_local, block))
        data += surface_data(mesh, coeff, gamma_n_tags)
    if mass_coeff:
        add_mini_mass(mesh, data, mass_coeff)
    return data


def divergence_data(mesh):
    """The data of ``fem_core.assemble_divergence`` by the quadrature form:
    the divergence kernel on the mesh's geometry, filled at once."""
    pattern = fem_core._divergence_pattern(mesh)
    return pattern.fill(fem_core._divergence_local(*kernel_inputs(mesh)))


# -- round-off bound of the reference maps against the quadrature forms ------
#
# Both forms of an element entry approximate the same sum of products, each
# rounding a term by at most u = eps/2 relative to the moduli of what it
# sums; so to first order in u each differs from the exact value by at most
# (its rounding depth) u times the entry's modulus scale, the same sum with
# every term in modulus.  The scales below bound those of both forms, with
# A = sum_k |inv_k| of the element:
#
# - viscous: |nu| det A^2 Q~(1), where Q~(1) is the viscous kernel with its
#   reference tables in modulus at inv = 1 (every entry), which bounds the
#   kernel's moduli at any |inv_k| <= A, and R_visc's polarization error
#   (three kernel values per row, each within Q~(1));
# - divergence: det A L~(1), L~ the divergence kernel likewise;
# - convective: |x| |R_conv|, the GEMM's own moduli, since both forms take
#   the same features x and map R_conv;
# - mass: |mass_coeff| det R_mass (all its entries are positive);
# - the surface term: its edge blocks with the trace and normals in modulus.
#
# Rounding depths: a kernel rounds at most D = 21 times along any term (the
# gradients from inv 2, squared 4, the weights det and nu 2, the product
# with them 1, the 12-point sum 12, the symmetrization 2); a map row adds
# 2 subtractions of 3 kernel values; a GEMM of K = 59 features rounds a term
# K + 3 times (the features 2, the scaling of the map 1); the reference's
# convective GEMM 48 times; each fill of m element terms m times; and the
# scaling, mass and surface additions 4.  So the two forms differ by at most
# N u times the filled scale, N = 4 D + 2 K + 2 m + 16, which also covers the
# divergence (depth 16, 4 features).

ROUNDING_DEPTH = 21  # D above
GEMM_TERMS = 59  # K above: [det inv_i inv_j (10) | det c g (48) | det (1)]


def _moduli_inputs():
    """(qw, grad_p1, bubble_grads), the arrays that the quadrature kernels
    read, of one triangle of unit det whose inverse Jacobian has every
    entry 1, with the reference tables in modulus: a kernel then sums the
    moduli of its terms."""
    ones = np.ones((1, 2, 2))
    return (fem_core.TRI_RULE.weights[None],
            fem_core._combine(np.abs(fem_core.P1_REF_GRADS), ones),
            fem_core._combine(np.abs(fem_core.BUBBLE_REF_GRADS), ones))


def _bound(pattern, scale, extra=0.0):
    """N u times the fill of the element scales ``scale`` plus the data
    scale ``extra``, with m the most element terms that one position sums."""
    m = int(np.bincount(pattern.scatter.ravel()).max())
    n = 4 * ROUNDING_DEPTH + 2 * GEMM_TERMS + 2 * m + 16
    return n * (EPS / 2) * (pattern.fill(scale) + extra)


def velocity_block_bound(mesh, viscosity, advect=None, gamma_n_tags=(), mass_coeff=0.0):
    """The bound on |:func:`velocity_data` - :func:`velocity_block`|
    at each data position (see above)."""
    geo, pattern = fem_core.geometry(mesh), fem_core._mini_pattern(mesh)
    a = np.abs(geo.inv).reshape(-1, 4).sum(axis=1)
    nu = np.abs(fem_core._coeff_at_qp(mesh, viscosity)).max(axis=1)
    q1 = fem_core._viscous_local(*_moduli_inputs())[0]
    scale = (nu * geo.det * a * a)[:, None, None] * q1
    surface = 0.0
    if advect is not None:
        coeff = fem_core.velocity_element_coeffs(mesh, advect)
        x = np.abs(fem_core._convective_features(geo, coeff))
        scale += (x.T @ np.abs(fem_core._reference_map(fem_core._convective_local))).reshape(
            -1, 8, 8)
        surface = surface_data(mesh, coeff, gamma_n_tags, modulus=True)
    scale += abs(mass_coeff) * geo.det[:, None, None] * fem_core._mass_map().reshape(8, 8)
    return _bound(pattern, scale, surface)


def divergence_bound(mesh):
    """The bound on |``fem_core.assemble_divergence(mesh).data`` -
    :func:`divergence_data`| at each data position (see above)."""
    geo = fem_core.geometry(mesh)
    a = np.abs(geo.inv).reshape(-1, 4).sum(axis=1)
    l1 = fem_core._divergence_local(*_moduli_inputs())[0]
    return _bound(fem_core._divergence_pattern(mesh), (geo.det * a)[:, None, None, None] * l1)


def assemble_mini_blocks(mesh, viscosity, advect=None, gamma_n_tags=()) -> dict:
    """Momentum/divergence blocks of the MINI saddle system [[A_vv, -B^T], [B, 0]].

    Returns {"A_vv", "B"} with

    * A_vv: viscous form integral nu D(u):D(w) plus, when ``advect`` is given,
      the convective form  -integral (a x u):D(w) + integral_{Gamma_N} (a.n)(u.w)
      with the surface term only on ``gamma_n_tags`` edges;
    * B: divergence block, (Bu)_i = integral psi_i div(u); its transpose is
      the momentum pressure-gradient coupling, which enters as -B^T.

    ``viscosity`` is scalar or per-quad-point; ``advect`` is a
    MINI velocity, flow dofs or element coefficients.  Both are the
    solvers' own assemblies; B is cached.
    """
    data = velocity_data(mesh, viscosity, advect, gamma_n_tags)
    return {"A_vv": fem_core._mini_pattern(mesh).matrix(data),
            "B": fem_core.assemble_divergence(mesh)}
