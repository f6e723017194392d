"""P1 and P1-bubble elements, quadrature, and assembly of the weak forms.

Velocity uses the MINI pair: each component is P1 enriched with the cubic
bubble 27*l1*l2*l3; pressure, temperature and potential are plain P1.  One
degree-6, 12-point rule integrates every interior term; boundary integrals
use 2-point Gauss on edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import SingularMatrix, SparseMatrix
from .mesh import Mesh2D


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points/weights on the reference triangle (weights sum to 1/2)."""

    points: np.ndarray  # (NQ, 3) barycentric coordinates
    weights: np.ndarray  # (NQ,)
    degree: int


def _dunavant6() -> QuadratureRule:
    # 12-point rule, exact through polynomial degree 6.
    groups = [
        (0.116786275726379, 0.501426509658179, 0.249286745170910),
        (0.050844906370207, 0.873821971016996, 0.063089014491502),
    ]
    pts = []
    wts = []
    for w, a, b in groups:
        for perm in ((a, b, b), (b, a, b), (b, b, a)):
            pts.append(perm)
            wts.append(w)
    w3 = 0.082851075618374
    a3, b3, c3 = 0.053145049844816, 0.310352451033785, 0.636502499121399
    for perm in (
        (a3, b3, c3), (a3, c3, b3), (b3, a3, c3),
        (b3, c3, a3), (c3, a3, b3), (c3, b3, a3),
    ):
        pts.append(perm)
        wts.append(w3)
    pts = np.array(pts)
    wts = 0.5 * np.array(wts)
    wts *= 0.5 / wts.sum()  # pin the sum to the reference area exactly
    return QuadratureRule(points=pts, weights=wts, degree=6)


TRI_RULE = _dunavant6()

# 2-point Gauss on the unit edge parameter t in [0, 1]; exact to degree 3.
EDGE_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_W = np.array([0.5, 0.5])
EDGE_PHI = np.stack([1.0 - EDGE_T, EDGE_T])  # (2 basis, 2 Gauss points)


class ElementP1:
    """Linear nodal basis = barycentric coordinates; constant gradients."""

    n_basis = 3
    ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    @staticmethod
    def values(bary: np.ndarray) -> np.ndarray:
        return np.asarray(bary, dtype=float)


class ElementP1Bubble:
    """P1 plus the cubic bubble 27*l1*l2*l3 (per velocity component)."""

    n_basis = 4

    @staticmethod
    def bubble_values(bary: np.ndarray) -> np.ndarray:
        bary = np.asarray(bary, dtype=float)
        return 27.0 * bary[..., 0] * bary[..., 1] * bary[..., 2]

    @staticmethod
    def bubble_ref_grads(bary: np.ndarray) -> np.ndarray:
        """Gradient of the bubble w.r.t. reference coordinates at barycentric pts."""
        bary = np.asarray(bary, dtype=float)
        l1, l2, l3 = bary[..., 0], bary[..., 1], bary[..., 2]
        g = (
            (l2 * l3)[..., None] * ElementP1.ref_grads[0]
            + (l1 * l3)[..., None] * ElementP1.ref_grads[1]
            + (l1 * l2)[..., None] * ElementP1.ref_grads[2]
        )
        return 27.0 * g


@dataclass(frozen=True)
class DofMap:
    """Global dof layout.

    Flow block: [vx vertices | vx bubbles | vy vertices | vy bubbles | P vertices],
    total 2*(NV + NT) + NV.  Scalar fields (theta, phi) use the vertex index
    directly (one dof per vertex).
    """

    nv: int
    nt: int

    @property
    def n_velocity(self) -> int:
        return 2 * (self.nv + self.nt)

    @property
    def n_pressure(self) -> int:
        return self.nv

    @property
    def n_flow(self) -> int:
        return self.n_velocity + self.n_pressure

    def vx_vertex(self, idx):
        return np.asarray(idx, dtype=np.int64)

    def vy_vertex(self, idx):
        return self.nv + self.nt + np.asarray(idx, dtype=np.int64)

    def vx_bubble(self, tri_idx):
        return self.nv + np.asarray(tri_idx, dtype=np.int64)

    def vy_bubble(self, tri_idx):
        return 2 * self.nv + self.nt + np.asarray(tri_idx, dtype=np.int64)

    def pressure(self, idx):
        return self.n_velocity + np.asarray(idx, dtype=np.int64)

    def velocity_element_dofs(self, mesh: Mesh2D) -> np.ndarray:
        """(NT, 8) dofs per element: [v1x v2x v3x bx v1y v2y v3y by]."""
        t = mesh.triangles
        it = np.arange(self.nt)
        return np.column_stack([
            self.vx_vertex(t[:, 0]), self.vx_vertex(t[:, 1]), self.vx_vertex(t[:, 2]),
            self.vx_bubble(it),
            self.vy_vertex(t[:, 0]), self.vy_vertex(t[:, 1]), self.vy_vertex(t[:, 2]),
            self.vy_bubble(it),
        ])


def dofmap_for(mesh: Mesh2D) -> DofMap:
    return DofMap(nv=mesh.num_vertices, nt=mesh.num_triangles)


# -- per-mesh constants (cached on the immutable mesh) ---------------------------
#
# ``geometry(mesh)`` holds the geometric factors and a lazily filled operator
# cache (patterns, constant operators), both read-only and owned by the mesh.


class _Geometry:
    def __init__(self, mesh: Mesh2D):
        p = mesh.vertices
        t = mesh.triangles
        coords = p[t]  # (NT, 3, 2)
        jac = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        jinvT = np.transpose(inv, (0, 2, 1))

        bary = TRI_RULE.points
        self.qw = TRI_RULE.weights[None, :] * det[:, None]  # (NT, NQ), sums to area
        self.qp = np.einsum("qa,tad->tqd", bary, coords)  # physical quad points
        self.grad_p1 = np.einsum("tde,ae->tad", jinvT, ElementP1.ref_grads)  # (NT,3,2)
        ref_gb = ElementP1Bubble.bubble_ref_grads(bary)  # (NQ, 2)
        self.grad_bubble = np.einsum("tde,qe->tqd", jinvT, ref_gb)  # (NT,NQ,2)
        self.p1_vals = ElementP1.values(bary)  # (NQ, 3)
        self.bubble_vals = ElementP1Bubble.bubble_values(bary)  # (NQ,)
        # MINI basis values [l1 l2 l3 bubble], the same on every triangle.
        self.mini_vals = np.column_stack([self.p1_vals, self.bubble_vals])  # (NQ, 4)
        for arr in (self.qw, self.qp, self.grad_p1, self.grad_bubble, self.mini_vals):
            _frozen(arr)
        self.operators: dict = {}  # see _cached


def geometry(mesh: Mesh2D) -> _Geometry:
    geo = getattr(mesh, "_fem_geometry", None)
    if geo is None:
        geo = _Geometry(mesh)
        object.__setattr__(mesh, "_fem_geometry", geo)
    return geo


def _cached(mesh: Mesh2D, key, build):
    """The per-mesh constant ``key``, built by ``build()`` on first use."""
    ops = geometry(mesh).operators
    if key not in ops:
        ops[key] = build()
    return ops[key]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_csr(A: SparseMatrix) -> SparseMatrix:
    for arr in (A.data, A.indices, A.indptr):
        _frozen(arr)
    return A


def _tab(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Contract the last axis of ``x`` with a (K, M) reference table in one GEMM."""
    out = x.reshape(-1, x.shape[-1]) @ table
    return out.reshape(x.shape[:-1] + table.shape[1:])


def _products(table: np.ndarray) -> np.ndarray:
    """(K, M*M) pairwise products of the columns of a (K, M) basis table."""
    return (table[:, :, None] * table[:, None, :]).reshape(table.shape[0], -1)


class _Pattern:
    """Fixed CSR pattern of an element-by-element assembly.

    ``scatter[t, i, j]`` is the CSR data position of local entry (i, j) of
    element t, so a refill with new element matrices is one ``np.bincount``.
    """

    def __init__(self, row_dofs: np.ndarray, col_dofs: np.ndarray, shape):
        ncols = shape[1]
        keys = (row_dofs[:, :, None] * ncols + col_dofs[:, None, :]).ravel()
        uniq, inverse = np.unique(keys, return_inverse=True)
        self.shape = shape
        self.indptr = _frozen(np.searchsorted(
            uniq, np.arange(shape[0] + 1) * ncols).astype(np.int32))
        self.indices = _frozen((uniq % ncols).astype(np.int32))
        self.scatter = _frozen(inverse.astype(np.int32).reshape(
            row_dofs.shape[0], row_dofs.shape[1], col_dofs.shape[1]))

    @property
    def nnz(self) -> int:
        return self.indices.size

    def fill(self, local: np.ndarray) -> np.ndarray:
        """CSR data of the sum of the (NT, k, l) element matrices ``local``."""
        return np.bincount(self.scatter.ravel(), weights=local.ravel(), minlength=self.nnz)

    def matrix(self, data: np.ndarray) -> SparseMatrix:
        return SparseMatrix((data, self.indices, self.indptr), shape=self.shape)


def _coeff_at_qp(mesh: Mesh2D, coeff) -> np.ndarray:
    """Broadcast a scalar / per-triangle / per-quad-point coefficient to (NT, NQ)."""
    nt = mesh.num_triangles
    nq = TRI_RULE.points.shape[0]
    c = np.asarray(coeff, dtype=float)
    if c.ndim == 0:
        return np.full((nt, nq), float(c))
    if c.shape == (nt,):
        return np.repeat(c[:, None], nq, axis=1)
    if c.shape == (nt, nq):
        return c
    raise ValueError(f"coefficient shape {c.shape} not scalar, (NT,), or (NT, NQ)")


def _p1_pattern(mesh: Mesh2D) -> _Pattern:
    nv = mesh.num_vertices
    return _cached(mesh, "p1_pattern",
                   lambda: _Pattern(mesh.triangles, mesh.triangles, (nv, nv)))


def _p1_matrix(mesh: Mesh2D, local: np.ndarray) -> SparseMatrix:
    """Assemble (NT, 3, 3) local matrices into the global P1 operator."""
    pattern = _p1_pattern(mesh)
    return pattern.matrix(pattern.fill(local))


def _edge_positions(mesh: Mesh2D, pattern: _Pattern, edge_sel, offset: int = 0):
    """(NE, 2, 2) data positions of the selected boundary edges' vertex pairs,
    read off the owner triangle's scatter; ``offset`` 4 picks the MINI y block."""
    def owner_and_local_index():
        owners = mesh.boundary_edge_owners()
        tri = mesh.triangles[owners]
        local = np.argmax(tri[:, None, :] == mesh.boundary_edges[:, :, None], axis=2)
        return owners, _frozen(local)

    owners, local = _cached(mesh, "edge_owner_local", owner_and_local_index)
    owners, local = owners[edge_sel], local[edge_sel] + offset
    return pattern.scatter[owners[:, None, None], local[:, :, None], local[:, None, :]]


# -- field evaluation ----------------------------------------------------------


def p1_at_qp(mesh: Mesh2D, nodal: np.ndarray) -> np.ndarray:
    """(NT, NQ) values of a P1 nodal field at the interior quad points."""
    geo = geometry(mesh)
    return np.asarray(nodal)[mesh.triangles] @ geo.p1_vals.T


def p1_gradients(mesh: Mesh2D, nodal: np.ndarray) -> np.ndarray:
    """(NT, 2) elementwise-constant gradient of a P1 field."""
    geo = geometry(mesh)
    return np.einsum("tad,ta->td", geo.grad_p1, np.asarray(nodal)[mesh.triangles])


def velocity_element_coeffs(mesh: Mesh2D, dofmap: DofMap, u: np.ndarray) -> np.ndarray:
    """(NT, 2, 4) per-element MINI coefficients [x/y][l1 l2 l3 bubble]."""
    dofs = dofmap.velocity_element_dofs(mesh)
    coeff = np.asarray(u)[dofs]  # (NT, 8)
    return coeff.reshape(-1, 2, 4)


def velocity_at_qp(mesh: Mesh2D, dofmap: DofMap, u: np.ndarray) -> np.ndarray:
    """(NT, NQ, 2) MINI velocity at the interior quad points."""
    geo = geometry(mesh)
    coeff = velocity_element_coeffs(mesh, dofmap, u)
    return np.matmul(geo.mini_vals, coeff.transpose(0, 2, 1))


def velocity_grad_at_qp(mesh: Mesh2D, dofmap: DofMap, u: np.ndarray) -> np.ndarray:
    """(NT, NQ, 2, 2) velocity Jacobian, entry [c, d] = d(u_c)/d(x_d)."""
    geo = geometry(mesh)
    coeff = velocity_element_coeffs(mesh, dofmap, u)
    grad_p1 = coeff[:, :, :3] @ geo.grad_p1  # (NT, 2, 2), constant per element
    bubble = coeff[:, None, :, 3, None] * geo.grad_bubble[:, :, None, :]
    return grad_p1[:, None, :, :] + bubble


def velocity_at_vertices(mesh: Mesh2D, dofmap: DofMap, u: np.ndarray) -> np.ndarray:
    """(NV, 2) vertex velocity (bubbles have no vertex trace)."""
    u = np.asarray(u)
    idx = np.arange(dofmap.nv)
    return np.column_stack([u[dofmap.vx_vertex(idx)], u[dofmap.vy_vertex(idx)]])


def strain_rate_product(grad: np.ndarray) -> np.ndarray:
    """D(v):D(v) from a velocity Jacobian array (..., 2, 2)."""
    d = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    return np.einsum("...cd,...cd->...", d, d)


# -- boundary edge helpers ------------------------------------------------------


def edge_quadrature(mesh: Mesh2D, edge_sel: np.ndarray):
    """Physical Gauss points/weights on selected boundary edges.

    Returns (points (NE,2,2), weights (NE,2), a_idx, b_idx, outward normals).
    """
    edges = mesh.boundary_edges[edge_sel]
    pa = mesh.vertices[edges[:, 0]]
    pb = mesh.vertices[edges[:, 1]]
    length = np.linalg.norm(pb - pa, axis=1)
    pts = pa[:, None, :] + EDGE_T[None, :, None] * (pb - pa)[:, None, :]
    wts = EDGE_W[None, :] * length[:, None]
    normals = mesh.boundary_outward_normals()[edge_sel]
    return pts, wts, edges[:, 0], edges[:, 1], normals


def _tag_selector(mesh: Mesh2D, tags) -> np.ndarray:
    tags = np.atleast_1d(np.asarray(tags, dtype=np.int64))
    return np.isin(mesh.boundary_tags, tags)


def assemble_edge_mass(mesh: Mesh2D, edge_sel: np.ndarray, weights: np.ndarray) -> SparseMatrix:
    """P1 matrix of the integrals of w psi_a psi_b over the selected edges;
    ``weights`` (NE, 2) are the edge Gauss weights times w."""
    pattern = _p1_pattern(mesh)
    data = np.zeros(pattern.nnz)
    local = _tab(weights, _products(EDGE_PHI.T)).reshape(-1, 2, 2)
    np.add.at(data, _edge_positions(mesh, pattern, edge_sel), local)
    return pattern.matrix(data)


# -- scalar-field assembly --------------------------------------------------------


def assemble_stiffness(mesh: Mesh2D, coeff=1.0) -> SparseMatrix:
    """P1 stiffness with scalar/per-triangle/per-quad-point diffusion coefficient."""
    geo = geometry(mesh)
    scale = (geo.qw * _coeff_at_qp(mesh, coeff)).sum(axis=1)  # gradients are constant
    g = geo.grad_p1
    return _p1_matrix(mesh, scale[:, None, None] * (g @ g.transpose(0, 2, 1)))


def assemble_mass(mesh: Mesh2D, lumped: bool = False) -> SparseMatrix:
    """P1 mass matrix (cached, read-only); ``lumped`` sums rows onto the diagonal."""
    def build():
        geo = geometry(mesh)
        local = _tab(geo.qw, _products(geo.p1_vals)).reshape(-1, 3, 3)
        return _frozen_csr(_p1_matrix(mesh, local))

    M = _cached(mesh, "p1_mass", build)
    if lumped:
        return sp.diags(np.asarray(M.sum(axis=1)).ravel(), format="csr")
    return M


def assemble_boundary_mass(mesh: Mesh2D, tags) -> SparseMatrix:
    """P1 mass restricted to boundary edges with the given tags (cached, read-only)."""
    def build():
        sel = _tag_selector(mesh, tags)
        if not np.any(sel):
            return _frozen_csr(SparseMatrix((mesh.num_vertices, mesh.num_vertices)))
        _, wts, _, _, _ = edge_quadrature(mesh, sel)
        return _frozen_csr(assemble_edge_mass(mesh, sel, wts))

    key = ("boundary_mass",) + tuple(sorted({int(t) for t in np.atleast_1d(tags)}))
    return _cached(mesh, key, build)


def assemble_boundary_load(mesh: Mesh2D, tags, data) -> np.ndarray:
    """Load vector of ``data`` against P1 traces over tagged edges.

    ``data`` is a constant or a callable(x, y) evaluated at edge Gauss points.
    """
    sel = _tag_selector(mesh, tags)
    if not np.any(sel):
        return np.zeros(mesh.num_vertices)
    pts, wts, ia, ib, _ = edge_quadrature(mesh, sel)
    if callable(data):
        vals = np.asarray(data(pts[..., 0], pts[..., 1]), dtype=float)
        vals = np.broadcast_to(vals, wts.shape)
    else:
        vals = np.full(wts.shape, float(data))
    contrib = _tab(wts * vals, EDGE_PHI.T)  # (NE, 2)
    return np.bincount(np.concatenate([ia, ib]), weights=contrib.T.ravel(),
                       minlength=mesh.num_vertices)


def assemble_advection(mesh: Mesh2D, vel_qp) -> SparseMatrix:
    """Scalar advection matrix D_ij = integral (v . grad(l_j)) l_i.

    ``vel_qp`` is a (NT, NQ, 2) velocity sample at the interior quad points
    (use :func:`velocity_at_qp` for a MINI field).
    """
    geo = geometry(mesh)
    wv = geo.qw[:, None, :] * np.asarray(vel_qp, dtype=float).transpose(0, 2, 1)
    wv_dot_grad = geo.grad_p1 @ wv  # (NT, 3, NQ): w v . grad(l_b) at the quad points
    return _p1_matrix(mesh, _tab(wv_dot_grad, geo.p1_vals).transpose(0, 2, 1))


def assemble_scalar_load(mesh: Mesh2D, source) -> np.ndarray:
    """Volume load f_i = integral source * l_i; source scalar or (NT, NQ)."""
    geo = geometry(mesh)
    contrib = _tab(geo.qw * _coeff_at_qp(mesh, source), geo.p1_vals)  # (NT, 3)
    return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_vertices)


def integrate_qp(mesh: Mesh2D, qp_values) -> float:
    """Integral over the domain of a per-quad-point sampled field."""
    geo = geometry(mesh)
    return float(np.einsum("tq,tq->", geo.qw, _coeff_at_qp(mesh, qp_values)))


# -- MINI (velocity/pressure) assembly -------------------------------------------
#
# Element matrices of the velocity block are (NT, 8, 8) with local order
# [x | y] x [l1 l2 l3 bubble], i.e. the columns of
# DofMap.velocity_element_dofs.  P1 gradients are constant per element and
# MINI values are the same on every triangle, so only the bubble gradient
# varies over the quadrature points.


def _advect_at_qp(mesh: Mesh2D, dofmap: DofMap, advect) -> np.ndarray:
    geo = geometry(mesh)
    if callable(advect):
        ax, ay = advect(geo.qp[..., 0], geo.qp[..., 1])
        return np.stack([np.broadcast_to(ax, geo.qw.shape),
                         np.broadcast_to(ay, geo.qw.shape)], axis=-1)
    return velocity_at_qp(mesh, dofmap, advect)


def _advect_on_edges(mesh: Mesh2D, dofmap: DofMap, advect, pts, ia, ib) -> np.ndarray:
    if callable(advect):
        ax, ay = advect(pts[..., 0], pts[..., 1])
        shape = pts.shape[:-1]
        return np.stack([np.broadcast_to(ax, shape), np.broadcast_to(ay, shape)], axis=-1)
    # Bubbles vanish on edges, so the P1 trace is exact.
    u = np.asarray(advect)
    idx = np.arange(dofmap.nv)
    vx = u[dofmap.vx_vertex(idx)]
    vy = u[dofmap.vy_vertex(idx)]
    phi_a = (1.0 - EDGE_T)[None, :]
    phi_b = EDGE_T[None, :]
    ax = vx[ia][:, None] * phi_a + vx[ib][:, None] * phi_b
    ay = vy[ia][:, None] * phi_a + vy[ib][:, None] * phi_b
    return np.stack([ax, ay], axis=-1)


def _mini_pattern(mesh: Mesh2D, dofmap: DofMap) -> _Pattern:
    def build():
        dofs = dofmap.velocity_element_dofs(mesh)
        return _Pattern(dofs, dofs, (dofmap.n_velocity, dofmap.n_velocity))

    return _cached(mesh, "mini_pattern", build)


def _viscous_local(geo: _Geometry, wnu: np.ndarray) -> np.ndarray:
    """(NT, 8, 8) viscous element matrices of integral nu D(u):D(w).

    E[(d,a),(c,b)] = 1/2 integral nu (d_d phi_b d_c phi_a
                                      + delta_dc grad phi_a . grad phi_b),
    with ``wnu`` the quadrature weights times nu.
    """
    nt, nq = wnu.shape
    grads = np.empty((nt, nq, 4, 2))  # [t, q, a, c] = d_c(phi_a)
    grads[:, :, :3] = geo.grad_p1[:, None]
    grads[:, :, 3] = geo.grad_bubble
    g = grads.reshape(nt, nq, 8)
    gram = ((g.transpose(0, 2, 1) * wnu[:, None, :]) @ g).reshape(nt, 4, 2, 4, 2)
    # gram[t, a, c, b, d] = integral nu d_c(phi_a) d_d(phi_b)
    local = 0.5 * gram.transpose(0, 4, 1, 2, 3)  # [t, d, a, c, b]
    grad_dot = gram[:, :, 0, :, 0] + gram[:, :, 1, :, 1]
    for d in range(2):
        local[:, d, :, d, :] += 0.5 * grad_dot
    return local.reshape(nt, 8, 8)


def _convective_local(geo: _Geometry, a_qp: np.ndarray) -> np.ndarray:
    """(NT, 8, 8) element matrices of the convective form -(a x u):D(w).

    E[(d,a),(c,b)] = -1/2 integral phi_b (a_d d_c phi_a + delta_dc a . grad phi_a).
    """
    g1 = geo.grad_p1
    nt = g1.shape[0]
    wa = geo.qw[:, None, :] * a_qp.transpose(0, 2, 1)  # (NT, 2, NQ)
    m = _tab(wa, geo.mini_vals)  # [t, d, b] = integral a_d phi_b
    n = _tab(wa[:, :, None, :] * geo.grad_bubble.transpose(0, 2, 1)[:, None, :, :],
             geo.mini_vals)  # [t, d, c, b] = integral a_d d_c(bubble) phi_b
    t1 = np.empty((nt, 2, 4, 2, 4))  # [t, d, a, c, b] = integral a_d d_c(phi_a) phi_b
    t1[:, :, :3] = g1[:, None, :, :, None] * m[:, :, None, None, :]
    t1[:, :, 3] = n
    local = -0.5 * t1
    a_dot_grad = t1[:, 0, :, 0, :] + t1[:, 1, :, 1, :]  # integral (a . grad phi_a) phi_b
    for d in range(2):
        local[:, d, :, d, :] -= 0.5 * a_dot_grad
    return local.reshape(nt, 8, 8)


def _velocity_block(mesh: Mesh2D, dofmap: DofMap, viscosity, advect,
                    gamma_n_tags) -> np.ndarray:
    """CSR data, on the MINI pattern, of the velocity block A_vv."""
    geo = geometry(mesh)
    pattern = _mini_pattern(mesh, dofmap)
    nu = _coeff_at_qp(mesh, viscosity)
    if nu.size and nu.min() == nu.max():
        # Uniform viscosity: the viscous block is nu times a per-mesh constant.
        unit = _cached(mesh, "viscous_unit",
                       lambda: _frozen(pattern.fill(_viscous_local(geo, geo.qw))))
        data = nu.flat[0] * unit
    else:
        data = pattern.fill(_viscous_local(geo, geo.qw * nu))
    if advect is not None:
        data += pattern.fill(_convective_local(geo, _advect_at_qp(mesh, dofmap, advect)))

    if advect is not None and len(gamma_n_tags) > 0:
        # Convective surface term integral_{Gamma_N} (a.n)(u.w), per component.
        sel = _tag_selector(mesh, gamma_n_tags)
        if np.any(sel):
            pts, wts, ia, ib, normals = edge_quadrature(mesh, sel)
            a_e = _advect_on_edges(mesh, dofmap, advect, pts, ia, ib)  # (NE,G,2)
            a_dot_n = (a_e * normals[:, None, :]).sum(axis=-1)
            surf = _tab(wts * a_dot_n, _products(EDGE_PHI.T)).reshape(-1, 2, 2)
            for comp in range(2):
                np.add.at(data, _edge_positions(mesh, pattern, sel, 4 * comp), surf)
    return data


def assemble_mini_mass(mesh: Mesh2D, dofmap: DofMap) -> SparseMatrix:
    """Velocity mass matrix on the MINI space (cached, read-only), stored on the
    full MINI pattern so it adds to the velocity block through its data."""
    def build():
        geo = geometry(mesh)
        local = np.zeros((mesh.num_triangles, 2, 4, 2, 4))
        block = _tab(geo.qw, _products(geo.mini_vals)).reshape(-1, 4, 4)
        for comp in range(2):
            local[:, comp, :, comp, :] = block
        pattern = _mini_pattern(mesh, dofmap)
        return _frozen_csr(pattern.matrix(pattern.fill(local)))

    return _cached(mesh, "mini_mass", build)


def _divergence_local(mesh: Mesh2D) -> np.ndarray:
    """(NT, 3, 2, 4) element blocks of B: [t, i, c, b] = integral psi_i d_c(phi_b)."""
    geo = geometry(mesh)
    psi = _tab(geo.qw, geo.p1_vals)  # (NT, 3): integral psi_i
    bubble = _tab(geo.qw[:, None, :] * geo.grad_bubble.transpose(0, 2, 1),
                  geo.p1_vals)  # (NT, 2, 3): integral psi_i d_c(bubble)
    local = np.empty((mesh.num_triangles, 3, 2, 4))
    local[..., :3] = psi[:, :, None, None] * geo.grad_p1.transpose(0, 2, 1)[:, None]
    local[..., 3] = bubble.transpose(0, 2, 1)
    return local


def assemble_divergence(mesh: Mesh2D, dofmap: DofMap) -> SparseMatrix:
    """Divergence block B, (Bu)_i = integral psi_i div(u) (cached, read-only)."""
    def build():
        pattern = _Pattern(mesh.triangles, dofmap.velocity_element_dofs(mesh),
                           (dofmap.n_pressure, dofmap.n_velocity))
        return _frozen_csr(pattern.matrix(pattern.fill(_divergence_local(mesh))))

    return _cached(mesh, "divergence", build)


def _gradient_block(mesh: Mesh2D, dofmap: DofMap) -> SparseMatrix:
    """G = B^T as CSR (cached, read-only)."""
    return _cached(mesh, "gradient", lambda: _frozen_csr(
        SparseMatrix(assemble_divergence(mesh, dofmap).T)))


def assemble_mini_blocks(mesh: Mesh2D, dofmap: DofMap, viscosity,
                         advect=None, gamma_n_tags=()) -> dict:
    """Momentum/divergence blocks of the MINI saddle system.

    Returns {"A_vv", "B", "G"} with

    * A_vv: viscous form integral nu D(u):D(w) plus, when ``advect`` is given,
      the convective form  -integral (a x u):D(w) + integral_{Gamma_N} (a.n)(u.w)
      with the surface term only on ``gamma_n_tags`` edges;
    * B: divergence block, (Bu)_i = integral psi_i div(u);
    * G: structural transpose of B (the momentum pressure-gradient coupling
      enters the saddle system as -G).

    ``viscosity`` is scalar / per-triangle / per-quad-point; ``advect`` is a
    flow dof vector or a callable(x, y) -> (ax, ay).  B and G are cached, and
    a uniform viscosity scales a cached viscous block.
    """
    data = _velocity_block(mesh, dofmap, viscosity, advect, gamma_n_tags)
    return {"A_vv": _mini_pattern(mesh, dofmap).matrix(data),
            "B": assemble_divergence(mesh, dofmap),
            "G": _gradient_block(mesh, dofmap)}


# -- static condensation of the MINI bubbles -------------------------------------
#
# A bubble dof lives in one triangle, so its row and its column of the saddle
# matrix [[A_vv, -G], [B, 0]] hold that triangle's entries only.  Per triangle,
# with l its nine P1 dofs [v1x v2x v3x v1y v2y v3y p1 p2 p3] and b its two
# bubbles [bx by],
#
#     [ K_ll  K_lb ] [x_l]   [b_l]       K_lb = [A_lb; B_b]
#     [ K_bl  A_bb ] [x_b] = [b_b],      K_bl = [A_bl, -B_b^T],
#
# so x_b = A_bb^-1 (b_b - K_bl x_l), and the P1 unknowns solve the Schur
# complement K_ll - K_lb A_bb^-1 K_bl with right-hand side b_l - K_lb A_bb^-1 b_b.
# Its pressure-pressure block is no longer zero.

_VERTEX = np.array([0, 1, 2, 4, 5, 6])  # vertex dofs among the 8 local velocity dofs
_BUBBLE = np.array([3, 7])


class _CondensedLayout:
    """Per-mesh maps of the condensed system, P1 dofs ordered [vx | vy | p]."""

    def __init__(self, mesh: Mesh2D, dofmap: DofMap):
        nv, t = dofmap.nv, mesh.triangles
        mini = _mini_pattern(mesh, dofmap)
        self.elem = _frozen(np.concatenate([t, nv + t, 2 * nv + t], axis=1))  # (NT, 9)
        self.pattern = _Pattern(self.elem, self.elem, (3 * nv, 3 * nv))
        idx = np.arange(nv)
        self.p1_dofs = _frozen(np.concatenate(
            [dofmap.vx_vertex(idx), dofmap.vy_vertex(idx), dofmap.pressure(idx)]))
        self.index = np.full(dofmap.n_flow, -1, dtype=np.int64)  # -1 on bubbles
        self.index[self.p1_dofs] = np.arange(3 * nv)
        _frozen(self.index)
        self.bubbles = _frozen(dofmap.velocity_element_dofs(mesh)[:, _BUBBLE])  # (NT, 2)
        # MINI data positions of the bubble rows and columns: each holds only
        # its own triangle's entry, so a gather reads the element blocks.
        self.bb = _frozen(mini.scatter[:, _BUBBLE[:, None], _BUBBLE])
        self.bl = _frozen(mini.scatter[:, _BUBBLE[:, None], _VERTEX])
        self.lb = _frozen(mini.scatter[:, _VERTEX[:, None], _BUBBLE])
        # The vertex-vertex entries of A_vv map one-to-one onto the condensed
        # data; repeated element writes of one entry agree.
        src = mini.scatter[:, _VERTEX[:, None], _VERTEX].ravel()
        dst = np.full(mini.nnz, -1, dtype=np.int64)
        dst[src] = self.pattern.scatter[:, :6, :6].ravel()
        self.ll_src = _frozen(np.flatnonzero(dst >= 0))
        self.ll_dst = _frozen(dst[self.ll_src])
        # B on the bubble columns, (NT, 3, 2), and the constant B / -G blocks
        # on the vertex columns.
        local = _divergence_local(mesh)
        self.b_bubble = _frozen(np.ascontiguousarray(local[..., 3]))
        b_vertex = local[..., :3].reshape(-1, 3, 6)
        div = np.zeros((mesh.num_triangles, 9, 9))
        div[:, 6:, :6] = b_vertex
        div[:, :6, 6:] = -b_vertex.transpose(0, 2, 1)
        self.div_data = _frozen(self.pattern.fill(div))


def _invert_2x2(A: np.ndarray) -> np.ndarray:
    """Batched inverses of (N, 2, 2) blocks; raises SingularMatrix on a block
    whose determinant vanishes to round-off or is not finite."""
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    det = a * d - b * c
    bad = ~np.isfinite(det) | (np.abs(det) <= 4.0 * np.finfo(float).eps
                               * (np.abs(a * d) + np.abs(b * c)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularMatrix(f"bubble block of triangle {k} is singular "
                             f"(det = {det[k]:.3e}, {int(bad.sum())} such triangles)")
    inv = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
    return inv / det[:, None, None]


@dataclass(frozen=True)
class CondensedSaddle:
    """The MINI saddle system [[A_vv, -G], [B, 0]] with its bubbles condensed out.

    ``matrix`` is the Schur complement on the P1 dofs [vx | vy | p] (order
    3*NV); :meth:`condense` and :meth:`recover` map right-hand sides and
    solutions between the full flow layout of :class:`DofMap` and this one,
    whose position of full dof d is ``layout.index[d]``.
    """

    layout: _CondensedLayout
    A_vv: SparseMatrix  # full velocity block on the MINI pattern
    B: SparseMatrix
    G: SparseMatrix
    matrix: SparseMatrix
    inv_bb: np.ndarray  # (NT, 2, 2) inverse bubble blocks
    k_bl: np.ndarray  # (NT, 2, 9) bubble rows on the element's P1 dofs
    w_lb: np.ndarray  # (NT, 9, 2) K_lb A_bb^-1

    def condense(self, rhs: np.ndarray) -> np.ndarray:
        """Condensed right-hand side b_l - K_lb A_bb^-1 b_b of a full flow rhs."""
        lay = self.layout
        corr = (self.w_lb @ rhs[lay.bubbles][:, :, None])[..., 0]  # (NT, 9)
        return rhs[lay.p1_dofs] - np.bincount(lay.elem.ravel(), weights=corr.ravel(),
                                              minlength=lay.p1_dofs.size)

    def recover(self, x_l: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Full flow vector from the P1 solution, bubbles A_bb^-1 (b_b - K_bl x_l)."""
        lay = self.layout
        x = np.zeros(lay.index.size)
        x[lay.p1_dofs] = x_l
        r_b = rhs[lay.bubbles] - (self.k_bl @ x_l[lay.elem][:, :, None])[..., 0]
        x[lay.bubbles] = (self.inv_bb @ r_b[:, :, None])[..., 0]
        return x

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """rhs - [[A_vv, -G], [B, 0]] x on the full (uncondensed) system."""
        v, p = x[:self.A_vv.shape[0]], x[self.A_vv.shape[0]:]
        return rhs - np.concatenate([self.A_vv @ v - self.G @ p, self.B @ v])


def assemble_condensed_saddle(mesh: Mesh2D, dofmap: DofMap, viscosity, advect=None,
                              gamma_n_tags=(), mass_coeff: float = 0.0) -> CondensedSaddle:
    """Saddle system [[mass_coeff M + A_vv, -G], [B, 0]] with the bubbles
    condensed out, from the blocks of :func:`assemble_mini_blocks` and M of
    :func:`assemble_mini_mass`.  The condensed layout is built on first use.
    Raises SingularMatrix when a bubble block cannot be inverted."""
    data = _velocity_block(mesh, dofmap, viscosity, advect, gamma_n_tags)
    if mass_coeff:
        data += mass_coeff * assemble_mini_mass(mesh, dofmap).data
    lay = _cached(mesh, "condensed_layout", lambda: _CondensedLayout(mesh, dofmap))
    inv_bb = _invert_2x2(data[lay.bb])
    k_lb = np.concatenate([data[lay.lb], lay.b_bubble], axis=1)  # (NT, 9, 2)
    k_bl = np.concatenate([data[lay.bl], -lay.b_bubble.transpose(0, 2, 1)], axis=2)
    w_lb = k_lb @ inv_bb
    schur = lay.div_data + lay.pattern.fill(-(w_lb @ k_bl))
    schur[lay.ll_dst] += data[lay.ll_src]
    return CondensedSaddle(lay, _mini_pattern(mesh, dofmap).matrix(data),
                           assemble_divergence(mesh, dofmap), _gradient_block(mesh, dofmap),
                           lay.pattern.matrix(schur), inv_bb, k_bl, w_lb)


def assemble_vector_load(mesh: Mesh2D, dofmap: DofMap, force_qp) -> np.ndarray:
    """Velocity load L[(a,c)] = integral f_c * phi_a; force_qp is (NT, NQ, 2)."""
    geo = geometry(mesh)
    force = np.asarray(force_qp, dtype=float).transpose(0, 2, 1)
    contrib = _tab(geo.qw[:, None, :] * force, geo.mini_vals)  # (NT, 2, 4)
    dofs = dofmap.velocity_element_dofs(mesh)
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=dofmap.n_velocity)
