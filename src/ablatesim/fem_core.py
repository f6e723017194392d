"""P1 and P1-bubble elements, quadrature, and assembly of the weak forms.

Velocity uses the MINI pair: each component is P1 enriched with the cubic
bubble 27*l1*l2*l3; pressure, temperature and potential are plain P1.  One
degree-6, 12-point rule integrates every interior term; the blocks linear in
a MINI velocity (convection, scalar advection) are that rule's blocks too,
formed through a reference map built from it once per process.  Boundary
integrals use 2-point Gauss on edges, through one edge kernel
(:class:`BoundaryEdges`, whose per-mesh constants :func:`boundary_edges`
builds once per tag set, as :func:`dirichlet_vertices` builds the Dirichlet
vertices).  Boundary and source data are sampled by one function,
:func:`sample`, the one place a time is bound to them.  The P1 stiffness is
one product with a per-mesh sparse operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .linalg import SingularMatrix, SparseMatrix
from .mesh import Mesh2D


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points/weights on the reference triangle (weights sum to 1/2)."""

    points: np.ndarray  # (NQ, 3) barycentric coordinates
    weights: np.ndarray  # (NQ,)


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
    return QuadratureRule(points=pts, weights=wts)


TRI_RULE = _dunavant6()

# 2-point Gauss on the unit edge parameter t in [0, 1]; exact to degree 3.
EDGE_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_W = np.array([0.5, 0.5])
EDGE_PHI = np.stack([1.0 - EDGE_T, EDGE_T])  # (2 basis, 2 Gauss points)

FILL_BLOCK = 2048  # triangles per block of the element fills (_Pattern.add_blocks)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def bubble_values(bary: np.ndarray) -> np.ndarray:
    """The cubic bubble 27 l1 l2 l3 at barycentric points ``bary``."""
    bary = np.asarray(bary, dtype=float)
    return 27.0 * bary[..., 0] * bary[..., 1] * bary[..., 2]


# The reference element's tables, the same on every triangle.  P1's basis is
# the barycentric coordinates, with constant reference gradients; the MINI
# basis adds the bubble, whose gradient is 27 times the sum of the weights
# [l2 l3, l1 l3, l1 l2] against the P1 gradients.  The values are taken at
# the interior quad points.
P1_REF_GRADS = _frozen(np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]))  # (3, 2)
P1_VALS = _frozen(TRI_RULE.points)  # (NQ, 3)
BUBBLE_VALS = _frozen(bubble_values(P1_VALS))  # (NQ,)
MINI_VALS = _frozen(np.column_stack([P1_VALS, BUBBLE_VALS]))  # (NQ, 4): [l1 l2 l3 bubble]
BUBBLE_GRAD_WEIGHTS = _frozen(P1_VALS[:, [1, 0, 0]] * P1_VALS[:, [2, 2, 1]])  # (NQ, 3)
BUBBLE_REF_GRADS = _frozen(27.0 * (BUBBLE_GRAD_WEIGHTS[:, 0, None] * P1_REF_GRADS[0]
                                   + BUBBLE_GRAD_WEIGHTS[:, 1, None] * P1_REF_GRADS[1]
                                   + BUBBLE_GRAD_WEIGHTS[:, 2, None] * P1_REF_GRADS[2]))  # (NQ, 2)


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
    """The flow dof layout of ``mesh``.  The mesh alone fixes it, so every
    function given the mesh derives it here rather than taking it too."""
    return DofMap(nv=mesh.num_vertices, nt=mesh.num_triangles)


# -- per-mesh constants (cached on the immutable mesh) ---------------------------
#
# ``geometry(mesh)`` holds the geometric factors and a lazily filled operator
# cache (patterns, constant operators), both read-only and owned by the mesh.


class _Geometry:
    """The geometric factors of a mesh's triangles: ``det``, twice the
    areas; the quadrature weights ``qw`` (NT, NQ) and points ``qp``
    (NT, NQ, 2); the constant P1 gradients ``grad_p1`` (NT, 3, 2); and the
    inverse Jacobians ``inv`` (NT, 2, 2), from which the bubble gradients at
    the quad points are formed when read (:meth:`bubble_grads`, and
    ``grad_bubble`` for all triangles), never held.  ``operators`` is the
    mesh's cache of constants (:func:`cached`)."""

    def __init__(self, mesh: Mesh2D):
        # coords[d, k] holds component d of corner k of every triangle, so the
        # (NT, 3, 2) view ``corners`` reads each (k, d) contiguously.
        coords = mesh.vertices.T[:, mesh.triangles.T]  # (2, 3, NT)
        corners = coords.transpose(2, 1, 0)
        (x0, x1, x2), (y0, y1, y2) = coords
        # The Jacobian [t, d, k] = (corner k+1 - corner 0)[d], and its inverse.
        j00, j01, j10, j11 = x1 - x0, x2 - x0, y1 - y0, y2 - y0
        det = j00 * j11 - j01 * j10
        inv = np.empty((len(det), 2, 2))
        for (i, j), entry in (((0, 0), j11), ((0, 1), -j01), ((1, 0), -j10), ((1, 1), j00)):
            np.divide(entry, det, out=inv[:, i, j])

        self.det = det  # (NT,), twice the area
        self.qw = TRI_RULE.weights[None, :] * det[:, None]  # (NT, NQ), sums to area
        self.qp = _combine(P1_VALS, corners)  # physical quad points
        self.grad_p1 = _combine(P1_REF_GRADS, inv)  # (NT,3,2)
        self.inv = inv  # (NT,2,2), [t, k, d] = d(xi_k)/d(x_d)
        for arr in (self.det, self.qw, self.qp, self.grad_p1, self.inv):
            _frozen(arr)
        self.operators: dict = {}  # see cached

    def bubble_grads(self, block=slice(None)) -> np.ndarray:
        """(n, NQ, 2) bubble gradients at the quad points of the triangles
        ``block``, a new array: the same bytes as those rows of the whole
        ``grad_bubble``."""
        return _combine(BUBBLE_REF_GRADS, self.inv[block])

    grad_bubble = property(bubble_grads, doc="(NT, NQ, 2) bubble gradients, formed on each read.")


def _combine(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(NT, Q, 2) sums over k of table[q, k] x[t, k, d] for a (Q, K) reference
    table, added term by term in k order to a zero start, as
    np.einsum("qk,tkd->tqd") adds them (so a zero sum is +0.0).  Each
    component is summed in a contiguous (Q, NT) buffer and stored with the
    zero added last, which gives the same bytes: the zero start changes only
    a sum of -0.0 terms, to +0.0."""
    out = np.empty((x.shape[0], table.shape[0], x.shape[2]))
    acc, term = np.empty(out.shape[1::-1]), np.empty(out.shape[1::-1])
    for d in range(x.shape[2]):
        np.multiply(table[:, 0, None], x[:, 0, d], out=acc)
        for k in range(1, table.shape[1]):
            acc += np.multiply(table[:, k, None], x[:, k, d], out=term)
        np.add(acc.T, 0.0, out=out[:, :, d])
    return out


def geometry(mesh: Mesh2D) -> _Geometry:
    geo = getattr(mesh, "_fem_geometry", None)
    if geo is None:
        geo = _Geometry(mesh)
        object.__setattr__(mesh, "_fem_geometry", geo)
    return geo


def cached(mesh: Mesh2D, key, build):
    """The per-mesh constant ``key``, built by ``build()`` on first use and
    kept with the mesh's geometry; an array is made read-only."""
    ops = geometry(mesh).operators
    if key not in ops:
        value = build()
        ops[key] = _frozen(value) if isinstance(value, np.ndarray) else value
    return ops[key]


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
    element t, so a refill with new element matrices is one scatter-add.
    The constructor sorts the element entries; each mesh sorts once, for its
    P1 pattern, and derives every other pattern from that one by arithmetic.
    """

    def __init__(self, row_dofs: np.ndarray, col_dofs: np.ndarray, shape):
        ncols = shape[1]
        keys = (row_dofs[:, :, None] * ncols + col_dofs[:, None, :]).ravel()
        # np.unique(keys, return_inverse=True), in fewer passes: a stable
        # sort runs fast on the nearly sorted keys of a numbered mesh.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        new = np.empty(keys.size, dtype=bool)
        new[:1] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
        uniq = sorted_keys[new]
        scatter = np.empty(keys.size, dtype=np.int32)
        scatter[order] = np.cumsum(new, dtype=np.int32) - 1
        self._set(shape,
                  np.searchsorted(uniq, np.arange(shape[0] + 1) * ncols),
                  uniq % ncols,
                  scatter.reshape(row_dofs.shape[0], row_dofs.shape[1], col_dofs.shape[1]))

    def _set(self, shape, indptr, indices, scatter) -> None:
        self.shape = shape
        self.indptr = _frozen(np.ascontiguousarray(indptr, dtype=np.int32))
        self.indices = _frozen(np.ascontiguousarray(indices, dtype=np.int32))
        self.scatter = _frozen(np.ascontiguousarray(scatter, dtype=np.int32))

    @classmethod
    def _new(cls, shape, indptr, indices, scatter) -> "_Pattern":
        pattern = cls.__new__(cls)
        pattern._set(shape, indptr, indices, scatter)
        return pattern

    @classmethod
    def blocked(cls, base: "_Pattern", k: int) -> "_Pattern":
        """The pattern of element dofs [c*N + e[:, a] for c < k], a k x k grid
        of copies of the square N x N pattern ``base`` of element dofs e:
        row c*N + i holds the k copies of row i, so no sort is needed.  Equal
        to ``_Pattern(elem, elem, (k*N, k*N))``."""
        n, nnz = base.shape[0], base.nnz
        indptr, deg = base.indptr, np.diff(base.indptr)
        nt, m = base.scatter.shape[:2]
        copies = np.arange(k, dtype=np.int32)
        # Row i of a block row starts at k*indptr[i] and holds the base columns
        # of row i shifted by c*N, for c = 0..k-1 in turn; every block row has
        # k*nnz entries.  Its piece c, of deg[i] entries, is read from copy c
        # of the base columns laid end to end, c*nnz + indptr[i] onwards.
        shifted = (base.indices + n * copies[:, None]).ravel()
        src = np.repeat((copies * (nnz - deg[:, None]) - (k - 1) * indptr[:-1, None]).ravel(),
                        np.repeat(deg, k))
        src += np.arange(k * nnz, dtype=np.int32)
        row_cols = shifted[src]
        # Local row a of element t lies in base row r = e[t, a], the row of its
        # entry (a, 0), so the shifts need only (NT, m) gathers: copy (c, c2)
        # of its entry (a, b) sits at
        # scatter[t, a, b] + (k-1)*indptr[r] + c2*deg[r] + c*k*nnz.
        r = np.repeat(np.arange(n, dtype=np.int32), deg)[base.scatter[:, :, 0]]
        shift = np.empty((nt, m, k), dtype=np.int32)
        shift[:, :, 0] = (k - 1) * indptr[r]
        for c in range(1, k):
            shift[:, :, c] = shift[:, :, c - 1] + deg[r]
        a, c2, b = np.indices((m, k, m)).reshape(3, -1)  # [a, c2, b] of a row of the block
        row = np.take(base.scatter.reshape(nt, m * m), a * m + b, axis=1)
        row += np.take(shift.reshape(nt, m * k), a * k + c2, axis=1)
        scatter = np.empty((nt, k, m * k * m), dtype=np.int32)
        for c in range(k):
            np.add(row, c * k * nnz, out=scatter[:, c])
        return cls._new((k * n, k * n),
                        np.append((k * nnz * copies[:, None] + k * indptr[:-1]).ravel(),
                                  k * k * nnz),
                        np.tile(row_cols, k), scatter.reshape(nt, k * m, k * m))

    def first_block(self, k: int) -> "_Pattern":
        """The pattern ``base`` of ``_Pattern.blocked(base, k)``, read off its
        first block: base row i starts at indptr[i] // k and is the first of
        the k copies of row i, and the element blocks' first corners lie
        (k-1) indptr[r] past their base positions, r the row of the entry."""
        n, m = self.shape[0] // k, self.scatter.shape[1] // k
        indptr = self.indptr[:n + 1] // k
        first = (k - 1) * np.repeat(indptr[:-1], np.diff(indptr)) + np.arange(indptr[-1])
        corner = self.scatter[:, :m, :m]
        r = np.searchsorted(self.indptr[:n + 1], corner[:, :, 0], side="right") - 1
        return _Pattern._new((n, n), indptr, self.indices[first],
                             corner - (k - 1) * indptr[r][:, :, None])

    @classmethod
    def with_bubbles(cls, p1: "_Pattern", triangles: np.ndarray) -> "_Pattern":
        """The pattern of element dofs [t0 t1 t2 NV+it], the P1 pattern ``p1``
        of ``triangles`` enriched with one bubble per triangle, built from it
        by arithmetic.  Equal to ``_Pattern(elem, elem, (NV+NT, NV+NT))``."""
        nv, nt, nnz = p1.shape[0], triangles.shape[0], p1.nnz
        indptr, deg = p1.indptr.astype(np.int64), np.diff(p1.indptr)
        # The triangles at each vertex in triangle order, from one stable
        # order of the 3 NT incidences: q[i] incidences belong to the
        # vertices before i, and incidence (t, a) is number rank[t, a].
        flat = triangles.ravel()
        order = np.argsort(flat, kind="stable")
        uses = np.bincount(flat, minlength=nv)
        q = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(uses, out=q[1:])
        rank = np.empty(3 * nt, dtype=np.int64)
        rank[order] = np.arange(3 * nt)
        # Vertex row i holds its P1 columns, then the bubbles of its
        # triangles, and starts at indptr[i] + q[i].  Bubble row t follows
        # the vertex rows and holds [t0 t1 t2] in increasing order, then NV + t;
        # within[t, a] is the place of t_a among them.
        bubble_start = nnz + 3 * nt + 4 * np.arange(nt + 1)
        within = np.zeros((nt, 3), dtype=np.int64)
        for a in range(3):
            for b in range(3):
                if a != b:
                    within[:, a] += triangles[:, a] > triangles[:, b]
        within += bubble_start[:-1, None]
        indices = np.empty(bubble_start[-1], dtype=np.int32)
        indices[np.arange(nnz) + np.repeat(q[:-1], deg)] = p1.indices
        indices[np.repeat(indptr[1:], uses) + np.arange(3 * nt)] = nv + order // 3
        indices[within] = triangles
        indices[bubble_start[:-1] + 3] = nv + np.arange(nt)
        scatter = np.empty((nt, 4, 4), dtype=np.int32)
        scatter[:, :3, :3] = p1.scatter + q[triangles][:, :, None]
        scatter[:, :3, 3] = indptr[triangles + 1] + rank.reshape(nt, 3)
        scatter[:, 3, :3] = within
        scatter[:, 3, 3] = bubble_start[:-1] + 3
        return cls._new((nv + nt, nv + nt), np.concatenate([indptr + q, bubble_start[1:]]),
                        indices, scatter)

    @property
    def nnz(self) -> int:
        return self.indices.size

    def fill(self, local: np.ndarray) -> np.ndarray:
        """CSR data of the sum of the (NT, k, l) element matrices ``local``."""
        return self.add(np.zeros(self.nnz), local)

    def add(self, data: np.ndarray, local: np.ndarray, start: int = 0) -> np.ndarray:
        """Add the element matrices ``local`` of elements start, start + 1, ...
        into the CSR data ``data``, in element order.  Unlike ``np.bincount``,
        this makes no intp copy of ``scatter``, and a fill split into
        consecutive element ranges sums in the same order as a whole one."""
        np.add.at(data, self.scatter[start:start + len(local)].ravel(), local.ravel())
        return data

    def add_blocks(self, data: np.ndarray, local) -> np.ndarray:
        """Add the element matrices ``local(block)`` of consecutive ranges
        ``block`` of FILL_BLOCK elements into ``data``, so that no whole
        (NT, k, l) array is held."""
        for t in range(0, self.scatter.shape[0], FILL_BLOCK):
            self.add(data, local(slice(t, t + FILL_BLOCK)), t)
        return data

    def matrix(self, data: np.ndarray) -> SparseMatrix:
        """The matrix of CSR data ``data`` on this pattern, sharing its index
        arrays: scipy copies an index array that views a small part of a
        larger one (B's rows of the MINI pattern), so its copy is replaced."""
        A = SparseMatrix((data, self.indices, self.indptr), shape=self.shape)
        A.indices = self.indices
        return A


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
    return cached(mesh, "p1_pattern",
                   lambda: _Pattern(mesh.triangles, mesh.triangles, (nv, nv)))


def _p1_matrix(mesh: Mesh2D, local: np.ndarray) -> SparseMatrix:
    """Assemble (NT, 3, 3) local matrices into the global P1 operator."""
    pattern = _p1_pattern(mesh)
    return pattern.matrix(pattern.fill(local))


ND_LEAF = 32  # vertex sets of at most this size are not dissected further


def _nested_dissection(xy: np.ndarray, pattern: _Pattern) -> np.ndarray:
    """Geometric nested-dissection order of the vertices at ``xy`` whose
    adjacency is the P1 ``pattern`` (George, SINUM 10, 1973).

    A set of more than ND_LEAF vertices is cut at the median coordinate of its
    longer extent.  The vertices of the upper half adjacent to the lower half
    form the separator, numbered after both halves, which are cut in turn.
    All sets of one level are cut together; within a leaf or a separator the
    vertices keep their index order.

    Each coordinate is read as its rank among the distinct values of its
    axis, so one integer sort of set * NV + rank per axis and level gives
    every set's extremes and median.  No adjacent pair differs by more than
    ``reach`` along an axis, so only the upper vertices within reach of the
    median are searched for the separator.
    """
    nv = xy.shape[0]
    indptr, cols = pattern.indptr, pattern.indices
    deg = np.diff(indptr)
    values, ranks, reach = [], [], np.zeros(2)
    for d in range(2):
        coord = np.ascontiguousarray(xy[:, d])
        vals, rank = np.unique(coord, return_inverse=True)
        values.append(vals)
        ranks.append(rank)
        # The pattern is symmetric, so the largest difference is also the largest modulus.
        reach[d] = (np.take(coord, cols) - np.repeat(coord, deg)).max(initial=0.0)
    # Each vertex's set occupies positions key.. of the order; a vertex still
    # to place is ``live``.  Every live set has more than ND_LEAF vertices.
    key = np.zeros(nv, dtype=np.int64)
    live = np.full(nv, nv > ND_LEAF)
    while live.any():
        v = np.flatnonzero(live)
        # Label the live sets 0, 1, ... in key order; the keys are below nv.
        per_key = np.bincount(key[v], minlength=nv)
        s = (np.cumsum(per_key > 0) - 1)[key[v]]
        count = per_key[per_key > 0]
        first = np.cumsum(count) - count
        # The ranks along each axis of each set in increasing order: the
        # lowest, median and highest of set k sit at first[k], + count[k] // 2
        # and + count[k] - 1.
        offset = np.repeat(nv * np.arange(count.size), count)
        at = np.stack([first, first + count // 2, first + count - 1])
        lo, mid, hi = np.stack([vals[np.sort(nv * s + rank[v])[at] - offset[at]]
                                for vals, rank in zip(values, ranks)], axis=-1)
        axis = np.argmax(hi - lo, axis=1)
        median = mid[np.arange(count.size), axis][s]
        axis = axis[s]
        c = xy[v, axis]
        lower = c < median
        # A median equal to the set's minimum leaves the lower half empty;
        # then the vertices at the minimum are the lower half.
        lower |= (np.bincount(s[lower], minlength=count.size) == 0)[s] & (c == median)
        # half[u] is 2*set + 1 for a live vertex in a lower half, 2*set + 2 in
        # an upper half, 0 for a placed vertex.
        half = np.zeros(nv, dtype=np.int64)
        half[v] = 2 * s + 2 - lower
        near = v[~lower & (c - median <= reach[axis])]
        near_deg = deg[near]
        entries = (np.repeat(indptr[near] - np.cumsum(near_deg) + near_deg, near_deg)
                   + np.arange(near_deg.sum()))
        cut = half[cols[entries]] == np.repeat(half[near] - 1, near_deg)
        sep = np.zeros(nv, dtype=bool)
        sep[np.repeat(near, near_deg)[cut]] = True
        sep = sep[v]
        n_lower = np.bincount(s[lower], minlength=count.size)[s]
        n_upper = count[s] - n_lower - np.bincount(s[sep], minlength=count.size)[s]
        key[v] += np.where(lower, 0, np.where(sep, n_lower + n_upper, n_lower))
        live[v] = ~sep & (np.where(lower, n_lower, n_upper) > ND_LEAF)
    return np.argsort(key, kind="stable")


def vertex_order(mesh: Mesh2D, block: int = 1) -> np.ndarray:
    """Fill-reducing order of the unknowns of a system with ``block`` dofs per
    vertex, dof c*NV + v for vertex v (1 for the P1 fields, 3 for the condensed
    flow system [vx | vy | p]): the nested-dissection order of the vertices,
    each vertex's dofs kept together.  Built on first use from the coordinates
    and the P1 adjacency; cached and read-only."""
    if block == 1:
        return cached(mesh, "vertex_order",
                      lambda: _nested_dissection(mesh.vertices, _p1_pattern(mesh)))
    nv = mesh.num_vertices
    return cached(mesh, ("vertex_order", block),
                  lambda: (vertex_order(mesh)[:, None] + nv * np.arange(block)).ravel())


def _edge_positions(pattern: _Pattern, owners: np.ndarray, local: np.ndarray, row: int = 0,
                    col: int | None = None):
    """(NE, 2, 2) data positions of boundary edges' vertex pairs, read off
    their ``owners``' scatter at the ``local`` vertex indices; a local offset
    ``row`` of 4 picks the MINI y rows, and ``col`` (``row`` when None) the y
    columns."""
    col = row if col is None else col
    return pattern.scatter[owners[:, None, None], local[:, :, None] + row,
                           local[:, None, :] + col]


# -- field evaluation ----------------------------------------------------------


def p1_at_qp(mesh: Mesh2D, nodal: np.ndarray) -> np.ndarray:
    """(NT, NQ) values of a P1 nodal field at the interior quad points."""
    return np.asarray(nodal)[mesh.triangles] @ P1_VALS.T


def p1_gradients(mesh: Mesh2D, nodal: np.ndarray) -> np.ndarray:
    """(NT, 2) elementwise-constant gradient of a P1 field."""
    geo = geometry(mesh)
    return np.einsum("tad,ta->td", geo.grad_p1, np.asarray(nodal)[mesh.triangles])


def velocity_element_coeffs(mesh: Mesh2D, u: np.ndarray) -> np.ndarray:
    """(NT, 2, 4) per-element MINI coefficients [x/y][l1 l2 l3 bubble] of the
    flow dof vector ``u``, gathered from each component's [vertices | bubbles].
    Coefficients given as ``u`` (as a velocity sample holds them) are
    returned as they are, so every function that takes a MINI velocity takes
    either."""
    u = np.asarray(u)
    if u.ndim == 3:
        return u
    nv, nt = mesh.num_vertices, mesh.num_triangles
    coeff = np.empty((nt, 2, 4))
    for c in range(2):
        comp = u[c * (nv + nt):(c + 1) * (nv + nt)]
        coeff[:, c, :3] = comp[mesh.triangles]
        coeff[:, c, 3] = comp[nv:]
    return coeff


def _mini_at_qp(coeff: np.ndarray) -> np.ndarray:
    """(n, NQ, 2) MINI velocity at the quad points of (n, 2, 4) coefficients."""
    return np.matmul(MINI_VALS, coeff.transpose(0, 2, 1))


def velocity_at_qp(mesh: Mesh2D, u: np.ndarray) -> np.ndarray:
    """(NT, NQ, 2) MINI velocity at the interior quad points; ``u`` is a flow
    dof vector or its element coefficients."""
    return _mini_at_qp(velocity_element_coeffs(mesh, u))


def velocity_grad_at_qp(mesh: Mesh2D, u: np.ndarray) -> np.ndarray:
    """(NT, NQ, 2, 2) velocity Jacobian, entry [c, d] = d(u_c)/d(x_d); ``u``
    is a flow dof vector or its element coefficients."""
    geo = geometry(mesh)
    coeff = velocity_element_coeffs(mesh, u)
    grad_p1 = coeff[:, :, :3] @ geo.grad_p1  # (NT, 2, 2), constant per element
    bubble = coeff[:, None, :, 3, None] * geo.grad_bubble[:, :, None, :]
    return grad_p1[:, None, :, :] + bubble


def velocity_at_vertices(mesh: Mesh2D, u: np.ndarray) -> np.ndarray:
    """(NV, 2) vertex velocity (bubbles have no vertex trace)."""
    u = np.asarray(u)
    dm, idx = dofmap_for(mesh), np.arange(mesh.num_vertices)
    return np.column_stack([u[dm.vx_vertex(idx)], u[dm.vy_vertex(idx)]])


def _cell_sup(values: np.ndarray) -> np.ndarray:
    """(NT,) per-cell sup of |values| over the points of (NT, Q) ``values``:
    the moduli are laid out (Q, NT), so the sup is taken over whole columns,
    not along Q-wide rows."""
    return np.abs(values.T, out=np.empty(values.shape[::-1])).max(axis=0)


# -- boundary edge helpers ------------------------------------------------------


def edge_quadrature(mesh: Mesh2D, edge_sel: np.ndarray):
    """Physical Gauss points/weights on selected boundary edges.

    Returns (points (NE,2,2), weights (NE,2), outward normals (NE,2)).
    """
    edges = mesh.boundary_edges[edge_sel]
    pa = mesh.vertices[edges[:, 0]]
    pb = mesh.vertices[edges[:, 1]]
    length = np.linalg.norm(pb - pa, axis=1)
    pts = pa[:, None, :] + EDGE_T[None, :, None] * (pb - pa)[:, None, :]
    wts = EDGE_W[None, :] * length[:, None]
    return pts, wts, mesh.boundary_outward_normals()[edge_sel]


def sample(datum, pts: np.ndarray, t: float | None = None) -> np.ndarray:
    """The values of ``datum`` at the points ``pts`` (..., 2), of shape
    pts.shape[:-1].  A datum is a constant, an array already at the points,
    or a callable returning either: callable(x, y, t) when a time ``t`` is
    given, callable(x, y) otherwise; the one place time is bound.  A tuple
    or list of k data is a vector datum, sampled with a trailing axis of k."""
    if callable(datum):
        datum = datum(pts[..., 0], pts[..., 1], *(() if t is None else (t,)))
    if isinstance(datum, (tuple, list)):
        return np.stack([sample(c, pts, t) for c in datum], axis=-1)
    return np.broadcast_to(np.asarray(datum, dtype=float), pts.shape[:-1])


class DirichletVertices:
    """The sorted boundary vertices ``dofs`` of some tags, at which
    :meth:`values` samples Dirichlet data given per tag; a vertex on two tags
    takes the value of the larger tag.  A per-mesh constant of its tag set
    (:func:`dirichlet_vertices`), it serves data that change from call to
    call, such as data that depend on time."""

    def __init__(self, mesh: Mesh2D, tags):
        self.tags = sorted(tags)
        verts = [mesh.boundary_vertices_with_tag(tag) for tag in self.tags]
        fixed = np.zeros(mesh.num_vertices, dtype=bool)
        for v in verts:
            fixed[v] = True
        self.dofs = _frozen(np.flatnonzero(fixed))
        self._points = [mesh.vertices[v] for v in verts]
        self._at = [np.searchsorted(self.dofs, v) for v in verts]

    def values(self, data: dict, t: float | None = None) -> np.ndarray:
        """The values at ``dofs`` of ``data`` (tag -> datum) at the time ``t``
        (see :func:`sample`), with a trailing component axis for vector data."""
        values = np.zeros(self.dofs.size)
        for i, (tag, pts, at) in enumerate(zip(self.tags, self._points, self._at)):
            vals = sample(data[tag], pts, t)
            if i == 0:  # the first datum sets the number of components
                values = np.zeros((self.dofs.size,) + vals.shape[1:])
            values[at] = vals  # a larger tag overwrites the shared vertices
        return values


def dirichlet_vertices(mesh: Mesh2D, tags) -> DirichletVertices:
    """The :class:`DirichletVertices` of ``tags`` (cached per tag set)."""
    tags = _tag_set(tags)
    return cached(mesh, ("dirichlet_vertices", tags), lambda: DirichletVertices(mesh, tags))


# -- boundary edge kernel ---------------------------------------------------------
#
# Every boundary integral is one of two P1 forms over selected edges, given the
# edge weights ``weights`` (NE, 2): the Gauss weights times an edge coefficient
# w at the Gauss points (alpha on a Robin edge, -(v.n)_- on an inflow edge, 1
# for a flux), times the sampled datum for a load.


def _edge_blocks(weights: np.ndarray) -> np.ndarray:
    """(NE, 2, 2) edge matrices of the integrals of w psi_a psi_b."""
    return _tab(weights, _products(EDGE_PHI.T)).reshape(-1, 2, 2)


class BoundaryEdges:
    """The boundary edges of some tags with their per-mesh constants, built
    once per mesh (:func:`boundary_edges`): ``pts`` (NE, 2, 2), ``wts``
    (NE, 2) and ``normals`` (NE, 2) are their Gauss points and weights and
    their outward normals; ``owners`` and ``local`` are their owner
    triangles and the local indices there of their two vertices; ``index``
    are their places among the mesh's boundary edges."""

    def __init__(self, mesh: Mesh2D, tags):
        sel = np.isin(mesh.boundary_tags, np.asarray(tags, dtype=np.int64))
        self.index = np.flatnonzero(sel)
        self.pts, self.wts, self.normals = edge_quadrature(mesh, sel)
        edges = mesh.boundary_edges[sel]
        self.owners = mesh.boundary_edge_owners()[sel]
        self.local = np.argmax(mesh.triangles[self.owners][:, None, :] == edges[:, :, None], axis=2)
        self._vertices = edges.T.ravel()
        self._nv, self._p1 = mesh.num_vertices, _p1_pattern(mesh)
        self._p1_positions = _edge_positions(self._p1, self.owners, self.local)
        for arr in (self.index, self.pts, self.wts, self.normals, self.owners, self.local,
                    self._vertices, self._p1_positions):
            _frozen(arr)
        self._block_positions = {}

    def mass(self, weights: np.ndarray) -> np.ndarray:
        """Data, on the full P1 pattern, of the integrals of w psi_a psi_b;
        the (NE, 2) ``weights`` may be given as their (NE, 2, 2) edge blocks
        (:func:`_edge_blocks`), as a sample carries the inflow's."""
        data = np.zeros(self._p1.nnz)
        np.add.at(data, self._p1_positions,
                  weights if weights.ndim == 3 else _edge_blocks(weights))
        return data

    def load(self, weights: np.ndarray) -> np.ndarray:
        """P1 load of the integrals of w psi_a; for the load of a datum,
        ``weights`` carry its samples (w * data)."""
        contrib = _tab(weights, EDGE_PHI.T)  # (NE, 2)
        return np.bincount(self._vertices, weights=contrib.T.ravel(), minlength=self._nv)

    def trace(self, coeff: np.ndarray) -> np.ndarray:
        """(NE, 2, 2) velocity [edge, Gauss point, component] of the MINI
        element coefficients ``coeff``: the P1 trace of the vertex values,
        exact since the bubbles vanish on edges."""
        va = coeff[self.owners, :, self.local[:, 0]]
        vb = coeff[self.owners, :, self.local[:, 1]]
        return va[:, None, :] * EDGE_PHI[0][:, None] + vb[:, None, :] * EDGE_PHI[1][:, None]

    def block_positions(self, mini: _Pattern, d: int, c: int) -> np.ndarray:
        """(NE, 2, 2) data positions, on the MINI pattern ``mini``, of the
        vertex pairs in the velocity block (d, c), built on first use."""
        if (d, c) not in self._block_positions:
            self._block_positions[d, c] = _frozen(
                _edge_positions(mini, self.owners, self.local, 4 * d, 4 * c))
        return self._block_positions[d, c]


def _tag_set(tags) -> tuple:
    """The sorted distinct tags of an iterable of tags: a per-mesh cache key."""
    return tuple(sorted({int(tag) for tag in tags}))


def boundary_edges(mesh: Mesh2D, tags) -> BoundaryEdges:
    """The :class:`BoundaryEdges` of ``tags`` (cached per tag set)."""
    tags = _tag_set(tags)
    return cached(mesh, ("boundary_edges", tags), lambda: BoundaryEdges(mesh, tags))


# -- reference maps of the velocity-linear forms --------------------------------
#
# The convective form of the flow and the advection matrix of the heat are
# bilinear in an element's 8 MINI velocity coefficients (NT, 2, 4) and its 6
# P1 gradient entries (NT, 3, 2), and scale with det: the bubble gradient is
# 27 sum_m l_n l_p grad(l_m), and every basis-value integral is det times a
# reference one.  So an element's block is x R, with x the 48 products
# det c_i g_j and R a constant (48, m) map: the tensor representation of
# Kirby & Logg ("A compiler for variational forms", ACM TOMS 32, 2006), a
# vectorized assembly (Cuvelier, Japhet & Scarella, BIT 56, 2016) with the
# quadrature loop moved out of the step.  R is the form's own quadrature
# kernel, applied once per process to the 48 unit inputs, so each form keeps
# its one definition and its quadrature.


@cache
def _reference_map(kernel) -> np.ndarray:
    """(48, m) map R of the quadrature kernel ``kernel(geo, a_qp)``: row
    6 i + j is its m-entry block on an element of unit det with the unit
    coefficient i of [x|y][l1 l2 l3 bubble] and the unit gradient entry j of
    [l1 l2 l3][x|y], all 48 in one batched call."""
    unit = np.eye(48)
    coeff = unit.reshape(48, 8, 6).sum(axis=2).reshape(48, 2, 4)
    grad = unit.reshape(48, 8, 6).sum(axis=1).reshape(48, 3, 2)
    geo = SimpleNamespace(qw=np.tile(TRI_RULE.weights, (48, 1)), grad_p1=grad,
                          grad_bubble=27.0 * np.einsum("qm,imd->iqd", BUBBLE_GRAD_WEIGHTS, grad))
    return _frozen(kernel(geo, _mini_at_qp(coeff)).reshape(48, -1))


def _reference_blocks(geo: _Geometry, coeff: np.ndarray, kernel, block=slice(None)) -> np.ndarray:
    """(n, m) element blocks of ``kernel``'s form for the triangles ``block``,
    advected by the MINI field of element coefficients ``coeff`` (theirs
    only): (det c (x) grad_p1) R, one GEMM."""
    x = np.repeat(coeff.reshape(-1, 8) * geo.det[block, None], 6, axis=1)  # [t, 6 i + j] = c_i
    x *= np.tile(geo.grad_p1[block].reshape(-1, 6), 8)  # times g_j
    return x @ _reference_map(kernel)


# -- scalar-field assembly --------------------------------------------------------


def _stiffness_operator(mesh: Mesh2D) -> sp.csc_matrix:
    """The (nnz, NT) map from per-triangle scales to the P1 stiffness data:
    column t holds triangle t's 3x3 gradient products at its scatter rows, in
    element order, so the product sums the scaled element matrices in the
    order of :meth:`_Pattern.fill`.  It holds the gradient products and
    wraps the P1 scatter as it is, with an int32 column pointer: no sort."""
    def build():
        g, pattern = geometry(mesh).grad_p1, _p1_pattern(mesh)
        products = _frozen(g @ g.transpose(0, 2, 1))
        nt = mesh.num_triangles
        return sp.csc_matrix((products.reshape(-1), pattern.scatter.reshape(-1),
                              _frozen(np.arange(0, 9 * nt + 1, 9, dtype=np.int32))),
                             shape=(pattern.nnz, nt))

    return cached(mesh, "stiffness_operator", build)


def assemble_stiffness(mesh: Mesh2D, coeff=1.0) -> SparseMatrix:
    """P1 stiffness with scalar/per-triangle/per-quad-point diffusion
    coefficient: one sparse product of the per-mesh stiffness operator with
    the per-triangle scales (the P1 gradients are constant)."""
    geo = geometry(mesh)
    scale = np.einsum("tq,tq->t", geo.qw, _coeff_at_qp(mesh, coeff))
    return _p1_pattern(mesh).matrix(_stiffness_operator(mesh) @ scale)


def assemble_mass(mesh: Mesh2D) -> SparseMatrix:
    """P1 mass matrix (cached, read-only)."""
    def build():
        geo = geometry(mesh)
        local = _tab(geo.qw, _products(P1_VALS)).reshape(-1, 3, 3)
        return _frozen_csr(_p1_matrix(mesh, local))

    return cached(mesh, "p1_mass", build)


def assemble_boundary_load(mesh: Mesh2D, tags, data) -> np.ndarray:
    """Load vector of the datum ``data`` (see :func:`sample`) against P1
    traces over the edges with the given tags."""
    edges = boundary_edges(mesh, tags)
    return edges.load(edges.wts * sample(data, edges.pts))


def _advection_local(geo, vel_qp: np.ndarray) -> np.ndarray:
    """(NT, 3, 3) element matrices [i, j] = integral (v . grad(l_j)) l_i of
    the velocity ``vel_qp`` at the quad points; the kernel of the reference map."""
    wv = geo.qw[:, None, :] * vel_qp.transpose(0, 2, 1)
    wv_l = _tab(wv, P1_VALS)  # (NT, 2, 3): [t, d, a] = integral v_d l_a
    return wv_l.transpose(0, 2, 1) @ geo.grad_p1.transpose(0, 2, 1)


def assemble_advection(mesh: Mesh2D, velocity) -> SparseMatrix:
    """Scalar advection matrix D_ij = integral (v . grad(l_j)) l_i of the
    MINI field with the (NT, 2, 4) element coefficients ``velocity`` (as a
    :class:`flow_solver.VelocitySample` holds them), by the reference map."""
    geo, pattern = geometry(mesh), _p1_pattern(mesh)

    def local(block):
        return _reference_blocks(geo, velocity[block], _advection_local, block)
    return pattern.matrix(pattern.add_blocks(np.zeros(pattern.nnz), local))


def assemble_scalar_load(mesh: Mesh2D, source) -> np.ndarray:
    """Volume load f_i = integral source * l_i; source scalar or (NT, NQ)."""
    geo = geometry(mesh)
    contrib = _tab(geo.qw * _coeff_at_qp(mesh, source), P1_VALS)  # (NT, 3)
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
# varies over the quadrature points.  The viscous block is filled by
# quadrature (a uniform viscosity scales a per-mesh constant); the convective
# block is the advecting MINI field's element coefficients times the
# reference map above.


def _mini_pattern(mesh: Mesh2D) -> _Pattern:
    """The pattern of the velocity block: two copies, x and y, of the P1
    pattern enriched with the bubbles."""
    return cached(mesh, "mini_pattern", lambda: _Pattern.blocked(
        _Pattern.with_bubbles(_p1_pattern(mesh), mesh.triangles), 2))


def _viscous_local(geo: _Geometry, wnu: np.ndarray, block=slice(None)) -> np.ndarray:
    """(NT, 8, 8) viscous element matrices of integral nu D(u):D(w), for the
    triangles of ``block`` (``wnu`` holds only theirs).

    E[(d,a),(c,b)] = 1/2 integral nu (d_d phi_b d_c phi_a
                                      + delta_dc grad phi_a . grad phi_b),
    with ``wnu`` the quadrature weights times nu.
    """
    nt, nq = wnu.shape
    grads = np.empty((nt, nq, 4, 2))  # [t, q, a, c] = d_c(phi_a)
    grads[:, :, :3] = geo.grad_p1[block, None]
    grads[:, :, 3] = geo.bubble_grads(block)
    g = grads.reshape(nt, nq, 8)
    gram = ((g.transpose(0, 2, 1) * wnu[:, None, :]) @ g).reshape(nt, 4, 2, 4, 2)
    # gram[t, a, c, b, d] = integral nu d_c(phi_a) d_d(phi_b)
    local = 0.5 * gram.transpose(0, 4, 1, 2, 3)  # [t, d, a, c, b]
    grad_dot = gram[:, :, 0, :, 0] + gram[:, :, 1, :, 1]
    for d in range(2):
        local[:, d, :, d, :] += 0.5 * grad_dot
    return local.reshape(nt, 8, 8)


def _convective_local(geo: _Geometry, a_qp: np.ndarray) -> np.ndarray:
    """(NT, 8, 8) element matrices of the convective form -(a x u):D(w)
    advected by ``a_qp`` at the quad points; the kernel of the reference map.

    E[(d,a),(c,b)] = -1/2 integral phi_b (a_d d_c phi_a + delta_dc a . grad phi_a).
    """
    g1 = geo.grad_p1
    nt = g1.shape[0]
    wa = geo.qw[:, None, :] * a_qp.transpose(0, 2, 1)  # (NT, 2, NQ)
    m = _tab(wa, MINI_VALS)  # [t, d, b] = integral a_d phi_b
    wa_gb = np.empty(wa.shape[:2] + (2,) + wa.shape[2:])  # one bubble derivative at a time
    for c in range(2):
        np.multiply(wa, geo.grad_bubble[:, None, :, c], out=wa_gb[:, :, c])
    n = _tab(wa_gb, MINI_VALS)  # [t, d, c, b] = integral a_d d_c(bubble) phi_b
    t1 = np.empty((nt, 2, 4, 2, 4))  # [t, d, a, c, b] = integral a_d d_c(phi_a) phi_b
    t1[:, :, :3] = g1[:, None, :, :, None] * m[:, :, None, None, :]
    t1[:, :, 3] = n
    local = -0.5 * t1
    a_dot_grad = t1[:, 0, :, 0, :] + t1[:, 1, :, 1, :]  # integral (a . grad phi_a) phi_b
    for d in range(2):
        local[:, d, :, d, :] -= 0.5 * a_dot_grad
    return local.reshape(nt, 8, 8)


def _viscous_data(geo: _Geometry, pattern: _Pattern, wnu: np.ndarray) -> np.ndarray:
    """CSR data of the viscous block with weights ``wnu``, filled a block of
    triangles at a time so that no (NT, 8, 8) array is held."""
    return pattern.add_blocks(np.zeros(pattern.nnz),
                              lambda block: _viscous_local(geo, wnu[block], block))


def _velocity_block(mesh: Mesh2D, viscosity, advect, gamma_n_tags,
                    mass_coeff: float = 0.0) -> np.ndarray:
    """CSR data, on the MINI pattern, of the velocity block A_vv plus
    ``mass_coeff`` times the MINI mass, added without a full-size temporary."""
    geo = geometry(mesh)
    pattern = _mini_pattern(mesh)
    nu = _coeff_at_qp(mesh, viscosity)
    if nu.size and nu.min() == nu.max():
        # Uniform viscosity: the viscous block is nu times a per-mesh constant.
        unit = cached(mesh, "viscous_unit", lambda: _viscous_data(geo, pattern, geo.qw))
        data = nu.flat[0] * unit
    else:
        data = _viscous_data(geo, pattern, geo.qw * nu)
    if advect is not None:
        _add_convection(mesh, data, advect, gamma_n_tags)
    if mass_coeff:
        _add_mini_mass(mesh, data, mass_coeff)
    return data


def _add_convection(mesh: Mesh2D, data: np.ndarray, advect, gamma_n_tags,
                    newton: bool = False) -> None:
    """Add to the MINI data ``data`` the convective form c(a; u, w) =
    -integral (a x u):D(w) plus s(a; u, w) = integral_{Gamma_N} (a.n)(u.w),
    advected by ``a`` = ``advect``; with ``newton``, their derivative in u at
    u = a instead, for the velocity ``advect``.  ``advect`` is a MINI
    velocity (flow dofs or element coefficients); the volume blocks come from
    the reference map and the surface term from its trace on the edges.

    c(a; u, w) is symmetric in a and u, since D(w) is, so the derivative of
    c(u; u, w) is 2 c(u; ., w): the volume form advected by 2u, exactly.  The
    derivative of s(u; u, w) adds integral_{Gamma_N} (delta.n)(u.w) to
    s(u; delta, w), the (d, c) velocity block with weight u_d n_c.
    """
    geo = geometry(mesh)
    pattern = _mini_pattern(mesh)
    coeff = velocity_element_coeffs(mesh, advect)
    a_coeff = 2.0 * coeff if newton else coeff  # an exact scaling
    pattern.add_blocks(data, lambda block: _reference_blocks(geo, a_coeff[block],
                                                             _convective_local, block))
    # Convective surface term integral_{Gamma_N} (a.n)(u.w), per component.
    edges = boundary_edges(mesh, gamma_n_tags)
    if not edges.owners.size:
        return
    a_e = edges.trace(coeff)
    surf = _edge_blocks(edges.wts * (a_e * edges.normals[:, None, :]).sum(axis=-1))
    for comp in range(2):
        np.add.at(data, edges.block_positions(pattern, comp, comp), surf)
    if newton:
        for d in range(2):
            for c in range(2):
                np.add.at(data, edges.block_positions(pattern, d, c),
                          _edge_blocks(edges.wts * a_e[..., d] * edges.normals[:, None, c]))


def mini_mass_block(mesh: Mesh2D) -> SparseMatrix:
    """The scalar block of the MINI velocity mass, integral phi_a phi_b over
    [l1 l2 l3 bubble] on the P1 pattern enriched with the bubbles, rows and
    columns [vertices | bubbles] (cached, read-only).  The mass is this
    block on the x-x and the y-y velocity blocks and zero elsewhere, so it
    is held once: :func:`_add_mini_mass` adds it to velocity block data and
    :func:`mini_mass_product` applies it."""
    def build():
        pattern = _mini_pattern(mesh).first_block(2)
        block = _tab(geometry(mesh).qw, _products(MINI_VALS)).reshape(-1, 4, 4)
        return _frozen_csr(pattern.matrix(pattern.fill(block)))

    return cached(mesh, "mini_mass_block", build)


def _add_mini_mass(mesh: Mesh2D, data: np.ndarray, coeff: float) -> None:
    """Add ``coeff`` times the MINI mass to the MINI data ``data``: the
    scalar block at its x-x and y-y positions, a block of rows at a time,
    so that no full-size temporary is made.  By the layout of
    :meth:`_Pattern.blocked`, entry e of row i of the block lies at
    indptr[i] + e of the x-x block and at 2 nnz + indptr[i + 1] + e of the
    y-y block."""
    mass = mini_mass_block(mesh)
    for start in range(0, mass.shape[0], FILL_BLOCK):
        ptr = mass.indptr[start:start + FILL_BLOCK + 1]
        deg = np.diff(ptr)
        at = np.repeat(ptr[:-1], deg) + np.arange(ptr[0], ptr[-1])
        part = coeff * mass.data[ptr[0]:ptr[-1]]
        data[at] += part
        at += np.repeat(deg, deg)
        at += 2 * mass.nnz
        data[at] += part


def mini_mass_product(mesh: Mesh2D, v: np.ndarray) -> np.ndarray:
    """M v of the MINI velocity mass M and a velocity ``v`` (flow velocity
    dofs): the scalar block applied to each component."""
    mass, v = mini_mass_block(mesh), np.asarray(v, dtype=float)
    n = mass.shape[0]
    return np.concatenate([mass @ v[:n], mass @ v[n:]])


def _divergence_local(mesh: Mesh2D) -> np.ndarray:
    """(NT, 3, 2, 4) element blocks of B: [t, i, c, b] = integral psi_i d_c(phi_b)."""
    geo = geometry(mesh)
    psi = _tab(geo.qw, P1_VALS)  # (NT, 3): integral psi_i
    bubble = _tab(geo.qw[:, None, :] * geo.bubble_grads().transpose(0, 2, 1),
                  P1_VALS)  # (NT, 2, 3): integral psi_i d_c(bubble)
    local = np.empty((mesh.num_triangles, 3, 2, 4))
    local[..., :3] = psi[:, :, None, None] * geo.grad_p1.transpose(0, 2, 1)[:, None]
    local[..., 3] = bubble.transpose(0, 2, 1)
    return local


def _divergence_pattern(mesh: Mesh2D) -> _Pattern:
    """The pattern of B.  Row i holds the velocity dofs of the triangles at
    vertex i, as the MINI pattern's x row of vertex i does: it is those rows."""
    mini, nv = _mini_pattern(mesh), mesh.num_vertices
    return _Pattern._new((nv, mini.shape[1]), mini.indptr[:nv + 1],
                         mini.indices[:mini.indptr[nv]], mini.scatter[:, :3])


def assemble_divergence(mesh: Mesh2D) -> SparseMatrix:
    """Divergence block B, (Bu)_i = integral psi_i div(u) (cached, read-only)."""
    def build():
        pattern = _divergence_pattern(mesh)
        return _frozen_csr(pattern.matrix(pattern.fill(_divergence_local(mesh))))

    return cached(mesh, "divergence", build)


# -- static condensation of the MINI bubbles -------------------------------------
#
# A bubble dof lives in one triangle, so its row and its column of the saddle
# matrix [[A_vv, -B^T], [B, 0]] hold that triangle's entries only.  Per triangle,
# with l its nine P1 dofs [v1x v2x v3x v1y v2y v3y p1 p2 p3] and b its two
# bubbles [bx by],
#
#     [ K_ll  K_lb ] [x_l]   [b_l]       K_lb = [A_lb; B_b]
#     [ K_bl  A_bb ] [x_b] = [b_b],      K_bl = [A_bl, -B_b^T],
#
# so x_b = A_bb^-1 (b_b - K_bl x_l), and the P1 unknowns solve the Schur
# complement K_ll - K_lb A_bb^-1 K_bl with right-hand side b_l - K_lb A_bb^-1 b_b.
# Its pressure-pressure block is no longer zero.

_BUBBLE = np.array([3, 7])  # bubble dofs among the 8 local velocity dofs


class _CondensedLayout:
    """Per-mesh maps of the condensed system, P1 dofs ordered [vx | vy | p]."""

    def __init__(self, mesh: Mesh2D):
        dm, nv, t = dofmap_for(mesh), mesh.num_vertices, mesh.triangles
        mini, p1, B = _mini_pattern(mesh), _p1_pattern(mesh), assemble_divergence(mesh)
        self.elem = _frozen(np.concatenate([t, nv + t, 2 * nv + t], axis=1))  # (NT, 9)
        self.pattern = _Pattern.blocked(p1, 3)
        idx = np.arange(nv)
        self.p1_dofs = _frozen(np.concatenate(
            [dm.vx_vertex(idx), dm.vy_vertex(idx), dm.pressure(idx)]))
        self.index = np.full(dm.n_flow, -1, dtype=np.int64)  # -1 on bubbles
        self.index[self.p1_dofs] = np.arange(3 * nv)
        _frozen(self.index)
        it = np.arange(len(t))
        self.bubbles = _frozen(np.column_stack([dm.vx_bubble(it), dm.vy_bubble(it)]))  # (NT, 2)
        # MINI data positions of the bubble rows and columns: each holds only
        # its own triangle's entry, so a gather reads the element blocks.
        pos = mini.scatter.reshape(-1, 2, 4, 2, 4)  # [t, c, a, c2, b]
        self.bb = _frozen(pos[:, :, 3, :, 3].copy())  # (NT, 2, 2)
        self.bl = _frozen(pos[:, :, 3, :, :3].reshape(-1, 2, 6))
        self.lb = _frozen(pos[:, :, :3, :, 3].reshape(-1, 6, 2))
        # Row c*NV + i of the condensed pattern holds copy c2 = 0, 1, 2 of P1
        # row i; velocity row c of vertex i in the MINI pattern (row
        # c*(NV+NT) + i, whose first NV rows are B's) holds copies 0 and 1,
        # each followed by the bubbles at vertex i.  So copy (c, c2) of P1
        # entry e of row i lies at e plus a per-row shift: the shift of that
        # row's start, a copy's width per copy, less P1's start of the row.
        deg = np.diff(p1.indptr)
        start, entry = p1.indptr[:-1], np.arange(p1.nnz)

        def mini_at(c, c2):
            row = mini.indptr[c * (nv + len(t)):][:nv + 1]
            return np.repeat(row[:-1] + c2 * (np.diff(row) // 2) - start, deg) + entry

        def condensed_at(c, c2):
            return np.repeat(3 * p1.nnz * c + 2 * start + c2 * deg, deg) + entry

        # The vertex-vertex entries of A_vv map one-to-one onto the condensed data.
        pairs = [(c, c2) for c in range(2) for c2 in range(2)]
        self.ll_src = _frozen(np.concatenate([mini_at(c, c2) for c, c2 in pairs]))
        self.ll_dst = _frozen(np.concatenate([condensed_at(c, c2) for c, c2 in pairs]))
        # B on the bubble columns, (NT, 3, 2), each of which holds its own
        # triangle's entry only, and the constant B / -B^T blocks on the vertex
        # columns: all read off B's data, summed in the same element order as
        # fills of the element blocks would sum them.  P1 entry e's transpose
        # is entry mirror[e].  0 - B, unlike -B, keeps a zero entry +0.0, as a
        # fill of the negated blocks does.
        self.b_bubble = _frozen(B.data[mini.scatter[:, :3, _BUBBLE]])
        mirror = np.empty(p1.nnz, dtype=np.int64)
        mirror[p1.scatter] = p1.scatter.transpose(0, 2, 1)
        div = np.zeros(self.pattern.nnz)
        for c in range(2):
            b_c = B.data[mini_at(0, c)]
            div[condensed_at(2, c)] = b_c
            div[condensed_at(c, 2)] = 0.0 - b_c[mirror]
        self.div_data = _frozen(div)


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


@dataclass
class CondensedSaddle:
    """The MINI saddle system [[A_vv, -B^T], [B, 0]] with its bubbles condensed out.

    ``matrix`` is the Schur complement on the P1 dofs [vx | vy | p] (order
    3*NV); :meth:`condense` and :meth:`recover` map right-hand sides and
    solutions between the full flow layout of :class:`DofMap` and this one,
    whose position of full dof d is ``layout.index[d]``.
    """

    layout: _CondensedLayout
    A_vv: SparseMatrix  # full velocity block on the MINI pattern
    B: SparseMatrix
    matrix: SparseMatrix | None  # None once released (take_matrix)
    inv_bb: np.ndarray  # (NT, 2, 2) inverse bubble blocks
    w_lb: np.ndarray | None  # (NT, 9, 2) K_lb A_bb^-1 of the Schur complement, until condensed

    def condense(self, rhs: np.ndarray) -> np.ndarray:
        """Condensed right-hand side b_l - K_lb A_bb^-1 b_b of a full flow rhs.
        It reads the couplings K_lb A_bb^-1 that formed the Schur complement
        and releases them, so that a solve of the condensed system does not
        hold them; a later call forms them again."""
        lay = self.layout
        w_lb = _w_lb(lay, self.A_vv.data, self.inv_bb) if self.w_lb is None else self.w_lb
        self.w_lb = None
        corr = (w_lb @ rhs[lay.bubbles][:, :, None])[..., 0]  # (NT, 9)
        return rhs[lay.p1_dofs] - np.bincount(lay.elem.ravel(), weights=corr.ravel(),
                                              minlength=lay.p1_dofs.size)

    def take_matrix(self) -> SparseMatrix:
        """The condensed matrix, which the saddle releases: a solve that
        rebinds it to its eliminated copy frees it before factorizing."""
        matrix, self.matrix = self.matrix, None
        return matrix

    def recover(self, x_l: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Full flow vector from the P1 solution, bubbles A_bb^-1 (b_b - K_bl x_l)."""
        lay = self.layout
        x = np.zeros(lay.index.size)
        x[lay.p1_dofs] = x_l
        r_b = rhs[lay.bubbles] - np.einsum("tij,tj->ti", _k_bl(lay, self.A_vv.data), x_l[lay.elem])
        x[lay.bubbles] = np.einsum("tij,tj->ti", self.inv_bb, r_b)
        return x

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """rhs - [[A_vv, -B^T], [B, 0]] x on the full (uncondensed) system."""
        v, p = x[:self.A_vv.shape[0]], x[self.A_vv.shape[0]:]
        return rhs - np.concatenate([self.A_vv @ v - self.B.T @ p, self.B @ v])


def _k_bl(lay: _CondensedLayout, data: np.ndarray, t=slice(None)) -> np.ndarray:
    """(n, 2, 9) K_bl of the triangles ``t``, read from the velocity block data."""
    return np.concatenate([data[lay.bl[t]], -lay.b_bubble[t].transpose(0, 2, 1)], axis=2)


def _w_lb(lay: _CondensedLayout, data: np.ndarray, inv_bb: np.ndarray) -> np.ndarray:
    """(NT, 9, 2) K_lb A_bb^-1, read from the velocity block data."""
    return np.concatenate([data[lay.lb], lay.b_bubble], axis=1) @ inv_bb


def assemble_condensed_saddle(mesh: Mesh2D, viscosity, advect=None, gamma_n_tags=(),
                              mass_coeff: float = 0.0) -> CondensedSaddle:
    """Saddle system [[mass_coeff M + A_vv, -B^T], [B, 0]] with the bubbles
    condensed out.  A_vv is the viscous form integral nu D(u):D(w) of the
    ``viscosity`` (scalar, per triangle or per quadrature point) plus, when
    ``advect`` is given, the convective form -integral (a x u):D(w) +
    integral_{Gamma_N} (a.n)(u.w), with the surface term on the
    ``gamma_n_tags`` edges; ``advect`` is a flow dof vector or its element
    coefficients.  M is the MINI mass (:func:`mini_mass_block`) and B the
    divergence (:func:`assemble_divergence`).  The condensed layout is built
    on first use.  Raises SingularMatrix when a bubble block cannot be
    inverted."""
    return _condensed_saddle(mesh, _velocity_block(mesh, viscosity, advect, gamma_n_tags,
                                                   mass_coeff))


def assemble_newton_saddle(mesh: Mesh2D, viscosity, u: np.ndarray, gamma_n_tags=()):
    """Newton linearization at the velocity ``u`` of the stationary saddle
    system whose velocity block is nu V + C(u), the viscous form plus the
    convective form of :func:`assemble_condensed_saddle` advected by the
    velocity itself: returns (saddle, load), the condensed [[nu V + N(u), -B^T],
    [B, 0]] with N(u) the derivative of C(u) u, and the velocity load
    C(u) u = 1/2 N(u) u.  The next Newton iterate solves saddle x = [f + load; 0].
    Raises SingularMatrix when a bubble block cannot be inverted."""
    pattern = _mini_pattern(mesh)
    conv = np.zeros(pattern.nnz)
    _add_convection(mesh, conv, u, gamma_n_tags, newton=True)
    load = 0.5 * (pattern.matrix(conv) @ u)
    data = _velocity_block(mesh, viscosity, None, ())
    data += conv
    return _condensed_saddle(mesh, data), load


def _condensed_saddle(mesh: Mesh2D, data: np.ndarray) -> CondensedSaddle:
    """The saddle system with the velocity block data ``data``, condensed."""
    lay = cached(mesh, "condensed_layout", lambda: _CondensedLayout(mesh))
    inv_bb = _invert_2x2(data[lay.bb])
    # The Schur updates -K_lb A_bb^-1 K_bl are formed and added a block of
    # triangles at a time, so that no (NT, 9, 9) array is held.  K_lb A_bb^-1
    # is formed once, for them and for condense; K_bl, a gather, is read
    # block by block here and again by recover, after the solve.
    w_lb = _w_lb(lay, data, inv_bb)

    def update(block):
        local = w_lb[block] @ _k_bl(lay, data, block)
        return np.negative(local, out=local)

    schur = lay.pattern.add_blocks(np.zeros(lay.pattern.nnz), update)
    schur += lay.div_data
    schur[lay.ll_dst] += data[lay.ll_src]
    return CondensedSaddle(lay, _mini_pattern(mesh).matrix(data), assemble_divergence(mesh),
                           lay.pattern.matrix(schur), inv_bb, w_lb)


def assemble_vector_load(mesh: Mesh2D, force_qp) -> np.ndarray:
    """Velocity load L[(a,c)] = integral f_c * phi_a; force_qp is (NT, NQ, 2)."""
    geo = geometry(mesh)
    force = np.asarray(force_qp, dtype=float).transpose(0, 2, 1)
    contrib = _tab(geo.qw[:, None, :] * force, MINI_VALS)  # (NT, 2, 4)
    dm = dofmap_for(mesh)
    return np.bincount(dm.velocity_element_dofs(mesh).ravel(), weights=contrib.ravel(),
                       minlength=dm.n_velocity)
