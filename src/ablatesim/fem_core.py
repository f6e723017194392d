"""P1 and P1-bubble elements, quadrature, and assembly of the weak forms.

Velocity uses the MINI pair: each component is P1 enriched with the cubic
bubble 27*l1*l2*l3; pressure, temperature and potential are plain P1.  One
degree-6, 12-point rule integrates every interior term; the velocity block
(its viscous part for a uniform viscosity, convection and mass), the
divergence and the scalar advection are that rule's blocks too, formed
through reference maps built from it once per process.  Boundary
integrals use 2-point Gauss on edges, through one edge kernel
(:class:`BoundaryEdges`, whose per-mesh constants :func:`boundary_edges`
builds once per tag set, as :func:`dirichlet_vertices` builds the Dirichlet
vertices).  Boundary and source data are sampled by one function,
:func:`sample`, the one place a time is bound to them.  The P1 stiffness is
one product with a per-mesh sparse operator.  Every sparsity pattern but
P1's is derived from it by arithmetic; a blocked pattern (the velocity
block's, the condensed system's, :class:`_BlockedPattern`) holds its base's
data positions and its row shifts, not its own, and forms the positions of
each range of elements as it fills it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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
# The basis values times the rule's weights: a triangle's integral of a
# sampled field against its basis is det times the field's product with these.
WEIGHTED_P1 = _frozen(TRI_RULE.weights[:, None] * P1_VALS)  # (NQ, 3)
WEIGHTED_MINI = _frozen(TRI_RULE.weights[:, None] * MINI_VALS)  # (NQ, 4)


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
    areas; the constant P1 gradients ``grad_p1`` (NT, 3, 2); and the
    inverse Jacobians ``inv`` (NT, 2, 2), from which the bubble gradients at
    the quad points are formed when read (:meth:`bubble_grads`), never
    held.  No (NT, NQ) array is held: a quadrature weight is det times the
    rule's constant weight, and the points are formed on use
    (:func:`quadrature_points`).
    ``operators`` is the mesh's cache of constants (:func:`cached`)."""

    def __init__(self, mesh: Mesh2D):
        (x0, x1, x2), (y0, y1, y2) = mesh.vertices.T[:, mesh.triangles.T]  # (2, 3, NT)
        # The Jacobian [t, d, k] = (corner k+1 - corner 0)[d], and its inverse.
        j00, j01, j10, j11 = x1 - x0, x2 - x0, y1 - y0, y2 - y0
        det = j00 * j11 - j01 * j10
        inv = np.empty((len(det), 2, 2))
        for (i, j), entry in (((0, 0), j11), ((0, 1), -j01), ((1, 0), -j10), ((1, 1), j00)):
            np.divide(entry, det, out=inv[:, i, j])

        self.det = det  # (NT,), twice the area
        self.grad_p1 = _combine(P1_REF_GRADS, inv)  # (NT,3,2)
        self.inv = inv  # (NT,2,2), [t, k, d] = d(xi_k)/d(x_d)
        for arr in (self.det, self.grad_p1, self.inv):
            _frozen(arr)
        self.operators: dict = {}  # see cached

    def bubble_grads(self, block=slice(None)) -> np.ndarray:
        """(n, NQ, 2) bubble gradients at the quad points of the triangles
        ``block``, a new array: the same bytes as those rows of all
        triangles' gradients."""
        return _combine(BUBBLE_REF_GRADS, self.inv[block])


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


def quadrature_points(mesh: Mesh2D) -> np.ndarray:
    """(NT, NQ, 2) physical quad points, the P1 combination of the corners,
    formed on each call: a step reads none, so no mesh holds them."""
    coords = mesh.vertices.T[:, mesh.triangles.T]  # (2, 3, NT)
    return _combine(P1_VALS, coords.transpose(2, 1, 0))


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

    ``positions(start, stop)`` are the CSR data positions of the local
    entries of elements start, start + 1, ..., stop - 1: [t, i, j] is that
    of entry (i, j) of element start + t, so a refill with new element
    matrices is one scatter-add.  This class holds every element's
    positions, ``scatter``.  Its constructor sorts the element entries; each
    mesh sorts once, for its P1 pattern, and derives every other pattern
    from that one by arithmetic.  A blocked pattern
    (:class:`_BlockedPattern`) holds no positions of its own: it forms each
    range's from its base's as it fills.
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
        self._set_rows(shape, indptr, indices)
        self.scatter = _frozen(np.ascontiguousarray(scatter, dtype=np.int32))

    def _set_rows(self, shape, indptr, indices) -> None:
        self.shape = shape
        self.indptr = _frozen(np.ascontiguousarray(indptr, dtype=np.int32))
        self.indices = _frozen(np.ascontiguousarray(indices, dtype=np.int32))

    @classmethod
    def _new(cls, shape, indptr, indices, scatter) -> "_Pattern":
        pattern = cls.__new__(cls)
        pattern._set(shape, indptr, indices, scatter)
        return pattern

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

    @property
    def num_elements(self) -> int:
        return self.scatter.shape[0]

    def positions(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The (n, k, l) data positions of elements start, ..., stop - 1
        (all elements by default): a view of ``scatter``."""
        return self.scatter[start:stop]

    def fill(self, local: np.ndarray) -> np.ndarray:
        """CSR data of the sum of the (NT, k, l) element matrices ``local``."""
        return self.add(np.zeros(self.nnz), local)

    def add(self, data: np.ndarray, local: np.ndarray, start: int = 0) -> np.ndarray:
        """Add the element matrices ``local`` of elements start, start + 1, ...
        into the CSR data ``data``, in element order.  Unlike ``np.bincount``,
        this adds in place, and a fill split into consecutive element ranges
        sums in the same order as a whole one."""
        np.add.at(data, self.positions(start, start + len(local)).ravel(), local.ravel())
        return data

    def add_blocks(self, data: np.ndarray, local) -> np.ndarray:
        """Add the element matrices ``local(block)`` of consecutive ranges
        ``block`` of FILL_BLOCK elements into ``data``, so that no whole
        (NT, k, l) array is held."""
        for t in range(0, self.num_elements, FILL_BLOCK):
            self.add(data, local(slice(t, t + FILL_BLOCK)), t)
        return data

    def matrix(self, data: np.ndarray) -> SparseMatrix:
        """The matrix of CSR data ``data`` on this pattern, sharing its index
        arrays: scipy copies an index array that views a small part of a
        larger one (B's rows of the MINI pattern), so its copy is replaced."""
        A = SparseMatrix((data, self.indices, self.indptr), shape=self.shape)
        A.indices = self.indices
        return A


class _BlockedPattern(_Pattern):
    """The pattern of element dofs [c*N + e[:, a] for c < k], a k x k grid
    of copies of the square N x N pattern ``base`` of element dofs e:
    row c*N + i holds the k copies of row i, so no sort is needed.  Equal
    to ``_Pattern(elem, elem, (k*N, k*N))``, whose positions it forms
    from three things it holds: the base's positions ``base`` (NT, m, m),
    the row shifts ``shift`` (NT, m, k) and ``stride``, k times the base's
    nnz.  Local entry (c*m + a, c2*m + b) of element t lies at
    base[t, a, b] + shift[t, a, c2] + c*stride."""

    def __init__(self, base: _Pattern, k: int):
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
        self._set_rows((k * n, k * n),
                       np.append((k * nnz * copies[:, None] + k * indptr[:-1]).ravel(),
                                 k * k * nnz),
                       np.tile(shifted[src], k))
        # Local row a of element t lies in base row r = e[t, a], the row of its
        # entry (a, 0), so the shifts need only (NT, m) gathers: copy (c, c2)
        # of its entry (a, b) sits at
        # base[t, a, b] + (k-1)*indptr[r] + c2*deg[r] + c*k*nnz.
        r = np.repeat(np.arange(n, dtype=np.int32), deg)[base.scatter[:, :, 0]]
        shift = np.empty((nt, m, k), dtype=np.int32)
        shift[:, :, 0] = (k - 1) * indptr[r]
        for c in range(1, k):
            shift[:, :, c] = shift[:, :, c - 1] + deg[r]
        self.base, self.shift, self.stride = base.scatter, _frozen(shift), k * nnz
        # The entries [a, c2, b] of a block row of an element: the base's
        # entry (a, b) and the shift (a, c2).
        a, c2, b = np.indices((m, k, m)).reshape(3, -1)
        self._gathers = _frozen(a * m + b), _frozen(a * k + c2)

    @property
    def num_elements(self) -> int:
        return self.base.shape[0]

    def positions(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The (n, k*m, k*m) data positions of elements start, ..., stop - 1
        (all elements by default), formed on each call: a block row's are
        one gather of the base's positions plus one of the shifts, and block
        row c adds c*stride to them."""
        base, shift = self.base[start:stop], self.shift[start:stop]
        n, m, k = shift.shape
        row = np.take(base.reshape(n, m * m), self._gathers[0], axis=1)
        row += np.take(shift.reshape(n, m * k), self._gathers[1], axis=1)
        out = np.empty((n, k, row.shape[1]), dtype=np.intp)
        for c in range(k):
            np.add(row, c * self.stride, out=out[:, c])
        return out.reshape(n, k * m, k * m)


def _coeff_at_qp(mesh: Mesh2D, coeff) -> np.ndarray:
    """Broadcast a scalar or per-quad-point coefficient to (NT, NQ)."""
    shape = (mesh.num_triangles, TRI_RULE.weights.size)
    c = np.asarray(coeff, dtype=float)
    if c.ndim == 0:
        return np.full(shape, float(c))
    if c.shape == shape:
        return c
    raise ValueError(f"coefficient shape {c.shape} not scalar or (NT, NQ)")


def _p1_pattern(mesh: Mesh2D) -> _Pattern:
    nv = mesh.num_vertices
    return cached(mesh, "p1_pattern",
                   lambda: _Pattern(mesh.triangles, mesh.triangles, (nv, nv)))


def _p1_matrix(mesh: Mesh2D, local: np.ndarray) -> SparseMatrix:
    """Assemble (NT, 3, 3) local matrices into the global P1 operator."""
    pattern = _p1_pattern(mesh)
    return pattern.matrix(pattern.fill(local))


# Vertex sets of at most this size are not dissected further.  With the
# smaller-side separators, leaves of 4 rather than 32 vertices hold 8-13%
# fewer factor entries in every system (README, "The fill-reducing order"),
# and build in ~3 ms more per mesh at 192x64.
ND_LEAF = 4


def _nested_dissection(xy: np.ndarray, pattern: _Pattern) -> np.ndarray:
    """Geometric nested-dissection order of the vertices at ``xy`` whose
    adjacency is the P1 ``pattern`` (George, SINUM 10, 1973).

    A set of more than ND_LEAF vertices is cut at the median coordinate of its
    longer extent.  The separator is taken from the smaller side of the cut:
    the lower vertices adjacent to the upper half, or the upper vertices
    adjacent to the lower half, the upper ones on a tie.  It is numbered
    after both halves, which are cut in turn.  All sets of one level are cut
    together; within a leaf or a separator the vertices keep their index
    order.

    Each coordinate is read as its rank among the distinct values of its
    axis, so one integer sort of set * NV + rank per axis and level gives
    every set's extremes and median.  No adjacent pair differs by more than
    ``reach`` along an axis, so only the vertices within reach of the median
    are searched for either side's separator.
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
        # half[u] is 2*set for a live vertex in a lower half, 2*set + 1 in an
        # upper half, so half ^ 1 is the other half; -1 for a placed vertex.
        half = np.full(nv, -1, dtype=np.int64)
        half[v] = 2 * s + ~lower
        near = v[np.where(lower, median - c, c - median) <= reach[axis]]
        near_deg = deg[near]
        entries = (np.repeat(indptr[near] - np.cumsum(near_deg) + near_deg, near_deg)
                   + np.arange(near_deg.sum()))
        cut = half[cols[entries]] == np.repeat(half[near] ^ 1, near_deg)
        sep = np.zeros(nv, dtype=bool)
        sep[np.repeat(near, near_deg)[cut]] = True
        sep = sep[v]
        # Each set's adjacent vertices by half; keep the smaller side's.
        sides = np.bincount(half[v[sep]], minlength=2 * count.size).reshape(-1, 2)
        sep &= lower == (sides[:, 0] < sides[:, 1])[s]
        n_lower = np.bincount(s[lower & ~sep], minlength=count.size)[s]
        n_upper = count[s] - n_lower - np.bincount(s[sep], minlength=count.size)[s]
        key[v] += np.where(sep, n_lower + n_upper, np.where(lower, 0, n_lower))
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
    bubble = coeff[:, None, :, 3, None] * geo.bubble_grads()[:, :, None, :]
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
    triangles and the local indices there of their two vertices.  A
    velocity's v.n has its one home here, :meth:`normal_velocity`, formed
    at each call."""

    def __init__(self, mesh: Mesh2D, tags):
        sel = np.isin(mesh.boundary_tags, np.asarray(tags, dtype=np.int64))
        self.pts, self.wts, self.normals = edge_quadrature(mesh, sel)
        edges = mesh.boundary_edges[sel]
        self.owners = mesh.boundary_edge_owners()[sel]
        self.local = np.argmax(mesh.triangles[self.owners][:, None, :] == edges[:, :, None], axis=2)
        self._vertices = edges.T.ravel()
        self._nv, self._p1 = mesh.num_vertices, _p1_pattern(mesh)
        # (NE, 2, 2) data positions of the edges' vertex pairs, off their owners' scatter.
        self._p1_positions = self._p1.scatter[self.owners[:, None, None], self.local[:, :, None],
                                              self.local[:, None, :]]
        for arr in (self.pts, self.wts, self.normals, self.owners, self.local, self._vertices,
                    self._p1_positions):
            _frozen(arr)

    def mass(self, weights: np.ndarray) -> np.ndarray:
        """Data, on the full P1 pattern, of the integrals of w psi_a psi_b."""
        data = np.zeros(self._p1.nnz)
        np.add.at(data, self._p1_positions, _edge_blocks(weights))
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

    def normal_velocity(self, coeff: np.ndarray) -> np.ndarray:
        """(NE, 2) v.n at the Gauss points of the MINI field of element
        coefficients ``coeff``: the one place v.n is formed."""
        return (self.trace(coeff) * self.normals[:, None, :]).sum(axis=-1)


def _tag_set(tags) -> tuple:
    """The sorted distinct tags of an iterable of tags: a per-mesh cache key."""
    return tuple(sorted({int(tag) for tag in tags}))


def boundary_edges(mesh: Mesh2D, tags) -> BoundaryEdges:
    """The :class:`BoundaryEdges` of ``tags`` (cached per tag set)."""
    tags = _tag_set(tags)
    return cached(mesh, ("boundary_edges", tags), lambda: BoundaryEdges(mesh, tags))


# -- reference maps of the element blocks ----------------------------------------
#
# An element block of each form below is a constant map R applied to a few
# products of the element's data, so a block of elements is one GEMM: the
# tensor representation of Kirby & Logg ("A compiler for variational forms",
# ACM TOMS 32, 2006), a vectorized assembly (Cuvelier, Japhet & Scarella, BIT
# 56, 2016) with the quadrature loop moved out of the step.
#
# - The convective form of the flow and the advection matrix of the heat are
#   bilinear in an element's 8 MINI velocity coefficients (NT, 2, 4) and its 6
#   P1 gradient entries (NT, 3, 2), and scale with det: the bubble gradient
#   is 27 sum_m l_n l_p grad(l_m), and every basis-value integral is det
#   times a reference one.  So x is the 48 products det c_i g_j.
# - The constant blocks depend on the element only through det and the 4
#   entries of the inverse Jacobian inv: the viscous block of a uniform
#   viscosity is det times a quadratic form in inv (x: the 10 products
#   det inv_i inv_j, i <= j), the divergence det times a linear one (x:
#   det inv_k) and the MINI mass det times a constant (x: det).
#
# R is the form's own quadrature kernel, applied once per process to unit
# inputs (a quadratic form polarized from its values at the units and their
# pairwise sums), so each form keeps its one definition and its quadrature.

_INV_PAIRS = np.triu_indices(4)  # the 10 pairs i <= j of the entries of inv


@cache
def _reference_map(kernel) -> np.ndarray:
    """(48, m) map R of the quadrature kernel ``kernel(qw, grad_p1,
    bubble_grads, a_qp)``: row 6 i + j is its m-entry block on an element of
    unit det with the unit coefficient i of [x|y][l1 l2 l3 bubble] and the
    unit gradient entry j of [l1 l2 l3][x|y], all 48 in one batched call."""
    unit = np.eye(48)
    coeff = unit.reshape(48, 8, 6).sum(axis=2).reshape(48, 2, 4)
    grad = unit.reshape(48, 8, 6).sum(axis=1).reshape(48, 3, 2)
    return _frozen(kernel(np.tile(TRI_RULE.weights, (48, 1)), grad,
                          27.0 * np.einsum("qm,imd->iqd", BUBBLE_GRAD_WEIGHTS, grad),
                          _mini_at_qp(coeff)).reshape(48, -1))


def _convective_features(geo: _Geometry, coeff: np.ndarray, block=slice(None),
                         out: np.ndarray | None = None) -> np.ndarray:
    """(48, n) products det c_i g_j of the triangles ``block`` and the MINI
    field of their element coefficients ``coeff``, [6 i + j, t]: transposed,
    the rows that :func:`_reference_map`'s maps take; written into ``out``
    when given.  A feature's products are one contiguous row."""
    c = np.ascontiguousarray(coeff.reshape(-1, 8).T)  # (8, n)
    c *= geo.det[block]
    g = np.ascontiguousarray(geo.grad_p1[block].reshape(-1, 6).T)  # (6, n)
    n = c.shape[1]
    out = np.empty((48, n)) if out is None else out
    np.multiply(c[:, None], g, out=np.reshape(out, (8, 6, n), copy=False))
    return out


def _reference_blocks(geo: _Geometry, coeff: np.ndarray, kernel, block=slice(None)) -> np.ndarray:
    """(n, m) element blocks of ``kernel``'s form for the triangles ``block``,
    advected by the MINI field of element coefficients ``coeff`` (theirs
    only): (det c (x) grad_p1) R, one GEMM."""
    return _convective_features(geo, coeff, block).T @ _reference_map(kernel)


def _unit_geometry(inv: np.ndarray) -> tuple:
    """(qw, grad_p1, bubble_grads), the arrays that the quadrature kernels
    read, of triangles of unit det with the inverse Jacobians ``inv`` (n, 2, 2)."""
    return (np.tile(TRI_RULE.weights, (len(inv), 1)), _combine(P1_REF_GRADS, inv),
            _combine(BUBBLE_REF_GRADS, inv))


@cache
def _viscous_map() -> np.ndarray:
    """(10, 64) map R of the viscous form of unit viscosity: row k is the
    coefficient of inv_i inv_j, pair k of _INV_PAIRS, in the block of
    :func:`_viscous_local` on a triangle of unit det.  The block is a
    quadratic form Q in inv, so R is polarized from Q at the 4 units e_i
    and the 6 sums e_i + e_j: Q(e_i + e_j) - Q(e_i) - Q(e_j)."""
    i, j = _INV_PAIRS
    inv = np.zeros((i.size, 4))
    inv[np.arange(i.size), i] = 1.0
    inv[np.arange(i.size), j] = 1.0
    q = _viscous_local(*_unit_geometry(inv.reshape(-1, 2, 2))).reshape(i.size, -1)
    units = q[i == j]  # Q(e_i), in order of i
    return _frozen(q - (i != j)[:, None] * (units[i] + units[j]))


def _viscous_features(geo: _Geometry, block=slice(None),
                       out: np.ndarray | None = None) -> np.ndarray:
    """(10, n) products det inv_i inv_j of the triangles ``block``,
    transposed: the rows that :func:`_viscous_map` takes; written into
    ``out`` when given."""
    inv = np.ascontiguousarray(geo.inv[block].reshape(-1, 4).T)  # (4, n)
    i, j = _INV_PAIRS
    out = np.multiply(inv[i], geo.det[block], out=out)
    out *= inv[j]
    return out


@cache
def _mass_unit() -> np.ndarray:
    """(4, 4) scalar block of the MINI mass on a triangle of unit det,
    integral phi_a phi_b over [l1 l2 l3 bubble]: the mass's one home."""
    return _frozen(_tab(TRI_RULE.weights[None], _products(MINI_VALS)).reshape(4, 4))


@cache
def _mass_map() -> np.ndarray:
    """(1, 64) map R of the MINI velocity mass: its block on a triangle of
    unit det, the scalar block on the x-x and y-y velocity blocks."""
    return _frozen(np.kron(np.eye(2), _mass_unit()).reshape(1, -1))


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
    """P1 stiffness with a scalar or (NT, NQ) diffusion coefficient: one
    sparse product of the per-mesh stiffness operator with the per-triangle
    scales (the P1 gradients are constant)."""
    scale = geometry(mesh).det * (_coeff_at_qp(mesh, coeff) @ TRI_RULE.weights)
    return _p1_pattern(mesh).matrix(_stiffness_operator(mesh) @ scale)


def assemble_mass(mesh: Mesh2D) -> SparseMatrix:
    """P1 mass matrix (cached, read-only)."""
    def build():
        unit = (TRI_RULE.weights @ _products(P1_VALS)).reshape(3, 3)
        return _frozen_csr(_p1_matrix(mesh, np.multiply.outer(geometry(mesh).det, unit)))

    return cached(mesh, "p1_mass", build)


def assemble_boundary_load(mesh: Mesh2D, tags, data) -> np.ndarray:
    """Load vector of the datum ``data`` (see :func:`sample`) against P1
    traces over the edges with the given tags."""
    edges = boundary_edges(mesh, tags)
    return edges.load(edges.wts * sample(data, edges.pts))


def _advection_local(qw: np.ndarray, grad_p1: np.ndarray, bubble_grads: np.ndarray,
                     vel_qp: np.ndarray) -> np.ndarray:
    """(NT, 3, 3) element matrices [i, j] = integral (v . grad(l_j)) l_i of
    the velocity ``vel_qp`` at the quad points; the kernel of the reference map."""
    wv = qw[:, None, :] * vel_qp.transpose(0, 2, 1)
    wv_l = _tab(wv, P1_VALS)  # (NT, 2, 3): [t, d, a] = integral v_d l_a
    return wv_l.transpose(0, 2, 1) @ grad_p1.transpose(0, 2, 1)


def assemble_advection(mesh: Mesh2D, velocity) -> SparseMatrix:
    """Scalar advection matrix D_ij = integral (v . grad(l_j)) l_i of the
    MINI field with the (NT, 2, 4) element coefficients ``velocity`` (as a
    :class:`flow_solver.VelocitySample` holds them), by the reference map."""
    geo, pattern = geometry(mesh), _p1_pattern(mesh)

    def local(block):
        return _reference_blocks(geo, velocity[block], _advection_local, block)
    return pattern.matrix(pattern.add_blocks(np.zeros(pattern.nnz), local))


def p1_moments(mesh: Mesh2D, qp_values) -> np.ndarray:
    """(NT, 3) integrals over each triangle of a per-quad-point sampled field
    (scalar or (NT, NQ)) times its corners' P1 basis functions."""
    return geometry(mesh).det[:, None] * (_coeff_at_qp(mesh, qp_values) @ WEIGHTED_P1)


def assemble_scalar_load(mesh: Mesh2D, source) -> np.ndarray:
    """Volume load f_i = integral source * l_i; source scalar or (NT, NQ)."""
    return np.bincount(mesh.triangles.ravel(), weights=p1_moments(mesh, source).ravel(),
                       minlength=mesh.num_vertices)


def integrate_qp(mesh: Mesh2D, qp_values) -> float:
    """Integral over the domain of a per-quad-point sampled field."""
    return float(geometry(mesh).det @ (_coeff_at_qp(mesh, qp_values) @ TRI_RULE.weights))


# -- MINI (velocity/pressure) assembly -------------------------------------------
#
# Element matrices of the velocity block are (NT, 8, 8) with local order
# [x | y] x [l1 l2 l3 bubble], the dofs [v1x v2x v3x bx v1y v2y v3y by].
# P1 gradients are constant per element and MINI values are the same on
# every triangle, so only the bubble gradient varies over the quadrature
# points.  Each block of triangles of the velocity block is one GEMM of its
# features with the reference maps above: the viscous block of a uniform
# viscosity, the convective block and the mass; a viscosity that varies
# over the quadrature points is integrated by the viscous kernel and added
# into the same fill.


def _mini_pattern(mesh: Mesh2D) -> _Pattern:
    """The pattern of the velocity block: two copies, x and y, of the P1
    pattern enriched with the bubbles."""
    return cached(mesh, "mini_pattern", lambda: _BlockedPattern(
        _Pattern.with_bubbles(_p1_pattern(mesh), mesh.triangles), 2))


def _viscous_local(wnu: np.ndarray, grad_p1: np.ndarray,
                   bubble_grads: np.ndarray) -> np.ndarray:
    """(NT, 8, 8) viscous element matrices of integral nu D(u):D(w); the
    kernel of the viscous map, and the route of a viscosity that varies.

    E[(d,a),(c,b)] = 1/2 integral nu (d_d phi_b d_c phi_a
                                      + delta_dc grad phi_a . grad phi_b),
    with ``wnu`` the quadrature weights times nu.
    """
    nt, nq = wnu.shape
    grads = np.empty((nt, nq, 4, 2))  # [t, q, a, c] = d_c(phi_a)
    grads[:, :, :3] = grad_p1[:, None]
    grads[:, :, 3] = bubble_grads
    g = grads.reshape(nt, nq, 8)
    gram = ((g.transpose(0, 2, 1) * wnu[:, None, :]) @ g).reshape(nt, 4, 2, 4, 2)
    # gram[t, a, c, b, d] = integral nu d_c(phi_a) d_d(phi_b)
    local = 0.5 * gram.transpose(0, 4, 1, 2, 3)  # [t, d, a, c, b]
    grad_dot = gram[:, :, 0, :, 0] + gram[:, :, 1, :, 1]
    for d in range(2):
        local[:, d, :, d, :] += 0.5 * grad_dot
    return local.reshape(nt, 8, 8)


def _convective_local(qw: np.ndarray, grad_p1: np.ndarray, bubble_grads: np.ndarray,
                      a_qp: np.ndarray) -> np.ndarray:
    """(NT, 8, 8) element matrices of the convective form -(a x u):D(w)
    advected by ``a_qp`` at the quad points; the kernel of the reference map.

    E[(d,a),(c,b)] = -1/2 integral phi_b (a_d d_c phi_a + delta_dc a . grad phi_a).
    """
    nt = grad_p1.shape[0]
    wa = qw[:, None, :] * a_qp.transpose(0, 2, 1)  # (NT, 2, NQ)
    m = _tab(wa, MINI_VALS)  # [t, d, b] = integral a_d phi_b
    wa_gb = np.empty(wa.shape[:2] + (2,) + wa.shape[2:])  # one bubble derivative at a time
    for c in range(2):
        np.multiply(wa, bubble_grads[:, None, :, c], out=wa_gb[:, :, c])
    n = _tab(wa_gb, MINI_VALS)  # [t, d, c, b] = integral a_d d_c(bubble) phi_b
    t1 = np.empty((nt, 2, 4, 2, 4))  # [t, d, a, c, b] = integral a_d d_c(phi_a) phi_b
    t1[:, :, :3] = grad_p1[:, None, :, :, None] * m[:, :, None, None, :]
    t1[:, :, 3] = n
    local = -0.5 * t1
    a_dot_grad = t1[:, 0, :, 0, :] + t1[:, 1, :, 1, :]  # integral (a . grad phi_a) phi_b
    for d in range(2):
        local[:, d, :, d, :] -= 0.5 * a_dot_grad
    return local.reshape(nt, 8, 8)


def _velocity_blocks(mesh: Mesh2D, viscosity, advect=None, gamma_n_tags=(),
                     mass_coeff: float = 0.0):
    """The element blocks of the velocity block A_vv plus ``mass_coeff``
    times the MINI mass: a function of a range ``block`` of triangles that
    returns their (n, 8, 8) blocks.  They are one GEMM of the triangles'
    features [det inv_i inv_j | det c (x) grad_p1 | det] with the stacked
    maps [nu R_visc; R_conv; mass_coeff R_mass], each part present only when
    its term is; a viscosity that varies is integrated by
    :func:`_viscous_local` and added to the product.  With ``advect``, the
    convective surface term on the ``gamma_n_tags`` edges is added to the
    blocks of the edges' owners (:func:`_surface`)."""
    geo = geometry(mesh)
    nu = np.asarray(viscosity, dtype=float)
    nu = nu if nu.ndim == 0 else _coeff_at_qp(mesh, nu)
    varying = nu.ndim > 0 and nu.min() != nu.max()
    # parts: (map, writer of the features of a block of n triangles into a
    # (map rows, n) array).
    parts = [] if varying else [(nu.flat[0] * _viscous_map(),
                                 lambda block, out: _viscous_features(geo, block, out))]
    surface = None
    if advect is not None:
        coeff = velocity_element_coeffs(mesh, advect)
        parts.append((_reference_map(_convective_local),
                      lambda block, out: _convective_features(geo, coeff[block], block, out)))
        surface = _surface(mesh, coeff, gamma_n_tags)
    if mass_coeff:
        parts.append((mass_coeff * _mass_map(),
                      lambda block, out: np.copyto(out[0], geo.det[block])))
    stacked = np.concatenate([r for r, _ in parts]) if parts else None

    def local(block):
        out = None
        if varying:
            wnu = TRI_RULE.weights * geo.det[block, None]  # the quadrature weights
            out = _viscous_local(np.multiply(wnu, nu[block], out=wnu), geo.grad_p1[block],
                                 geo.bubble_grads(block))
        if stacked is not None:
            # The block's features, a feature per row, which its GEMM reads
            # transposed; freed with the block, before its condensation.
            x, at = np.empty((stacked.shape[0], len(geo.det[block]))), 0
            for r, write in parts:
                write(block, x[at:at + r.shape[0]])
                at += r.shape[0]
            product = (x.T @ stacked).reshape(-1, 8, 8)
            out = product if out is None else np.add(out, product, out=out)
        return out if surface is None else surface(out, block)
    return local


def _surface(mesh: Mesh2D, coeff: np.ndarray, gamma_n_tags, newton: bool = False):
    """A function ``add(local, block)`` that adds the convective surface
    term s(a; u, w) = integral_{Gamma_N} (a.n)(u.w) of the MINI field ``a``
    of element coefficients ``coeff``, formed from its a.n on the edges, to
    the (n, 8, 8) element blocks ``local`` of the triangles ``block``: each
    edge's 2 x 2 blocks to its owner's.  With ``newton``, the term is its
    derivative in u at u = a, which adds integral_{Gamma_N} (delta.n)(u.w):
    the (d, c) velocity block with weight a_d n_c.  The term couples vertex
    values only, so it leaves the bubble rows and columns as they are."""
    edges = boundary_edges(mesh, gamma_n_tags)
    blocks = np.zeros((edges.owners.size, 2, 2, 2, 2))  # [edge, d, a, c, b]
    surf = _edge_blocks(edges.wts * edges.normal_velocity(coeff))
    for comp in range(2):
        blocks[:, comp, :, comp] = surf
    if newton:
        a_e = edges.trace(coeff)
        for d in range(2):
            for c in range(2):
                blocks[:, d, :, c] += _edge_blocks(edges.wts * a_e[..., d]
                                                   * edges.normals[:, None, c])
    # Entry [e, d, a, c, b] is the owner's local entry (4 d + local[e, a], 4 c
    # + local[e, b]); the edges are sorted by owner, so a block's are a slice.
    order = np.argsort(edges.owners, kind="stable")
    owners, blocks = edges.owners[order], blocks[order]
    at = 4 * np.arange(2)[:, None] + edges.local[order, None, :]  # (NE, 2, 2): [e, d, a]
    rows, cols = np.broadcast_arrays(at[:, :, :, None, None], at[:, None, None])

    def add(local, block):
        lo, hi = np.searchsorted(owners, (block.start, block.start + len(local)))
        if lo < hi:
            np.add.at(local, (owners[lo:hi, None, None, None, None] - block.start,
                              rows[lo:hi], cols[lo:hi]), blocks[lo:hi])
        return local
    return add


def mini_mass_product(mesh: Mesh2D, v: np.ndarray) -> np.ndarray:
    """M v of the MINI velocity mass M and a velocity ``v``, flow velocity
    dofs or their element coefficients, element by element: each
    component's coefficients times the unit block (:func:`_mass_unit`, the
    block that the mass map embeds), scaled by det and summed into the
    velocity dofs.  No mesh holds the mass."""
    return _velocity_sum(mesh, velocity_element_coeffs(mesh, v), _mass_unit())


def _divergence_local(qw: np.ndarray, grad_p1: np.ndarray,
                      bubble_grads: np.ndarray) -> np.ndarray:
    """(n, 3, 2, 4) element blocks of B, [t, i, c, b] = integral psi_i
    d_c(phi_b); the kernel of the divergence map."""
    psi = _tab(qw, P1_VALS)  # (n, 3): integral psi_i
    bubble = _tab(qw[:, None, :] * bubble_grads.transpose(0, 2, 1),
                  P1_VALS)  # (n, 2, 3): integral psi_i d_c(bubble)
    local = np.empty((len(psi), 3, 2, 4))
    local[..., :3] = psi[:, :, None, None] * grad_p1.transpose(0, 2, 1)[:, None]
    local[..., 3] = bubble.transpose(0, 2, 1)
    return local


@cache
def _divergence_map() -> np.ndarray:
    """(4, 24) map R of B's element blocks, det times a linear form in inv:
    row k is the block of :func:`_divergence_local` on a triangle of unit
    det whose inverse Jacobian is the unit entry k."""
    return _frozen(_divergence_local(*_unit_geometry(np.eye(4).reshape(4, 2, 2))).reshape(4, -1))


def _divergence_pattern(mesh: Mesh2D) -> _Pattern:
    """The pattern of B.  Row i holds the velocity dofs of the triangles at
    vertex i, as the MINI pattern's x row of vertex i does: it is those rows,
    and its positions are the MINI positions of the x vertex rows, formed a
    range at a time while B is built."""
    mini, nv, nt = _mini_pattern(mesh), mesh.num_vertices, mesh.num_triangles
    scatter = np.empty((nt, 3, 8), dtype=np.int32)
    for t in range(0, nt, FILL_BLOCK):
        scatter[t:t + FILL_BLOCK] = mini.positions(t, t + FILL_BLOCK)[:, :3]
    return _Pattern._new((nv, mini.shape[1]), mini.indptr[:nv + 1],
                         mini.indices[:mini.indptr[nv]], scatter)


def assemble_divergence(mesh: Mesh2D) -> SparseMatrix:
    """Divergence block B, (Bu)_i = integral psi_i div(u) (cached, read-only):
    each block of triangles' element blocks are det inv times the divergence
    map, one GEMM."""
    def build():
        geo, pattern = geometry(mesh), _divergence_pattern(mesh)

        def local(block):
            x = geo.det[block, None] * geo.inv[block].reshape(-1, 4)
            return (x @ _divergence_map()).reshape(-1, 3, 8)
        return _frozen_csr(pattern.matrix(pattern.add_blocks(np.zeros(pattern.nnz), local)))

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
# Its pressure-pressure block is no longer zero.  Every block above is a
# slice of the triangle's velocity element block and of its divergence
# block, with K_ll = [[A_ll, -B_l^T], [B_l, 0]].  So the Schur complement
# is filled a block of triangles at a time from the element blocks that the
# velocity fill has just formed, beside their fill of A_vv.  No mesh holds
# anything per element for it; a saddle keeps K_lb A_bb^-1 and A_bb^-1, for
# condense and recover.

class _CondensedLayout:
    """The per-mesh pattern and dof maps of the condensed system, P1 dofs
    ordered [vx | vy | p]: ``pattern``, the P1 pattern blocked 3 x 3, whose
    element dofs are l's; ``p1_dofs``, the full flow dof of each condensed
    one; ``index``, the condensed position of each full dof, -1 on the
    bubbles; ``bubbles`` (NT, 2), each triangle's [bx by]."""

    def __init__(self, mesh: Mesh2D):
        dm, nv = dofmap_for(mesh), mesh.num_vertices
        self.pattern = _BlockedPattern(_p1_pattern(mesh), 3)
        idx = np.arange(nv)
        self.p1_dofs = _frozen(np.concatenate(
            [dm.vx_vertex(idx), dm.vy_vertex(idx), dm.pressure(idx)]))
        self.index = np.full(dm.n_flow, -1, dtype=np.int64)  # -1 on bubbles
        self.index[self.p1_dofs] = np.arange(3 * nv)
        _frozen(self.index)
        it = np.arange(mesh.num_triangles)
        self.bubbles = _frozen(np.column_stack([dm.vx_bubble(it), dm.vy_bubble(it)]))  # (NT, 2)


def _invert_2x2(A: np.ndarray, first: int = 0) -> np.ndarray:
    """Batched inverses of the (N, 2, 2) bubble blocks of triangles first,
    first + 1, ...; raises SingularMatrix on a block whose determinant
    vanishes to round-off or is not finite."""
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises instead
        ad, bc = a * d, b * c
        det = ad - bc
        # A NaN or infinite determinant fails the comparison too.
        bad = ~(np.abs(det) > 4.0 * np.finfo(float).eps * (np.abs(ad) + np.abs(bc)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularMatrix(f"bubble block of triangle {first + k} is singular "
                             f"(det = {det[k]:.3e}, {int(bad.sum())} such triangles "
                             f"in {first}-{first + len(det) - 1})")
    inv = np.empty(A.shape)
    for (i, j), entry in (((0, 0), d), ((0, 1), -b), ((1, 0), -c), ((1, 1), a)):
        np.divide(entry, det, out=inv[:, i, j])
    return inv


@dataclass
class CondensedSaddle:
    """The MINI saddle system [[A_vv, -B^T], [B, 0]] with its bubbles condensed out.

    ``matrix`` is the Schur complement on the P1 dofs [vx | vy | p] (order
    3*NV); :meth:`condense` and :meth:`recover` map right-hand sides and
    solutions between the full flow layout of :class:`DofMap` and this one,
    whose position of full dof d is ``layout.index[d]``.  ``A_vv`` and ``B``
    are the full system's blocks, which :meth:`recover` and :meth:`residual`
    read.
    """

    layout: _CondensedLayout
    triangles: np.ndarray  # (NT, 3) the mesh's, the vertices of each triangle's l
    A_vv: SparseMatrix  # full velocity block on the MINI pattern
    B: SparseMatrix
    matrix: SparseMatrix | None  # None once released (take_matrix)
    inv_bb: np.ndarray  # (NT, 2, 2) inverse bubble blocks
    w_lb: np.ndarray | None  # (NT, 9, 2) K_lb A_bb^-1 of the Schur complement, until condensed

    def condense(self, rhs: np.ndarray) -> np.ndarray:
        """Condensed right-hand side b_l - K_lb A_bb^-1 b_b of a full flow rhs,
        summed a component of l at a time over the triangles' corners.  It
        reads the couplings K_lb A_bb^-1 that formed the Schur complement
        and releases them, so that a solve of the condensed system does not
        hold them: a saddle is condensed once."""
        lay = self.layout
        w_lb, self.w_lb = self.w_lb, None
        corr = (w_lb @ rhs[lay.bubbles][:, :, None])[..., 0]  # (NT, 9)
        out = rhs[lay.p1_dofs]
        nv = out.size // 3
        for c in range(3):
            out[c * nv:(c + 1) * nv] -= np.bincount(
                self.triangles.ravel(), weights=corr[:, 3 * c:3 * c + 3].ravel(), minlength=nv)
        return out

    def take_matrix(self) -> SparseMatrix:
        """The condensed matrix, which the saddle releases: a solve that
        rebinds it to its eliminated copy frees it before factorizing."""
        matrix, self.matrix = self.matrix, None
        return matrix

    def recover(self, x_l: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Full flow vector from the P1 solution, bubbles A_bb^-1 (b_b - K_bl x_l):
        with the bubbles at zero, the bubble rows of [A_vv, -B^T] x are K_bl x_l."""
        lay = self.layout
        x = np.zeros(lay.index.size)
        x[lay.p1_dofs] = x_l
        r_b = rhs[lay.bubbles] - self._momentum(x)[lay.bubbles]
        x[lay.bubbles] = np.einsum("tij,tj->ti", self.inv_bb, r_b)
        return x

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """rhs - [[A_vv, -B^T], [B, 0]] x on the full (uncondensed) system."""
        return rhs - np.concatenate([self._momentum(x), self.B @ x[:self.A_vv.shape[0]]])

    def _momentum(self, x: np.ndarray) -> np.ndarray:
        """[A_vv, -B^T] x, the velocity rows of the saddle product."""
        n = self.A_vv.shape[0]
        return self.A_vv @ x[:n] - self.B.T @ x[n:]


# The entries of an element's (8, 8) velocity block [x | y] x [l1 l2 l3
# bubble] in the order A_ll (6, 6), A_lb (6, 2), A_bl (2, 6), A_bb (2, 2) of
# the condensation: l's velocity dofs are places 0-2 and 4-6 of the eight,
# b's places 3 and 7.
_VELOCITY_ORDER = np.concatenate([
    (8 * np.array(rows)[:, None] + cols).ravel()
    for rows, cols in (([0, 1, 2, 4, 5, 6], [0, 1, 2, 4, 5, 6]), ([0, 1, 2, 4, 5, 6], [3, 7]),
                       ([3, 7], [0, 1, 2, 4, 5, 6]), ([3, 7], [3, 7]))])


@cache
def _condensation_map() -> np.ndarray:
    """(4, 93) map of the divergence's entries in the condensation, from det
    inv as B's element blocks are (:func:`assemble_divergence`): the
    divergence map's columns laid over K_ll's (9, 9) block, B_l in its
    pressure rows and -B_l^T in its pressure columns, zeros elsewhere; then
    B_b (3, 2) and -B_b^T (2, 3)."""
    r = _divergence_map().reshape(4, 3, 2, 4)  # [k, i, c, b]
    k_ll = np.zeros((4, 9, 9))
    k_ll[:, 6:, :6] = r[..., :3].reshape(4, 3, 6)
    k_ll[:, :6, 6:] = -r[..., :3].transpose(0, 2, 3, 1).reshape(4, 6, 3)
    return _frozen(np.concatenate([k_ll.reshape(4, 81), r[..., 3].reshape(4, 6),
                                   -r[..., 3].transpose(0, 2, 1).reshape(4, 6)], axis=1))


def _schur_blocks(local: np.ndarray, geo: _Geometry, part: slice, inv_bb: np.ndarray,
                  w_lb: np.ndarray) -> np.ndarray:
    """(n, 9, 9) Schur complements K_ll - K_lb A_bb^-1 K_bl of the triangles
    ``part`` from their (n, 8, 8) velocity element blocks ``local`` and their
    divergence entries (:func:`_condensation_map`); A_bb^-1 is written into
    ``inv_bb`` (n, 2, 2) and K_lb A_bb^-1 into ``w_lb`` (n, 9, 2)."""
    n = len(local)
    a = np.take(local.reshape(n, 64), _VELOCITY_ORDER, axis=1)
    div = (geo.det[part, None] * geo.inv[part].reshape(-1, 4)) @ _condensation_map()
    inv_bb[:] = _invert_2x2(a[:, 60:].reshape(n, 2, 2), part.start)
    k_lb = np.concatenate([a[:, 36:48].reshape(n, 6, 2), div[:, 81:87].reshape(n, 3, 2)], axis=1)
    np.matmul(k_lb, inv_bb, out=w_lb)
    k_bl = np.concatenate([a[:, 48:60].reshape(n, 2, 6), div[:, 87:].reshape(n, 2, 3)], axis=2)
    schur = np.matmul(w_lb, k_bl)
    np.subtract(div[:, :81].reshape(n, 9, 9), schur, out=schur)
    schur[:, :6, :6] += a[:, :36].reshape(n, 6, 6)
    return schur


def _condensed_saddle(mesh: Mesh2D, local) -> CondensedSaddle:
    """The saddle system whose velocity block has the (n, 8, 8) element
    blocks ``local(block)`` of each range ``block`` of FILL_BLOCK triangles,
    condensed: a quarter range at a time, the blocks are added into the MINI
    data of A_vv and their Schur complements (:func:`_schur_blocks`) into
    the condensed data, so that no (NT, 8, 8) or (NT, 9, 9) array is held,
    nor the data positions of more than a quarter range."""
    lay = cached(mesh, "condensed_layout", lambda: _CondensedLayout(mesh))
    geo, mini, nt = geometry(mesh), _mini_pattern(mesh), mesh.num_triangles
    data, schur = np.zeros(mini.nnz), np.zeros(lay.pattern.nnz)
    inv_bb, w_lb = np.empty((nt, 2, 2)), np.empty((nt, 9, 2))
    # A triangle's condensation temporaries are four times its element
    # block, so a quarter range's are no larger than the range's blocks.
    quarter = FILL_BLOCK // 4
    for t in range(0, nt, FILL_BLOCK):
        blocks = local(slice(t, t + FILL_BLOCK))
        for s in range(t, t + len(blocks), quarter):
            part, some = slice(s, s + quarter), blocks[s - t:s - t + quarter]
            mini.add(data, some, s)
            lay.pattern.add(schur, _schur_blocks(some, geo, part, inv_bb[part], w_lb[part]), s)
    return CondensedSaddle(lay, mesh.triangles, mini.matrix(data), assemble_divergence(mesh),
                           lay.pattern.matrix(schur), inv_bb, w_lb)


def assemble_condensed_saddle(mesh: Mesh2D, viscosity, advect=None, gamma_n_tags=(),
                              mass_coeff: float = 0.0) -> CondensedSaddle:
    """Saddle system [[mass_coeff M + A_vv, -B^T], [B, 0]] with the bubbles
    condensed out.  A_vv is the viscous form integral nu D(u):D(w) of the
    ``viscosity`` (scalar or (NT, NQ)) plus, when ``advect`` is given, the
    convective form -integral (a x u):D(w) + integral_{Gamma_N} (a.n)(u.w),
    with the surface term on the ``gamma_n_tags`` edges; ``advect`` is a
    flow dof vector or its element coefficients.  M is the MINI mass
    (:func:`_mass_map`) and B the divergence (:func:`assemble_divergence`).
    Each block of triangles' element blocks (:func:`_velocity_blocks`) fill
    A_vv and the Schur complement together (:func:`_condensed_saddle`).
    The condensed layout is built on first use.  Raises SingularMatrix when
    a bubble block cannot be inverted."""
    return _condensed_saddle(mesh, _velocity_blocks(mesh, viscosity, advect, gamma_n_tags,
                                                    mass_coeff))


def assemble_newton_saddle(mesh: Mesh2D, viscosity, u: np.ndarray, gamma_n_tags=()):
    """Newton linearization at the velocity ``u`` of the stationary saddle
    system whose velocity block is nu V + C(u), the viscous form plus the
    convective form of :func:`assemble_condensed_saddle` advected by the
    velocity itself: returns (saddle, load), the condensed [[nu V + N(u), -B^T],
    [B, 0]] with N(u) the derivative of C(u) u, and the velocity load
    C(u) u = 1/2 N(u) u.  The next Newton iterate solves saddle x = [f + load; 0].
    c(a; u, w) is symmetric in a and u, since D(w) is, so the derivative of
    c(u; u, w) is 2 c(u; ., w): the volume form advected by 2u, exactly; the
    surface term's is :func:`_surface`'s with ``newton``.  Each triangle's
    N(u) block times u's element coefficients is kept, and the load sums
    them (:func:`_element_sum`).  Raises SingularMatrix when a bubble block
    cannot be inverted."""
    geo = geometry(mesh)
    coeff = velocity_element_coeffs(mesh, u)
    doubled = 2.0 * coeff  # an exact scaling
    viscous, surface = _velocity_blocks(mesh, viscosity), _surface(mesh, coeff, gamma_n_tags,
                                                                   newton=True)
    load = np.empty(coeff.shape)  # N(u) u element by element, [x | y] x [l1 l2 l3 bubble]

    def local(block):
        blocks = surface(_reference_blocks(geo, doubled[block], _convective_local,
                                           block).reshape(-1, 8, 8), block)
        np.matmul(blocks, coeff[block].reshape(-1, 8, 1), out=load[block].reshape(-1, 8, 1))
        return np.add(blocks, viscous(block), out=blocks)

    saddle = _condensed_saddle(mesh, local)
    return saddle, 0.5 * _element_sum(mesh, load)


def assemble_vector_load(mesh: Mesh2D, force_qp) -> np.ndarray:
    """Velocity load L[(a,c)] = integral f_c * phi_a; force_qp is (NT, NQ, 2)."""
    return _velocity_sum(mesh, np.asarray(force_qp, dtype=float).transpose(0, 2, 1),
                         WEIGHTED_MINI)


def _element_sum(mesh: Mesh2D, values: np.ndarray) -> np.ndarray:
    """The velocity dof vector of the (NT, 2, 4) element vectors ``values``,
    [x | y] x [l1 l2 l3 bubble]: each vertex sums its triangles' entries, and
    each bubble is its own triangle's."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    out = np.empty(2 * (nv + nt))
    for c in range(2):
        comp = out[c * (nv + nt):(c + 1) * (nv + nt)]
        comp[:nv] = np.bincount(mesh.triangles.ravel(), weights=values[:, c, :3].ravel(),
                                minlength=nv)
        comp[nv:] = values[:, c, 3]
    return out


def _velocity_sum(mesh: Mesh2D, values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The velocity dof vector of det times each component of the (NT, 2, K)
    element ``values`` against the (K, 4) ``table`` of [l1 l2 l3 bubble]:
    each vertex sums its triangles' terms, and each bubble is its own
    triangle's.  A component at a time, so every array is (NT, 3) at most."""
    nv, nt, det = mesh.num_vertices, mesh.num_triangles, geometry(mesh).det
    out = np.empty(2 * (nv + nt))
    for c in range(2):
        comp = out[c * (nv + nt):(c + 1) * (nv + nt)]
        vertex = values[:, c] @ table[:, :3]
        vertex *= det[:, None]
        comp[:nv] = np.bincount(mesh.triangles.ravel(), weights=vertex.ravel(), minlength=nv)
        np.multiply(values[:, c] @ table[:, 3], det, out=comp[nv:])
    return out
