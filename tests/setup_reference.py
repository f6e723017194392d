"""The per-mesh set-up builders in the forms they had before they were
rewritten for speed: the references that the rewritten builders must match
byte for byte (tests/test_setup_builders.py).  Not collected by pytest."""

import numpy as np

from ablatesim import fem_core, verify
from ablatesim import mesh as mesh_mod


def mesh_checks(mesh):
    """(areas, h, owners) of ``mesh`` by the corner gather, row sums and the
    six-column edge gather."""
    corners = mesh.vertices[mesh.triangles]  # (NT, 3, 2)
    d1 = corners[:, 1] - corners[:, 0]
    d2 = corners[:, 2] - corners[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    d3 = corners[:, 2] - corners[:, 1]
    h = np.sqrt(np.maximum(np.maximum((d1 * d1).sum(axis=1), (d3 * d3).sum(axis=1)),
                           (d2 * d2).sum(axis=1)))
    nv = mesh.num_vertices

    def edge_keys(edges):
        a, b = edges[..., 0], edges[..., 1]
        return np.minimum(a, b) * nv + np.maximum(a, b)

    keys = edge_keys(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2))
    order = np.argsort(keys, kind="stable")
    sorted_keys = np.append(keys[order], np.iinfo(np.int64).max)
    pos = np.searchsorted(sorted_keys, edge_keys(mesh.boundary_edges))
    return areas, h, order[pos] // 3


def channel_vertices(spec):
    """The channel mesh's vertices by meshgrid and column_stack."""
    xx, yy = np.meshgrid(spec.x_grid(), np.linspace(0.0, spec.H, spec.ny + 1), indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def mms_mesh_arrays(nx, ny):
    """(vertices, triangles) of ``verify._mms_mesh`` by np.setdiff1d and
    per-column flips."""
    spec = mesh_mod.GeometrySpec(nx=nx, ny=ny, **verify.MMS_GEOMETRY)
    verts, tris, edges, _ = mesh_mod.channel_mesh_arrays(spec)
    rng = np.random.default_rng(100000 + 1000 * nx + ny)
    interior = np.setdiff1d(np.arange(verts.shape[0]), edges.ravel())
    hx = verify.MMS_GEOMETRY["L"] / nx
    hy = verify.MMS_GEOMETRY["H"] / ny
    verts[interior, 0] += rng.uniform(-verify.MMS_JIGGLE, verify.MMS_JIGGLE, interior.size) * hx
    verts[interior, 1] += rng.uniform(-verify.MMS_JIGGLE, verify.MMS_JIGGLE, interior.size) * hy
    k = np.nonzero(rng.random(tris.shape[0] // 2) < 0.5)[0]
    v00, v10, v11 = tris[2 * k].T
    v01 = tris[2 * k + 1, 2]
    tris[2 * k] = np.column_stack([v00, v10, v01])
    tris[2 * k + 1] = np.column_stack([v10, v11, v01])
    return verts, tris


def combine(table, x):
    """fem_core._combine by strided accumulation into a zero start."""
    out = np.zeros((x.shape[0], table.shape[0], x.shape[2]))
    for d in range(x.shape[2]):
        o = out[:, :, d]
        for k in range(table.shape[1]):
            o += x[:, k, d, None] * table[:, k]
    return out


def geometry(mesh):
    """(det, qw, qp, grad_p1, inv) of ``fem_core._Geometry``."""
    coords = mesh.vertices[mesh.triangles]  # (NT, 3, 2)
    jac = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    qw = fem_core.TRI_RULE.weights[None, :] * det[:, None]
    return (det, qw, combine(fem_core.P1_VALS, coords),
            combine(fem_core.P1_REF_GRADS, inv), inv)


def _pattern(shape, indptr, indices, scatter):
    return fem_core._Pattern._new(shape, indptr, indices, scatter)


def sorted_pattern(row_dofs, col_dofs, shape):
    """The sort-built pattern, by np.unique."""
    ncols = shape[1]
    keys = (row_dofs[:, :, None] * ncols + col_dofs[:, None, :]).ravel()
    uniq, inverse = np.unique(keys, return_inverse=True)
    return _pattern(shape, np.searchsorted(uniq, np.arange(shape[0] + 1) * ncols),
                    uniq % ncols,
                    inverse.reshape(row_dofs.shape[0], row_dofs.shape[1], col_dofs.shape[1]))


def blocked(base, k):
    """``_Pattern.blocked`` by scattered block rows and 5-d broadcasts."""
    n, nnz = base.shape[0], base.nnz
    indptr, deg = base.indptr, np.diff(base.indptr)
    rows = np.repeat(np.arange(n), deg)
    copies = np.arange(k, dtype=np.int32)
    row_cols = np.empty(k * nnz, dtype=np.int32)
    at = (k - 1) * indptr[rows] + np.arange(nnz, dtype=np.int32)
    row_cols[at + copies[:, None] * deg[rows]] = base.indices + n * copies[:, None]
    elem_rows = rows[base.scatter[:, :, 0]]
    shift = ((k - 1) * indptr[elem_rows])[:, :, None] + deg[elem_rows][:, :, None] * copies
    scatter = base.scatter[:, None, :, None, :] + shift[:, None, :, :, None]
    scatter = scatter + (k * nnz * copies)[:, None, None, None]
    nt, m = base.scatter.shape[:2]
    return _pattern((k * n, k * n),
                    np.append((k * nnz * copies[:, None] + k * indptr[:-1]).ravel(), k * k * nnz),
                    np.tile(row_cols, k), scatter.reshape(nt, k * m, k * m))


def with_bubbles(p1, triangles):
    """``_Pattern.with_bubbles`` with int64 intermediates and (NT, 3, 3) ranks."""
    nv, nt, nnz = p1.shape[0], triangles.shape[0], p1.nnz
    indptr = p1.indptr.astype(np.int64)
    flat = triangles.ravel()
    order = np.argsort(flat, kind="stable")
    q = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=nv), out=q[1:])
    rank = np.empty(3 * nt, dtype=np.int64)
    rank[order] = np.arange(3 * nt)
    bubble_start = nnz + 3 * nt + 4 * np.arange(nt + 1)
    within = (triangles[:, :, None] > triangles[:, None, :]).sum(axis=2)
    indices = np.empty(bubble_start[-1], dtype=np.int64)
    indices[np.arange(nnz) + q[np.repeat(np.arange(nv), np.diff(indptr))]] = p1.indices
    indices[indptr[flat[order] + 1] + np.arange(3 * nt)] = nv + order // 3
    indices[bubble_start[:-1, None] + within] = triangles
    indices[bubble_start[:-1] + 3] = nv + np.arange(nt)
    scatter = np.empty((nt, 4, 4), dtype=np.int64)
    scatter[:, :3, :3] = p1.scatter + q[triangles][:, :, None]
    scatter[:, :3, 3] = indptr[triangles + 1] + rank.reshape(nt, 3)
    scatter[:, 3, :3] = bubble_start[:-1, None] + within
    scatter[:, 3, 3] = bubble_start[:-1] + 3
    return _pattern((nv + nt, nv + nt), np.concatenate([indptr + q, bubble_start[1:]]),
                    indices, scatter)


def mini_mass_block(mesh):
    """``fem_core.mini_mass_block`` on the P1 pattern with bubbles built
    again from the P1 pattern."""
    pattern = with_bubbles(fem_core._p1_pattern(mesh), mesh.triangles)
    block = fem_core._tab(fem_core.geometry(mesh).qw, fem_core._products(fem_core.MINI_VALS))
    return pattern.matrix(pattern.fill(block.reshape(-1, 4, 4)))


def condensed_maps(mesh):
    """Every map of ``fem_core._CondensedLayout``: the vertex-vertex and
    divergence maps by (2, 2, nnz) broadcasts and the transposed entries'
    offsets, the bubble dofs off the (NT, 8) element dofs."""
    dm, nv, t = fem_core.dofmap_for(mesh), mesh.num_vertices, mesh.triangles
    mini, p1 = fem_core._mini_pattern(mesh), fem_core._p1_pattern(mesh)
    B = fem_core.assemble_divergence(mesh)
    pattern = blocked(p1, 3)
    deg = np.diff(p1.indptr)
    rows = np.repeat(np.arange(nv), deg)
    offset = np.arange(p1.nnz) - p1.indptr[rows]
    mirror = np.empty(p1.nnz, dtype=np.int64)
    mirror[p1.scatter] = p1.scatter.transpose(0, 2, 1)
    mirror_offset = mirror - p1.indptr[p1.indices]

    def mini_at(c, c2, i, off):
        row = c * (nv + len(t)) + i
        return mini.indptr[row] + c2 * (mini.indptr[row + 1] - mini.indptr[row]) // 2 + off

    def condensed_at(c, c2, i, off):
        return pattern.indptr[c * nv + i] + c2 * deg[i] + off

    c, c2 = np.arange(2)[:, None, None], np.arange(2)[:, None]
    div = np.zeros(pattern.nnz)
    cc = np.arange(2)[:, None]
    div[condensed_at(2, cc, rows, offset)] = B.data[mini_at(0, cc, rows, offset)]
    div[condensed_at(cc, 2, rows, offset)] = 0.0 - B.data[mini_at(0, cc, p1.indices,
                                                                   mirror_offset)]
    idx = np.arange(nv)
    p1_dofs = np.concatenate([dm.vx_vertex(idx), dm.vy_vertex(idx), dm.pressure(idx)])
    index = np.full(dm.n_flow, -1, dtype=np.int64)
    index[p1_dofs] = np.arange(3 * nv)
    pos = mini.scatter.reshape(-1, 2, 4, 2, 4)
    return {"elem": np.concatenate([t, nv + t, 2 * nv + t], axis=1),
            "pattern": pattern, "p1_dofs": p1_dofs, "index": index,
            "bubbles": dm.velocity_element_dofs(mesh)[:, fem_core._BUBBLE],
            "bb": pos[:, :, 3, :, 3].copy(),
            "bl": pos[:, :, 3, :, :3].reshape(-1, 2, 6),
            "lb": pos[:, :, :3, :, 3].reshape(-1, 6, 2),
            "ll_src": mini_at(c, c2, rows, offset).ravel(),
            "ll_dst": condensed_at(c, c2, rows, offset).ravel(),
            "b_bubble": B.data[mini.scatter[:, :3, fem_core._BUBBLE]],
            "div_data": div}


def nested_dissection(xy, pattern):
    """``fem_core._nested_dissection`` by a pass over every P1 entry per
    level, a sort of the live vertices by set and a lexsort for the medians."""
    nv = xy.shape[0]
    rows = np.repeat(np.arange(nv), np.diff(pattern.indptr))
    cols = pattern.indices
    key = np.zeros(nv, dtype=np.int64)
    live = np.full(nv, nv > fem_core.ND_LEAF)
    while live.any():
        v = np.flatnonzero(live)
        per_key = np.bincount(key[v], minlength=nv)
        s = (np.cumsum(per_key > 0) - 1)[key[v]]
        count = per_key[per_key > 0]
        first = np.cumsum(count) - count
        pts = xy[v[np.argsort(s, kind="stable")]]
        extent = np.maximum.reduceat(pts, first) - np.minimum.reduceat(pts, first)
        c = xy[v, np.argmax(extent, axis=1)[s]]
        median = c[np.lexsort((c, s))[first + count // 2]][s]
        lower = c < median
        lower |= (np.bincount(s[lower], minlength=count.size) == 0)[s] & (c == median)
        half = np.zeros(nv, dtype=np.int64)
        half[v] = 2 * s + 2 - lower
        row_half = half[rows]
        cut = (row_half == half[cols] + 1) & ((row_half & 1) == 0)
        sep = np.zeros(nv, dtype=bool)
        sep[rows[cut]] = True
        sep = sep[v]
        n_lower = np.bincount(s[lower], minlength=count.size)[s]
        n_upper = count[s] - n_lower - np.bincount(s[sep], minlength=count.size)[s]
        key[v] += np.where(lower, 0, np.where(sep, n_lower + n_upper, n_lower))
        live[v] = ~sep & (np.where(lower, n_lower, n_upper) > fem_core.ND_LEAF)
    return np.argsort(key, kind="stable")
