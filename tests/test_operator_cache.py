"""Per-mesh operator cache: cached operators against fresh COO assemblies,
read-only arrays, one cache per mesh, and the per-step hot path."""

import hashlib

import numpy as np
import pytest

from ablatesim import fem_core, flow_solver, linalg, verify
from ablatesim import mesh as mesh_mod
from ablatesim.coupler import SimState, Simulation
from ablatesim.fem_core import dofmap_for
from ablatesim.linalg import CooBuilder
from ablatesim.materials import MaterialModel
from ablatesim.mesh import GAMMA1, GAMMA3, GAMMA5, GeometrySpec, Mesh2D, generate_channel_mesh
from ablatesim.sim_cli import preset
from mini_reference import assemble_mini_blocks, assemble_mini_mass

RTOL = 1e-13
# The bytes of the per-mesh constants of a test1 run at 48x16 after 3 steps
# (test_per_mesh_constants_hold_their_bytes); int64 index arrays.
HELD_BYTES_48x16 = 4_458_028


def channel():
    return generate_channel_mesh(GeometrySpec(L=1.5, H=0.5, r=0.075, nx=20, ny=10))


MESHES = {"channel": channel, "mms": lambda: verify._mms_mesh(16, 8)}


def rel_diff(A, B) -> float:
    return float(abs(A - B).max() / abs(B).max())


# -- reference assemblies: per-element einsum, summed through a CooBuilder ----------


def _coo(shape, rows, cols, local):
    builder = CooBuilder(*shape)
    builder.add(rows, cols, local)
    return builder.finalize()


def _block_indices(row_dofs, col_dofs):
    k, m = row_dofs.shape[1], col_dofs.shape[1]
    return np.repeat(row_dofs, m, axis=1), np.tile(col_dofs, (1, k))


def _mini_tables(mesh):
    geo = fem_core.geometry(mesh)
    nt, nq = geo.qw.shape
    vals4 = np.empty((nt, nq, 4))
    vals4[:, :, :3] = fem_core.P1_VALS
    vals4[:, :, 3] = fem_core.BUBBLE_VALS
    grads4 = np.empty((nt, nq, 4, 2))
    grads4[:, :, :3, :] = geo.grad_p1[:, None]
    grads4[:, :, 3, :] = geo.grad_bubble
    return geo.qw, vals4, grads4


def ref_p1_mass(mesh):
    geo = fem_core.geometry(mesh)
    local = np.einsum("tq,qa,qb->tab", geo.qw, fem_core.P1_VALS, fem_core.P1_VALS)
    nv = mesh.num_vertices
    return _coo((nv, nv), *_block_indices(mesh.triangles, mesh.triangles), local)


def ref_mini_mass(mesh, dm):
    w, v4, _ = _mini_tables(mesh)
    local = np.einsum("tq,tqa,tqb->tab", w, v4, v4)
    dofs = dm.velocity_element_dofs(mesh)
    builder = CooBuilder(dm.n_velocity, dm.n_velocity)
    for comp in range(2):
        rows, cols = _block_indices(dofs[:, 4 * comp:4 * comp + 4], dofs[:, 4 * comp:4 * comp + 4])
        builder.add(rows, cols, local)
    return builder.finalize()


def ref_divergence(mesh, dm):
    w, _, g4 = _mini_tables(mesh)
    geo = fem_core.geometry(mesh)
    dofs = dm.velocity_element_dofs(mesh)
    builder = CooBuilder(dm.n_pressure, dm.n_velocity)
    for c in range(2):
        local = np.einsum("tq,qa,tqb->tab", w, fem_core.P1_VALS, g4[..., c])
        builder.add(*_block_indices(mesh.triangles, dofs[:, 4 * c:4 * c + 4]), local)
    return builder.finalize()


def ref_viscous(mesh, dm, nu_qp):
    w, _, g4 = _mini_tables(mesh)
    wnu = w * nu_qp
    local = np.zeros((mesh.num_triangles, 8, 8))
    grad_dot = np.einsum("tq,tqak,tqbk->tab", wnu, g4, g4)
    for d in range(2):
        for c in range(2):
            blk = 0.5 * np.einsum("tq,tqb,tqa->tab", wnu, g4[..., d], g4[..., c])
            if c == d:
                blk = blk + 0.5 * grad_dot
            local[:, 4 * d:4 * d + 4, 4 * c:4 * c + 4] += blk
    dofs = dm.velocity_element_dofs(mesh)
    return _coo((dm.n_velocity, dm.n_velocity), *_block_indices(dofs, dofs), local)


def ref_boundary_mass(mesh, tags):
    nv = mesh.num_vertices
    builder = CooBuilder(nv, nv)
    p = mesh.vertices
    gauss = fem_core.EDGE_T
    phi = np.stack([1.0 - gauss, gauss])
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag in tags:
            length = np.linalg.norm(p[b] - p[a])
            local = length * np.einsum("g,ig,jg->ij", fem_core.EDGE_W, phi, phi)
            builder.add([a, a, b, b], [a, b, a, b], local)
    return builder.finalize()


def brute_force_owners(mesh):
    owner_of = {}
    for it, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            owner_of.setdefault((min(a, b), max(a, b)), it)
    return np.array([owner_of[(min(a, b), max(a, b))] for a, b in mesh.boundary_edges])


def permuted_channel(seed=7):
    """The 48x16 channel with its vertices renumbered at random, its triangles
    shuffled and each triangle's vertices rotated (still counter-clockwise)."""
    mesh = generate_channel_mesh(GeometrySpec(L=1.5, H=0.5, r=0.075, nx=48, ny=16))
    rng = np.random.default_rng(seed)
    new_of_old = rng.permutation(mesh.num_vertices)
    old_of_new = np.argsort(new_of_old)
    tris = new_of_old[mesh.triangles][rng.permutation(mesh.num_triangles)]
    shift = rng.integers(0, 3, len(tris))[:, None]
    tris = np.take_along_axis(tris, (np.arange(3) + shift) % 3, axis=1)
    return Mesh2D(mesh.vertices[old_of_new], tris, new_of_old[mesh.boundary_edges],
                  mesh.boundary_tags)


BUILDER_MESHES = {
    "channel": lambda: generate_channel_mesh(GeometrySpec(L=1.5, H=0.5, r=0.075, nx=48, ny=16)),
    "mms_jiggled": lambda: verify._mms_mesh(32, 16),
    "permuted": permuted_channel,
}

# sha256 of vertex_order(mesh) (int64 bytes), recorded with the sort-built
# patterns and the einsum geometry.
VERTEX_ORDER_SHA256 = {
    "channel": "45a68ea309c136cf044884136b42ab18a35c68fee8088ed62b248ae2982af0f2",
    "mms_jiggled": "e2c3e5cb9f393794d129ec701ab2f7750350bef40365c2468e310cf1391693a6",
    "permuted": "64ce158a79ac61cdd580d9fa0faea6965ce95512e142fa8ff054d699499f9fa6",
}


def assert_same_pattern(got, want):
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "scatter"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


# -- tests ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILDER_MESHES))
class TestArithmeticBuilders:
    """Each per-mesh constant built by arithmetic against the sort, einsum or
    whole-element-matrix build it replaces."""

    def test_patterns_match_sorted_construction(self, name):
        mesh = BUILDER_MESHES[name]()
        dm, nv, t = dofmap_for(mesh), mesh.num_vertices, mesh.triangles
        dofs = dm.velocity_element_dofs(mesh)
        elem = np.concatenate([t, nv + t, 2 * nv + t], axis=1)
        Pattern = fem_core._Pattern
        assert_same_pattern(fem_core._p1_pattern(mesh), Pattern(t, t, (nv, nv)))
        assert_same_pattern(fem_core._mini_pattern(mesh),
                            Pattern(dofs, dofs, (dm.n_velocity, dm.n_velocity)))
        assert_same_pattern(fem_core._divergence_pattern(mesh),
                            Pattern(t, dofs, (dm.n_pressure, dm.n_velocity)))
        assert_same_pattern(fem_core._CondensedLayout(mesh).pattern,
                            Pattern(elem, elem, (3 * nv, 3 * nv)))

    def test_geometry_matches_einsum_bit_for_bit(self, name):
        mesh = BUILDER_MESHES[name]()
        geo = fem_core.geometry(mesh)
        coords = mesh.vertices[mesh.triangles]
        jac = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.stack([np.stack([jac[:, 1, 1], -jac[:, 0, 1]], axis=1),
                        np.stack([-jac[:, 1, 0], jac[:, 0, 0]], axis=1)], axis=1)
        jinvT = (inv / det[:, None, None]).transpose(0, 2, 1)
        bary = fem_core.TRI_RULE.points
        ref_gb = fem_core.BUBBLE_REF_GRADS
        want = {"qp": np.einsum("qa,tad->tqd", bary, coords),
                "grad_p1": np.einsum("tde,ae->tad", jinvT, fem_core.P1_REF_GRADS),
                "grad_bubble": np.einsum("tde,qe->tqd", jinvT, ref_gb)}
        for attr, ref in want.items():
            got = getattr(geo, attr)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), attr

    def test_vertex_order_unchanged(self, name):
        mesh = BUILDER_MESHES[name]()
        order = fem_core.vertex_order(mesh)
        assert order.dtype == np.int64
        assert hashlib.sha256(order.tobytes()).hexdigest() == VERTEX_ORDER_SHA256[name]

    def test_constant_fills_match_whole_element_fills(self, name):
        mesh = BUILDER_MESHES[name]()
        geo, nt = fem_core.geometry(mesh), mesh.num_triangles
        mini = fem_core._mini_pattern(mesh)
        local = np.zeros((nt, 2, 4, 2, 4))
        block = fem_core._tab(geo.qw, fem_core._products(fem_core.MINI_VALS)).reshape(-1, 4, 4)
        for comp in range(2):
            local[:, comp, :, comp, :] = block
        want = mini.fill(local.reshape(nt, 8, 8))
        assert assemble_mini_mass(mesh).data.tobytes() == want.tobytes()
        unit = mini.fill(fem_core._viscous_local(geo, geo.qw))
        A = assemble_mini_blocks(mesh, 1.0)["A_vv"]
        assert A.data.tobytes() == unit.tobytes()
        # The condensed layout reads B's blocks off B and maps A_vv's
        # vertex-vertex entries by row arithmetic.
        lay = fem_core._CondensedLayout(mesh)
        div_local = fem_core._divergence_local(mesh)
        b_vertex = div_local[..., :3].reshape(-1, 3, 6)
        div = np.zeros((nt, 9, 9))
        div[:, 6:, :6] = b_vertex
        div[:, :6, 6:] = -b_vertex.transpose(0, 2, 1)
        assert lay.div_data.tobytes() == lay.pattern.fill(div).tobytes()
        assert lay.b_bubble.tobytes() == np.ascontiguousarray(div_local[..., 3]).tobytes()
        vertex = np.array([0, 1, 2, 4, 5, 6])  # vertex dofs among the 8 local ones
        src = mini.scatter[:, vertex[:, None], vertex].ravel()
        dst = np.full(mini.nnz, -1)
        dst[src] = lay.pattern.scatter[:, :6, :6].ravel()
        order = np.argsort(lay.ll_src)
        assert np.array_equal(lay.ll_src[order], np.flatnonzero(dst >= 0))
        assert np.array_equal(lay.ll_dst[order], dst[dst >= 0])

    def test_owners_match_brute_force(self, name):
        mesh = BUILDER_MESHES[name]()
        assert np.array_equal(mesh.boundary_edge_owners(), brute_force_owners(mesh))




@pytest.mark.parametrize("name", sorted(MESHES))
class TestCachedOperatorsMatchCoo:
    def test_p1_mass(self, name):
        mesh = MESHES[name]()
        assert rel_diff(fem_core.assemble_mass(mesh), ref_p1_mass(mesh)) <= RTOL

    def test_mini_mass(self, name):
        mesh = MESHES[name]()
        dm = dofmap_for(mesh)
        assert rel_diff(assemble_mini_mass(mesh), ref_mini_mass(mesh, dm)) <= RTOL

    def test_divergence_and_gradient(self, name):
        mesh = MESHES[name]()
        dm = dofmap_for(mesh)
        B = ref_divergence(mesh, dm)
        blocks = assemble_mini_blocks(mesh, 1.0)
        assert rel_diff(fem_core.assemble_divergence(mesh), B) <= RTOL
        assert rel_diff(blocks["B"], B) <= RTOL

    def test_boundary_mass(self, name):
        mesh = MESHES[name]()
        for tags in ((GAMMA1,), (GAMMA5,), (GAMMA1, GAMMA3, GAMMA5)):
            edges = fem_core.boundary_edges(mesh, tags)
            MB = fem_core._p1_pattern(mesh).matrix(edges.mass(edges.wts))
            assert rel_diff(MB, ref_boundary_mass(mesh, tags)) <= RTOL

    def test_constant_viscosity_block(self, name):
        mesh = MESHES[name]()
        dm = dofmap_for(mesh)
        nu = 0.0021
        nu_qp = np.full(fem_core.geometry(mesh).qw.shape, nu)
        ref = ref_viscous(mesh, dm, nu_qp)
        for viscosity in (nu, nu_qp):
            A = assemble_mini_blocks(mesh, viscosity)["A_vv"]
            assert rel_diff(A, ref) <= RTOL

    def test_theta_dependent_viscosity_bypasses_cache(self, name):
        mesh = MESHES[name]()
        dm = dofmap_for(mesh)
        assemble_mini_blocks(mesh, 0.0021)  # fill the constant-nu cache
        model = MaterialModel(nu_law=lambda th: 0.002 + 1e-4 * (th - 37.0))
        theta = 37.0 + 20.0 * np.sin(3.0 * mesh.vertices[:, 0]) * mesh.vertices[:, 1]
        nu_qp = model.nu(fem_core.p1_at_qp(mesh, theta))
        assert nu_qp.min() < nu_qp.max()
        A = assemble_mini_blocks(mesh, nu_qp)["A_vv"]
        assert rel_diff(A, ref_viscous(mesh, dm, nu_qp)) <= RTOL

    def test_owners_match_brute_force(self, name):
        mesh = MESHES[name]()
        assert np.array_equal(mesh.boundary_edge_owners(), brute_force_owners(mesh))


class TestCacheIntegrity:
    def test_cached_arrays_are_read_only(self):
        mesh = channel()
        blocks = assemble_mini_blocks(mesh, 1.0)
        geo = fem_core.geometry(mesh)
        arrays = [mesh.boundary_edge_owners(), mesh.boundary_outward_normals(),
                  geo.qw, geo.qp, geo.grad_p1, geo.inv]
        for A in (fem_core.assemble_mass(mesh), assemble_mini_mass(mesh),
                  blocks["B"]):
            arrays += [A.data, A.indices, A.indptr]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1
        # Matrices refilled per call on a cached pattern share its index arrays.
        with pytest.raises(ValueError):
            blocks["A_vv"].indices[0] = 1

    def test_refilled_data_is_private(self):
        mesh = channel()
        first = assemble_mini_blocks(mesh, 0.5)["A_vv"]
        expected = first.toarray()
        first.data[:] = 0.0  # the caller owns the data of a refilled operator
        again = assemble_mini_blocks(mesh, 0.5)["A_vv"]
        assert np.array_equal(again.toarray(), expected)

    def test_meshes_never_share_a_cache(self):
        m1 = channel()
        m2 = channel()
        scaled = Mesh2D(2.0 * m1.vertices, m1.triangles, m1.boundary_edges, m1.boundary_tags)
        assert fem_core.geometry(m1) is not fem_core.geometry(m2)
        assert fem_core.assemble_mass(m1) is fem_core.assemble_mass(m1)
        assert fem_core.assemble_mass(m1) is not fem_core.assemble_mass(m2)
        M1 = fem_core.assemble_mass(m1)
        assert abs(fem_core.assemble_mass(scaled) - 4.0 * M1).max() <= 1e-14 * abs(M1).max()
        B1 = fem_core.assemble_divergence(m1)
        assert abs(fem_core.assemble_divergence(scaled) - 2.0 * B1).max() <= 1e-14 * abs(B1).max()


class TestHotPath:
    def test_no_coo_builds_after_first_step(self, monkeypatch):
        finalize_calls = []
        owner_arrays = []
        finalize = CooBuilder.finalize
        owners = Mesh2D.boundary_edge_owners

        def counted_finalize(self):
            finalize_calls.append(1)
            return finalize(self)

        def counted_owners(self):
            owner_arrays.append(owners(self))
            return owner_arrays[-1]

        monkeypatch.setattr(linalg.CooBuilder, "finalize", counted_finalize)
        monkeypatch.setattr(mesh_mod.Mesh2D, "boundary_edge_owners", counted_owners)

        cfg = preset("test1")
        cfg.geometry.nx, cfg.geometry.ny = 20, 10
        sim = Simulation(cfg)
        nv = sim.mesh.num_vertices
        state = SimState(t=0.0, n=0, v=np.zeros(sim.dofmap.n_velocity), P=np.zeros(nv),
                         theta=np.full(nv, sim.model.theta_b), phi=np.zeros(nv),
                         theta_prev=None)
        state = sim.advance(state)
        first_step_owner_calls = len(owner_arrays)
        finalize_calls.clear()
        for _ in range(2):
            state = sim.advance(state)
        assert finalize_calls == []
        assert len(owner_arrays) == first_step_owner_calls  # normals are cached too
        assert len({id(arr) for arr in owner_arrays}) == 1  # one owner build per mesh

    def test_only_the_p1_pattern_is_sorted(self, monkeypatch):
        sorted_shapes = []
        sort_build = fem_core._Pattern.__init__

        def counted_sort_build(self, row_dofs, col_dofs, shape):
            sorted_shapes.append(shape)
            sort_build(self, row_dofs, col_dofs, shape)

        monkeypatch.setattr(fem_core._Pattern, "__init__", counted_sort_build)
        cfg = preset("test1")
        cfg.geometry.nx, cfg.geometry.ny = 24, 8
        sim = Simulation(cfg)
        nv = sim.mesh.num_vertices
        state = SimState(t=0.0, n=0, v=np.zeros(sim.dofmap.n_velocity), P=np.zeros(nv),
                         theta=np.full(nv, sim.model.theta_b), phi=np.zeros(nv),
                         theta_prev=None)
        for _ in range(2):
            state = sim.advance(state)
        assert "condensed_layout" in fem_core.geometry(sim.mesh).operators
        assert sorted_shapes == [(nv, nv)]


# -- held forms against the forms they replaced ---------------------------------------


def full_mini_mass_data(mesh):
    """The MINI mass data on the full MINI pattern as they were held before
    the scalar block alone was: both diagonal blocks scattered element by
    element into zeros."""
    geo = fem_core.geometry(mesh)
    block = fem_core._tab(geo.qw, fem_core._products(fem_core.MINI_VALS)).reshape(-1, 4, 4)
    pattern = fem_core._mini_pattern(mesh)
    data = np.zeros(pattern.nnz)
    for comp in (slice(0, 4), slice(4, 8)):
        np.add.at(data, pattern.scatter[:, comp, comp].ravel(), block.ravel())
    return data


def dissipation_of_bubble_gradients(mesh, v):
    """D(v):D(v) as it was formed from the whole (NT, NQ, 2) bubble
    gradient, with the (3, NT, NQ) scales |P1 part| + |bubble part| of its
    strain components [D_xx, D_yy, D_xy], each term taken in modulus, and
    the moduli of those components."""
    geo = fem_core.geometry(mesh)
    coeff = fem_core.velocity_element_coeffs(mesh, v)
    jac = coeff[:, :, :3] @ geo.grad_p1
    bx, by = coeff[:, 0, 3, None], coeff[:, 1, 3, None]
    gb = geo.grad_bubble
    gx, gy = gb[..., 0], gb[..., 1]
    out = np.square(jac[:, 0, 0, None] + bx * gx)
    out += np.square(jac[:, 1, 1, None] + by * gy)
    dxy = bx * gy
    dxy += by * gx
    dxy += (jac[:, 0, 1] + jac[:, 1, 0])[:, None]
    dxy *= 0.5
    strain = np.stack([jac[:, 0, 0, None] + bx * gx, jac[:, 1, 1, None] + by * gy, dxy])
    out += 2.0 * np.square(dxy, out=dxy)
    # 27 sum_m w_qm sum_k |R_mk| |inv_kd| bounds |d_d(bubble)| and every
    # partial sum of either form's bubble gradient.
    ref = np.abs(fem_core.P1_REF_GRADS)  # (3, 2): R
    s = 27.0 * np.einsum("qm,mk,tkd->tqd", fem_core.BUBBLE_GRAD_WEIGHTS, ref, np.abs(geo.inv))
    scale = np.stack([np.abs(jac[:, 0, 0, None]) + np.abs(bx) * s[..., 0],
                      np.abs(jac[:, 1, 1, None]) + np.abs(by) * s[..., 1],
                      0.5 * (np.abs(jac[:, 0, 1] + jac[:, 1, 0])[:, None]
                             + np.abs(bx) * s[..., 1] + np.abs(by) * s[..., 0])])
    return out, scale, np.abs(strain)


@pytest.mark.parametrize("name", sorted(BUILDER_MESHES))
class TestHeldForms:
    """Each constant held in a smaller form, or formed on demand, against
    the form it replaced."""

    def test_mini_mass_from_its_scalar_block(self, name):
        mesh = BUILDER_MESHES[name]()
        full = full_mini_mass_data(mesh)
        assert assemble_mini_mass(mesh).data.tobytes() == full.tobytes()
        # M v per component and the velocity block with its mass term, both
        # formed from the scalar block, equal the full-pattern forms; only a
        # zero may differ in sign, since the full form added the zeros of
        # its x-y blocks.
        rng = np.random.default_rng(1)
        dm = dofmap_for(mesh)
        v = rng.standard_normal(dm.n_velocity)
        mini = fem_core._mini_pattern(mesh)
        assert np.array_equal(fem_core.mini_mass_product(mesh, v), mini.matrix(full) @ v)
        advect = fem_core.velocity_element_coeffs(mesh, v)
        for viscosity in (0.0021, 0.002 + 1e-4 * rng.uniform(size=fem_core.geometry(mesh).qw.shape)):
            got = fem_core._velocity_block(mesh, viscosity, advect, (GAMMA3,), 20.0)
            want = fem_core._velocity_block(mesh, viscosity, advect, (GAMMA3,))
            want += 20.0 * full
            assert np.array_equal(got, want)
            differ = got.view(np.int64) != want.view(np.int64)
            assert not got[differ].any()

    def test_bubble_gradients_formed_on_demand(self, name):
        mesh = BUILDER_MESHES[name]()
        geo = fem_core.geometry(mesh)
        held = fem_core._combine(fem_core.BUBBLE_REF_GRADS, geo.inv)  # as it was held
        assert geo.grad_bubble.tobytes() == held.tobytes()
        block = slice(100, 100 + fem_core.FILL_BLOCK)
        assert geo.bubble_grads(block).tobytes() == held[block].tobytes()

    def test_dissipation_within_its_roundoff_bound(self, name):
        # Each strain component of either form is the P1 part plus the
        # bubble part with at most ~8 roundings on the way, each of relative
        # size eps against the sum of the terms' moduli (the scale); so the
        # two differ by at most delta = 16 eps scale, and the squares by
        # delta (2 |D| + delta), weighted 1, 1, 2.
        mesh = BUILDER_MESHES[name]()
        v = np.random.default_rng(2).standard_normal(dofmap_for(mesh).n_velocity)
        want, scale, strain = dissipation_of_bubble_gradients(mesh, v)
        delta = 16.0 * np.finfo(float).eps * scale
        bound = np.tensordot([1.0, 1.0, 2.0], delta * (2.0 * strain + delta), axes=1)
        got = flow_solver.viscous_dissipation(mesh, v)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound)


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


def test_per_mesh_constants_hold_their_bytes():
    # A deterministic count of what a run keeps per mesh: the geometry and
    # its operator cache after 3 steps from rest with test1 physics at
    # 48x16.  It was 4,990,368 bytes when the geometry held the bubble
    # gradients, the MINI mass sat on the full MINI pattern and each Robin
    # tag kept its own copy beside the constant pair.
    cfg = preset("test1")
    sim = Simulation(cfg)
    nv = sim.mesh.num_vertices
    state = SimState(t=0.0, n=0, v=np.zeros(sim.dofmap.n_velocity), P=np.zeros(nv),
                     theta=np.full(nv, sim.model.theta_b), phi=np.zeros(nv), theta_prev=None)
    for _ in range(3):
        state = sim.advance(state)
    geo = fem_core.geometry(sim.mesh)
    arrays = held_arrays(geo, [], set())
    total = held_bytes(arrays)
    assert total <= 1.02 * HELD_BYTES_48x16, total
    # No per-point vector field is held but the quadrature points (the
    # bubble gradients were).
    nt, nq = geo.qw.shape
    assert not [arr.shape for arr in arrays if arr.shape == (nt, nq, 2)
                and arr is not geo.qp]
