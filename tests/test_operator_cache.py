"""Per-mesh operator cache: cached operators against fresh COO assemblies,
read-only arrays, one cache per mesh, and the per-step hot path."""

import numpy as np
import pytest

from ablatesim import fem_core, linalg, verify
from ablatesim import mesh as mesh_mod
from ablatesim.coupler import SimState, Simulation
from ablatesim.fem_core import dofmap_for
from ablatesim.linalg import CooBuilder
from ablatesim.materials import MaterialModel
from ablatesim.mesh import GAMMA1, GAMMA3, GAMMA5, GeometrySpec, Mesh2D, generate_channel_mesh
from ablatesim.sim_cli import preset

RTOL = 1e-13


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
    vals4[:, :, :3] = geo.p1_vals
    vals4[:, :, 3] = geo.bubble_vals
    grads4 = np.empty((nt, nq, 4, 2))
    grads4[:, :, :3, :] = geo.grad_p1[:, None]
    grads4[:, :, 3, :] = geo.grad_bubble
    return geo.qw, vals4, grads4


def ref_p1_mass(mesh):
    geo = fem_core.geometry(mesh)
    local = np.einsum("tq,qa,qb->tab", geo.qw, geo.p1_vals, geo.p1_vals)
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
        local = np.einsum("tq,qa,tqb->tab", w, geo.p1_vals, g4[..., c])
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


# -- tests ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MESHES))
class TestCachedOperatorsMatchCoo:
    def test_p1_mass(self, name):
        mesh = MESHES[name]()
        assert rel_diff(fem_core.assemble_mass(mesh), ref_p1_mass(mesh)) <= RTOL

    def test_mini_mass(self, name):
        mesh = MESHES[name]()
        dm = dofmap_for(mesh)
        assert rel_diff(fem_core.assemble_mini_mass(mesh), ref_mini_mass(mesh, dm)) <= RTOL

    def test_divergence_and_gradient(self, name):
        mesh = MESHES[name]()
        dm = dofmap_for(mesh)
        B = ref_divergence(mesh, dm)
        blocks = fem_core.assemble_mini_blocks(mesh, 1.0)
        assert rel_diff(fem_core.assemble_divergence(mesh), B) <= RTOL
        assert rel_diff(blocks["B"], B) <= RTOL

    def test_boundary_mass(self, name):
        mesh = MESHES[name]()
        for tags in ((GAMMA1,), (GAMMA5,), (GAMMA1, GAMMA3, GAMMA5)):
            sel = np.isin(mesh.boundary_tags, tags)
            _, wts, _ = fem_core.edge_quadrature(mesh, sel)
            MB = fem_core.assemble_edge_mass(mesh, sel, wts)
            assert rel_diff(MB, ref_boundary_mass(mesh, tags)) <= RTOL

    def test_constant_viscosity_block(self, name):
        mesh = MESHES[name]()
        dm = dofmap_for(mesh)
        nu = 0.0021
        nu_qp = np.full(fem_core.geometry(mesh).qw.shape, nu)
        ref = ref_viscous(mesh, dm, nu_qp)
        for viscosity in (nu, nu_qp):
            A = fem_core.assemble_mini_blocks(mesh, viscosity)["A_vv"]
            assert rel_diff(A, ref) <= RTOL

    def test_theta_dependent_viscosity_bypasses_cache(self, name):
        mesh = MESHES[name]()
        dm = dofmap_for(mesh)
        fem_core.assemble_mini_blocks(mesh, 0.0021)  # fill the constant-nu cache
        model = MaterialModel(nu_law=lambda th: 0.002 + 1e-4 * (th - 37.0))
        theta = 37.0 + 20.0 * np.sin(3.0 * mesh.vertices[:, 0]) * mesh.vertices[:, 1]
        nu_qp = model.nu(fem_core.p1_at_qp(mesh, theta))
        assert nu_qp.min() < nu_qp.max()
        A = fem_core.assemble_mini_blocks(mesh, nu_qp)["A_vv"]
        assert rel_diff(A, ref_viscous(mesh, dm, nu_qp)) <= RTOL

    def test_owners_match_brute_force(self, name):
        mesh = MESHES[name]()
        assert np.array_equal(mesh.boundary_edge_owners(), brute_force_owners(mesh))


class TestCacheIntegrity:
    def test_cached_arrays_are_read_only(self):
        mesh = channel()
        blocks = fem_core.assemble_mini_blocks(mesh, 1.0)
        geo = fem_core.geometry(mesh)
        arrays = [mesh.boundary_edge_owners(), mesh.boundary_outward_normals(),
                  geo.qw, geo.qp, geo.grad_p1, geo.grad_bubble]
        for A in (fem_core.assemble_mass(mesh), fem_core.assemble_mini_mass(mesh),
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
        first = fem_core.assemble_mini_blocks(mesh, 0.5)["A_vv"]
        expected = first.toarray()
        first.data[:] = 0.0  # the caller owns the data of a refilled operator
        again = fem_core.assemble_mini_blocks(mesh, 0.5)["A_vv"]
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
